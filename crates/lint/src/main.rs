//! CLI entry point: `cargo run -p adore-lint [-- --format json]`.
//!
//! Exits non-zero when any unsuppressed finding (or a configuration /
//! IO error) is present, so `ci.sh` can gate on it with `-D` semantics.

use std::path::PathBuf;
use std::process::ExitCode;

use adore_lint::config::Config;

fn main() -> ExitCode {
    let mut format = "text".to_string();
    let mut root: Option<PathBuf> = None;
    let mut config_path: Option<PathBuf> = None;
    let mut only: Option<Vec<String>> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--only" => match args.next() {
                Some(list) => {
                    let rules: Vec<String> = list
                        .split(',')
                        .map(|r| r.trim().to_ascii_uppercase())
                        .filter(|r| !r.is_empty())
                        .collect();
                    if rules.is_empty()
                        || rules
                            .iter()
                            .any(|r| !adore_lint::explain::RULE_IDS.contains(&r.as_str()))
                    {
                        eprintln!(
                            "adore-lint: --only expects a comma-separated rule list \
                             (known: {})",
                            adore_lint::explain::RULE_IDS.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                    only = Some(rules);
                }
                None => {
                    eprintln!("adore-lint: --only expects a rule list (e.g. L9,L10,L11,L12)");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                other => {
                    eprintln!("adore-lint: --format expects `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("adore-lint: --root expects a path");
                    return ExitCode::from(2);
                }
            },
            "--config" => match args.next() {
                Some(p) => config_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("adore-lint: --config expects a path");
                    return ExitCode::from(2);
                }
            },
            "--explain" => match args.next() {
                Some(rule) => match adore_lint::explain::explain(&rule) {
                    Some(text) => {
                        println!("{text}");
                        return ExitCode::SUCCESS;
                    }
                    None => {
                        eprintln!(
                            "adore-lint: unknown rule `{rule}` (known: {})",
                            adore_lint::explain::RULE_IDS.join(", ")
                        );
                        return ExitCode::from(2);
                    }
                },
                None => {
                    eprintln!("adore-lint: --explain expects a rule id (e.g. L9)");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "adore-lint: certify protocol discipline at the source level\n\
                     \n\
                     USAGE: adore-lint [--format text|json] [--root DIR]\n\
                     \n                  [--config FILE] [--only RULE[,RULE...]]\n\
                     \n       adore-lint --explain RULE\n\
                     \n\
                     Scans the workspace for violations of rules L2 (panic-free\n\
                     recovery) and the concurrency-discipline rules L9 (lock-order\n\
                     cycles), L10 (no-panic lock acquisition), L11 (no lock held\n\
                     across blocking calls), and L12 (hot-path sends shed\n\
                     explicitly). The other ids are retired: rustc and clippy\n\
                     discharge L1, L3, L4, L5, L7 and L8 (privacy, non_exhaustive,\n\
                     clippy.toml); the model checker, refine.rs and the unit suites\n\
                     hold L6, L13 and L14; a debug_assert in the engine holds L15\n\
                     (DESIGN.md sections 8, 10 and 15).\n\
                     The text report ends with a per-rule table: findings, pragma\n\
                     debt, and each rule's own analysis time. `--only L9,L10`\n\
                     narrows the report (and the exit status) to the listed rules;\n\
                     P0/E0 always count. `--explain RULE` prints a rule's\n\
                     rationale, the paper invariant it guards, and a minimal\n\
                     violating example.\n\
                     Configuration: adore-lint.toml at the workspace root.\n\
                     \n\
                     EXIT STATUS:\n\
                     \n  0  clean (no unsuppressed findings)\n\
                     \n  1  ordinary unsuppressed findings\n\
                     \n  2  integrity errors: malformed pragma (P0), unparsable\n\
                     \n     file (E0), bad configuration, IO failure, or usage"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("adore-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    // Default to the workspace root this binary was built in.
    let root = root.unwrap_or_else(|| {
        PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("..")
            .join("..")
    });
    let config_path = config_path.unwrap_or_else(|| root.join("adore-lint.toml"));

    let cfg = match std::fs::read_to_string(&config_path) {
        Ok(text) => match Config::from_toml(&text) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("adore-lint: {}: {e}", config_path.display());
                return ExitCode::from(2);
            }
        },
        Err(e) => {
            eprintln!(
                "adore-lint: cannot read {}: {e}",
                config_path.display()
            );
            return ExitCode::from(2);
        }
    };

    let mut report = match adore_lint::run_lint(&root, &cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("adore-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    // `--only` narrows the report to the listed rules, for bisecting a
    // failure by hand. P0/E0 stay: a malformed pragma or an unparsable
    // file undermines whichever rules were requested.
    if let Some(only) = &only {
        report
            .findings
            .retain(|f| f.rule == "P0" || f.rule == "E0" || only.contains(&f.rule));
    }

    match format.as_str() {
        "json" => print!("{}", adore_lint::render_json(&report)),
        _ => print!("{}", adore_lint::render_text(&report)),
    }

    // Three-way exit: 2 = the lint's own inputs are compromised (a
    // malformed pragma can silently waive anything; an unparsable file
    // was not checked at all), 1 = ordinary findings, 0 = clean.
    let integrity = report
        .findings
        .iter()
        .any(|f| !f.suppressed && (f.rule == "P0" || f.rule == "E0"));
    if integrity {
        ExitCode::from(2)
    } else if report.active_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
