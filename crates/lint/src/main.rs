//! CLI entry point: `cargo run -p adore-lint [-- --format json]`.
//!
//! Exits non-zero when any unsuppressed finding (or a configuration /
//! IO error) is present, so `ci.sh` can gate on it with `-D` semantics.

use std::path::PathBuf;
use std::process::ExitCode;

use adore_lint::config::Config;

fn main() -> ExitCode {
    let mut format = "text".to_string();
    let mut dump_ir = false;
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
            "--dump-ir" => dump_ir = true,
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
                    eprintln!("adore-lint: --explain expects a rule id (e.g. L6)");
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
                     \n       adore-lint --dump-ir\n\
                     \n\
                     Scans the workspace for violations of rules L2 (panic-free\n\
                     recovery), L3 (mutation/construction encapsulation), the\n\
                     flow-sensitive rule L6 (guard-before-mutation), the\n\
                     concurrency-discipline rules L9 (lock-order cycles), L10\n\
                     (no-panic lock acquisition), L11 (no lock held across blocking\n\
                     calls), and L12 (hot-path sends shed explicitly), and the\n\
                     spec-conformance rules L13 (differential drift against the\n\
                     checker's transition system), L14 (semantic guard sufficiency\n\
                     on IR paths), and L15 (durable-before-outbound emission\n\
                     order). The ids L1, L4, L5, L7 and L8 are retired: rustc and\n\
                     clippy discharge those obligations (see clippy.toml).\n\
                     The text report ends with a per-rule table: findings, pragma\n\
                     debt, and each rule's own analysis time. A full run also\n\
                     checks that results/gcir.json, the committed dump of the IR\n\
                     it certified, is current. `--only L9,L10` narrows the report\n\
                     (and the exit status) to the listed rules; P0/E0 always\n\
                     count. `--explain RULE` prints a rule's rationale, the paper\n\
                     invariant it guards, and a minimal violating example.\n\
                     `--dump-ir` prints the guarded-command IR extracted from the\n\
                     configured conformance scopes and exits.\n\
                     Configuration: adore-lint.toml at the workspace root.\n\
                     \n\
                     EXIT STATUS:\n\
                     \n  0  clean (no unsuppressed findings)\n\
                     \n  1  ordinary unsuppressed findings\n\
                     \n  2  integrity errors: malformed pragma (P0), unparsable\n\
                     \n     file (E0), stale results/gcir.json, bad configuration,\n\
                     \n     IO failure, or usage"
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

    let workspace = match adore_lint::Workspace::load(&root, &cfg) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("adore-lint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if dump_ir {
        print!("{}", workspace.ir_dump(&cfg));
        return ExitCode::SUCCESS;
    }

    let mut report = workspace.lint(&cfg);

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

    // A full run also vouches for the committed IR dump: reviewers read
    // results/gcir.json as the model L13-L15 just certified, so it must
    // be what this parse extracts.
    let ir_stale = only.is_none()
        && !(cfg.l13_conform.is_empty() && cfg.l15_scopes.is_empty())
        && std::fs::read_to_string(root.join("results/gcir.json")).ok().as_deref()
            != Some(workspace.ir_dump(&cfg).as_str());
    if ir_stale {
        eprintln!(
            "adore-lint: results/gcir.json is missing or stale — regenerate with \
             `adore-lint --dump-ir > results/gcir.json`"
        );
    }

    // Three-way exit: 2 = the lint's own inputs are compromised (a
    // malformed pragma can silently waive anything; an unparsable file
    // was not checked at all; a stale IR dump shows reviewers a model
    // that was not the one certified), 1 = ordinary findings, 0 = clean.
    let integrity = report
        .findings
        .iter()
        .any(|f| !f.suppressed && (f.rule == "P0" || f.rule == "E0"));
    if integrity || ir_stale {
        ExitCode::from(2)
    } else if report.active_count() > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
