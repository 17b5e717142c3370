//! `adore-lint`: a workspace static-analysis pass that certifies
//! protocol discipline at the source level.
//!
//! The model checker, the nemesis, and the replay tooling all assume
//! properties of the *source* that no other backend can state. Recovery
//! paths only report faults if they cannot panic on corrupted input
//! (L2): a token-pattern rule over configured scopes, see [`rules`] for
//! the exact patterns and [`pragma`] for the `allow(...)`-with-reason
//! escape hatch.
//!
//! The concurrency-discipline layer ([`conc_rules`]) certifies the
//! threaded runtime around the deterministic engine: lock-order cycles
//! (L9), panic-free lock acquisition in long-lived threads (L10),
//! guards held across blocking calls (L11), and hot-path sends that
//! shed explicitly (L12). Its call summaries are cross-file within a
//! crate, so [`run_lint`] scans it globally over every parsed file
//! rather than file-by-file.
//!
//! What is *not* here any more, each with the cheaper backend that
//! holds it (DESIGN.md §8 has the audit): determinism (L1), consumed
//! verdicts (L4), console output (L5), nondeterminism taint (L7) and
//! discarded recovery results (L8) are bans on names, paths and
//! `#[must_use]` values, in `clippy.toml` and the crate-root `deny`
//! attributes. Mutation encapsulation (L3) is rustc's privacy plus
//! `#[non_exhaustive]` on `TraceEvent`. Guard-before-mutation (L6) and
//! spec drift (L13/L14) are what the model checker's pinned counts,
//! `refine.rs` and the unit suites of `core` and `raft` fail on when a
//! guard is weakened (EXPERIMENTS E12, E16); emission order (L15) is a
//! `debug_assert!` in `Engine::finish`. None of the ids were reused.
//!
//! Findings are deterministic (files walked in sorted order, findings
//! sorted by position) so CI output is stable.

pub mod conc_rules;
pub mod config;
pub mod explain;
pub mod pragma;
pub mod rules;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::Config;

/// One lint finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule id: one of [`RULES`], `P0` (malformed pragma), `E0` (parse error).
    pub rule: String,
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: usize,
    /// 0-based column (rendered 1-based).
    pub col: usize,
    /// Human-readable description.
    pub msg: String,
    /// Whether a pragma suppresses it.
    pub suppressed: bool,
    /// The pragma's reason, when suppressed.
    pub reason: Option<String>,
}

/// The result of linting a file set.
#[derive(Debug, Default)]
pub struct Report {
    /// Every finding, suppressed ones included, in position order.
    pub findings: Vec<Finding>,
    /// How many files were scanned.
    pub files_scanned: usize,
    /// Wall-clock milliseconds each rule's analysis took, run on its
    /// own over the already-parsed files. Filled by [`run_lint`];
    /// empty for single-file runs.
    pub analysis_ms: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Findings not suppressed by a pragma — the ones that fail CI.
    pub fn active(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.suppressed)
    }

    /// Number of unsuppressed findings.
    #[must_use]
    pub fn active_count(&self) -> usize {
        self.active().count()
    }

    /// Number of pragma-suppressed findings.
    #[must_use]
    pub fn suppressed_count(&self) -> usize {
        self.findings.len() - self.active_count()
    }

    /// Per-rule `(active, suppressed)` counts, keyed by rule id.
    #[must_use]
    pub fn tally(&self) -> BTreeMap<String, (usize, usize)> {
        let mut t: BTreeMap<String, (usize, usize)> = BTreeMap::new();
        for f in &self.findings {
            let e = t.entry(f.rule.clone()).or_default();
            if f.suppressed {
                e.1 += 1;
            } else {
                e.0 += 1;
            }
        }
        t
    }
}

/// The rules this linter runs, in report order, with what each
/// certifies. Ids are stable: the gaps are rules since retired (to
/// rustc/clippy, the checker and the unit suites, or a runtime
/// assertion), and survivors were not renumbered.
pub const RULES: &[(&str, &str)] = &[
    ("L2", "panic-free recovery (no unwrap / panic! / indexing)"),
    ("L9", "lock-order cycles (crate-wide acquisition graph)"),
    ("L10", "no-panic lock acquisition in long-lived threads"),
    ("L11", "no lock guard held across blocking calls"),
    ("L12", "hot-path sends are try_send with the shed outcome consumed"),
];

/// Pragma errors (`P0`) plus the parse, or `E0` when the file does not
/// parse: what loading a file can find before any rule runs.
fn load_findings(
    rel: &str,
    source: &str,
    pragmas: &pragma::PragmaSet,
) -> (Vec<Finding>, Option<syn::File>) {
    let mut findings = Vec::new();
    for err in &pragmas.errors {
        findings.push(Finding {
            rule: "P0".into(),
            file: rel.into(),
            line: err.line,
            col: 0,
            msg: format!("malformed suppression pragma: {}", err.msg),
            suppressed: false,
            reason: None,
        });
    }
    match syn::parse_file(source) {
        Ok(file) => (findings, Some(file)),
        Err(e) => {
            findings.push(Finding {
                rule: "E0".into(),
                file: rel.into(),
                line: e.position().line,
                col: e.position().column,
                msg: format!("file does not parse: {e}"),
                suppressed: false,
                reason: None,
            });
            (findings, None)
        }
    }
}

/// Marks findings suppressed by a matching same-file pragma, then sorts
/// into the stable report order.
fn finish_file(findings: &mut [Finding], pragmas: &pragma::PragmaSet) {
    for f in findings.iter_mut() {
        if let Some(p) = pragmas
            .pragmas
            .iter()
            .find(|p| p.target_line == f.line && p.rules.contains(&f.rule))
        {
            f.suppressed = true;
            f.reason = Some(p.reason.clone());
        }
    }
    findings.sort_by(|a, b| {
        (a.line, a.col, a.rule.as_str()).cmp(&(b.line, b.col, b.rule.as_str()))
    });
}

/// Lints one file's source text. `rel` is the workspace-relative path
/// used for scope matching and reporting.
///
/// The cross-file layers run with this file as the whole workspace, so
/// cross-file summaries are empty; [`run_lint`] is the entry point that
/// sees helpers across files.
#[must_use]
pub fn lint_source(rel: &str, source: &str, cfg: &Config) -> Vec<Finding> {
    let pragmas = pragma::scan(source);
    let (mut findings, parsed) = load_findings(rel, source, &pragmas);
    if let Some(file) = parsed {
        findings.extend(rules::scan_file(rel, &file, cfg));
        let files = vec![(rel.to_string(), file)];
        findings.extend(conc_rules::scan_conc(&files, cfg));
    }
    finish_file(&mut findings, &pragmas);
    findings
}

/// Collects the workspace-relative paths of every `.rs` file under the
/// configured roots, excluded prefixes removed, in sorted order.
///
/// # Errors
///
/// Propagates filesystem errors other than a missing root.
fn collect_files(root: &Path, cfg: &Config) -> io::Result<Vec<String>> {
    let mut rels = Vec::new();
    for scan_root in &cfg.roots {
        let dir = root.join(scan_root);
        if !dir.is_dir() {
            continue;
        }
        walk_dir(&dir, root, &mut rels)?;
    }
    rels.retain(|rel| {
        !cfg.exclude
            .iter()
            .any(|ex| rel == ex || rel.strip_prefix(ex.as_str()).is_some_and(|r| r.starts_with('/')))
    });
    rels.sort();
    rels.dedup();
    Ok(rels)
}

fn walk_dir(dir: &Path, root: &Path, out: &mut Vec<String>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.starts_with('.') || name == "target" {
            continue;
        }
        if path.is_dir() {
            walk_dir(&path, root, out)?;
        } else if name.ends_with(".rs") {
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .components()
                .map(|c| c.as_os_str().to_string_lossy())
                .collect::<Vec<_>>()
                .join("/");
            out.push(rel);
        }
    }
    Ok(())
}

/// The workspace read and parsed once; every rule runs over this one
/// parse.
struct Workspace {
    /// Per scanned path: the `P0`/`E0` findings loading it produced,
    /// and its pragmas.
    loaded: BTreeMap<String, (Vec<Finding>, pragma::PragmaSet)>,
    /// The files that parsed, in path order.
    parsed: Vec<(String, syn::File)>,
}

impl Workspace {
    /// Reads and parses every `.rs` file under the configured roots.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors reading the tree.
    fn load(root: &Path, cfg: &Config) -> io::Result<Workspace> {
        let rels = collect_files(root, cfg)?;
        // Fanned out across threads in contiguous chunks and
        // re-assembled in path order, so the result is identical to the
        // sequential walk.
        let threads = std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
            .clamp(1, 8);
        let chunk = rels.len().div_ceil(threads).max(1);
        type FileUnit = (String, Vec<Finding>, pragma::PragmaSet, Option<syn::File>);
        let units: Vec<io::Result<Vec<FileUnit>>> = std::thread::scope(|s| {
            let handles: Vec<_> = rels
                .chunks(chunk)
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|rel| {
                                let source = fs::read_to_string(root.join(rel))?;
                                let pragmas = pragma::scan(&source);
                                let (findings, file) = load_findings(rel, &source, &pragmas);
                                Ok((rel.clone(), findings, pragmas, file))
                            })
                            .collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("lint worker panicked")).collect()
        });
        let mut loaded = BTreeMap::new();
        let mut parsed = Vec::new();
        for unit in units {
            for (rel, findings, pragmas, file) in unit? {
                if let Some(file) = file {
                    parsed.push((rel.clone(), file));
                }
                loaded.insert(rel, (findings, pragmas));
            }
        }
        Ok(Workspace { loaded, parsed })
    }

    /// Runs every rule of [`RULES`] over the parse. Each rule runs on
    /// its own — under a configuration holding only that rule's tables
    /// — so the time recorded for it in [`Report::analysis_ms`] is what
    /// enabling that rule alone costs, and no second pass is needed to
    /// measure it.
    fn lint(&self, cfg: &Config) -> Report {
        let mut per_file: BTreeMap<&str, Vec<Finding>> = self
            .loaded
            .iter()
            .map(|(rel, (findings, _))| (rel.as_str(), findings.clone()))
            .collect();
        let mut analysis_ms = BTreeMap::new();
        for (rule, _) in RULES {
            let only = only_rule(rule, cfg);
            let start = std::time::Instant::now();
            let found = match *rule {
                "L2" => self
                    .parsed
                    .iter()
                    .flat_map(|(rel, file)| rules::scan_file(rel, file, &only))
                    .collect(),
                // L9-L12.
                _ => conc_rules::scan_conc(&self.parsed, &only),
            };
            analysis_ms.insert(*rule, start.elapsed().as_secs_f64() * 1e3);
            for f in found {
                if let Some(findings) = per_file.get_mut(f.file.as_str()) {
                    findings.push(f);
                }
            }
        }
        let mut report = Report {
            files_scanned: self.loaded.len(),
            analysis_ms,
            ..Report::default()
        };
        for (rel, (_, pragmas)) in &self.loaded {
            let mut findings = per_file.remove(rel.as_str()).unwrap_or_default();
            finish_file(&mut findings, pragmas);
            report.findings.extend(findings);
        }
        report
    }
}

/// `full` with every rule's tables emptied except `rule`'s (the scan
/// roots are not copied: the files are already parsed).
fn only_rule(rule: &str, full: &Config) -> Config {
    let mut cfg = Config::default();
    match rule {
        "L2" => cfg.l2_scopes = full.l2_scopes.clone(),
        "L9" => {
            cfg.l9_crates = full.l9_crates.clone();
            cfg.l9_locks = full.l9_locks.clone();
        }
        "L10" => cfg.l10_scopes = full.l10_scopes.clone(),
        "L11" => {
            cfg.l11_crates = full.l11_crates.clone();
            cfg.l11_blocking = full.l11_blocking.clone();
        }
        "L12" => cfg.l12_scopes = full.l12_scopes.clone(),
        other => unreachable!("`{other}` is not in RULES"),
    }
    cfg
}

/// Lints the whole workspace rooted at `root`.
///
/// # Errors
///
/// Propagates filesystem errors reading the tree.
pub fn run_lint(root: &Path, cfg: &Config) -> io::Result<Report> {
    Ok(Workspace::load(root, cfg)?.lint(cfg))
}

/// Renders a report as compiler-style text, one finding per line,
/// followed by the per-rule table.
#[must_use]
pub fn render_text(report: &Report) -> String {
    let mut out = String::new();
    for f in &report.findings {
        let _ = write!(out, "{}:{}:{}: {}: {}", f.file, f.line, f.col + 1, f.rule, f.msg);
        if f.suppressed {
            let _ = write!(out, " [suppressed: {}]", f.reason.as_deref().unwrap_or(""));
        }
        out.push('\n');
    }
    if !report.findings.is_empty() {
        out.push('\n');
    }
    out.push_str(&render_table(report));
    out
}

/// Renders the per-rule table: unsuppressed findings, pragma-suppressed
/// findings (the pragma debt) and the rule's own analysis time, one row
/// per rule of [`RULES`] plus `P0`/`E0`, then the totals line.
fn render_table(report: &Report) -> String {
    let tally = report.tally();
    let mut rows: Vec<[String; 5]> = Vec::new();
    let integrity = [("P0", "malformed suppression pragma"), ("E0", "unparsable file")];
    for (rule, what) in RULES.iter().chain(&integrity) {
        let (active, suppressed) = tally.get(*rule).copied().unwrap_or((0, 0));
        let ms = report
            .analysis_ms
            .get(rule)
            .map_or_else(|| "-".to_string(), |ms| format!("{ms:.1}"));
        rows.push([
            (*rule).to_string(),
            (*what).to_string(),
            active.to_string(),
            suppressed.to_string(),
            ms,
        ]);
    }
    let header = ["rule", "what it certifies", "findings", "suppressed (pragma debt)", "analysis ms"];
    let widths: Vec<usize> = (0..header.len())
        .map(|i| rows.iter().map(|r| r[i].chars().count()).chain([header[i].len()]).max().unwrap_or(0))
        .collect();
    let mut out = String::from("static discipline — adore-lint over the workspace\n\n");
    let mut line = |cells: &[String]| {
        let padded: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c}{}", " ".repeat(w - c.chars().count())))
            .collect();
        let _ = writeln!(out, "| {} |", padded.join(" | "));
    };
    line(&header.map(String::from));
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in &rows {
        line(row);
    }
    let _ = writeln!(
        out,
        "\n{} files scanned; {} unsuppressed findings, {} pragma-suppressed (each with a written reason); \
         analyses {:.1} ms in total",
        report.files_scanned,
        report.active_count(),
        report.suppressed_count(),
        report.analysis_ms.values().sum::<f64>()
    );
    out
}

/// Renders a report as a JSON object (`--format json`).
#[must_use]
pub fn render_json(report: &Report) -> String {
    let mut out = String::from("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {}, \"msg\": \"{}\", \"suppressed\": {}",
            json_escape(&f.rule),
            json_escape(&f.file),
            f.line,
            f.col + 1,
            json_escape(&f.msg),
            f.suppressed
        );
        if let Some(r) = &f.reason {
            let _ = write!(out, ", \"reason\": \"{}\"", json_escape(r));
        }
        out.push('}');
    }
    let _ = write!(
        out,
        "\n  ],\n  \"files_scanned\": {},\n  \"active\": {},\n  \"suppressed\": {}\n}}\n",
        report.files_scanned,
        report.active_count(),
        report.suppressed_count()
    );
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pragma_line(rest: &str) -> String {
        format!("// {} {rest}", concat!("adore-", "lint:"))
    }

    #[test]
    fn suppression_marks_but_keeps_findings() {
        let cfg = Config {
            l2_scopes: vec![config::L2Scope {
                file: "crates/core/src/a.rs".into(),
                functions: vec!["*".into()],
            }],
            ..Config::default()
        };
        let src = format!(
            "fn f() {{\n    {}\n    let t = decode(a).unwrap();\n    let m = decode(b).unwrap();\n}}\n",
            pragma_line(r#"allow(L2, reason = "bytes written two lines up")"#)
        );
        let f = lint_source("crates/core/src/a.rs", &src, &cfg);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].suppressed && f[0].reason.as_deref() == Some("bytes written two lines up"));
        assert!(!f[1].suppressed);
    }

    #[test]
    fn parse_error_becomes_e0() {
        let cfg = Config::default();
        let f = lint_source("crates/core/src/a.rs", "fn broken( {", &cfg);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "E0");
    }

    #[test]
    fn json_rendering_escapes() {
        let report = Report {
            findings: vec![Finding {
                rule: "L2".into(),
                file: "a\"b.rs".into(),
                line: 1,
                col: 0,
                msg: "quote \" and\nnewline".into(),
                suppressed: false,
                reason: None,
            }],
            files_scanned: 1,
            ..Report::default()
        };
        let json = render_json(&report);
        assert!(json.contains(r#""file": "a\"b.rs""#));
        assert!(json.contains(r#"quote \" and\nnewline"#));
    }
}
