//! Pins the `--format json` output byte-for-byte. Downstream tooling
//! (CI annotations) parses it; any change to field names, field order,
//! indentation, or the footer must show up here as a deliberate diff.

use adore_lint::config::{Config, L2Scope};
use adore_lint::{lint_source, render_json, Report};

fn pragma_line(rest: &str) -> String {
    format!("// {} {rest}", concat!("adore-", "lint:"))
}

#[test]
fn json_output_is_pinned_byte_for_byte() {
    let cfg = Config {
        l2_scopes: vec![L2Scope {
            file: "crates/core/src/a.rs".into(),
            functions: vec!["*".into()],
        }],
        ..Config::default()
    };
    let src = format!(
        "fn f() {{\n    let t = head(b).unwrap(); {}\n    let m = b[0];\n}}\n",
        pragma_line(r#"allow(L2, reason = "length \"checked\" above")"#),
    );
    let findings = lint_source("crates/core/src/a.rs", &src, &cfg);
    let report = Report {
        findings,
        files_scanned: 1,
        ..Report::default()
    };
    let expected = concat!(
        "{\n",
        "  \"findings\": [\n",
        "    {\"rule\": \"L2\", \"file\": \"crates/core/src/a.rs\", \"line\": 2, ",
        "\"col\": 21, \"msg\": \"`.unwrap()` in a panic-free recovery scope (return a typed error)\", ",
        "\"suppressed\": true, \"reason\": \"length \\\\\\\"checked\\\\\\\" above\"},\n",
        "    {\"rule\": \"L2\", \"file\": \"crates/core/src/a.rs\", \"line\": 3, ",
        "\"col\": 14, \"msg\": \"slice indexing in a panic-free scope (use `.get(..)`)\", ",
        "\"suppressed\": false}\n",
        "  ],\n",
        "  \"files_scanned\": 1,\n",
        "  \"active\": 1,\n",
        "  \"suppressed\": 1\n",
        "}\n",
    );
    assert_eq!(render_json(&report), expected);
}

#[test]
fn conc_findings_json_is_pinned_byte_for_byte() {
    let cfg = Config {
        l9_crates: vec!["crates/adored".into()],
        l10_scopes: vec![L2Scope {
            file: "crates/adored/src/x.rs".into(),
            functions: vec!["*".into()],
        }],
        l11_crates: vec!["crates/adored".into()],
        l12_scopes: vec![L2Scope {
            file: "crates/adored/src/x.rs".into(),
            functions: vec!["*".into()],
        }],
        ..Config::default()
    };
    let src = "fn f(state: M, tx: T) {\n    let a = state.lock().unwrap();\n    \
               let b = state.lock().unwrap();\n    thread::sleep(d);\n    \
               tx.try_send(e);\n    use3(a, b);\n}\n";
    let findings = lint_source("crates/adored/src/x.rs", src, &cfg);
    let report = Report {
        findings,
        files_scanned: 1,
        ..Report::default()
    };
    let expected = concat!(
        "{\n",
        "  \"findings\": [\n",
        "    {\"rule\": \"L10\", \"file\": \"crates/adored/src/x.rs\", \"line\": 2, ",
        "\"col\": 26, \"msg\": \"`lock().unwrap()` on `state` in a long-lived thread scope ",
        "panics on poisoning: recover via a typed path ",
        "(`unwrap_or_else(PoisonError::into_inner)` + journal) instead\", ",
        "\"suppressed\": false},\n",
        "    {\"rule\": \"L9\", \"file\": \"crates/adored/src/x.rs\", \"line\": 3, ",
        "\"col\": 19, \"msg\": \"lock `state` re-acquired while already held ",
        "(acquired at crates/adored/src/x.rs:2): std::sync::Mutex is not reentrant ",
        "— this deadlocks\", \"suppressed\": false},\n",
        "    {\"rule\": \"L10\", \"file\": \"crates/adored/src/x.rs\", \"line\": 3, ",
        "\"col\": 26, \"msg\": \"`lock().unwrap()` on `state` in a long-lived thread scope ",
        "panics on poisoning: recover via a typed path ",
        "(`unwrap_or_else(PoisonError::into_inner)` + journal) instead\", ",
        "\"suppressed\": false},\n",
        "    {\"rule\": \"L11\", \"file\": \"crates/adored/src/x.rs\", \"line\": 4, ",
        "\"col\": 13, \"msg\": \"blocking call `sleep` while holding lock `state` ",
        "(acquired at crates/adored/src/x.rs:3): a stalled peer holds up every thread ",
        "needing the lock\", \"suppressed\": false},\n",
        "    {\"rule\": \"L12\", \"file\": \"crates/adored/src/x.rs\", \"line\": 5, ",
        "\"col\": 8, \"msg\": \"`try_send` result discarded on a hot path: the overflow ",
        "(shed) outcome must be handled explicitly\", \"suppressed\": false}\n",
        "  ],\n",
        "  \"files_scanned\": 1,\n",
        "  \"active\": 5,\n",
        "  \"suppressed\": 0\n",
        "}\n",
    );
    assert_eq!(render_json(&report), expected);
}

#[test]
fn empty_report_json_is_pinned() {
    let report = Report {
        findings: Vec::new(),
        files_scanned: 42,
        ..Report::default()
    };
    let expected = concat!(
        "{\n",
        "  \"findings\": [\n",
        "  ],\n",
        "  \"files_scanned\": 42,\n",
        "  \"active\": 0,\n",
        "  \"suppressed\": 0\n",
        "}\n",
    );
    assert_eq!(render_json(&report), expected);
}
