//! Concurrency-discipline fixture suite: L9-L12 pinned to exact
//! (rule, line, col) positions, the L9 self-ablation test that reverses
//! one lock-acquisition order in a distilled copy of the netmesis proxy
//! and checks both sites are pinpointed, the pragma-hygiene tests for
//! the new rules, and the assertion that the real threaded runtime
//! scans clean under the shipped configuration.

use std::path::PathBuf;

use adore_lint::config::{Config, L2Scope};
use adore_lint::{lint_source, Finding};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(rule, line, col)` triples, col 0-based as stored.
fn positions(findings: &[Finding]) -> Vec<(String, usize, usize)> {
    findings
        .iter()
        .map(|f| (f.rule.clone(), f.line, f.col))
        .collect()
}

fn conc_config() -> Config {
    Config {
        l9_crates: vec!["crates/adored".into()],
        l10_scopes: vec![L2Scope {
            file: "crates/adored/src/l10_fixture.rs".into(),
            functions: vec!["*".into()],
        }],
        l11_crates: vec!["crates/adored".into()],
        l12_scopes: vec![L2Scope {
            file: "crates/adored/src/l12_fixture.rs".into(),
            functions: vec!["*".into()],
        }],
        ..Config::default()
    }
}

#[test]
fn l9_fixture_exact_positions() {
    let src = fixture("l9_order.rs");
    let f = lint_source("crates/adored/src/l9_fixture.rs", &src, &conc_config());
    let expected = vec![
        // pump: counters acquired while state held — one half of the
        // cycle admin's reversed order completes.
        ("L9".to_string(), 7, 22),
        // admin: state acquired while counters held — the other half.
        ("L9".to_string(), 13, 19),
        // stats: state re-acquired while already held; std's Mutex is
        // not reentrant, so this deadlocks without any second thread.
        ("L9".to_string(), 19, 18),
    ];
    assert_eq!(positions(&f), expected, "{f:#?}");
}

#[test]
fn l10_fixture_exact_positions() {
    let src = fixture("l10_panic.rs");
    let f = lint_source("crates/adored/src/l10_fixture.rs", &src, &conc_config());
    let expected = vec![
        // unwrap() and expect() panic the thread on poisoning; the
        // unwrap_or_else(PoisonError::into_inner) line is the typed
        // path and stays clean.
        ("L10".to_string(), 5, 25),
        ("L10".to_string(), 6, 24),
    ];
    assert_eq!(positions(&f), expected, "{f:#?}");
}

#[test]
fn l11_fixture_exact_positions() {
    let src = fixture("l11_blocking.rs");
    let f = lint_source("crates/adored/src/l11_fixture.rs", &src, &conc_config());
    let expected = vec![
        // reply: socket write while the client-map guard is live; the
        // post-drop flush on line 8 is clean.
        ("L11".to_string(), 6, 11),
        // tick: sleeping while holding the state guard.
        ("L11".to_string(), 13, 12),
    ];
    assert_eq!(positions(&f), expected, "{f:#?}");
}

#[test]
fn l12_fixture_exact_positions() {
    let src = fixture("l12_channel.rs");
    let f = lint_source("crates/adored/src/l12_fixture.rs", &src, &conc_config());
    let expected = vec![
        // (Line 5's unbounded channel() is clippy's to reject now.)
        // Blocking send on a hot path.
        ("L12".to_string(), 6, 7),
        // try_send with the shed outcome explicitly discarded...
        ("L12".to_string(), 7, 15),
        // ...and implicitly dropped; the match on line 9 consumes the
        // outcome and stays clean.
        ("L12".to_string(), 8, 7),
    ];
    assert_eq!(positions(&f), expected, "{f:#?}");
}

// ---------------------------------------------------------------------------
// Self-ablation: reverse one acquisition order in the distilled proxy
// copy and check L9 pinpoints both chains.
// ---------------------------------------------------------------------------

fn unsuppressed_l9(src: &str) -> Vec<(usize, usize)> {
    lint_source("crates/adored/src/proxy_fixture.rs", src, &conc_config())
        .iter()
        .filter(|f| f.rule == "L9" && !f.suppressed)
        .map(|f| (f.line, f.col))
        .collect()
}

#[test]
fn unmodified_proxy_copy_passes_l9() {
    let src = fixture("l9_proxy.rs");
    assert_eq!(unsuppressed_l9(&src), vec![], "consistent order must scan clean");
}

#[test]
fn reversing_one_acquisition_order_pinpoints_both_sites() {
    let src = fixture("l9_proxy.rs");
    let ordered = "    let sa = state.lock().unwrap_or_else(PoisonError::into_inner);\n    \
                   let ta = tally.lock().unwrap_or_else(PoisonError::into_inner);";
    let reversed = "    let ta = tally.lock().unwrap_or_else(PoisonError::into_inner);\n    \
                    let sa = state.lock().unwrap_or_else(PoisonError::into_inner);";
    assert!(src.contains(ordered), "apply_admin's chain moved; update this test");
    let ablated = src.replacen(ordered, reversed, 1);
    assert_eq!(
        unsuppressed_l9(&ablated),
        vec![
            // pump still takes state -> tally: its tally acquisition is
            // now half of a cycle.
            (10, 19),
            // apply_admin now takes tally -> state: the reversed state
            // acquisition is the other half.
            (16, 19),
        ],
        "L9 must pinpoint exactly the two acquisition sites of the cycle"
    );
}

// ---------------------------------------------------------------------------
// Pragma hygiene for the new rules.
// ---------------------------------------------------------------------------

fn pragma_line(rest: &str) -> String {
    format!("// {} {rest}", concat!("adore-", "lint:"))
}

#[test]
fn reasoned_l9_suppression_names_the_lock_and_marks_the_finding() {
    // The reason names the locks and the invariant that makes the
    // order safe — the shape every L9-L12 suppression must take.
    let src = format!(
        "fn stats(state: M) {{\n    let a = state.lock().unwrap();\n    {}\n    \
         let b = state.lock().unwrap();\n    use_both(a, b);\n}}\n",
        pragma_line(
            r#"allow(L9, reason = "state lock: fixture models a reentrant-by-design shim")"#
        )
    );
    let f = lint_source("crates/adored/src/l9_fixture.rs", &src, &conc_config());
    let l9: Vec<&Finding> = f.iter().filter(|f| f.rule == "L9").collect();
    assert_eq!(l9.len(), 1, "{f:#?}");
    assert!(l9[0].suppressed, "{f:#?}");
    assert_eq!(
        l9[0].reason.as_deref(),
        Some("state lock: fixture models a reentrant-by-design shim")
    );
}

#[test]
fn malformed_l9_suppression_stays_p0_and_suppresses_nothing() {
    // Missing reason: the pragma is itself a finding, and the L9 it
    // tried to cover stays active.
    let src = format!(
        "fn stats(state: M) {{\n    let a = state.lock().unwrap();\n    {}\n    \
         let b = state.lock().unwrap();\n    use_both(a, b);\n}}\n",
        pragma_line("allow(L9)")
    );
    let f = lint_source("crates/adored/src/l9_fixture.rs", &src, &conc_config());
    assert!(
        f.iter().any(|f| f.rule == "P0" && !f.suppressed),
        "{f:#?}"
    );
    assert!(
        f.iter().any(|f| f.rule == "L9" && !f.suppressed),
        "{f:#?}"
    );
}

// ---------------------------------------------------------------------------
// The real threaded runtime, under the shipped configuration.
// ---------------------------------------------------------------------------

fn shipped_config() -> Config {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../adore-lint.toml");
    let text = std::fs::read_to_string(&path).expect("read adore-lint.toml");
    Config::from_toml(&text).expect("shipped config parses")
}

fn real_file(rel: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..").join(rel);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {rel}: {e}"))
}

#[test]
fn real_runtime_files_scan_clean_on_conc_rules() {
    let cfg = shipped_config();
    for rel in [
        "crates/adored/src/node.rs",
        "crates/adored/src/proxy.rs",
        "crates/adored/src/monitor.rs",
        "crates/adored/src/client.rs",
    ] {
        let findings = lint_source(rel, &real_file(rel), &cfg);
        let conc: Vec<&Finding> = findings
            .iter()
            .filter(|f| {
                matches!(f.rule.as_str(), "L9" | "L10" | "L11" | "L12") && !f.suppressed
            })
            .collect();
        assert!(conc.is_empty(), "{rel} has conc findings: {conc:#?}");
    }
}

/// The poisoning `expect`s were fixed, not suppressed: the runtime
/// carries zero L9-L12 pragmas.
#[test]
fn runtime_carries_no_conc_suppressions() {
    let cfg = shipped_config();
    for rel in ["crates/adored/src/node.rs", "crates/adored/src/proxy.rs"] {
        let findings = lint_source(rel, &real_file(rel), &cfg);
        assert!(
            findings
                .iter()
                .all(|f| !matches!(f.rule.as_str(), "L9" | "L10" | "L11" | "L12")
                    || !f.suppressed),
            "{rel} suppresses a conc finding"
        );
    }
}
