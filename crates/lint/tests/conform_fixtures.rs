//! Spec-conformance fixture suite: L13-L15 pinned to exact
//! (rule, line, col) positions through the public `lint_source` entry
//! point, pragma hygiene for the new rules, the workspace pragma-debt
//! pin, and the assertion that the committed IR dump
//! (`results/gcir.json`) matches what `--dump-ir` regenerates.

use std::collections::BTreeMap;
use std::path::PathBuf;

use adore_lint::config::{Config, L13Conform, L14Protected, L2Scope};
use adore_lint::{lint_source, Finding};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

/// `(rule, line, col, suppressed)` rows, col 0-based as stored.
fn rows(findings: &[Finding]) -> Vec<(String, usize, usize, bool)> {
    findings
        .iter()
        .map(|f| (f.rule.clone(), f.line, f.col, f.suppressed))
        .collect()
}

#[test]
fn l13_fixture_exact_position_and_witness() {
    let rel = "crates/raft/src/net.rs";
    let cfg = Config {
        l13_conform: vec![L13Conform {
            file: rel.into(),
            handlers: vec!["elect".into()],
            depth: 2,
            max_samples: 10_000,
        }],
        ..Config::default()
    };
    let f = lint_source(rel, &fixture("l13_drift.rs"), &cfg);
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!(
        (f[0].rule.as_str(), f[0].line, f[0].suppressed),
        ("L13", 7, false),
        "{f:#?}"
    );
    // The message carries a replayable witness: a schedule prefix, the
    // turnstile, and the diverging event.
    assert!(f[0].msg.contains('⊢'), "{}", f[0].msg);
    assert!(f[0].msg.contains("Elect"), "{}", f[0].msg);
}

#[test]
fn l14_fixture_exact_positions_and_pragma() {
    let rel = "crates/raft/src/net.rs";
    let cfg = Config {
        l14_protected: vec![L14Protected {
            file: rel.into(),
            type_name: "Server".into(),
            fields: vec!["commit_len".into(), "log".into()],
            kinds: vec!["quorum".into(), "log-consistency".into()],
        }],
        ..Config::default()
    };
    let f = lint_source(rel, &fixture("l14_guard.rs"), &cfg);
    let expected = vec![
        // `sneak` writes commit_len with no quorum test on its path.
        ("L14".to_string(), 11, 8, false),
        // `waived` is the same shape under a reasoned pragma.
        ("L14".to_string(), 32, 8, true),
    ];
    assert_eq!(rows(&f), expected, "{f:#?}");
    assert_eq!(
        f[1].reason.as_deref(),
        Some("fixture: quorum certificate checked by the caller")
    );
}

#[test]
fn l15_fixture_exact_position() {
    let rel = "crates/adored/src/det/engine.rs";
    let cfg = Config {
        l15_scopes: vec![L2Scope {
            file: rel.into(),
            functions: vec!["finish".into(), "ordered".into()],
        }],
        ..Config::default()
    };
    let f = lint_source(rel, &fixture("l15_emission.rs"), &cfg);
    let expected = vec![
        // `finish` persists after sending; `ordered` stays clean.
        ("L15".to_string(), 10, 8, false),
    ];
    assert_eq!(rows(&f), expected, "{f:#?}");
}

/// The workspace pragma debt, per rule. This is the same total the
/// report's table prints; pinning it here means a new suppression (or a
/// silently vanished one) shows up as a deliberate diff.
#[test]
fn workspace_pragma_debt_is_pinned() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg_text = std::fs::read_to_string(root.join("adore-lint.toml")).expect("shipped config");
    let cfg = Config::from_toml(&cfg_text).expect("shipped config parses");
    let report = adore_lint::run_lint(&root, &cfg).expect("workspace scans");

    let suppressed: BTreeMap<String, usize> = report
        .tally()
        .into_iter()
        .filter(|(_, (_, s))| *s > 0)
        .map(|(rule, (_, s))| (rule, s))
        .collect();
    let expected: BTreeMap<String, usize> = [
        ("L2", 3),
        ("L3", 2),
        ("L6", 4),
        ("L14", 2),
    ]
    .into_iter()
    .map(|(r, n)| (r.to_string(), n))
    .collect();
    assert_eq!(suppressed, expected, "pragma debt changed — audit the new/removed suppression");
    assert_eq!(report.suppressed_count(), 11);
}

/// `results/gcir.json` is the committed, review-visible form of the
/// extracted IR; it must match what the current extractor produces
/// (ci.sh regenerates and diffs it the same way).
#[test]
fn ir_dump_matches_pinned_results_file() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg_text = std::fs::read_to_string(root.join("adore-lint.toml")).expect("shipped config");
    let cfg = Config::from_toml(&cfg_text).expect("shipped config parses");
    let dump = adore_lint::Workspace::load(&root, &cfg).expect("workspace loads").ir_dump(&cfg);
    let pinned = std::fs::read_to_string(root.join("results/gcir.json"))
        .expect("results/gcir.json is committed");
    assert_eq!(
        dump, pinned,
        "results/gcir.json is stale — regenerate with `adore-lint --dump-ir`"
    );
    // The dump is versioned, and the L13-certified protocol handlers
    // (the net.rs section, before the L15 runtime scopes) are fully
    // modeled — no opaque placeholder hiding a handler from the
    // differential scan. L15 scopes may be partial: emission order is
    // checked on whatever paths extract.
    assert!(dump.contains("\"gcir_version\": 1"), "{dump}");
    let net = dump
        .split("\"file\": \"crates/adored")
        .next()
        .expect("net.rs section");
    assert!(!net.contains("\"fully_modeled\": false"), "{net}");
}
