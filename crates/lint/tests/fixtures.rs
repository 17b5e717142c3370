//! Fixture suite: every rule is exercised against a known-bad snippet
//! and asserted down to exact rule ids and line numbers, plus the
//! workspace self-check that keeps the real tree clean.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use adore_lint::config::{Config, L2Scope};
use adore_lint::{lint_source, Finding};

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn rule_lines(findings: &[Finding]) -> Vec<(String, usize, bool)> {
    findings
        .iter()
        .map(|f| (f.rule.clone(), f.line, f.suppressed))
        .collect()
}

fn fixture_config() -> Config {
    Config {
        roots: vec!["crates".into()],
        exclude: Vec::new(),
        l2_scopes: vec![L2Scope {
            file: "crates/storage/src/wal.rs".into(),
            functions: vec!["recover".into(), "replay".into()],
        }],
        ..Config::default()
    }
}

#[test]
fn l2_fixture_exact_lines() {
    let src = fixture("l2_recovery.rs");
    let f = lint_source("crates/storage/src/wal.rs", &src, &fixture_config());
    let expected: Vec<(String, usize, bool)> = [5, 6, 7, 9, 11, 12, 16]
        .iter()
        .map(|&l| ("L2".to_string(), l, false))
        .collect();
    assert_eq!(rule_lines(&f), expected, "{f:#?}");
    // The same source outside the configured scope is clean.
    let clean = lint_source("crates/storage/src/lib.rs", &src, &fixture_config());
    assert!(clean.is_empty(), "{clean:#?}");
}

#[test]
fn suppression_fixture_both_forms_and_p0() {
    let src = fixture("suppression.rs");
    let f = lint_source("crates/storage/src/wal.rs", &src, &fixture_config());
    let got = rule_lines(&f);
    let expected = vec![
        ("L2".to_string(), 4, true),   // same-line pragma
        ("L2".to_string(), 6, true),   // standalone pragma on line 5
        ("L2".to_string(), 7, false),  // no pragma
        ("P0".to_string(), 12, false), // missing reason is itself a finding
        ("L2".to_string(), 12, false), // ... and suppresses nothing
        ("P0".to_string(), 13, false), // no rules listed
        ("L2".to_string(), 14, false),
        ("P0".to_string(), 15, false), // empty reason: no suppression
        ("L2".to_string(), 15, false),
    ];
    assert_eq!(got, expected, "{f:#?}");
    // Suppressed findings carry the pragma's reason verbatim.
    assert_eq!(f[0].reason.as_deref(), Some("header length checked by the caller"));
    assert_eq!(f[1].reason.as_deref(), Some("body was CRC-verified above"));
}

#[test]
fn parse_error_fixture_is_e0() {
    let src = fixture("parse_error.rs");
    let f = lint_source("crates/core/src/fixture.rs", &src, &fixture_config());
    assert_eq!(f.len(), 1, "{f:#?}");
    assert_eq!((f[0].rule.as_str(), f[0].suppressed), ("E0", false));
    // The lexer reports the unbalanced delimiter at end of input.
    assert_eq!(f[0].line, 3, "{f:#?}");
}

/// The real tree under the shipped adore-lint.toml.
fn shipped_report() -> adore_lint::Report {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let cfg_text = std::fs::read_to_string(root.join("adore-lint.toml")).expect("shipped config");
    let cfg = Config::from_toml(&cfg_text).expect("shipped config parses");
    adore_lint::run_lint(&root, &cfg).expect("workspace scans")
}

/// The workspace itself must be lint-clean: zero unsuppressed findings
/// under the shipped adore-lint.toml, and every suppression must carry
/// a non-empty reason. This is the same invariant ci.sh gates on.
#[test]
fn workspace_self_check_is_clean() {
    let report = shipped_report();

    assert!(
        report.files_scanned > 80,
        "suspiciously few files scanned: {}",
        report.files_scanned
    );
    let active: Vec<&Finding> = report.active().collect();
    assert!(
        active.is_empty(),
        "workspace has unsuppressed lint findings:\n{}",
        adore_lint::render_text(&report)
    );
    for f in &report.findings {
        assert!(
            f.reason.as_deref().is_some_and(|r| !r.trim().is_empty()),
            "suppressed finding without a reason: {f:?}"
        );
    }
    // The fixtures directory must stay excluded, or its known-bad
    // snippets would fail the scan above.
    assert!(Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures/l2_recovery.rs")
        .exists());
}

/// The workspace pragma debt, per rule. This is the same total the
/// report's table prints; pinning it here means a new suppression (or a
/// silently vanished one) shows up as a deliberate diff.
#[test]
fn workspace_pragma_debt_is_pinned() {
    let report = shipped_report();
    let suppressed: BTreeMap<String, usize> = report
        .tally()
        .into_iter()
        .filter(|(_, (_, s))| *s > 0)
        .map(|(rule, (_, s))| (rule, s))
        .collect();
    let expected: BTreeMap<String, usize> = [("L2".to_string(), 3)].into_iter().collect();
    assert_eq!(suppressed, expected, "pragma debt changed — audit the new/removed suppression");
    assert_eq!(report.suppressed_count(), 3);
}
