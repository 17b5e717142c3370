//! Flow-rule fixture suite: L6 and the obs L3 extensions pinned
//! to exact (rule, line, col) positions, plus the self-ablation test
//! that deletes real guards from a copy of the raft transition code and
//! checks L6 pinpoints the newly unguarded mutation lines.

use std::path::PathBuf;

use adore_lint::config::{Config, L3Type, L6Protected};
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

fn flow_config() -> Config {
    Config {
        l3_types: vec![
            L3Type {
                type_name: "TraceEvent".into(),
                crate_dir: "crates".into(),
                fields: Vec::new(),
                owners: vec!["crates/obs/src/event.rs".into()],
                construct: true,
            },
            L3Type {
                type_name: "Metrics".into(),
                crate_dir: "crates/obs".into(),
                fields: vec!["counters".into(), "gauges".into(), "histograms".into()],
                owners: vec!["crates/obs/src/metrics.rs".into()],
                construct: false,
            },
        ],
        l6_protected: vec![L6Protected {
            type_name: "Server".into(),
            crate_dir: "crates/raft".into(),
            fields: vec!["log".into(), "commit_len".into()],
            guards: vec!["is_quorum".into(), "log_up_to_date".into()],
        }],
        ..Config::default()
    }
}

#[test]
fn l6_fixture_exact_positions() {
    let src = fixture("l6_guard.rs");
    let f = lint_source("crates/raft/src/fixture.rs", &src, &flow_config());
    let expected = vec![
        // branch_skips_guard: the fast path writes without consulting
        // any guard.
        ("L6".to_string(), 12, 10),
        // via_partial_helper: half_hearted only guards on one of its
        // own paths, so it contributes nothing.
        ("L6".to_string(), 38, 10),
        // match_arm_early_return: the Msg::Fast arm skips the guard the
        // Msg::Ack arm consulted.
        ("L6".to_string(), 52, 14),
        // join_loses_guard: only the else branch consulted the guard,
        // so the join point is unguarded.
        ("L6".to_string(), 81, 6),
    ];
    assert_eq!(positions(&f), expected, "{f:#?}");
}

#[test]
fn l3_obs_fixture_exact_positions() {
    let src = fixture("l3_obs.rs");
    let f = lint_source("crates/obs/src/other.rs", &src, &flow_config());
    let expected = vec![
        // forged_event: construct-protected literal outside the owner.
        ("L3".to_string(), 6, 4),
        // poke_registry: registry field assigned outside metrics.rs.
        ("L3".to_string(), 21, 6),
    ];
    assert_eq!(positions(&f), expected, "{f:#?}");
    // The owner file may do both.
    let owner_ev = lint_source("crates/obs/src/event.rs", &src, &flow_config());
    assert!(owner_ev.iter().all(|f| f.line != 6), "{owner_ev:#?}");
    let owner_m = lint_source("crates/obs/src/metrics.rs", &src, &flow_config());
    assert!(owner_m.iter().all(|f| f.line != 21), "{owner_m:#?}");
}

// ---------------------------------------------------------------------------
// Self-ablation: run L6 against the *real* transition code under the
// shipped configuration, with and without its guards.
// ---------------------------------------------------------------------------

fn real_net_rs() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../raft/src/net.rs");
    std::fs::read_to_string(&path).expect("read crates/raft/src/net.rs")
}

/// The shipped `adore-lint.toml`: the self-ablations must be caught by
/// the `Server` entry CI actually runs, not by a test-local one.
fn shipped_config() -> Config {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../adore-lint.toml");
    let text = std::fs::read_to_string(&path).expect("read adore-lint.toml");
    Config::from_toml(&text).expect("shipped config parses")
}

/// 1-based lines whose text contains `needle`.
fn lines_containing(src: &str, needle: &str) -> Vec<usize> {
    src.lines()
        .enumerate()
        .filter(|(_, l)| l.contains(needle))
        .map(|(i, _)| i + 1)
        .collect()
}

fn unsuppressed_l6(src: &str) -> Vec<(usize, usize)> {
    lint_source("crates/raft/src/net.rs", src, &shipped_config())
        .iter()
        .filter(|f| f.rule == "L6" && !f.suppressed)
        .map(|f| (f.line, f.col))
        .collect()
}

#[test]
fn unmodified_transition_code_passes_l6() {
    let src = real_net_rs();
    assert_eq!(unsuppressed_l6(&src), vec![], "real net.rs must be L6-clean");
}

#[test]
fn ablating_the_quorum_guard_pinpoints_the_commit_mutation() {
    let src = real_net_rs();
    let guard = "config.is_quorum(ackers) && ";
    assert_eq!(
        lines_containing(&src, guard).len(),
        1,
        "maybe_advance_commit's guard moved; update this test"
    );
    let ablated = src.replacen(guard, "", 1);
    let mutation_lines = lines_containing(&ablated, "s.commit_len = len;");
    assert_eq!(mutation_lines.len(), 1, "mutation site moved; update this test");
    assert_eq!(
        unsuppressed_l6(&ablated),
        vec![(
            mutation_lines[0],
            ablated.lines().nth(mutation_lines[0] - 1).unwrap().find("commit_len").unwrap()
        )],
        "L6 must flag exactly the now-unguarded commit advance"
    );
}

#[test]
fn ablating_the_log_consistency_guard_pinpoints_the_adoption() {
    let src = real_net_rs();
    let guard = "!log_up_to_date(&log, &recipient.log)";
    assert!(
        lines_containing(&src, guard).len() >= 2,
        "Elect/Commit consistency checks moved; update this test"
    );
    let ablated = src.replace(guard, "false");
    // The Commit arm's `recipient.log = log;` and the commit-length
    // adoption right after it both lose their dominating guard.
    let log_lines = lines_containing(&ablated, "recipient.log = log;");
    let clen_lines = lines_containing(&ablated, "recipient.commit_len = recipient.commit_len");
    assert_eq!((log_lines.len(), clen_lines.len()), (1, 1), "sites moved; update this test");
    let flagged: Vec<usize> = unsuppressed_l6(&ablated).iter().map(|&(l, _)| l).collect();
    assert!(
        flagged.contains(&log_lines[0]) && flagged.contains(&clen_lines[0]),
        "L6 must flag the unguarded log adoption lines, got {flagged:?}"
    );
    assert_eq!(flagged.len(), 2, "and nothing else: {flagged:?}");
}
