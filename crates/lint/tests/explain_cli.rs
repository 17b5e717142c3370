//! End-to-end tests for `adore-lint --explain RULE` through the real
//! binary: rationale text on stdout, exit statuses, and the unknown-
//! rule error path.

use std::process::Command;

fn explain(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_adore-lint"))
        .args(args)
        .output()
        .expect("run adore-lint")
}

#[test]
fn every_rule_explains_itself_and_exits_zero() {
    for id in adore_lint::explain::RULE_IDS {
        let out = explain(&["--explain", id]);
        assert!(out.status.success(), "--explain {id} must exit 0");
        let text = String::from_utf8(out.stdout).expect("utf8");
        assert!(
            text.contains(id),
            "--explain {id} output names the rule:\n{text}"
        );
    }
}

#[test]
fn explain_is_case_insensitive() {
    let out = explain(&["--explain", "l9"]);
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).expect("utf8");
    assert!(text.contains("lock-order cycles"), "{text}");
    assert!(text.contains("Violating example"), "{text}");
}

#[test]
fn unknown_rule_exits_two_and_lists_known_ids() {
    // A retired id is as unknown as one that never existed.
    for id in ["L99", "L6"] {
        let out = explain(&["--explain", id]);
        assert_eq!(out.status.code(), Some(2));
        let err = String::from_utf8(out.stderr).expect("utf8");
        assert!(err.contains(&format!("unknown rule `{id}`")), "{err}");
        assert!(err.contains("L2, L9"), "error must list the known ids: {err}");
    }
}

#[test]
fn missing_operand_exits_two() {
    let out = explain(&["--explain"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).expect("utf8");
    assert!(err.contains("--explain expects a rule id"), "{err}");
}
