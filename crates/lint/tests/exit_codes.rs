//! End-to-end exit-status contract for the `adore-lint` binary:
//! 0 = clean, 1 = ordinary findings, 2 = integrity errors
//! (malformed pragma P0, unparsable file E0, bad config, usage).
//! ci.sh and external callers branch on these, so they are pinned
//! against tiny throwaway workspaces under `CARGO_TARGET_TMPDIR`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// Builds a one-file workspace `crates/core/src/lib.rs` = `src` with a
/// minimal config holding that file to L2, returning its root.
fn workspace(name: &str, src: &str) -> PathBuf {
    let root = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let dir = root.join("crates/core/src");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::write(dir.join("lib.rs"), src).expect("write source");
    std::fs::write(
        root.join("adore-lint.toml"),
        "[scan]\nroots = [\"crates\"]\n\n[[rules.L2.scopes]]\n\
         file = \"crates/core/src/lib.rs\"\nfunctions = [\"*\"]\n",
    )
    .expect("write config");
    root
}

fn lint(root: &Path, extra: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_adore-lint"))
        .arg("--root")
        .arg(root)
        .arg("--config")
        .arg(root.join("adore-lint.toml"))
        .args(extra)
        .output()
        .expect("binary runs")
}

#[test]
fn clean_workspace_exits_zero() {
    let root = workspace("exit0", "pub fn ok() {}\n");
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}

#[test]
fn ordinary_findings_exit_one() {
    let root = workspace("exit1", "fn f(b: &[u8]) -> u8 {\n    first(b).unwrap()\n}\n");
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("L2: `.unwrap()`"), "{text}");
}

#[test]
fn malformed_pragma_exits_two() {
    // Assembled at runtime so this test's own source carries no live
    // pragma for the workspace self-scan.
    let src = format!(
        "fn g() {{}} // {} allow(L2)\n",
        concat!("adore-", "lint:")
    );
    let root = workspace("exit2", &src);
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("P0"), "{text}");
}

#[test]
fn unparsable_file_exits_two() {
    let root = workspace("exit2_parse", "fn broken( {\n");
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("E0"), "{text}");
}

#[test]
fn integrity_outranks_ordinary_findings() {
    // Both a P0 and an L2 present: the binary must report 2, not 1.
    let src = format!(
        "fn f(b: &[u8]) -> u8 {{\n    first(b).unwrap()\n}} // {} allow(L2)\n",
        concat!("adore-", "lint:")
    );
    let root = workspace("exit2_both", &src);
    let out = lint(&root, &[]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn usage_errors_exit_two() {
    let root = workspace("exit2_usage", "pub fn ok() {}\n");
    for bad in [
        &["--format", "yaml"][..],
        &["--format", "sarif"][..],
        &["--only", "L99"][..],
        &["--only", "L13,L14,L15"][..],
        &["--frobnicate"][..],
    ] {
        let out = lint(&root, bad);
        assert_eq!(out.status.code(), Some(2), "{bad:?}: {out:?}");
    }
}

#[test]
fn only_filter_narrows_the_exit_status() {
    // The L2 finding is outside the `--only` set, so the run is clean;
    // P0/E0 would still count (covered above).
    let root = workspace("exit_only", "fn f(b: &[u8]) -> u8 {\n    first(b).unwrap()\n}\n");
    let out = lint(&root, &["--only", "L9,L10"]);
    assert_eq!(out.status.code(), Some(0), "{out:?}");
}
