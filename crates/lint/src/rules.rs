//! The token-pattern rule.
//!
//! **L2 — panic-free recovery**: configured (file, function) scopes —
//! WAL replay, crash recovery, counterexample replay — must not call
//! `.unwrap()`/`.expect()`, invoke panic-family macros, or index
//! slices. Recovery code runs on corrupted inputs by design; it must
//! return typed errors, not abort.
//!
//! It is a token-pattern pass over the item tree `syn` (the in-tree
//! stand-in) produces — no type information. The patterns are
//! deliberately conservative and syntactic; the suppression pragma
//! (see [`crate::pragma`]) is the escape hatch for justified uses.

use proc_macro2::{Delimiter, Span, TokenTree};

use crate::config::{Config, L2Scope};
use crate::Finding;

/// Runs L2 over one parsed file. `rel` is the workspace-relative path
/// with forward slashes; it selects which scopes apply.
pub fn scan_file(rel: &str, file: &syn::File, cfg: &Config) -> Vec<Finding> {
    let l2_scopes: Vec<&L2Scope> = cfg.l2_scopes.iter().filter(|s| s.file == rel).collect();
    let mut ctx = Ctx {
        rel,
        l2_scopes,
        findings: Vec::new(),
    };
    walk_items(&mut ctx, &file.items, false);
    ctx.findings
}

/// Whether `rel` lies strictly inside directory `dir`.
pub(crate) fn in_dir(rel: &str, dir: &str) -> bool {
    rel.strip_prefix(dir)
        .is_some_and(|rest| rest.starts_with('/'))
}

struct Ctx<'c> {
    rel: &'c str,
    l2_scopes: Vec<&'c L2Scope>,
    findings: Vec<Finding>,
}

impl Ctx<'_> {
    fn push(&mut self, span: Span, msg: String) {
        let lc = span.start();
        self.findings.push(Finding {
            rule: "L2".to_string(),
            file: self.rel.to_string(),
            line: lc.line,
            col: lc.column,
            msg,
            suppressed: false,
            reason: None,
        });
    }
}

fn walk_items(ctx: &mut Ctx<'_>, items: &[syn::Item], in_test: bool) {
    for item in items {
        let in_test = in_test || item.attrs().iter().any(syn::Attribute::is_cfg_test);
        match item {
            syn::Item::Fn(f) => walk_fn(ctx, f, in_test),
            syn::Item::Mod(m) | syn::Item::Trait(m) => {
                if let Some(content) = &m.content {
                    walk_items(ctx, content, in_test);
                }
            }
            syn::Item::Impl(i) => walk_items(ctx, &i.items, in_test),
            _ => {}
        }
    }
}

fn walk_fn(ctx: &mut Ctx<'_>, f: &syn::ItemFn, in_test: bool) {
    if in_test {
        return;
    }
    let in_scope = ctx
        .l2_scopes
        .iter()
        .any(|s| s.functions.iter().any(|n| n == "*" || *n == f.ident));
    if !in_scope {
        return;
    }
    if let Some(body) = &f.body {
        scan(ctx, body.stream().trees());
    }
}

fn scan(ctx: &mut Ctx<'_>, trees: &[TokenTree]) {
    for i in 0..trees.len() {
        match &trees[i] {
            TokenTree::Ident(_) => l2_ident(ctx, trees, i),
            TokenTree::Group(g) => {
                if g.delimiter() == Delimiter::Bracket && is_index_position(trees, i) {
                    ctx.push(
                        g.span(),
                        "slice indexing in a panic-free scope (use `.get(..)`)".to_string(),
                    );
                }
                scan(ctx, g.stream().trees());
            }
            _ => {}
        }
    }
}

const PANIC_MACROS: &[&str] = &[
    "panic",
    "unreachable",
    "todo",
    "unimplemented",
    "assert",
    "assert_eq",
    "assert_ne",
];

fn l2_ident(ctx: &mut Ctx<'_>, trees: &[TokenTree], i: usize) {
    let TokenTree::Ident(id) = &trees[i] else {
        return;
    };
    let prev_dot =
        i > 0 && matches!(&trees[i - 1], TokenTree::Punct(p) if p.as_char() == '.');
    if (*id == "unwrap" || *id == "expect") && prev_dot {
        ctx.push(
            id.span(),
            format!("`.{id}()` in a panic-free recovery scope (return a typed error)"),
        );
        return;
    }
    let next_bang =
        matches!(trees.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '!');
    if next_bang && PANIC_MACROS.iter().any(|m| *id == **m) {
        ctx.push(id.span(), format!("`{id}!` in a panic-free recovery scope"));
    }
}

/// Idents that precede a bracket group without forming an indexing
/// expression (`let [a, b] = ..`, `for [x] in ..`, `&mut [T; 4]`, ...).
const NON_INDEX_KEYWORDS: &[&str] = &[
    "let", "in", "if", "while", "match", "return", "else", "mut", "ref", "move", "as", "loop",
    "break", "continue", "where", "dyn", "for", "unsafe", "use", "const", "static", "type",
    "await", "impl",
];

/// Whether the bracket group at `trees[i]` sits in indexing position:
/// directly after an expression-ish token (identifier, call/paren group,
/// another index, or a literal).
fn is_index_position(trees: &[TokenTree], i: usize) -> bool {
    let Some(prev) = i.checked_sub(1).and_then(|k| trees.get(k)) else {
        return false;
    };
    match prev {
        TokenTree::Ident(id) => !NON_INDEX_KEYWORDS.iter().any(|k| *id == **k),
        TokenTree::Group(g) => {
            matches!(g.delimiter(), Delimiter::Parenthesis | Delimiter::Bracket)
        }
        TokenTree::Literal(_) => true,
        TokenTree::Punct(_) => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, L2Scope};

    fn run(rel: &str, src: &str, cfg: &Config) -> Vec<Finding> {
        let file = syn::parse_file(src).expect("fixture parses");
        scan_file(rel, &file, cfg)
    }

    #[test]
    fn l2_flags_unwrap_panic_and_indexing_in_scope() {
        let cfg = Config {
            l2_scopes: vec![L2Scope {
                file: "crates/storage/src/wal.rs".into(),
                functions: vec!["recover".into()],
            }],
            ..Config::default()
        };
        let src = "\
fn recover(buf: &[u8]) {
    let x = buf[0];
    let y = parse(buf).unwrap();
    let z = parse(buf).expect(\"frame\");
    panic!(\"bad frame\");
}
fn other(buf: &[u8]) { let x = buf[0]; }
";
        let f = run("crates/storage/src/wal.rs", src, &cfg);
        let rules: Vec<(&str, usize)> = f.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(
            rules,
            vec![("L2", 2), ("L2", 3), ("L2", 4), ("L2", 5)],
            "{f:?}"
        );
        // Same code in a file with no scope: clean.
        assert!(run("crates/storage/src/lib.rs", src, &cfg).is_empty());
    }

    #[test]
    fn l2_patterns_do_not_flag_binding_or_array_types() {
        let cfg = Config {
            l2_scopes: vec![L2Scope {
                file: "f.rs".into(),
                functions: vec!["*".into()],
            }],
            ..Config::default()
        };
        let src = "\
fn a(frame: [u8; 4]) -> Option<u8> {
    let [x, _y] = [1u8, 2];
    for [p, q] in pairs() {
        consume(p, q);
    }
    frame.first().copied()
}
";
        let f = run("f.rs", src, &cfg);
        assert!(f.is_empty(), "{f:?}");
    }
}
