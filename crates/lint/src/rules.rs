//! The token-pattern rules.
//!
//! * **L2 — panic-free recovery**: configured (file, function) scopes —
//!   WAL replay, crash recovery, counterexample replay — must not call
//!   `.unwrap()`/`.expect()`, invoke panic-family macros, or index
//!   slices. Recovery code runs on corrupted inputs by design; it must
//!   return typed errors, not abort.
//! * **L3 — mutation encapsulation**: protected protocol-state fields
//!   may only be assigned inside their owning transition module. Within
//!   a crate rustc's privacy cannot enforce this, so the lint does.
//!
//! Both are token-pattern passes over the item tree `syn` (the in-tree
//! stand-in) produces — no type information. The patterns are
//! deliberately conservative and syntactic; the suppression pragma
//! (see [`crate::pragma`]) is the escape hatch for justified uses.

use proc_macro2::{Delimiter, Span, TokenTree};

use crate::config::{Config, L2Scope};
use crate::Finding;

/// Runs every rule over one parsed file. `rel` is the workspace-relative
/// path with forward slashes; it selects which rule scopes apply.
pub fn scan_file(rel: &str, file: &syn::File, cfg: &Config) -> Vec<Finding> {
    let l3: Vec<(&str, &str)> = cfg
        .l3_types
        .iter()
        .filter(|t| in_dir(rel, &t.crate_dir) && !t.owners.iter().any(|o| o == rel))
        .flat_map(|t| {
            t.fields
                .iter()
                .map(move |f| (t.type_name.as_str(), f.as_str()))
        })
        .collect();
    let l3c: Vec<&str> = cfg
        .l3_types
        .iter()
        .filter(|t| t.construct && in_dir(rel, &t.crate_dir) && !t.owners.iter().any(|o| o == rel))
        .map(|t| t.type_name.as_str())
        .collect();
    let l2_scopes: Vec<&L2Scope> = cfg.l2_scopes.iter().filter(|s| s.file == rel).collect();

    let mut ctx = Ctx {
        rel,
        l2_scopes,
        l3,
        l3c,
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
    /// Active (type name, protected field) pairs for this file.
    l3: Vec<(&'c str, &'c str)>,
    /// Construct-protected type names active for this file.
    l3c: Vec<&'c str>,
    findings: Vec<Finding>,
}

impl Ctx<'_> {
    fn push(&mut self, rule: &str, span: Span, msg: String) {
        let lc = span.start();
        self.findings.push(Finding {
            rule: rule.to_string(),
            file: self.rel.to_string(),
            line: lc.line,
            col: lc.column,
            msg,
            suppressed: false,
            reason: None,
        });
    }
}

/// Which rules are live for the function body being scanned.
#[derive(Clone, Copy)]
struct Flags {
    l2: bool,
    l3: bool,
    l3c: bool,
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
    let l2 = ctx
        .l2_scopes
        .iter()
        .any(|s| s.functions.iter().any(|n| n == "*" || *n == f.ident));
    if let Some(body) = &f.body {
        let fl = Flags {
            l2,
            l3: !ctx.l3.is_empty(),
            l3c: !ctx.l3c.is_empty(),
        };
        scan(ctx, body.stream().trees(), fl);
    }
}

fn scan(ctx: &mut Ctx<'_>, trees: &[TokenTree], fl: Flags) {
    for i in 0..trees.len() {
        match &trees[i] {
            TokenTree::Ident(_) => {
                if fl.l2 {
                    l2_ident(ctx, trees, i);
                }
                if fl.l3c {
                    l3_construct(ctx, trees, i);
                }
            }
            TokenTree::Punct(p) if fl.l3 && p.as_char() == '.' => {
                l3_dot(ctx, trees, i);
            }
            TokenTree::Group(g) => {
                if fl.l2 && g.delimiter() == Delimiter::Bracket && is_index_position(trees, i) {
                    ctx.push(
                        "L2",
                        g.span(),
                        "slice indexing in a panic-free scope (use `.get(..)`)".to_string(),
                    );
                }
                scan(ctx, g.stream().trees(), fl);
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// L2: panic-free recovery
// ---------------------------------------------------------------------------

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
            "L2",
            id.span(),
            format!("`.{id}()` in a panic-free recovery scope (return a typed error)"),
        );
        return;
    }
    let next_bang =
        matches!(trees.get(i + 1), Some(TokenTree::Punct(p)) if p.as_char() == '!');
    if next_bang && PANIC_MACROS.iter().any(|m| *id == **m) {
        ctx.push(
            "L2",
            id.span(),
            format!("`{id}!` in a panic-free recovery scope"),
        );
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

// ---------------------------------------------------------------------------
// L3: mutation encapsulation
// ---------------------------------------------------------------------------

/// Idents that precede `Type { .. }` without it being a construction:
/// declarations, impl headers, and `let`/`ref` destructuring patterns.
const NON_CONSTRUCT_KEYWORDS: &[&str] = &[
    "struct", "enum", "union", "impl", "trait", "mod", "fn", "let", "ref", "for",
];

/// L3 (construct protection): `Type { .. }` literals of a protected type
/// outside its owner files. Covers journal-event types whose invariants
/// (schema version, causal parent links) only the owner constructors
/// maintain.
fn l3_construct(ctx: &mut Ctx<'_>, trees: &[TokenTree], i: usize) {
    let TokenTree::Ident(id) = &trees[i] else {
        return;
    };
    if !ctx.l3c.iter().any(|t| *id == **t) {
        return;
    }
    let Some(TokenTree::Group(g)) = trees.get(i + 1) else {
        return;
    };
    if g.delimiter() != Delimiter::Brace {
        return;
    }
    if let Some(TokenTree::Ident(prev)) = i.checked_sub(1).and_then(|k| trees.get(k)) {
        if NON_CONSTRUCT_KEYWORDS.iter().any(|k| *prev == **k) {
            return;
        }
    }
    ctx.push(
        "L3",
        id.span(),
        format!("`{id}` constructed outside its owner module (use the owner's constructors)"),
    );
}

fn l3_dot(ctx: &mut Ctx<'_>, trees: &[TokenTree], i: usize) {
    let dot = |k: usize| matches!(trees.get(k), Some(TokenTree::Punct(p)) if p.as_char() == '.');
    // `..` / `..=` ranges and struct-update syntax are not field access.
    if dot(i + 1) || (i > 0 && dot(i - 1)) {
        return;
    }
    let Some(TokenTree::Ident(field)) = trees.get(i + 1) else {
        return;
    };
    let Some((ty, _)) = ctx.l3.iter().find(|(_, f)| *field == **f) else {
        return;
    };
    if assignment_follows(trees, i + 2) {
        let msg = format!(
            "field `{field}` of `{ty}` assigned outside its owning transition module"
        );
        ctx.push("L3", field.span(), msg);
    }
}

/// Whether the punct run starting at `trees[j]` is an assignment
/// operator (`=`, `+=`, `<<=`, ...) rather than a comparison.
pub(crate) fn assignment_follows(trees: &[TokenTree], j: usize) -> bool {
    let c = |k: usize| match trees.get(j + k) {
        Some(TokenTree::Punct(p)) => Some(p.as_char()),
        _ => None,
    };
    let Some(c1) = c(0) else {
        return false;
    };
    match c1 {
        '=' => !matches!(c(1), Some('=' | '>')),
        '+' | '-' | '*' | '/' | '%' | '^' => c(1) == Some('='),
        '&' | '|' => c(1) == Some('='),
        '<' | '>' => c(1) == Some(c1) && c(2) == Some('='),
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Config, L2Scope, L3Type};

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

    #[test]
    fn l3_flags_assignment_outside_owner() {
        let cfg = Config {
            l3_types: vec![L3Type {
                type_name: "Server".into(),
                crate_dir: "crates/raft".into(),
                fields: vec!["role".into(), "log".into()],
                owners: vec!["crates/raft/src/net.rs".into()],
                construct: false,
            }],
            ..Config::default()
        };
        let src = "\
fn rogue(s: &mut Server) {
    s.role = Role::Leader;
    s.log.push(entry());
    if s.role == Role::Leader { observe(&s.log); }
    s.log += 1;
}
";
        let f = run("crates/raft/src/refine.rs", src, &cfg);
        let got: Vec<(&str, usize)> = f.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(got, vec![("L3", 2), ("L3", 5)], "{f:?}");
        // The owner file may assign freely.
        assert!(run("crates/raft/src/net.rs", src, &cfg).is_empty());
        // Other crates are out of scope (privacy covers them).
        assert!(run("crates/kv/src/sim.rs", src, &cfg).is_empty());
    }

    #[test]
    fn l3_construct_protection_flags_literals_outside_owner() {
        let cfg = Config {
            l3_types: vec![L3Type {
                type_name: "TraceEvent".into(),
                crate_dir: "crates".into(),
                fields: Vec::new(),
                owners: vec!["crates/obs/src/event.rs".into()],
                construct: true,
            }],
            ..Config::default()
        };
        let src = "\
fn emit(t: u64) -> TraceEvent {
    let ev = TraceEvent { time: t, kind: k() };
    push(TraceEvent { time: t + 1, kind: k() });
    ev
}
impl fmt::Debug for TraceEvent { }
fn observe(ev: &TraceEvent) -> u64 {
    let TraceEvent { time, .. } = ev;
    *time
}
";
        let f = run("crates/nemesis/src/engine.rs", src, &cfg);
        let got: Vec<(&str, usize)> = f.iter().map(|f| (f.rule.as_str(), f.line)).collect();
        assert_eq!(got, vec![("L3", 2), ("L3", 3)], "{f:?}");
        // The owner file constructs freely.
        assert!(run("crates/obs/src/event.rs", src, &cfg).is_empty());
    }
}
