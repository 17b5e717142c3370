//! Per-function control-flow graphs over the token trees the vendored
//! `syn` stand-in produces.
//!
//! The item parser keeps function bodies as raw token streams; this
//! module recovers just enough structure for dataflow: statements split
//! on top-level `;`, `if`/`else if`/`else` chains, `match` arms,
//! `while`/`for`/`loop` with back edges, bare blocks, and the early
//! exits `return`, `break`, `continue`, and the `?` operator (modeled
//! as an extra edge to the exit node).
//!
//! Known, deliberate imprecision (documented in DESIGN.md §10):
//!
//! * A brace group inside an `if`/`while`/`match` header is taken for
//!   the body unless the next token is `=` (which covers
//!   `if let Foo { .. } = x { .. }` struct patterns).
//! * Expressions inside one statement are flat: `let x = if c { a() }
//!   else { b() };` is a single node, so facts generated in one branch
//!   of an expression-position `if` apply unconditionally. For the
//!   must-reach analysis that only *adds* facts (fewer findings, never
//!   unsound extra ones at the statement level the rules check); for
//!   taint it *over*-taints, the conservative direction.
//! * Nested `fn`/`struct`/`impl` items inside a body become opaque
//!   single nodes and are not analyzed.

use proc_macro2::{Delimiter, Group, Span, TokenTree};

/// Index of the synthetic entry node.
pub const ENTRY: usize = 0;
/// Index of the synthetic exit node.
pub const EXIT: usize = 1;

/// What a node represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// The synthetic function entry.
    Entry,
    /// The synthetic function exit (normal return, `?`, and `return`
    /// all lead here).
    Exit,
    /// One statement.
    Stmt,
    /// A branch header: an `if`/`while` condition, `for` header,
    /// `match` scrutinee, or `match` arm pattern.
    Cond,
}

/// One CFG node: a statement or branch header with its tokens.
#[derive(Debug, Clone)]
pub struct Node {
    /// What the node represents.
    pub kind: NodeKind,
    /// The node's tokens (empty for entry/exit and `loop` headers).
    pub tokens: Vec<TokenTree>,
    /// Span of the first token, if any.
    pub span: Option<Span>,
    /// Successor node indices.
    pub succs: Vec<usize>,
    /// Whether the statement is a `return`.
    pub is_return: bool,
}

/// A function body's control-flow graph. Node 0 is [`ENTRY`], node 1 is
/// [`EXIT`]; every path from entry reaches exit.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// All nodes; edges are stored as successor lists.
    pub nodes: Vec<Node>,
}

impl Cfg {
    /// Predecessor lists, derived from the successor lists.
    #[must_use]
    pub fn preds(&self) -> Vec<Vec<usize>> {
        let mut preds = vec![Vec::new(); self.nodes.len()];
        for (i, n) in self.nodes.iter().enumerate() {
            for &s in &n.succs {
                preds[s].push(i);
            }
        }
        preds
    }
}

/// Builds the CFG for one function body.
#[must_use]
pub fn build(body: &Group) -> Cfg {
    let mut b = Builder {
        nodes: vec![
            Node {
                kind: NodeKind::Entry,
                tokens: Vec::new(),
                span: None,
                succs: Vec::new(),
                is_return: false,
            },
            Node {
                kind: NodeKind::Exit,
                tokens: Vec::new(),
                span: None,
                succs: Vec::new(),
                is_return: false,
            },
        ],
        loops: Vec::new(),
    };
    let frontier = b.lower_block(body.stream().trees(), vec![ENTRY]);
    for n in frontier {
        b.edge(n, EXIT);
    }
    Cfg { nodes: b.nodes }
}

// ---------------------------------------------------------------------------
// Statement splitting
// ---------------------------------------------------------------------------

enum Stmt<'a> {
    Simple {
        tokens: &'a [TokenTree],
    },
    If {
        chain: Vec<(&'a [TokenTree], &'a Group)>,
        else_block: Option<&'a Group>,
    },
    Match {
        scrutinee: &'a [TokenTree],
        arms: Vec<Arm<'a>>,
    },
    While {
        cond: &'a [TokenTree],
        body: &'a Group,
    },
    For {
        header: &'a [TokenTree],
        body: &'a Group,
    },
    Loop {
        body: &'a Group,
    },
    Block {
        body: &'a Group,
    },
}

struct Arm<'a> {
    pattern: &'a [TokenTree],
    body: ArmBody<'a>,
}

enum ArmBody<'a> {
    Block(&'a Group),
    Expr(&'a [TokenTree]),
}

fn ident_is(tt: Option<&TokenTree>, s: &str) -> bool {
    matches!(tt, Some(TokenTree::Ident(i)) if *i == s)
}

fn punct_is(tt: Option<&TokenTree>, c: char) -> bool {
    matches!(tt, Some(TokenTree::Punct(p)) if p.as_char() == c)
}

fn brace_at(trees: &[TokenTree], i: usize) -> Option<&Group> {
    match trees.get(i) {
        Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Brace => Some(g),
        _ => None,
    }
}

/// Nested items that may carry a brace body of their own; consumed as a
/// single opaque statement.
const NESTED_ITEM_KEYWORDS: &[&str] =
    &["fn", "struct", "enum", "impl", "mod", "trait", "union", "macro_rules"];

/// Collects header tokens until the body's brace group. A brace group
/// followed by `=` belongs to a struct *pattern* (`if let Foo { .. } =
/// x { .. }`) and stays in the header.
fn header_until_brace(trees: &[TokenTree], mut i: usize) -> (usize, usize) {
    let start = i;
    while i < trees.len() {
        if brace_at(trees, i).is_some() && !punct_is(trees.get(i + 1), '=') {
            return (start, i);
        }
        i += 1;
    }
    (start, i)
}

fn split_statements<'a>(trees: &'a [TokenTree]) -> Vec<Stmt<'a>> {
    let mut out = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Ident(id) if *id == "if" => {
                let (stmt, next) = parse_if(trees, i);
                out.push(stmt);
                i = next;
            }
            TokenTree::Ident(id) if *id == "match" => {
                let (hs, he) = header_until_brace(trees, i + 1);
                if let Some(g) = brace_at(trees, he) {
                    out.push(Stmt::Match {
                        scrutinee: &trees[hs..he],
                        arms: parse_arms(g.stream().trees()),
                    });
                    i = he + 1;
                    // An expression-position `match` used as a statement
                    // may carry a trailing `;`.
                    if punct_is(trees.get(i), ';') {
                        i += 1;
                    }
                } else {
                    i = consume_simple(trees, i, &mut out);
                }
            }
            TokenTree::Ident(id) if *id == "while" => {
                let (hs, he) = header_until_brace(trees, i + 1);
                if let Some(g) = brace_at(trees, he) {
                    out.push(Stmt::While {
                        cond: &trees[hs..he],
                        body: g,
                    });
                    i = he + 1;
                } else {
                    i = consume_simple(trees, i, &mut out);
                }
            }
            TokenTree::Ident(id) if *id == "for" => {
                let (hs, he) = header_until_brace(trees, i + 1);
                if let Some(g) = brace_at(trees, he) {
                    out.push(Stmt::For {
                        header: &trees[hs..he],
                        body: g,
                    });
                    i = he + 1;
                } else {
                    i = consume_simple(trees, i, &mut out);
                }
            }
            TokenTree::Ident(id) if *id == "loop" => {
                if let Some(g) = brace_at(trees, i + 1) {
                    out.push(Stmt::Loop { body: g });
                    i += 2;
                } else {
                    i = consume_simple(trees, i, &mut out);
                }
            }
            TokenTree::Ident(id) if *id == "unsafe" && brace_at(trees, i + 1).is_some() => {
                out.push(Stmt::Block {
                    body: brace_at(trees, i + 1).expect("checked"),
                });
                i += 2;
            }
            TokenTree::Ident(id) if NESTED_ITEM_KEYWORDS.iter().any(|k| *id == **k) => {
                // A nested item: opaque. Consume through its brace body
                // (or terminating `;`).
                let start = i;
                while i < trees.len() {
                    if punct_is(trees.get(i), ';') {
                        i += 1;
                        break;
                    }
                    if brace_at(trees, i).is_some() {
                        i += 1;
                        break;
                    }
                    i += 1;
                }
                out.push(Stmt::Simple {
                    tokens: &trees[start..i],
                });
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                out.push(Stmt::Block { body: g });
                i += 1;
                if punct_is(trees.get(i), ';') {
                    i += 1;
                }
            }
            _ => {
                i = consume_simple(trees, i, &mut out);
            }
        }
    }
    out
}

/// Consumes a plain statement: tokens up to a top-level `;` (exclusive)
/// or the end of the block (a tail expression).
fn consume_simple<'a>(trees: &'a [TokenTree], start: usize, out: &mut Vec<Stmt<'a>>) -> usize {
    let mut i = start;
    while i < trees.len() {
        if punct_is(trees.get(i), ';') {
            out.push(Stmt::Simple {
                tokens: &trees[start..i],
            });
            return i + 1;
        }
        i += 1;
    }
    out.push(Stmt::Simple {
        tokens: &trees[start..],
    });
    i
}

fn parse_if<'a>(trees: &'a [TokenTree], mut i: usize) -> (Stmt<'a>, usize) {
    let mut chain = Vec::new();
    loop {
        // `i` is at the `if` keyword.
        let (hs, he) = header_until_brace(trees, i + 1);
        let Some(then) = brace_at(trees, he) else {
            // Malformed / macro fragment: fall back to one opaque node.
            let mut out = Vec::new();
            let next = consume_simple(trees, i, &mut out);
            let Some(stmt @ Stmt::Simple { .. }) = out.pop() else {
                unreachable!("consume_simple pushes exactly one Simple");
            };
            return (stmt, next);
        };
        chain.push((&trees[hs..he], then));
        i = he + 1;
        if !ident_is(trees.get(i), "else") {
            return (
                Stmt::If {
                    chain,
                    else_block: None,
                },
                i,
            );
        }
        i += 1; // `else`
        if ident_is(trees.get(i), "if") {
            continue;
        }
        let else_block = brace_at(trees, i);
        let next = if else_block.is_some() { i + 1 } else { i };
        return (Stmt::If { chain, else_block }, next);
    }
}

/// Splits a `match` body into arms: `pattern => body` where the body is
/// a brace block (optionally comma-terminated) or an expression up to a
/// top-level comma.
fn parse_arms<'a>(trees: &'a [TokenTree]) -> Vec<Arm<'a>> {
    let mut arms = Vec::new();
    let mut i = 0;
    while i < trees.len() {
        // Skip arm attributes (`#[cfg(...)]` on an arm is rare but legal).
        while punct_is(trees.get(i), '#') && trees.get(i + 1).is_some() {
            i += 2;
        }
        let pat_start = i;
        // Pattern (plus any `if` guard) runs to the `=>`.
        while i < trees.len() && !(punct_is(trees.get(i), '=') && punct_is(trees.get(i + 1), '>'))
        {
            i += 1;
        }
        if i >= trees.len() {
            break;
        }
        let pattern = &trees[pat_start..i];
        i += 2; // `=>`
        if let Some(g) = brace_at(trees, i) {
            arms.push(Arm {
                pattern,
                body: ArmBody::Block(g),
            });
            i += 1;
            if punct_is(trees.get(i), ',') {
                i += 1;
            }
        } else {
            let body_start = i;
            while i < trees.len() && !punct_is(trees.get(i), ',') {
                i += 1;
            }
            arms.push(Arm {
                pattern,
                body: ArmBody::Expr(&trees[body_start..i]),
            });
            if punct_is(trees.get(i), ',') {
                i += 1;
            }
        }
    }
    arms
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

struct LoopCtx {
    head: usize,
    breaks: Vec<usize>,
}

struct Builder {
    nodes: Vec<Node>,
    loops: Vec<LoopCtx>,
}

enum Term {
    None,
    Return,
    Break,
    Continue,
}

fn leading_term(tokens: &[TokenTree]) -> Term {
    match tokens.first() {
        Some(TokenTree::Ident(i)) if *i == "return" => Term::Return,
        Some(TokenTree::Ident(i)) if *i == "break" => Term::Break,
        Some(TokenTree::Ident(i)) if *i == "continue" => Term::Continue,
        _ => Term::None,
    }
}

/// Whether the tokens contain a `?` operator anywhere (groups included).
pub(crate) fn contains_question(tokens: &[TokenTree]) -> bool {
    tokens.iter().any(|tt| match tt {
        TokenTree::Punct(p) => p.as_char() == '?',
        TokenTree::Group(g) => contains_question(g.stream().trees()),
        _ => false,
    })
}

impl Builder {
    fn edge(&mut self, from: usize, to: usize) {
        if !self.nodes[from].succs.contains(&to) {
            self.nodes[from].succs.push(to);
        }
    }

    fn node(&mut self, kind: NodeKind, tokens: Vec<TokenTree>) -> usize {
        let span = tokens.first().map(TokenTree::span);
        let is_return = matches!(leading_term(&tokens), Term::Return);
        self.nodes.push(Node {
            kind,
            tokens,
            span,
            succs: Vec::new(),
            is_return,
        });
        self.nodes.len() - 1
    }

    fn connect(&mut self, preds: &[usize], to: usize) {
        for &p in preds {
            self.edge(p, to);
        }
    }

    /// Lowers a statement's tokens into one node and wires its early
    /// exits; returns the fall-through frontier.
    fn lower_simple(&mut self, tokens: &[TokenTree], preds: &[usize]) -> Vec<usize> {
        let n = self.node(NodeKind::Stmt, tokens.to_vec());
        self.connect(preds, n);
        if contains_question(tokens) {
            self.edge(n, EXIT);
        }
        match leading_term(tokens) {
            Term::Return => {
                self.edge(n, EXIT);
                Vec::new()
            }
            Term::Break => {
                match self.loops.last_mut() {
                    Some(l) => l.breaks.push(n),
                    None => self.edge(n, EXIT),
                }
                Vec::new()
            }
            Term::Continue => {
                let head = self.loops.last().map(|l| l.head);
                match head {
                    Some(h) => self.edge(n, h),
                    None => self.edge(n, EXIT),
                }
                Vec::new()
            }
            Term::None => vec![n],
        }
    }

    fn cond_node(&mut self, tokens: &[TokenTree], preds: &[usize]) -> usize {
        let c = self.node(NodeKind::Cond, tokens.to_vec());
        self.connect(preds, c);
        if contains_question(tokens) {
            self.edge(c, EXIT);
        }
        c
    }

    fn lower_group(&mut self, g: &Group, preds: Vec<usize>) -> Vec<usize> {
        self.lower_block(g.stream().trees(), preds)
    }

    fn lower_block(&mut self, trees: &[TokenTree], mut frontier: Vec<usize>) -> Vec<usize> {
        for stmt in split_statements(trees) {
            if frontier.is_empty() {
                // Unreachable code after return/break/continue: stop.
                break;
            }
            frontier = self.lower_stmt(&stmt, frontier);
        }
        frontier
    }

    fn lower_stmt(&mut self, stmt: &Stmt<'_>, frontier: Vec<usize>) -> Vec<usize> {
        match stmt {
            Stmt::Simple { tokens } => self.lower_simple(tokens, &frontier),
            Stmt::Block { body } => self.lower_group(body, frontier),
            Stmt::If { chain, else_block } => {
                let mut merged = Vec::new();
                let mut cur = frontier;
                for (cond, then) in chain {
                    let c = self.cond_node(cond, &cur);
                    merged.extend(self.lower_group(then, vec![c]));
                    cur = vec![c];
                }
                match else_block {
                    Some(g) => merged.extend(self.lower_group(g, cur)),
                    None => merged.extend(cur),
                }
                merged
            }
            Stmt::Match { scrutinee, arms } => {
                let s = self.cond_node(scrutinee, &frontier);
                let mut merged = Vec::new();
                for arm in arms {
                    let p = self.cond_node(arm.pattern, &[s]);
                    match &arm.body {
                        ArmBody::Block(g) => merged.extend(self.lower_group(g, vec![p])),
                        ArmBody::Expr(tokens) => {
                            merged.extend(self.lower_simple(tokens, &[p]));
                        }
                    }
                }
                if arms.is_empty() {
                    merged.push(s);
                }
                merged
            }
            Stmt::While { cond, body } => {
                let c = self.cond_node(cond, &frontier);
                self.loops.push(LoopCtx {
                    head: c,
                    breaks: Vec::new(),
                });
                let ends = self.lower_group(body, vec![c]);
                for e in ends {
                    self.edge(e, c);
                }
                let ctx = self.loops.pop().expect("pushed above");
                let mut out = vec![c];
                out.extend(ctx.breaks);
                out
            }
            Stmt::For { header, body } => {
                let h = self.cond_node(header, &frontier);
                self.loops.push(LoopCtx {
                    head: h,
                    breaks: Vec::new(),
                });
                let ends = self.lower_group(body, vec![h]);
                for e in ends {
                    self.edge(e, h);
                }
                let ctx = self.loops.pop().expect("pushed above");
                let mut out = vec![h];
                out.extend(ctx.breaks);
                out
            }
            Stmt::Loop { body } => {
                let h = self.node(NodeKind::Cond, Vec::new());
                self.connect(&frontier, h);
                self.loops.push(LoopCtx {
                    head: h,
                    breaks: Vec::new(),
                });
                let ends = self.lower_group(body, vec![h]);
                for e in ends {
                    self.edge(e, h);
                }
                let ctx = self.loops.pop().expect("pushed above");
                // A `loop` only exits through `break` (or `return`/`?`,
                // which bypass the frontier entirely).
                ctx.breaks
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn body_of(src: &str) -> Group {
        let file = syn::parse_file(src).expect("parses");
        match &file.items[0] {
            syn::Item::Fn(f) => f.body.clone().expect("has body"),
            other => panic!("expected fn, got {other:?}"),
        }
    }

    fn cfg_of(src: &str) -> Cfg {
        build(&body_of(src))
    }

    fn node_text(cfg: &Cfg, i: usize) -> String {
        cfg.nodes[i]
            .tokens
            .iter()
            .cloned()
            .collect::<proc_macro2::TokenStream>()
            .to_string()
    }

    #[test]
    fn straight_line_chains_statements() {
        let cfg = cfg_of("fn f() { a(); b(); c() }");
        // entry, exit, three statements
        assert_eq!(cfg.nodes.len(), 5);
        assert_eq!(cfg.nodes[ENTRY].succs, vec![2]);
        assert_eq!(cfg.nodes[2].succs, vec![3]);
        assert_eq!(cfg.nodes[3].succs, vec![4]);
        assert_eq!(cfg.nodes[4].succs, vec![EXIT]);
    }

    #[test]
    fn if_without_else_falls_through() {
        let cfg = cfg_of("fn f() { if c() { a(); } b(); }");
        // entry, exit, cond, a, b
        let cond = 2;
        let a = 3;
        let b = 4;
        assert_eq!(cfg.nodes[cond].kind, NodeKind::Cond);
        assert_eq!(cfg.nodes[cond].succs, vec![a, b]);
        assert_eq!(cfg.nodes[a].succs, vec![b]);
        assert_eq!(cfg.nodes[b].succs, vec![EXIT]);
    }

    #[test]
    fn if_else_chain_joins() {
        let cfg = cfg_of("fn f() { if c1() { a(); } else if c2() { b(); } else { d(); } e(); }");
        let (c1, a, c2, b, d, e) = (2, 3, 4, 5, 6, 7);
        assert_eq!(cfg.nodes[c1].succs, vec![a, c2]);
        assert_eq!(cfg.nodes[c2].succs, vec![b, d]);
        for n in [a, b, d] {
            assert_eq!(cfg.nodes[n].succs, vec![e]);
        }
        assert_eq!(node_text(&cfg, e), "e ()");
    }

    #[test]
    fn early_return_reaches_exit_only() {
        let cfg = cfg_of("fn f() { if c() { return 1; } a() }");
        let (cond, ret, a) = (2, 3, 4);
        assert!(cfg.nodes[ret].is_return);
        assert_eq!(cfg.nodes[ret].succs, vec![EXIT]);
        assert_eq!(cfg.nodes[cond].succs, vec![ret, a]);
    }

    #[test]
    fn question_mark_adds_exit_edge() {
        let cfg = cfg_of("fn f() { let x = g()?; h(x); }");
        let x = 2;
        assert_eq!(cfg.nodes[x].succs, vec![EXIT, 3]);
    }

    #[test]
    fn match_arms_split_with_early_return() {
        let cfg = cfg_of(
            "fn f(v: V) { match v { V::A => a(), V::B => return 0, V::C { x } => { c(x); } } t(); }",
        );
        let scrut = 2;
        assert_eq!(cfg.nodes[scrut].kind, NodeKind::Cond);
        // Three pattern nodes hang off the scrutinee.
        assert_eq!(cfg.nodes[scrut].succs.len(), 3);
        // The `return 0` arm leads to exit, the others to `t()`.
        let t = cfg.nodes.len() - 1;
        assert_eq!(node_text(&cfg, t), "t ()");
        let ret = cfg
            .nodes
            .iter()
            .position(|n| n.is_return)
            .expect("return node");
        assert_eq!(cfg.nodes[ret].succs, vec![EXIT]);
    }

    #[test]
    fn while_loops_have_back_edges() {
        let cfg = cfg_of("fn f() { while c() { a(); } b(); }");
        let (cond, a, b) = (2, 3, 4);
        assert_eq!(cfg.nodes[cond].succs, vec![a, b]);
        assert_eq!(cfg.nodes[a].succs, vec![cond]);
    }

    #[test]
    fn loop_exits_only_through_break() {
        let cfg = cfg_of("fn f() { loop { if c() { break; } a(); } b(); }");
        // entry exit head cond brk a b
        let (head, cond, brk, a, b) = (2, 3, 4, 5, 6);
        assert_eq!(cfg.nodes[cond].succs, vec![brk, a]);
        assert_eq!(cfg.nodes[a].succs, vec![head]);
        assert_eq!(cfg.nodes[brk].succs, vec![b]);
        assert_eq!(cfg.nodes[b].succs, vec![EXIT]);
    }

    #[test]
    fn continue_targets_the_loop_head() {
        let cfg = cfg_of("fn f() { for x in xs() { if skip(x) { continue; } a(x); } }");
        let (head, cond, cont, a) = (2, 3, 4, 5);
        assert_eq!(cfg.nodes[head].kind, NodeKind::Cond);
        assert_eq!(cfg.nodes[cond].succs, vec![cont, a]);
        assert_eq!(cfg.nodes[cont].succs, vec![head]);
        assert_eq!(cfg.nodes[a].succs, vec![head]);
    }

    #[test]
    fn if_let_struct_pattern_keeps_header_together() {
        let cfg = cfg_of("fn f() { if let P { x } = p() { a(x); } b(); }");
        let cond = 2;
        assert!(node_text(&cfg, cond).contains("P { x } ="));
        assert_eq!(cfg.nodes[cond].succs.len(), 2);
    }

    #[test]
    fn while_let_keeps_binding_in_cond() {
        let cfg = cfg_of("fn f() { while let Some(x) = next() { use_(x); } done(); }");
        let cond = 2;
        assert!(node_text(&cfg, cond).starts_with("let Some (x) = next ()"));
    }

    #[test]
    fn nested_fn_is_one_opaque_node() {
        let cfg = cfg_of("fn f() { fn helper() { q(); } a(); }");
        // entry exit helper a
        assert_eq!(cfg.nodes.len(), 4);
        assert!(node_text(&cfg, 2).starts_with("fn helper"));
        assert_eq!(node_text(&cfg, 3), "a ()");
    }

    #[test]
    fn spans_point_at_first_token() {
        let cfg = cfg_of("fn f() {\n    a();\n    b();\n}");
        assert_eq!(cfg.nodes[2].span.expect("span").start().line, 2);
        assert_eq!(cfg.nodes[3].span.expect("span").start().line, 3);
        assert_eq!(cfg.nodes[3].span.expect("span").start().column, 4);
    }
}
