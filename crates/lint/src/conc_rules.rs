//! The concurrency-discipline rules: L9 lock-order, L10 no-panic lock
//! acquisition, L11 lock-across-blocking, L12 channel discipline.
//!
//! Where L2 covers the deterministic protocol's recovery paths, these
//! four certify the *threaded shell around it* — the node event loops,
//! proxy pumps, and monitor threads that `crates/adored` added:
//!
//! * **L9** — per-crate lock-acquisition graph. Every `lock()` while
//!   another guard is held adds an order edge; any cycle (including a
//!   self-loop: re-acquiring a held `std::sync::Mutex` deadlocks — it
//!   is not reentrant) is a potential deadlock, reported at both
//!   acquisition sites.
//! * **L10** — in configured long-lived-thread scopes,
//!   `lock().unwrap()` / `lock().expect(..)` is banned: poisoning must
//!   flow through a typed path (`unwrap_or_else(PoisonError::
//!   into_inner)` with a journaled event, or a per-connection exit),
//!   never panic the thread.
//! * **L11** — no lock guard live across a blocking call (socket
//!   read/write/connect/accept, `Receiver::recv`, blocking channel
//!   `send`, `thread::sleep`, `join`). One slow peer must never stall
//!   every thread that needs the lock.
//! * **L12** — in configured hot-path scopes sends must be `try_send`
//!   with the shed outcome consumed (a discarded `try_send` silently
//!   loses the overflow signal). The other half of bounded-channel
//!   discipline — no bare `mpsc::channel()` — is a path ban that
//!   clippy's `disallowed_methods` carries.
//!
//! # Guard tracking
//!
//! Guard live ranges are tracked **lexically**, which for Rust guards
//! is exact must-hold information: a guard bound by `let` lives to the
//! end of its enclosing brace block (or an earlier `drop(g)`), and an
//! unbound (temporary) guard lives to the end of its statement. A
//! binding counts as a guard only when everything after the
//! acquisition is a guard-preserving adapter (`unwrap`, `expect`,
//! `unwrap_or_else`); `lock_state(s).clone()` binds a *snapshot*, not
//! a guard. Temporaries in an `if`/`while` condition are held through
//! the following block — a conservative over-approximation (rustc
//! drops them at the end of the condition); `match` scrutinee
//! temporaries really are held through every arm, which this walker
//! models faithfully.
//!
//! # Cross-file summaries
//!
//! These rules summarize **every function of a crate together** and
//! iterate to a fixpoint, so a helper that blocks or acquires a lock
//! taints its callers across files. A helper whose `lock()` receiver
//! is one of its own parameters is marked parameter-acquiring, and the
//! lock name resolves at each call site from the first argument
//! (`lock_state(&link.state)` acquires `state`). Closures passed to
//! `spawn(..)` run on another thread: the caller's held set does not
//! flow in, and nothing inside flows back into the caller's summary —
//! but the closure body is still scanned with an empty held set.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use proc_macro2::{Delimiter, Span, TokenTree};

use crate::config::Config;
use crate::rules::in_dir;
use crate::Finding;

/// Adapters that keep a lock-acquisition chain guard-valued; anything
/// else (`clone`, field access, `get`) turns the binding into a
/// snapshot whose guard dies at the statement end.
const GUARD_ADAPTERS: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// What one function means for its callers, concurrency-wise.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConcSummary {
    /// Lock names this function acquires (transitively, call-site
    /// parameter acquisitions resolved).
    pub acquires: BTreeSet<String>,
    /// The function locks a mutex passed as one of its parameters; the
    /// lock name resolves from the call site's first argument.
    pub acquires_param: bool,
    /// The signature returns a guard (`MutexGuard`, `RwLockReadGuard`,
    /// ...), so a call is itself an acquisition expression.
    pub returns_guard: bool,
    /// The function reaches a configured blocking call (transitively),
    /// spawned-thread closures excluded.
    pub blocks: bool,
}

/// Runs L9–L12 over a set of parsed files (workspace-relative path +
/// parse). Files are grouped by crate directory internally; summaries
/// never cross a crate boundary (rustc's privacy already seals locks
/// inside their crate).
#[must_use]
pub fn scan_conc(files: &[(String, syn::File)], config: &Config) -> Vec<Finding> {
    let mut by_crate: BTreeMap<String, Vec<&(String, syn::File)>> = BTreeMap::new();
    for entry in files {
        by_crate.entry(crate_key(&entry.0)).or_default().push(entry);
    }
    let blocking: BTreeSet<String> = config.l11_blocking.iter().cloned().collect();
    let mut findings = Vec::new();
    for group in by_crate.values() {
        scan_crate(group, config, &blocking, &mut findings);
    }
    findings
}

/// The crate grouping key of a workspace-relative path:
/// `crates/<name>/...` → `crates/<name>`, else the first component.
fn crate_key(rel: &str) -> String {
    let mut parts = rel.split('/');
    match (parts.next(), parts.next()) {
        (Some("crates"), Some(name)) => format!("crates/{name}"),
        (Some(first), _) => first.to_string(),
        (None, _) => String::new(),
    }
}

/// One observed order edge: `to` was acquired while `from` was held.
struct EdgeInstance {
    from: String,
    from_span: Span,
    to: String,
    to_span: Span,
    file: String,
}

fn scan_crate(
    group: &[&(String, syn::File)],
    config: &Config,
    blocking: &BTreeSet<String>,
    findings: &mut Vec<Finding>,
) {
    let any_l9 = group
        .iter()
        .any(|(rel, _)| config.l9_crates.iter().any(|c| in_dir(rel, c)));
    let any_l11 = group
        .iter()
        .any(|(rel, _)| config.l11_crates.iter().any(|c| in_dir(rel, c)));
    let any_scoped = group.iter().any(|(rel, _)| {
        config.l10_scopes.iter().any(|s| s.file == *rel)
            || config.l12_scopes.iter().any(|s| s.file == *rel)
    });
    if !any_l9 && !any_l11 && !any_scoped {
        return;
    }

    let summaries = summarize_crate(group, blocking);
    let mut edges: Vec<EdgeInstance> = Vec::new();

    for (rel, file) in group {
        let l9 = config.l9_crates.iter().any(|c| in_dir(rel, c));
        let l11 = config.l11_crates.iter().any(|c| in_dir(rel, c));
        let l10_fns: Vec<&str> = config
            .l10_scopes
            .iter()
            .filter(|s| s.file == *rel)
            .flat_map(|s| s.functions.iter().map(String::as_str))
            .collect();
        let l12_fns: Vec<&str> = config
            .l12_scopes
            .iter()
            .filter(|s| s.file == *rel)
            .flat_map(|s| s.functions.iter().map(String::as_str))
            .collect();
        if !l9 && !l11 && l10_fns.is_empty() && l12_fns.is_empty() {
            continue;
        }
        let mut fns = Vec::new();
        collect_fns(&file.items, false, &mut fns);
        for f in &fns {
            let Some(body) = &f.body else { continue };
            let mut ctx = WalkCtx {
                rel,
                l9,
                l11,
                l10: l10_fns.iter().any(|n| *n == "*" || *n == f.ident),
                l12b: l12_fns.iter().any(|n| *n == "*" || *n == f.ident),
                blocking,
                summaries: &summaries,
                edges: &mut edges,
                findings,
            };
            let mut held = Vec::new();
            walk_block(body.stream().trees(), &mut held, &mut ctx);
        }
    }

    report_order_violations(&edges, &config.l9_locks, findings);
}

/// Collects every function item, impl/trait/mod bodies included,
/// skipping `#[cfg(test)]` subtrees.
fn collect_fns<'f>(items: &'f [syn::Item], in_test: bool, out: &mut Vec<&'f syn::ItemFn>) {
    for item in items {
        let in_test = in_test || item.attrs().iter().any(syn::Attribute::is_cfg_test);
        if in_test {
            continue;
        }
        match item {
            syn::Item::Fn(f) => out.push(f),
            syn::Item::Mod(m) | syn::Item::Trait(m) => {
                if let Some(content) = &m.content {
                    collect_fns(content, in_test, out);
                }
            }
            syn::Item::Impl(i) => collect_fns(&i.items, in_test, out),
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Crate-level summaries (cross-file, fixpoint)
// ---------------------------------------------------------------------------

/// Summarizes every non-test function of a crate's files, iterated to a
/// fixpoint so `blocks`/`acquires` propagate through call chains across
/// files. Same-name functions merge by union (the conservative
/// direction for every consumer of these fields).
#[must_use]
pub fn summarize_crate(
    group: &[&(String, syn::File)],
    blocking: &BTreeSet<String>,
) -> BTreeMap<String, ConcSummary> {
    struct FnInfo {
        name: String,
        params: Vec<String>,
        body: Vec<TokenTree>,
    }
    let mut infos = Vec::new();
    for (_, file) in group {
        let mut fns = Vec::new();
        collect_fns(&file.items, false, &mut fns);
        for f in fns {
            let Some(body) = &f.body else { continue };
            let sig = f.signature.to_string();
            let mut base = ConcSummary {
                returns_guard: sig.rfind("->").is_some_and(|i| sig[i..].contains("Guard")),
                ..ConcSummary::default()
            };
            let params = param_names(f.signature.trees());
            seed_summary(body.stream().trees(), &params, blocking, &mut base);
            infos.push((
                FnInfo {
                    name: f.ident.clone(),
                    params,
                    body: body.stream().trees().to_vec(),
                },
                base,
            ));
        }
    }
    let mut out: BTreeMap<String, ConcSummary> = BTreeMap::new();
    for (info, base) in &infos {
        merge_into(out.entry(info.name.clone()).or_default(), base);
    }
    // Fixpoint: fold callee summaries into callers until stable.
    loop {
        let mut changed = false;
        for (info, _) in &infos {
            let mut add = ConcSummary::default();
            propagate_calls(&info.body, &info.params, &out, &mut add);
            let entry = out.entry(info.name.clone()).or_default();
            let before = entry.clone();
            merge_into(entry, &add);
            changed |= *entry != before;
        }
        if !changed {
            return out;
        }
    }
}

fn merge_into(dst: &mut ConcSummary, src: &ConcSummary) {
    dst.acquires.extend(src.acquires.iter().cloned());
    dst.acquires_param |= src.acquires_param;
    dst.returns_guard |= src.returns_guard;
    dst.blocks |= src.blocks;
}

/// Direct facts of one body: `.lock()` receivers (own parameters →
/// `acquires_param`) and direct blocking calls, `spawn(..)` arguments
/// excluded (they run on another thread).
fn seed_summary(
    trees: &[TokenTree],
    params: &[String],
    blocking: &BTreeSet<String>,
    out: &mut ConcSummary,
) {
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Ident(id) => {
                let called = matches!(
                    trees.get(i + 1),
                    Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
                );
                if called && *id == "spawn" {
                    i += 2; // skip the argument group: another thread
                    continue;
                }
                if called && *id == "lock" && is_method(trees, i) {
                    if let Some(name) = receiver_name(trees, i) {
                        if params.contains(&name) {
                            out.acquires_param = true;
                        } else {
                            out.acquires.insert(name);
                        }
                    }
                }
                if called && blocking.contains(&id.to_string()) {
                    out.blocks = true;
                }
            }
            TokenTree::Group(g) => seed_summary(g.stream().trees(), params, blocking, out),
            _ => {}
        }
        i += 1;
    }
}

/// Folds callee summaries into `add` for every call in the body,
/// resolving parameter acquisitions from the call site's first
/// argument. Spawned closures are skipped.
fn propagate_calls(
    trees: &[TokenTree],
    params: &[String],
    summaries: &BTreeMap<String, ConcSummary>,
    add: &mut ConcSummary,
) {
    let mut i = 0;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Ident(id) => {
                if let Some(TokenTree::Group(g)) = trees.get(i + 1) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        if *id == "spawn" {
                            i += 2;
                            continue;
                        }
                        // Free-function/path calls only — see scan_token.
                        if is_method(trees, i) {
                            i += 1;
                            continue;
                        }
                        if let Some(s) = summaries.get(&id.to_string()) {
                            add.blocks |= s.blocks;
                            add.acquires.extend(s.acquires.iter().cloned());
                            if s.acquires_param {
                                match first_arg_name(g.stream().trees()) {
                                    Some(n) if params.contains(&n) => {
                                        add.acquires_param = true;
                                    }
                                    Some(n) => {
                                        add.acquires.insert(n);
                                    }
                                    None => {}
                                }
                            }
                        }
                    }
                }
            }
            TokenTree::Group(g) => propagate_calls(g.stream().trees(), params, summaries, add),
            _ => {}
        }
        i += 1;
    }
}

/// Parameter names from a signature token stream: the idents followed
/// by `:` at the top level of the parameter parenthesis group.
fn param_names(sig: &[TokenTree]) -> Vec<String> {
    let Some(TokenTree::Group(args)) = sig
        .iter()
        .find(|t| matches!(t, TokenTree::Group(g) if g.delimiter() == Delimiter::Parenthesis))
    else {
        return Vec::new();
    };
    let trees = args.stream().trees();
    let mut out = Vec::new();
    let mut depth = 0i32;
    for i in 0..trees.len() {
        match &trees[i] {
            TokenTree::Punct(p) if p.as_char() == '<' => depth += 1,
            TokenTree::Punct(p) if p.as_char() == '>' => depth -= 1,
            TokenTree::Ident(id) if depth == 0 => {
                if matches!(
                    trees.get(i + 1),
                    Some(TokenTree::Punct(p)) if p.as_char() == ':'
                ) {
                    out.push(id.to_string());
                }
            }
            _ => {}
        }
    }
    out
}

// ---------------------------------------------------------------------------
// The lexical must-hold walker
// ---------------------------------------------------------------------------

/// One guard in the held set.
#[derive(Debug, Clone)]
struct HeldLock {
    /// Lock name (nominal: final ident of the acquisition receiver).
    name: String,
    /// Where it was acquired.
    span: Span,
    /// Still a statement temporary (dies at the next `;`)?
    temp: bool,
    /// Binding variable, for `drop(var)` release.
    var: Option<String>,
}

struct WalkCtx<'a> {
    rel: &'a str,
    l9: bool,
    l11: bool,
    l10: bool,
    l12b: bool,
    blocking: &'a BTreeSet<String>,
    summaries: &'a BTreeMap<String, ConcSummary>,
    edges: &'a mut Vec<EdgeInstance>,
    findings: &'a mut Vec<Finding>,
}

fn push_finding(findings: &mut Vec<Finding>, rule: &str, rel: &str, span: Span, msg: String) {
    let lc = span.start();
    findings.push(Finding {
        rule: rule.to_string(),
        file: rel.to_string(),
        line: lc.line,
        col: lc.column,
        msg,
        suppressed: false,
        reason: None,
    });
}

/// Walks one brace-block's statements. Guards bound inside die at the
/// end of the block (`held` is truncated back); statement temporaries
/// die at each top-level `;` or statement-position block.
fn walk_block(trees: &[TokenTree], held: &mut Vec<HeldLock>, ctx: &mut WalkCtx<'_>) {
    let block_base = held.len();
    let mut stmt_base = held.len();
    let mut stmt_start = 0usize;
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Punct(p) if p.as_char() == ';' => {
                let binding = let_binding(&trees[stmt_start..i], ctx.summaries);
                end_statement(held, stmt_base, binding);
                stmt_base = held.len();
                stmt_start = i + 1;
                i += 1;
            }
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                walk_block(g.stream().trees(), held, ctx);
                // `{ .. }.method()` and `if .. {} else {}` continue the
                // statement; a plain statement-position block ends it.
                let continues = matches!(
                    trees.get(i + 1),
                    Some(TokenTree::Punct(p)) if p.as_char() == '.'
                ) || matches!(
                    trees.get(i + 1),
                    Some(TokenTree::Ident(id)) if *id == "else"
                );
                if !continues {
                    end_statement(held, stmt_base, None);
                    stmt_base = held.len();
                    stmt_start = i + 1;
                }
                i += 1;
            }
            _ => {
                i = scan_token(trees, i, held, ctx);
            }
        }
    }
    // Tail expression without `;`: its temporaries die with the block.
    held.truncate(block_base);
}

/// Handles one non-block token at `i` inside the current statement;
/// returns the index to continue from.
fn scan_token(
    trees: &[TokenTree],
    i: usize,
    held: &mut Vec<HeldLock>,
    ctx: &mut WalkCtx<'_>,
) -> usize {
    match &trees[i] {
        TokenTree::Ident(id) => {
            let arg_group = match trees.get(i + 1) {
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis => Some(g),
                _ => None,
            };
            let Some(args) = arg_group else {
                return i + 1;
            };
            let name = id.to_string();
            if name == "spawn" {
                // Another thread: fresh held set, hot-path send rules
                // don't apply, but L9/L10/L11 still scan the closure.
                let mut spawned_held = Vec::new();
                let l12b = std::mem::replace(&mut ctx.l12b, false);
                walk_block(args.stream().trees(), &mut spawned_held, ctx);
                ctx.l12b = l12b;
                return i + 2;
            }
            if name == "drop" {
                if let Some(var) = first_arg_name(args.stream().trees()) {
                    if let Some(pos) = held
                        .iter()
                        .rposition(|h| h.var.as_deref() == Some(var.as_str()))
                    {
                        held.remove(pos);
                    }
                }
            }
            if name == "lock" && is_method(trees, i) {
                let lock = receiver_name(trees, i).unwrap_or_else(|| "<expr>".into());
                acquire(held, &lock, id.span(), true, ctx);
                if ctx.l10 {
                    flag_l10_chain(trees, i + 2, &lock, ctx);
                }
            } else if name == "send" && ctx.l12b && is_method(trees, i) {
                push_finding(
                    ctx.findings,
                    "L12",
                    ctx.rel,
                    id.span(),
                    "blocking `send` on a hot path: use `try_send` and handle the \
                     shed/drop outcome explicitly"
                        .into(),
                );
            } else if name == "try_send" && ctx.l12b && discards_result(trees, i) {
                push_finding(
                    ctx.findings,
                    "L12",
                    ctx.rel,
                    id.span(),
                    "`try_send` result discarded on a hot path: the overflow (shed) \
                     outcome must be handled explicitly"
                        .into(),
                );
            }
            if ctx.l11 && ctx.blocking.contains(&name) && !held.is_empty() {
                let h = held.last().expect("non-empty");
                push_finding(
                    ctx.findings,
                    "L11",
                    ctx.rel,
                    id.span(),
                    format!(
                        "blocking call `{name}` while holding lock `{}` (acquired at \
                         {}:{}): a stalled peer holds up every thread needing the lock",
                        h.name,
                        ctx.rel,
                        h.span.start().line
                    ),
                );
            }
            // Crate-fn summaries apply to free-function and path calls
            // only: a method call's receiver type is unknown, and e.g.
            // `map.get(..)` must not inherit the summary of a crate
            // function that happens to be named `get`. Direct blocking
            // *names* (above) still match methods — `stream.read_exact`
            // and `rx.recv` are exactly the method calls L11 is for.
            if let Some(s) = ctx.summaries.get(&name).filter(|_| !is_method(trees, i)) {
                if s.blocks && ctx.l11 && !held.is_empty() && !ctx.blocking.contains(&name) {
                    let h = held.last().expect("non-empty");
                    push_finding(
                        ctx.findings,
                        "L11",
                        ctx.rel,
                        id.span(),
                        format!(
                            "call to `{name}` (which blocks) while holding lock `{}` \
                             (acquired at {}:{})",
                            h.name,
                            ctx.rel,
                            h.span.start().line
                        ),
                    );
                }
                for acq in s.acquires.clone() {
                    acquire(held, &acq, id.span(), s.returns_guard, ctx);
                }
                if s.acquires_param {
                    if let Some(lock) = first_arg_name(args.stream().trees()) {
                        acquire(held, &lock, id.span(), s.returns_guard, ctx);
                    }
                }
            }
            // Scan the argument tokens (nested acquisitions/calls).
            walk_exprs(args.stream().trees(), held, ctx);
            i + 2
        }
        TokenTree::Group(g) if g.delimiter() != Delimiter::Brace => {
            walk_exprs(g.stream().trees(), held, ctx);
            i + 1
        }
        _ => i + 1,
    }
}

/// Scans expression tokens (paren/bracket group contents): same
/// statement context as the caller — temporaries acquired here live to
/// the enclosing statement's end. Nested brace groups (closure bodies,
/// match arms) get full block treatment.
fn walk_exprs(trees: &[TokenTree], held: &mut Vec<HeldLock>, ctx: &mut WalkCtx<'_>) {
    let mut i = 0usize;
    while i < trees.len() {
        match &trees[i] {
            TokenTree::Group(g) if g.delimiter() == Delimiter::Brace => {
                walk_block(g.stream().trees(), held, ctx);
                i += 1;
            }
            _ => {
                i = scan_token(trees, i, held, ctx);
            }
        }
    }
}

/// Registers an acquisition of `lock` at `span`: L9 edges against every
/// held guard (a self match is an immediate non-reentrancy deadlock),
/// then — if the expression yields a live guard — a new temporary.
fn acquire(held: &mut Vec<HeldLock>, lock: &str, span: Span, yields_guard: bool, ctx: &mut WalkCtx<'_>) {
    if ctx.l9 {
        for h in held.iter() {
            if h.name == lock {
                push_finding(
                    ctx.findings,
                    "L9",
                    ctx.rel,
                    span,
                    format!(
                        "lock `{lock}` re-acquired while already held (acquired at \
                         {}:{}): std::sync::Mutex is not reentrant — this deadlocks",
                        ctx.rel,
                        h.span.start().line
                    ),
                );
            } else {
                ctx.edges.push(EdgeInstance {
                    from: h.name.clone(),
                    from_span: h.span,
                    to: lock.to_string(),
                    to_span: span,
                    file: ctx.rel.to_string(),
                });
            }
        }
    }
    if yields_guard {
        held.push(HeldLock {
            name: lock.to_string(),
            span,
            temp: true,
            var: None,
        });
    }
}

/// Statement end: the first temporary becomes bound (if the statement
/// was a guard-valued `let`), the rest die.
fn end_statement(held: &mut Vec<HeldLock>, stmt_base: usize, binding: Option<String>) {
    let mut bound = binding;
    let mut i = stmt_base;
    while i < held.len() {
        if held[i].temp {
            if let Some(var) = bound.take() {
                held[i].temp = false;
                held[i].var = Some(var);
                i += 1;
            } else {
                held.remove(i);
            }
        } else {
            i += 1;
        }
    }
}

/// `let [mut] v = <acquisition chain> ;` → `Some(v)` when the chain
/// stays guard-valued: the first acquisition followed only by
/// guard-preserving adapters.
fn let_binding(stmt: &[TokenTree], summaries: &BTreeMap<String, ConcSummary>) -> Option<String> {
    let mut j = 0;
    match stmt.first() {
        Some(TokenTree::Ident(id)) if *id == "let" => j += 1,
        _ => return None,
    }
    if matches!(stmt.get(j), Some(TokenTree::Ident(id)) if *id == "mut") {
        j += 1;
    }
    let var = match stmt.get(j) {
        Some(TokenTree::Ident(id)) => id.to_string(),
        _ => return None,
    };
    if !matches!(stmt.get(j + 1), Some(TokenTree::Punct(p)) if p.as_char() == '=') {
        return None;
    }
    let rhs = &stmt[j + 2..];
    // Find the first acquisition in the chain.
    let mut acq_end = None;
    for k in 0..rhs.len() {
        if let TokenTree::Ident(id) = &rhs[k] {
            let called = matches!(
                rhs.get(k + 1),
                Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
            );
            if !called {
                continue;
            }
            let is_lock = *id == "lock" && is_method(rhs, k);
            let is_helper = !is_method(rhs, k)
                && summaries
                    .get(&id.to_string())
                    .is_some_and(|s| s.returns_guard);
            if is_lock || is_helper {
                acq_end = Some(k + 2);
                break;
            }
        }
    }
    let mut k = acq_end?;
    // Everything after must be `.adapter(..)` repetitions.
    while k < rhs.len() {
        if !matches!(&rhs[k], TokenTree::Punct(p) if p.as_char() == '.') {
            return None;
        }
        match &rhs[k + 1] {
            TokenTree::Ident(id) if GUARD_ADAPTERS.iter().any(|a| *id == *a) => {}
            _ => return None,
        }
        if !matches!(
            rhs.get(k + 2),
            Some(TokenTree::Group(g)) if g.delimiter() == Delimiter::Parenthesis
        ) {
            return None;
        }
        k += 3;
    }
    Some(var)
}

/// Is the call ident at `i` a method call (`recv.name(..)`)?
fn is_method(trees: &[TokenTree], i: usize) -> bool {
    i >= 1 && matches!(&trees[i - 1], TokenTree::Punct(p) if p.as_char() == '.')
}

/// The nominal lock name of a `.lock()` at `i`: the final ident of the
/// receiver chain (`self.link.state.lock()` → `state`).
fn receiver_name(trees: &[TokenTree], i: usize) -> Option<String> {
    if i < 2 {
        return None;
    }
    match &trees[i - 2] {
        TokenTree::Ident(id) => Some(id.to_string()),
        TokenTree::Group(g) => last_ident(g.stream().trees()),
        _ => None,
    }
}

/// Final ident of the first top-level comma-separated argument,
/// skipping `&`/`mut` (so `&link.state` → `state`).
fn first_arg_name(args: &[TokenTree]) -> Option<String> {
    let mut end = args.len();
    for (k, t) in args.iter().enumerate() {
        if matches!(t, TokenTree::Punct(p) if p.as_char() == ',') {
            end = k;
            break;
        }
    }
    last_ident(&args[..end])
}

fn last_ident(trees: &[TokenTree]) -> Option<String> {
    trees.iter().rev().find_map(|t| match t {
        TokenTree::Ident(id) if *id != "mut" => Some(id.to_string()),
        _ => None,
    })
}

/// L10: `.lock().unwrap()` / `.lock().expect(..)` after the paren
/// group at `i` (the index just past `lock`'s argument group).
fn flag_l10_chain(trees: &[TokenTree], i: usize, lock: &str, ctx: &mut WalkCtx<'_>) {
    if !matches!(trees.get(i), Some(TokenTree::Punct(p)) if p.as_char() == '.') {
        return;
    }
    if let Some(TokenTree::Ident(id)) = trees.get(i + 1) {
        if *id == "unwrap" || *id == "expect" {
            push_finding(
                ctx.findings,
                "L10",
                ctx.rel,
                id.span(),
                format!(
                    "`lock().{id}()` on `{lock}` in a long-lived thread scope panics \
                     on poisoning: recover via a typed path \
                     (`unwrap_or_else(PoisonError::into_inner)` + journal) instead"
                ),
            );
        }
    }
}

/// L12b: is the `try_send` at `i` discarded? Either the statement binds
/// to `_`, or the call is the trailing expression before a `;` in a
/// non-binding statement.
fn discards_result(trees: &[TokenTree], i: usize) -> bool {
    // `let _ = ...try_send(..)...;` — scan back for `let _ =` start.
    let mut k = i;
    while k >= 1 {
        if let TokenTree::Punct(p) = &trees[k - 1] {
            if p.as_char() == ';' {
                break;
            }
        }
        k -= 1;
    }
    if let (Some(TokenTree::Ident(a)), Some(TokenTree::Ident(b))) = (trees.get(k), trees.get(k + 1))
    {
        if *a == "let" && *b == "_" {
            return true;
        }
    }
    // Bare `recv.try_send(..);` — value dropped on the floor.
    let stmt_head_is_consumer = matches!(
        trees.get(k),
        Some(TokenTree::Ident(id)) if *id == "let" || *id == "return" || *id == "break"
    );
    matches!(
        trees.get(i + 2),
        Some(TokenTree::Punct(p)) if p.as_char() == ';'
    ) && !stmt_head_is_consumer
}

// ---------------------------------------------------------------------------
// L9: cycle detection over the crate's order graph
// ---------------------------------------------------------------------------

fn report_order_violations(
    edges: &[EdgeInstance],
    pinned_order: &[String],
    findings: &mut Vec<Finding>,
) {
    // Name-level adjacency and one representative instance per edge.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    let mut rep: BTreeMap<(&str, &str), &EdgeInstance> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.from).or_default().insert(&e.to);
        rep.entry((&e.from, &e.to)).or_insert(e);
    }
    let reaches = |from: &str, to: &str| -> Option<Vec<String>> {
        // BFS path from → to over lock names.
        let mut prev: BTreeMap<&str, &str> = BTreeMap::new();
        let mut queue = VecDeque::from([from]);
        let mut seen = BTreeSet::from([from]);
        while let Some(n) = queue.pop_front() {
            if n == to && (n != from || prev.contains_key(n)) {
                let mut path = vec![to.to_string()];
                let mut cur = to;
                while let Some(p) = prev.get(cur) {
                    path.push((*p).to_string());
                    if *p == from {
                        break;
                    }
                    cur = p;
                }
                path.reverse();
                return Some(path);
            }
            for next in adj.get(n).into_iter().flatten() {
                if seen.insert(next) || (*next == to && *next == from) {
                    prev.entry(next).or_insert(n);
                    if *next == to {
                        queue.push_front(next);
                    } else {
                        queue.push_back(next);
                    }
                }
            }
        }
        None
    };
    for e in edges {
        // Cycle: the reverse direction is also reachable.
        if let Some(path) = reaches(&e.to, &e.from) {
            let witness_to = path.get(1).map_or(e.from.as_str(), String::as_str);
            let w = rep
                .get(&(e.to.as_str(), witness_to))
                .unwrap_or(&rep[&(e.from.as_str(), e.to.as_str())]);
            push_finding(
                findings,
                "L9",
                &e.file,
                e.to_span,
                format!(
                    "lock-order cycle: `{}` acquired while holding `{}` (held since \
                     {}:{}), but the reverse order `{}` → `{}` is taken at {}:{} — \
                     two threads interleaving these deadlock",
                    e.to,
                    e.from,
                    e.file,
                    e.from_span.start().line,
                    e.to,
                    witness_to,
                    w.file,
                    w.to_span.start().line
                ),
            );
        } else if let (Some(fi), Some(ti)) = (
            pinned_order.iter().position(|l| *l == e.from),
            pinned_order.iter().position(|l| *l == e.to),
        ) {
            // No observed cycle, but the configured global order is
            // violated — the other half of the cycle may live in code
            // this lint cannot see (another crate, a future PR).
            if fi > ti {
                push_finding(
                    findings,
                    "L9",
                    &e.file,
                    e.to_span,
                    format!(
                        "acquisition order `{}` → `{}` violates the configured lock \
                         order ({}): acquire `{}` first or split the critical section",
                        e.from,
                        e.to,
                        pinned_order.join(" < "),
                        e.to
                    ),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_all(file: &str) -> Config {
        Config {
            l9_crates: vec!["crates/x".into()],
            l11_crates: vec!["crates/x".into()],
            l10_scopes: vec![crate::config::L2Scope {
                file: file.into(),
                functions: vec!["*".into()],
            }],
            l12_scopes: vec![crate::config::L2Scope {
                file: file.into(),
                functions: vec!["*".into()],
            }],
            ..Config::default()
        }
    }

    fn run(src: &str) -> Vec<(String, usize, usize)> {
        run_multi(&[("crates/x/src/a.rs", src)])
    }

    fn run_multi(files: &[(&str, &str)]) -> Vec<(String, usize, usize)> {
        let parsed: Vec<(String, syn::File)> = files
            .iter()
            .map(|(rel, src)| ((*rel).to_string(), syn::parse_file(src).expect("parses")))
            .collect();
        let cfg = cfg_all(files[0].0);
        let mut found: Vec<(String, usize, usize)> = scan_conc(&parsed, &cfg)
            .into_iter()
            .map(|f| (f.rule, f.line, f.col))
            .collect();
        found.sort();
        found
    }

    #[test]
    fn l9_two_lock_cycle_is_reported_at_both_sites() {
        let src = "\
fn ab(a: M, b: M) {
    let ga = a.lock().unwrap();
    let gb = b.lock().unwrap();
    use_both(ga, gb);
}
fn ba(a: M, b: M) {
    let gb = b.lock().unwrap();
    let ga = a.lock().unwrap();
    use_both(ga, gb);
}
";
        let found = run(src);
        let l9: Vec<_> = found.iter().filter(|(r, _, _)| r == "L9").collect();
        assert_eq!(l9.len(), 2, "{found:?}");
        assert_eq!(*l9[0], ("L9".to_string(), 3, 15));
        assert_eq!(*l9[1], ("L9".to_string(), 8, 15));
    }

    #[test]
    fn l9_consistent_order_is_clean() {
        let src = "\
fn f(a: M, b: M) {
    let ga = a.lock().unwrap();
    let gb = b.lock().unwrap();
    use_both(ga, gb);
}
fn g(a: M, b: M) {
    let ga = a.lock().unwrap();
    let gb = b.lock().unwrap();
    use_both(ga, gb);
}
";
        assert!(run(src).iter().all(|(r, _, _)| r != "L9"));
    }

    #[test]
    fn l9_reacquire_while_held_is_a_self_deadlock() {
        let src = "\
fn f(a: M) {
    let g = a.lock().unwrap();
    let h = a.lock().unwrap();
    use_both(g, h);
}
";
        let found = run(src);
        assert!(
            found.contains(&("L9".to_string(), 3, 14)),
            "{found:?}"
        );
    }

    #[test]
    fn guards_die_at_block_end_and_statement_end() {
        let src = "\
fn f(a: M, b: M) {
    { let ga = a.lock().unwrap(); use_it(ga); }
    let gb = b.lock().unwrap();
    use_it(gb);
}
fn g(a: M, b: M) {
    a.lock().unwrap().poke();
    let gb = b.lock().unwrap();
    let ga = a.lock().unwrap();
    use_both(ga, gb);
}
";
        // f: a dies at block end → no a→b edge. g: temp a dies at `;`
        // → only b→a edge. No cycle anywhere.
        assert!(run(src).iter().all(|(r, _, _)| r != "L9"));
    }

    #[test]
    fn clone_snapshot_does_not_bind_a_guard() {
        let src = "\
fn f(a: M, rx: R) {
    let snap = a.lock().unwrap().clone();
    let v = rx.recv();
    use_both(snap, v);
}
";
        assert!(run(src).iter().all(|(r, _, _)| r != "L11"));
    }

    #[test]
    fn explicit_drop_releases_the_guard() {
        let src = "\
fn f(a: M, rx: R) {
    let g = a.lock().unwrap();
    use_it(g);
    drop(g);
    let v = rx.recv();
    consume(v);
}
";
        assert!(run(src).iter().all(|(r, _, _)| r != "L11"));
    }

    #[test]
    fn l11_blocking_under_guard_is_flagged() {
        let src = "\
fn f(a: M, rx: R) {
    let g = a.lock().unwrap();
    let v = rx.recv();
    use_both(g, v);
}
";
        let found = run(src);
        assert!(found.contains(&("L11".to_string(), 3, 15)), "{found:?}");
    }

    #[test]
    fn l11_sees_blocking_through_a_cross_file_helper() {
        let a = "\
fn event_loop(state: M, s: S) {
    let g = state.lock().unwrap();
    ship(s, g.frame());
}
";
        let b = "\
fn ship(s: S, frame: F) {
    s.write_all(frame).ok();
}
";
        let found = run_multi(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)]);
        assert!(found.contains(&("L11".to_string(), 3, 4)), "{found:?}");
    }

    #[test]
    fn l9_sees_acquisition_through_param_helper_across_files() {
        let a = "\
fn lock_state(m: M) -> MutexGuard<S> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}
";
        let b = "\
fn f(alpha: M, beta: M) {
    let ga = lock_state(&alpha);
    let gb = lock_state(&beta);
    use_both(ga, gb);
}
fn g(alpha: M, beta: M) {
    let gb = lock_state(&beta);
    let ga = lock_state(&alpha);
    use_both(ga, gb);
}
";
        let found = run_multi(&[("crates/x/src/a.rs", a), ("crates/x/src/b.rs", b)]);
        let l9: Vec<_> = found.iter().filter(|(r, _, _)| r == "L9").collect();
        assert_eq!(l9.len(), 2, "{found:?}");
    }

    #[test]
    fn l10_flags_unwrap_and_expect_but_not_typed_recovery() {
        let src = "\
fn f(a: M) {
    let g1 = a.lock().unwrap();
    let g2 = a.lock().expect(\"poisoned\");
    let g3 = a.lock().unwrap_or_else(PoisonError::into_inner);
    use_all(g1, g2, g3);
}
";
        let found = run(src);
        let l10: Vec<_> = found.iter().filter(|(r, _, _)| r == "L10").collect();
        assert_eq!(l10.len(), 2, "{found:?}");
        assert_eq!(*l10[0], ("L10".to_string(), 2, 22));
        assert_eq!(*l10[1], ("L10".to_string(), 3, 22));
    }

    #[test]
    fn l12_flags_blocking_send() {
        let src = "\
fn f(tx: T) {
    tx.send(msg).unwrap();
}
";
        let found = run(src);
        assert!(found.contains(&("L12".to_string(), 2, 7)), "{found:?}");
    }

    #[test]
    fn l12_discarded_try_send_flagged_handled_is_clean() {
        let src = "\
fn f(tx: T) {
    let _ = tx.try_send(a);
    tx.try_send(b);
    match tx.try_send(c) {
        Ok(()) => {}
        Err(e) => shed(e),
    }
}
";
        let found = run(src);
        let l12: Vec<_> = found.iter().filter(|(r, _, _)| r == "L12").collect();
        assert_eq!(l12.len(), 2, "{found:?}");
    }

    #[test]
    fn spawned_closures_get_a_fresh_held_set_and_no_hot_path_rules() {
        let src = "\
fn f(a: M, tx: T) {
    let g = a.lock().unwrap();
    thread::spawn(move || loop {
        tx.send(Tick).ok();
        thread::sleep(D);
    });
    use_it(g);
}
";
        // The sleep/send inside the spawned closure are on another
        // thread: no L11 (guard not held there), no L12 (not hot path).
        let found = run(src);
        assert!(found.iter().all(|(r, _, _)| r != "L11" && r != "L12"), "{found:?}");
    }

    #[test]
    fn match_scrutinee_guard_held_through_arms() {
        let src = "\
fn f(a: M, rx: R) {
    match a.lock().unwrap().kind {
        K::One => rx.recv(),
        K::Two => other(),
    };
}
";
        let found = run(src);
        assert!(found.iter().any(|(r, l, _)| r == "L11" && *l == 3), "{found:?}");
    }

    #[test]
    fn pinned_order_violation_without_cycle() {
        let parsed = vec![(
            "crates/x/src/a.rs".to_string(),
            syn::parse_file(
                "fn f(state: M, clients: M) {\n    let gc = clients.lock().unwrap();\n    let gs = state.lock().unwrap();\n    use_both(gc, gs);\n}\n",
            )
            .expect("parses"),
        )];
        let cfg = Config {
            l9_crates: vec!["crates/x".into()],
            l9_locks: vec!["state".into(), "clients".into()],
            ..Config::default()
        };
        let found = scan_conc(&parsed, &cfg);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "L9");
        assert_eq!(found[0].line, 3);
        assert!(found[0].msg.contains("configured lock order"));
    }

    #[test]
    fn summaries_propagate_blocking_transitively() {
        let files = [
            (
                "crates/x/src/a.rs".to_string(),
                syn::parse_file("fn low(s: S) { s.flush(); }").expect("parses"),
            ),
            (
                "crates/x/src/b.rs".to_string(),
                syn::parse_file("fn mid(s: S) { low(s); }\nfn top(s: S) { mid(s); }")
                    .expect("parses"),
            ),
        ];
        let group: Vec<&(String, syn::File)> = files.iter().collect();
        let blocking: BTreeSet<String> = ["flush".to_string()].into_iter().collect();
        let s = summarize_crate(&group, &blocking);
        assert!(s["low"].blocks);
        assert!(s["mid"].blocks);
        assert!(s["top"].blocks);
    }

    #[test]
    fn spawn_does_not_leak_blocking_into_the_caller_summary() {
        let files = [(
            "crates/x/src/a.rs".to_string(),
            syn::parse_file("fn f(tx: T) { thread::spawn(move || { tx.send(0); }); }")
                .expect("parses"),
        )];
        let group: Vec<&(String, syn::File)> = files.iter().collect();
        let blocking: BTreeSet<String> = ["send".to_string()].into_iter().collect();
        let s = summarize_crate(&group, &blocking);
        assert!(!s["f"].blocks);
    }
}
