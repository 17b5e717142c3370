//! Call-graph summaries: one-level same-file, and cross-file fixpoint.
//!
//! L6 needs to see through helper functions: a `self.check_r3(...)`
//! delegation must count as a guard call.
//!
//! Two strengths are provided. [`summarize`] walks one file's items and
//! produces a **one-level, same-file** [`FnSummary`] per function name —
//! the single-file entry point (`lint_source`) uses it.
//! [`summarize_workspace`] instead computes the summaries as a
//! **fixpoint over the call graph of the files it is given**: a helper
//! that delegates to a second helper in another file is seen through,
//! and guards established on all paths propagate transitively.
//! `run_lint` gives it the crates that own an L6-protected type, so L6
//! does not stop at file boundaries inside them (resolution stays
//! name-based and conservative: same-named functions merge to what
//! holds for all of them).

use std::collections::{BTreeMap, BTreeSet};

use proc_macro2::{Delimiter, Span, TokenTree};

use crate::cfg::{self, EXIT};
use crate::dataflow;

/// What one function guarantees to its callers, as far as a syntactic
/// summary can tell.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FnSummary {
    /// Guard predicates this function calls directly on **every** path
    /// to its exit (so calling it is as good as calling the guard).
    pub guards_on_all_paths: BTreeSet<String>,
}

/// Every `ident(...)` call in the trees, recursively through groups:
/// plain calls, method calls (`x.ident(...)`), and path calls
/// (`X::ident(...)`) all yield the final ident.
pub fn calls_in(trees: &[TokenTree]) -> Vec<(String, Span)> {
    let mut out = Vec::new();
    collect_calls(trees, &mut out);
    out
}

fn collect_calls(trees: &[TokenTree], out: &mut Vec<(String, Span)>) {
    for i in 0..trees.len() {
        match &trees[i] {
            TokenTree::Ident(id) => {
                if let Some(TokenTree::Group(g)) = trees.get(i + 1) {
                    if g.delimiter() == Delimiter::Parenthesis {
                        out.push((id.to_string(), id.span()));
                    }
                }
            }
            TokenTree::Group(g) => collect_calls(g.stream().trees(), out),
            _ => {}
        }
    }
}

/// Summarizes every non-test function in `file`. `guard_names` is the
/// union of all configured guard predicates; only those are tracked in
/// [`FnSummary::guards_on_all_paths`]. When two functions share a name
/// (methods of different types), the merged summary keeps only what
/// holds for both (guards intersect).
#[must_use]
pub fn summarize(
    file: &syn::File,
    guard_names: &BTreeSet<String>,
) -> BTreeMap<String, FnSummary> {
    let mut out: BTreeMap<String, FnSummary> = BTreeMap::new();
    let mut fns = Vec::new();
    collect_fns(&file.items, false, &mut fns);
    for f in fns {
        let mut s = FnSummary::default();
        if let Some(body) = &f.body {
            let cfg = cfg::build(body);
            let gen: Vec<BTreeSet<String>> = cfg
                .nodes
                .iter()
                .map(|n| {
                    calls_in(&n.tokens)
                        .into_iter()
                        .map(|(name, _)| name)
                        .filter(|name| guard_names.contains(name))
                        .collect()
                })
                .collect();
            s.guards_on_all_paths = dataflow::must_forward(&cfg, &gen)[EXIT].clone();
        }
        match out.entry(f.ident.clone()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(s);
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                let merged = e.get_mut();
                merged.guards_on_all_paths = merged
                    .guards_on_all_paths
                    .intersection(&s.guards_on_all_paths)
                    .cloned()
                    .collect();
            }
        }
    }
    out
}

/// The per-body facts the fixpoint re-evaluates each round. The CFG and
/// per-node call lists are extracted once; only the summary map varies.
struct FnFacts {
    name: String,
    graph: Option<cfg::Cfg>,
    calls_per_node: Vec<Vec<String>>,
}

/// Summarizes every non-test function across `files`, iterating to a
/// fixpoint over their cross-file call graph:
///
/// `guards_on_all_paths` propagates transitively — a wrapper whose
/// every path calls a helper that itself guards on every path counts
/// as guarding.
///
/// Resolution is by bare name and therefore ambiguous across files,
/// so the fact is merged with **AND across same-named
/// definitions**: a name's entry claims only what holds for *every*
/// function the call could resolve to — no false guard credit for L6
/// from an unrelated `push`/`apply`/`default` in another crate.
/// Same-file facts (where resolution is near-certain) are layered back
/// on top by [`overlay`].
///
/// The propagated fact grows monotonically from the direct seed, so
/// the iteration terminates; a depth cap bounds pathological graphs.
#[must_use]
pub fn summarize_workspace<'f>(
    files: impl IntoIterator<Item = &'f syn::File>,
    guard_names: &BTreeSet<String>,
) -> BTreeMap<String, FnSummary> {
    let mut facts: Vec<FnFacts> = Vec::new();
    for file in files {
        let mut fns = Vec::new();
        collect_fns(&file.items, false, &mut fns);
        for f in fns {
            let (graph, calls_per_node) = match &f.body {
                Some(body) => {
                    let graph = cfg::build(body);
                    let calls = graph
                        .nodes
                        .iter()
                        .map(|n| calls_in(&n.tokens).into_iter().map(|(name, _)| name).collect())
                        .collect();
                    (Some(graph), calls)
                }
                None => (None, Vec::new()),
            };
            facts.push(FnFacts {
                name: f.ident.clone(),
                graph,
                calls_per_node,
            });
        }
    }
    let mut map: BTreeMap<String, FnSummary> = BTreeMap::new();
    for _round in 0..32 {
        let mut next: BTreeMap<String, FnSummary> = BTreeMap::new();
        for f in &facts {
            let mut s = FnSummary::default();
            if let Some(graph) = &f.graph {
                let gen: Vec<BTreeSet<String>> = f
                    .calls_per_node
                    .iter()
                    .map(|calls| {
                        let mut set = BTreeSet::new();
                        for name in calls {
                            if guard_names.contains(name) {
                                set.insert(name.clone());
                            } else if let Some(callee) = map.get(name) {
                                set.extend(callee.guards_on_all_paths.iter().cloned());
                            }
                        }
                        set
                    })
                    .collect();
                s.guards_on_all_paths = dataflow::must_forward(graph, &gen)[EXIT].clone();
            }
            match next.entry(f.name.clone()) {
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(s);
                }
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    let merged = e.get_mut();
                    merged.guards_on_all_paths = merged
                        .guards_on_all_paths
                        .intersection(&s.guards_on_all_paths)
                        .cloned()
                        .collect();
                }
            }
        }
        if next == map {
            break;
        }
        map = next;
    }
    map
}

/// Layers one file's same-file summaries over the workspace fixpoint:
/// names defined in the file keep their local (one-level) facts —
/// resolution inside a file is near-certain — and additionally gain any workspace guard facts, which are safe to add because the
/// fixpoint only records guards holding for *every* definition of the
/// name. Names defined elsewhere resolve through the workspace entry.
#[must_use]
pub fn overlay(
    local: BTreeMap<String, FnSummary>,
    workspace: &BTreeMap<String, FnSummary>,
) -> BTreeMap<String, FnSummary> {
    let mut out = local;
    for (name, w) in workspace {
        match out.entry(name.clone()) {
            std::collections::btree_map::Entry::Vacant(e) => {
                e.insert(w.clone());
            }
            std::collections::btree_map::Entry::Occupied(mut e) => {
                e.get_mut()
                    .guards_on_all_paths
                    .extend(w.guards_on_all_paths.iter().cloned());
            }
        }
    }
    out
}

/// Collects every function item, impl/trait/mod bodies included,
/// skipping `#[cfg(test)]` subtrees.
pub(crate) fn collect_fns<'f>(
    items: &'f [syn::Item],
    in_test: bool,
    out: &mut Vec<&'f syn::ItemFn>,
) {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn summaries(src: &str, guards: &[&str]) -> BTreeMap<String, FnSummary> {
        let file = syn::parse_file(src).expect("parses");
        let guards: BTreeSet<String> = guards.iter().map(ToString::to_string).collect();
        summarize(&file, &guards)
    }

    #[test]
    fn guard_summary_requires_all_paths() {
        let src = "\
impl S {
    fn check_all(&self) { self.is_quorum(x()); }
    fn check_some(&self, c: bool) { if c { self.is_quorum(x()); } }
    fn check_loop(&self) { for v in vs() { self.is_quorum(v); } }
}
";
        let s = summaries(src, &["is_quorum"]);
        assert!(s["check_all"].guards_on_all_paths.contains("is_quorum"));
        assert!(s["check_some"].guards_on_all_paths.is_empty());
        // A loop may run zero times: not all paths.
        assert!(s["check_loop"].guards_on_all_paths.is_empty());
    }

    #[test]
    fn cfg_test_functions_are_not_summarized() {
        let s = summaries(
            "#[cfg(test)]\nmod tests { fn t() -> Result<(), E> { Ok(()) } }\n",
            &[],
        );
        assert!(s.is_empty());
    }

    #[test]
    fn workspace_fixpoint_sees_through_cross_file_chains() {
        // a.rs: deep wrapper chain ending in a guard; b.rs: the guard
        // caller — neither file alone resolves the chain.
        let a = syn::parse_file(
            "impl S {\n\
                 fn level2(&self) { self.level1(); }\n\
                 fn level1(&self) { self.check_quorum(); }\n\
             }\n",
        )
        .expect("a");
        let b = syn::parse_file(
            "impl S {\n\
                 fn check_quorum(&self) { self.is_quorum(q()); }\n\
             }\n\
             fn partial(&self, c: bool) { if c { self.level2(); } }\n",
        )
        .expect("b");
        let guards: BTreeSet<String> = std::iter::once("is_quorum".to_string()).collect();
        let s = summarize_workspace([&a, &b], &guards);
        // Three-deep, cross-file: level2 -> level1 -> check_quorum -> guard.
        assert!(s["level2"].guards_on_all_paths.contains("is_quorum"));
        assert!(s["level1"].guards_on_all_paths.contains("is_quorum"));
        // A conditional call still does not guard on all paths.
        assert!(s["partial"].guards_on_all_paths.is_empty());
    }

    #[test]
    fn workspace_fixpoint_merges_same_names_conservatively() {
        let a = syn::parse_file(
            "impl A { fn helper(&self) { self.is_quorum(q()); } }",
        )
        .expect("a");
        let b = syn::parse_file("impl B { fn helper(&self) { noop(); } }").expect("b");
        let guards: BTreeSet<String> = std::iter::once("is_quorum".to_string()).collect();
        let s = summarize_workspace([&a, &b], &guards);
        // Two types share the method name; only what holds for both
        // survives, so the guard claim is dropped.
        assert!(s["helper"].guards_on_all_paths.is_empty());
    }

    #[test]
    fn workspace_fixpoint_terminates_on_recursion() {
        let a = syn::parse_file(
            "fn ping() -> u64 { pong() }\nfn pong() -> u64 { ping() }\n",
        )
        .expect("a");
        let s = summarize_workspace([&a], &BTreeSet::new());
        assert!(s["ping"].guards_on_all_paths.is_empty());
        assert!(s["pong"].guards_on_all_paths.is_empty());
    }

    #[test]
    fn calls_in_sees_method_and_path_calls() {
        let file = syn::parse_file("fn f() { a(); self.b(1); C::d(e()); }").expect("parses");
        let syn::Item::Fn(f) = &file.items[0] else {
            panic!("fn")
        };
        let names: Vec<String> = calls_in(f.body.as_ref().expect("body").stream().trees())
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["a", "b", "d", "e"]);
    }
}
