//! Fixpoint dataflow over [`crate::cfg::Cfg`].
//!
//! One forward analysis, **must-reach** ([`must_forward`]): a fact (a
//! guard call) reaches a node iff it was generated on *every* path from
//! entry. Join is set intersection over predecessors; the lattice is
//! the powerset of all facts generated anywhere in the function,
//! ordered by `⊇` with the full universe as ⊤ (so back edges in loops
//! do not spuriously kill facts established before the loop).
//!
//! It iterates to a fixpoint with a worklist-free full sweep — the
//! CFGs here are tiny (a function body), so simplicity wins.

use std::collections::BTreeSet;

use crate::cfg::{Cfg, ENTRY};

/// Runs the must-reach analysis. `gen[i]` is the set of facts node `i`
/// generates; the result `r[i]` is the set of facts guaranteed to have
/// been generated on every path from entry **before** node `i` runs
/// (its IN set — node `i`'s own facts are not included).
#[must_use]
pub fn must_forward(cfg: &Cfg, gen: &[BTreeSet<String>]) -> Vec<BTreeSet<String>> {
    let universe: BTreeSet<String> = gen.iter().flatten().cloned().collect();
    let preds = cfg.preds();
    let n = cfg.nodes.len();
    let mut ins: Vec<BTreeSet<String>> = vec![universe; n];
    ins[ENTRY] = BTreeSet::new();
    loop {
        let mut changed = false;
        for i in 0..n {
            if i == ENTRY {
                continue;
            }
            let mut new_in: Option<BTreeSet<String>> = None;
            for &p in &preds[i] {
                let mut out = ins[p].clone();
                out.extend(gen[p].iter().cloned());
                new_in = Some(match new_in {
                    None => out,
                    Some(acc) => acc.intersection(&out).cloned().collect(),
                });
            }
            let new_in = new_in.unwrap_or_default();
            if new_in != ins[i] {
                ins[i] = new_in;
                changed = true;
            }
        }
        if !changed {
            return ins;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cfg::{self, EXIT};
    use proc_macro2::TokenTree;

    fn cfg_of(src: &str) -> Cfg {
        let file = syn::parse_file(src).expect("parses");
        match &file.items[0] {
            syn::Item::Fn(f) => cfg::build(f.body.as_ref().expect("body")),
            other => panic!("expected fn, got {other:?}"),
        }
    }

    /// gen = {"g"} at every node whose tokens mention the ident `guard`.
    fn guard_gen(cfg: &Cfg) -> Vec<BTreeSet<String>> {
        cfg.nodes
            .iter()
            .map(|n| {
                let mut s = BTreeSet::new();
                fn mentions(trees: &[TokenTree]) -> bool {
                    trees.iter().any(|tt| match tt {
                        TokenTree::Ident(i) => *i == "guard",
                        TokenTree::Group(g) => mentions(g.stream().trees()),
                        _ => false,
                    })
                }
                if mentions(&n.tokens) {
                    s.insert("g".into());
                }
                s
            })
            .collect()
    }

    #[test]
    fn guard_on_all_paths_reaches_exit() {
        let cfg = cfg_of("fn f() { guard(); mutate(); }");
        let ins = must_forward(&cfg, &guard_gen(&cfg));
        assert!(ins[EXIT].contains("g"));
    }

    #[test]
    fn guard_in_one_branch_does_not_reach_join() {
        let cfg = cfg_of("fn f() { if c() { guard(); } mutate(); }");
        let ins = must_forward(&cfg, &guard_gen(&cfg));
        let mutate = cfg
            .nodes
            .iter()
            .position(|n| {
                n.tokens
                    .first()
                    .is_some_and(|t| matches!(t, TokenTree::Ident(i) if *i == "mutate"))
            })
            .expect("mutate node");
        assert!(ins[mutate].is_empty());
    }

    #[test]
    fn guard_in_both_branches_reaches_join() {
        let cfg = cfg_of("fn f() { if c() { guard(); } else { guard(); } mutate(); }");
        let ins = must_forward(&cfg, &guard_gen(&cfg));
        let mutate = cfg.nodes.len() - 1;
        assert!(ins[mutate].contains("g"));
    }

    #[test]
    fn loop_back_edge_keeps_pre_loop_facts() {
        let cfg = cfg_of("fn f() { guard(); while c() { body(); } mutate(); }");
        let ins = must_forward(&cfg, &guard_gen(&cfg));
        let mutate = cfg.nodes.len() - 1;
        assert!(ins[mutate].contains("g"));
    }
}
