//! Property-based tests for the cache-tree substrate.
//!
//! These correspond to the generic tree well-formedness lemmas of the Coq
//! development: arbitrary sequences of `addLeaf`/`insertBtw` operations
//! preserve the structural invariants, and the derived queries (ancestry,
//! nearest common ancestor, path interiors) satisfy their algebraic laws.

#![deny(clippy::disallowed_types)] // L1, closing the cone under the replayable crates

use adore_tree::{CacheId, Tree};
use proptest::prelude::*;

/// A randomly generated mutation script: each entry picks a parent (modulo
/// the current tree size) and whether to `add_leaf` or `insert_between`.
fn script() -> impl Strategy<Value = Vec<(usize, bool)>> {
    prop::collection::vec((0usize..64, any::<bool>()), 0..64)
}

/// Replays a script, returning the resulting tree.
fn build(script: &[(usize, bool)]) -> Tree<u32> {
    let mut tree = Tree::new(0);
    for (i, &(parent_seed, between)) in script.iter().enumerate() {
        let parent = CacheId::from_index(parent_seed % tree.len());
        let payload = (i + 1) as u32;
        if between {
            tree.insert_between(parent, payload).unwrap();
        } else {
            tree.add_leaf(parent, payload).unwrap();
        }
    }
    tree
}

proptest! {
    #[test]
    fn mutations_preserve_well_formedness(s in script()) {
        let tree = build(&s);
        prop_assert!(tree.check_well_formed().is_ok());
        prop_assert_eq!(tree.len(), s.len() + 1);
    }

    #[test]
    fn ancestry_is_a_strict_partial_order(s in script()) {
        let tree = build(&s);
        let ids: Vec<_> = tree.ids().collect();
        for &a in &ids {
            // Irreflexive.
            prop_assert!(!tree.is_strict_ancestor(a, a));
            for &b in &ids {
                // Antisymmetric.
                if tree.is_strict_ancestor(a, b) {
                    prop_assert!(!tree.is_strict_ancestor(b, a));
                }
            }
        }
    }

    #[test]
    fn every_node_descends_from_root(s in script()) {
        let tree = build(&s);
        for id in tree.ids() {
            prop_assert!(tree.is_ancestor_or_self(Tree::<u32>::ROOT, id));
        }
    }

    #[test]
    fn nca_is_commutative_and_ancestral(s in script()) {
        let tree = build(&s);
        let ids: Vec<_> = tree.ids().collect();
        for &a in ids.iter().take(12) {
            for &b in ids.iter().take(12) {
                let nca = tree.nearest_common_ancestor(a, b).unwrap();
                prop_assert_eq!(tree.nearest_common_ancestor(b, a), Some(nca));
                prop_assert!(tree.is_ancestor_or_self(nca, a));
                prop_assert!(tree.is_ancestor_or_self(nca, b));
                // Nearest: no child of nca is an ancestor of both.
                for &c in tree.children(nca) {
                    prop_assert!(
                        !(tree.is_ancestor_or_self(c, a) && tree.is_ancestor_or_self(c, b))
                    );
                }
            }
        }
    }

    #[test]
    fn path_interior_length_matches_depths(s in script()) {
        let tree = build(&s);
        let ids: Vec<_> = tree.ids().collect();
        for &a in ids.iter().take(12) {
            for &b in ids.iter().take(12) {
                let nca = tree.nearest_common_ancestor(a, b).unwrap();
                let interior = tree.path_interior(a, b).unwrap();
                let (da, db, dn) = (
                    tree.depth(a).unwrap(),
                    tree.depth(b).unwrap(),
                    tree.depth(nca).unwrap(),
                );
                // Total path node count (inclusive) minus the two endpoints.
                let expected = if a == b {
                    0
                } else {
                    (da - dn) + (db - dn) + 1 - 2
                };
                prop_assert_eq!(interior.len(), expected);
                // Endpoints never appear in the interior.
                prop_assert!(!interior.contains(&a));
                prop_assert!(!interior.contains(&b));
            }
        }
    }

    #[test]
    fn ancestors_walk_has_strictly_decreasing_depth(s in script()) {
        let tree = build(&s);
        for id in tree.ids() {
            let depths: Vec<_> = tree
                .ancestors_inclusive(id)
                .map(|a| tree.depth(a).unwrap())
                .collect();
            for w in depths.windows(2) {
                prop_assert_eq!(w[0], w[1] + 1);
            }
        }
    }

    #[test]
    fn prune_to_branch_preserves_well_formedness(s in script(), keep_seed in 0usize..64) {
        let mut tree = build(&s);
        let keep = CacheId::from_index(keep_seed % tree.len());
        let before_branch: Vec<u32> = tree
            .ancestors_inclusive(keep)
            .map(|id| *tree.payload(id).unwrap())
            .collect();
        let map = tree.prune_to_branch(keep).unwrap();
        prop_assert!(tree.check_well_formed().is_ok());
        // The kept branch survives with payloads intact.
        let after_branch: Vec<u32> = tree
            .ancestors_inclusive(map[&keep])
            .map(|id| *tree.payload(id).unwrap())
            .collect();
        prop_assert_eq!(before_branch, after_branch);
    }
}
