//! Cache-tree visualization: Graphviz DOT export.
//!
//! The ASCII rendering ([`crate::AdoreState::render_tree`]) covers quick
//! terminal inspection; [`to_dot`] produces publication-style figures in
//! the visual language of the paper — elections and genesis as houses,
//! methods as circles, reconfigurations as double circles, commits as
//! squares (the paper draws committed methods as squares in Fig. 1).

#![allow(
    clippy::let_underscore_must_use,
    reason = "every discarded result here is a fmt::Write into a String, which cannot fail"
)]

use std::fmt::Write as _;

use adore_tree::Tree;

use crate::cache::CacheKind;
use crate::config::Configuration;
use crate::state::AdoreState;

/// Renders the cache tree as a Graphviz `digraph`.
///
/// Pipe the output through `dot -Tsvg` to obtain a figure; node shapes
/// follow the paper's conventions (squares for commits, circles for
/// methods, double circles for reconfigurations).
///
/// # Examples
///
/// ```
/// use adore_core::majority::Majority;
/// use adore_core::{render::to_dot, AdoreState};
///
/// let st: AdoreState<Majority, &str> = AdoreState::new(Majority::new([1, 2]));
/// let dot = to_dot(&st);
/// assert!(dot.starts_with("digraph cache_tree {"));
/// assert!(dot.contains("G(t0 v0)"));
/// ```
#[must_use]
pub fn to_dot<C: Configuration, M: Clone + std::fmt::Debug>(st: &AdoreState<C, M>) -> String {
    let mut out = String::from("digraph cache_tree {\n");
    out.push_str("  rankdir=TB;\n  node [fontname=\"monospace\", fontsize=10];\n");
    for (id, cache) in st.tree().iter() {
        let (shape, fill) = match cache.kind() {
            CacheKind::Genesis => ("house", "lightgray"),
            CacheKind::Election => ("house", "lightyellow"),
            CacheKind::Method => ("ellipse", "white"),
            CacheKind::Reconfig => ("doublecircle", "lightblue"),
            CacheKind::Commit => ("box", "lightgreen"),
        };
        let label = cache.summary().replace('"', "'");
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\", shape={}, style=filled, fillcolor={}];",
            id.index(),
            label,
            shape,
            fill
        );
    }
    for id in st.tree().ids() {
        if let Some(parent) = st.tree().parent(id) {
            let _ = writeln!(out, "  n{} -> n{};", parent.index(), id.index());
        }
    }
    out.push_str("}\n");
    out
}

/// Renders a bare tree of summaries (used by tooling that works with
/// trees of pre-rendered labels rather than full states).
///
/// # Examples
///
/// ```
/// use adore_core::render::labels_to_dot;
/// use adore_core::Tree;
///
/// let mut tree = Tree::new("root".to_string());
/// tree.add_leaf(Tree::<String>::ROOT, "child".to_string()).unwrap();
/// let dot = labels_to_dot(&tree);
/// assert!(dot.contains("n0 -> n1"));
/// ```
#[must_use]
pub fn labels_to_dot(tree: &Tree<String>) -> String {
    let mut out = String::from("digraph cache_tree {\n  node [fontname=\"monospace\"];\n");
    for (id, label) in tree.iter() {
        let _ = writeln!(
            out,
            "  n{} [label=\"{}\"];",
            id.index(),
            label.replace('"', "'")
        );
    }
    for id in tree.ids() {
        if let Some(parent) = tree.parent(id) {
            let _ = writeln!(out, "  n{} -> n{};", parent.index(), id.index());
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{node_set, NodeId, Timestamp};
    use crate::majority::Majority;
    use crate::state::{PullDecision, PushDecision};

    #[test]
    fn dot_contains_every_cache_and_edge() {
        let mut st: AdoreState<Majority, &str> = AdoreState::new(Majority::new([1, 2, 3]));
        st.pull(
            NodeId(1),
            &PullDecision::Ok {
                supporters: node_set([1, 2]),
                time: Timestamp(1),
            },
        )
        .unwrap();
        let m = st.invoke(NodeId(1), "a").applied().unwrap();
        st.push(
            NodeId(1),
            &PushDecision::Ok {
                supporters: node_set([1, 2]),
                target: m,
            },
        )
        .unwrap();
        let dot = to_dot(&st);
        // Four nodes (genesis, election, method, commit), three edges.
        assert_eq!(dot.matches("shape=").count(), 4);
        assert_eq!(dot.matches(" -> ").count(), 3);
        assert!(dot.contains("shape=box")); // the commit
        assert!(!dot.contains("doublecircle")); // no reconfig yet
    }

    #[test]
    fn dot_escapes_quotes_in_labels() {
        let mut st: AdoreState<Majority, &str> = AdoreState::new(Majority::new([1, 2]));
        st.pull(
            NodeId(1),
            &PullDecision::Ok {
                supporters: node_set([1, 2]),
                time: Timestamp(1),
            },
        )
        .unwrap();
        st.invoke(NodeId(1), "say \"hi\"").applied().unwrap();
        let dot = to_dot(&st);
        assert!(!dot.contains("\\\"hi\\\"\"]") || !dot.contains("say \"hi\""));
    }
}
