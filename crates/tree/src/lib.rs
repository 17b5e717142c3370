//! Append-only cache-tree substrate for the ADORE model.
//!
//! The ADORE model ("Adore: Atomic Distributed Objects with Certified
//! Reconfiguration", PLDI 2022) represents the entire history of a
//! replicated system — committed states, partial failures, and configuration
//! changes — as a single tree of *caches*. This crate provides that tree as a
//! reusable, payload-generic data structure, together with the structural
//! queries the safety argument depends on (ancestor tests, nearest common
//! ancestors, paths between nodes) and executable well-formedness invariants
//! (the analogue of the paper's ~2.3k lines of generic Coq tree lemmas).
//!
//! Two mutation primitives mirror the paper's semantics (Fig. 26):
//!
//! * [`Tree::add_leaf`] — `addLeaf`: attach a fresh child to a parent. Used
//!   by `pull`, `invoke`, and `reconfig`.
//! * [`Tree::insert_between`] — `insertBtw`: splice a fresh node between a
//!   parent and all of its current children. Used by `push`, so that
//!   uncommitted siblings remain viable descendants of the new commit.
//!
//! Nodes are never removed (the tree is append-only), with one documented
//! exception: [`Tree::prune_to_branch`] implements the stop-the-world
//! reconfiguration extension sketched in §8 of the paper.
//!
//! # Examples
//!
//! ```
//! use adore_tree::Tree;
//!
//! let mut tree = Tree::new("root");
//! let a = tree.add_leaf(Tree::<&str>::ROOT, "a").unwrap();
//! let b = tree.add_leaf(a, "b").unwrap();
//! let c = tree.add_leaf(a, "c").unwrap();
//!
//! assert!(tree.is_strict_ancestor(a, b));
//! assert_eq!(tree.nearest_common_ancestor(b, c), Some(a));
//! tree.check_well_formed().unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1, closing the cone under the replayable crates

use std::fmt;

use serde::{Deserialize, Serialize};

/// Identifier of a node in a [`Tree`].
///
/// Cache IDs are dense indices handed out in insertion order; the root is
/// always [`Tree::ROOT`] (id 0). IDs are only meaningful relative to the tree
/// that produced them.
///
/// # Examples
///
/// ```
/// use adore_tree::{CacheId, Tree};
///
/// let tree = Tree::new(());
/// let root: CacheId = Tree::<()>::ROOT;
/// assert_eq!(tree.payload(root), Some(&()));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct CacheId(u32);

impl CacheId {
    /// Returns the raw index of this id.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// assert_eq!(Tree::<()>::ROOT.index(), 0);
    /// ```
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `CacheId` from a raw index.
    ///
    /// Intended for (de)serialization and test construction; an id built this
    /// way is only valid if the target tree actually contains it.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX`.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::CacheId;
    /// let id = CacheId::from_index(3);
    /// assert_eq!(id.index(), 3);
    /// ```
    #[must_use]
    pub fn from_index(index: usize) -> Self {
        CacheId(u32::try_from(index).expect("tree larger than u32::MAX nodes"))
    }
}

impl fmt::Display for CacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Error returned by tree mutations referring to ids the tree does not hold.
///
/// # Examples
///
/// ```
/// use adore_tree::{CacheId, Tree, UnknownCacheId};
///
/// let mut tree = Tree::new(());
/// let bogus = CacheId::from_index(42);
/// assert_eq!(tree.add_leaf(bogus, ()), Err(UnknownCacheId(bogus)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownCacheId(pub CacheId);

impl fmt::Display for UnknownCacheId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cache id {} is not present in the tree", self.0)
    }
}

impl std::error::Error for UnknownCacheId {}

/// A structural well-formedness violation detected by
/// [`Tree::check_well_formed`].
///
/// A tree built exclusively through the public API never produces these; the
/// checker exists so that higher layers (model checkers, refinement drivers)
/// can certify the invariant wholesale, mirroring the paper's generic tree
/// well-formedness lemmas.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WellFormedError {
    /// A node's parent id is not a valid node.
    DanglingParent {
        /// The node with the bad parent pointer.
        node: CacheId,
        /// The missing parent id.
        parent: CacheId,
    },
    /// Walking parent pointers from `node` never reaches the root.
    Cycle {
        /// A node on the cycle (or on a path into a cycle).
        node: CacheId,
    },
    /// The children index disagrees with the parent pointers.
    ChildIndexMismatch {
        /// The node whose recorded children are inconsistent.
        node: CacheId,
    },
    /// The root's parent pointer is not the root itself.
    BadRoot,
}

impl fmt::Display for WellFormedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WellFormedError::DanglingParent { node, parent } => {
                write!(f, "node {node} points at missing parent {parent}")
            }
            WellFormedError::Cycle { node } => {
                write!(f, "node {node} does not reach the root (cycle)")
            }
            WellFormedError::ChildIndexMismatch { node } => {
                write!(
                    f,
                    "children index of node {node} disagrees with parent pointers"
                )
            }
            WellFormedError::BadRoot => write!(f, "root parent pointer is not the root"),
        }
    }
}

impl std::error::Error for WellFormedError {}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
struct Node<T> {
    parent: CacheId,
    children: Vec<CacheId>,
    payload: T,
}

/// An append-only rooted tree with dense [`CacheId`] handles.
///
/// The tree always contains at least the root node created by [`Tree::new`].
/// See the [crate docs](crate) for the relation to the ADORE cache tree.
///
/// # Examples
///
/// ```
/// use adore_tree::Tree;
///
/// let mut tree = Tree::new(0u32);
/// let child = tree.add_leaf(Tree::<u32>::ROOT, 1).unwrap();
/// assert_eq!(tree.len(), 2);
/// assert_eq!(tree.parent(child), Some(Tree::<u32>::ROOT));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Tree<T> {
    nodes: Vec<Node<T>>,
}

impl<T> Tree<T> {
    /// Id of the root node of every tree.
    pub const ROOT: CacheId = CacheId(0);

    /// Creates a tree holding a single root node with the given payload.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let tree = Tree::new("genesis");
    /// assert_eq!(tree.len(), 1);
    /// ```
    #[must_use]
    pub fn new(root_payload: T) -> Self {
        Tree {
            nodes: vec![Node {
                parent: Self::ROOT,
                children: Vec::new(),
                payload: root_payload,
            }],
        }
    }

    /// Number of nodes in the tree, including the root.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// assert_eq!(Tree::new(()).len(), 1);
    /// ```
    #[must_use]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `false`: a tree always contains its root.
    ///
    /// Provided for API completeness alongside [`Tree::len`].
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// assert!(!Tree::new(()).is_empty());
    /// ```
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Tests whether `id` names a node of this tree.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::{CacheId, Tree};
    /// let tree = Tree::new(());
    /// assert!(tree.contains(Tree::<()>::ROOT));
    /// assert!(!tree.contains(CacheId::from_index(7)));
    /// ```
    #[must_use]
    pub fn contains(&self, id: CacheId) -> bool {
        id.index() < self.nodes.len()
    }

    fn node(&self, id: CacheId) -> Result<&Node<T>, UnknownCacheId> {
        self.nodes.get(id.index()).ok_or(UnknownCacheId(id))
    }

    /// Returns the payload stored at `id`, or `None` for an unknown id.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let tree = Tree::new(5);
    /// assert_eq!(tree.payload(Tree::<i32>::ROOT), Some(&5));
    /// ```
    #[must_use]
    pub fn payload(&self, id: CacheId) -> Option<&T> {
        self.nodes.get(id.index()).map(|n| &n.payload)
    }

    /// Returns the parent of `id`, or `None` for the root or an unknown id.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// assert_eq!(tree.parent(a), Some(Tree::<()>::ROOT));
    /// assert_eq!(tree.parent(Tree::<()>::ROOT), None);
    /// ```
    #[must_use]
    pub fn parent(&self, id: CacheId) -> Option<CacheId> {
        if id == Self::ROOT {
            return None;
        }
        self.nodes.get(id.index()).map(|n| n.parent)
    }

    /// Returns the children of `id` in insertion order (empty for leaves and
    /// unknown ids).
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// assert_eq!(tree.children(Tree::<()>::ROOT), &[a]);
    /// ```
    #[must_use]
    pub fn children(&self, id: CacheId) -> &[CacheId] {
        self.nodes
            .get(id.index())
            .map(|n| n.children.as_slice())
            .unwrap_or(&[])
    }

    /// Appends a fresh leaf under `parent` (the paper's `addLeaf`).
    ///
    /// Returns the id of the new node.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownCacheId`] if `parent` is not in the tree.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new("root");
    /// let leaf = tree.add_leaf(Tree::<&str>::ROOT, "leaf")?;
    /// assert_eq!(tree.payload(leaf), Some(&"leaf"));
    /// # Ok::<(), adore_tree::UnknownCacheId>(())
    /// ```
    pub fn add_leaf(&mut self, parent: CacheId, payload: T) -> Result<CacheId, UnknownCacheId> {
        self.node(parent)?;
        let id = CacheId::from_index(self.nodes.len());
        self.nodes.push(Node {
            parent,
            children: Vec::new(),
            payload,
        });
        self.nodes[parent.index()].children.push(id);
        Ok(id)
    }

    /// Splices a fresh node between `parent` and all of `parent`'s current
    /// children (the paper's `insertBtw`).
    ///
    /// After the call, every former child of `parent` is a child of the new
    /// node. ADORE's `push` uses this to place a `CCache` after the committed
    /// method while keeping not-yet-committed descendants viable.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownCacheId`] if `parent` is not in the tree.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new("m");
    /// let child = tree.add_leaf(Tree::<&str>::ROOT, "suffix")?;
    /// let commit = tree.insert_between(Tree::<&str>::ROOT, "commit")?;
    /// assert_eq!(tree.parent(child), Some(commit));
    /// assert_eq!(tree.parent(commit), Some(Tree::<&str>::ROOT));
    /// # Ok::<(), adore_tree::UnknownCacheId>(())
    /// ```
    pub fn insert_between(
        &mut self,
        parent: CacheId,
        payload: T,
    ) -> Result<CacheId, UnknownCacheId> {
        self.node(parent)?;
        let id = CacheId::from_index(self.nodes.len());
        let former_children = std::mem::take(&mut self.nodes[parent.index()].children);
        for &child in &former_children {
            self.nodes[child.index()].parent = id;
        }
        self.nodes.push(Node {
            parent,
            children: former_children,
            payload,
        });
        self.nodes[parent.index()].children.push(id);
        Ok(id)
    }

    /// Tests whether `ancestor` is a **strict** ancestor of `descendant`
    /// (the paper's `C ↑ C'`).
    ///
    /// A node is not its own strict ancestor. Unknown ids are nobody's
    /// ancestors and have no ancestors.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// assert!(tree.is_strict_ancestor(Tree::<()>::ROOT, a));
    /// assert!(!tree.is_strict_ancestor(a, a));
    /// ```
    #[must_use]
    pub fn is_strict_ancestor(&self, ancestor: CacheId, descendant: CacheId) -> bool {
        if !self.contains(ancestor) || !self.contains(descendant) {
            return false;
        }
        let mut cur = descendant;
        while cur != Self::ROOT {
            cur = self.nodes[cur.index()].parent;
            if cur == ancestor {
                return true;
            }
        }
        false
    }

    /// Tests whether `ancestor` equals or strictly precedes `descendant` on
    /// the same branch.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let tree = Tree::new(());
    /// assert!(tree.is_ancestor_or_self(Tree::<()>::ROOT, Tree::<()>::ROOT));
    /// ```
    #[must_use]
    pub fn is_ancestor_or_self(&self, ancestor: CacheId, descendant: CacheId) -> bool {
        (ancestor == descendant && self.contains(ancestor))
            || self.is_strict_ancestor(ancestor, descendant)
    }

    /// Tests whether two nodes lie on a single root-to-leaf branch.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// let b = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// assert!(tree.same_branch(Tree::<()>::ROOT, a));
    /// assert!(!tree.same_branch(a, b));
    /// ```
    #[must_use]
    pub fn same_branch(&self, a: CacheId, b: CacheId) -> bool {
        self.is_ancestor_or_self(a, b) || self.is_ancestor_or_self(b, a)
    }

    /// Iterates from `id` up to the root, inclusive on both ends.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// let path: Vec<_> = tree.ancestors_inclusive(a).collect();
    /// assert_eq!(path, vec![a, Tree::<()>::ROOT]);
    /// ```
    pub fn ancestors_inclusive(&self, id: CacheId) -> AncestorsInclusive<'_, T> {
        AncestorsInclusive {
            tree: self,
            next: if self.contains(id) { Some(id) } else { None },
        }
    }

    /// Depth of `id` (root has depth 0); `None` for unknown ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// assert_eq!(tree.depth(a), Some(1));
    /// ```
    #[must_use]
    pub fn depth(&self, id: CacheId) -> Option<usize> {
        if !self.contains(id) {
            return None;
        }
        Some(self.ancestors_inclusive(id).count() - 1)
    }

    /// Nearest common ancestor of `a` and `b` (possibly one of them), or
    /// `None` if either id is unknown.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// let b = tree.add_leaf(a, ()).unwrap();
    /// let c = tree.add_leaf(a, ()).unwrap();
    /// assert_eq!(tree.nearest_common_ancestor(b, c), Some(a));
    /// assert_eq!(tree.nearest_common_ancestor(a, b), Some(a));
    /// ```
    #[must_use]
    pub fn nearest_common_ancestor(&self, a: CacheId, b: CacheId) -> Option<CacheId> {
        if !self.contains(a) || !self.contains(b) {
            return None;
        }
        let mut pa: Vec<CacheId> = self.ancestors_inclusive(a).collect();
        let mut pb: Vec<CacheId> = self.ancestors_inclusive(b).collect();
        pa.reverse();
        pb.reverse();
        let mut nca = Self::ROOT;
        for (x, y) in pa.iter().zip(pb.iter()) {
            if x == y {
                nca = *x;
            } else {
                break;
            }
        }
        Some(nca)
    }

    /// The interior of the tree path from `a` to `b` through their nearest
    /// common ancestor, **excluding** both endpoints (the path the paper's
    /// `rdist` counts over).
    ///
    /// The nearest common ancestor itself is included unless it is an
    /// endpoint. Returns `None` if either id is unknown.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// let b = tree.add_leaf(a, ()).unwrap();
    /// let c = tree.add_leaf(a, ()).unwrap();
    /// // Path b -> a -> c, endpoints excluded: just [a].
    /// assert_eq!(tree.path_interior(b, c), Some(vec![a]));
    /// // Path a -> b on one branch: empty interior.
    /// assert_eq!(tree.path_interior(a, b), Some(vec![]));
    /// ```
    #[must_use]
    pub fn path_interior(&self, a: CacheId, b: CacheId) -> Option<Vec<CacheId>> {
        let nca = self.nearest_common_ancestor(a, b)?;
        let mut interior = Vec::new();
        let mut cur = a;
        while cur != nca {
            cur = self.nodes[cur.index()].parent;
            if cur != nca {
                interior.push(cur);
            }
        }
        if nca != a && nca != b {
            interior.push(nca);
        }
        let mut from_b = Vec::new();
        let mut cur = b;
        while cur != nca {
            cur = self.nodes[cur.index()].parent;
            if cur != nca {
                from_b.push(cur);
            }
        }
        interior.extend(from_b.into_iter().rev());
        Some(interior)
    }

    /// Iterates over `(id, payload)` pairs in insertion (= id) order.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(0);
    /// tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
    /// let sum: i32 = tree.iter().map(|(_, p)| p).sum();
    /// assert_eq!(sum, 1);
    /// ```
    pub fn iter(&self) -> Iter<'_, T> {
        Iter {
            inner: self.nodes.iter().enumerate(),
        }
    }

    /// Ids of all nodes in insertion order.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let tree = Tree::new(());
    /// assert_eq!(tree.ids().count(), 1);
    /// ```
    pub fn ids(&self) -> impl ExactSizeIterator<Item = CacheId> + '_ {
        (0..self.nodes.len()).map(CacheId::from_index)
    }

    /// Ids of all leaves (nodes without children).
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// let a = tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// assert_eq!(tree.leaves().collect::<Vec<_>>(), vec![a]);
    /// ```
    pub fn leaves(&self) -> impl Iterator<Item = CacheId> + '_ {
        self.ids().filter(|id| self.children(*id).is_empty())
    }

    /// Iterates over the subtree rooted at `id` in depth-first preorder
    /// (including `id` itself); empty for unknown ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(0);
    /// let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
    /// let b = tree.add_leaf(a, 2).unwrap();
    /// let _c = tree.add_leaf(Tree::<i32>::ROOT, 3).unwrap();
    /// let sub: Vec<_> = tree.iter_subtree(a).collect();
    /// assert_eq!(sub, vec![a, b]);
    /// ```
    pub fn iter_subtree(&self, id: CacheId) -> IterSubtree<'_, T> {
        IterSubtree {
            tree: self,
            stack: if self.contains(id) {
                vec![id]
            } else {
                Vec::new()
            },
        }
    }

    /// Number of nodes in the subtree rooted at `id` (including `id`);
    /// zero for unknown ids.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(0);
    /// let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
    /// tree.add_leaf(a, 2).unwrap();
    /// assert_eq!(tree.subtree_size(a), 2);
    /// assert_eq!(tree.subtree_size(Tree::<i32>::ROOT), 3);
    /// ```
    #[must_use]
    pub fn subtree_size(&self, id: CacheId) -> usize {
        self.iter_subtree(id).count()
    }

    /// Deletes every node that is not on the root-to-`keep` branch and not a
    /// descendant of `keep`, compacting ids.
    ///
    /// This is **not** part of the core ADORE semantics: it implements the
    /// stop-the-world reconfiguration extension from §8 of the paper
    /// ("deleting all caches not on the active branch when an *RCache* is
    /// committed"). Returns the remapping from old ids to new ids.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownCacheId`] if `keep` is not in the tree.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new("root");
    /// let a = tree.add_leaf(Tree::<&str>::ROOT, "keep")?;
    /// let _b = tree.add_leaf(Tree::<&str>::ROOT, "stale")?;
    /// let map = tree.prune_to_branch(a)?;
    /// assert_eq!(tree.len(), 2);
    /// assert_eq!(tree.payload(map[&a]), Some(&"keep"));
    /// # Ok::<(), adore_tree::UnknownCacheId>(())
    /// ```
    pub fn prune_to_branch(
        &mut self,
        keep: CacheId,
    ) -> Result<std::collections::BTreeMap<CacheId, CacheId>, UnknownCacheId> {
        self.node(keep)?;
        let mut retain = vec![false; self.nodes.len()];
        for id in self.ancestors_inclusive(keep) {
            retain[id.index()] = true;
        }
        for id in self.ids() {
            if self.is_strict_ancestor(keep, id) {
                retain[id.index()] = true;
            }
        }
        let mut remap = std::collections::BTreeMap::new();
        let mut next = 0usize;
        for (i, keep_it) in retain.iter().enumerate() {
            if *keep_it {
                remap.insert(CacheId::from_index(i), CacheId::from_index(next));
                next += 1;
            }
        }
        let old = std::mem::take(&mut self.nodes);
        for (i, node) in old.into_iter().enumerate() {
            if retain[i] {
                self.nodes.push(Node {
                    parent: remap[&node.parent],
                    children: node
                        .children
                        .iter()
                        .filter_map(|c| remap.get(c).copied())
                        .collect(),
                    payload: node.payload,
                });
            }
        }
        Ok(remap)
    }

    /// Certifies the structural invariants of the tree.
    ///
    /// Checks that every parent pointer targets an existing node, that every
    /// node reaches the root (no cycles), that the children index agrees
    /// with parent pointers, and that the root is its own parent.
    ///
    /// # Errors
    ///
    /// Returns the first [`WellFormedError`] found.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_tree::Tree;
    /// let mut tree = Tree::new(());
    /// tree.add_leaf(Tree::<()>::ROOT, ()).unwrap();
    /// tree.check_well_formed().unwrap();
    /// ```
    pub fn check_well_formed(&self) -> Result<(), WellFormedError> {
        if self.nodes[Self::ROOT.index()].parent != Self::ROOT {
            return Err(WellFormedError::BadRoot);
        }
        for id in self.ids() {
            let node = &self.nodes[id.index()];
            if !self.contains(node.parent) {
                return Err(WellFormedError::DanglingParent {
                    node: id,
                    parent: node.parent,
                });
            }
            // Walk upward at most `len` steps; failing to reach the root
            // within that bound implies a cycle.
            let mut cur = id;
            let mut steps = 0usize;
            while cur != Self::ROOT {
                cur = self.nodes[cur.index()].parent;
                steps += 1;
                if steps > self.nodes.len() {
                    return Err(WellFormedError::Cycle { node: id });
                }
            }
            for &child in &node.children {
                if !self.contains(child) || self.nodes[child.index()].parent != id {
                    return Err(WellFormedError::ChildIndexMismatch { node: id });
                }
            }
        }
        // Every non-root node must appear in exactly one children list.
        let mut seen = vec![0usize; self.nodes.len()];
        for id in self.ids() {
            for &child in &self.nodes[id.index()].children {
                seen[child.index()] += 1;
            }
        }
        for id in self.ids() {
            let expected = usize::from(id != Self::ROOT);
            if seen[id.index()] != expected {
                return Err(WellFormedError::ChildIndexMismatch { node: id });
            }
        }
        Ok(())
    }
}

/// Depth-first preorder iterator over a subtree's node ids.
///
/// Created by [`Tree::iter_subtree`].
#[derive(Debug, Clone)]
pub struct IterSubtree<'a, T> {
    tree: &'a Tree<T>,
    stack: Vec<CacheId>,
}

impl<T> Iterator for IterSubtree<'_, T> {
    type Item = CacheId;

    fn next(&mut self) -> Option<CacheId> {
        let cur = self.stack.pop()?;
        for &child in self.tree.children(cur).iter().rev() {
            self.stack.push(child);
        }
        Some(cur)
    }
}

/// Iterator over a node's chain of ancestors, including the node itself.
///
/// Created by [`Tree::ancestors_inclusive`].
#[derive(Debug, Clone)]
pub struct AncestorsInclusive<'a, T> {
    tree: &'a Tree<T>,
    next: Option<CacheId>,
}

impl<T> Iterator for AncestorsInclusive<'_, T> {
    type Item = CacheId;

    fn next(&mut self) -> Option<CacheId> {
        let cur = self.next?;
        self.next = self.tree.parent(cur);
        Some(cur)
    }
}

/// Iterator over `(id, payload)` pairs of a [`Tree`] in insertion order.
///
/// Created by [`Tree::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a, T> {
    inner: std::iter::Enumerate<std::slice::Iter<'a, Node<T>>>,
}

impl<'a, T> Iterator for Iter<'a, T> {
    type Item = (CacheId, &'a T);

    fn next(&mut self) -> Option<Self::Item> {
        self.inner
            .next()
            .map(|(i, n)| (CacheId::from_index(i), &n.payload))
    }
}

impl<T> ExactSizeIterator for Iter<'_, T> {
    fn len(&self) -> usize {
        self.inner.len()
    }
}

impl<'a, T> IntoIterator for &'a Tree<T> {
    type Item = (CacheId, &'a T);
    type IntoIter = Iter<'a, T>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain(n: usize) -> (Tree<usize>, Vec<CacheId>) {
        let mut tree = Tree::new(0);
        let mut ids = vec![Tree::<usize>::ROOT];
        for i in 1..=n {
            let id = tree.add_leaf(*ids.last().unwrap(), i).unwrap();
            ids.push(id);
        }
        (tree, ids)
    }

    #[test]
    fn new_tree_has_single_root() {
        let tree = Tree::new("r");
        assert_eq!(tree.len(), 1);
        assert_eq!(tree.payload(Tree::<&str>::ROOT), Some(&"r"));
        assert_eq!(tree.parent(Tree::<&str>::ROOT), None);
        assert!(tree.children(Tree::<&str>::ROOT).is_empty());
    }

    #[test]
    fn add_leaf_links_parent_and_child() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        assert_eq!(tree.parent(a), Some(Tree::<i32>::ROOT));
        assert_eq!(tree.children(Tree::<i32>::ROOT), &[a]);
        assert_eq!(tree.payload(a), Some(&1));
    }

    #[test]
    fn add_leaf_to_unknown_parent_fails() {
        let mut tree = Tree::new(0);
        let bogus = CacheId::from_index(9);
        assert_eq!(tree.add_leaf(bogus, 1), Err(UnknownCacheId(bogus)));
        assert_eq!(tree.len(), 1);
    }

    #[test]
    fn insert_between_reparents_all_children() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        let b = tree.add_leaf(Tree::<i32>::ROOT, 2).unwrap();
        let mid = tree.insert_between(Tree::<i32>::ROOT, 10).unwrap();
        assert_eq!(tree.parent(mid), Some(Tree::<i32>::ROOT));
        assert_eq!(tree.parent(a), Some(mid));
        assert_eq!(tree.parent(b), Some(mid));
        assert_eq!(tree.children(Tree::<i32>::ROOT), &[mid]);
        assert_eq!(tree.children(mid), &[a, b]);
        tree.check_well_formed().unwrap();
    }

    #[test]
    fn insert_between_leaf_acts_as_add_leaf() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        let c = tree.insert_between(a, 2).unwrap();
        assert_eq!(tree.parent(c), Some(a));
        assert!(tree.children(c).is_empty());
        tree.check_well_formed().unwrap();
    }

    #[test]
    fn strict_ancestor_on_chain() {
        let (tree, ids) = chain(5);
        assert!(tree.is_strict_ancestor(ids[0], ids[5]));
        assert!(tree.is_strict_ancestor(ids[2], ids[3]));
        assert!(!tree.is_strict_ancestor(ids[3], ids[2]));
        assert!(!tree.is_strict_ancestor(ids[3], ids[3]));
    }

    #[test]
    fn ancestor_of_unknown_id_is_false() {
        let tree = Tree::new(());
        let bogus = CacheId::from_index(3);
        assert!(!tree.is_strict_ancestor(Tree::<()>::ROOT, bogus));
        assert!(!tree.is_strict_ancestor(bogus, Tree::<()>::ROOT));
        assert!(!tree.is_ancestor_or_self(bogus, bogus));
    }

    #[test]
    fn same_branch_detects_forks() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        let b = tree.add_leaf(a, 2).unwrap();
        let c = tree.add_leaf(a, 3).unwrap();
        assert!(tree.same_branch(a, b));
        assert!(tree.same_branch(b, a));
        assert!(!tree.same_branch(b, c));
    }

    #[test]
    fn nca_of_forked_nodes() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        let b = tree.add_leaf(a, 2).unwrap();
        let c = tree.add_leaf(a, 3).unwrap();
        let d = tree.add_leaf(c, 4).unwrap();
        assert_eq!(tree.nearest_common_ancestor(b, d), Some(a));
        assert_eq!(tree.nearest_common_ancestor(c, d), Some(c));
        assert_eq!(tree.nearest_common_ancestor(d, d), Some(d));
        assert_eq!(
            tree.nearest_common_ancestor(Tree::<i32>::ROOT, d),
            Some(Tree::<i32>::ROOT)
        );
    }

    #[test]
    fn path_interior_excludes_endpoints() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        let b = tree.add_leaf(a, 2).unwrap();
        let c = tree.add_leaf(b, 3).unwrap();
        let x = tree.add_leaf(a, 4).unwrap();
        let y = tree.add_leaf(x, 5).unwrap();
        // Path c - b - a - x - y; interior is {b, a, x}.
        let mut interior = tree.path_interior(c, y).unwrap();
        interior.sort();
        assert_eq!(interior, vec![a, b, x]);
        // Straight-line path root..c; interior is {a, b}.
        let mut interior = tree.path_interior(Tree::<i32>::ROOT, c).unwrap();
        interior.sort();
        assert_eq!(interior, vec![a, b]);
        // Adjacent nodes: empty interior.
        assert_eq!(tree.path_interior(a, b), Some(vec![]));
        // Same node: empty interior.
        assert_eq!(tree.path_interior(c, c), Some(vec![]));
    }

    #[test]
    fn path_interior_is_symmetric() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        let b = tree.add_leaf(a, 2).unwrap();
        let c = tree.add_leaf(a, 3).unwrap();
        let mut p1 = tree.path_interior(b, c).unwrap();
        let mut p2 = tree.path_interior(c, b).unwrap();
        p1.sort();
        p2.sort();
        assert_eq!(p1, p2);
    }

    #[test]
    fn depth_counts_edges_to_root() {
        let (tree, ids) = chain(4);
        assert_eq!(tree.depth(ids[0]), Some(0));
        assert_eq!(tree.depth(ids[4]), Some(4));
        assert_eq!(tree.depth(CacheId::from_index(99)), None);
    }

    #[test]
    fn leaves_are_childless_nodes() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        let b = tree.add_leaf(Tree::<i32>::ROOT, 2).unwrap();
        let c = tree.add_leaf(a, 3).unwrap();
        let leaves: Vec<_> = tree.leaves().collect();
        assert_eq!(leaves, vec![b, c]);
    }

    #[test]
    fn iter_yields_in_insertion_order() {
        let (tree, _) = chain(3);
        let payloads: Vec<usize> = tree.iter().map(|(_, p)| *p).collect();
        assert_eq!(payloads, vec![0, 1, 2, 3]);
        assert_eq!(tree.iter().len(), 4);
    }

    #[test]
    fn prune_to_branch_keeps_branch_and_descendants() {
        let mut tree = Tree::new("root");
        let a = tree.add_leaf(Tree::<&str>::ROOT, "a").unwrap();
        let b = tree.add_leaf(a, "b").unwrap();
        let stale = tree.add_leaf(Tree::<&str>::ROOT, "stale").unwrap();
        let _stale2 = tree.add_leaf(stale, "stale2").unwrap();
        let below = tree.add_leaf(b, "below").unwrap();
        let map = tree.prune_to_branch(a).unwrap();
        assert_eq!(tree.len(), 4); // root, a, b, below
        tree.check_well_formed().unwrap();
        assert_eq!(tree.payload(map[&a]), Some(&"a"));
        assert_eq!(tree.payload(map[&below]), Some(&"below"));
        assert!(!map.contains_key(&stale));
    }

    #[test]
    fn well_formed_after_mixed_mutations() {
        let mut tree = Tree::new(0);
        let mut frontier = vec![Tree::<i32>::ROOT];
        for i in 0..50 {
            let parent = frontier[i % frontier.len()];
            let id = if i % 3 == 0 {
                tree.insert_between(parent, i as i32).unwrap()
            } else {
                tree.add_leaf(parent, i as i32).unwrap()
            };
            frontier.push(id);
        }
        tree.check_well_formed().unwrap();
    }

    #[test]
    fn subtree_iteration_is_preorder_and_sized() {
        let mut tree = Tree::new(0);
        let a = tree.add_leaf(Tree::<i32>::ROOT, 1).unwrap();
        let b = tree.add_leaf(a, 2).unwrap();
        let c = tree.add_leaf(a, 3).unwrap();
        let d = tree.add_leaf(b, 4).unwrap();
        let e = tree.add_leaf(Tree::<i32>::ROOT, 5).unwrap();
        assert_eq!(tree.iter_subtree(a).collect::<Vec<_>>(), vec![a, b, d, c]);
        assert_eq!(tree.subtree_size(a), 4);
        assert_eq!(tree.subtree_size(e), 1);
        assert_eq!(tree.subtree_size(Tree::<i32>::ROOT), 6);
        assert_eq!(tree.subtree_size(CacheId::from_index(99)), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CacheId::from_index(7).to_string(), "#7");
        let err = UnknownCacheId(CacheId::from_index(7));
        assert_eq!(err.to_string(), "cache id #7 is not present in the tree");
    }

    #[test]
    fn serde_round_trip() {
        let (tree, _) = chain(3);
        let json = serde_json::to_string(&tree).unwrap();
        let back: Tree<usize> = serde_json::from_str(&json).unwrap();
        assert_eq!(tree, back);
    }
}
