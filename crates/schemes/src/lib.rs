//! Reconfiguration scheme instantiations for the ADORE model.
//!
//! ADORE's safety theorem is parametric in the configuration type: any
//! implementation of [`adore_core::Configuration`] satisfying REFLEXIVE and
//! OVERLAP (Fig. 7 of the paper) inherits safety *for free*. This crate
//! provides the paper's six instantiations (§6 plus the "two others"
//! mentioned in §7) and an exhaustive validator discharging the two
//! assumptions over bounded universes:
//!
//! | Scheme | Type | Quorums | `R1⁺` |
//! |---|---|---|---|
//! | [`SingleNode`] | Raft single-node (§6) | majority | differ by ≤ 1 node |
//! | [`Joint`] | Raft joint consensus (§6) | majorities of old **and** new | stable→joint→stable |
//! | [`PrimaryBackup`] | chain-replication style (§6) | contains the primary | same primary |
//! | [`DynamicQuorum`] | Vertical-Paxos style (§6) | `q ≤ |S ∩ C|` | nested + pigeonhole |
//! | [`StaticMajority`] | static baseline (CADO) | majority | equality |
//! | [`WeightedMajority`] | weighted votes | weight majority | equality |
//! | [`ManagedPrimary`] | §6's suggested composition | primary-set majority | primaries ± 1, backups free |
//! | [`ByzantineQuorum`] | §9's BFT direction | `2f+1` of `3f+1` | nested ± 3 (adjacent `f`) |
//!
//! # Validating a scheme
//!
//! ```
//! use adore_core::node_set;
//! use adore_schemes::{powerset_configs, validate, SingleNode};
//!
//! let configs = powerset_configs(&node_set([1, 2, 3, 4]), SingleNode::from_set);
//! assert!(validate(&configs).is_valid());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1, closing the cone under the replayable crates

mod byzantine;
mod dynamic_quorum;
mod joint;
mod managed_primary;
mod primary_backup;
mod single_node;
mod space;
mod validate;
mod weighted;

pub use byzantine::ByzantineQuorum;
pub use dynamic_quorum::DynamicQuorum;
pub use joint::Joint;
pub use managed_primary::ManagedPrimary;
pub use primary_backup::PrimaryBackup;
pub use single_node::SingleNode;
pub use space::ReconfigSpace;
pub use validate::{powerset_configs, validate, ValidationReport};
pub use weighted::WeightedMajority;

/// The static-majority baseline scheme (re-exported from `adore-core`,
/// where it doubles as the built-in example configuration).
pub use adore_core::majority::Majority as StaticMajority;

impl ReconfigSpace for StaticMajority {
    fn candidates(&self, _universe: &adore_core::NodeSet) -> Vec<Self> {
        // R1⁺ is equality: re-proposing the current configuration is the
        // only legal "change".
        vec![self.clone()]
    }
}

impl ReconfigSpace for WeightedMajority {
    fn candidates(&self, _universe: &adore_core::NodeSet) -> Vec<Self> {
        vec![self.clone()]
    }
}
