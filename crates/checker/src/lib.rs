//! Bounded-exhaustive model checking and randomized trace exploration for
//! the ADORE model.
//!
//! Rust has no proof assistant, so this crate is the reproduction's
//! *executable certification* layer: the safety theorems of the paper are
//! validated by visiting every reachable state of small instances
//! ([`explore()`]), probing deep adversarial schedules ([`random_walk`]),
//! and replaying directed scripts ([`Scenario`], including the exact
//! Fig. 4/Fig. 12 counterexample schedule as [`fig4_scenario`]). The
//! network-based model gets the same treatment ([`explore_net`]) so the
//! paper's protocol-level-vs-network-level cost argument can be measured.
//!
//! The checkers have teeth: dropping any of the R1⁺/R2/R3 guard bits makes
//! them *find* the corresponding safety violation, with a replayable,
//! JSON-serializable counterexample trace and an ASCII rendering of the
//! offending cache tree.
//!
//! # Examples
//!
//! ```
//! use adore_checker::{explore, ExploreParams};
//! use adore_core::ReconfigGuard;
//! use adore_schemes::SingleNode;
//!
//! // Exhaustively certify a 2-node cluster to depth 3 with reconfiguration.
//! let report = explore(&SingleNode::new([1, 2]), &ExploreParams {
//!     max_depth: 3,
//!     ..ExploreParams::default()
//! });
//! assert!(report.is_safe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1: no hash order, no ambient clock
#![cfg_attr(not(test), deny(clippy::disallowed_methods))] // L12a: no unbounded channel(); L9-L11: no lock
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro))] // L5
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L4/L8: no `let _ =` on a verdict or a recovery result

pub mod explore;
mod net_explore;
mod op;
mod profile;
mod scenario;
mod shrink;
mod walker;

pub use explore::{explore, ExploreParams, ExploreReport, InvariantSuite, CANONICAL_METHOD};
pub use net_explore::{explore_net, NetExploreParams, NetExploreReport};
pub use profile::ExploreProfile;
pub use op::CheckerOp;
pub use scenario::{fig4_scenario, Scenario, ScenarioOutcome};
pub use shrink::{ddmin_with, shrink_net_trace, shrink_sequence, shrink_trace};
pub use walker::{random_walk, WalkParams, WalkReport, WalkViolation};
