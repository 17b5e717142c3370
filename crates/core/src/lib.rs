//! The ADORE model: atomic distributed objects with certified
//! reconfiguration.
//!
//! This crate is an executable reproduction of the protocol-level model from
//! *"Adore: Atomic Distributed Objects with Certified Reconfiguration"*
//! (Honoré, Shin, Kim, Shao — PLDI 2022). ADORE represents the complete
//! history of a reconfigurable consensus protocol — committed states,
//! partial failures, leader elections, and configuration changes — as a
//! single append-only **cache tree**, and reduces all network communication
//! to four atomic operations:
//!
//! * [`AdoreState::pull`] — a leader election (adds an `ECache`),
//! * [`AdoreState::invoke`] — a method invocation (adds an `MCache`),
//! * [`AdoreState::reconfig`] — a "hot" configuration change (adds an
//!   `RCache` that takes effect immediately),
//! * [`AdoreState::push`] — a commit (splices in a `CCache`).
//!
//! The model is generic over the reconfiguration scheme through the
//! [`Configuration`] trait (the paper's `mbrs`/`isQuorum`/`R1⁺` parameters);
//! the sibling crate `adore-schemes` provides Raft single-node, Raft joint
//! consensus, primary-backup, dynamic-quorum and other instantiations, and
//! `adore-checker` exhaustively certifies the safety invariants in
//! [`invariants`] over every reachable state of small clusters.
//!
//! # Quickstart
//!
//! ```
//! use adore_core::majority::Majority;
//! use adore_core::{
//!     invariants, node_set, AdoreState, NodeId, PullDecision, PushDecision, Timestamp,
//! };
//!
//! // A three-replica object whose methods are strings.
//! let mut st: AdoreState<Majority, &str> = AdoreState::new(Majority::new([1, 2, 3]));
//!
//! // S1 wins an election supported by {S1, S2} at timestamp 1 ...
//! st.pull(NodeId(1), &PullDecision::Ok {
//!     supporters: node_set([1, 2]),
//!     time: Timestamp(1),
//! })?;
//! // ... invokes a method, and commits it with a quorum.
//! let m = st.invoke(NodeId(1), "put(a, 1)").applied().unwrap();
//! st.push(NodeId(1), &PushDecision::Ok {
//!     supporters: node_set([1, 3]),
//!     target: m,
//! })?;
//!
//! assert_eq!(st.committed_log(), vec![m]);
//! assert!(invariants::check_all(&st).is_empty());
//! # Ok::<(), adore_core::OracleError>(())
//! ```
//!
//! # Map to the paper
//!
//! | Paper artifact | Here |
//! |---|---|
//! | `Σ_Adore`, `TimeMap` (Fig. 6) | [`AdoreState`] |
//! | `Cache` variants (Fig. 6/24) | [`Cache`] |
//! | `Config`/`mbrs`/`isQuorum`/`R1⁺` (Fig. 7) | [`Configuration`] |
//! | `>` on caches (Fig. 9) | [`Cache::key`] / [`CacheOrderKey`] |
//! | Operations (Figs. 8, 10, 28) | methods on [`AdoreState`] |
//! | Valid oracles (Figs. 11, 27) | [`PullDecision`]/[`PushDecision`] validation |
//! | R2/R3/`canReconf` | [`AdoreState::r2_holds`]/[`AdoreState::r3_holds`]/[`ReconfigGuard`] |
//! | `rdist`, safety, lemmas (§4, App. B) | [`invariants`] |
//! | CADO (no reconfiguration) | [`cado::CadoState`] |

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1: no hash order, no ambient clock
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro))] // L5
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L4/L8: no `let _ =` on a verdict or a recovery result

pub mod builder;
mod cache;
pub mod cado;
mod config;
pub mod enumerate;
pub mod extensions;
pub mod invariants;
pub mod majority;
pub mod render;
mod state;
pub mod telemetry;

pub use cache::{Cache, CacheKind, CacheOrderKey};
pub use config::{
    check_overlap, check_reflexive, node_set, Configuration, NodeId, NodeSet, Timestamp, Version,
};
pub use invariants::Violation;
pub use state::{
    AdoreState, LocalOutcome, NoOpReason, OracleError, PullDecision, PullOutcome, PushDecision,
    PushOutcome, ReconfigGuard,
};

// Re-exported so downstream crates can name tree handles without adding a
// direct dependency on the substrate crate.
pub use adore_tree::{CacheId, Tree};
