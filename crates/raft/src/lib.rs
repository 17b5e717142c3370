//! Network-based Raft-like protocol, SRaft normalization, and executable
//! refinement to ADORE (Sections 5 and Appendix C of the paper).
//!
//! Three layers, mirroring the paper's refinement stack:
//!
//! 1. **Raft** ([`NetState`], [`NetEvent`]) — an asynchronous network-based
//!    specification: servers with local logs, bags of sent/delivered
//!    requests, and a scheduler-driven `deliver`. Parameterized by the same
//!    [`adore_core::Configuration`] (`isQuorum`/`R1⁺`) and
//!    [`adore_core::ReconfigGuard`] (R2/R3) as ADORE, so the whole family
//!    of reconfiguration schemes — including the historically flawed no-R3
//!    variant — runs at the network level too.
//! 2. **SRaft** ([`normalize`], [`SraftStep`]) — the same state machine
//!    driven by *normalized* traces: invalid deliveries dropped
//!    (Lemma C.3), deliveries globally ordered by logical time
//!    (Lemma C.7), and each request's deliveries grouped atomically
//!    (Lemma C.9). Every rewrite is checked to preserve the network
//!    equivalence `ℝ_net` (Fig. 18) by replaying both traces.
//! 3. **ADORE** ([`check_refinement`]) — each SRaft step is mirrored into a
//!    shadow [`adore_core::AdoreState`] and the refinement relation's
//!    `logMatch` component (Fig. 17) is asserted after every step.
//!
//! ## Modeling note: synchronous acknowledgements
//!
//! Acknowledgement messages are modeled as the synchronous return half of a
//! request delivery rather than as separate network objects: when a replica
//! accepts an election or commit request, the sender processes the
//! vote/acknowledgement in the same atomic step. The interesting
//! asynchrony — which requests reach which replicas, in which order, with
//! loss and duplication — is fully retained (it is also the only kind
//! exercised by the paper's Fig. 14 example); what is factored out is the
//! ack's independent flight time, which only delays the sender's
//! *knowledge* of an already-effective state change. This makes the
//! delivery-grouping rewrite exact and is recorded as a substitution in
//! `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1: no hash order, no ambient clock
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro))] // L5
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L4/L8: no `let _ =` on a verdict or a recovery result

mod net;
mod normalize;
mod refine;
mod sched;
mod types;

pub use net::{EventOutcome, NetState, Rejection, Role, Server};
pub use normalize::{
    atomicize, filter_invalid, globally_order, normalize, segment_counts, NormalizeError, SraftStep,
};
pub use refine::{check_refinement, RefinementReport, RefinementViolation};
pub use sched::{random_trace, ScheduleParams};
pub use types::{effective_config, log_up_to_date, Command, Entry, Log, MsgId, NetEvent, Request};
