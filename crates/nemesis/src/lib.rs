//! Nemesis: a composable fault-injection engine with safety checking
//! under adversarial schedules.
//!
//! The crate turns the repository's deterministic simulation stack into a
//! robustness harness in four pieces:
//!
//! - [`FaultSchedule`] / [`Fault`] — the serializable language of
//!   adversarial campaigns: healable asymmetric and symmetric partitions,
//!   message duplication and bounded reordering, crash-restart storms,
//!   leader flapping, clock-skewed timeouts, reconfiguration churn racing
//!   client traffic. [`random_schedule`] generates bounded seeded
//!   campaigns; everything round-trips through JSON and replays
//!   deterministically.
//! - [`RobustClient`] — a production-shaped client driver (per-request
//!   timeout, capped exponential backoff with seeded jitter,
//!   leader-redirect retry) that records an operation history and a ghost
//!   state of what its acknowledgements oblige the cluster to return.
//! - [`run_schedule`] / [`hunt`] — the engine: boots an
//!   [`adore_kv::Cluster`], applies each fault, asserts
//!   committed-prefix agreement and read-your-committed-writes after
//!   every phase and at quiesce, reports per-phase availability in a
//!   [`DegradedReport`], and on violation minimizes the schedule with the
//!   checker's delta-debugging into a replayable [`Counterexample`].
//! - [`NetHarness`] — the same schedules against the untimed
//!   network-level model ([`adore_raft::NetState`]), for
//!   cross-validation that a violation is a protocol property, not a
//!   timing artifact.
//!
//! The scripted schedules in [`r1_ablation_schedule`],
//! [`r2_ablation_schedule`], and [`r3_ablation_schedule`] re-enact the
//! paper's guard-ablation bugs (Fig. 4/Fig. 12) purely as composable
//! faults: each diverges under its ablated guard at *both* simulation
//! levels and is harmless under [`adore_core::ReconfigGuard::all`].
//!
//! Since the durable-storage subsystem landed, schedules also carry a
//! [`DurabilityPolicy`] and can inject crash-time disk faults
//! ([`Fault::CrashDisk`] with a [`DiskFault`]: torn record, bit-flip
//! corruption, media wipe) and unacked orphan writes
//! ([`Fault::OrphanWrite`]). The storage counterparts of the guard
//! ablations — [`storage_no_fsync_schedule`],
//! [`storage_no_checksum_schedule`], [`storage_keep_tail_schedule`] —
//! each defeat one ablated storage discipline and are harmless under
//! [`DurabilityPolicy::strict`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1: no hash order, no ambient clock
#![cfg_attr(not(test), deny(clippy::disallowed_methods))] // L12a: no unbounded channel(); L9-L11: no lock
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro))] // L5

mod client;
mod engine;
mod net_adapter;
mod netmesis;
mod schedule;
mod scripted;

pub use client::{ClientParams, OpOutcome, OpRecord, RobustClient, ViolationKind};
pub use engine::{
    hunt, replay, run_schedule, run_schedule_traced, Counterexample, DegradedReport, EngineParams,
    NemesisReport, PhaseStat,
};
pub use net_adapter::NetHarness;
pub use netmesis::{
    compile_schedule, gate_schedules, netmesis_schedule, swap_labels, NetCounterexample,
    WireAction, WireStep, WireTimeline,
};
pub use schedule::{random_schedule, Fault, FaultSchedule, RandomScheduleParams};
pub use scripted::{
    ablation_suite, r1_ablation_schedule, r2_ablation_schedule, r3_ablation_schedule,
    storage_ablation_suite, storage_keep_tail_schedule, storage_no_checksum_schedule,
    storage_no_fsync_schedule,
};

// Re-exported so schedule authors need not depend on `adore-storage`
// directly.
pub use adore_storage::{DiskFault, DurabilityPolicy};
