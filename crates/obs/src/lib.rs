//! Deterministic observability for the ADORE reproduction.
//!
//! The paper's evaluation (§7) reasons from *observed* runs: latency
//! under live reconfiguration, checking effort, counterexample traces.
//! This crate makes every run of this workspace produce first-class
//! evidence of the same kind:
//!
//! - [`Tracer`] — an append-only structured event journal stamped with
//!   the simulation's **virtual** clocks (never wall clock, never RNG:
//!   a traced run is bit-identical to an untraced one), serialized as
//!   JSONL with causal parent links.
//! - [`Metrics`] — a registry of counters, gauges, and fixed-bucket
//!   [`Histogram`]s for the quantities the experiments report:
//!   explorer states/sec, invariant evaluations per lemma, quorum
//!   checks, message and WAL traffic, per-request latency.
//! - [`audit_events`] — the trace auditor: reconstructs protocol state
//!   purely from the journal and re-certifies committed-prefix
//!   agreement over the reconstruction, confirming (or independently
//!   reproducing) the live run's verdict. `adore-obs --audit
//!   trace.jsonl` is the CLI form, wired into CI.
//! - [`linearize`] — the one client-visible check: is a recorded client
//!   history (its `ClientOp` events) linearizable? The auditor runs it
//!   as T8; the simulated fault harness calls it directly.
//! - [`OnlineAuditor`] / [`StreamMerger`] — the same audit engine
//!   driven incrementally over live exported streams (each a node's
//!   journal files, in full), merged deterministically under a
//!   virtual-clock watermark into [`merge_journals`]'s order, so the
//!   online report is the batch one; and
//!   [`render_prometheus`] — the pure text-exposition renderer behind
//!   each node's `/metrics` endpoint.
//!
//! The crate deliberately depends on nothing but the vendored serde
//! stand-ins: instrumented crates (`adore-kv`, `adore-nemesis`,
//! `adore-checker`) depend on it, never the reverse, and the auditor
//! treats protocol payloads as opaque canonical-JSON strings.

// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1: no hash order, no ambient clock
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro))] // L5

mod audit;
mod event;
mod linearize;
mod metrics;
mod online;
mod prom;
mod results;
mod trace;

pub use audit::{audit_events, AuditEngine, AuditReport, Divergence};
pub use event::{EventKind, TraceEvent};
pub use linearize::{linearize, Anomaly, Call, NotLinearizable};
pub use metrics::{
    Histogram, HistogramSnapshot, Metrics, MetricsSnapshot, LATENCY_BOUNDS_US,
};
pub use online::{OnlineAuditor, StreamMerger, Verdict};
pub use prom::{render_prometheus, series_count};
pub use results::write_json_report;
pub use trace::{merge_journals, parse_jsonl, to_jsonl, TraceError, Tracer};

/// Parses a JSONL journal and audits it in one step.
///
/// # Errors
///
/// A [`TraceError`] if any line fails to parse (the audit never runs
/// over a partially parsed journal).
pub fn audit_jsonl(text: &str) -> Result<AuditReport, TraceError> {
    Ok(audit_events(&parse_jsonl(text)?))
}
