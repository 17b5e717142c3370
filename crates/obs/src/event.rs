//! The structured trace event model.
//!
//! Every observable action of a run — a message send, a WAL sync, an
//! invariant evaluation — is one [`TraceEvent`]: a sequence number, a
//! virtual-clock stamp, an optional causal parent, and an [`EventKind`]
//! payload. Events are append-only and serialized one-per-line as JSON
//! (JSONL), so a trace journal can be streamed, grepped, and audited
//! without loading a run's whole history into a structured store.
//!
//! Determinism: events carry *virtual* microseconds only. Nothing in
//! this module reads a wall clock, so two runs from the same seed emit
//! byte-identical journals.

use serde::{Deserialize, Serialize};

/// One entry of a trace journal.
///
/// `seq` is assigned densely from 0 by the [`crate::Tracer`]; the
/// auditor's completeness check (T1) rejects journals with gaps.
/// `parent` is the `seq` of the event that causally produced this one
/// (a receive points at its send, a state delta at the delivery that
/// caused it); `None` for roots.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct TraceEvent {
    /// Dense journal position, starting at 0.
    pub seq: u64,
    /// Virtual-clock stamp in microseconds (never wall clock).
    pub at_us: u64,
    /// Causal parent event, if any.
    pub parent: Option<u64>,
    /// What happened.
    pub kind: EventKind,
}

/// The payload of a [`TraceEvent`].
///
/// Protocol payloads that the auditor must replay exactly (log entries,
/// fault descriptions) are embedded as their canonical compact-JSON
/// strings rather than as typed fields: the observability crate stays
/// protocol-agnostic, and string equality of canonical JSON coincides
/// with equality of the underlying values.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A run began (a nemesis schedule, an experiment, a bench phase).
    RunStart {
        /// Human-readable run name (e.g. the schedule name).
        name: String,
        /// Initial configuration members.
        members: Vec<u32>,
    },
    /// A new phase of the run began (e.g. one fault of a schedule).
    PhaseStart {
        /// Phase index, from 0.
        index: u32,
        /// Human-readable phase label.
        label: String,
    },
    /// A message copy was put in flight from `from` to `to`.
    MsgSend {
        /// Protocol message id.
        msg: u32,
        /// Sender.
        from: u32,
        /// Recipient of this copy.
        to: u32,
        /// Message kind ("elect" or "commit").
        kind: String,
        /// Whether this copy is a network-injected duplicate.
        dup: bool,
    },
    /// A message copy was lost before delivery.
    MsgDrop {
        /// Protocol message id.
        msg: u32,
        /// Sender.
        from: u32,
        /// Intended recipient.
        to: u32,
        /// Why it was lost ("cut" or "loss").
        reason: String,
    },
    /// A message copy arrived and was offered to the protocol.
    /// `parent` links to the matching [`EventKind::MsgSend`].
    MsgRecv {
        /// Protocol message id.
        msg: u32,
        /// Recipient.
        to: u32,
        /// Whether the protocol applied it (vs. rejected/ignored).
        applied: bool,
    },
    /// A candidate won its election.
    LeaderElected {
        /// The new leader.
        nid: u32,
        /// Its term (logical timestamp).
        term: u64,
    },
    /// A configuration-change entry committed.
    ReconfigCommitted {
        /// The leader that drove the change.
        nid: u32,
        /// The new membership.
        members: Vec<u32>,
    },
    /// A replica's durable projection changed: the same diff that is
    /// journaled to its WAL, in order (term adoption, truncation of a
    /// divergent suffix, appended entries, watermark advance). The
    /// auditor replays exactly these deltas to reconstruct per-node
    /// state.
    StateDelta {
        /// The replica whose state changed.
        nid: u32,
        /// New term, if adopted.
        term: Option<u64>,
        /// Log length truncated to, if a divergent suffix was dropped.
        truncate: Option<u64>,
        /// Appended entries, as canonical compact-JSON strings.
        append: Vec<String>,
        /// New commit watermark, if advanced (or regressed).
        commit_len: Option<u64>,
    },
    /// A replica's WAL was synced (one modeled `fsync`).
    WalSync {
        /// The replica.
        nid: u32,
    },
    /// A replica crashed, its disk suffering the given fault.
    Crash {
        /// The replica.
        nid: u32,
        /// Crash-time disk fault kind ("lose-tail", "torn-tail",
        /// "corrupt-record", "wipe-all").
        disk: String,
    },
    /// A crashed replica recovered by WAL replay, installing the given
    /// state. The log is embedded (as canonical JSON strings) so the
    /// auditor's reconstruction stays exact across recoveries.
    WalRecover {
        /// The replica.
        nid: u32,
        /// Replay outcome ("intact", "data-loss", "corrupt").
        outcome: String,
        /// Installed term.
        term: u64,
        /// Installed log, entries as canonical compact-JSON strings.
        log: Vec<String>,
        /// Installed commit watermark.
        commit_len: u64,
    },
    /// The fault engine injected a fault.
    FaultInject {
        /// The fault, as its canonical compact-JSON string.
        fault: String,
    },
    /// The fault engine healed all standing network faults.
    Heal,
    /// A client operation completed (or definitively failed). The
    /// event's own stamp is the completion time; with `invoked_at_us`
    /// and `value` it is one call of the history the auditor's
    /// linearizability check (T8) judges.
    ClientOp {
        /// Operation kind ("put", "get").
        op: String,
        /// Key touched.
        key: String,
        /// Outcome ("acked" for a put that was acknowledged or a get
        /// that returned; "timed-out", "no-leader", "rejected", ...
        /// otherwise).
        outcome: String,
        /// Request latency in microseconds, when acked.
        latency_us: Option<u64>,
        /// The value written, or the value read (`None`: absent).
        value: Option<String>,
        /// When the client invoked the operation, on the stamp's clock.
        invoked_at_us: u64,
    },
    /// A sessioned write was acknowledged to a client. The auditor's
    /// session certification (T7) demands that every acknowledged
    /// `(client, seq)` pair appears in the reconstructed cluster-wide
    /// committed prefix — the journal-level form of "zero acked-write
    /// loss" — and at most once per replica ("zero duplicate applies").
    SessionAck {
        /// The acknowledged session's client id.
        client: u64,
        /// The acknowledged sequence number.
        seq: u64,
        /// Whether the ack deduplicated a retry (the write was already
        /// applied; exactly-once showing itself).
        dup: bool,
    },
    /// One window of the availability monitor's per-window ledger:
    /// how many operations were attempted, acknowledged, definitively
    /// refused (guard/session refusals), or lost (attempts exhausted
    /// with no definitive reply) during the window.
    AvailabilityWindow {
        /// Window index, from 0.
        index: u32,
        /// Operations attempted in the window.
        attempted: u32,
        /// Operations acknowledged.
        acked: u32,
        /// Operations definitively refused.
        refused: u32,
        /// Operations with no definitive outcome (ambiguous).
        lost: u32,
    },
    /// A node rejected an inbound wire frame: checksum mismatch,
    /// oversized length prefix, or a crc-valid payload that failed to
    /// parse (protocol-version confusion). The connection is dropped;
    /// the event is the end-to-end proof that the rejection path ran.
    BadFrame {
        /// The rejecting node.
        nid: u32,
        /// Why ("corrupt", "oversized", "bad-payload").
        reason: String,
    },
    /// The live run evaluated an invariant.
    InvariantEval {
        /// Invariant name (e.g. "log-safety").
        name: String,
        /// Whether it held.
        ok: bool,
    },
    /// The live run's safety verdict at a checkpoint.
    Verdict {
        /// Whether the run was safe at this point.
        safe: bool,
        /// Machine-readable violation tag when unsafe (e.g.
        /// "LogDivergence").
        kind: Option<String>,
        /// Human-readable violation description when unsafe.
        detail: Option<String>,
        /// Phase index the verdict was taken after.
        phase: u32,
    },
    /// The run ended.
    RunEnd {
        /// Entries committed over the run.
        committed: u64,
    },
    /// A read-only `/metrics` scrape was served by a node's endpoint.
    /// Journaled through the node's single-writer event loop so the
    /// scrape layer (the only place wall clocks are allowed) never
    /// writes the journal itself.
    MetricsScrape {
        /// The scraped node.
        nid: u32,
        /// Number of series (counters + gauges + histograms) rendered.
        series: u32,
    },
}

impl EventKind {
    /// The [`EventKind::ClientOp`] of one call that ran from
    /// `invoked_at_us` to `done_us` (its writer stamps it then):
    /// `outcome` is "acked", or why the call was not; only an acked call
    /// has a latency.
    #[must_use]
    pub fn client_op(
        op: &str,
        key: &str,
        value: Option<String>,
        (invoked_at_us, done_us): (u64, u64),
        outcome: &str,
    ) -> EventKind {
        EventKind::ClientOp {
            op: op.to_string(),
            key: key.to_string(),
            outcome: outcome.to_string(),
            latency_us: (outcome == "acked").then(|| done_us.saturating_sub(invoked_at_us)),
            value,
            invoked_at_us,
        }
    }

    /// A short machine-readable tag for the event kind (used by
    /// metrics and summaries).
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            EventKind::RunStart { .. } => "run-start",
            EventKind::PhaseStart { .. } => "phase-start",
            EventKind::MsgSend { .. } => "msg-send",
            EventKind::MsgDrop { .. } => "msg-drop",
            EventKind::MsgRecv { .. } => "msg-recv",
            EventKind::LeaderElected { .. } => "leader-elected",
            EventKind::ReconfigCommitted { .. } => "reconfig-committed",
            EventKind::StateDelta { .. } => "state-delta",
            EventKind::WalSync { .. } => "wal-sync",
            EventKind::Crash { .. } => "crash",
            EventKind::WalRecover { .. } => "wal-recover",
            EventKind::FaultInject { .. } => "fault-inject",
            EventKind::Heal => "heal",
            EventKind::ClientOp { .. } => "client-op",
            EventKind::SessionAck { .. } => "session-ack",
            EventKind::AvailabilityWindow { .. } => "availability-window",
            EventKind::BadFrame { .. } => "bad-frame",
            EventKind::InvariantEval { .. } => "invariant-eval",
            EventKind::Verdict { .. } => "verdict",
            EventKind::RunEnd { .. } => "run-end",
            EventKind::MetricsScrape { .. } => "metrics-scrape",
        }
    }
}

impl TraceEvent {
    /// Construct a parentless event at the given stamp with `seq` 0.
    ///
    /// For events that live outside a [`crate::Tracer`]'s dense journal
    /// — a node's per-line journal records, or events streamed to a
    /// merger that renumbers on release. A run's own trace should keep
    /// coming from the tracer, which owns dense numbering and causal
    /// parents.
    #[must_use]
    pub fn root(at_us: u64, kind: EventKind) -> Self {
        TraceEvent { seq: 0, at_us, parent: None, kind }
    }
}
