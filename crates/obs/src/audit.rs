//! The trace auditor: re-certifies a run from its journal alone.
//!
//! The live run's verdict ("safe" / "violation") is computed by code
//! holding the actual protocol state. The auditor trusts none of that:
//! it reconstructs every replica's `(term, log, commit_len)` purely
//! from the trace's [`EventKind::StateDelta`] and
//! [`EventKind::WalRecover`] events and re-evaluates committed-prefix
//! agreement (the paper's Def. 4.1, network form) over the
//! reconstruction. A trace is *certified* when the journal is
//! structurally sound (dense, causal, monotone) **and** the audit's
//! independent verdict matches the live run's recorded one — including
//! reproducing a violation verdict on an unsafe run.
//!
//! Trace invariants checked:
//!
//! - **T1 completeness/order** — sequence numbers dense from 0, the
//!   virtual clock never runs backwards.
//! - **T2 causality** — every receive links to an earlier send of the
//!   same message to the same recipient.
//! - **T3 committed-prefix agreement** — after every reconstructed
//!   state change, all pairs of replicas agree slot-by-slot on their
//!   common committed prefix (and no watermark dangles past its log).
//! - **T4 commit monotonicity** — a replica's watermark never regresses
//!   except through crash recovery.
//! - **T5 recovery faithfulness** — a clean-crash (`lose-tail`)
//!   recovery installs exactly the durable state the trace last synced;
//!   a wiped disk recovers to nothing.
//! - **T6 verdict consistency** — the audit's divergence verdict agrees
//!   with the live run's recorded [`EventKind::Verdict`].
//! - **T7 session exactly-once** — every acknowledged `(client, seq)`
//!   session pair ([`EventKind::SessionAck`]) appears in some replica's
//!   final committed prefix (zero acked-write loss), and no replica's
//!   committed prefix applies the same pair twice (zero duplicate
//!   applies). Session pairs are extracted generically from the
//!   canonical-JSON committed entries, so the auditor needs no protocol
//!   types.

use crate::event::{EventKind, TraceEvent};
use std::collections::{BTreeMap, BTreeSet};

/// How many structural errors the auditor collects before truncating
/// (a mangled journal would otherwise report every line).
const MAX_ERRORS: usize = 20;

/// A committed-prefix disagreement found by the audit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Divergence {
    /// First replica of the disagreeing pair (== `b` for a dangling
    /// watermark).
    pub a: u32,
    /// Second replica of the disagreeing pair.
    pub b: u32,
    /// Sequence number of the event after which the disagreement first
    /// held.
    pub seq: u64,
}

impl std::fmt::Display for Divergence {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.a == self.b {
            write!(
                f,
                "S{} commit watermark dangles past its log (event {})",
                self.a, self.seq
            )
        } else {
            write!(
                f,
                "S{} and S{} disagree on a committed slot (event {})",
                self.a, self.b, self.seq
            )
        }
    }
}

/// The auditor's findings over one trace journal.
#[derive(Debug, Clone)]
#[must_use]
pub struct AuditReport {
    /// Events audited.
    pub events: usize,
    /// Distinct replicas reconstructed.
    pub nodes: usize,
    /// Evaluation counts per trace invariant, in invariant order.
    pub checks: Vec<(String, u64)>,
    /// Structural failures (T1/T2/T4/T5), truncated at [`MAX_ERRORS`].
    pub errors: Vec<String>,
    /// The live run's final verdict, if the trace recorded one.
    pub live_safe: Option<bool>,
    /// The live violation's machine tag, when unsafe.
    pub live_kind: Option<String>,
    /// The audit's own committed-prefix verdict.
    pub divergence: Option<Divergence>,
    /// Distinct `(client, seq)` session pairs the trace acknowledged.
    pub acked: usize,
    /// Wire frames the trace recorded as rejected
    /// ([`EventKind::BadFrame`]): checksum, length-cap, or payload
    /// failures. A fault campaign that injects corruption asserts this
    /// is nonzero to prove the rejection path actually ran.
    pub bad_frames: u64,
    /// Whether the audit certifies the trace (see [`audit_events`]).
    pub consistent: bool,
}

impl AuditReport {
    /// One-line human summary of the audit outcome.
    #[must_use]
    pub fn summary(&self) -> String {
        let live = match self.live_safe {
            Some(true) => "safe".to_string(),
            Some(false) => format!(
                "violation ({})",
                self.live_kind.as_deref().unwrap_or("unknown")
            ),
            None => "unrecorded".to_string(),
        };
        let audit = match &self.divergence {
            Some(d) => format!("divergence: {d}"),
            None => "no divergence".to_string(),
        };
        let wire = if self.bad_frames > 0 || self.acked > 0 {
            format!(
                " | {} acked sessions, {} rejected frames",
                self.acked, self.bad_frames
            )
        } else {
            String::new()
        };
        format!(
            "{} events, {} nodes | live verdict: {live} | audit: {audit} | {} structural errors{wire} | {}",
            self.events,
            self.nodes,
            self.errors.len(),
            if self.consistent { "CERTIFIED" } else { "NOT CONSISTENT" },
        )
    }
}

/// One reconstructed replica.
#[derive(Debug, Clone, Default)]
struct Node {
    term: u64,
    log: Vec<String>,
    commit_len: usize,
    /// State as of the last `WalSync` (what a clean crash preserves).
    synced_term: u64,
    synced_log: Vec<String>,
    synced_commit: usize,
    /// Disk fault of the most recent crash, if any.
    last_disk: Option<String>,
}

/// The incremental T1–T7 audit engine.
///
/// One event at a time via [`AuditEngine::ingest`], then
/// [`AuditEngine::finish`] for the final report. The batch entry point
/// [`audit_events`] is a thin driver over this same engine, so the
/// batch and online auditors *cannot* disagree on any event sequence:
/// they are one state machine with two drivers.
///
/// Per-event work is bounded by the reconstruction size (T3 compares
/// prefixes), never by journal length: the engine retains no event
/// history beyond a position-indexed map of sends for T2.
#[derive(Debug, Default)]
pub struct AuditEngine {
    nodes: BTreeMap<u32, Node>,
    checks: BTreeMap<&'static str, u64>,
    errors: Vec<String>,
    divergence: Option<Divergence>,
    live_safe: Option<bool>,
    live_kind: Option<String>,
    /// `(client, seq)` pairs the trace acknowledged to clients.
    acks: BTreeSet<(u64, u64)>,
    /// Rejected wire frames counted from [`EventKind::BadFrame`].
    bad_frames: u64,
    /// `(send.seq, msg, to)` of every `MsgSend`, keyed by journal
    /// position, for T2 parent lookups without the event history.
    sends: BTreeMap<u64, (u64, u32, u32)>,
    /// Events ingested so far (== the next event's expected position).
    pos: u64,
    /// Stamp of the previously ingested event (T1 clock monotonicity).
    last_at: u64,
}

impl AuditEngine {
    /// A fresh engine with nothing ingested.
    #[must_use]
    pub fn new() -> Self {
        AuditEngine::default()
    }

    /// Feed the next journal event through every streaming invariant.
    ///
    /// T1 (density, clock monotonicity), T2 (causality), T3 (committed-
    /// prefix agreement), T4 (commit monotonicity) and T5 (recovery
    /// faithfulness) are all evaluated here, on arrival; only T7's
    /// final sweep and the T6 consistency verdict wait for
    /// [`AuditEngine::finish`]. A divergence is therefore raised on the
    /// *exact* event that completes its evidence — the online auditor's
    /// bounded-window claim rests on this.
    pub fn ingest(&mut self, ev: &TraceEvent) {
        let i = self.pos;
        self.pos += 1;
        self.bump("T1.order");
        if ev.seq != i {
            self.error(format!(
                "event at position {i} has sequence {} (journal incomplete?)",
                ev.seq
            ));
        }
        if ev.at_us < self.last_at {
            self.error(format!(
                "event {}: virtual clock ran backwards ({} < {})",
                ev.seq, ev.at_us, self.last_at
            ));
        }
        self.last_at = ev.at_us;
        if let EventKind::MsgSend { msg, to, .. } = &ev.kind {
            self.sends.insert(i, (ev.seq, *msg, *to));
        }
        self.apply(ev);
    }

    /// Events ingested so far.
    #[must_use]
    pub fn events_ingested(&self) -> u64 {
        self.pos
    }

    /// The first committed-prefix disagreement found, if any.
    #[must_use]
    pub fn divergence(&self) -> Option<Divergence> {
        self.divergence
    }

    /// The first structural (T1/T2/T4/T5/T7) error found, if any.
    #[must_use]
    pub fn first_error(&self) -> Option<&str> {
        self.errors.first().map(String::as_str)
    }

    fn error(&mut self, msg: String) {
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(msg);
        }
    }

    fn bump(&mut self, check: &'static str) {
        *self.checks.entry(check).or_insert(0) += 1;
    }

    /// T3: after `changed` moved, compare it against every other
    /// replica's committed prefix (and against its own log length).
    fn track_agreement(&mut self, changed: u32, seq: u64) {
        if self.divergence.is_some() {
            return; // first divergence is the verdict; keep it
        }
        self.bump("T3.prefix-agreement");
        let Some(n) = self.nodes.get(&changed) else {
            return;
        };
        if n.commit_len > n.log.len() {
            self.divergence = Some(Divergence {
                a: changed,
                b: changed,
                seq,
            });
            return;
        }
        for (&other, o) in &self.nodes {
            if other == changed {
                continue;
            }
            let common = n.commit_len.min(o.commit_len).min(o.log.len());
            if n.log[..common.min(n.log.len())] != o.log[..common] {
                let (a, b) = if changed < other {
                    (changed, other)
                } else {
                    (other, changed)
                };
                self.divergence = Some(Divergence { a, b, seq });
                return;
            }
        }
    }

    fn apply(&mut self, ev: &TraceEvent) {
        match &ev.kind {
            EventKind::MsgRecv { msg, to, .. } => {
                self.bump("T2.causality");
                let linked = ev
                    .parent
                    .and_then(|p| self.sends.get(&p))
                    .is_some_and(|&(send_seq, m, t)| {
                        send_seq < ev.seq && m == *msg && t == *to
                    });
                if !linked {
                    self.error(format!(
                        "event {}: receive of msg {msg} at S{to} has no matching send (parent {:?})",
                        ev.seq, ev.parent
                    ));
                }
            }
            EventKind::StateDelta {
                nid,
                term,
                truncate,
                append,
                commit_len,
            } => {
                let mut regressed = false;
                let node = self.nodes.entry(*nid).or_default();
                if let Some(t) = term {
                    node.term = *t;
                }
                if let Some(l) = truncate {
                    node.log.truncate(*l as usize);
                }
                node.log.extend(append.iter().cloned());
                if let Some(c) = commit_len {
                    let c = *c as usize;
                    regressed = c < node.commit_len;
                    node.commit_len = c;
                }
                if commit_len.is_some() {
                    self.bump("T4.commit-monotone");
                    if regressed {
                        self.error(format!(
                            "event {}: S{nid} commit watermark regressed outside recovery",
                            ev.seq
                        ));
                    }
                }
                self.track_agreement(*nid, ev.seq);
            }
            EventKind::WalSync { nid } => {
                let node = self.nodes.entry(*nid).or_default();
                node.synced_term = node.term;
                node.synced_log = node.log.clone();
                node.synced_commit = node.commit_len;
            }
            EventKind::Crash { nid, disk } => {
                let node = self.nodes.entry(*nid).or_default();
                node.last_disk = Some(disk.clone());
            }
            EventKind::WalRecover {
                nid,
                outcome,
                term,
                log,
                commit_len,
            } => {
                self.bump("T5.recovery-faithful");
                let seq = ev.seq;
                let mut fault: Option<String> = None;
                let node = self.nodes.entry(*nid).or_default();
                let disk = node.last_disk.clone();
                match outcome.as_str() {
                    "intact" => {
                        if disk.as_deref() == Some("lose-tail") {
                            let want_commit = node.synced_commit.min(node.synced_log.len());
                            let faithful = *term == node.synced_term
                                && *log == node.synced_log
                                && (*commit_len as usize == node.synced_commit
                                    || *commit_len as usize == want_commit);
                            if !faithful {
                                fault = Some(format!(
                                    "event {seq}: S{nid} clean-crash recovery does not match its last synced state"
                                ));
                            }
                        }
                        node.term = *term;
                        node.log = log.clone();
                        node.commit_len = *commit_len as usize;
                    }
                    "data-loss" => {
                        if !log.is_empty() || *commit_len != 0 {
                            fault = Some(format!(
                                "event {seq}: S{nid} data-loss recovery installed non-empty state"
                            ));
                        }
                        node.term = 0;
                        node.log.clear();
                        node.commit_len = 0;
                        node.synced_term = 0;
                        node.synced_log.clear();
                        node.synced_commit = 0;
                    }
                    "corrupt" => {} // fail-stop: nothing installed
                    other => {
                        fault = Some(format!(
                            "event {seq}: S{nid} unknown recovery outcome `{other}`"
                        ));
                    }
                }
                if let Some(msg) = fault {
                    self.error(msg);
                }
                self.track_agreement(*nid, ev.seq);
            }
            EventKind::Verdict { safe, kind, .. } => {
                self.bump("T6.verdict-consistency");
                self.live_safe = Some(*safe);
                if !safe {
                    self.live_kind = kind.clone();
                }
            }
            EventKind::SessionAck { client, seq, .. } => {
                self.acks.insert((*client, *seq));
            }
            EventKind::BadFrame { .. } => {
                self.bad_frames += 1;
            }
            _ => {}
        }
    }

    /// T7: exactly-once session certification over the final
    /// reconstruction. Every acknowledged `(client, seq)` must survive
    /// in some replica's committed prefix, and no replica may have
    /// applied a pair twice.
    fn certify_sessions(&mut self) {
        let mut applied: BTreeSet<(u64, u64)> = BTreeSet::new();
        let mut dupes: Vec<String> = Vec::new();
        let mut scanned = 0u64;
        for (&nid, node) in &self.nodes {
            let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
            let commit = node.commit_len.min(node.log.len());
            for raw in node.log.iter().take(commit) {
                let Some((client, seq)) = session_pair(raw) else {
                    continue;
                };
                scanned += 1;
                if !seen.insert((client, seq)) {
                    dupes.push(format!(
                        "S{nid}: session (client {client}, seq {seq}) applied twice in the committed prefix"
                    ));
                }
                applied.insert((client, seq));
            }
        }
        let checked = scanned + self.acks.len() as u64;
        if checked > 0 {
            *self.checks.entry("T7.session-exactly-once").or_insert(0) += checked;
        }
        for msg in dupes {
            self.error(msg);
        }
        let lost: Vec<(u64, u64)> = self
            .acks
            .iter()
            .filter(|pair| !applied.contains(pair))
            .copied()
            .collect();
        for (client, seq) in lost {
            self.error(format!(
                "acked write (client {client}, seq {seq}) is in no replica's committed prefix"
            ));
        }
    }

    /// Close out the audit: run T7's final sweep over the
    /// reconstruction, settle T6 verdict consistency, and produce the
    /// report. Certification semantics are documented on
    /// [`audit_events`], which is exactly this engine driven over a
    /// whole journal.
    pub fn finish(mut self) -> AuditReport {
        if self.pos == 0 {
            self.error("empty trace".to_string());
        }

        // T7: acked sessions must survive, committed prefixes must
        // apply each at most once — evaluated over the final
        // reconstruction.
        // Returns unit: its verdicts accumulate into self.errors, which
        // T6 consumes below.
        self.certify_sessions();

        // T6: does the audit's independent verdict agree with the live
        // one?
        let consistent = match self.live_safe {
            Some(true) | None => self.divergence.is_none() && self.errors.is_empty(),
            Some(false) => {
                if self.live_kind.as_deref() == Some("LogDivergence") {
                    // The trace must exhibit the divergence on its own.
                    self.divergence.is_some()
                } else {
                    // Other violation kinds (lost writes, stale reads,
                    // durability breaches) are found by checkers whose
                    // evidence (client ghost state, WAL mirrors) is
                    // beyond the protocol-state reconstruction; the
                    // trace is consistent as long as it does not
                    // *contradict* the verdict.
                    true
                }
            }
        };

        AuditReport {
            events: self.pos as usize,
            nodes: self.nodes.len(),
            checks: self
                .checks
                .iter()
                .map(|(k, v)| ((*k).to_string(), *v))
                .collect(),
            errors: self.errors,
            live_safe: self.live_safe,
            live_kind: self.live_kind,
            divergence: self.divergence,
            acked: self.acks.len(),
            bad_frames: self.bad_frames,
            consistent,
        }
    }
}

/// Extracts the exactly-once session pair from a committed entry's
/// canonical JSON, if the entry carries a client operation. Stays
/// protocol-agnostic: any nested object with integer `client` and `seq`
/// fields and a non-null `op` counts; config entries and no-op barrier
/// entries (`op: null`) do not.
fn session_pair(raw: &str) -> Option<(u64, u64)> {
    let v: serde_json::JsonValue = serde_json::from_str(raw).ok()?;
    find_session(&v)
}

/// Depth-first search for a session envelope inside a JSON value.
fn find_session(v: &serde_json::JsonValue) -> Option<(u64, u64)> {
    use serde_json::JsonValue as V;
    match v {
        V::Object(pairs) => {
            let field = |name: &str| pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v);
            if let (Some(V::UInt(client)), Some(V::UInt(seq)), Some(op)) =
                (field("client"), field("seq"), field("op"))
            {
                if !matches!(op, V::Null) {
                    return Some((*client, *seq));
                }
            }
            pairs.iter().find_map(|(_, inner)| find_session(inner))
        }
        V::Array(items) => items.iter().find_map(find_session),
        _ => None,
    }
}

/// Audits a parsed trace journal.
///
/// Certification (`consistent == true`) means:
///
/// - the journal is non-empty, dense, clock-monotone, and causally
///   linked (T1/T2), with no T4/T5 structural errors, **when** the live
///   run recorded itself safe — an unsafe run is past the protocol's
///   guarantees, so only its divergence must be reproduced; and
/// - the audit's independent committed-prefix verdict matches the live
///   one: a live `LogDivergence` verdict is reproduced from the
///   reconstruction alone, and a live safe verdict is confirmed by
///   finding no divergence.
pub fn audit_events(events: &[TraceEvent]) -> AuditReport {
    let mut engine = AuditEngine::new();
    for ev in events {
        engine.ingest(ev);
    }
    engine.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, at_us: u64, parent: Option<u64>, kind: EventKind) -> TraceEvent {
        TraceEvent {
            seq,
            at_us,
            parent,
            kind,
        }
    }

    fn delta(
        seq: u64,
        nid: u32,
        append: &[&str],
        commit_len: Option<u64>,
    ) -> TraceEvent {
        ev(
            seq,
            seq * 10,
            None,
            EventKind::StateDelta {
                nid,
                term: None,
                truncate: None,
                append: append.iter().map(|s| (*s).to_string()).collect(),
                commit_len,
            },
        )
    }

    fn verdict(seq: u64, safe: bool, kind: Option<&str>) -> TraceEvent {
        ev(
            seq,
            seq * 10,
            None,
            EventKind::Verdict {
                safe,
                kind: kind.map(str::to_string),
                detail: None,
                phase: 0,
            },
        )
    }

    #[test]
    fn clean_agreeing_trace_certifies() {
        let events = vec![
            delta(0, 1, &["x"], Some(1)),
            delta(1, 2, &["x"], Some(1)),
            verdict(2, true, None),
        ];
        let report = audit_events(&events);
        assert!(report.consistent, "{:?}", report.errors);
        assert_eq!(report.divergence, None);
        assert_eq!(report.nodes, 2);
    }

    #[test]
    fn committed_prefix_disagreement_is_found_and_matches_live_verdict() {
        let events = vec![
            delta(0, 1, &["x"], Some(1)),
            delta(1, 2, &["y"], Some(1)),
            verdict(2, false, Some("LogDivergence")),
        ];
        let report = audit_events(&events);
        let d = report.divergence.expect("audit finds the divergence");
        assert_eq!((d.a, d.b, d.seq), (1, 2, 1));
        assert!(report.consistent, "divergence verdict reproduced");
    }

    #[test]
    fn divergent_trace_claiming_safe_is_inconsistent() {
        let events = vec![
            delta(0, 1, &["x"], Some(1)),
            delta(1, 2, &["y"], Some(1)),
            verdict(2, true, None),
        ];
        assert!(!audit_events(&events).consistent);
    }

    #[test]
    fn live_divergence_verdict_without_trace_evidence_is_inconsistent() {
        let events = vec![
            delta(0, 1, &["x"], Some(1)),
            verdict(1, false, Some("LogDivergence")),
        ];
        assert!(!audit_events(&events).consistent);
    }

    #[test]
    fn dangling_watermark_is_a_self_divergence() {
        let events = vec![
            delta(0, 1, &["x"], Some(5)),
            verdict(1, false, Some("LogDivergence")),
        ];
        let report = audit_events(&events);
        let d = report.divergence.unwrap();
        assert_eq!((d.a, d.b), (1, 1));
        assert!(report.consistent);
    }

    #[test]
    fn sequence_gap_and_clock_regression_are_structural_errors() {
        let mut events = vec![delta(0, 1, &["x"], Some(1)), delta(2, 1, &[], Some(1))];
        events[1].at_us = 3; // before event 0's stamp of 0*10=0? make regression explicit
        events[0].at_us = 100;
        let report = audit_events(&events);
        assert!(!report.consistent);
        assert_eq!(report.errors.len(), 2, "{:?}", report.errors);
    }

    #[test]
    fn receive_without_matching_send_is_a_causality_error() {
        let events = vec![
            ev(
                0,
                0,
                None,
                EventKind::MsgSend {
                    msg: 7,
                    from: 1,
                    to: 2,
                    kind: "commit".into(),
                    dup: false,
                },
            ),
            ev(
                1,
                5,
                Some(0),
                EventKind::MsgRecv {
                    msg: 7,
                    to: 3, // wrong recipient: send was addressed to 2
                    applied: true,
                },
            ),
        ];
        let report = audit_events(&events);
        assert!(!report.consistent);
        assert!(report.errors[0].contains("no matching send"));
    }

    #[test]
    fn clean_crash_recovery_must_restore_the_synced_state() {
        let mut events = vec![
            delta(0, 1, &["x"], Some(1)),
            ev(1, 20, None, EventKind::WalSync { nid: 1 }),
            ev(
                2,
                30,
                None,
                EventKind::Crash {
                    nid: 1,
                    disk: "lose-tail".into(),
                },
            ),
            ev(
                3,
                40,
                None,
                EventKind::WalRecover {
                    nid: 1,
                    outcome: "intact".into(),
                    term: 0,
                    log: vec!["x".into()],
                    commit_len: 1,
                },
            ),
        ];
        assert!(audit_events(&events).consistent);
        // Tamper: claim a different recovered log.
        if let EventKind::WalRecover { log, .. } = &mut events[3].kind {
            *log = vec!["forged".into()];
        }
        let report = audit_events(&events);
        assert!(!report.consistent);
        assert!(report.errors[0].contains("does not match its last synced state"));
    }

    #[test]
    fn wiped_disk_must_recover_to_nothing() {
        let events = vec![
            delta(0, 1, &["x"], Some(1)),
            ev(1, 10, None, EventKind::WalSync { nid: 1 }),
            ev(
                2,
                20,
                None,
                EventKind::Crash {
                    nid: 1,
                    disk: "wipe-all".into(),
                },
            ),
            ev(
                3,
                30,
                None,
                EventKind::WalRecover {
                    nid: 1,
                    outcome: "data-loss".into(),
                    term: 0,
                    log: vec!["x".into()],
                    commit_len: 0,
                },
            ),
        ];
        let report = audit_events(&events);
        assert!(!report.consistent);
        assert!(report.errors[0].contains("non-empty state"));
    }

    #[test]
    fn empty_trace_does_not_certify() {
        assert!(!audit_events(&[]).consistent);
    }

    #[test]
    fn non_divergence_violations_do_not_require_trace_evidence() {
        let events = vec![
            delta(0, 1, &["x"], Some(1)),
            verdict(1, false, Some("LostWrite")),
        ];
        assert!(audit_events(&events).consistent);
    }

    /// A committed entry carrying the session envelope, in the wire
    /// runtime's canonical shape.
    fn entry(client: u64, seq: u64) -> String {
        format!(
            r#"{{"time":1,"cmd":{{"Method":{{"client":{client},"seq":{seq},"op":{{"Put":{{"key":"k","value":"v"}}}}}}}}}}"#
        )
    }

    fn ack(seq: u64, at: u64, client: u64, s: u64) -> TraceEvent {
        ev(
            seq,
            at,
            None,
            EventKind::SessionAck {
                client,
                seq: s,
                dup: false,
            },
        )
    }

    #[test]
    fn acked_session_in_the_committed_prefix_certifies() {
        let e = entry(7, 3);
        let events = vec![
            delta(0, 1, &[e.as_str()], Some(1)),
            ack(1, 20, 7, 3),
            verdict(2, true, None),
        ];
        let report = audit_events(&events);
        assert!(report.consistent, "{:?}", report.errors);
        assert_eq!(report.acked, 1);
    }

    #[test]
    fn acked_session_missing_from_every_prefix_is_a_lost_write() {
        let events = vec![
            delta(0, 1, &["\"x\""], Some(1)),
            ack(1, 20, 7, 3),
            verdict(2, true, None),
        ];
        let report = audit_events(&events);
        assert!(!report.consistent);
        assert!(
            report.errors.iter().any(|e| e.contains("no replica's committed prefix")),
            "{:?}",
            report.errors
        );
    }

    #[test]
    fn the_same_session_applied_twice_is_a_duplicate_apply() {
        let e = entry(7, 3);
        let events = vec![
            delta(0, 1, &[e.as_str(), e.as_str()], Some(2)),
            verdict(1, true, None),
        ];
        let report = audit_events(&events);
        assert!(!report.consistent);
        assert!(
            report.errors.iter().any(|e| e.contains("applied twice")),
            "{:?}",
            report.errors
        );
    }

    /// Uncommitted tail entries and no-op barriers (`op: null`) are
    /// outside T7's scope: only the committed prefix is certified.
    #[test]
    fn noops_and_uncommitted_entries_are_outside_session_scope() {
        let noop = r#"{"time":2,"cmd":{"Method":{"client":0,"seq":0,"op":null}}}"#;
        let e = entry(7, 3);
        let events = vec![
            delta(0, 1, &[noop, &e, &e], Some(2)), // second copy of `e` is uncommitted
            verdict(1, true, None),
        ];
        let report = audit_events(&events);
        assert!(report.consistent, "{:?}", report.errors);
    }

    #[test]
    fn bad_frames_are_counted_into_the_report() {
        let events = vec![
            ev(
                0,
                0,
                None,
                EventKind::BadFrame {
                    nid: 2,
                    reason: "corrupt".into(),
                },
            ),
            ev(
                1,
                5,
                None,
                EventKind::BadFrame {
                    nid: 3,
                    reason: "bad-payload".into(),
                },
            ),
            verdict(2, true, None),
        ];
        let report = audit_events(&events);
        assert!(report.consistent, "{:?}", report.errors);
        assert_eq!(report.bad_frames, 2);
    }
}
