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
//! - **T8 linearizability** — the client history the trace recorded
//!   ([`EventKind::ClientOp`] events) is linearizable, key by key
//!   ([`crate::linearize`]).

use crate::event::{EventKind, TraceEvent};
use crate::linearize::{linearize, NotLinearizable};
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// Client operations the trace recorded (T8's input).
    pub client_ops: usize,
    /// T8's verdict: the first key whose client history is not
    /// linearizable.
    pub not_linearizable: Option<NotLinearizable>,
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
        let history = match &self.not_linearizable {
            Some(v) => format!(" | {v}"),
            None if self.client_ops > 0 => {
                format!(" | {} client ops linearizable", self.client_ops)
            }
            None => String::new(),
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
            "{} events, {} nodes | live verdict: {live} | audit: {audit}{history} | {} structural errors{wire} | {}",
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
    /// `log[..unsynced]` is `synced_log[..unsynced]`: the first slot a
    /// `WalSync` must copy.
    unsynced: usize,
    /// Disk fault of the most recent crash, if any.
    last_disk: Option<String>,
}

impl Node {
    /// Replaces the log, returning the first slot that changed.
    fn replace_log(&mut self, log: &[String]) -> usize {
        let kept = self.log.iter().zip(log).take_while(|(a, b)| a == b).count();
        self.log.truncate(kept);
        self.log.extend_from_slice(&log[kept..]);
        self.unsynced = self.unsynced.min(kept);
        kept
    }

    /// `WalSync`: the synced copy catches up with the log, slots from
    /// `unsynced` on only.
    fn sync(&mut self) {
        self.synced_term = self.term;
        self.synced_log.truncate(self.unsynced);
        self.synced_log
            .extend_from_slice(&self.log[self.unsynced..]);
        self.synced_commit = self.commit_len;
        self.unsynced = self.log.len();
    }
}

/// The incremental T1–T8 audit engine.
///
/// One event at a time via [`AuditEngine::ingest`], then
/// [`AuditEngine::finish`] for the final report. The batch entry point
/// [`audit_events`] is a thin driver over this same engine, so the
/// batch and online auditors *cannot* disagree on any event sequence:
/// they are one state machine with two drivers.
///
/// Per-event work is bounded by what the event changed, never by log or
/// journal length: T3 re-compares only the slots past a per-pair
/// watermark of verified agreement, a `WalSync` copies only the slots
/// changed since the last one, and the engine retains no event history
/// beyond a position-indexed map of sends for T2 and the client
/// operations T8 judges at the end. (Comparing whole prefixes and
/// copying whole logs instead made an audit quadratic in log length.)
#[derive(Debug, Default)]
pub struct AuditEngine {
    nodes: BTreeMap<u32, Node>,
    /// Per pair of replicas `(a, b)`, `a < b`: a length up to which their
    /// logs are known to agree slot by slot (never past either log).
    agreed: BTreeMap<(u32, u32), usize>,
    /// Test-only: run T3 and `WalSync` the whole-prefix way, as the
    /// reference the incremental audit is checked against.
    #[cfg(test)]
    whole: bool,
    checks: BTreeMap<&'static str, u64>,
    errors: Vec<String>,
    divergence: Option<Divergence>,
    live_safe: Option<bool>,
    live_kind: Option<String>,
    /// `(client, seq)` pairs the trace acknowledged to clients.
    acks: BTreeSet<(u64, u64)>,
    /// Rejected wire frames counted from [`EventKind::BadFrame`].
    bad_frames: u64,
    /// The client history: every [`EventKind::ClientOp`], for T8.
    client_ops: Vec<TraceEvent>,
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
    /// final sweep, T8 over the whole client history and the T6
    /// consistency verdict wait for [`AuditEngine::finish`]. A
    /// divergence is therefore raised on the *exact* event that
    /// completes its evidence — the online auditor's bounded-window
    /// claim rests on this.
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

    /// `nid`'s log changed from slot `from` on: no pair involving it is
    /// known to agree past that slot any more.
    fn rewrote(&mut self, nid: u32, from: usize) {
        for ((a, b), agreed) in &mut self.agreed {
            if *a == nid || *b == nid {
                *agreed = (*agreed).min(from);
            }
        }
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
            // `common` is within both logs: `n`'s watermark is within
            // its log (checked above).
            let common = n.commit_len.min(o.commit_len).min(o.log.len());
            let pair = (changed.min(other), changed.max(other));
            #[cfg(test)]
            if self.whole {
                if n.log[..common] != o.log[..common] {
                    self.divergence = Some(Divergence {
                        a: pair.0,
                        b: pair.1,
                        seq,
                    });
                    return;
                }
                continue;
            }
            let agreed = self.agreed.entry(pair).or_insert(0);
            if common <= *agreed {
                continue;
            }
            if n.log[*agreed..common] != o.log[*agreed..common] {
                self.divergence = Some(Divergence {
                    a: pair.0,
                    b: pair.1,
                    seq,
                });
                return;
            }
            *agreed = common;
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
                let cut = truncate.map(|l| (l as usize).min(node.log.len()));
                if let Some(l) = cut {
                    node.log.truncate(l);
                    node.unsynced = node.unsynced.min(l);
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
                if let Some(l) = cut {
                    self.rewrote(*nid, l);
                }
                self.track_agreement(*nid, ev.seq);
            }
            EventKind::WalSync { nid } => {
                let node = self.nodes.entry(*nid).or_default();
                #[cfg(test)]
                if self.whole {
                    node.unsynced = 0;
                }
                node.sync();
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
                let mut rewrote = None;
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
                        rewrote = Some(node.replace_log(log));
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
                        node.unsynced = 0;
                        rewrote = Some(0);
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
                if let Some(from) = rewrote {
                    self.rewrote(*nid, from);
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
            EventKind::ClientOp { .. } => self.client_ops.push(ev.clone()),
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
    /// reconstruction and T8 over the client history, settle T6
    /// verdict consistency, and produce the report. Certification
    /// semantics are documented on [`audit_events`], which is exactly
    /// this engine driven over a whole journal.
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

        // T8: the recorded client history must be linearizable.
        if !self.client_ops.is_empty() {
            *self.checks.entry("T8.linearizable").or_insert(0) += self.client_ops.len() as u64;
        }
        let not_linearizable = linearize(&self.client_ops).err();

        // T6: does the audit's independent verdict agree with the live
        // one?
        let consistent = match self.live_safe {
            Some(true) | None => {
                self.divergence.is_none() && self.errors.is_empty() && not_linearizable.is_none()
            }
            // The trace must exhibit a divergence or a history anomaly
            // on its own.
            Some(false) => match self.live_kind.as_deref() {
                Some("LogDivergence") => self.divergence.is_some(),
                Some("NotLinearizable") => not_linearizable.is_some(),
                // Durability breaches are found by a checker whose
                // evidence (WAL mirrors) is beyond the reconstruction;
                // the trace is consistent as long as it does not
                // *contradict* the verdict.
                _ => true,
            },
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
            client_ops: self.client_ops.len(),
            not_linearizable,
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
    session_in(&v)
}

/// Depth-first search for a session envelope inside a JSON value.
fn session_in(v: &serde_json::JsonValue) -> Option<(u64, u64)> {
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
            pairs.iter().find_map(|(_, inner)| session_in(inner))
        }
        V::Array(items) => items.iter().find_map(session_in),
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
/// - the audit's independent verdicts match the live one: a live
///   `LogDivergence` verdict is reproduced from the reconstruction
///   alone, a live `NotLinearizable` verdict from the recorded client
///   history alone, and a live safe verdict is confirmed by finding
///   neither.
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
            verdict(1, false, Some("AckNotDurable")),
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

    /// One replica as the journal generator keeps it.
    #[derive(Clone, Default)]
    struct Replica {
        log: Vec<String>,
        commit: u64,
        synced: (Vec<String>, u64),
    }

    /// A seeded journal of three replicas: a leader (which changes, now
    /// and then to a node that missed entries) appends and commits,
    /// followers adopt its log (truncating a divergent tail), replicas
    /// sync — sometimes a rogue committed append or a regressed
    /// watermark — and crash with `lose-tail` (a faithful recovery, or
    /// once in a while a forged one), `wipe-all` or `kill-9` recoveries.
    fn random_journal(seed: u64, len: u64) -> Vec<TraceEvent> {
        // SplitMix64: the crate takes no random-number dependency.
        let mut state = seed;
        let mut below = move |n: u64| {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            (z ^ (z >> 31)) % n
        };
        let mut nodes: BTreeMap<u32, Replica> = (1..=3).map(|n| (n, Replica::default())).collect();
        let mut leader = 1;
        let mut events = Vec::new();
        let mut push = |kind: EventKind| {
            let at = events.len() as u64;
            events.push(ev(at, at, None, kind));
        };
        for seq in 0..len {
            let nid = 1 + below(3) as u32;
            let delta = |nid, truncate, append, commit_len| EventKind::StateDelta {
                nid,
                term: None,
                truncate,
                append,
                commit_len,
            };
            match below(14) {
                0..=3 => {
                    let append: Vec<String> =
                        (0..1 + below(3)).map(|i| format!("{seq}.{i}")).collect();
                    let lead = nodes.get_mut(&leader).unwrap();
                    lead.log.extend(append.iter().cloned());
                    let commit = (below(2) == 0).then(|| {
                        lead.commit = lead.commit.max(below(lead.log.len() as u64 + 1));
                        lead.commit
                    });
                    push(delta(leader, None, append, commit));
                }
                4..=6 => {
                    let lead = nodes[&leader].clone();
                    let follower = nodes.get_mut(&nid).unwrap();
                    let kept = follower
                        .log
                        .iter()
                        .zip(&lead.log)
                        .take_while(|(a, b)| a == b)
                        .count();
                    let truncate = (kept < follower.log.len()).then_some(kept as u64);
                    follower.log = lead.log.clone();
                    follower.commit = follower.commit.max(lead.commit);
                    let commit = Some(follower.commit);
                    push(delta(nid, truncate, lead.log[kept..].to_vec(), commit));
                }
                9 => {
                    let disk = ["lose-tail", "wipe-all", "kill-9"][below(3) as usize];
                    push(EventKind::Crash {
                        nid,
                        disk: disk.into(),
                    });
                    let node = nodes.get_mut(&nid).unwrap();
                    let (outcome, log, commit) = match disk {
                        "wipe-all" => ("data-loss", Vec::new(), 0),
                        "lose-tail" if below(8) > 0 => {
                            ("intact", node.synced.0.clone(), node.synced.1)
                        }
                        _ => ("intact", node.log.clone(), below(node.log.len() as u64 + 1)),
                    };
                    if outcome == "data-loss" {
                        node.synced = (Vec::new(), 0);
                    }
                    node.log = log.clone();
                    node.commit = commit;
                    if nid == leader {
                        // Leadership passes to a most up-to-date replica.
                        leader = *nodes.iter().max_by_key(|(_, r)| r.log.len()).unwrap().0;
                    }
                    push(EventKind::WalRecover {
                        nid,
                        outcome: outcome.into(),
                        term: 0,
                        log,
                        commit_len: commit,
                    });
                }
                10 => {
                    // Mostly an up-to-date winner; now and then any node.
                    if nodes[&nid].log == nodes[&leader].log || below(30) == 0 {
                        leader = nid;
                    }
                    push(EventKind::LeaderElected { nid, term: seq });
                }
                11 if below(40) == 0 => {
                    let node = nodes.get_mut(&nid).unwrap();
                    node.log.push(format!("rogue{seq}"));
                    node.commit = node.log.len() as u64;
                    push(delta(
                        nid,
                        None,
                        vec![format!("rogue{seq}")],
                        Some(node.commit),
                    ));
                }
                12 if below(20) == 0 => push(delta(nid, None, Vec::new(), Some(0))),
                _ => {
                    let node = nodes.get_mut(&nid).unwrap();
                    node.synced = (node.log.clone(), node.commit);
                    push(EventKind::WalSync { nid });
                }
            }
        }
        let safe = below(2) == 0;
        let kind = (!safe).then(|| "LogDivergence".to_string());
        push(EventKind::Verdict {
            safe,
            kind,
            detail: None,
            phase: 0,
        });
        events
    }

    /// The incremental T3 and `WalSync` against the whole-prefix compare
    /// and whole-log copy they replaced, kept here as the reference: the
    /// same report — divergence and its `seq`, errors, check counts —
    /// on every seeded journal.
    #[test]
    fn the_incremental_audit_reports_what_the_whole_prefix_audit_did() {
        let (mut diverged, mut errored, mut certified) = (0, 0, 0);
        for seed in 0..300 {
            let events = random_journal(seed, 400);
            let mut incremental = AuditEngine::new();
            let mut reference = AuditEngine {
                whole: true,
                ..AuditEngine::default()
            };
            for e in &events {
                incremental.ingest(e);
                reference.ingest(e);
            }
            let (got, want) = (incremental.finish(), reference.finish());
            assert_eq!(got, want, "seed {seed}");
            diverged += usize::from(got.divergence.is_some());
            errored += usize::from(!got.errors.is_empty());
            certified += usize::from(got.consistent);
        }
        // Every verdict the audit can reach was reached.
        assert!(
            diverged > 30 && diverged < 270,
            "{diverged} diverged, {errored} errored, {certified} certified"
        );
        assert!(
            errored > 30 && certified > 30,
            "{errored} errored, {certified} certified"
        );
    }

    fn client_op(seq: u64, at: u64, op: &str, value: Option<&str>, invoked: u64) -> TraceEvent {
        ev(
            seq,
            at,
            None,
            EventKind::ClientOp {
                op: op.into(),
                key: "k".into(),
                outcome: "acked".into(),
                latency_us: None,
                value: value.map(str::to_string),
                invoked_at_us: invoked,
            },
        )
    }

    /// T8 on a journal: a final read that misses the last acked write
    /// makes a run that called itself safe inconsistent, and a live
    /// `NotLinearizable` verdict is reproduced from the history alone
    /// (and only when the history shows it).
    #[test]
    fn t8_holds_the_client_history_to_linearizability() {
        let stale = vec![
            client_op(0, 10, "put", Some("v1"), 0),
            client_op(1, 30, "put", Some("v2"), 20),
            client_op(2, 50, "get", Some("v1"), 40),
        ];
        let with_verdict = |mut events: Vec<TraceEvent>, safe, kind| {
            let mut last = verdict(events.len() as u64, safe, kind);
            last.at_us = 100;
            events.push(last);
            audit_events(&events)
        };
        let report = with_verdict(stale.clone(), true, None);
        assert!(!report.consistent);
        assert!(
            report.summary().contains("key k is not linearizable"),
            "{}",
            report.summary()
        );
        let v = report.not_linearizable.expect("T8 finds the stale read");
        assert_eq!((v.key.as_str(), v.history.len()), ("k", 3));
        assert!(with_verdict(stale, false, Some("NotLinearizable")).consistent);

        let fresh = vec![
            client_op(0, 10, "put", Some("v1"), 0),
            client_op(1, 30, "put", Some("v2"), 20),
            client_op(2, 50, "get", Some("v2"), 40),
        ];
        let report = with_verdict(fresh.clone(), true, None);
        assert!(report.consistent, "{:?}", report.not_linearizable);
        assert_eq!(report.client_ops, 3);
        assert!(!with_verdict(fresh, false, Some("NotLinearizable")).consistent);
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
