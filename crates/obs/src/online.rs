//! The online auditor: live T1–T8 certification over streaming
//! journals.
//!
//! The batch auditor ([`crate::audit_events`]) certifies a run from a
//! merged journal on disk, after the fact. This module runs the *same*
//! audit engine ([`crate::AuditEngine`] — one state machine, two
//! drivers) against event streams as they arrive from a live cluster:
//!
//! - [`StreamMerger`] deterministically merges per-node streams on
//!   virtual-clock order under a watermark: an event is released only
//!   once every open stream has advanced past its stamp, so the merged
//!   order is independent of network interleaving. For clock-monotone
//!   streams the fully drained merge is exactly
//!   [`crate::merge_journals`]'s order (stable sort by stamp, stream
//!   index breaking ties), which is what makes online ≡ batch provable
//!   rather than aspirational.
//! - [`OnlineAuditor`] ingests the merged stream one event at a time
//!   and answers with a [`Verdict`] after every event. Because the
//!   engine evaluates T1–T5 on arrival, a divergence verdict is raised
//!   on the exact merged event that completes its evidence — the
//!   detection lag is bounded by the watermark buffer (events still
//!   in flight from slower streams), never by journal length.

use std::collections::VecDeque;

use crate::audit::{AuditEngine, AuditReport, Divergence};
use crate::event::TraceEvent;

/// The online auditor's answer after ingesting one event.
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use]
pub enum Verdict {
    /// Every invariant evaluated so far holds.
    Clean,
    /// A structural invariant (T1/T2/T4/T5/T7) failed; the first error
    /// is carried verbatim.
    Flagged {
        /// The first structural error, as the engine recorded it.
        error: String,
    },
    /// Committed-prefix agreement (T3) failed — the certified-safety
    /// claim itself. Subsumes `Flagged` when both hold.
    Diverged(Divergence),
}

impl Verdict {
    /// Whether the stream is still fully certified.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        matches!(self, Verdict::Clean)
    }
}

/// Streaming T1–T8 auditor over a merged event stream.
///
/// Feed merged events (from a [`StreamMerger`] or any single journal)
/// through [`OnlineAuditor::ingest`]; every call answers with the
/// current [`Verdict`]. [`OnlineAuditor::finish`] closes the audit with
/// the same [`AuditReport`] the batch auditor would produce over the
/// identical event sequence.
#[derive(Debug, Default)]
pub struct OnlineAuditor {
    engine: AuditEngine,
    flagged_at: Option<u64>,
}

impl OnlineAuditor {
    /// A fresh auditor with nothing ingested.
    #[must_use]
    pub fn new() -> Self {
        OnlineAuditor::default()
    }

    /// Ingest the next merged event and report the stream's verdict.
    pub fn ingest(&mut self, ev: &TraceEvent) -> Verdict {
        self.engine.ingest(ev);
        let v = self.verdict();
        if self.flagged_at.is_none() && !v.is_clean() {
            self.flagged_at = Some(self.engine.events_ingested() - 1);
        }
        v
    }

    /// The verdict over everything ingested so far.
    pub fn verdict(&self) -> Verdict {
        if let Some(d) = self.engine.divergence() {
            Verdict::Diverged(d)
        } else if let Some(e) = self.engine.first_error() {
            Verdict::Flagged { error: e.to_string() }
        } else {
            Verdict::Clean
        }
    }

    /// Merged position of the first event whose ingestion left the
    /// verdict non-clean, if any.
    #[must_use]
    pub fn flagged_at(&self) -> Option<u64> {
        self.flagged_at
    }

    /// Events ingested so far.
    #[must_use]
    pub fn events_ingested(&self) -> u64 {
        self.engine.events_ingested()
    }

    /// Close the audit and produce the full report (T7 sweep, T8, T6
    /// consistency), exactly as the batch auditor would.
    pub fn finish(self) -> AuditReport {
        self.engine.finish()
    }
}

/// One input stream of the merger.
#[derive(Debug, Default)]
struct StreamBuf {
    /// Events not yet released, with their effective stamps.
    buf: VecDeque<(u64, TraceEvent)>,
    /// Running max of stamps seen — the stream's watermark
    /// contribution. Also the lower bound on every future effective
    /// stamp, which is what makes early release safe.
    vtime: u64,
    /// An open stream holds the watermark down; a closed one releases
    /// it.
    open: bool,
}

/// Deterministic watermark merge of per-node event streams.
///
/// Push events per stream as they arrive off the wire; [`poll`]
/// releases, in a deterministic total order, every event whose
/// effective stamp every other open stream has already advanced past.
/// The order is `(stamp, stream index, per-stream arrival order)` —
/// for streams whose stamps are monotone (every journal's are, per
/// T1), a full drain reproduces exactly [`crate::merge_journals`]'s
/// order over the same lines. Released events are renumbered densely
/// from 0 with parents cleared, again mirroring `merge_journals`, so
/// the output is a well-formed T1 journal for the auditor.
///
/// Non-monotone stamps (a buggy exporter) are clamped up to the
/// stream's running max rather than rejected: determinism of the merge
/// must not depend on the streams being well formed. A silent stream
/// stalls the watermark by design — that is the price of determinism —
/// so bounded runs end with [`close`] / [`drain`], which release
/// everything.
///
/// [`poll`]: StreamMerger::poll
/// [`close`]: StreamMerger::close
/// [`drain`]: StreamMerger::drain
#[derive(Debug)]
pub struct StreamMerger {
    streams: Vec<StreamBuf>,
    /// Next output sequence number (dense from 0).
    next_seq: u64,
}

impl StreamMerger {
    /// A merger over `streams` open input streams.
    #[must_use]
    pub fn new(streams: usize) -> Self {
        StreamMerger {
            streams: (0..streams)
                .map(|_| StreamBuf {
                    buf: VecDeque::new(),
                    vtime: 0,
                    open: true,
                })
                .collect(),
            next_seq: 0,
        }
    }

    /// Buffer the next event of stream `idx`. Out-of-range streams are
    /// ignored (a consumer bug must not poison the merge).
    pub fn push(&mut self, idx: usize, ev: TraceEvent) {
        let Some(s) = self.streams.get_mut(idx) else {
            return;
        };
        let stamp = ev.at_us.max(s.vtime);
        s.vtime = stamp;
        s.buf.push_back((stamp, ev));
    }

    /// Mark stream `idx` finished: it no longer holds the watermark
    /// down, and its buffered tail becomes releasable.
    pub fn close(&mut self, idx: usize) {
        if let Some(s) = self.streams.get_mut(idx) {
            s.open = false;
        }
    }

    /// The current watermark: the least virtual time some open stream
    /// might still emit below, or `None` once every stream is closed
    /// (everything is releasable).
    #[must_use]
    pub fn watermark(&self) -> Option<u64> {
        self.streams
            .iter()
            .filter(|s| s.open)
            .map(|s| s.vtime)
            .min()
    }

    /// Release every event strictly below the watermark, in the
    /// deterministic merged order, renumbered densely.
    pub fn poll(&mut self) -> Vec<TraceEvent> {
        let bound = self.watermark();
        self.release(bound)
    }

    /// Close every stream and release everything still buffered.
    pub fn drain(&mut self) -> Vec<TraceEvent> {
        for s in &mut self.streams {
            s.open = false;
        }
        self.release(None)
    }

    /// Events buffered awaiting the watermark.
    #[must_use]
    pub fn pending(&self) -> usize {
        self.streams.iter().map(|s| s.buf.len()).sum()
    }

    fn release(&mut self, below: Option<u64>) -> Vec<TraceEvent> {
        // (stamp, stream index, arrival order) — arrival order within a
        // stream is its buffer order, so popping front-first and
        // sorting stably by (stamp, stream) preserves it.
        let mut ready: Vec<(u64, usize, TraceEvent)> = Vec::new();
        for (idx, s) in self.streams.iter_mut().enumerate() {
            while let Some((stamp, _)) = s.buf.front() {
                let releasable = match below {
                    Some(w) => *stamp < w,
                    None => true,
                };
                if !releasable {
                    break;
                }
                let (stamp, ev) = s.buf.pop_front().expect("front checked");
                ready.push((stamp, idx, ev));
            }
        }
        ready.sort_by_key(|(stamp, idx, _)| (*stamp, *idx));
        ready
            .into_iter()
            .map(|(stamp, _, mut ev)| {
                ev.seq = self.next_seq;
                self.next_seq += 1;
                ev.at_us = stamp;
                ev.parent = None;
                ev
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{audit_events, EventKind};

    fn ev(at_us: u64, nid: u32) -> TraceEvent {
        TraceEvent::root(at_us, EventKind::WalSync { nid })
    }

    #[test]
    fn watermark_holds_events_until_every_stream_passes_them() {
        let mut m = StreamMerger::new(2);
        m.push(0, ev(10, 1));
        m.push(0, ev(20, 1));
        assert!(m.poll().is_empty(), "stream 1 has not spoken yet");
        m.push(1, ev(15, 2));
        let out = m.poll();
        // Watermark is min(20, 15) = 15: only the event at 10 clears.
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].at_us, 10);
        let rest = m.drain();
        assert_eq!(
            rest.iter().map(|e| e.at_us).collect::<Vec<_>>(),
            vec![15, 20]
        );
    }

    #[test]
    fn released_order_is_stamp_then_stream_then_arrival() {
        let mut m = StreamMerger::new(2);
        m.push(1, ev(5, 2));
        m.push(1, ev(5, 2));
        m.push(0, ev(5, 1));
        let out = m.drain();
        let nids: Vec<u32> = out
            .iter()
            .map(|e| match e.kind {
                EventKind::WalSync { nid } => nid,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nids, vec![1, 2, 2], "stream index breaks stamp ties");
        assert_eq!(
            out.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![0, 1, 2],
            "released events are renumbered densely"
        );
    }

    #[test]
    fn closing_a_stream_releases_the_watermark() {
        let mut m = StreamMerger::new(2);
        m.push(0, ev(10, 1));
        assert!(m.poll().is_empty());
        m.close(1);
        m.close(0);
        assert_eq!(m.poll().len(), 1, "no open stream holds it back");
    }

    #[test]
    fn non_monotone_stamps_are_clamped_not_reordered() {
        let mut m = StreamMerger::new(1);
        m.push(0, ev(100, 1));
        m.push(0, ev(40, 1)); // buggy exporter: clock ran backwards
        let out = m.drain();
        assert_eq!(
            out.iter().map(|e| e.at_us).collect::<Vec<_>>(),
            vec![100, 100],
            "clamped up to the stream's running max, order preserved"
        );
    }

    #[test]
    fn online_auditor_flags_divergence_on_the_completing_event() {
        let mut a = OnlineAuditor::new();
        let mk = |seq: u64, nid: u32, entry: &str| TraceEvent {
            seq,
            at_us: seq * 10,
            parent: None,
            kind: EventKind::StateDelta {
                nid,
                term: None,
                truncate: None,
                append: vec![entry.to_string()],
                commit_len: Some(1),
            },
        };
        assert!(a.ingest(&mk(0, 1, "x")).is_clean());
        let v = a.ingest(&mk(1, 2, "y"));
        let Verdict::Diverged(d) = v else {
            panic!("expected divergence, got {v:?}");
        };
        assert_eq!((d.a, d.b, d.seq), (1, 2, 1));
        assert_eq!(a.flagged_at(), Some(1), "raised on the completing event");
    }

    /// The keystone: driving the engine event-by-event (online) and
    /// over the whole slice (batch) is the same computation.
    #[test]
    fn online_finish_equals_batch_report() {
        let entry =
            r#"{"time":1,"cmd":{"Method":{"client":7,"seq":3,"op":{"Put":{"key":"k","value":"v"}}}}}"#;
        let events = vec![
            TraceEvent {
                seq: 0,
                at_us: 0,
                parent: None,
                kind: EventKind::StateDelta {
                    nid: 1,
                    term: Some(1),
                    truncate: None,
                    append: vec![entry.to_string()],
                    commit_len: Some(1),
                },
            },
            TraceEvent {
                seq: 1,
                at_us: 10,
                parent: None,
                kind: EventKind::SessionAck {
                    client: 7,
                    seq: 3,
                    dup: false,
                },
            },
            TraceEvent {
                seq: 2,
                at_us: 20,
                parent: None,
                kind: EventKind::Verdict {
                    safe: true,
                    kind: None,
                    detail: None,
                    phase: 0,
                },
            },
        ];
        let batch = audit_events(&events);
        let mut online = OnlineAuditor::new();
        for e in &events {
            let _ = online.ingest(e);
        }
        let live = online.finish();
        assert_eq!(live.consistent, batch.consistent);
        assert_eq!(live.events, batch.events);
        assert_eq!(live.errors, batch.errors);
        assert_eq!(live.divergence, batch.divergence);
        assert_eq!(live.acked, batch.acked);
        assert_eq!(live.checks, batch.checks);
    }
}
