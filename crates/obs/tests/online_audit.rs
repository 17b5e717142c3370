//! Online-plane guarantees, property-tested.
//!
//! Two claims carry the live observability plane:
//!
//! 1. **Merge determinism** — however per-node streams interleave on
//!    the wire (push order, poll timing, close timing), the
//!    [`StreamMerger`] releases the same total order, and that order is
//!    exactly what [`merge_journals`] computes from the journals on
//!    disk.
//! 2. **Online ≡ batch** — driving the audit engine over the merged
//!    stream one event at a time produces the same report as the batch
//!    auditor over the same sequence, clean or divergent.
//!
//! Together these mean a live online verdict *is* the post-mortem
//! verdict, just earlier.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5

use proptest::prelude::*;

use adore_obs::{
    audit_events, merge_journals, to_jsonl, EventKind, OnlineAuditor, StreamMerger, TraceEvent,
    Verdict,
};

/// A generated per-stream journal: clock-monotone stamps, mixed kinds.
fn stream_strategy() -> impl Strategy<Value = Vec<TraceEvent>> {
    prop::collection::vec((0u64..50, 0u32..4, any::<bool>()), 0..12).prop_map(|steps| {
        let mut at = 0u64;
        steps
            .into_iter()
            .map(|(dt, nid, sync)| {
                at += dt;
                let kind = if sync {
                    EventKind::WalSync { nid }
                } else {
                    EventKind::StateDelta {
                        nid,
                        term: None,
                        truncate: None,
                        append: vec![format!("\"e{nid}\"")],
                        commit_len: None,
                    }
                };
                TraceEvent::root(at, kind)
            })
            .collect()
    })
}

/// Feeds `streams` into a merger following `schedule` (which stream
/// advances next), polling after every push when `poll_each` asks for
/// it, and returns the full released order.
fn run_interleaving(
    streams: &[Vec<TraceEvent>],
    schedule: &[usize],
    polls: &[bool],
) -> Vec<TraceEvent> {
    let mut merger = StreamMerger::new(streams.len());
    let mut cursors = vec![0usize; streams.len()];
    let mut out = Vec::new();
    for (step, &pick) in schedule.iter().enumerate() {
        // Map the pick onto a stream that still has events to push.
        let remaining: Vec<usize> = (0..streams.len())
            .filter(|&s| cursors[s] < streams[s].len())
            .collect();
        let Some(&s) = remaining.get(pick % remaining.len().max(1)) else {
            break;
        };
        merger.push(s, streams[s][cursors[s]].clone());
        cursors[s] += 1;
        if cursors[s] == streams[s].len() {
            merger.close(s);
        }
        if polls.get(step).copied().unwrap_or(false) {
            out.extend(merger.poll());
        }
    }
    out.extend(merger.drain());
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any two interleavings of the same per-node streams release the
    /// identical merged order, and that order is `merge_journals` of
    /// the same journals on disk.
    #[test]
    fn merge_is_interleaving_deterministic_and_matches_batch_merge(
        streams in prop::collection::vec(stream_strategy(), 1..4),
        sched_a in prop::collection::vec(0usize..8, 0..48),
        polls_a in prop::collection::vec(any::<bool>(), 0..48),
        sched_b in prop::collection::vec(0usize..8, 0..48),
        polls_b in prop::collection::vec(any::<bool>(), 0..48),
    ) {
        let total: usize = streams.iter().map(Vec::len).sum();
        // Pad schedules so every event gets pushed (drain covers the
        // tail either way, but exercise mixed poll/push orders first).
        let mut sa = sched_a; sa.resize(total, 0);
        let mut sb = sched_b; sb.resize(total, 1);
        let a = run_interleaving(&streams, &sa, &polls_a);
        let b = run_interleaving(&streams, &sb, &polls_b);
        prop_assert_eq!(&a, &b, "two interleavings released different orders");

        let texts: Vec<String> = streams.iter().map(|s| to_jsonl(s)).collect();
        let disk = merge_journals(texts.iter().map(String::as_str))
            .expect("generated journals parse");
        prop_assert_eq!(&a, &disk, "live merge diverged from merge_journals");
    }

    /// The online auditor's close-out report equals the batch auditor's
    /// over the identical merged sequence — on arbitrary generated
    /// streams, whether or not they happen to diverge.
    #[test]
    fn online_report_equals_batch_report_on_merged_streams(
        streams in prop::collection::vec(stream_strategy(), 1..4),
    ) {
        let texts: Vec<String> = streams.iter().map(|s| to_jsonl(s)).collect();
        let merged = merge_journals(texts.iter().map(String::as_str))
            .expect("generated journals parse");
        let batch = audit_events(&merged);
        let mut online = OnlineAuditor::new();
        for ev in &merged {
            let _ = online.ingest(ev);
        }
        let live = online.finish();
        prop_assert_eq!(live.consistent, batch.consistent);
        prop_assert_eq!(live.events, batch.events);
        prop_assert_eq!(live.errors, batch.errors);
        prop_assert_eq!(live.divergence, batch.divergence);
        prop_assert_eq!(live.checks, batch.checks);
    }
}

/// A divergence staged across two streams is raised by the online
/// auditor on the exact merged event that completes its evidence, and
/// the verdict survives to the final report.
#[test]
fn staged_two_stream_divergence_is_raised_at_the_completing_event() {
    let delta = |at: u64, nid: u32, entry: &str| {
        TraceEvent::root(
            at,
            EventKind::StateDelta {
                nid,
                term: None,
                truncate: None,
                append: vec![entry.to_string()],
                commit_len: Some(1),
            },
        )
    };
    let mut merger = StreamMerger::new(2);
    merger.push(0, delta(10, 1, "\"x\""));
    merger.push(1, delta(20, 2, "\"y\"")); // same slot, different entry
    let mut auditor = OnlineAuditor::new();
    let mut verdicts = Vec::new();
    for ev in merger.drain() {
        verdicts.push(auditor.ingest(&ev));
    }
    assert!(verdicts[0].is_clean());
    assert!(
        matches!(verdicts[1], Verdict::Diverged(d) if d.seq == 1),
        "divergence raised on the merged event that completed it: {verdicts:?}"
    );
    assert_eq!(auditor.flagged_at(), Some(1));
    let report = auditor.finish();
    assert!(report.divergence.is_some());
}
