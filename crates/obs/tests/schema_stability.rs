//! The trace-journal JSONL schema and the metrics-snapshot JSON schema
//! are compatibility surfaces: a journal written by one release must
//! audit under the next, and archived experiment snapshots must stay
//! loadable. These tests pin the exact wire form of **every**
//! [`EventKind`] variant, of the [`TraceEvent`] envelope, and of
//! [`MetricsSnapshot`].
//!
//! If one of these tests fails, a serialization change has broken every
//! trace journal in the wild. Add a new variant with a new pinned form
//! instead of changing an existing one.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5

use adore_obs::{
    audit_events, parse_jsonl, to_jsonl, EventKind, HistogramSnapshot, MetricsSnapshot,
    TraceEvent, Tracer,
};

/// Every event-kind variant, paired with its pinned wire form.
fn pinned_kinds() -> Vec<(EventKind, &'static str)> {
    vec![
        (
            EventKind::RunStart {
                name: "w".into(),
                members: vec![1, 2, 3],
            },
            r#"{"RunStart":{"name":"w","members":[1,2,3]}}"#,
        ),
        (
            EventKind::PhaseStart {
                index: 2,
                label: "HealAll".into(),
            },
            r#"{"PhaseStart":{"index":2,"label":"HealAll"}}"#,
        ),
        (
            EventKind::MsgSend {
                msg: 7,
                from: 1,
                to: 3,
                kind: "commit".into(),
                dup: false,
            },
            r#"{"MsgSend":{"msg":7,"from":1,"to":3,"kind":"commit","dup":false}}"#,
        ),
        (
            EventKind::MsgDrop {
                msg: 7,
                from: 1,
                to: 2,
                reason: "cut".into(),
            },
            r#"{"MsgDrop":{"msg":7,"from":1,"to":2,"reason":"cut"}}"#,
        ),
        (
            EventKind::MsgRecv {
                msg: 7,
                to: 3,
                applied: true,
            },
            r#"{"MsgRecv":{"msg":7,"to":3,"applied":true}}"#,
        ),
        (
            EventKind::LocalStep {
                op: "elect".into(),
                nid: 2,
                applied: true,
            },
            r#"{"LocalStep":{"op":"elect","nid":2,"applied":true}}"#,
        ),
        (
            EventKind::LeaderElected { nid: 2, term: 5 },
            r#"{"LeaderElected":{"nid":2,"term":5}}"#,
        ),
        (
            EventKind::ReconfigCommitted {
                nid: 2,
                members: vec![1, 2, 4],
            },
            r#"{"ReconfigCommitted":{"nid":2,"members":[1,2,4]}}"#,
        ),
        (
            EventKind::StateDelta {
                nid: 3,
                term: Some(5),
                truncate: Some(2),
                append: vec![r#"{"k":"a"}"#.into()],
                commit_len: None,
            },
            r#"{"StateDelta":{"nid":3,"term":5,"truncate":2,"append":["{\"k\":\"a\"}"],"commit_len":null}}"#,
        ),
        (
            EventKind::WalAppend {
                nid: 3,
                records: 2,
                bytes: 96,
            },
            r#"{"WalAppend":{"nid":3,"records":2,"bytes":96}}"#,
        ),
        (EventKind::WalSync { nid: 3 }, r#"{"WalSync":{"nid":3}}"#),
        (
            EventKind::Crash {
                nid: 1,
                disk: "lose-tail".into(),
            },
            r#"{"Crash":{"nid":1,"disk":"lose-tail"}}"#,
        ),
        (
            EventKind::WalRecover {
                nid: 1,
                outcome: "data-loss".into(),
                term: 4,
                log: vec!["\"e\"".into()],
                commit_len: 1,
            },
            r#"{"WalRecover":{"nid":1,"outcome":"data-loss","term":4,"log":["\"e\""],"commit_len":1}}"#,
        ),
        (
            EventKind::FaultInject {
                fault: r#""HealAll""#.into(),
            },
            r#"{"FaultInject":{"fault":"\"HealAll\""}}"#,
        ),
        (EventKind::Heal, r#""Heal""#),
        (
            EventKind::ClientOp {
                op: "put".into(),
                key: "k0".into(),
                outcome: "acked".into(),
                latency_us: Some(800),
            },
            r#"{"ClientOp":{"op":"put","key":"k0","outcome":"acked","latency_us":800}}"#,
        ),
        (
            EventKind::SessionAck {
                client: 9,
                seq: 4,
                dup: true,
            },
            r#"{"SessionAck":{"client":9,"seq":4,"dup":true}}"#,
        ),
        (
            EventKind::AvailabilityWindow {
                index: 3,
                attempted: 20,
                acked: 17,
                refused: 1,
                lost: 2,
            },
            r#"{"AvailabilityWindow":{"index":3,"attempted":20,"acked":17,"refused":1,"lost":2}}"#,
        ),
        (
            EventKind::BadFrame {
                nid: 2,
                reason: "corrupt".into(),
            },
            r#"{"BadFrame":{"nid":2,"reason":"corrupt"}}"#,
        ),
        (
            EventKind::LockPoisoned {
                nid: 1,
                lock: "clients".into(),
            },
            r#"{"LockPoisoned":{"nid":1,"lock":"clients"}}"#,
        ),
        (
            EventKind::InvariantEval {
                name: "log-safety".into(),
                ok: true,
            },
            r#"{"InvariantEval":{"name":"log-safety","ok":true}}"#,
        ),
        (
            EventKind::Verdict {
                safe: false,
                kind: Some("LogDivergence".into()),
                detail: Some("nodes 1 and 2".into()),
                phase: 6,
            },
            r#"{"Verdict":{"safe":false,"kind":"LogDivergence","detail":"nodes 1 and 2","phase":6}}"#,
        ),
        (
            EventKind::RunEnd { committed: 12 },
            r#"{"RunEnd":{"committed":12}}"#,
        ),
        (
            EventKind::TraceDropped { nid: 2, count: 17 },
            r#"{"TraceDropped":{"nid":2,"count":17}}"#,
        ),
        (
            EventKind::MetricsScrape { nid: 1, series: 14 },
            r#"{"MetricsScrape":{"nid":1,"series":14}}"#,
        ),
    ]
}

#[test]
fn every_event_kind_serializes_to_its_pinned_form() {
    for (kind, pinned) in pinned_kinds() {
        assert_eq!(
            serde_json::to_string(&kind).unwrap(),
            pinned,
            "wire form of {} changed",
            kind.tag()
        );
    }
}

#[test]
fn every_event_kind_round_trips_from_its_pinned_form() {
    for (kind, pinned) in pinned_kinds() {
        let back: EventKind = serde_json::from_str(pinned).unwrap();
        assert_eq!(back, kind, "pinned form {pinned} no longer parses back");
    }
}

#[test]
fn the_trace_event_envelope_is_pinned() {
    // Raw envelopes are decoded from the pinned text, the way a reader
    // of an old journal meets them: `TraceEvent` is `#[non_exhaustive]`,
    // so only `obs` itself can build one field by field.
    let root_text = r#"{"seq":0,"at_us":0,"parent":null,"kind":"Heal"}"#;
    let root: TraceEvent = serde_json::from_str(root_text).unwrap();
    assert_eq!(
        (root.seq, root.at_us, root.parent, &root.kind),
        (0, 0, None, &EventKind::Heal)
    );
    assert_eq!(serde_json::to_string(&root).unwrap(), root_text);

    let linked_text = concat!(
        r#"{"seq":1,"at_us":250,"parent":0,"#,
        r#""kind":{"MsgRecv":{"msg":7,"to":3,"applied":true}}}"#
    );
    let linked: TraceEvent = serde_json::from_str(linked_text).unwrap();
    let kind = EventKind::MsgRecv {
        msg: 7,
        to: 3,
        applied: true,
    };
    assert_eq!(
        (linked.seq, linked.at_us, linked.parent, &linked.kind),
        (1, 250, Some(0), &kind)
    );
    assert_eq!(serde_json::to_string(&linked).unwrap(), linked_text);
}

#[test]
fn a_journal_holding_every_variant_round_trips_through_jsonl() {
    let mut tracer = Tracer::enabled();
    for (i, (kind, _)) in pinned_kinds().into_iter().enumerate() {
        tracer.record(i as u64 * 10, kind);
    }
    let events = tracer.take();
    let jsonl = to_jsonl(&events);
    // One line per event, every line compact JSON.
    assert_eq!(jsonl.lines().count(), events.len());
    let back = parse_jsonl(&jsonl).unwrap();
    assert_eq!(back, events);
}

#[test]
fn the_metrics_snapshot_form_is_pinned() {
    let snap = MetricsSnapshot {
        counters: vec![("net.msgs_sent".into(), 42)],
        gauges: vec![("cluster.size".into(), 3)],
        histograms: vec![(
            "request_latency_us".into(),
            HistogramSnapshot {
                count: 2,
                sum: 900,
                min: 400,
                max: 500,
                bounds: vec![450],
                counts: vec![1, 1],
            },
        )],
    };
    let pinned = concat!(
        r#"{"counters":[["net.msgs_sent",42]],"gauges":[["cluster.size",3]],"#,
        r#""histograms":[["request_latency_us",{"count":2,"sum":900,"#,
        r#""min":400,"max":500,"bounds":[450],"counts":[1,1]}]]}"#
    );
    assert_eq!(serde_json::to_string(&snap).unwrap(), pinned);
    let back: MetricsSnapshot = serde_json::from_str(pinned).unwrap();
    assert_eq!(back, snap);
}

/// A tiny hand-built journal must audit: the auditor accepts any journal
/// whose events are dense, causally sane, and verdict-consistent — not
/// just journals produced by the live simulation.
#[test]
fn a_hand_built_clean_journal_audits_consistent() {
    let mut tracer = Tracer::enabled();
    tracer.record(
        0,
        EventKind::RunStart {
            name: "hand".into(),
            members: vec![1],
        },
    );
    tracer.record(
        10,
        EventKind::Verdict {
            safe: true,
            kind: None,
            detail: None,
            phase: 0,
        },
    );
    tracer.record(20, EventKind::RunEnd { committed: 0 });
    let report = audit_events(&tracer.take());
    assert!(report.consistent, "errors: {:?}", report.errors);
    assert!(report.divergence.is_none());
}
