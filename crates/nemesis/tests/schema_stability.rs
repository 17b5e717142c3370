//! The JSON schema of fault schedules is a compatibility surface: a
//! minimized counterexample saved by one release must replay under the
//! next. These tests pin the exact wire form of **every** [`Fault`]
//! variant (the network/process faults from the original engine and the
//! disk faults added with the storage subsystem) and of the schedule
//! envelope, and they keep pre-storage schedules — which carry no
//! `durability` key — loadable forever.
//!
//! If one of these tests fails, a serialization change has broken every
//! counterexample in the wild. Add a new variant with a new pinned form
//! instead of changing an existing one.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::disallowed_methods)] // L12a: no unbounded channel()
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5

use adore_core::ReconfigGuard;
use adore_nemesis::{
    replay, Counterexample, DiskFault, DurabilityPolicy, EngineParams, Fault, FaultSchedule,
    ViolationKind,
};

/// Every fault variant, paired with its pinned wire form.
fn pinned_faults() -> Vec<(Fault, &'static str)> {
    vec![
        (
            Fault::CutOneWay { from: 1, to: 2 },
            r#"{"CutOneWay":{"from":1,"to":2}}"#,
        ),
        (
            Fault::CutBothWays { a: 1, b: 2 },
            r#"{"CutBothWays":{"a":1,"b":2}}"#,
        ),
        (
            Fault::Partition {
                groups: vec![vec![1, 2], vec![3]],
            },
            r#"{"Partition":{"groups":[[1,2],[3]]}}"#,
        ),
        (
            Fault::HealOneWay { from: 2, to: 1 },
            r#"{"HealOneWay":{"from":2,"to":1}}"#,
        ),
        (Fault::HealAll, r#""HealAll""#),
        (
            Fault::SetLinkLoss {
                from: 1,
                to: 3,
                pct: 40,
            },
            r#"{"SetLinkLoss":{"from":1,"to":3,"pct":40}}"#,
        ),
        (Fault::SetLoss { pct: 10 }, r#"{"SetLoss":{"pct":10}}"#),
        (Fault::Crash { nid: 2 }, r#"{"Crash":{"nid":2}}"#),
        (
            Fault::CrashDisk {
                nid: 2,
                fault: DiskFault::LoseTail,
            },
            r#"{"CrashDisk":{"nid":2,"fault":"LoseTail"}}"#,
        ),
        (
            Fault::CrashDisk {
                nid: 1,
                fault: DiskFault::TornTail { keep_bytes: 3 },
            },
            r#"{"CrashDisk":{"nid":1,"fault":{"TornTail":{"keep_bytes":3}}}}"#,
        ),
        (
            Fault::CrashDisk {
                nid: 3,
                fault: DiskFault::CorruptRecord { record: 2, bit: 17 },
            },
            r#"{"CrashDisk":{"nid":3,"fault":{"CorruptRecord":{"record":2,"bit":17}}}}"#,
        ),
        (
            Fault::CrashDisk {
                nid: 1,
                fault: DiskFault::WipeAll,
            },
            r#"{"CrashDisk":{"nid":1,"fault":"WipeAll"}}"#,
        ),
        (Fault::OrphanWrite, r#""OrphanWrite""#),
        (Fault::CrashLeader, r#""CrashLeader""#),
        (Fault::Recover { nid: 2 }, r#"{"Recover":{"nid":2}}"#),
        (Fault::Elect { nid: 3 }, r#"{"Elect":{"nid":3}}"#),
        (
            Fault::Reconfig {
                members: vec![1, 2, 3],
            },
            r#"{"Reconfig":{"members":[1,2,3]}}"#,
        ),
        (
            Fault::ReconfigAdd { nid: 4 },
            r#"{"ReconfigAdd":{"nid":4}}"#,
        ),
        (
            Fault::ReconfigRemove { nid: 4 },
            r#"{"ReconfigRemove":{"nid":4}}"#,
        ),
        (
            Fault::Duplicate { copies: 3 },
            r#"{"Duplicate":{"copies":3}}"#,
        ),
        (
            Fault::Reorder { window_us: 500 },
            r#"{"Reorder":{"window_us":500}}"#,
        ),
        (
            Fault::SkewTimeout { pct: 150 },
            r#"{"SkewTimeout":{"pct":150}}"#,
        ),
        (
            Fault::ClientBurst { writes: 2 },
            r#"{"ClientBurst":{"writes":2}}"#,
        ),
        (Fault::Idle { us: 1000 }, r#"{"Idle":{"us":1000}}"#),
    ]
}

#[test]
fn every_fault_variant_serializes_to_its_pinned_form() {
    for (fault, pinned) in pinned_faults() {
        assert_eq!(
            serde_json::to_string(&fault).unwrap(),
            pinned,
            "wire form of {fault:?} changed"
        );
    }
}

#[test]
fn every_fault_variant_round_trips_from_its_pinned_form() {
    for (fault, pinned) in pinned_faults() {
        let back: Fault = serde_json::from_str(pinned).unwrap();
        assert_eq!(back, fault, "pinned form {pinned} no longer parses back");
    }
}

#[test]
fn a_schedule_holding_every_variant_round_trips() {
    let schedule = FaultSchedule {
        name: "schema-pin".into(),
        seed: 7,
        members: vec![1, 2, 3, 4, 5],
        guard: ReconfigGuard::all().without_r2(),
        durability: DurabilityPolicy::keep_unsynced_tail(),
        faults: pinned_faults().into_iter().map(|(f, _)| f).collect(),
    };
    let json = serde_json::to_string(&schedule).unwrap();
    let back: FaultSchedule = serde_json::from_str(&json).unwrap();
    assert_eq!(back, schedule);
}

#[test]
fn the_schedule_envelope_is_pinned() {
    let schedule = FaultSchedule {
        name: "envelope".into(),
        seed: 9,
        members: vec![1, 2, 3],
        guard: ReconfigGuard::all(),
        durability: DurabilityPolicy::strict(),
        faults: vec![Fault::HealAll],
    };
    assert_eq!(
        serde_json::to_string(&schedule).unwrap(),
        concat!(
            r#"{"name":"envelope","seed":9,"members":[1,2,3],"#,
            r#""guard":{"r1":true,"r2":true,"r3":true},"#,
            r#""durability":{"sync_before_ack":true,"verify_checksums":true,"#,
            r#""truncate_invalid_tail":true},"faults":["HealAll"]}"#
        )
    );
}

/// A counterexample saved before the observability subsystem carries no
/// `trace` key: it must load with `trace: None`, and an untraced
/// counterexample must serialize without the key — byte-identical to
/// its legacy form.
#[test]
fn counterexamples_without_a_trace_key_keep_their_legacy_wire_form() {
    let legacy = concat!(
        r#"{"schedule":{"name":"w","seed":1,"members":[1,2],"#,
        r#""guard":{"r1":true,"r2":true,"r3":true},"#,
        r#""durability":{"sync_before_ack":true,"verify_checksums":true,"#,
        r#""truncate_invalid_tail":true},"faults":["HealAll"]},"#,
        r#""violation":{"LogDivergence":{"a":1,"b":2}},"original_faults":3}"#
    );
    let cx: Counterexample = serde_json::from_str(legacy).unwrap();
    assert_eq!(cx.trace, None, "a missing trace key must mean no trace");
    assert_eq!(cx.violation, ViolationKind::LogDivergence { a: 1, b: 2 });
    // Re-serializing an untraced counterexample reproduces the legacy
    // bytes exactly — no spurious "trace" key appears.
    assert_eq!(serde_json::to_string(&cx).unwrap(), legacy);
    // A traced counterexample round-trips with the trace intact.
    let traced = Counterexample {
        trace: Some("{\"seq\":0}\n".to_string()),
        ..cx
    };
    let json = serde_json::to_string(&traced).unwrap();
    assert!(json.contains("\"trace\":"));
    let back: Counterexample = serde_json::from_str(&json).unwrap();
    assert_eq!(back, traced);
}

/// A counterexample minimized before the storage subsystem existed has
/// no `durability` key. It must parse to the strict policy — exactly
/// the (perfect-durability) model it was minimized under.
///
/// The PR 1 witness below loads but no longer *replays*: it was minimized
/// against a simulator that broadcast to configuration members only and
/// had no election barrier. On the engine substrate S2's no-op barrier
/// reaches S3 (a leader broadcasts to its whole address book), so S3
/// holds an entry of S2's term and refuses S1's candidacy as outdated.
/// Its re-scripted successor, pinned beside it in the same legacy form,
/// cuts S2's frames to S3 and does replay.
#[test]
fn pre_storage_schedules_without_a_durability_key_still_load_and_replay() {
    // The r3-ablation witness as the PR 1 engine would have saved it.
    let legacy = concat!(
        r#"{"name":"r3-legacy","seed":4,"members":[1,2,3,4],"#,
        r#""guard":{"r1":true,"r2":true,"r3":false},"faults":["#,
        r#"{"Partition":{"groups":[[1],[2,3,4]]}},"#,
        r#"{"Reconfig":{"members":[1,2,3]}},"#,
        r#"{"Elect":{"nid":2}},"#,
        r#"{"Reconfig":{"members":[1,2,4]}},"#,
        r#"{"Partition":{"groups":[[1,3],[2,4]]}},"#,
        r#"{"Elect":{"nid":1}},"#,
        r#"{"ClientBurst":{"writes":1}}]}"#
    );
    // The engine-substrate witness, in the same durability-free form.
    let successor = concat!(
        r#"{"name":"r3-engine","seed":4,"members":[1,2,3,4],"#,
        r#""guard":{"r1":true,"r2":true,"r3":false},"faults":["#,
        r#"{"Partition":{"groups":[[1],[2,3,4]]}},"#,
        r#"{"Reconfig":{"members":[1,2,3]}},"#,
        r#"{"Elect":{"nid":2}},"#,
        r#"{"CutOneWay":{"from":2,"to":3}},"#,
        r#"{"Reconfig":{"members":[1,2,4]}},"#,
        r#"{"Partition":{"groups":[[1,3],[2,4]]}},"#,
        r#"{"Elect":{"nid":1}},"#,
        r#"{"ClientBurst":{"writes":1}}]}"#
    );
    for json in [legacy, successor] {
        let schedule: FaultSchedule = serde_json::from_str(json).unwrap();
        assert_eq!(
            schedule.durability,
            DurabilityPolicy::strict(),
            "a missing durability key must mean the strict policy"
        );
    }
    // And the witness still witnesses: the guard-ablation divergence
    // reproduces under the strict storage model.
    let schedule: FaultSchedule = serde_json::from_str(successor).unwrap();
    assert!(
        matches!(
            replay(&schedule, &EngineParams::default()),
            Some(ViolationKind::LogDivergence { .. })
        ),
        "the pinned counterexample no longer replays"
    );
}
