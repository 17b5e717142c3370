//! Cross-crate adversarial integration tests: arbitrary bounded fault
//! schedules are safe under the sound guard, scripted ablations are
//! caught and minimized into portable witnesses, and availability
//! degrades and recovers the way a partition says it should.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::disallowed_methods)] // L12a: no unbounded channel()
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5

use proptest::prelude::*;

use adore_core::ReconfigGuard;
use adore_nemesis::{
    hunt, r3_ablation_schedule, random_schedule, replay, run_schedule, Counterexample,
    DurabilityPolicy, EngineParams, Fault, FaultSchedule, RandomScheduleParams,
};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any bounded random campaign — partitions, crash storms, leader
    /// flaps, duplication, reordering, skew, reconfiguration churn racing
    /// client writes — completes without a safety violation when the
    /// full R1⁺∧R2∧R3 guard is in force.
    #[test]
    fn arbitrary_schedules_are_safe_under_the_sound_guard(
        seed in any::<u64>(),
        steps in 4usize..16,
        five_nodes in any::<bool>(),
    ) {
        let params = RandomScheduleParams {
            members: if five_nodes { vec![1, 2, 3, 4, 5] } else { vec![1, 2, 3] },
            steps,
            guard: ReconfigGuard::all(),
        };
        let schedule = random_schedule(&params, seed);
        let report = run_schedule(&schedule, &EngineParams::default());
        prop_assert!(
            report.is_safe(),
            "seed {}: {:?}",
            seed,
            report.violation
        );
    }

    /// Random campaigns are reproducible: the violation verdict (and the
    /// whole degraded report) is a pure function of the schedule.
    #[test]
    fn campaigns_replay_deterministically(seed in any::<u64>()) {
        let schedule = random_schedule(&RandomScheduleParams::default(), seed);
        let a = run_schedule(&schedule, &EngineParams::default());
        let b = run_schedule(&schedule, &EngineParams::default());
        prop_assert_eq!(a.degraded, b.degraded);
        prop_assert_eq!(a.violation, b.violation);
    }
}

/// With R3 disabled, the scripted Fig. 4 campaign is caught, minimized,
/// and survives a JSON round-trip as a deterministically replayable
/// witness.
#[test]
fn the_r3_ablation_is_found_minimized_and_portable() {
    let params = EngineParams::default();
    let schedule = r3_ablation_schedule();
    let cex = hunt(&schedule, &params).expect("the no-R3 schedule must violate");
    assert!(cex.schedule.faults.len() <= schedule.faults.len());

    let json = serde_json::to_string(&cex).expect("serializes");
    let back: Counterexample = serde_json::from_str(&json).expect("deserializes");
    assert_eq!(back, cex);
    assert_eq!(
        replay(&back.schedule, &params),
        Some(cex.violation),
        "the deserialized witness must replay to the same violation"
    );

    // The witness depends on the ablation: restoring R3 defuses it.
    assert_eq!(
        replay(&back.schedule.with_guard(ReconfigGuard::all()), &params),
        None
    );
}

/// A majority/minority partition with a reconfiguration racing client
/// traffic: availability collapses while the client sits behind the
/// minority leader and recovers after redirect and heal, with the
/// committed prefix agreed throughout.
#[test]
fn availability_recovers_after_a_partition_heals() {
    let schedule = FaultSchedule {
        name: "partition-recovery".into(),
        seed: 42,
        members: vec![1, 2, 3, 4, 5],
        guard: ReconfigGuard::all(),
        durability: DurabilityPolicy::strict(),
        faults: vec![
            Fault::ClientBurst { writes: 3 },
            // Drain in-flight replication so every majority-side log is
            // up to date before the cut (otherwise the elected candidate
            // can legitimately lose the up-to-dateness vote check).
            Fault::Idle { us: 20_000 },
            Fault::Partition {
                groups: vec![vec![1, 2], vec![3, 4, 5]],
            },
            Fault::ClientBurst { writes: 3 },
            Fault::Elect { nid: 3 },
            Fault::ReconfigRemove { nid: 1 },
            Fault::ClientBurst { writes: 3 },
            Fault::HealAll,
            Fault::ClientBurst { writes: 3 },
        ],
    };
    let report = run_schedule(&schedule, &EngineParams::default());
    assert!(report.is_safe(), "{:?}", report.violation);

    // Phase 0: healthy. Phase 3: stuck behind the minority leader.
    // Phase 6: redirected to the majority. Phase 8: healed.
    assert!((report.degraded.availability(0) - 1.0).abs() < f64::EPSILON);
    assert!(report.degraded.availability(3) < 0.5, "minority should starve");
    assert!((report.degraded.availability(6) - 1.0).abs() < f64::EPSILON);
    assert!((report.degraded.availability(8) - 1.0).abs() < f64::EPSILON);
    assert!(report.committed_entries >= 10);
}
