//! netmesis: fault schedules for the real wire.
//!
//! The nemesis engine interprets a [`FaultSchedule`] against the
//! discrete-event simulator. A live-cluster harness (the `adored hunt`
//! subcommand) walks the *same* [`Fault`]s against real TCP links and
//! real processes — partitions become black-holed proxy links, crashes
//! become `kill -9`, gray pauses become `SIGSTOP`, frame corruption
//! becomes real bit flips that the receiver's crc must reject. There is
//! no second fault vocabulary: the harness matches on [`Fault`] itself
//! and journals each one's JSON, as the simulator does.
//!
//! This module holds the campaign's pure parts: the seeded schedules
//! ([`netmesis_schedule`], [`gate_schedules`]), [`swap_labels`] for
//! aiming a schedule at the live leader, and [`dwell_ms`], which fixes
//! when each fault is due from the schedule alone — no wall clock, no
//! ambient randomness. Wall-clock time enters only in the I/O shell
//! that walks the schedule, which is exactly the determinism boundary
//! this crate's root denies clippy's `disallowed_types` to enforce.
//!
//! The sim twin: every wire fault class maps back onto simulator
//! primitives (see [`Fault`]'s wire-level variants and DESIGN §12), so
//! a schedule that trips a safety audit on the wire can be re-run —
//! and ddmin-minimized — in the simulator via [`crate::hunt`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use adore_core::ReconfigGuard;
use adore_storage::DurabilityPolicy;

use crate::engine::Counterexample;
use crate::schedule::{Fault, FaultSchedule};

/// How long (ms) the live harness leaves the cluster running under a
/// fault before it enacts the next one: long enough for heartbeats,
/// elections, and client retries to interact with the fault, short
/// enough that a 25-seed campaign stays minutes, not hours. Fault `i`
/// is due at the sum of the dwells of faults `0..i`; this is a
/// schedule's only timing decision, so it lives here, inside the
/// determinism perimeter, and the harness only reads the clock.
#[must_use]
pub fn dwell_ms(fault: &Fault) -> u64 {
    match fault {
        // Link-state faults need a dwell for traffic to flow through
        // (or into) them.
        Fault::CutOneWay { .. }
        | Fault::CutBothWays { .. }
        | Fault::HealOneWay { .. }
        | Fault::SetLinkLoss { .. }
        | Fault::SetLoss { .. }
        | Fault::CorruptLink { .. }
        | Fault::SlowLink { .. }
        | Fault::Reorder { .. } => 400,
        Fault::Partition { .. } => 800,
        Fault::HealAll => 300,
        // Process faults: give the survivors time to notice.
        Fault::Crash { .. } | Fault::CrashDisk { .. } | Fault::CrashLeader => 600,
        Fault::Recover { .. } => 400,
        Fault::Pause { .. } => 700,
        Fault::Resume { .. } => 300,
        Fault::ResetLink { .. } => 200,
        // Cluster actions are driven to completion by the harness
        // itself; they need no extra dwell.
        Fault::Elect { .. } => 0,
        Fault::Reconfig { .. } | Fault::ReconfigAdd { .. } | Fault::ReconfigRemove { .. } => 0,
        Fault::ClientBurst { .. } => 0,
        Fault::Idle { us } => (us / 1000).max(1),
        // No wire enactment: TCP delivers each byte once, the harness
        // cannot place an unsynced WAL buffer from outside the process,
        // and election timing is compiled into the binary.
        Fault::Duplicate { .. } | Fault::OrphanWrite | Fault::SkewTimeout { .. } => 0,
    }
}

/// Renames node ids throughout a schedule by swapping labels `a` and
/// `b` (members, every fault's node references). Used by the live
/// harness to aim a canonical schedule (authored for sim boot, where
/// the lowest member always leads first) at whichever node actually
/// won the real cluster's first election, and each `Elect` at whichever
/// node won that one; the *canonical* schedule is what gets persisted,
/// so the sim twin replays it unchanged.
#[must_use]
pub fn swap_labels(schedule: &FaultSchedule, a: u32, b: u32) -> FaultSchedule {
    let m = |n: u32| {
        if n == a {
            b
        } else if n == b {
            a
        } else {
            n
        }
    };
    let mv = |v: &[u32]| v.iter().map(|&n| m(n)).collect::<Vec<u32>>();
    let faults = schedule
        .faults
        .iter()
        .map(|f| match f {
            Fault::CutOneWay { from, to } => Fault::CutOneWay {
                from: m(*from),
                to: m(*to),
            },
            Fault::CutBothWays { a, b } => Fault::CutBothWays { a: m(*a), b: m(*b) },
            Fault::Partition { groups } => Fault::Partition {
                groups: groups.iter().map(|g| mv(g)).collect(),
            },
            Fault::HealOneWay { from, to } => Fault::HealOneWay {
                from: m(*from),
                to: m(*to),
            },
            Fault::SetLinkLoss { from, to, pct } => Fault::SetLinkLoss {
                from: m(*from),
                to: m(*to),
                pct: *pct,
            },
            Fault::Crash { nid } => Fault::Crash { nid: m(*nid) },
            Fault::CrashDisk { nid, fault } => Fault::CrashDisk {
                nid: m(*nid),
                fault: fault.clone(),
            },
            Fault::Recover { nid } => Fault::Recover { nid: m(*nid) },
            Fault::Elect { nid } => Fault::Elect { nid: m(*nid) },
            Fault::Reconfig { members } => Fault::Reconfig {
                members: mv(members),
            },
            Fault::ReconfigAdd { nid } => Fault::ReconfigAdd { nid: m(*nid) },
            Fault::ReconfigRemove { nid } => Fault::ReconfigRemove { nid: m(*nid) },
            Fault::Pause { nid } => Fault::Pause { nid: m(*nid) },
            Fault::Resume { nid } => Fault::Resume { nid: m(*nid) },
            Fault::CorruptLink { from, to, pct } => Fault::CorruptLink {
                from: m(*from),
                to: m(*to),
                pct: *pct,
            },
            Fault::ResetLink { from, to } => Fault::ResetLink {
                from: m(*from),
                to: m(*to),
            },
            Fault::SlowLink { from, to } => Fault::SlowLink {
                from: m(*from),
                to: m(*to),
            },
            other => other.clone(),
        })
        .collect();
    FaultSchedule {
        name: schedule.name.clone(),
        seed: schedule.seed,
        members: mv(&schedule.members),
        guard: schedule.guard,
        durability: schedule.durability,
        faults,
    }
}

/// Generates one seeded netmesis campaign schedule: a 5-node cluster
/// whose first leader is killed and restarted into its WAL, then walks
/// a live 5→3→5 reconfiguration while wire faults — minority
/// partitions, gray pauses, frame corruption, connection resets,
/// slow-loris stalls — land on top of it. Every schedule keeps a
/// majority of the *current* configuration connected and running, so a
/// sound-guard cluster must stay safe and eventually available; and
/// every schedule includes at least one corruption burst, so the
/// campaign-wide crc-rejection count is provably nonzero.
#[must_use]
pub fn netmesis_schedule(seed: u64) -> FaultSchedule {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x6e65_746d_6573_6973); // "netmesis"
    let members: Vec<u32> = vec![1, 2, 3, 4, 5];
    let core = [1u32, 2, 3]; // survive the 5→3 walk; never paused
    let fringe = [4u32, 5]; // removed on the way down, re-added on the way up
    let pick_core = |rng: &mut StdRng| core[rng.gen_range(0..core.len())];
    let mut faults: Vec<Fault> = Vec::new();

    // A wire disturbance that never threatens the {1,2,3} core quorum.
    let disturb = |rng: &mut StdRng, faults: &mut Vec<Fault>| {
        match rng.gen_range(0..5u32) {
            0 => {
                // Partition a fringe minority away.
                let lone = fringe[rng.gen_range(0..fringe.len())];
                let rest: Vec<u32> = members.iter().copied().filter(|&n| n != lone).collect();
                faults.push(Fault::Partition {
                    groups: vec![rest, vec![lone]],
                });
            }
            1 => {
                let (from, to) = (pick_core(rng), pick_core(rng));
                if from != to {
                    faults.push(Fault::SlowLink { from, to });
                }
            }
            2 => {
                let nid = fringe[rng.gen_range(0..fringe.len())];
                faults.push(Fault::Pause { nid });
                faults.push(Fault::ClientBurst {
                    writes: rng.gen_range(1..3),
                });
                faults.push(Fault::Resume { nid });
            }
            3 => {
                let (from, to) = (pick_core(rng), pick_core(rng));
                if from != to {
                    faults.push(Fault::ResetLink { from, to });
                }
            }
            _ => {
                let (from, to) = (pick_core(rng), pick_core(rng));
                if from != to {
                    faults.push(Fault::SetLinkLoss {
                        from,
                        to,
                        pct: rng.gen_range(20..60),
                    });
                }
            }
        }
    };

    faults.push(Fault::ClientBurst { writes: 3 });
    // kill -9 the first leader (the live harness aims label 1 at it),
    // write through the failover, restart the corpse into its WAL: it
    // must catch up and survive the whole walk below. Four of five
    // members stay up throughout, and label 2 leads from here on (the
    // harness aims it at whoever wins the live election).
    faults.extend(kill_and_restart_first_leader(3));
    let lead = 2u32;
    // Guaranteed corruption burst on core links while traffic flows:
    // the crc-rejection path must fire in every seed.
    let (ca, cb) = (core[rng.gen_range(0..3)], core[rng.gen_range(0..3)]);
    let (ca, cb) = if ca == cb { (lead, 1) } else { (ca, cb) };
    faults.push(Fault::CorruptLink {
        from: ca,
        to: cb,
        pct: rng.gen_range(60..100),
    });
    faults.push(Fault::CorruptLink {
        from: cb,
        to: ca,
        pct: rng.gen_range(60..100),
    });
    faults.push(Fault::ClientBurst { writes: 3 });
    faults.push(Fault::HealAll);

    // Walk down 5 → 3 with a disturbance overlapping each removal.
    for &out in &fringe {
        disturb(&mut rng, &mut faults);
        faults.push(Fault::ReconfigRemove { nid: out });
        faults.push(Fault::ClientBurst {
            writes: rng.gen_range(1..3),
        });
    }
    faults.push(Fault::HealAll);

    // Disturb the shrunk cluster (core links only).
    match rng.gen_range(0..3u32) {
        0 => {
            let (from, to) = (lead, [1, 3][rng.gen_range(0..2)]);
            faults.push(Fault::CorruptLink {
                from,
                to,
                pct: rng.gen_range(40..90),
            });
            faults.push(Fault::ClientBurst { writes: 2 });
        }
        1 => {
            faults.push(Fault::ResetLink { from: lead, to: 1 });
            faults.push(Fault::ResetLink { from: 1, to: lead });
            faults.push(Fault::ClientBurst { writes: 2 });
        }
        _ => {
            faults.push(Fault::SlowLink { from: lead, to: 3 });
            faults.push(Fault::ClientBurst { writes: 2 });
        }
    }
    faults.push(Fault::HealAll);

    // Walk back up 3 → 5 with disturbances overlapping each add.
    for &back in &fringe {
        faults.push(Fault::ReconfigAdd { nid: back });
        disturb(&mut rng, &mut faults);
        faults.push(Fault::ClientBurst {
            writes: rng.gen_range(1..3),
        });
    }
    faults.push(Fault::HealAll);
    faults.push(Fault::ClientBurst { writes: 3 });

    FaultSchedule {
        name: format!("netmesis-{seed}"),
        seed,
        members,
        guard: ReconfigGuard::all(),
        durability: DurabilityPolicy::strict(),
        faults,
    }
}

/// `kill -9` node 1, wait out the election (node 2 is taken to win
/// it), write through the new leader, restart node 1 into its data
/// directory.
fn kill_and_restart_first_leader(writes: u32) -> [Fault; 4] {
    [
        Fault::Crash { nid: 1 },
        Fault::Elect { nid: 2 },
        Fault::ClientBurst { writes },
        Fault::Recover { nid: 1 },
    ]
}

/// The two fixed 3-node CI gate schedules, small enough to complete
/// (run + audit) inside the ci.sh budget. The first is one
/// partition-during-reconfig with a corruption burst and a connection
/// reset; it kills nothing. The second is the kill -9 leg: ten
/// writes, the first leader dies on the heels of the tenth's ack, ten
/// writes through the failover, the corpse restarts into its WAL,
/// three more.
#[must_use]
pub fn gate_schedules() -> Vec<FaultSchedule> {
    let first = FaultSchedule {
        name: "netmesis-gate".into(),
        seed: 7,
        members: vec![1, 2, 3],
        guard: ReconfigGuard::all(),
        durability: DurabilityPolicy::strict(),
        faults: vec![
            Fault::ClientBurst { writes: 3 },
            // crc-rejection proof: corrupt a core link both ways while
            // traffic flows.
            Fault::CorruptLink {
                from: 1,
                to: 2,
                pct: 80,
            },
            Fault::CorruptLink {
                from: 2,
                to: 1,
                pct: 80,
            },
            Fault::ClientBurst { writes: 3 },
            Fault::HealAll,
            // The partition-during-reconfig heart of the gate: isolate
            // node 3, then shrink the config to the connected majority
            // while it is cut off, write through the new config, heal,
            // and grow back.
            Fault::Partition {
                groups: vec![vec![1, 2], vec![3]],
            },
            Fault::ClientBurst { writes: 2 },
            Fault::Reconfig {
                members: vec![1, 2],
            },
            Fault::ClientBurst { writes: 2 },
            Fault::HealAll,
            Fault::ReconfigAdd { nid: 3 },
            Fault::ClientBurst { writes: 2 },
            Fault::ResetLink { from: 1, to: 2 },
            Fault::ClientBurst { writes: 2 },
        ],
    };
    let mut kill = vec![Fault::ClientBurst { writes: 10 }];
    kill.extend(kill_and_restart_first_leader(10));
    kill.push(Fault::ClientBurst { writes: 3 });
    let second = FaultSchedule {
        name: "netmesis-gate-kill".into(),
        faults: kill,
        ..first.clone()
    };
    vec![first, second]
}

/// A wire-campaign counterexample: the canonical schedule that tripped
/// a live safety/audit failure, the merged obs journal proving it, and
/// (when the sim twin reproduces a violation) the ddmin-minimized
/// simulator counterexample for the same schedule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetCounterexample {
    /// The schedule, in canonical (sim-replayable) labeling.
    pub schedule: FaultSchedule,
    /// What the live run/audit reported.
    pub violation: String,
    /// The merged JSONL obs journal of the live run.
    pub journal: String,
    /// The sim twin's minimized counterexample, when the simulator
    /// reproduces a violation from the same schedule.
    pub sim_twin: Option<Counterexample>,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// When the live walk is done with a schedule: the sum of its dwells.
    fn span_ms(s: &FaultSchedule) -> u64 {
        s.faults.iter().map(dwell_ms).sum()
    }

    #[test]
    fn compilation_is_deterministic_and_pure() {
        assert_eq!(netmesis_schedule(11), netmesis_schedule(11));
        assert_ne!(netmesis_schedule(11).faults, netmesis_schedule(12).faults);
    }

    #[test]
    fn timelines_are_ordered_and_budgeted() {
        for seed in 0..25 {
            let span = span_ms(&netmesis_schedule(seed));
            assert!(
                span < 30_000,
                "seed {seed}: campaign span {span}ms won't fit a bounded run"
            );
        }
    }

    #[test]
    fn every_campaign_seed_includes_corruption_and_the_reconfig_walk() {
        for seed in 0..25 {
            let s = netmesis_schedule(seed);
            assert!(
                s.faults
                    .iter()
                    .any(|f| matches!(f, Fault::CorruptLink { .. })),
                "seed {seed}: no corruption burst"
            );
            let removes = s
                .faults
                .iter()
                .filter(|f| matches!(f, Fault::ReconfigRemove { .. }))
                .count();
            let adds = s
                .faults
                .iter()
                .filter(|f| matches!(f, Fault::ReconfigAdd { .. }))
                .count();
            assert_eq!((removes, adds), (2, 2), "seed {seed}: walk incomplete");
            // Exactly one kill, of the first leader, restarted before
            // the corruption burst and so ahead of the whole walk.
            let at = |want: &dyn Fn(&Fault) -> bool| s.faults.iter().position(want);
            let kills = s
                .faults
                .iter()
                .filter(|f| matches!(f, Fault::Crash { .. }))
                .count();
            let crash = at(&|f| matches!(f, Fault::Crash { nid: 1 }));
            let restart = at(&|f| matches!(f, Fault::Recover { nid: 1 }));
            let corrupt = at(&|f| matches!(f, Fault::CorruptLink { .. }));
            assert_eq!(kills, 1, "seed {seed}: one kill leg");
            assert!(
                crash.is_some() && crash < restart && restart < corrupt,
                "seed {seed}: kill leg out of place"
            );
            // Paused or partitioned-away nodes are always in the fringe:
            // the {1,2,3} core keeps a live majority of every config the
            // walk passes through.
            for f in &s.faults {
                if let Fault::Pause { nid } = f {
                    assert!(*nid > 3, "seed {seed}: paused a core node");
                }
            }
        }
    }

    #[test]
    fn campaign_schedules_are_sim_safe_under_the_sound_guard() {
        // The sim twin of every campaign seed must pass: these
        // schedules certify the wire runtime, not the protocol. The
        // kill leg is live in the twin too: the burst between node 1's
        // crash and its restart is acknowledged by the new leader.
        let params = crate::engine::EngineParams::default();
        for seed in 0..8 {
            let report = crate::engine::run_schedule(&netmesis_schedule(seed), &params);
            assert!(report.is_safe(), "seed {seed}: {:?}", report.violation);
            let failover = &report.degraded.phases[3];
            assert!(
                failover.fault.contains("ClientBurst") && failover.acked == 3,
                "seed {seed}: {failover:?}"
            );
        }
    }

    #[test]
    fn the_gate_schedule_is_sim_safe_and_compiles_small() {
        let gates = gate_schedules();
        assert_eq!(gates.len(), 2);
        for s in &gates {
            let report = crate::engine::run_schedule(s, &crate::engine::EngineParams::default());
            assert!(report.is_safe(), "{}: {:?}", s.name, report.violation);
            let span = span_ms(s);
            assert!(
                span < 10_000,
                "{}: span {span}ms too long for the CI budget",
                s.name
            );
        }
        // The first kills nothing; the second kills and restarts node 1
        // with bursts on either side.
        let kill = |f: &Fault| {
            matches!(
                f,
                Fault::Crash { .. } | Fault::CrashDisk { .. } | Fault::CrashLeader
            )
        };
        assert!(!gates[0].faults.iter().any(kill));
        assert_eq!(
            gates[1].faults,
            [
                Fault::ClientBurst { writes: 10 },
                Fault::Crash { nid: 1 },
                Fault::Elect { nid: 2 },
                Fault::ClientBurst { writes: 10 },
                Fault::Recover { nid: 1 },
                Fault::ClientBurst { writes: 3 },
            ]
        );
    }

    #[test]
    fn label_swapping_is_an_involution_and_renames_everywhere() {
        let s = netmesis_schedule(3);
        let swapped = swap_labels(&s, 1, 4);
        assert_eq!(swap_labels(&swapped, 1, 4), s);
        assert!(swapped.members.contains(&1) && swapped.members.contains(&4));
        // The schedule's json must not mention structure-changing
        // differences beyond the labels: fault count identical.
        assert_eq!(s.faults.len(), swapped.faults.len());
    }

    #[test]
    fn net_counterexamples_round_trip_through_json() {
        let ce = NetCounterexample {
            schedule: gate_schedules().remove(0),
            violation: "acked write lost".into(),
            journal: "{}\n".into(),
            sim_twin: None,
        };
        let json = serde_json::to_string(&ce).unwrap();
        let back: NetCounterexample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ce);
    }
}
