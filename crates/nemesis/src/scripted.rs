//! Hand-crafted adversarial schedules targeting each guard ablation.
//!
//! Each schedule is safe under the sound guard (`ReconfigGuard::all()`)
//! and drives the corresponding flawed variant into a committed-prefix
//! divergence — the network-and-latency-level re-enactments of the
//! paper's Fig. 4/Fig. 12 violations, expressed purely as composable
//! faults against the simulated cluster.

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L8: no `let _ =` on a result in a recovery scope
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros))] // L2: panic-free recovery scope, every function

use adore_core::{ReconfigGuard, Timestamp};
use adore_kv::KvCommand;
use adore_raft::{Command, Entry};
use adore_schemes::SingleNode;
use adore_storage::{DiskFault, DurabilityPolicy, WalRecord};

use crate::schedule::{Fault, FaultSchedule};

/// The Fig. 4/Fig. 12 schedule against a guard missing **R3** ("commit a
/// current-term entry before reconfiguring" — the Raft single-server
/// membership-change bug).
///
/// Shape: S1 proposes a removal while partitioned away (never
/// replicated); S2 is elected by the majority and commits a *different*
/// removal through the shrunk quorum `{2, 4}`; the partition then flips
/// so S1 and S3 form a quorum of S1's stale effective configuration
/// `{1, 2, 3}` and commit on top of the unreplicated entry. Two disjoint
/// quorums have now committed incompatible prefixes.
#[must_use]
pub fn r3_ablation_schedule() -> FaultSchedule {
    FaultSchedule {
        name: "r3-ablation-fig4".into(),
        seed: 4,
        members: vec![1, 2, 3, 4],
        guard: ReconfigGuard::all().without_r3(),
        durability: DurabilityPolicy::strict(),
        faults: vec![
            // S1 (the boot leader) is cut off and proposes removing S4;
            // with R3 off nothing requires a committed entry of its term
            // first, so the config entry sits unreplicated in its log.
            Fault::Partition {
                groups: vec![vec![1], vec![2, 3, 4]],
            },
            Fault::Reconfig {
                members: vec![1, 2, 3],
            },
            // The majority side elects S2, which removes S3. The new
            // configuration {1,2,4} commits with acks from just {2,4} —
            // S3 is not a member and never hears about it.
            Fault::Elect { nid: 2 },
            Fault::Reconfig {
                members: vec![1, 2, 4],
            },
            // The partition flips: S1 rejoins exactly S3. Under S1's
            // *effective* configuration {1,2,3} (its own uncommitted
            // entry), {1,3} is a quorum — S1 wins an election and commits
            // a client write that diverges from S2's committed prefix.
            Fault::Partition {
                groups: vec![vec![1, 3], vec![2, 4]],
            },
            Fault::Elect { nid: 1 },
            Fault::ClientBurst { writes: 1 },
        ],
    }
}

/// A schedule against a guard missing **R2** ("no stacked uncommitted
/// configuration entries").
///
/// A partitioned leader stacks shrinking reconfigurations
/// `{1..5} → {1,2,3,4} → {1,2,3} → {1,2} → {1}`; once the effective
/// configuration is `{1}` its own ack is a quorum and everything
/// commits unilaterally, while the healthy majority elects S2 and
/// commits its own writes under the original configuration.
#[must_use]
pub fn r2_ablation_schedule() -> FaultSchedule {
    FaultSchedule {
        name: "r2-ablation-stacked".into(),
        seed: 2,
        members: vec![1, 2, 3, 4, 5],
        guard: ReconfigGuard::all().without_r2(),
        durability: DurabilityPolicy::strict(),
        faults: vec![
            // A committed write at the leader's term satisfies R3, so R2
            // is the only guard standing between S1 and the stack.
            Fault::ClientBurst { writes: 1 },
            Fault::Partition {
                groups: vec![vec![1], vec![2, 3, 4, 5]],
            },
            Fault::Reconfig {
                members: vec![1, 2, 3, 4],
            },
            Fault::Reconfig {
                members: vec![1, 2, 3],
            },
            Fault::Reconfig {
                members: vec![1, 2],
            },
            Fault::Reconfig { members: vec![1] },
            // Effective config {1}: this write "commits" with S1's own ack.
            Fault::ClientBurst { writes: 1 },
            // The majority, which never saw any of it, commits its own.
            Fault::Elect { nid: 2 },
            Fault::ClientBurst { writes: 1 },
        ],
    }
}

/// A schedule against a guard missing **R1⁺** (quorum-overlapping
/// consecutive configurations; for the single-node scheme, at most one
/// membership change at a time).
///
/// The leader jumps straight from `{1..5}` to `{1,2}` — a three-node
/// change whose quorums do not overlap the old configuration's. The
/// minority pair commits through the new tiny quorum while the untouched
/// majority `{3,4,5}` elects S3 and commits under the old one.
#[must_use]
pub fn r1_ablation_schedule() -> FaultSchedule {
    FaultSchedule {
        name: "r1-ablation-disjoint-quorums".into(),
        seed: 1,
        members: vec![1, 2, 3, 4, 5],
        guard: ReconfigGuard::all().without_r1(),
        durability: DurabilityPolicy::strict(),
        faults: vec![
            Fault::ClientBurst { writes: 1 },
            Fault::Partition {
                groups: vec![vec![1, 2], vec![3, 4, 5]],
            },
            // The illegal multi-node jump: {1,2,3,4,5} -> {1,2}.
            Fault::Reconfig {
                members: vec![1, 2],
            },
            Fault::ClientBurst { writes: 1 },
            Fault::Elect { nid: 3 },
            Fault::ClientBurst { writes: 1 },
        ],
    }
}

/// All three ablation schedules, labeled by the guard bit they defeat.
#[must_use]
pub fn ablation_suite() -> Vec<(&'static str, FaultSchedule)> {
    vec![
        ("no-R1+", r1_ablation_schedule()),
        ("no-R2", r2_ablation_schedule()),
        ("no-R3", r3_ablation_schedule()),
    ]
}

/// A schedule against the **sync-before-ack** discipline.
///
/// With fsync decoupled from acknowledgement, a follower's votes and
/// appends live only in volatile memory: a clean power loss returns it
/// as a fully amnesiac *voter*. Here S2 acks a write that the majority
/// `{1, 2}` commits, crashes cleanly, recovers empty, and then hands its
/// (forgotten-state) vote to S3 — whose log never held the committed
/// entry. S3 overwrites the committed slot through the quorum `{2, 3}`.
///
/// Under the strict policy the same crash forgets nothing that was
/// acked: S2 recovers with the committed entry and rejects S3's
/// candidacy as outdated.
#[must_use]
pub fn storage_no_fsync_schedule() -> FaultSchedule {
    FaultSchedule {
        name: "storage-no-fsync".into(),
        seed: 101,
        members: vec![1, 2, 3],
        guard: ReconfigGuard::all(),
        durability: DurabilityPolicy::no_fsync_before_ack(),
        faults: vec![
            Fault::ClientBurst { writes: 1 },
            Fault::Idle { us: 20_000 },
            // S3 is cut off; the next write commits through {1, 2} and is
            // acked to the client — but with fsync ablated, S2's ack is
            // backed by nothing on disk.
            Fault::Partition {
                groups: vec![vec![1, 2], vec![3]],
            },
            Fault::ClientBurst { writes: 1 },
            // A *clean* crash — no torn writes, no corruption — and S2
            // recovers with an empty log and term 0, still a voter.
            Fault::Crash { nid: 2 },
            Fault::Recover { nid: 2 },
            // The partition flips; S3 (which never saw the committed
            // write) campaigns and wins with S2's amnesiac vote, then
            // commits a different entry into the committed slot.
            Fault::Partition {
                groups: vec![vec![2, 3], vec![1]],
            },
            Fault::Elect { nid: 3 },
            Fault::ClientBurst { writes: 1 },
        ],
    }
}

/// The payload bit whose flip turns the first client write's value
/// `"v0"` into the equally well-formed `"w0"` inside S2's third WAL
/// frame (`Boot`, `Term`, then this `Append`): low bit of the ASCII
/// `'v'` (`0x76 → 0x77`). The frame still parses, so only the checksum
/// stands between the corruption and the replayed state.
fn first_write_value_bit() -> u32 {
    // The client wraps every write in its exactly-once session
    // envelope: client id = the schedule's seed (102), and the first
    // operation carries sequence number 1. The record serialized here
    // must match the engine's byte-for-byte for the bit offset to land
    // inside the value.
    let record: WalRecord<SingleNode, KvCommand> = WalRecord::Append {
        entry: Entry {
            time: Timestamp(1),
            cmd: Command::Method(KvCommand::session(102, 1, KvCommand::put("key0", "v0"))),
        },
    };
    #[expect(clippy::expect_used, reason = "serializing a compile-time-constant record cannot fail")]
    let payload = serde_json::to_string(&record).expect("record serializes");
    #[expect(clippy::expect_used, reason = "the record was just built around the literal \"v0\"")]
    let pos = payload.find("v0").expect("value appears in the payload");
    #[expect(clippy::expect_used, reason = "a one-record payload is far below 2^29 bytes")]
    u32::try_from(pos * 8).expect("payload fits")
}

/// A schedule against **checksum verification** at replay.
///
/// A bit flips in a *synced, committed* record of S2's WAL — media
/// corruption, not a lost write. The flip is chosen so the frame still
/// parses: the entry's value silently reads `"w0"` instead of `"v0"`.
/// Without checksum verification the replay installs the corrupted
/// entry below the commit watermark, and S2's committed prefix diverges
/// from the cluster's the moment it recovers.
///
/// Under the strict policy the CRC catches the flip and the replica
/// fail-stops — unavailable, never wrong.
#[must_use]
pub fn storage_no_checksum_schedule() -> FaultSchedule {
    FaultSchedule {
        name: "storage-no-checksum".into(),
        seed: 102,
        members: vec![1, 2, 3],
        guard: ReconfigGuard::all(),
        durability: DurabilityPolicy::no_checksum_verify(),
        faults: vec![
            // Two committed writes so S2's commit watermark covers the
            // slot the corruption lands in.
            Fault::ClientBurst { writes: 2 },
            Fault::Idle { us: 20_000 },
            Fault::CrashDisk {
                nid: 2,
                fault: DiskFault::CorruptRecord {
                    record: 2,
                    bit: first_write_value_bit(),
                },
            },
            Fault::Recover { nid: 2 },
        ],
    }
}

/// A schedule against **truncate-invalid-tail** at recovery.
///
/// A torn write leaves three garbage bytes of a never-acked orphan
/// frame on S1's device. Recovery that keeps the garbage leaves a wall
/// mid-WAL: everything S1 writes *after* it — including a synced vote
/// for S2's term and a committed entry — is invisible to the next
/// replay. After a second, perfectly clean crash S1 forgets that vote
/// and hands a fresh one to S3, splitting the cluster into two leaders
/// that commit different entries into the same slot.
///
/// Under the strict policy the first recovery truncates the garbage, so
/// the second replay sees the vote and the entry, and S3 stays a
/// follower.
#[must_use]
pub fn storage_keep_tail_schedule() -> FaultSchedule {
    FaultSchedule {
        name: "storage-keep-tail".into(),
        seed: 103,
        members: vec![1, 2, 3],
        guard: ReconfigGuard::all(),
        durability: DurabilityPolicy::keep_unsynced_tail(),
        faults: vec![
            Fault::ClientBurst { writes: 1 },
            Fault::Idle { us: 20_000 },
            // An unacked write parked in the leader's WAL buffer...
            Fault::OrphanWrite,
            // ...torn mid-header by the crash: three bytes of garbage
            // that decode as nothing.
            Fault::CrashDisk {
                nid: 1,
                fault: DiskFault::TornTail { keep_bytes: 3 },
            },
            Fault::Recover { nid: 1 },
            // S1 (amnesiac about nothing yet) votes for S2 and acks a
            // committed write — all journaled *after* the garbage.
            Fault::Partition {
                groups: vec![vec![1, 2], vec![3]],
            },
            Fault::Elect { nid: 2 },
            Fault::ClientBurst { writes: 1 },
            // A clean crash. Replay stops at the garbage: the synced
            // vote and the committed entry are forgotten.
            Fault::Crash { nid: 1 },
            Fault::Recover { nid: 1 },
            // S3 campaigns at the same term S1 already voted in — and
            // S1, having forgotten, votes again. Two leaders, one term.
            Fault::Partition {
                groups: vec![vec![1, 3], vec![2]],
            },
            Fault::Elect { nid: 3 },
            Fault::ClientBurst { writes: 1 },
        ],
    }
}

/// All three storage-ablation schedules, labeled by the discipline they
/// defeat.
#[must_use]
pub fn storage_ablation_suite() -> Vec<(&'static str, FaultSchedule)> {
    vec![
        ("no-fsync-before-ack", storage_no_fsync_schedule()),
        ("no-checksum-verify", storage_no_checksum_schedule()),
        ("keep-unsynced-tail", storage_keep_tail_schedule()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{replay, run_schedule, EngineParams};
    use crate::client::ViolationKind;

    #[test]
    fn every_ablation_schedule_finds_its_violation() {
        for (label, schedule) in ablation_suite() {
            let report = run_schedule(&schedule, &EngineParams::default());
            let (violation, _) = report
                .violation
                .unwrap_or_else(|| panic!("{label}: no violation found"));
            assert!(
                matches!(violation, ViolationKind::LogDivergence { .. }),
                "{label}: unexpected violation {violation:?}"
            );
        }
    }

    #[test]
    fn every_ablation_schedule_is_safe_under_the_sound_guard() {
        for (label, schedule) in ablation_suite() {
            let sound = schedule.with_guard(adore_core::ReconfigGuard::all());
            assert!(
                replay(&sound, &EngineParams::default()).is_none(),
                "{label}: violation under the sound guard"
            );
        }
    }

    #[test]
    fn every_storage_ablation_schedule_finds_its_violation() {
        for (label, schedule) in storage_ablation_suite() {
            let report = run_schedule(&schedule, &EngineParams::default());
            let (violation, _) = report
                .violation
                .unwrap_or_else(|| panic!("{label}: no violation found"));
            assert!(
                matches!(violation, ViolationKind::LogDivergence { .. }),
                "{label}: unexpected violation {violation:?}"
            );
        }
    }

    #[test]
    fn every_storage_ablation_schedule_is_safe_under_the_strict_policy() {
        for (label, schedule) in storage_ablation_suite() {
            let strict = schedule.with_durability(DurabilityPolicy::strict());
            assert!(
                replay(&strict, &EngineParams::default()).is_none(),
                "{label}: violation under the strict durability policy"
            );
        }
    }

    #[test]
    fn the_strict_runs_of_the_storage_suite_pass_certification_too() {
        // The flip side of the ablation hunts: the same adversarial
        // schedules under the strict policy not only preserve the
        // committed prefix, they satisfy the per-ack storage
        // certification checker.
        let params = EngineParams {
            certify_storage: true,
            ..EngineParams::default()
        };
        for (label, schedule) in storage_ablation_suite() {
            let strict = schedule.with_durability(DurabilityPolicy::strict());
            assert!(
                replay(&strict, &params).is_none(),
                "{label}: certification failure under the strict policy"
            );
        }
    }
}
