//! Recovery semantics of the WAL under every durability policy and
//! every injected disk fault, at the storage layer in isolation (the
//! cluster-level consequences are exercised by `adore-nemesis`).

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5
#![deny(clippy::let_underscore_must_use)] // L4/L8: no `let _ =` on a verdict or a recovery result

use adore_core::{NodeId, Timestamp};
use adore_raft::{Command, Entry};
use adore_schemes::SingleNode;
use adore_storage::{DiskFault, DurabilityPolicy, Recovery, Wal, WalRecord};

type Rec = WalRecord<SingleNode, String>;
type TestWal = Wal<SingleNode, String>;

fn entry(time: u64, m: &str) -> Entry<SingleNode, String> {
    Entry {
        time: Timestamp(time),
        cmd: Command::Method(m.to_string()),
    }
}

/// A WAL with a synced prefix: Boot, Term{1}, Append(m1), CommitLen{1}.
fn synced_wal() -> TestWal {
    let mut wal = TestWal::new(NodeId(1));
    wal.append(&Rec::Term { time: 1 });
    wal.append(&Rec::Append { entry: entry(1, "m1") });
    wal.append(&Rec::CommitLen { len: 1 });
    wal.sync();
    wal
}

#[test]
fn replay_reconstructs_the_synced_state() {
    let mut wal = synced_wal();
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::strict()) else {
        panic!("intact WAL must recover");
    };
    assert!(state.booted);
    assert_eq!(state.time, Timestamp(1));
    assert_eq!(state.log, vec![entry(1, "m1")]);
    assert_eq!(state.commit_len, 1);
    // And recovery is idempotent: replaying the recovered device again
    // yields the same state.
    let Recovery::Intact(again) = wal.recover(&DurabilityPolicy::strict()) else {
        panic!("recovered WAL must stay intact");
    };
    assert_eq!(again, state);
}

#[test]
fn a_clean_crash_loses_exactly_the_unsynced_records() {
    let mut wal = synced_wal();
    wal.append(&Rec::Term { time: 2 });
    wal.append(&Rec::Append { entry: entry(2, "m2") });
    wal.crash(&DiskFault::LoseTail);
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::strict()) else {
        panic!("synced prefix must survive");
    };
    assert_eq!(state.time, Timestamp(1), "unsynced term adoption is forgotten");
    assert_eq!(state.log, vec![entry(1, "m1")], "unsynced append is forgotten");
}

#[test]
fn the_mirror_tracks_only_synced_frames() {
    let mut wal = synced_wal();
    assert_eq!(wal.mirror().log, vec![entry(1, "m1")]);
    wal.append(&Rec::Append { entry: entry(1, "m2") });
    assert_eq!(wal.mirror().log.len(), 1, "unsynced append not in the mirror");
    wal.sync();
    assert_eq!(wal.mirror().log.len(), 2, "sync advances the mirror");
    assert_eq!(wal.mirror().time, Timestamp(1));
}

#[test]
fn a_torn_tail_is_cut_by_strict_recovery() {
    let mut wal = synced_wal();
    wal.append(&Rec::Append { entry: entry(1, "m2") });
    // Keep 3 bytes of the new frame: a torn header, decodable by nobody.
    wal.crash(&DiskFault::TornTail { keep_bytes: 3 });
    let before = wal.disk().len();
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::strict()) else {
        panic!("the valid prefix must survive a torn write");
    };
    assert_eq!(state.log, vec![entry(1, "m1")]);
    assert!(wal.disk().len() < before, "strict recovery truncates the torn tail");

    // Because the garbage is gone, later appends are visible to replay.
    wal.append(&Rec::Append { entry: entry(1, "m3") });
    wal.sync();
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::strict()) else {
        panic!("post-truncation appends must replay");
    };
    assert_eq!(state.log, vec![entry(1, "m1"), entry(1, "m3")]);
}

#[test]
fn keeping_the_torn_tail_silently_loses_later_appends() {
    // The keep-unsynced-tail ablation: recovery leaves the torn garbage
    // on the device, so records appended *after* it are invisible to
    // every subsequent replay — the replica forgets promises it makes
    // post-recovery, even though each one is dutifully synced.
    let ablated = DurabilityPolicy::keep_unsynced_tail();
    let mut wal = synced_wal();
    wal.append(&Rec::Append { entry: entry(1, "m2") });
    wal.crash(&DiskFault::TornTail { keep_bytes: 3 });
    let Recovery::Intact(state) = wal.recover(&ablated) else {
        panic!("first recovery still sees the valid prefix");
    };
    assert_eq!(state.log, vec![entry(1, "m1")]);

    wal.append(&Rec::Term { time: 5 }); // a vote, written after garbage
    wal.sync();
    wal.crash(&DiskFault::LoseTail); // a second, perfectly clean crash
    let Recovery::Intact(state) = wal.recover(&ablated) else {
        panic!("replay still stops at the garbage");
    };
    assert_eq!(state.time, Timestamp(1), "the synced vote at time 5 is forgotten");
}

#[test]
fn checksum_verification_fail_stops_on_a_flipped_bit() {
    let mut wal = synced_wal();
    // Frame 2 is Append(m1); flip an arbitrary payload bit.
    wal.crash(&DiskFault::CorruptRecord { record: 2, bit: 7 });
    match wal.recover(&DurabilityPolicy::strict()) {
        Recovery::Corrupt { record } => assert_eq!(record, 2),
        other => panic!("corruption must fail-stop, got {other:?}"),
    }
}

#[test]
fn without_checksum_verification_a_parseable_corruption_is_replayed_as_truth() {
    // Flip the low bit of the '1' in "m1": 0x31 -> 0x30, so the payload
    // still parses as JSON but the entry now reads "m0".
    let payload = serde_json::to_string(&Rec::Append { entry: entry(1, "m1") }).unwrap();
    let pos = payload.find("m1").unwrap() + 1;
    let mut wal = synced_wal();
    let bit = u32::try_from(pos * 8).unwrap();
    wal.crash(&DiskFault::CorruptRecord { record: 2, bit });

    // Strict replay catches it...
    let mut strict = wal.clone();
    assert!(matches!(
        strict.recover(&DurabilityPolicy::strict()),
        Recovery::Corrupt { record: 2 }
    ));
    // ...the ablated replay swallows it.
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::no_checksum_verify()) else {
        panic!("ablated replay accepts the parseable corruption");
    };
    assert_eq!(state.log, vec![entry(1, "m0")], "the corrupted entry became truth");
    assert_eq!(state.commit_len, 1, "and it sits below the commit watermark");
}

#[test]
fn without_checksum_verification_an_unparseable_corruption_ends_the_replay() {
    // Flip a structural byte instead: the payload no longer parses, so
    // even the ablated replay must stop there (treated as torn).
    let payload = serde_json::to_string(&Rec::Append { entry: entry(1, "m1") }).unwrap();
    let pos = payload.find('{').unwrap();
    let mut wal = synced_wal();
    let bit = u32::try_from(pos * 8).unwrap();
    wal.crash(&DiskFault::CorruptRecord { record: 2, bit });
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::no_checksum_verify()) else {
        panic!("replay stops before the unparseable frame");
    };
    assert_eq!(state.log, Vec::new(), "the append and everything after it are lost");
    assert_eq!(state.commit_len, 0, "commit watermark clamped to the shorter log");
}

#[test]
fn a_wiped_device_reports_data_loss_and_reboots() {
    let mut wal = synced_wal();
    wal.crash(&DiskFault::WipeAll);
    assert!(matches!(
        wal.recover(&DurabilityPolicy::strict()),
        Recovery::DataLoss
    ));
    // The WAL restarts from a fresh boot record and is usable again.
    wal.append(&Rec::Term { time: 9 });
    wal.sync();
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::strict()) else {
        panic!("rebooted WAL must recover");
    };
    assert_eq!(state.time, Timestamp(9));
    assert_eq!(state.log, Vec::new());
}

#[test]
fn a_stale_commit_watermark_is_clamped_to_the_log() {
    // A commit record can survive a crash that the entries it covers,
    // written in a later batch, did not.
    let mut wal = TestWal::new(NodeId(1));
    wal.append(&Rec::CommitLen { len: 5 });
    wal.sync();
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::strict()) else {
        panic!("intact WAL must recover");
    };
    assert_eq!(state.log, Vec::new());
    assert_eq!(state.commit_len, 0, "watermark clamped to log length");
}

#[test]
fn compaction_preserves_the_recovered_state_and_shrinks_the_device() {
    let mut wal = TestWal::new(NodeId(1));
    wal.append(&Rec::Term { time: 1 });
    for i in 0..20 {
        wal.append(&Rec::Append { entry: entry(1, &format!("m{i}")) });
        wal.append(&Rec::CommitLen { len: i + 1 });
    }
    wal.sync();
    let before = wal.disk().len();
    let mirror_before = wal.mirror().clone();
    wal.compact();
    assert!(wal.disk().len() < before, "snapshot replaces the record stream");
    assert_eq!(*wal.mirror(), mirror_before, "compaction changes no state");
    let Recovery::Intact(state) = wal.recover(&DurabilityPolicy::strict()) else {
        panic!("compacted WAL must recover");
    };
    assert_eq!(state.time, mirror_before.time);
    assert_eq!(state.log, mirror_before.log);
    assert_eq!(state.commit_len, mirror_before.commit_len);
}

#[test]
fn wal_records_round_trip_through_json() {
    let records: Vec<Rec> = vec![
        Rec::Boot { nid: 3 },
        Rec::Term { time: 7 },
        Rec::Truncate { len: 2 },
        Rec::Append { entry: entry(7, "m") },
        Rec::Append {
            entry: Entry {
                time: Timestamp(8),
                cmd: Command::Config(SingleNode::new([1, 2, 3])),
            },
        },
        Rec::CommitLen { len: 3 },
        Rec::Snapshot {
            time: 7,
            commit_len: 1,
            log: vec![entry(7, "m")],
        },
    ];
    for rec in &records {
        let json = serde_json::to_string(rec).unwrap();
        let back: Rec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, *rec, "round-trip changed {json}");
    }
}

#[test]
fn crc32_matches_the_ieee_reference_vector() {
    // The canonical check vector for CRC-32/IEEE.
    assert_eq!(adore_storage::crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(adore_storage::crc32(b""), 0);
}
