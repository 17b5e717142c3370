//! Durable storage for Adore replicas: a write-ahead log over a
//! simulated disk, with injectable crash faults and certified recovery.
//!
//! The paper's network model (and PR 1's nemesis engine on top of it)
//! treats crashes as benign: a crashed replica's `(term, vote, log)`
//! simply waits, intact, for `recover`. That makes the entire
//! durability half of the fault model a free axiom. This crate makes it
//! a *theorem with a mechanism*:
//!
//! - [`SimDisk`] — a deterministic byte device with an explicit
//!   synced/unsynced boundary and crash faults: lose the unsynced tail,
//!   tear a record at the crash point, flip a bit in a synced record,
//!   or wipe the media entirely ([`DiskFault`]).
//! - [`Wal`] — length-prefixed, CRC-32-checked records
//!   ([`WalRecord`]) encoding every durable transition of a replica:
//!   boot, term adoption (which *is* the vote in this protocol), log
//!   truncation, entry append, commit watermark, and an optional
//!   compaction snapshot.
//! - [`DurabilityPolicy`] — the three storage disciplines that make
//!   recovery sound, each individually ablatable so the nemesis hunts
//!   can demonstrate necessity: sync-before-ack, checksum verification
//!   on replay, and truncation of the invalid tail after replay.
//! - [`StorageViolation`] — what the recovery-invariant checker
//!   reports when an ack outruns the durable state or a recovery
//!   resurrects a state the WAL cannot justify.
//!
//! The simulation layer (`adore-kv`) journals every volatile state
//! change into the WAL, syncs at exactly the ack points, and rebuilds
//! replicas from [`Wal::recover`]; the nemesis engine drives
//! [`DiskFault`]s through schedules and checks committed-prefix
//! agreement on top.

// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1: no hash order, no ambient clock
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro))] // L5
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L4/L8: no `let _ =` on a verdict or a recovery result

mod disk;
mod wal;

pub use disk::SimDisk;
pub use wal::{crc32, DurableState, Recovery, Wal, WalRecord, WalStats};

use serde::{Deserialize, Serialize};
use std::fmt;

/// The storage disciplines a replica runs with. The strict policy (all
/// three on) is the certified model; each knob exists to be ablated by
/// a nemesis hunt, which must then find a committed-prefix violation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct DurabilityPolicy {
    /// Sync the WAL before any acknowledgement leaves the replica (vote
    /// grants, replication acks, leader self-acks). Ablated: acks can
    /// promise state that a crash then forgets.
    pub sync_before_ack: bool,
    /// Verify frame checksums during replay and fail-stop on mismatch.
    /// Ablated: a bit-flipped record is replayed as truth.
    pub verify_checksums: bool,
    /// After replay, truncate the device past the last valid frame.
    /// Ablated: records appended after crash garbage are silently
    /// invisible to every future replay.
    pub truncate_invalid_tail: bool,
}

impl Default for DurabilityPolicy {
    fn default() -> Self {
        DurabilityPolicy::strict()
    }
}

impl DurabilityPolicy {
    /// The full certified discipline: all three knobs on.
    #[must_use]
    pub fn strict() -> Self {
        DurabilityPolicy {
            sync_before_ack: true,
            verify_checksums: true,
            truncate_invalid_tail: true,
        }
    }

    /// Ablation: acks no longer wait for `fsync`.
    #[must_use]
    pub fn no_fsync_before_ack() -> Self {
        DurabilityPolicy {
            sync_before_ack: false,
            ..DurabilityPolicy::strict()
        }
    }

    /// Ablation: replay trusts payloads without checking checksums.
    #[must_use]
    pub fn no_checksum_verify() -> Self {
        DurabilityPolicy {
            verify_checksums: false,
            ..DurabilityPolicy::strict()
        }
    }

    /// Ablation: replay leaves the invalid tail on the device.
    #[must_use]
    pub fn keep_unsynced_tail() -> Self {
        DurabilityPolicy {
            truncate_invalid_tail: false,
            ..DurabilityPolicy::strict()
        }
    }
}

impl fmt::Display for DurabilityPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == DurabilityPolicy::strict() {
            return write!(f, "strict");
        }
        let mut off = Vec::new();
        if !self.sync_before_ack {
            off.push("no-fsync-before-ack");
        }
        if !self.verify_checksums {
            off.push("no-checksum-verify");
        }
        if !self.truncate_invalid_tail {
            off.push("keep-unsynced-tail");
        }
        write!(f, "{}", off.join("+"))
    }
}

/// A crash-time disk fault, applied to one replica's WAL at the moment
/// it goes down. Serializable so nemesis schedules (and minimized
/// counterexamples) can carry them.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DiskFault {
    /// Clean power loss: the unsynced tail vanishes, synced bytes
    /// survive. (This is what a plain process crash now means.)
    LoseTail,
    /// The crash catches the device mid-flush: `keep_bytes` of the
    /// unsynced tail survive, typically ending inside a frame.
    TornTail {
        /// How many bytes of the unsynced tail survive the crash.
        keep_bytes: u32,
    },
    /// Silent media corruption: one payload bit of the
    /// `record`-th synced frame (modulo frame count) is flipped.
    CorruptRecord {
        /// Index (modulo frame count) of the synced frame to corrupt.
        record: u32,
        /// Which payload bit (modulo payload length in bits) to flip.
        bit: u32,
    },
    /// Total media loss: every byte, including the boot record, is
    /// gone. Recovery reports [`Recovery::DataLoss`] and the replica
    /// must rejoin without voting rights.
    WipeAll,
}

impl DiskFault {
    /// A short machine-readable name for the fault kind (no
    /// parameters), used by the observability layer to label crash
    /// events: the trace auditor keys its recovery-faithfulness checks
    /// on these names.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            DiskFault::LoseTail => "lose-tail",
            DiskFault::TornTail { .. } => "torn-tail",
            DiskFault::CorruptRecord { .. } => "corrupt-record",
            DiskFault::WipeAll => "wipe-all",
        }
    }
}

impl fmt::Display for DiskFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DiskFault::LoseTail => write!(f, "lose-tail"),
            DiskFault::TornTail { keep_bytes } => write!(f, "torn-tail(keep {keep_bytes} B)"),
            DiskFault::CorruptRecord { record, bit } => {
                write!(f, "corrupt(record {record}, bit {bit})")
            }
            DiskFault::WipeAll => write!(f, "wipe-all"),
        }
    }
}

/// A violation found by the recovery-invariant checker: the durable
/// storage failed to justify what the replica told the outside world.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StorageViolation {
    /// At an ack point (vote grant, replication ack, leader self-ack)
    /// the replica's volatile `(term, log, commit_len)` was not fully
    /// durable: a crash at that instant would forget a promise.
    AckNotDurable {
        /// The replica that acked without durable backing.
        nid: u32,
    },
    /// A recovered replica's state differs from the strict replay of
    /// its synced WAL: recovery resurrected (or dropped) state the
    /// device cannot justify.
    UnfaithfulRecovery {
        /// The replica whose recovered state diverged from its WAL.
        nid: u32,
    },
}

impl fmt::Display for StorageViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageViolation::AckNotDurable { nid } => {
                write!(f, "S{nid} acked state that was not yet durable")
            }
            StorageViolation::UnfaithfulRecovery { nid } => {
                write!(f, "S{nid} recovered state its WAL does not justify")
            }
        }
    }
}
