//! The write-ahead log: length-prefixed, CRC-checked records over a
//! [`SimDisk`], with crash-fault injection and replay-based recovery.
//!
//! # Record framing
//!
//! Every record is one frame on disk:
//!
//! ```text
//! [len: u32 LE] [crc32: u32 LE] [payload: len bytes of JSON]
//! ```
//!
//! The checksum is CRC-32 (IEEE) over the payload only. The payload is
//! the JSON encoding of a [`WalRecord`] — human-readable on purpose, so
//! counterexample traces can quote WAL contents directly. This module
//! owns the frame ([`HEADER`], [`encode_frame`], [`decode_header`],
//! [`split_frame`]); `adored`'s wire codec frames every message with it
//! and adds only a length cap.
//!
//! # Recovery
//!
//! [`Wal::recover`] replays frames from the start of the device and
//! folds them into a [`DurableState`]. The walk stops at the first
//! incomplete frame (a torn write at the crash point) and, under the
//! strict [`DurabilityPolicy`], fail-stops on a checksum mismatch and
//! truncates any invalid tail in place, so a later replay cannot stop
//! short of what is appended next. Each of those three duties is a
//! policy knob precisely so the storage-ablation hunts can turn one off
//! and watch committed-prefix agreement break.
//!
//! A device with no [`WalRecord::Boot`] — wiped, torn in its first
//! frame, or empty — is media loss ([`Recovery::DataLoss`]). Recovery
//! restarts it as `Boot` followed by [`WalRecord::Abstain`], so every
//! later replay, compaction included, still says the replica forgot
//! promises it made and must never vote again.
//!
//! # The mirror
//!
//! Alongside the device, the WAL maintains a *mirror*: the state a
//! strict replay would recover if the process crashed right now (i.e. a
//! strict decode of the synced region). The mirror is the certification
//! ghost behind [`crate::StorageViolation::AckNotDurable`] — after every
//! sync it is advanced incrementally, and after every injected fault it
//! is recomputed from the surviving bytes.

use adore_core::{NodeId, Timestamp};
use adore_raft::{Entry, Log};
use serde::{de, Deserialize, Serialize};

use crate::disk::SimDisk;
use crate::{DiskFault, DurabilityPolicy};

/// Frame header size: 4-byte length + 4-byte CRC.
pub const HEADER: usize = 8;

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), table-driven. Computed
/// at compile time — the workspace vendors no checksum crate.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE) of `bytes`.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFF_u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// One durable record. Everything a replica acks must be reconstructible
/// from a replay of these.
///
/// There is no separate `voted_for` record: in this protocol adopting a
/// timestamp *is* the vote (an `Elect` delivery at a time the recipient
/// has already adopted is rejected as stale), so persisting [`Term`]
/// covers both the current term and the vote within it.
///
/// [`Term`]: WalRecord::Term
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WalRecord<C, M> {
    /// Written (and synced) once at WAL creation; its absence on replay
    /// means total media loss, not an empty-but-intact log.
    Boot {
        /// The replica this WAL belongs to.
        nid: u32,
    },
    /// The replica adopted this timestamp — by campaigning or by
    /// granting a vote. This *is* the vote record (see the enum docs).
    Term {
        /// The adopted logical timestamp.
        time: u64,
    },
    /// The log was cut back to `len` entries (divergent suffix replaced
    /// during a full-log adoption).
    Truncate {
        /// Surviving log length after the cut.
        len: u64,
    },
    /// One log entry appended at the current end.
    Append {
        /// The appended entry.
        entry: Entry<C, M>,
    },
    /// The commit watermark advanced to `len`.
    CommitLen {
        /// The new commit watermark.
        len: u64,
    },
    /// Written once, right after a fresh `Boot`, when recovery found
    /// the media gone: the replica forgot promises it made and must
    /// never vote again. Replay and compaction keep it.
    Abstain,
    /// Compaction: replaces the log, term and watermark folded so far.
    Snapshot {
        /// Logical timestamp at the snapshot point.
        time: u64,
        /// Commit watermark at the snapshot point.
        commit_len: u64,
        /// The full log at the snapshot point.
        log: Log<C, M>,
    },
}

/// The state a WAL replay reconstructs: the durable projection of a
/// replica's `(time, log, commit_len)` and of its right to vote.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DurableState<C, M> {
    /// Whether a [`WalRecord::Boot`] record was seen (distinguishes an
    /// empty log from a wiped device).
    pub booted: bool,
    /// Whether a [`WalRecord::Abstain`] record was seen: the device lost
    /// its media once, so the replica never votes again.
    pub abstaining: bool,
    /// Last adopted timestamp (term + vote; see [`WalRecord::Term`]).
    pub time: Timestamp,
    /// The replayed log.
    pub log: Log<C, M>,
    /// The replayed commit watermark (clamped to `log.len()` by
    /// recovery: a commit record may survive a crash that its entries,
    /// written later in a different batch, did not).
    pub commit_len: usize,
}

impl<C, M> Default for DurableState<C, M> {
    fn default() -> Self {
        DurableState {
            booted: false,
            abstaining: false,
            time: Timestamp::ZERO,
            log: Vec::new(),
            commit_len: 0,
        }
    }
}

impl<C: Clone, M: Clone> DurableState<C, M> {
    /// Folds one record into the state.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn apply(&mut self, rec: &WalRecord<C, M>) {
        match rec {
            WalRecord::Boot { .. } => self.booted = true,
            WalRecord::Abstain => self.abstaining = true,
            WalRecord::Term { time } => self.time = Timestamp(*time),
            WalRecord::Truncate { len } => self.log.truncate(*len as usize),
            WalRecord::Append { entry } => self.log.push(entry.clone()),
            WalRecord::CommitLen { len } => self.commit_len = *len as usize,
            WalRecord::Snapshot { time, commit_len, log } => {
                self.commit_len = *commit_len as usize;
                self.log = log.clone();
                self.time = Timestamp(*time);
            }
        }
    }
}

/// What [`Wal::recover`] found on the device.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Recovery<C, M> {
    /// Replay succeeded; rejoin with this state.
    Intact(DurableState<C, M>),
    /// No boot record survived: the media is gone. The device now holds
    /// `Boot` + `Abstain`, whose fold ([`Wal::mirror`]) is the state to
    /// rejoin with: empty, and never voting again.
    DataLoss,
    /// A synced record failed its checksum (index of the bad frame).
    /// Fail-stop: silent corruption cannot be repaired locally.
    Corrupt {
        /// Index of the frame that failed its checksum.
        record: usize,
    },
}

impl<C, M> Recovery<C, M> {
    /// A short machine-readable name for the recovery outcome, used by
    /// the observability layer to label recovery events.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Recovery::Intact(_) => "intact",
            Recovery::DataLoss => "data-loss",
            Recovery::Corrupt { .. } => "corrupt",
        }
    }
}

/// Counters for the E10 table: how much WAL traffic the discipline costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended over the WAL's lifetime.
    pub records: usize,
    /// `sync` calls (each models one `fsync`).
    pub syncs: usize,
    /// Total framed bytes written.
    pub bytes_written: usize,
}

/// Appends `payload` to `out` as one frame (see the module docs);
/// panics past `u32::MAX` bytes.
pub fn encode_frame(payload: &[u8], out: &mut Vec<u8>) {
    let len = u32::try_from(payload.len()).expect("payload fits a u32 frame");
    out.reserve(HEADER + payload.len());
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Appends `rec` to `out` as one frame: the one record encoder.
/// [`Wal::append`] writes its output to the device; the networked
/// runtime's engine hands it to the shell to append to a file, without
/// keeping a device image of its own.
///
/// # Panics
///
/// If `rec` does not serialize or its payload exceeds `u32::MAX` bytes.
pub fn encode_record<C: Serialize, M: Serialize>(rec: &WalRecord<C, M>, out: &mut Vec<u8>) {
    let payload = serde_json::to_string(rec).expect("WAL records serialize");
    encode_frame(payload.as_bytes(), out);
}

/// A header's `(payload length, CRC)`.
#[must_use]
pub fn decode_header(header: &[u8; HEADER]) -> (usize, u32) {
    let [l0, l1, l2, l3, c0, c1, c2, c3] = *header;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    (len as usize, u32::from_le_bytes([c0, c1, c2, c3]))
}

/// Whether `payload` matches the CRC its header carries.
#[must_use]
pub fn crc_matches(payload: &[u8], crc: u32) -> bool {
    crc32(payload) == crc
}

/// A frame [`split_frame`] found: payload, checksum verdict, offset of
/// the next frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// The payload bytes.
    pub payload: &'a [u8],
    /// Whether the payload matches the header CRC.
    pub crc_ok: bool,
    /// Offset of the byte after this frame.
    pub next: usize,
}

/// Splits the frame starting at `off`, if one is fully present; `None`
/// means the bytes end mid-frame.
#[must_use]
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
pub fn split_frame(bytes: &[u8], off: usize) -> Option<Frame<'_>> {
    let rest = bytes.get(off..)?;
    let (len, crc) = decode_header(rest.first_chunk()?);
    let payload = rest.get(HEADER..HEADER + len)?;
    Some(Frame {
        payload,
        crc_ok: crc_matches(payload, crc),
        next: off + HEADER + len,
    })
}

#[must_use]
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
fn parse_payload<C, M>(payload: &[u8]) -> Option<WalRecord<C, M>>
where
    C: Serialize + de::DeserializeOwned,
    M: Serialize + de::DeserializeOwned,
{
    let s = std::str::from_utf8(payload).ok()?;
    serde_json::from_str(s).ok()
}

/// A write-ahead log for one replica, over a fault-injectable
/// [`SimDisk`]. See the module docs for framing, recovery, and the
/// mirror.
#[derive(Debug, Clone)]
pub struct Wal<C, M> {
    nid: u32,
    disk: SimDisk,
    /// Strict decode of the synced region: what a crash-now would leave.
    mirror: DurableState<C, M>,
    /// Byte offset up to which `mirror` has folded the synced region.
    mirror_off: usize,
    /// Set when the strict decode hit an invalid frame; the mirror never
    /// advances past it (a real replay would stop there too).
    mirror_frozen: bool,
    stats: WalStats,
}

impl<C, M> Wal<C, M>
where
    C: Clone + Serialize + de::DeserializeOwned,
    M: Clone + Serialize + de::DeserializeOwned,
{
    /// Creates the WAL for `nid`, writing and syncing the boot record.
    #[must_use]
    pub fn new(nid: NodeId) -> Self {
        let mut wal = Wal::from_bytes(nid, &[]);
        wal.rewrite(&[WalRecord::Boot { nid: nid.0 }]);
        wal
    }

    /// Rebuilds a WAL from raw device bytes read back from a real file:
    /// the bytes are installed as the synced region, and the caller runs
    /// [`Wal::recover`] next, exactly as after a simulated crash. Empty
    /// bytes are a device with nothing on it, which recovers as
    /// [`Recovery::DataLoss`]; a first boot is [`Wal::new`].
    #[must_use]
    pub fn from_bytes(nid: NodeId, bytes: &[u8]) -> Self {
        let mut disk = SimDisk::new();
        disk.write(bytes);
        disk.sync();
        let mut wal = Wal {
            nid: nid.0,
            disk,
            mirror: DurableState::default(),
            mirror_off: 0,
            mirror_frozen: false,
            stats: WalStats::default(),
        };
        wal.rebuild_mirror();
        wal
    }

    /// Appends one framed record to the volatile tail (no sync).
    pub fn append(&mut self, rec: &WalRecord<C, M>) {
        let mut frame = Vec::new();
        encode_record(rec, &mut frame);
        self.disk.write(&frame);
        self.stats.records += 1;
        self.stats.bytes_written += frame.len();
    }

    /// Appends records already framed by [`encode_record`] (a protocol
    /// engine's persist output) to the volatile tail (no sync).
    pub fn append_framed(&mut self, bytes: &[u8]) {
        let mut off = 0;
        while let Some(frame) = split_frame(bytes, off) {
            self.stats.records += 1;
            off = frame.next;
        }
        self.disk.write(bytes);
        self.stats.bytes_written += bytes.len();
    }

    /// Makes everything appended so far durable and advances the mirror.
    pub fn sync(&mut self) {
        self.disk.sync();
        self.stats.syncs += 1;
        self.advance_mirror();
    }

    /// Injects a crash-time disk fault. All surviving bytes count as
    /// synced afterwards (the crash flushed whatever it kept), and the
    /// mirror is recomputed from the survivors.
    pub fn crash(&mut self, fault: &DiskFault) {
        match fault {
            DiskFault::LoseTail => self.disk.crash_lose_tail(),
            DiskFault::TornTail { keep_bytes } => self.disk.crash_torn(*keep_bytes as usize),
            DiskFault::WipeAll => self.disk.crash_wipe(),
            DiskFault::CorruptRecord { record, bit } => {
                self.disk.crash_lose_tail();
                self.flip_record_bit(*record as usize, *bit as usize);
            }
        }
        self.rebuild_mirror();
    }

    /// Flips one payload bit of the `record % frames`-th synced frame
    /// (no-op on a frameless device). `bit` indexes into the payload
    /// bits, modulo the payload size.
    fn flip_record_bit(&mut self, record: usize, bit: usize) {
        let bytes = self.disk.synced_bytes();
        let mut frames = Vec::new();
        let mut off = 0;
        while let Some(f) = split_frame(bytes, off) {
            frames.push((off + HEADER, f.payload.len()));
            off = f.next;
        }
        if frames.is_empty() {
            return;
        }
        let (start, len) = frames[record % frames.len()];
        if len == 0 {
            return;
        }
        let bit = bit % (len * 8);
        self.disk.flip_bit(start + bit / 8, (bit % 8) as u8);
    }

    /// Replays the device into a [`Recovery`] under `policy`.
    ///
    /// The walk stops at the first incomplete frame. A checksum mismatch
    /// fail-stops ([`Recovery::Corrupt`]) when `verify_checksums` is on;
    /// with it ablated the payload is trusted if it still parses — the
    /// injected bug. When `truncate_invalid_tail` is on, bytes past the
    /// last accepted frame are cut so the next replay cannot stop early
    /// at stale garbage; with it ablated, records appended after the
    /// garbage are silently lost to every future replay. A device with
    /// no `Boot` record restarts as `Boot` + `Abstain`
    /// ([`Recovery::DataLoss`]).
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn recover(&mut self, policy: &DurabilityPolicy) -> Recovery<C, M> {
        let mut state = DurableState::default();
        let mut off = 0;
        let mut index = 0usize;
        // The walk ends at the first incomplete frame: a torn write, or
        // the clean end of the log.
        while let Some(frame) = split_frame(self.disk.bytes(), off) {
            if !frame.crc_ok && policy.verify_checksums {
                self.rebuild_mirror();
                return Recovery::Corrupt { record: index };
            }
            // Checksum ok, or verification ablated: trust the payload if
            // it still parses; otherwise treat the frame as torn.
            let Some(rec) = parse_payload::<C, M>(frame.payload) else {
                break;
            };
            state.apply(&rec);
            off = frame.next;
            index += 1;
        }
        if !state.booted {
            // Total loss: restart the device, and make the abstention
            // as durable as the boot record.
            self.rewrite(&[WalRecord::Boot { nid: self.nid }, WalRecord::Abstain]);
            return Recovery::DataLoss;
        }
        if policy.truncate_invalid_tail {
            self.disk.truncate_to(off);
        }
        state.commit_len = state.commit_len.min(state.log.len());
        self.rebuild_mirror();
        Recovery::Intact(state)
    }

    /// Compacts the WAL: rewrites the device as boot (+ abstention) +
    /// one snapshot of the current mirror state. Off the simulation hot
    /// path; kept as the growth point for log truncation.
    pub fn compact(&mut self) {
        let mut records = vec![WalRecord::Boot { nid: self.nid }];
        if self.mirror.abstaining {
            records.push(WalRecord::Abstain);
        }
        records.push(WalRecord::Snapshot {
            time: self.mirror.time.0,
            commit_len: self.mirror.commit_len as u64,
            log: self.mirror.log.clone(),
        });
        self.rewrite(&records);
    }

    /// Replaces the device with `records`, synced.
    fn rewrite(&mut self, records: &[WalRecord<C, M>]) {
        self.disk = SimDisk::new();
        for rec in records {
            self.append(rec);
        }
        self.sync();
        self.rebuild_mirror();
    }

    /// The certification ghost: what a strict replay would recover if
    /// the replica crashed right now.
    #[must_use]
    pub fn mirror(&self) -> &DurableState<C, M> {
        &self.mirror
    }

    /// Lifetime WAL traffic counters.
    #[must_use]
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// The underlying device (tests and table reporting).
    #[must_use]
    pub fn disk(&self) -> &SimDisk {
        &self.disk
    }

    /// Advances the mirror over newly synced frames; freezes at the
    /// first invalid one.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn advance_mirror(&mut self) {
        while !self.mirror_frozen && self.mirror_off < self.disk.synced_len() {
            match split_frame(self.disk.synced_bytes(), self.mirror_off) {
                Some(f) if f.crc_ok => match parse_payload::<C, M>(f.payload) {
                    Some(rec) => {
                        self.mirror.apply(&rec);
                        self.mirror_off = f.next;
                    }
                    None => self.mirror_frozen = true,
                },
                _ => self.mirror_frozen = true,
            }
        }
    }

    /// Recomputes the mirror from scratch (after any injected fault or
    /// recovery rewrote the device).
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn rebuild_mirror(&mut self) {
        self.mirror = DurableState::default();
        self.mirror_off = 0;
        self.mirror_frozen = false;
        self.advance_mirror();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adore_raft::Command;
    use adore_schemes::SingleNode;

    type TestWal = Wal<SingleNode, String>;

    fn append(wal: &mut TestWal, m: &str) {
        let entry = Entry {
            time: Timestamp(4),
            cmd: Command::Method(m.to_string()),
        };
        wal.append(&WalRecord::Append { entry });
    }

    fn intact(wal: &mut TestWal) -> DurableState<SingleNode, String> {
        match wal.recover(&DurabilityPolicy::strict()) {
            Recovery::Intact(state) => state,
            other => panic!("expected an intact replay, got {}", other.kind_name()),
        }
    }

    /// Media loss is a fact of the device, not of one boot: a clean
    /// crash, compaction and a torn tail later, the replay still
    /// abstains, and the log the abstainer kept replicating is still
    /// there.
    #[test]
    fn a_device_that_lost_its_media_abstains_on_every_later_replay() {
        let mut wal = TestWal::new(NodeId(1));
        wal.append(&WalRecord::Term { time: 3 });
        wal.sync();
        wal.crash(&DiskFault::WipeAll);
        assert_eq!(wal.recover(&DurabilityPolicy::strict()), Recovery::DataLoss);
        assert!(wal.mirror().abstaining && wal.mirror().log.is_empty());

        wal.append(&WalRecord::Term { time: 4 });
        append(&mut wal, "m1");
        wal.sync();
        wal.crash(&DiskFault::LoseTail);
        let state = intact(&mut wal);
        assert!(state.booted && state.abstaining);
        assert_eq!((state.time, state.log.len()), (Timestamp(4), 1));

        wal.compact();
        assert_eq!(intact(&mut wal), state, "compaction keeps the abstention");
        append(&mut wal, "m2");
        wal.crash(&DiskFault::TornTail { keep_bytes: 3 });
        assert_eq!(intact(&mut wal), state);
    }

    /// Only a missing file is a first boot: an empty device has no boot
    /// record, so it is media loss, and the device recovery leaves
    /// behind abstains when read back.
    #[test]
    fn an_empty_device_is_media_loss() {
        let mut wal = TestWal::from_bytes(NodeId(1), &[]);
        assert_eq!(wal.recover(&DurabilityPolicy::strict()), Recovery::DataLoss);
        let mut reread = TestWal::from_bytes(NodeId(1), wal.disk().bytes());
        assert!(intact(&mut reread).abstaining);
        assert!(!intact(&mut TestWal::new(NodeId(1))).abstaining);
    }
}
