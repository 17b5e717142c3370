//! The threaded runtime shell around one [`Engine`].
//!
//! All nondeterminism lives here, at the edges: the TCP listener, the
//! per-peer dialer threads, the tick timer, and the wall clock that
//! stamps journal lines. The protocol itself runs single-threaded in
//! [`run`]'s engine loop, fed through one channel — so the state
//! machine the simulations certified is byte-for-byte the one a real
//! cluster runs. The loop also writes every outbound frame itself: no
//! thread sits between it and a socket.
//!
//! # Partial-failure hardening
//!
//! - **Connection supervision**: each outbound peer link is dialled by
//!   a dialer thread, which introduces the node and hands the stream to
//!   the loop, then redials with capped exponential backoff and seeded
//!   jitter when the loop reports the link dead; inbound links are
//!   re-accepted by the listener. The loop writes peer frames without
//!   blocking and keeps at most one frame's unsent tail per link; a
//!   frame offered while a tail is pending, or with no link, is shed
//!   and counted (a follower that missed a frame refuses the next
//!   suffix with a `Nack`, and the leader's next frame to it ships the
//!   whole log, so loss is repaired by the protocol, never compensated
//!   for here). A frame too large to send is dropped alone and
//!   journaled as an `oversized` `BadFrame`; the link stays up.
//! - **Failure detection**: peers are declared suspect by silence — a
//!   follower that misses heartbeats past its jittered election
//!   deadline campaigns; a read deadline reaps sockets whose far end
//!   vanished without a FIN (the kill -9 case).
//! - **Deadlines**: a peer that stops reading costs the loop nothing
//!   (its link sheds); every other write carries a deadline, so one
//!   hung client or dial can never wedge a thread that other links
//!   depend on.
//! - **Crash-restart recovery**: the engine's WAL records are appended
//!   to `data_dir/wal.bin` and flushed before any ack leaves the node
//!   (the file is the only copy; no node holds a WAL image in memory).
//!   A boot replays it through [`Engine::restart`], the simulator's
//!   restart path too, journals the `Crash`/`WalRecover` pair the
//!   auditor expects, and cuts an invalid tail in place. Only a missing
//!   file is a first boot; only a first boot or media loss writes the
//!   file whole, and media loss leaves an `Abstain` record in it for
//!   good.
//! - **Journals**: one JSONL file per boot (`journal-<boot_us>.jsonl`),
//!   written in whole lines, one append per engine step, after the
//!   step's WAL bytes and before its first frame or reply. A SIGKILL
//!   tears at most the final line — which `adore-obs`'s journal merge
//!   drops by design — or loses the step's lines whole, whose records
//!   the next boot's `WalRecover` installs. The files are also the
//!   node's trace export stream ([`crate::export`]).

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use adore_core::NodeId;
use adore_obs::{series_count, EventKind, Metrics, MetricsSnapshot, TraceEvent};
use adore_schemes::SingleNode;
use adore_storage::{DurabilityPolicy, Wal};
use rand::{rngs::StdRng, SeedableRng};
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::det::client::backoff;
use crate::det::engine::{Engine, EngineConfig, EngineParams, Input, Output};
use crate::det::msg::{decode_msg, encode_msg, ClientMsg, ClientReply, Hello, PeerMsg};
use crate::det::wire;
use crate::export;
use crate::scrape;

/// Write timeout on every blocking socket write (a client reply, a
/// dialer's `Hello`): a hung peer fails fast instead of wedging a
/// thread. Peer frames are written without blocking at all.
const WRITE_DEADLINE: Duration = Duration::from_secs(2);
/// Default read deadline on peer links, milliseconds; heartbeats
/// arrive hundreds of times more often, so a silent link this long is
/// dead (kill -9 without a FIN) and the socket is reaped. The fault
/// harness raises it per node so a SIGSTOP gray pause shorter than the
/// deadline resumes on the same sockets instead of looking like a
/// crash.
pub const DEFAULT_PEER_READ_DEADLINE_MS: u64 = 30_000;
/// How long a fresh connection has to introduce itself.
const HELLO_DEADLINE: Duration = Duration::from_secs(5);
/// Reconnect backoff base for the capped exponential.
const BACKOFF_BASE_MS: u64 = 50;
/// Reconnect backoff cap.
const BACKOFF_CAP_MS: u64 = 2_000;
/// Bound on the engine inbox (IO threads block briefly when full).
const INBOX_DEPTH: usize = 1_024;
/// Frames shed because their link still held an earlier frame's tail.
const SHED_FULL: &str = "node.peer_frames_shed_full";
/// Frames shed because their peer had no link (not yet dialled, or
/// its last write failed).
const SHED_DOWN: &str = "node.peer_frames_shed_down";

/// Everything needed to run one node.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// This node's id.
    pub nid: u32,
    /// The full address book: `(nid, host:port)` for every node,
    /// including this one (its own entry is the listen address).
    pub peers: Vec<(u32, String)>,
    /// Data directory: WAL file and per-boot journals live here.
    pub data_dir: PathBuf,
    /// Seed for election jitter and reconnect jitter.
    pub seed: u64,
    /// Milliseconds per engine tick.
    pub tick_ms: u64,
    /// Optional watchdog: exit cleanly after this long (used by the
    /// fault harness so orphaned children cannot outlive a run).
    pub max_runtime_ms: Option<u64>,
    /// Engine tunables.
    pub params: EngineParams,
    /// The reconfiguration guard predicate. Production is
    /// [`adore_core::ReconfigGuard::all`]; the fault harness ablates
    /// individual conditions to manufacture live counterexamples.
    pub guard: adore_core::ReconfigGuard,
    /// Read deadline on inbound peer links, milliseconds
    /// ([`DEFAULT_PEER_READ_DEADLINE_MS`] in production). Gray pauses
    /// (SIGSTOP) longer than this reap the link and force a redial.
    pub peer_read_deadline_ms: u64,
    /// Optional listen address for the streaming trace export
    /// side-channel (the journal files, live over TCP — see
    /// [`crate::export`]). `None` disables export.
    pub export_addr: Option<String>,
    /// Optional listen address for the read-only `/metrics` scrape
    /// endpoint (see [`crate::scrape`]). `None` disables it.
    pub metrics_addr: Option<String>,
}

/// Events flowing into the engine loop from the IO threads. The inbox
/// is the only way state reaches the loop: it owns the peer links, the
/// client write halves and the metrics registry outright, so a thread
/// hands a socket over and asks for the registry here, and nothing is
/// locked.
pub(crate) enum Event {
    Tick,
    Peer(PeerMsg),
    /// A dialer reached peer `to` and introduced this node: the loop
    /// takes the non-blocking stream and writes `to`'s frames on it
    /// until a write fails.
    PeerOpen {
        to: u32,
        stream: TcpStream,
    },
    /// A client session introduced itself: the loop takes the write
    /// half and answers `conn`'s requests on it until `ClientGone`.
    ClientOpen { conn: u64, writer: TcpStream },
    Client { conn: u64, msg: ClientMsg },
    ClientGone { conn: u64 },
    /// A frame the wire layer rejected (`corrupt`, `oversized`) or a
    /// crc-valid frame whose payload is not the expected message type
    /// (`bad-payload`, i.e. protocol-version confusion). Journaled so
    /// the auditor can certify the rejection path actually fired.
    BadFrame { reason: String },
    /// The `/metrics` endpoint wants a snapshot of the registry. The
    /// loop fills the gauges, journals a `MetricsScrape` and offers the
    /// snapshot on `reply` (depth 1, `try_send`: a scraper that gave up
    /// costs the loop nothing).
    Scrape { reply: SyncSender<MetricsSnapshot> },
    Shutdown,
}

/// A peer link as the engine loop holds it: a dialled, introduced,
/// non-blocking stream and the unsent tail of at most one frame. Both
/// are private to this module, so the loop cannot write around the
/// tail: the only way to send a frame is [`Link::send`], whose outcome
/// must be consumed (DESIGN §11: a full link sheds, heartbeats repair).
mod link {
    use std::io::{self, Write};
    use std::net::TcpStream;

    pub(super) struct Link {
        stream: TcpStream,
        /// The frame the socket has not wholly taken, and how much of it
        /// it has: never more than one frame.
        tail: Vec<u8>,
        taken: usize,
    }

    /// What became of a frame offered to a [`Link`].
    #[must_use = "a full or broken link sheds the frame: say so by matching on it"]
    pub(super) enum Sent {
        /// Written whole, or begun with the rest kept as the tail.
        Taken,
        /// An earlier frame's tail is still unsent: this one is shed.
        Full,
        /// The socket failed: the frame is lost, and the link with it.
        Broken,
    }

    impl Link {
        pub(super) fn new(stream: TcpStream) -> Link {
            Link { stream, tail: Vec::new(), taken: 0 }
        }

        /// Writes as much of the tail as the socket takes now.
        ///
        /// # Errors
        ///
        /// The socket failed: the link is dead.
        pub(super) fn flush(&mut self) -> io::Result<()> {
            let rest = self.tail.get(self.taken..).unwrap_or_default();
            self.taken += write_some(&mut self.stream, rest)?;
            if self.taken == self.tail.len() {
                // A catch-up frame's tail may be megabytes: keep none of it.
                (self.tail, self.taken) = (Vec::new(), 0);
            }
            Ok(())
        }

        /// Flushes the tail, then writes `frame` if the tail is gone;
        /// what the socket does not take of it becomes the new tail.
        pub(super) fn send(&mut self, frame: &[u8]) -> Sent {
            if self.flush().is_err() {
                return Sent::Broken;
            }
            if !self.tail.is_empty() {
                return Sent::Full;
            }
            match write_some(&mut self.stream, frame) {
                Ok(n) => {
                    self.tail.extend_from_slice(frame.get(n..).unwrap_or_default());
                    Sent::Taken
                }
                Err(_) => Sent::Broken,
            }
        }

        /// Bytes of the tail the socket has not taken yet.
        pub(super) fn unsent(&self) -> usize {
            self.tail.len() - self.taken
        }
    }

    /// Writes what a non-blocking socket takes of `buf` now, and
    /// returns how much that was.
    fn write_some(stream: &mut TcpStream, buf: &[u8]) -> io::Result<usize> {
        let mut done = 0;
        while let Some(rest) = buf.get(done..).filter(|rest| !rest.is_empty()) {
            match stream.write(rest) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => done += n,
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(done)
    }
}
use link::{Link, Sent};

/// The loop's side of every outbound peer link: the links, each
/// dialer's redial signal, and the frame the current step encoded last
/// (a broadcast of equal messages encodes once).
struct Peers {
    nid: u32,
    links: BTreeMap<u32, Link>,
    redial: BTreeMap<u32, SyncSender<()>>,
    last: Option<(PeerMsg, Vec<u8>)>,
}

#[deny(clippy::let_underscore_must_use)] // L12b: a shed send is matched on, never dropped
impl Peers {
    fn new(nid: u32, redial: BTreeMap<u32, SyncSender<()>>) -> Peers {
        Peers { nid, links: BTreeMap::new(), redial, last: None }
    }

    /// Writes pending tails; a link whose socket failed is dropped and
    /// its dialer told to redial.
    fn flush(&mut self) {
        let redial = &self.redial;
        self.links.retain(|to, link| {
            let up = link.flush().is_ok();
            if !up {
                ask_redial(redial, *to);
            }
            up
        });
    }

    /// Sends `msg` to `to`, encoding it unless it equals the step's last
    /// frame. A frame with no link, or whose link still holds a tail, is
    /// shed and counted in `metrics`. A message that does not encode as
    /// a frame — one past [`wire::MAX_FRAME`] — is dropped alone and
    /// journaled as a `BadFrame`; the link stays up.
    fn send(&mut self, to: u32, msg: PeerMsg, metrics: &mut Metrics, journal: &mut Journal) {
        let Some(link) = self.links.get_mut(&to) else {
            metrics.inc(SHED_DOWN);
            return;
        };
        let frame = match self.last.take() {
            Some((last, frame)) if last == msg => (last, frame),
            _ => match encode_msg(&msg) {
                Ok(frame) => (msg, frame),
                Err(e) => {
                    let reason = wire_reason(&e).to_string();
                    journal.record(EventKind::BadFrame { nid: self.nid, reason });
                    return;
                }
            },
        };
        match link.send(&frame.1) {
            Sent::Taken => {}
            Sent::Full => metrics.inc(SHED_FULL),
            Sent::Broken => {
                metrics.inc(SHED_DOWN);
                self.links.remove(&to);
                ask_redial(&self.redial, to);
            }
        }
        self.last = Some(frame);
    }

    /// The largest unsent tail over the links, in bytes.
    fn unsent_max(&self) -> usize {
        self.links.values().map(Link::unsent).max().unwrap_or(0)
    }
}

/// Tells `to`'s dialer that its link is gone. The channel is depth 1
/// and the loop holds at most one link per peer, so a full channel
/// already holds this request and a closed one has no dialer left.
fn ask_redial(redial: &BTreeMap<u32, SyncSender<()>>, to: u32) {
    if let Some(dialer) = redial.get(&to) {
        match dialer.try_send(()) {
            Ok(()) | Err(TrySendError::Full(()) | TrySendError::Disconnected(())) => {}
        }
    }
}

/// Microseconds since the UNIX epoch; journal stamps must be
/// comparable across the processes of one host-local cluster.
#[must_use]
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The per-boot journal file. Every line is stamped when it is taken
/// and written whole; the engine loop stages a step's lines and appends
/// them at once ([`Journal::flush`]), every other writer one line at a
/// time ([`Journal::record`]).
pub(crate) struct Journal {
    file: fs::File,
    /// Staged whole lines not yet appended.
    pending: Vec<u8>,
}

impl Journal {
    pub(crate) fn open(dir: &Path, boot_us: u64) -> io::Result<Journal> {
        let file = fs::File::create(export::journal_path(dir, boot_us))?;
        Ok(Journal { file, pending: Vec::new() })
    }

    /// Appends `kind`, stamped now, after anything staged, and returns
    /// the event as written.
    pub(crate) fn record(&mut self, kind: EventKind) -> TraceEvent {
        let ev = TraceEvent::root(now_us(), kind);
        self.push(&ev);
        self.flush();
        ev
    }

    /// Stamps `kind` now and stages its line for the next append.
    fn stage(&mut self, kind: EventKind) {
        self.push(&TraceEvent::root(now_us(), kind));
    }

    fn push(&mut self, ev: &TraceEvent) {
        if let Ok(line) = serde_json::to_string(ev) {
            self.pending.extend_from_slice(line.as_bytes());
            self.pending.push(b'\n');
        }
    }

    /// Appends the staged lines in one write.
    fn flush(&mut self) {
        if !self.pending.is_empty() {
            // A step that adopts a whole log stages a line as long as
            // the log: free the buffer with the lines.
            let lines = std::mem::take(&mut self.pending);
            let _ = self.file.write_all(&lines);
        }
    }
}

/// Reads one frame off a stream. `Ok(None)` is a clean EOF at a frame
/// boundary; a deadline expiry or mid-frame EOF is an error (the link
/// is dead or misbehaving either way). Through a [`BufReader`], a frame
/// that arrived whole costs one `read`.
pub(crate) fn read_frame(stream: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut header = [0u8; wire::HEADER];
    if let Err(e) = stream.read_exact(&mut header) {
        return if e.kind() == io::ErrorKind::UnexpectedEof {
            Ok(None)
        } else {
            Err(e)
        };
    }
    let (len, crc) = wire::decode_header(&header).map_err(wire_to_io)?;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload)?;
    wire::verify_payload(&payload, crc).map_err(wire_to_io)?;
    Ok(Some(payload))
}

/// Frames and writes one message.
pub(crate) fn write_frame<T: Serialize>(stream: &mut TcpStream, msg: &T) -> io::Result<()> {
    let frame = encode_msg(msg).map_err(wire_to_io)?;
    stream.write_all(&frame)
}

fn wire_to_io(e: wire::WireError) -> io::Error {
    // Carry the typed error through so `next_msg` can name the
    // rejection class for the journal.
    io::Error::new(io::ErrorKind::InvalidData, e)
}

/// The journal's name for a frame-level rejection.
fn wire_reason(e: &wire::WireError) -> &'static str {
    match e {
        wire::WireError::Oversized { .. } => "oversized",
        wire::WireError::Corrupt => "corrupt",
        wire::WireError::BadPayload { .. } => "bad-payload",
    }
}

/// Boots the engine from `wal_path` through [`Engine::restart`] and
/// returns it with the file open for appending. A missing file is a
/// first boot; any other file means the previous boot ended without
/// ceremony, so the crash (as "kill-9": the page cache survives a
/// SIGKILL, so the auditor's clean-crash equality does not apply) and
/// the recovery are journaled. The file is then brought to the
/// recovered device: an intact replay only cuts an invalid tail, in
/// place; a first boot or media loss writes the fresh device whole.
/// Fail-stops on corruption and on a WAL that exists but cannot be read.
fn boot(
    cfg: EngineConfig,
    wal_path: &Path,
    journal: &mut Journal,
) -> io::Result<(Engine, fs::File)> {
    let nid = cfg.nid;
    let (mut wal, first_boot) = match fs::read(wal_path) {
        Ok(bytes) => (Wal::from_bytes(nid, &bytes), false),
        // Any other failure leaves a WAL on disk that this boot cannot
        // see: booting fresh would overwrite it and rejoin voting with
        // term, vote and log forgotten.
        Err(e) if e.kind() == io::ErrorKind::NotFound => (Wal::new(nid), true),
        Err(e) => {
            let msg = format!("cannot read WAL {}: {e}: fail-stop", wal_path.display());
            return Err(io::Error::new(e.kind(), msg));
        }
    };
    if !first_boot {
        let disk = "kill-9".to_string();
        journal.record(EventKind::Crash { nid: nid.0, disk });
    }
    let engine = Engine::restart(cfg, &mut wal, &DurabilityPolicy::strict(), |recovered| {
        if !first_boot {
            journal.record(recovered);
        }
    });
    let engine = engine.ok_or_else(|| {
        let msg = format!("WAL {} failed its checksum: fail-stop", wal_path.display());
        io::Error::new(io::ErrorKind::InvalidData, msg)
    })?;
    // Only a first boot or media loss wrote records to the device.
    let written = wal.stats().records > 0;
    let keep = if written { 0 } else { wal.disk().len() };
    let mut file = fs::OpenOptions::new().append(true).create(true).open(wal_path)?;
    file.set_len(keep as u64)?;
    file.write_all(wal.disk().bytes().get(keep..).unwrap_or_default())?;
    file.flush()?;
    Ok((engine, file))
}

/// Runs one node until shutdown (watchdog expiry) or listener failure.
///
/// # Errors
///
/// Socket bind/IO failures and WAL corruption (fail-stop).
pub fn run(cfg: NodeConfig) -> io::Result<()> {
    fs::create_dir_all(&cfg.data_dir)?;
    let nid = NodeId(cfg.nid);
    let boot_us = now_us();
    let mut journal = Journal::open(&cfg.data_dir, boot_us)?;
    if let Some(addr) = &cfg.export_addr {
        export::serve(&cfg.data_dir, boot_us, addr)?;
    }
    let members: Vec<u32> = cfg.peers.iter().map(|(n, _)| *n).collect();
    let engine_cfg = EngineConfig {
        nid,
        peers: members.iter().map(|n| NodeId(*n)).collect(),
        conf0: SingleNode::new(members.iter().copied()),
        guard: cfg.guard,
        params: cfg.params.clone(),
        seed: cfg.seed,
    };
    let (engine, wal_file) = boot(engine_cfg, &cfg.data_dir.join("wal.bin"), &mut journal)?;

    // Bound before the timer and the peer dialers start: a node that
    // cannot take its port fails here, having dialled no peer.
    let listen_addr = cfg
        .peers
        .iter()
        .find(|(n, _)| *n == cfg.nid)
        .map(|(_, a)| a.clone())
        .ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidInput, "own nid missing from peer list")
        })?;
    let listener = TcpListener::bind(&listen_addr)?;

    let (inbox_tx, inbox_rx) = mpsc::sync_channel::<Event>(INBOX_DEPTH);
    if let Some(addr) = &cfg.metrics_addr {
        scrape::serve(addr, inbox_tx.clone())?;
    }

    // Tick timer + watchdog.
    {
        let tx = inbox_tx.clone();
        let tick = Duration::from_millis(cfg.tick_ms.max(1));
        let deadline = cfg.max_runtime_ms.map(Duration::from_millis);
        thread::spawn(move || {
            let started = std::time::Instant::now();
            loop {
                thread::sleep(tick);
                if deadline.is_some_and(|d| started.elapsed() >= d) {
                    let _ = tx.send(Event::Shutdown);
                    return;
                }
                if tx.send(Event::Tick).is_err() {
                    return;
                }
            }
        });
    }

    // Outbound peer links: one dialer thread per peer, each with a
    // depth-1 redial signal the loop raises when its link fails.
    let mut redial = BTreeMap::new();
    for (pid, addr) in cfg.peers.iter().filter(|(n, _)| *n != cfg.nid) {
        let (tx, rx) = mpsc::sync_channel(1);
        redial.insert(*pid, tx);
        let (to, addr) = (*pid, addr.clone());
        let my_nid = cfg.nid;
        let seed = cfg.seed ^ (u64::from(cfg.nid) << 32) ^ u64::from(*pid);
        let inbox = inbox_tx.clone();
        thread::spawn(move || peer_dialer(my_nid, to, &addr, &inbox, &rx, seed));
    }

    // Listener: inbound peer links and client sessions.
    {
        let tx = inbox_tx;
        let peer_deadline = Duration::from_millis(cfg.peer_read_deadline_ms.max(1));
        thread::spawn(move || {
            let next_conn = Arc::new(AtomicU64::new(1));
            for stream in listener.incoming() {
                let Ok(stream) = stream else { continue };
                let tx = tx.clone();
                let next_conn = Arc::clone(&next_conn);
                thread::spawn(move || {
                    serve_connection(stream, &tx, &next_conn, peer_deadline);
                });
            }
        });
    }

    engine_loop(cfg.nid, engine, &inbox_rx, Peers::new(cfg.nid, redial), journal, wal_file)
}

/// The engine loop: the single deterministic thread, and the owner of
/// everything the IO threads talk to — the peer links, the client write
/// halves, the request timers and the metrics registry. It writes every
/// outbound frame itself: a step's journal lines go out in one append
/// after its WAL bytes and before its first frame or reply, and peer
/// frames only through [`Peers::send`], whose sheds are counted.
#[deny(clippy::let_underscore_must_use)] // L12b: a shed send is matched on, never dropped
fn engine_loop(
    nid: u32,
    mut engine: Engine,
    inbox: &Receiver<Event>,
    mut peers: Peers,
    mut journal: Journal,
    mut wal_file: fs::File,
) -> io::Result<()> {
    let mut clients: BTreeMap<u64, TcpStream> = BTreeMap::new();
    let mut metrics = Metrics::new();
    // The shed series exist from boot, so a scrape shows them at 0.
    metrics.add(SHED_FULL, 0);
    metrics.add(SHED_DOWN, 0);
    // `in_flight` times acked requests for the `request_latency_us`
    // histogram: one pending (seq, start) per client connection —
    // sessions are serial per client, and a retry overwrite restarts
    // the clock, which only biases the measurement pessimistically.
    let mut in_flight: BTreeMap<u64, (u64, Instant)> = BTreeMap::new();
    while let Ok(event) = inbox.recv() {
        // Ticks arrive every `tick_ms`, so a tail waits at most one.
        peers.flush();
        let input = match event {
            Event::Tick => Input::Tick,
            Event::Peer(msg) => Input::Peer(msg),
            Event::PeerOpen { to, stream } => {
                peers.links.insert(to, Link::new(stream));
                continue;
            }
            Event::ClientOpen { conn, writer } => {
                clients.insert(conn, writer);
                continue;
            }
            Event::Client { conn, msg } => {
                match &msg {
                    ClientMsg::Put { seq, .. }
                    | ClientMsg::Delete { seq, .. }
                    | ClientMsg::Reconfigure { seq, .. } => {
                        in_flight.insert(conn, (*seq, Instant::now()));
                    }
                    ClientMsg::Get { .. } | ClientMsg::Status => {}
                }
                Input::Client { conn, msg }
            }
            Event::ClientGone { conn } => {
                clients.remove(&conn);
                in_flight.remove(&conn);
                Input::ClientGone { conn }
            }
            Event::BadFrame { reason } => {
                // Rejected frames never reach the engine; journal the
                // rejection so `adore-obs --audit` can certify the
                // crc/length/protocol checks actually fired.
                journal.record(EventKind::BadFrame { nid, reason });
                continue;
            }
            Event::Scrape { reply } => {
                // The gauges are filled here and nowhere else: a step
                // that nobody scrapes pays nothing for them.
                fill_gauges(&mut metrics, &engine, &peers);
                let snap = metrics.snapshot();
                let series = series_count(&snap);
                if reply.try_send(snap).is_ok() {
                    journal.record(EventKind::MetricsScrape { nid, series });
                }
                continue;
            }
            Event::Shutdown => break,
        };
        let mut dead_conns = Vec::new();
        for output in engine.step(input) {
            match output {
                Output::Persist { bytes } => {
                    // The write-ahead rule: on disk before any later
                    // Send/Reply of this batch leaves the process.
                    wal_file.write_all(&bytes)?;
                    wal_file.flush()?;
                    journal.stage(EventKind::WalSync { nid });
                }
                Output::Journal(kind) => journal.stage(kind),
                Output::Send { to, msg } => {
                    journal.flush();
                    peers.send(to.0, msg, &mut metrics, &mut journal);
                }
                Output::Reply { conn, reply } => {
                    journal.flush();
                    match &reply {
                        ClientReply::Acked { seq, .. } => {
                            if let Some(&(want, started)) = in_flight.get(&conn) {
                                if want == *seq {
                                    in_flight.remove(&conn);
                                    let us = u64::try_from(started.elapsed().as_micros())
                                        .unwrap_or(u64::MAX);
                                    metrics.observe("request_latency_us", us);
                                }
                            }
                        }
                        ClientReply::Redirect { .. }
                        | ClientReply::Overloaded
                        | ClientReply::SessionStale { .. }
                        | ClientReply::Rejected { .. } => {
                            // The request resolved without committing:
                            // its timer must not bleed into a later ack.
                            in_flight.remove(&conn);
                        }
                        ClientReply::Value { .. } | ClientReply::Status { .. } => {}
                    }
                    // The socket write carries a deadline, so a slow
                    // client costs the loop at most that.
                    let gone = clients
                        .get_mut(&conn)
                        .is_some_and(|writer| write_frame(writer, &reply).is_err());
                    if gone {
                        clients.remove(&conn);
                        dead_conns.push(conn);
                    }
                }
            }
        }
        journal.flush();
        peers.last = None;
        for conn in dead_conns {
            // A reply we could not deliver: drop the connection's
            // remaining waiters too.
            in_flight.remove(&conn);
            drop(engine.step(Input::ClientGone { conn }));
        }
    }
    Ok(())
}

/// Fills the scrapeable gauges from the engine and the links.
fn fill_gauges(metrics: &mut Metrics, engine: &Engine, peers: &Peers) {
    let gauge = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
    metrics.set_gauge("node.commit_index", gauge(engine.commit_len()));
    metrics.set_gauge("node.config_epoch", gauge(engine.config_epoch()));
    metrics.set_gauge("node.session_occupancy", gauge(engine.session_occupancy()));
    metrics.set_gauge("node.peer_unsent_bytes_max", gauge(peers.unsent_max()));
}

/// Milliseconds to wait before redialling after `failures` consecutive
/// failed attempts: the client core's [`backoff`], capped at
/// [`BACKOFF_CAP_MS`].
fn backoff_ms(failures: u32, rng: &mut StdRng) -> u64 {
    backoff(BACKOFF_BASE_MS, BACKOFF_CAP_MS, failures, rng)
}

/// Dials peer `to` at `addr` and hands each introduced stream to the
/// engine loop as a `PeerOpen`, then waits for the loop's redial signal
/// (a write on it failed). The first redial is immediate; consecutive
/// failed dials back off (capped exponential + seeded jitter). Ends
/// with the engine loop.
fn peer_dialer(
    my_nid: u32,
    to: u32,
    addr: &str,
    inbox: &SyncSender<Event>,
    redial: &Receiver<()>,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures: u32 = 0;
    loop {
        match dial(my_nid, addr) {
            Ok(stream) => {
                failures = 0;
                if inbox.send(Event::PeerOpen { to, stream }).is_err() || redial.recv().is_err() {
                    return;
                }
            }
            Err(_) => {
                failures = failures.saturating_add(1);
                thread::sleep(Duration::from_millis(backoff_ms(failures, &mut rng)));
            }
        }
    }
}

/// Connects to a peer and introduces this node, blocking under
/// [`WRITE_DEADLINE`]; the stream it returns is non-blocking. A link is
/// up once the `Hello` is written: a peer that accepts and then resets
/// counts as a failed dial, not as a success that clears the backoff.
fn dial(my_nid: u32, addr: &str) -> io::Result<TcpStream> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_write_timeout(Some(WRITE_DEADLINE))?;
    write_frame(&mut stream, &Hello::Peer { from: my_nid })?;
    stream.set_nonblocking(true)?;
    Ok(stream)
}

/// Reads the next `T` off a connection. `Ok(None)` ends it quietly: a
/// clean EOF, or a transport failure (deadline expiry, reset), which is
/// a link death, not a protocol violation. `Err` names a frame-level
/// rejection — bad crc, oversized length, or a crc-valid frame that is
/// not a `T` (`bad-payload`: a peer speaking another protocol version)
/// — already journaled as a `BadFrame`, never a silent discard, so the
/// audit can prove the rejection path fired.
fn next_msg<T: DeserializeOwned>(
    stream: &mut impl Read,
    tx: &SyncSender<Event>,
) -> Result<Option<T>, &'static str> {
    let reason = match read_frame(stream) {
        Ok(Some(payload)) => match decode_msg(&payload) {
            Ok(msg) => return Ok(Some(msg)),
            Err(e) => wire_reason(&e),
        },
        Ok(None) => return Ok(None),
        Err(e) => match e.get_ref().and_then(|e| e.downcast_ref()) {
            Some(e) => wire_reason(e),
            None => return Ok(None),
        },
    };
    let _ = tx.send(Event::BadFrame {
        reason: reason.to_string(),
    });
    Err(reason)
}

/// Handles one accepted connection: a `Hello` within the deadline, then
/// a peer pump or a client session, each until EOF, a dead link or a
/// rejected frame (see [`next_msg`]). Reads go through one
/// [`BufReader`] for the connection's life, the `Hello` included.
fn serve_connection(
    stream: TcpStream,
    tx: &SyncSender<Event>,
    next_conn: &AtomicU64,
    peer_read_deadline: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
    let _ = stream.set_read_timeout(Some(HELLO_DEADLINE));
    let mut stream = BufReader::new(stream);
    let Ok(Some(hello)) = next_msg::<Hello>(&mut stream, tx) else {
        return;
    };
    match hello {
        Hello::Peer { from: _ } => {
            let _ = stream.get_ref().set_read_timeout(Some(peer_read_deadline));
            while let Ok(Some(msg)) = next_msg::<PeerMsg>(&mut stream, tx) {
                if tx.send(Event::Peer(msg)).is_err() {
                    return;
                }
            }
        }
        Hello::Client { client: _ } => {
            let conn = next_conn.fetch_add(1, Ordering::Relaxed);
            let Ok(writer) = stream.get_ref().try_clone() else {
                return;
            };
            if tx.send(Event::ClientOpen { conn, writer }).is_err() {
                return;
            }
            let _ = stream.get_ref().set_read_timeout(None);
            loop {
                match next_msg::<ClientMsg>(&mut stream, tx) {
                    Ok(Some(msg)) => {
                        if tx.send(Event::Client { conn, msg }).is_err() {
                            break;
                        }
                    }
                    Ok(None) => break,
                    Err(reason) => {
                        if reason == "bad-payload" {
                            // Tell the well-framed-but-unintelligible
                            // client why before hanging up on it.
                            let reason = "protocol-version mismatch: undecodable frame";
                            let reply = ClientReply::Rejected {
                                reason: reason.to_string(),
                            };
                            let _ = write_frame(stream.get_mut(), &reply);
                        }
                        break;
                    }
                }
            }
            let _ = tx.send(Event::ClientGone { conn });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_to_its_cap_and_jitters_the_upper_half() {
        let mut rng = StdRng::seed_from_u64(7);
        for failures in 1..=40u32 {
            let cap = (BACKOFF_BASE_MS << failures.min(6)).min(BACKOFF_CAP_MS);
            let draws: Vec<u64> = (0..200).map(|_| backoff_ms(failures, &mut rng)).collect();
            assert!(
                draws.iter().all(|d| (cap / 2..=cap + 1).contains(d)),
                "failures={failures}: {draws:?}"
            );
            assert!(draws.iter().min() < draws.iter().max(), "failures={failures}: no jitter");
        }
        // First retry is quick, and no count — u32::MAX included — waits
        // past the cap.
        assert!(backoff_ms(1, &mut rng) <= 2 * BACKOFF_BASE_MS + 1);
        assert!(backoff_ms(u32::MAX, &mut rng) <= BACKOFF_CAP_MS + 1);
    }

    /// A frame past the cap costs the sender that frame only: the loop's
    /// send path journals an `oversized` `BadFrame`, sheds nothing, and
    /// the same link carries the next message.
    #[test]
    fn an_oversized_frame_is_dropped_alone_and_journaled() {
        use crate::det::msg::SessionCmd;
        use adore_core::Timestamp;
        use adore_kv::KvCommand;
        use adore_raft::{Command, Entry, Request};

        let dir = test_dir("adored-oversized");
        let mut journal = Journal::open(&dir, 1).expect("journal");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let mut peers = Peers::new(1, BTreeMap::new());
        peers.links.insert(2, Link::new(dial(1, &addr).expect("the dial")));
        let (peer, _) = listener.accept().expect("the dial lands");
        peer.set_read_timeout(Some(Duration::from_secs(5))).expect("deadline");
        let mut peer = BufReader::new(peer);
        let mut next = || read_frame(&mut peer).expect("a frame").expect("not EOF");
        let hello: Hello = decode_msg(&next()).expect("a hello");
        assert_eq!(hello, Hello::Peer { from: 1 });

        let op = KvCommand::put("k", "x".repeat(wire::MAX_FRAME));
        let huge = PeerMsg::Req(Request::Commit {
            from: NodeId(1),
            time: Timestamp(1),
            prev_len: 0,
            log: vec![Entry {
                time: Timestamp(1),
                cmd: Command::Method(SessionCmd { client: 1, seq: 1, op: Some(op) }),
            }],
            commit_len: 0,
        });
        let ack = PeerMsg::CommitAck { from: 1, time: 1, len: 1 };
        let mut metrics = Metrics::new();
        peers.send(2, huge, &mut metrics, &mut journal);
        peers.send(2, ack.clone(), &mut metrics, &mut journal);
        let after: PeerMsg = decode_msg(&next()).expect("a peer message");
        assert_eq!(after, ack, "the same link carries the next message");
        assert_eq!((metrics.counter(SHED_FULL), metrics.counter(SHED_DOWN)), (0, 0));
        let lines = fs::read_to_string(export::journal_path(&dir, 1)).expect("journal");
        let events = adore_obs::parse_jsonl(&lines).expect("the journal parses");
        let oversized = EventKind::BadFrame { nid: 1, reason: "oversized".into() };
        assert!(matches!(&events[..], [e] if e.kind == oversized), "{lines}");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A reader that hands out one pre-cut segment per `read` call and
    /// counts the calls: what a socket does with what arrived.
    struct Segments {
        segments: std::collections::VecDeque<Vec<u8>>,
        reads: usize,
    }

    impl Read for Segments {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let Some(mut segment) = self.segments.pop_front() else {
                return Ok(0);
            };
            let rest = segment.split_off(segment.len().min(buf.len()));
            buf[..segment.len()].copy_from_slice(&segment);
            if !rest.is_empty() {
                self.segments.push_front(rest);
            }
            Ok(segment.len())
        }
    }

    fn segmented(segments: Vec<Vec<u8>>) -> BufReader<Segments> {
        BufReader::new(Segments { segments: segments.into(), reads: 0 })
    }

    /// Two frames that arrived in one segment come out as two frames,
    /// from one `read` of the socket; one frame split across three
    /// writes comes out whole.
    #[test]
    fn read_frame_splits_a_shared_segment_and_joins_a_split_frame() {
        let a = encode_msg(&PeerMsg::Nack { from: 1, time: 2 }).expect("encodes");
        let b = encode_msg(&PeerMsg::CommitAck { from: 3, time: 2, len: 9 }).expect("encodes");
        let payload = |frame: &[u8]| frame[wire::HEADER..].to_vec();

        let mut both = segmented(vec![[a.clone(), b.clone()].concat()]);
        assert_eq!(read_frame(&mut both).expect("a").as_deref(), Some(&payload(&a)[..]));
        assert_eq!(both.get_ref().reads, 1, "one read for the first frame");
        assert_eq!(read_frame(&mut both).expect("b").as_deref(), Some(&payload(&b)[..]));
        assert_eq!(both.get_ref().reads, 1, "the second frame was already read");
        assert_eq!(read_frame(&mut both).expect("EOF"), None);

        let mid = wire::HEADER + 2;
        let mut split = segmented(vec![b[..3].to_vec(), b[3..mid].to_vec(), b[mid..].to_vec()]);
        assert_eq!(read_frame(&mut split).expect("b").as_deref(), Some(&payload(&b)[..]));
        assert_eq!(read_frame(&mut split).expect("EOF"), None);
    }

    /// Two free localhost ports: bind, note, release.
    fn free_addrs() -> (String, String) {
        let bind = || TcpListener::bind("127.0.0.1:0").expect("bind");
        let (a, b) = (bind(), bind());
        let addr = |l: &TcpListener| l.local_addr().expect("addr").to_string();
        (addr(&a), addr(&b))
    }

    #[test]
    fn one_node_serves_clients_and_scrapes_from_state_the_loop_owns() {
        use crate::client::{ClientParams, NetClient};

        let dir = std::env::temp_dir().join(format!("adored-own-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let (listen, metrics_addr) = free_addrs();
        let cfg = NodeConfig {
            nid: 1,
            peers: vec![(1, listen.clone())],
            data_dir: dir.clone(),
            seed: 3,
            tick_ms: 5,
            max_runtime_ms: Some(3_000),
            params: EngineParams::default(),
            guard: adore_core::ReconfigGuard::all(),
            peer_read_deadline_ms: DEFAULT_PEER_READ_DEADLINE_MS,
            export_addr: None,
            metrics_addr: Some(metrics_addr.clone()),
        };
        let node = thread::spawn(move || run(cfg));

        // The first client rides its retry path through boot and the
        // self-election, then holds one acked write.
        let addrs = BTreeMap::from([(1, listen.clone())]);
        let mut first = NetClient::new(addrs, 7, ClientParams::default());
        let ack = first.put("k", "v").expect("the lone member acks");
        assert!(!ack.duplicate);

        // A second client hangs up mid-request: growing the membership
        // to an absent node parks its waiter for good (no reply inside
        // the first deadline). On `ClientGone` the loop drops the write
        // half and the waiter; with the reader thread's half gone too,
        // the client reads EOF instead of running into its deadline.
        let mut second = TcpStream::connect(&listen).expect("dial");
        write_frame(&mut second, &Hello::Client { client: 8 }).expect("hello");
        let grow = ClientMsg::Reconfigure { client: 8, seq: 1, members: vec![1, 2] };
        write_frame(&mut second, &grow).expect("request");
        second.set_read_timeout(Some(Duration::from_millis(300))).expect("deadline");
        assert!(second.read(&mut [0u8; 8]).is_err(), "the request must still be waiting");
        second.shutdown(std::net::Shutdown::Write).expect("hang up");
        second.set_read_timeout(Some(Duration::from_secs(3))).expect("deadline");
        assert_eq!(second.read(&mut [0u8; 8]).expect("EOF, not a deadline"), 0);
        // ... and the first client is still answered on its own writer.
        assert_eq!(first.get("k").expect("read"), Some("v".to_string()));

        let mut scrape = TcpStream::connect(&metrics_addr).expect("dial /metrics");
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
        let mut text = String::new();
        scrape.read_to_string(&mut text).expect("exposition");
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        assert!(text.contains("request_latency_us_count 1\n"), "{text}");
        for gauge in [
            "node_commit_index",
            "node_config_epoch",
            "node_session_occupancy",
            "node_peer_unsent_bytes_max",
        ] {
            assert!(text.contains(&format!("# TYPE {gauge} gauge")), "{gauge}: {text}");
        }
        // A lone member sends no frame, so it sheds none: the series
        // exist from boot, at 0.
        for shed in ["node_peer_frames_shed_full", "node_peer_frames_shed_down"] {
            assert!(text.contains(&format!("# TYPE {shed} counter\n{shed} 0\n")), "{shed}: {text}");
        }

        node.join().expect("no panic").expect("the watchdog ends the run cleanly");
        let journal = fs::read_dir(&dir)
            .expect("data dir")
            .filter_map(Result::ok)
            .find(|e| e.file_name().to_string_lossy().starts_with("journal-"))
            .expect("one boot, one journal");
        let lines = fs::read_to_string(journal.path()).expect("journal");
        // The shell journals each `WalSync` right after its `Persist`
        // bytes are written and flushed: every state delta (election +
        // barrier, the put, the parked reconfiguration) is followed by
        // its sync, ahead of anything the step announces.
        let events = adore_obs::parse_jsonl(&lines).expect("the journal parses");
        let tags: Vec<&str> = events.iter().map(|e| e.kind.tag()).collect();
        assert_eq!(
            tags,
            [
                "state-delta",
                "wal-sync",
                "leader-elected",
                "state-delta",
                "wal-sync",
                "state-delta",
                "wal-sync",
                "metrics-scrape",
            ],
            "{lines}"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    /// One exposition from the `/metrics` endpoint at `addr`.
    fn scrape(addr: &str) -> String {
        let mut scrape = TcpStream::connect(addr).expect("dial /metrics");
        scrape.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect("request");
        let mut text = String::new();
        scrape.read_to_string(&mut text).expect("exposition");
        assert!(text.starts_with("HTTP/1.1 200 OK"), "{text}");
        text
    }

    /// The value of the unlabelled series `name` in an exposition.
    fn series(text: &str, name: &str) -> u64 {
        let line = text.lines().find_map(|l| l.strip_prefix(name)?.strip_prefix(' '));
        line.and_then(|v| v.parse().ok()).unwrap_or_else(|| panic!("{name}: {text}"))
    }

    /// A member that accepts its links and never reads fills the
    /// leader's socket to it. The loop sheds that member's frames
    /// instead of waiting on it, so the other two keep acking; no link
    /// holds more than one frame unsent; and when the member reads at
    /// last, its stream is whole, crc-valid frames only.
    #[test]
    fn a_stalled_peer_never_stalls_the_loop() {
        use crate::client::{ClientParams, NetClient};

        const VALUE: usize = 64 << 10;
        let dir = test_dir("adored-stalled");
        let stalled = TcpListener::bind("127.0.0.1:0").expect("bind");
        let ((a1, a2), (m1, m2)) = (free_addrs(), free_addrs());
        let book = vec![
            (1, a1.clone()),
            (2, a2.clone()),
            (3, stalled.local_addr().expect("addr").to_string()),
        ];
        let nodes: Vec<_> = [(1, m1.clone()), (2, m2.clone())]
            .into_iter()
            .map(|(nid, metrics_addr)| {
                let cfg = NodeConfig {
                    nid,
                    peers: book.clone(),
                    data_dir: dir.join(format!("n{nid}")),
                    seed: 9,
                    tick_ms: 5,
                    // ~3 s of work in a debug build, then the watchdog.
                    max_runtime_ms: Some(8_000),
                    params: EngineParams::default(),
                    guard: adore_core::ReconfigGuard::all(),
                    peer_read_deadline_ms: DEFAULT_PEER_READ_DEADLINE_MS,
                    export_addr: None,
                    metrics_addr: Some(metrics_addr),
                };
                thread::spawn(move || run(cfg))
            })
            .collect();
        // Both members dial the stalled one at boot; it holds the links
        // and reads nothing but each `Hello`, to learn whose link it is.
        let mut held = BTreeMap::new();
        while held.len() < 2 {
            let (link, _) = stalled.accept().expect("a dial");
            link.set_read_timeout(Some(Duration::from_secs(10))).expect("deadline");
            let mut link = BufReader::new(link);
            let hello = read_frame(&mut link).expect("a hello").expect("not EOF");
            let Ok(Hello::Peer { from }) = decode_msg(&hello) else {
                panic!("not a peer hello");
            };
            held.insert(from, link);
        }

        let addrs = BTreeMap::from([(1, a1), (2, a2)]);
        let params = ClientParams::default();
        let deadline = params.request_timeout;
        let mut client = NetClient::new(addrs, 7, params);
        client.put("warm", "up").expect("two of three members elect and ack");
        let value = "x".repeat(VALUE);
        let sheds = || [&m1, &m2].map(|m| series(&scrape(m), "node_peer_frames_shed_full"));
        let mut puts = 0;
        while sheds().iter().all(|&n| n == 0) {
            assert!(puts < 400, "{puts} puts of {VALUE} B and no frame shed");
            for _ in 0..8 {
                let started = Instant::now();
                client.put(&format!("k{puts}"), &value).expect("acked");
                assert!(started.elapsed() < deadline, "put {puts} took {:?}", started.elapsed());
                puts += 1;
            }
        }
        let leader = if sheds()[0] > 0 { 1 } else { 2 };
        for m in [&m1, &m2] {
            // Each link's tail is one frame of one put at most.
            let unsent = series(&scrape(m), "node_peer_unsent_bytes_max");
            assert!(unsent <= (VALUE + 1024) as u64, "{unsent} B unsent");
        }

        // The stalled member reads at last: everything the leader wrote
        // to it, then a frame carrying a put made after it woke (the
        // first few may still find the tail full and be shed).
        let mut link = held.remove(&leader).expect("the leader's link");
        let (woke, saw) = mpsc::sync_channel(1);
        let reader = thread::spawn(move || {
            let mut frames = 0;
            loop {
                let payload = read_frame(&mut link).expect("whole, crc-valid frames");
                let payload = payload.expect("the link stays open");
                let _: PeerMsg = decode_msg(&payload).expect("a peer message");
                frames += 1;
                if String::from_utf8_lossy(&payload).contains("\"after-") {
                    woke.send(()).expect("the test waits");
                    return frames;
                }
            }
        });
        for i in 0.. {
            assert!(i < 100, "no put made after the wake reached the member");
            client.put(&format!("after-{i}"), "woke").expect("acked");
            if saw.recv_timeout(Duration::from_millis(50)).is_ok() {
                break;
            }
        }
        let frames = reader.join().expect("the stream stays framed");
        assert!(frames > 1, "{frames}");
        for node in nodes {
            node.join().expect("no panic").expect("the watchdog ends the run cleanly");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// A fresh data directory for one test.
    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        dir
    }

    /// Boots a one-member node in `dir` until its watchdog ends it (long
    /// enough to elect itself several times over) and returns the
    /// events of that boot's journal.
    fn boot_alone(dir: &Path) -> Vec<adore_obs::TraceEvent> {
        let journals = || -> Vec<PathBuf> {
            let entries = fs::read_dir(dir).expect("data dir").filter_map(Result::ok);
            let paths = entries.map(|e| e.path());
            paths.filter(|p| p.to_string_lossy().contains("journal-")).collect()
        };
        let before = journals();
        run(NodeConfig {
            nid: 1,
            peers: vec![(1, free_addrs().0)],
            data_dir: dir.to_path_buf(),
            seed: 5,
            tick_ms: 5,
            max_runtime_ms: Some(600),
            params: EngineParams::default(),
            guard: adore_core::ReconfigGuard::all(),
            peer_read_deadline_ms: DEFAULT_PEER_READ_DEADLINE_MS,
            export_addr: None,
            metrics_addr: None,
        })
        .expect("the watchdog ends the run cleanly");
        let journal = journals().into_iter().find(|p| !before.contains(p));
        let text = fs::read_to_string(journal.expect("one journal per boot")).expect("journal");
        adore_obs::parse_jsonl(&text).expect("the journal parses")
    }

    fn tags(events: &[adore_obs::TraceEvent]) -> Vec<&'static str> {
        events.iter().map(|e| e.kind.tag()).collect()
    }

    /// The outcome of the boot's `WalRecover`, if it journaled one.
    fn recovered(events: &[adore_obs::TraceEvent]) -> Option<&str> {
        events.iter().find_map(|e| match &e.kind {
            EventKind::WalRecover { outcome, .. } => Some(outcome.as_str()),
            _ => None,
        })
    }

    /// A `wal.bin` whose first frame is torn holds no boot record: media
    /// loss. The lone member abstains on that boot and, because recovery
    /// wrote the abstention into the file, on the next one too.
    #[test]
    fn a_torn_first_frame_abstains_on_every_later_boot() {
        let dir = test_dir("adored-torn-boot");
        let fresh = Wal::<crate::det::msg::Cfg, crate::det::msg::SessionCmd>::new(NodeId(1));
        fs::write(dir.join("wal.bin"), &fresh.disk().bytes()[..5]).expect("a torn boot frame");
        for (boot, outcome) in [("first", "data-loss"), ("second", "intact")] {
            let events = boot_alone(&dir);
            assert_eq!(recovered(&events), Some(outcome), "{boot} boot");
            assert!(!tags(&events).contains(&"leader-elected"), "{boot} boot led");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    /// Only a missing file is a first boot: an empty one is a device
    /// with nothing on it, so the node recovers media loss and abstains.
    #[test]
    fn an_empty_wal_file_is_media_loss_not_a_first_boot() {
        let dir = test_dir("adored-empty-wal");
        fs::write(dir.join("wal.bin"), b"").expect("an empty WAL");
        let events = boot_alone(&dir);
        assert_eq!(recovered(&events), Some("data-loss"));
        assert!(!tags(&events).contains(&"leader-elected"), "{:?}", tags(&events));
        let _ = fs::remove_dir_all(&dir);
    }

    /// A boot cuts a torn tail in place: afterwards the file is the
    /// valid prefix, byte for byte, followed only by whole frames the
    /// new boot appended.
    #[test]
    fn a_torn_tail_is_cut_in_place_behind_the_valid_prefix() {
        let dir = test_dir("adored-torn-tail");
        let wal_path = dir.join("wal.bin");
        let first = boot_alone(&dir);
        assert_eq!(recovered(&first), None, "a first boot recovers nothing");
        assert!(tags(&first).contains(&"leader-elected"));
        let prefix = fs::read(&wal_path).expect("the first boot's WAL");
        let mut torn = prefix.clone();
        torn.extend_from_slice(&[0x2a, 0, 0]);
        fs::write(&wal_path, &torn).expect("a torn tail");

        let second = boot_alone(&dir);
        assert_eq!(recovered(&second), Some("intact"));
        assert!(tags(&second).contains(&"leader-elected"), "the replay kept its vote");
        let after = fs::read(&wal_path).expect("the second boot's WAL");
        assert_eq!(after.get(..prefix.len()), Some(prefix.as_slice()));
        let mut off = prefix.len();
        while off < after.len() {
            let frame = adore_storage::split_frame(&after, off).expect("a whole frame");
            assert!(frame.crc_ok, "a frame at {off} fails its checksum");
            off = frame.next;
        }
        assert!(off > prefix.len(), "the second boot appended its term");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_unreadable_wal_is_fail_stop_not_first_boot() {
        let dir = std::env::temp_dir().join(format!("adored-wal-dir-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // A `wal.bin` that exists but cannot be read as a file.
        let wal_path = dir.join("wal.bin");
        fs::create_dir_all(wal_path.join("keep")).expect("mkdir");
        let err = run(NodeConfig {
            nid: 1,
            peers: vec![(1, "127.0.0.1:0".to_string())],
            data_dir: dir.clone(),
            seed: 1,
            tick_ms: 10,
            max_runtime_ms: Some(1),
            params: EngineParams::default(),
            guard: adore_core::ReconfigGuard::all(),
            peer_read_deadline_ms: DEFAULT_PEER_READ_DEADLINE_MS,
            export_addr: None,
            metrics_addr: None,
        })
        .expect_err("a WAL that cannot be read must not boot");
        assert!(err.to_string().contains("cannot read WAL"), "{err}");
        assert!(wal_path.join("keep").is_dir(), "the path was left as found");
        let _ = fs::remove_dir_all(&dir);
    }

    /// A node whose listen port is taken fails with the bind error
    /// before its peer dialers start: its peer is never dialled.
    #[test]
    fn an_occupied_listen_port_fails_the_boot_before_any_peer_is_dialled() {
        let dir = std::env::temp_dir().join(format!("adored-bind-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let taken = TcpListener::bind("127.0.0.1:0").expect("bind");
        let peer = TcpListener::bind("127.0.0.1:0").expect("bind");
        peer.set_nonblocking(true).expect("nonblocking");
        let addr = |l: &TcpListener| l.local_addr().expect("addr").to_string();
        let err = run(NodeConfig {
            nid: 1,
            peers: vec![(1, addr(&taken)), (2, addr(&peer))],
            data_dir: dir.clone(),
            seed: 1,
            tick_ms: 10,
            max_runtime_ms: Some(1_000),
            params: EngineParams::default(),
            guard: adore_core::ReconfigGuard::all(),
            peer_read_deadline_ms: DEFAULT_PEER_READ_DEADLINE_MS,
            export_addr: None,
            metrics_addr: None,
        })
        .expect_err("the port is taken");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse, "{err}");
        thread::sleep(Duration::from_millis(300));
        let dialled = peer.accept();
        assert!(
            matches!(&dialled, Err(e) if e.kind() == io::ErrorKind::WouldBlock),
            "the peer was dialled: {dialled:?}"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
