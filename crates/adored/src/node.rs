//! The threaded runtime shell around one [`Engine`].
//!
//! All nondeterminism lives here, at the edges: the TCP listener, the
//! per-peer connector threads, the tick timer, and the wall clock that
//! stamps journal lines. The protocol itself runs single-threaded in
//! [`run`]'s engine loop, fed through one channel — so the state
//! machine the simulations certified is byte-for-byte the one a real
//! cluster runs.
//!
//! # Partial-failure hardening
//!
//! - **Connection supervision**: each outbound peer link is owned by a
//!   connector thread that redials with capped exponential backoff and
//!   seeded jitter; inbound links are re-accepted by the listener. A
//!   dead link drops messages (a follower that missed a frame refuses
//!   the next suffix with a `Nack`, and the leader's next frame to it
//!   ships the whole log, so loss is repaired by the protocol, never
//!   compensated for here). A frame too large to send is dropped alone
//!   and journaled as an `oversized` `BadFrame`; the link stays up.
//! - **Failure detection**: peers are declared suspect by silence — a
//!   follower that misses heartbeats past its jittered election
//!   deadline campaigns; a read deadline reaps sockets whose far end
//!   vanished without a FIN (the kill -9 case).
//! - **Deadlines**: every socket carries a write timeout, so one hung
//!   peer can never wedge a thread that other links depend on.
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
//!   written a line at a time, so a SIGKILL can tear at most the final
//!   line — which `adore-obs`'s journal merge drops by design. The
//!   files are also the node's trace export stream ([`crate::export`]).

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Read, Write};
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

/// Write timeout on every socket: a hung peer fails fast instead of
/// wedging a sender thread.
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
/// Bound on each per-peer outbox (overflow drops; heartbeats repair).
const PEER_OUTBOX_DEPTH: usize = 256;

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
/// is the only way state reaches the loop: it owns the client write
/// halves and the metrics registry outright, so a thread hands the one
/// over and asks for the other here, and nothing is locked.
pub(crate) enum Event {
    Tick,
    Peer(PeerMsg),
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

/// A per-peer outbox as the engine loop holds it. The sender is
/// private to this module, so the loop cannot reach a blocking `send`:
/// the only way to queue a frame is [`Outbox::try_send`], whose outcome
/// must be consumed (DESIGN §11: overflow sheds, heartbeats repair).
mod outbox {
    use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};

    use crate::det::msg::PeerMsg;

    pub(super) struct Outbox(SyncSender<PeerMsg>);

    impl Outbox {
        /// A bounded outbox and the connector's end of it.
        pub(super) fn bounded(depth: usize) -> (Outbox, Receiver<PeerMsg>) {
            let (tx, rx) = mpsc::sync_channel(depth);
            (Outbox(tx), rx)
        }

        #[must_use = "a full or dead outbox sheds the frame: say so by matching on it"]
        pub(super) fn try_send(&self, msg: PeerMsg) -> Result<(), TrySendError<PeerMsg>> {
            self.0.try_send(msg)
        }
    }
}
use outbox::Outbox;

/// Microseconds since the UNIX epoch; journal stamps must be
/// comparable across the processes of one host-local cluster.
#[must_use]
pub fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// The per-boot journal file: every event is stamped, serialized and
/// written in one append, so a SIGKILL tears at most the last line.
pub(crate) struct Journal {
    file: fs::File,
}

impl Journal {
    pub(crate) fn open(dir: &Path, boot_us: u64) -> io::Result<Journal> {
        let file = fs::File::create(export::journal_path(dir, boot_us))?;
        Ok(Journal { file })
    }

    /// Appends `kind`, stamped now, and returns the event as written.
    pub(crate) fn record(&mut self, kind: EventKind) -> TraceEvent {
        let ev = TraceEvent::root(now_us(), kind);
        if let Ok(mut line) = serde_json::to_string(&ev) {
            line.push('\n');
            let _ = self.file.write_all(line.as_bytes());
        }
        ev
    }
}

/// Reads one frame off a stream. `Ok(None)` is a clean EOF at a frame
/// boundary; a deadline expiry or mid-frame EOF is an error (the link
/// is dead or misbehaving either way).
pub(crate) fn read_frame(stream: &mut TcpStream) -> io::Result<Option<Vec<u8>>> {
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

    // Bound before the timer and the peer connectors start: a node that
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

    // Outbound peer links: one supervised connector thread per peer.
    let mut outboxes: BTreeMap<u32, Outbox> = BTreeMap::new();
    for (pid, addr) in cfg.peers.iter().filter(|(n, _)| *n != cfg.nid) {
        let (outbox, rx) = Outbox::bounded(PEER_OUTBOX_DEPTH);
        outboxes.insert(*pid, outbox);
        let addr = addr.clone();
        let my_nid = cfg.nid;
        let seed = cfg.seed ^ (u64::from(cfg.nid) << 32) ^ u64::from(*pid);
        let inbox = inbox_tx.clone();
        thread::spawn(move || peer_connector(my_nid, &addr, &rx, &inbox, seed));
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

    engine_loop(cfg.nid, engine, &inbox_rx, &outboxes, journal, wal_file)
}

/// The engine loop: the single deterministic thread, and the owner of
/// everything the IO threads talk to — the client write halves, the
/// request timers and the metrics registry. Peer frames leave only
/// through [`Outbox::try_send`], outcome consumed.
#[deny(clippy::let_underscore_must_use)] // L12b: a shed send is matched on, never dropped
fn engine_loop(
    nid: u32,
    mut engine: Engine,
    inbox: &Receiver<Event>,
    outboxes: &BTreeMap<u32, Outbox>,
    mut journal: Journal,
    mut wal_file: fs::File,
) -> io::Result<()> {
    let mut clients: BTreeMap<u64, TcpStream> = BTreeMap::new();
    let mut metrics = Metrics::new();
    // `in_flight` times acked requests for the `request_latency_us`
    // histogram: one pending (seq, start) per client connection —
    // sessions are serial per client, and a retry overwrite restarts
    // the clock, which only biases the measurement pessimistically.
    let mut in_flight: BTreeMap<u64, (u64, Instant)> = BTreeMap::new();
    while let Ok(event) = inbox.recv() {
        let input = match event {
            Event::Tick => Input::Tick,
            Event::Peer(msg) => Input::Peer(msg),
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
                fill_gauges(&mut metrics, &engine);
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
                    journal.record(EventKind::WalSync { nid });
                }
                Output::Journal(kind) => {
                    journal.record(kind);
                }
                Output::Send { to, msg } => {
                    if let Some(outbox) = outboxes.get(&to.0) {
                        match outbox.try_send(msg) {
                            Ok(()) | Err(TrySendError::Full(_) | TrySendError::Disconnected(_)) => {
                            }
                        }
                    }
                }
                Output::Reply { conn, reply } => {
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
        for conn in dead_conns {
            // A reply we could not deliver: drop the connection's
            // remaining waiters too.
            in_flight.remove(&conn);
            drop(engine.step(Input::ClientGone { conn }));
        }
    }
    Ok(())
}

/// Fills the scrapeable gauges from the engine.
fn fill_gauges(metrics: &mut Metrics, engine: &Engine) {
    let gauge = |v: usize| i64::try_from(v).unwrap_or(i64::MAX);
    metrics.set_gauge("node.commit_index", gauge(engine.commit_len()));
    metrics.set_gauge("node.config_epoch", gauge(engine.config_epoch()));
    metrics.set_gauge("node.session_occupancy", gauge(engine.session_occupancy()));
}

/// Milliseconds to wait before redialling after `failures` consecutive
/// failed attempts: the client core's [`backoff`], capped at
/// [`BACKOFF_CAP_MS`].
fn backoff_ms(failures: u32, rng: &mut StdRng) -> u64 {
    backoff(BACKOFF_BASE_MS, BACKOFF_CAP_MS, failures, rng)
}

/// Supervised outbound link: dial, introduce, pump messages; on any
/// transport failure back off (capped exponential + seeded jitter) and
/// redial. A message that does not encode as a frame — one past
/// [`wire::MAX_FRAME`] — is the sender's problem, not the link's: it is
/// dropped alone, reported to the engine loop as a `BadFrame` to
/// journal, and the link stays up.
fn peer_connector(
    my_nid: u32,
    addr: &str,
    rx: &Receiver<PeerMsg>,
    inbox: &SyncSender<Event>,
    seed: u64,
) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut failures: u32 = 0;
    loop {
        // A link is up once the `Hello` is written: a peer that accepts
        // and then resets counts as a failed dial, not as a success
        // that clears the backoff.
        let link = TcpStream::connect(addr).and_then(|mut stream| {
            let _ = stream.set_nodelay(true);
            let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
            // Anything queued while the link was down is stale
            // (heartbeats supersede it); start fresh.
            while rx.try_recv().is_ok() {}
            write_frame(&mut stream, &Hello::Peer { from: my_nid })?;
            Ok(stream)
        });
        match link {
            Ok(mut stream) => {
                failures = 0;
                loop {
                    let Ok(msg) = rx.recv() else {
                        return; // engine gone: shut down
                    };
                    match encode_msg(&msg) {
                        Ok(frame) => {
                            if stream.write_all(&frame).is_err() {
                                break; // dead link: redial
                            }
                        }
                        Err(e) => {
                            let reason = wire_reason(&e).to_string();
                            if inbox.send(Event::BadFrame { reason }).is_err() {
                                return;
                            }
                        }
                    }
                }
            }
            Err(_) => {
                failures = failures.saturating_add(1);
                thread::sleep(Duration::from_millis(backoff_ms(failures, &mut rng)));
                // Drop queued messages while unreachable: the engine's
                // bounded outbox must never block on a dead peer.
                while rx.try_recv().is_ok() {}
            }
        }
    }
}

/// Reads the next `T` off a connection. `Ok(None)` ends it quietly: a
/// clean EOF, or a transport failure (deadline expiry, reset), which is
/// a link death, not a protocol violation. `Err` names a frame-level
/// rejection — bad crc, oversized length, or a crc-valid frame that is
/// not a `T` (`bad-payload`: a peer speaking another protocol version)
/// — already journaled as a `BadFrame`, never a silent discard, so the
/// audit can prove the rejection path fired.
fn next_msg<T: DeserializeOwned>(
    stream: &mut TcpStream,
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
/// rejected frame (see [`next_msg`]).
fn serve_connection(
    mut stream: TcpStream,
    tx: &SyncSender<Event>,
    next_conn: &AtomicU64,
    peer_read_deadline: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(WRITE_DEADLINE));
    let _ = stream.set_read_timeout(Some(HELLO_DEADLINE));
    let Ok(Some(hello)) = next_msg::<Hello>(&mut stream, tx) else {
        return;
    };
    match hello {
        Hello::Peer { from: _ } => {
            let _ = stream.set_read_timeout(Some(peer_read_deadline));
            while let Ok(Some(msg)) = next_msg::<PeerMsg>(&mut stream, tx) {
                if tx.send(Event::Peer(msg)).is_err() {
                    return;
                }
            }
        }
        Hello::Client { client: _ } => {
            let conn = next_conn.fetch_add(1, Ordering::Relaxed);
            let Ok(writer) = stream.try_clone() else {
                return;
            };
            if tx.send(Event::ClientOpen { conn, writer }).is_err() {
                return;
            }
            let _ = stream.set_read_timeout(None);
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
                            let _ = write_frame(&mut stream, &reply);
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

    /// A frame past the cap costs the sender that frame only: the link
    /// stays up and carries the next message, and the engine loop is
    /// told to journal an `oversized` `BadFrame`.
    #[test]
    fn an_oversized_frame_is_dropped_alone_and_journaled() {
        use crate::det::msg::SessionCmd;
        use adore_core::Timestamp;
        use adore_kv::KvCommand;
        use adore_raft::{Command, Entry, Request};

        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let (outbox, rx) = Outbox::bounded(4);
        let (inbox, events) = mpsc::sync_channel(4);
        let connector = thread::spawn(move || peer_connector(1, &addr, &rx, &inbox, 7));
        let (mut peer, _) = listener.accept().expect("the connector dials");
        peer.set_read_timeout(Some(Duration::from_secs(5))).expect("deadline");
        let next = |peer: &mut TcpStream| read_frame(peer).expect("a frame").expect("not EOF");
        // Past the `Hello`, the connector drops nothing queued.
        let hello: Hello = decode_msg(&next(&mut peer)).expect("a hello");
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
        assert!(outbox.try_send(huge).is_ok() && outbox.try_send(ack.clone()).is_ok());
        let after: PeerMsg = decode_msg(&next(&mut peer)).expect("a peer message");
        assert_eq!(after, ack, "the same link carries the next message");
        assert!(matches!(
            events.recv_timeout(Duration::from_secs(5)),
            Ok(Event::BadFrame { reason }) if reason == "oversized"
        ));
        drop(outbox);
        connector.join().expect("the connector ends with its outbox");
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
        for gauge in ["node_commit_index", "node_config_epoch", "node_session_occupancy"] {
            assert!(text.contains(&format!("# TYPE {gauge} gauge")), "{gauge}: {text}");
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
    /// before its peer connectors start: its peer is never dialled.
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
