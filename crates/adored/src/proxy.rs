//! The fault-injecting wire layer: one TCP proxy per directed peer
//! link.
//!
//! `netmesis` never patches the node under test. Each node's address
//! book is rewritten so that its outbound link to peer `j` dials a
//! local proxy listener instead; the proxy dials the real `j` and pumps
//! frames across, enacting whatever fault the live [`LinkState`]
//! currently prescribes:
//!
//! - **Cut** (partition): frames are read and black-holed. The TCP
//!   connection stays up, so this is a *silent* partition — the
//!   paper-shaped failure where the network looks healthy and only the
//!   protocol's own timeouts can notice.
//! - **Loss**: each frame is dropped with probability `drop_pct`.
//! - **Corrupt**: a payload bit is flipped *after* framing, so the
//!   header carries the original CRC and the receiving codec must take
//!   its checksum-rejection path ([`crate::det::wire::WireError::Corrupt`]).
//! - **Delay / jitter**: seeded uniform jitter on top of a base delay,
//!   applied per frame.
//! - **Reorder**: a one-frame hold-back window; with probability
//!   `reorder_pct` a frame is stashed and emitted *after* its
//!   successor.
//! - **Slow-loris**: the frame header and first half of the payload are
//!   written, then the link stalls mid-frame before completing — the
//!   receiver sees a torn, eventually-completed frame, never a codec
//!   violation.
//! - **Reset**: the link generation is bumped; every pump thread on
//!   that link tears down its sockets, forcing the node's supervised
//!   connector through its redial path.
//!
//! All proxy decisions draw from a per-connection `StdRng` seeded from
//! the proxy seed and the link's endpoints, so a campaign's wire
//! behaviour is as reproducible as the schedule that drives it.
//!
//! Everything here is fault *enactment* on the hot path, so the module
//! is written panic-free (no unwraps, no indexing) and is held to that
//! by the clippy restriction lints denied on `accept_loop`, `pump` and
//! `write_faulted` (L2).

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L8: no `let _ =` on a result in a recovery scope

use std::collections::BTreeMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::det::wire;

/// How long a pump thread blocks in one read before re-checking the
/// link state, the shutdown flag, and the reset generation.
const POLL: Duration = Duration::from_millis(50);
/// Write deadline towards the real node (a wedged target must not hang
/// the proxy forever).
const PROXY_WRITE_DEADLINE: Duration = Duration::from_secs(5);
/// How long a slow-loris link stalls mid-frame.
const SLOW_STALL: Duration = Duration::from_millis(400);
/// Read chunk size.
const CHUNK: usize = 64 * 1024;

/// The live fault prescription for one directed link: independent
/// knobs the campaign driver stores and the pumps load per frame, so
/// each is an atomic and nothing is locked (`Relaxed` throughout: no
/// knob publishes other data).
#[derive(Debug, Default)]
pub struct LinkState {
    /// Black-hole every frame (silent partition).
    pub cut: AtomicBool,
    /// Drop each frame with this percent probability.
    pub drop_pct: AtomicU32,
    /// Corrupt each frame (bit-flip after framing) with this percent
    /// probability.
    pub corrupt_pct: AtomicU32,
    /// Base forwarding delay per frame, milliseconds.
    pub delay_ms: AtomicU64,
    /// Uniform jitter on top of the base delay, milliseconds.
    pub jitter_ms: AtomicU64,
    /// Hold a frame back past its successor with this percent
    /// probability (bounded reorder, window 1).
    pub reorder_pct: AtomicU32,
    /// Stall mid-frame on every write (slow-loris half-frames).
    pub slow: AtomicBool,
    /// Bumped to tear down every connection on the link.
    pub generation: AtomicU64,
}

/// Monotonic per-link tallies, shared with the campaign driver.
#[derive(Debug, Default)]
pub struct LinkCounters {
    /// Frames forwarded unmodified (possibly delayed/reordered).
    pub forwarded: AtomicU64,
    /// Frames forwarded with a flipped payload bit under the original
    /// CRC.
    pub corrupted: AtomicU64,
    /// Frames black-holed by a cut or probabilistic loss.
    pub dropped: AtomicU64,
    /// Connection teardowns forced by a reset.
    pub resets: AtomicU64,
}

/// A point-in-time copy of one link's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LinkTally {
    /// Frames forwarded unmodified.
    pub forwarded: u64,
    /// Frames forwarded corrupted.
    pub corrupted: u64,
    /// Frames black-holed.
    pub dropped: u64,
    /// Forced connection teardowns.
    pub resets: u64,
}

struct Link {
    proxy_addr: String,
    state: Arc<LinkState>,
    counters: Arc<LinkCounters>,
}

/// The mesh of per-directed-link proxies for one cluster.
pub struct ProxyNet {
    real_addrs: BTreeMap<u32, String>,
    links: BTreeMap<(u32, u32), Link>,
    shutdown: Arc<AtomicBool>,
}

impl ProxyNet {
    /// Builds one proxy listener per ordered pair of distinct nodes in
    /// `real_addrs` and starts their accept/pump threads.
    ///
    /// # Errors
    ///
    /// Socket bind failures.
    pub fn new(real_addrs: &BTreeMap<u32, String>, seed: u64) -> io::Result<ProxyNet> {
        let shutdown = Arc::new(AtomicBool::new(false));
        let mut links = BTreeMap::new();
        for &from in real_addrs.keys() {
            for (&to, target) in real_addrs {
                if from == to {
                    continue;
                }
                let listener = TcpListener::bind("127.0.0.1:0")?;
                listener.set_nonblocking(true)?;
                let proxy_addr = listener.local_addr()?.to_string();
                let state = Arc::new(LinkState::default());
                let counters = Arc::new(LinkCounters::default());
                let link_seed =
                    seed ^ (u64::from(from) << 40) ^ (u64::from(to) << 20) ^ 0x70_72_6f_78;
                {
                    let state = Arc::clone(&state);
                    let counters = Arc::clone(&counters);
                    let shutdown = Arc::clone(&shutdown);
                    let target = target.clone();
                    thread::spawn(move || {
                        accept_loop(&listener, &target, &state, &counters, &shutdown, link_seed);
                    });
                }
                links.insert(
                    (from, to),
                    Link {
                        proxy_addr,
                        state,
                        counters,
                    },
                );
            }
        }
        Ok(ProxyNet {
            real_addrs: real_addrs.clone(),
            links,
            shutdown,
        })
    }

    /// The address book node `nid` should boot with: its own entry is
    /// its real listen address; every peer entry points at the proxy
    /// for the directed link `nid -> peer`.
    #[must_use]
    pub fn peers_spec_for(&self, nid: u32) -> String {
        let mut parts = Vec::new();
        for (&other, real) in &self.real_addrs {
            let addr = if other == nid {
                real.clone()
            } else {
                self.links
                    .get(&(nid, other))
                    .map(|l| l.proxy_addr.clone())
                    .unwrap_or_else(|| real.clone())
            };
            parts.push(format!("{other}={addr}"));
        }
        parts.join(",")
    }

    /// The real (un-proxied) address book, for clients and status
    /// probes.
    #[must_use]
    pub fn real_addrs(&self) -> BTreeMap<u32, String> {
        self.real_addrs.clone()
    }

    fn with_state(&self, from: u32, to: u32, f: impl FnOnce(&LinkState)) {
        if let Some(link) = self.links.get(&(from, to)) {
            f(&link.state);
        }
    }

    /// Black-holes the directed link.
    pub fn cut_one_way(&self, from: u32, to: u32) {
        self.with_state(from, to, |s| s.cut.store(true, Ordering::Relaxed));
    }

    /// Black-holes both directions between two nodes.
    pub fn cut_both_ways(&self, a: u32, b: u32) {
        self.cut_one_way(a, b);
        self.cut_one_way(b, a);
    }

    /// Heals the directed link (leaves loss/corruption settings alone).
    pub fn heal_one_way(&self, from: u32, to: u32) {
        self.with_state(from, to, |s| s.cut.store(false, Ordering::Relaxed));
    }

    /// Cuts every cross-group link of the partition described by
    /// `groups`; intra-group links heal.
    pub fn partition(&self, groups: &[Vec<u32>]) {
        let group_of = |nid: u32| groups.iter().position(|g| g.contains(&nid));
        for &(from, to) in self.links.keys().cloned().collect::<Vec<_>>().iter() {
            let severed = match (group_of(from), (group_of(to))) {
                (Some(a), Some(b)) => a != b,
                _ => false,
            };
            self.with_state(from, to, |s| s.cut.store(severed, Ordering::Relaxed));
        }
    }

    /// Heals every link and clears loss, corruption, delay, reorder,
    /// and slow settings (generations are preserved).
    pub fn heal_all(&self) {
        for link in self.links.values() {
            let s = &link.state;
            s.cut.store(false, Ordering::Relaxed);
            s.drop_pct.store(0, Ordering::Relaxed);
            s.corrupt_pct.store(0, Ordering::Relaxed);
            s.delay_ms.store(0, Ordering::Relaxed);
            s.jitter_ms.store(0, Ordering::Relaxed);
            s.reorder_pct.store(0, Ordering::Relaxed);
            s.slow.store(false, Ordering::Relaxed);
        }
    }

    /// Sets probabilistic loss on the directed link.
    pub fn set_loss(&self, from: u32, to: u32, pct: u32) {
        self.with_state(from, to, |s| s.drop_pct.store(pct.min(100), Ordering::Relaxed));
    }

    /// Sets probabilistic CRC-preserving corruption on the directed
    /// link.
    pub fn set_corrupt(&self, from: u32, to: u32, pct: u32) {
        self.with_state(from, to, |s| s.corrupt_pct.store(pct.min(100), Ordering::Relaxed));
    }

    /// Sets per-frame delay and jitter on the directed link.
    pub fn set_delay(&self, from: u32, to: u32, delay_ms: u64, jitter_ms: u64) {
        self.with_state(from, to, |s| {
            s.delay_ms.store(delay_ms, Ordering::Relaxed);
            s.jitter_ms.store(jitter_ms, Ordering::Relaxed);
        });
    }

    /// Sets bounded reordering on the directed link.
    pub fn set_reorder(&self, from: u32, to: u32, pct: u32) {
        self.with_state(from, to, |s| s.reorder_pct.store(pct.min(100), Ordering::Relaxed));
    }

    /// Turns slow-loris half-frame stalls on or off.
    pub fn set_slow(&self, from: u32, to: u32, on: bool) {
        self.with_state(from, to, |s| s.slow.store(on, Ordering::Relaxed));
    }

    /// Tears down every connection on the directed link (the node's
    /// connector redials).
    pub fn reset(&self, from: u32, to: u32) {
        self.with_state(from, to, |s| {
            s.generation.fetch_add(1, Ordering::Relaxed);
        });
    }

    /// A snapshot of one link's counters.
    #[must_use]
    pub fn tally(&self, from: u32, to: u32) -> LinkTally {
        self.links
            .get(&(from, to))
            .map(|l| LinkTally {
                forwarded: l.counters.forwarded.load(Ordering::Relaxed),
                corrupted: l.counters.corrupted.load(Ordering::Relaxed),
                dropped: l.counters.dropped.load(Ordering::Relaxed),
                resets: l.counters.resets.load(Ordering::Relaxed),
            })
            .unwrap_or_default()
    }

    /// The sum of every link's counters.
    #[must_use]
    pub fn totals(&self) -> LinkTally {
        let mut t = LinkTally::default();
        for &(from, to) in self.links.keys() {
            let l = self.tally(from, to);
            t.forwarded += l.forwarded;
            t.corrupted += l.corrupted;
            t.dropped += l.dropped;
            t.resets += l.resets;
        }
        t
    }

    /// Stops every accept and pump thread (connections close; nodes
    /// see dead links).
    pub fn stop(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Drop for ProxyNet {
    fn drop(&mut self) {
        self.stop();
    }
}

#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
fn accept_loop(
    listener: &TcpListener,
    target: &str,
    state: &Arc<LinkState>,
    counters: &Arc<LinkCounters>,
    shutdown: &Arc<AtomicBool>,
    seed: u64,
) {
    let mut conn_no: u64 = 0;
    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((inbound, _)) => {
                conn_no = conn_no.wrapping_add(1);
                let state = Arc::clone(state);
                let counters = Arc::clone(counters);
                let shutdown = Arc::clone(shutdown);
                let target = target.to_string();
                let conn_seed = seed ^ conn_no;
                // The pump thread is deliberately detached.
                thread::spawn(move || {
                    pump(&inbound, &target, &state, &counters, &shutdown, conn_seed);
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                thread::sleep(POLL);
            }
            Err(_) => return,
        }
    }
}

/// Forwards frames from `inbound` to a fresh connection to `target`,
/// enacting the link's current fault prescription per frame.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
fn pump(
    inbound: &TcpStream,
    target: &str,
    state: &Arc<LinkState>,
    counters: &Arc<LinkCounters>,
    shutdown: &Arc<AtomicBool>,
    seed: u64,
) {
    let born_gen = state.generation.load(Ordering::Relaxed);
    let mut inbound = match inbound.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    if inbound.set_read_timeout(Some(POLL)).is_err() {
        return;
    }
    let mut outbound = match TcpStream::connect(target) {
        Ok(s) => s,
        Err(_) => return,
    };
    // Socket tuning is best-effort: an untuned link still forwards.
    outbound.set_nodelay(true).ok();
    outbound.set_write_timeout(Some(PROXY_WRITE_DEADLINE)).ok();

    let mut rng = StdRng::seed_from_u64(seed);
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = vec![0u8; CHUNK];
    // The reorder hold-back window (one frame, already fault-encoded).
    let mut held: Option<Vec<u8>> = None;

    loop {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        if state.generation.load(Ordering::Relaxed) != born_gen {
            // A reset: tear the sockets down so the node's connector
            // exercises its redial path.
            counters.resets.fetch_add(1, Ordering::Relaxed);
            return;
        }
        let n = match inbound.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => return,
        };
        let Some(read) = chunk.get(..n) else { return };
        buf.extend_from_slice(read);

        // Peel complete frames off the buffer and forward each under
        // the current prescription.
        loop {
            let (payload, consumed) = match wire::split_frame(&buf) {
                Ok(Some((payload, consumed))) => (payload.to_vec(), consumed),
                Ok(None) => break,
                // An honest node never emits an invalid frame; if the
                // buffer desyncs, drop the connection rather than
                // forward garbage we did not choose to inject.
                Err(_) => return,
            };
            buf.drain(..consumed);

            let drop_pct = state.drop_pct.load(Ordering::Relaxed);
            if state.cut.load(Ordering::Relaxed)
                || (drop_pct > 0 && rng.gen_range(0..100) < drop_pct)
            {
                counters.dropped.fetch_add(1, Ordering::Relaxed);
                continue;
            }
            let mut framed = match wire::encode_frame(&payload) {
                Ok(f) => f,
                Err(_) => return,
            };
            let corrupt_pct = state.corrupt_pct.load(Ordering::Relaxed);
            let corrupt = corrupt_pct > 0 && rng.gen_range(0..100) < corrupt_pct;
            if corrupt {
                // Flip one payload bit *under the original CRC*: the
                // receiver must detect this via its checksum, not us.
                let bit = rng.gen_range(0..payload.len().max(1) * 8);
                if let Some(byte) = framed.get_mut(wire::HEADER + bit / 8) {
                    *byte ^= 1 << (bit % 8);
                }
                counters.corrupted.fetch_add(1, Ordering::Relaxed);
            } else {
                counters.forwarded.fetch_add(1, Ordering::Relaxed);
            }
            let delay_ms = state.delay_ms.load(Ordering::Relaxed);
            let jitter_ms = state.jitter_ms.load(Ordering::Relaxed);
            if delay_ms > 0 || jitter_ms > 0 {
                let jitter = if jitter_ms > 0 {
                    rng.gen_range(0..=jitter_ms)
                } else {
                    0
                };
                thread::sleep(Duration::from_millis(delay_ms + jitter));
            }

            let reorder_pct = state.reorder_pct.load(Ordering::Relaxed);
            let reorder = reorder_pct > 0 && rng.gen_range(0..100) < reorder_pct;
            let to_send: Vec<Vec<u8>> = if reorder && held.is_none() {
                held = Some(framed);
                Vec::new()
            } else if let Some(earlier) = held.take() {
                // Emit the successor first, then the held frame: a
                // bounded (window 1) reordering.
                vec![framed, earlier]
            } else {
                vec![framed]
            };
            for frame in to_send {
                let slow = state.slow.load(Ordering::Relaxed);
                if write_faulted(&mut outbound, &frame, slow).is_err() {
                    return;
                }
            }
        }
    }
}

/// Writes one already-framed message, optionally stalling mid-frame
/// (slow-loris): header and half the payload, a pause, then the rest.
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
fn write_faulted(out: &mut TcpStream, frame: &[u8], slow: bool) -> io::Result<()> {
    if !slow || frame.len() <= wire::HEADER + 1 {
        return out.write_all(frame);
    }
    let mid = wire::HEADER + (frame.len() - wire::HEADER) / 2;
    let head = frame.get(..mid).unwrap_or(frame);
    let tail = frame.get(mid..).unwrap_or_default();
    out.write_all(head)?;
    out.flush()?;
    thread::sleep(SLOW_STALL);
    out.write_all(tail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A sink node: accepts connections and reports each frame-read
    /// outcome (payload or typed error string) on a channel.
    fn sink_node() -> (String, mpsc::Receiver<Result<Vec<u8>, String>>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind sink");
        let addr = listener.local_addr().expect("addr").to_string();
        let (tx, rx) = mpsc::channel();
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                let tx = tx.clone();
                thread::spawn(move || loop {
                    match crate::node::read_frame(&mut stream) {
                        Ok(Some(payload)) => {
                            if tx.send(Ok(payload)).is_err() {
                                return;
                            }
                        }
                        Ok(None) => return,
                        Err(e) => {
                            let _ = tx.send(Err(e.to_string()));
                            return;
                        }
                    }
                });
            }
        });
        (addr, rx)
    }

    fn two_node_net() -> (ProxyNet, mpsc::Receiver<Result<Vec<u8>, String>>) {
        let (sink_addr, rx) = sink_node();
        let addrs =
            BTreeMap::from([(1, "127.0.0.1:1".to_string()), (2, sink_addr)]);
        (ProxyNet::new(&addrs, 42).expect("proxy net"), rx)
    }

    fn dial_link(net: &ProxyNet) -> TcpStream {
        let spec = net.peers_spec_for(1);
        let proxy_addr = spec
            .split(',')
            .find_map(|part| part.strip_prefix("2="))
            .expect("link 1->2 in the spec")
            .to_string();
        TcpStream::connect(proxy_addr).expect("dial proxy")
    }

    fn send(stream: &mut TcpStream, payload: &[u8]) {
        let frame = wire::encode_frame(payload).expect("encode");
        stream.write_all(&frame).expect("send");
    }

    #[test]
    fn a_healthy_link_forwards_frames_intact() {
        let (net, rx) = two_node_net();
        let mut link = dial_link(&net);
        send(&mut link, b"hello");
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(got, Ok(b"hello".to_vec()));
        assert_eq!(net.tally(1, 2).forwarded, 1);
    }

    #[test]
    fn corruption_keeps_the_original_crc_so_the_receiver_rejects() {
        let (net, rx) = two_node_net();
        net.set_corrupt(1, 2, 100);
        let mut link = dial_link(&net);
        send(&mut link, b"payload-to-corrupt");
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("outcome");
        let err = got.expect_err("the receiver must reject the corrupted frame");
        assert!(err.contains("checksum"), "typed corrupt rejection: {err}");
        assert_eq!(net.tally(1, 2).corrupted, 1);
    }

    #[test]
    fn a_cut_link_black_holes_frames_without_closing() {
        let (net, rx) = two_node_net();
        net.cut_one_way(1, 2);
        let mut link = dial_link(&net);
        send(&mut link, b"into the void");
        assert!(
            rx.recv_timeout(Duration::from_millis(600)).is_err(),
            "nothing crosses a cut link"
        );
        net.heal_one_way(1, 2);
        send(&mut link, b"after the heal");
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("healed");
        assert_eq!(got, Ok(b"after the heal".to_vec()));
        assert_eq!(net.tally(1, 2).dropped, 1);
    }

    #[test]
    fn a_reset_tears_the_connection_down() {
        let (net, rx) = two_node_net();
        let mut link = dial_link(&net);
        send(&mut link, b"pre-reset");
        // Wait for delivery first: it proves the pump is running with
        // the pre-reset generation (a reset that lands before the
        // polled accept would be a no-op for this connection).
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("pre-reset delivered");
        assert_eq!(got, Ok(b"pre-reset".to_vec()));
        net.reset(1, 2);
        // The pump notices the generation bump within a poll interval
        // and closes both sockets; writes then fail (or succeed into a
        // dead socket once) and the sink sees EOF.
        let mut saw_error = false;
        for _ in 0..50 {
            thread::sleep(Duration::from_millis(20));
            let frame = wire::encode_frame(b"x").expect("encode");
            if link.write_all(&frame).is_err() {
                saw_error = true;
                break;
            }
        }
        assert!(saw_error, "the torn link must surface to the sender");
        assert!(net.tally(1, 2).resets >= 1);
    }

    #[test]
    fn slow_loris_stalls_but_the_frame_still_lands_whole() {
        let (net, rx) = two_node_net();
        net.set_slow(1, 2, true);
        let mut link = dial_link(&net);
        send(&mut link, b"half now, half later");
        let got = rx.recv_timeout(Duration::from_secs(5)).expect("delivery");
        assert_eq!(got, Ok(b"half now, half later".to_vec()));
    }

    #[test]
    fn partitions_cut_cross_group_links_only() {
        let addrs = BTreeMap::from([
            (1, "127.0.0.1:1".to_string()),
            (2, "127.0.0.1:2".to_string()),
            (3, "127.0.0.1:3".to_string()),
        ]);
        let net = ProxyNet::new(&addrs, 7).expect("net");
        net.partition(&[vec![1, 2], vec![3]]);
        let cut = |from, to| {
            net.links
                .get(&(from, to))
                .is_some_and(|l| l.state.cut.load(Ordering::Relaxed))
        };
        assert!(!cut(1, 2) && !cut(2, 1));
        assert!(cut(1, 3) && cut(3, 1) && cut(2, 3) && cut(3, 2));
        net.heal_all();
        assert!(!cut(1, 3) && !cut(3, 2));
    }
}
