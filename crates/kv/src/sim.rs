//! A discrete-event cluster simulation that runs the daemon's engine.
//!
//! The paper evaluates an OCaml extraction of its Raft specification on an
//! EC2 cluster (Fig. 16). This is the simulated-testbed substitute, and it
//! runs the code a real `adored` node runs: one [`Engine`] per node, fed
//! ticks, peer messages and client requests on a virtual clock, its
//! outputs carried the way `adored`'s engine loop carries them. Messages
//! cross a [`LinkMatrix`] with a [`LatencyModel`]'s delay, jitter, spikes
//! and per-entry egress cost; each node's `Persist` bytes go to its own
//! simulated disk under a [`DurabilityPolicy`] the storage nemesis can
//! ablate. Everything derives from the seed: runs are reproducible.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use adore_core::{Configuration, NodeId, NodeSet, ReconfigGuard};
use adore_obs::{EventKind, TraceEvent, Tracer};
use adore_raft::{Command, Request, Role};
use adore_storage::{DiskFault, DurabilityPolicy, DurableState, StorageViolation, Wal};

use crate::command::{KvCommand, KvStore};
use crate::det::engine::{Engine, EngineConfig, EngineParams, Input, Output};
use crate::det::msg::{Cfg, ClientMsg, ClientReply, NetEntry, PeerMsg, SessionCmd};
use crate::links::LinkMatrix;

/// The simulator's own client session (0 is the engine's no-op barrier;
/// a nemesis client's id is its schedule seed).
const SIM_CLIENT: u64 = u64::MAX;

/// Heartbeat periods `submit` and `reconfigure` wait for their ack: enough
/// to queue behind a whole-log transfer of several thousand entries, well
/// short of the election timeout.
const PATIENCE_ROUNDS: u32 = 100;

/// The daemon's heartbeat cadence, with election timeouts of 200–400
/// heartbeats: a follower campaigns when its leader has really gone
/// quiet, not while its link ships a whole log or a request waits out its
/// patience. Schedules elect on purpose ([`Cluster::elect`]).
fn params() -> EngineParams {
    EngineParams {
        election_ticks_min: 1_000,
        election_ticks_max: 2_000,
        ..EngineParams::default()
    }
}

/// Microsecond virtual-time latency distribution for one message hop.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Base one-way network delay; also the length of one engine tick.
    pub base_us: u64,
    /// Uniform jitter added on top, `[0, jitter_us)`.
    pub jitter_us: u64,
    /// Percent chance of a sporadic spike.
    pub spike_pct: u32,
    /// Spike magnitude range (uniform), added on top.
    pub spike_us: (u64, u64),
    /// Sender-side serialization cost per log entry a message ships: a
    /// whole-log frame holds up the sender's later messages.
    pub per_entry_us: u64,
    /// Fixed sender-side serialization cost per message.
    pub send_us: u64,
    /// Percent chance that a message is lost in flight.
    pub drop_pct: u32,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            base_us: 400,
            jitter_us: 150,
            spike_pct: 1,
            spike_us: (3_000, 12_000),
            per_entry_us: 12,
            send_us: 20,
            drop_pct: 0,
        }
    }
}

impl LatencyModel {
    /// Flight latency of one message (network only).
    fn flight(&self, rng: &mut StdRng) -> u64 {
        let mut lat = self.base_us;
        if self.jitter_us > 0 {
            lat += rng.gen_range(0..self.jitter_us);
        }
        if self.spike_pct > 0 && rng.gen_range(0..100) < self.spike_pct {
            lat += rng.gen_range(self.spike_us.0..=self.spike_us.1);
        }
        lat
    }
}

/// Why a cluster operation could not complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterError {
    /// No leader is established (or the one addressed redirected).
    NoLeader,
    /// The protocol refused the operation (a guard, a stale session).
    Rejected,
    /// The operation was not acknowledged within its patience.
    Stalled,
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ClusterError::NoLeader => "no leader established",
            ClusterError::Rejected => "operation rejected by the protocol",
            ClusterError::Stalled => "operation not acknowledged in time",
        })
    }
}

impl std::error::Error for ClusterError {}

/// One simulated node: an engine and the WAL its `Persist` bytes land in.
#[derive(Debug)]
struct Node {
    engine: Engine,
    /// The node's write-ahead log over its own simulated disk.
    wal: Wal<Cfg, SessionCmd>,
    /// Running: false while crashed, and for a spare not yet started.
    up: bool,
    /// Fail-stopped on a checksum mismatch: down for the rest of the run.
    wrecked: bool,
    /// Virtual time at which the node's egress link is free.
    egress_free: u64,
    /// Accumulated clock, in percent of a tick: a skewed leader clock
    /// ticks its engine more or less often than the global one.
    tick_credit: u32,
}

/// A peer message on the wire; `id` names it in the journal.
#[derive(Debug, Clone)]
struct Flight {
    from: NodeId,
    to: NodeId,
    id: u32,
    msg: PeerMsg,
}

/// Something scheduled on the virtual clock: the global tick, or an
/// arrival (with the `MsgSend` it links to, when tracing).
#[derive(Debug)]
enum Event {
    Tick,
    Deliver(Flight, Option<u64>),
}

/// A simulated replicated KV cluster: one protocol engine per node (see
/// the crate docs for an example).
#[derive(Debug)]
pub struct Cluster {
    /// Every node of the address book, running or not.
    nodes: BTreeMap<NodeId, Node>,
    /// What each engine is built from (`nid` set per node).
    config: EngineConfig,
    tick_us: u64,
    now_us: u64,
    /// Pending events by `(virtual time, insertion order)`.
    events: BTreeMap<(u64, u64), Event>,
    seq: u64,
    next_msg: u32,
    rng: StdRng,
    latency: LatencyModel,
    links: LinkMatrix,
    /// Latest arrival per directed link: links are FIFO, like TCP.
    fifo: BTreeMap<(NodeId, NodeId), u64>,
    /// The leader's tick period in percent of nominal (clock skew).
    timeout_scale_pct: u32,
    /// While set, only this node's clock ticks (a commanded election).
    solo: Option<NodeId>,
    leader: Option<NodeId>,
    /// The next client connection handle (the simulator's own session
    /// numbers its requests by it) and the replies engines sent.
    next_conn: u64,
    replies: BTreeMap<u64, ClientReply>,
    policy: DurabilityPolicy,
    /// Hold every ack and recovery to the strict replay of the WAL.
    certify: bool,
    violations: Vec<StorageViolation>,
    /// The trace journal (off by default; never touches RNG or clock).
    tracer: Tracer,
}

impl Cluster {
    /// Creates a cluster over `conf0` with the full reconfiguration guard.
    #[must_use]
    pub fn new(conf0: Cfg, latency: LatencyModel, seed: u64) -> Self {
        Cluster::build(conf0, &[], ReconfigGuard::all(), latency, seed)
    }

    /// Creates a cluster whose reconfigurations `guard` gates (the
    /// ablation hook) and whose fixed address book, like a daemon's, also
    /// names `spares`: nodes that stay down until [`Cluster::recover`]
    /// starts them, to be reconfigured in.
    #[must_use]
    pub fn build(
        conf0: Cfg,
        spares: &[u32],
        guard: ReconfigGuard,
        latency: LatencyModel,
        seed: u64,
    ) -> Self {
        let members = conf0.members();
        let spares = spares.iter().map(|&n| NodeId(n));
        let peers: NodeSet = members.iter().copied().chain(spares).collect();
        let config = EngineConfig {
            nid: NodeId(0),
            peers: peers.clone(),
            conf0,
            guard,
            params: params(),
            seed,
        };
        let node = |nid: NodeId| {
            let wal = Wal::new(nid);
            let cfg = EngineConfig {
                nid,
                ..config.clone()
            };
            Node {
                engine: Engine::new(cfg, wal.clone(), DurableState::default(), false),
                wal,
                up: members.contains(&nid),
                wrecked: false,
                egress_free: 0,
                tick_credit: 0,
            }
        };
        let nodes = peers.into_iter().map(|nid| (nid, node(nid))).collect();
        let tick_us = latency.base_us.max(1);
        Cluster {
            nodes,
            config,
            tick_us,
            now_us: 0,
            events: BTreeMap::from([((tick_us, 0), Event::Tick)]),
            seq: 0,
            next_msg: 0,
            rng: StdRng::seed_from_u64(seed),
            latency,
            links: LinkMatrix::new(),
            fifo: BTreeMap::new(),
            timeout_scale_pct: 100,
            solo: None,
            leader: None,
            next_conn: 0,
            replies: BTreeMap::new(),
            policy: DurabilityPolicy::strict(),
            certify: false,
            violations: Vec::new(),
            tracer: Tracer::disabled(),
        }
    }

    // ---- the clock and the network --------------------------------------

    fn schedule(&mut self, at: u64, event: Event) {
        self.seq += 1;
        self.events.insert((at, self.seq), event);
    }

    /// Plays events until `done` holds or the clock reaches `deadline`;
    /// returns whether `done` held.
    fn run_until(&mut self, deadline: u64, done: impl Fn(&Self) -> bool) -> bool {
        while !done(self) {
            // The clock ticks forever, so there is always a next event.
            let Some(entry) = self.events.first_entry() else {
                return false;
            };
            if entry.key().0 > deadline {
                self.now_us = self.now_us.max(deadline);
                return false;
            }
            self.now_us = entry.key().0;
            match entry.remove() {
                Event::Tick => self.tick(),
                Event::Deliver(flight, send) => self.deliver(flight, send),
            }
        }
        true
    }

    /// One global tick for every running engine (only the solo one in a
    /// commanded election); a leader's skewed clock ticks it more or less.
    fn tick(&mut self) {
        self.schedule(self.now_us + self.tick_us, Event::Tick);
        let (solo, scale) = (self.solo, self.timeout_scale_pct);
        let ticks = |(nid, n): (&NodeId, &Node)| n.up && solo.is_none_or(|s| s == *nid);
        let ticking: Vec<NodeId> = self
            .nodes
            .iter()
            .filter(|e| ticks(*e))
            .map(|e| *e.0)
            .collect();
        for nid in ticking {
            if let Some(node) = self.nodes.get_mut(&nid) {
                node.tick_credit += 100;
            }
            while let Some(node) = self.nodes.get_mut(&nid).filter(|n| n.up) {
                let period = if node.engine.role() == Role::Leader {
                    scale
                } else {
                    100
                };
                if node.tick_credit < period {
                    break;
                }
                node.tick_credit -= period;
                let outs = node.engine.step(Input::Tick);
                self.carry(nid, outs, None);
            }
        }
    }

    /// Puts a message on the wire: it waits for the sender's egress link,
    /// then flies behind any earlier one on its link — unless the
    /// recipient is down, the link is cut, or loss takes it.
    fn send(&mut self, from: NodeId, to: NodeId, msg: PeerMsg, parent: Option<u64>) {
        let id = self.next_msg;
        self.next_msg = self.next_msg.wrapping_add(1);
        if !self.is_up(to) {
            return self.drop_msg(id, from, to, "down", parent);
        }
        let shipped = match &msg {
            PeerMsg::Req(Request::Elect { log, .. } | Request::Commit { log, .. }) => log.len(),
            _ => 0,
        };
        let cost = self.latency.send_us + self.latency.per_entry_us * shipped as u64;
        let now = self.now_us;
        let Some(node) = self.nodes.get_mut(&from) else {
            return;
        };
        node.egress_free = node.egress_free.max(now) + cost;
        let departs = node.egress_free;
        let pct = self
            .links
            .drop_pct(from, to)
            .unwrap_or(self.latency.drop_pct);
        if self.links.is_cut(from, to) {
            return self.drop_msg(id, from, to, "cut", parent);
        } else if pct > 0 && self.rng.gen_range(0..100) < pct {
            return self.drop_msg(id, from, to, "loss", parent);
        }
        let flies = departs + self.latency.flight(&mut self.rng);
        let last = self.fifo.entry((from, to)).or_default();
        *last = flies.max(*last);
        let arrival = *last;
        self.put_in_flight(arrival, Flight { from, to, id, msg }, parent, false);
    }

    /// Schedules a message's arrival, journaling its `MsgSend`.
    fn put_in_flight(&mut self, arrival: u64, flight: Flight, parent: Option<u64>, dup: bool) {
        let kind = match &flight.msg {
            PeerMsg::Req(req) => req.kind_name(),
            PeerMsg::ElectAck { .. } => "elect-ack",
            PeerMsg::CommitAck { .. } => "commit-ack",
            PeerMsg::Nack { .. } => "nack",
        };
        let send = EventKind::MsgSend {
            msg: flight.id,
            from: flight.from.0,
            to: flight.to.0,
            kind: kind.to_string(),
            dup,
        };
        let send = self.tracer.record_linked(self.now_us, parent, send);
        self.schedule(arrival, Event::Deliver(flight, send));
    }

    fn drop_msg(&mut self, msg: u32, from: NodeId, to: NodeId, reason: &str, parent: Option<u64>) {
        let kind = EventKind::MsgDrop {
            msg,
            from: from.0,
            to: to.0,
            reason: reason.to_string(),
        };
        self.tracer.record_linked(self.now_us, parent, kind);
    }

    /// A message arrives (a link cut while it flew loses it).
    fn deliver(&mut self, flight: Flight, send: Option<u64>) {
        let Flight { from, to, id, msg } = flight;
        if self.links.is_cut(from, to) {
            return self.drop_msg(id, from, to, "cut", send);
        }
        let outs = self.feed(to, Input::Peer(msg));
        let recv = EventKind::MsgRecv {
            msg: id,
            to: to.0,
            applied: !outs.is_empty(),
        };
        let recv = self.tracer.record_linked(self.now_us, send, recv);
        self.carry(to, outs, recv);
    }

    /// `nid`'s engine steps on `input` (a node that is down ignores it).
    fn feed(&mut self, nid: NodeId, input: Input) -> Vec<Output> {
        match self.nodes.get_mut(&nid) {
            Some(node) if node.up => node.engine.step(input),
            _ => Vec::new(),
        }
    }

    /// Carries out a step's outputs in order, as `adored`'s engine loop
    /// does: `Persist` bytes to the WAL, journal events, and — behind the
    /// write-ahead barrier — sends and client replies.
    fn carry(&mut self, nid: NodeId, outs: Vec<Output>, parent: Option<u64>) {
        let mut barrier = false;
        for out in outs {
            let outbound = matches!(out, Output::Send { .. } | Output::Reply { .. });
            if outbound && !std::mem::replace(&mut barrier, true) {
                self.sync_before_ack(nid, parent);
            }
            match out {
                Output::Persist { bytes } => {
                    if let Some(node) = self.nodes.get_mut(&nid) {
                        node.wal.append_framed(&bytes);
                    }
                }
                Output::Journal(kind) => {
                    self.tracer.record_linked(self.now_us, parent, kind);
                }
                Output::Send { to, msg } => self.send(nid, to, msg, parent),
                Output::Reply { conn, reply } => {
                    self.replies.insert(conn, reply);
                }
            }
        }
    }

    /// The write-ahead barrier: the WAL is synced (and only then
    /// journaled as `WalSync`) when the policy syncs before acks.
    fn sync_before_ack(&mut self, nid: NodeId, parent: Option<u64>) {
        let Some(node) = self.nodes.get_mut(&nid) else {
            return;
        };
        if self.policy.sync_before_ack && node.wal.disk().unsynced_len() > 0 {
            node.wal.sync();
            let sync = EventKind::WalSync { nid: nid.0 };
            self.tracer.record_linked(self.now_us, parent, sync);
        }
        if self.certify && !replays_to(node) {
            self.violations
                .push(StorageViolation::AckNotDurable { nid: nid.0 });
        }
    }

    fn is_up(&self, nid: NodeId) -> bool {
        self.nodes.get(&nid).is_some_and(|n| n.up)
    }

    fn role(&self, nid: NodeId) -> Option<Role> {
        self.nodes.get(&nid).map(|n| n.engine.role())
    }

    fn patience(&self, rounds: u32) -> u64 {
        u64::from(rounds) * self.config.params.heartbeat_ticks * self.tick_us
    }

    // ---- client traffic -------------------------------------------------

    /// Sends `msg` to `nid` as a client connection does and waits up to
    /// `rounds` heartbeat periods for the reply: the one place a client
    /// request reaches an engine.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoLeader`] when `nid` is down (a refused connect),
    /// [`ClusterError::Stalled`] when no reply comes in time.
    pub fn request_to(
        &mut self,
        nid: NodeId,
        msg: ClientMsg,
        rounds: u32,
    ) -> Result<ClientReply, ClusterError> {
        if !self.is_up(nid) {
            return Err(ClusterError::NoLeader);
        }
        let client = match &msg {
            ClientMsg::Put { client, .. } | ClientMsg::Delete { client, .. } => Some(*client),
            _ => None,
        };
        let (conn, deadline) = (self.next_conn, self.now_us + self.patience(rounds));
        self.next_conn += 1;
        let outs = self.feed(nid, Input::Client { conn, msg });
        self.carry(nid, outs, None);
        self.run_until(deadline, |c| c.replies.contains_key(&conn));
        let Some(reply) = self.replies.remove(&conn) else {
            // Nobody waits any more: drop the engine's waiter.
            let outs = self.feed(nid, Input::ClientGone { conn });
            self.carry(nid, outs, None);
            return Err(ClusterError::Stalled);
        };
        if let (ClientReply::Acked { seq, duplicate }, Some(client)) = (&reply, client) {
            let (seq, dup) = (*seq, *duplicate);
            self.trace(EventKind::SessionAck { client, seq, dup });
        }
        Ok(reply)
    }

    /// [`Cluster::request_to`] the leader; returns its ack, or the value
    /// a `Get` reads.
    ///
    /// # Errors
    ///
    /// [`ClusterError::NoLeader`] with no leader or on a redirect,
    /// [`ClusterError::Rejected`] on a guard or session refusal,
    /// [`ClusterError::Stalled`] on no ack in time, or on a redirect from
    /// a leader that took the request and stepped down (its fate is open).
    pub fn request(&mut self, msg: ClientMsg, rounds: u32) -> Result<ClientReply, ClusterError> {
        let leader = self.leader.ok_or(ClusterError::NoLeader)?;
        let took = self.role(leader) == Some(Role::Leader);
        match self.request_to(leader, msg, rounds)? {
            reply @ (ClientReply::Acked { .. } | ClientReply::Value { .. }) => Ok(reply),
            ClientReply::Redirect { .. } if !took => Err(ClusterError::NoLeader),
            ClientReply::Redirect { .. } | ClientReply::Overloaded => Err(ClusterError::Stalled),
            _ => Err(ClusterError::Rejected),
        }
    }

    /// Reads `key` as an `adored` client does: a `Get` the leader answers
    /// from its applied store.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::request`].
    pub fn get(&mut self, key: &str) -> Result<Option<String>, ClusterError> {
        match self.request(ClientMsg::Get { key: key.into() }, PATIENCE_ROUNDS)? {
            ClientReply::Value { value, .. } => Ok(value),
            _ => Err(ClusterError::Stalled),
        }
    }

    /// Submits one write and waits for its commit; returns the latency in
    /// virtual microseconds.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::request`].
    pub fn submit(&mut self, cmd: KvCommand) -> Result<u64, ClusterError> {
        let (msg, start) = (write_msg(self.next_conn + 1, cmd), self.now_us);
        self.request(msg, PATIENCE_ROUNDS)?;
        Ok(self.now_us - start)
    }

    /// Performs a live ("hot") reconfiguration — the paper's path, guarded
    /// by R1⁺/R2/R3 — and waits for it to commit; returns the time taken.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::request`] (R3 refuses until the leader's no-op
    /// barrier commits).
    pub fn reconfigure(&mut self, new_config: Cfg) -> Result<u64, ClusterError> {
        let msg = ClientMsg::Reconfigure {
            client: SIM_CLIENT,
            seq: self.next_conn + 1,
            members: new_config.members().iter().map(|n| n.0).collect(),
        };
        let start = self.now_us;
        self.request(msg, PATIENCE_ROUNDS)?;
        Ok(self.now_us - start)
    }

    /// Performs a **stop-the-world** reconfiguration (§8's Stoppable
    /// Paxos / WormSpace style): returns only once every running member
    /// of the new configuration holds the leader's whole log; returns the
    /// time the world was stopped.
    ///
    /// # Errors
    ///
    /// As for [`Cluster::reconfigure`], or [`ClusterError::Stalled`].
    pub fn reconfigure_stop_the_world(&mut self, new_config: Cfg) -> Result<u64, ClusterError> {
        let (start, members) = (self.now_us, new_config.members());
        self.reconfigure(new_config)?;
        let leader = self.leader.ok_or(ClusterError::NoLeader)?;
        let synced = |c: &Self| {
            let len = c.nodes.get(&leader).map_or(0, |n| n.engine.log_len());
            let caught_up = |n: &Node| !n.up || n.engine.log_len() >= len;
            members.iter().all(|m| c.nodes.get(m).is_none_or(caught_up))
        };
        if self.run_until(self.now_us + self.patience(PATIENCE_ROUNDS), synced) {
            Ok(self.now_us - start)
        } else {
            Err(ClusterError::Stalled)
        }
    }

    /// Elects `nid`. Unless it leads at the newest term already, only its
    /// clock runs (messages in flight still land) until it campaigns — a
    /// deposed leader first learns the newer term from its heartbeats —
    /// then the cluster runs until it wins, loses or times out.
    ///
    /// # Errors
    ///
    /// [`ClusterError::Rejected`] if it never campaigns (down, abstaining,
    /// outside its configuration, or a leader cut off from newer terms),
    /// [`ClusterError::Stalled`] if the votes cannot elect it.
    pub fn elect(&mut self, nid: NodeId) -> Result<(), ClusterError> {
        if !self.is_up(nid) {
            return Err(ClusterError::Rejected);
        }
        let state = |c: &Self| {
            c.nodes
                .get(&nid)
                .map(|n| (n.engine.role(), n.engine.time()))
        };
        let before = state(self);
        let newest = self
            .nodes
            .values()
            .filter(|n| n.up)
            .map(|n| n.engine.time())
            .max();
        if before.is_none_or(|(role, time)| role != Role::Leader || Some(time) < newest) {
            let timeout = self.config.params.election_ticks_max * self.tick_us;
            let campaigned = |c: &Self| match state(c) {
                Some((Role::Candidate, _)) => true,
                Some((Role::Leader, time)) => before.is_none_or(|(_, t)| time > t),
                _ => false,
            };
            self.solo = Some(nid);
            let campaigned = self.run_until(self.now_us + timeout, campaigned);
            self.solo = None;
            if !campaigned || !self.is_up(nid) {
                return Err(ClusterError::Rejected);
            }
            self.run_until(self.now_us + timeout, |c| {
                c.role(nid) != Some(Role::Candidate)
            });
        }
        if self.is_up(nid) && self.role(nid) == Some(Role::Leader) {
            self.leader = Some(nid);
            Ok(())
        } else {
            Err(ClusterError::Stalled)
        }
    }

    /// The running nodes, freshest log first: by the term of the last
    /// entry, then by length (the order in which voters rank
    /// candidates' logs).
    #[must_use]
    pub fn freshest_first(&self) -> Vec<NodeId> {
        let mut up: Vec<(&NodeId, &Node)> = self.nodes.iter().filter(|(_, n)| n.up).collect();
        up.sort_by_key(|(_, n)| {
            let log = n.engine.log();
            std::cmp::Reverse((log.last().map(|e| e.time), log.len()))
        });
        up.into_iter().map(|(nid, _)| *nid).collect()
    }

    /// Targets the harness's own requests at the running leader with the
    /// newest term (or at none), read off every engine's role.
    pub fn adopt_leader(&mut self) -> Option<NodeId> {
        let leaders = self
            .nodes
            .iter()
            .filter(|(_, n)| n.up && n.engine.role() == Role::Leader);
        self.leader = leaders
            .max_by_key(|(_, n)| n.engine.time())
            .map(|(nid, _)| *nid);
        self.leader
    }

    /// Appends a write at the leader whose frames are all lost, so it sits
    /// in the WAL's unsynced tail (no ack left the node): the canonical
    /// tail for torn-write injection. Returns whether the leader appended
    /// it.
    pub fn orphan_append(&mut self, cmd: KvCommand) -> bool {
        let Some(leader) = self.leader else {
            return false;
        };
        let len = |c: &Self| c.nodes.get(&leader).map(|n| n.engine.log_len());
        let before = len(self);
        let conn = self.next_conn;
        self.next_conn += 1;
        let msg = write_msg(conn + 1, cmd);
        let mut outs = self.feed(leader, Input::Client { conn, msg });
        outs.retain(|o| !matches!(o, Output::Send { .. }));
        outs.extend(self.feed(leader, Input::ClientGone { conn }));
        self.carry(leader, outs, None);
        len(self) > before
    }

    // ---- faults ---------------------------------------------------------

    /// Crashes a replica: a clean power loss ([`DiskFault::LoseTail`]).
    pub fn fail(&mut self, nid: NodeId) {
        self.fail_with(nid, &DiskFault::LoseTail);
    }

    /// Crashes a replica whose disk suffers `fault` (a torn record, a
    /// flipped bit, media loss); messages in flight to it are lost.
    pub fn fail_with(&mut self, nid: NodeId, fault: &DiskFault) {
        let Some(node) = self.nodes.get_mut(&nid).filter(|n| n.up) else {
            return;
        };
        node.up = false;
        node.wal.crash(fault);
        let disk = fault.kind_name().to_string();
        self.trace(EventKind::Crash { nid: nid.0, disk });
        if self.leader == Some(nid) {
            self.leader = None;
        }
        self.events
            .retain(|_, e| !matches!(e, Event::Deliver(f, _) if f.to == nid));
        self.fifo.retain(|(from, to), _| *from != nid && *to != nid);
    }

    /// Restarts a crashed replica (or starts a spare) the way `adored`
    /// boots, through [`Engine::restart`] under the [`DurabilityPolicy`]:
    /// media loss rejoins it abstaining for good (its WAL says so from
    /// then on); a checksum mismatch fail-stops it for the run.
    pub fn recover(&mut self, nid: NodeId) {
        let (policy, now) = (self.policy, self.now_us);
        let cfg = EngineConfig {
            nid,
            ..self.config.clone()
        };
        let Some(node) = self.nodes.get_mut(&nid).filter(|n| !n.up && !n.wrecked) else {
            return;
        };
        let tracer = &mut self.tracer;
        let engine = Engine::restart(cfg, &mut node.wal, &policy, |ev| _ = tracer.record(now, ev));
        node.wrecked = engine.is_none();
        if let Some(engine) = engine {
            node.engine = engine;
            node.up = true;
            node.tick_credit = 0;
            node.egress_free = now;
            if self.certify && !replays_to(node) {
                self.violations
                    .push(StorageViolation::UnfaithfulRecovery { nid: nid.0 });
            }
        }
    }

    /// Duplicates `copies` random in-flight messages, each with a fresh
    /// flight latency: a duplicating path the protocol must absorb.
    pub fn duplicate_in_flight(&mut self, copies: usize) {
        let flights: Vec<Flight> = self
            .events
            .values()
            .filter_map(|e| match e {
                Event::Deliver(flight, _) => Some(flight.clone()),
                Event::Tick => None,
            })
            .collect();
        if flights.is_empty() {
            return;
        }
        for _ in 0..copies {
            let flight = flights[self.rng.gen_range(0..flights.len())].clone();
            let arrival = self.now_us + self.latency.flight(&mut self.rng);
            self.put_in_flight(arrival, flight, None, true);
        }
    }

    /// Re-jitters every in-flight arrival by up to `window_us`.
    pub fn reorder_in_flight(&mut self, window_us: u64) {
        if window_us == 0 {
            return;
        }
        for ((at, _), event) in std::mem::take(&mut self.events) {
            let at = match event {
                Event::Deliver(..) => at + self.rng.gen_range(0..window_us),
                Event::Tick => at,
            };
            self.schedule(at, event);
        }
    }

    /// Lets the cluster run for `duration_us` of virtual time.
    pub fn run_idle(&mut self, duration_us: u64) {
        self.run_until(self.now_us + duration_us, |_| false);
    }

    /// Scales the leader's tick period in percent (clock skew), clamped
    /// to `[10, 1000]`.
    pub fn set_timeout_scale_pct(&mut self, pct: u32) {
        self.timeout_scale_pct = pct.clamp(10, 1_000);
    }

    /// Mutable access to the per-link fault state (cut/heal/override).
    pub fn links_mut(&mut self) -> &mut LinkMatrix {
        &mut self.links
    }

    /// The latency model messages fly under.
    #[must_use]
    pub fn latency(&self) -> &LatencyModel {
        &self.latency
    }

    /// Mutable access to the latency model (e.g. to raise `drop_pct`).
    pub fn latency_mut(&mut self) -> &mut LatencyModel {
        &mut self.latency
    }

    /// Sets the WAL durability policy (the storage-ablation hook).
    pub fn set_durability(&mut self, policy: DurabilityPolicy) {
        self.policy = policy;
    }

    /// Holds every ack and recovery to the strict replay of the synced
    /// WAL (off by default: ablation hunts want the protocol divergence).
    pub fn set_certify_storage(&mut self, on: bool) {
        self.certify = on;
    }

    /// Violations the recovery-invariant checker has recorded so far.
    pub fn storage_violations(&self) -> &[StorageViolation] {
        &self.violations
    }

    /// Summed WAL traffic across all nodes: `(records, syncs, bytes)`.
    #[must_use]
    pub fn wal_traffic(&self) -> (usize, usize, usize) {
        let stats = self.nodes.values().map(|n| n.wal.stats());
        stats.fold((0, 0, 0), |(r, s, b), st| {
            (r + st.records, s + st.syncs, b + st.bytes_written)
        })
    }

    /// Current virtual time in microseconds.
    #[must_use]
    pub fn now_us(&self) -> u64 {
        self.now_us
    }

    /// Where client requests go, if a leader is established.
    #[must_use]
    pub fn leader(&self) -> Option<NodeId> {
        self.leader
    }

    /// Members of the leader's effective configuration.
    #[must_use]
    pub fn members(&self) -> Option<NodeSet> {
        self.nodes.get(&self.leader?).map(|n| n.engine.members())
    }

    /// The longest committed prefix any node holds (a crashed node's as
    /// of its crash).
    fn committed(&self) -> &[NetEntry] {
        let prefixes = self.nodes.values().map(|n| {
            let log = n.engine.log();
            &log[..n.engine.commit_len().min(log.len())]
        });
        prefixes.max_by_key(|p| p.len()).unwrap_or(&[])
    }

    /// Length of the longest committed prefix.
    #[must_use]
    pub fn committed_len(&self) -> usize {
        self.committed().len()
    }

    /// Materializes the store from the committed prefix.
    #[must_use]
    pub fn committed_store(&self) -> KvStore {
        let mut store = KvStore::new();
        for entry in self.committed() {
            if let Command::Method(SessionCmd { op: Some(op), .. }) = &entry.cmd {
                store.apply(op);
            }
        }
        store
    }

    /// Checks committed-prefix agreement across every node.
    ///
    /// # Errors
    ///
    /// A disagreeing pair; a watermark past its own log pairs with itself.
    pub fn verify(&self) -> Result<(), (NodeId, NodeId)> {
        let view: Vec<(NodeId, &[NetEntry], usize)> = self
            .nodes
            .iter()
            .map(|(nid, n)| (*nid, n.engine.log(), n.engine.commit_len()))
            .collect();
        if let Some((nid, ..)) = view.iter().find(|(_, log, c)| *c > log.len()) {
            return Err((*nid, *nid));
        }
        for (i, (a, la, ca)) in view.iter().enumerate() {
            for (b, lb, cb) in &view[i + 1..] {
                let common = (*ca).min(*cb);
                if la[..common] != lb[..common] {
                    return Err((*a, *b));
                }
            }
        }
        Ok(())
    }

    /// Turns trace recording on or off.
    pub fn set_tracing(&mut self, on: bool) {
        self.tracer.set_enabled(on);
    }

    /// Records a run-level trace event now; returns its sequence number
    /// (`None` when tracing is off).
    pub fn trace(&mut self, kind: EventKind) -> Option<u64> {
        self.tracer.record(self.now_us, kind)
    }

    /// Takes the recorded trace events, resetting the journal.
    pub fn take_trace(&mut self) -> Vec<TraceEvent> {
        self.tracer.take()
    }
}

/// The simulator session's request `seq` for a store write.
fn write_msg(seq: u64, cmd: KvCommand) -> ClientMsg {
    let client = SIM_CLIENT;
    match cmd {
        KvCommand::Put { key, value } => ClientMsg::Put {
            client,
            seq,
            key: key.into(),
            value: value.into(),
        },
        KvCommand::Delete { key } => ClientMsg::Delete {
            client,
            seq,
            key: key.into(),
        },
    }
}

/// Whether the node's `(time, log, watermark)` is what a strict replay of
/// its WAL's synced region gives.
fn replays_to(node: &Node) -> bool {
    let replay = node.wal.mirror();
    let engine = &node.engine;
    replay.time == engine.time()
        && replay.log == engine.log()
        && replay.commit_len.min(replay.log.len()) == engine.commit_len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use adore_schemes::SingleNode;

    fn cluster(seed: u64) -> Cluster {
        Cluster::new(
            SingleNode::new([1, 2, 3, 4, 5]),
            LatencyModel::default(),
            seed,
        )
    }

    fn put(client: u64, seq: u64, key: &str) -> ClientMsg {
        ClientMsg::Put {
            client,
            seq,
            key: key.to_string(),
            value: "v".to_string(),
        }
    }

    /// Entries of `nid`'s log carrying session `(client, seq)`.
    fn copies(c: &Cluster, nid: u32, client: u64, seq: u64) -> usize {
        let session = |e: &&NetEntry| matches!(&e.cmd, Command::Method(sc) if (sc.client, sc.seq) == (client, seq));
        c.nodes[&NodeId(nid)]
            .engine
            .log()
            .iter()
            .filter(session)
            .count()
    }

    /// The queue keys of the deliveries in flight that `want` picks.
    fn flights(c: &Cluster, want: impl Fn(&Flight) -> bool) -> Vec<(u64, u64)> {
        let pick = |e: &Event| matches!(e, Event::Deliver(f, _) if want(f));
        c.events
            .iter()
            .filter(|(_, e)| pick(e))
            .map(|(k, _)| *k)
            .collect()
    }

    fn size(c: &Cluster) -> usize {
        c.members().map_or(0, |m| m.len())
    }

    fn kinds(events: &[TraceEvent]) -> Vec<&'static str> {
        events.iter().map(|e| e.kind.tag()).collect()
    }

    #[test]
    fn elect_then_serve_requests() {
        let mut c = cluster(1);
        c.elect(NodeId(1)).unwrap();
        assert_eq!((c.leader(), size(&c)), (Some(NodeId(1)), 5));
        for i in 0..20 {
            // A request and its acknowledgement are two hops.
            let lat = c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap();
            assert!(lat >= 2 * LatencyModel::default().base_us, "{lat}");
        }
        assert_eq!(c.committed_store().len(), 20);
        c.verify().unwrap();
    }

    #[test]
    fn hot_reconfiguration_shrink_and_grow() {
        let mut c = cluster(2);
        c.elect(NodeId(1)).unwrap();
        c.submit(KvCommand::put("warm", "up")).unwrap();
        c.reconfigure(SingleNode::new([1, 2, 3, 4])).unwrap();
        c.reconfigure(SingleNode::new([1, 2, 3])).unwrap();
        assert_eq!(size(&c), 3);
        c.submit(KvCommand::put("small", "cluster")).unwrap();
        c.reconfigure(SingleNode::new([1, 2, 3, 4])).unwrap();
        c.reconfigure(SingleNode::new([1, 2, 3, 4, 5])).unwrap();
        assert_eq!(size(&c), 5);
        c.submit(KvCommand::put("big", "again")).unwrap();
        c.verify().unwrap();
        let store = c.committed_store();
        assert_eq!(store.get("warm"), Some("up"));
        assert_eq!(store.get("small"), Some("cluster"));
        assert_eq!(store.get("big"), Some("again"));
    }

    #[test]
    fn r3_refuses_a_reconfiguration_until_the_barrier_commits() {
        let mut c = cluster(3);
        c.elect(NodeId(1)).unwrap();
        // Elected, its no-op barrier appended but not yet acknowledged.
        let grow = SingleNode::new([1, 2, 3, 4]);
        assert_eq!(c.reconfigure(grow.clone()), Err(ClusterError::Rejected));
        c.run_idle(10_000);
        c.reconfigure(grow).unwrap();
    }

    /// (a) A put whose first attempt stalls behind a leader change is
    /// retried with the same `(client, seq)`: the new leader finds it in
    /// its session table, acknowledges the retry as a duplicate, and the
    /// write is applied once.
    #[test]
    fn a_put_retried_across_a_leader_change_is_acked_once_as_a_duplicate() {
        let mut c = cluster(31);
        c.elect(NodeId(1)).unwrap();
        c.submit(KvCommand::put("warm", "up")).unwrap();
        // Acks cannot reach S1: followers take the put, S1 never commits.
        for n in 2..=5 {
            c.links_mut().cut_one_way(NodeId(n), NodeId(1));
        }
        assert_eq!(c.request(put(9, 1, "a"), 3), Err(ClusterError::Stalled));
        assert_eq!(copies(&c, 2, 9, 1), 1, "S2 holds the uncommitted put");
        c.fail(NodeId(1));
        c.links_mut().heal_all();
        c.elect(NodeId(2)).unwrap();
        let reply = c.request(put(9, 1, "a"), 50).unwrap();
        let dup = matches!(reply, ClientReply::Acked { duplicate, .. } if duplicate);
        assert!(dup, "the retry is recognized, not re-appended");
        c.run_idle(10_000);
        assert_eq!(c.committed_store().get("a"), Some("v"));
        for n in 2..=5 {
            assert_eq!(copies(&c, n, 9, 1), 1, "S{n}");
        }
        c.verify().unwrap();
    }

    /// (b) A follower behind a link that loses everything for a round
    /// misses a suffix; once the link heals it refuses the next one with
    /// a `Nack`, the leader resends from the start of the log, and the
    /// follower converges.
    #[test]
    fn a_follower_that_missed_a_frame_nacks_and_catches_up_by_whole_log() {
        let mut c = Cluster::new(SingleNode::new([1, 2, 3]), LatencyModel::default(), 32);
        c.elect(NodeId(1)).unwrap();
        c.submit(KvCommand::put("warm", "up")).unwrap();
        c.run_idle(10_000);
        c.links_mut().set_drop_pct(NodeId(1), NodeId(3), 100);
        c.submit(KvCommand::put("missed", "by S3")).unwrap();
        c.links_mut().heal_all();
        let nack = |f: &Flight| f.from == NodeId(3) && matches!(f.msg, PeerMsg::Nack { .. });
        assert!(c.run_until(c.now_us + 10_000, |c| !flights(c, nack).is_empty()));
        let whole = |f: &Flight| {
            f.to == NodeId(3)
                && matches!(&f.msg, PeerMsg::Req(Request::Commit { prev_len: 0, log, .. })
                    if log.len() == 3)
        };
        assert!(c.run_until(c.now_us + 10_000, |c| !flights(c, whole).is_empty()));
        c.run_idle(10_000);
        assert_eq!(
            c.nodes[&NodeId(3)].engine.log(),
            c.nodes[&NodeId(1)].engine.log()
        );
        c.verify().unwrap();
    }

    #[test]
    fn lossy_network_recovers_by_heartbeat_retransmission() {
        let latency = LatencyModel {
            drop_pct: 40,
            ..LatencyModel::default()
        };
        let mut c = Cluster::new(SingleNode::new([1, 2, 3]), latency, 8);
        assert!(
            (0..20).any(|_| c.elect(NodeId(1)).is_ok()),
            "no leader under 40% loss"
        );
        for i in 0..30 {
            c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap();
        }
        assert_eq!(c.committed_store().len(), 30);
        c.verify().unwrap();
    }

    #[test]
    fn reads_see_exactly_the_committed_writes() {
        let mut c = cluster(5);
        c.elect(NodeId(1)).unwrap();
        assert_eq!(c.get("a").unwrap(), None);
        c.submit(KvCommand::put("a", "1")).unwrap();
        assert_eq!(c.get("a").unwrap(), Some("1".to_string()));
        c.submit(KvCommand::put("a", "2")).unwrap();
        c.submit(KvCommand::delete("a")).unwrap();
        assert_eq!(c.get("a").unwrap(), None);
        c.fail(NodeId(1));
        assert_eq!(c.get("a"), Err(ClusterError::NoLeader));
    }

    #[test]
    fn leader_failover_preserves_the_store() {
        let mut c = cluster(6);
        c.elect(NodeId(1)).unwrap();
        for i in 0..40 {
            c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap();
        }
        c.fail(NodeId(1));
        let lost = c.submit(KvCommand::put("lost", "x"));
        assert_eq!(lost, Err(ClusterError::NoLeader));
        c.elect(NodeId(2)).unwrap();
        c.submit(KvCommand::put("after", "failover")).unwrap();
        let store = c.committed_store();
        assert_eq!(store.get("k0"), Some("v"));
        assert_eq!(store.get("after"), Some("failover"));
        assert_eq!(store.get("lost"), None);
        // The old leader restarts from its WAL as a follower and catches up.
        c.recover(NodeId(1));
        c.submit(KvCommand::put("rejoin", "ok")).unwrap();
        c.run_idle(10_000);
        assert_eq!(
            c.nodes[&NodeId(1)].engine.log(),
            c.nodes[&NodeId(2)].engine.log()
        );
        c.verify().unwrap();
    }

    #[test]
    fn wiped_replica_rejoins_abstaining_and_catches_up() {
        let mut c = Cluster::new(SingleNode::new([1, 2, 3]), LatencyModel::default(), 11);
        c.set_certify_storage(true);
        c.elect(NodeId(1)).unwrap();
        for i in 0..5 {
            c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap();
        }
        // S3's disk is wiped: even the boot record is gone.
        c.fail_with(NodeId(3), &DiskFault::WipeAll);
        c.recover(NodeId(3));
        assert!(c.nodes[&NodeId(3)].engine.log().is_empty());
        // It never campaigns with forgotten state...
        assert_eq!(c.elect(NodeId(3)), Err(ClusterError::Rejected));
        // ...and its vote does not count: with S2 down, S1 and the
        // abstainer are no quorum of {1,2,3}.
        c.fail(NodeId(2));
        c.fail(NodeId(1));
        c.recover(NodeId(1));
        assert_eq!(c.elect(NodeId(1)), Err(ClusterError::Stalled));
        c.recover(NodeId(2));
        c.elect(NodeId(1)).unwrap();
        c.submit(KvCommand::put("after", "wipe")).unwrap();
        c.run_idle(10_000);
        assert_eq!(
            c.nodes[&NodeId(3)].engine.log(),
            c.nodes[&NodeId(1)].engine.log()
        );
        // A clean restart does not restore its voting rights.
        c.fail(NodeId(3));
        c.recover(NodeId(3));
        assert_eq!(c.elect(NodeId(3)), Err(ClusterError::Rejected));
        c.verify().unwrap();
        assert!(
            c.storage_violations().is_empty(),
            "the strict policy certifies clean"
        );
    }

    #[test]
    fn stop_the_world_waits_for_the_new_member_and_hot_does_not() {
        let run = |stop_the_world: bool| {
            let conf0 = SingleNode::new([1, 2, 3, 4]);
            let (guard, latency) = (ReconfigGuard::all(), LatencyModel::default());
            let mut c = Cluster::build(conf0, &[5], guard, latency, 7);
            c.elect(NodeId(1)).unwrap();
            for i in 0..200 {
                c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap();
            }
            c.recover(NodeId(5));
            let grow = SingleNode::new([1, 2, 3, 4, 5]);
            let took = if stop_the_world {
                c.reconfigure_stop_the_world(grow)
            } else {
                c.reconfigure(grow)
            };
            (took.unwrap(), c)
        };
        let (hot, _) = run(false);
        let (stw, c) = run(true);
        // The barrier waits for the spare's whole-log catch-up, which the
        // hot path overlaps with serving.
        assert!(stw > hot, "stop-the-world {stw}us vs hot {hot}us");
        let len = c.nodes[&NodeId(1)].engine.log_len();
        for n in 1..=5 {
            assert_eq!(c.nodes[&NodeId(n)].engine.log_len(), len, "S{n}");
        }
        c.verify().unwrap();
    }

    #[test]
    fn runs_are_deterministic_per_seed_and_a_healed_matrix_changes_nothing() {
        let run = |seed, touch: bool| {
            let mut c = cluster(seed);
            if touch {
                c.links_mut().cut_both_ways(NodeId(1), NodeId(2));
                c.links_mut().heal_all();
            }
            c.elect(NodeId(1)).unwrap();
            (0..10)
                .map(|i| c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(9, false), run(9, false));
        assert_eq!(run(9, false), run(9, true));
        assert_ne!(run(9, false), run(10, false));
    }

    #[test]
    fn symmetric_partition_blocks_commit_until_heal() {
        let mut c = cluster(12);
        c.elect(NodeId(1)).unwrap();
        c.submit(KvCommand::put("pre", "partition")).unwrap();
        // Leader in the minority: {1, 2} | {3, 4, 5}.
        let groups: [&[NodeId]; 2] = [&[NodeId(1), NodeId(2)], &[NodeId(3), NodeId(4), NodeId(5)]];
        c.links_mut().partition(&groups);
        let during = c.request(put(7, 1, "during"), 3);
        assert_eq!(during, Err(ClusterError::Stalled));
        // Heal: heartbeats carry the stuck entry to the majority.
        c.links_mut().heal_all();
        c.submit(KvCommand::put("post", "heal")).unwrap();
        let store = c.committed_store();
        assert_eq!(store.get("pre"), Some("partition"));
        assert_eq!(store.get("during"), Some("v"));
        assert_eq!(store.get("post"), Some("heal"));
        c.verify().unwrap();
    }

    #[test]
    fn asymmetric_ack_cut_starves_quorum_until_heal() {
        let mut c = cluster(13);
        c.elect(NodeId(1)).unwrap();
        c.submit(KvCommand::put("pre", "cut")).unwrap();
        // Frames still flow 1 -> {2..5}; only the acks back are cut.
        for n in 2..=5 {
            c.links_mut().cut_one_way(NodeId(n), NodeId(1));
        }
        let during = c.request(put(7, 1, "during"), 3);
        assert_eq!(during, Err(ClusterError::Stalled));
        assert_eq!(copies(&c, 2, 7, 1), 1, "the followers hold the entry");
        c.links_mut().heal_all();
        c.submit(KvCommand::put("post", "heal")).unwrap();
        let store = c.committed_store();
        assert_eq!(store.get("during"), Some("v"));
        assert_eq!(store.get("post"), Some("heal"));
        c.verify().unwrap();
    }

    #[test]
    fn tracing_is_invisible_and_the_journal_certifies() {
        let run = |traced: bool| {
            let mut c = cluster(14);
            c.set_tracing(traced);
            c.elect(NodeId(1)).unwrap();
            let lats: Vec<u64> = (0..10)
                .map(|i| c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap())
                .collect();
            c.fail(NodeId(1));
            c.recover(NodeId(1));
            c.run_idle(10_000);
            (lats, c.take_trace())
        };
        let (plain, empty) = run(false);
        let (traced, events) = run(true);
        assert_eq!(plain, traced);
        assert!(empty.is_empty());
        let text = adore_obs::to_jsonl(&events);
        assert_eq!(adore_obs::parse_jsonl(&text).unwrap().len(), events.len());
        let report = adore_obs::audit_events(&events);
        assert!(report.consistent, "audit failed: {:?}", report.errors);
        assert!(report.divergence.is_none());
        assert_eq!(report.acked, 10, "every acked put is a session obligation");
    }

    /// The shell journals a `WalSync` only when it syncs the disk: under
    /// `no_fsync_before_ack` none, so the auditor's clean-crash state is
    /// what the disk kept.
    #[test]
    fn only_a_real_sync_is_journaled() {
        let syncs = |policy: DurabilityPolicy| {
            let mut c = Cluster::new(SingleNode::new([1, 2, 3]), LatencyModel::default(), 15);
            c.set_durability(policy);
            c.set_tracing(true);
            c.elect(NodeId(1)).unwrap();
            for i in 0..3 {
                c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap();
            }
            c.fail(NodeId(2));
            c.recover(NodeId(2));
            let events = c.take_trace();
            let report = adore_obs::audit_events(&events);
            assert!(report.consistent, "{policy}: {:?}", report.errors);
            kinds(&events).iter().filter(|k| **k == "wal-sync").count()
        };
        assert!(syncs(DurabilityPolicy::strict()) > 0);
        assert_eq!(syncs(DurabilityPolicy::no_fsync_before_ack()), 0);
    }

    #[test]
    fn duplicates_and_reordering_are_invisible_to_the_state() {
        let mut c = cluster(15);
        c.elect(NodeId(1)).unwrap();
        for i in 0..10 {
            c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap();
        }
        c.submit(KvCommand::put("x", "1")).unwrap();
        let before = flights(&c, |_| true).len();
        c.duplicate_in_flight(8);
        c.reorder_in_flight(5_000);
        // Heartbeats keep new messages flying: track the injected ones.
        let injected = flights(&c, |_| true);
        assert_eq!(injected.len(), before + 8);
        c.run_idle(100_000);
        assert!(
            injected.iter().all(|k| !c.events.contains_key(k)),
            "all drained"
        );
        assert_eq!(c.get("x").unwrap(), Some("1".to_string()));
        c.submit(KvCommand::put("y", "2")).unwrap();
        c.verify().unwrap();
    }

    #[test]
    fn adopt_leader_finds_the_newest_live_leader() {
        let mut c = cluster(16);
        c.elect(NodeId(1)).unwrap();
        c.submit(KvCommand::put("a", "1")).unwrap();
        // Cut off, S1 still leads at the old term while S2 wins a newer one.
        let groups: [&[NodeId]; 2] = [&[NodeId(1)], &[NodeId(2), NodeId(3), NodeId(4), NodeId(5)]];
        c.links_mut().partition(&groups);
        c.elect(NodeId(2)).unwrap();
        assert_eq!(c.role(NodeId(1)), Some(Role::Leader));
        assert_eq!(c.adopt_leader(), Some(NodeId(2)));
        c.links_mut().heal_all();
        c.submit(KvCommand::put("b", "2")).unwrap();
        c.fail(NodeId(2));
        c.run_idle(10_000);
        // S1 learned the newer term when the partition healed.
        assert_eq!(c.adopt_leader(), None);
        c.verify().unwrap();
    }

    #[test]
    fn crash_purges_in_flight_messages_to_the_crashed_node() {
        let mut c = cluster(11);
        c.elect(NodeId(1)).unwrap();
        c.submit(KvCommand::put("a", "1")).unwrap();
        let to = |n: u32| move |f: &Flight| f.to == NodeId(n);
        let both = |c: &Cluster| !flights(c, to(4)).is_empty() && !flights(c, to(2)).is_empty();
        assert!(c.run_until(c.now_us + 10_000, both));
        let others = flights(&c, to(2));
        c.fail(NodeId(4));
        // Nothing remains addressed to S4; deliveries to others are kept.
        assert!(flights(&c, to(4)).is_empty());
        assert_eq!(flights(&c, to(2)), others);
        assert!(c
            .fifo
            .keys()
            .all(|(from, to)| *from != NodeId(4) && *to != NodeId(4)));
        // S4 rejoins from its WAL and catches up by replication.
        c.recover(NodeId(4));
        c.submit(KvCommand::put("after", "crash")).unwrap();
        assert_eq!(c.get("after").unwrap(), Some("crash".to_string()));
        c.run_idle(10_000);
        assert_eq!(
            c.nodes[&NodeId(4)].engine.log(),
            c.nodes[&NodeId(1)].engine.log()
        );
        c.verify().unwrap();
    }

    #[test]
    fn a_restarted_member_costs_its_leader_a_whole_log_frame() {
        // A member restarted from its WAL refuses the leader's next
        // suffix and is shipped the whole log over the leader's egress
        // link, delaying the requests right behind it; a member that
        // stayed up costs nothing. Fixed seed: runs are reproducible.
        let run = |restart: bool| {
            let mut c = cluster(3);
            c.elect(NodeId(1)).unwrap();
            for i in 0..800 {
                c.submit(KvCommand::put(format!("k{i}"), "v")).unwrap();
            }
            if restart {
                c.fail(NodeId(5));
                c.recover(NodeId(5));
            }
            (0..4)
                .map(|i| c.submit(KvCommand::put(format!("x{i}"), "v")).unwrap())
                .max()
                .unwrap()
        };
        let (stayed, restarted) = (run(false), run(true));
        assert!(restarted > stayed + 800 * 12, "{restarted}us vs {stayed}us");
    }
}
