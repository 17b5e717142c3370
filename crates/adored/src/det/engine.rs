//! The deterministic per-node protocol engine.
//!
//! The protocol itself lives in one place: the certified model,
//! [`adore_raft::NetState`] — the transition system the checker
//! explores and `refine.rs` replays against ADORE. The
//! engine owns one `NetState` in which its own node is the only live
//! server and makes every protocol decision by calling it: `step` with
//! `Elect`/`Invoke`/`Reconfig`/`Commit` for local moves, and for the
//! wire the per-node halves of a delivery — `receive` for a peer's
//! request, `credit_vote`/`credit_ack` for a peer's acknowledgement.
//! Term, log, watermark and role change nowhere else.
//!
//! What the engine adds is what the model does not have:
//!
//! * **Ack reification.** The model credits an acknowledgement to the
//!   sender in the same atomic step as the delivery; here the sender is
//!   another process, so `receive`'s outcome leaves as a message:
//!   `Applied` becomes [`PeerMsg::ElectAck`]/[`PeerMsg::CommitAck`],
//!   `Rejected(StaleTime)` becomes [`PeerMsg::Nack`], and every other
//!   rejection is silent (an outdated candidate must not disturb the
//!   cluster — disruption-freedom).
//! * **Three liveness extras, each built from model moves.** The no-op
//!   barrier on a win (`Invoke(noop)` + `Commit`, so the current-term
//!   commit rule is satisfiable without client traffic), heartbeat
//!   retransmission (`Commit` on a timer, which also repairs lost
//!   broadcasts), and the Nack step-down (`NetState::adopt_term`, the
//!   one non-event move: how a zombie leader retires).
//! * **Everything around the protocol**: exactly-once sessions, client
//!   waiters, the applied store, timers, and the WAL.
//!
//! The engine never records what the model did; it *observes* it. Each
//! input is bracketed by a before/after `Mark` of `(time, log length,
//! watermark, role)`, and `Engine::observe` derives the WAL records,
//! the journal's `StateDelta`, applies, waiter releases and step-down
//! redirects from the difference (plus the common-prefix length taken
//! before a shipped log is adopted) — the way `kv::sim` journals the
//! same model.
//!
//! The engine is **pure** with respect to the outside world: it
//! consumes [`Input`]s and returns [`Output`]s, touching no sockets, no
//! clocks, and no filesystem. Time is an abstract tick stream; the only
//! randomness is a seeded [`StdRng`] jittering election deadlines. The
//! same input sequence therefore always produces the same output
//! sequence — the runtime (`crate::node`) is a thin shell that feeds
//! ticks and frames in and carries bytes, journal lines, and replies
//! out. That boundary is what keeps the protocol state machine inside
//! the `det` determinism ban while IO threads live at the edges.
//!
//! # Durability ordering
//!
//! Outputs are ordered so that obeying them sequentially preserves the
//! write-ahead discipline: the journal delta and WAL persist come
//! *before* any `Send` or `Reply`, so an acknowledgement never leaves
//! the node before the state it acknowledges is on disk.

use adore_core::{Configuration, NodeId, NodeSet, ReconfigGuard, Timestamp};
use adore_kv::{KvCommand, KvStore};
use adore_obs::EventKind;
use adore_raft::{
    effective_config, Command, EventOutcome, NetEvent, NetState, Rejection, Request, Role, Server,
};
use adore_schemes::SingleNode;
use adore_storage::{DurableState, Wal, WalRecord};
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::det::msg::{Cfg, ClientMsg, ClientReply, NetEntry, NetRequest, PeerMsg, SessionCmd};
use crate::det::session::{SeqVerdict, SessionTable};

/// Tunables of one engine. All times are abstract ticks; the runtime
/// decides how long a tick is.
#[derive(Debug, Clone)]
pub struct EngineParams {
    /// Leader re-broadcast (heartbeat) period in ticks. Doubles as the
    /// retransmission schedule: a lost commit broadcast is repaired by
    /// the next heartbeat, which always ships the full log.
    pub heartbeat_ticks: u64,
    /// Minimum election timeout in ticks.
    pub election_ticks_min: u64,
    /// Maximum election timeout in ticks (jittered per deadline).
    pub election_ticks_max: u64,
    /// Maximum client requests waiting for commit before the engine
    /// sheds new ones as [`ClientReply::Overloaded`].
    pub inflight_cap: usize,
    /// Session dedup window in sequence numbers.
    pub session_window: u64,
    /// Maximum distinct client sessions retained.
    pub session_clients: usize,
}

impl Default for EngineParams {
    fn default() -> Self {
        EngineParams {
            heartbeat_ticks: 5,
            election_ticks_min: 20,
            election_ticks_max: 40,
            inflight_cap: 64,
            session_window: 128,
            session_clients: 64,
        }
    }
}

/// Static identity and wiring of one engine, bundled so construction
/// stays readable.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// This node.
    pub nid: NodeId,
    /// Every node the runtime can dial (the address book), self
    /// included. Broadcasts go to all of them — including nodes outside
    /// the effective configuration, which still replicate (they may be
    /// re-added, and they must learn they were removed).
    pub peers: NodeSet,
    /// The genesis configuration.
    pub conf0: Cfg,
    /// Which of R1⁺/R2/R3 gate reconfiguration.
    pub guard: ReconfigGuard,
    /// Tunables.
    pub params: EngineParams,
    /// Seed for the election-jitter generator (mix the node id in so
    /// replicas sharing a cluster seed still desynchronize).
    pub seed: u64,
}

/// One event fed into the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// One abstract clock tick.
    Tick,
    /// A message from a cluster peer.
    Peer(PeerMsg),
    /// A request from a client connection (`conn` is the runtime's
    /// handle for routing the eventual reply).
    Client {
        /// Runtime connection handle.
        conn: u64,
        /// The request.
        msg: ClientMsg,
    },
    /// A client connection went away; its pending replies are dropped.
    ClientGone {
        /// Runtime connection handle.
        conn: u64,
    },
}

/// One effect the runtime must carry out, in order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Output {
    /// Append these bytes to the node's WAL file and flush before
    /// acting on any later output of this batch (the write-ahead rule).
    Persist {
        /// Newly synced device bytes (suffix of the WAL image).
        bytes: Vec<u8>,
    },
    /// Append this event to the node's journal.
    Journal(EventKind),
    /// Send this message to peer `to` (best-effort; the protocol
    /// retransmits via heartbeats).
    Send {
        /// Destination node.
        to: NodeId,
        /// The message.
        msg: PeerMsg,
    },
    /// Reply on client connection `conn`.
    Reply {
        /// Runtime connection handle.
        conn: u64,
        /// The reply.
        reply: ClientReply,
    },
}

/// The write-ahead order of one step's outputs: no `Persist` or
/// `Journal` after the first `Send` or `Reply`.
fn durable_before_outbound(outs: &[Output]) -> bool {
    let outbound = |o: &Output| matches!(o, Output::Send { .. } | Output::Reply { .. });
    outs.iter().skip_while(|o| !outbound(o)).all(outbound)
}

/// A client request waiting for its log entry to commit.
#[derive(Debug, Clone)]
struct Waiter {
    conn: u64,
    seq: u64,
    /// 1-based log length that must be committed to acknowledge.
    len: usize,
    /// Whether this ack deduplicates a retry.
    duplicate: bool,
}

/// What the engine compares across one input to learn what the model
/// changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Mark {
    time: Timestamp,
    log_len: usize,
    commit_len: usize,
    role: Role,
}

impl Mark {
    fn of(s: &Server<Cfg, SessionCmd>) -> Self {
        Mark {
            time: s.time,
            log_len: s.log.len(),
            commit_len: s.commit_len,
            role: s.role,
        }
    }
}

/// Effects accumulated while handling one input: handlers fill in
/// `common`, `sends` and `replies`; `Engine::observe` derives the rest
/// from the marks.
#[derive(Debug, Default)]
struct Step {
    /// Length of the prefix the old log shares with an adopted one,
    /// measured before the model replaced it.
    common: Option<usize>,
    term: Option<u64>,
    truncate: Option<u64>,
    append: Vec<String>,
    commit_len: Option<u64>,
    records: Vec<WalRecord<Cfg, SessionCmd>>,
    events: Vec<EventKind>,
    sends: Vec<(NodeId, PeerMsg)>,
    replies: Vec<(u64, ClientReply)>,
}

/// The per-node deterministic protocol engine. See the module docs.
#[derive(Debug)]
pub struct Engine {
    nid: NodeId,
    peers: NodeSet,
    params: EngineParams,

    /// The certified model, with this node as its only live server.
    model: NetState<Cfg, SessionCmd>,

    sessions: SessionTable,
    waiters: Vec<Waiter>,
    leader_hint: Option<NodeId>,
    applied: KvStore,

    wal: Wal<Cfg, SessionCmd>,
    /// Device bytes already handed to the runtime via `Persist`.
    persisted: usize,

    ticks: u64,
    election_deadline: u64,
    next_heartbeat: u64,
    rng: StdRng,
}

impl Engine {
    /// Builds an engine over a recovered durable state and its WAL.
    /// `abstaining` is sticky: a replica that lost its media must never
    /// vote again (it has forgotten promises), though it still
    /// replicates.
    #[must_use]
    pub fn new(
        cfg: EngineConfig,
        wal: Wal<Cfg, SessionCmd>,
        state: DurableState<Cfg, SessionCmd>,
        abstaining: bool,
    ) -> Self {
        let mut sessions = SessionTable::new(cfg.params.session_window, cfg.params.session_clients);
        index_sessions(&mut sessions, &state.log, 0);
        let mut applied = KvStore::new();
        apply_entries(
            &mut applied,
            &state.log[..state.commit_len.min(state.log.len())],
        );
        let mut model = NetState::new(cfg.conf0, cfg.guard);
        model.install_recovery(cfg.nid, state.time, state.log, state.commit_len, abstaining);
        let persisted = wal.disk().synced_bytes().len();
        let mut rng = StdRng::seed_from_u64(cfg.seed ^ u64::from(cfg.nid.0));
        let election_deadline =
            rng.gen_range(cfg.params.election_ticks_min..=cfg.params.election_ticks_max);
        Engine {
            nid: cfg.nid,
            peers: cfg.peers,
            params: cfg.params,
            model,
            sessions,
            waiters: Vec::new(),
            leader_hint: None,
            applied,
            wal,
            persisted,
            ticks: 0,
            election_deadline,
            next_heartbeat: 0,
            rng,
        }
    }

    /// This node's server in the model.
    fn me(&self) -> &Server<Cfg, SessionCmd> {
        self.model
            .server(self.nid)
            .expect("Engine::new installed this node's server")
    }

    /// Feeds one input through the state machine and returns the
    /// effects, in the order the runtime must honor them.
    pub fn step(&mut self, input: Input) -> Vec<Output> {
        let before = Mark::of(self.me());
        let mut st = Step::default();
        match input {
            Input::Tick => self.on_tick(&mut st),
            Input::Peer(msg) => self.on_peer(&mut st, msg),
            Input::Client { conn, msg } => self.on_client(&mut st, conn, msg),
            Input::ClientGone { conn } => self.waiters.retain(|w| w.conn != conn),
        }
        self.observe(before, &mut st);
        self.finish(st)
    }

    // ---- timers ---------------------------------------------------------

    fn on_tick(&mut self, st: &mut Step) {
        self.ticks += 1;
        if self.role() == Role::Leader {
            if self.ticks >= self.next_heartbeat {
                self.next_heartbeat = self.ticks + self.params.heartbeat_ticks;
                self.replicate(st);
            }
        } else if self.ticks >= self.election_deadline {
            self.reset_election_deadline();
            if self
                .model
                .step(&NetEvent::Elect { nid: self.nid })
                .applied()
            {
                self.broadcast_sent(st);
                self.lead_if_elected(st);
            }
        }
    }

    fn reset_election_deadline(&mut self) {
        let span = self.params.election_ticks_min..=self.params.election_ticks_max;
        self.election_deadline = self.ticks + self.rng.gen_range(span);
    }

    /// The no-op barrier: a candidate the model just promoted appends an
    /// entry of its own term and replicates it, so the current-term
    /// commit rule is satisfiable without client traffic and
    /// earlier-term entries commit as soon as the barrier does. Call
    /// only after a move made as a candidate.
    fn lead_if_elected(&mut self, st: &mut Step) {
        if self.role() != Role::Leader {
            return;
        }
        self.leader_hint = Some(self.nid);
        self.next_heartbeat = self.ticks + self.params.heartbeat_ticks;
        self.model.step(&NetEvent::Invoke {
            nid: self.nid,
            method: SessionCmd::noop(),
        });
        self.replicate(st);
    }

    /// The model's `Commit` — self-ack, full-log broadcast, watermark
    /// advance if that completes a quorum. Serves a fresh append and
    /// the heartbeat alike.
    fn replicate(&mut self, st: &mut Step) {
        self.model.step(&NetEvent::Commit { nid: self.nid });
        self.broadcast_sent(st);
    }

    /// Moves what the model just sent onto the wire, to every peer in
    /// the address book.
    fn broadcast_sent(&mut self, st: &mut Step) {
        for req in self.model.take_sent() {
            let msg = PeerMsg::Req(req);
            let others = self.peers.iter().filter(|p| **p != self.nid);
            st.sends.extend(others.map(|p| (*p, msg.clone())));
        }
    }

    // ---- peer protocol --------------------------------------------------

    fn on_peer(&mut self, st: &mut Step, msg: PeerMsg) {
        match msg {
            PeerMsg::Req(req) => self.on_request(st, req),
            PeerMsg::ElectAck { from, time } => {
                if self.role() == Role::Candidate {
                    self.model
                        .credit_vote(self.nid, NodeId(from), Timestamp(time));
                    self.lead_if_elected(st);
                }
            }
            PeerMsg::CommitAck { from, time, len } => {
                self.model
                    .credit_ack(self.nid, NodeId(from), Timestamp(time), len as usize);
            }
            PeerMsg::Nack { from: _, time } => {
                // A peer at a higher term: adopt it and step down. This
                // is how a zombie leader (deposed during a partition)
                // retires instead of disrupting the new term.
                if self.model.adopt_term(self.nid, Timestamp(time)).applied() {
                    self.leader_hint = None;
                    self.reset_election_deadline();
                }
            }
        }
    }

    /// The recipient half of a delivery, with the outcome reified: the
    /// ack leaves as a message, after the `Persist` output, so the
    /// durability a `CommitAck` claims is real by the time it is sent.
    fn on_request(&mut self, st: &mut Step, req: NetRequest) {
        let (from, time) = (req.from(), req.time());
        let shipped = match &req {
            Request::Commit { log, .. } => Some(common_prefix(&self.me().log, log)),
            Request::Elect { .. } => None,
        };
        let reply = match self.model.receive(req, self.nid, false) {
            EventOutcome::Applied => {
                st.common = shipped;
                self.leader_hint = shipped.map(|_| from);
                self.reset_election_deadline();
                match shipped {
                    Some(_) => PeerMsg::CommitAck {
                        from: self.nid.0,
                        time: time.0,
                        len: self.log_len() as u64,
                    },
                    None => PeerMsg::ElectAck {
                        from: self.nid.0,
                        time: time.0,
                    },
                }
            }
            EventOutcome::Rejected(Rejection::StaleTime) => PeerMsg::Nack {
                from: self.nid.0,
                time: self.time().0,
            },
            _ => return,
        };
        st.sends.push((from, reply));
    }

    // ---- client protocol ------------------------------------------------

    fn on_client(&mut self, st: &mut Step, conn: u64, msg: ClientMsg) {
        match msg {
            ClientMsg::Status => {
                let me = self.me();
                st.replies.push((
                    conn,
                    ClientReply::Status {
                        nid: self.nid.0,
                        role: role_name(me.role).to_string(),
                        term: me.time.0,
                        log_len: me.log.len() as u64,
                        commit_len: me.commit_len as u64,
                        leader: self.leader_hint.map(|n| n.0),
                        members: self.members().iter().map(|n| n.0).collect(),
                    },
                ));
            }
            ClientMsg::Get { key } => {
                if self.role() != Role::Leader {
                    st.replies.push((conn, self.redirect()));
                    return;
                }
                let value = self.applied.get(&key).map(str::to_string);
                st.replies.push((conn, ClientReply::Value { key, value }));
            }
            ClientMsg::Put {
                client,
                seq,
                key,
                value,
            } => {
                if !self.admit(st, conn, client, seq) {
                    return;
                }
                self.model.step(&NetEvent::Invoke {
                    nid: self.nid,
                    method: SessionCmd {
                        client,
                        seq,
                        op: Some(KvCommand::put(key, value)),
                    },
                });
                self.await_commit(st, conn, seq);
            }
            ClientMsg::Reconfigure {
                client,
                seq,
                members,
            } => {
                if !self.admit(st, conn, client, seq) {
                    return;
                }
                let config = SingleNode::new(members);
                let event = NetEvent::Reconfig {
                    nid: self.nid,
                    config: config.clone(),
                };
                if !self.model.step(&event).applied() {
                    let reason = self.refusal_reason(&config);
                    st.replies.push((conn, ClientReply::Rejected { reason }));
                    return;
                }
                // Config entries carry no session envelope, so their
                // dedup record is volatile (lost on a log rebuild). That
                // is sound: re-appending the same membership is
                // idempotent and R1⁺ admits the no-change transition.
                self.sessions.record(client, seq, self.log_len() as u64);
                self.await_commit(st, conn, seq);
            }
        }
    }

    /// Admission for a leader-side write: replies and returns `false`
    /// for non-leaders, duplicates, stale seqs, and overload; returns
    /// `true` when the caller should append.
    fn admit(&mut self, st: &mut Step, conn: u64, client: u64, seq: u64) -> bool {
        if self.role() != Role::Leader {
            st.replies.push((conn, self.redirect()));
            return false;
        }
        match self.sessions.check(client, seq) {
            SeqVerdict::Duplicate { len } => {
                let len = len as usize;
                if len <= self.commit_len() {
                    st.replies.push((
                        conn,
                        ClientReply::Acked {
                            seq,
                            duplicate: true,
                        },
                    ));
                } else {
                    // Appended but not yet committed: acknowledge when
                    // the original commits, without re-appending.
                    self.waiters.push(Waiter {
                        conn,
                        seq,
                        len,
                        duplicate: true,
                    });
                }
                false
            }
            SeqVerdict::Stale { floor } => {
                st.replies.push((conn, ClientReply::SessionStale { floor }));
                false
            }
            SeqVerdict::Fresh => {
                if self.waiters.len() >= self.params.inflight_cap {
                    st.replies.push((conn, ClientReply::Overloaded));
                    false
                } else {
                    true
                }
            }
        }
    }

    /// Parks `conn` until the entry just appended commits, and
    /// replicates it.
    fn await_commit(&mut self, st: &mut Step, conn: u64, seq: u64) {
        self.waiters.push(Waiter {
            conn,
            seq,
            len: self.log_len(),
            duplicate: false,
        });
        self.replicate(st);
    }

    /// Words a reconfiguration the model has already refused: the legs
    /// are probed in the model's order only to name the one that said
    /// no. The decision itself is `NetState::reconfig`'s.
    fn refusal_reason(&self, next: &Cfg) -> String {
        let (me, guard) = (self.me(), self.model.guard());
        let in_flight = me.log.get(me.commit_len..).unwrap_or(&[]);
        if guard.r1 && !effective_config(self.model.conf0(), &me.log).r1_plus(next) {
            "R1+: membership may change by at most one node"
        } else if guard.r2 && in_flight.iter().any(|e| e.cmd.config().is_some()) {
            "R2: an uncommitted config entry is already in flight"
        } else {
            "R3: no entry of the current term is committed yet"
        }
        .to_string()
    }

    fn redirect(&self) -> ClientReply {
        ClientReply::Redirect {
            leader: self.leader_hint.filter(|n| *n != self.nid).map(|n| n.0),
        }
    }

    /// Derives everything the model's moves imply from the before/after
    /// marks: WAL records and the journal delta, applies, waiter
    /// releases, step-down redirects.
    fn observe(&mut self, before: Mark, st: &mut Step) {
        let nid = self.nid.0;
        // Not `self.me()`: the sessions, store and waiters are updated
        // below while the model's log is read.
        let me = self
            .model
            .server(self.nid)
            .expect("Engine::new installed this node's server");
        let after = Mark::of(me);

        if after.time != before.time {
            st.term = Some(after.time.0);
            st.records.push(WalRecord::Term { time: after.time.0 });
        }
        // The log: a shipped log replaced everything above the common
        // prefix (the session index above the cut is gone with it);
        // local moves only ever append.
        let common = st.common.unwrap_or(before.log_len);
        let mut unindexed = common;
        if common < before.log_len {
            st.truncate = Some(common as u64);
            st.records.push(WalRecord::Truncate { len: common as u64 });
            self.sessions.clear();
            unindexed = 0;
        }
        index_sessions(&mut self.sessions, &me.log, unindexed);
        for e in me.log.get(common..).unwrap_or(&[]) {
            st.append
                .push(serde_json::to_string(e).expect("entries serialize"));
            st.records.push(WalRecord::Append { entry: e.clone() });
        }

        // Leaving leadership/candidacy redirects pending clients
        // (graceful degradation, not silence: they learn immediately
        // instead of timing out) — before the watermark releases
        // anyone, since their slots may now hold another leader's
        // entries.
        if before.role != Role::Follower && after.role == Role::Follower {
            let redirect = self.redirect();
            let gone = self.waiters.drain(..);
            st.replies.extend(gone.map(|w| (w.conn, redirect.clone())));
        }
        if before.role != Role::Leader && after.role == Role::Leader {
            let term = after.time.0;
            st.events.push(EventKind::LeaderElected { nid, term });
        }
        // The watermark (it never moves backwards): apply the newly
        // committed entries and release their waiters.
        if after.commit_len != before.commit_len {
            st.commit_len = Some(after.commit_len as u64);
            st.records.push(WalRecord::CommitLen {
                len: after.commit_len as u64,
            });
            let settled = me
                .log
                .get(before.commit_len..after.commit_len)
                .unwrap_or(&[]);
            apply_entries(&mut self.applied, settled);
            for c in settled.iter().filter_map(|e| e.cmd.config()) {
                st.events.push(EventKind::ReconfigCommitted {
                    nid,
                    members: c.members().iter().map(|n| n.0).collect(),
                });
            }
            self.waiters.retain(|w| {
                let done = w.len <= after.commit_len;
                if done {
                    let (seq, duplicate) = (w.seq, w.duplicate);
                    st.replies
                        .push((w.conn, ClientReply::Acked { seq, duplicate }));
                }
                !done
            });
        }
        if after.role == Role::Leader {
            self.model.forget_settled_acks(self.nid);
        }
    }

    /// Orders a step's effects for the runtime: journal delta, WAL
    /// persist, sync marker, protocol events, then sends and replies —
    /// so nothing leaves the node before its durable basis.
    fn finish(&mut self, st: Step) -> Vec<Output> {
        let mut out = Vec::new();
        if !st.records.is_empty() {
            out.push(Output::Journal(EventKind::StateDelta {
                nid: self.nid.0,
                term: st.term,
                truncate: st.truncate,
                append: st.append,
                commit_len: st.commit_len,
            }));
            for rec in &st.records {
                self.wal.append(rec);
            }
            self.wal.sync();
            let synced = self.wal.disk().synced_bytes();
            let bytes = synced[self.persisted.min(synced.len())..].to_vec();
            self.persisted = synced.len();
            out.push(Output::Persist { bytes });
            out.push(Output::Journal(EventKind::WalSync { nid: self.nid.0 }));
        }
        out.extend(st.events.into_iter().map(Output::Journal));
        out.extend(
            st.sends
                .into_iter()
                .map(|(to, msg)| Output::Send { to, msg }),
        );
        out.extend(
            st.replies
                .into_iter()
                .map(|(conn, reply)| Output::Reply { conn, reply }),
        );
        debug_assert!(durable_before_outbound(&out), "durable after outbound: {out:?}");
        out
    }

    // ---- accessors ------------------------------------------------------

    /// This node's id.
    #[must_use]
    pub fn nid(&self) -> NodeId {
        self.nid
    }

    /// Current role.
    #[must_use]
    pub fn role(&self) -> Role {
        self.me().role
    }

    /// Current term.
    #[must_use]
    pub fn time(&self) -> Timestamp {
        self.me().time
    }

    /// Log length.
    #[must_use]
    pub fn log_len(&self) -> usize {
        self.me().log.len()
    }

    /// Commit watermark.
    #[must_use]
    pub fn commit_len(&self) -> usize {
        self.me().commit_len
    }

    /// Best current guess at the leader.
    #[must_use]
    pub fn leader_hint(&self) -> Option<NodeId> {
        self.leader_hint
    }

    /// Members of the effective configuration.
    #[must_use]
    pub fn members(&self) -> NodeSet {
        effective_config(self.model.conf0(), &self.me().log).members()
    }

    /// A committed value, from the applied store.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&str> {
        self.applied.get(key)
    }

    /// Configuration epoch: how many configuration entries the log
    /// holds (0 while still on the bootstrap configuration). Exposed
    /// as a `/metrics` gauge so a scrape shows reconfiguration
    /// progress without parsing the journal.
    #[must_use]
    pub fn config_epoch(&self) -> usize {
        self.me()
            .log
            .iter()
            .filter(|e| matches!(e.cmd, Command::Config(_)))
            .count()
    }

    /// Distinct clients tracked in the session table (the session-table
    /// occupancy gauge).
    #[must_use]
    pub fn session_occupancy(&self) -> usize {
        self.sessions.clients()
    }
}

fn role_name(role: Role) -> &'static str {
    match role {
        Role::Follower => "follower",
        Role::Candidate => "candidate",
        Role::Leader => "leader",
    }
}

/// Length of the longest common prefix of two logs.
fn common_prefix(a: &[NetEntry], b: &[NetEntry]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// Indexes `log[from..]` into the session table: every non-noop method
/// entry contributes its `(client, seq)` at its 1-based position.
fn index_sessions(sessions: &mut SessionTable, log: &[NetEntry], from: usize) {
    for (i, e) in log.iter().enumerate().skip(from) {
        if let Command::Method(sc) = &e.cmd {
            if sc.client != 0 {
                sessions.record(sc.client, sc.seq, (i + 1) as u64);
            }
        }
    }
}

/// Applies committed entries to a store.
fn apply_entries(store: &mut KvStore, entries: &[NetEntry]) {
    for e in entries {
        if let Command::Method(sc) = &e.cmd {
            if let Some(op) = &sc.op {
                store.apply(op);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adore_raft::MsgId;
    use std::collections::{BTreeMap, VecDeque};

    fn fresh(nid: u32, members: &[u32], params: EngineParams) -> Engine {
        let cfg = EngineConfig {
            nid: NodeId(nid),
            peers: members.iter().map(|n| NodeId(*n)).collect(),
            conf0: SingleNode::new(members.iter().copied()),
            guard: ReconfigGuard::all(),
            params,
            seed: 42,
        };
        let wal = Wal::new(NodeId(nid));
        Engine::new(cfg, wal, DurableState::default(), false)
    }

    /// Routes `Send` outputs between engines until quiescent, returning
    /// every client reply seen.
    fn pump(
        engines: &mut BTreeMap<u32, Engine>,
        seed_outputs: Vec<Output>,
    ) -> Vec<(u64, ClientReply)> {
        let mut queue: VecDeque<(u32, PeerMsg)> = VecDeque::new();
        let mut replies = Vec::new();
        let absorb = |outs: Vec<Output>,
                          queue: &mut VecDeque<(u32, PeerMsg)>,
                          replies: &mut Vec<(u64, ClientReply)>| {
            for o in outs {
                match o {
                    Output::Send { to, msg } => queue.push_back((to.0, msg)),
                    Output::Reply { conn, reply } => replies.push((conn, reply)),
                    Output::Persist { .. } | Output::Journal(_) => {}
                }
            }
        };
        absorb(seed_outputs, &mut queue, &mut replies);
        while let Some((to, msg)) = queue.pop_front() {
            if let Some(engine) = engines.get_mut(&to) {
                let outs = engine.step(Input::Peer(msg));
                absorb(outs, &mut queue, &mut replies);
            }
        }
        replies
    }

    /// Ticks node 1 past its deadline so it campaigns, with the full
    /// message exchange routed between all three engines.
    fn elect_node_one(engines: &mut BTreeMap<u32, Engine>) {
        for _ in 0..EngineParams::default().election_ticks_max + 1 {
            let outs = engines.get_mut(&1).unwrap().step(Input::Tick);
            pump(engines, outs);
            if engines[&1].role() == Role::Leader {
                return;
            }
        }
        panic!("node 1 failed to win its election");
    }

    fn three() -> BTreeMap<u32, Engine> {
        [1, 2, 3]
            .into_iter()
            .map(|n| (n, fresh(n, &[1, 2, 3], EngineParams::default())))
            .collect()
    }

    fn put(client: u64, seq: u64) -> ClientMsg {
        ClientMsg::Put {
            client,
            seq,
            key: format!("k{seq}"),
            value: "v".into(),
        }
    }

    /// Node 1 as a leader whose barrier no follower has seen yet: node 2
    /// votes, and the barrier's broadcast goes nowhere.
    fn leader_with_uncommitted_barrier(params: EngineParams) -> Engine {
        let mut leader = fresh(1, &[1, 2, 3], params);
        let mut voter = fresh(2, &[1, 2, 3], EngineParams::default());
        while leader.role() != Role::Leader {
            for out in leader.step(Input::Tick) {
                let Output::Send { to: NodeId(2), msg } = out else {
                    continue;
                };
                for vote in voter.step(Input::Peer(msg)) {
                    if let Output::Send { msg, .. } = vote {
                        leader.step(Input::Peer(msg));
                    }
                }
            }
        }
        assert_eq!((leader.log_len(), leader.commit_len()), (1, 0));
        leader
    }

    #[test]
    fn three_engines_elect_replicate_and_commit() {
        let mut engines = three();
        elect_node_one(&mut engines);
        // The no-op barrier commits across the quorum.
        assert_eq!(engines[&1].commit_len(), 1);

        let outs = engines.get_mut(&1).unwrap().step(Input::Client {
            conn: 7,
            msg: ClientMsg::Put {
                client: 9,
                seq: 1,
                key: "k".into(),
                value: "v".into(),
            },
        });
        let replies = pump(&mut engines, outs);
        assert_eq!(
            replies,
            vec![(
                7,
                ClientReply::Acked {
                    seq: 1,
                    duplicate: false
                }
            )]
        );
        assert_eq!(engines[&1].get("k"), Some("v"));
        // Followers learn the advanced watermark on the next heartbeat.
        for _ in 0..EngineParams::default().heartbeat_ticks + 1 {
            let outs = engines.get_mut(&1).unwrap().step(Input::Tick);
            pump(&mut engines, outs);
        }
        for n in [2, 3] {
            assert_eq!(engines[&n].log_len(), 2);
            assert_eq!(engines[&n].commit_len(), 2);
        }
    }

    #[test]
    fn retried_put_is_acked_but_applied_once() {
        let mut engines = three();
        elect_node_one(&mut engines);
        let put = ClientMsg::Put {
            client: 9,
            seq: 1,
            key: "k".into(),
            value: "v".into(),
        };
        let outs = engines.get_mut(&1).unwrap().step(Input::Client {
            conn: 1,
            msg: put.clone(),
        });
        pump(&mut engines, outs);
        let len_before = engines[&1].log_len();
        // The retry: same (client, seq), acknowledged as a duplicate,
        // nothing re-appended.
        let outs = engines.get_mut(&1).unwrap().step(Input::Client {
            conn: 2,
            msg: put,
        });
        let replies = pump(&mut engines, outs);
        assert_eq!(
            replies,
            vec![(
                2,
                ClientReply::Acked {
                    seq: 1,
                    duplicate: true
                }
            )]
        );
        assert_eq!(engines[&1].log_len(), len_before);
    }

    #[test]
    fn followers_redirect_clients_to_the_leader() {
        let mut engines = three();
        elect_node_one(&mut engines);
        let outs = engines.get_mut(&2).unwrap().step(Input::Client {
            conn: 5,
            msg: ClientMsg::Get { key: "k".into() },
        });
        assert_eq!(
            outs,
            vec![Output::Reply {
                conn: 5,
                reply: ClientReply::Redirect { leader: Some(1) }
            }]
        );
    }

    #[test]
    fn bounded_inflight_sheds_overload() {
        // A leader whose peers never answer: waiters pile up.
        let mut leader = leader_with_uncommitted_barrier(EngineParams {
            inflight_cap: 2,
            ..EngineParams::default()
        });
        for (seq, conn) in [(1u64, 1u64), (2, 2)] {
            let outs = leader.step(Input::Client {
                conn,
                msg: put(4, seq),
            });
            assert!(
                !outs
                    .iter()
                    .any(|o| matches!(o, Output::Reply { .. })),
                "put {seq} should be in flight, not answered"
            );
        }
        let outs = leader.step(Input::Client {
            conn: 3,
            msg: put(4, 3),
        });
        assert!(outs.contains(&Output::Reply {
            conn: 3,
            reply: ClientReply::Overloaded
        }));
    }

    #[test]
    fn nack_retires_a_zombie_leader() {
        let mut engines = three();
        elect_node_one(&mut engines);
        let leader = engines.get_mut(&1).unwrap();
        assert_eq!(leader.role(), Role::Leader);
        let term = leader.time().0;
        let outs = leader.step(Input::Peer(PeerMsg::Nack {
            from: 3,
            time: term + 5,
        }));
        assert_eq!(leader.role(), Role::Follower);
        assert_eq!(leader.time().0, term + 5);
        // The step-down journaled and persisted the adopted term.
        assert!(outs
            .iter()
            .any(|o| matches!(o, Output::Persist { .. })));
    }

    #[test]
    fn identical_inputs_yield_identical_outputs() {
        let script = |engine: &mut Engine| {
            let mut all = Vec::new();
            for _ in 0..60 {
                all.extend(engine.step(Input::Tick));
            }
            all.extend(engine.step(Input::Client {
                conn: 1,
                msg: ClientMsg::Status,
            }));
            all
        };
        let mut a = fresh(1, &[1, 2, 3], EngineParams::default());
        let mut b = fresh(1, &[1, 2, 3], EngineParams::default());
        assert_eq!(script(&mut a), script(&mut b));
    }

    #[test]
    fn reconfiguration_commits_and_takes_effect() {
        let mut engines = three();
        elect_node_one(&mut engines);
        // R3 needs a committed own-term entry: the barrier already is.
        let outs = engines.get_mut(&1).unwrap().step(Input::Client {
            conn: 1,
            msg: ClientMsg::Reconfigure {
                client: 2,
                seq: 1,
                members: vec![1, 2],
            },
        });
        let replies = pump(&mut engines, outs);
        assert_eq!(
            replies,
            vec![(
                1,
                ClientReply::Acked {
                    seq: 1,
                    duplicate: false
                }
            )]
        );
        let members: Vec<u32> = engines[&1].members().iter().map(|n| n.0).collect();
        assert_eq!(members, vec![1, 2]);
        // R1+ rejects a two-node jump from {1,2}.
        let outs = engines.get_mut(&1).unwrap().step(Input::Client {
            conn: 1,
            msg: ClientMsg::Reconfigure {
                client: 2,
                seq: 2,
                members: vec![3, 4],
            },
        });
        assert!(outs.iter().any(|o| matches!(
            o,
            Output::Reply {
                reply: ClientReply::Rejected { .. },
                ..
            }
        )));
    }

    #[test]
    fn a_long_lived_leader_keeps_no_settled_acks_and_an_empty_bag() {
        let mut engines = three();
        elect_node_one(&mut engines);
        for seq in 1..=1000 {
            let outs = engines.get_mut(&1).unwrap().step(Input::Client {
                conn: 1,
                msg: put(9, seq),
            });
            let replies = pump(&mut engines, outs);
            assert_eq!(replies.len(), 1, "put {seq}: {replies:?}");
        }
        let leader = engines[&1].me();
        assert_eq!(leader.commit_len, 1001);
        // Every length up to the watermark was acked by three nodes; none
        // of those sets is still held (the late ack's set included).
        let settled: Vec<_> = leader.acks.keys().filter(|l| **l <= 1001).collect();
        assert!(settled.is_empty(), "{settled:?}");
        for e in engines.values() {
            assert!(e.model.messages().is_empty() && e.model.delivered().is_empty());
        }
    }

    #[test]
    fn a_refused_reconfiguration_names_its_guard_and_appends_nothing() {
        // (barrier committed?, a reconfiguration left in flight, the
        // proposal, the leg that must be named)
        type Members = &'static [u32];
        let table: [(bool, Option<Members>, Members, &str); 4] = [
            (true, None, &[1], "R1+:"),
            (true, Some(&[1, 2]), &[1], "R2:"),
            (false, None, &[1, 2], "R3:"),
            (false, None, &[1], "R1+:"), // R1+ and R3 both fail: model order
        ];
        for (committed, in_flight, proposal, leg) in table {
            let mut leader = if committed {
                let mut engines = three();
                elect_node_one(&mut engines);
                engines.remove(&1).unwrap()
            } else {
                leader_with_uncommitted_barrier(EngineParams::default())
            };
            let mut reconfigure = |seq, members: &[u32]| {
                leader.step(Input::Client {
                    conn: 1,
                    msg: ClientMsg::Reconfigure {
                        client: 2,
                        seq,
                        members: members.to_vec(),
                    },
                })
            };
            if let Some(first) = in_flight {
                let outs = reconfigure(1, first);
                assert!(outs.iter().any(|o| matches!(o, Output::Persist { .. })));
            }
            let outs = reconfigure(2, proposal);
            let [Output::Reply {
                reply: ClientReply::Rejected { reason },
                ..
            }] = outs.as_slice()
            else {
                panic!("{leg} case: the model refused, so nothing but a reply: {outs:?}");
            };
            assert!(reason.starts_with(leg), "{leg} case named `{reason}`");
            let appended = 1 + usize::from(in_flight.is_some());
            assert_eq!(leader.log_len(), appended, "{leg} case appended");
        }
    }

    /// `finish` asserts this order on every step of a debug build; here
    /// the predicate itself is shown to reject a persist after a send.
    #[test]
    fn the_order_predicate_rejects_durable_after_outbound() {
        let journal = || Output::Journal(EventKind::WalSync { nid: 1 });
        let persist = || Output::Persist { bytes: vec![0] };
        let send = || Output::Send {
            to: NodeId(2),
            msg: PeerMsg::ElectAck { from: 1, time: 1 },
        };
        let reply = || Output::Reply {
            conn: 0,
            reply: ClientReply::Overloaded,
        };
        assert!(!durable_before_outbound(&[send(), persist()]));
        assert!(!durable_before_outbound(&[reply(), journal()]));
        assert!(durable_before_outbound(&[journal(), persist(), journal(), send(), reply()]));
        assert!(durable_before_outbound(&[]));
    }

    /// Three engines beside one three-server reference model. Acks travel
    /// with their request (or are lost whole), so every engine move has
    /// an event of the reference to stand beside.
    struct Beside {
        engines: BTreeMap<u32, Engine>,
        reference: NetState<Cfg, SessionCmd>,
        /// Requests in flight: `(recipient, id in the reference's bag)`.
        pool: Vec<(u32, MsgId)>,
    }

    impl Beside {
        /// Plays `events` on the reference — plus the barrier if engine
        /// `n` just became leader — and checks that the engine broadcast
        /// exactly what the reference sent.
        fn beside(
            &mut self,
            n: u32,
            was: Role,
            outs: &[Output],
            mut events: Vec<NetEvent<Cfg, SessionCmd>>,
        ) {
            let nid = NodeId(n);
            if was != Role::Leader && self.engines[&n].role() == Role::Leader {
                let method = SessionCmd::noop();
                events.extend([NetEvent::Invoke { nid, method }, NetEvent::Commit { nid }]);
            }
            let sent = self.reference.messages().len();
            for ev in &events {
                let applied = self.reference.step(ev).applied();
                // A refused append is not replicated.
                if !applied && !matches!(ev, NetEvent::Elect { .. } | NetEvent::Commit { .. }) {
                    break;
                }
            }
            let mut expected = Vec::new();
            for id in sent..self.reference.messages().len() {
                for to in [1, 2, 3].into_iter().filter(|to| *to != n) {
                    self.pool.push((to, MsgId(id as u32)));
                    expected.push((NodeId(to), self.reference.messages()[id].clone()));
                }
            }
            let broadcast: Vec<_> = outs
                .iter()
                .filter_map(|o| match o {
                    Output::Send {
                        to,
                        msg: PeerMsg::Req(req),
                    } => Some((*to, req.clone())),
                    _ => None,
                })
                .collect();
            assert_eq!(broadcast, expected, "engine {n} vs the reference's bag");
        }

        /// Hands request `id` to engine `to`; with `ack`, its answer goes
        /// straight back to the sender, as in the reference's `Deliver`.
        fn deliver(&mut self, to: u32, id: MsgId, ack: bool) {
            let req = self.reference.message(id).expect("in the bag").clone();
            let from = req.from();
            let outs = self
                .engines
                .get_mut(&to)
                .unwrap()
                .step(Input::Peer(PeerMsg::Req(req)));
            let answers: Vec<PeerMsg> = outs
                .into_iter()
                .filter_map(|o| match o {
                    Output::Send { to, msg } if to == from => Some(msg),
                    Output::Send { .. } => panic!("a request is answered to its sender only"),
                    _ => None,
                })
                .collect();
            let lost = |a: NodeId, b: NodeId| !(a == NodeId(to) && b == from);
            let up = |_: NodeId, _: NodeId| true;
            let link: &dyn Fn(NodeId, NodeId) -> bool = if ack { &up } else { &lost };
            // The reification rule: applied is acked, a stale term is
            // nacked with the recipient's own term, the rest is silence.
            match self.reference.deliver_via(id, NodeId(to), link) {
                EventOutcome::Applied => assert!(
                    matches!(
                        answers[..],
                        [PeerMsg::ElectAck { .. } | PeerMsg::CommitAck { .. }]
                    ),
                    "{answers:?}"
                ),
                EventOutcome::Rejected(Rejection::StaleTime) => {
                    let time = self.reference.server(NodeId(to)).unwrap().time;
                    assert_eq!(
                        answers,
                        [PeerMsg::Nack {
                            from: to,
                            time: time.0
                        }]
                    );
                    if ack {
                        // The one liveness move outside the event alphabet.
                        let _ = self.reference.adopt_term(from, time);
                    }
                }
                _ => assert_eq!(answers, []),
            }
            for msg in answers.into_iter().filter(|_| ack) {
                let sender = self.engines.get_mut(&from.0).unwrap();
                let was = sender.role();
                let outs = sender.step(Input::Peer(msg));
                self.beside(from.0, was, &outs, Vec::new());
            }
        }

        fn assert_agree(&self, after: &str) {
            for (n, e) in &self.engines {
                let (me, it) = (e.me(), self.reference.server(NodeId(*n)).unwrap());
                assert_eq!(
                    (me.time, &me.log, me.commit_len, me.role),
                    (it.time, &it.log, it.commit_len, it.role),
                    "engine {n} left the reference after {after}"
                );
                // What `observe` derived is the same state again: a crash
                // right now would replay to it.
                let wal = e.wal.mirror();
                assert_eq!(
                    (wal.time, &wal.log, wal.commit_len),
                    (me.time, &me.log, me.commit_len),
                    "engine {n}'s WAL left its model after {after}"
                );
            }
        }
    }

    #[test]
    fn engines_track_the_reference_model_move_for_move() {
        let params = EngineParams {
            heartbeat_ticks: 2,
            election_ticks_min: 2,
            election_ticks_max: 6,
            inflight_cap: usize::MAX,
            ..EngineParams::default()
        };
        let conf0 = SingleNode::new([1, 2, 3]);
        let mut b = Beside {
            engines: (1..=3)
                .map(|n| (n, fresh(n, &[1, 2, 3], params.clone())))
                .collect(),
            reference: NetState::new(conf0, ReconfigGuard::all()),
            pool: Vec::new(),
        };
        let memberships: [&[u32]; 5] = [&[1, 2, 3], &[1, 2], &[2, 3], &[1, 3], &[1]];
        let mut rng = StdRng::seed_from_u64(0xAD0E);
        for seq in 1..=600u64 {
            let n = rng.gen_range(1..=3u32);
            let nid = NodeId(n);
            let was = b.engines[&n].role();
            let what = match rng.gen_range(0..16) {
                0..=2 => {
                    // A tick: an election, a heartbeat, or nothing.
                    let outs = b.engines.get_mut(&n).unwrap().step(Input::Tick);
                    let first = outs.iter().find_map(|o| match o {
                        Output::Send {
                            msg: PeerMsg::Req(req),
                            ..
                        } => Some(req.kind_name()),
                        _ => None,
                    });
                    let events = match first {
                        Some("elect") => vec![NetEvent::Elect { nid }],
                        Some(_) => vec![NetEvent::Commit { nid }],
                        None => Vec::new(),
                    };
                    b.beside(n, was, &outs, events);
                    "a tick"
                }
                3..=4 => {
                    let method = SessionCmd {
                        client: 5,
                        seq,
                        op: Some(KvCommand::put(format!("k{seq}"), "v")),
                    };
                    let outs = b.engines.get_mut(&n).unwrap().step(Input::Client {
                        conn: 1,
                        msg: put(5, seq),
                    });
                    let events = vec![NetEvent::Invoke { nid, method }, NetEvent::Commit { nid }];
                    b.beside(n, was, &outs, events);
                    "a put"
                }
                5 => {
                    let members = memberships[rng.gen_range(0..memberships.len())];
                    let outs = b.engines.get_mut(&n).unwrap().step(Input::Client {
                        conn: 1,
                        msg: ClientMsg::Reconfigure {
                            client: 5,
                            seq,
                            members: members.to_vec(),
                        },
                    });
                    let config = SingleNode::new(members.iter().copied());
                    let events = vec![NetEvent::Reconfig { nid, config }, NetEvent::Commit { nid }];
                    b.beside(n, was, &outs, events);
                    "a reconfiguration"
                }
                _ if b.pool.is_empty() => continue,
                kind => {
                    let i = rng.gen_range(0..b.pool.len());
                    let (to, id) = b.pool[i];
                    // 6: dropped; 7: delivered, ack lost; 8-9: delivered and
                    // kept for a stale redelivery; else delivered, acked.
                    if !(8..=9).contains(&kind) {
                        b.pool.swap_remove(i);
                    }
                    if kind != 6 {
                        b.deliver(to, id, kind != 7);
                    }
                    "a delivery"
                }
            };
            b.assert_agree(what);
        }
        // The walk is not vacuous: leaders came and went, entries committed.
        let terms = b.reference.servers().map(|(_, s)| s.time.0).max();
        assert!(terms > Some(3) && b.reference.committed_prefix().len() > 5);
    }
}
