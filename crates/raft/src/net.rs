//! The asynchronous network-based Raft-like specification (Fig. 13).
//!
//! State is a map of servers plus bags of sent and delivered requests.
//! Events ([`NetEvent`]) drive it: `elect`/`commit` broadcast requests,
//! `invoke`/`reconfig` are leader-local log appends, and `deliver` hands a
//! sent request to one recipient, which validates it, applies it, and
//! returns its acknowledgement synchronously (see the crate docs for why
//! acknowledgements are synchronous).
//!
//! The same state machine serves as "SRaft" when driven by a normalized
//! trace (valid deliveries only, globally ordered, atomically grouped) —
//! exactly the paper's "same specification with simplifying assumptions".
//!
//! It also serves one node of a real cluster: the `adored` daemon keeps a
//! `NetState` whose only live server is itself, issues the local events,
//! and calls the two halves of a delivery separately — [`NetState::receive`]
//! where a request arrives, [`NetState::credit_vote`] /
//! [`NetState::credit_ack`] where its acknowledgement does. `deliver` is
//! those same calls back to back, so what the checker explores is what the
//! daemon runs.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use adore_core::{Configuration, NodeId, NodeSet, ReconfigGuard, Timestamp};

use crate::types::{
    effective_config, log_up_to_date, Command, Entry, Log, MsgId, NetEvent, Request,
};

/// A replica's role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize, Default)]
pub enum Role {
    /// Passive replica.
    #[default]
    Follower,
    /// Election in progress.
    Candidate,
    /// Commit phase.
    Leader,
}

/// One replica's local state (Fig. 13's `Server`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Server<C, M> {
    /// Largest observed term.
    pub time: Timestamp,
    /// Local command log.
    pub log: Log<C, M>,
    /// Number of log entries known committed.
    pub commit_len: usize,
    /// Current role.
    pub role: Role,
    /// Votes received while a candidate at `time`.
    pub votes: NodeSet,
    /// Commit acknowledgements received per acked log length while leader
    /// at `time`.
    pub acks: BTreeMap<usize, NodeSet>,
    /// Whether the replica is currently crashed. At this level crashes
    /// are benign; what actually survives one is decided by the storage
    /// layer (`adore-storage`): the simulation rebuilds `(time, log,
    /// commit_len)` from a WAL replay on recovery, and injected disk
    /// faults can lose an unsynced tail, tear a record, corrupt a synced
    /// record, or wipe the media entirely.
    pub crashed: bool,
    /// Whether the replica has permanently renounced voting. Recovery
    /// from total WAL loss ([`adore-storage`'s `Recovery::DataLoss`])
    /// sets this: a replica that has forgotten which votes it granted
    /// must never vote (or campaign) again, or two leaders can win the
    /// same term. It still adopts logs and acknowledges commits, so it
    /// catches back up purely by retransmission.
    pub abstaining: bool,
}

impl<C, M> Server<C, M> {
    fn new() -> Self {
        Server {
            time: Timestamp(0),
            log: Vec::new(),
            commit_len: 0,
            role: Role::Follower,
            votes: NodeSet::new(),
            acks: BTreeMap::new(),
            crashed: false,
            abstaining: false,
        }
    }
}

/// Why a delivery was ignored by its recipient (invalid messages, Def. C.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Rejection {
    /// The request's timestamp is too old.
    StaleTime,
    /// The candidate's log is not up-to-date with the voter's.
    OutdatedLog,
    /// The recipient is crashed.
    RecipientCrashed,
    /// The recipient has renounced voting (it recovered from total WAL
    /// loss and no longer remembers which votes it granted).
    Abstaining,
    /// The request id is unknown or was never sent.
    UnknownMessage,
    /// The link from the sender to the recipient is down (partitions are
    /// a property of the delivery attempt, not of the message: the same
    /// message can be re-delivered after the link heals).
    Unreachable,
}

/// The result of replaying one event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventOutcome {
    /// The event changed some replica's state.
    Applied,
    /// A local operation was a no-op (e.g. invoke by a non-leader).
    LocalNoOp,
    /// A delivery was ignored for the given reason.
    Rejected(Rejection),
}

impl EventOutcome {
    /// Whether the event had any effect.
    #[must_use]
    pub fn applied(&self) -> bool {
        matches!(self, EventOutcome::Applied)
    }
}

/// The network-based system state: servers plus sent/delivered request
/// bags (Fig. 13's `Σ_net`).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetState<C, M> {
    conf0: C,
    guard: ReconfigGuard,
    servers: BTreeMap<NodeId, Server<C, M>>,
    /// All broadcast requests, indexed by [`MsgId`]; the "sent" bag.
    messages: Vec<Request<C, M>>,
    /// Requests delivered so far, as `(msg, recipient)` pairs.
    delivered: Vec<(MsgId, NodeId)>,
}

impl<C: Configuration, M: Clone + Eq> NetState<C, M> {
    /// Creates a cluster over `conf0`'s members with empty logs, enforcing
    /// `guard` on reconfigurations.
    ///
    /// # Examples
    ///
    /// ```
    /// use adore_core::ReconfigGuard;
    /// use adore_raft::NetState;
    /// use adore_schemes::SingleNode;
    ///
    /// let st: NetState<SingleNode, &str> =
    ///     NetState::new(SingleNode::new([1, 2, 3]), ReconfigGuard::all());
    /// assert_eq!(st.servers().count(), 3);
    /// ```
    #[must_use]
    pub fn new(conf0: C, guard: ReconfigGuard) -> Self {
        let servers = conf0
            .members()
            .into_iter()
            .map(|nid| (nid, Server::new()))
            .collect();
        NetState {
            conf0,
            guard,
            servers,
            messages: Vec::new(),
            delivered: Vec::new(),
        }
    }

    /// The initial configuration.
    #[must_use]
    pub fn conf0(&self) -> &C {
        &self.conf0
    }

    /// The reconfiguration guard in force.
    #[must_use]
    pub fn guard(&self) -> ReconfigGuard {
        self.guard
    }

    /// Iterates over `(nid, server)` pairs in id order.
    pub fn servers(&self) -> impl Iterator<Item = (NodeId, &Server<C, M>)> {
        self.servers.iter().map(|(n, s)| (*n, s))
    }

    /// The server with id `nid`, if it exists in the cluster.
    #[must_use]
    pub fn server(&self, nid: NodeId) -> Option<&Server<C, M>> {
        self.servers.get(&nid)
    }

    /// All broadcast requests so far (the "sent" bag), indexed by
    /// [`MsgId`] position.
    #[must_use]
    pub fn messages(&self) -> &[Request<C, M>] {
        &self.messages
    }

    /// The request with the given id.
    #[must_use]
    pub fn message(&self, id: MsgId) -> Option<&Request<C, M>> {
        self.messages.get(id.0 as usize)
    }

    /// The deliveries performed so far.
    #[must_use]
    pub fn delivered(&self) -> &[(MsgId, NodeId)] {
        &self.delivered
    }

    /// The configuration in effect at `nid` (from its log).
    #[must_use]
    pub fn config_of(&self, nid: NodeId) -> Option<C> {
        self.servers
            .get(&nid)
            .map(|s| effective_config(&self.conf0, &s.log))
    }

    /// Ensures a server object exists for `nid` (new members join with an
    /// empty log and learn state through commit requests).
    fn ensure_server(&mut self, nid: NodeId) -> &mut Server<C, M> {
        self.servers.entry(nid).or_insert_with(Server::new)
    }

    /// Applies one event, returning what happened.
    ///
    /// Invalid deliveries and unauthorized local operations are no-ops with
    /// a reported reason, never errors: the scheduler is free to try
    /// anything, like a real network.
    pub fn step(&mut self, event: &NetEvent<C, M>) -> EventOutcome {
        match event {
            NetEvent::Elect { nid } => self.elect(*nid),
            NetEvent::Invoke { nid, method } => self.invoke(*nid, method.clone()),
            NetEvent::Reconfig { nid, config } => self.reconfig(*nid, config.clone()),
            NetEvent::Commit { nid } => self.commit(*nid),
            NetEvent::Deliver { msg, to } => self.deliver(*msg, *to),
            NetEvent::Crash { nid } => self.set_crashed(*nid, true),
            NetEvent::Recover { nid } => self.set_crashed(*nid, false),
        }
    }

    /// Crashes or recovers a replica. Crashing demotes a leader/candidate
    /// to follower (it will have lost its volatile election bookkeeping by
    /// the time it returns). The bare [`NetEvent::Recover`] keeps the
    /// benign-crash reading — `(time, log, commit_len)` intact — which is
    /// what the certified refinement and the untimed harness model; the
    /// simulation layer instead rebuilds those fields from a WAL replay
    /// and installs the result with [`Self::install_recovery`], so what
    /// actually survives a crash is decided by the storage policy and any
    /// injected disk faults.
    fn set_crashed(&mut self, nid: NodeId, crashed: bool) -> EventOutcome {
        let s = self.ensure_server(nid);
        if s.crashed == crashed {
            return EventOutcome::LocalNoOp;
        }
        s.crashed = crashed;
        if crashed {
            s.role = Role::Follower;
            s.votes.clear();
            s.acks.clear();
        }
        EventOutcome::Applied
    }

    /// Replays a whole trace from this state.
    pub fn replay(&mut self, trace: &[NetEvent<C, M>]) -> Vec<EventOutcome> {
        trace.iter().map(|ev| self.step(ev)).collect()
    }

    /// Installs the state a crashed replica's WAL replay reconstructed
    /// and brings the replica back up. This is the simulation's recovery
    /// path; unlike [`NetEvent::Recover`] it does not assume the
    /// pre-crash volatile state survived — the storage layer decides
    /// what did.
    ///
    /// The replica returns as a follower with cleared election
    /// bookkeeping and `commit_len` clamped to the recovered log.
    /// `abstaining` marks a replica that lost its entire WAL
    /// (`Recovery::DataLoss`): it no longer remembers which votes it
    /// granted, so it must never vote or campaign again. Abstention is
    /// permanent — once promises are forgotten, no later recovery can
    /// restore trust in them.
    pub fn install_recovery(
        &mut self,
        nid: NodeId,
        time: Timestamp,
        log: Log<C, M>,
        commit_len: usize,
        abstaining: bool,
    ) -> EventOutcome {
        let s = self.ensure_server(nid);
        s.time = time;
        // Recovery installs the watermark Wal::recover already certified
        // by frame replay — the guard lives in another crate (storage),
        // outside the call-graph reach L6 has from raft.
        s.commit_len = commit_len.min(log.len());
        s.log = log;
        s.role = Role::Follower;
        s.votes.clear();
        s.acks.clear();
        s.crashed = false;
        s.abstaining = s.abstaining || abstaining;
        EventOutcome::Applied
    }

    /// `elect(nid)`: become a candidate at a fresh term and broadcast
    /// election requests to the members of the candidate's configuration.
    ///
    /// A replica outside its own effective configuration does not campaign
    /// (it has been removed, or never added): the event is a no-op.
    fn elect(&mut self, nid: NodeId) -> EventOutcome {
        let conf0 = self.conf0.clone();
        {
            let s = self.ensure_server(nid);
            if s.crashed
                || s.abstaining
                || !effective_config(&conf0, &s.log).members().contains(&nid)
            {
                return EventOutcome::LocalNoOp;
            }
            s.time = s.time.next();
            s.role = Role::Candidate;
            s.votes = std::iter::once(nid).collect();
            s.acks.clear();
        }
        let s = &self.servers[&nid];
        let req = Request::Elect {
            from: nid,
            time: s.time,
            log: s.log.clone(),
        };
        self.messages.push(req);
        self.maybe_win(nid);
        EventOutcome::Applied
    }

    /// `invoke(nid, m)`: leaders append a method entry locally.
    fn invoke(&mut self, nid: NodeId, method: M) -> EventOutcome {
        let Some(s) = self.servers.get_mut(&nid) else {
            return EventOutcome::LocalNoOp;
        };
        if s.role != Role::Leader || s.crashed {
            return EventOutcome::LocalNoOp;
        }
        s.log.push(Entry {
            time: s.time,
            cmd: Command::Method(method),
        });
        EventOutcome::Applied
    }

    /// `reconfig(nid, cf)`: leaders append a config entry locally, subject
    /// to the guard's enabled subset of R1⁺/R2/R3 evaluated on the log.
    fn reconfig(&mut self, nid: NodeId, config: C) -> EventOutcome {
        let guard = self.guard;
        let conf0 = self.conf0.clone();
        let Some(s) = self.servers.get_mut(&nid) else {
            return EventOutcome::LocalNoOp;
        };
        if s.role != Role::Leader || s.crashed {
            return EventOutcome::LocalNoOp;
        }
        let current = effective_config(&conf0, &s.log);
        if guard.r1 && !current.r1_plus(&config) {
            return EventOutcome::LocalNoOp;
        }
        // R2: no uncommitted config entry in the log.
        if guard.r2
            && s.log[s.commit_len..]
                .iter()
                .any(|e| e.cmd.config().is_some())
        {
            return EventOutcome::LocalNoOp;
        }
        // R3: a committed entry with the current term.
        if guard.r3 && !s.log[..s.commit_len].iter().any(|e| e.time == s.time) {
            return EventOutcome::LocalNoOp;
        }
        s.log.push(Entry {
            time: s.time,
            cmd: Command::Config(config),
        });
        EventOutcome::Applied
    }

    /// `commit(nid)`: leaders broadcast their log for replication.
    ///
    /// Requires the log to end with an entry of the leader's own term
    /// (Raft's current-term commit rule); leaders in our workloads always
    /// invoke before committing.
    fn commit(&mut self, nid: NodeId) -> EventOutcome {
        let Some(s) = self.servers.get_mut(&nid) else {
            return EventOutcome::LocalNoOp;
        };
        if s.role != Role::Leader || s.crashed {
            return EventOutcome::LocalNoOp;
        }
        if s.log.last().map(|e| e.time) != Some(s.time) {
            return EventOutcome::LocalNoOp;
        }
        let time = s.time;
        let len = s.log.len();
        // The leader acknowledges its own log immediately.
        s.acks.entry(len).or_default().insert(nid);
        let req = Request::Commit {
            from: nid,
            time,
            log: s.log.clone(),
            commit_len: s.commit_len,
        };
        self.messages.push(req);
        self.maybe_advance_commit(nid, len);
        EventOutcome::Applied
    }

    /// [`NetEvent::Deliver`] gated by a reachability predicate over
    /// directed links: the delivery is rejected as
    /// [`Rejection::Unreachable`] — without touching the recipient — when
    /// the `sender → recipient` link is down, and the synchronous
    /// acknowledgement is suppressed when the reverse `recipient → sender`
    /// link is down (an asymmetric partition loses acks but not
    /// payloads).
    ///
    /// The message stays in the sent bag either way, so it can be
    /// re-delivered after the partition heals.
    pub fn deliver_via(
        &mut self,
        msg: MsgId,
        to: NodeId,
        reachable: &dyn Fn(NodeId, NodeId) -> bool,
    ) -> EventOutcome {
        let Some(req) = self.messages.get(msg.0 as usize) else {
            return EventOutcome::Rejected(Rejection::UnknownMessage);
        };
        let from = req.from();
        if !reachable(from, to) {
            return EventOutcome::Rejected(Rejection::Unreachable);
        }
        self.deliver_gated(msg, to, reachable(to, from))
    }

    /// `deliver(msg, to)`: the recipient validates and applies the request;
    /// the acknowledgement is processed by the sender synchronously.
    fn deliver(&mut self, msg: MsgId, to: NodeId) -> EventOutcome {
        self.deliver_gated(msg, to, true)
    }

    /// [`Self::deliver`] with the synchronous acknowledgement made
    /// conditional (`ack_ok`): bag lookup and crash check here, the
    /// per-node halves in [`Self::receive`] and `credit_*`.
    fn deliver_gated(&mut self, msg: MsgId, to: NodeId, ack_ok: bool) -> EventOutcome {
        let Some(req) = self.messages.get(msg.0 as usize).cloned() else {
            return EventOutcome::Rejected(Rejection::UnknownMessage);
        };
        if self.servers.get(&to).is_some_and(|s| s.crashed) {
            return EventOutcome::Rejected(Rejection::RecipientCrashed);
        }
        self.delivered.push((msg, to));
        self.receive(req, to, ack_ok)
    }

    /// The recipient half of a delivery: `to` validates `req` and adopts
    /// it. With `ack_ok` the sender — a server of this same state — is
    /// credited synchronously; a per-node driver passes `false` and
    /// carries the acknowledgement to the sender's own state as a
    /// message (`Applied` is the ack, [`Rejection::StaleTime`] the nack).
    /// The adoption applies either way: a wasted vote or ack still
    /// changed the recipient, so the request is NOT an ignorable message.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn receive(&mut self, req: Request<C, M>, to: NodeId, ack_ok: bool) -> EventOutcome {
        match req {
            Request::Elect { from, time, log } => {
                let recipient = self.ensure_server(to);
                if recipient.abstaining {
                    return EventOutcome::Rejected(Rejection::Abstaining);
                }
                if time <= recipient.time {
                    return EventOutcome::Rejected(Rejection::StaleTime);
                }
                if !log_up_to_date(&log, &recipient.log) {
                    return EventOutcome::Rejected(Rejection::OutdatedLog);
                }
                recipient.time = time;
                recipient.role = Role::Follower;
                if ack_ok {
                    self.credit_vote(from, to, time);
                }
                EventOutcome::Applied
            }
            Request::Commit {
                from,
                time,
                log,
                commit_len,
            } => {
                let recipient = self.ensure_server(to);
                if time < recipient.time {
                    return EventOutcome::Rejected(Rejection::StaleTime);
                }
                // The shipped log must be at least as up-to-date as the
                // local one (Raft's consistency check, specialized to
                // full-log shipping): a leader's earlier, shorter broadcast
                // arriving late must not truncate newer entries.
                if !log_up_to_date(&log, &recipient.log) {
                    return EventOutcome::Rejected(Rejection::OutdatedLog);
                }
                recipient.time = time;
                if from != to {
                    recipient.role = Role::Follower;
                }
                let len = log.len();
                recipient.log = log;
                recipient.commit_len = recipient.commit_len.max(commit_len.min(len));
                if ack_ok {
                    self.credit_ack(from, to, time, len);
                }
                EventOutcome::Applied
            }
        }
    }

    /// The sender half of an `Elect` delivery: candidate `from` counts
    /// `to`'s vote for term `time` unless it has moved on.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn credit_vote(&mut self, from: NodeId, to: NodeId, time: Timestamp) {
        let candidate = self.ensure_server(from);
        if !candidate.crashed && candidate.role == Role::Candidate && candidate.time == time {
            candidate.votes.insert(to);
            self.maybe_win(from);
        }
    }

    /// The sender half of a `Commit` delivery: leader `from` counts
    /// `to`'s acknowledgement of log length `len` at term `time` unless
    /// it has moved on.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn credit_ack(&mut self, from: NodeId, to: NodeId, time: Timestamp, len: usize) {
        let leader = self.ensure_server(from);
        if !leader.crashed && leader.role == Role::Leader && leader.time == time {
            leader.acks.entry(len).or_default().insert(to);
            self.maybe_advance_commit(from, len);
        }
    }

    /// Not an event of the model: `nid` learns of a higher term from a
    /// reified [`Rejection::StaleTime`] and retires to follower. It is
    /// the term half of an `Elect` adoption with no vote granted, so the
    /// observed time stays monotone and nothing else moves.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn adopt_term(&mut self, nid: NodeId, time: Timestamp) -> EventOutcome {
        let Some(s) = self.servers.get_mut(&nid) else {
            return EventOutcome::LocalNoOp;
        };
        if s.crashed || time <= s.time {
            return EventOutcome::LocalNoOp;
        }
        s.time = time;
        s.role = Role::Follower;
        EventOutcome::Applied
    }

    /// Not an event of the model: hands the sent bag to a driver that
    /// carries requests itself, leaving the bag empty (ids restart at 0).
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn take_sent(&mut self) -> Vec<Request<C, M>> {
        std::mem::take(&mut self.messages)
    }

    /// Not an event of the model: drops `nid`'s ack sets for lengths at
    /// or below its watermark. They can never be consulted again —
    /// [`Self::maybe_advance_commit`] requires `len > commit_len` — so a
    /// long-lived leader calls this instead of keeping one set per log
    /// length forever.
    pub fn forget_settled_acks(&mut self, nid: NodeId) {
        if let Some(s) = self.servers.get_mut(&nid) {
            let settled = s.commit_len;
            s.acks.retain(|len, _| *len > settled);
        }
    }

    /// Promotes a candidate with a quorum of votes (per its own effective
    /// configuration) to leader.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn maybe_win(&mut self, nid: NodeId) {
        let conf0 = self.conf0.clone();
        let Some(s) = self.servers.get_mut(&nid) else {
            return;
        };
        if s.role != Role::Candidate {
            return;
        }
        let config = effective_config(&conf0, &s.log);
        adore_core::telemetry::count_quorum_check();
        if config.is_quorum(&s.votes) {
            s.role = Role::Leader;
        }
    }

    /// Advances the leader's commit index if a quorum (per the
    /// configuration effective at the acked prefix) acknowledged `len`.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn maybe_advance_commit(&mut self, nid: NodeId, len: usize) {
        let conf0 = self.conf0.clone();
        let Some(s) = self.servers.get_mut(&nid) else {
            return;
        };
        if s.role != Role::Leader {
            return;
        }
        let Some(ackers) = s.acks.get(&len) else {
            return;
        };
        let acked_prefix = s.log.get(..len.min(s.log.len())).unwrap_or(&[]);
        let config = effective_config(&conf0, acked_prefix);
        adore_core::telemetry::count_quorum_check();
        if config.is_quorum(ackers) && len > s.commit_len {
            s.commit_len = len;
        }
    }

    /// The `ℝ_net` projection (Fig. 18): each server's log, observed time,
    /// and commit length. Two runs are network-equivalent when these agree
    /// for every server.
    ///
    /// Pristine servers — never elected, never voted, empty log, not
    /// crashed — are omitted: they are observationally indistinguishable
    /// from servers that were never instantiated (a no-op event may still
    /// materialize a server object as an implementation detail).
    #[must_use]
    pub fn net_relation(&self) -> BTreeMap<NodeId, (Timestamp, Log<C, M>, usize)> {
        self.servers
            .iter()
            .filter(|(_, s)| {
                s.time != Timestamp(0) || !s.log.is_empty() || s.commit_len != 0 || s.crashed
            })
            .map(|(nid, s)| (*nid, (s.time, s.log.clone(), s.commit_len)))
            .collect()
    }

    /// The committed prefix agreed by the cluster: the longest committed
    /// prefix of any server (used by safety checks and the KV store).
    ///
    /// `commit_len` is clamped to the log length: in diverging runs under
    /// a flawed guard, a server can adopt a newer-but-shorter log over
    /// entries it had committed, leaving `commit_len` dangling past the
    /// end. [`Self::check_log_safety`] reports that state as a violation;
    /// this accessor must still be total so the checker can run at all.
    #[must_use]
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn committed_prefix(&self) -> &[Entry<C, M>] {
        let Some(best) = self
            .servers
            .values()
            .max_by_key(|s| s.commit_len.min(s.log.len()))
        else {
            return &[]; // no servers yet: nothing is committed
        };
        best.log.get(..best.commit_len.min(best.log.len())).unwrap_or(&[])
    }

    /// Checks replicated state safety at the network level: every pair of
    /// committed prefixes must agree slot-by-slot.
    ///
    /// # Errors
    ///
    /// Returns the two servers whose committed prefixes disagree. A server
    /// whose `commit_len` exceeds its log length — committed entries were
    /// overwritten by an adopted log, which only a flawed guard permits —
    /// disagrees with its own history and is reported against itself.
    pub fn check_log_safety(&self) -> Result<(), (NodeId, NodeId)> {
        let ids: Vec<NodeId> = self.servers.keys().copied().collect();
        for &a in &ids {
            if self.servers[&a].commit_len > self.servers[&a].log.len() {
                return Err((a, a));
            }
        }
        for (i, &a) in ids.iter().enumerate() {
            for &b in &ids[i + 1..] {
                let sa = &self.servers[&a];
                let sb = &self.servers[&b];
                let common = sa.commit_len.min(sb.commit_len);
                if sa.log[..common] != sb.log[..common] {
                    return Err((a, b));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adore_schemes::SingleNode;

    type St = NetState<SingleNode, &'static str>;

    fn three() -> St {
        NetState::new(SingleNode::new([1, 2, 3]), ReconfigGuard::all())
    }

    fn ev_elect(nid: u32) -> NetEvent<SingleNode, &'static str> {
        NetEvent::Elect { nid: NodeId(nid) }
    }

    fn ev_deliver(msg: u32, to: u32) -> NetEvent<SingleNode, &'static str> {
        NetEvent::Deliver {
            msg: MsgId(msg),
            to: NodeId(to),
        }
    }

    #[test]
    fn election_needs_a_quorum_of_votes() {
        let mut st = three();
        st.step(&ev_elect(1));
        assert_eq!(st.server(NodeId(1)).unwrap().role, Role::Candidate);
        st.step(&ev_deliver(0, 2));
        assert_eq!(st.server(NodeId(1)).unwrap().role, Role::Leader);
    }

    #[test]
    fn stale_election_requests_are_rejected() {
        let mut st = three();
        st.step(&ev_elect(1)); // m0 at t1
        st.step(&ev_elect(2)); // m1 at t1 (S2's own term bump)
        st.step(&ev_deliver(1, 3)); // S3 votes for S2 at t1
                                    // S1's t1 request arrives at S3 after it voted at t1: stale.
        let out = st.step(&ev_deliver(0, 3));
        assert_eq!(out, EventOutcome::Rejected(Rejection::StaleTime));
    }

    #[test]
    fn voters_reject_outdated_candidate_logs() {
        let mut st = three();
        // S1 leads and replicates one entry to everyone.
        st.step(&ev_elect(1));
        st.step(&ev_deliver(0, 2));
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "a",
        });
        st.step(&NetEvent::Commit { nid: NodeId(1) });
        st.step(&ev_deliver(1, 2));
        st.step(&ev_deliver(1, 3));
        // S3 now has one entry; S2 starts a candidacy... with that entry
        // too, fine. Wipe the scenario: a fresh node S2 candidacy is fine;
        // instead check a candidate with an EMPTY log is rejected by S3.
        // S2 also has the entry, so use a hypothetical: deliver S1's OLD
        // election request (empty log, t1) to S3 — stale time AND outdated.
        let out = st.step(&ev_deliver(0, 3));
        assert_eq!(out, EventOutcome::Rejected(Rejection::StaleTime));
    }

    #[test]
    fn commit_replicates_and_advances_commit_len() {
        let mut st = three();
        st.step(&ev_elect(1));
        st.step(&ev_deliver(0, 2));
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "a",
        });
        let out = st.step(&NetEvent::Commit { nid: NodeId(1) });
        assert_eq!(out, EventOutcome::Applied);
        // Leader alone is not a quorum of three.
        assert_eq!(st.server(NodeId(1)).unwrap().commit_len, 0);
        st.step(&ev_deliver(1, 3));
        assert_eq!(st.server(NodeId(1)).unwrap().commit_len, 1);
        assert_eq!(st.server(NodeId(3)).unwrap().log.len(), 1);
        assert_eq!(st.committed_prefix().len(), 1);
        st.check_log_safety().unwrap();
    }

    #[test]
    fn non_leaders_cannot_invoke_or_commit() {
        let mut st = three();
        assert_eq!(
            st.step(&NetEvent::Invoke {
                nid: NodeId(1),
                method: "a"
            }),
            EventOutcome::LocalNoOp
        );
        assert_eq!(
            st.step(&NetEvent::Commit { nid: NodeId(1) }),
            EventOutcome::LocalNoOp
        );
    }

    #[test]
    fn reconfig_guards_apply_at_the_log_level() {
        let mut st = three();
        st.step(&ev_elect(1));
        st.step(&ev_deliver(0, 2));
        // R3: no committed entry at the current term yet.
        assert_eq!(
            st.step(&NetEvent::Reconfig {
                nid: NodeId(1),
                config: SingleNode::new([1, 2, 3, 4]),
            }),
            EventOutcome::LocalNoOp
        );
        // Commit a method at this term, then reconfigure.
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "a",
        });
        st.step(&NetEvent::Commit { nid: NodeId(1) });
        st.step(&ev_deliver(1, 2));
        assert_eq!(
            st.step(&NetEvent::Reconfig {
                nid: NodeId(1),
                config: SingleNode::new([1, 2, 3, 4]),
            }),
            EventOutcome::Applied
        );
        // R2 blocks a second, stacked reconfiguration.
        assert_eq!(
            st.step(&NetEvent::Reconfig {
                nid: NodeId(1),
                config: SingleNode::new([1, 2, 3, 4, 5]),
            }),
            EventOutcome::LocalNoOp
        );
        // R1 blocks multi-node jumps even after committing.
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "b",
        });
        st.step(&NetEvent::Commit { nid: NodeId(1) });
        st.step(&ev_deliver(2, 2));
        st.step(&ev_deliver(2, 3));
        assert_eq!(
            st.step(&NetEvent::Reconfig {
                nid: NodeId(1),
                config: SingleNode::new([1]),
            }),
            EventOutcome::LocalNoOp
        );
    }

    #[test]
    fn new_members_join_via_commit_requests() {
        let mut st = three();
        st.step(&ev_elect(1));
        st.step(&ev_deliver(0, 2));
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "a",
        });
        st.step(&NetEvent::Commit { nid: NodeId(1) });
        st.step(&ev_deliver(1, 2));
        // Add S4; it learns the log from the next commit broadcast.
        st.step(&NetEvent::Reconfig {
            nid: NodeId(1),
            config: SingleNode::new([1, 2, 3, 4]),
        });
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "b",
        });
        st.step(&NetEvent::Commit { nid: NodeId(1) });
        let msg = MsgId(st.messages().len() as u32 - 1);
        st.step(&NetEvent::Deliver { msg, to: NodeId(4) });
        assert_eq!(st.server(NodeId(4)).unwrap().log.len(), 3);
        st.check_log_safety().unwrap();
    }

    #[test]
    fn fig4_bug_reproduces_at_the_network_level() {
        // The flawed single-server algorithm (no R3) loses committed data
        // under the Fig. 4 schedule, at the network level this time.
        let mut st: St = NetState::new(
            SingleNode::new([1, 2, 3, 4]),
            ReconfigGuard::all().without_r3(),
        );
        // S1 leads with votes from S2, S3.
        st.step(&ev_elect(1)); // m0
        st.step(&ev_deliver(0, 2));
        st.step(&ev_deliver(0, 3));
        assert_eq!(st.server(NodeId(1)).unwrap().role, Role::Leader);
        // S1 proposes removing S4 but never replicates it.
        assert!(st
            .step(&NetEvent::Reconfig {
                nid: NodeId(1),
                config: SingleNode::new([1, 2, 3]),
            })
            .applied());
        // S2 is elected with S3 and S4.
        st.step(&ev_elect(2)); // m1
        st.step(&ev_deliver(1, 3));
        st.step(&ev_deliver(1, 4));
        assert_eq!(st.server(NodeId(2)).unwrap().role, Role::Leader);
        // S2 removes S3; its new config {1,2,4} commits once S4 acks.
        assert!(st
            .step(&NetEvent::Reconfig {
                nid: NodeId(2),
                config: SingleNode::new([1, 2, 4]),
            })
            .applied());
        st.step(&NetEvent::Commit { nid: NodeId(2) }); // m2
        st.step(&ev_deliver(2, 4));
        assert_eq!(st.server(NodeId(2)).unwrap().commit_len, 1);
        // S1 is re-elected with S3 using its own config {1,2,3}.
        st.step(&ev_elect(1)); // m3 at t3... S1's time is 1 -> t2? S3 is at t2.
                               // S1's new term is 2, but S3 already voted at t2; elect again to t3.
        st.step(&ev_elect(1)); // m4 at t3
        st.step(&ev_deliver(4, 3));
        assert_eq!(st.server(NodeId(1)).unwrap().role, Role::Leader);
        // S1 commits its own entry, overwriting S2's committed reconfig.
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "overwrite",
        });
        st.step(&NetEvent::Commit { nid: NodeId(1) }); // m5
        st.step(&ev_deliver(5, 3));
        assert!(st.server(NodeId(1)).unwrap().commit_len >= 1);
        // Committed prefixes now disagree: S1/S3 vs S2/S4.
        assert!(st.check_log_safety().is_err());
    }

    #[test]
    fn partitioned_links_reject_deliveries_without_side_effects() {
        let mut st = three();
        st.step(&ev_elect(1)); // m0 at t1
        let down = |from: NodeId, to: NodeId| !(from == NodeId(1) && to == NodeId(2));
        let out = st.deliver_via(MsgId(0), NodeId(2), &down);
        assert_eq!(out, EventOutcome::Rejected(Rejection::Unreachable));
        // The recipient was never touched, and the vote was not counted.
        assert_eq!(st.server(NodeId(2)).map(|s| s.time), Some(Timestamp(0)));
        assert_eq!(st.server(NodeId(1)).unwrap().role, Role::Candidate);
        // The message survives in the sent bag: after the heal, the same
        // delivery applies.
        let up = |_: NodeId, _: NodeId| true;
        assert_eq!(st.deliver_via(MsgId(0), NodeId(2), &up), EventOutcome::Applied);
        assert_eq!(st.server(NodeId(1)).unwrap().role, Role::Leader);
    }

    #[test]
    fn asymmetric_cut_loses_the_ack_but_not_the_payload() {
        let mut st = three();
        st.step(&ev_elect(1)); // m0 at t1
        st.step(&ev_deliver(0, 2)); // S1 leads
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "a",
        });
        st.step(&NetEvent::Commit { nid: NodeId(1) }); // m1
        // The return path S2 -> S1 is cut: S2 adopts the log, S1 never
        // hears the ack, so nothing commits.
        let ack_cut = |from: NodeId, to: NodeId| !(from == NodeId(2) && to == NodeId(1));
        assert_eq!(
            st.deliver_via(MsgId(1), NodeId(2), &ack_cut),
            EventOutcome::Applied
        );
        assert_eq!(st.server(NodeId(2)).unwrap().log.len(), 1);
        assert_eq!(st.server(NodeId(1)).unwrap().commit_len, 0);
        // Re-delivery after the heal completes the round.
        let up = |_: NodeId, _: NodeId| true;
        assert_eq!(st.deliver_via(MsgId(1), NodeId(2), &up), EventOutcome::Applied);
        assert_eq!(st.server(NodeId(1)).unwrap().commit_len, 1);
    }

    #[test]
    fn net_relation_projects_logs_and_times() {
        let mut st = three();
        st.step(&ev_elect(1));
        st.step(&ev_deliver(0, 2));
        let rel = st.net_relation();
        assert_eq!(rel[&NodeId(1)].0, Timestamp(1));
        assert_eq!(rel[&NodeId(2)].0, Timestamp(1));
        // S3 never acted: pristine servers are omitted from the projection.
        assert!(!rel.contains_key(&NodeId(3)));
    }

    #[test]
    fn install_recovery_clamps_the_watermark_and_resets_the_role() {
        let mut st = three();
        st.step(&ev_elect(1));
        st.step(&ev_deliver(0, 2)); // S1 leads at t1
        st.step(&NetEvent::Crash { nid: NodeId(1) });
        // The WAL replay came back with a shorter log and a commit
        // record that outlived the entries it covered.
        let log = vec![Entry {
            time: Timestamp(1),
            cmd: Command::Method("a"),
        }];
        let out = st.install_recovery(NodeId(1), Timestamp(1), log, 7, false);
        assert_eq!(out, EventOutcome::Applied);
        let s = st.server(NodeId(1)).unwrap();
        assert!(!s.crashed);
        assert!(!s.abstaining);
        assert_eq!(s.role, Role::Follower);
        assert_eq!(s.log.len(), 1);
        assert_eq!(s.commit_len, 1, "watermark clamped to the recovered log");
        assert!(s.votes.is_empty() && s.acks.is_empty());
    }

    #[test]
    fn abstaining_replicas_never_vote_or_campaign_but_still_replicate() {
        let mut st = three();
        // S3 lost its WAL entirely and rejoined without voting rights.
        st.install_recovery(NodeId(3), Timestamp::ZERO, Vec::new(), 0, true);
        st.step(&ev_elect(1)); // m0 at t1
        assert_eq!(
            st.step(&ev_deliver(0, 3)),
            EventOutcome::Rejected(Rejection::Abstaining)
        );
        assert_eq!(st.server(NodeId(3)).unwrap().time, Timestamp::ZERO);
        // It cannot campaign either.
        assert_eq!(st.step(&ev_elect(3)), EventOutcome::LocalNoOp);
        // A real voter still gets S1 elected, and the abstainer adopts
        // the replicated log and acks it like any follower.
        st.step(&ev_deliver(0, 2));
        st.step(&NetEvent::Invoke {
            nid: NodeId(1),
            method: "a",
        });
        st.step(&NetEvent::Commit { nid: NodeId(1) }); // m1
        assert_eq!(st.step(&ev_deliver(1, 3)), EventOutcome::Applied);
        let s3 = st.server(NodeId(3)).unwrap();
        assert_eq!(s3.log.len(), 1);
        assert!(s3.abstaining, "replication does not restore voting rights");
        let s3_log = s3.log.clone();
        // Abstention survives a later, intact recovery.
        st.step(&NetEvent::Crash { nid: NodeId(3) });
        st.install_recovery(NodeId(3), Timestamp(1), s3_log, 1, false);
        assert!(st.server(NodeId(3)).unwrap().abstaining);
    }
}
