//! Shared protocol types: log entries, commands, messages, and events.

use serde::{Deserialize, Serialize};

use adore_core::{Configuration, NodeId, Timestamp};

/// A replicated command: an application method or a configuration change.
///
/// Configuration entries take effect **immediately upon entering a log**
/// ("hot" reconfiguration), before being committed.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Command<C, M> {
    /// An opaque application method.
    Method(M),
    /// A new configuration.
    Config(C),
}

impl<C, M> Command<C, M> {
    /// The configuration carried, if this is a config command.
    #[must_use]
    pub fn config(&self) -> Option<&C> {
        match self {
            Command::Config(c) => Some(c),
            Command::Method(_) => None,
        }
    }
}

/// One slot of a replica's local log (Fig. 13's
/// `List(N_time * Method * Config)` with the command folded into a sum).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Entry<C, M> {
    /// The leader term under which the entry was created.
    pub time: Timestamp,
    /// The replicated command.
    pub cmd: Command<C, M>,
}

/// A replica's local log.
pub type Log<C, M> = Vec<Entry<C, M>>;

/// The configuration in effect at the end of `log`, starting from `conf0`:
/// the last config entry wins, immediately (the hot-reconfiguration rule).
///
/// # Examples
///
/// ```
/// use adore_core::Timestamp;
/// use adore_raft::{effective_config, Command, Entry};
/// use adore_schemes::SingleNode;
///
/// let conf0 = SingleNode::new([1, 2, 3]);
/// let log = vec![Entry {
///     time: Timestamp(1),
///     cmd: Command::<SingleNode, &str>::Config(SingleNode::new([1, 2])),
/// }];
/// assert_eq!(effective_config(&conf0, &log), SingleNode::new([1, 2]));
/// assert_eq!(effective_config(&conf0, &log[..0]), conf0);
/// ```
#[must_use]
pub fn effective_config<C: Configuration, M>(conf0: &C, log: &[Entry<C, M>]) -> C {
    log.iter()
        .rev()
        .find_map(|e| e.cmd.config())
        .cloned()
        .unwrap_or_else(|| conf0.clone())
}

/// Whether a candidate's log is at least as up-to-date as a voter's:
/// compare the last entries' timestamps, then the lengths (Appendix A).
///
/// # Examples
///
/// ```
/// use adore_core::Timestamp;
/// use adore_raft::{log_up_to_date, Command, Entry};
/// use adore_schemes::SingleNode;
///
/// type E = Entry<SingleNode, &'static str>;
/// let old = vec![E { time: Timestamp(1), cmd: Command::Method("a") }];
/// let new = vec![E { time: Timestamp(2), cmd: Command::Method("b") }];
/// assert!(log_up_to_date(&new, &old));
/// assert!(!log_up_to_date(&old, &new));
/// assert!(log_up_to_date(&old, &old));
/// ```
#[must_use]
pub fn log_up_to_date<C, M>(candidate: &[Entry<C, M>], voter: &[Entry<C, M>]) -> bool {
    log_key(candidate) >= log_key(voter)
}

/// The up-to-dateness key of a log: its last entry's timestamp, then its
/// length. [`log_up_to_date`] compares these.
#[must_use]
pub(crate) fn log_key<C, M>(log: &[Entry<C, M>]) -> (Timestamp, usize) {
    (log.last().map_or(Timestamp(0), |e| e.time), log.len())
}

/// Identifier of a broadcast request in a run's message table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MsgId(pub u32);

impl std::fmt::Display for MsgId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "m{}", self.0)
    }
}

/// A broadcast request (Fig. 13's `Msg`, request side).
///
/// Acknowledgements are modeled as the synchronous return half of a
/// delivery (see the crate docs for the justification), so only requests
/// appear in the network.
///
/// # The `prev_len` contract
///
/// A request stands for the sender's log `L`, and ships `log = L[prev_len..]`:
/// the recipient's own `log[..prev_len]` stands for the unshipped prefix.
/// The model — everything [`crate::NetState`] emits, explores and
/// refines — always sets `prev_len: 0`, so every request it knows ships
/// its whole log, as in the paper. A driver that ships less owns the
/// obligation that the stand-in is exact:
///
/// - a `Commit` with `prev_len > 0` may be handed to
///   [`crate::NetState::receive`] only when the recipient's
///   `log[..prev_len]` equals the sender's. The `adored` engine discharges
///   this with a volatile `source: (leader, term)` that only adopting a
///   `Commit` from that leader at that term sets and every other log
///   change or restart clears: a leader's log is append-only while it
///   leads a term, so a log last set by that leader at that term is a
///   prefix of every log it later ships in it, under any guard;
/// - an `Elect` is judged only on its last entry and its length
///   (`prev_len + log.len()`), so a candidate may ship its last entry
///   alone.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Request<C, M> {
    /// An election request carrying the candidate's log for the
    /// up-to-dateness check.
    Elect {
        /// The candidate.
        from: NodeId,
        /// The candidate's new term.
        time: Timestamp,
        /// Length of the unshipped prefix (see the type docs; 0 in the
        /// model).
        prev_len: usize,
        /// The candidate's log at broadcast time, from `prev_len` on.
        log: Log<C, M>,
    },
    /// A commit (log replication) request carrying the leader's log.
    Commit {
        /// The leader.
        from: NodeId,
        /// The leader's term.
        time: Timestamp,
        /// Length of the unshipped prefix (see the type docs; 0 in the
        /// model).
        prev_len: usize,
        /// The leader's log at broadcast time, from `prev_len` on.
        log: Log<C, M>,
        /// The leader's commit index at broadcast time.
        commit_len: usize,
    },
}

impl<C, M> Request<C, M> {
    /// The sender of the request.
    #[must_use]
    pub fn from(&self) -> NodeId {
        match self {
            Request::Elect { from, .. } | Request::Commit { from, .. } => *from,
        }
    }

    /// The logical timestamp of the request.
    #[must_use]
    pub fn time(&self) -> Timestamp {
        match self {
            Request::Elect { time, .. } | Request::Commit { time, .. } => *time,
        }
    }

    /// The length of the log the request stands for, `prev_len` plus the
    /// shipped entries (its "version": later requests of one leader stand
    /// for longer logs).
    #[must_use]
    pub fn log_len(&self) -> usize {
        match self {
            Request::Elect { prev_len, log, .. } | Request::Commit { prev_len, log, .. } => {
                prev_len + log.len()
            }
        }
    }

    /// Rank used for global ordering: elections sort before commits at the
    /// same timestamp (a leader's commits follow its election).
    #[must_use]
    pub fn kind_rank(&self) -> u8 {
        match self {
            Request::Elect { .. } => 0,
            Request::Commit { .. } => 1,
        }
    }

    /// A short machine-readable name for the request kind, used by the
    /// observability layer to label message events.
    #[must_use]
    pub fn kind_name(&self) -> &'static str {
        match self {
            Request::Elect { .. } => "elect",
            Request::Commit { .. } => "commit",
        }
    }
}

/// A schedulable event of the network-based model (`Op_net`, Fig. 13).
///
/// `Deliver` names a request by id and a recipient; all other events are
/// local to one replica. A trace is a `Vec<NetEvent>` replayed by
/// [`crate::NetState::replay`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetEvent<C, M> {
    /// `elect(nid)`: start a candidacy and broadcast election requests.
    Elect {
        /// The candidate.
        nid: NodeId,
    },
    /// `invoke(nid, m)`: leader-local log append of a method.
    Invoke {
        /// The leader.
        nid: NodeId,
        /// The method.
        method: M,
    },
    /// `reconfig(nid, cf)`: leader-local log append of a configuration.
    Reconfig {
        /// The leader.
        nid: NodeId,
        /// The new configuration.
        config: C,
    },
    /// `commit(nid)`: broadcast commit requests with the leader's log.
    Commit {
        /// The leader.
        nid: NodeId,
    },
    /// `deliver(msg, to)`: deliver request `msg` to replica `to`.
    Deliver {
        /// The request being delivered.
        msg: MsgId,
        /// The recipient.
        to: NodeId,
    },
    /// A crash: the replica stops sending and receiving until it
    /// recovers. At this level the crash is benign — what actually
    /// survives it is the storage layer's business: the simulation
    /// journals every state change to a write-ahead log and rebuilds
    /// the replica from a replay, under injectable disk faults
    /// (lost unsynced tail, torn record, bit-flip corruption, total
    /// media loss).
    Crash {
        /// The crashing replica.
        nid: NodeId,
    },
    /// Recovery from a crash. As a bare network event this assumes the
    /// pre-crash state intact (the benign-crash reading used by the
    /// certified refinement); the simulation instead installs whatever
    /// the WAL replay reconstructed via `NetState::install_recovery`.
    Recover {
        /// The recovering replica.
        nid: NodeId,
    },
}

impl<C, M> NetEvent<C, M> {
    /// The replicas whose local state this event can touch (used by the
    /// commutation argument in trace normalization): local events touch
    /// their caller; a delivery touches the recipient *and* the sender
    /// (through the synchronous acknowledgement).
    #[must_use]
    pub fn touches(&self, sender_of: impl Fn(MsgId) -> NodeId) -> Vec<NodeId> {
        match self {
            NetEvent::Elect { nid }
            | NetEvent::Invoke { nid, .. }
            | NetEvent::Reconfig { nid, .. }
            | NetEvent::Commit { nid }
            | NetEvent::Crash { nid }
            | NetEvent::Recover { nid } => vec![*nid],
            NetEvent::Deliver { msg, to } => {
                let from = sender_of(*msg);
                if from == *to {
                    vec![*to]
                } else {
                    vec![*to, from]
                }
            }
        }
    }
}
