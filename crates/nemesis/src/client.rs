//! A fault-tolerant client driver with a linearizability ghost.
//!
//! [`RobustClient`] is what a production client library does in front of a
//! flaky replicated store: per-request timeouts (bounded retransmission
//! patience), capped exponential backoff with seeded jitter, and
//! leader-redirect retry after elections. Every operation is recorded in a
//! history, and a *ghost state* tracks what an acknowledged write obliges
//! the cluster to return — the basis for the engine's
//! read-your-committed-writes check.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use adore_kv::det::msg::ClientMsg;
use adore_kv::{Cluster, ClusterError};

/// Heartbeat periods granted to one attempt before it times out (the
/// per-request timeout; heartbeats are the engines' retransmission).
const REQUEST_ROUNDS: u32 = 4;
/// Attempts per operation (1 = no retry).
const MAX_ATTEMPTS: u32 = 4;
/// Base backoff before the second attempt, in virtual microseconds.
const BACKOFF_BASE_US: u64 = 800;
/// Backoff growth cap, in virtual microseconds.
const BACKOFF_CAP_US: u64 = 12_000;

/// The terminal outcome of one client operation (after retries).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpOutcome {
    /// Committed and acknowledged within the attempt budget.
    Acked {
        /// End-to-end latency in virtual microseconds (all attempts).
        latency_us: u64,
    },
    /// Every attempt exhausted its round budget without a commit.
    TimedOut,
    /// No leader could be found to submit to.
    NoLeader,
    /// The protocol rejected the operation.
    Rejected,
}

impl OpOutcome {
    /// A short machine-readable name for the outcome, used by the
    /// observability layer to label client-operation trace events.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            OpOutcome::Acked { .. } => "acked",
            OpOutcome::TimedOut => "timed-out",
            OpOutcome::NoLeader => "no-leader",
            OpOutcome::Rejected => "rejected",
        }
    }
}

/// One entry of the recorded operation history.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OpRecord {
    /// The written key.
    pub key: String,
    /// The written value.
    pub value: String,
    /// What happened.
    pub outcome: OpOutcome,
    /// Virtual time at which the operation completed (or gave up).
    pub at_us: u64,
}

/// A safety violation observed by the client-side checks.
#[must_use]
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ViolationKind {
    /// Two servers' committed prefixes disagree (`check_log_safety`).
    LogDivergence {
        /// One offending server.
        a: u32,
        /// The other offending server.
        b: u32,
    },
    /// An acknowledged write is absent from the committed store.
    LostWrite {
        /// The written key.
        key: String,
        /// The acknowledged value that vanished.
        value: String,
    },
    /// The committed store returns a value the acknowledgement history
    /// cannot explain.
    StaleRead {
        /// The read key.
        key: String,
        /// The last acknowledged value.
        expected: String,
        /// What the committed store actually holds.
        got: String,
    },
    /// The committed store holds a value this client never wrote.
    PhantomWrite {
        /// The key.
        key: String,
        /// The inexplicable value.
        got: String,
    },
    /// A replica acknowledged state (a vote, an entry, a commit) that its
    /// synced WAL prefix does not justify — the sync-before-ack
    /// discipline was violated (storage certification).
    AckNotDurable {
        /// The offending replica.
        nid: u32,
    },
    /// A replica recovered to a state that is not the replay of its
    /// synced WAL — recovery invented or reordered history (storage
    /// certification).
    UnfaithfulRecovery {
        /// The offending replica.
        nid: u32,
    },
}

impl ViolationKind {
    /// The violation's variant name, used by the observability layer to
    /// label verdict events: the trace auditor keys its
    /// verdict-consistency rule on these tags.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            ViolationKind::LogDivergence { .. } => "LogDivergence",
            ViolationKind::LostWrite { .. } => "LostWrite",
            ViolationKind::StaleRead { .. } => "StaleRead",
            ViolationKind::PhantomWrite { .. } => "PhantomWrite",
            ViolationKind::AckNotDurable { .. } => "AckNotDurable",
            ViolationKind::UnfaithfulRecovery { .. } => "UnfaithfulRecovery",
        }
    }
}

impl std::fmt::Display for ViolationKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ViolationKind::LogDivergence { a, b } if a == b => {
                write!(f, "committed entries of S{a} were overwritten")
            }
            ViolationKind::LogDivergence { a, b } => {
                write!(f, "committed prefixes of S{a} and S{b} diverge")
            }
            ViolationKind::LostWrite { key, value } => {
                write!(f, "acknowledged write {key}={value} lost")
            }
            ViolationKind::StaleRead { key, expected, got } => {
                write!(f, "read {key}: expected {expected}, got {got}")
            }
            ViolationKind::PhantomWrite { key, got } => {
                write!(f, "read {key}: phantom value {got}")
            }
            ViolationKind::AckNotDurable { nid } => {
                write!(f, "S{nid} acknowledged state its synced WAL does not hold")
            }
            ViolationKind::UnfaithfulRecovery { nid } => {
                write!(f, "S{nid} recovered to a state its WAL replay cannot produce")
            }
        }
    }
}

/// What one key's history obliges the committed store to return.
#[derive(Debug, Clone, Default)]
struct GhostKey {
    /// The last acknowledged value, if any.
    acked: Option<String>,
    /// Values written after the last acknowledgement whose fate is
    /// unknown (timed out or rejected mid-flight); any of them may
    /// legally surface.
    in_doubt: Vec<String>,
}

/// The retrying, redirecting client driver.
#[derive(Debug)]
pub struct RobustClient {
    rng: StdRng,
    ghost: BTreeMap<String, GhostKey>,
    /// This client's session id, embedded in every submitted write.
    client_id: u64,
    /// The next request sequence number. Allocated **once per
    /// operation**, before the first attempt, and reused verbatim by
    /// every retry — the client half of the exactly-once contract.
    next_seq: u64,
    /// Every completed operation, in order.
    pub history: Vec<OpRecord>,
}

impl RobustClient {
    /// Creates a client with its own jitter stream derived from `seed`.
    /// The seed doubles as the client's session id, kept off the two the
    /// engine and the simulator reserve: 0 (the no-op barrier's) and
    /// `u64::MAX` (the simulator's own session).
    #[must_use]
    pub fn new(seed: u64) -> Self {
        RobustClient {
            rng: StdRng::seed_from_u64(seed ^ 0xc11e_4475),
            ghost: BTreeMap::new(),
            client_id: seed.clamp(1, u64::MAX - 1),
            next_seq: 1,
            history: Vec::new(),
        }
    }

    /// Capped exponential backoff with seeded jitter, spent as idle
    /// virtual time (the network keeps draining meanwhile).
    fn backoff(&mut self, cluster: &mut Cluster, attempt: u32) {
        let exp = BACKOFF_BASE_US
            .saturating_mul(1 << attempt.min(10))
            .min(BACKOFF_CAP_US);
        let jitter = self.rng.gen_range(0..=exp / 4);
        cluster.run_idle(exp + jitter);
    }

    /// Writes `key = value` with timeout, backoff, and leader-redirect
    /// retry; records the operation and updates the ghost state.
    pub fn put(
        &mut self,
        cluster: &mut Cluster,
        key: &str,
        value: &str,
    ) -> OpOutcome {
        let start = cluster.now_us();
        // The exactly-once discipline: one sequence number per logical
        // operation, shared by all of its retries. A retry of a write
        // whose first attempt stalled in some leader's log is then
        // recognized by that leader's session table and acknowledged
        // once it commits, never appended a second time.
        let seq = self.next_seq;
        self.next_seq += 1;
        let mut last = OpOutcome::NoLeader;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.backoff(cluster, attempt - 1);
            }
            if cluster.leader().is_none() && cluster.adopt_leader().is_none() {
                last = OpOutcome::NoLeader;
                continue;
            }
            let put = ClientMsg::Put {
                client: self.client_id,
                seq,
                key: key.to_string(),
                value: value.to_string(),
            };
            match cluster.request(put, REQUEST_ROUNDS) {
                Ok(_) => {
                    let ghost = self.ghost.entry(key.to_string()).or_default();
                    ghost.acked = Some(value.to_string());
                    ghost.in_doubt.clear();
                    last = OpOutcome::Acked {
                        latency_us: cluster.now_us() - start,
                    };
                    break;
                }
                Err(ClusterError::NoLeader) => {
                    cluster.adopt_leader();
                    last = OpOutcome::NoLeader;
                }
                Err(ClusterError::Stalled) => {
                    // The entry sits in some leader's log with an unknown
                    // fate; it may commit behind our back.
                    self.note_in_doubt(key, value);
                    cluster.adopt_leader();
                    last = OpOutcome::TimedOut;
                }
                Err(ClusterError::Rejected) => {
                    // Conservatively in doubt: the rejection may have come
                    // after the invoke appended.
                    self.note_in_doubt(key, value);
                    last = OpOutcome::Rejected;
                }
            }
        }
        self.history.push(OpRecord {
            key: key.to_string(),
            value: value.to_string(),
            outcome: last.clone(),
            at_us: cluster.now_us(),
        });
        let latency_us = match &last {
            OpOutcome::Acked { latency_us } => Some(*latency_us),
            _ => None,
        };
        cluster.trace(adore_obs::EventKind::ClientOp {
            op: "put".to_string(),
            key: key.to_string(),
            outcome: last.tag().to_string(),
            latency_us,
        });
        last
    }

    fn note_in_doubt(&mut self, key: &str, value: &str) {
        let ghost = self.ghost.entry(key.to_string()).or_default();
        if !ghost.in_doubt.iter().any(|v| v == value) {
            ghost.in_doubt.push(value.to_string());
        }
    }

    /// Read-your-committed-writes: for every key this client wrote, the
    /// cluster-wide committed store must hold either the last
    /// acknowledged value or one of the in-doubt values written after it
    /// — anything else is a lost, stale, or phantom result.
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn check_reads(&self, cluster: &Cluster) -> Result<(), ViolationKind> {
        let store = cluster.committed_store();
        for (key, ghost) in &self.ghost {
            let got = store.get(key);
            match (&ghost.acked, got) {
                (Some(expected), Some(got)) => {
                    if got != expected && !ghost.in_doubt.iter().any(|v| v == got) {
                        return Err(ViolationKind::StaleRead {
                            key: key.clone(),
                            expected: expected.clone(),
                            got: got.to_string(),
                        });
                    }
                }
                (Some(expected), None) => {
                    return Err(ViolationKind::LostWrite {
                        key: key.clone(),
                        value: expected.clone(),
                    });
                }
                (None, Some(got)) => {
                    if !ghost.in_doubt.iter().any(|v| v == got) {
                        return Err(ViolationKind::PhantomWrite {
                            key: key.clone(),
                            got: got.to_string(),
                        });
                    }
                }
                (None, None) => {}
            }
        }
        Ok(())
    }

    /// Number of acknowledged operations in the history.
    #[must_use]
    pub fn acked(&self) -> usize {
        self.history
            .iter()
            .filter(|r| matches!(r.outcome, OpOutcome::Acked { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adore_core::NodeId;
    use adore_kv::LatencyModel;
    use adore_schemes::SingleNode;

    fn cluster(members: &[u32], seed: u64) -> Cluster {
        let conf0 = SingleNode::new(members.iter().copied());
        let mut cluster = Cluster::new(conf0, LatencyModel::default(), seed);
        cluster.set_tracing(true);
        cluster.elect(NodeId(1)).unwrap();
        cluster
    }

    #[test]
    fn healthy_cluster_acks_everything() {
        let mut cluster = cluster(&[1, 2, 3], 21);
        let mut client = RobustClient::new(21);
        for i in 0..10 {
            let out = client.put(&mut cluster, &format!("k{i}"), "v");
            assert!(matches!(out, OpOutcome::Acked { .. }));
        }
        assert_eq!(client.acked(), 10);
        client.check_reads(&cluster).unwrap();
    }

    #[test]
    fn client_redirects_to_a_new_leader_after_a_crash() {
        let mut cluster = cluster(&[1, 2, 3, 4, 5], 22);
        let mut client = RobustClient::new(22);
        assert!(matches!(
            client.put(&mut cluster, "a", "1"),
            OpOutcome::Acked { .. }
        ));
        cluster.fail(NodeId(1));
        // No leader exists; the put exhausts its attempts.
        assert_eq!(client.put(&mut cluster, "a", "2"), OpOutcome::NoLeader);
        // An election happens (the fault engine or the environment); the
        // client's adopt-leader redirect finds it without being told.
        cluster.elect(NodeId(2)).unwrap();
        cluster.fail(NodeId(3)); // leader() is Some(2); crash a bystander
        assert!(matches!(
            client.put(&mut cluster, "a", "3"),
            OpOutcome::Acked { .. }
        ));
        client.check_reads(&cluster).unwrap();
    }

    /// Every attempt of a put stalled behind a minority leader reuses the
    /// operation's `(client, seq)`, so the leader appends it once: after
    /// the heal it commits once, and the trace auditor's exactly-once
    /// check (T7) finds no pair applied twice.
    #[test]
    fn stalled_retries_commit_one_entry_not_one_per_attempt() {
        let mut cluster = cluster(&[1, 2, 3, 4, 5], 24);
        let mut client = RobustClient::new(24);
        assert!(matches!(
            client.put(&mut cluster, "a", "1"),
            OpOutcome::Acked { .. }
        ));
        let all: Vec<NodeId> = (1..=5).map(NodeId).collect();
        cluster.links_mut().isolate(NodeId(1), all);
        cluster.links_mut().heal_both_ways(NodeId(1), NodeId(2));
        assert_eq!(client.put(&mut cluster, "a", "2"), OpOutcome::TimedOut);
        cluster.links_mut().heal_all();
        assert!(matches!(
            client.put(&mut cluster, "b", "x"),
            OpOutcome::Acked { .. }
        ));
        cluster.run_idle(10_000);
        assert_eq!(cluster.committed_store().get("a"), Some("2"));
        let audit = adore_obs::audit_events(&cluster.take_trace());
        assert!(audit.consistent, "{:?}", audit.errors);
        client.check_reads(&cluster).unwrap();
    }

    #[test]
    fn timed_out_writes_are_tracked_in_doubt_not_lost() {
        let mut cluster = cluster(&[1, 2, 3, 4, 5], 23);
        let mut client = RobustClient::new(23);
        client.put(&mut cluster, "a", "1");
        // Partition the leader into a minority; the write times out but
        // stays in the leader's log.
        let all: Vec<NodeId> = (1..=5).map(NodeId).collect();
        cluster.links_mut().isolate(NodeId(1), all);
        cluster.links_mut().heal_both_ways(NodeId(1), NodeId(2));
        assert_eq!(client.put(&mut cluster, "a", "2"), OpOutcome::TimedOut);
        // Heal: the in-doubt write commits on the next successful round.
        cluster.links_mut().heal_all();
        assert!(matches!(
            client.put(&mut cluster, "b", "x"),
            OpOutcome::Acked { .. }
        ));
        // "a" may now read as "2" (the in-doubt write landed) — the ghost
        // accepts it; what it must NOT be is anything else.
        client.check_reads(&cluster).unwrap();
    }
}
