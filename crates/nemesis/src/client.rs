//! A fault-tolerant client driver that records its history.
//!
//! [`RobustClient`] is what a production client library does in front of a
//! flaky replicated store: per-request timeouts (bounded retransmission
//! patience), capped exponential backoff with seeded jitter, and
//! leader-redirect retry after elections. Every operation is recorded as
//! the `ClientOp` event the trace journals for it, so
//! [`adore_obs::linearize`] judges an untraced run's history exactly as
//! the trace auditor's T8 judges a traced one.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use adore_kv::det::msg::ClientMsg;
use adore_kv::{Cluster, ClusterError};
use adore_obs::{EventKind, NotLinearizable, TraceEvent};

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
    /// Acknowledged (a put committed, a get returned) within the
    /// attempt budget.
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
    /// The client history has no linearization
    /// ([`adore_obs::linearize`]): the key, the anomaly and the
    /// shortest offending sub-history.
    NotLinearizable(NotLinearizable),
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
            ViolationKind::NotLinearizable(_) => "NotLinearizable",
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
            ViolationKind::NotLinearizable(v) => v.fmt(f),
            ViolationKind::AckNotDurable { nid } => {
                write!(f, "S{nid} acknowledged state its synced WAL does not hold")
            }
            ViolationKind::UnfaithfulRecovery { nid } => {
                write!(f, "S{nid} recovered to a state its WAL replay cannot produce")
            }
        }
    }
}

/// The retrying, redirecting client driver.
#[derive(Debug)]
pub struct RobustClient {
    rng: StdRng,
    /// This client's session id, embedded in every submitted write.
    client_id: u64,
    /// The next request sequence number. Allocated **once per
    /// operation**, before the first attempt, and reused verbatim by
    /// every retry — the client half of the exactly-once contract.
    next_seq: u64,
    /// Every completed operation, in order, as the `ClientOp` event the
    /// trace journals for it (stamped at completion).
    pub history: Vec<TraceEvent>,
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

    /// Runs `once` with timeout, backoff, and leader-redirect retry;
    /// returns its result or the outcome of the last failed attempt.
    fn retry<T>(
        &mut self,
        cluster: &mut Cluster,
        mut once: impl FnMut(&mut Cluster) -> Result<T, ClusterError>,
    ) -> Result<T, OpOutcome> {
        let mut last = OpOutcome::NoLeader;
        for attempt in 0..MAX_ATTEMPTS {
            if attempt > 0 {
                self.backoff(cluster, attempt - 1);
            }
            if cluster.leader().is_none() && cluster.adopt_leader().is_none() {
                last = OpOutcome::NoLeader;
                continue;
            }
            match once(cluster) {
                Ok(answer) => return Ok(answer),
                Err(ClusterError::NoLeader) => {
                    cluster.adopt_leader();
                    last = OpOutcome::NoLeader;
                }
                Err(ClusterError::Stalled) => {
                    // A write sits in some leader's log with an unknown
                    // fate; it may commit behind our back.
                    cluster.adopt_leader();
                    last = OpOutcome::TimedOut;
                }
                Err(ClusterError::Rejected) => last = OpOutcome::Rejected,
            }
        }
        Err(last)
    }

    /// Appends one operation to the history and journals it.
    fn record(
        &mut self,
        cluster: &mut Cluster,
        op: &str,
        key: &str,
        value: Option<String>,
        invoked_at_us: u64,
        outcome: &OpOutcome,
    ) {
        let at = (invoked_at_us, cluster.now_us());
        let kind = EventKind::client_op(op, key, value, at, outcome.tag());
        self.history
            .push(TraceEvent::root(cluster.now_us(), kind.clone()));
        cluster.trace(kind);
    }

    /// Writes `key = value` with timeout, backoff, and leader-redirect
    /// retry, and records the operation. A put that is not acked stays
    /// pending in the history: it may still commit.
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
        let put = ClientMsg::Put {
            client: self.client_id,
            seq,
            key: key.to_string(),
            value: value.to_string(),
        };
        let outcome = match self.retry(cluster, |c| c.request(put.clone(), REQUEST_ROUNDS)) {
            Ok(_) => OpOutcome::Acked {
                latency_us: cluster.now_us() - start,
            },
            Err(failed) => failed,
        };
        let value = Some(value.to_string());
        self.record(cluster, "put", key, value, start, &outcome);
        outcome
    }

    /// Reads `key` through the leader's engine with the same retry
    /// policy, and records the operation.
    ///
    /// # Errors
    ///
    /// The outcome of the last failed attempt (a failed read observes
    /// nothing).
    pub fn get(&mut self, cluster: &mut Cluster, key: &str) -> Result<Option<String>, OpOutcome> {
        let start = cluster.now_us();
        let got = self.retry(cluster, |c| c.get(key));
        let (outcome, value) = match &got {
            Ok(value) => {
                let latency_us = cluster.now_us() - start;
                (OpOutcome::Acked { latency_us }, value.clone())
            }
            Err(failed) => (failed.clone(), None),
        };
        self.record(cluster, "get", key, value, start, &outcome);
        got
    }

    /// Reads every key this client has written once, in key order: the
    /// final observations that make a history's writes checkable.
    pub fn read_back(&mut self, cluster: &mut Cluster) {
        let keys: BTreeSet<String> = self
            .history
            .iter()
            .filter_map(|ev| match &ev.kind {
                EventKind::ClientOp { op, key, .. } if op == "put" => Some(key.clone()),
                _ => None,
            })
            .collect();
        for key in keys {
            // A failed read is recorded and observes nothing.
            let _ = self.get(cluster, &key);
        }
    }

    /// Number of acknowledged puts in the history.
    #[must_use]
    pub fn acked(&self) -> usize {
        let acked_put = |ev: &&TraceEvent| match &ev.kind {
            EventKind::ClientOp { op, outcome, .. } => op == "put" && outcome == "acked",
            _ => false,
        };
        self.history.iter().filter(acked_put).count()
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
        client.read_back(&mut cluster);
        adore_obs::linearize(&client.history).unwrap();
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
        client.read_back(&mut cluster);
        adore_obs::linearize(&client.history).unwrap();
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
        client.read_back(&mut cluster);
        adore_obs::linearize(&client.history).unwrap();
    }

    /// A read served by a deposed leader that never learned of the last
    /// acked write: the in-memory history and the journal's T8 both call
    /// it not linearizable, and the journal alone reproduces a live
    /// `NotLinearizable` verdict.
    #[test]
    fn a_stale_read_from_a_deposed_leader_is_not_linearizable() {
        let mut cluster = cluster(&[1, 2, 3, 4, 5], 25);
        let mut client = RobustClient::new(25);
        assert!(matches!(
            client.put(&mut cluster, "a", "1"),
            OpOutcome::Acked { .. }
        ));
        let majority: [&[NodeId]; 2] =
            [&[NodeId(1)], &[NodeId(2), NodeId(3), NodeId(4), NodeId(5)]];
        cluster.links_mut().partition(&majority);
        cluster.elect(NodeId(2)).unwrap();
        assert!(matches!(
            client.put(&mut cluster, "a", "2"),
            OpOutcome::Acked { .. }
        ));
        // With S2 down, the only node that calls itself leader is S1, cut
        // off since before "a" = "2": some time on, it answers from its
        // stale store.
        cluster.fail(NodeId(2));
        cluster.run_idle(1_000);
        assert_eq!(client.get(&mut cluster, "a"), Ok(Some("1".to_string())));

        let v = adore_obs::linearize(&client.history).expect_err("a stale read");
        assert_eq!(
            (v.key.as_str(), v.anomaly),
            ("a", adore_obs::Anomaly::Nested)
        );
        assert_eq!(v.history.len(), 3, "{v}");
        let mut events = cluster.take_trace();
        let audit = adore_obs::audit_jsonl(&adore_obs::to_jsonl(&events)).unwrap();
        assert!(!audit.consistent);
        assert_eq!(audit.not_linearizable.as_ref(), Some(&v));
        // A counterexample carries the verdict through JSON.
        let kind = ViolationKind::NotLinearizable(v);
        let json = serde_json::to_string(&kind).unwrap();
        assert_eq!(serde_json::from_str::<ViolationKind>(&json).unwrap(), kind);
        let verdict = EventKind::Verdict {
            safe: false,
            kind: Some(kind.tag().to_string()),
            detail: None,
            phase: 0,
        };
        let mut last = TraceEvent::root(cluster.now_us(), verdict);
        last.seq = events.len() as u64;
        events.push(last);
        let audit = adore_obs::audit_events(&events);
        assert!(audit.consistent, "{}", audit.summary());
    }

    #[test]
    fn a_timed_out_write_stays_pending_and_may_be_read() {
        let mut cluster = cluster(&[1, 2, 3, 4, 5], 23);
        let mut client = RobustClient::new(23);
        client.put(&mut cluster, "a", "1");
        // Partition the leader into a minority; the write times out but
        // stays in the leader's log.
        let all: Vec<NodeId> = (1..=5).map(NodeId).collect();
        cluster.links_mut().isolate(NodeId(1), all);
        cluster.links_mut().heal_both_ways(NodeId(1), NodeId(2));
        assert_eq!(client.put(&mut cluster, "a", "2"), OpOutcome::TimedOut);
        // Heal: the pending write commits on the next successful round.
        cluster.links_mut().heal_all();
        assert!(matches!(
            client.put(&mut cluster, "b", "x"),
            OpOutcome::Acked { .. }
        ));
        // "a" may now read as "2" (the pending write landed): the
        // history is linearizable with it taking effect after the cut.
        assert_eq!(client.get(&mut cluster, "a"), Ok(Some("2".to_string())));
        adore_obs::linearize(&client.history).unwrap();
    }
}
