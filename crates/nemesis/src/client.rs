//! The simulated client: a driver of [`adore_kv::det::client`], the core
//! the wire client runs, on the simulator's virtual clock. Each attempt
//! reaches one node through [`Cluster::request_to`] and the core's waits
//! pass as idle virtual time, so [`RobustClient`] finds a new leader as a
//! real client does, by redirect. Every operation is recorded as the
//! `ClientOp` event the trace journals for it, so
//! [`adore_obs::linearize`] judges an untraced run's history exactly as
//! the trace auditor's T8 judges a traced one.

use std::collections::BTreeSet;

use serde::{Deserialize, Serialize};

use adore_core::NodeId;
use adore_kv::det::client::{Action, Client, ClientParams, Input};
use adore_kv::det::engine::EngineParams;
use adore_kv::det::msg::{ClientMsg, ClientReply};
use adore_kv::{Cluster, ClusterError, LatencyModel};
use adore_obs::{EventKind, NotLinearizable, TraceEvent};

/// Heartbeat periods granted to one attempt before it times out (the
/// per-request timeout; heartbeats are the engines' retransmission): a
/// frame to a follower and its ack back, each at the latency model's
/// slowest unspiked flight, plus its largest spike, in whole heartbeats.
/// One spike alone must not time out an attempt at a healthy leader.
fn request_rounds(latency: &LatencyModel) -> u32 {
    let flight = latency.send_us + latency.per_entry_us + latency.base_us + latency.jitter_us;
    let worst = 2 * flight + latency.spike_us.1;
    // A tick is `base_us` long (`LatencyModel::base_us`).
    let heartbeat = EngineParams::default().heartbeat_ticks * latency.base_us.max(1);
    u32::try_from(worst.div_ceil(heartbeat)).unwrap_or(u32::MAX)
}

/// The retry policy in virtual time: 4 attempts, backing off from 0.8 ms
/// up to 12 ms.
fn params() -> ClientParams {
    ClientParams {
        max_attempts: 4,
        backoff_base_us: 800,
        backoff_cap_us: 12_000,
        ..ClientParams::default()
    }
}

/// The terminal outcome of one client operation (after retries).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum OpOutcome {
    /// Acknowledged (a put committed, a get returned) within the
    /// attempt budget.
    Acked {
        /// End-to-end latency in virtual microseconds (all attempts).
        latency_us: u64,
    },
    /// Every attempt failed, and one went unanswered in time: a write's
    /// fate is open.
    TimedOut,
    /// Every attempt failed without reaching a node that took it.
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

/// The retrying, redirecting simulated client.
#[derive(Debug)]
pub struct RobustClient {
    core: Client,
    /// Every completed operation, in order, as the `ClientOp` event the
    /// trace journals for it (stamped at completion).
    pub history: Vec<TraceEvent>,
}

impl RobustClient {
    /// A client of `nodes` whose session id, kept off the two the
    /// engine and the simulator reserve (0 for the no-op barrier,
    /// `u64::MAX` for the simulator's own session), is `seed`.
    #[must_use]
    pub fn new(seed: u64, nodes: &[NodeId]) -> Self {
        let id = seed.clamp(1, u64::MAX - 1);
        RobustClient {
            core: Client::new(nodes.iter().map(|n| n.0), id, params()),
            history: Vec::new(),
        }
    }

    /// Aims the next attempt at `nid`, which was just elected.
    pub fn aim(&mut self, nid: NodeId) {
        self.core.aim(nid.0);
    }

    /// Runs one operation through the core — a put of `key = value`, or a
    /// get of `key` with no `value` — and records it. Returns its outcome
    /// and the value written or read.
    fn run(
        &mut self,
        cluster: &mut Cluster,
        key: &str,
        value: Option<&str>,
    ) -> (OpOutcome, Option<String>) {
        let op = if value.is_some() { "put" } else { "get" };
        let start = cluster.now_us();
        let (key, mut value) = (key.to_string(), value.map(str::to_string));
        let msg = match &value {
            Some(value) => ClientMsg::Put {
                client: self.core.client_id(),
                seq: self.core.start_write(),
                key: key.clone(),
                value: value.clone(),
            },
            None => {
                self.core.start_read();
                ClientMsg::Get { key: key.clone() }
            }
        };
        let (mut input, mut failed) = (None, OpOutcome::NoLeader);
        let done = loop {
            match self.core.poll(input.take()) {
                Action::Send { to } => {
                    let rounds = request_rounds(cluster.latency());
                    let reply = cluster.request_to(NodeId(to), msg.clone(), rounds);
                    if reply == Err(ClusterError::Stalled) {
                        failed = OpOutcome::TimedOut;
                    }
                    input = Some(reply.map_or(Input::NoReply, Input::Reply));
                }
                Action::Wait(us) => cluster.run_idle(us),
                Action::Done(done) => break done,
            }
        };
        let latency_us = cluster.now_us() - start;
        let outcome = match done {
            Some(ClientReply::Acked { .. }) => OpOutcome::Acked { latency_us },
            Some(ClientReply::Value { value: read, .. }) => {
                value = read;
                OpOutcome::Acked { latency_us }
            }
            Some(_) => OpOutcome::Rejected,
            None => failed,
        };
        let at = (start, cluster.now_us());
        let kind = EventKind::client_op(op, &key, value.clone(), at, outcome.tag());
        self.history.push(TraceEvent::root(at.1, kind.clone()));
        cluster.trace(kind);
        (outcome, value)
    }

    /// Writes `key = value` with timeout, backoff, and leader-redirect
    /// retry, and records the operation. A put that is not acked stays
    /// pending in the history: it may still commit.
    pub fn put(&mut self, cluster: &mut Cluster, key: &str, value: &str) -> OpOutcome {
        self.run(cluster, key, Some(value)).0
    }

    /// Reads `key` with the same retry policy, and records the
    /// operation.
    ///
    /// # Errors
    ///
    /// The outcome of the failed operation (a failed read observes
    /// nothing).
    pub fn get(&mut self, cluster: &mut Cluster, key: &str) -> Result<Option<String>, OpOutcome> {
        match self.run(cluster, key, None) {
            (OpOutcome::Acked { .. }, value) => Ok(value),
            (failed, _) => Err(failed),
        }
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
    use adore_schemes::SingleNode;

    fn ids(n: u32) -> Vec<NodeId> {
        (1..=n).map(NodeId).collect()
    }

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
        let mut client = RobustClient::new(21, &ids(3));
        for i in 0..10 {
            let out = client.put(&mut cluster, &format!("k{i}"), "v");
            assert!(matches!(out, OpOutcome::Acked { .. }));
        }
        assert_eq!(client.acked(), 10);
        client.read_back(&mut cluster);
        adore_obs::linearize(&client.history).unwrap();
    }

    /// A latency spike slower than four heartbeats (what one attempt
    /// used to wait) delays an ack, it does not lose it: on a two-member
    /// cluster, whose every put needs the follower's ack, each put of a
    /// seeded run acks on its first attempt at the leader, including the
    /// puts whose frame or ack a spike held up past the old patience.
    #[test]
    fn one_latency_spike_does_not_time_out_an_attempt() {
        let mut cluster = cluster(&[1, 2], 25);
        let mut client = RobustClient::new(25, &ids(2));
        let heartbeat = EngineParams::default().heartbeat_ticks * cluster.latency().base_us;
        let mut spiked = 0;
        for i in 0..500 {
            let out = client.put(&mut cluster, &format!("k{i}"), "v");
            let OpOutcome::Acked { latency_us } = out else {
                panic!("put {i}: {out:?}");
            };
            assert_eq!(client.core.attempts(), 1, "put {i} took {latency_us} us");
            assert_eq!(cluster.leader(), Some(NodeId(1)), "the leader leads throughout");
            spiked += usize::from(latency_us > 4 * heartbeat);
        }
        assert!(spiked > 0, "no spike outlasted the old patience");
        adore_obs::linearize(&client.history).unwrap();
    }

    #[test]
    fn client_redirects_to_a_new_leader_after_a_crash() {
        let mut cluster = cluster(&[1, 2, 3, 4, 5], 22);
        let mut client = RobustClient::new(22, &ids(5));
        assert!(matches!(
            client.put(&mut cluster, "a", "1"),
            OpOutcome::Acked { .. }
        ));
        cluster.fail(NodeId(1));
        // No leader exists; the put exhausts its attempts.
        assert_eq!(client.put(&mut cluster, "a", "2"), OpOutcome::NoLeader);
        // An election happens (the fault engine or the environment); the
        // client finds the new leader by redirect, without being told.
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
        let mut client = RobustClient::new(24, &ids(5));
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
        let mut client = RobustClient::new(25, &ids(5));
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
        // off since before "a" = "2": some time on, it answers a client
        // that still takes it for the leader from its stale store.
        cluster.fail(NodeId(2));
        cluster.run_idle(1_000);
        client.aim(NodeId(1));
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
        let mut client = RobustClient::new(23, &ids(5));
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
