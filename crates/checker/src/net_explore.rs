//! Bounded-exhaustive exploration of the *network-based* model.
//!
//! The counterpart of [`crate::explore`] for `adore_raft::NetState`: all
//! schedulable events (elections, invokes, reconfigurations, commit
//! broadcasts, and every pending delivery) are enumerated at each state.
//! Comparing its state counts against the ADORE explorer's at equal depth
//! is the quantitative form of the paper's §7 argument that protocol-level
//! reasoning on the cache tree is drastically cheaper than network-level
//! reasoning — here the network model's branching includes every message
//! interleaving that ADORE's atomic operations collapse.

use std::collections::{BTreeSet, VecDeque};
use std::time::Duration;

use adore_core::{telemetry, Configuration, NodeId, ReconfigGuard};
use adore_obs::Metrics;
use adore_raft::{MsgId, NetEvent, NetState};
use adore_schemes::ReconfigSpace;

use crate::profile::ExploreProfile;

/// Parameters for [`explore_net`].
#[derive(Debug, Clone)]
pub struct NetExploreParams {
    /// Maximum number of events from the initial state.
    pub max_depth: usize,
    /// Hard cap on visited states.
    pub max_states: usize,
    /// The reconfiguration guard in force.
    pub guard: ReconfigGuard,
    /// Whether reconfiguration events are explored.
    pub with_reconfig: bool,
    /// Extra node ids beyond the initial members.
    pub spare_nodes: u32,
    /// Whether to collect an [`ExploreProfile`] (per-kind transition
    /// counters, log-safety evaluation count, quorum-check counts,
    /// states/sec). Off by default.
    pub profile: bool,
}

impl Default for NetExploreParams {
    fn default() -> Self {
        NetExploreParams {
            max_depth: 6,
            max_states: 500_000,
            guard: ReconfigGuard::all(),
            with_reconfig: true,
            spare_nodes: 1,
            profile: false,
        }
    }
}

/// Outcome of a network-level exploration.
#[derive(Debug, Clone)]
pub struct NetExploreReport {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken.
    pub transitions: u64,
    /// Deepest level reached.
    pub depth_reached: usize,
    /// Whether the state cap cut the exploration short.
    pub truncated: bool,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// Whether some reachable state had disagreeing committed prefixes.
    pub log_safety_violated: bool,
    /// The run's profile, when [`NetExploreParams::profile`] was set.
    pub profile: Option<ExploreProfile>,
}

/// The canonical method symbol (see [`crate::explore::CANONICAL_METHOD`]).
const METHOD: u32 = 0;

fn net_successors<C: Configuration + ReconfigSpace>(
    st: &NetState<C, u32>,
    params: &NetExploreParams,
    universe: &adore_core::NodeSet,
) -> Vec<NetEvent<C, u32>> {
    let mut evs = Vec::new();
    for &nid in universe {
        evs.push(NetEvent::Elect { nid });
        evs.push(NetEvent::Invoke {
            nid,
            method: METHOD,
        });
        evs.push(NetEvent::Commit { nid });
        if params.with_reconfig {
            let current = st.config_of(nid).unwrap_or_else(|| st.conf0().clone());
            for cand in current.candidates(universe) {
                evs.push(NetEvent::Reconfig { nid, config: cand });
            }
        }
        for msg in 0..st.messages().len() {
            evs.push(NetEvent::Deliver {
                msg: MsgId(msg as u32),
                to: nid,
            });
        }
    }
    evs
}

/// Exhaustively explores the network-based system from `conf0`.
///
/// # Examples
///
/// ```
/// use adore_checker::{explore_net, NetExploreParams};
/// use adore_schemes::SingleNode;
///
/// let params = NetExploreParams {
///     max_depth: 3,
///     with_reconfig: false,
///     spare_nodes: 0,
///     ..NetExploreParams::default()
/// };
/// let report = explore_net(&SingleNode::new([1, 2]), &params);
/// assert!(!report.log_safety_violated);
/// ```
#[must_use]
pub fn explore_net<C: Configuration + ReconfigSpace>(
    conf0: &C,
    params: &NetExploreParams,
) -> NetExploreReport {
    #[allow(
        clippy::disallowed_types,
        reason = "wall-clock timing reported in NetExploreReport::elapsed only; never affects exploration order or results"
    )]
    let start = std::time::Instant::now();
    let initial: NetState<C, u32> = NetState::new(conf0.clone(), params.guard);
    let mut universe = conf0.members();
    let max = universe.iter().map(|n| n.0).max().unwrap_or(0);
    for extra in 1..=params.spare_nodes {
        universe.insert(NodeId(max + extra));
    }

    let mut report = NetExploreReport {
        states: 1,
        transitions: 0,
        depth_reached: 0,
        truncated: false,
        elapsed: Duration::ZERO,
        log_safety_violated: false,
        profile: None,
    };

    // As in `explore`: the quorum counter is process-global, so profile
    // the delta over this run only.
    let mut metrics = if params.profile {
        Some(Metrics::new())
    } else {
        None
    };
    let quorum_base = telemetry::quorum_checks();

    // NetState is not `Hash`; dedup on its serialized relation + bags.
    let fingerprint = |st: &NetState<C, u32>| -> String {
        format!("{:?}|{:?}", st.net_relation(), st.messages())
    };

    // Ordered set so exploration is deterministic (L1); probed only,
    // never iterated, so the swap from hashing cannot change coverage.
    let mut visited: BTreeSet<String> = BTreeSet::new();
    visited.insert(fingerprint(&initial));
    let mut queue = VecDeque::new();
    queue.push_back((initial, 0usize));

    'bfs: while let Some((st, depth)) = queue.pop_front() {
        report.depth_reached = report.depth_reached.max(depth);
        if depth == params.max_depth {
            continue;
        }
        for ev in net_successors(&st, params, &universe) {
            let mut next = st.clone();
            if !next.step(&ev).applied() {
                continue;
            }
            report.transitions += 1;
            if let Some(m) = metrics.as_mut() {
                let kind = match &ev {
                    NetEvent::Elect { .. } => "elect",
                    NetEvent::Invoke { .. } => "invoke",
                    NetEvent::Reconfig { .. } => "reconfig",
                    NetEvent::Commit { .. } => "commit",
                    NetEvent::Deliver { .. } => "deliver",
                    NetEvent::Crash { .. } => "crash",
                    NetEvent::Recover { .. } => "recover",
                };
                m.inc(&format!("transition.{kind}"));
            }
            let fp = fingerprint(&next);
            if visited.contains(&fp) {
                continue;
            }
            visited.insert(fp);
            report.states += 1;
            if let Some(m) = metrics.as_mut() {
                m.inc("invariant.log-safety");
            }
            if next.check_log_safety().is_err() {
                report.log_safety_violated = true;
                break 'bfs;
            }
            if report.states >= params.max_states {
                report.truncated = true;
                break 'bfs;
            }
            queue.push_back((next, depth + 1));
        }
    }

    report.elapsed = start.elapsed();
    if let Some(mut m) = metrics {
        m.add("quorum.checks", telemetry::quorum_checks() - quorum_base);
        report.profile = Some(ExploreProfile::new(&m, report.states, report.elapsed));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use adore_schemes::SingleNode;

    #[test]
    fn two_node_network_is_safe_at_shallow_depth() {
        let params = NetExploreParams {
            max_depth: 4,
            with_reconfig: false,
            spare_nodes: 0,
            ..NetExploreParams::default()
        };
        let report = explore_net(&SingleNode::new([1, 2]), &params);
        assert!(!report.log_safety_violated);
        assert!(!report.truncated);
        assert!(report.states > 10);
    }

    #[test]
    fn net_profiling_counts_deliveries_and_quorum_checks() {
        let params = NetExploreParams {
            max_depth: 4,
            with_reconfig: false,
            spare_nodes: 0,
            profile: true,
            ..NetExploreParams::default()
        };
        let report = explore_net(&SingleNode::new([1, 2]), &params);
        let profile = report.profile.expect("profile requested");
        let kinds = profile.hottest_transitions();
        let total: u64 = kinds.iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.transitions);
        assert!(kinds.iter().any(|(k, _)| *k == "deliver"));
        assert_eq!(profile.invariant_evals(), report.states as u64 - 1);
        assert!(profile.quorum_checks() > 0);
    }

    /// The exact size of both state spaces at `certify`'s warm-up
    /// shapes (two nodes, reconfiguration on, one spare). The benchmark
    /// pins the deeper pair, but no `ci.sh` step runs it as a workload;
    /// this is the pin the workspace suite holds. A change to `net.rs`
    /// or `core::state` that alters what is reachable moves a pair
    /// (EXPERIMENTS E12 has the mutations that do).
    #[test]
    fn certify_shapes_keep_their_pinned_counts() {
        use crate::explore::{explore, ExploreParams};
        let conf0 = SingleNode::new([1, 2]);
        let adore = explore(
            &conf0,
            &ExploreParams {
                max_depth: 5,
                max_states: usize::MAX,
                ..ExploreParams::default()
            },
        );
        assert!(adore.is_safe() && !adore.truncated);
        assert_eq!((adore.states, adore.transitions), (1_301, 1_666));
        let net = explore_net(
            &conf0,
            &NetExploreParams {
                max_depth: 7,
                max_states: usize::MAX,
                ..NetExploreParams::default()
            },
        );
        assert!(!net.log_safety_violated && !net.truncated);
        assert_eq!((net.states, net.transitions), (4_099, 7_916));
    }

    /// `explore_net`'s dedup key `(net_relation, messages)` is not a
    /// quotient of the transition system: it drops `role`, `votes` and
    /// `acks` — in particular *whom* a node voted for — so BFS prunes
    /// states whose futures differ. This reference BFS (same successor
    /// function, `check_log_safety` on every state) keys additionally on
    /// each server's `(role, votes while Candidate, acks while Leader,
    /// crashed)` and pins, from `{1,2,3}` + 1 spare at depth 5, both
    /// searches' sizes and how many `(relation, messages)` classes the
    /// fuller search reaches that the coarse one never visits. The fix
    /// moves both count pins (here and `benchmark/src/certify.rs`), so
    /// it belongs to ROADMAP item 1's single re-baseline, which must
    /// drive `missed` to 0 (EXPERIMENTS E2 has the other depths).
    #[test]
    fn the_dedup_key_misses_classes_a_fuller_key_reaches() {
        type St = NetState<SingleNode, u32>;
        let coarse = |st: &St| format!("{:?}|{:?}", st.net_relation(), st.messages());
        let full = |st: &St| {
            let local: Vec<_> = st
                .servers()
                .map(|(nid, s)| {
                    let votes = (s.role == adore_raft::Role::Candidate).then_some(&s.votes);
                    let acks = (s.role == adore_raft::Role::Leader).then_some(&s.acks);
                    (nid, s.role, votes, acks, s.crashed)
                })
                .collect();
            format!("{}|{local:?}", coarse(st))
        };
        let conf0 = SingleNode::new([1, 2, 3]);
        let params = NetExploreParams {
            max_depth: 5,
            max_states: usize::MAX,
            ..NetExploreParams::default()
        };
        let universe: adore_core::NodeSet = (1..=4).map(NodeId).collect();
        // Returns (states, transitions, coarse classes visited).
        let bfs = |key: &dyn Fn(&St) -> String| {
            let initial: St = NetState::new(conf0.clone(), params.guard);
            let mut visited = BTreeSet::from([key(&initial)]);
            let mut classes = BTreeSet::from([coarse(&initial)]);
            let mut transitions = 0u64;
            let mut queue = VecDeque::from([(initial, 0usize)]);
            while let Some((st, depth)) = queue.pop_front() {
                if depth == params.max_depth {
                    continue;
                }
                for ev in net_successors(&st, &params, &universe) {
                    let mut next = st.clone();
                    if !next.step(&ev).applied() {
                        continue;
                    }
                    transitions += 1;
                    if visited.insert(key(&next)) {
                        assert!(next.check_log_safety().is_ok());
                        classes.insert(coarse(&next));
                        queue.push_back((next, depth + 1));
                    }
                }
            }
            (visited.len(), transitions, classes)
        };

        let pruned = explore_net(&conf0, &params);
        let (states, transitions, seen) = bfs(&coarse);
        assert_eq!((states, transitions), (pruned.states, pruned.transitions));
        assert_eq!((states, transitions), (2_149, 3_879));
        let (states, transitions, reached) = bfs(&full);
        assert_eq!((states, transitions), (2_659, 4_449));
        assert_eq!(reached.difference(&seen).count(), 48);
    }

    #[test]
    fn network_state_space_dominates_at_equal_protocol_progress() {
        use crate::explore::{explore, ExploreParams};
        // One committed command costs 3 ADORE operations (pull, invoke,
        // push) but 5 network events (elect, vote delivery, invoke, commit
        // broadcast, ack delivery) on a two-node cluster: comparing the
        // exhaustive state spaces at the one-commit horizon quantifies the
        // paper's §7 claim that protocol-level reasoning is cheaper. (At
        // the two-commit horizon the gap is ~12×: 4.9k vs 59k states.)
        let conf0 = SingleNode::new([1, 2]);
        let net = explore_net(
            &conf0,
            &NetExploreParams {
                max_depth: 5,
                with_reconfig: false,
                spare_nodes: 0,
                ..NetExploreParams::default()
            },
        );
        let adore = explore(
            &conf0,
            &ExploreParams {
                max_depth: 3,
                with_reconfig: false,
                spare_nodes: 0,
                ..ExploreParams::default()
            },
        );
        assert!(
            net.states > 2 * adore.states,
            "net {} vs adore {}",
            net.states,
            adore.states
        );
    }
}
