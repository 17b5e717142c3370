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

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::time::Duration;

use adore_core::{telemetry, Configuration, NodeId, ReconfigGuard};
use adore_obs::Metrics;
use adore_raft::{Log, MsgId, NetEvent, NetState, Request};
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

/// The schedulable events at `st`, less those the model provably refuses
/// — each of which would cost a state clone to learn nothing: leader-local
/// events only where [`NetState::leads`] holds, deliveries only where
/// [`NetState::admits`] accepts. Both are the model's own guards, so the
/// applied transitions, and their order, are those of the unfiltered
/// alphabet.
fn net_successors<C: Configuration + ReconfigSpace>(
    st: &NetState<C, u32>,
    params: &NetExploreParams,
    universe: &adore_core::NodeSet,
) -> Vec<NetEvent<C, u32>> {
    let mut evs = Vec::new();
    for &nid in universe {
        evs.push(NetEvent::Elect { nid });
        if st.leads(nid) {
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
        }
        for (msg, req) in st.messages().iter().enumerate() {
            if st.admits(req, nid).is_ok() {
                evs.push(NetEvent::Deliver {
                    msg: MsgId(narrow(msg)),
                    to: nid,
                });
            }
        }
    }
    evs
}

/// Narrows a count, length or term to a key field or message id. Every
/// one a bounded search reaches is far below `u32::MAX`; a wider one
/// would let two states share a key, so it stops the search instead.
fn narrow<T>(n: T) -> u32
where
    u32: TryFrom<T>,
{
    u32::try_from(n).unwrap_or_else(|_| panic!("a state-key field exceeds u32::MAX"))
}

/// The exact dedup key of a state: the non-[pristine] servers'
/// `(nid, time, log, commit_len)` — [`NetState::net_relation`] — then
/// every request's `(kind, from, time, prev_len, log, commit_len)`. Each
/// list is prefixed by its length, and each log is replaced by its id in
/// `logs`, interned on first sight. Two states share a key exactly when
/// their `(net_relation, messages)` are equal.
///
/// [pristine]: adore_raft::Server::is_pristine
fn state_key<C: Configuration>(
    st: &NetState<C, u32>,
    logs: &mut BTreeMap<Log<C, u32>, u32>,
) -> Box<[u32]> {
    let mut intern = |log: &Log<C, u32>| match logs.get(log.as_slice()) {
        Some(&id) => id,
        None => {
            let id = narrow(logs.len());
            logs.insert(log.clone(), id);
            id
        }
    };
    let live = || st.servers().filter(|(_, s)| !s.is_pristine());
    let servers = live().count();
    let mut key = Vec::with_capacity(2 + 4 * servers + 6 * st.messages().len());
    key.push(narrow(servers));
    for (nid, s) in live() {
        key.extend([
            nid.0,
            narrow(s.time.0),
            intern(&s.log),
            narrow(s.commit_len),
        ]);
    }
    key.push(narrow(st.messages().len()));
    for req in st.messages() {
        key.extend(match req {
            Request::Elect {
                from,
                time,
                prev_len,
                log,
            } => [0, from.0, narrow(time.0), narrow(*prev_len), intern(log), 0],
            Request::Commit {
                from,
                time,
                prev_len,
                log,
                commit_len,
            } => [
                1,
                from.0,
                narrow(time.0),
                narrow(*prev_len),
                intern(log),
                narrow(*commit_len),
            ],
        });
    }
    key.into_boxed_slice()
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

    // Ordered set so exploration is deterministic (L1); probed only,
    // never iterated, so the swap from hashing cannot change coverage.
    let mut logs = BTreeMap::new();
    let mut visited = BTreeSet::from([state_key(&initial, &mut logs)]);
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
            if !visited.insert(state_key(&next, &mut logs)) {
                continue;
            }
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

    /// Every server's cached config position (`config_of`, a lookup)
    /// names the configuration a full scan of its log finds, in every
    /// state the workspace-suite shape reaches — `{1,2}` + 1 spare to
    /// depth 7 — under the full guard and with each leg ablated. The
    /// walk is `explore_net`'s own BFS without its stop at a violation;
    /// under the full guard it visits exactly the states the pinned
    /// count names.
    #[test]
    fn cached_config_positions_match_a_full_scan_in_every_reachable_state() {
        let conf0 = SingleNode::new([1, 2]);
        let universe: adore_core::NodeSet = (1..=3).map(NodeId).collect();
        let all = ReconfigGuard::all();
        for guard in [all, all.without_r1(), all.without_r2(), all.without_r3()] {
            let params = NetExploreParams {
                max_depth: 7,
                max_states: usize::MAX,
                guard,
                ..NetExploreParams::default()
            };
            let initial: NetState<SingleNode, u32> = NetState::new(conf0.clone(), guard);
            let mut logs = BTreeMap::new();
            let mut visited = BTreeSet::from([state_key(&initial, &mut logs)]);
            let mut queue = VecDeque::from([(initial, 0usize)]);
            let mut config_entries = 0;
            while let Some((st, depth)) = queue.pop_front() {
                for (nid, s) in st.servers() {
                    let scanned = adore_raft::effective_config(st.conf0(), &s.log);
                    assert_eq!(st.config_of(nid), Some(scanned), "{guard:?} {nid:?} {:?}", s.log);
                    config_entries += s.log.iter().filter(|e| e.cmd.config().is_some()).count();
                }
                if depth == params.max_depth {
                    continue;
                }
                for ev in net_successors(&st, &params, &universe) {
                    let mut next = st.clone();
                    if next.step(&ev).applied() && visited.insert(state_key(&next, &mut logs)) {
                        queue.push_back((next, depth + 1));
                    }
                }
            }
            assert!(config_entries > 0, "{guard:?}: no config entry was ever checked");
            if guard == all {
                assert_eq!(visited.len(), explore_net(&conf0, &params).states);
            }
        }
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

    /// Every event of the alphabet at `st`, refused ones included: the
    /// generator `net_successors` filters.
    fn unfiltered_successors(
        st: &NetState<SingleNode, u32>,
        params: &NetExploreParams,
        universe: &adore_core::NodeSet,
    ) -> Vec<NetEvent<SingleNode, u32>> {
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

    /// The explorer as it was before interned keys and filtered events:
    /// the `Debug` string of `(net_relation, messages)` as the dedup key,
    /// every event of the alphabet tried on a clone. Returns `(states,
    /// transitions, log_safety_violated)`.
    fn reference_explore(conf0: &SingleNode, params: &NetExploreParams) -> (usize, u64, bool) {
        type St = NetState<SingleNode, u32>;
        let key = |st: &St| format!("{:?}|{:?}", st.net_relation(), st.messages());
        let mut universe = conf0.members();
        let max = universe.iter().map(|n| n.0).max().unwrap_or(0);
        universe.extend((1..=params.spare_nodes).map(|extra| NodeId(max + extra)));
        let initial: St = NetState::new(conf0.clone(), params.guard);
        let mut visited = BTreeSet::from([key(&initial)]);
        let mut transitions = 0u64;
        let mut queue = VecDeque::from([(initial, 0usize)]);
        while let Some((st, depth)) = queue.pop_front() {
            if depth == params.max_depth {
                continue;
            }
            for ev in unfiltered_successors(&st, params, &universe) {
                let mut next = st.clone();
                if !next.step(&ev).applied() {
                    continue;
                }
                transitions += 1;
                if visited.insert(key(&next)) {
                    if next.check_log_safety().is_err() {
                        return (visited.len(), transitions, true);
                    }
                    queue.push_back((next, depth + 1));
                }
            }
        }
        (visited.len(), transitions, false)
    }

    /// The interned key and the filtered generator change only the cost
    /// of a search: at `certify`'s warm-up shape, at three members, and
    /// with each of R1⁺, R2 and R3 ablated, `explore_net` reports what the
    /// `Debug`-keyed, unfiltered reference does.
    #[test]
    fn interned_keys_and_filtered_events_explore_what_the_reference_does() {
        let all = ReconfigGuard::all();
        let cases = [
            ([1, 2].as_slice(), 7, all),
            (&[1, 2, 3], 5, all),
            (&[1, 2, 3], 5, all.without_r1()),
            (&[1, 2, 3], 5, all.without_r2()),
            (&[1, 2, 3], 5, all.without_r3()),
        ];
        for (members, max_depth, guard) in cases {
            let conf0 = SingleNode::new(members.iter().copied());
            let params = NetExploreParams {
                max_depth,
                max_states: usize::MAX,
                guard,
                ..NetExploreParams::default()
            };
            let report = explore_net(&conf0, &params);
            assert_eq!(
                (
                    report.states,
                    report.transitions,
                    report.log_safety_violated
                ),
                reference_explore(&conf0, &params),
                "{members:?} depth {max_depth} {guard:?}"
            );
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Along random schedules (crashes included), each event
        /// `net_successors` drops is one the model refuses: a delivery
        /// `admits` refuses is rejected for the reason it gives (and one
        /// it accepts applies), and a leader-local event at a node that
        /// does not `leads` is a local no-op.
        #[test]
        fn the_successor_filters_drop_only_events_the_model_refuses(
            seed in proptest::prelude::any::<u64>(),
            crash_weight in 0u32..3,
        ) {
            use adore_raft::{random_trace, EventOutcome, ScheduleParams};
            let conf0 = SingleNode::new([1, 2, 3]);
            let schedule = ScheduleParams {
                steps: 40,
                crash_weight,
                ..ScheduleParams::default()
            };
            let trace = random_trace(&conf0, ReconfigGuard::all(), &schedule, 1, seed);
            let universe: adore_core::NodeSet = (1..=4).map(NodeId).collect();
            let mut st: NetState<SingleNode, u32> = NetState::new(conf0, ReconfigGuard::all());
            for taken in &trace {
                for &to in &universe {
                    for (msg, req) in st.messages().iter().enumerate() {
                        let outcome = st.clone().step(&NetEvent::Deliver {
                            msg: MsgId(msg as u32),
                            to,
                        });
                        let expected = match st.admits(req, to) {
                            Ok(()) => EventOutcome::Applied,
                            Err(why) => EventOutcome::Rejected(why),
                        };
                        proptest::prop_assert_eq!(outcome, expected);
                    }
                    if st.leads(to) {
                        continue;
                    }
                    let current = st.config_of(to).unwrap_or_else(|| st.conf0().clone());
                    let local = [NetEvent::Invoke { nid: to, method: METHOD }, NetEvent::Commit { nid: to }]
                        .into_iter()
                        .chain(
                            current
                                .candidates(&universe)
                                .into_iter()
                                .map(|config| NetEvent::Reconfig { nid: to, config }),
                        );
                    for ev in local {
                        proptest::prop_assert_eq!(st.clone().step(&ev), EventOutcome::LocalNoOp);
                    }
                }
                st.step(taken);
            }
        }
    }
}
