//! Bounded-exhaustive exploration of the ADORE transition system.
//!
//! Every reachable state within a depth bound is visited (breadth-first,
//! with hash-based deduplication), enumerating **all** valid oracle
//! decisions at each state via [`adore_core::enumerate`]. Each state is
//! checked against a configurable invariant suite; a violation yields the
//! shortest counterexample trace.
//!
//! This is the executable counterpart of the mechanized safety theorem for
//! small instances: the paper's own counterexamples (Figs. 4/12) need only
//! four replicas and seven operations, comfortably within exhaustive
//! range, and the checker *finds them* the moment a guard bit is dropped.

use std::collections::{BTreeMap, VecDeque};
use std::time::Duration;

use adore_core::invariants::{self, Violation};
use adore_core::{telemetry, AdoreState, Configuration, NodeId, ReconfigGuard};
use adore_obs::Metrics;
use adore_schemes::ReconfigSpace;

use crate::op::CheckerOp;
use crate::profile::ExploreProfile;

/// Which invariants to evaluate at each visited state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InvariantSuite {
    /// Replicated state safety only (Def. 4.1) — the headline theorem.
    SafetyOnly,
    /// The full suite of `adore_core::invariants::check_all` (safety plus
    /// the supporting lemmas B.1–B.8 and structural invariants).
    Full,
}

impl InvariantSuite {
    fn check<C: Configuration, M: Clone>(self, st: &AdoreState<C, M>) -> Option<Violation> {
        match self {
            InvariantSuite::SafetyOnly => invariants::check_safety(st).err(),
            InvariantSuite::Full => invariants::check_all(st).into_iter().next(),
        }
    }

    /// [`InvariantSuite::check`] with per-lemma evaluation counters — the
    /// profiler's "hottest invariants" source. Counts every lemma the
    /// suite evaluates, whether or not it fires.
    fn check_counted<C: Configuration, M: Clone>(
        self,
        st: &AdoreState<C, M>,
        metrics: &mut Metrics,
    ) -> Option<Violation> {
        match self {
            InvariantSuite::SafetyOnly => {
                metrics.inc("invariant.safety");
                invariants::check_safety(st).err()
            }
            InvariantSuite::Full => {
                let mut first = None;
                for (name, res) in invariants::check_all_named(st) {
                    metrics.inc(&format!("invariant.{name}"));
                    if first.is_none() {
                        first = res.err();
                    }
                }
                first
            }
        }
    }
}

/// Exploration parameters.
#[derive(Debug, Clone)]
pub struct ExploreParams {
    /// Maximum number of operations from the initial state.
    pub max_depth: usize,
    /// Hard cap on visited states (exploration stops cleanly at the cap).
    pub max_states: usize,
    /// The reconfiguration guard in force.
    pub guard: ReconfigGuard,
    /// Whether `reconfig` transitions are explored at all (`false` yields
    /// the CADO system).
    pub with_reconfig: bool,
    /// Extra node ids beyond the initial members (candidates for addition).
    pub spare_nodes: u32,
    /// Invariants evaluated per state.
    pub suite: InvariantSuite,
    /// Whether to collect an [`ExploreProfile`] (per-lemma evaluation
    /// counters, per-kind transition counters, quorum-check counts,
    /// states/sec). Off by default: profiling costs one counter bump per
    /// evaluation and transition.
    pub profile: bool,
}

impl Default for ExploreParams {
    fn default() -> Self {
        ExploreParams {
            max_depth: 6,
            max_states: 200_000,
            guard: ReconfigGuard::all(),
            with_reconfig: true,
            spare_nodes: 1,
            suite: InvariantSuite::SafetyOnly,
            profile: false,
        }
    }
}

/// Outcome of an exhaustive exploration.
#[derive(Debug, Clone)]
pub struct ExploreReport<C, M> {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken (including ones leading to known states).
    pub transitions: u64,
    /// Deepest level completely explored.
    pub depth_reached: usize,
    /// Whether the state cap cut the exploration short.
    pub truncated: bool,
    /// Wall-clock time spent.
    pub elapsed: Duration,
    /// The first violation found, with its shortest trace.
    pub violation: Option<(Violation, Vec<CheckerOp<C, M>>)>,
    /// The run's profile, when [`ExploreParams::profile`] was set.
    pub profile: Option<ExploreProfile>,
}

impl<C, M> ExploreReport<C, M> {
    /// Whether every visited state satisfied the invariant suite.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.violation.is_none()
    }
}

/// The canonical method symbol used for `invoke` transitions.
///
/// Methods are opaque identifiers with no bearing on safety (§3), so
/// exploring a single symbol covers every behavior up to method renaming —
/// an exponential reduction with no loss for the properties checked.
pub const CANONICAL_METHOD: &str = "m";

/// All valid transitions out of `st`.
#[must_use]
pub fn successors<C>(
    st: &AdoreState<C, &'static str>,
    params: &ExploreParams,
    universe: &adore_core::NodeSet,
) -> Vec<CheckerOp<C, &'static str>>
where
    C: Configuration + ReconfigSpace,
{
    let mut ops = Vec::new();
    for &caller in universe {
        for decision in adore_core::enumerate::pull_decisions(st, caller) {
            ops.push(CheckerOp::Pull { caller, decision });
        }
        for decision in adore_core::enumerate::push_decisions(st, caller) {
            ops.push(CheckerOp::Push { caller, decision });
        }
        // Invoke/reconfig are only enabled for current leaders; apply()
        // filters, but pre-filtering here keeps the branching factor low.
        if let Some(active) = st.active_cache(caller) {
            if st.is_leader(caller, st.cache(active).time()) {
                ops.push(CheckerOp::Invoke {
                    caller,
                    method: CANONICAL_METHOD,
                });
                if params.with_reconfig {
                    let current = st.cache(active).config().clone();
                    for cand in current.candidates(universe) {
                        ops.push(CheckerOp::Reconfig {
                            caller,
                            new_config: cand,
                        });
                    }
                }
            }
        }
    }
    ops
}

/// Exhaustively explores the system from `conf0`, checking invariants at
/// every state.
///
/// # Examples
///
/// ```
/// use adore_checker::{explore, ExploreParams, InvariantSuite};
/// use adore_core::ReconfigGuard;
/// use adore_schemes::SingleNode;
///
/// let params = ExploreParams {
///     max_depth: 3,
///     with_reconfig: false,
///     ..ExploreParams::default()
/// };
/// let report = explore(&SingleNode::new([1, 2]), &params);
/// assert!(report.is_safe());
/// assert!(report.states > 1);
/// ```
#[must_use]
pub fn explore<C>(conf0: &C, params: &ExploreParams) -> ExploreReport<C, &'static str>
where
    C: Configuration + ReconfigSpace,
{
    #[allow(
        clippy::disallowed_types,
        reason = "wall-clock timing reported in ExploreReport::elapsed only; never affects exploration order or results"
    )]
    let start = std::time::Instant::now();
    let initial: AdoreState<C, &'static str> = AdoreState::new(conf0.clone());
    let mut universe = conf0.members();
    let max = universe.iter().map(|n| n.0).max().unwrap_or(0);
    for extra in 1..=params.spare_nodes {
        universe.insert(NodeId(max + extra));
    }

    // Visited states -> index into `trace_info` for counterexample
    // reconstruction. Ordered map so exploration is deterministic (L1);
    // it is only probed, never iterated, so the swap from hashing cannot
    // change which states are visited.
    let mut visited: BTreeMap<AdoreState<C, &'static str>, usize> = BTreeMap::new();
    // (parent index, op leading here); the initial state has no parent.
    let mut trace_info: Vec<Option<(usize, CheckerOp<C, &'static str>)>> = vec![None];
    let mut queue: VecDeque<(AdoreState<C, &'static str>, usize, usize)> = VecDeque::new();

    let mut report = ExploreReport {
        states: 1,
        transitions: 0,
        depth_reached: 0,
        truncated: false,
        elapsed: Duration::ZERO,
        violation: None,
        profile: None,
    };

    // The profiler's quorum counter is process-global (the telemetry
    // module in adore-core), so record the delta over this run only.
    let mut metrics = if params.profile {
        Some(Metrics::new())
    } else {
        None
    };
    let quorum_base = telemetry::quorum_checks();
    let check = |st: &AdoreState<C, &'static str>, metrics: &mut Option<Metrics>| match metrics {
        Some(m) => params.suite.check_counted(st, m),
        None => params.suite.check(st),
    };

    if let Some(v) = check(&initial, &mut metrics) {
        report.violation = Some((v, Vec::new()));
        report.elapsed = start.elapsed();
        if let Some(mut m) = metrics {
            m.add("quorum.checks", telemetry::quorum_checks() - quorum_base);
            report.profile = Some(ExploreProfile::new(&m, report.states, report.elapsed));
        }
        return report;
    }
    visited.insert(initial.clone(), 0);
    queue.push_back((initial, 0, 0));

    'bfs: while let Some((st, depth, index)) = queue.pop_front() {
        report.depth_reached = report.depth_reached.max(depth);
        if depth == params.max_depth {
            continue;
        }
        for op in successors(&st, params, &universe) {
            let mut next = st.clone();
            if !op.apply(&mut next, params.guard) {
                continue;
            }
            report.transitions += 1;
            if let Some(m) = metrics.as_mut() {
                m.inc(&format!("transition.{}", op.kind_name()));
            }
            if visited.contains_key(&next) {
                continue;
            }
            let next_index = trace_info.len();
            trace_info.push(Some((index, op.clone())));
            if let Some(v) = check(&next, &mut metrics) {
                // Reconstruct the shortest trace to the violation.
                let mut ops = Vec::new();
                let mut cur = next_index;
                while let Some((parent, op)) = &trace_info[cur] {
                    ops.push(op.clone());
                    cur = *parent;
                }
                ops.reverse();
                report.violation = Some((v, ops));
                break 'bfs;
            }
            visited.insert(next.clone(), next_index);
            report.states += 1;
            if report.states >= params.max_states {
                report.truncated = true;
                break 'bfs;
            }
            queue.push_back((next, depth + 1, next_index));
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
    fn cado_two_nodes_is_safe_and_finite_per_depth() {
        let params = ExploreParams {
            max_depth: 4,
            with_reconfig: false,
            spare_nodes: 0,
            suite: InvariantSuite::Full,
            ..ExploreParams::default()
        };
        let report = explore(&SingleNode::new([1, 2]), &params);
        assert!(report.is_safe(), "{:?}", report.violation);
        assert!(!report.truncated);
        assert!(report.states > 10);
    }

    #[test]
    fn sound_guard_three_nodes_with_reconfig_is_safe() {
        let params = ExploreParams {
            max_depth: 4,
            spare_nodes: 1,
            suite: InvariantSuite::Full,
            ..ExploreParams::default()
        };
        let report = explore(&SingleNode::new([1, 2, 3]), &params);
        assert!(report.is_safe(), "{:?}", report.violation);
    }

    #[test]
    fn reconfig_increases_the_state_space() {
        let base = ExploreParams {
            max_depth: 4,
            spare_nodes: 1,
            ..ExploreParams::default()
        };
        let cado = explore(
            &SingleNode::new([1, 2]),
            &ExploreParams {
                with_reconfig: false,
                ..base.clone()
            },
        );
        let adore = explore(&SingleNode::new([1, 2]), &base);
        assert!(adore.states > cado.states);
    }

    #[test]
    fn profiling_reports_hottest_invariants_and_transitions() {
        let params = ExploreParams {
            max_depth: 4,
            spare_nodes: 1,
            suite: InvariantSuite::Full,
            profile: true,
            ..ExploreParams::default()
        };
        let report = explore(&SingleNode::new([1, 2, 3]), &params);
        let profile = report.profile.expect("profile requested");
        // Every lemma of the full suite was evaluated at every state.
        let hot = profile.hottest_invariants();
        assert_eq!(hot.len(), adore_core::invariants::LEMMA_NAMES.len());
        assert!(hot.iter().all(|(_, n)| *n as usize == report.states));
        // The transition mix covers the whole alphabet, pulls hottest
        // (every node can always campaign).
        let kinds = profile.hottest_transitions();
        assert_eq!(kinds.first().map(|(k, _)| *k), Some("pull"));
        let total: u64 = kinds.iter().map(|(_, n)| n).sum();
        assert_eq!(total, report.transitions);
        assert!(profile.quorum_checks() > 0);
        // Unprofiled runs carry no registry.
        let plain = explore(
            &SingleNode::new([1, 2, 3]),
            &ExploreParams {
                profile: false,
                ..params
            },
        );
        assert!(plain.profile.is_none());
        assert_eq!(plain.states, report.states);
    }

    #[test]
    fn exploration_respects_the_state_cap() {
        let params = ExploreParams {
            max_depth: 10,
            max_states: 500,
            ..ExploreParams::default()
        };
        let report = explore(&SingleNode::new([1, 2, 3]), &params);
        assert!(report.truncated);
        assert!(report.states <= 500);
    }
}
