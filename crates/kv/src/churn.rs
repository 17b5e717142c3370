//! Availability under replica churn: why reconfiguration exists.
//!
//! The paper's opening motivation: "server failures are inevitable in
//! distributed settings, so a method for safely and efficiently adjusting
//! the membership is essential" (§1). This module makes that claim
//! measurable: replicas crash permanently one by one while a closed-loop
//! client keeps writing. **Without** reconfiguration the cluster dies as
//! soon as a majority of the *original* membership is gone; **with** hot
//! reconfiguration the leader votes crashed members out and spares in,
//! and service continues indefinitely.

use adore_core::{NodeId, NodeSet, ReconfigGuard};
use adore_schemes::SingleNode;

use crate::command::KvCommand;
use crate::sim::{Cluster, ClusterError, LatencyModel};

/// Parameters for a churn run.
#[derive(Debug, Clone)]
pub struct ChurnParams {
    /// Requests between permanent crashes.
    pub crash_every: usize,
    /// Whether the leader repairs the membership (votes the crashed node
    /// out and a spare in) after each crash.
    pub repair: bool,
    /// Spare node ids available for repair.
    pub spares: Vec<u32>,
    /// Requests to attempt in total.
    pub total_requests: usize,
    /// The latency model.
    pub latency: LatencyModel,
}

impl Default for ChurnParams {
    fn default() -> Self {
        ChurnParams {
            crash_every: 50,
            repair: true,
            spares: (6..=20).collect(),
            total_requests: 400,
            latency: LatencyModel::default(),
        }
    }
}

/// Outcome of a churn run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChurnReport {
    /// Requests committed before the run ended.
    pub completed: usize,
    /// Crashes injected.
    pub crashes: usize,
    /// Leader failovers performed.
    pub failovers: usize,
    /// Membership repairs (remove + add pairs) performed.
    pub repairs: usize,
    /// The request index at which the cluster became permanently
    /// unavailable, if it did.
    pub unavailable_at: Option<usize>,
}

/// Runs the churn workload on a five-node cluster.
///
/// Crashes strike the highest-numbered live member (periodically the
/// leader itself, forcing a failover). With `repair`, the leader removes
/// the crashed node and adds a spare, one single-node step each.
///
/// # Examples
///
/// ```
/// use adore_kv::{run_churn, ChurnParams};
///
/// let params = ChurnParams { crash_every: 30, total_requests: 150, ..ChurnParams::default() };
/// let with_repair = run_churn(&params, 1);
/// assert_eq!(with_repair.unavailable_at, None);
///
/// let without = run_churn(&ChurnParams { repair: false, ..params }, 1);
/// assert!(without.unavailable_at.is_some());
/// ```
#[must_use]
pub fn run_churn(params: &ChurnParams, seed: u64) -> ChurnReport {
    let conf0 = SingleNode::new(1..=5);
    let (guard, latency) = (ReconfigGuard::all(), params.latency.clone());
    let mut cluster = Cluster::build(conf0, &params.spares, guard, latency, seed);
    let mut report = ChurnReport {
        completed: 0,
        crashes: 0,
        failovers: 0,
        repairs: 0,
        unavailable_at: None,
    };
    let mut crashed: Vec<NodeId> = Vec::new();
    let mut spares: Vec<u32> = params.spares.clone();
    if cluster.elect(NodeId(1)).is_err() {
        report.unavailable_at = Some(0);
        return report;
    }
    // The membership as last seen through a leader: failover candidates.
    let mut members = cluster.members().unwrap_or_default();

    /// Elects any live member as leader; `None` if nobody can win.
    fn failover(cluster: &mut Cluster, members: &NodeSet, crashed: &[NodeId]) -> Option<NodeId> {
        for &candidate in members.iter().filter(|n| !crashed.contains(n)) {
            // Up to a few timestamp bumps: votes can be split briefly.
            for _ in 0..4 {
                if cluster.elect(candidate).is_ok() {
                    return Some(candidate);
                }
            }
        }
        None
    }

    for i in 0..params.total_requests {
        // Inject a permanent crash every `crash_every` requests.
        if i > 0 && i % params.crash_every == 0 {
            let leader = cluster.leader();
            let victim = members.iter().copied().filter(|n| !crashed.contains(n)).max();
            if let Some(victim) = victim {
                cluster.fail(victim);
                crashed.push(victim);
                report.crashes += 1;
                if Some(victim) == leader {
                    match failover(&mut cluster, &members, &crashed) {
                        Some(_) => report.failovers += 1,
                        None => {
                            report.unavailable_at = Some(i);
                            return report;
                        }
                    }
                }
                if params.repair {
                    // Vote the victim out, then a spare in. R3 holds: the
                    // current term has committed entries (or we commit one).
                    if cluster.submit(KvCommand::put("repair", "barrier")).is_err() {
                        report.unavailable_at = Some(i);
                        return report;
                    }
                    report.completed += 1;
                    let without = SingleNode::from_set(
                        members.iter().copied().filter(|n| *n != victim).collect(),
                    );
                    if cluster.reconfigure(without.clone()).is_err() {
                        report.unavailable_at = Some(i);
                        return report;
                    }
                    if let Some(spare) = spares.pop() {
                        cluster.recover(NodeId(spare));
                        if cluster.reconfigure(without.with(NodeId(spare))).is_err() {
                            report.unavailable_at = Some(i);
                            return report;
                        }
                    }
                    members = cluster.members().unwrap_or_default();
                    report.repairs += 1;
                }
            }
        }
        match cluster.submit(KvCommand::put(format!("k{i}"), "v")) {
            Ok(_) => report.completed += 1,
            Err(ClusterError::NoLeader) => match failover(&mut cluster, &members, &crashed) {
                Some(_) => {
                    report.failovers += 1;
                    if cluster.submit(KvCommand::put(format!("k{i}"), "v")).is_ok() {
                        report.completed += 1;
                    } else {
                        report.unavailable_at = Some(i);
                        return report;
                    }
                }
                None => {
                    report.unavailable_at = Some(i);
                    return report;
                }
            },
            Err(_) => {
                report.unavailable_at = Some(i);
                return report;
            }
        }
    }
    debug_assert!(cluster.verify().is_ok());
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn repair_keeps_the_cluster_available_through_many_crashes() {
        let report = run_churn(
            &ChurnParams {
                crash_every: 40,
                total_requests: 400,
                ..ChurnParams::default()
            },
            7,
        );
        assert_eq!(report.unavailable_at, None, "{report:?}");
        assert!(report.crashes >= 5, "{report:?}");
        assert_eq!(report.repairs, report.crashes);
        assert!(report.completed >= 400);
    }

    #[test]
    fn without_repair_the_third_crash_is_fatal() {
        let report = run_churn(
            &ChurnParams {
                crash_every: 40,
                repair: false,
                total_requests: 400,
                ..ChurnParams::default()
            },
            7,
        );
        // Five nodes tolerate two crashes; the third starves every quorum.
        assert_eq!(report.crashes, 3, "{report:?}");
        assert!(report.unavailable_at.is_some(), "{report:?}");
        assert!(report.completed < 400);
    }

    #[test]
    fn leader_crashes_trigger_failovers() {
        // Crash victims are the highest-numbered members; make the leader
        // the victim by electing S5 first.
        let params = ChurnParams {
            crash_every: 30,
            total_requests: 200,
            ..ChurnParams::default()
        };
        let report = run_churn(&params, 3);
        assert_eq!(report.unavailable_at, None, "{report:?}");
    }
}
