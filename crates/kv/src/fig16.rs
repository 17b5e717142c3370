//! The Fig. 16 workload: latency under live reconfiguration.
//!
//! "The experiment reconfigures after every 1000 client requests, starting
//! with five nodes, dropping to three, then increasing back to five" (§7).
//! [`run_fig16`] reproduces that schedule on the simulated cluster; the
//! bench binary aggregates max/mean/min over eight seeded runs, exactly the
//! series the paper plots.
//!
//! A removed server is stopped, as a decommissioned one would be, and
//! restarted from its WAL as the growth begins: it refuses the leader's
//! first suffix and is shipped the whole log — the catch-up transfer
//! behind the growth spike. (The engines broadcast to their whole address
//! book, so a removed server left running stays current and its return
//! costs nothing.)

use adore_core::NodeId;
use adore_obs::{Histogram, HistogramSnapshot};
use adore_schemes::SingleNode;

use crate::command::KvCommand;
use crate::sim::{Cluster, ClusterError, LatencyModel};

/// Parameters for a Fig. 16 run.
#[derive(Debug, Clone)]
pub struct Fig16Params {
    /// Client requests per configuration phase (the paper uses 1000).
    pub requests_per_phase: usize,
    /// The latency model of the simulated network.
    pub latency: LatencyModel,
    /// Whether to record a trace journal of the run (off by default;
    /// tracing never perturbs the simulation, only costs wall time).
    pub tracing: bool,
}

impl Default for Fig16Params {
    fn default() -> Self {
        Fig16Params {
            requests_per_phase: 1000,
            latency: LatencyModel::default(),
            tracing: false,
        }
    }
}

/// One client request's measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestRecord {
    /// Global request index (0-based).
    pub index: usize,
    /// Latency in virtual microseconds.
    pub latency_us: u64,
    /// Cluster size while the request was served.
    pub cluster_size: usize,
}

/// A complete Fig. 16 run.
#[derive(Debug, Clone)]
pub struct Fig16Run {
    /// Per-request measurements, in submission order.
    pub records: Vec<RequestRecord>,
    /// `(request index, description)` of each reconfiguration step.
    pub reconfigs: Vec<(usize, String)>,
    /// Per-phase request-latency histograms, harvested after each phase:
    /// `(label, snapshot)`.
    pub phase_latency: Vec<(String, HistogramSnapshot)>,
    /// The run's trace journal (empty unless [`Fig16Params::tracing`]).
    pub trace: Vec<adore_obs::TraceEvent>,
}

/// Runs the 5 → 3 → 5 reconfiguration workload with a seeded simulated
/// network and returns per-request latencies.
///
/// The 5→3 and 3→5 transitions each take two single-node steps (the
/// single-node membership-change algorithm changes one server at a time).
///
/// # Errors
///
/// Propagates [`ClusterError`] if the simulation cannot make progress —
/// which does not happen for a loss-free latency model.
///
/// # Examples
///
/// ```
/// use adore_kv::{run_fig16, Fig16Params};
///
/// let run = run_fig16(&Fig16Params { requests_per_phase: 50, ..Fig16Params::default() }, 1)?;
/// assert_eq!(run.records.len(), 150);
/// assert_eq!(run.reconfigs.len(), 4);
/// # Ok::<(), adore_kv::ClusterError>(())
/// ```
pub fn run_fig16(params: &Fig16Params, seed: u64) -> Result<Fig16Run, ClusterError> {
    let mut cluster = Cluster::new(
        SingleNode::new([1, 2, 3, 4, 5]),
        params.latency.clone(),
        seed,
    );
    cluster.set_tracing(params.tracing);
    cluster.trace(adore_obs::EventKind::RunStart {
        name: format!("fig16-seed{seed}"),
        members: vec![1, 2, 3, 4, 5],
    });
    cluster.elect(NodeId(1))?;

    let mut run = Fig16Run {
        records: Vec::with_capacity(3 * params.requests_per_phase),
        reconfigs: Vec::new(),
        phase_latency: Vec::new(),
        trace: Vec::new(),
    };
    let mut index = 0usize;
    let serve_phase = |cluster: &mut Cluster,
                       run: &mut Fig16Run,
                       index: &mut usize|
     -> Result<(), ClusterError> {
        for i in 0..params.requests_per_phase {
            let latency_us = cluster.submit(KvCommand::put(
                format!("key{}", *index % 64),
                format!("v{i}"),
            ))?;
            run.records.push(RequestRecord {
                index: *index,
                latency_us,
                cluster_size: cluster.members().map_or(0, |m| m.len()),
            });
            *index += 1;
        }
        Ok(())
    };

    let harvest = |run: &mut Fig16Run, label: &str| {
        let mut hist = Histogram::default();
        let phase = run.records.len() - params.requests_per_phase..;
        for record in &run.records[phase] {
            hist.observe(record.latency_us);
        }
        run.phase_latency.push((label.to_string(), hist.snapshot()));
    };

    // Phase 1: five nodes.
    serve_phase(&mut cluster, &mut run, &mut index)?;
    harvest(&mut run, "phase 1 (5 nodes)");
    // Drop to three, one node at a time, stopping each removed server.
    cluster.reconfigure(SingleNode::new([1, 2, 3, 4]))?;
    cluster.fail(NodeId(5));
    run.reconfigs.push((index, "5→4: remove S5".to_string()));
    cluster.reconfigure(SingleNode::new([1, 2, 3]))?;
    cluster.fail(NodeId(4));
    run.reconfigs.push((index, "4→3: remove S4".to_string()));
    // Phase 2: three nodes.
    serve_phase(&mut cluster, &mut run, &mut index)?;
    harvest(&mut run, "phase 2 (3 nodes)");
    // Grow back to five: restart both servers, then re-add them.
    cluster.recover(NodeId(4));
    cluster.recover(NodeId(5));
    cluster.reconfigure(SingleNode::new([1, 2, 3, 4]))?;
    run.reconfigs.push((index, "3→4: add S4".to_string()));
    cluster.reconfigure(SingleNode::new([1, 2, 3, 4, 5]))?;
    run.reconfigs.push((index, "4→5: add S5".to_string()));
    // Phase 3: five nodes again.
    serve_phase(&mut cluster, &mut run, &mut index)?;
    harvest(&mut run, "phase 3 (5 nodes)");

    debug_assert!(cluster.verify().is_ok());
    if params.tracing {
        let committed = cluster.committed_len() as u64;
        cluster.trace(adore_obs::EventKind::Verdict {
            safe: cluster.verify().is_ok(),
            kind: None,
            detail: None,
            phase: 2,
        });
        cluster.trace(adore_obs::EventKind::RunEnd { committed });
        run.trace = cluster.take_trace();
    }
    Ok(run)
}

/// Aggregates several runs into per-request `(min, mean, max)` series —
/// the three curves of Fig. 16.
///
/// # Panics
///
/// Panics if `runs` is empty or the runs have different lengths.
#[must_use]
pub fn aggregate(runs: &[Fig16Run]) -> Vec<(u64, u64, u64)> {
    let n = runs.first().expect("at least one run").records.len();
    assert!(
        runs.iter().all(|r| r.records.len() == n),
        "runs must have equal length"
    );
    (0..n)
        .map(|i| {
            let lats: Vec<u64> = runs.iter().map(|r| r.records[i].latency_us).collect();
            let min = *lats.iter().min().expect("non-empty");
            let max = *lats.iter().max().expect("non-empty");
            let mean = lats.iter().sum::<u64>() / lats.len() as u64;
            (min, mean, max)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Fig16Params {
        Fig16Params {
            requests_per_phase: 120,
            ..Fig16Params::default()
        }
    }

    #[test]
    fn phases_have_the_right_sizes() {
        let run = run_fig16(&small(), 3).unwrap();
        assert_eq!(run.records.len(), 360);
        assert!(run.records[..120].iter().all(|r| r.cluster_size == 5));
        assert!(run.records[120..240].iter().all(|r| r.cluster_size == 3));
        assert!(run.records[240..].iter().all(|r| r.cluster_size == 5));
        assert_eq!(
            run.reconfigs.iter().map(|(i, _)| *i).collect::<Vec<_>>(),
            vec![120, 120, 240, 240]
        );
    }

    #[test]
    fn growth_spike_is_visible_at_the_3_to_5_transition() {
        // The first request after growing back to five waits behind the
        // catch-up transfers on the leader's egress link — or, when a
        // heartbeat falls between the two growth steps, the second step
        // waits instead. So, as the bench does, this reads the mean curve
        // over its eight seeds.
        let runs: Vec<Fig16Run> = (0..8).map(|s| run_fig16(&small(), s).unwrap()).collect();
        let agg = aggregate(&runs);
        let spike = agg[240].1;
        let steady: u64 = agg[300..360].iter().map(|a| a.1).sum::<u64>() / 60;
        assert!(
            spike > 2 * steady,
            "growth spike {spike}us vs steady {steady}us"
        );
    }

    #[test]
    fn phase_histograms_cover_every_request() {
        let run = run_fig16(&small(), 3).unwrap();
        assert_eq!(run.phase_latency.len(), 3);
        for (phase, (label, hist)) in run.phase_latency.iter().enumerate() {
            assert_eq!(
                hist.count, 120,
                "{label}: every request of the phase is sampled"
            );
            let records = &run.records[phase * 120..(phase + 1) * 120];
            let max = records.iter().map(|r| r.latency_us).max().unwrap();
            let min = records.iter().map(|r| r.latency_us).min().unwrap();
            assert_eq!((hist.min, hist.max), (min, max), "{label}");
            // Quantiles resolve to bucket upper bounds (so p99 may sit
            // above the exact max); only q = 1.0 is exact.
            assert!(hist.quantile(0.5) > 0);
            assert!(hist.quantile(0.99) >= hist.quantile(0.5));
            assert_eq!(hist.quantile(1.0), hist.max, "{label}");
        }
    }

    #[test]
    fn traced_runs_match_untraced_runs_and_audit_clean() {
        let plain = run_fig16(&small(), 5).unwrap();
        let traced = run_fig16(
            &Fig16Params {
                tracing: true,
                ..small()
            },
            5,
        )
        .unwrap();
        // Tracing is invisible to the simulation.
        assert_eq!(plain.records, traced.records);
        assert_eq!(plain.phase_latency, traced.phase_latency);
        assert!(plain.trace.is_empty());
        assert!(!traced.trace.is_empty());
        // The journal certifies: no structural errors, no divergence,
        // and the recorded verdict matches the audit's.
        let report = adore_obs::audit_events(&traced.trace);
        assert!(report.consistent, "errors: {:?}", report.errors);
        assert!(report.divergence.is_none());
        assert_eq!(report.live_safe, Some(true));
    }

    #[test]
    fn aggregation_orders_min_mean_max() {
        let runs: Vec<Fig16Run> = (0..4).map(|s| run_fig16(&small(), s).unwrap()).collect();
        let agg = aggregate(&runs);
        assert_eq!(agg.len(), 360);
        for (min, mean, max) in agg {
            assert!(min <= mean && mean <= max);
        }
    }
}
