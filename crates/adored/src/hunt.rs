//! `adored hunt` — the netmesis campaign driver.
//!
//! Compiles nemesis [`FaultSchedule`]s into [`WireTimeline`]s and
//! enacts them against a *real* cluster: every peer link runs through a
//! fault-injecting proxy ([`adored::proxy`]), process faults land as
//! real signals (`SIGKILL`, `SIGSTOP`/`SIGCONT`), and an availability
//! monitor ([`adored::monitor`]) drives sessioned writes whose acks
//! become audit obligations. Each run is a body between
//! [`LiveRun::boot`] and [`LiveRun::close`], which reads every acked
//! key back, merges every journal (nodes, monitor, driver) and audits
//! the trace with `adore-obs`: zero acked-write loss, zero duplicate
//! applies, committed-prefix agreement.
//!
//! Three modes:
//!
//! - `--seeds N` (default): the 25-seed campaign of
//!   [`netmesis_schedule`]s — a kill -9 and WAL restart of the first
//!   leader, then partitions, gray pauses, corruption and resets, each
//!   overlapping a live 5→3→5 reconfiguration walk.
//! - `--gate`: the two fixed 3-node [`gate_schedules`], bounded for CI.
//! - `--ablate r1`: boots the cluster with `--ablate-guard r1`, aims
//!   the canonical R1⁺-ablation schedule at the live leader, expects
//!   the audit to catch the divergence, and persists a replayable
//!   [`NetCounterexample`] with a sim-twin ddmin minimization.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use adore_nemesis::{
    compile_schedule, gate_schedules, netmesis_schedule, r1_ablation_schedule, swap_labels,
    Counterexample, Fault, FaultSchedule, NetCounterexample, WireAction,
};
use adore_obs::{to_jsonl, EventKind};
use adored::client::{ClientParams, NetClient};

use crate::live::{reconfigure, Closed, LiveRun};
use crate::Args;

pub(crate) fn cmd_hunt(args: &[String]) -> crate::CmdResult {
    let mut args = Args::new(args);
    let gate = args.flag("--gate");
    let ablate = args.value("--ablate");
    let seeds = args.u64("--seeds", 25)?;
    let base = args.u64("--seed", 0)?;
    let dir = args
        .value("--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("target/hunt-{}", std::process::id())));
    // The CI gate keeps its report beside its journals so it never
    // clobbers the full campaign's results/BENCH_netmesis.json.
    let out = args.value("--out").map(PathBuf::from).unwrap_or_else(|| {
        if gate {
            dir.join("gate_report.json")
        } else {
            PathBuf::from("results/BENCH_netmesis.json")
        }
    });
    args.finish()?;

    if let Some(cond) = ablate {
        return Ok(match hunt_ablated(&cond, &dir) {
            Ok(artifact) => {
                println!("hunt: counterexample artifact at {}", artifact.display());
                0
            }
            Err(e) => {
                eprintln!("hunt --ablate {cond}: FAIL: {e}");
                1
            }
        });
    }

    let schedules: Vec<FaultSchedule> = if gate {
        gate_schedules()
    } else {
        (0..seeds).map(|i| netmesis_schedule(base + i)).collect()
    };
    Ok(match campaign(&schedules, &dir, &out) {
        Ok(()) => {
            println!("hunt: PASS");
            0
        }
        Err(e) => {
            eprintln!("hunt: FAIL: {e}");
            1
        }
    })
}

// ---- campaign orchestration ---------------------------------------------

/// Per-seed results serialized into `results/BENCH_netmesis.json`.
#[derive(serde::Serialize)]
struct SeedResult {
    name: String,
    seed: u64,
    pass: bool,
    violation: Option<String>,
    attempted: u64,
    acked: u64,
    refused: u64,
    lost: u64,
    crc_rejections: u64,
    proxy_forwarded: u64,
    proxy_corrupted: u64,
    proxy_dropped: u64,
    proxy_resets: u64,
    audit_events: usize,
    /// The live collector's verdict, raised while the run was still
    /// going (vs. the batch audit after the fact).
    online_certified: bool,
    online_events: usize,
    /// Export-channel events shed under backpressure, all accounted by
    /// `TraceDropped` markers in the online stream.
    trace_dropped: u64,
    elapsed_ms: u64,
}

#[derive(serde::Serialize)]
struct CampaignReport {
    name: &'static str,
    seeds: Vec<SeedResult>,
    passed: usize,
    failed: usize,
    crc_rejections_total: u64,
}

fn campaign(schedules: &[FaultSchedule], dir: &Path, out: &Path) -> Result<(), String> {
    let mut results = Vec::new();
    for schedule in schedules {
        let seed_dir = dir.join(&schedule.name);
        let started = Instant::now();
        println!(
            "hunt: {} ({} faults, {} members)...",
            schedule.name,
            schedule.faults.len(),
            schedule.members.len()
        );
        let outcome = run_live(schedule, &seed_dir, &[]);
        let result = seal_result(schedule, outcome, started, &seed_dir)?;
        println!(
            "hunt: {} -> {} ({} acked, {} refused, {} lost, {} crc rejections, {}ms)",
            result.name,
            if result.pass { "SAFE" } else { "VIOLATION" },
            result.acked,
            result.refused,
            result.lost,
            result.crc_rejections,
            result.elapsed_ms
        );
        results.push(result);
    }
    let passed = results.iter().filter(|r| r.pass).count();
    let failed = results.len() - passed;
    let crc_total: u64 = results.iter().map(|r| r.crc_rejections).sum();
    let report = CampaignReport {
        name: "BENCH_netmesis",
        seeds: results,
        passed,
        failed,
        crc_rejections_total: crc_total,
    };
    adore_obs::write_json_report(out, &report).map_err(|e| e.to_string())?;
    println!(
        "hunt: {passed}/{} seeds safe, {crc_total} crc rejections -> {}",
        passed + failed,
        out.display()
    );
    if failed > 0 {
        return Err(format!("{failed} seed(s) violated safety"));
    }
    if crc_total == 0 {
        return Err("no crc rejection observed: the corruption path never fired".to_string());
    }
    Ok(())
}

/// Finalizes one seed: computes pass/fail, persists a counterexample
/// artifact on failure.
fn seal_result(
    schedule: &FaultSchedule,
    outcome: Result<Closed, String>,
    started: Instant,
    seed_dir: &Path,
) -> Result<SeedResult, String> {
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    let live = outcome.map_err(|e| format!("{}: harness error: {e}", schedule.name))?;
    let violation = live.violation();
    if let Some(violation) = &violation {
        let (artifact, _) = persist_counterexample(schedule, violation, &live, seed_dir)?;
        eprintln!("hunt: counterexample artifact at {}", artifact.display());
    }
    let monitor = live.monitor.as_ref();
    Ok(SeedResult {
        name: schedule.name.clone(),
        seed: schedule.seed,
        pass: violation.is_none(),
        violation,
        attempted: monitor.map_or(0, |m| m.attempted),
        acked: monitor.map_or(0, |m| m.acked.len() as u64),
        refused: monitor.map_or(0, |m| m.refused),
        lost: monitor.map_or(0, |m| m.lost),
        crc_rejections: count_crc_rejections(&live),
        proxy_forwarded: live.proxy.forwarded,
        proxy_corrupted: live.proxy.corrupted,
        proxy_dropped: live.proxy.dropped,
        proxy_resets: live.proxy.resets,
        audit_events: live.batch.events,
        online_certified: live.online.report.consistent,
        online_events: live.online.report.events,
        trace_dropped: live.online.dropped,
        elapsed_ms,
    })
}

/// Runs the sim twin of a failing schedule and persists the replayable
/// counterexample artifact; returns its path and the twin's verdict.
fn persist_counterexample(
    schedule: &FaultSchedule,
    violation: &str,
    live: &Closed,
    seed_dir: &Path,
) -> Result<(PathBuf, Option<Counterexample>), String> {
    // The sim twin: replay the same canonical schedule in the
    // simulator; when it reproduces a violation, ddmin-minimize it.
    let sim_twin = adore_nemesis::hunt(schedule, &adore_nemesis::EngineParams::default());
    let ce = NetCounterexample {
        schedule: schedule.clone(),
        violation: violation.to_string(),
        journal: to_jsonl(&live.events),
        sim_twin,
    };
    let path = seed_dir.join("counterexample.json");
    adore_obs::write_json_report(&path, &ce).map_err(|e| e.to_string())?;
    Ok((path, ce.sim_twin))
}

// ---- the ablated hunt ----------------------------------------------------

/// Boots a guard-ablated cluster, aims the canonical ablation schedule
/// at the live leader, and demands that the audit catch the resulting
/// divergence. Returns the artifact path.
fn hunt_ablated(cond: &str, dir: &Path) -> Result<PathBuf, String> {
    if cond != "r1" {
        return Err(format!("only --ablate r1 is supported (got {cond:?})"));
    }
    let canonical = r1_ablation_schedule();
    let seed_dir = dir.join("ablate-r1");
    let live = run_live(
        &canonical,
        &seed_dir,
        &["--ablate-guard".to_string(), "r1".to_string()],
    )?;
    let Some(violation) = live.violation() else {
        return Err(
            "the guard-ablated run stayed safe: the harness failed to reproduce the R1+ bug"
                .to_string(),
        );
    };
    println!("hunt: ablated run violated as expected: {violation}");
    let (artifact, twin) = persist_counterexample(&canonical, &violation, &live, &seed_dir)?;
    // The artifact is only replayable if the sim twin reproduced (and
    // minimized) the divergence from the same canonical schedule.
    let Some(twin) = twin else {
        return Err("sim twin did not reproduce the violation; artifact is not minimized".into());
    };
    println!(
        "hunt: sim twin minimized {} faults down to {}",
        canonical.faults.len(),
        twin.schedule.faults.len()
    );
    Ok(artifact)
}

// ---- one live run --------------------------------------------------------

/// Boots a proxied cluster, enacts the schedule's wire timeline under
/// the availability monitor, and closes the run out.
fn run_live(
    canonical: &FaultSchedule,
    seed_dir: &Path,
    extra_node_args: &[String],
) -> Result<Closed, String> {
    let mut live = LiveRun::boot(
        seed_dir,
        &canonical.name,
        &canonical.members,
        canonical.seed,
        true,
        extra_node_args,
    )?;
    // Aim the canonical schedule at the live topology: relabel so the
    // canonical "node 1" (the member the schedule assumes leads first)
    // is whichever node actually won the election. The *canonical*
    // schedule is what gets persisted and sim-replayed.
    let enacted = swap_labels(canonical, 1, live.first_leader);
    let mut client = live.harness.client(
        77,
        ClientParams {
            max_attempts: 6,
            backoff_base_ms: 20,
            backoff_cap_ms: 300,
            request_timeout: Duration::from_millis(1_500),
            max_redirect_hops: 3,
        },
    );
    let problems = enact_timeline(enacted, &mut live, &mut client);
    live.close(problems, 0)
}

fn count_crc_rejections(live: &Closed) -> u64 {
    live.events
        .iter()
        .filter(|ev| matches!(&ev.kind, EventKind::BadFrame { reason, .. } if reason == "corrupt"))
        .count() as u64
}

// ---- timeline enactment --------------------------------------------------

/// Compiles the schedule and walks its timeline against the live
/// cluster; returns the hard failures. Soft faults (an exhausted burst
/// write) are availability costs, not errors; a reconfiguration that
/// cannot complete is an error because the rest of the schedule depends
/// on it.
fn enact_timeline(
    mut schedule: FaultSchedule,
    live: &mut LiveRun,
    client: &mut NetClient,
) -> Vec<String> {
    let LiveRun {
        harness,
        proxy: Some(proxy),
        driver,
        ..
    } = live
    else {
        return vec!["a fault timeline needs the proxied topology".to_string()];
    };
    let started = Instant::now();
    let mut problems = Vec::new();
    let mut timeline = compile_schedule(&schedule);
    let mut members: Vec<u32> = schedule.members.clone();
    let mut burst_no: u64 = 0;
    let mut elections = 0;
    let mut at = 0;
    while let Some(step) = timeline.steps.get(at).cloned() {
        at += 1;
        let target = Duration::from_millis(step.at_ms);
        let elapsed = started.elapsed();
        if target > elapsed {
            thread::sleep(target - elapsed);
        }
        if let Ok(fault_json) = serde_json::to_string(&step.action) {
            driver.record(EventKind::FaultInject { fault: fault_json });
        }
        let mut walk_to = None;
        match &step.action {
            WireAction::Cut { from, to } => proxy.cut_one_way(*from, *to),
            WireAction::Heal { from, to } => proxy.heal_one_way(*from, *to),
            WireAction::Partition { groups } => {
                proxy.heal_all();
                proxy.partition(groups);
            }
            WireAction::HealAll => {
                proxy.heal_all();
                driver.record(EventKind::Heal);
            }
            WireAction::Loss { from, to, pct } => proxy.set_loss(*from, *to, *pct),
            WireAction::Corrupt { from, to, pct } => proxy.set_corrupt(*from, *to, *pct),
            WireAction::Delay {
                from,
                to,
                ms,
                jitter_ms,
            } => proxy.set_delay(*from, *to, *ms, *jitter_ms),
            WireAction::Reorder { from, to, pct } => proxy.set_reorder(*from, *to, *pct),
            WireAction::Slow { from, to } => proxy.set_slow(*from, *to, true),
            WireAction::Reset { from, to } => proxy.reset(*from, *to),
            WireAction::Kill { nid } => harness.kill(*nid),
            WireAction::KillLeader => {
                if let Ok(leader) = harness.wait_for_leader() {
                    harness.kill(leader);
                }
            }
            WireAction::Restart { nid } => {
                let _ = harness.spawn(*nid);
            }
            WireAction::Pause { nid } => harness.pause(*nid),
            WireAction::Resume { nid } => harness.resume(*nid),
            WireAction::Reconfig { members: target } => walk_to = Some(target.clone()),
            WireAction::ReconfigAdd { nid } => {
                let mut target = members.clone();
                if !target.contains(nid) {
                    target.push(*nid);
                    target.sort_unstable();
                }
                walk_to = Some(target);
            }
            WireAction::ReconfigRemove { nid } => {
                walk_to = Some(members.iter().copied().filter(|n| n != nid).collect());
            }
            WireAction::AwaitElection => {
                // An `Elect` names who the schedule assumes leads from
                // here on; the wire elects whom it likes. Aim the rest
                // of the schedule at the actual winner, as boot aimed
                // label 1 at the first one.
                let mut elects = schedule.faults.iter().filter_map(|f| match f {
                    Fault::Elect { nid } => Some(*nid),
                    _ => None,
                });
                if let (Some(expected), Some(winner)) =
                    (elects.nth(elections), harness.await_election())
                {
                    schedule = swap_labels(&schedule, expected, winner);
                    timeline = compile_schedule(&schedule);
                }
                elections += 1;
            }
            WireAction::Burst { writes } => {
                for _ in 0..*writes {
                    burst_no += 1;
                    let key = format!("hb-{}-{burst_no}", schedule.seed);
                    let value = format!("hv{burst_no}");
                    // An exhausted or refused write under active
                    // faults is an availability cost, not a safety
                    // problem: nothing was acked, nothing is owed.
                    if let Ok(acked) = client.put(&key, &value) {
                        driver.ack(client.client_id(), acked.seq, acked.duplicate, key, value);
                    }
                }
            }
            WireAction::Settle { ms } => thread::sleep(Duration::from_millis(*ms)),
        }
        // A membership change that fails is held against the run (the
        // schedule's later steps assume it happened).
        if let Some(target) = walk_to {
            if let Err(e) = reconfigure(client, &target) {
                problems.push(e);
            }
            members = target;
        }
    }
    problems
}
