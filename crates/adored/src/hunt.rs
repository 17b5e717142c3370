//! `adored hunt` — the netmesis campaign driver.
//!
//! Walks nemesis [`FaultSchedule`]s against a *real* cluster with one
//! exhaustive `match` on [`Fault`] — no second fault vocabulary, so a
//! new variant does not compile until it has a meaning on the wire.
//! Every peer link runs through a fault-injecting proxy
//! ([`adored::proxy`]), process faults land as real signals (`SIGKILL`,
//! `SIGSTOP`/`SIGCONT`), each fault is due at the sum of the earlier
//! faults' [`dwell_ms`] and is journaled as the same `FaultInject` JSON
//! the simulator writes, and an availability monitor
//! ([`adored::monitor`]) drives sessioned writes whose acks become
//! audit obligations. Each run is a body between
//! [`LiveRun::boot`] and [`LiveRun::close`], which reads every written
//! key once more, merges every journal (nodes, monitor, driver) and
//! audits the trace with `adore-obs`: zero acked-write loss, zero
//! duplicate applies, committed-prefix agreement, and a linearizable
//! client history.
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
//!   [`NetCounterexample`] with a sim-twin ddmin minimization. `ci.sh`
//!   runs it as the live negative control.

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use adore_nemesis::{
    dwell_ms, gate_schedules, netmesis_schedule, r1_ablation_schedule, swap_labels, Counterexample,
    Fault, FaultSchedule, NetCounterexample,
};
use adore_obs::{to_jsonl, EventKind};
use adored::client::{ClientParams, NetClient};
use adored::node::now_us;

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
        acked: monitor.map_or(0, |m| m.acked),
        refused: monitor.map_or(0, |m| m.refused),
        lost: monitor.map_or(0, |m| m.lost),
        crc_rejections: count_crc_rejections(&live),
        proxy_forwarded: live.proxy.forwarded,
        proxy_corrupted: live.proxy.corrupted,
        proxy_dropped: live.proxy.dropped,
        proxy_resets: live.proxy.resets,
        audit_events: live.batch.events,
        online_certified: live.online.as_ref().is_some_and(|o| o.report.consistent),
        online_events: live.online.as_ref().map_or(0, |o| o.report.events),
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

/// Boots a proxied cluster, enacts the schedule's faults under the
/// availability monitor, and closes the run out.
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
            backoff_base_us: 20_000,
            backoff_cap_us: 300_000,
            request_timeout: Duration::from_millis(1_500),
        },
    );
    let problems = enact_schedule(enacted, &mut live, &mut client);
    live.close(problems, 0)
}

fn count_crc_rejections(live: &Closed) -> u64 {
    live.events
        .iter()
        .filter(|ev| matches!(&ev.kind, EventKind::BadFrame { reason, .. } if reason == "corrupt"))
        .count() as u64
}

// ---- fault enactment -----------------------------------------------------

/// Walks the schedule's faults against the live cluster, each at the
/// sum of the earlier faults' [`dwell_ms`], and returns the hard
/// failures. Soft faults (an exhausted burst write) are availability
/// costs, not errors; a reconfiguration that cannot complete is an
/// error because the rest of the schedule depends on it.
fn enact_schedule(
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
        return vec!["a fault schedule needs the proxied topology".to_string()];
    };
    let started = Instant::now();
    let mut problems = Vec::new();
    let mut members: Vec<u32> = schedule.members.clone();
    let mut burst_no: u64 = 0;
    let mut due = Duration::ZERO;
    let mut at = 0;
    while let Some(fault) = schedule.faults.get(at).cloned() {
        at += 1;
        thread::sleep(due.saturating_sub(started.elapsed()));
        due += Duration::from_millis(dwell_ms(&fault));
        if let Ok(fault_json) = serde_json::to_string(&fault) {
            driver.record(EventKind::FaultInject { fault: fault_json });
        }
        let every_link = |set: &dyn Fn(u32, u32)| {
            for &from in &schedule.members {
                for &to in schedule.members.iter().filter(|&&to| to != from) {
                    set(from, to);
                }
            }
        };
        let mut walk_to = None;
        match &fault {
            Fault::CutOneWay { from, to } => proxy.cut_one_way(*from, *to),
            Fault::CutBothWays { a, b } => proxy.cut_both_ways(*a, *b),
            Fault::HealOneWay { from, to } => proxy.heal_one_way(*from, *to),
            Fault::Partition { groups } => {
                proxy.heal_all();
                proxy.partition(groups);
            }
            Fault::HealAll => {
                proxy.heal_all();
                driver.record(EventKind::Heal);
            }
            Fault::SetLinkLoss { from, to, pct } => proxy.set_loss(*from, *to, *pct),
            Fault::SetLoss { pct } => every_link(&|from, to| proxy.set_loss(from, to, *pct)),
            Fault::Reorder { .. } => every_link(&|from, to| proxy.set_reorder(from, to, 30)),
            Fault::CorruptLink { from, to, pct } => proxy.set_corrupt(*from, *to, *pct),
            Fault::SlowLink { from, to } => proxy.set_slow(*from, *to, true),
            Fault::ResetLink { from, to } => proxy.reset(*from, *to),
            // The harness cannot reach inside a node's WAL to tear or
            // flip records: a disk-faulted crash is a plain kill (the
            // storage faults keep their sim-only certification).
            Fault::Crash { nid } | Fault::CrashDisk { nid, .. } => harness.kill(*nid),
            Fault::CrashLeader => {
                if let Ok(leader) = harness.wait_for_leader() {
                    harness.kill(leader);
                }
            }
            Fault::Recover { nid } => {
                let _ = harness.spawn(*nid);
            }
            Fault::Pause { nid } => harness.pause(*nid),
            Fault::Resume { nid } => harness.resume(*nid),
            Fault::Reconfig { members: target } => walk_to = Some(target.clone()),
            Fault::ReconfigAdd { nid } => {
                let mut target = members.clone();
                if !target.contains(nid) {
                    target.push(*nid);
                    target.sort_unstable();
                }
                walk_to = Some(target);
            }
            Fault::ReconfigRemove { nid } => {
                walk_to = Some(members.iter().copied().filter(|n| n != nid).collect());
            }
            Fault::Elect { nid } => {
                // The schedule assumes `nid` leads from here on; the
                // wire elects whom it likes. Aim the rest of the
                // schedule at the actual winner, as boot aimed label 1
                // at the first one.
                if let Some(winner) = harness.await_election() {
                    schedule = swap_labels(&schedule, *nid, winner);
                }
            }
            Fault::ClientBurst { writes } => {
                for _ in 0..*writes {
                    burst_no += 1;
                    let key = format!("hb-{}-{burst_no}", schedule.seed);
                    let value = format!("hv{burst_no}");
                    // An exhausted or refused write under active
                    // faults is an availability cost, not a safety
                    // problem: it stays pending in the history.
                    let invoked_at_us = now_us();
                    let result = client.put(&key, &value);
                    let at = (invoked_at_us, now_us());
                    driver.put(client.client_id(), (&key, &value), at, &result);
                }
            }
            Fault::Idle { .. } => thread::sleep(Duration::from_millis(dwell_ms(&fault))),
            // Not enactable from outside the process (see `dwell_ms`).
            Fault::Duplicate { .. } | Fault::OrphanWrite | Fault::SkewTimeout { .. } => {}
        }
        // A membership change that fails is held against the run (the
        // schedule's later faults assume it happened).
        if let Some(target) = walk_to {
            if let Err(e) = reconfigure(client, &target) {
                problems.push(e);
            }
            members = target;
        }
    }
    problems
}
