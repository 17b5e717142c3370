//! `adored hunt` — the netmesis campaign driver.
//!
//! Compiles nemesis [`FaultSchedule`]s into [`WireTimeline`]s and
//! enacts them against a *real* cluster: every peer link runs through a
//! fault-injecting proxy ([`adored::proxy`]), process faults land as
//! real signals (`SIGKILL`, `SIGSTOP`/`SIGCONT`), and an availability
//! monitor ([`adored::monitor`]) drives sessioned writes whose acks
//! become audit obligations. After each run the driver merges every
//! journal (nodes, monitor, its own) and audits the trace with
//! `adore-obs`: zero acked-write loss, zero duplicate applies,
//! committed-prefix agreement.
//!
//! Three modes:
//!
//! - `--seeds N` (default): the 25-seed campaign of
//!   [`netmesis_schedule`]s — partitions, gray pauses, corruption,
//!   resets, each overlapping a live 5→3→5 reconfiguration walk.
//! - `--gate`: the fixed 3-node [`gate_schedule`], bounded for CI.
//! - `--ablate r1`: boots the cluster with `--ablate-guard r1`, aims
//!   the canonical R1⁺-ablation schedule at the live leader, expects
//!   the audit to catch the divergence, and persists a replayable
//!   [`NetCounterexample`] with a sim-twin ddmin minimization.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use adore_nemesis::{
    compile_schedule, gate_schedule, netmesis_schedule, r1_ablation_schedule, swap_labels,
    FaultSchedule, NetCounterexample, WireAction, WireTimeline,
};
use adore_obs::{audit_events, merge_journals, to_jsonl, EventKind, TraceEvent, Tracer};
use adored::client::{ClientError, ClientParams, NetClient};
use adored::collect::OnlineCollector;
use adored::export::ExportQueue;
use adored::monitor::{self, MonitorConfig, MonitorReport};
use adored::proxy::{LinkTally, ProxyNet};

use crate::{
    arg_flag, arg_u64, arg_value, duplicate_applies, now_us, pick_ports, rebuild_logs, Harness,
};

/// Peer read deadline handed to every hunted node: long enough that a
/// sub-second gray pause resumes on the same sockets.
const HUNT_PEER_DEADLINE_MS: u64 = 120_000;
/// Budget for waiting out a live election (`AwaitElection`).
const ELECTION_WAIT: Duration = Duration::from_secs(12);
/// Budget for driving one reconfiguration through transient refusals.
const RECONFIG_WAIT: Duration = Duration::from_secs(25);

pub(crate) fn cmd_hunt(args: &[String]) -> crate::CmdResult {
    let gate = arg_flag(args, "--gate");
    let ablate = arg_value(args, "--ablate");
    let seeds = arg_u64(args, "--seeds", 25)?;
    let base = arg_u64(args, "--seed", 0)?;
    let dir = arg_value(args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("target/hunt-{}", std::process::id())));
    // The CI gate keeps its report beside its journals so it never
    // clobbers the full campaign's results/BENCH_netmesis.json.
    let out = arg_value(args, "--out").map(PathBuf::from).unwrap_or_else(|| {
        if gate {
            dir.join("gate_report.json")
        } else {
            PathBuf::from("results/BENCH_netmesis.json")
        }
    });

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
        vec![gate_schedule()]
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
    outcome: Result<LiveOutcome, String>,
    started: Instant,
    seed_dir: &Path,
) -> Result<SeedResult, String> {
    let elapsed_ms = u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX);
    match outcome {
        Ok(live) => {
            let pass = live.violation.is_none();
            if let Some(violation) = &live.violation {
                let artifact = persist_counterexample(schedule, violation, &live.journal, seed_dir)?;
                eprintln!("hunt: counterexample artifact at {}", artifact.display());
            }
            Ok(SeedResult {
                name: schedule.name.clone(),
                seed: schedule.seed,
                pass,
                violation: live.violation,
                attempted: live.monitor.attempted,
                acked: live.monitor.acked.len() as u64,
                refused: live.monitor.refused,
                lost: live.monitor.lost,
                crc_rejections: live.crc_rejections,
                proxy_forwarded: live.proxy.forwarded,
                proxy_corrupted: live.proxy.corrupted,
                proxy_dropped: live.proxy.dropped,
                proxy_resets: live.proxy.resets,
                audit_events: live.audit_events,
                online_certified: live.online_certified,
                online_events: live.online_events,
                trace_dropped: live.trace_dropped,
                elapsed_ms,
            })
        }
        Err(e) => Err(format!("{}: harness error: {e}", schedule.name)),
    }
}

/// Runs the sim twin of a failing schedule and persists the replayable
/// counterexample artifact.
fn persist_counterexample(
    schedule: &FaultSchedule,
    violation: &str,
    journal: &str,
    seed_dir: &Path,
) -> Result<PathBuf, String> {
    // The sim twin: replay the same canonical schedule in the
    // simulator; when it reproduces a violation, ddmin-minimize it.
    let sim_twin = adore_nemesis::hunt(schedule, &adore_nemesis::EngineParams::default());
    let ce = NetCounterexample {
        schedule: schedule.clone(),
        violation: violation.to_string(),
        journal: journal.to_string(),
        sim_twin,
    };
    let path = seed_dir.join("counterexample.json");
    adore_obs::write_json_report(&path, &ce).map_err(|e| e.to_string())?;
    Ok(path)
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
    let Some(violation) = live.violation else {
        return Err(
            "the guard-ablated run stayed safe: the harness failed to reproduce the R1+ bug"
                .to_string(),
        );
    };
    println!("hunt: ablated run violated as expected: {violation}");
    let artifact = persist_counterexample(&canonical, &violation, &live.journal, &seed_dir)?;
    // The artifact is only replayable if the sim twin reproduced (and
    // minimized) the divergence from the same canonical schedule.
    let text = fs::read_to_string(&artifact).map_err(|e| e.to_string())?;
    let parsed: NetCounterexample = serde_json::from_str(&text).map_err(|e| e.to_string())?;
    let Some(twin) = parsed.sim_twin else {
        return Err("sim twin did not reproduce the violation; artifact is not minimized".into());
    };
    println!(
        "hunt: sim twin minimized {} faults down to {}",
        parsed.schedule.faults.len(),
        twin.schedule.faults.len()
    );
    Ok(artifact)
}

// ---- one live run --------------------------------------------------------

struct LiveOutcome {
    /// None when the run was safe; a description otherwise.
    violation: Option<String>,
    monitor: MonitorReport,
    proxy: LinkTally,
    /// `BadFrame { reason: "corrupt" }` events across all journals.
    crc_rejections: u64,
    audit_events: usize,
    /// The online collector certified the run (live T1–T7 verdict).
    online_certified: bool,
    online_events: usize,
    /// Exporter-shed events, accounted by `TraceDropped` markers.
    trace_dropped: u64,
    /// The merged JSONL journal.
    journal: String,
}

/// The driver's journal, written twice at once: into the batch tracer
/// (merged and audited after the run) and onto the collector's live
/// stream. One record call, two sinks, no divergence between them.
struct DriverLog {
    tracer: Tracer,
    tee: ExportQueue,
}

impl DriverLog {
    fn record(&mut self, at_us: u64, kind: EventKind) {
        self.tee.push(&TraceEvent::root(at_us, kind.clone()));
        self.tracer.record(at_us, kind);
    }

    fn to_jsonl(&self) -> String {
        self.tracer.to_jsonl()
    }
}

/// Boots a proxied cluster, enacts the schedule's wire timeline under
/// an availability monitor, quiesces, merges journals, audits.
#[allow(clippy::too_many_lines)]
fn run_live(
    canonical: &FaultSchedule,
    seed_dir: &Path,
    extra_node_args: &[String],
) -> Result<LiveOutcome, String> {
    fs::create_dir_all(seed_dir).map_err(|e| e.to_string())?;
    let nodes = canonical.members.len();
    let ports = pick_ports(nodes).map_err(|e| e.to_string())?;
    let addrs: BTreeMap<u32, String> = canonical
        .members
        .iter()
        .zip(&ports)
        .map(|(&n, p)| (n, format!("127.0.0.1:{p}")))
        .collect();
    let proxy = ProxyNet::new(&addrs, canonical.seed).map_err(|e| e.to_string())?;
    let node_peers: BTreeMap<u32, String> = addrs
        .keys()
        .map(|&n| (n, proxy.peers_spec_for(n)))
        .collect();
    let mut extra = vec![
        "--peer-deadline-ms".to_string(),
        HUNT_PEER_DEADLINE_MS.to_string(),
    ];
    extra.extend(extra_node_args.iter().cloned());
    let mut harness = Harness::start_with(seed_dir, addrs.clone(), node_peers, canonical.seed, extra)
        .map_err(|e| e.to_string())?;

    // The online plane: one live stream per node's export channel
    // (readers redial across restarts), plus local streams for the
    // driver's and the monitor's own journals.
    let (collector, mut locals) =
        OnlineCollector::attach(&harness.export_addrs(), &[90, 91]);
    let monitor_tee = locals.pop();
    let driver_tee = locals
        .pop()
        .ok_or("collector returned no driver stream")?;

    let mut probe = harness.client(999);
    let first_leader = harness.wait_for_leader(&mut probe)?;

    // Aim the canonical schedule at the live topology: relabel so the
    // canonical "node 1" (the member the schedule assumes leads first)
    // is whichever node actually won the election. The *canonical*
    // schedule is what gets persisted and sim-replayed.
    let enacted = if first_leader == 1 {
        canonical.clone()
    } else {
        swap_labels(canonical, 1, first_leader)
    };
    let timeline = compile_schedule(&enacted);

    let mut driver = DriverLog {
        tracer: Tracer::enabled(),
        tee: driver_tee,
    };
    driver.record(
        now_us(),
        EventKind::RunStart {
            name: enacted.name.clone(),
            members: enacted.members.clone(),
        },
    );

    let boot_us = now_us();
    let mon = monitor::start(
        addrs.clone(),
        seed_dir,
        boot_us,
        MonitorConfig::default(),
        monitor_tee,
    )
    .map_err(|e| e.to_string())?;

    let mut client = NetClient::new(
        addrs.clone(),
        77,
        ClientParams {
            max_attempts: 6,
            backoff_base_ms: 20,
            backoff_cap_ms: 300,
            request_timeout: Duration::from_millis(1_500),
            max_redirect_hops: 3,
        },
    );

    let walk = enact_timeline(
        &timeline,
        &enacted,
        &proxy,
        &mut harness,
        &mut probe,
        &mut client,
        &mut driver,
    );

    // Quiesce: heal everything, resume and restart everyone, let the
    // cluster converge, then stop the monitor and the cluster.
    let ever_killed = walk.kill_count > 0;
    proxy.heal_all();
    driver.record(now_us(), EventKind::Heal);
    for nid in walk.paused {
        harness.resume(nid);
    }
    for nid in walk.killed {
        let _ = harness.spawn(nid);
    }
    thread::sleep(Duration::from_millis(1_500));
    let _ = harness.wait_for_leader(&mut probe);
    thread::sleep(Duration::from_millis(800));
    let monitor_report = mon.stop();
    thread::sleep(Duration::from_millis(400));

    let texts = harness.journal_texts().map_err(|e| e.to_string())?;
    let proxy_totals = proxy.totals();
    drop(probe);
    drop(harness);
    proxy.stop();

    // The monitor journaled into the seed dir root.
    let monitor_text = fs::read_to_string(seed_dir.join(format!("journal-{boot_us}.jsonl")))
        .unwrap_or_default();

    // Forensics pass over node journals, then the driver's verdict.
    let node_events =
        merge_journals(texts.iter().map(String::as_str)).map_err(|e| e.to_string())?;
    let dupes = duplicate_applies(&rebuild_logs(&node_events));
    let mut problems: Vec<String> = Vec::new();
    if let Some(err) = walk.error {
        problems.push(err);
    }
    problems.extend(dupes);
    driver.record(
        now_us(),
        EventKind::Verdict {
            safe: problems.is_empty(),
            kind: (!problems.is_empty()).then(|| "NetmesisViolation".to_string()),
            detail: (!problems.is_empty()).then(|| problems.join("; ")),
            phase: 0,
        },
    );
    driver.record(
        now_us(),
        EventKind::RunEnd {
            committed: monitor_report.acked.len() as u64,
        },
    );

    let driver_text = driver.to_jsonl();
    // Close the driver's live stream, then the whole collector: the
    // monitor's stream already closed when `mon.stop()` joined it.
    drop(driver);
    let online = collector.stop();

    let mut all_texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    all_texts.push(monitor_text.as_str());
    all_texts.push(driver_text.as_str());
    let events = merge_journals(all_texts).map_err(|e| e.to_string())?;
    let journal = to_jsonl(&events);
    fs::write(seed_dir.join("merged.jsonl"), &journal).map_err(|e| e.to_string())?;

    let report = audit_events(&events);
    let crc_rejections = count_crc_rejections(&events);
    if !report.consistent {
        problems.push(format!(
            "audit rejected the run: errors={:?} divergence={:?}",
            report.errors, report.divergence
        ));
    }
    // Online ≡ batch: with no kills and nothing shed, the collector
    // saw the complete trace and the two verdicts must agree. (A
    // SIGKILL can eat a node's last unpumped export frames — frames
    // the flushed journal file still has — so kills relax the check.)
    if !ever_killed && online.dropped == 0 && online.report.consistent != report.consistent {
        problems.push(format!(
            "online/batch audit verdict mismatch: online={} batch={}",
            online.report.consistent, report.consistent
        ));
    }
    println!(
        "hunt: online audit {} over {} events ({} trace-dropped)",
        if online.report.consistent { "CERTIFIED" } else { "REJECTED" },
        online.report.events,
        online.dropped
    );
    Ok(LiveOutcome {
        violation: (!problems.is_empty()).then(|| problems.join("; ")),
        monitor: monitor_report,
        proxy: proxy_totals,
        crc_rejections,
        audit_events: report.events,
        online_certified: online.report.consistent,
        online_events: online.report.events,
        trace_dropped: online.dropped,
        journal,
    })
}

fn count_crc_rejections(events: &[TraceEvent]) -> u64 {
    events
        .iter()
        .filter(|ev| matches!(&ev.kind, EventKind::BadFrame { reason, .. } if reason == "corrupt"))
        .count() as u64
}

// ---- timeline enactment --------------------------------------------------

struct WalkState {
    paused: BTreeSet<u32>,
    killed: BTreeSet<u32>,
    /// Kills enacted over the whole walk (including nodes restarted
    /// later). A SIGKILL can eat a node's last unpumped export frames,
    /// so the strict online ≡ batch comparison only applies when this
    /// stays zero.
    kill_count: u64,
    /// First hard failure during the walk (a reconfiguration or burst
    /// that could not complete even through retries), if any.
    error: Option<String>,
}

/// Walks the compiled timeline against the live cluster. Soft faults
/// (an exhausted burst write) are availability costs, not errors; a
/// reconfiguration that cannot complete is an error because the rest of
/// the schedule depends on it.
fn enact_timeline(
    timeline: &WireTimeline,
    schedule: &FaultSchedule,
    proxy: &ProxyNet,
    harness: &mut Harness,
    probe: &mut NetClient,
    client: &mut NetClient,
    driver: &mut DriverLog,
) -> WalkState {
    let started = Instant::now();
    let mut walk = WalkState {
        paused: BTreeSet::new(),
        killed: BTreeSet::new(),
        kill_count: 0,
        error: None,
    };
    let mut members: Vec<u32> = schedule.members.clone();
    let mut burst_no: u64 = 0;
    for step in &timeline.steps {
        let target = Duration::from_millis(step.at_ms);
        let elapsed = started.elapsed();
        if target > elapsed {
            thread::sleep(target - elapsed);
        }
        if let Ok(fault_json) = serde_json::to_string(&step.action) {
            driver.record(now_us(), EventKind::FaultInject { fault: fault_json });
        }
        match &step.action {
            WireAction::Cut { from, to } => proxy.cut_one_way(*from, *to),
            WireAction::Heal { from, to } => proxy.heal_one_way(*from, *to),
            WireAction::Partition { groups } => {
                proxy.heal_all();
                proxy.partition(groups);
            }
            WireAction::HealAll => {
                proxy.heal_all();
                driver.record(now_us(), EventKind::Heal);
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
            WireAction::Kill { nid } => {
                harness.kill(*nid);
                walk.killed.insert(*nid);
                walk.kill_count += 1;
            }
            WireAction::KillLeader => {
                if let Ok(leader) = harness.wait_for_leader(probe) {
                    harness.kill(leader);
                    walk.killed.insert(leader);
                    walk.kill_count += 1;
                }
            }
            WireAction::Restart { nid } => {
                if harness.spawn(*nid).is_ok() {
                    walk.killed.remove(nid);
                }
            }
            WireAction::Pause { nid } => {
                if harness.pause(*nid) {
                    walk.paused.insert(*nid);
                }
            }
            WireAction::Resume { nid } => {
                if harness.resume(*nid) {
                    walk.paused.remove(nid);
                }
            }
            WireAction::Reconfig { members: target } => {
                reconfig(client, target, &mut walk);
                members = target.clone();
            }
            WireAction::ReconfigAdd { nid } => {
                if !members.contains(nid) {
                    members.push(*nid);
                    members.sort_unstable();
                }
                let target = members.clone();
                reconfig(client, &target, &mut walk);
            }
            WireAction::ReconfigRemove { nid } => {
                members.retain(|n| n != nid);
                let target = members.clone();
                reconfig(client, &target, &mut walk);
            }
            WireAction::AwaitElection => await_election(harness, probe),
            WireAction::Burst { writes } => {
                for _ in 0..*writes {
                    burst_no += 1;
                    let key = format!("hb-{}-{burst_no}", schedule.seed);
                    // An exhausted or refused write under active
                    // faults is an availability cost, not a safety
                    // problem: nothing was acked, nothing is owed.
                    if let Ok(acked) = client.put(&key, &format!("hv{burst_no}")) {
                        driver.record(
                            now_us(),
                            EventKind::SessionAck {
                                client: client.client_id(),
                                seq: acked.seq,
                                dup: acked.duplicate,
                            },
                        );
                    }
                }
            }
            WireAction::Settle { ms } => thread::sleep(Duration::from_millis(*ms)),
        }
    }
    walk
}

/// Drives one membership change through transient refusals and
/// fault-window timeouts. Failure is recorded on the walk (the
/// schedule's later steps assume the change happened).
fn reconfig(client: &mut NetClient, target: &[u32], walk: &mut WalkState) {
    let deadline = Instant::now() + RECONFIG_WAIT;
    loop {
        match client.reconfigure(target) {
            Ok(_) => return,
            Err(ClientError::Rejected { .. } | ClientError::Exhausted { .. })
                if Instant::now() < deadline =>
            {
                thread::sleep(Duration::from_millis(250));
            }
            Err(e) => {
                if walk.error.is_none() {
                    walk.error = Some(format!("reconfigure to {target:?} failed: {e}"));
                }
                return;
            }
        }
    }
}

/// Waits for a leader at a term strictly above the highest term
/// currently visible (a *new* election), up to the election budget.
/// Elections on the wire happen through real timeouts; this only
/// observes them.
fn await_election(harness: &Harness, probe: &mut NetClient) {
    let floor = max_term(harness, probe);
    let deadline = Instant::now() + ELECTION_WAIT;
    while Instant::now() < deadline {
        for &nid in &harness.node_ids() {
            if let Ok(adored::det::msg::ClientReply::Status { role, term, .. }) = probe.status(nid)
            {
                if role == "leader" && term > floor {
                    return;
                }
            }
        }
        thread::sleep(Duration::from_millis(150));
    }
}

fn max_term(harness: &Harness, probe: &mut NetClient) -> u64 {
    let mut max = 0;
    for &nid in &harness.node_ids() {
        if let Ok(adored::det::msg::ClientReply::Status { term, .. }) = probe.status(nid) {
            max = max.max(term);
        }
    }
    max
}
