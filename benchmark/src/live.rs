//! The six cluster workloads: load, fault schedule, output checks.
//!
//! Load comes from this one process, from closed-loop client threads (a
//! session is serial by design, so a client's next request waits for its
//! previous reply). A window runs for a fixed time, so parent and change
//! are given the same time and are compared on what they did with it.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use adore_obs::{audit_events, merge_journals, to_jsonl, EventKind, TraceEvent};
use adored::client::NetClient;
use rand::{Rng, RngCore};

use crate::catalog::{Script, Workload};
use crate::cluster::Cluster;
use crate::inputs::{client_keys, preload_log, preload_pairs, preloaded_wal, stream_rng, token};
use crate::procfs::{self, ProcSample};
use crate::prom;
use crate::span::{Recorder, Span};

/// Session id of the status probe.
const PROBE_CLIENT: u64 = 999;
/// Session id of the warm-up put that ends set-up.
const WARMUP_CLIENT: u64 = 900;
/// How long followers may take to reach the leader's commit watermark.
const CONVERGE_WAIT: Duration = Duration::from_secs(5);
/// Period of the memory readings, and how long the killed leader of
/// `failover` stays down before it is restarted.
const SAMPLE_EVERY: Duration = Duration::from_millis(100);

/// The call a sample timed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// `NetClient::put`
    Put,
    /// `NetClient::get`
    Get,
    /// `NetClient::reconfigure`
    Reconfigure,
}

/// One client call, timed around the public `NetClient` method.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Which call.
    pub call: Call,
    /// Start, ns since the client's window began.
    pub start_ns: u64,
    /// Latency, ns.
    pub lat_ns: u64,
    /// Attempts the client needed (`Acked::attempts`; 1 for reads).
    pub attempts: u32,
    /// Whether it returned `Ok`.
    pub ok: bool,
}

/// Everything one client thread brings back.
#[derive(Debug, Default)]
struct ClientTake {
    samples: Vec<Sample>,
    /// Key → last acked value.
    acked: BTreeMap<String, String>,
    /// Keys whose last put failed: their value is anyone's guess.
    unsure: BTreeSet<String>,
    /// One `SessionAck` per acked put, for the exactly-once audit.
    acks: Vec<TraceEvent>,
    /// Reads that returned something else than the last acked value.
    wrong_reads: u64,
    wall: Duration,
    spans: Vec<Span>,
}

/// What the fault schedule of `failover` did.
#[derive(Debug, Clone, Copy)]
pub struct FailoverLog {
    /// When the leader was killed, ns since the window began.
    pub kill_ns: u64,
    /// From restart until the restarted node's commit watermark equals
    /// the leader's, ms.
    pub rejoin_ms: f64,
    /// The leader's `request_latency_us` `(sum, count)` just before the
    /// kill; traced windows only.
    pub request_latency: Option<(u64, u64)>,
}

/// The outcome of the output checks.
#[derive(Debug, Clone, Default)]
pub struct Checks {
    /// Acked keys that did not read back their last acked value.
    pub acked_lost: u64,
    /// Reads during the run that returned a wrong value.
    pub wrong_reads: u64,
    /// Whether every live node reached the leader's commit watermark.
    pub converged: bool,
    /// Whether the merged journals passed the T1–T7 audit.
    pub audit_consistent: bool,
    /// The audit's own summary line.
    pub audit_summary: String,
    /// Events audited.
    pub audit_events: usize,
    /// Wall time of merge + audit, ms.
    pub audit_ms: f64,
    /// `LeaderElected` events in the journals.
    pub elections: u64,
}

impl Checks {
    /// Why the run's output is wrong, if it is.
    pub fn failure(&self) -> Option<String> {
        if self.acked_lost > 0 {
            Some(format!(
                "{} acked keys lost their last acked value",
                self.acked_lost
            ))
        } else if self.wrong_reads > 0 {
            Some(format!("{} reads returned a wrong value", self.wrong_reads))
        } else if !self.converged {
            Some("nodes did not converge to the leader's commit watermark within 5 s".to_string())
        } else if !self.audit_consistent {
            Some(format!(
                "journal audit rejected the run: {}",
                self.audit_summary
            ))
        } else {
            None
        }
    }
}

/// One measured window over one cluster.
#[derive(Debug, Default)]
pub struct Window {
    /// Wall time of the measured phase, s (the slowest client's).
    pub wall_s: f64,
    /// Client threads.
    pub clients: usize,
    /// All samples of all clients.
    pub samples: Vec<Sample>,
    /// The leader when the window began.
    pub leader: u32,
    /// CPU each node process used during the window, ms.
    pub cpu_ms: BTreeMap<u32, f64>,
    /// `VmHWM` of each node process alive at the end, kB.
    pub hwm_kb: BTreeMap<u32, u64>,
    /// Summed `VmRSS` of the node processes, kB, read every 100 ms.
    pub rss_kb: Vec<f64>,
    /// Growth of the first leader's `wal.bin`, bytes.
    pub wal_bytes: u64,
    /// Growth of the first leader's journals, bytes.
    pub journal_bytes: u64,
    /// Growth of `request_latency_us` `(sum, count)` on the first
    /// leader's `/metrics`; traced windows only.
    pub request_latency: Option<(u64, u64)>,
    /// The fault schedule's log, on `failover`.
    pub failover: Option<FailoverLog>,
    /// Output checks.
    pub checks: Checks,
    /// Spans around the client calls; traced windows only.
    pub spans: Vec<Span>,
}

impl Window {
    /// Latencies in µs of the `ok` samples of one call kind, in order.
    pub fn latencies_us(&self, call: Call) -> Vec<f64> {
        self.samples
            .iter()
            .filter(|s| s.call == call && s.ok)
            .map(|s| s.lat_ns as f64 / 1000.0)
            .collect()
    }

    /// Calls attempted, and calls that returned an error.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let failed = self.samples.iter().filter(|s| !s.ok).count();
        (self.samples.len() as u64, failed as u64)
    }

    /// Operations per second of *service time*: calls acked at the first
    /// attempt, over the wall time that is left once the time spent inside
    /// calls that had to retry (or failed) is taken out. Without a fault
    /// no call retries and this is operations / wall time. On `failover`
    /// it leaves out the outage, which the election timer and the
    /// client's backoff set anywhere between 0.2 and 4.5 s.
    pub fn service_rate(&self) -> f64 {
        let first_try = |s: &&Sample| s.ok && s.attempts <= 1;
        let served = self.samples.iter().filter(first_try).count() as f64;
        let retrying_ns: u64 = self
            .samples
            .iter()
            .filter(|s| !first_try(s))
            .map(|s| s.lat_ns)
            .sum();
        // Clients run side by side: each lost its own share of the wall.
        let lost_s = retrying_ns as f64 / 1e9 / self.clients.max(1) as f64;
        served / (self.wall_s - lost_s)
    }

    /// Acked operations of every kind.
    pub fn acked_ops(&self) -> u64 {
        self.samples.iter().filter(|s| s.ok).count() as u64
    }
}

fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

fn ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Set-up as a user pays it: data directories, WAL images, processes
/// spawned, a leader elected, one warm-up `put` acked. Returns the
/// cluster, its leader and the seconds it took.
///
/// `attempt` numbers the set-ups of one run. Most of a set-up is the
/// first election timeout, which the nodes draw from their jitter seed:
/// each set-up gets a jitter seed of its own, or the three set-ups of a
/// run would time the same draw three times.
pub fn setup(
    w: &Workload,
    seed: u64,
    attempt: usize,
    dir: &Path,
    with_metrics: bool,
) -> Result<(Cluster, u32, f64), String> {
    let started = Instant::now();
    let log = preload_log(&preload_pairs(seed, w.preload));
    for nid in 1..=w.nodes {
        let data = dir.join(format!("n{nid}"));
        fs::create_dir_all(&data).map_err(|e| format!("{}: {e}", data.display()))?;
        if !log.is_empty() {
            let wal = preloaded_wal(nid, &log);
            fs::write(data.join("wal.bin"), wal.disk().bytes()).map_err(|e| e.to_string())?;
        }
    }
    let jitter_seed = stream_rng(seed, 0x5e7 + attempt as u64).next_u64();
    let mut cluster = Cluster::start(dir, w.nodes, jitter_seed, with_metrics)?;
    let mut probe = cluster.client(PROBE_CLIENT);
    let leader = cluster.wait_for_leader(&mut probe)?;
    cluster
        .client(WARMUP_CLIENT)
        .put("warmup", "warmup")
        .map_err(|e| format!("warm-up put: {e}"))?;
    Ok((cluster, leader, started.elapsed().as_secs_f64()))
}

/// The membership steps of `reconfig_walk`: drop the two highest
/// non-leader nodes one at a time, then add them back (each step changes
/// one node, as R1⁺ demands), at the four inner phase boundaries.
fn reconfig_plan(leader: u32, nodes: u32, window: Duration) -> Vec<(Duration, Vec<u32>)> {
    let dropped: Vec<u32> = (1..=nodes).rev().filter(|n| *n != leader).take(2).collect();
    let without = |gone: &[u32]| {
        (1..=nodes)
            .filter(|n| !gone.contains(n))
            .collect::<Vec<u32>>()
    };
    let steps = [
        without(&dropped[..1]),
        without(&dropped),
        without(&dropped[..1]),
        without(&[]),
    ];
    steps
        .into_iter()
        .zip(1u32..)
        .map(|(members, k)| (window * k / 5, members))
        .collect()
}

/// One closed-loop client: warms its connection up, waits at the
/// barrier, then issues operations drawn from the seed until the window
/// is over.
#[allow(clippy::too_many_arguments)]
fn client_loop(
    mut client: NetClient,
    id: u64,
    w: &Workload,
    seed: u64,
    preload: &[(String, String)],
    plan: Vec<(Duration, Vec<u32>)>,
    window: Duration,
    traced: bool,
    barrier: &Barrier,
) -> ClientTake {
    let keys = client_keys(seed, id);
    let mut rng = stream_rng(seed, 0x1_0000 + id);
    let mut take = ClientTake::default();
    let mut rec = Recorder::new();
    let mut plan = plan.into_iter().peekable();

    // The connection, the leader hint and the session exist before the
    // clock starts; a failed warm-up shows as a failed first operation.
    if let Ok(a) = client.put(&format!("warm{id:012}"), "warm") {
        take.acks.push(session_ack(id, a.seq, a.duplicate));
    }
    barrier.wait();
    let started = Instant::now();
    let mut op = 0u64;
    while started.elapsed() < window {
        op += 1;
        rec.set_op(op);
        // Draw the operation, then time nothing but the client call.
        let next = if let Some((_, members)) = plan.next_if(|(at, _)| started.elapsed() >= *at) {
            Op::Reconfigure(members)
        } else if w.get_share > 0.0 && rng.gen_bool(w.get_share) {
            let i = rng.gen_range(0..preload.len() + keys.len());
            match preload.get(i) {
                Some((key, value)) => Op::Get(key, Some(value)),
                None => Op::Get(&keys[i - preload.len()], None),
            }
        } else {
            Op::Put(&keys[rng.gen_range(0..keys.len())], token(&mut rng))
        };
        let span = traced.then(|| rec.open(next.span_name()));
        let start_ns = ns(started.elapsed());
        let t0 = Instant::now();
        let (call, outcome) = match &next {
            Op::Reconfigure(members) => (
                Call::Reconfigure,
                client.reconfigure(members).map(Done::Acked),
            ),
            Op::Get(key, _) => (Call::Get, client.get(key).map(Done::Read)),
            Op::Put(key, value) => (Call::Put, client.put(key, value).map(Done::Acked)),
        };
        let lat_ns = ns(t0.elapsed());
        if let Some(span) = span {
            rec.close(span);
        }
        take.samples.push(Sample {
            call,
            start_ns,
            lat_ns,
            attempts: match &outcome {
                Ok(Done::Acked(a)) => a.attempts,
                Ok(Done::Read(_)) => 1,
                Err(_) => 0,
            },
            ok: outcome.is_ok(),
        });
        // Keep the model of what the store must hold.
        match (next, outcome) {
            (Op::Put(key, value), Ok(Done::Acked(a))) => {
                take.acks.push(session_ack(id, a.seq, a.duplicate));
                take.unsure.remove(key);
                take.acked.insert(key.clone(), value);
            }
            (Op::Put(key, _), Err(_)) => {
                take.unsure.insert(key.clone());
            }
            (Op::Get(key, preloaded), Ok(Done::Read(got))) => {
                let want = preloaded.or_else(|| take.acked.get(key));
                if !take.unsure.contains(key) && got.as_ref() != want {
                    take.wrong_reads += 1;
                }
            }
            _ => {}
        }
    }
    take.wall = started.elapsed();
    take.spans = rec.spans().to_vec();
    take
}

/// One operation a client is about to issue.
enum Op<'k> {
    Reconfigure(Vec<u32>),
    /// The key, and its value if it is a preloaded (never rewritten) one.
    Get(&'k String, Option<&'k String>),
    Put(&'k String, String),
}

impl Op<'_> {
    fn span_name(&self) -> &'static str {
        match self {
            Op::Reconfigure(_) => "client.reconfigure",
            Op::Get(..) => "client.get",
            Op::Put(..) => "client.put",
        }
    }
}

/// What a client call returned.
enum Done {
    Acked(adored::client::Acked),
    Read(Option<String>),
}

fn session_ack(client: u64, seq: u64, dup: bool) -> TraceEvent {
    TraceEvent::root(now_us(), EventKind::SessionAck { client, seq, dup })
}

/// CPU used by node processes over a window, across kills and restarts.
struct CpuMeter {
    base: BTreeMap<u32, ProcSample>,
    used_ms: BTreeMap<u32, f64>,
}

impl CpuMeter {
    fn start(cluster: &Cluster) -> CpuMeter {
        let base = cluster
            .live()
            .into_iter()
            .filter_map(|nid| Some((nid, procfs::sample(&cluster.pid(nid)?)?)))
            .collect();
        CpuMeter {
            base,
            used_ms: BTreeMap::new(),
        }
    }

    /// Books what `nid`'s current process used since its baseline; call
    /// just before killing it and at the end of the window.
    fn settle(&mut self, cluster: &Cluster, nid: u32) -> Option<ProcSample> {
        let now = procfs::sample(&cluster.pid(nid)?)?;
        let base = self.base.remove(&nid)?;
        *self.used_ms.entry(nid).or_default() += now.cpu_ms_since(&base);
        Some(now)
    }

    /// A fresh process for `nid`: its CPU counts from zero.
    fn restarted(&mut self, nid: u32) {
        self.base.insert(nid, ProcSample::default());
    }
}

/// `request_latency_us` `(sum, count)` from node `nid`'s `/metrics`, if
/// the cluster was started with the endpoint (the traced window).
fn request_latency(cluster: &Cluster, nid: u32) -> Result<Option<(u64, u64)>, String> {
    let Some(addr) = cluster.metrics_addr(nid) else {
        return Ok(None);
    };
    let text = prom::scrape(addr)?;
    // No acked request yet: the histogram does not exist.
    Ok(Some(
        prom::histogram_sum_count(&text, "request_latency_us").unwrap_or((0, 0)),
    ))
}

/// What the thread that owns the cluster does while the clients run.
/// Every 100 ms it reads the resident memory of the node processes. On
/// `failover` it also kills the leader two thirds of the way into the
/// window and, as a process supervisor would, restarts it into its data
/// directory 100 ms later; in a traced window it then watches for the
/// restarted node to rejoin.
///
/// The kill comes late so that the medians (latency, memory) are taken
/// over a steady majority of the window, whatever the outage turns out to
/// be. The restart is immediate on purpose too. With the node left dead for
/// seconds, two more mechanisms of the program join in, and both are set
/// by timing, not by the code's speed: the leader's outbox to the dead
/// peer fills with up to 256 full-log copies (summed peak RSS 36 to 95 MB
/// over ten runs), and the returning node, having campaigned alone,
/// deposes the leader with a `Nack` (p99 either 10 or 40 ms). Metrics
/// that jump like that cannot carry a bound.
fn conduct(
    cluster: &mut Cluster,
    cpu: &mut CpuMeter,
    w: &Workload,
    leader: u32,
    window: Duration,
    traced: bool,
) -> Result<(Vec<f64>, Option<FailoverLog>), String> {
    let started = Instant::now();
    let mut rss_kb = Vec::new();
    let mut log: Option<FailoverLog> = None;
    let mut probe = cluster.client(PROBE_CLIENT);
    let mut fault = match w.script {
        Script::Failover => Fault::Armed,
        _ => Fault::Over,
    };
    loop {
        let now = started.elapsed();
        // A traced window waits, past its end if need be, until the
        // restarted node is seen to have rejoined.
        if now >= window && !matches!(fault, Fault::Back(_)) {
            return Ok((rss_kb, log));
        }
        fault = match fault {
            Fault::Armed if now >= window * 2 / 3 => {
                cpu.settle(cluster, leader);
                log = Some(FailoverLog {
                    kill_ns: ns(now),
                    rejoin_ms: 0.0,
                    request_latency: request_latency(cluster, leader)?,
                });
                cluster.kill(leader);
                Fault::Down
            }
            // One sampling period after the kill.
            Fault::Down => {
                cluster.spawn(leader)?;
                cpu.restarted(leader);
                // Watching is load too: the untraced window goes without.
                if traced {
                    Fault::Back(Instant::now())
                } else {
                    Fault::Over
                }
            }
            // Rejoined = its commit watermark caught up with a leader's.
            Fault::Back(since) => {
                let mine = Cluster::status(&mut probe, leader).map(|s| s.commit_len);
                let lead = cluster
                    .live()
                    .into_iter()
                    .filter_map(|n| Cluster::status(&mut probe, n))
                    .find(|s| s.role == "leader")
                    .map(|s| s.commit_len);
                if lead.is_some() && mine >= lead {
                    if let Some(log) = &mut log {
                        log.rejoin_ms = since.elapsed().as_secs_f64() * 1000.0;
                    }
                    Fault::Over
                } else if since.elapsed() > CONVERGE_WAIT {
                    return Err(format!("restarted node {leader} did not rejoin within 5 s"));
                } else {
                    Fault::Back(since)
                }
            }
            waiting => waiting,
        };
        if now < window {
            let resident: u64 = cluster
                .live()
                .into_iter()
                .filter_map(|nid| procfs::sample(&cluster.pid(nid)?))
                .map(|s| s.rss_kb)
                .sum();
            rss_kb.push(resident as f64);
        }
        thread::sleep(SAMPLE_EVERY);
    }
}

/// Where the fault schedule of `failover` stands.
enum Fault {
    /// The leader is still to be killed.
    Armed,
    /// Killed; restart at the next sampling period.
    Down,
    /// Restarted at this instant; watching for it to rejoin (traced only).
    Back(Instant),
    /// Nothing (more) to do.
    Over,
}

/// Runs one measured window of `w` over `cluster`, then the output
/// checks, then stops the cluster. `Err` is a harness failure (a child
/// exited early, no leader); wrong output is reported in
/// [`Window::checks`].
pub fn measure(
    w: &Workload,
    seed: u64,
    mut cluster: Cluster,
    leader: u32,
    window: Duration,
    traced: bool,
) -> Result<Window, String> {
    let preload = preload_pairs(seed, w.preload);
    let plan = match w.script {
        Script::ReconfigWalk => reconfig_plan(leader, w.nodes, window),
        _ => Vec::new(),
    };
    let barrier = Barrier::new(w.clients + 1);
    let wal0 = cluster.file_bytes(leader, "wal.bin");
    let journal0 = cluster.file_bytes(leader, "journal-");
    let mut out = Window {
        leader,
        clients: w.clients,
        ..Window::default()
    };
    let (takes, mut cpu) = thread::scope(|scope| -> Result<_, String> {
        let handles: Vec<_> = (1..=w.clients as u64)
            .map(|id| {
                let client = cluster.client(id);
                // Only the first client walks the configuration.
                let plan = if id == 1 { plan.clone() } else { Vec::new() };
                let (preload, barrier) = (&preload, &barrier);
                scope.spawn(move || {
                    client_loop(client, id, w, seed, preload, plan, window, traced, barrier)
                })
            })
            .collect();
        // Readings are taken once the clients are warm, then the clock
        // starts for everyone at the barrier.
        // (No early return before the barrier: the clients wait there.)
        let before = request_latency(&cluster, leader);
        let mut cpu = CpuMeter::start(&cluster);
        barrier.wait();
        let conducted = conduct(&mut cluster, &mut cpu, w, leader, window, traced);
        let takes: Vec<ClientTake> = handles
            .into_iter()
            .map(|h| h.join().map_err(|_| "a client thread panicked".to_string()))
            .collect::<Result<_, _>>()?;
        (out.rss_kb, out.failover) = conducted?;
        // On `failover` the first leader's counters died with it: its
        // last reading is the one taken just before the kill.
        let after = match out.failover.and_then(|log| log.request_latency) {
            Some(at_kill) => Some(at_kill),
            None => request_latency(&cluster, leader)?,
        };
        if let (Some((s0, c0)), Some((s1, c1))) = (before?, after) {
            out.request_latency = Some((s1.saturating_sub(s0), c1.saturating_sub(c0)));
        }
        Ok((takes, cpu))
    })?;
    cluster.check_alive()?;
    for nid in cluster.live() {
        if let Some(now) = cpu.settle(&cluster, nid) {
            out.hwm_kb.insert(nid, now.hwm_kb);
        }
    }
    out.cpu_ms = cpu.used_ms;
    out.wal_bytes = cluster.file_bytes(leader, "wal.bin").saturating_sub(wal0);
    out.journal_bytes = cluster
        .file_bytes(leader, "journal-")
        .saturating_sub(journal0);
    out.wall_s = takes
        .iter()
        .map(|t| t.wall.as_secs_f64())
        .fold(0.0, f64::max);

    // ---- output checks ---------------------------------------------------
    let mut probe = cluster.client(PROBE_CLIENT);
    let final_leader = cluster.wait_for_leader(&mut probe)?;
    out.checks.converged = converged(&cluster, &mut probe, final_leader);
    let mut reader = cluster.client(PROBE_CLIENT + 1);
    for take in &takes {
        out.checks.wrong_reads += take.wrong_reads;
        for (key, value) in &take.acked {
            if take.unsure.contains(key) {
                continue;
            }
            if reader.get(key).ok().flatten().as_ref() != Some(value) {
                out.checks.acked_lost += 1;
            }
        }
    }
    cluster.check_alive()?;
    let texts = cluster.journal_texts()?;
    let members: Vec<u32> = (1..=w.nodes).collect();
    drop((probe, reader, cluster));

    let mut driver = vec![TraceEvent::root(
        0,
        EventKind::RunStart {
            name: w.name.to_string(),
            members,
        },
    )];
    let mut committed = 0;
    for take in takes {
        committed += take.acks.len() as u64;
        driver.extend(take.acks);
        out.samples.extend(take.samples);
        // Live spans are flat (no parents), so ids are simply renumbered
        // as the clients' recordings are joined.
        for mut span in take.spans {
            span.id = out.spans.len() as u32;
            out.spans.push(span);
        }
    }
    let end_us = now_us();
    driver.push(TraceEvent::root(
        end_us,
        EventKind::Verdict {
            safe: out.checks.acked_lost == 0 && out.checks.wrong_reads == 0,
            kind: None,
            detail: None,
            phase: 0,
        },
    ));
    driver.push(TraceEvent::root(end_us, EventKind::RunEnd { committed }));
    let driver_text = to_jsonl(&driver);
    let audit_started = Instant::now();
    let events = merge_journals(
        texts
            .iter()
            .map(String::as_str)
            .chain(std::iter::once(driver_text.as_str())),
    )
    .map_err(|e| format!("journal merge: {e}"))?;
    let report = audit_events(&events);
    out.checks.audit_ms = audit_started.elapsed().as_secs_f64() * 1000.0;
    out.checks.audit_events = report.events;
    out.checks.audit_consistent = report.consistent;
    out.checks.audit_summary = report.summary();
    out.checks.elections = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::LeaderElected { .. }))
        .count() as u64;
    Ok(out)
}

/// Whether every live node reaches the leader's commit watermark in time.
fn converged(cluster: &Cluster, probe: &mut NetClient, leader: u32) -> bool {
    let deadline = Instant::now() + CONVERGE_WAIT;
    loop {
        let lens: Vec<Option<u64>> = cluster
            .live()
            .into_iter()
            .map(|n| Cluster::status(probe, n).map(|s| s.commit_len))
            .collect();
        let lead = Cluster::status(probe, leader).map(|s| s.commit_len);
        if lead.is_some() && lens.iter().all(|l| l.is_some() && *l >= lead) {
            return true;
        }
        if Instant::now() > deadline {
            return false;
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// A scratch directory for one run, removed on success and kept (for the
/// journals and WAL files) on failure.
pub struct RunDir {
    path: PathBuf,
    keep: bool,
}

impl RunDir {
    /// `benchmark/out/run-<pid>/`, emptied.
    pub fn create(out_dir: &Path) -> Result<RunDir, String> {
        let path = out_dir.join(format!("run-{}", std::process::id()));
        let _ = fs::remove_dir_all(&path);
        fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path, keep: true })
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The run succeeded: remove the directory on drop.
    pub fn succeed(&mut self) {
        self.keep = false;
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        if self.keep {
            eprintln!("adore-perf: run data kept in {}", self.path.display());
        } else {
            let _ = fs::remove_dir_all(&self.path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(start_ms: u64, lat_ms: u64, attempts: u32, ok: bool) -> Sample {
        Sample {
            call: Call::Put,
            start_ns: start_ms * 1_000_000,
            lat_ns: lat_ms * 1_000_000,
            attempts,
            ok,
        }
    }

    #[test]
    fn service_rate_leaves_out_the_time_inside_retried_calls() {
        let mut win = Window {
            wall_s: 10.0,
            clients: 1,
            samples: (0..800).map(|i| sample(i * 10, 10, 1, true)).collect(),
            ..Window::default()
        };
        // No retries: operations / wall time.
        assert_eq!(win.service_rate(), 80.0);
        // A 2 s outage inside one retried put: 800 first-try acks in the
        // remaining 8 s; a failed call counts the same way.
        win.samples.push(sample(8000, 1500, 5, true));
        win.samples.push(sample(9500, 500, 12, false));
        assert_eq!(win.service_rate(), 100.0);
        // Two clients each lose their own share of the wall.
        win.clients = 2;
        assert_eq!(win.service_rate(), 800.0 / 9.0);
    }

    #[test]
    fn the_walk_changes_one_node_per_step_and_spares_the_leader() {
        let plan = reconfig_plan(5, 5, Duration::from_secs(10));
        let members: Vec<&[u32]> = plan.iter().map(|(_, m)| m.as_slice()).collect();
        assert_eq!(
            members,
            [
                &[1, 2, 3, 5][..],
                &[1, 2, 5],
                &[1, 2, 3, 5],
                &[1, 2, 3, 4, 5]
            ]
        );
        let at: Vec<u64> = plan.iter().map(|(d, _)| d.as_secs()).collect();
        assert_eq!(at, [2, 4, 6, 8]);
    }
}
