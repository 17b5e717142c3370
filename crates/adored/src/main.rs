//! `adored` — the networked ADORE cluster binary.
//!
//! Three subcommands:
//!
//! - `adored node` runs one replica (the fault-hardened runtime in
//!   [`adored::node`]).
//! - `adored bench --open-loop` drives a 3-node cluster at fixed
//!   offered rates under the online auditor and writes
//!   `results/BENCH_live.json`. (Closed-loop questions — throughput,
//!   exact percentiles, per-layer cost — belong to `benchmark/run.sh`.)
//! - `adored hunt` is the netmesis campaign driver: it compiles
//!   serializable nemesis `FaultSchedule`s into live wire and process
//!   faults (via the per-link proxies in [`adored::proxy`]), runs them
//!   against a real cluster under an availability monitor, audits the
//!   merged journals, and on failure persists a replayable,
//!   sim-minimized counterexample artifact.
//!
//! `bench` and `hunt` are two bodies inside one skeleton, [`live`]:
//! boot the cluster under the online collector, run, then read every
//! written key once more and audit the merged journals, the client
//! history's linearizability included.

#![deny(clippy::disallowed_methods)] // L12a: as the library

mod hunt;
mod live;

use std::path::{Path, PathBuf};
use std::thread;
use std::time::{Duration, Instant};

use adore_obs::{EventKind, Histogram};
use adored::client::{Acked, ClientError, ClientParams, NetClient};
use adored::det::engine::EngineParams;
use adored::node::{now_us, run, NodeConfig};

use crate::live::LiveRun;

const USAGE: &str = "usage: adored node --nid N --peers 1=host:port,2=... --data DIR \
     [--seed S] [--tick-ms T] [--max-runtime-ms M] [--ablate-guard r1|r2|r3] \
     [--peer-deadline-ms M] [--export host:port] [--metrics host:port]\n\
     \x20      adored bench --open-loop [RATES] [--secs-per-rate S] [--dir DIR] \
     [--out FILE] [--seed S]\n\
     \x20      adored hunt [--gate | --seeds N] [--dir DIR] [--seed S] [--ablate r1] \
     [--out FILE]";

/// A subcommand returns its exit code, or `Err` with what is wrong
/// with its arguments: that prints the usage line and exits 2.
type CmdResult = Result<i32, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dispatch(&args).unwrap_or_else(|msg| {
        eprintln!("adored: {msg}\n{USAGE}");
        2
    }));
}

fn dispatch(args: &[String]) -> CmdResult {
    match args.split_first() {
        Some((cmd, rest)) if cmd == "node" => cmd_node(rest),
        Some((cmd, rest)) if cmd == "bench" => cmd_bench(rest),
        Some((cmd, rest)) if cmd == "hunt" => hunt::cmd_hunt(rest),
        _ => Err("expected a subcommand: node, bench or hunt".to_string()),
    }
}

// ---- argument plumbing --------------------------------------------------

/// One subcommand's arguments. Every accessor notes the flag it was
/// asked for, so [`Args::finish`] can refuse any `--flag` that nothing
/// reads: a typo is a usage error, never a run with the default.
struct Args<'a> {
    raw: &'a [String],
    named: Vec<&'static str>,
}

impl<'a> Args<'a> {
    fn new(raw: &'a [String]) -> Args<'a> {
        Args {
            raw,
            named: Vec::new(),
        }
    }

    /// The token after `name` (empty when `name` comes last), if `name`
    /// is present.
    fn after(&mut self, name: &'static str) -> Option<&'a str> {
        self.named.push(name);
        let i = self.raw.iter().position(|a| a == name)?;
        Some(self.raw.get(i + 1).map_or("", String::as_str))
    }

    fn flag(&mut self, name: &'static str) -> bool {
        self.after(name).is_some()
    }

    fn value(&mut self, name: &'static str) -> Option<String> {
        self.after(name)
            .filter(|v| !v.is_empty())
            .map(str::to_string)
    }

    /// `--name N`: `None` when the flag is absent; an error when its
    /// value is missing or does not parse.
    fn num<T: std::str::FromStr>(&mut self, name: &'static str) -> Result<Option<T>, String> {
        let Some(value) = self.after(name) else {
            return Ok(None);
        };
        match value.parse() {
            Ok(n) => Ok(Some(n)),
            Err(_) => Err(format!("{name} expects a number, got {value:?}")),
        }
    }

    fn u64(&mut self, name: &'static str, default: u64) -> Result<u64, String> {
        Ok(self.num(name)?.unwrap_or(default))
    }

    /// Call once every flag has been read, before acting on any.
    fn finish(self) -> Result<(), String> {
        let known = |a: &&String| !a.starts_with("--") || self.named.contains(&a.as_str());
        match self.raw.iter().find(|a| !known(a)) {
            Some(unknown) => Err(format!("unknown flag {unknown}")),
            None => Ok(()),
        }
    }
}

/// Parses `1=host:port,2=host:port,...`.
fn parse_peers(spec: &str) -> Option<Vec<(u32, String)>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (nid, addr) = part.split_once('=')?;
        out.push((nid.trim().parse().ok()?, addr.trim().to_string()));
    }
    Some(out)
}

// ---- `adored node` ------------------------------------------------------

fn cmd_node(args: &[String]) -> CmdResult {
    let mut args = Args::new(args);
    let nid: u32 = args.num("--nid")?.ok_or("node: --nid is required")?;
    let peers = args
        .value("--peers")
        .as_deref()
        .and_then(parse_peers)
        .ok_or("node: --peers 1=host:port,2=... is required")?;
    let data_dir = args
        .value("--data")
        .map(PathBuf::from)
        .ok_or("node: --data DIR is required")?;
    // `--ablate-guard r1,r3` drops the named conditions from the sound
    // guard — fault-harness use only, to manufacture counterexamples.
    let mut guard = adore_core::ReconfigGuard::all();
    if let Some(spec) = args.value("--ablate-guard") {
        for cond in spec.split(',') {
            match cond.trim() {
                "r1" => guard.r1 = false,
                "r2" => guard.r2 = false,
                "r3" => guard.r3 = false,
                other => return Err(format!("node: unknown guard condition {other:?}")),
            }
        }
    }
    let cfg = NodeConfig {
        nid,
        peers,
        data_dir,
        seed: args.u64("--seed", 1)?,
        tick_ms: args.u64("--tick-ms", live::CHILD_TICK_MS)?,
        max_runtime_ms: args.num("--max-runtime-ms")?,
        params: EngineParams::default(),
        guard,
        peer_read_deadline_ms: args.u64(
            "--peer-deadline-ms",
            adored::node::DEFAULT_PEER_READ_DEADLINE_MS,
        )?,
        export_addr: args.value("--export"),
        metrics_addr: args.value("--metrics"),
    };
    args.finish()?;
    Ok(match run(cfg) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("adored node {nid}: {e}");
            1
        }
    })
}

/// A duration as saturating microseconds.
fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

// ---- `adored bench` ------------------------------------------------------

fn cmd_bench(args: &[String]) -> CmdResult {
    let mut args = Args::new(args);
    if !args.flag("--open-loop") {
        return Err("bench: only --open-loop is left (closed loop: benchmark/run.sh)".to_string());
    }
    let seed = args.u64("--seed", 42)?;
    let dir = args
        .value("--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("target/bench-{}", std::process::id())));
    let out = args
        .value("--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/BENCH_live.json"));
    let rates: Vec<u64> = match args.value("--open-loop").filter(|v| !v.starts_with("--")) {
        None => vec![60, 120, 240],
        Some(spec) => spec
            .split(',')
            .map(|r| r.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("--open-loop expects comma-separated rates, got {spec:?}"))?,
    };
    let secs = args.u64("--secs-per-rate", 3)?.max(1);
    args.finish()?;
    Ok(match bench_open_loop(&dir, &rates, secs, seed, &out) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("bench --open-loop: FAIL: {e}");
            1
        }
    })
}

/// Summary latency quantiles of a bench run, in microseconds.
#[derive(serde::Serialize)]
struct BenchLatency {
    mean: u64,
    min: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
}

impl BenchLatency {
    /// Exact order statistics of the raw samples, which must be sorted:
    /// every percentile is the nearest-rank sample, so it is a latency
    /// some request had and never exceeds `max`. All zero when empty.
    fn from_sorted(sorted: &[u64]) -> BenchLatency {
        let n = sorted.len();
        let at = |idx: usize| sorted.get(idx).copied().unwrap_or(0);
        let rank = |pct: usize| at((pct * n).div_ceil(100).saturating_sub(1));
        BenchLatency {
            mean: sorted.iter().sum::<u64>().checked_div(n as u64).unwrap_or(0),
            min: at(0),
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
            max: at(n.saturating_sub(1)),
        }
    }
}

/// Worker threads sharing one offered-rate schedule. Eight keeps the
/// per-worker issue rate low enough that one slow ack rarely delays
/// the next intended start (and when it does, the latency is charged
/// from the *intended* start anyway).
const OPEN_LOOP_WORKERS: u64 = 8;

/// The serialized shape of `results/BENCH_live.json`.
#[derive(serde::Serialize)]
struct LiveBenchReport {
    name: &'static str,
    nodes: u32,
    mode: &'static str,
    seed: u64,
    secs_per_rate: u64,
    rates: Vec<RatePoint>,
    /// `None` when the online auditor panicked.
    online: Option<OnlineVerdict>,
    /// The batch auditor's verdict over the same run's journal files,
    /// for the online ≡ batch cross-check.
    batch_consistent: bool,
}

/// One offered rate's measurements.
#[derive(serde::Serialize)]
struct RatePoint {
    offered_per_s: u64,
    achieved_per_s: u64,
    issued: u64,
    acked: u64,
    errors: u64,
    elapsed_us: u64,
    /// Series count from one live `/metrics` scrape of the leader
    /// during this rate, when the scrape succeeded.
    scraped_series: Option<u64>,
    latency_us: BenchLatency,
    histogram: adore_obs::HistogramSnapshot,
}

/// The online collector's close-out, serialized.
#[derive(serde::Serialize)]
struct OnlineVerdict {
    /// The headline: the live T1–T8 audit certified the run.
    certified: bool,
    events: usize,
    nodes: usize,
    acked: usize,
    flagged_at: Option<u64>,
    errors: Vec<String>,
}

/// One `/metrics` scrape: returns the exposition's sample-line count.
fn scrape_series(addr: &str) -> Option<u64> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.set_write_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut text = String::new();
    stream.read_to_string(&mut text).ok()?;
    let body = text.split_once("\r\n\r\n")?.1;
    Some(
        body.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count() as u64,
    )
}

/// One write an open-loop worker finished: its key, its latency from
/// the intended start, when it was dispatched and finished (for the
/// driver's journal), and its result.
type Finished = (String, u64, (u64, u64), Result<Acked, ClientError>);

/// Issues `total` writes on a fixed schedule shared across workers
/// (worker `w` owns indices `w, w+W, w+2W, ...`). Latency is charged
/// from each write's *intended* start, never its actual dispatch, so a
/// stall delays the schedule without hiding its cost (no coordinated
/// omission).
fn open_loop_worker(
    mut client: NetClient,
    start: Instant,
    rate: u64,
    total: u64,
    w: u64,
    label: usize,
) -> Vec<Finished> {
    let mut finished = Vec::new();
    let mut i = w;
    while i < total {
        let intended = start + Duration::from_micros(i.saturating_mul(1_000_000) / rate.max(1));
        let now = Instant::now();
        if intended > now {
            thread::sleep(intended - now);
        }
        let key = format!("ol{label}-{w}-{i}");
        let dispatched = now_us();
        let result = client.put(&key, "x");
        let at = (dispatched, now_us());
        finished.push((key, dur_us(intended.elapsed()), at, result));
        i += OPEN_LOOP_WORKERS;
    }
    finished
}

/// The open-loop campaign: a 3-node cluster with the online auditor
/// attached, driven at each offered rate in turn. Fails unless the
/// online audit certifies the run and [`LiveRun::close`] finds nothing
/// against it.
fn bench_open_loop(
    dir: &Path,
    rates: &[u64],
    secs: u64,
    seed: u64,
    out: &Path,
) -> Result<(), String> {
    let mut live = LiveRun::boot(dir, "bench-open-loop", &[1, 2, 3], seed, false, &[])?;
    let leader = live.first_leader;
    println!("bench: leader is node {leader}; open-loop at {rates:?}/s, {secs}s per rate");

    let mut points = Vec::new();
    for (ri, &rate) in rates.iter().enumerate() {
        live.driver.record(EventKind::PhaseStart {
            index: u32::try_from(ri).unwrap_or(u32::MAX),
            label: format!("open-loop {rate}/s"),
        });
        let total = rate.saturating_mul(secs);
        let client_id = |w: u64| 100 + (ri as u64) * OPEN_LOOP_WORKERS + w;
        let start = Instant::now();
        let mut workers = Vec::new();
        for w in 0..OPEN_LOOP_WORKERS {
            let client = live.harness.client(client_id(w), ClientParams::default());
            workers.push(thread::spawn(move || {
                open_loop_worker(client, start, rate, total, w, ri)
            }));
        }
        let mut writes = Vec::new();
        for (w, handle) in (0..).zip(workers) {
            let finished = handle
                .join()
                .map_err(|_| format!("open-loop worker {w} panicked"))?;
            writes.extend(finished.into_iter().map(|f| (w, f)));
        }
        // Journaled in completion order: the driver's stamps must not
        // decrease.
        writes.sort_by_key(|(_, (_, _, at, _))| at.1);
        let mut hist = Histogram::default();
        let mut latencies = Vec::new();
        let mut errors = 0u64;
        for (w, (key, latency_us, at, result)) in &writes {
            match result {
                Ok(_) => {
                    hist.observe(*latency_us);
                    latencies.push(*latency_us);
                }
                Err(_) => errors += 1,
            }
            live.driver.put(client_id(*w), (key, "x"), *at, result);
        }
        let elapsed_us = dur_us(start.elapsed());
        let acked = latencies.len() as u64;
        latencies.sort_unstable();
        let latency_us = BenchLatency::from_sorted(&latencies);
        let achieved_per_s = acked
            .saturating_mul(1_000_000)
            .checked_div(elapsed_us)
            .unwrap_or(0);
        let scraped_series = live
            .harness
            .metrics_addr(leader)
            .as_deref()
            .and_then(scrape_series);
        println!(
            "bench: offered {rate}/s -> achieved {achieved_per_s}/s \
             (p50={}us p95={}us p99={}us, {errors} errors)",
            latency_us.p50, latency_us.p95, latency_us.p99
        );
        points.push(RatePoint {
            offered_per_s: rate,
            achieved_per_s,
            issued: total,
            acked,
            errors,
            elapsed_us,
            scraped_series,
            latency_us,
            histogram: hist.snapshot(),
        });
    }

    let closed = live.close(Vec::new(), u32::try_from(rates.len()).unwrap_or(u32::MAX))?;
    let report = LiveBenchReport {
        name: "BENCH_live",
        nodes: 3,
        mode: "open-loop",
        seed,
        secs_per_rate: secs,
        rates: points,
        online: closed.online.as_ref().map(|o| OnlineVerdict {
            certified: o.report.consistent,
            events: o.report.events,
            nodes: o.report.nodes,
            acked: o.report.acked,
            flagged_at: o.flagged_at,
            errors: o.report.errors.clone(),
        }),
        batch_consistent: closed.batch.consistent,
    };
    adore_obs::write_json_report(out, &report).map_err(|e| e.to_string())?;
    println!("bench: report -> {}", out.display());

    if let Some(o) = closed.online.as_ref().filter(|o| !o.report.consistent) {
        return Err(format!(
            "online audit rejected the run: errors={:?} divergence={:?}",
            o.report.errors, o.report.divergence
        ));
    }
    if !closed.problems.is_empty() {
        return Err(closed.problems.join("; "));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn a_numeric_flag_is_the_default_a_number_or_a_usage_error() {
        let seed = |list: &[&str]| Args::new(&args(list)).u64("--seed", 42);
        assert_eq!(seed(&["--dir", "d"]), Ok(42));
        assert_eq!(seed(&["--seed", "12"]), Ok(12));
        let err = seed(&["--seed", "4x"]).unwrap_err();
        assert!(err.contains("--seed") && err.contains("4x"), "{err}");
        // A flag with its value missing is no more valid than a typo.
        assert!(seed(&["--seed"]).is_err());
        assert!(Args::new(&args(&["--nid", "three"]))
            .num::<u32>("--nid")
            .is_err());

        // Nor is a flag nothing reads: each subcommand refuses it before
        // it boots anything, and names it.
        for (cmd, typo) in [
            ("node --nid 1 --peers 1=127.0.0.1:1 --data d", "--tick_ms"),
            ("bench --open-loop 40", "--sed"),
            ("hunt --gate", "--sedes"),
            ("hunt", "--nodes"),
        ] {
            let line: Vec<&str> = cmd.split(' ').chain([typo, "3"]).collect();
            let err = dispatch(&args(&line)).unwrap_err();
            assert_eq!(err, format!("unknown flag {typo}"), "{cmd}");
        }
        let err = dispatch(&args(&["smoke", "--nodes", "3"])).unwrap_err();
        assert!(err.contains("expected a subcommand"), "{err}");
    }

    #[test]
    fn bench_latency_is_exact_nearest_rank_order_statistics() {
        let upto100: Vec<u64> = (1..=100).collect();
        let l = BenchLatency::from_sorted(&upto100);
        assert_eq!((l.min, l.p50, l.p95, l.p99, l.max, l.mean), (1, 50, 95, 99, 100, 50));
        // The shape the doubling buckets misreported (p95 = p99 = 1600 over
        // a max of 1493): every percentile is a sample, none above max.
        let skewed = [310, 480, 520, 700, 1493];
        let l = BenchLatency::from_sorted(&skewed);
        assert!(l.min <= l.p50 && l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max);
        assert_eq!((l.p50, l.p95, l.p99, l.max), (520, 1493, 1493, 1493));
        assert_eq!(BenchLatency::from_sorted(&[]).max, 0);
    }

    #[test]
    fn closed_loop_bench_and_bad_rates_are_usage_errors() {
        assert!(cmd_bench(&args(&["--seed", "1"])).is_err());
        assert!(cmd_bench(&args(&["--open-loop", "40,8x"])).is_err());
    }
}
