//! Running one workload once and turning what it measured into metrics.

use std::collections::BTreeMap;
use std::fs;
use std::path::Path;
use std::time::Duration;

use serde_json::JsonValue;

use crate::catalog::{Script, Workload, END_TO_END, PER_LAYER};
use crate::certify;
use crate::live::{self, Call, RunDir, Window};
use crate::procfs;
use crate::span::Span;
use crate::stats::{beyond, mean, median, quantile, sorted, MIN_BEYOND};
use crate::trio;

/// Times set-up is done in a run; the reported `setup_s` is the median.
const SETUPS: usize = 3;
/// Writes the in-process traced replica commits.
const TRIO_OPS: usize = 200;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name from the catalog.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit from the catalog.
    pub unit: &'static str,
    /// Samples behind the value, where it is a statistic of samples.
    pub samples: Option<usize>,
    /// A percentile with fewer than ten samples beyond it.
    pub thin: bool,
}

/// The outcome of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Workload name.
    pub workload: &'static str,
    /// Whether every output check passed.
    pub correct: bool,
    /// Why not, if not.
    pub failure: Option<String>,
    /// Operations attempted in the measured window.
    pub attempted: u64,
    /// Operations that returned an error.
    pub failed: u64,
    /// End-to-end metrics (untraced run) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The one-line JSON object that ends a single-workload run.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let fields = vec![
                    ("value".to_string(), JsonValue::Float(m.value)),
                    ("unit".to_string(), JsonValue::Str(m.unit.to_string())),
                ];
                (m.name.to_string(), JsonValue::Object(fields))
            })
            .collect();
        JsonValue::Object(vec![
            ("correct".to_string(), JsonValue::Bool(self.correct)),
            ("attempted".to_string(), JsonValue::UInt(self.attempted)),
            ("failed".to_string(), JsonValue::UInt(self.failed)),
            ("metrics".to_string(), JsonValue::Object(metrics)),
        ])
    }
}

/// Values by metric name, laid out in catalog order on the way out.
#[derive(Default)]
struct Sheet {
    values: BTreeMap<&'static str, (f64, Option<usize>, bool)>,
}

impl Sheet {
    fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, (value, None, false));
    }

    /// A statistic of `n` samples.
    fn stat(&mut self, name: &'static str, value: f64, n: usize) {
        self.values.insert(name, (value, Some(n), false));
    }

    /// The `p`-quantile of `samples` (any order); flagged thin when fewer
    /// than ten samples lie beyond it, `0` when there are none at all.
    fn percentile(&mut self, name: &'static str, samples: &[f64], p: f64) {
        let v = sorted(samples);
        let thin = beyond(v.len(), p) < MIN_BEYOND;
        let value = quantile(&v, p).unwrap_or(0.0);
        self.values.insert(name, (value, Some(v.len()), thin));
    }

    fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|m| self.metric(m.name, m.unit))
            .collect()
    }

    fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|(name, unit, _)| self.metric(name, unit))
            .collect()
    }

    fn metric(&self, name: &'static str, unit: &'static str) -> Metric {
        let (value, samples, thin) = self.values.get(name).copied().unwrap_or((0.0, None, false));
        Metric {
            name,
            value,
            unit,
            samples,
            thin,
        }
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Runs `w` once. Untraced, the result holds the end-to-end metrics of
/// one `seconds`-long window. Traced, the time is split between an
/// untraced and a traced window over two clusters (their difference is
/// the tracing overhead), the trio runs, the result holds the per-layer
/// metrics, and `out_dir/trace-<workload>.json` receives the spans.
pub fn run_workload(
    w: &'static Workload,
    seed: u64,
    seconds: u64,
    traced: bool,
    out_dir: &Path,
) -> Result<RunResult, String> {
    let threads = std::thread::available_parallelism().map_or(1, usize::from);
    if w.clients > threads {
        return Err(format!(
            "{}: {} client threads on {threads} processors would measure the load generator",
            w.name, w.clients
        ));
    }
    if w.script == Script::Certify {
        return run_certify(w, seconds, traced);
    }
    let mut run_dir = RunDir::create(out_dir)?;
    let window = Duration::from_secs(seconds);
    let mut setup_s = Vec::new();
    let mut windows: Vec<Window> = Vec::new();
    // What each of the three set-ups is for: `None` is torn down at once,
    // `Some((time, traced))` carries a measured window. A traced run
    // splits the time between an untraced and a traced half.
    let uses: [Option<(Duration, bool)>; SETUPS] = if traced {
        [None, Some((window / 2, false)), Some((window / 2, true))]
    } else {
        [None, None, Some((window, false))]
    };
    for (i, usage) in uses.into_iter().enumerate() {
        let dir = run_dir.path().join(format!("setup{i}"));
        let with_trace = usage.is_some_and(|(_, traced)| traced);
        let (cluster, leader, took) = live::setup(w, seed, i, &dir, with_trace)?;
        setup_s.push(took);
        if let Some((span, _)) = usage {
            windows.push(live::measure(w, seed, cluster, leader, span, with_trace)?);
        }
    }
    let last = windows.last().expect("one window is always measured");
    let failure = windows.iter().find_map(|win| win.checks.failure());
    let (attempted, failed) = last.attempted_failed();

    let mut sheet = Sheet::default();
    end_to_end_sheet(&mut sheet, last, &setup_s);
    if traced {
        let trio_dir = run_dir.path().join("trio");
        fs::create_dir_all(&trio_dir).map_err(|e| e.to_string())?;
        let trio = trio::run(w.nodes, w.trio_log_len, seed, TRIO_OPS, &trio_dir)?;
        per_layer_sheet(&mut sheet, &windows[0], last, &trio.metrics);
        write_trace(out_dir, w.name, seed, &last.spans, &trio.spans)?;
    }
    if failure.is_none() {
        run_dir.succeed();
    }
    Ok(RunResult {
        workload: w.name,
        correct: failure.is_none(),
        failure,
        attempted,
        failed,
        metrics: if traced {
            sheet.per_layer()
        } else {
            sheet.end_to_end()
        },
    })
}

fn end_to_end_sheet(sheet: &mut Sheet, win: &Window, setup_s: &[f64]) {
    let puts = win.latencies_us(Call::Put);
    let ops = win.acked_ops() as f64;
    sheet.stat("setup_s", median(setup_s).unwrap_or(0.0), setup_s.len());
    sheet.stat("ops_per_s", win.service_rate(), ops as usize);
    sheet.percentile("latency_p50_us", &puts, 0.50);
    sheet.percentile("latency_p95_us", &puts, 0.95);
    let cpu_ms: f64 = win.cpu_ms.values().sum();
    sheet.set("cpu_us_per_op", ratio(cpu_ms * 1000.0, ops));
    // The median over the window, not the peak: a peak is set by how
    // many log copies happened to be queued at one instant.
    sheet.stat(
        "rss_kb",
        median(&win.rss_kb).unwrap_or(0.0),
        win.rss_kb.len(),
    );
}

fn per_layer_sheet(
    sheet: &mut Sheet,
    untraced: &Window,
    win: &Window,
    trio: &BTreeMap<&'static str, f64>,
) {
    let puts = win.latencies_us(Call::Put);
    let gets = win.latencies_us(Call::Get);
    let ops = win.acked_ops() as f64;
    let put_mean = mean(&puts);
    sheet.stat("load.puts", puts.len() as f64, puts.len());
    sheet.stat("load.gets", gets.len() as f64, gets.len());
    sheet.stat("client.put_mean_us", put_mean, puts.len());
    sheet.percentile("client.put_p99_us", &puts, 0.99);
    let attempts: Vec<f64> = win
        .samples
        .iter()
        .filter(|s| s.call == Call::Put && s.ok)
        .map(|s| f64::from(s.attempts))
        .collect();
    sheet.stat(
        "client.put_attempts_per_op",
        mean(&attempts),
        attempts.len(),
    );
    sheet.stat("client.get_mean_us", mean(&gets), gets.len());
    sheet.percentile("client.get_p50_us", &gets, 0.50);
    sheet.percentile("client.get_p99_us", &gets, 0.99);
    let reconfigures = win.latencies_us(Call::Reconfigure);
    sheet.stat(
        "client.reconfigure_max_us",
        reconfigures.iter().copied().fold(0.0, f64::max),
        reconfigures.len(),
    );
    if let Some((sum_us, count)) = win.request_latency {
        let inside = ratio(sum_us as f64, count as f64);
        sheet.stat("node.leader_request_mean_us", inside, count as usize);
        sheet.set("client.wire_overhead_us", put_mean - inside);
    }

    let leader_cpu = win.cpu_ms.get(&win.leader).copied().unwrap_or(0.0);
    let followers = (win.cpu_ms.len().max(1) - 1) as f64;
    let follower_cpu = win.cpu_ms.values().sum::<f64>() - leader_cpu;
    sheet.set("node.leader_cpu_ms_per_op", ratio(leader_cpu, ops));
    sheet.set(
        "node.follower_cpu_ms_per_op",
        ratio(ratio(follower_cpu, followers), ops),
    );
    let rss = |leader: bool| {
        win.hwm_kb
            .iter()
            .filter(|(nid, _)| (**nid == win.leader) == leader)
            .map(|(_, kb)| *kb)
            .max()
            .unwrap_or(0) as f64
    };
    sheet.set("node.leader_rss_kb", rss(true));
    sheet.set("node.follower_rss_kb", rss(false));
    sheet.set(
        "node.wal_bytes_per_op",
        ratio(win.wal_bytes as f64, puts.len() as f64),
    );
    sheet.set(
        "node.journal_bytes_per_op",
        ratio(win.journal_bytes as f64, puts.len() as f64),
    );

    // The slope of write latency over the window: first against last
    // tenth of the puts, in the order they were issued.
    let mut by_start: Vec<(u64, f64)> = win
        .samples
        .iter()
        .filter(|s| s.call == Call::Put && s.ok)
        .map(|s| (s.start_ns, s.lat_ns as f64 / 1000.0))
        .collect();
    by_start.sort_by_key(|(start, _)| *start);
    let tenth = (by_start.len() / 10).max(1).min(by_start.len());
    let decile = |part: &[(u64, f64)]| mean(&part.iter().map(|(_, l)| *l).collect::<Vec<_>>());
    let first = decile(&by_start[..tenth]);
    let last = decile(&by_start[by_start.len() - tenth..]);
    sheet.stat("node.first_decile_put_us", first, tenth);
    sheet.stat("node.last_decile_put_us", last, tenth);
    sheet.set("node.slowdown_last_over_first", ratio(last, first));

    if let Some(log) = win.failover {
        // The put in flight when the leader died, or failing that the
        // first one issued afterwards, measures the outage.
        let outage = win
            .samples
            .iter()
            .filter(|s| s.call == Call::Put && s.start_ns + s.lat_ns >= log.kill_ns)
            .min_by_key(|s| s.start_ns)
            .map_or(0.0, |s| s.lat_ns as f64 / 1e6);
        sheet.set("failover.unavailable_ms", outage);
        sheet.set("failover.rejoin_ms", log.rejoin_ms);
    }
    sheet.set("failover.elections", win.checks.elections as f64);
    sheet.set(
        "obs.events_per_op",
        ratio(win.checks.audit_events as f64, ops),
    );
    sheet.set("obs.audit_ms", win.checks.audit_ms);
    sheet.set(
        "obs.audit_events_per_s",
        ratio(win.checks.audit_events as f64 * 1000.0, win.checks.audit_ms),
    );

    for (name, value) in trio {
        sheet.set(name, *value);
    }
    let blocking = trio.get("trio.critical_path_us").copied().unwrap_or(0.0);
    sheet.set("node.unexplained_share", 1.0 - ratio(blocking, put_mean));
    let rate = Window::service_rate;
    sheet.set(
        "trace.overhead_share",
        ratio(rate(untraced) - rate(win), rate(untraced)),
    );
}

fn run_certify(w: &'static Workload, seconds: u64, traced: bool) -> Result<RunResult, String> {
    let mut setup_s = Vec::new();
    for _ in 0..SETUPS {
        setup_s.push(certify::warm_up()?);
    }
    let fig4 = certify::fig4_discriminates();
    let before = procfs::sample("self").ok_or("cannot read /proc/self")?;
    let win = certify::measure(Duration::from_secs(seconds));
    let after = procfs::sample("self").ok_or("cannot read /proc/self")?;
    let (attempted, failed) = win.attempted_failed();
    let failure = fig4.err().or_else(|| {
        (failed > 0).then(|| format!("{failed} explorations missed their pinned verdict or counts"))
    });

    let mut sheet = Sheet::default();
    let states = win.states() as f64;
    let pair_us: Vec<f64> = win.pair_s.iter().map(|s| s * 1e6).collect();
    sheet.stat("setup_s", median(&setup_s).unwrap_or(0.0), setup_s.len());
    sheet.stat("ops_per_s", ratio(states, win.wall_s), states as usize);
    sheet.stat(
        "latency_p50_us",
        median(&pair_us).unwrap_or(0.0),
        pair_us.len(),
    );
    // Too few pairs for a percentile: the tail is the slowest pair.
    sheet.stat(
        "latency_p95_us",
        pair_us.iter().copied().fold(0.0, f64::max),
        pair_us.len(),
    );
    sheet.set(
        "cpu_us_per_op",
        ratio(after.cpu_ms_since(&before) * 1000.0, states),
    );
    sheet.set("rss_kb", after.hwm_kb as f64);
    const ADORE: [&str; 4] = [
        "checker.adore_states",
        "checker.adore_transitions",
        "checker.adore_wall_ms",
        "checker.adore_states_per_s",
    ];
    const NET: [&str; 4] = [
        "checker.net_states",
        "checker.net_transitions",
        "checker.net_wall_ms",
        "checker.net_states_per_s",
    ];
    for ([states, transitions, wall_ms, rate], runs) in [(ADORE, &win.adore), (NET, &win.net)] {
        let Some(first) = runs.first() else { continue };
        let best = runs.iter().map(|e| e.wall_s).fold(f64::INFINITY, f64::min);
        sheet.set(states, first.states as f64);
        sheet.set(transitions, first.transitions as f64);
        sheet.stat(wall_ms, best * 1000.0, runs.len());
        sheet.stat(rate, ratio(first.states as f64, best), runs.len());
    }
    Ok(RunResult {
        workload: w.name,
        correct: failure.is_none(),
        failure,
        attempted,
        failed,
        metrics: if traced {
            sheet.per_layer()
        } else {
            sheet.end_to_end()
        },
    })
}

/// Writes the spans of a traced run: the live client calls and the trio.
fn write_trace(
    out_dir: &Path,
    workload: &str,
    seed: u64,
    live: &[Span],
    trio: &[Span],
) -> Result<(), String> {
    use serde::Serialize;
    let doc = JsonValue::Object(vec![
        ("workload".to_string(), JsonValue::Str(workload.to_string())),
        ("seed".to_string(), JsonValue::UInt(seed)),
        ("live".to_string(), live.ser_value()),
        ("trio".to_string(), trio.ser_value()),
    ]);
    let path = out_dir.join(format!("trace-{workload}.json"));
    let text = serde_json::to_string(&doc).map_err(|e| e.to_string())?;
    fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
