//! `adore-perf`: the repository benchmark.
//!
//! ```text
//! adore-perf --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! adore-perf [--seed N] [--seconds S] [--runs R] [--trace 0|1] [--out FILE]
//! adore-perf --compare A.json B.json
//! ```
//!
//! With `--workload` it runs that workload once, prints every metric as
//! `workload metric value unit`, and ends with one JSON object on the
//! last line. Without, it runs all seven (each `--runs` times, seeds
//! `N, N+1, ..`), and writes one result set that `--compare` reads. See
//! `benchmark/README.md`.

mod catalog;
mod certify;
mod cluster;
mod compare;
mod inputs;
mod json;
mod live;
mod procfs;
mod prom;
mod run;
mod span;
mod stats;
mod trio;

use std::path::{Path, PathBuf};

use serde_json::JsonValue;

use catalog::{Workload, WORKLOADS};
use run::{run_workload, RunResult};

/// Where scratch data, traces and default result sets go.
const OUT_DIR: &str = "benchmark/out";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = if args.first().map(String::as_str) == Some("node") {
        cluster::node_main(&args[1..])
    } else {
        match cli(&args) {
            Ok(true) => 0,
            Ok(false) => 1,
            Err(e) => {
                eprintln!("adore-perf: {e}");
                2
            }
        }
    };
    std::process::exit(code);
}

/// The argument after flag `name`.
pub(crate) fn value<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn number(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    value(args, name).map_or(Ok(default), |v| {
        v.parse()
            .map_err(|_| format!("{name} takes a whole number, got `{v}`"))
    })
}

fn cli(args: &[String]) -> Result<bool, String> {
    if let Some(i) = args.iter().position(|a| a == "--compare") {
        return match (args.get(i + 1), args.get(i + 2)) {
            (Some(a), Some(b)) => compare::compare(a, b),
            _ => Err("--compare takes two result files".to_string()),
        };
    }
    let seed = number(args, "--seed", 42)?;
    let seconds = number(args, "--seconds", 10)?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds is between 1 and 60".to_string());
    }
    // `--trace` alone means `--trace 1`.
    let traced = args.iter().any(|a| a == "--trace") && value(args, "--trace") != Some("0");
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("{OUT_DIR}: {e}"))?;

    if let Some(name) = value(args, "--workload") {
        let w = catalog::workload(name).ok_or_else(|| {
            let names = WORKLOADS.map(|w| w.name).join(", ");
            format!("unknown workload `{name}`; the workloads are {names}")
        })?;
        let result = run_workload(w, seed, seconds, traced, out_dir)?;
        print_result(&result);
        println!(
            "{}",
            serde_json::to_string(&result.to_json()).map_err(|e| e.to_string())?
        );
        return Ok(result.correct);
    }

    let runs = number(args, "--runs", 1)?.max(1);
    let out = value(args, "--out").map_or_else(
        || out_dir.join(format!("results-{seed}.json")),
        PathBuf::from,
    );
    let mut all_correct = true;
    let mut sets = Vec::new();
    for w in &WORKLOADS {
        let mut results = Vec::new();
        for r in 0..runs {
            results.push(run_in_child(w, seed + r, seconds, false)?);
        }
        let layers = traced
            .then(|| run_in_child(w, seed, seconds, true))
            .transpose()?;
        all_correct &= results.iter().chain(&layers).all(|r| r.correct);
        sets.push(workload_json(w, &results, layers.as_ref()));
    }
    let processors = std::thread::available_parallelism().map_or(1, usize::from);
    let doc = JsonValue::Object(vec![
        (
            "benchmark".to_string(),
            JsonValue::Str("adore-perf".to_string()),
        ),
        ("seed".to_string(), JsonValue::UInt(seed)),
        ("seconds".to_string(), JsonValue::UInt(seconds)),
        ("runs".to_string(), JsonValue::UInt(runs)),
        ("processors".to_string(), JsonValue::UInt(processors as u64)),
        ("workloads".to_string(), JsonValue::Array(sets)),
    ]);
    let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
    std::fs::write(&out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    println!("adore-perf: result set written to {}", out.display());
    Ok(all_correct)
}

/// What a single-workload run reported on its last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in the order reported.
    metrics: Vec<(String, f64, String)>,
}

impl Outcome {
    fn parse(line: &str) -> Option<Outcome> {
        use json::{field, number};
        let doc: JsonValue = serde_json::from_str(line).ok()?;
        let metrics = field(&doc, "metrics")?
            .as_object()?
            .iter()
            .map(|(name, m)| {
                let unit = field(m, "unit")?.as_str()?.to_string();
                Some((name.clone(), number(field(m, "value")?)?, unit))
            })
            .collect::<Option<_>>()?;
        Some(Outcome {
            correct: field(&doc, "correct")? == &JsonValue::Bool(true),
            attempted: number(field(&doc, "attempted")?)? as u64,
            failed: number(field(&doc, "failed")?)? as u64,
            metrics,
        })
    }
}

/// Runs one workload once in a process of its own, exactly as the
/// single-workload command line does, so that a result set holds what a
/// caller of that command line sees: no allocator state, peak memory or
/// open descriptors carried over from the workload before.
fn run_in_child(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let (lines, last) = stdout
        .trim_end()
        .rsplit_once('\n')
        .unwrap_or(("", stdout.trim_end()));
    println!("{lines}");
    Outcome::parse(last).ok_or_else(|| format!("{} (seed {seed}) ended without a result", w.name))
}

/// `workload metric value unit`, one line per metric; nothing but the
/// reason when an output check failed.
fn print_result(result: &RunResult) {
    if let Some(reason) = &result.failure {
        println!("{} FAILED {reason}", result.workload);
        return;
    }
    for m in &result.metrics {
        let samples = m.samples.map_or(String::new(), |n| format!(" n={n}"));
        let thin = if m.thin {
            " (fewer than 10 samples beyond)"
        } else {
            ""
        };
        println!(
            "{} {} {} {}{samples}{thin}",
            result.workload, m.name, m.value, m.unit
        );
    }
    println!(
        "{} attempted {} failed {}",
        result.workload, result.attempted, result.failed
    );
}

/// One workload's entry in a result set.
fn workload_json(w: &Workload, runs: &[Outcome], layers: Option<&Outcome>) -> JsonValue {
    let uints = |f: fn(&Outcome) -> u64| {
        JsonValue::Array(runs.iter().map(|r| JsonValue::UInt(f(r))).collect())
    };
    let first = runs.first().map_or(&[][..], |r| &r.metrics[..]);
    let end_to_end = first
        .iter()
        .enumerate()
        .map(|(i, (name, _, unit))| {
            let values = runs.iter().map(|r| JsonValue::Float(r.metrics[i].1));
            let fields = vec![
                ("unit".to_string(), JsonValue::Str(unit.clone())),
                ("values".to_string(), JsonValue::Array(values.collect())),
            ];
            (name.clone(), JsonValue::Object(fields))
        })
        .collect();
    let mut fields = vec![
        ("name".to_string(), JsonValue::Str(w.name.to_string())),
        (
            "correct".to_string(),
            JsonValue::Bool(runs.iter().chain(layers).all(|r| r.correct)),
        ),
        ("attempted".to_string(), uints(|r| r.attempted)),
        ("failed".to_string(), uints(|r| r.failed)),
        ("end_to_end".to_string(), JsonValue::Object(end_to_end)),
    ];
    if let Some(layers) = layers {
        let per_layer = layers
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                let fields = vec![
                    ("unit".to_string(), JsonValue::Str(unit.clone())),
                    ("value".to_string(), JsonValue::Float(*value)),
                ];
                (name.clone(), JsonValue::Object(fields))
            })
            .collect();
        fields.push(("per_layer".to_string(), JsonValue::Object(per_layer)));
    }
    JsonValue::Object(fields)
}
