//! CLI entry point: `cargo run -p adore-obs -- --audit trace.jsonl`.
//!
//! Audits a trace journal: reconstructs protocol state from the events
//! alone and re-certifies committed-prefix agreement against the live
//! run's recorded verdict. Exits 0 when the trace is certified
//! (structurally sound and verdict-consistent — including reproducing a
//! violation verdict), 1 when not, 2 on usage or IO errors.

#![deny(clippy::disallowed_types)] // L1: as the library

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut audit_path: Option<PathBuf> = None;
    let mut format = "text".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--audit" => match args.next() {
                Some(p) => audit_path = Some(PathBuf::from(p)),
                None => {
                    eprintln!("adore-obs: --audit expects a trace file path");
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next() {
                Some(f) if f == "text" || f == "json" => format = f,
                other => {
                    eprintln!("adore-obs: --format expects `text` or `json`, got {other:?}");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!(
                    "adore-obs: audit a deterministic trace journal\n\
                     \n\
                     USAGE: adore-obs --audit TRACE.jsonl [--format text|json]\n\
                     \n\
                     Reconstructs every replica's (term, log, commit_len) purely\n\
                     from the journal's state-delta and recovery events, re-checks\n\
                     committed-prefix agreement over the reconstruction, and\n\
                     verifies journal structure (dense sequence, monotone virtual\n\
                     clock, causal send/recv links, faithful recoveries). Exit 0\n\
                     means the trace is certified: its independent verdict matches\n\
                     the live run's recorded one."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("adore-obs: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    let Some(path) = audit_path else {
        eprintln!("adore-obs: nothing to do (try --audit TRACE.jsonl or --help)");
        return ExitCode::from(2);
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("adore-obs: cannot read {}: {e}", path.display());
            return ExitCode::from(2);
        }
    };

    let report = match adore_obs::audit_jsonl(&text) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("adore-obs: {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };

    match format.as_str() {
        "json" => {
            // A small stable JSON rendering for scripting.
            let checks: Vec<(String, u64)> = report.checks.clone();
            let payload = (
                report.events as u64,
                report.nodes as u64,
                checks,
                report.errors.clone(),
                report.consistent,
            );
            match serde_json::to_string(&payload) {
                Ok(s) => println!("{s}"),
                Err(e) => eprintln!("adore-obs: render failed: {e}"),
            }
        }
        _ => {
            println!("audit of {}:", path.display());
            println!("  {}", report.summary());
            for (name, count) in &report.checks {
                println!("  {name}: {count} evaluations");
            }
            for err in &report.errors {
                println!("  error: {err}");
            }
            if let Some(d) = &report.divergence {
                println!("  reproduced violation: {d}");
            }
        }
    }

    if report.consistent {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
