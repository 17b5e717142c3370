//! `adore-check`: command-line front end to the model checker.
//!
//! ```text
//! adore_check explore [--nodes N] [--depth D] [--guard r1r2r3|r1r2|r1|none] [--no-reconfig]
//! adore_check walk    [--nodes N] [--walks W] [--steps S] [--seed X] [--guard ...] [--shrink]
//! adore_check replay  <scenario.json> [--dot]
//! adore_check fig4    [--guard ...] [--json] [--dot]
//! ```
//!
//! All subcommands use the Raft single-node scheme. Exit status is 0 when
//! the checked property holds (or a requested counterexample was found),
//! 1 on a surprise, 2 on usage errors.

#![deny(clippy::disallowed_types, clippy::disallowed_methods)] // L1, L12a: as the library

use std::process::ExitCode;

use adore_checker::{
    explore, fig4_scenario, random_walk, shrink_trace, ExploreParams, InvariantSuite, Scenario,
    WalkParams,
};
use adore_core::{render, ReconfigGuard};
use adore_schemes::SingleNode;

fn parse_guard(s: &str) -> Option<ReconfigGuard> {
    match s {
        "r1r2r3" | "all" => Some(ReconfigGuard::all()),
        "r1r2" => Some(ReconfigGuard::all().without_r3()),
        "r1" => Some(ReconfigGuard::all().without_r2().without_r3()),
        "none" => Some(ReconfigGuard::all().without_r1().without_r2().without_r3()),
        _ => None,
    }
}

struct Args {
    positional: Vec<String>,
    flags: Vec<(String, Option<String>)>,
}

impl Args {
    fn parse(raw: Vec<String>) -> Args {
        let mut positional = Vec::new();
        let mut flags = Vec::new();
        let mut it = raw.into_iter().peekable();
        while let Some(a) = it.next() {
            if let Some(name) = a.strip_prefix("--") {
                let value = it
                    .peek()
                    .filter(|v| !v.starts_with("--"))
                    .cloned()
                    .inspect(|_| {
                        it.next();
                    });
                flags.push((name.to_string(), value));
            } else {
                positional.push(a);
            }
        }
        Args { positional, flags }
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|(n, _)| n == name)
    }

    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn num(&self, name: &str, default: usize) -> usize {
        self.value(name)
            .and_then(|v| v.parse().ok())
            .unwrap_or(default)
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: adore_check <explore|walk|replay|fig4> [options]\n\
         \n\
         explore [--nodes N] [--depth D] [--guard all|r1r2|r1|none] [--no-reconfig]\n\
         walk    [--nodes N] [--walks W] [--steps S] [--seed X] [--guard ...] [--shrink]\n\
         replay  <scenario.json> [--dot]\n\
         fig4    [--guard ...] [--json] [--dot]"
    );
    ExitCode::from(2)
}

fn conf(nodes: usize) -> SingleNode {
    SingleNode::new(1..=(nodes as u32))
}

fn main() -> ExitCode {
    let args = Args::parse(std::env::args().skip(1).collect());
    let Some(cmd) = args.positional.first().map(String::as_str) else {
        return usage();
    };
    let guard = match args.value("guard").map(parse_guard) {
        Some(Some(g)) => g,
        Some(None) => return usage(),
        None => ReconfigGuard::all(),
    };

    match cmd {
        "explore" => {
            let params = ExploreParams {
                max_depth: args.num("depth", 5),
                guard,
                with_reconfig: !args.flag("no-reconfig"),
                spare_nodes: 1,
                suite: InvariantSuite::Full,
                ..ExploreParams::default()
            };
            let report = explore(&conf(args.num("nodes", 3)), &params);
            println!(
                "explored {} states / {} transitions in {:?}{}",
                report.states,
                report.transitions,
                report.elapsed,
                if report.truncated { " (truncated)" } else { "" }
            );
            match report.violation {
                None => {
                    println!("verdict: SAFE under guard {guard}");
                    ExitCode::SUCCESS
                }
                Some((v, trace)) => {
                    println!("verdict: VIOLATION under guard {guard}: {v}");
                    for op in trace {
                        println!("  {}", op.summary());
                    }
                    // Finding a violation is the expected outcome for
                    // flawed guards; report success so scripts can assert.
                    ExitCode::SUCCESS
                }
            }
        }
        "walk" => {
            let conf0 = conf(args.num("nodes", 4));
            let params = WalkParams {
                walks: args.num("walks", 1000),
                steps_per_walk: args.num("steps", 30),
                explore: ExploreParams {
                    guard,
                    spare_nodes: 0,
                    suite: InvariantSuite::SafetyOnly,
                    ..ExploreParams::default()
                },
            };
            let report = random_walk(&conf0, &params, args.num("seed", 2026) as u64);
            println!(
                "{} ops across {} walks under guard {guard}",
                report.ops_applied, params.walks
            );
            match report.violation {
                None => {
                    println!("verdict: no violation found");
                    ExitCode::SUCCESS
                }
                Some((v, trace, tree)) => {
                    println!("verdict: VIOLATION: {v}");
                    let trace = if args.flag("shrink") {
                        let (minimal, _) = shrink_trace(&conf0, guard, &trace);
                        println!("shrunk {} ops -> {}", trace.len(), minimal.len());
                        minimal
                    } else {
                        trace
                    };
                    for op in &trace {
                        println!("  {}", op.summary());
                    }
                    println!("{tree}");
                    ExitCode::SUCCESS
                }
            }
        }
        "replay" => {
            let Some(path) = args.positional.get(1) else {
                return usage();
            };
            let json = match std::fs::read_to_string(path) {
                Ok(j) => j,
                Err(e) => {
                    eprintln!("cannot read {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let scenario: Scenario<SingleNode, String> = match Scenario::from_json(&json) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("cannot parse {path}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let (outcome, st) = scenario.run();
            println!(
                "scenario '{}': {} ops applied; first rejection: {:?}; violation: {:?}",
                scenario.name, outcome.applied, outcome.first_noop, outcome.violation
            );
            if args.flag("dot") {
                println!("{}", render::to_dot(&st));
            } else {
                println!("{}", outcome.final_tree);
            }
            ExitCode::SUCCESS
        }
        "fig4" => {
            let scenario = fig4_scenario(guard);
            if args.flag("json") {
                println!("{}", scenario.to_json());
                return ExitCode::SUCCESS;
            }
            let (outcome, st) = scenario.run();
            println!(
                "fig4 under guard {guard}: {} ops applied; first rejection: {:?}",
                outcome.applied, outcome.first_noop
            );
            match &outcome.violation {
                Some((step, v)) => println!("violation after op {step}: {v}"),
                None => println!("no violation"),
            }
            if args.flag("dot") {
                println!("{}", render::to_dot(&st));
            } else {
                println!("{}", outcome.final_tree);
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
