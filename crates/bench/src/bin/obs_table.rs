//! Experiment E11 — observability: tracing overhead and trace-certified
//! audit.
//!
//! Two sub-experiments:
//!
//! 1. **Tracing/profiling overhead**: the same workload with
//!    observability off and on — checker exploration (metrics profiling
//!    per [`ExploreParams::profile`]), the Fig. 16 reconfiguration
//!    workload, and a sound-guard nemesis campaign (full trace journal).
//!    Each pair self-asserts that observability is *invisible* to the
//!    run: identical states, latencies, and verdicts; the only cost is
//!    wall time.
//! 2. **Trace-certified audit**: each guard-ablation campaign runs
//!    traced; the journal is written to `target/obs/<name>.jsonl` and
//!    audited by [`adore_obs::audit_events`], which reconstructs
//!    protocol state purely from the trace. Every ablated run's audit
//!    must independently reproduce the live divergence verdict, and the
//!    sound-guard run's trace must certify clean, as must the traces of
//!    the live cluster gate's two schedules run on the simulator. Each journal is also
//!    replayed through the streaming [`adore_obs::OnlineAuditor`],
//!    which must land on the identical verdict — batch ≡ online on
//!    every journal in `target/obs/`. `ci.sh` re-audits the written
//!    journals with the standalone `adore-obs --audit` binary.
//!
//! Usage: `cargo run -p adore-bench --bin obs_table --release`
//! (also writes `results/obs_table.txt` and `target/obs/*.jsonl`).

use std::path::PathBuf;
use std::time::Instant;

use adore_bench::{fmt_duration, render_table};
use adore_checker::{explore, ExploreParams, InvariantSuite};
use adore_core::ReconfigGuard;
use adore_kv::{run_fig16, Fig16Params};
use adore_nemesis::{
    ablation_suite, gate_schedules, run_schedule, run_schedule_traced, EngineParams,
    ViolationKind,
};
use adore_obs::{audit_events, to_jsonl, OnlineAuditor};
use adore_schemes::SingleNode;

fn main() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let mut out = String::new();

    // 1. Overhead: observability off vs. on, same seeds, same workloads.
    out.push_str("tracing/profiling overhead — observability off vs. on, identical seeds\n\n");
    let mut rows = Vec::new();

    // Checker exploration, metrics profiling off/on.
    let conf0 = SingleNode::new([1, 2]);
    let base = ExploreParams {
        max_depth: 6,
        max_states: 2_000_000,
        with_reconfig: true,
        spare_nodes: 1,
        suite: InvariantSuite::Full,
        ..ExploreParams::default()
    };
    let plain = explore(&conf0, &base);
    let profiled = explore(
        &conf0,
        &ExploreParams {
            profile: true,
            ..base.clone()
        },
    );
    assert_eq!(plain.states, profiled.states, "profiling changed the walk");
    assert_eq!(plain.transitions, profiled.transitions);
    assert!(plain.is_safe() && profiled.is_safe());
    let prof = profiled.profile.as_ref().expect("profile requested");
    rows.push(vec![
        "explore (ADORE, depth 6)".into(),
        "profiling".into(),
        format!("{} states", plain.states),
        fmt_duration(plain.elapsed),
        fmt_duration(profiled.elapsed),
        format!(
            "{} invariant evals, hottest {}",
            prof.invariant_evals(),
            prof.hottest_invariants()
                .first()
                .map_or("-".to_string(), |(n, c)| format!("{n} ({c})")),
        ),
    ]);

    // Fig. 16 workload, trace journal off/on.
    let fig_params = Fig16Params {
        requests_per_phase: 300,
        ..Fig16Params::default()
    };
    let t0 = Instant::now();
    let fig_plain = run_fig16(&fig_params, 1).expect("loss-free run");
    let fig_plain_t = t0.elapsed();
    let t0 = Instant::now();
    let fig_traced = run_fig16(
        &Fig16Params {
            tracing: true,
            ..fig_params
        },
        1,
    )
    .expect("loss-free run");
    let fig_traced_t = t0.elapsed();
    assert_eq!(
        fig_plain.records, fig_traced.records,
        "tracing changed fig16 latencies"
    );
    rows.push(vec![
        "fig16 (300 req/phase)".into(),
        "trace journal".into(),
        format!("{} requests", fig_plain.records.len()),
        fmt_duration(fig_plain_t),
        fmt_duration(fig_traced_t),
        format!("{} events journaled", fig_traced.trace.len()),
    ]);

    // Sound-guard nemesis campaign, trace journal off/on.
    let (label0, ablated) = ablation_suite().remove(2);
    assert_eq!(label0, "no-R3");
    let sound = ablated.clone().with_guard(ReconfigGuard::all());
    let engine = EngineParams::default();
    let t0 = Instant::now();
    let nem_plain = run_schedule(&sound, &engine);
    let nem_plain_t = t0.elapsed();
    let t0 = Instant::now();
    let (nem_traced, nem_events) = run_schedule_traced(&sound, &engine);
    let nem_traced_t = t0.elapsed();
    assert_eq!(nem_plain.degraded, nem_traced.degraded);
    assert!(nem_plain.is_safe() && nem_traced.is_safe());
    rows.push(vec![
        "nemesis (R3 schedule, sound guard)".into(),
        "trace journal".into(),
        format!("{} faults", sound.faults.len()),
        fmt_duration(nem_plain_t),
        fmt_duration(nem_traced_t),
        format!("{} events journaled", nem_events.len()),
    ]);

    out.push_str(&render_table(
        &["workload", "instrument", "size", "off", "on", "captured"],
        &rows,
    ));
    out.push_str(
        "\nevery pair asserts bit-identical results (states, latencies, verdicts): \
         observability is invisible to the simulation\n\n",
    );

    // 2. Trace-certified audit: the auditor must reproduce each live
    // verdict from the journal alone.
    out.push_str("trace-certified audit — verdicts reconstructed from the journal alone\n\n");
    let obs_dir = root.join("target/obs");
    std::fs::create_dir_all(&obs_dir).expect("create target/obs");
    let mut rows = Vec::new();
    let mut campaigns: Vec<(String, String, _)> = ablation_suite()
        .into_iter()
        .map(|(l, s)| {
            (
                format!("{l} (ablated)"),
                format!("{}-ablated", l.replace('+', "plus")),
                s,
            )
        })
        .collect();
    campaigns.push(("no-R3 schedule, sound guard".into(), "r3-sound".into(), sound));
    // The live gate's two schedules on the simulator: `ci.sh` audits
    // these journals beside the ones `adored hunt --gate` merges from a
    // real cluster, one schedule on both substrates.
    for gate in gate_schedules() {
        campaigns.push((format!("{} (simulated)", gate.name), gate.name.clone(), gate));
    }
    for (label, name, schedule) in campaigns {
        let expect_divergence = label.contains("ablated");
        let (report, events) = run_schedule_traced(&schedule, &engine);
        let audit = audit_events(&events);
        let file = format!("{name}.jsonl");
        std::fs::write(obs_dir.join(&file), to_jsonl(&events)).expect("write journal");

        // The streaming auditor, fed the same journal one event at a
        // time, must land on the identical verdict as the batch pass.
        let mut streaming = OnlineAuditor::new();
        for ev in &events {
            let _ = streaming.ingest(ev);
        }
        let online = streaming.finish();
        assert_eq!(
            online.consistent, audit.consistent,
            "{label}: online/batch consistency disagree"
        );
        assert_eq!(
            online.divergence, audit.divergence,
            "{label}: online/batch divergence disagree"
        );
        assert_eq!(
            online.errors, audit.errors,
            "{label}: online/batch errors disagree"
        );

        assert!(audit.consistent, "{label}: audit errors {:?}", audit.errors);
        if expect_divergence {
            assert!(
                matches!(
                    report.violation,
                    Some((ViolationKind::LogDivergence { .. }, _))
                ),
                "{label}: expected a live divergence"
            );
            assert!(
                audit.divergence.is_some(),
                "{label}: auditor failed to reproduce the divergence"
            );
        } else {
            assert!(report.is_safe() && audit.divergence.is_none(), "{label}");
        }
        rows.push(vec![
            label,
            report.violation.as_ref().map_or("safe".to_string(), |(v, p)| {
                format!("phase {p}: {v}")
            }),
            audit
                .divergence
                .map_or("no divergence".to_string(), |d| d.to_string()),
            format!("{} events", audit.events),
            format!("target/obs/{file}"),
            if audit.consistent {
                "CERTIFIED".to_string()
            } else {
                "NOT CONSISTENT".to_string()
            },
        ]);
    }
    out.push_str(&render_table(
        &[
            "campaign",
            "live verdict",
            "audit verdict (from trace alone)",
            "journal",
            "written to",
            "audit",
        ],
        &rows,
    ));
    out.push_str(
        "\nevery ablated campaign's divergence is independently reproduced by the auditor; \
         the sound-guard and simulated gate traces certify clean; the streaming \
         OnlineAuditor, replaying each journal event-by-event, reproduced every batch \
         verdict exactly\n",
    );

    print!("{out}");
    let results = root.join("results");
    if std::fs::create_dir_all(&results).is_ok() {
        let path = results.join("obs_table.txt");
        if let Err(e) = std::fs::write(&path, &out) {
            eprintln!("obs_table: cannot write {}: {e}", path.display());
        }
    }
}
