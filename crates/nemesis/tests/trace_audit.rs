//! Trace-certified auditing of nemesis campaigns: every traced run's
//! journal must be accepted by the trace auditor, and the auditor —
//! reconstructing protocol state purely from the trace — must
//! independently reproduce the run's verdict.
//!
//! This is the observability layer's teeth: a guard-ablation campaign
//! that diverges live must yield a trace from which the auditor finds
//! the *same* committed-prefix divergence without ever touching the
//! simulation, and a sound-guard campaign's trace must certify clean.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::disallowed_methods)] // L12a: no unbounded channel()
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5

use adore_core::ReconfigGuard;
use adore_nemesis::{
    ablation_suite, hunt, r3_ablation_schedule, random_schedule, run_schedule,
    run_schedule_traced, storage_ablation_suite, EngineParams, RandomScheduleParams,
    ViolationKind,
};
use adore_obs::{audit_events, audit_jsonl, to_jsonl};

#[test]
fn guard_ablation_traces_reproduce_their_divergence_verdicts() {
    for (label, schedule) in ablation_suite() {
        let (report, events) = run_schedule_traced(&schedule, &EngineParams::default());
        assert!(
            matches!(
                report.violation,
                Some((ViolationKind::LogDivergence { .. }, _))
            ),
            "{label}: expected a live divergence, got {:?}",
            report.violation
        );
        let audit = audit_events(&events);
        assert!(
            audit.consistent,
            "{label}: audit rejected the trace: {:?}",
            audit.errors
        );
        assert!(
            audit.divergence.is_some(),
            "{label}: auditor failed to reproduce the divergence from the trace alone"
        );
    }
}

#[test]
fn sound_guard_runs_of_the_same_schedules_audit_clean() {
    for (label, schedule) in ablation_suite() {
        let sound = schedule.with_guard(ReconfigGuard::all());
        let (report, events) = run_schedule_traced(&sound, &EngineParams::default());
        assert!(report.is_safe(), "{label}: sound guard must not diverge");
        let audit = audit_events(&events);
        assert!(
            audit.consistent && audit.divergence.is_none(),
            "{label}: clean run failed to certify: {:?}",
            audit.errors
        );
    }
}

#[test]
fn storage_ablation_traces_are_audit_consistent() {
    let engine = EngineParams {
        certify_storage: true,
        ..EngineParams::default()
    };
    for (label, schedule) in storage_ablation_suite() {
        let (report, events) = run_schedule_traced(&schedule, &engine);
        assert!(!report.is_safe(), "{label}: ablation must violate");
        let audit = audit_events(&events);
        assert!(
            audit.consistent,
            "{label}: audit rejected the trace: {:?}",
            audit.errors
        );
    }
}

#[test]
fn random_campaign_traces_audit_clean_and_tracing_is_invisible() {
    let params = RandomScheduleParams::default();
    let engine = EngineParams::default();
    for seed in 0..4 {
        let schedule = random_schedule(&params, seed);
        let plain = run_schedule(&schedule, &engine);
        let (traced, events) = run_schedule_traced(&schedule, &engine);
        // Tracing must not perturb the campaign.
        assert_eq!(plain.degraded, traced.degraded, "seed {seed}");
        assert_eq!(plain.committed_entries, traced.committed_entries);
        // The journal round-trips through JSONL and certifies.
        let audit = audit_jsonl(&to_jsonl(&events)).expect("journal parses");
        assert!(
            audit.consistent,
            "seed {seed}: audit rejected the trace: {:?}",
            audit.errors
        );
        assert!(audit.divergence.is_none(), "seed {seed}");
    }
}

#[test]
fn hunted_counterexamples_embed_an_auditable_trace() {
    let cx = hunt(&r3_ablation_schedule(), &EngineParams::default())
        .expect("the R3 ablation must be huntable");
    let trace = cx.trace.as_deref().expect("witness carries a trace");
    let audit = audit_jsonl(trace).expect("embedded trace parses");
    assert!(audit.consistent, "audit errors: {:?}", audit.errors);
    assert!(
        audit.divergence.is_some(),
        "the witness trace must reproduce the divergence"
    );
    // The counterexample (trace included) round-trips through JSON.
    let json = serde_json::to_string(&cx).unwrap();
    let back: adore_nemesis::Counterexample = serde_json::from_str(&json).unwrap();
    assert_eq!(back, cx);
}
