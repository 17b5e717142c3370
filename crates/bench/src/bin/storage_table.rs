//! Experiment E10 — Durable storage: WAL + simulated disk faults with
//! certified crash recovery.
//!
//! Two sub-experiments:
//!
//! 1. **Certified durability**: the scripted storage-ablation schedules
//!    (run under the *strict* policy) plus a seeded campaign of random
//!    schedules mixing disk faults — torn records, bit-flip corruption,
//!    media wipes, orphaned unsynced writes — with the network and
//!    process faults of E9, all with the storage certification checker
//!    on: every ack is backed by the synced WAL mirror, every recovery
//!    is exactly the replay, and the committed prefix never diverges.
//!    `STORAGE_TABLE_SEEDS` overrides the campaign size (default 100).
//! 2. **Storage-ablation hunts**: with one durability discipline off —
//!    fsync-before-ack, checksum verification at replay, or
//!    truncate-invalid-tail — the engine finds a committed-prefix
//!    divergence, minimizes the schedule with delta debugging,
//!    round-trips the witness through JSON, replays it
//!    deterministically, and confirms the strict policy defuses it.
//!    (No [`adore_nemesis::NetHarness`] cross-check here: the untimed
//!    model has no WAL, so disk faults have no meaning at that level —
//!    these are storage-layer violations by construction.)
//!
//! Usage: `cargo run -p adore-bench --bin storage_table --release`

use adore_bench::{fmt_duration, print_table};
use adore_nemesis::{
    hunt, random_schedule, replay, run_schedule, storage_ablation_suite, Counterexample,
    DurabilityPolicy, EngineParams, FaultSchedule, RandomScheduleParams, ViolationKind,
};

fn main() {
    let params = EngineParams { certify_storage: true };
    let seeds: u64 = std::env::var("STORAGE_TABLE_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(100);

    // 1. Certified durability under the strict policy.
    println!(
        "certified durability — strict policy, storage certification on, {seeds} random seeds\n"
    );
    let mut campaigns: Vec<(String, FaultSchedule)> = storage_ablation_suite()
        .into_iter()
        .map(|(_, s)| {
            (
                format!("{} (strict)", s.name),
                s.with_durability(DurabilityPolicy::strict()),
            )
        })
        .collect();
    let random_params = RandomScheduleParams::default();
    for seed in 0..seeds {
        let s = random_schedule(&random_params, seed);
        campaigns.push((s.name.clone(), s));
    }
    let mut rows = Vec::new();
    let mut violations = 0usize;
    let mut total_records = 0usize;
    let mut total_syncs = 0usize;
    let start_all = std::time::Instant::now();
    for (i, (name, schedule)) in campaigns.iter().enumerate() {
        let start = std::time::Instant::now();
        let report = run_schedule(schedule, &params);
        violations += usize::from(!report.is_safe());
        total_records += report.wal_records;
        total_syncs += report.wal_syncs;
        // The scripted schedules and a sample of the random ones get a
        // table row; the rest only feed the aggregate line.
        if i < 3 || i % (campaigns.len() / 10).max(1) == 0 {
            rows.push(vec![
                name.clone(),
                schedule.faults.len().to_string(),
                format!(
                    "{}/{}",
                    report.degraded.total_acked(),
                    report.degraded.total_attempted()
                ),
                report.committed_entries.to_string(),
                format!("{}/{}", report.wal_records, report.wal_syncs),
                report
                    .violation
                    .as_ref()
                    .map_or("none".to_string(), |(v, i)| format!("phase {i}: {v}")),
                fmt_duration(start.elapsed()),
            ]);
        }
    }
    print_table(
        &[
            "campaign",
            "faults",
            "acked/attempted",
            "committed",
            "wal rec/sync",
            "violation",
            "time",
        ],
        &rows,
    );
    assert_eq!(
        violations, 0,
        "the strict policy must certify every campaign"
    );
    println!(
        "\n{} campaigns, 0 violations (committed-prefix, linearizability, ack-durability, \
         recovery-faithfulness); {} WAL records, {} syncs; total {}\n",
        campaigns.len(),
        total_records,
        total_syncs,
        fmt_duration(start_all.elapsed()),
    );

    // 2. Storage-ablation hunts: find, minimize, serialize, replay.
    println!("storage-ablation hunts — the same engine with one discipline off\n");
    let hunt_params = EngineParams::default(); // certification off: the
                                               // committed prefix itself must break
    let mut rows = Vec::new();
    let mut example_json = None;
    for (label, schedule) in storage_ablation_suite() {
        let start = std::time::Instant::now();
        let cex = hunt(&schedule, &hunt_params)
            .unwrap_or_else(|| panic!("{label}: no violation found"));
        assert!(
            matches!(cex.violation, ViolationKind::LogDivergence { .. }),
            "{label}: expected a committed-prefix divergence, got {:?}",
            cex.violation
        );

        // The counterexample is portable: through JSON and back, the
        // replay still produces the same violation.
        let json = serde_json::to_string(&cex).expect("counterexample serializes");
        let back: Counterexample = serde_json::from_str(&json).expect("and deserializes");
        assert_eq!(back, cex, "{label}: JSON round-trip changed the witness");
        let replayed = replay(&back.schedule, &hunt_params).expect("replay still violates");
        assert_eq!(replayed, cex.violation, "{label}: replay disagrees");

        // Cross-check: the minimized witness is defused by restoring the
        // strict policy — the violation lives in the storage ablation,
        // not in the fault sequence.
        assert!(
            replay(
                &back.schedule.clone().with_durability(DurabilityPolicy::strict()),
                &hunt_params,
            )
            .is_none(),
            "{label}: divergence under the strict policy"
        );

        rows.push(vec![
            label.to_string(),
            format!("{}", schedule.durability),
            cex.violation.to_string(),
            format!("{} -> {}", cex.original_faults, cex.schedule.faults.len()),
            format!("{} B", json.len()),
            "defused".to_string(),
            fmt_duration(start.elapsed()),
        ]);
        if label == "no-fsync-before-ack" {
            example_json = Some(serde_json::to_string_pretty(&cex.schedule).expect("pretty"));
        }
    }
    print_table(
        &[
            "ablation",
            "policy",
            "violation",
            "faults (orig -> min)",
            "witness",
            "under strict",
            "time",
        ],
        &rows,
    );
    println!(
        "\nminimized no-fsync witness (replayable with `replay`):\n{}",
        example_json.expect("no-fsync is in the suite")
    );
}
