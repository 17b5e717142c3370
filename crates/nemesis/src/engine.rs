//! The fault-injection engine: schedules in, verdicts out.
//!
//! [`run_schedule`] interprets a [`FaultSchedule`] against a simulated
//! [`Cluster`], driving client traffic through the [`RobustClient`] and
//! running the replica-side checks — committed-prefix agreement
//! (`check_log_safety`) and storage certification — after **every
//! phase** and again after a final quiesce (heal everything, recover
//! everyone, elect a leader, drain the network). The quiesce then reads
//! every written key back through the leader's engine, and the client's
//! whole history must be linearizable ([`adore_obs::linearize`]). A
//! campaign that survives quiesce-time checks is genuinely safe for
//! that schedule, not merely not-yet-caught; one whose quiesce finds no
//! leader is not judged safe at all.
//!
//! When a check fails, [`hunt`] turns the run into a [`Counterexample`]:
//! the schedule is minimized with the checker's delta-debugging core
//! ([`adore_checker::shrink_sequence`]) and serialized — a portable,
//! deterministically replayable witness.

use serde::{de, value, Deserialize, Serialize, Value};

use adore_core::NodeId;
use adore_kv::{Cluster, KvCommand, LatencyModel};
use adore_obs::{EventKind, TraceEvent};
use adore_schemes::SingleNode;
use adore_storage::StorageViolation;

use crate::client::{RobustClient, ViolationKind};
use crate::schedule::{Fault, FaultSchedule};

/// Engine knobs (everything else comes from the schedule; the network
/// runs [`LatencyModel::default`], the client its fixed retry policy).
#[derive(Debug, Clone, Default)]
pub struct EngineParams {
    /// Run the storage certification checker: at every ack point, assert
    /// the acked state is a projection of the synced WAL mirror; at every
    /// recovery, assert the installed state is exactly the replay.
    pub certify_storage: bool,
}

/// Per-phase client statistics — one row per fault step.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PhaseStat {
    /// Debug rendering of the fault applied in this phase.
    pub fault: String,
    /// Client operations attempted during the phase.
    pub attempted: u32,
    /// Operations acknowledged.
    pub acked: u32,
    /// Mean acknowledged latency in virtual microseconds (0 if none).
    pub mean_latency_us: u64,
}

/// The client's-eye view of the campaign: how availability degraded and
/// recovered, phase by phase.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DegradedReport {
    /// One stat row per phase (fault step), in order.
    pub phases: Vec<PhaseStat>,
}

impl DegradedReport {
    /// Fraction of attempted operations acknowledged in phase `i`
    /// (1.0 for a phase with no traffic).
    #[must_use]
    pub fn availability(&self, i: usize) -> f64 {
        let p = &self.phases[i];
        if p.attempted == 0 {
            1.0
        } else {
            f64::from(p.acked) / f64::from(p.attempted)
        }
    }

    /// Total acknowledged operations across the campaign.
    #[must_use]
    pub fn total_acked(&self) -> u32 {
        self.phases.iter().map(|p| p.acked).sum()
    }

    /// Total attempted operations across the campaign.
    #[must_use]
    pub fn total_attempted(&self) -> u32 {
        self.phases.iter().map(|p| p.attempted).sum()
    }
}

/// Outcome of one campaign.
#[derive(Debug, Clone)]
pub struct NemesisReport {
    /// Per-phase availability and latency.
    pub degraded: DegradedReport,
    /// The first safety violation and the phase index where the checks
    /// caught it (`phases.len()` means the quiesce-time check).
    pub violation: Option<(ViolationKind, usize)>,
    /// The quiesce found no leader, so no final read could be served
    /// and the client history went unjudged: a liveness finding, never
    /// a safe verdict.
    pub leaderless: bool,
    /// Entries in the cluster-wide committed prefix at the end.
    pub committed_entries: usize,
    /// Total client operations recorded.
    pub history_len: usize,
    /// WAL records journaled across all replicas.
    pub wal_records: usize,
    /// WAL syncs issued across all replicas.
    pub wal_syncs: usize,
    /// WAL bytes written across all replicas.
    pub wal_bytes: usize,
}

impl NemesisReport {
    /// Whether the campaign completed with every check passing, its
    /// history judged by final reads.
    #[must_use]
    pub fn is_safe(&self) -> bool {
        self.violation.is_none() && !self.leaderless
    }
}

/// A minimized, serializable, deterministically replayable witness of a
/// safety violation.
#[must_use]
#[derive(Debug, Clone, PartialEq)]
pub struct Counterexample {
    /// The minimized schedule — replaying it reproduces the violation.
    pub schedule: FaultSchedule,
    /// The violation the replay produces.
    pub violation: ViolationKind,
    /// Fault count of the schedule before minimization.
    pub original_faults: usize,
    /// JSONL trace journal of the witness replay, when one was captured
    /// — feed it to `adore-obs --audit` to certify that the trace alone
    /// reproduces the violation verdict.
    pub trace: Option<String>,
}

// Hand-written serde: counterexamples minted before the observability
// subsystem carry no "trace" key, and those witnesses must stay
// loadable — a missing key deserializes to `None`, and `None`
// serializes to no key at all, so untraced counterexamples keep their
// exact legacy JSON form.
impl Serialize for Counterexample {
    fn ser_value(&self) -> Value {
        let mut fields = vec![
            ("schedule".to_string(), self.schedule.ser_value()),
            ("violation".to_string(), self.violation.ser_value()),
            (
                "original_faults".to_string(),
                self.original_faults.ser_value(),
            ),
        ];
        if let Some(trace) = &self.trace {
            fields.push(("trace".to_string(), trace.ser_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for Counterexample {
    fn deser_value(v: &Value) -> Result<Self, de::Error> {
        let pairs = v
            .as_object()
            .ok_or_else(|| de::Error::custom(format!("expected object, found {}", v.kind())))?;
        let trace = match pairs.iter().find(|(k, _)| k == "trace") {
            Some((_, v)) => Some(String::deser_value(v)?),
            None => None,
        };
        Ok(Counterexample {
            schedule: FaultSchedule::deser_value(value::get_field(pairs, "schedule")?)?,
            violation: ViolationKind::deser_value(value::get_field(pairs, "violation")?)?,
            original_faults: usize::deser_value(value::get_field(pairs, "original_faults")?)?,
            trace,
        })
    }
}

fn members_of(schedule: &FaultSchedule) -> Vec<NodeId> {
    schedule.members.iter().map(|&n| NodeId(n)).collect()
}

/// Applies one fault step; client traffic goes through `client`.
/// `members` is the schedule's initial membership (used to enumerate a
/// paused node's links).
fn apply_fault(
    cluster: &mut Cluster,
    client: &mut RobustClient,
    fault: &Fault,
    members: &[NodeId],
    write_seq: &mut u64,
) {
    match fault {
        Fault::CutOneWay { from, to } => {
            cluster.links_mut().cut_one_way(NodeId(*from), NodeId(*to));
        }
        Fault::CutBothWays { a, b } => {
            cluster.links_mut().cut_both_ways(NodeId(*a), NodeId(*b));
        }
        Fault::Partition { groups } => {
            cluster.links_mut().heal_all();
            let groups: Vec<Vec<NodeId>> = groups
                .iter()
                .map(|g| g.iter().map(|&n| NodeId(n)).collect())
                .collect();
            let refs: Vec<&[NodeId]> = groups.iter().map(Vec::as_slice).collect();
            cluster.links_mut().partition(&refs);
        }
        Fault::HealOneWay { from, to } => {
            cluster.links_mut().heal_one_way(NodeId(*from), NodeId(*to));
        }
        Fault::HealAll => cluster.links_mut().heal_all(),
        Fault::SetLinkLoss { from, to, pct } => {
            cluster
                .links_mut()
                .set_drop_pct(NodeId(*from), NodeId(*to), *pct);
        }
        Fault::SetLoss { pct } => cluster.latency_mut().drop_pct = (*pct).min(100),
        Fault::Crash { nid } => cluster.fail(NodeId(*nid)),
        Fault::CrashDisk { nid, fault } => cluster.fail_with(NodeId(*nid), fault),
        Fault::OrphanWrite => {
            // Never acked and never replicated: the canonical unsynced
            // WAL tail for the torn-write faults to bite on. The value
            // shares the global sequence so it stays unique, but the key
            // lives outside the client's rotating key space: no client
            // operation reads or writes it.
            let value = format!("orphan{}", *write_seq);
            *write_seq += 1;
            cluster.orphan_append(KvCommand::put("orphan", &value));
        }
        Fault::CrashLeader => {
            if let Some(leader) = cluster.leader() {
                cluster.fail(leader);
            }
        }
        Fault::Recover { nid } => cluster.recover(NodeId(*nid)),
        Fault::Elect { nid } => {
            // One retry absorbs a term collision (a voter that already
            // voted at the candidate's new term). The schedule means the
            // winner to take the next burst: the client is aimed at it,
            // as `hunt`'s relabelling aims the wire client.
            let nid = NodeId(*nid);
            let won = cluster.elect(nid).is_ok() || cluster.leader() == Some(nid);
            if won || cluster.elect(nid).is_ok() {
                client.aim(nid);
            }
        }
        Fault::Reconfig { members } => {
            let _ = cluster.reconfigure(SingleNode::new(members.iter().copied()));
        }
        Fault::ReconfigAdd { nid } => {
            if let Some(mut members) = cluster.members() {
                members.insert(NodeId(*nid));
                let _ = cluster.reconfigure(SingleNode::from_set(members));
            }
        }
        Fault::ReconfigRemove { nid } => {
            // Never shrink to an empty configuration (no quorum could
            // ever form again — a dead campaign, not an interesting one).
            if let Some(mut members) = cluster.members().filter(|m| m.len() > 1) {
                members.remove(&NodeId(*nid));
                let _ = cluster.reconfigure(SingleNode::from_set(members));
            }
        }
        Fault::Duplicate { copies } => cluster.duplicate_in_flight(*copies as usize),
        Fault::Reorder { window_us } => cluster.reorder_in_flight(*window_us),
        Fault::SkewTimeout { pct } => cluster.set_timeout_scale_pct(*pct),
        Fault::ClientBurst { writes } => {
            for _ in 0..*writes {
                // A small rotating key space exercises overwrites; values
                // are globally unique, as the linearizability check needs.
                let key = format!("key{}", *write_seq % 8);
                let value = format!("v{}", *write_seq);
                *write_seq += 1;
                client.put(cluster, &key, &value);
            }
        }
        Fault::Idle { us } => cluster.run_idle(*us),
        // The sim twins of the wire-level faults (see DESIGN §12 for
        // the refinement argument fault by fault).
        Fault::Pause { nid } => {
            // A paused process neither sends nor receives: full
            // isolation at message granularity.
            cluster
                .links_mut()
                .isolate(NodeId(*nid), members.iter().copied().filter(|m| m.0 != *nid));
        }
        Fault::Resume { nid } => {
            for m in members.iter().filter(|m| m.0 != *nid) {
                cluster.links_mut().heal_both_ways(NodeId(*nid), *m);
            }
        }
        Fault::CorruptLink { from, to, pct } => {
            // Every corrupted frame fails the receiver's crc and is
            // dropped, so corruption refines to link loss.
            cluster
                .links_mut()
                .set_drop_pct(NodeId(*from), NodeId(*to), *pct);
        }
        Fault::ResetLink { from, to } => {
            // The wire runtime reconnects and retransmits full state: a
            // reset is a cut that immediately heals.
            cluster.links_mut().cut_one_way(NodeId(*from), NodeId(*to));
            cluster.links_mut().heal_one_way(NodeId(*from), NodeId(*to));
        }
        Fault::SlowLink { .. } => {
            // Mid-frame stalls delay whole messages: a reordering
            // window (liveness-only; safety is delay-oblivious).
            cluster.reorder_in_flight(2_000);
        }
    }
}

/// Runs the replica-side checks: committed-prefix agreement first, then
/// the storage certification ledger. When the cluster is tracing, each
/// check's outcome is journaled as an invariant-evaluation event (the
/// trace auditor cross-checks these against its own reconstruction).
#[must_use]
fn check_safety(cluster: &mut Cluster) -> Option<ViolationKind> {
    let log = cluster.verify().err();
    let storage = cluster.storage_violations().first().cloned();
    for (name, ok) in [
        ("committed-prefix-agreement", log.is_none()),
        ("storage-certification", storage.is_none()),
    ] {
        let name = name.to_string();
        cluster.trace(EventKind::InvariantEval { name, ok });
    }
    if let Some((a, b)) = log {
        return Some(ViolationKind::LogDivergence { a: a.0, b: b.0 });
    }
    storage.map(|v| match v {
        StorageViolation::AckNotDurable { nid } => ViolationKind::AckNotDurable { nid },
        StorageViolation::UnfaithfulRecovery { nid } => ViolationKind::UnfaithfulRecovery { nid },
    })
}

fn phase_stat(fault: &Fault, client: &RobustClient, history_mark: usize) -> PhaseStat {
    let calls = &client.history[history_mark..];
    let acked: Vec<u64> = (calls.iter())
        .filter_map(|ev| match ev.kind {
            EventKind::ClientOp { latency_us, .. } => latency_us,
            _ => None,
        })
        .collect();
    PhaseStat {
        fault: format!("{fault:?}"),
        attempted: calls.len() as u32,
        acked: acked.len() as u32,
        mean_latency_us: (acked.iter().sum::<u64>())
            .checked_div(acked.len() as u64)
            .unwrap_or(0),
    }
}

/// Interprets `schedule` from a fresh cluster and returns the campaign
/// report. Deterministic: the same schedule (and engine parameters)
/// always produces the same report.
#[must_use]
pub fn run_schedule(schedule: &FaultSchedule, params: &EngineParams) -> NemesisReport {
    run_campaign(schedule, params, false).0
}

/// [`run_schedule`] with the observability layer on: the whole campaign
/// is journaled as a causal trace (run/phase markers, fault injections,
/// every message and state delta of the simulation, client operations,
/// invariant evaluations, and the final verdict). The trace is the
/// input to `adore-obs --audit`, which must reproduce the report's
/// verdict from the journal alone. Tracing never perturbs the run: the
/// report equals [`run_schedule`]'s bit for bit.
#[must_use]
pub fn run_schedule_traced(
    schedule: &FaultSchedule,
    params: &EngineParams,
) -> (NemesisReport, Vec<TraceEvent>) {
    run_campaign(schedule, params, true)
}

fn run_campaign(
    schedule: &FaultSchedule,
    params: &EngineParams,
    traced: bool,
) -> (NemesisReport, Vec<TraceEvent>) {
    let members = members_of(schedule);
    let conf0 = SingleNode::new(schedule.members.iter().copied());
    let latency = LatencyModel::default();
    let mut cluster = Cluster::build(conf0, &[], schedule.guard, latency, schedule.seed);
    cluster.set_durability(schedule.durability);
    cluster.set_certify_storage(params.certify_storage);
    cluster.set_tracing(traced);
    if traced {
        cluster.trace(EventKind::RunStart {
            name: schedule.name.clone(),
            members: schedule.members.clone(),
        });
    }
    let mut client = RobustClient::new(schedule.seed, &members);
    let mut write_seq = 0u64;

    // Boot: elect the lowest member so every schedule starts from a
    // serving cluster.
    if let Some(&first) = members.first() {
        let _ = cluster.elect(first);
    }

    let mut degraded = DegradedReport::default();
    let mut violation = None;
    for (i, fault) in schedule.faults.iter().enumerate() {
        if traced {
            cluster.trace(EventKind::PhaseStart {
                index: i as u32,
                label: format!("{fault:?}"),
            });
            cluster.trace(EventKind::FaultInject {
                fault: serde_json::to_string(fault).unwrap_or_default(),
            });
        }
        let mark = client.history.len();
        apply_fault(&mut cluster, &mut client, fault, &members, &mut write_seq);
        degraded.phases.push(phase_stat(fault, &client, mark));
        if let Some(v) = check_safety(&mut cluster) {
            violation = Some((v, i));
            break;
        }
    }

    // Quiesce: heal everything, recover everyone, re-establish a leader,
    // drain, push a final burst through, read every written key back,
    // and check once more. Violations that only manifest after the
    // partition heals (the classic reconfiguration bugs) surface here.
    let mut leaderless = false;
    if violation.is_none() {
        if traced {
            cluster.trace(EventKind::PhaseStart {
                index: schedule.faults.len() as u32,
                label: "quiesce".to_string(),
            });
            cluster.trace(EventKind::Heal);
        }
        cluster.links_mut().heal_all();
        cluster.latency_mut().drop_pct = 0;
        cluster.set_timeout_scale_pct(100);
        for &nid in &members {
            cluster.recover(nid);
        }
        cluster.run_idle(50_000);
        // The final reads need a leader: up to ten rounds, each offering
        // the running nodes an election, freshest log first.
        for _ in 0..10 {
            if cluster.adopt_leader().is_some()
                || (cluster.freshest_first().into_iter()).any(|n| cluster.elect(n).is_ok())
            {
                break;
            }
        }
        leaderless = cluster.adopt_leader().is_none();
        let mark = client.history.len();
        for _ in 0..3 {
            let key = format!("key{}", write_seq % 8);
            let value = format!("v{write_seq}");
            write_seq += 1;
            client.put(&mut cluster, &key, &value);
        }
        cluster.run_idle(50_000);
        let mut stat = phase_stat(&Fault::HealAll, &client, mark);
        stat.fault = "quiesce".into();
        degraded.phases.push(stat);
        if !leaderless {
            client.read_back(&mut cluster);
        }
        let history = adore_obs::linearize(&client.history);
        let (name, ok) = ("linearizable".to_string(), history.is_ok());
        cluster.trace(EventKind::InvariantEval { name, ok });
        violation = check_safety(&mut cluster)
            .or_else(|| history.err().map(ViolationKind::NotLinearizable))
            .map(|v| (v, schedule.faults.len()));
    }

    let (wal_records, wal_syncs, wal_bytes) = cluster.wal_traffic();
    let committed_entries = cluster.committed_len();
    if traced {
        cluster.trace(EventKind::Verdict {
            safe: violation.is_none(),
            kind: violation.as_ref().map(|(v, _)| v.tag().to_string()),
            detail: violation.as_ref().map(|(v, _)| v.to_string()),
            phase: violation
                .as_ref()
                .map_or(schedule.faults.len() as u32, |(_, i)| *i as u32),
        });
        cluster.trace(EventKind::RunEnd {
            committed: committed_entries as u64,
        });
    }
    let report = NemesisReport {
        degraded,
        violation,
        leaderless,
        committed_entries,
        history_len: client.history.len(),
        wal_records,
        wal_syncs,
        wal_bytes,
    };
    (report, cluster.take_trace())
}

/// Replays a schedule and returns the violation it produces, if any —
/// the predicate behind minimization and the round-trip tests.
#[must_use]
#[deny(clippy::let_underscore_must_use)] // L8: recovery scope
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
pub fn replay(schedule: &FaultSchedule, params: &EngineParams) -> Option<ViolationKind> {
    run_schedule(schedule, params).violation.map(|(v, _)| v)
}

/// Runs a campaign and, on violation, minimizes the schedule with the
/// checker's delta-debugging core into a replayable [`Counterexample`].
///
/// Minimization preserves the violation's *kind*: a witness of a
/// committed-prefix divergence stays one, rather than drifting to
/// whatever smaller violation some sub-schedule happens to produce.
#[must_use]
#[deny(clippy::let_underscore_must_use)] // L8: recovery scope
#[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
pub fn hunt(schedule: &FaultSchedule, params: &EngineParams) -> Option<Counterexample> {
    let (original, _) = run_schedule(schedule, params).violation?;
    let kind = std::mem::discriminant(&original);
    let minimal_faults = adore_checker::shrink_sequence(&schedule.faults, &mut |faults| {
        let candidate = FaultSchedule {
            faults: faults.to_vec(),
            ..schedule.clone()
        };
        replay(&candidate, params).is_some_and(|v| std::mem::discriminant(&v) == kind)
    });
    let minimized = FaultSchedule {
        faults: minimal_faults,
        ..schedule.clone()
    };
    // The shrinker's predicate accepted every kept sub-schedule, so the
    // minimized schedule replays the violation — but a hunt must not
    // panic on that assumption (L2): if it somehow fails to replay,
    // fall back to the unminimized schedule, which is known to violate.
    let (witness, violation) = match replay(&minimized, params) {
        Some(v) => (minimized, v),
        None => (schedule.clone(), original),
    };
    // Replay the witness once more with the observability layer on: the
    // embedded trace lets `adore-obs --audit` certify, from the journal
    // alone, that the witness really produces its claimed verdict.
    let (_, events) = run_schedule_traced(&witness, params);
    let trace = if events.is_empty() {
        None
    } else {
        Some(adore_obs::to_jsonl(&events))
    };
    Some(Counterexample {
        schedule: witness,
        violation,
        original_faults: schedule.faults.len(),
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{random_schedule, RandomScheduleParams};
    use adore_core::ReconfigGuard;
    use adore_storage::DurabilityPolicy;

    #[test]
    fn a_quiet_schedule_is_safe_and_available() {
        let schedule = FaultSchedule {
            name: "quiet".into(),
            seed: 1,
            members: vec![1, 2, 3],
            guard: ReconfigGuard::all(),
            durability: DurabilityPolicy::strict(),
            faults: vec![Fault::ClientBurst { writes: 5 }],
        };
        let report = run_schedule(&schedule, &EngineParams::default());
        assert!(report.is_safe());
        assert_eq!(report.degraded.phases[0].acked, 5);
        assert!((report.degraded.availability(0) - 1.0).abs() < f64::EPSILON);
        assert!(report.committed_entries >= 5);
    }

    #[test]
    fn random_campaigns_under_the_sound_guard_stay_safe() {
        let params = RandomScheduleParams::default();
        let engine = EngineParams { certify_storage: true };
        for seed in 0..8 {
            let schedule = random_schedule(&params, seed);
            let report = run_schedule(&schedule, &engine);
            assert!(
                report.is_safe(),
                "seed {seed}: {:?}",
                report.violation
            );
        }
    }

    /// E10's wide sweep (seeds 0-299, 8/12/16 steps, 3 and 5 members)
    /// found these ending in a lost write while the generator budgeted
    /// damage against the initial membership: a `ReconfigRemove` left
    /// `{1,2}`, and wiping the leader stranded the last committed write
    /// on a follower that never learned it committed.
    #[test]
    fn campaigns_whose_membership_shrank_keep_every_acked_write() {
        let engine = EngineParams { certify_storage: true };
        for steps in [8, 12, 16] {
            let params = RandomScheduleParams {
                members: vec![1, 2, 3],
                steps,
                ..RandomScheduleParams::default()
            };
            let report = run_schedule(&random_schedule(&params, 105), &engine);
            assert!(report.is_safe(), "{steps} steps: {:?}", report.violation);
        }
    }

    /// Campaigns the read-your-committed-writes ghost this check
    /// replaced reported as violations, having judged acked writes
    /// against the longest prefix some live node knew committed: seeds
    /// 1694 (whose quiesce, electing in id order, also ended without a
    /// leader) and 181 (E10's open row) as lost writes, 1339 as a stale
    /// read. Read back through the engine, each history is
    /// linearizable.
    #[test]
    fn campaigns_the_ghost_flagged_end_led_with_linearizable_histories() {
        let engine = EngineParams::default();
        for (seed, members, steps) in [
            (1694, 3, 8),
            (1694, 3, 16),
            (181, 5, 8),
            (181, 5, 16),
            (1339, 3, 8),
        ] {
            let params = RandomScheduleParams {
                members: (1..=members).collect(),
                steps,
                ..RandomScheduleParams::default()
            };
            let report = run_schedule(&random_schedule(&params, seed), &engine);
            let label = format!("seed {seed}, {members} members, {steps} steps");
            assert!(!report.leaderless, "{label}: no leader after quiesce");
            assert!(report.is_safe(), "{label}: {:?}", report.violation);
        }
    }

    /// Seed 111 (3 members, 16 steps) deadlocks on membership views:
    /// the uncommitted configuration {3} keeps S1 and S2 from
    /// campaigning, and S1 refuses S3, whose log is stale. The campaign
    /// breaks no check, but its history was never read back: it is
    /// named leaderless and not judged safe.
    #[test]
    fn a_campaign_left_leaderless_is_not_judged_safe() {
        let params = RandomScheduleParams {
            members: vec![1, 2, 3],
            steps: 16,
            ..RandomScheduleParams::default()
        };
        let report = run_schedule(&random_schedule(&params, 111), &EngineParams::default());
        assert!(report.violation.is_none(), "{:?}", report.violation);
        assert!(report.leaderless && !report.is_safe());
    }

    #[test]
    fn campaign_reports_are_deterministic() {
        let schedule = random_schedule(&RandomScheduleParams::default(), 17);
        let a = run_schedule(&schedule, &EngineParams::default());
        let b = run_schedule(&schedule, &EngineParams::default());
        assert_eq!(a.degraded, b.degraded);
        assert_eq!(a.committed_entries, b.committed_entries);
    }
}
