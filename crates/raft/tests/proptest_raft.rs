//! Property-based tests for the network model and its normalization:
//! structured random traces replay deterministically, the normalization
//! stages preserve `ℝ_net`, and sound-guard runs keep log safety and the
//! refinement relation.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5
#![deny(clippy::let_underscore_must_use)] // L4/L8: no `let _ =` on a verdict or a recovery result

use adore_core::{NodeId, ReconfigGuard, Timestamp};
use adore_raft::{
    atomicize, check_refinement, effective_config, filter_invalid, globally_order, normalize,
    random_trace, segment_counts, Command, Entry, MsgId, NetEvent, NetState, Request,
    ScheduleParams, SraftStep,
};
use adore_schemes::SingleNode;
use proptest::prelude::*;

type Ev = NetEvent<SingleNode, u32>;

/// Strategy: raw event seeds decoded against the running state (message
/// ids modulo the sent count, node ids modulo the universe).
fn seeds() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 1..120)
}

fn decode(seeds: &[(u8, u8, u8)]) -> Vec<Ev> {
    let conf0 = SingleNode::new([1, 2, 3, 4]);
    let mut st: NetState<SingleNode, u32> = NetState::new(conf0, ReconfigGuard::all());
    let mut trace = Vec::new();
    let mut method = 0u32;
    for &(kind, a, b) in seeds {
        let nid = NodeId(u32::from(a % 4) + 1);
        let ev: Ev = match kind % 8 {
            0 => NetEvent::Elect { nid },
            1 | 2 => {
                method += 1;
                NetEvent::Invoke { nid, method }
            }
            3 => NetEvent::Reconfig {
                nid,
                config: if b % 2 == 0 {
                    SingleNode::new([1, 2, 3, 4, 5])
                } else {
                    SingleNode::new([1, 2, 3])
                },
            },
            4 | 5 => NetEvent::Commit { nid },
            _ => {
                let sent = st.messages().len();
                if sent == 0 {
                    continue;
                }
                NetEvent::Deliver {
                    msg: MsgId(u32::from(b) % sent as u32),
                    to: nid,
                }
            }
        };
        st.step(&ev);
        trace.push(ev);
    }
    trace
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn replay_is_deterministic(s in seeds()) {
        let trace = decode(&s);
        let conf0 = SingleNode::new([1, 2, 3, 4]);
        let mut a: NetState<SingleNode, u32> = NetState::new(conf0.clone(), ReconfigGuard::all());
        let mut b: NetState<SingleNode, u32> = NetState::new(conf0, ReconfigGuard::all());
        a.replay(&trace);
        b.replay(&trace);
        prop_assert_eq!(a.net_relation(), b.net_relation());
    }

    #[test]
    fn sound_guard_traces_keep_log_safety(s in seeds()) {
        let trace = decode(&s);
        let conf0 = SingleNode::new([1, 2, 3, 4]);
        let mut st: NetState<SingleNode, u32> = NetState::new(conf0, ReconfigGuard::all());
        st.replay(&trace);
        prop_assert!(st.check_log_safety().is_ok());
    }

    #[test]
    fn every_normalization_stage_preserves_r_net(s in seeds()) {
        let conf0 = SingleNode::new([1, 2, 3, 4]);
        let guard = ReconfigGuard::all();
        let trace = decode(&s);
        let mut orig: NetState<SingleNode, u32> = NetState::new(conf0.clone(), guard);
        orig.replay(&trace);
        let original = orig.net_relation();

        let filtered = filter_invalid(&conf0, guard, &trace);
        let mut st: NetState<SingleNode, u32> = NetState::new(conf0.clone(), guard);
        st.replay(&filtered);
        prop_assert_eq!(st.net_relation(), original.clone());

        let ordered = globally_order(&conf0, guard, &filtered);
        let mut st: NetState<SingleNode, u32> = NetState::new(conf0.clone(), guard);
        st.replay(&ordered);
        prop_assert_eq!(st.net_relation(), original.clone());

        let steps = atomicize(&ordered);
        let flat: Vec<Ev> = steps.iter().flat_map(SraftStep::events).collect();
        let mut st: NetState<SingleNode, u32> = NetState::new(conf0, guard);
        st.replay(&flat);
        prop_assert_eq!(st.net_relation(), original);
    }

    #[test]
    fn normalized_deliveries_are_in_time_order(s in seeds()) {
        let conf0 = SingleNode::new([1, 2, 3, 4]);
        let guard = ReconfigGuard::all();
        let trace = decode(&s);
        let filtered = filter_invalid(&conf0, guard, &trace);
        let ordered = globally_order(&conf0, guard, &filtered);
        // Reconstruct message metadata from the ordered replay.
        let mut st: NetState<SingleNode, u32> = NetState::new(conf0, guard);
        st.replay(&ordered);
        // Deliveries of different requests to the SAME recipient must be
        // in nondecreasing time order (Def. C.5 holds globally per C.7).
        let mut last_per_recipient = std::collections::BTreeMap::new();
        for ev in &ordered {
            if let NetEvent::Deliver { msg, to } = ev {
                if let Some(req) = st.message(*msg) {
                    let t = req.time();
                    if let Some(prev) = last_per_recipient.get(to) {
                        prop_assert!(t >= *prev, "out-of-order delivery at {to}");
                    }
                    last_per_recipient.insert(*to, t);
                }
            }
        }
    }

    #[test]
    fn most_groups_are_atomic(s in seeds()) {
        let conf0 = SingleNode::new([1, 2, 3, 4]);
        let guard = ReconfigGuard::all();
        let trace = decode(&s);
        let steps = normalize(&conf0, guard, &trace).expect("equivalence holds");
        let segs = segment_counts(&steps);
        // Splits exist only for genuine dependencies (stragglers behind a
        // sender's re-election); they are a small minority.
        let split: usize = segs.values().filter(|c| **c > 1).count();
        prop_assert!(split <= segs.len() / 2 + 1, "{split}/{} groups split", segs.len());
    }

    #[test]
    fn refinement_is_clean_on_structured_traces(s in seeds()) {
        let conf0 = SingleNode::new([1, 2, 3, 4]);
        let trace = decode(&s);
        let report = check_refinement(&conf0, ReconfigGuard::all(), &trace, true)
            .expect("equivalence holds");
        prop_assert!(report.is_clean(), "{:?}", report.violations.first());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The cached config position matches a full scan on every server
    /// after every step of a random trace with crashes and guard
    /// ablations, interleaved with the log moves the model's own
    /// whole-log traces rarely make: suffix commits that append config
    /// entries, and recoveries and suffix commits that cut a log at one
    /// of its config entries.
    #[test]
    fn cached_config_positions_match_a_full_scan(
        seed in any::<u64>(),
        ablate in 0u8..4,
        moves in prop::collection::vec((any::<u8>(), any::<u8>(), any::<u8>()), 0..48),
    ) {
        let conf0 = SingleNode::new([1, 2, 3]);
        let guard = match ablate {
            0 => ReconfigGuard::all(),
            1 => ReconfigGuard::all().without_r1(),
            2 => ReconfigGuard::all().without_r2(),
            _ => ReconfigGuard::all().without_r3(),
        };
        let params = ScheduleParams {
            steps: 160,
            reconfig_weight: 3,
            crash_weight: 1,
            ..ScheduleParams::default()
        };
        let trace = random_trace(&conf0, guard, &params, 1, seed);
        let mut st: NetState<SingleNode, u32> = NetState::new(conf0, guard);
        let mut moves = moves.into_iter();
        for (i, ev) in trace.iter().enumerate() {
            st.step(ev);
            if i % 3 == 2 {
                if let Some((kind, who, at)) = moves.next() {
                    move_a_log(&mut st, kind, who, at);
                }
            }
            for (nid, s) in st.servers() {
                let scanned = effective_config(st.conf0(), &s.log);
                prop_assert_eq!(st.config_of(nid), Some(scanned), "{:?} after {:?}", nid, ev);
            }
        }
    }
}

/// One log move on a server picked by `who`: by `kind`, a recovery that
/// lost the tail from a config entry on (or from anywhere, when the log
/// holds none), a one-method suffix from a higher term shipped with
/// `prev_len` at that cut, or a one-config suffix appended at the end.
/// Half the cuts take the last config entry: only there can a stale
/// position name an entry that is gone or no longer a config.
fn move_a_log(st: &mut NetState<SingleNode, u32>, kind: u8, who: u8, at: u8) {
    let ids: Vec<NodeId> = st.servers().map(|(nid, _)| nid).collect();
    let nid = ids[usize::from(who) % ids.len()];
    let s = st.server(nid).expect("listed");
    let configs: Vec<usize> = (0..s.log.len())
        .filter(|i| s.log[*i].cmd.config().is_some())
        .collect();
    let cut = match configs.len() {
        0 => usize::from(at) % (s.log.len() + 1),
        n if at.is_multiple_of(2) => configs[n - 1],
        n => configs[usize::from(at / 2) % n],
    };
    let (time, len, commit_len) = (s.time, s.log.len(), s.commit_len);
    let next = Timestamp(time.0 + 1);
    let ship = |prev_len, cmd| Request::Commit {
        from: ids[(usize::from(who) + 1) % ids.len()],
        time: next,
        prev_len,
        log: vec![Entry { time: next, cmd }],
        commit_len: 0,
    };
    let req = match kind % 3 {
        0 => {
            let log = s.log[..cut].to_vec();
            st.install_recovery(nid, time, log, commit_len, false);
            return;
        }
        1 => ship(cut, Command::Method(u32::MAX)),
        _ => ship(len, Command::Config(SingleNode::new(1..=2 + u32::from(at % 3)))),
    };
    // Crashed recipients refuse; everyone else adopts.
    let outcome = st.receive(req, nid, false);
    let crashed = st.server(nid).is_some_and(|s| s.crashed);
    assert!(outcome.applied() || crashed, "{outcome:?}");
}
