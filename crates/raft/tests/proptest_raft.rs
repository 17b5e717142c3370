//! Property-based tests for the network model and its normalization:
//! structured random traces replay deterministically, the normalization
//! stages preserve `ℝ_net`, and sound-guard runs keep log safety and the
//! refinement relation.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5
#![deny(clippy::let_underscore_must_use)] // L4/L8: no `let _ =` on a verdict or a recovery result

use adore_core::{NodeId, ReconfigGuard};
use adore_raft::{
    atomicize, check_refinement, filter_invalid, globally_order, normalize, segment_counts, MsgId,
    NetEvent, NetState, SraftStep,
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
