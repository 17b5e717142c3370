//! Property-based tests for the simulated cluster: arbitrary interleavings
//! of client commands and guarded reconfigurations keep the store
//! consistent, deterministic, and loss-tolerant.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5
#![deny(clippy::let_underscore_must_use)] // L4/L8: no `let _ =` on a verdict or a recovery result

use adore_core::NodeId;
use adore_kv::{Cluster, KvCommand, KvStore, LatencyModel};
use adore_schemes::SingleNode;
use proptest::prelude::*;

/// One scripted client action.
#[derive(Debug, Clone)]
enum Action {
    Put(u8, u8),
    Delete(u8),
    Shrink,
    Grow,
}

fn actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            6 => (any::<u8>(), any::<u8>()).prop_map(|(k, v)| Action::Put(k, v)),
            2 => any::<u8>().prop_map(Action::Delete),
            1 => Just(Action::Shrink),
            1 => Just(Action::Grow),
        ],
        1..60,
    )
}

/// Drives a cluster through the script; returns the committed store and a
/// reference store computed client-side.
fn drive(script: &[Action], seed: u64, drop_pct: u32) -> (KvStore, KvStore) {
    let mut cluster = Cluster::new(
        SingleNode::new([1, 2, 3, 4, 5]),
        LatencyModel {
            drop_pct,
            ..LatencyModel::default()
        },
        seed,
    );
    // Elections can fail under loss; retry.
    for _ in 0..50 {
        if cluster.elect(NodeId(1)).is_ok() {
            break;
        }
    }
    assert!(
        cluster.leader().is_some(),
        "no leader under {drop_pct}% loss"
    );

    let mut reference = KvStore::new();
    // R3 requires a committed current-term entry before any
    // reconfiguration: warm the term up like a real system's no-op entry.
    let warmup = KvCommand::put("warmup", "done");
    cluster.submit(warmup.clone()).expect("warmup commits");
    reference.apply(&warmup);
    let mut size = 5usize;
    for action in script {
        match action {
            Action::Put(k, v) => {
                let cmd = KvCommand::put(format!("k{k}"), format!("v{v}"));
                cluster.submit(cmd.clone()).expect("commit succeeds");
                reference.apply(&cmd);
            }
            Action::Delete(k) => {
                let cmd = KvCommand::delete(format!("k{k}"));
                cluster.submit(cmd.clone()).expect("commit succeeds");
                reference.apply(&cmd);
            }
            Action::Shrink if size > 3 => {
                size -= 1;
                cluster
                    .reconfigure(SingleNode::new(1..=(size as u32)))
                    .expect("shrink succeeds");
            }
            Action::Grow if size < 5 => {
                size += 1;
                cluster
                    .reconfigure(SingleNode::new(1..=(size as u32)))
                    .expect("grow succeeds");
            }
            _ => {}
        }
    }
    cluster.verify().expect("log safety");
    (cluster.committed_store(), reference)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn committed_store_matches_the_client_view(script in actions(), seed in 0u64..1000) {
        let (committed, reference) = drive(&script, seed, 0);
        prop_assert_eq!(committed, reference);
    }

    #[test]
    fn runs_are_deterministic_per_seed(script in actions(), seed in 0u64..1000) {
        let a = drive(&script, seed, 0);
        let b = drive(&script, seed, 0);
        prop_assert_eq!(a.0, b.0);
    }

    #[test]
    fn loss_does_not_change_the_outcome(script in actions(), seed in 0u64..1000) {
        // Retransmission makes the committed result independent of loss.
        let (lossless, reference) = drive(&script, seed, 0);
        let (lossy, _) = drive(&script, seed, 25);
        prop_assert_eq!(&lossy, &lossless);
        prop_assert_eq!(lossy, reference);
    }
}
