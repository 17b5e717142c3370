//! Faithful reproduction of the paper's Figs. 4 and 12: Raft's original
//! single-server membership-change algorithm (R1 + R2, **no R3**) violates
//! replicated state safety, and Ongaro's R3 fix blocks the offending trace.
//!
//! Unlike the structural variant in `adore-core`, this test uses the real
//! [`SingleNode`] scheme, so `R1⁺` is genuinely enforced throughout — only
//! R3 is toggled, exactly matching the history of the bug.

#![deny(clippy::disallowed_types)] // L1, closing the cone under the replayable crates

use adore_core::{
    invariants, node_set, AdoreState, LocalOutcome, NoOpReason, NodeId, PullDecision, PullOutcome,
    PushDecision, PushOutcome, ReconfigGuard, Timestamp,
};
use adore_schemes::SingleNode;

type St = AdoreState<SingleNode, &'static str>;

fn pull_ok(st: &mut St, nid: u32, supp: &[u32], t: u64) -> adore_core::CacheId {
    match st
        .pull(
            NodeId(nid),
            &PullDecision::Ok {
                supporters: node_set(supp.iter().copied()),
                time: Timestamp(t),
            },
        )
        .unwrap()
    {
        PullOutcome::Elected(id) => id,
        other => panic!("expected election, got {other:?}"),
    }
}

fn push_ok(
    st: &mut St,
    nid: u32,
    supp: &[u32],
    target: adore_core::CacheId,
) -> adore_core::CacheId {
    match st
        .push(
            NodeId(nid),
            &PushDecision::Ok {
                supporters: node_set(supp.iter().copied()),
                target,
            },
        )
        .unwrap()
    {
        PushOutcome::Committed(id) => id,
        other => panic!("expected commit, got {other:?}"),
    }
}

/// Drives the Fig. 4 schedule up to the point where the flawed algorithm
/// diverges; returns the state just before S1's final election.
fn fig4_prefix(guard: ReconfigGuard) -> (St, adore_core::CacheId) {
    let mut st: St = AdoreState::new(SingleNode::new([1, 2, 3, 4]));
    // S1 is the leader of {S1..S4}.
    pull_ok(&mut st, 1, &[1, 2, 3], 1);
    // S1 proposes removing S4 but fails to replicate the RCache.
    let r1 = match st.reconfig(NodeId(1), SingleNode::new([1, 2, 3]), guard) {
        LocalOutcome::Applied(id) => id,
        LocalOutcome::NoOp(reason) => panic!("reconfig unexpectedly blocked: {reason}"),
    };
    // S2 initiates an election and wins with S3 and S4 (a majority of the
    // four-node configuration; none of its voters hold S1's RCache).
    pull_ok(&mut st, 2, &[2, 3, 4], 2);
    // S2 removes S3; with its new configuration {S1, S2, S4}, the command
    // commits once S4 acknowledges it.
    let r2 = match st.reconfig(NodeId(2), SingleNode::new([1, 2, 4]), guard) {
        LocalOutcome::Applied(id) => id,
        LocalOutcome::NoOp(reason) => panic!("reconfig unexpectedly blocked: {reason}"),
    };
    let c2 = push_ok(&mut st, 2, &[2, 4], r2);
    let _ = r1;
    (st, c2)
}

#[test]
fn flawed_single_server_algorithm_loses_committed_data() {
    // Raft's published algorithm: R1 and R2 enforced, no R3.
    let flawed = ReconfigGuard::all().without_r3();
    let (mut st, c2) = fig4_prefix(flawed);
    assert_eq!(invariants::check_safety(&st), Ok(()));
    // S1 initiates another election and receives votes from itself and S3.
    // Its latest configuration is {S1, S2, S3} (from its own uncommitted
    // RCache), and {S1, S3} is a majority of it: S1 wins — without ever
    // learning of S2's committed reconfiguration.
    pull_ok(&mut st, 1, &[1, 3], 3);
    // Both leaders now commit independently: the consistency guarantee is
    // violated, exactly as in Fig. 4(d)/Fig. 12(c).
    let m = match st.invoke(NodeId(1), "overwrite") {
        LocalOutcome::Applied(id) => id,
        LocalOutcome::NoOp(reason) => panic!("invoke blocked: {reason}"),
    };
    let c3 = push_ok(&mut st, 1, &[1, 3], m);
    assert_eq!(
        invariants::check_safety(&st),
        Err(invariants::Violation::CommitsDiverge {
            first: c2,
            second: c3
        })
    );
}

#[test]
fn r3_blocks_the_fig4_trace() {
    // With the full guard, S1's very first reconfiguration attempt is
    // rejected: nothing has been committed at timestamp 1 yet.
    let mut st: St = AdoreState::new(SingleNode::new([1, 2, 3, 4]));
    pull_ok(&mut st, 1, &[1, 2, 3], 1);
    assert_eq!(
        st.reconfig(NodeId(1), SingleNode::new([1, 2, 3]), ReconfigGuard::all()),
        LocalOutcome::NoOp(NoOpReason::R3Violated)
    );
    // After committing a regular command at its own timestamp, the leader
    // may reconfigure — and the resulting state keeps every invariant.
    let m = st.invoke(NodeId(1), "noop").applied().unwrap();
    push_ok(&mut st, 1, &[1, 2, 3], m);
    let out = st.reconfig(
        NodeId(1),
        SingleNode::new([1, 2, 3]).without(NodeId(4)),
        ReconfigGuard::all(),
    );
    assert!(matches!(out, LocalOutcome::Applied(_)));
    assert!(invariants::check_all(&st).is_empty());
}

#[test]
fn r2_blocks_stacked_reconfigurations() {
    let mut st: St = AdoreState::new(SingleNode::new([1, 2, 3, 4]));
    pull_ok(&mut st, 1, &[1, 2, 3], 1);
    let m = st.invoke(NodeId(1), "noop").applied().unwrap();
    push_ok(&mut st, 1, &[1, 2, 3], m);
    // First reconfiguration passes all guards.
    let out = st.reconfig(NodeId(1), SingleNode::new([1, 2, 3]), ReconfigGuard::all());
    assert!(matches!(out, LocalOutcome::Applied(_)));
    // A second, stacked one is stopped by R2 (the first is uncommitted).
    assert_eq!(
        st.reconfig(NodeId(1), SingleNode::new([1, 2]), ReconfigGuard::all()),
        LocalOutcome::NoOp(NoOpReason::R2Violated)
    );
}

#[test]
fn r1_blocks_multi_node_jumps() {
    let mut st: St = AdoreState::new(SingleNode::new([1, 2, 3, 4]));
    pull_ok(&mut st, 1, &[1, 2, 3], 1);
    let m = st.invoke(NodeId(1), "noop").applied().unwrap();
    push_ok(&mut st, 1, &[1, 2, 3], m);
    assert_eq!(
        st.reconfig(NodeId(1), SingleNode::new([1, 2]), ReconfigGuard::all()),
        LocalOutcome::NoOp(NoOpReason::R1Violated)
    );
}

/// The joint-consensus scheme tolerates the Fig. 4 schedule even without
/// R3 being load-bearing for this particular trace shape: the joint phase
/// keeps quorums overlapping. (This does *not* mean R3 is unnecessary for
/// joint consensus in general — only that this specific four-node schedule
/// is blocked earlier, at the quorum level.)
#[test]
fn joint_consensus_blocks_fig4_at_the_quorum_level() {
    use adore_schemes::Joint;
    let flawed = ReconfigGuard::all().without_r3();
    let mut st: AdoreState<Joint, &'static str> = AdoreState::new(Joint::stable([1, 2, 3, 4]));
    let out = st
        .pull(
            NodeId(1),
            &PullDecision::Ok {
                supporters: node_set([1, 2, 3]),
                time: Timestamp(1),
            },
        )
        .unwrap();
    assert!(matches!(out, PullOutcome::Elected(_)));
    // S1 enters the joint phase toward {1,2,3}.
    let joint = Joint::stable([1, 2, 3, 4]).enter_joint(node_set([1, 2, 3]));
    let r1 = match st.reconfig(NodeId(1), joint, flawed) {
        LocalOutcome::Applied(id) => id,
        LocalOutcome::NoOp(reason) => panic!("reconfig blocked: {reason}"),
    };
    let _ = r1;
    // S2's rival election with {2,3,4} under the old stable config works...
    let out = st
        .pull(
            NodeId(2),
            &PullDecision::Ok {
                supporters: node_set([2, 3, 4]),
                time: Timestamp(2),
            },
        )
        .unwrap();
    assert!(matches!(out, PullOutcome::Elected(_)));
    // ... but any commit S2 makes under a joint config toward {1,2,4} needs
    // majorities of BOTH sets, which forces contact with {1,2,3}-majorities.
    let joint2 = Joint::stable([1, 2, 3, 4]).enter_joint(node_set([1, 2, 4]));
    let r2 = match st.reconfig(NodeId(2), joint2, flawed) {
        LocalOutcome::Applied(id) => id,
        LocalOutcome::NoOp(reason) => panic!("reconfig blocked: {reason}"),
    };
    // {2,4} is NOT a quorum of the joint config (not a majority of
    // {1,2,3,4}), so the Fig. 4 commit cannot happen.
    let out = st
        .push(
            NodeId(2),
            &PushDecision::Ok {
                supporters: node_set([2, 4]),
                target: r2,
            },
        )
        .unwrap();
    assert_eq!(out, PushOutcome::NoQuorum);
}
