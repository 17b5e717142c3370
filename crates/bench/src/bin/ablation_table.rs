//! Experiment E7 — the §2.3 design-choice ablation: hot vs stop-the-world
//! reconfiguration.
//!
//! The paper motivates ADORE's focus on **hot** algorithms: stop-the-world
//! approaches "somewhat simplify the problem ... however, incur a
//! performance cost due to the disruption in service". This harness
//! quantifies that trade-off on the simulated cluster: grow a cluster from
//! 4 to 5 nodes after N committed entries, once with the hot path (serve
//! throughout; return at quorum) and once with the stop-the-world barrier
//! (refuse requests until every member holds the full log).
//!
//! Usage: `cargo run -p adore-bench --bin ablation_table --release`

use adore_bench::print_table;
use adore_core::{NodeId, ReconfigGuard};
use adore_kv::{Cluster, KvCommand, LatencyModel};
use adore_schemes::SingleNode;

/// Builds a 4-node cluster with `log_len` committed entries and starts
/// its spare, node 5, with an empty log.
fn warmed(log_len: usize, seed: u64) -> Cluster {
    let conf0 = SingleNode::new([1, 2, 3, 4]);
    let latency = LatencyModel::default();
    let mut c = Cluster::build(conf0, &[5], ReconfigGuard::all(), latency, seed);
    c.elect(NodeId(1)).expect("election succeeds");
    for i in 0..log_len {
        c.submit(KvCommand::put(format!("k{i}"), "v"))
            .expect("commit succeeds");
    }
    c.recover(NodeId(5));
    c
}

fn main() {
    println!("§2.3 ablation — hot vs stop-the-world reconfiguration (grow 4→5 nodes)\n");
    let mut rows = Vec::new();
    for log_len in [100usize, 500, 2000, 8000] {
        // Hot: returns at quorum; the catch-up transfer overlaps service.
        let mut hot = warmed(log_len, 1);
        let hot_reconf = hot
            .reconfigure(SingleNode::new([1, 2, 3, 4, 5]))
            .expect("hot reconfiguration succeeds");
        let hot_next = hot
            .submit(KvCommand::put("next", "v"))
            .expect("commit succeeds");

        // Stop-the-world: blocks until the fresh node holds the full log.
        let mut stw = warmed(log_len, 1);
        let stw_stopped = stw
            .reconfigure_stop_the_world(SingleNode::new([1, 2, 3, 4, 5]))
            .expect("stop-the-world reconfiguration succeeds");
        let stw_next = stw
            .submit(KvCommand::put("next", "v"))
            .expect("commit succeeds");

        rows.push(vec![
            log_len.to_string(),
            format!("{:.2}", hot_reconf as f64 / 1000.0),
            format!("{:.2}", hot_next as f64 / 1000.0),
            format!("{:.2}", stw_stopped as f64 / 1000.0),
            format!("{:.2}", stw_next as f64 / 1000.0),
            format!("{:.1}x", stw_stopped as f64 / hot_reconf as f64),
        ]);
        assert!(
            stw_stopped > hot_reconf,
            "the barrier must cost more than the quorum return"
        );
    }
    print_table(
        &[
            "log entries",
            "hot: reconf (ms)",
            "hot: next req (ms)",
            "stw: stopped (ms)",
            "stw: next req (ms)",
            "stw/hot",
        ],
        &rows,
    );
    println!("\nThe hot path returns at quorum and overlaps the catch-up transfer with service");
    println!("(its cost shows up as one slow next request); stop-the-world blocks for the");
    println!("whole transfer, growing linearly with the log — the disruption §2.3 warns of,");
    println!("and the reason ADORE targets hot algorithms despite their harder safety story.");
}
