//! A replicated key-value store serving requests through live
//! reconfiguration on a simulated five-node cluster.
//!
//! ```sh
//! cargo run --example kv_cluster
//! ```

use adore::core::NodeId;
use adore::kv::{Cluster, KvCommand, LatencyModel};
use adore::schemes::SingleNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cluster = Cluster::new(
        SingleNode::new([1, 2, 3, 4, 5]),
        LatencyModel::default(),
        42,
    );
    cluster.elect(NodeId(1))?;
    println!("elected {} over 5 nodes", cluster.leader().expect("leader"));

    // Serve a batch of writes.
    let mut total = 0u64;
    for i in 0..200 {
        total += cluster.submit(KvCommand::put(format!("user:{i}"), format!("balance={i}")))?;
    }
    println!(
        "200 writes, mean latency {:.2}ms",
        total as f64 / 200.0 / 1000.0
    );

    // Live reconfiguration: drop to three nodes, one at a time, while the
    // store keeps serving between the steps.
    let t = cluster.reconfigure(SingleNode::new([1, 2, 3, 4]))?;
    println!("5→4 reconfigured in {:.2}ms", t as f64 / 1000.0);
    cluster.submit(KvCommand::put("during", "reconfig"))?;
    let t = cluster.reconfigure(SingleNode::new([1, 2, 3]))?;
    println!("4→3 reconfigured in {:.2}ms", t as f64 / 1000.0);

    let lat3 = cluster.submit(KvCommand::put("small", "cluster"))?;
    println!("write on 3 nodes: {:.2}ms", lat3 as f64 / 1000.0);

    // Grow back. The removed nodes stayed up and, as every node
    // broadcasts to its whole address book, current: re-adding them costs
    // no catch-up (Fig. 16 stops and restarts them to measure one).
    cluster.reconfigure(SingleNode::new([1, 2, 3, 4]))?;
    cluster.reconfigure(SingleNode::new([1, 2, 3, 4, 5]))?;
    let after_growth = cluster.submit(KvCommand::put("big", "again"))?;
    println!(
        "first write after 3→5 growth: {:.2}ms",
        after_growth as f64 / 1000.0
    );

    // Consistency: committed prefixes agree everywhere, and the store
    // materializes deterministically from them.
    cluster.verify().expect("committed prefixes agree");
    let store = cluster.committed_store();
    assert_eq!(store.get("user:0"), Some("balance=0"));
    assert_eq!(store.get("big"), Some("again"));
    println!(
        "verified: {} keys committed across {} virtual ms",
        store.len(),
        cluster.now_us() / 1000
    );
    Ok(())
}
