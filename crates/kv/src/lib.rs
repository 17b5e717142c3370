//! A replicated key-value store on the certified protocol: the protocol
//! node every runtime executes, and a simulated cluster of them.
//!
//! This crate is the application layer of the reproduction — the analogue
//! of the paper's OCaml extraction evaluated on EC2 (§7, Fig. 16). It
//! provides:
//!
//! * [`KvCommand`]/[`KvStore`] — the replicated application, keyed by
//!   [`CompactStr`] (short keys and values own no heap),
//! * [`det`] — the deterministic per-node protocol engine (exactly-once
//!   sessions, suffix replication, the WAL records it persists) and its
//!   wire codec; `adored` runs one engine per process,
//! * [`Cluster`] — a deterministic discrete-event simulation running one
//!   such engine per node on a virtual clock over a latency-injecting
//!   network ([`LatencyModel`]), supporting live ("hot") reconfiguration
//!   while serving requests,
//! * [`run_fig16`] — the exact 5 → 3 → 5 reconfiguration workload of
//!   Fig. 16, producing per-request latency series.
//!
//! # Examples
//!
//! ```
//! use adore_core::NodeId;
//! use adore_kv::{Cluster, KvCommand, LatencyModel};
//! use adore_schemes::SingleNode;
//!
//! let mut cluster = Cluster::new(SingleNode::new([1, 2, 3]), LatencyModel::default(), 42);
//! cluster.elect(NodeId(1))?;
//! cluster.submit(KvCommand::put("lang", "rust"))?;
//! // Live reconfiguration while the store keeps serving:
//! cluster.reconfigure(SingleNode::new([1, 2]))?;
//! cluster.submit(KvCommand::put("nodes", "2"))?;
//! assert_eq!(cluster.committed_store().get("lang"), Some("rust"));
//! cluster.verify().expect("committed prefixes agree");
//! # Ok::<(), adore_kv::ClusterError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1: no hash order, no ambient clock
#![cfg_attr(not(test), deny(clippy::disallowed_methods))] // L12a: no unbounded channel(); L9-L11: no lock
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro))] // L5
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L4/L8: no `let _ =` on a verdict or a recovery result

mod churn;
mod command;
mod compact;
pub mod det;
mod fig16;
mod links;
mod sim;

pub use churn::{run_churn, ChurnParams, ChurnReport};
pub use command::{KvCommand, KvStore};
pub use compact::CompactStr;
pub use fig16::{aggregate, run_fig16, Fig16Params, Fig16Run, RequestRecord};
pub use links::LinkMatrix;
pub use sim::{Cluster, ClusterError, LatencyModel};
