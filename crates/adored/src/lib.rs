//! `adored`: the partial-failure-hardened networked ADORE runtime.
//!
//! The protocol node is `adore_kv::det`'s engine, which the simulator
//! (`adore_kv::Cluster`) also runs, N at a time, on a virtual clock;
//! this crate is the threaded shell that runs one of them as a real
//! process over length-prefixed TCP frames, and keeps it auditable:
//! every node writes the shared `adore-obs` journal schema, so
//! `adore-obs --audit` certifies committed-prefix agreement for a real
//! run exactly as it does for a simulated one.
//!
//! Layering:
//!
//! - [`det`] — re-exported from `adore-kv`: frame codec, wire messages,
//!   exactly-once session table, and the per-node protocol engine.
//!   Pure input → output; covered by the determinism lints.
//! - [`node`] — the threaded runtime shell: listener, per-peer
//!   dialers with capped backoff, heartbeat ticks, the engine loop that
//!   writes every outbound frame, the real WAL file, and the journal
//!   writer.
//! - [`client`] — the retrying cluster client with exactly-once
//!   semantics (a retry reuses its `(client, seq)`).
//! - [`proxy`] — the netmesis wire layer: one fault-injecting TCP
//!   proxy per directed peer link (partitions, loss, CRC-preserving
//!   corruption, delay, reorder, slow-loris, resets).
//! - [`monitor`] — the availability monitor whose acked writes become
//!   the audit's zero-loss / zero-duplicate obligations, and whose
//!   every write joins the client history T8 holds to
//!   linearizability.
//! - [`export`] — the streaming trace export side-channel: each node's
//!   journal files, every boot's, served over TCP in the same
//!   `[len][crc32][payload]` framing and followed as they grow.
//! - [`collect`] — the online collector: merges live export streams on
//!   a virtual-clock watermark and drives the same T1–T8 audit engine
//!   incrementally, raising divergence while the cluster still runs.
//!   Each node's stream carries every journaled event once, across
//!   kill -9 restarts, so the online verdict is held to the batch one.
//! - [`scrape`] — the read-only `/metrics` endpoint serving the node's
//!   metrics registry as Prometheus text.

// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_methods))] // L12a: no unbounded channel(); L9-L11: no lock
#![cfg_attr(not(test), deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro))] // L5

pub mod client;
pub mod collect;
pub use adore_kv::det;
pub mod export;
pub mod monitor;
pub mod node;
pub mod proxy;
pub mod scrape;
