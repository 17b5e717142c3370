//! The deterministic protocol node: everything that decides *what* a
//! replica does, with no sockets, clocks, or filesystem in reach.
//!
//! Two shells drive it. `adored`'s threaded runtime feeds it ticks and
//! frames from real sockets and carries its bytes to a real WAL file;
//! this crate's [`crate::Cluster`] feeds N of them on a virtual clock
//! over a simulated network and one `SimDisk` per node. Both run the
//! same engine, so what the simulated tables measure is what the daemon
//! executes. The crate-level clippy bans (`disallowed_types`,
//! `disallowed_methods`) keep it replayable: no hash order, no ambient
//! clock, no lock, no unbounded channel.
//!
//! [`client`] is the client side in the same style: one retry policy
//! (redirects, backoff, one seq per write) that the wire client and the
//! simulated one both drive.

pub mod client;
pub mod engine;
pub mod msg;
pub mod session;
pub mod wire;
