//! The deterministic half of `adored`: everything that decides *what*
//! the node does, with no sockets, clocks, or filesystem in reach.
//!
//! The runtime (`crate::node`) owns the IO threads and feeds this layer
//! through a channel; the determinism ban (clippy's `disallowed_types`
//! over the names in `clippy.toml`) is denied for exactly this
//! directory, so the protocol state machine stays replayable even
//! though the process around it is not. Nothing here imports from the
//! shell: every `crate::` path below this module starts `crate::det::`.

#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1: no hash order, no ambient clock

pub mod engine;
pub mod msg;
pub mod session;
pub mod wire;
