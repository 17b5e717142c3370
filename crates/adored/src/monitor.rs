//! The availability monitor: a steady client workload whose every
//! acknowledgement becomes an auditable obligation.
//!
//! While a netmesis campaign walks its fault timeline, one monitor
//! thread drives unique-key writes through the ordinary [`NetClient`]
//! retry path and buckets outcomes into fixed wall-clock windows:
//!
//! - **acked** — the cluster acknowledged the write. The monitor
//!   journals a `SessionAck` event, which the auditor's T7 check later
//!   requires to appear in some replica's committed prefix (zero
//!   acked-write loss) and at most once per replica (zero duplicate
//!   applies).
//! - **refused** — a definitive refusal (guard rejection, session
//!   staleness). Refusals are the *correct* behaviour under partition:
//!   they cost availability, never safety.
//! - **lost** — the client exhausted its attempts with no definitive
//!   reply. The op's fate is unknown; nothing is claimed about it, so
//!   it cannot create an audit obligation.
//!
//! Each completed window is journaled as an `AvailabilityWindow` event,
//! so the merged journal tells the whole availability story alongside
//! the safety story.
//!
//! All counting flows through one metrics registry — the same registry
//! type the nodes scrape — and the per-window stats are *derived* from
//! counter deltas at each window roll, which also sets the live
//! `monitor.acked_per_s` gauge. One number pipeline: the gauge, the
//! windows, and the report totals cannot disagree.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use adore_obs::{EventKind, Metrics, MetricsSnapshot};
use serde::Serialize;

use crate::client::{ClientError, ClientParams, NetClient};
use crate::export::ExportQueue;
use crate::node::Journal;

/// One completed availability window.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct WindowStat {
    /// Window index since the monitor started.
    pub index: u32,
    /// Writes attempted in the window.
    pub attempted: u32,
    /// Writes acknowledged.
    pub acked: u32,
    /// Writes definitively refused.
    pub refused: u32,
    /// Writes whose outcome the client never learned.
    pub lost: u32,
}

/// A write the cluster acknowledged (and therefore owes the audit).
#[derive(Debug, Clone, Serialize)]
pub struct AckedWrite {
    /// The unique key written.
    pub key: String,
    /// The value written.
    pub value: String,
    /// The session sequence number acknowledged.
    pub seq: u64,
    /// Whether the ack was a dedup of a retried write.
    pub duplicate: bool,
}

/// What the monitor observed over its whole run.
#[derive(Debug, Serialize)]
pub struct MonitorReport {
    /// Per-window availability stats.
    pub windows: Vec<WindowStat>,
    /// Every acknowledged write.
    pub acked: Vec<AckedWrite>,
    /// Total writes attempted.
    pub attempted: u64,
    /// Total writes refused.
    pub refused: u64,
    /// Total writes with unknown outcome.
    pub lost: u64,
    /// The final registry snapshot: the `monitor.*` counters the
    /// windows were derived from, plus the last `monitor.acked_per_s`
    /// gauge value.
    pub metrics: MetricsSnapshot,
}

/// A running monitor; [`MonitorHandle::stop`] joins it and returns the
/// report.
pub struct MonitorHandle {
    stop: Arc<AtomicBool>,
    join: JoinHandle<MonitorReport>,
}

impl MonitorHandle {
    /// Signals the monitor to finish its current op and joins it.
    #[must_use]
    pub fn stop(self) -> MonitorReport {
        self.stop.store(true, Ordering::SeqCst);
        self.join.join().unwrap_or_else(|_| MonitorReport {
            windows: Vec::new(),
            acked: Vec::new(),
            attempted: 0,
            refused: 0,
            lost: 0,
            metrics: Metrics::new().snapshot(),
        })
    }
}

/// Monitor tunables.
#[derive(Debug, Clone)]
pub struct MonitorConfig {
    /// The session client id (must be unique in the campaign).
    pub client_id: u64,
    /// Window length, milliseconds.
    pub window_ms: u64,
    /// Pause between ops, milliseconds.
    pub op_gap_ms: u64,
    /// Client retry tunables.
    pub params: ClientParams,
}

impl Default for MonitorConfig {
    fn default() -> Self {
        MonitorConfig {
            client_id: 0xA11B,
            window_ms: 1_000,
            op_gap_ms: 50,
            params: ClientParams {
                max_attempts: 8,
                backoff_base_ms: 20,
                backoff_cap_ms: 400,
                request_timeout: Duration::from_millis(1_500),
                max_redirect_hops: 3,
            },
        }
    }
}

/// Running totals read from the registry at the last window roll.
#[derive(Clone, Copy, Default)]
struct Totals {
    attempted: u64,
    acked: u64,
    refused: u64,
    lost: u64,
}

/// One registry read: the four `monitor.*` counters.
fn totals(m: &Metrics) -> Totals {
    Totals {
        attempted: m.counter("monitor.attempted"),
        acked: m.counter("monitor.acked"),
        refused: m.counter("monitor.refused"),
        lost: m.counter("monitor.lost"),
    }
}

/// Rolls one window closed: derives its stats from the counter deltas
/// since the previous roll, refreshes the live `monitor.acked_per_s`
/// gauge from the same delta, journals the window, and returns the new
/// baseline.
fn roll_window(
    metrics: &mut Metrics,
    journal: &mut Journal,
    windows: &mut Vec<WindowStat>,
    index: u32,
    prev: Totals,
    window_ms: u64,
) -> Totals {
    let now = totals(metrics);
    let delta = |a: u64, b: u64| u32::try_from(a.saturating_sub(b)).unwrap_or(u32::MAX);
    let stat = WindowStat {
        index,
        attempted: delta(now.attempted, prev.attempted),
        acked: delta(now.acked, prev.acked),
        refused: delta(now.refused, prev.refused),
        lost: delta(now.lost, prev.lost),
    };
    let per_s = now
        .acked
        .saturating_sub(prev.acked)
        .saturating_mul(1_000)
        .checked_div(window_ms.max(1))
        .unwrap_or(0);
    metrics.set_gauge("monitor.acked_per_s", i64::try_from(per_s).unwrap_or(i64::MAX));
    journal.record(EventKind::AvailabilityWindow {
        index: stat.index,
        attempted: stat.attempted,
        acked: stat.acked,
        refused: stat.refused,
        lost: stat.lost,
    });
    windows.push(stat);
    now
}

/// Starts the monitor against the cluster's (un-proxied) address book,
/// journaling into `dir`. When `tee` is given, every journaled event
/// also streams to the online collector behind it.
///
/// # Errors
///
/// Journal creation failures.
pub fn start(
    addrs: BTreeMap<u32, String>,
    dir: &Path,
    boot_us: u64,
    cfg: MonitorConfig,
    tee: Option<ExportQueue>,
) -> io::Result<MonitorHandle> {
    let mut journal = Journal::open(dir, boot_us)?;
    if let Some(queue) = tee {
        journal.attach_export(queue);
    }
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = thread::spawn(move || {
        // The registry lives and dies on this thread; the report
        // carries its final snapshot out.
        let mut registry = Metrics::new();
        let mut client = NetClient::new(addrs, cfg.client_id, cfg.params.clone());
        let started = Instant::now();
        let window = Duration::from_millis(cfg.window_ms.max(1));
        let mut windows: Vec<WindowStat> = Vec::new();
        let mut acked: Vec<AckedWrite> = Vec::new();
        let mut prev = Totals::default();
        let mut index: u32 = 0;
        let mut op: u64 = 0;
        loop {
            // Roll windows forward to wherever the clock is now (an op
            // stalled in retries can span several windows).
            #[allow(clippy::cast_possible_truncation)]
            let now_index =
                (started.elapsed().as_millis() / window.as_millis().max(1)) as u32;
            while index < now_index {
                prev = roll_window(&mut registry, &mut journal, &mut windows, index, prev, cfg.window_ms);
                index += 1;
            }
            if stop_flag.load(Ordering::SeqCst) {
                break;
            }
            op += 1;
            let key = format!("mon-{}-{op}", cfg.client_id);
            let value = format!("v{op}");
            registry.inc("monitor.attempted");
            match client.put(&key, &value) {
                Ok(ack) => {
                    registry.inc("monitor.acked");
                    journal.record(EventKind::SessionAck {
                        client: cfg.client_id,
                        seq: ack.seq,
                        dup: ack.duplicate,
                    });
                    acked.push(AckedWrite {
                        key,
                        value,
                        seq: ack.seq,
                        duplicate: ack.duplicate,
                    });
                }
                Err(ClientError::Rejected { .. } | ClientError::SessionStale { .. }) => {
                    registry.inc("monitor.refused");
                }
                Err(ClientError::Exhausted { .. }) => {
                    registry.inc("monitor.lost");
                }
            }
            thread::sleep(Duration::from_millis(cfg.op_gap_ms));
        }
        // Flush the final, partial window.
        let _ = roll_window(&mut registry, &mut journal, &mut windows, index, prev, cfg.window_ms);
        let snap = registry.snapshot();
        MonitorReport {
            windows,
            acked,
            attempted: snap.counter("monitor.attempted"),
            refused: snap.counter("monitor.refused"),
            lost: snap.counter("monitor.lost"),
            metrics: snap,
        }
    });
    Ok(MonitorHandle { stop, join })
}
