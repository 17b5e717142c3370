//! The availability monitor: a steady client workload whose every
//! acknowledgement becomes an auditable obligation.
//!
//! While a netmesis campaign walks its fault schedule, one monitor
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
//! Every write, whatever its outcome, is also journaled as a
//! `ClientOp` event: one call of the client history the auditor holds
//! to linearizability (T8), which the run's final reads complete.
//!
//! Each completed window is journaled as an `AvailabilityWindow` event,
//! so the merged journal tells the whole availability story alongside
//! the safety story, and the report's totals are the windows' sums.
//! Every journaled event also goes to the online collector.

use std::collections::BTreeMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use adore_obs::EventKind;

use crate::client::{ClientError, ClientParams, NetClient};
use crate::collect::LocalStream;
use crate::node::{now_us, Journal};

/// What the monitor observed over its whole run.
#[derive(Debug, Default)]
pub struct MonitorReport {
    /// Total writes acknowledged.
    pub acked: u64,
    /// Total writes attempted.
    pub attempted: u64,
    /// Total writes refused.
    pub refused: u64,
    /// Total writes with unknown outcome.
    pub lost: u64,
}

/// A running monitor; [`MonitorHandle::stop`] joins it and returns the
/// report.
pub struct MonitorHandle {
    stop: Arc<AtomicBool>,
    join: JoinHandle<MonitorReport>,
}

impl MonitorHandle {
    /// Signals the monitor to finish its current op and joins it.
    ///
    /// # Errors
    ///
    /// The monitor thread panicked: which writes it saw acknowledged is
    /// unknown.
    pub fn stop(self) -> Result<MonitorReport, String> {
        self.stop.store(true, Ordering::SeqCst);
        self.join
            .join()
            .map_err(|_| "the availability monitor panicked: its acked writes are unknown".into())
    }
}

/// The monitor's session client id (unique in a campaign: driver and
/// workload clients use small ids).
const CLIENT_ID: u64 = 0xA11B;
/// Availability window length, milliseconds.
const WINDOW_MS: u64 = 1_000;
/// Pause between ops, milliseconds.
const OP_GAP_MS: u64 = 50;

/// The monitor client's retry tunables: quick backoff, a few attempts,
/// so a write's fate is decided within a window or two.
fn client_params() -> ClientParams {
    ClientParams {
        max_attempts: 8,
        backoff_base_us: 20_000,
        backoff_cap_us: 400_000,
        request_timeout: Duration::from_millis(1_500),
    }
}

/// The outcomes counted in the window still open.
#[derive(Default)]
struct Window {
    attempted: u32,
    acked: u32,
    refused: u32,
    lost: u32,
}

/// Closes window `index`: journals it, streams the record to the
/// collector, and adds it to the run's totals.
fn roll(
    w: Window,
    index: u32,
    journal: &mut Journal,
    stream: &LocalStream,
    report: &mut MonitorReport,
) {
    report.attempted += u64::from(w.attempted);
    report.acked += u64::from(w.acked);
    report.refused += u64::from(w.refused);
    report.lost += u64::from(w.lost);
    stream.push(journal.record(EventKind::AvailabilityWindow {
        index,
        attempted: w.attempted,
        acked: w.acked,
        refused: w.refused,
        lost: w.lost,
    }));
}

/// Starts the monitor against the cluster's (un-proxied) address book,
/// journaling into `dir` and onto `stream`.
///
/// # Errors
///
/// Journal creation failures.
pub fn start(
    addrs: BTreeMap<u32, String>,
    dir: &Path,
    boot_us: u64,
    stream: LocalStream,
) -> io::Result<MonitorHandle> {
    let mut journal = Journal::open(dir, boot_us)?;
    let stop = Arc::new(AtomicBool::new(false));
    let stop_flag = Arc::clone(&stop);
    let join = thread::spawn(move || {
        let mut client = NetClient::new(addrs, CLIENT_ID, client_params());
        let started = Instant::now();
        let mut report = MonitorReport::default();
        let mut window = Window::default();
        let mut index: u32 = 0;
        let mut op: u64 = 0;
        loop {
            // Roll windows forward to wherever the clock is now (an op
            // stalled in retries can span several windows).
            #[allow(clippy::cast_possible_truncation)]
            let now_index = (started.elapsed().as_millis() / u128::from(WINDOW_MS)) as u32;
            while index < now_index {
                let closed = std::mem::take(&mut window);
                roll(closed, index, &mut journal, &stream, &mut report);
                index += 1;
            }
            if stop_flag.load(Ordering::SeqCst) {
                break;
            }
            op += 1;
            let key = format!("mon-{CLIENT_ID}-{op}");
            let value = format!("v{op}");
            window.attempted += 1;
            let invoked_at_us = now_us();
            let result = client.put(&key, &value);
            match &result {
                Ok(ack) => {
                    window.acked += 1;
                    stream.push(journal.record(EventKind::SessionAck {
                        client: CLIENT_ID,
                        seq: ack.seq,
                        dup: ack.duplicate,
                    }));
                }
                Err(ClientError::Rejected { .. } | ClientError::SessionStale { .. }) => {
                    window.refused += 1;
                }
                Err(ClientError::Exhausted { .. }) => window.lost += 1,
            }
            let at = (invoked_at_us, now_us());
            let outcome = if result.is_ok() { "acked" } else { "failed" };
            let call = EventKind::client_op("put", &key, Some(value), at, outcome);
            stream.push(journal.record(call));
            thread::sleep(Duration::from_millis(OP_GAP_MS));
        }
        // Flush the final, partial window.
        roll(window, index, &mut journal, &stream, &mut report);
        report
    });
    Ok(MonitorHandle { stop, join })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A panicked monitor is reported as such, not as a report with no
    /// acked writes that would silently owe the audit nothing.
    #[test]
    fn a_panicked_monitor_is_an_error_not_an_empty_report() {
        let handle = MonitorHandle {
            stop: Arc::new(AtomicBool::new(false)),
            join: thread::spawn(|| panic!("monitor bug")),
        };
        let err = handle.stop().expect_err("no report to give");
        assert!(err.contains("availability monitor panicked"), "{err}");
    }
}
