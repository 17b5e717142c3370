//! The online collector: live streams in, one audited verdict out.
//!
//! Attaches to every node's export socket (plus in-process
//! [`LocalStream`]s: a harness driver's events, the availability
//! monitor's), merges the streams deterministically through
//! [`adore_obs::StreamMerger`]'s virtual-clock watermark, and drives
//! [`adore_obs::OnlineAuditor`] over the merged order — the same
//! T1–T8 engine the batch auditor runs, fed as events arrive.
//!
//! A node's export stream is its journal files from the first boot on,
//! whichever boot serves it ([`crate::export`]), so the reader counts
//! the events it has passed on and skips that many after a redial: one
//! stream per node carries every event of every boot once. Journal
//! stamps are wall-clock microseconds, monotone across the boots of a
//! host-local cluster, so the merge order holds through restarts.
//!
//! Shutdown: drop every [`LocalStream`] and stop (or quiet) the nodes,
//! then call [`OnlineCollector::stop`]. A reader stops only on a quiet
//! or dead link, so nothing on the wire is left unread.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, SyncSender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use adore_obs::{AuditReport, OnlineAuditor, StreamMerger, TraceEvent};

use crate::export::ExportReader;

/// Redial pause after a failed connect or a dead link.
const REDIAL_PAUSE: Duration = Duration::from_millis(150);

/// Bound on the fan-in channel from the streams to the auditor thread.
const FAN_IN_DEPTH: usize = 4_096;

/// One message on the collector's fan-in channel.
enum StreamMsg {
    Event(TraceEvent),
    Close,
}

/// An in-process stream into the collector, closed on drop: a handle
/// on the fan-in channel whose [`LocalStream::push`] waits for room,
/// so nothing pushed is shed.
#[derive(Debug)]
pub struct LocalStream {
    idx: usize,
    tx: SyncSender<(usize, StreamMsg)>,
}

impl LocalStream {
    /// Hands `ev` to the auditor, blocking while the fan-in is full.
    pub fn push(&self, ev: TraceEvent) {
        // Fails only once the auditor panicked, which `stop` reports.
        let _ = self.tx.send((self.idx, StreamMsg::Event(ev)));
    }
}

impl Drop for LocalStream {
    fn drop(&mut self) {
        let _ = self.tx.send((self.idx, StreamMsg::Close));
    }
}

/// What the collector certified once every stream closed.
#[derive(Debug)]
pub struct CollectorReport {
    /// The full close-out audit over the merged stream — the same
    /// report the batch auditor produces over the same sequence.
    pub report: AuditReport,
    /// Merged position of the first event that left the live verdict
    /// non-clean, if any — the online detection point.
    pub flagged_at: Option<u64>,
}

/// A running online audit over a set of live streams.
#[derive(Debug)]
pub struct OnlineCollector {
    stop: Arc<AtomicBool>,
    readers: Vec<JoinHandle<()>>,
    auditor: JoinHandle<CollectorReport>,
}

impl OnlineCollector {
    /// Attaches readers to `addrs` (one merger stream each, redialing
    /// across restarts) and opens `locals` more streams in-process,
    /// whose handles it returns. Drop them before [`stop`].
    ///
    /// [`stop`]: OnlineCollector::stop
    #[must_use]
    pub fn attach(addrs: &[String], locals: usize) -> (OnlineCollector, Vec<LocalStream>) {
        let (tx, rx) = mpsc::sync_channel::<(usize, StreamMsg)>(FAN_IN_DEPTH);
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for (idx, addr) in addrs.iter().enumerate() {
            let (tx, stop, addr) = (tx.clone(), Arc::clone(&stop), addr.clone());
            readers.push(thread::spawn(move || read_stream(idx, &addr, &tx, &stop)));
        }
        let total = addrs.len() + locals;
        let locals = (addrs.len()..total).map(|idx| LocalStream {
            idx,
            tx: tx.clone(),
        });
        let locals = locals.collect();
        drop(tx); // the auditor finishes when every stream sender is gone
        let auditor = thread::spawn(move || audit_loop(total, &rx));
        (
            OnlineCollector {
                stop,
                readers,
                auditor,
            },
            locals,
        )
    }

    /// Stops the readers, waits for the auditor to drain, and returns
    /// the close-out report.
    ///
    /// # Errors
    ///
    /// The auditor thread panicked: there is no online verdict.
    pub fn stop(self) -> Result<CollectorReport, String> {
        self.stop.store(true, Ordering::Relaxed);
        for r in self.readers {
            let _ = r.join();
        }
        let panicked = |_| "the online auditor panicked: no online verdict".to_string();
        self.auditor.join().map_err(panicked)
    }
}

/// Reader thread: dial, stream, redial across node restarts, until
/// stopped.
fn read_stream(idx: usize, addr: &str, tx: &SyncSender<(usize, StreamMsg)>, stop: &AtomicBool) {
    // Every connection starts at the node's first journal line, so the
    // first `forwarded` events of each are repeats.
    let mut forwarded: u64 = 0;
    loop {
        let mut seen: u64 = 0;
        // Returns once stopped on a quiet link, or with a dead link's
        // error (the node died; its next boot serves the same files).
        let _ = ExportReader::connect(addr).and_then(|mut reader| loop {
            match reader.poll_event()? {
                Some(ev) => {
                    seen += 1;
                    if seen > forwarded {
                        forwarded = seen;
                        let _ = tx.send((idx, StreamMsg::Event(ev)));
                    }
                }
                None if stop.load(Ordering::Relaxed) => return Ok(()),
                None => {}
            }
        });
        if stop.load(Ordering::Relaxed) {
            break;
        }
        thread::sleep(REDIAL_PAUSE);
    }
    let _ = tx.send((idx, StreamMsg::Close));
}

/// The auditor thread: watermark merge, incremental audit, close-out.
fn audit_loop(streams: usize, rx: &mpsc::Receiver<(usize, StreamMsg)>) -> CollectorReport {
    let mut merger = StreamMerger::new(streams);
    let mut auditor = OnlineAuditor::new();
    while let Ok((idx, msg)) = rx.recv() {
        match msg {
            StreamMsg::Event(ev) => merger.push(idx, ev),
            StreamMsg::Close => merger.close(idx),
        }
        for ev in merger.poll() {
            let _ = auditor.ingest(&ev);
        }
    }
    for ev in merger.drain() {
        let _ = auditor.ingest(&ev);
    }
    let flagged_at = auditor.flagged_at();
    CollectorReport {
        report: auditor.finish(),
        flagged_at,
    }
}

#[cfg(test)]
mod tests {
    use std::fs;
    use std::io::Write;
    use std::net::TcpListener;
    use std::time::Instant;

    use super::*;
    use crate::det::msg::encode_msg;
    use crate::export;
    use adore_obs::{merge_journals, EventKind};

    /// Two local streams staging a divergence: the collector merges,
    /// audits online, and reports the divergence with its detection
    /// point.
    #[test]
    fn local_streams_are_merged_and_audited() {
        let (collector, mut locals) = OnlineCollector::attach(&[], 2);
        let delta = |at: u64, nid: u32, entry: &str| {
            TraceEvent::root(
                at,
                EventKind::StateDelta {
                    nid,
                    term: None,
                    truncate: None,
                    append: vec![entry.to_string()],
                    commit_len: Some(1),
                },
            )
        };
        let q2 = locals.pop().expect("two locals");
        let q1 = locals.pop().expect("two locals");
        q1.push(delta(10, 1, "\"x\""));
        q2.push(delta(20, 2, "\"y\""));
        drop((q1, q2));
        let out = collector.stop().expect("the auditor ran");
        assert_eq!(out.report.events, 2);
        assert!(out.report.divergence.is_some(), "{:?}", out.report);
        assert_eq!(out.flagged_at, Some(1));
    }

    /// A local stream waits for the auditor instead of shedding: ten
    /// thousand events, more than the fan-in holds, all audited.
    #[test]
    fn a_local_stream_delivers_every_event() {
        let (collector, locals) = OnlineCollector::attach(&[], 1);
        for at in 0..10_000 {
            locals[0].push(TraceEvent::root(at, EventKind::WalSync { nid: 1 }));
        }
        drop(locals);
        let out = collector.stop().expect("the auditor ran");
        assert_eq!(out.report.events, 10_000);
        assert!(out.report.consistent, "{:?}", out.report.errors);
    }

    /// A panicked auditor is reported as such, not as an empty audit
    /// that would read as an online/batch mismatch.
    #[test]
    fn a_panicked_auditor_is_an_error_not_an_empty_report() {
        let collector = OnlineCollector {
            stop: Arc::new(AtomicBool::new(false)),
            readers: Vec::new(),
            auditor: thread::spawn(|| panic!("auditor bug")),
        };
        let err = collector.stop().expect_err("no verdict to report");
        assert!(err.contains("online auditor panicked"), "{err}");
    }

    /// Restart replay. Boot 1 of a node ended in a kill -9 after its
    /// exporter sent two events; its file ends in an unterminated line
    /// that still parses. The reader redials boot 2's exporter, which
    /// serves both files while boot 2 appends: the reader passes on the
    /// rest of boot 1, then boot 2, each event once, in the order
    /// `merge_journals` gives for the same texts.
    #[test]
    fn a_redial_resumes_after_the_events_already_forwarded() {
        let dir = std::env::temp_dir().join(format!("adored-replay-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("mkdir");
        let ev = |at: u64| TraceEvent::root(at, EventKind::WalSync { nid: 4 });
        let line = |at: u64| serde_json::to_string(&ev(at)).expect("encodes");
        let boot1 = format!("{}\n{}\n{}", line(10), line(20), line(30));
        fs::write(export::journal_path(&dir, 1), &boot1).expect("boot 1");
        let boot2_path = export::journal_path(&dir, 2);
        fs::write(&boot2_path, line(40) + "\n").expect("boot 2");

        // Boot 1's exporter: the two complete lines, then the kill.
        let boot1_exporter = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = boot1_exporter.local_addr().expect("addr").to_string();
        let (tx, rx) = mpsc::sync_channel(64);
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (addr, stop) = (addr.clone(), Arc::clone(&stop));
            thread::spawn(move || read_stream(0, &addr, &tx, &stop))
        };
        let (mut sub, _) = boot1_exporter.accept().expect("the reader dials");
        for at in [10, 20] {
            sub.write_all(&encode_msg(&ev(at)).expect("frame"))
                .expect("send");
        }
        drop((sub, boot1_exporter));

        // Boot 2 serves on the same port and appends as it runs.
        export::serve(&dir, 2, &addr).expect("rebind");
        let mut file = fs::OpenOptions::new()
            .append(true)
            .open(&boot2_path)
            .expect("open");
        writeln!(file, "{}", line(50)).expect("append");
        let mut got = Vec::new();
        let mut appended = false;
        let deadline = Instant::now() + Duration::from_secs(10);
        while got.len() < 6 && Instant::now() < deadline {
            if let Ok((_, StreamMsg::Event(e))) = rx.recv_timeout(Duration::from_millis(50)) {
                got.push(e);
            }
            if got.len() >= 4 && !appended {
                writeln!(file, "{}", line(60)).expect("append");
                appended = true;
            }
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().expect("the reader stops");
        while let Ok((_, msg)) = rx.try_recv() {
            if let StreamMsg::Event(e) = msg {
                got.push(e);
            }
        }
        let boot2 = fs::read_to_string(&boot2_path).expect("boot 2");
        let want = merge_journals([boot1.as_str(), boot2.as_str()]).expect("journals parse");
        let stamps = |evs: &[TraceEvent]| evs.iter().map(|e| e.at_us).collect::<Vec<_>>();
        assert_eq!(stamps(&got), [10, 20, 30, 40, 50, 60]);
        assert_eq!(stamps(&got), stamps(&want));
        assert!(got.iter().zip(&want).all(|(g, w)| g.kind == w.kind));
        let _ = fs::remove_dir_all(&dir);
    }
}
