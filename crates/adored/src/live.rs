//! The one live-run skeleton both harness subcommands stand on.
//!
//! [`LiveRun::boot`] starts a cluster of child-process nodes (for a
//! netmesis run, behind per-link fault proxies and beside the
//! availability monitor), attaches the online collector to every
//! node's export stream and opens the driver's journal. A body — the
//! `hunt` fault walk, the `bench --open-loop` rate sweep — then
//! disturbs or loads the cluster, journaling what it does and every
//! client operation on [`LiveRun::driver`]. [`LiveRun::close`] is the
//! only way out: quiesce, read every written key once through the
//! cluster, merge every journal, audit the merged trace — whose client
//! history must be linearizable (T8) — and hold the online verdict to
//! the batch one.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use adore_obs::{
    audit_events, merge_journals, parse_jsonl, to_jsonl, AuditReport, EventKind, TraceEvent, Tracer,
};
use adored::client::{Acked, ClientError, ClientParams, NetClient};
use adored::collect::{CollectorReport, LocalStream, OnlineCollector};
use adored::det::msg::ClientReply;
use adored::export;
use adored::monitor::{self, MonitorHandle, MonitorReport};
use adored::node::now_us;
use adored::proxy::{LinkTally, ProxyNet};

/// How long the harness waits for a leader before declaring the
/// cluster dead.
const LEADER_WAIT: Duration = Duration::from_secs(30);
/// Budget for waiting out a live election (`AwaitElection`).
const ELECTION_WAIT: Duration = Duration::from_secs(12);
/// Watchdog handed to every child node: no orphan outlives a run.
const CHILD_MAX_RUNTIME_MS: u64 = 180_000;
/// Engine tick for harness-spawned nodes.
pub(crate) const CHILD_TICK_MS: u64 = 20;
/// Peer read deadline handed to every netmesis node: long enough that
/// a sub-second gray pause resumes on the same sockets.
const NETMESIS_PEER_DEADLINE_MS: u64 = 120_000;

/// Reserves `n` distinct ephemeral localhost ports.
fn pick_ports(n: usize) -> std::io::Result<Vec<u16>> {
    let mut holds = Vec::new();
    let mut ports = Vec::new();
    for _ in 0..n {
        let l = TcpListener::bind("127.0.0.1:0")?;
        ports.push(l.local_addr()?.port());
        holds.push(l);
    }
    Ok(ports)
}

/// A cluster of child-process nodes, killed on drop.
pub(crate) struct Harness {
    exe: PathBuf,
    dir: PathBuf,
    /// The `--peers` spec each node boots with. In plain runs every
    /// node shares one spec; in proxied (netmesis) runs each node's
    /// peer entries point at its own outbound-link proxies.
    node_peers: BTreeMap<u32, String>,
    /// Real (un-proxied) addresses, for clients and status probes.
    addrs: BTreeMap<u32, String>,
    /// Per-node `(streaming-export, /metrics)` listen addresses,
    /// allocated once and reused across respawns so a collector's
    /// redial to one address spans every boot of that node.
    obs_addrs: BTreeMap<u32, (String, String)>,
    children: BTreeMap<u32, Child>,
    paused: BTreeSet<u32>,
    /// Kills enacted over the whole run (including nodes restarted
    /// later).
    kills: u64,
    seed: u64,
    /// Extra `adored node` flags appended to every spawn (e.g.
    /// `--ablate-guard r1`, `--peer-deadline-ms 120000`).
    extra_args: Vec<String>,
    /// The status-probe client behind the leader polls.
    probe: NetClient,
    /// The highest term at which a leader poll has seen a leader.
    led_term: u64,
}

impl Harness {
    /// Starts one node per entry of `addrs`, each with its own
    /// `--peers` spec and the extra per-node flags.
    fn start(
        dir: &Path,
        addrs: BTreeMap<u32, String>,
        node_peers: BTreeMap<u32, String>,
        seed: u64,
        extra_args: Vec<String>,
    ) -> std::io::Result<Harness> {
        fs::create_dir_all(dir)?;
        let exe = std::env::current_exe()?;
        let local = |port: &u16| format!("127.0.0.1:{port}");
        let obs_ports = pick_ports(2 * addrs.len())?;
        let obs_addrs = addrs
            .keys()
            .zip(obs_ports.chunks_exact(2))
            .map(|(&n, pair)| (n, (local(&pair[0]), local(&pair[1]))))
            .collect();
        let mut h = Harness {
            exe,
            dir: dir.to_path_buf(),
            node_peers,
            probe: NetClient::new(addrs.clone(), 999, ClientParams::default()),
            addrs,
            obs_addrs,
            children: BTreeMap::new(),
            paused: BTreeSet::new(),
            kills: 0,
            seed,
            extra_args,
            led_term: 0,
        };
        for n in h.node_ids() {
            h.spawn(n)?;
        }
        Ok(h)
    }

    /// Spawns (or respawns) node `nid` into its standing data dir.
    pub(crate) fn spawn(&mut self, nid: u32) -> std::io::Result<()> {
        let data = self.dir.join(format!("n{nid}"));
        let peers_spec = self
            .node_peers
            .get(&nid)
            .cloned()
            .ok_or_else(|| std::io::Error::new(std::io::ErrorKind::NotFound, "unknown nid"))?;
        let mut cmd = Command::new(&self.exe);
        cmd.args([
            "node",
            "--nid",
            &nid.to_string(),
            "--peers",
            &peers_spec,
            "--data",
            data.to_str().unwrap_or("."),
            // Every node gets the same base seed: the engine mixes
            // the node id in by XOR, which keeps per-node jitter
            // streams distinct for ANY base. (Passing seed+nid here
            // instead can collide — (s+a)^a == (s+b)^b for many
            // small values — leaving two survivors with identical
            // election jitter and a perpetual split vote.)
            "--seed",
            &self.seed.to_string(),
            "--tick-ms",
            &CHILD_TICK_MS.to_string(),
            "--max-runtime-ms",
            &CHILD_MAX_RUNTIME_MS.to_string(),
        ]);
        if let Some((export, metrics)) = self.obs_addrs.get(&nid) {
            cmd.args(["--export", export, "--metrics", metrics]);
        }
        let child = cmd
            .args(&self.extra_args)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()?;
        self.children.insert(nid, child);
        Ok(())
    }

    /// `kill -9` for node `nid` (SIGKILL: no atexit, no flush, no FIN).
    pub(crate) fn kill(&mut self, nid: u32) {
        if let Some(mut child) = self.children.remove(&nid) {
            let _ = child.kill();
            let _ = child.wait();
            self.paused.remove(&nid);
            self.kills += 1;
        }
    }

    /// SIGSTOPs node `nid`: a gray pause — the process is frozen but
    /// its sockets stay open, so peers see silence, not FINs.
    pub(crate) fn pause(&mut self, nid: u32) {
        if self.signal(nid, "-STOP") {
            self.paused.insert(nid);
        }
    }

    /// SIGCONTs a paused node.
    pub(crate) fn resume(&mut self, nid: u32) {
        if self.signal(nid, "-CONT") {
            self.paused.remove(&nid);
        }
    }

    fn signal(&self, nid: u32, sig: &str) -> bool {
        let Some(child) = self.children.get(&nid) else {
            return false;
        };
        Command::new("kill")
            .args([sig, &child.id().to_string()])
            .status()
            .map(|s| s.success())
            .unwrap_or(false)
    }

    /// Resumes every paused node and restarts every killed one.
    fn revive_all(&mut self) {
        for nid in self.paused.clone() {
            self.resume(nid);
        }
        for nid in self.node_ids() {
            if !self.children.contains_key(&nid) {
                let _ = self.spawn(nid);
            }
        }
    }

    pub(crate) fn client(&self, id: u64, params: ClientParams) -> NetClient {
        NetClient::new(self.addrs.clone(), id, params)
    }

    /// Every configured node id (running or not).
    pub(crate) fn node_ids(&self) -> Vec<u32> {
        self.addrs.keys().copied().collect()
    }

    /// The `/metrics` scrape address of node `nid`.
    pub(crate) fn metrics_addr(&self, nid: u32) -> Option<String> {
        self.obs_addrs.get(&nid).map(|(_, metrics)| metrics.clone())
    }

    /// Polls the running, unpaused nodes until one reports itself
    /// leader at a term above `floor`; returns the nid of the highest
    /// such term (a healed partition can show two for a moment).
    fn wait_for_leader_above(&mut self, floor: u64, budget: Duration) -> Option<u32> {
        let deadline = Instant::now() + budget;
        while Instant::now() < deadline {
            let mut best = None;
            for nid in self.node_ids() {
                if !self.children.contains_key(&nid) || self.paused.contains(&nid) {
                    continue;
                }
                if let Ok(ClientReply::Status { role, term, .. }) = self.probe.status(nid) {
                    if role == "leader" && term > floor && best.is_none_or(|(t, _)| term > t) {
                        best = Some((term, nid));
                    }
                }
            }
            if let Some((term, nid)) = best {
                self.led_term = self.led_term.max(term);
                return Some(nid);
            }
            thread::sleep(Duration::from_millis(100));
        }
        None
    }

    /// Polls until some node reports itself leader; returns its nid.
    pub(crate) fn wait_for_leader(&mut self) -> Result<u32, String> {
        self.wait_for_leader_above(0, LEADER_WAIT)
            .ok_or_else(|| "no leader elected within the wait budget".to_string())
    }

    /// Waits, up to the election budget, for a leader at a term above
    /// every term this harness has seen led — a *new* election — and
    /// returns the winner. Elections on the wire happen through real
    /// timeouts; this only observes them.
    pub(crate) fn await_election(&mut self) -> Option<u32> {
        self.wait_for_leader_above(self.led_term, ELECTION_WAIT)
    }
}

/// Reads every journal file nodes `nids` wrote under `dir`, one string
/// per file, node by node in boot order: the order each node's export
/// stream sends them.
fn journal_texts(dir: &Path, nids: &[u32]) -> std::io::Result<Vec<String>> {
    let mut texts = Vec::new();
    for nid in nids {
        for f in export::journal_files(&dir.join(format!("n{nid}")))? {
            texts.push(fs::read_to_string(f)?);
        }
    }
    Ok(texts)
}

impl Drop for Harness {
    fn drop(&mut self) {
        for nid in self.node_ids() {
            self.kill(nid);
        }
    }
}

/// The driver's journal, written twice at once: into the batch tracer
/// (merged and audited after the run) and onto the collector's live
/// stream. One record call, two sinks, no divergence between them.
/// Stamps must not decrease, or the online merge would reorder them.
pub(crate) struct DriverLog {
    tracer: Tracer,
    stream: LocalStream,
}

impl DriverLog {
    pub(crate) fn record(&mut self, kind: EventKind) {
        self.record_at(now_us(), kind);
    }

    fn record_at(&mut self, at_us: u64, kind: EventKind) {
        self.stream.push(TraceEvent::root(at_us, kind.clone()));
        self.tracer.record(at_us, kind);
    }

    /// Journals one finished put at its completion `done_us`: its
    /// session ack when acked (T7's obligation), and the call itself
    /// either way (T8's history).
    pub(crate) fn put(
        &mut self,
        client: u64,
        (key, value): (&str, &str),
        at: (u64, u64),
        result: &Result<Acked, ClientError>,
    ) {
        if let Ok(acked) = result {
            let (seq, dup) = (acked.seq, acked.duplicate);
            self.record_at(at.1, EventKind::SessionAck { client, seq, dup });
        }
        let outcome = if result.is_ok() { "acked" } else { "failed" };
        let call = EventKind::client_op("put", key, Some(value.to_string()), at, outcome);
        self.record_at(at.1, call);
    }
}

/// Every key a journaled put names, and how many puts were acked.
fn written_keys<'a>(events: impl IntoIterator<Item = &'a TraceEvent>) -> (BTreeSet<String>, u64) {
    let (mut keys, mut acked) = (BTreeSet::new(), 0);
    for ev in events {
        if let EventKind::ClientOp {
            op, key, outcome, ..
        } = &ev.kind
        {
            if op == "put" {
                keys.insert(key.clone());
                acked += u64::from(outcome == "acked");
            }
        }
    }
    (keys, acked)
}

/// A booted cluster under the online collector, between `boot` and
/// `close`.
pub(crate) struct LiveRun {
    pub(crate) harness: Harness,
    /// The per-link fault proxies of a netmesis run.
    pub(crate) proxy: Option<ProxyNet>,
    pub(crate) driver: DriverLog,
    /// Whichever node won the first election.
    pub(crate) first_leader: u32,
    collector: OnlineCollector,
    /// The availability monitor of a netmesis run, and the journal
    /// file it writes (in the run dir root).
    monitor: Option<(MonitorHandle, PathBuf)>,
}

/// What [`LiveRun::close`] found.
pub(crate) struct Closed {
    /// Everything that makes the run a violation: what the body
    /// reported, a harness thread that panicked, a final read the
    /// cluster could not serve, an audit rejection (a client history
    /// that is not linearizable among them), an online/batch split.
    /// Empty means SAFE.
    pub(crate) problems: Vec<String>,
    /// The batch audit over the merged journal files.
    pub(crate) batch: AuditReport,
    /// The online collector's close-out over the live streams (`None`
    /// when its auditor panicked, which `problems` names).
    pub(crate) online: Option<CollectorReport>,
    pub(crate) monitor: Option<MonitorReport>,
    pub(crate) proxy: LinkTally,
    /// The merged trace (also written to `merged.jsonl` in the run dir).
    pub(crate) events: Vec<TraceEvent>,
}

impl Closed {
    /// None when the run was safe; a description otherwise.
    pub(crate) fn violation(&self) -> Option<String> {
        (!self.problems.is_empty()).then(|| self.problems.join("; "))
    }
}

impl LiveRun {
    /// Boots `members` as child processes journaling under `dir` and
    /// waits for the first leader. `netmesis` puts every peer link
    /// behind a fault proxy and starts the availability monitor.
    pub(crate) fn boot(
        dir: &Path,
        name: &str,
        members: &[u32],
        seed: u64,
        netmesis: bool,
        node_args: &[String],
    ) -> Result<LiveRun, String> {
        let io = |e: std::io::Error| e.to_string();
        let ports = pick_ports(members.len()).map_err(io)?;
        let addrs: BTreeMap<u32, String> = members
            .iter()
            .zip(&ports)
            .map(|(&n, p)| (n, format!("127.0.0.1:{p}")))
            .collect();
        let mut extra = node_args.to_vec();
        let proxy = if netmesis {
            extra.extend([
                "--peer-deadline-ms".into(),
                NETMESIS_PEER_DEADLINE_MS.to_string(),
            ]);
            Some(ProxyNet::new(&addrs, seed).map_err(io)?)
        } else {
            None
        };
        let plain: Vec<String> = addrs.iter().map(|(n, a)| format!("{n}={a}")).collect();
        let peers_for = |n| {
            proxy
                .as_ref()
                .map_or_else(|| plain.join(","), |p| p.peers_spec_for(n))
        };
        let node_peers = addrs.keys().map(|&n| (n, peers_for(n))).collect();
        let mut harness =
            Harness::start(dir, addrs.clone(), node_peers, seed, extra).map_err(io)?;

        // The online plane: one live stream per node's export channel
        // (readers redial across restarts, the port is stable), then
        // local streams for the monitor's and the driver's journals —
        // the order `close` hands the batch merge their files in.
        let export_addrs: Vec<String> = harness
            .obs_addrs
            .values()
            .map(|(export, _)| export.clone())
            .collect();
        let (collector, mut locals) = OnlineCollector::attach(&export_addrs, 2);
        let stream = locals.pop().ok_or("collector returned no driver stream")?;
        let monitor_stream = locals.pop().ok_or("collector returned no monitor stream")?;
        let first_leader = harness.wait_for_leader()?;

        let mut driver = DriverLog {
            tracer: Tracer::enabled(),
            stream,
        };
        driver.record(EventKind::RunStart {
            name: name.to_string(),
            members: members.to_vec(),
        });
        let monitor = if netmesis {
            let boot_us = now_us();
            let handle = monitor::start(addrs, dir, boot_us, monitor_stream).map_err(io)?;
            Some((handle, export::journal_path(dir, boot_us)))
        } else {
            None // dropping the spare stream closes it
        };
        Ok(LiveRun {
            harness,
            proxy,
            driver,
            first_leader,
            collector,
            monitor,
        })
    }

    /// Quiesces and stops the cluster, then certifies the run: every
    /// written key is read once more (the final observations of the
    /// client history), the merged journals pass the batch audit, T8
    /// included, and the online verdict equals the batch one.
    /// `problems` is what the body already holds against the run;
    /// `phase` numbers the verdict.
    pub(crate) fn close(mut self, mut problems: Vec<String>, phase: u32) -> Result<Closed, String> {
        // Quiesce: heal everything, resume and restart everyone, let
        // the cluster converge, then stop the monitor.
        if let Some(proxy) = &self.proxy {
            proxy.heal_all();
            self.driver.record(EventKind::Heal);
        }
        let disturbed = self.proxy.is_some() || self.harness.kills > 0;
        self.harness.revive_all();
        if disturbed {
            thread::sleep(Duration::from_millis(1_500));
        }
        let leader = self.harness.wait_for_leader();
        thread::sleep(Duration::from_millis(800));
        let (mut monitor, mut monitor_text) = (None, None);
        if let Some((handle, file)) = self.monitor.take() {
            match handle.stop() {
                Ok(report) => monitor = Some(report),
                Err(e) => problems.push(e),
            }
            monitor_text = Some(fs::read_to_string(file).unwrap_or_default());
        }

        // Final reads: every key any client wrote, once, through the
        // cluster. They complete the history T8 judges; a read that
        // fails observes nothing, and a cluster that cannot serve one
        // after quiesce is a failed run.
        let monitor_events =
            parse_jsonl(monitor_text.as_deref().unwrap_or_default()).map_err(|e| e.to_string())?;
        let (keys, acked) = written_keys(self.driver.tracer.events().iter().chain(&monitor_events));
        let mut reads = 0;
        match leader {
            Ok(_) => {
                let mut reader = self.harness.client(998, ClientParams::default());
                for key in &keys {
                    let invoked_at_us = now_us();
                    let result = reader.get(key);
                    let at = (invoked_at_us, now_us());
                    let value = result.as_ref().ok().cloned().flatten();
                    let outcome = if result.is_ok() { "acked" } else { "failed" };
                    let call = EventKind::client_op("get", key, value, at, outcome);
                    self.driver.record_at(at.1, call);
                    if let Err(e) = result {
                        problems.push(format!("final read of {key} failed: {e}"));
                        break;
                    }
                    reads += 1;
                }
            }
            Err(e) => problems.push(format!("after quiesce: {e}")),
        }

        // Give the last catch-up journal lines a moment to reach the
        // export streams, then stop the cluster and read its files,
        // final now.
        thread::sleep(Duration::from_millis(400));
        let (dir, nids) = (self.harness.dir.clone(), self.harness.node_ids());
        drop(self.harness);
        let mut texts = journal_texts(&dir, &nids).map_err(|e| e.to_string())?;
        let proxy = self.proxy.map_or_else(LinkTally::default, |p| p.totals());
        texts.extend(monitor_text);

        self.driver.record(EventKind::Verdict {
            safe: problems.is_empty(),
            kind: (!problems.is_empty()).then(|| "LiveRunViolation".to_string()),
            detail: (!problems.is_empty()).then(|| problems.join("; ")),
            phase,
        });
        self.driver.record(EventKind::RunEnd { committed: acked });
        texts.push(self.driver.tracer.to_jsonl());
        // Close the driver's live stream, then the whole collector: the
        // monitor's stream already closed when its thread was joined.
        drop(self.driver);
        let online = self.collector.stop().map_err(|e| problems.push(e)).ok();

        let events = merge_journals(texts.iter().map(String::as_str)).map_err(|e| e.to_string())?;
        fs::write(dir.join("merged.jsonl"), to_jsonl(&events)).map_err(|e| e.to_string())?;
        let batch = audit_events(&events);
        if !batch.consistent || batch.divergence.is_some() {
            let history = batch.not_linearizable.as_ref().map(ToString::to_string);
            problems.push(format!(
                "audit rejected the run: errors={:?} divergence={:?} history={history:?}",
                batch.errors, batch.divergence
            ));
        }
        // Online ≡ batch: each node's stream is its journal files, and
        // the local streams carry what the driver's and the monitor's
        // files hold, so the collector audited the trace the batch
        // merge reads and the two verdicts must agree.
        if let Some(online) = online.as_ref().filter(|o| o.report.consistent != batch.consistent) {
            problems.push(format!(
                "online/batch audit verdict mismatch: online={} batch={}",
                online.report.consistent, batch.consistent
            ));
        }
        let summary = online.as_ref().map_or("none".into(), |o| o.report.summary());
        println!(
            "live: {reads}/{} written keys read; online audit: {summary}; \
             events online/batch: {}/{}",
            keys.len(),
            online.as_ref().map_or(0, |o| o.report.events),
            batch.events
        );
        Ok(Closed {
            problems,
            batch,
            online,
            monitor,
            proxy,
            events,
        })
    }
}

/// Drives one membership change through transient refusals (R2 holds
/// until the previous configuration entry commits; R3 until the new
/// leader's barrier commits) and fault-window timeouts. Each retry is a
/// fresh session request — sound, because a guard refusal appends
/// nothing.
pub(crate) fn reconfigure(client: &mut NetClient, target: &[u32]) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(25);
    loop {
        match client.reconfigure(target) {
            Ok(_) => return Ok(()),
            Err(ClientError::Rejected { .. } | ClientError::Exhausted { .. })
                if Instant::now() < deadline =>
            {
                thread::sleep(Duration::from_millis(250));
            }
            Err(e) => return Err(format!("reconfigure to {target:?} failed: {e}")),
        }
    }
}
