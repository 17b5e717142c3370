//! The one live-run skeleton both harness subcommands stand on.
//!
//! [`LiveRun::boot`] starts a cluster of child-process nodes (for a
//! netmesis run, behind per-link fault proxies and beside the
//! availability monitor), attaches the online collector to every
//! node's export stream and opens the driver's journal. A body — the
//! `hunt` timeline walk, the `bench --open-loop` rate sweep — then
//! disturbs or loads the cluster, recording what it does and what was
//! acknowledged on [`LiveRun::driver`]. [`LiveRun::close`] is the only
//! way out: quiesce, read every acknowledged key back, merge every
//! journal, audit the merged trace, and hold the online verdict to the
//! batch one.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use adore_obs::{
    audit_events, merge_journals, to_jsonl, AuditReport, EventKind, TraceEvent, Tracer,
};
use adored::client::{ClientError, ClientParams, NetClient};
use adored::collect::{CollectorReport, OnlineCollector};
use adored::det::msg::ClientReply;
use adored::export::ExportQueue;
use adored::monitor::{self, MonitorConfig, MonitorHandle, MonitorReport};
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

/// Microseconds since the UNIX epoch, for the driver's own journal.
fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

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
    /// later). A SIGKILL can eat a node's last unpumped export frames,
    /// so the strict online ≡ batch comparison only applies when this
    /// stays zero.
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

    /// Reads every journal file the cluster wrote, one string per file.
    fn journal_texts(&self) -> std::io::Result<Vec<String>> {
        let mut texts = Vec::new();
        for &nid in self.addrs.keys() {
            let data = self.dir.join(format!("n{nid}"));
            let mut files: Vec<PathBuf> = fs::read_dir(&data)?
                .filter_map(Result::ok)
                .map(|e| e.path())
                .filter(|p| {
                    p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with("journal-") && n.ends_with(".jsonl"))
                })
                .collect();
            files.sort();
            for f in files {
                texts.push(fs::read_to_string(f)?);
            }
        }
        Ok(texts)
    }
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
pub(crate) struct DriverLog {
    tracer: Tracer,
    tee: ExportQueue,
    /// Every write the driver saw acknowledged, as `(key, value)`:
    /// each is owed a read-back at close.
    acked: Vec<(String, String)>,
}

impl DriverLog {
    pub(crate) fn record(&mut self, kind: EventKind) {
        let at_us = now_us();
        self.tee.push(&TraceEvent::root(at_us, kind.clone()));
        self.tracer.record(at_us, kind);
    }

    /// Journals one acknowledged write as an audit obligation (T7) and
    /// notes its key for the read-back.
    pub(crate) fn ack(&mut self, client: u64, seq: u64, dup: bool, key: String, value: String) {
        self.record(EventKind::SessionAck { client, seq, dup });
        self.acked.push((key, value));
    }
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
    /// reported, an acknowledged key that did not read back, an audit
    /// rejection, an online/batch split. Empty means SAFE.
    pub(crate) problems: Vec<String>,
    /// The batch audit over the merged journal files.
    pub(crate) batch: AuditReport,
    /// The online collector's close-out over the live streams.
    pub(crate) online: CollectorReport,
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
        // (readers redial across restarts, the port is stable), plus
        // local streams for the driver's and the monitor's journals.
        let export_addrs: Vec<String> = harness
            .obs_addrs
            .values()
            .map(|(export, _)| export.clone())
            .collect();
        let (collector, mut locals) = OnlineCollector::attach(&export_addrs, &[90, 91]);
        let monitor_tee = locals.pop();
        let tee = locals.pop().ok_or("collector returned no driver stream")?;
        let first_leader = harness.wait_for_leader()?;

        let mut driver = DriverLog {
            tracer: Tracer::enabled(),
            tee,
            acked: Vec::new(),
        };
        driver.record(EventKind::RunStart {
            name: name.to_string(),
            members: members.to_vec(),
        });
        let monitor = if netmesis {
            let boot_us = now_us();
            let handle = monitor::start(addrs, dir, boot_us, MonitorConfig::default(), monitor_tee)
                .map_err(io)?;
            Some((handle, dir.join(format!("journal-{boot_us}.jsonl"))))
        } else {
            None // dropping the spare tee closes its stream
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
    /// acknowledged key reads back, the merged journals pass the batch
    /// audit, and — when nothing was killed or shed — the online
    /// verdict equals the batch one. `problems` is what the body
    /// already holds against the run; `phase` numbers the verdict.
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
        let (monitor, monitor_journal) = self
            .monitor
            .take()
            .map(|(h, file)| (h.stop(), file))
            .unzip();

        // Read-back: an acknowledged write the cluster cannot return
        // is lost, whatever the journals say.
        let watched = monitor
            .iter()
            .flat_map(|m| &m.acked)
            .map(|w| (&w.key, &w.value));
        let owed: Vec<(&String, &String)> = self
            .driver
            .acked
            .iter()
            .map(|(k, v)| (k, v))
            .chain(watched)
            .collect();
        match leader {
            Ok(_) => {
                let mut reader = self.harness.client(998, ClientParams::default());
                let mut lost = Vec::new();
                for (k, v) in &owed {
                    match reader.get(k) {
                        Ok(Some(got)) if got == **v => {}
                        Ok(got) => lost.push(format!("{k}: acked {v:?}, read {got:?}")),
                        Err(e) => {
                            lost.push(format!("{k}: read failed: {e}"));
                            break;
                        }
                    }
                }
                if !lost.is_empty() {
                    lost.truncate(5);
                    problems.push(format!(
                        "acked writes did not read back: {} ...",
                        lost.join("; ")
                    ));
                }
            }
            Err(e) => problems.push(format!("after quiesce: {e}")),
        }
        let acked = owed.len();

        // Give the last catch-up journal lines a moment to flush, then
        // stop the cluster before reading its files.
        thread::sleep(Duration::from_millis(400));
        let mut texts = self.harness.journal_texts().map_err(|e| e.to_string())?;
        let (kills, merged) = (self.harness.kills, self.harness.dir.join("merged.jsonl"));
        drop(self.harness);
        let proxy = self.proxy.map_or_else(LinkTally::default, |p| p.totals());
        texts.extend(
            monitor_journal.map(|file: PathBuf| fs::read_to_string(file).unwrap_or_default()),
        );

        self.driver.record(EventKind::Verdict {
            safe: problems.is_empty(),
            kind: (!problems.is_empty()).then(|| "LiveRunViolation".to_string()),
            detail: (!problems.is_empty()).then(|| problems.join("; ")),
            phase,
        });
        self.driver.record(EventKind::RunEnd {
            committed: acked as u64,
        });
        texts.push(self.driver.tracer.to_jsonl());
        // Close the driver's live stream, then the whole collector: the
        // monitor's stream already closed when its thread was joined.
        drop(self.driver);
        let online = self.collector.stop();

        let events = merge_journals(texts.iter().map(String::as_str)).map_err(|e| e.to_string())?;
        fs::write(merged, to_jsonl(&events)).map_err(|e| e.to_string())?;
        let batch = audit_events(&events);
        if !batch.consistent || batch.divergence.is_some() {
            problems.push(format!(
                "audit rejected the run: errors={:?} divergence={:?}",
                batch.errors, batch.divergence
            ));
        }
        // Online ≡ batch: with no kills and nothing shed, the collector
        // saw the complete trace and the two verdicts must agree. (A
        // SIGKILL can eat a node's last unpumped export frames — frames
        // the flushed journal file still has — so kills relax the check.)
        if kills == 0 && online.dropped == 0 && online.report.consistent != batch.consistent {
            problems.push(format!(
                "online/batch audit verdict mismatch: online={} batch={}",
                online.report.consistent, batch.consistent
            ));
        }
        println!(
            "live: {acked} acked keys read back; online audit {} over {} events / {} nodes \
             ({} acked obligations, {} trace-dropped)",
            if online.report.consistent {
                "CERTIFIED"
            } else {
                "REJECTED"
            },
            online.report.events,
            online.report.nodes,
            online.report.acked,
            online.dropped
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
