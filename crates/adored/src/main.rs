//! `adored` — the networked ADORE cluster binary.
//!
//! Four subcommands:
//!
//! - `adored node` runs one replica (the fault-hardened runtime in
//!   [`adored::node`]).
//! - `adored smoke` is the real-process fault harness: it spawns a
//!   local cluster as child processes, drives writes, `kill -9`s the
//!   leader, restarts it into the same data directory, optionally walks
//!   a live 5→3→5 certified reconfiguration, then checks zero
//!   acked-write loss and zero duplicate applies, merges every node's
//!   journal, and audits the merged trace with `adore-obs`.
//! - `adored bench --open-loop` drives a 3-node cluster at fixed
//!   offered rates under the online auditor and writes
//!   `results/BENCH_live.json`. (Closed-loop questions — throughput,
//!   exact percentiles, per-layer cost — belong to `benchmark/run.sh`.)
//! - `adored hunt` is the netmesis campaign driver: it compiles
//!   serializable nemesis `FaultSchedule`s into live wire and process
//!   faults (via the per-link proxies in [`adored::proxy`]), runs them
//!   against a real cluster under an availability monitor, audits the
//!   merged journals, and on failure persists a replayable,
//!   sim-minimized counterexample artifact.

#![deny(clippy::disallowed_methods)] // L12a: as the library

mod hunt;

use std::collections::BTreeMap;
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use adore_obs::{
    audit_events, merge_journals, to_jsonl, EventKind, Histogram, TraceEvent, Tracer,
};
use adored::client::{ClientError, ClientParams, NetClient};
use adored::collect::OnlineCollector;
use adored::det::engine::EngineParams;
use adored::det::msg::{ClientReply, NetEntry, SessionCmd};
use adored::node::{run, NodeConfig};

/// How long the harness waits for a leader before declaring the
/// cluster dead.
const LEADER_WAIT: Duration = Duration::from_secs(30);
/// Watchdog handed to every child node: no orphan outlives a run.
const CHILD_MAX_RUNTIME_MS: u64 = 180_000;
/// Engine tick for harness-spawned nodes.
const CHILD_TICK_MS: u64 = 20;

const USAGE: &str = "usage: adored node --nid N --peers 1=host:port,2=... --data DIR \
     [--seed S] [--tick-ms T] [--max-runtime-ms M] [--ablate-guard r1|r2|r3] \
     [--peer-deadline-ms M] [--export host:port] [--metrics host:port]\n\
     \x20      adored smoke [--nodes N] [--dir DIR] [--seed S] [--reconfig]\n\
     \x20      adored bench --open-loop [RATES] [--secs-per-rate S] [--dir DIR] \
     [--out FILE] [--seed S]\n\
     \x20      adored hunt [--gate | --seeds N] [--nodes N] [--dir DIR] \
     [--seed S] [--ablate r1] [--out FILE]";

/// A subcommand returns its exit code, or `Err` with what is wrong
/// with its arguments: that prints the usage line and exits 2.
type CmdResult = Result<i32, String>;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let ran = match args.first().map(String::as_str) {
        Some("node") => cmd_node(&args[1..]),
        Some("smoke") => cmd_smoke(&args[1..]),
        Some("bench") => cmd_bench(&args[1..]),
        Some("hunt") => hunt::cmd_hunt(&args[1..]),
        _ => Err("expected a subcommand: node, smoke, bench or hunt".to_string()),
    };
    std::process::exit(ran.unwrap_or_else(|msg| {
        eprintln!("adored: {msg}\n{USAGE}");
        2
    }));
}

// ---- argument plumbing --------------------------------------------------

fn arg_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// `--name N`: `None` when the flag is absent; an error when its value
/// is missing or does not parse, so a typo never runs with the default.
fn arg_num<T: std::str::FromStr>(args: &[String], name: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == name) else {
        return Ok(None);
    };
    let value = args.get(i + 1).map_or("", String::as_str);
    match value.parse() {
        Ok(n) => Ok(Some(n)),
        Err(_) => Err(format!("{name} expects a number, got {value:?}")),
    }
}

fn arg_u64(args: &[String], name: &str, default: u64) -> Result<u64, String> {
    Ok(arg_num(args, name)?.unwrap_or(default))
}

fn arg_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == name)
}

/// Parses `1=host:port,2=host:port,...`.
fn parse_peers(spec: &str) -> Option<Vec<(u32, String)>> {
    let mut out = Vec::new();
    for part in spec.split(',') {
        let (nid, addr) = part.split_once('=')?;
        out.push((nid.trim().parse().ok()?, addr.trim().to_string()));
    }
    Some(out)
}

// ---- `adored node` ------------------------------------------------------

fn cmd_node(args: &[String]) -> CmdResult {
    let nid: u32 = arg_num(args, "--nid")?.ok_or("node: --nid is required")?;
    let peers = arg_value(args, "--peers")
        .as_deref()
        .and_then(parse_peers)
        .ok_or("node: --peers 1=host:port,2=... is required")?;
    let data_dir = arg_value(args, "--data")
        .map(PathBuf::from)
        .ok_or("node: --data DIR is required")?;
    // `--ablate-guard r1,r3` drops the named conditions from the sound
    // guard — fault-harness use only, to manufacture counterexamples.
    let mut guard = adore_core::ReconfigGuard::all();
    if let Some(spec) = arg_value(args, "--ablate-guard") {
        for cond in spec.split(',') {
            match cond.trim() {
                "r1" => guard.r1 = false,
                "r2" => guard.r2 = false,
                "r3" => guard.r3 = false,
                other => return Err(format!("node: unknown guard condition {other:?}")),
            }
        }
    }
    let cfg = NodeConfig {
        nid,
        peers,
        data_dir,
        seed: arg_u64(args, "--seed", 1)?,
        tick_ms: arg_u64(args, "--tick-ms", CHILD_TICK_MS)?,
        max_runtime_ms: arg_num(args, "--max-runtime-ms")?,
        params: EngineParams::default(),
        guard,
        peer_read_deadline_ms: arg_u64(
            args,
            "--peer-deadline-ms",
            adored::node::DEFAULT_PEER_READ_DEADLINE_MS,
        )?,
        export_addr: arg_value(args, "--export"),
        metrics_addr: arg_value(args, "--metrics"),
    };
    Ok(match run(cfg) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("adored node {nid}: {e}");
            1
        }
    })
}

// ---- shared harness machinery -------------------------------------------

/// Microseconds since the UNIX epoch, for the driver's own journal.
fn now_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX))
        .unwrap_or(0)
}

/// A duration as saturating microseconds.
fn dur_us(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
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
struct Harness {
    exe: PathBuf,
    dir: PathBuf,
    /// The `--peers` spec each node boots with. In plain runs every
    /// node shares one spec; in proxied (netmesis) runs each node's
    /// peer entries point at its own outbound-link proxies.
    node_peers: BTreeMap<u32, String>,
    /// Real (un-proxied) addresses, for clients and status probes.
    addrs: BTreeMap<u32, String>,
    /// Per-node streaming-export listen addresses, allocated once and
    /// reused across respawns so a collector's redial to one address
    /// spans every boot of that node.
    export_addrs: BTreeMap<u32, String>,
    /// Per-node `/metrics` scrape addresses, likewise stable.
    metrics_addrs: BTreeMap<u32, String>,
    children: BTreeMap<u32, Child>,
    seed: u64,
    /// Extra `adored node` flags appended to every spawn (e.g.
    /// `--ablate-guard r1`, `--peer-deadline-ms 120000`).
    extra_args: Vec<String>,
}

impl Harness {
    fn start(dir: &Path, nodes: u32, seed: u64) -> std::io::Result<Harness> {
        let ports = pick_ports(nodes as usize)?;
        let addrs: BTreeMap<u32, String> = (1..=nodes)
            .map(|n| (n, format!("127.0.0.1:{}", ports[(n - 1) as usize])))
            .collect();
        let peers_spec = addrs
            .iter()
            .map(|(n, a)| format!("{n}={a}"))
            .collect::<Vec<_>>()
            .join(",");
        let node_peers = addrs.keys().map(|n| (*n, peers_spec.clone())).collect();
        Harness::start_with(dir, addrs, node_peers, seed, Vec::new())
    }

    /// Starts a cluster with per-node `--peers` specs (the proxied
    /// netmesis topology) and extra per-node flags.
    fn start_with(
        dir: &Path,
        addrs: BTreeMap<u32, String>,
        node_peers: BTreeMap<u32, String>,
        seed: u64,
        extra_args: Vec<String>,
    ) -> std::io::Result<Harness> {
        fs::create_dir_all(dir)?;
        let exe = std::env::current_exe()?;
        let obs_ports = pick_ports(2 * addrs.len())?;
        let export_addrs = addrs
            .keys()
            .enumerate()
            .map(|(i, &n)| (n, format!("127.0.0.1:{}", obs_ports[2 * i])))
            .collect();
        let metrics_addrs = addrs
            .keys()
            .enumerate()
            .map(|(i, &n)| (n, format!("127.0.0.1:{}", obs_ports[2 * i + 1])))
            .collect();
        let mut h = Harness {
            exe,
            dir: dir.to_path_buf(),
            node_peers,
            addrs,
            export_addrs,
            metrics_addrs,
            children: BTreeMap::new(),
            seed,
            extra_args,
        };
        let nids: Vec<u32> = h.addrs.keys().copied().collect();
        for n in nids {
            h.spawn(n)?;
        }
        Ok(h)
    }

    /// Spawns (or respawns) node `nid` into its standing data dir.
    fn spawn(&mut self, nid: u32) -> std::io::Result<()> {
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
        if let Some(addr) = self.export_addrs.get(&nid) {
            cmd.args(["--export", addr]);
        }
        if let Some(addr) = self.metrics_addrs.get(&nid) {
            cmd.args(["--metrics", addr]);
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
    fn kill(&mut self, nid: u32) {
        if let Some(mut child) = self.children.remove(&nid) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// SIGSTOPs node `nid`: a gray pause — the process is frozen but
    /// its sockets stay open, so peers see silence, not FINs.
    fn pause(&self, nid: u32) -> bool {
        self.signal(nid, "-STOP")
    }

    /// SIGCONTs a paused node.
    fn resume(&self, nid: u32) -> bool {
        self.signal(nid, "-CONT")
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

    fn client(&self, id: u64) -> NetClient {
        NetClient::new(self.addrs.clone(), id, ClientParams::default())
    }

    /// Every configured node id (running or not).
    fn node_ids(&self) -> Vec<u32> {
        self.addrs.keys().copied().collect()
    }

    /// Streaming-export addresses in nid order, for an online
    /// collector: one merger stream per address spans every boot of
    /// that node (the port is reused across respawns).
    fn export_addrs(&self) -> Vec<String> {
        self.export_addrs.values().cloned().collect()
    }

    /// The `/metrics` scrape address of node `nid`.
    fn metrics_addr(&self, nid: u32) -> Option<String> {
        self.metrics_addrs.get(&nid).cloned()
    }

    /// Polls until some node reports itself leader; returns its nid.
    fn wait_for_leader(&self, probe: &mut NetClient) -> Result<u32, String> {
        let deadline = Instant::now() + LEADER_WAIT;
        while Instant::now() < deadline {
            for &nid in self.addrs.keys() {
                if !self.children.contains_key(&nid) {
                    continue;
                }
                if let Ok(ClientReply::Status { role, .. }) = probe.status(nid) {
                    if role == "leader" {
                        return Ok(nid);
                    }
                }
            }
            thread::sleep(Duration::from_millis(100));
        }
        Err("no leader elected within the wait budget".to_string())
    }

    /// The members the current leader believes in, plus its nid.
    fn leader_view(&self, probe: &mut NetClient) -> Result<(u32, Vec<u32>), String> {
        let leader = self.wait_for_leader(probe)?;
        match probe.status(leader) {
            Ok(ClientReply::Status { members, .. }) => Ok((leader, members)),
            other => Err(format!("leader {leader} status failed: {other:?}")),
        }
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
        let nids: Vec<u32> = self.children.keys().copied().collect();
        for nid in nids {
            self.kill(nid);
        }
    }
}

/// Retries a reconfiguration through transient guard refusals (R2 holds
/// until the previous configuration entry commits; R3 until the new
/// leader's barrier commits). Each retry is a fresh session request —
/// sound, because a guard refusal appends nothing.
fn reconfigure_eventually(client: &mut NetClient, members: &[u32]) -> Result<(), String> {
    let deadline = Instant::now() + LEADER_WAIT;
    loop {
        match client.reconfigure(members) {
            Ok(_) => return Ok(()),
            Err(ClientError::Rejected { reason }) if Instant::now() < deadline => {
                let _ = reason;
                thread::sleep(Duration::from_millis(200));
            }
            Err(e) => return Err(format!("reconfigure to {members:?} failed: {e}")),
        }
    }
}

// ---- journal forensics ---------------------------------------------------

/// Per-node `(log, commit_len)` reconstructed from journal events, the
/// same way the auditor does it.
fn rebuild_logs(events: &[TraceEvent]) -> BTreeMap<u32, (Vec<String>, usize)> {
    let mut nodes: BTreeMap<u32, (Vec<String>, usize)> = BTreeMap::new();
    for ev in events {
        match &ev.kind {
            EventKind::StateDelta {
                nid,
                truncate,
                append,
                commit_len,
                ..
            } => {
                let (log, commit) = nodes.entry(*nid).or_default();
                if let Some(t) = truncate {
                    log.truncate(*t as usize);
                }
                log.extend(append.iter().cloned());
                if let Some(c) = commit_len {
                    *commit = *c as usize;
                }
            }
            EventKind::WalRecover {
                nid,
                log,
                commit_len,
                ..
            } => {
                nodes.insert(*nid, (log.clone(), *commit_len as usize));
            }
            _ => {}
        }
    }
    nodes
}

/// Scans every node's committed prefix for a `(client, seq)` session
/// pair applied more than once. Returns offending descriptions.
fn duplicate_applies(nodes: &BTreeMap<u32, (Vec<String>, usize)>) -> Vec<String> {
    let mut bad = Vec::new();
    for (nid, (log, commit)) in nodes {
        let mut seen: BTreeMap<(u64, u64), u32> = BTreeMap::new();
        for raw in log.iter().take(*commit) {
            let Ok(entry) = serde_json::from_str::<NetEntry>(raw) else {
                bad.push(format!("node {nid}: unparseable committed entry"));
                continue;
            };
            if let adore_raft::Command::Method(SessionCmd {
                client,
                seq,
                op: Some(_),
            }) = entry.cmd
            {
                *seen.entry((client, seq)).or_insert(0) += 1;
            }
        }
        for ((client, seq), n) in seen {
            if n > 1 {
                bad.push(format!(
                    "node {nid}: session ({client}, {seq}) applied {n} times"
                ));
            }
        }
    }
    bad
}

// ---- `adored smoke` ------------------------------------------------------

#[allow(clippy::too_many_lines)]
fn cmd_smoke(args: &[String]) -> CmdResult {
    let nodes: u32 = arg_num(args, "--nodes")?.unwrap_or(3);
    let seed = arg_u64(args, "--seed", 42)?;
    let reconfig = arg_flag(args, "--reconfig");
    let dir = arg_value(args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("target/smoke-{}", std::process::id())));
    if nodes < 3 {
        return Err("smoke: need at least 3 nodes".to_string());
    }
    if reconfig && nodes < 5 {
        return Err("smoke: --reconfig needs 5 nodes".to_string());
    }
    Ok(match smoke(&dir, nodes, seed, reconfig) {
        Ok(()) => {
            println!("smoke: PASS");
            0
        }
        Err(e) => {
            eprintln!("smoke: FAIL: {e}");
            1
        }
    })
}

fn smoke(dir: &Path, nodes: u32, seed: u64, reconfig: bool) -> Result<(), String> {
    let mut driver = Tracer::enabled();
    driver.record(
        now_us(),
        EventKind::RunStart {
            name: format!("smoke-{nodes}"),
            members: (1..=nodes).collect(),
        },
    );

    let mut harness = Harness::start(dir, nodes, seed).map_err(|e| e.to_string())?;
    let mut probe = harness.client(999);
    let mut client = harness.client(7);
    let mut acked: Vec<(String, String)> = Vec::new();

    // Phase 1: steady-state writes.
    driver.record(
        now_us(),
        EventKind::PhaseStart {
            index: 0,
            label: "steady-state writes".into(),
        },
    );
    let leader = harness.wait_for_leader(&mut probe)?;
    println!("smoke: leader is node {leader}");
    for i in 0..10 {
        let (k, v) = (format!("k{i}"), format!("v{i}"));
        client.put(&k, &v).map_err(|e| format!("put {k}: {e}"))?;
        acked.push((k, v));
    }

    // Phase 2: kill -9 the leader mid-traffic; writes must survive
    // failover, and the retry that spans the kill must not double-apply.
    driver.record(
        now_us(),
        EventKind::PhaseStart {
            index: 1,
            label: "kill -9 leader".into(),
        },
    );
    println!("smoke: kill -9 node {leader}");
    harness.kill(leader);
    for i in 10..20 {
        let (k, v) = (format!("k{i}"), format!("v{i}"));
        client.put(&k, &v).map_err(|e| format!("put {k} after kill: {e}"))?;
        acked.push((k, v));
    }
    let leader2 = harness.wait_for_leader(&mut probe)?;
    println!("smoke: failover to node {leader2}");

    // Phase 3: restart the killed node into the same data directory —
    // WAL recovery plus log catch-up from the new leader's heartbeats.
    driver.record(
        now_us(),
        EventKind::PhaseStart {
            index: 2,
            label: "restart killed node".into(),
        },
    );
    harness.spawn(leader).map_err(|e| e.to_string())?;

    // Phase 4 (5-node acceptance): a live 5→4→3→4→5 certified
    // reconfiguration, one node per step (R1⁺), with writes interleaved.
    if reconfig {
        driver.record(
            now_us(),
            EventKind::PhaseStart {
                index: 3,
                label: "live 5->3->5 reconfiguration".into(),
            },
        );
        let (lead, mut members) = harness.leader_view(&mut probe)?;
        members.sort_unstable();
        let dropped: Vec<u32> = members
            .iter()
            .rev()
            .copied()
            .filter(|n| *n != lead)
            .take(2)
            .collect();
        let mut current = members.clone();
        for (step, d) in dropped.iter().enumerate() {
            current.retain(|n| n != d);
            reconfigure_eventually(&mut client, &current)?;
            println!("smoke: shrank to {current:?}");
            let (k, v) = (format!("rk{step}"), format!("rv{step}"));
            client.put(&k, &v).map_err(|e| format!("put {k}: {e}"))?;
            acked.push((k, v));
        }
        for (step, d) in dropped.iter().rev().enumerate() {
            current.push(*d);
            current.sort_unstable();
            reconfigure_eventually(&mut client, &current)?;
            println!("smoke: grew to {current:?}");
            let (k, v) = (format!("gk{step}"), format!("gv{step}"));
            client.put(&k, &v).map_err(|e| format!("put {k}: {e}"))?;
            acked.push((k, v));
        }
    }

    // Phase 5: verification — every acked write must read back.
    driver.record(
        now_us(),
        EventKind::PhaseStart {
            index: 4,
            label: "verify".into(),
        },
    );
    let mut lost = Vec::new();
    for (k, v) in &acked {
        match client.get(k) {
            Ok(Some(got)) if got == *v => {}
            Ok(got) => lost.push(format!("{k}: acked {v:?}, read {got:?}")),
            Err(e) => lost.push(format!("{k}: read failed: {e}")),
        }
    }

    // Give the restarted node a moment to flush its catch-up journal
    // lines, then stop the cluster before reading journals.
    thread::sleep(Duration::from_millis(500));
    drop(probe);
    let texts = harness.journal_texts().map_err(|e| e.to_string())?;
    drop(harness);

    let mut node_events =
        merge_journals(texts.iter().map(String::as_str)).map_err(|e| e.to_string())?;
    let dupes = duplicate_applies(&rebuild_logs(&node_events));

    let safe = lost.is_empty() && dupes.is_empty();
    driver.record(
        now_us(),
        EventKind::Verdict {
            safe,
            kind: (!safe).then(|| "AckedWriteLossOrDuplicate".to_string()),
            detail: (!safe).then(|| {
                lost.iter().chain(dupes.iter()).cloned().collect::<Vec<_>>().join("; ")
            }),
            phase: 4,
        },
    );
    driver.record(
        now_us(),
        EventKind::RunEnd {
            committed: acked.len() as u64,
        },
    );

    // Merge the driver's journal in and audit the whole run.
    let driver_text = driver.to_jsonl();
    let mut texts_all: Vec<&str> = texts.iter().map(String::as_str).collect();
    texts_all.push(driver_text.as_str());
    node_events = merge_journals(texts_all).map_err(|e| e.to_string())?;
    let merged_path = dir.join("merged.jsonl");
    fs::write(&merged_path, to_jsonl(&node_events)).map_err(|e| e.to_string())?;
    let report = audit_events(&node_events);
    println!(
        "smoke: audit over {} events / {} nodes: consistent={}",
        report.events, report.nodes, report.consistent
    );

    if !lost.is_empty() {
        return Err(format!("acked-write loss: {}", lost.join("; ")));
    }
    if !dupes.is_empty() {
        return Err(format!("duplicate applies: {}", dupes.join("; ")));
    }
    if !report.consistent {
        return Err(format!(
            "audit rejected the run: errors={:?} divergence={:?}",
            report.errors, report.divergence
        ));
    }
    println!("smoke: merged journal at {}", merged_path.display());
    Ok(())
}

// ---- `adored bench` ------------------------------------------------------

fn cmd_bench(args: &[String]) -> CmdResult {
    if !arg_flag(args, "--open-loop") {
        return Err("bench: only --open-loop is left (closed loop: benchmark/run.sh)".to_string());
    }
    let seed = arg_u64(args, "--seed", 42)?;
    let dir = arg_value(args, "--dir")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!("target/bench-{}", std::process::id())));
    let out = arg_value(args, "--out")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results/BENCH_live.json"));
    let rates: Vec<u64> = match arg_value(args, "--open-loop").filter(|v| !v.starts_with("--")) {
        None => vec![60, 120, 240],
        Some(spec) => spec
            .split(',')
            .map(|r| r.trim().parse())
            .collect::<Result<_, _>>()
            .map_err(|_| format!("--open-loop expects comma-separated rates, got {spec:?}"))?,
    };
    let secs = arg_u64(args, "--secs-per-rate", 3)?.max(1);
    Ok(match bench_open_loop(&dir, &rates, secs, seed, &out) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("bench --open-loop: FAIL: {e}");
            1
        }
    })
}

/// Summary latency quantiles of a bench run, in microseconds.
#[derive(serde::Serialize)]
struct BenchLatency {
    mean: u64,
    min: u64,
    p50: u64,
    p95: u64,
    p99: u64,
    max: u64,
}

impl BenchLatency {
    /// Exact order statistics of the raw samples, which must be sorted:
    /// every percentile is the nearest-rank sample, so it is a latency
    /// some request had and never exceeds `max`. All zero when empty.
    fn from_sorted(sorted: &[u64]) -> BenchLatency {
        let n = sorted.len();
        let at = |idx: usize| sorted.get(idx).copied().unwrap_or(0);
        let rank = |pct: usize| at((pct * n).div_ceil(100).saturating_sub(1));
        BenchLatency {
            mean: sorted.iter().sum::<u64>().checked_div(n as u64).unwrap_or(0),
            min: at(0),
            p50: rank(50),
            p95: rank(95),
            p99: rank(99),
            max: at(n.saturating_sub(1)),
        }
    }
}

/// Worker threads sharing one offered-rate schedule. Eight keeps the
/// per-worker issue rate low enough that one slow ack rarely delays
/// the next intended start (and when it does, the latency is charged
/// from the *intended* start anyway).
const OPEN_LOOP_WORKERS: u64 = 8;

/// The serialized shape of `results/BENCH_live.json`.
#[derive(serde::Serialize)]
struct LiveBenchReport {
    name: &'static str,
    nodes: u32,
    mode: &'static str,
    seed: u64,
    secs_per_rate: u64,
    rates: Vec<RatePoint>,
    online: OnlineVerdict,
    /// The batch auditor's verdict over the same run's journal files,
    /// for the online ≡ batch cross-check. `None` if the files could
    /// not be merged.
    batch_consistent: Option<bool>,
}

/// One offered rate's measurements.
#[derive(serde::Serialize)]
struct RatePoint {
    offered_per_s: u64,
    achieved_per_s: u64,
    issued: u64,
    acked: u64,
    errors: u64,
    elapsed_us: u64,
    /// Series count from one live `/metrics` scrape of the leader
    /// during this rate, when the scrape succeeded.
    scraped_series: Option<u64>,
    latency_us: BenchLatency,
    histogram: adore_obs::HistogramSnapshot,
}

/// The online collector's close-out, serialized.
#[derive(serde::Serialize)]
struct OnlineVerdict {
    /// The headline: the live T1–T7 audit certified the run.
    certified: bool,
    events: usize,
    nodes: usize,
    acked: usize,
    /// Exporter-shed events, all accounted by `TraceDropped` markers.
    /// Zero means the online auditor saw every journaled event.
    trace_dropped: u64,
    flagged_at: Option<u64>,
    errors: Vec<String>,
}

/// One `/metrics` scrape: returns the exposition's sample-line count.
fn scrape_series(addr: &str) -> Option<u64> {
    use std::io::{Read as _, Write as _};
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    stream.set_read_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.set_write_timeout(Some(Duration::from_secs(2))).ok()?;
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").ok()?;
    let mut text = String::new();
    stream.read_to_string(&mut text).ok()?;
    let body = text.split_once("\r\n\r\n")?.1;
    Some(
        body.lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
            .count() as u64,
    )
}

/// What one open-loop worker measured: the `(latency_us, seq, dup)` of
/// every acked write, and its error count.
type WorkerTake = (Vec<(u64, u64, bool)>, u64);

/// Issues `total` writes on a fixed schedule shared across workers
/// (worker `w` owns indices `w, w+W, w+2W, ...`). Latency is charged
/// from each write's *intended* start, never its actual dispatch, so a
/// stall delays the schedule without hiding its cost (no coordinated
/// omission).
fn open_loop_worker(
    mut client: NetClient,
    start: Instant,
    rate: u64,
    total: u64,
    w: u64,
    label: usize,
) -> WorkerTake {
    let mut acks = Vec::new();
    let mut errors = 0u64;
    let mut i = w;
    while i < total {
        let intended = start + Duration::from_micros(i.saturating_mul(1_000_000) / rate.max(1));
        let now = Instant::now();
        if intended > now {
            thread::sleep(intended - now);
        }
        let key = format!("ol{label}-{w}-{i}");
        match client.put(&key, "x") {
            Ok(acked) => acks.push((dur_us(intended.elapsed()), acked.seq, acked.duplicate)),
            Err(_) => errors += 1,
        }
        i += OPEN_LOOP_WORKERS;
    }
    (acks, errors)
}

/// The open-loop campaign: a 3-node cluster with the online auditor
/// attached, driven at each offered rate in turn. Fails unless the
/// online audit certifies the run.
#[allow(clippy::too_many_lines)]
fn bench_open_loop(
    dir: &Path,
    rates: &[u64],
    secs: u64,
    seed: u64,
    out: &Path,
) -> Result<(), String> {
    let harness = Harness::start(dir, 3, seed).map_err(|e| e.to_string())?;
    let mut probe = harness.client(999);
    let leader = harness.wait_for_leader(&mut probe)?;
    println!("bench: leader is node {leader}; open-loop at {rates:?}/s, {secs}s per rate");

    // The live plane: one stream per node's export channel, plus the
    // driver's own stream (RunStart/SessionAck/Verdict/RunEnd), all
    // merged and audited as they arrive.
    let (collector, mut locals) = OnlineCollector::attach(&harness.export_addrs(), &[90]);
    let mut driver = locals.pop().ok_or("collector returned no driver stream")?;
    // `pushed` mirrors every driver event for the batch cross-check.
    let mut pushed: Vec<TraceEvent> = Vec::new();
    let record = |q: &mut adored::export::ExportQueue, pushed: &mut Vec<TraceEvent>, kind: EventKind| {
        let ev = TraceEvent::root(now_us(), kind);
        q.push(&ev);
        pushed.push(ev);
    };
    record(
        &mut driver,
        &mut pushed,
        EventKind::RunStart {
            name: "bench-open-loop".to_string(),
            members: harness.node_ids(),
        },
    );

    let mut points = Vec::new();
    let mut total_acked: u64 = 0;
    for (ri, &rate) in rates.iter().enumerate() {
        record(
            &mut driver,
            &mut pushed,
            EventKind::PhaseStart {
                index: u32::try_from(ri).unwrap_or(u32::MAX),
                label: format!("open-loop {rate}/s"),
            },
        );
        let total = rate.saturating_mul(secs);
        let start = Instant::now();
        let mut workers = Vec::new();
        for w in 0..OPEN_LOOP_WORKERS {
            let client = harness.client(100 + (ri as u64) * OPEN_LOOP_WORKERS + w);
            workers.push(thread::spawn(move || {
                open_loop_worker(client, start, rate, total, w, ri)
            }));
        }
        let mut hist = Histogram::default();
        let mut latencies = Vec::new();
        let mut errors = 0u64;
        for (w, handle) in workers.into_iter().enumerate() {
            let (acks, errs) = handle
                .join()
                .map_err(|_| format!("open-loop worker {w} panicked"))?;
            errors += errs;
            let client_id = 100 + (ri as u64) * OPEN_LOOP_WORKERS + w as u64;
            for (latency_us, seq, dup) in acks {
                hist.observe(latency_us);
                latencies.push(latency_us);
                record(
                    &mut driver,
                    &mut pushed,
                    EventKind::SessionAck {
                        client: client_id,
                        seq,
                        dup,
                    },
                );
            }
        }
        let elapsed_us = dur_us(start.elapsed());
        let acked = latencies.len() as u64;
        latencies.sort_unstable();
        let latency_us = BenchLatency::from_sorted(&latencies);
        let achieved_per_s = acked
            .saturating_mul(1_000_000)
            .checked_div(elapsed_us)
            .unwrap_or(0);
        let scraped_series = harness
            .metrics_addr(leader)
            .as_deref()
            .and_then(scrape_series);
        total_acked += acked;
        println!(
            "bench: offered {rate}/s -> achieved {achieved_per_s}/s \
             (p50={}us p95={}us p99={}us, {errors} errors)",
            latency_us.p50, latency_us.p95, latency_us.p99
        );
        points.push(RatePoint {
            offered_per_s: rate,
            achieved_per_s,
            issued: total,
            acked,
            errors,
            elapsed_us,
            scraped_series,
            latency_us,
            histogram: hist.snapshot(),
        });
    }

    // Let the nodes stream their final commits, then close the run out.
    thread::sleep(Duration::from_millis(700));
    record(
        &mut driver,
        &mut pushed,
        EventKind::Verdict {
            safe: true,
            kind: None,
            detail: None,
            phase: u32::try_from(rates.len()).unwrap_or(u32::MAX),
        },
    );
    record(
        &mut driver,
        &mut pushed,
        EventKind::RunEnd {
            committed: total_acked,
        },
    );
    drop(driver);
    let creport = collector.stop();

    // Batch cross-check: the same run, audited from the journal files
    // plus the driver's mirrored events.
    let texts = harness.journal_texts().map_err(|e| e.to_string())?;
    drop(probe);
    drop(harness);
    let driver_text = to_jsonl(&pushed);
    let mut all_texts: Vec<&str> = texts.iter().map(String::as_str).collect();
    all_texts.push(driver_text.as_str());
    let batch_consistent = merge_journals(all_texts)
        .ok()
        .map(|events| audit_events(&events).consistent);

    let online = OnlineVerdict {
        certified: creport.report.consistent,
        events: creport.report.events,
        nodes: creport.report.nodes,
        acked: creport.report.acked,
        trace_dropped: creport.dropped,
        flagged_at: creport.flagged_at,
        errors: creport.report.errors.clone(),
    };
    let verdict = if online.certified { "CERTIFIED" } else { "REJECTED" };
    println!(
        "bench: online audit {verdict} over {} events / {} nodes ({} acked obligations, {} trace-dropped)",
        online.events, online.nodes, online.acked, online.trace_dropped
    );
    let report = LiveBenchReport {
        name: "BENCH_live",
        nodes: 3,
        mode: "open-loop",
        seed,
        secs_per_rate: secs,
        rates: points,
        online,
        batch_consistent,
    };
    adore_obs::write_json_report(out, &report).map_err(|e| e.to_string())?;
    println!("bench: report -> {}", out.display());

    if !creport.report.consistent {
        return Err(format!(
            "online audit rejected the run: errors={:?} divergence={:?}",
            creport.report.errors, creport.report.divergence
        ));
    }
    // With zero shed events the online auditor saw the complete trace,
    // so the batch verdict over the files must agree (online ≡ batch).
    if creport.dropped == 0 && batch_consistent == Some(false) {
        return Err("batch audit disagrees with the certified online verdict".to_string());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(ToString::to_string).collect()
    }

    #[test]
    fn a_numeric_flag_is_the_default_a_number_or_a_usage_error() {
        assert_eq!(arg_u64(&args(&["--dir", "d"]), "--seed", 42), Ok(42));
        assert_eq!(arg_u64(&args(&["--seed", "12"]), "--seed", 42), Ok(12));
        let err = arg_u64(&args(&["--seed", "4x"]), "--seed", 42).unwrap_err();
        assert!(err.contains("--seed") && err.contains("4x"), "{err}");
        // A flag with its value missing is no more valid than a typo.
        assert!(arg_u64(&args(&["--seed"]), "--seed", 42).is_err());
        assert!(arg_num::<u32>(&args(&["--nodes", "three"]), "--nodes").is_err());
    }

    #[test]
    fn bench_latency_is_exact_nearest_rank_order_statistics() {
        let upto100: Vec<u64> = (1..=100).collect();
        let l = BenchLatency::from_sorted(&upto100);
        assert_eq!((l.min, l.p50, l.p95, l.p99, l.max, l.mean), (1, 50, 95, 99, 100, 50));
        // The shape the doubling buckets misreported (p95 = p99 = 1600 over
        // a max of 1493): every percentile is a sample, none above max.
        let skewed = [310, 480, 520, 700, 1493];
        let l = BenchLatency::from_sorted(&skewed);
        assert!(l.min <= l.p50 && l.p50 <= l.p95 && l.p95 <= l.p99 && l.p99 <= l.max);
        assert_eq!((l.p50, l.p95, l.p99, l.max), (520, 1493, 1493, 1493));
        assert_eq!(BenchLatency::from_sorted(&[]).max, 0);
    }

    #[test]
    fn closed_loop_bench_and_bad_rates_are_usage_errors() {
        assert!(cmd_bench(&args(&["--seed", "1"])).is_err());
        assert!(cmd_bench(&args(&["--open-loop", "40,8x"])).is_err());
    }
}
