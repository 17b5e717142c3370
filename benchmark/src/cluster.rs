//! A cluster of real `adored` node processes.
//!
//! Each node is this executable re-run with the `node` subcommand, which
//! only fills an [`adored::node::NodeConfig`] and calls
//! [`adored::node::run`]: the processes execute the program's own runtime,
//! and everything measured about them is read from outside.

use std::collections::BTreeMap;
use std::fs;
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use adored::client::{ClientParams, NetClient};
use adored::det::engine::EngineParams;
use adored::det::msg::ClientReply;
use adored::node::{NodeConfig, DEFAULT_PEER_READ_DEADLINE_MS};

/// Milliseconds per engine tick in every benchmark node.
const TICK_MS: u64 = 20;
/// Watchdog of every node: should the benchmark itself be killed, no
/// child outlives it by more than this. Longer than any single run.
const MAX_RUNTIME_MS: u64 = 170_000;
/// How long a cluster may take to elect a leader.
const LEADER_WAIT: Duration = Duration::from_secs(20);

/// `adore-perf node ...`: one replica. Returns the process exit code.
pub fn node_main(args: &[String]) -> i32 {
    let value = |name: &str| crate::value(args, name);
    let parsed = (|| {
        let peers = value("--peers")?
            .split(',')
            .map(|part| {
                let (nid, addr) = part.split_once('=')?;
                Some((nid.parse().ok()?, addr.to_string()))
            })
            .collect::<Option<Vec<(u32, String)>>>()?;
        Some(NodeConfig {
            nid: value("--nid")?.parse().ok()?,
            peers,
            data_dir: PathBuf::from(value("--data")?),
            seed: value("--seed")?.parse().ok()?,
            tick_ms: TICK_MS,
            max_runtime_ms: Some(MAX_RUNTIME_MS),
            params: EngineParams::default(),
            guard: adore_core::ReconfigGuard::all(),
            peer_read_deadline_ms: DEFAULT_PEER_READ_DEADLINE_MS,
            export_addr: None,
            metrics_addr: value("--metrics").map(str::to_string),
        })
    })();
    let Some(cfg) = parsed else {
        eprintln!("adore-perf node: --nid N --peers 1=host:port,.. --data DIR --seed S [--metrics host:port]");
        return 2;
    };
    let nid = cfg.nid;
    match adored::node::run(cfg) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("adore-perf node {nid}: {e}");
            1
        }
    }
}

/// Reserves `n` distinct localhost ports by binding to port 0.
fn pick_ports(n: usize) -> Result<Vec<u16>, String> {
    let mut holds = Vec::new();
    for _ in 0..n {
        holds.push(TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?);
    }
    holds
        .iter()
        .map(|l| l.local_addr().map(|a| a.port()).map_err(|e| e.to_string()))
        .collect()
}

/// What a node says about itself.
#[derive(Debug, Clone)]
pub struct Status {
    /// "leader", "candidate" or "follower".
    pub role: String,
    /// Commit watermark.
    pub commit_len: u64,
}

/// Child-process nodes, killed and reaped on drop (and so on panic).
pub struct Cluster {
    exe: PathBuf,
    dir: PathBuf,
    addrs: BTreeMap<u32, String>,
    metrics_addrs: BTreeMap<u32, String>,
    children: BTreeMap<u32, Child>,
    seed: u64,
}

impl Cluster {
    /// Spawns nodes `1..=nodes` over `dir` (whose `n<i>/wal.bin` images,
    /// if any, the nodes recover from). `with_metrics` gives every node a
    /// `/metrics` endpoint: the traced run only.
    pub fn start(dir: &Path, nodes: u32, seed: u64, with_metrics: bool) -> Result<Cluster, String> {
        let count = nodes as usize;
        let ports = pick_ports(if with_metrics { 2 * count } else { count })?;
        let addr = |i: usize| format!("127.0.0.1:{}", ports[i]);
        let mut cluster = Cluster {
            exe: std::env::current_exe().map_err(|e| e.to_string())?,
            dir: dir.to_path_buf(),
            addrs: (1..=nodes)
                .zip(0..count)
                .map(|(n, i)| (n, addr(i)))
                .collect(),
            metrics_addrs: if with_metrics {
                (1..=nodes)
                    .zip(count..2 * count)
                    .map(|(n, i)| (n, addr(i)))
                    .collect()
            } else {
                BTreeMap::new()
            },
            children: BTreeMap::new(),
            seed,
        };
        for nid in 1..=nodes {
            cluster.spawn(nid)?;
        }
        Ok(cluster)
    }

    /// Spawns (or respawns) node `nid` into its standing data directory.
    pub fn spawn(&mut self, nid: u32) -> Result<(), String> {
        let peers = self
            .addrs
            .iter()
            .map(|(n, a)| format!("{n}={a}"))
            .collect::<Vec<_>>()
            .join(",");
        let mut cmd = Command::new(&self.exe);
        cmd.arg("node")
            .args(["--nid", &nid.to_string()])
            .args(["--peers", &peers])
            .arg("--data")
            .arg(self.data_dir(nid))
            // One base seed for all: the engine mixes the node id in.
            .args(["--seed", &self.seed.to_string()]);
        if let Some(addr) = self.metrics_addrs.get(&nid) {
            cmd.args(["--metrics", addr]);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn node {nid}: {e}"))?;
        self.children.insert(nid, child);
        Ok(())
    }

    /// `kill -9` node `nid` and reap it.
    pub fn kill(&mut self, nid: u32) {
        if let Some(mut child) = self.children.remove(&nid) {
            let _ = child.kill();
            let _ = child.wait();
        }
    }

    /// Fails if any node that should be running has exited.
    pub fn check_alive(&mut self) -> Result<(), String> {
        for (nid, child) in &mut self.children {
            if let Ok(Some(status)) = child.try_wait() {
                return Err(format!("node {nid} exited early ({status})"));
            }
        }
        Ok(())
    }

    /// A client over the whole address book, default [`ClientParams`].
    pub fn client(&self, id: u64) -> NetClient {
        NetClient::new(self.addrs.clone(), id, ClientParams::default())
    }

    /// Node ids with a running process.
    pub fn live(&self) -> Vec<u32> {
        self.children.keys().copied().collect()
    }

    /// Pid of node `nid`, for `/proc`.
    pub fn pid(&self, nid: u32) -> Option<String> {
        self.children.get(&nid).map(|c| c.id().to_string())
    }

    /// The `/metrics` address of node `nid`, in a traced run.
    pub fn metrics_addr(&self, nid: u32) -> Option<&str> {
        self.metrics_addrs.get(&nid).map(String::as_str)
    }

    /// Data directory of node `nid`.
    pub fn data_dir(&self, nid: u32) -> PathBuf {
        self.dir.join(format!("n{nid}"))
    }

    /// Asks node `nid` about itself.
    pub fn status(probe: &mut NetClient, nid: u32) -> Option<Status> {
        match probe.status(nid) {
            Ok(ClientReply::Status {
                role, commit_len, ..
            }) => Some(Status { role, commit_len }),
            _ => None,
        }
    }

    /// Polls until some live node reports itself leader.
    pub fn wait_for_leader(&mut self, probe: &mut NetClient) -> Result<u32, String> {
        let deadline = Instant::now() + LEADER_WAIT;
        while Instant::now() < deadline {
            self.check_alive()?;
            for nid in self.live() {
                if Cluster::status(probe, nid).is_some_and(|s| s.role == "leader") {
                    return Ok(nid);
                }
            }
            thread::sleep(Duration::from_millis(10));
        }
        Err("no leader elected in time".to_string())
    }

    /// Total size of the files in node `nid`'s directory whose names
    /// start with `prefix` (`wal.bin`, `journal-`).
    pub fn file_bytes(&self, nid: u32, prefix: &str) -> u64 {
        let Ok(entries) = fs::read_dir(self.data_dir(nid)) else {
            return 0;
        };
        entries
            .filter_map(Result::ok)
            .filter(|e| e.file_name().to_string_lossy().starts_with(prefix))
            .filter_map(|e| e.metadata().ok())
            .map(|m| m.len())
            .sum()
    }

    /// Every journal the cluster wrote, one string per file, in node and
    /// boot order.
    pub fn journal_texts(&self) -> Result<Vec<String>, String> {
        let mut texts = Vec::new();
        for nid in self.addrs.keys() {
            let dir = self.data_dir(*nid);
            let mut files: Vec<PathBuf> = fs::read_dir(&dir)
                .map_err(|e| format!("{}: {e}", dir.display()))?
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
                texts.push(fs::read_to_string(&f).map_err(|e| format!("{}: {e}", f.display()))?);
            }
        }
        Ok(texts)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        for nid in self.live() {
            self.kill(nid);
        }
    }
}
