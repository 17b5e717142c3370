//! The *trio*: the cluster's replicas wired together in this process,
//! with a span around every public call a write passes through.
//!
//! The live run times a write only from the client's side. Here the same
//! `det::engine::Engine`s the nodes run are built over the same WAL type,
//! preloaded to the log length the live run has half way through its
//! window, and one write at a time is carried by hand through codec,
//! engine steps and persist writes — in sequence, on one thread, so each
//! layer's own time is visible without sockets, thread hops or
//! scheduling. What the live write costs beyond the trio's blocking path
//! (the leader's work plus one follower's) is those.

use std::collections::{BTreeMap, VecDeque};
use std::fs;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

use adore_core::{NodeId, ReconfigGuard};
use adore_obs::EventKind;
use adore_raft::{Request, Role};
use adore_schemes::SingleNode;
use adore_storage::{DurabilityPolicy, Recovery, Wal, WalRecord};
use adored::det::engine::{Engine, EngineConfig, EngineParams, Input, Output};
use adored::det::msg::{
    decode_msg, encode_msg, Cfg, ClientMsg, ClientReply, NetEntry, PeerMsg, SessionCmd,
};
use adored::det::wire::split_frame;
use serde::de::DeserializeOwned;
use serde::Serialize;

use crate::inputs::{preload_log, preload_pairs, preloaded_wal, stream_rng, token};
use crate::span::{self_time_by_name, Recorder, Span};

/// Session id of the trio's writer.
const TRIO_CLIENT: u64 = 7;
/// Heartbeat broadcasts timed after the writes.
const HEARTBEATS: usize = 20;

/// What the trio measured.
#[derive(Debug)]
pub struct TrioReport {
    /// Per-layer metric name → value.
    pub metrics: BTreeMap<&'static str, f64>,
    /// Every span recorded.
    pub spans: Vec<Span>,
}

/// The node runtime's two file writes, done as `node.rs` does them: the
/// WAL bytes with `write_all` + `flush`, a journal event as one JSON line
/// flushed per line.
struct Disk {
    wal: fs::File,
    journal: fs::File,
}

impl Disk {
    fn create(dir: &Path) -> Result<Disk, String> {
        let open = |name: &str| {
            fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(dir.join(name))
                .map_err(|e| format!("{}/{name}: {e}", dir.display()))
        };
        Ok(Disk {
            wal: open("trio-wal.bin")?,
            journal: open("trio-journal.jsonl")?,
        })
    }

    fn persist(&mut self, bytes: &[u8]) {
        self.wal.write_all(bytes).expect("scratch WAL write");
        self.wal.flush().expect("scratch WAL flush");
    }

    fn journal(&mut self, kind: &EventKind) {
        let line = serde_json::to_string(kind).expect("events serialize");
        writeln!(self.journal, "{line}").expect("scratch journal write");
        self.journal.flush().expect("scratch journal flush");
    }
}

/// Frames `msg` and decodes it again: one trip over the wire codec.
fn through_codec<T: Serialize + DeserializeOwned>(msg: &T) -> T {
    let frame = encode_msg(msg).expect("message fits a frame");
    decode_frame(&frame)
}

fn decode_frame<T: DeserializeOwned>(frame: &[u8]) -> T {
    let (payload, _) = split_frame(frame)
        .expect("own frame is valid")
        .expect("own frame is complete");
    decode_msg(payload).expect("own payload decodes")
}

struct Trio {
    engines: BTreeMap<u32, Engine>,
    disk: Disk,
    rec: Recorder,
    sends: u64,
    persist_bytes: u64,
    frame_bytes: Vec<f64>,
}

impl Trio {
    /// Carries out `outs` of engine `from` the way the runtime would,
    /// with a span per file write, and returns what must travel on:
    /// peer messages and client replies.
    fn effects(&mut self, outs: Vec<Output>) -> (Vec<(u32, PeerMsg)>, Vec<ClientReply>) {
        let mut sends = Vec::new();
        let mut replies = Vec::new();
        for out in outs {
            match out {
                Output::Persist { bytes } => {
                    self.persist_bytes += bytes.len() as u64;
                    let disk = &mut self.disk;
                    self.rec.time("node.persist_write", || disk.persist(&bytes));
                }
                Output::Journal(kind) => {
                    let disk = &mut self.disk;
                    self.rec.time("node.journal_write", || disk.journal(&kind));
                }
                Output::Send { to, msg } => {
                    self.sends += 1;
                    sends.push((to.0, msg));
                }
                Output::Reply { reply, .. } => replies.push(reply),
            }
        }
        (sends, replies)
    }

    fn step(&mut self, nid: u32, name: &'static str, input: Input) -> Vec<Output> {
        let engine = self.engines.get_mut(&nid).expect("known engine");
        self.rec.time(name, || engine.step(input))
    }

    /// Delivers peer messages until none are in flight, with a span per
    /// codec trip and engine step. All a follower does for one commit
    /// broadcast — frame codec, step, file writes, the ack's codec trip —
    /// sits under one `peer` span, because followers work in parallel on
    /// a real cluster and only one such chain is on a write's blocking
    /// path. Returns the client replies produced.
    fn deliver(&mut self, first: Vec<(u32, PeerMsg)>) -> Vec<ClientReply> {
        // (recipient, message, whether it already went through the codec)
        let mut queue: VecDeque<(u32, PeerMsg, bool)> = first
            .into_iter()
            .map(|(to, msg)| (to, msg, false))
            .collect();
        let mut replies = Vec::new();
        while let Some((to, msg, decoded)) = queue.pop_front() {
            if matches!(msg, PeerMsg::Req(Request::Commit { .. })) {
                let peer = self.rec.open("peer");
                let frame = self.rec.time("msg.commit_encode", || {
                    encode_msg(&msg).expect("fits a frame")
                });
                self.frame_bytes.push(frame.len() as f64);
                let msg = self
                    .rec
                    .time("msg.commit_decode", || decode_frame::<PeerMsg>(&frame));
                let outs = self.step(to, "engine.follower_commit_step", Input::Peer(msg));
                let (sends, _) = self.effects(outs);
                for (back, ack) in sends {
                    let ack = self.rec.time("msg.ack_codec", || through_codec(&ack));
                    queue.push_back((back, ack, true));
                }
                self.rec.close(peer);
                continue;
            }
            let name = match msg {
                PeerMsg::CommitAck { .. } => "engine.leader_ack_step",
                _ => "engine.election_step",
            };
            let msg = if decoded { msg } else { through_codec(&msg) };
            let outs = self.step(to, name, Input::Peer(msg));
            let (sends, more) = self.effects(outs);
            queue.extend(sends.into_iter().map(|(to, msg)| (to, msg, false)));
            replies.extend(more);
        }
        replies
    }
}

/// Builds `nodes` engines over a `log_len`-entry committed log, elects
/// engine 1, commits `ops` puts through it and times `HEARTBEATS`
/// heartbeat broadcasts. `scratch` receives the persist writes.
pub fn run(
    nodes: u32,
    log_len: usize,
    seed: u64,
    ops: usize,
    scratch: &Path,
) -> Result<TrioReport, String> {
    let log: Vec<NetEntry> = preload_log(&preload_pairs(seed, log_len));
    let engines = (1..=nodes)
        .map(|nid| {
            let wal = preloaded_wal(nid, &log);
            let state = wal.mirror().clone();
            let cfg = EngineConfig {
                nid: NodeId(nid),
                peers: (1..=nodes).map(NodeId).collect(),
                conf0: SingleNode::new(1..=nodes),
                guard: ReconfigGuard::all(),
                params: EngineParams::default(),
                seed,
            };
            (nid, Engine::new(cfg, wal, state, false))
        })
        .collect();
    let mut trio = Trio {
        engines,
        disk: Disk::create(scratch)?,
        rec: Recorder::new(),
        sends: 0,
        persist_bytes: 0,
        frame_bytes: Vec::new(),
    };

    // Only engine 1 is ever ticked, so only it campaigns.
    let mut ticks = 0;
    while trio.engines[&1].role() != Role::Leader {
        ticks += 1;
        if ticks > 2 * EngineParams::default().election_ticks_max {
            return Err("trio: engine 1 did not win its election".to_string());
        }
        let outs = trio
            .engines
            .get_mut(&1)
            .expect("engine 1")
            .step(Input::Tick);
        let (sends, _) = trio.effects(outs);
        trio.deliver(sends);
    }

    // Election traffic is not part of a write: start the books afresh.
    trio.rec = Recorder::new();
    (trio.sends, trio.persist_bytes) = (0, 0);
    trio.frame_bytes.clear();
    let mut rng = stream_rng(seed, 0x7210);
    for op in 1..=ops as u64 {
        trio.rec.set_op(op);
        let span = trio.rec.open("op");
        let msg = ClientMsg::Put {
            client: TRIO_CLIENT,
            seq: op,
            key: token(&mut rng),
            value: token(&mut rng),
        };
        let msg = trio.rec.time("msg.client_codec", || through_codec(&msg));
        let outs = trio.step(1, "engine.leader_put_step", Input::Client { conn: 1, msg });
        let (sends, mut replies) = trio.effects(outs);
        replies.extend(trio.deliver(sends));
        let acked = replies
            .iter()
            .filter(|r| {
                **r == ClientReply::Acked {
                    seq: op,
                    duplicate: false,
                }
            })
            .count();
        if acked != 1 {
            return Err(format!("trio: put {op} drew replies {replies:?}"));
        }
        trio.rec
            .time("msg.reply_codec", || through_codec(&replies[0]));
        trio.rec.close(span);
    }
    let (op_sends, op_persist) = (trio.sends, trio.persist_bytes);

    // Heartbeats: tick the leader; the ticks that broadcast are timed.
    let mut beats = 0;
    while beats < HEARTBEATS {
        let started = Instant::now();
        let outs = trio
            .engines
            .get_mut(&1)
            .expect("engine 1")
            .step(Input::Tick);
        let ended = Instant::now();
        if outs.is_empty() {
            continue; // a tick between two heartbeats
        }
        beats += 1;
        trio.rec.set_op((ops + beats) as u64);
        trio.rec.add("engine.heartbeat_step", started, ended);
        let (sends, _) = trio.effects(outs);
        trio.deliver(sends);
    }
    // The last heartbeat carried the watermark to every follower: the
    // barrier entry and every put are committed everywhere.
    let commit_lens: Vec<usize> = trio.engines.values().map(Engine::commit_len).collect();
    if commit_lens.iter().any(|len| *len != log_len + 1 + ops) {
        return Err(format!("trio: commit watermarks {commit_lens:?} disagree"));
    }

    // The storage layer on its own, at the same log length.
    let mut wal = preloaded_wal(1, &log);
    let mut append_us = Vec::with_capacity(ops);
    for (i, entry) in preload_log(&preload_pairs(seed ^ 1, ops))
        .into_iter()
        .enumerate()
    {
        let t0 = Instant::now();
        wal.append(&WalRecord::Append { entry });
        wal.append(&WalRecord::CommitLen {
            len: (log_len + i + 1) as u64,
        });
        wal.sync();
        append_us.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    let image = wal.disk().bytes().to_vec();
    let t0 = Instant::now();
    let mut reread: Wal<Cfg, SessionCmd> = Wal::from_bytes(NodeId(1), &image);
    let recovery = reread.recover(&DurabilityPolicy::strict());
    let recover_ms = t0.elapsed().as_secs_f64() * 1000.0;
    match recovery {
        Recovery::Intact(state) if state.log.len() == log_len + ops => {}
        other => {
            return Err(format!(
                "trio: WAL image recovered as {}",
                other.kind_name()
            ))
        }
    }

    let spans = trio.rec.spans().to_vec();
    let by_name = self_time_by_name(&spans);
    let mean_us = |name: &str| {
        by_name
            .get(name)
            .map_or(0.0, |(n, total)| *total as f64 / *n as f64 / 1000.0)
    };
    let total_us = |pick: &dyn Fn(&Span) -> bool| {
        spans
            .iter()
            .filter(|s| pick(s))
            .map(Span::dur_ns)
            .sum::<u64>() as f64
            / 1000.0
    };
    let op_total_us = total_us(&|s| s.name == "op") / ops as f64;
    // Followers work in parallel: the leader's own work plus one
    // follower's chain is the least a write has to wait for.
    let in_op = |s: &Span| s.name == "peer" && s.op <= ops as u64;
    let chains = spans.iter().filter(|s| in_op(s)).count().max(1);
    let critical_path_us =
        op_total_us - total_us(&in_op) / ops as f64 + total_us(&in_op) / chains as f64;
    let mut metrics = BTreeMap::new();
    for (metric, span_name) in [
        ("msg.client_codec_us", "msg.client_codec"),
        ("msg.reply_codec_us", "msg.reply_codec"),
        ("msg.ack_codec_us", "msg.ack_codec"),
        ("msg.commit_encode_us", "msg.commit_encode"),
        ("msg.commit_decode_us", "msg.commit_decode"),
        ("engine.leader_put_step_us", "engine.leader_put_step"),
        (
            "engine.follower_commit_step_us",
            "engine.follower_commit_step",
        ),
        ("engine.leader_ack_step_us", "engine.leader_ack_step"),
        ("engine.heartbeat_step_us", "engine.heartbeat_step"),
        ("node.persist_write_us", "node.persist_write"),
        ("node.journal_write_us", "node.journal_write"),
    ] {
        metrics.insert(metric, mean_us(span_name));
    }
    metrics.insert(
        "wire.commit_frame_bytes",
        crate::stats::mean(&trio.frame_bytes),
    );
    metrics.insert("engine.sends_per_op", op_sends as f64 / ops as f64);
    metrics.insert(
        "engine.persist_bytes_per_op",
        op_persist as f64 / ops as f64,
    );
    metrics.insert("wal.append_sync_us", crate::stats::mean(&append_us));
    metrics.insert("wal.recover_ms", recover_ms);
    metrics.insert("wal.image_bytes", image.len() as f64);
    metrics.insert("trio.op_total_us", op_total_us);
    metrics.insert("trio.critical_path_us", critical_path_us);
    Ok(TrioReport { metrics, spans })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn three_engines_elect_commit_three_puts_and_agree() {
        let dir = std::env::temp_dir().join(format!("adore-perf-trio-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        let report = run(3, 40, 42, 3, &dir).expect("the trio runs");
        fs::remove_dir_all(&dir).unwrap();
        // `run` itself refuses unless all three engines committed the 40
        // preloaded entries, the election barrier and the three puts.
        // One op span per put, each the root of its own tree.
        let ops: Vec<&Span> = report.spans.iter().filter(|s| s.name == "op").collect();
        assert_eq!(ops.len(), 3);
        assert!(ops.iter().all(|s| s.parent.is_none()));
        // A put reaches both followers, and each acks: 2 + 2 sends.
        assert_eq!(report.metrics["engine.sends_per_op"], 4.0);
        assert!(report.metrics["trio.op_total_us"] > 0.0);
        assert!(report.metrics["wire.commit_frame_bytes"] > 0.0);
        for step in ["engine.leader_put_step", "engine.follower_commit_step"] {
            assert!(report.spans.iter().any(|s| s.name == step), "{step}");
        }
    }
}
