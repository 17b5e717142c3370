//! Byte-for-byte pins of what a log entry looks like on the wire, in the
//! WAL and in the journal, for short (inline) and long (heap) keys and
//! values. The bytes were produced by the `String`-keyed `KvCommand`; the
//! compact key and value type must reproduce them exactly, so an old
//! WAL, an old journal and an old peer all still read the new ones.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5
#![deny(clippy::let_underscore_must_use)] // L4/L8: no `let _ =` on a verdict or a recovery result

use adore_core::{NodeId, ReconfigGuard, Timestamp};
use adore_kv::det::engine::{Engine, EngineConfig, EngineParams, Input, Output};
use adore_kv::det::msg::{decode_msg, encode_msg, ClientMsg, NetEntry, PeerMsg, SessionCmd};
use adore_kv::det::wire::split_frame;
use adore_kv::KvCommand;
use adore_obs::EventKind;
use adore_raft::{Command, Entry, Request, Role};
use adore_schemes::SingleNode;
use adore_storage::{DurableState, Wal};

/// 7 and 16 bytes: inline.
const SHORT: (&str, &str) = ("k-short", "0123456789abcdef");
/// 22 bytes: the longest inline string, for both.
const EDGE: (&str, &str) = ("k-twenty-two-bytes-key", "v-twenty-two-bytes-val");
/// 23 and 40 bytes, with a quote and a non-ASCII character: the heap
/// fallback, and the JSON escaping around it.
const LONG: (&str, &str) = (
    "k-twenty-three-bytes-ky",
    "v \"quoted\" \u{e9}t\u{e9} forty bytes long...",
);

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// A one-member engine that has won its election and committed its
/// barrier, so each put below commits in the step that carries it.
fn leader() -> Engine {
    let cfg = EngineConfig {
        nid: NodeId(1),
        peers: [NodeId(1)].into_iter().collect(),
        conf0: SingleNode::new([1]),
        guard: ReconfigGuard::all(),
        params: EngineParams::default(),
        seed: 42,
    };
    let mut engine = Engine::new(cfg, Wal::new(NodeId(1)), DurableState::default(), false);
    while engine.role() != Role::Leader {
        engine.step(Input::Tick);
    }
    engine
}

/// The journal line (`StateDelta`) and the WAL bytes one committed put
/// produces.
fn put(engine: &mut Engine, seq: u64, (key, value): (&str, &str)) -> (String, String) {
    let msg = ClientMsg::Put {
        client: 7,
        seq,
        key: key.to_string(),
        value: value.to_string(),
    };
    let (mut journal, mut wal) = (String::new(), String::new());
    for out in engine.step(Input::Client { conn: 1, msg }) {
        match out {
            Output::Journal(ev @ EventKind::StateDelta { .. }) => {
                journal = serde_json::to_string(&ev).expect("journal events serialize");
            }
            Output::Persist { bytes } => wal = hex(&bytes),
            _ => {}
        }
    }
    (journal, wal)
}

fn entry(seq: u64, (key, value): (&str, &str)) -> NetEntry {
    Entry {
        time: Timestamp(1),
        cmd: Command::Method(SessionCmd {
            client: 7,
            seq,
            op: Some(KvCommand::put(key, value)),
        }),
    }
}

#[test]
fn journal_lines_and_wal_frames_are_byte_for_byte_the_string_keyed_ones() {
    let mut engine = leader();
    let short = put(&mut engine, 1, SHORT);
    let edge = put(&mut engine, 2, EDGE);
    let long = put(&mut engine, 3, LONG);
    assert_eq!(short.0, GOLDEN_JOURNAL_SHORT);
    assert_eq!(short.1, GOLDEN_WAL_SHORT);
    assert_eq!(edge.0, GOLDEN_JOURNAL_EDGE);
    assert_eq!(edge.1, GOLDEN_WAL_EDGE);
    assert_eq!(long.0, GOLDEN_JOURNAL_LONG);
    assert_eq!(long.1, GOLDEN_WAL_LONG);
}

#[test]
fn a_commit_frame_is_byte_for_byte_the_string_keyed_one_and_decodes_back() {
    let msg = PeerMsg::Req(Request::Commit {
        from: NodeId(1),
        time: Timestamp(1),
        prev_len: 1,
        log: vec![
            entry(1, SHORT),
            entry(2, EDGE),
            entry(3, LONG),
            Entry {
                time: Timestamp(1),
                cmd: Command::Method(SessionCmd {
                    client: 7,
                    seq: 4,
                    op: Some(KvCommand::delete(LONG.0)),
                }),
            },
        ],
        commit_len: 3,
    });
    let frame = encode_msg(&msg).expect("a small frame encodes");
    assert_eq!(hex(&frame), GOLDEN_COMMIT_FRAME);
    let (payload, _) = split_frame(&frame).expect("valid").expect("whole");
    assert_eq!(decode_msg::<PeerMsg>(payload).expect("decodes"), msg);
}

const GOLDEN_JOURNAL_SHORT: &str = "{\"StateDelta\":{\"nid\":1,\"term\":null,\"truncate\":null,\"append\":[\"{\\\"time\\\":1,\\\"cmd\\\":{\\\"Method\\\":{\\\"client\\\":7,\\\"seq\\\":1,\\\"op\\\":{\\\"Put\\\":{\\\"key\\\":\\\"k-short\\\",\\\"value\\\":\\\"0123456789abcdef\\\"}}}}}\"],\"commit_len\":2}}";
const GOLDEN_WAL_SHORT: &str = "7f000000f828e7eb7b22417070656e64223a7b22656e747279223a7b2274696d65223a312c22636d64223a7b224d6574686f64223a7b22636c69656e74223a372c22736571223a312c226f70223a7b22507574223a7b226b6579223a226b2d73686f7274222c2276616c7565223a2230313233343536373839616263646566227d7d7d7d7d7d7d170000005c78a41d7b22436f6d6d69744c656e223a7b226c656e223a327d7d";
const GOLDEN_JOURNAL_EDGE: &str = "{\"StateDelta\":{\"nid\":1,\"term\":null,\"truncate\":null,\"append\":[\"{\\\"time\\\":1,\\\"cmd\\\":{\\\"Method\\\":{\\\"client\\\":7,\\\"seq\\\":2,\\\"op\\\":{\\\"Put\\\":{\\\"key\\\":\\\"k-twenty-two-bytes-key\\\",\\\"value\\\":\\\"v-twenty-two-bytes-val\\\"}}}}}\"],\"commit_len\":3}}";
const GOLDEN_WAL_EDGE: &str = "940000008392eb8f7b22417070656e64223a7b22656e747279223a7b2274696d65223a312c22636d64223a7b224d6574686f64223a7b22636c69656e74223a372c22736571223a322c226f70223a7b22507574223a7b226b6579223a226b2d7477656e74792d74776f2d62797465732d6b6579222c2276616c7565223a22762d7477656e74792d74776f2d62797465732d76616c227d7d7d7d7d7d7d170000006b12661c7b22436f6d6d69744c656e223a7b226c656e223a337d7d";
const GOLDEN_JOURNAL_LONG: &str = "{\"StateDelta\":{\"nid\":1,\"term\":null,\"truncate\":null,\"append\":[\"{\\\"time\\\":1,\\\"cmd\\\":{\\\"Method\\\":{\\\"client\\\":7,\\\"seq\\\":3,\\\"op\\\":{\\\"Put\\\":{\\\"key\\\":\\\"k-twenty-three-bytes-ky\\\",\\\"value\\\":\\\"v \\\\\\\"quoted\\\\\\\" été forty bytes long...\\\"}}}}}\"],\"commit_len\":4}}";
const GOLDEN_WAL_LONG: &str = "a5000000bc07cd8d7b22417070656e64223a7b22656e747279223a7b2274696d65223a312c22636d64223a7b224d6574686f64223a7b22636c69656e74223a372c22736571223a332c226f70223a7b22507574223a7b226b6579223a226b2d7477656e74792d74687265652d62797465732d6b79222c2276616c7565223a2276205c2271756f7465645c2220c3a974c3a920666f727479206279746573206c6f6e672e2e2e227d7d7d7d7d7d7d17000000ee0429197b22436f6d6d69744c656e223a7b226c656e223a347d7d";
const GOLDEN_COMMIT_FRAME: &str = "29020000939ff7447b22526571223a7b22436f6d6d6974223a7b2266726f6d223a312c2274696d65223a312c22707265765f6c656e223a312c226c6f67223a5b7b2274696d65223a312c22636d64223a7b224d6574686f64223a7b22636c69656e74223a372c22736571223a312c226f70223a7b22507574223a7b226b6579223a226b2d73686f7274222c2276616c7565223a2230313233343536373839616263646566227d7d7d7d7d2c7b2274696d65223a312c22636d64223a7b224d6574686f64223a7b22636c69656e74223a372c22736571223a322c226f70223a7b22507574223a7b226b6579223a226b2d7477656e74792d74776f2d62797465732d6b6579222c2276616c7565223a22762d7477656e74792d74776f2d62797465732d76616c227d7d7d7d7d2c7b2274696d65223a312c22636d64223a7b224d6574686f64223a7b22636c69656e74223a372c22736571223a332c226f70223a7b22507574223a7b226b6579223a226b2d7477656e74792d74687265652d62797465732d6b79222c2276616c7565223a2276205c2271756f7465645c2220c3a974c3a920666f727479206279746573206c6f6e672e2e2e227d7d7d7d7d2c7b2274696d65223a312c22636d64223a7b224d6574686f64223a7b22636c69656e74223a372c22736571223a342c226f70223a7b2244656c657465223a7b226b6579223a226b2d7477656e74792d74687265652d62797465732d6b79227d7d7d7d7d5d2c22636f6d6d69745f6c656e223a337d7d7d";
