//! Wire message types: what `adored` nodes and clients say to each
//! other, as JSON payloads inside [`crate::det::wire`] frames.
//!
//! The peer protocol is the certified model's [`Request`] (full-log
//! `Elect`/`Commit` broadcasts, taken out of the engine's `NetState`
//! as they are) **plus explicit acknowledgement messages**. In the
//! model an ack is the synchronous return half of a delivery: the
//! sender is a server of the same state and is credited in the same
//! step. Between processes the return path is its own packet, so
//! [`PeerMsg`] carries the outcome of the recipient's
//! `NetState::receive` back to the sender: a granted vote
//! ([`PeerMsg::ElectAck`], credited there with `credit_vote`), an
//! adoption ack ([`PeerMsg::CommitAck`], credited with `credit_ack`),
//! and a higher-term rejection ([`PeerMsg::Nack`] — the model's
//! recipient-side `StaleTime` rejection made visible to the sender,
//! which is how a deposed or partitioned leader learns to step down).
//! Every other rejection stays on the recipient, as in the model.

use serde::{Deserialize, Serialize};

use adore_kv::KvCommand;
use adore_raft::{Entry, Request};
use adore_schemes::SingleNode;

/// The configuration scheme the networked runtime replicates over.
pub type Cfg = SingleNode;

/// One replicated command with its exactly-once session envelope.
///
/// `op: None` is the leader's no-op barrier entry, appended on election
/// win so the log always ends with an entry of the leader's own term
/// (Raft's current-term commit rule) without waiting for client
/// traffic. Client ops always carry `Some` and a real `(client, seq)`
/// pair; the pair rides in the replicated entry itself, so any later
/// leader can rebuild the dedup table from its log alone.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct SessionCmd {
    /// The issuing client's id (0 for protocol-internal no-ops).
    pub client: u64,
    /// The client's per-session request sequence number.
    pub seq: u64,
    /// The command, or `None` for the election no-op barrier.
    pub op: Option<KvCommand>,
}

impl SessionCmd {
    /// The leader's no-op barrier entry payload.
    #[must_use]
    pub fn noop() -> Self {
        SessionCmd {
            client: 0,
            seq: 0,
            op: None,
        }
    }
}

/// A log entry of the networked runtime.
pub type NetEntry = Entry<Cfg, SessionCmd>;

/// A protocol request of the networked runtime (the model's
/// full-log-shipping `Elect`/`Commit`).
pub type NetRequest = Request<Cfg, SessionCmd>;

/// First frame on any connection: who is on the other end.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Hello {
    /// A cluster peer's outbound replication link.
    Peer {
        /// The connecting node's id.
        from: u32,
    },
    /// A client session.
    Client {
        /// The client's self-chosen id.
        client: u64,
    },
}

/// A message between cluster nodes.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PeerMsg {
    /// A broadcast protocol request (election or commit, full log).
    Req(NetRequest),
    /// A vote: the sender adopted the candidate's term `time` and found
    /// its log up to date.
    ElectAck {
        /// The voter.
        from: u32,
        /// The candidate term being voted for.
        time: u64,
    },
    /// A replication ack: the sender adopted the leader's log of length
    /// `len` at term `time` (and synced its WAL first).
    CommitAck {
        /// The acking follower.
        from: u32,
        /// The leader term being acked.
        time: u64,
        /// The adopted log length.
        len: u64,
    },
    /// A higher-term rejection: the sender's term `time` exceeds the
    /// request's. A leader or candidate receiving this adopts the term
    /// and steps down — the real-wire form of the model's `StaleTime`
    /// rejection, and the mechanism that retires zombie leaders after a
    /// partition heals.
    Nack {
        /// The rejecting node.
        from: u32,
        /// The rejecting node's (higher) term.
        time: u64,
    },
}

/// A request from a client to a node.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientMsg {
    /// Write `key = value`, exactly once per `(client, seq)`.
    Put {
        /// The issuing client.
        client: u64,
        /// The client's request sequence number.
        seq: u64,
        /// The key.
        key: String,
        /// The value.
        value: String,
    },
    /// Read a key from the committed store (leader only).
    Get {
        /// The key.
        key: String,
    },
    /// Propose a membership change (guarded by R1⁺/R2/R3).
    Reconfigure {
        /// The issuing client.
        client: u64,
        /// The client's request sequence number.
        seq: u64,
        /// The proposed member set.
        members: Vec<u32>,
    },
    /// Ask the node about itself (role, term, commit watermark).
    Status,
}

/// A node's reply to a client request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ClientReply {
    /// The write (or reconfiguration) committed. `duplicate` marks a
    /// retry that was deduplicated: acknowledged again, applied once.
    Acked {
        /// The request sequence this acknowledges.
        seq: u64,
        /// Whether this ack deduplicated a retry.
        duplicate: bool,
    },
    /// This node is not the leader; try the hinted one.
    Redirect {
        /// The sender's best guess at the current leader.
        leader: Option<u32>,
    },
    /// The node shed the request under load (bounded inflight queue
    /// full). The client should back off and retry.
    Overloaded,
    /// The request's sequence number fell out of the dedup window (or
    /// regressed below it): the node cannot decide whether it was
    /// already applied, so it refuses rather than risk a double apply.
    SessionStale {
        /// The session's current floor: seqs at or below it are
        /// undecidable.
        floor: u64,
    },
    /// The protocol rejected the request (e.g. a reconfiguration guard).
    Rejected {
        /// Why.
        reason: String,
    },
    /// A read result.
    Value {
        /// The key read.
        key: String,
        /// The committed value, if present.
        value: Option<String>,
    },
    /// A status report.
    Status {
        /// The replying node.
        nid: u32,
        /// Its role ("leader", "candidate", "follower").
        role: String,
        /// Its current term.
        term: u64,
        /// Its log length.
        log_len: u64,
        /// Its commit watermark.
        commit_len: u64,
        /// Its best guess at the current leader.
        leader: Option<u32>,
        /// Its effective configuration's members.
        members: Vec<u32>,
    },
}

/// Encodes any serializable message as a wire frame.
///
/// # Errors
///
/// [`crate::det::wire::WireError::Oversized`] if the encoded payload
/// exceeds the frame cap.
pub fn encode_msg<T: Serialize>(msg: &T) -> Result<Vec<u8>, crate::det::wire::WireError> {
    let payload = serde_json::to_string(msg).map_err(|e| {
        crate::det::wire::WireError::BadPayload { msg: e.to_string() }
    })?;
    crate::det::wire::encode_frame(payload.as_bytes())
}

/// Decodes a frame payload into a message.
///
/// # Errors
///
/// [`crate::det::wire::WireError::BadPayload`] when the payload is not
/// valid JSON for `T`.
pub fn decode_msg<T: serde::de::DeserializeOwned>(
    payload: &[u8],
) -> Result<T, crate::det::wire::WireError> {
    let s = std::str::from_utf8(payload).map_err(|e| {
        crate::det::wire::WireError::BadPayload { msg: e.to_string() }
    })?;
    serde_json::from_str(s).map_err(|e| crate::det::wire::WireError::BadPayload {
        msg: e.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::det::wire::split_frame;

    #[test]
    fn peer_messages_round_trip_through_frames() {
        let msg = PeerMsg::CommitAck {
            from: 2,
            time: 7,
            len: 42,
        };
        let framed = encode_msg(&msg).unwrap();
        let (payload, _) = split_frame(&framed).unwrap().unwrap();
        assert_eq!(decode_msg::<PeerMsg>(payload).unwrap(), msg);
    }

    #[test]
    fn client_messages_round_trip_through_frames() {
        let msg = ClientMsg::Put {
            client: 9,
            seq: 3,
            key: "k".into(),
            value: "v".into(),
        };
        let framed = encode_msg(&msg).unwrap();
        let (payload, _) = split_frame(&framed).unwrap().unwrap();
        assert_eq!(decode_msg::<ClientMsg>(payload).unwrap(), msg);
    }

    #[test]
    fn wrong_type_decodes_to_a_typed_error() {
        let framed = encode_msg(&ClientMsg::Status).unwrap();
        let (payload, _) = split_frame(&framed).unwrap().unwrap();
        assert!(decode_msg::<PeerMsg>(payload).is_err());
    }
}
