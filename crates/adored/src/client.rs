//! The retrying cluster client with exactly-once write semantics.
//!
//! A write allocates its `(client, seq)` pair **once** and reuses it on
//! every retry — across redirects, timeouts, and leader changes — so an
//! ambiguous outcome (the classic "acked but the reply was lost" case)
//! resolves to [`ClientReply::Acked`]` { duplicate: true }` instead of
//! a second application. This is the real-wire twin of the simulated
//! `nemesis` client's sessioned retry path.

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L8: no `let _ =` on a result in a recovery scope

use std::collections::BTreeMap;
use std::io::{self};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::det::msg::{decode_msg, ClientMsg, ClientReply, Hello};
use crate::node::{read_frame, write_frame};

/// Client-side retry tunables.
#[derive(Debug, Clone)]
pub struct ClientParams {
    /// Total attempts per operation before giving up.
    pub max_attempts: u32,
    /// Base backoff between attempts (milliseconds).
    pub backoff_base_ms: u64,
    /// Backoff cap (milliseconds).
    pub backoff_cap_ms: u64,
    /// Per-request socket timeout.
    pub request_timeout: Duration,
    /// Leader-`Redirect` hops followed per operation before the client
    /// stops trusting hints and falls back to round-robin probing.
    /// During an election two nodes can hold stale hints pointing at
    /// each other; without a cap that cycle spins the client through
    /// its whole attempt budget without ever probing the real leader.
    pub max_redirect_hops: u32,
}

impl Default for ClientParams {
    fn default() -> Self {
        ClientParams {
            max_attempts: 12,
            backoff_base_ms: 40,
            backoff_cap_ms: 1_500,
            request_timeout: Duration::from_secs(3),
            max_redirect_hops: 3,
        }
    }
}

/// Why an operation definitively failed.
#[derive(Debug)]
pub enum ClientError {
    /// All attempts exhausted without a definitive reply.
    Exhausted {
        /// Last transport error observed, if any.
        last: Option<io::Error>,
    },
    /// The cluster refused the request (e.g. a reconfiguration guard).
    Rejected {
        /// The node's reason.
        reason: String,
    },
    /// The session window no longer covers this sequence number.
    SessionStale {
        /// The server-side floor.
        floor: u64,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Exhausted { last: Some(e) } => {
                write!(f, "attempts exhausted (last transport error: {e})")
            }
            ClientError::Exhausted { last: None } => f.write_str("attempts exhausted"),
            ClientError::Rejected { reason } => write!(f, "rejected: {reason}"),
            ClientError::SessionStale { floor } => {
                write!(f, "session stale (floor {floor})")
            }
        }
    }
}

impl std::error::Error for ClientError {}

/// The outcome of a successful write.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Acked {
    /// The sequence number acknowledged.
    pub seq: u64,
    /// Whether the cluster deduplicated a retry (the write was already
    /// applied; this ack is the at-most-once guarantee showing itself).
    pub duplicate: bool,
    /// How many attempts the operation took.
    pub attempts: u32,
}

/// A cluster client: tracks the leader hint, retries with capped
/// backoff, and never re-allocates a sequence number mid-operation.
pub struct NetClient {
    addrs: BTreeMap<u32, String>,
    client_id: u64,
    next_seq: u64,
    leader: Option<u32>,
    conns: BTreeMap<u32, TcpStream>,
    params: ClientParams,
    rng: StdRng,
}

impl NetClient {
    /// Creates a client over the cluster's address book.
    #[must_use]
    pub fn new(addrs: BTreeMap<u32, String>, client_id: u64, params: ClientParams) -> Self {
        NetClient {
            addrs,
            client_id,
            next_seq: 1,
            leader: None,
            conns: BTreeMap::new(),
            params,
            rng: StdRng::seed_from_u64(client_id ^ 0x5e55_10f5),
        }
    }

    /// The client's id (embedded in every sessioned write).
    #[must_use]
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    fn conn(&mut self, nid: u32) -> io::Result<&mut TcpStream> {
        if !self.conns.contains_key(&nid) {
            let addr = self.addrs.get(&nid).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("unknown node {nid}"))
            })?;
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            stream.set_read_timeout(Some(self.params.request_timeout))?;
            stream.set_write_timeout(Some(self.params.request_timeout))?;
            write_frame(
                &mut stream,
                &Hello::Client {
                    client: self.client_id,
                },
            )?;
            self.conns.insert(nid, stream);
        }
        Ok(self.conns.get_mut(&nid).expect("just inserted"))
    }

    /// One request/reply exchange with a specific node; drops the
    /// cached connection on any transport failure.
    ///
    /// # Errors
    ///
    /// Transport failures (connect, deadline expiry, torn frame).
    pub fn request(&mut self, nid: u32, msg: &ClientMsg) -> io::Result<ClientReply> {
        let result = (|| {
            let stream = self.conn(nid)?;
            write_frame(stream, msg)?;
            match read_frame(stream)? {
                Some(payload) => decode_msg::<ClientReply>(&payload)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string())),
                None => Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                )),
            }
        })();
        if result.is_err() {
            self.conns.remove(&nid);
        }
        result
    }

    /// The node to try next: the leader hint if any, else rotate
    /// through the address book.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn pick_target(&mut self, attempt: u32) -> u32 {
        if let Some(l) = self.leader {
            return l;
        }
        let n = self.addrs.len().max(1);
        self.addrs
            .keys()
            .copied()
            .nth(attempt as usize % n)
            .unwrap_or_default()
    }

    /// Follows (or, past the hop cap, discards) a leader hint from a
    /// `Redirect` reply. Returns the updated hop count.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn follow_redirect(&mut self, leader: Option<u32>, target: u32, hops: u32) -> u32 {
        let hops = hops.saturating_add(1);
        if hops > self.params.max_redirect_hops {
            // Two nodes with stale hints can redirect at each other
            // indefinitely during an election; stop chasing hints and
            // let `pick_target` round-robin over the address book.
            self.leader = None;
        } else {
            self.leader = leader.filter(|l| *l != target);
        }
        hops
    }

    fn backoff(&mut self, attempt: u32) {
        let exp = self
            .params
            .backoff_base_ms
            .saturating_mul(1 << attempt.min(5));
        let cap = exp.min(self.params.backoff_cap_ms);
        let jitter = self.rng.gen_range(0..=cap / 2 + 1);
        thread::sleep(Duration::from_millis(cap / 2 + jitter));
    }

    /// Writes `key = value` exactly once. The sequence number is
    /// allocated here, before the first attempt, and reused verbatim on
    /// every retry.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when attempts are exhausted or the cluster
    /// definitively refuses.
    pub fn put(&mut self, key: &str, value: &str) -> Result<Acked, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = ClientMsg::Put {
            client: self.client_id,
            seq,
            key: key.to_string(),
            value: value.to_string(),
        };
        self.retry_write(seq, &msg)
    }

    /// Proposes a membership change exactly once (same session
    /// discipline as [`NetClient::put`]).
    ///
    /// # Errors
    ///
    /// [`ClientError`]; guard refusals surface as
    /// [`ClientError::Rejected`].
    pub fn reconfigure(&mut self, members: &[u32]) -> Result<Acked, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let msg = ClientMsg::Reconfigure {
            client: self.client_id,
            seq,
            members: members.to_vec(),
        };
        self.retry_write(seq, &msg)
    }

    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn retry_write(&mut self, seq: u64, msg: &ClientMsg) -> Result<Acked, ClientError> {
        let mut last_err: Option<io::Error> = None;
        let mut hops = 0u32;
        for attempt in 0..self.params.max_attempts {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            let target = self.pick_target(attempt);
            match self.request(target, msg) {
                Ok(ClientReply::Acked { seq: s, duplicate }) if s == seq => {
                    return Ok(Acked {
                        seq,
                        duplicate,
                        attempts: attempt + 1,
                    });
                }
                Ok(ClientReply::Acked { .. }) => {
                    // A reply for some other request on this connection:
                    // treat as transport confusion and re-dial.
                    self.conns.remove(&target);
                }
                Ok(ClientReply::Redirect { leader }) => {
                    hops = self.follow_redirect(leader, target, hops);
                }
                Ok(ClientReply::Overloaded) => {
                    // Shed under load: back off harder, same leader.
                }
                Ok(ClientReply::SessionStale { floor }) => {
                    return Err(ClientError::SessionStale { floor });
                }
                Ok(ClientReply::Rejected { reason }) => {
                    return Err(ClientError::Rejected { reason });
                }
                Ok(ClientReply::Value { .. } | ClientReply::Status { .. }) => {
                    self.conns.remove(&target);
                }
                Err(e) => {
                    last_err = Some(e);
                    self.leader = None;
                }
            }
        }
        Err(ClientError::Exhausted { last: last_err })
    }

    /// Reads a key from the committed store (retries through redirects).
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when no leader answers in time.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn get(&mut self, key: &str) -> Result<Option<String>, ClientError> {
        let msg = ClientMsg::Get {
            key: key.to_string(),
        };
        let mut last_err: Option<io::Error> = None;
        let mut hops = 0u32;
        for attempt in 0..self.params.max_attempts {
            if attempt > 0 {
                self.backoff(attempt - 1);
            }
            let target = self.pick_target(attempt);
            match self.request(target, &msg) {
                Ok(ClientReply::Value { value, .. }) => return Ok(value),
                Ok(ClientReply::Redirect { leader }) => {
                    hops = self.follow_redirect(leader, target, hops);
                }
                Ok(_) => self.backoff(attempt),
                Err(e) => {
                    last_err = Some(e);
                    self.leader = None;
                }
            }
        }
        Err(ClientError::Exhausted { last: last_err })
    }

    /// Asks one node about itself.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn status(&mut self, nid: u32) -> io::Result<ClientReply> {
        self.request(nid, &ClientMsg::Status)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-thread fake node: consumes the hello, then answers every
    /// client frame with `behavior(msg)` until the peer hangs up.
    fn fake_node(behavior: impl Fn(&ClientMsg) -> ClientReply + Send + 'static) -> String {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake node");
        let addr = listener.local_addr().expect("local addr").to_string();
        thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                if read_frame(&mut stream).ok().flatten().is_none() {
                    continue;
                }
                while let Ok(Some(payload)) = read_frame(&mut stream) {
                    let Ok(msg) = decode_msg::<ClientMsg>(&payload) else {
                        break;
                    };
                    if write_frame(&mut stream, &behavior(&msg)).is_err() {
                        break;
                    }
                }
            }
        });
        addr
    }

    fn fast_params() -> ClientParams {
        ClientParams {
            backoff_base_ms: 1,
            backoff_cap_ms: 2,
            ..ClientParams::default()
        }
    }

    #[test]
    fn a_stale_redirect_cycle_falls_back_to_round_robin_probing() {
        // Nodes 1 and 2 hold stale hints pointing at each other (the
        // post-election two-node cycle); only node 3 actually acks.
        // Without the hop cap the client ping-pongs 1 <-> 2 until its
        // attempt budget is gone and never probes node 3.
        let a1 = fake_node(|_| ClientReply::Redirect { leader: Some(2) });
        let a2 = fake_node(|_| ClientReply::Redirect { leader: Some(1) });
        let a3 = fake_node(|msg| match msg {
            ClientMsg::Put { seq, .. } => ClientReply::Acked {
                seq: *seq,
                duplicate: false,
            },
            _ => ClientReply::Rejected {
                reason: "unexpected".to_string(),
            },
        });
        let addrs = BTreeMap::from([(1, a1), (2, a2), (3, a3)]);
        let mut client = NetClient::new(addrs, 7, fast_params());
        let acked = client
            .put("k", "v")
            .expect("the hop cap must break the 1 <-> 2 redirect cycle");
        assert_eq!(acked.seq, 1);
        assert!(!acked.duplicate);
        assert!(
            acked.attempts <= ClientParams::default().max_attempts,
            "resolved within the attempt budget"
        );
    }

    #[test]
    fn reads_survive_the_same_redirect_cycle() {
        let a1 = fake_node(|_| ClientReply::Redirect { leader: Some(2) });
        let a2 = fake_node(|_| ClientReply::Redirect { leader: Some(1) });
        let a3 = fake_node(|msg| match msg {
            ClientMsg::Get { key } => ClientReply::Value {
                key: key.clone(),
                value: Some("v".to_string()),
            },
            _ => ClientReply::Rejected {
                reason: "unexpected".to_string(),
            },
        });
        let addrs = BTreeMap::from([(1, a1), (2, a2), (3, a3)]);
        let mut client = NetClient::new(addrs, 8, fast_params());
        let value = client.get("k").expect("read resolves past the cycle");
        assert_eq!(value.as_deref(), Some("v"));
    }

    #[test]
    fn without_a_leader_hint_targets_rotate_through_the_address_book() {
        let addrs: BTreeMap<u32, String> = [1, 2, 5]
            .into_iter()
            .map(|nid| (nid, String::new()))
            .collect();
        let mut client = NetClient::new(addrs, 1, ClientParams::default());
        let order: Vec<u32> = (0..4).map(|a| client.pick_target(a)).collect();
        assert_eq!(order, vec![1, 2, 5, 1]);
    }
}
