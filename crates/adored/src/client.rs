//! The cluster client over TCP: a driver of [`adore_kv::det::client`],
//! the core the simulated client drives too. The core decides where each
//! attempt goes, which reply ends an operation and how long to back off;
//! this driver keeps a connection cache, makes one request/reply
//! exchange per attempt and sleeps the core's waits. A write's message is
//! built once, with the seq the core took for it, and sent verbatim on
//! every attempt: a retry of a write already applied is acked as a
//! duplicate, never applied twice.

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))] // L8: no `let _ =` on a result in a recovery scope

use std::collections::BTreeMap;
use std::io::{self, BufReader};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use crate::det::client::{Action, Client, Input};
use crate::det::msg::{decode_msg, ClientMsg, ClientReply, Hello};
use crate::node::{read_frame, write_frame};

pub use crate::det::client::ClientParams;

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

/// A cluster client: the client core behind a connection cache.
pub struct NetClient {
    addrs: BTreeMap<u32, String>,
    /// Each read through a buffer: a reply that arrived whole costs one
    /// `read`.
    conns: BTreeMap<u32, BufReader<TcpStream>>,
    core: Client,
}

impl NetClient {
    /// Creates a client over the cluster's address book.
    #[must_use]
    pub fn new(addrs: BTreeMap<u32, String>, client_id: u64, params: ClientParams) -> Self {
        let core = Client::new(addrs.keys().copied(), client_id, params);
        NetClient {
            addrs,
            conns: BTreeMap::new(),
            core,
        }
    }

    /// The client's id (embedded in every sessioned write).
    #[must_use]
    pub fn client_id(&self) -> u64 {
        self.core.client_id()
    }

    fn conn(&mut self, nid: u32) -> io::Result<&mut BufReader<TcpStream>> {
        if !self.conns.contains_key(&nid) {
            let addr = self.addrs.get(&nid).ok_or_else(|| {
                io::Error::new(io::ErrorKind::NotFound, format!("unknown node {nid}"))
            })?;
            let mut stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true).ok();
            let timeout = self.core.params().request_timeout;
            stream.set_read_timeout(Some(timeout))?;
            stream.set_write_timeout(Some(timeout))?;
            let client = self.core.client_id();
            write_frame(&mut stream, &Hello::Client { client })?;
            self.conns.insert(nid, BufReader::new(stream));
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
            write_frame(stream.get_mut(), msg)?;
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

    /// Runs the core's operation, sending `msg` on every attempt.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    fn run(&mut self, msg: &ClientMsg) -> Result<ClientReply, ClientError> {
        let (mut input, mut last) = (None, None);
        loop {
            match self.core.poll(input.take()) {
                Action::Send { to } => {
                    input = Some(self.request(to, msg).map_or_else(
                        |e| {
                            last = Some(e);
                            Input::NoReply
                        },
                        Input::Reply,
                    ));
                }
                Action::Wait(us) => thread::sleep(Duration::from_micros(us)),
                Action::Done(Some(ClientReply::Rejected { reason })) => {
                    return Err(ClientError::Rejected { reason })
                }
                Action::Done(Some(ClientReply::SessionStale { floor })) => {
                    return Err(ClientError::SessionStale { floor })
                }
                Action::Done(Some(reply)) => return Ok(reply),
                Action::Done(None) => return Err(ClientError::Exhausted { last }),
            }
        }
    }

    /// Writes `key = value` exactly once.
    ///
    /// # Errors
    ///
    /// [`ClientError`] when attempts are exhausted or the cluster
    /// definitively refuses.
    pub fn put(&mut self, key: &str, value: &str) -> Result<Acked, ClientError> {
        let seq = self.core.start_write();
        let (client, key, value) = (self.client_id(), key.to_string(), value.to_string());
        self.write(&ClientMsg::Put {
            client,
            seq,
            key,
            value,
        })
    }

    /// Proposes a membership change exactly once (same session
    /// discipline as [`NetClient::put`]).
    ///
    /// # Errors
    ///
    /// [`ClientError`]; guard refusals surface as
    /// [`ClientError::Rejected`].
    pub fn reconfigure(&mut self, members: &[u32]) -> Result<Acked, ClientError> {
        let seq = self.core.start_write();
        let (client, members) = (self.client_id(), members.to_vec());
        self.write(&ClientMsg::Reconfigure {
            client,
            seq,
            members,
        })
    }

    fn write(&mut self, msg: &ClientMsg) -> Result<Acked, ClientError> {
        match self.run(msg)? {
            ClientReply::Acked { seq, duplicate } => Ok(Acked {
                seq,
                duplicate,
                attempts: self.core.attempts(),
            }),
            // The core ends a write on its own ack only.
            _ => Err(ClientError::Exhausted { last: None }),
        }
    }

    /// Reads a key from the committed store (retries through redirects).
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] when no leader answers in time.
    pub fn get(&mut self, key: &str) -> Result<Option<String>, ClientError> {
        self.core.start_read();
        match self.run(&ClientMsg::Get { key: key.into() })? {
            ClientReply::Value { value, .. } => Ok(value),
            // The core ends a read on a value only.
            _ => Err(ClientError::Exhausted { last: None }),
        }
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
            backoff_base_us: 1_000,
            backoff_cap_us: 2_000,
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
}
