//! The client core: the one retry policy every client runs.
//!
//! [`Client`] is a pure state machine like the [`Engine`](super::engine::Engine):
//! it owns the session id and `next_seq`, the leader hint, the address
//! book and a seeded RNG, and holds the only redirect rule and the only
//! backoff function. A driver performs its [`Action`]s and feeds back
//! what came of each `Send`: `adored`'s `NetClient` over TCP, nemesis's
//! `RobustClient` on the simulator's virtual clock. A write takes its
//! seq once ([`Client::start_write`]) and the driver sends that one
//! message on every attempt, so a retry of a write that was applied is
//! acked as a duplicate, never applied twice.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use super::msg::ClientReply;

/// `Redirect` hops followed per operation before the client stops
/// trusting hints and probes round-robin: during an election two nodes
/// can hold stale hints at each other, a cycle that would otherwise spend
/// the whole attempt budget.
pub const MAX_REDIRECT_HOPS: u32 = 3;

/// Client-side retry tunables.
#[derive(Debug, Clone)]
pub struct ClientParams {
    /// Total attempts per operation before giving up.
    pub max_attempts: u32,
    /// Base backoff between attempts (microseconds).
    pub backoff_base_us: u64,
    /// Backoff cap (microseconds).
    pub backoff_cap_us: u64,
    /// How long the wire driver waits for one reply.
    pub request_timeout: Duration,
}

impl Default for ClientParams {
    fn default() -> Self {
        ClientParams {
            max_attempts: 12,
            backoff_base_us: 40_000,
            backoff_cap_us: 1_500_000,
            request_timeout: Duration::from_secs(3),
        }
    }
}

/// Capped exponential backoff with seeded jitter, in the unit of `base`
/// and `cap`: after `failures` consecutive failures, a draw from the upper
/// half of `base·2^failures` capped at `cap`, so that clients (or peers)
/// that failed together do not retry in lockstep.
pub fn backoff(base: u64, cap: u64, failures: u32, rng: &mut StdRng) -> u64 {
    let span = base.saturating_mul(2u64.saturating_pow(failures)).min(cap);
    span / 2 + rng.gen_range(0..=span / 2 + 1)
}

/// What came of a `Send`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// The node's reply.
    Reply(ClientReply),
    /// None: a timeout, a refused connect, a torn frame.
    NoReply,
}

/// What the driver does next.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Action {
    /// Send the operation's message to `to`; poll with what came of it.
    Send {
        /// The node to try.
        to: u32,
    },
    /// Wait this many microseconds, then poll again.
    Wait(u64),
    /// The operation is over: the reply that ended it (a write's `Acked`,
    /// a read's `Value`, `Rejected`, `SessionStale`), `None` if none did.
    Done(Option<ClientReply>),
}

/// One client's session and retry state (see the module docs).
#[derive(Debug)]
pub struct Client {
    params: ClientParams,
    client_id: u64,
    next_seq: u64,
    /// Where the next attempt goes: the last node that answered, or a
    /// redirect's hint; `None`: the address book's next after `target`.
    leader: Option<u32>,
    nodes: Vec<u32>,
    rng: StdRng,
    /// The node tried last.
    target: Option<u32>,
    /// The operation in progress: its write's seq (`None`: a read), its
    /// attempts and its redirect hops.
    seq: Option<u64>,
    sent: u32,
    hops: u32,
}

impl Client {
    /// A client of `nodes` (its address book, probed in this order) with
    /// session id `client_id`.
    #[must_use]
    pub fn new(nodes: impl IntoIterator<Item = u32>, client_id: u64, params: ClientParams) -> Self {
        Client {
            params,
            client_id,
            next_seq: 1,
            leader: None,
            nodes: nodes.into_iter().collect(),
            rng: StdRng::seed_from_u64(client_id ^ 0x5e55_10f5),
            target: None,
            seq: None,
            sent: 0,
            hops: 0,
        }
    }

    /// The session id every write of this client carries.
    #[must_use]
    pub fn client_id(&self) -> u64 {
        self.client_id
    }

    /// The tunables.
    #[must_use]
    pub fn params(&self) -> &ClientParams {
        &self.params
    }

    /// Attempts the current (or last) operation made.
    #[must_use]
    pub fn attempts(&self) -> u32 {
        self.sent
    }

    /// Starts a write and returns its seq, taken here only.
    pub fn start_write(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.start(Some(seq));
        seq
    }

    /// Starts a read.
    pub fn start_read(&mut self) {
        self.start(None);
    }

    fn start(&mut self, seq: Option<u64>) {
        (self.seq, self.sent, self.hops) = (seq, 0, 0);
    }

    /// Aims the next attempt at `nid`: a driver that saw `nid` elected.
    pub fn aim(&mut self, nid: u32) {
        self.leader = Some(nid);
    }

    /// The operation's next action: `input` is what came of the last
    /// `Send`, `None` starts the operation or ends a `Wait`. Between two
    /// `Send`s there is exactly one `Wait`.
    #[deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable, clippy::todo, clippy::unimplemented, clippy::indexing_slicing, clippy::disallowed_macros)] // L2: panic-free recovery scope
    pub fn poll(&mut self, input: Option<Input>) -> Action {
        if let Some(input) = input {
            match input {
                Input::Reply(reply) if self.ends(&reply) => {
                    // Only a leader answers: keep it.
                    self.leader = self.target;
                    return Action::Done(Some(reply));
                }
                Input::Reply(ClientReply::Redirect { leader }) => {
                    self.hops += 1;
                    let (target, hops) = (self.target, self.hops);
                    self.leader =
                        leader.filter(|l| Some(*l) != target && hops <= MAX_REDIRECT_HOPS);
                }
                // Shed under load: keep the hint, back off.
                Input::Reply(ClientReply::Overloaded) => {}
                // No reply, or one to another request: drop the hint.
                _ => self.leader = None,
            }
            if self.sent < self.params.max_attempts {
                let (base, cap) = (self.params.backoff_base_us, self.params.backoff_cap_us);
                let failures = self.sent.saturating_sub(1);
                return Action::Wait(backoff(base, cap, failures, &mut self.rng));
            }
        }
        let last = self.nodes.iter().position(|n| Some(*n) == self.target);
        let next = last.map_or(0, |i| (i + 1) % self.nodes.len());
        match self.leader.or_else(|| self.nodes.get(next).copied()) {
            Some(to) if self.sent < self.params.max_attempts => {
                (self.target, self.sent) = (Some(to), self.sent + 1);
                Action::Send { to }
            }
            _ => Action::Done(None),
        }
    }

    /// Whether `reply` ends the operation: its write's ack (not another
    /// seq's), its read's value, or a refusal.
    fn ends(&self, reply: &ClientReply) -> bool {
        match reply {
            ClientReply::Acked { seq, .. } => self.seq == Some(*seq),
            ClientReply::Value { .. } => self.seq.is_none(),
            ClientReply::Rejected { .. } | ClientReply::SessionStale { .. } => true,
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acked(seq: u64) -> Input {
        Input::Reply(ClientReply::Acked {
            seq,
            duplicate: false,
        })
    }

    fn redirect(leader: u32) -> Input {
        Input::Reply(ClientReply::Redirect {
            leader: Some(leader),
        })
    }

    /// Runs the current operation against `nodes` (what each target
    /// answers), with no time passing; returns every action it took.
    fn drive(client: &mut Client, mut nodes: impl FnMut(u32) -> Input) -> Vec<Action> {
        let (mut actions, mut input) = (Vec::new(), None);
        loop {
            let action = client.poll(input.take());
            actions.push(action.clone());
            match action {
                Action::Send { to } => input = Some(nodes(to)),
                Action::Wait(_) => {}
                Action::Done(_) => return actions,
            }
        }
    }

    fn targets(actions: &[Action]) -> Vec<u32> {
        let to = |a: &Action| match a {
            Action::Send { to } => Some(*to),
            _ => None,
        };
        actions.iter().filter_map(to).collect()
    }

    fn client() -> Client {
        Client::new([1, 2, 3], 7, ClientParams::default())
    }

    /// Each row: what nodes 1, 2 and 3 answer to a write of seq 1, the
    /// nodes tried in order, and the reply that ends the write.
    #[test]
    fn one_write_through_the_table() {
        let stale = Input::Reply(ClientReply::SessionStale { floor: 9 });
        let rejected = Input::Reply(ClientReply::Rejected {
            reason: "R3".into(),
        });
        type Row = (&'static str, [Input; 3], Vec<u32>, Option<ClientReply>);
        let rows: [Row; 5] = [
            (
                // Nodes 1 and 2 hold stale hints at each other: the hop
                // cap breaks the cycle and round-robin reaches node 3.
                "stale-redirect-cycle",
                [redirect(2), redirect(1), acked(1)],
                vec![1, 2, 1, 2, 3],
                Some(ClientReply::Acked {
                    seq: 1,
                    duplicate: false,
                }),
            ),
            (
                "hint-followed",
                [redirect(3), redirect(3), acked(1)],
                vec![1, 3],
                Some(ClientReply::Acked {
                    seq: 1,
                    duplicate: false,
                }),
            ),
            (
                "session-stale-ends-at-once",
                [stale.clone(), stale, acked(1)],
                vec![1],
                Some(ClientReply::SessionStale { floor: 9 }),
            ),
            (
                "rejected-ends-at-once",
                [rejected.clone(), rejected, acked(1)],
                vec![1],
                Some(ClientReply::Rejected {
                    reason: "R3".into(),
                }),
            ),
            (
                // An ack of some other seq answers some other request.
                "foreign-ack-is-no-answer",
                [acked(2), Input::NoReply, acked(1)],
                vec![1, 2, 3],
                Some(ClientReply::Acked {
                    seq: 1,
                    duplicate: false,
                }),
            ),
        ];
        for (name, answers, tried, end) in rows {
            let mut c = client();
            assert_eq!(c.start_write(), 1, "{name}");
            let actions = drive(&mut c, |to| answers[to as usize - 1].clone());
            assert_eq!(targets(&actions), tried, "{name}");
            assert_eq!(actions.last(), Some(&Action::Done(end)), "{name}");
            assert_eq!(c.attempts() as usize, tried.len(), "{name}");
        }
    }

    /// Every attempt of one write is answered for the seq taken at its
    /// start: its ack ends the write however many attempts failed first.
    #[test]
    fn a_write_keeps_its_seq_on_every_attempt() {
        let mut c = client();
        let seq = c.start_write();
        let mut calls = 0;
        let actions = drive(&mut c, |_| {
            calls += 1;
            if calls < 5 {
                Input::NoReply
            } else {
                acked(seq)
            }
        });
        assert_eq!(targets(&actions), vec![1, 2, 3, 1, 2]);
        assert_eq!(c.attempts(), 5);
        // The next write takes the next seq, and goes first to the node
        // that answered.
        assert_eq!(c.start_write(), seq + 1);
        assert_eq!(c.poll(None), Action::Send { to: 2 });
    }

    /// A read that is shed, redirected or unanswered waits exactly once
    /// before its next attempt (a read once slept twice on `Overloaded`),
    /// and gives up after `max_attempts` sends.
    #[test]
    fn between_two_sends_there_is_exactly_one_wait() {
        let answers = [
            Input::Reply(ClientReply::Overloaded),
            redirect(3),
            Input::NoReply,
        ];
        let mut c = client();
        c.start_read();
        let mut i = 0;
        let actions = drive(&mut c, |_| {
            i += 1;
            answers[i % 3].clone()
        });
        assert_eq!(actions.last(), Some(&Action::Done(None)));
        let body = &actions[..actions.len() - 1];
        for pair in body.chunks(2) {
            assert!(
                matches!(
                    pair,
                    [Action::Send { .. }, Action::Wait(_)] | [Action::Send { .. }]
                ),
                "{actions:?}"
            );
        }
        assert_eq!(targets(&actions).len(), 12);
        assert_eq!(c.attempts(), 12);
    }

    #[test]
    fn without_a_leader_hint_targets_rotate_through_the_address_book() {
        let mut c = Client::new([1, 2, 5], 1, ClientParams::default());
        c.start_read();
        let mut calls = 0;
        let actions = drive(&mut c, |_| {
            calls += 1;
            if calls < 4 {
                Input::NoReply
            } else {
                Input::Reply(ClientReply::Value {
                    key: "k".into(),
                    value: None,
                })
            }
        });
        assert_eq!(targets(&actions), vec![1, 2, 5, 1]);
    }
}
