//! T8: linearizability of recorded client histories.
//!
//! Every driver writes a value no other `put` of the same key writes, so
//! each read names the one write it follows, and Gibbons and Korach's
//! check is polynomial: per key, group each write with the reads of its
//! value into a cluster, with `f` its earliest completion and `s` its
//! latest invocation. When `f < s` the value is current throughout
//! `(f, s)`, a *forward zone*; otherwise all its calls overlap on
//! `[s, f]`, a *backward zone*. The history is linearizable iff no read
//! returns a value no put wrote, none completes before its put starts,
//! no two forward zones overlap and no backward zone lies inside a
//! forward one. The initial absence is a cluster whose write completed
//! before everything. A put that was not acked stays pending for ever;
//! a get that failed is no observation; equal stamps count as
//! concurrent, so a tie never produces a verdict.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::event::{EventKind, TraceEvent};

/// One client operation, as the check reads it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Call {
    /// `"put"` or `"get"`.
    pub op: String,
    /// The value written or read (`None`: the key was absent).
    pub value: Option<String>,
    /// When the client invoked the operation.
    pub invoked_us: u64,
    /// When it completed; `None` for a put that was never acked.
    pub done_us: Option<u64>,
}

/// Why a key's history has no linearization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Anomaly {
    /// A read returned a value no put wrote.
    Phantom,
    /// A read completed before the put of its value was invoked.
    ReadBeforeWrite,
    /// Two values must have been current at once (two forward zones
    /// overlap): reads saw them in an order no register goes through.
    Overlap,
    /// A value lived inside the span another must have been current
    /// over (a backward zone inside a forward one): a stale read.
    Nested,
    /// Two puts wrote the same value: the history is outside the check.
    DuplicateWrite,
}

/// A key whose history no linearization explains.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct NotLinearizable {
    /// The key.
    pub key: String,
    /// What is wrong.
    pub anomaly: Anomaly,
    /// An offending sub-history of the key, in invocation order, shrunk
    /// until dropping any call would lose the anomaly.
    pub history: Vec<Call>,
}

impl std::fmt::Display for NotLinearizable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let (key, anomaly) = (&self.key, self.anomaly);
        write!(f, "key {key} is not linearizable ({anomaly:?}):")?;
        for c in &self.history {
            let value = c.value.as_deref().unwrap_or("(absent)");
            let done = c.done_us.map_or("pending".to_string(), |d| d.to_string());
            write!(f, " {} {value} [{}, {done}];", c.op, c.invoked_us)?;
        }
        Ok(())
    }
}

/// Judges the client history in `events` (their
/// [`EventKind::ClientOp`]s), key by key in key order.
///
/// # Errors
///
/// The first key whose history is not linearizable.
pub fn linearize<'a>(
    events: impl IntoIterator<Item = &'a TraceEvent>,
) -> Result<(), NotLinearizable> {
    let mut keys: BTreeMap<&str, Vec<Call>> = BTreeMap::new();
    for ev in events {
        let EventKind::ClientOp {
            op,
            key,
            outcome,
            value,
            invoked_at_us,
            ..
        } = &ev.kind
        else {
            continue;
        };
        let done_us = (outcome == "acked").then_some(ev.at_us);
        if (op == "put" && value.is_some()) || (op == "get" && done_us.is_some()) {
            let (op, value, invoked_us) = (op.clone(), value.clone(), *invoked_at_us);
            let call = Call {
                op,
                value,
                invoked_us,
                done_us,
            };
            keys.entry(key).or_default().push(call);
        }
    }
    for (key, calls) in keys {
        let Some((anomaly, mut history)) = check(&calls) else {
            continue;
        };
        let mut i = 0;
        while i < history.len() {
            let mut fewer = history.clone();
            fewer.remove(i);
            if check(&fewer).is_some_and(|(a, _)| a == anomaly) {
                history = fewer;
            } else {
                i += 1;
            }
        }
        history.sort_by_key(|c| (c.invoked_us, c.done_us));
        let key = key.to_string();
        return Err(NotLinearizable {
            key,
            anomaly,
            history,
        });
    }
    Ok(())
}

/// One value's cluster: its write (`None` for the initial absence), and
/// the zone ends `f` and `s`, each with the call that fixes it.
struct Zone<'c> {
    write: Option<&'c Call>,
    f: (u64, &'c Call),
    s: (u64, &'c Call),
}

impl Zone<'_> {
    fn forward(&self) -> bool {
        self.f.0 < self.s.0
    }
}

/// The first anomaly in one key's calls, and the calls that show it.
fn check(calls: &[Call]) -> Option<(Anomaly, Vec<Call>)> {
    // A shifted clock: 0 precedes every stamp, `u64::MAX` is a pending
    // completion.
    let inv = |c: &Call| c.invoked_us.saturating_add(1);
    let done = |c: &Call| c.done_us.map_or(u64::MAX, |d| d.saturating_add(1));
    let mut writes: BTreeMap<Option<&str>, &Call> = BTreeMap::new();
    for w in calls.iter().filter(|c| c.op == "put") {
        if let Some(first) = writes.insert(w.value.as_deref(), w) {
            return Some((Anomaly::DuplicateWrite, vec![first.clone(), w.clone()]));
        }
    }
    let mut zones: BTreeMap<Option<&str>, Zone> = BTreeMap::new();
    for (&value, &w) in &writes {
        let (f, s) = ((done(w), w), (inv(w), w));
        zones.insert(
            value,
            Zone {
                write: Some(w),
                f,
                s,
            },
        );
    }
    for r in calls.iter().filter(|c| c.op != "put") {
        let value = r.value.as_deref();
        match writes.get(&value) {
            None if value.is_some() => return Some((Anomaly::Phantom, vec![r.clone()])),
            Some(&w) if done(r) < inv(w) => {
                return Some((Anomaly::ReadBeforeWrite, vec![w.clone(), r.clone()]));
            }
            _ => {}
        }
        let (f, s) = ((0, r), (0, r));
        let z = zones.entry(value).or_insert(Zone { write: None, f, s });
        if done(r) < z.f.0 {
            z.f = (done(r), r);
        }
        if inv(r) > z.s.0 {
            z.s = (inv(r), r);
        }
    }
    let witness = |zs: [&Zone; 2]| {
        let mut out: Vec<Call> = Vec::new();
        let calls = zs
            .iter()
            .flat_map(|z| z.write.into_iter().chain([z.f.1, z.s.1]));
        for c in calls {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
        out
    };
    // Disjoint forward zones sorted by start also end in order, so only
    // neighbours can overlap, and only the last one starting before a
    // backward zone can contain it.
    let (mut forward, backward): (Vec<&Zone>, Vec<&Zone>) =
        zones.values().partition(|z| z.forward());
    forward.sort_by_key(|z| z.f.0);
    for pair in forward.windows(2) {
        if let [a, b] = pair {
            if b.f.0 < a.s.0 {
                return Some((Anomaly::Overlap, witness([a, b])));
            }
        }
    }
    for b in backward {
        let before = forward.partition_point(|z| z.f.0 < b.s.0);
        let outer = before.checked_sub(1).and_then(|i| forward.get(i));
        if let Some(a) = outer.filter(|a| b.f.0 < a.s.0) {
            return Some((Anomaly::Nested, witness([a, b])));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn put(value: &str, invoked_us: u64, done_us: Option<u64>) -> Call {
        Call {
            op: "put".into(),
            value: Some(value.into()),
            invoked_us,
            done_us,
        }
    }

    fn get(value: Option<&str>, invoked_us: u64, done_us: u64) -> Call {
        Call {
            op: "get".into(),
            value: value.map(str::to_string),
            invoked_us,
            done_us: Some(done_us),
        }
    }

    /// The calls as journal events of key `k`, as a driver writes them.
    fn journal(calls: &[Call]) -> Vec<TraceEvent> {
        calls
            .iter()
            .map(|c| {
                let kind = EventKind::ClientOp {
                    op: c.op.clone(),
                    key: "k".into(),
                    outcome: if c.done_us.is_some() {
                        "acked"
                    } else {
                        "timed-out"
                    }
                    .into(),
                    latency_us: None,
                    value: c.value.clone(),
                    invoked_at_us: c.invoked_us,
                };
                TraceEvent::root(c.done_us.unwrap_or(c.invoked_us), kind)
            })
            .collect()
    }

    fn verdict(calls: &[Call]) -> Result<(), NotLinearizable> {
        linearize(&journal(calls))
    }

    fn anomaly(calls: &[Call]) -> Anomaly {
        verdict(calls).expect_err("not linearizable").anomaly
    }

    #[test]
    fn a_read_of_an_overwritten_value_is_not_linearizable() {
        let calls = [
            put("a", 0, Some(10)),
            put("b", 20, Some(30)),
            get(Some("a"), 40, 50),
        ];
        let err = verdict(&calls).expect_err("a was overwritten by b");
        assert_eq!(err.anomaly, Anomaly::Nested);
        assert_eq!(err.history, calls.to_vec(), "all three calls are needed");
        assert_eq!(
            err.to_string(),
            "key k is not linearizable (Nested): put a [0, 10]; put b [20, 30]; get a [40, 50];"
        );
    }

    #[test]
    fn a_read_that_precedes_its_write_is_not_linearizable() {
        let calls = [get(Some("a"), 0, 10), put("a", 20, Some(30))];
        assert_eq!(anomaly(&calls), Anomaly::ReadBeforeWrite);
    }

    #[test]
    fn two_reads_in_inverted_order_are_not_linearizable() {
        // b is written after a, and read before a is read again.
        let calls = [
            put("a", 0, Some(10)),
            put("b", 20, Some(30)),
            get(Some("b"), 40, 50),
            get(Some("a"), 60, 70),
        ];
        let err = verdict(&calls).expect_err("a came back after b");
        assert_eq!(err.anomaly, Anomaly::Overlap);
        // With b's write still running, the reads alone fix the order.
        let racing = [
            put("a", 0, Some(10)),
            put("b", 20, Some(200)),
            get(Some("b"), 40, 50),
            get(Some("a"), 60, 70),
        ];
        assert_eq!(anomaly(&racing), Anomaly::Nested);
    }

    #[test]
    fn a_phantom_value_is_not_linearizable() {
        let calls = [put("a", 0, Some(10)), get(Some("z"), 20, 30)];
        let err = verdict(&calls).expect_err("nobody wrote z");
        assert_eq!(err.anomaly, Anomaly::Phantom);
        assert_eq!(err.history, vec![get(Some("z"), 20, 30)]);
    }

    #[test]
    fn an_absent_key_after_an_acked_write_is_not_linearizable() {
        let calls = [put("a", 0, Some(10)), get(None, 20, 30)];
        assert_eq!(anomaly(&calls), Anomaly::Nested);
    }

    #[test]
    fn a_read_of_a_pending_write_is_linearizable() {
        let calls = [
            put("a", 0, Some(10)),
            put("b", 20, None),
            get(Some("b"), 40, 50),
            get(Some("b"), 60, 70),
        ];
        verdict(&calls).expect("b took effect before the first read");
    }

    #[test]
    fn a_pending_write_never_read_is_linearizable() {
        let calls = [
            put("a", 0, Some(10)),
            put("b", 20, None),
            get(Some("a"), 40, 50),
        ];
        verdict(&calls).expect("b may never take effect");
        let absent = [put("a", 0, None), get(None, 20, 30)];
        verdict(&absent).expect("a may never take effect");
    }

    #[test]
    fn concurrent_calls_and_ties_may_take_either_order() {
        let calls = [
            put("a", 0, Some(10)),
            put("b", 5, Some(15)),
            get(Some("a"), 12, 20),
            get(Some("b"), 20, 30),
        ];
        verdict(&calls).expect("b's write may follow a's");
        // A read invoked at the very stamp a write completes is
        // concurrent with it: the tie decides nothing.
        let tie = [put("a", 0, Some(10)), get(None, 10, 10)];
        verdict(&tie).expect("a tie is concurrency");
    }

    #[test]
    fn failed_gets_are_not_observations_and_keys_are_judged_apart() {
        let mut events = journal(&[put("a", 0, Some(10))]);
        events.push(TraceEvent::root(
            30,
            EventKind::ClientOp {
                op: "get".into(),
                key: "k".into(),
                outcome: "no-leader".into(),
                latency_us: None,
                value: None,
                invoked_at_us: 20,
            },
        ));
        events.push(TraceEvent::root(
            50,
            EventKind::ClientOp {
                op: "get".into(),
                key: "other".into(),
                outcome: "acked".into(),
                latency_us: None,
                value: None,
                invoked_at_us: 40,
            },
        ));
        linearize(&events).expect("the failed get saw nothing; `other` was never written");
    }

    #[test]
    fn a_value_written_twice_is_outside_the_check() {
        let calls = [put("a", 0, Some(10)), put("a", 20, Some(30))];
        assert_eq!(anomaly(&calls), Anomaly::DuplicateWrite);
    }
}
