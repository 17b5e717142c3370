//! T8 against its definition: on random one-key histories,
//! [`adore_obs::linearize`] agrees with an exhaustive search over
//! linearizations.
//!
//! The search knows nothing of zones. It places the calls one at a time
//! in every order real time allows (a call may go next once every call
//! that completed before it was invoked is placed; equal stamps are
//! concurrent), keeps a register, and requires each read to return the
//! register's value. Acked puts and reads must all be placed; a pending
//! put may take effect at any point after its invocation, or never.
//! Histories have 1–4 puts (a quarter of them pending, each writing its
//! own value) and 0–4 reads of the initial absence or of some put's
//! value, all stamped 0–15 so that ties are common.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5

use std::collections::BTreeSet;

use proptest::prelude::*;

use adore_obs::{linearize, EventKind, TraceEvent};

/// One call: a put of `Some(value)` or a read that returned `value`,
/// invoked at `inv` and completed at `done` (`None`: a pending put).
#[derive(Debug, Clone)]
struct Call {
    put: bool,
    value: Option<u8>,
    inv: u64,
    done: Option<u64>,
}

/// Whether some order of the calls that real time allows explains every
/// read by the register's value at that point.
fn linearizable(calls: &[Call]) -> bool {
    let required: u32 = (0..calls.len())
        .filter(|&i| calls[i].done.is_some())
        .fold(0, |m, i| m | 1 << i);
    let mut failed = BTreeSet::new();
    place(calls, required, 0, None, &mut failed)
}

/// Depth-first over `(placed calls, register)` states, remembering the
/// ones that lead nowhere.
fn place(
    calls: &[Call],
    required: u32,
    placed: u32,
    register: Option<u8>,
    failed: &mut BTreeSet<(u32, Option<u8>)>,
) -> bool {
    if placed & required == required {
        return true;
    }
    if failed.contains(&(placed, register)) {
        return false;
    }
    let ready = |i: usize| {
        (0..calls.len())
            .all(|j| placed & 1 << j != 0 || calls[j].done.is_none_or(|d| d >= calls[i].inv))
    };
    for (i, c) in calls.iter().enumerate() {
        if placed & 1 << i != 0 || !ready(i) || (!c.put && c.value != register) {
            continue;
        }
        let next = if c.put { c.value } else { register };
        if place(calls, required, placed | 1 << i, next, failed) {
            return true;
        }
    }
    failed.insert((placed, register));
    false
}

/// The calls as the journal a driver writes for key `k`.
fn journal(calls: &[Call]) -> Vec<TraceEvent> {
    let name = |v: Option<u8>| v.map(|v| format!("v{v}"));
    let event = |c: &Call| {
        let op = if c.put { "put" } else { "get" };
        let outcome = if c.done.is_some() {
            "acked"
        } else {
            "timed-out"
        };
        let done = c.done.unwrap_or(c.inv);
        let kind = EventKind::client_op(op, "k", name(c.value), (c.inv, done), outcome);
        TraceEvent::root(done, kind)
    };
    calls.iter().map(event).collect()
}

/// 1–4 puts of distinct values, a quarter pending, and 0–4 reads of the
/// absence or of one of the puts' values; stamps 0–15.
fn history() -> impl Strategy<Value = Vec<Call>> {
    let span = || (0u64..16, 0u64..16).prop_map(|(a, b)| (a.min(b), a.max(b)));
    let puts = prop::collection::vec((span(), 0u8..4), 1..=4);
    let gets = prop::collection::vec((span(), 0u8..5), 0..=4);
    (puts, gets).prop_map(|(puts, gets)| {
        let n = puts.len() as u8;
        let put = |(i, ((inv, done), pending)): (usize, ((u64, u64), u8))| Call {
            put: true,
            value: Some(i as u8),
            inv,
            done: (pending != 0).then_some(done),
        };
        let get = |((inv, done), read): ((u64, u64), u8)| Call {
            put: false,
            value: (read % (n + 1) < n).then_some(read % (n + 1)),
            inv,
            done: Some(done),
        };
        let puts = puts.into_iter().enumerate().map(put);
        puts.chain(gets.into_iter().map(get)).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(100_000))]

    #[test]
    fn t8_agrees_with_an_exhaustive_search(calls in history()) {
        let verdict = linearize(&journal(&calls));
        prop_assert_eq!(verdict.is_ok(), linearizable(&calls), "{:?} {:?}", calls, verdict);
    }
}

/// The search itself, on the cases the unit tests of T8 pin down.
#[test]
fn the_search_sees_stale_reads_and_pending_writes() {
    let put = |v, inv, done| Call {
        put: true,
        value: Some(v),
        inv,
        done,
    };
    let get = |v, inv, done| Call {
        put: false,
        value: v,
        inv,
        done: Some(done),
    };
    // Overwritten, then read: no order explains it.
    assert!(!linearizable(&[
        put(0, 0, Some(1)),
        put(1, 2, Some(3)),
        get(Some(0), 4, 5)
    ]));
    // A pending write may be read, or never take effect.
    assert!(linearizable(&[put(0, 0, None), get(Some(0), 4, 5)]));
    assert!(linearizable(&[put(0, 0, None), get(None, 4, 5)]));
    // A tie is concurrency: the read may go first.
    assert!(linearizable(&[put(0, 3, Some(5)), get(None, 5, 6)]));
    assert!(!linearizable(&[put(0, 3, Some(4)), get(None, 5, 6)]));
}
