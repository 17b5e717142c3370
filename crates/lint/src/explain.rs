//! `adore-lint --explain <RULE>`: per-rule rationale, the paper
//! invariant each rule guards, and a minimal violating example.

/// The explanation text for a rule id, or `None` if the id is unknown.
/// Ids are matched case-insensitively.
#[must_use]
pub fn explain(rule: &str) -> Option<&'static str> {
    let rule = rule.to_ascii_uppercase();
    Some(match rule.as_str() {
        "L2" => {
            "L2 — panic-free recovery\n\
             \n\
             Configured (file, function) scopes — WAL replay, crash recovery,\n\
             counterexample replay — must not call .unwrap()/.expect(), invoke\n\
             panic-family macros, or index slices.\n\
             \n\
             Paper invariant: certified recovery (the WAL replay mirror) runs on\n\
             corrupted bytes by design; the safety argument needs it to *reject*\n\
             bad frames with a typed error, not abort the process mid-recovery.\n\
             \n\
             Violating example (inside a recovery scope):\n\
             \n\
                 let frame = parse(bytes).unwrap();   // L2\n\
                 let first = bytes[0];                // L2\n"
        }
        "L9" => {
            "L9 — lock-order cycles (concurrency-discipline)\n\
             \n\
             Within a configured crate, the lint tracks which lock guards are\n\
             held (lexically, over guard live ranges) at every `lock()` site and\n\
             builds the crate's lock-acquisition order graph. Any cycle — two\n\
             sites acquiring the same pair of locks in opposite orders, or a\n\
             re-acquisition of a lock already held — is reported at both\n\
             acquisition sites. With `locks = [..]` configured, any acquisition\n\
             against the pinned global order is flagged even before the second\n\
             half of the cycle exists.\n\
             \n\
             Paper invariant: the safety theorem is proved over the\n\
             deterministic engine; the threaded shell around it (node loops,\n\
             proxy pumps) must not deadlock, or certified runs simply stop\n\
             producing journal entries — an availability hole no trace audit\n\
             can see. std::sync::Mutex is not reentrant, so even a self-cycle\n\
             is a guaranteed deadlock.\n\
             \n\
             Violating example (two threads, opposite orders):\n\
             \n\
                 let g = state.lock()?;  let h = clients.lock()?;   // thread A\n\
                 let h = clients.lock()?; let g = state.lock()?;    // L9 (both)\n"
        }
        "L10" => {
            "L10 — no-panic lock acquisition (concurrency-discipline)\n\
             \n\
             In configured long-lived-thread scopes (node event loops, proxy\n\
             pumps, the monitor), `lock().unwrap()` and `lock().expect(..)`\n\
             are banned: a poisoned mutex must flow through a typed path —\n\
             `unwrap_or_else(PoisonError::into_inner)` with a journaled\n\
             adoption event, or a per-connection exit — never a panic.\n\
             \n\
             Paper invariant: extends L2's panic-free discipline beyond\n\
             recovery scopes. Poisoning means some other thread already\n\
             panicked; unwrap() converts one thread's bug into whole-process\n\
             death of a replica that the protocol (and the paper's fault\n\
             model) expects to keep serving or to crash *cleanly* through the\n\
             kill -9 harness, not via cascading panics.\n\
             \n\
             Violating example (inside a long-lived-thread scope):\n\
             \n\
                 let map = clients.lock().expect(\"client map lock\");   // L10\n"
        }
        "L11" => {
            "L11 — no lock held across a blocking call (concurrency-discipline)\n\
             \n\
             Within a configured crate, no lock guard may be live across a\n\
             blocking call: socket read/write/connect/accept, Receiver::recv,\n\
             blocking channel send, thread::sleep, join. The blocking-call\n\
             list is configurable, and crate-local helpers that (transitively)\n\
             block taint their callers through cross-file call summaries.\n\
             \n\
             Paper invariant: certifies DESIGN §11's bounded-stall claim. A\n\
             guard held across a peer socket write makes every thread needing\n\
             that lock wait on the *slowest peer's* TCP buffer — the classic\n\
             tail-latency collapse, and (combined with an L9 edge) a deadlock\n\
             amplifier. Copy out what the critical section needs, drop the\n\
             guard, then block.\n\
             \n\
             Violating example:\n\
             \n\
                 let map = clients.lock()?;\n\
                 write_frame(map.get_mut(&id)?, &reply)?;   // L11: socket\n\
                                                            // write under lock\n"
        }
        "L12" => {
            "L12 — hot-path sends shed explicitly (concurrency-discipline)\n\
             \n\
             In configured hot-path scopes, sends must be `try_send` with the\n\
             shed outcome consumed — a blocking `send` can stall the pump, and\n\
             a discarded `try_send` silently drops the overflow signal the\n\
             availability monitor is supposed to see. (The other half of the\n\
             bounded-channel discipline, no unbounded `mpsc::channel()`, is a\n\
             path ban: clippy's `disallowed_methods` carries it.)\n\
             \n\
             Paper invariant: DESIGN §11 claims every inter-thread queue is\n\
             bounded with explicit shed behavior, so overload degrades into\n\
             *measured* refusals (the availability ledger) instead of\n\
             unbounded memory growth and lost backpressure.\n\
             \n\
             Violating example (hot-path scope):\n\
             \n\
                 tx.send(ev).unwrap();             // L12: blocking send\n\
                 tx.try_send(ev);                  // L12: shed outcome dropped\n"
        }
        // The example lines assemble the pragma marker with concat! so
        // this file's own source never contains the live marker the
        // pragma scanner looks for.
        "P0" => {
            concat!(
                "P0 — malformed suppression pragma\n",
                "\n",
                "A suppression pragma that does not parse — bad syntax, a missing\n",
                "reason, or an unknown rule id — is itself a finding. Suppressions\n",
                "are audit records; a malformed one silently suppresses nothing.\n",
                "\n",
                "Violating example:\n",
                "\n",
                "// adore-",
                "lint: allow(L2)          // P0: missing reason\n",
                "// adore-",
                "lint: allow(L99, reason = \"x\")  // P0: unknown rule\n",
            )
        }
        "E0" => {
            "E0 — file does not parse\n\
             \n\
             The lint's item parser could not tokenize/parse the file; nothing\n\
             in it was checked. E0 fails CI so an unparsable file cannot dodge\n\
             the rules.\n"
        }
        _ => return None,
    })
}

/// Every rule id `--explain` accepts, in display order.
///
/// The gaps are deliberate: L1, L3, L4, L5, L7 and L8 were retired to
/// rustc/clippy, L6, L13 and L14 to the checker, `refine.rs` and the
/// unit suites, and L15 to a `debug_assert!` in the engine (DESIGN.md's
/// static-discipline table says what carries each), and the surviving
/// ids were not renumbered. A pragma naming a retired id is `P0`.
pub const RULE_IDS: &[&str] = &["L2", "L9", "L10", "L11", "L12", "P0", "E0"];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_listed_rule_has_an_explanation() {
        for id in RULE_IDS {
            let text = explain(id).unwrap_or_else(|| panic!("no explanation for {id}"));
            assert!(text.contains(id), "{id} text names itself");
        }
        assert!(explain("l9").is_some(), "case-insensitive");
        assert!(explain("L99").is_none());
        assert!(explain("L3").is_none() && explain("L6").is_none(), "retired ids");
    }

    #[test]
    fn conc_rules_cite_their_hazards() {
        assert!(explain("L9").expect("L9").contains("deadlock"));
        assert!(explain("L10").expect("L10").contains("Poisoning"));
        assert!(explain("L11").expect("L11").contains("blocking"));
        assert!(explain("L12").expect("L12").contains("backpressure"));
    }
}
