//! Property-based tests for the core model: arbitrary oracle-resolved
//! operation sequences preserve the invariant suite; the cache order is a
//! total order on reachable caches; states serialize losslessly.

#![deny(clippy::disallowed_types)] // L1: no hash order, no ambient clock
#![deny(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)] // L5
#![deny(clippy::let_underscore_must_use)] // L4/L8: no `let _ =` on a verdict or a recovery result

use adore_core::enumerate::{pull_decisions, push_decisions};
use adore_core::extensions::invoke_windowed;
use adore_core::majority::Majority;
use adore_core::{invariants, AdoreState, CacheKind, Configuration, NodeId};
use proptest::prelude::*;

type St = AdoreState<Majority, &'static str>;

/// Replays `choices` as indices into the valid-op enumeration at each
/// step, asserting the full invariant suite after every applied op.
fn run(choices: &[u16]) -> St {
    let conf0 = Majority::new([1, 2, 3]);
    let members = conf0.members();
    let mut st: St = AdoreState::new(conf0);
    for &c in choices {
        // Interleave pulls, invokes, and pushes for all callers.
        let mut acted = false;
        let kind = c % 3;
        let caller = NodeId(u32::from(c / 3 % 3) + 1);
        match kind {
            0 => {
                let ds = pull_decisions(&st, caller);
                if !ds.is_empty() {
                    let d = &ds[c as usize % ds.len()];
                    st.pull(caller, d).expect("enumerated decision");
                    acted = true;
                }
            }
            1 => {
                acted = st.invoke(caller, "m").applied().is_some();
            }
            _ => {
                let ds = push_decisions(&st, caller);
                if !ds.is_empty() {
                    let d = &ds[c as usize % ds.len()];
                    st.push(caller, d).expect("enumerated decision");
                    acted = true;
                }
            }
        }
        if acted {
            let v = invariants::check_all(&st);
            assert!(v.is_empty(), "violation: {:?}", v[0]);
        }
        let _ = members;
    }
    st
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn random_runs_preserve_all_invariants(choices in prop::collection::vec(any::<u16>(), 1..40)) {
        run(&choices);
    }

    #[test]
    fn cache_order_is_total_on_reachable_caches(choices in prop::collection::vec(any::<u16>(), 1..30)) {
        let st = run(&choices);
        let ids: Vec<_> = st.tree().ids().collect();
        for &a in &ids {
            for &b in &ids {
                let ka = st.key_of(a);
                let kb = st.key_of(b);
                // Key equality on a reachable tree implies commit/target
                // pairing (a CCache shares (time, vrsn) only with its
                // target, which differs in the commit bit) or identity.
                if ka == kb && a != b {
                    prop_assert_eq!(
                        st.cache(a).kind() == CacheKind::Commit,
                        st.cache(b).kind() == CacheKind::Commit
                    );
                }
            }
        }
    }

    #[test]
    fn enumerated_decisions_are_all_valid(choices in prop::collection::vec(any::<u16>(), 1..20)) {
        let st = run(&choices);
        for caller in [NodeId(1), NodeId(2), NodeId(3)] {
            for d in pull_decisions(&st, caller) {
                let mut fork = st.clone();
                prop_assert!(fork.pull(caller, &d).is_ok());
            }
            for d in push_decisions(&st, caller) {
                let mut fork = st.clone();
                prop_assert!(fork.push(caller, &d).is_ok());
            }
        }
    }

    #[test]
    fn states_serialize_losslessly(choices in prop::collection::vec(any::<u16>(), 1..25)) {
        let st = run(&choices);
        // &'static str doesn't deserialize; round-trip through String.
        let json = serde_json::to_string(&st).expect("serialize");
        let back: AdoreState<Majority, String> = serde_json::from_str(&json).expect("deserialize");
        prop_assert_eq!(st.tree().len(), back.tree().len());
        prop_assert_eq!(serde_json::to_string(&back).expect("serialize"), json);
    }

    #[test]
    fn committed_logs_of_replays_are_prefix_closed(
        choices in prop::collection::vec(any::<u16>(), 2..30),
        cut in 1usize..29,
    ) {
        let cut = cut.min(choices.len() - 1);
        let short = run(&choices[..cut]);
        let long = run(&choices);
        let s = short.committed_log();
        let l = long.committed_log();
        prop_assert!(s.len() <= l.len());
        prop_assert_eq!(&l[..s.len()], &s[..]);
    }

    #[test]
    fn windowed_invocations_never_exceed_alpha(
        choices in prop::collection::vec(any::<u16>(), 1..25),
        alpha in 1usize..4,
    ) {
        let conf0 = Majority::new([1, 2, 3]);
        let mut st: St = AdoreState::new(conf0);
        for &c in &choices {
            let caller = NodeId(u32::from(c % 3) + 1);
            match c % 4 {
                0 => {
                    let ds = pull_decisions(&st, caller);
                    if !ds.is_empty() {
                        st.pull(caller, &ds[c as usize % ds.len()]).expect("valid");
                    }
                }
                1 | 2 => {
                    let _ = invoke_windowed(&mut st, caller, "m", alpha);
                }
                _ => {
                    let ds = push_decisions(&st, caller);
                    if !ds.is_empty() {
                        st.push(caller, &ds[c as usize % ds.len()]).expect("valid");
                    }
                }
            }
            // The window property: no branch carries more than `alpha`
            // uncommitted commands.
            for leaf in st.tree().leaves().collect::<Vec<_>>() {
                let mut uncommitted = 0;
                for anc in st.tree().ancestors_inclusive(leaf) {
                    match st.cache(anc).kind() {
                        CacheKind::Method | CacheKind::Reconfig => uncommitted += 1,
                        CacheKind::Commit | CacheKind::Genesis => break,
                        CacheKind::Election => {}
                    }
                }
                prop_assert!(uncommitted <= alpha, "branch carries {uncommitted} > α");
            }
        }
    }
}
