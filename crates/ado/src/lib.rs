//! The original ADO model (atomic distributed objects), Appendix D.1.
//!
//! ADORE's predecessor ("Much ADO about Failures", OOPSLA 2021) models a
//! replicated object as a **persistent log** of committed methods plus a
//! **cache tree** of uncommitted ones, with per-client active-cache and
//! per-timestamp ownership maps. Its semantics is *event-sourced*: each
//! operation appends an event ([`Event`]) chosen by an oracle, and the
//! state is the fold of an interpretation function over the event list
//! (Figs. 19–23 of the paper's appendix).
//!
//! This crate reproduces that model faithfully — including the split
//! between event *generation* (oracle-gated, Fig. 21) and event
//! *interpretation* (total, Fig. 22) — both because the paper defines it
//! and because it is the baseline ADORE's evaluation compares against:
//! ADO has no configurations, no supporter metadata, and no
//! reconfiguration, which is precisely what ADORE adds.
//!
//! # Examples
//!
//! ```
//! use adore_ado::{AdoState, NodeId, PullDecision, PushDecision, Timestamp};
//!
//! let mut st: AdoState<&str> = AdoState::new();
//! // S1 wins an election at t1 over the root snapshot.
//! let snapshot = st.root_cid();
//! st.pull(NodeId(1), &PullDecision::Ok { time: Timestamp(1), snapshot }).unwrap();
//! // S1 invokes a method and commits it.
//! let put = st.invoke(NodeId(1), "put").unwrap();
//! st.push(NodeId(1), &PushDecision::Ok { target: put }).unwrap();
//! assert_eq!(st.persistent_log().len(), 1);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
// Static discipline, discharged by clippy (clippy.toml; audit in DESIGN.md §8):
#![cfg_attr(not(test), deny(clippy::disallowed_types))] // L1, closing the cone under the replayable crates

use std::collections::BTreeMap;
use std::fmt;

use serde::{Deserialize, Serialize};

/// Identity of a replica/client (shared shape with `adore-core`'s ids, but
/// kept local so the ADO crate stands alone like the paper's Appendix D).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Logical timestamp of a round.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Timestamp(pub u64);

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A cache identifier: `CID ≜ ⟨N_nid * N_time * CID⟩ | Root` (Fig. 19).
///
/// The recursive parent pointer is flattened into an index into an arena of
/// `(nid, time, parent)` records held by [`AdoState`]; `Cid(0)` is `Root`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Cid(u32);

impl Cid {
    /// The distinguished root CID.
    pub const ROOT: Cid = Cid(0);
}

impl fmt::Display for Cid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if *self == Cid::ROOT {
            f.write_str("Root")
        } else {
            write!(f, "c{}", self.0)
        }
    }
}

#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct CidRecord {
    nid: NodeId,
    time: Timestamp,
    parent: Cid,
}

/// Ownership of a timestamp (`OwnerMap` codomain, Fig. 19).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Owner {
    /// The replica that won the election at this timestamp.
    Node(NodeId),
    /// The timestamp is burned: no one may ever own it (`NoOwn`).
    NoOwn,
}

/// An ADO event (`Ev_ADO`, Fig. 19).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event<M> {
    /// `Pull⁺`: a successful election adopting the snapshot at `snapshot`.
    PullOk {
        /// The elected replica.
        nid: NodeId,
        /// The fresh timestamp.
        time: Timestamp,
        /// The adopted active cache (or root).
        snapshot: Cid,
    },
    /// `Pull*`: a failed election that still burned `time`.
    PullPreempt {
        /// The preempting candidate.
        nid: NodeId,
        /// The burned timestamp.
        time: Timestamp,
    },
    /// `Pull⁻`: an election with no effect.
    PullFail {
        /// The caller.
        nid: NodeId,
    },
    /// `Invoke⁺`: a method appended to the caller's active branch.
    InvokeOk {
        /// The caller.
        nid: NodeId,
        /// The invoked method.
        method: M,
    },
    /// `Invoke⁻`: an invocation with no effect.
    InvokeFail {
        /// The caller.
        nid: NodeId,
    },
    /// `Push⁺`: the prefix up to `target` committed.
    PushOk {
        /// The caller.
        nid: NodeId,
        /// The committed cache.
        target: Cid,
    },
    /// `Push⁻`: a commit attempt with no effect.
    PushFail {
        /// The caller.
        nid: NodeId,
    },
}

/// Oracle decision for `pull` (Fig. 20).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PullDecision {
    /// Succeed with the given fresh timestamp and state snapshot.
    Ok {
        /// The fresh timestamp (must be unowned and beyond the snapshot's).
        time: Timestamp,
        /// The adopted cache (must be in the tree, or the root).
        snapshot: Cid,
    },
    /// Fail but burn the timestamp (`Preempt`).
    Preempt {
        /// The burned timestamp (must be unowned).
        time: Timestamp,
    },
    /// Fail with no effect.
    Fail,
}

/// Oracle decision for `push` (Fig. 20).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PushDecision {
    /// Commit the prefix ending at `target`.
    Ok {
        /// The cache to commit (must belong to the caller at its current
        /// time, with the caller being the maximal owner).
        target: Cid,
    },
    /// Fail with no effect.
    Fail,
}

/// An oracle decision rejected by the valid-oracle rules of Fig. 20.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The chosen timestamp is not beyond the snapshot's timestamp.
    TimeNotFresh,
    /// The chosen timestamp already has an owner (or is burned).
    TimeOwned,
    /// The snapshot/target CID is not in the tree (nor the root).
    UnknownCid,
    /// The push target does not belong to the caller.
    NotOwnCache,
    /// The push target's timestamp is not the caller's current round.
    WrongRound,
    /// The caller is not the maximal owner — it has been preempted.
    NotMaxOwner,
    /// The caller has no active cache (it must pull first).
    NoActiveCache,
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OracleError::TimeNotFresh => "timestamp is not beyond the snapshot's",
            OracleError::TimeOwned => "timestamp is already owned or burned",
            OracleError::UnknownCid => "cid is not present in the tree",
            OracleError::NotOwnCache => "push target belongs to another replica",
            OracleError::WrongRound => "push target is from a stale round",
            OracleError::NotMaxOwner => "caller has been preempted by a newer owner",
            OracleError::NoActiveCache => "caller has no active cache",
        };
        f.write_str(s)
    }
}

impl std::error::Error for OracleError {}

/// The ADO state: persistent log, cache tree, active-cache map, and owner
/// map (`Σ_ADO`, Fig. 19), together with the event log it was folded from.
///
/// Mutations validate oracle decisions (Fig. 20), append the corresponding
/// [`Event`], and interpret it (Fig. 22). [`AdoState::replay`] re-folds the
/// event log from scratch — the executable form of `interpAll` — and is
/// asserted equal to the incrementally maintained state in tests.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AdoState<M> {
    events: Vec<Event<M>>,
    /// Arena backing the recursive `CID` type; index 0 is `Root`.
    cids: Vec<CidRecord>,
    /// Committed methods, oldest first.
    persistent: Vec<(Cid, M)>,
    /// Uncommitted caches currently in the tree.
    tree: BTreeMap<Cid, M>,
    /// Each client's active cache.
    active: BTreeMap<NodeId, Cid>,
    /// Ownership per timestamp.
    owners: BTreeMap<Timestamp, Owner>,
}

impl<M: Clone + Eq + fmt::Debug> AdoState<M> {
    /// Creates the initial state: empty log, empty tree, no owners.
    #[must_use]
    pub fn new() -> Self {
        AdoState {
            events: Vec::new(),
            cids: vec![CidRecord {
                nid: NodeId(0),
                time: Timestamp(0),
                parent: Cid::ROOT,
            }],
            persistent: Vec::new(),
            tree: BTreeMap::new(),
            active: BTreeMap::new(),
            owners: BTreeMap::new(),
        }
    }

    /// The current root snapshot: the CID of the last committed cache, or
    /// [`Cid::ROOT`] if nothing has been committed (`root(evs)`, Fig. 23).
    #[must_use]
    pub fn root_cid(&self) -> Cid {
        self.persistent.last().map_or(Cid::ROOT, |(c, _)| *c)
    }

    /// The committed methods, oldest first (`PersistLog`).
    #[must_use]
    pub fn persistent_log(&self) -> Vec<&M> {
        self.persistent.iter().map(|(_, m)| m).collect()
    }

    /// The uncommitted caches currently in the tree.
    #[must_use]
    pub fn cache_tree(&self) -> &BTreeMap<Cid, M> {
        &self.tree
    }

    /// The event log accumulated so far.
    #[must_use]
    pub fn events(&self) -> &[Event<M>] {
        &self.events
    }

    /// The active cache of `nid`, if it has pulled since the last commit
    /// that invalidated it.
    #[must_use]
    pub fn active_cache(&self, nid: NodeId) -> Option<Cid> {
        self.active.get(&nid).copied()
    }

    /// The owner recorded at `time` (`owners(evs)[time]`).
    #[must_use]
    pub fn owner_at(&self, time: Timestamp) -> Option<Owner> {
        self.owners.get(&time).copied()
    }

    /// `noOwnerAt`: the timestamp is absent from the owner map or burned.
    #[must_use]
    pub fn no_owner_at(&self, time: Timestamp) -> bool {
        matches!(self.owners.get(&time), None | Some(Owner::NoOwn))
    }

    /// `maxOwner`: the owner entry at the largest recorded timestamp.
    #[must_use]
    pub fn max_owner(&self) -> Option<Owner> {
        self.owners.iter().next_back().map(|(_, o)| *o)
    }

    /// The timestamp recorded in `cid` (`timeOf`); root is time zero.
    #[must_use]
    pub fn time_of(&self, cid: Cid) -> Option<Timestamp> {
        self.cids.get(cid.0 as usize).map(|r| r.time)
    }

    /// The replica recorded in `cid` (`nidOf`); root reports `S0`.
    #[must_use]
    pub fn nid_of(&self, cid: Cid) -> Option<NodeId> {
        self.cids.get(cid.0 as usize).map(|r| r.nid)
    }

    /// `cid1 ≤ cid2`: ancestor-or-self on the CID parent chain (Fig. 23).
    #[must_use]
    pub fn cid_le(&self, cid1: Cid, cid2: Cid) -> bool {
        let mut cur = cid2;
        loop {
            if cur == cid1 {
                return true;
            }
            if cur == Cid::ROOT {
                return false;
            }
            cur = self.cids[cur.0 as usize].parent;
        }
    }

    fn fresh_cid(&mut self, nid: NodeId, time: Timestamp, parent: Cid) -> Cid {
        let cid = Cid(u32::try_from(self.cids.len()).expect("cid overflow"));
        self.cids.push(CidRecord { nid, time, parent });
        cid
    }

    /// `voteNoOwn`: burns every timestamp `≤ time` that has no entry yet.
    fn vote_no_own(&mut self, time: Timestamp) {
        // The paper quantifies over all unmapped t ≤ time; only timestamps
        // that could still matter are those above the current maximum, so
        // burning is recorded sparsely: a single entry at `time` suffices
        // because `no_owner_at` consults the map per-timestamp and `pull`
        // always checks its specific t. To stay faithful to `maxOwner`
        // semantics, the burn marker is written at `time` itself when empty.
        self.owners.entry(time).or_insert(Owner::NoOwn);
    }

    /// Performs `pull(nid)` under the supplied oracle decision.
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] if the decision violates the
    /// `ValidPullOracle` rule: the snapshot must exist (or be the root),
    /// the timestamp must be strictly beyond the snapshot's, and the
    /// timestamp must be unowned.
    pub fn pull(&mut self, nid: NodeId, decision: &PullDecision) -> Result<(), OracleError> {
        match decision {
            PullDecision::Ok { time, snapshot } => {
                let known = *snapshot == self.root_cid()
                    || self.tree.contains_key(snapshot)
                    || *snapshot == Cid::ROOT;
                if !known {
                    return Err(OracleError::UnknownCid);
                }
                let snap_time = self.time_of(*snapshot).ok_or(OracleError::UnknownCid)?;
                if snap_time >= *time {
                    return Err(OracleError::TimeNotFresh);
                }
                if !self.no_owner_at(*time) {
                    return Err(OracleError::TimeOwned);
                }
                let ev = Event::PullOk {
                    nid,
                    time: *time,
                    snapshot: *snapshot,
                };
                self.events.push(ev.clone());
                self.interp(&ev);
                Ok(())
            }
            PullDecision::Preempt { time } => {
                if !self.no_owner_at(*time) {
                    return Err(OracleError::TimeOwned);
                }
                let ev = Event::PullPreempt { nid, time: *time };
                self.events.push(ev.clone());
                self.interp(&ev);
                Ok(())
            }
            PullDecision::Fail => {
                let ev = Event::PullFail { nid };
                self.events.push(ev.clone());
                self.interp(&ev);
                Ok(())
            }
        }
    }

    /// Performs `invoke(nid, method)`: appends to the caller's active
    /// branch if its active cache is still viable, otherwise records a
    /// failure event (`MethodFailure`).
    ///
    /// Returns the new cache's CID on success.
    ///
    /// # Errors
    ///
    /// [`OracleError::NoActiveCache`] if the caller has never pulled or its
    /// active cache was discarded by a commit; the failure event is still
    /// recorded, matching the paper's no-op rule.
    pub fn invoke(&mut self, nid: NodeId, method: M) -> Result<Cid, OracleError> {
        let viable = self.active.get(&nid).copied().filter(|cid| {
            self.tree.contains_key(cid) || *cid == self.root_cid() || *cid == Cid::ROOT
        });
        match viable {
            Some(_) => {
                let ev = Event::InvokeOk { nid, method };
                self.events.push(ev.clone());
                self.interp(&ev);
                Ok(self.active[&nid])
            }
            None => {
                let ev = Event::InvokeFail { nid };
                self.events.push(ev.clone());
                self.interp(&ev);
                Err(OracleError::NoActiveCache)
            }
        }
    }

    /// Performs `push(nid)` under the supplied oracle decision.
    ///
    /// # Errors
    ///
    /// Returns an [`OracleError`] if the decision violates the
    /// `ValidPushOracle` rule: the target must be an uncommitted cache of
    /// the caller at the caller's current round, and the caller must be the
    /// maximal owner.
    pub fn push(&mut self, nid: NodeId, decision: &PushDecision) -> Result<(), OracleError> {
        match decision {
            PushDecision::Ok { target } => {
                if !self.tree.contains_key(target) {
                    return Err(OracleError::UnknownCid);
                }
                if self.nid_of(*target) != Some(nid) {
                    return Err(OracleError::NotOwnCache);
                }
                // The caller's current round: the largest time it owns.
                let current = self
                    .owners
                    .iter()
                    .rev()
                    .find(|(_, o)| **o == Owner::Node(nid))
                    .map(|(t, _)| *t);
                if self.time_of(*target) != current {
                    return Err(OracleError::WrongRound);
                }
                if self.max_owner() != Some(Owner::Node(nid)) {
                    return Err(OracleError::NotMaxOwner);
                }
                let ev = Event::PushOk {
                    nid,
                    target: *target,
                };
                self.events.push(ev.clone());
                self.interp(&ev);
                Ok(())
            }
            PushDecision::Fail => {
                let ev = Event::PushFail { nid };
                self.events.push(ev.clone());
                self.interp(&ev);
                Ok(())
            }
        }
    }

    /// Interprets one event (`interp_ADO`, Fig. 22).
    fn interp(&mut self, ev: &Event<M>) {
        match ev {
            Event::PullOk {
                nid,
                time,
                snapshot,
            } => {
                self.active.insert(*nid, *snapshot);
                self.owners.insert(*time, Owner::Node(*nid));
                if time.0 > 0 {
                    self.vote_no_own(Timestamp(time.0 - 1));
                }
            }
            Event::PullPreempt { time, .. } => {
                self.vote_no_own(*time);
            }
            Event::InvokeOk { nid, method } => {
                let parent = self.active[nid];
                // The caller's round is the largest timestamp it owns.
                let time = self
                    .owners
                    .iter()
                    .rev()
                    .find(|(_, o)| **o == Owner::Node(*nid))
                    .map_or(Timestamp(0), |(t, _)| *t);
                let cid = self.fresh_cid(*nid, time, parent);
                self.tree.insert(cid, method.clone());
                self.active.insert(*nid, cid);
            }
            Event::PushOk { target, .. } => {
                // `partition(cs, ccid)`: commit the ancestors-or-self of the
                // target (sorted root-to-leaf), keep its descendants, drop
                // the sibling branches.
                let committed: Vec<Cid> = {
                    let mut chain = Vec::new();
                    let mut cur = *target;
                    while self.tree.contains_key(&cur) {
                        chain.push(cur);
                        cur = self.cids[cur.0 as usize].parent;
                    }
                    chain.reverse();
                    chain
                };
                for cid in &committed {
                    let m = self.tree.remove(cid).expect("committed cache in tree");
                    self.persistent.push((*cid, m));
                }
                let survivors: BTreeMap<Cid, M> = std::mem::take(&mut self.tree)
                    .into_iter()
                    .filter(|(cid, _)| self.cid_le(*target, *cid))
                    .collect();
                self.tree = survivors;
                // Active caches pointing at discarded branches are dropped.
                let root = self.root_cid();
                let tree = &self.tree;
                self.active
                    .retain(|_, cid| tree.contains_key(cid) || *cid == root);
            }
            Event::PullFail { .. } | Event::InvokeFail { .. } | Event::PushFail { .. } => {}
        }
    }

    /// Re-folds the entire event log from the initial state
    /// (`interpAll_ADO`, Fig. 19) and returns the result.
    ///
    /// Equality with the incrementally maintained state is the executable
    /// form of the model's fold/step coherence.
    #[must_use]
    pub fn replay(&self) -> Self {
        let mut st = AdoState::new();
        for ev in &self.events {
            // Re-interpreting recomputes CIDs deterministically because the
            // arena allocates in event order.
            st.events.push(ev.clone());
            let ev = ev.clone();
            st.interp(&ev);
        }
        st
    }
}

impl<M: Clone + Eq + fmt::Debug> Default for AdoState<M> {
    fn default() -> Self {
        AdoState::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pulled(st: &mut AdoState<&'static str>, nid: u32, t: u64) {
        let snapshot = st.active_cache(NodeId(nid)).unwrap_or(st.root_cid());
        st.pull(
            NodeId(nid),
            &PullDecision::Ok {
                time: Timestamp(t),
                snapshot,
            },
        )
        .unwrap();
    }

    #[test]
    fn initial_state_is_empty() {
        let st: AdoState<&str> = AdoState::new();
        assert_eq!(st.root_cid(), Cid::ROOT);
        assert!(st.persistent_log().is_empty());
        assert!(st.cache_tree().is_empty());
        assert_eq!(st.max_owner(), None);
    }

    #[test]
    fn pull_records_owner_and_active_cache() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        assert_eq!(st.owner_at(Timestamp(1)), Some(Owner::Node(NodeId(1))));
        assert_eq!(st.active_cache(NodeId(1)), Some(Cid::ROOT));
        assert_eq!(st.max_owner(), Some(Owner::Node(NodeId(1))));
    }

    #[test]
    fn pull_rejects_owned_time() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        let err = st
            .pull(
                NodeId(2),
                &PullDecision::Ok {
                    time: Timestamp(1),
                    snapshot: Cid::ROOT,
                },
            )
            .unwrap_err();
        assert_eq!(err, OracleError::TimeOwned);
    }

    #[test]
    fn preempt_burns_the_timestamp_and_blocks_older_pushes() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        let a = st.invoke(NodeId(1), "a").unwrap();
        // S2's election gathers too few votes, but still takes supporters
        // away from S1: timestamp 3 is burned.
        st.pull(NodeId(2), &PullDecision::Preempt { time: Timestamp(3) })
            .unwrap();
        assert_eq!(st.owner_at(Timestamp(3)), Some(Owner::NoOwn));
        // S1 is no longer the maximal owner and cannot commit.
        assert_eq!(
            st.push(NodeId(1), &PushDecision::Ok { target: a }),
            Err(OracleError::NotMaxOwner)
        );
        // A burned timestamp carries no owner, so a later election may
        // still claim it (`noOwnerAt` treats NoOwn as vacant).
        assert!(st.no_owner_at(Timestamp(3)));
        st.pull(
            NodeId(2),
            &PullDecision::Ok {
                time: Timestamp(3),
                snapshot: Cid::ROOT,
            },
        )
        .unwrap();
        assert_eq!(st.owner_at(Timestamp(3)), Some(Owner::Node(NodeId(2))));
    }

    #[test]
    fn invoke_requires_a_pull_first() {
        let mut st: AdoState<&str> = AdoState::new();
        assert_eq!(st.invoke(NodeId(1), "m"), Err(OracleError::NoActiveCache));
        // The failure is still an event.
        assert_eq!(st.events().len(), 1);
    }

    #[test]
    fn invoke_grows_the_active_branch() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        let c1 = st.invoke(NodeId(1), "a").unwrap();
        let c2 = st.invoke(NodeId(1), "b").unwrap();
        assert_ne!(c1, c2);
        assert!(st.cid_le(c1, c2));
        assert_eq!(st.cache_tree().len(), 2);
    }

    #[test]
    fn push_commits_prefix_and_discards_siblings() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        let a = st.invoke(NodeId(1), "a").unwrap();
        let _b = st.invoke(NodeId(1), "b").unwrap();
        // A rival leader builds a sibling branch from the root.
        st.pull(
            NodeId(2),
            &PullDecision::Ok {
                time: Timestamp(2),
                snapshot: Cid::ROOT,
            },
        )
        .unwrap();
        let x = st.invoke(NodeId(2), "x").unwrap();
        // S2 commits x: S1's branch a·b is discarded entirely.
        st.push(NodeId(2), &PushDecision::Ok { target: x }).unwrap();
        assert_eq!(st.persistent_log(), vec![&"x"]);
        assert!(st.cache_tree().is_empty());
        assert_eq!(st.root_cid(), x);
        // S1's active cache was on a discarded branch.
        assert_eq!(st.active_cache(NodeId(1)), None);
        let _ = a;
    }

    #[test]
    fn push_partial_prefix_keeps_descendants() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        let a = st.invoke(NodeId(1), "a").unwrap();
        let b = st.invoke(NodeId(1), "b").unwrap();
        st.push(NodeId(1), &PushDecision::Ok { target: a }).unwrap();
        assert_eq!(st.persistent_log(), vec![&"a"]);
        // b survives as a viable uncommitted suffix.
        assert!(st.cache_tree().contains_key(&b));
        assert_eq!(st.root_cid(), a);
    }

    #[test]
    fn preempted_leader_cannot_push() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        let a = st.invoke(NodeId(1), "a").unwrap();
        // S2 takes over at t2.
        st.pull(
            NodeId(2),
            &PullDecision::Ok {
                time: Timestamp(2),
                snapshot: a,
            },
        )
        .unwrap();
        let err = st
            .push(NodeId(1), &PushDecision::Ok { target: a })
            .unwrap_err();
        assert_eq!(err, OracleError::NotMaxOwner);
    }

    #[test]
    fn push_rejects_foreign_and_stale_targets() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        let a = st.invoke(NodeId(1), "a").unwrap();
        // S2 pulls adopting S1's cache, then invokes its own method.
        st.pull(
            NodeId(2),
            &PullDecision::Ok {
                time: Timestamp(2),
                snapshot: a,
            },
        )
        .unwrap();
        let x = st.invoke(NodeId(2), "x").unwrap();
        // S2 cannot commit S1's cache.
        assert_eq!(
            st.push(NodeId(2), &PushDecision::Ok { target: a }),
            Err(OracleError::NotOwnCache)
        );
        // But committing its own cache sweeps in the ancestor a as well.
        st.push(NodeId(2), &PushDecision::Ok { target: x }).unwrap();
        assert_eq!(st.persistent_log(), vec![&"a", &"x"]);
    }

    #[test]
    fn replay_reconstructs_the_state() {
        let mut st: AdoState<&str> = AdoState::new();
        pulled(&mut st, 1, 1);
        st.invoke(NodeId(1), "a").unwrap();
        let b = st.invoke(NodeId(1), "b").unwrap();
        st.push(NodeId(1), &PushDecision::Ok { target: b }).unwrap();
        pulled(&mut st, 1, 2);
        st.invoke(NodeId(1), "c").unwrap();
        let replayed = st.replay();
        assert_eq!(st, replayed);
    }

    #[test]
    fn failed_ops_are_noops_but_recorded() {
        let mut st: AdoState<&str> = AdoState::new();
        st.pull(NodeId(1), &PullDecision::Fail).unwrap();
        st.push(NodeId(1), &PushDecision::Fail).unwrap();
        assert_eq!(st.events().len(), 2);
        let fresh: AdoState<&str> = AdoState::new();
        assert_eq!(st.persistent_log(), fresh.persistent_log());
        assert_eq!(st.cache_tree(), fresh.cache_tree());
    }

    #[test]
    fn display_formats() {
        assert_eq!(NodeId(2).to_string(), "S2");
        assert_eq!(Timestamp(3).to_string(), "t3");
        assert_eq!(Cid::ROOT.to_string(), "Root");
        assert_eq!(Cid(4).to_string(), "c4");
    }
}
