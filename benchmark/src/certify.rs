//! The `certify` workload: the cost of certifying each abstraction level.
//!
//! No cluster. One *pair* is a bounded-exhaustive exploration of the
//! ADORE model followed by one of the network model, both for two nodes
//! with reconfiguration and one spare. Pairs repeat until the window is
//! over. The depths are chosen so that a pair takes about a second on a
//! small box and a ten-second window holds several; the state and
//! transition counts of each depth repeat exactly and are pinned.

use std::time::{Duration, Instant};

use adore_checker::{explore, explore_net, fig4_scenario, ExploreParams, NetExploreParams};
use adore_core::ReconfigGuard;
use adore_schemes::SingleNode;

/// Depth of the ADORE-level exploration, with its pinned counts.
const ADORE_DEPTH: usize = 7;
const ADORE_STATES: usize = 27_398;
const ADORE_TRANSITIONS: u64 = 34_380;
/// Depth of the network-level exploration, with its pinned counts.
const NET_DEPTH: usize = 9;
const NET_STATES: usize = 47_951;
const NET_TRANSITIONS: u64 = 104_176;

/// Wall time and size of one exploration.
#[derive(Debug, Clone, Copy)]
pub struct Explored {
    /// Distinct states visited.
    pub states: usize,
    /// Transitions taken.
    pub transitions: u64,
    /// Wall time, s.
    pub wall_s: f64,
    /// SAFE, complete, and exactly the pinned counts.
    pub ok: bool,
}

fn conf0() -> SingleNode {
    SingleNode::new([1, 2])
}

fn explore_adore(depth: usize) -> Explored {
    let started = Instant::now();
    let report = explore(
        &conf0(),
        &ExploreParams {
            max_depth: depth,
            max_states: usize::MAX,
            ..ExploreParams::default()
        },
    );
    Explored {
        states: report.states,
        transitions: report.transitions,
        wall_s: started.elapsed().as_secs_f64(),
        ok: report.is_safe()
            && !report.truncated
            && (depth != ADORE_DEPTH
                || (report.states, report.transitions) == (ADORE_STATES, ADORE_TRANSITIONS)),
    }
}

fn explore_network(depth: usize) -> Explored {
    let started = Instant::now();
    let report = explore_net(
        &conf0(),
        &NetExploreParams {
            max_depth: depth,
            max_states: usize::MAX,
            ..NetExploreParams::default()
        },
    );
    Explored {
        states: report.states,
        transitions: report.transitions,
        wall_s: started.elapsed().as_secs_f64(),
        ok: !report.log_safety_violated
            && !report.truncated
            && (depth != NET_DEPTH
                || (report.states, report.transitions) == (NET_STATES, NET_TRANSITIONS)),
    }
}

/// Set-up of `certify`: a shallow exploration of each level, which pages
/// the checker in and fills the allocator before anything is timed.
/// Returns the seconds it took.
pub fn warm_up() -> Result<f64, String> {
    let started = Instant::now();
    if !(explore_adore(ADORE_DEPTH - 2).ok && explore_network(NET_DEPTH - 2).ok) {
        return Err("certify: the warm-up exploration was not SAFE".to_string());
    }
    Ok(started.elapsed().as_secs_f64())
}

/// The checker must keep its discriminating power: the paper's Fig. 4
/// schedule ends in diverging commits once R3 is dropped from the guard,
/// and the full guard rejects the schedule's first reconfiguration.
pub fn fig4_discriminates() -> Result<(), String> {
    let (ablated, _) = fig4_scenario(ReconfigGuard::all().without_r3()).run();
    if ablated.violation.is_none() {
        return Err("certify: without R3 the Fig. 4 schedule must violate safety".to_string());
    }
    let (guarded, _) = fig4_scenario(ReconfigGuard::all()).run();
    if guarded.violation.is_some() || guarded.first_noop.is_none() {
        return Err("certify: the full guard must reject the Fig. 4 schedule".to_string());
    }
    Ok(())
}

/// One window of exploration pairs.
#[derive(Debug, Default)]
pub struct CertifyWindow {
    /// ADORE-level explorations, in order.
    pub adore: Vec<Explored>,
    /// Network-level explorations, in order.
    pub net: Vec<Explored>,
    /// Wall time of each pair, s.
    pub pair_s: Vec<f64>,
    /// Wall time of the whole window, s.
    pub wall_s: f64,
}

impl CertifyWindow {
    /// States explored over the window, both levels.
    pub fn states(&self) -> u64 {
        self.adore
            .iter()
            .chain(&self.net)
            .map(|e| e.states as u64)
            .sum()
    }

    /// Explorations run, and explorations whose verdict or counts were
    /// not the pinned ones.
    pub fn attempted_failed(&self) -> (u64, u64) {
        let all = self.adore.iter().chain(&self.net);
        (
            (self.adore.len() + self.net.len()) as u64,
            all.filter(|e| !e.ok).count() as u64,
        )
    }
}

/// Runs pairs until `window` is over (the pair in progress finishes).
pub fn measure(window: Duration) -> CertifyWindow {
    let mut out = CertifyWindow::default();
    let started = Instant::now();
    while started.elapsed() < window {
        let pair = Instant::now();
        out.adore.push(explore_adore(ADORE_DEPTH));
        out.net.push(explore_network(NET_DEPTH));
        out.pair_s.push(pair.elapsed().as_secs_f64());
    }
    out.wall_s = started.elapsed().as_secs_f64();
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_checker_discriminates_on_fig4() {
        fig4_discriminates().expect("fig4 under both guards");
    }

    #[test]
    fn shallow_explorations_are_safe() {
        assert!(explore_adore(3).ok);
        assert!(explore_network(3).ok);
    }
}
