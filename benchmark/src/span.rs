//! Spans recorded from the benchmark's own files, around public calls.
//!
//! A span is `name, start, end, parent, op`: spans of one operation share
//! `op`. They stay in memory until the run ends. A layer's *self time* is
//! its span minus the part of it that its child spans cover.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Serialize;

/// One recorded span. Times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct Span {
    /// Index of this span in the recorder.
    pub id: u32,
    /// The span that was open when this one started.
    pub parent: Option<u32>,
    /// The operation this span belongs to.
    pub op: u64,
    /// Layer boundary, e.g. `engine.leader_put_step`.
    pub name: &'static str,
    /// Start, ns.
    pub start_ns: u64,
    /// End, ns.
    pub end_ns: u64,
}

impl Span {
    /// Duration, ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder for one thread.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    op: u64,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Spans opened from now on belong to operation `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Opens a span under whichever span is open now.
    pub fn open(&mut self, name: &'static str) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 2^32 spans");
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    /// Records `f` as one span.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.open(name);
        let out = f();
        self.close(id);
        out
    }

    /// Records a span that was timed by the caller, who decides only
    /// afterwards whether it counts.
    pub fn add(&mut self, name: &'static str, started: Instant, ended: Instant) {
        let id = self.open(name);
        let at = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        (
            self.spans[id as usize].start_ns,
            self.spans[id as usize].end_ns,
        ) = (at(started), at(ended));
        self.open.pop();
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, ns, indexed like `spans`: its duration minus
/// the union of its children's intervals (clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(s.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.dur_ns().saturating_sub(covered)
        })
        .collect()
}

/// Per span name: how many spans, and their summed self time in ns.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut by_name: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let slot = by_name.entry(s.name).or_default();
        slot.0 += 1;
        slot.1 += own;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: if parent.is_none() { "op" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = vec![
            span(0, None, 0, 100),
            span(1, Some(0), 10, 30),
            // Overlaps span 1: only 30..40 is newly covered.
            span(2, Some(0), 20, 40),
            // Sticks out of the parent: clipped at 100.
            span(3, Some(0), 90, 120),
            // A grandchild takes from span 1, not from the root.
            span(4, Some(1), 12, 17),
        ];
        assert_eq!(self_times_ns(&spans), vec![60, 15, 20, 30, 5]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["op"], (1, 60));
        assert_eq!(by_name["child"], (4, 70));
    }

    #[test]
    fn the_recorder_links_parents_and_operations() {
        let mut rec = Recorder::new();
        rec.set_op(7);
        let op = rec.open("op");
        let v = rec.time("leaf", || 41 + 1);
        rec.close(op);
        assert_eq!(v, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns);
        assert!(spans[1].end_ns <= spans[0].end_ns);
    }
}
