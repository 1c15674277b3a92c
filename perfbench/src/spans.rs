//! Spans and counters recorded by the benchmark around its own calls into
//! the program's public functions.
//!
//! A span is one timed call into a layer: its name is the layer, and it
//! knows its parent span and the op it belongs to. Spans stay in memory
//! until the run ends; [`Tracer::write_jsonl`] then writes them out. A
//! layer's self time is its spans' duration minus the part of each
//! interval that child spans cover ([`self_time_ns`]).

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call into a layer.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer the call belongs to.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op the span belongs to.
    pub op: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans and per-layer counters. Interior mutability lets a
/// `&Tracer` ride inside a [`decor_core::Placer`] wrapper, whose methods
/// take `&self`.
pub struct Tracer {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
    op: Cell<u64>,
    counters: RefCell<BTreeMap<String, f64>>,
}

/// Closes a span when dropped, so a panicking call still leaves the open
/// stack consistent.
struct Open<'a> {
    tracer: &'a Tracer,
    idx: usize,
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        let end = self.tracer.now_ns();
        self.tracer.spans.borrow_mut()[self.idx].end_ns = end;
        self.tracer.open.borrow_mut().pop();
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
            op: Cell::new(0),
            counters: RefCell::new(BTreeMap::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Tags the spans opened from now on with `op`.
    pub fn set_op(&self, op: u64) {
        self.op.set(op);
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<R>(&self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let idx = {
            let mut spans = self.spans.borrow_mut();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent: self.open.borrow().last().copied(),
                op: self.op.get(),
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let _open = Open { tracer: self, idx };
        f()
    }

    /// Adds `v` to the counter `key`.
    pub fn add(&self, key: &str, v: f64) {
        *self
            .counters
            .borrow_mut()
            .entry(key.to_owned())
            .or_insert(0.0) += v;
    }

    /// The counter `key` (0 when never added to).
    pub fn counter(&self, key: &str) -> f64 {
        self.counters.borrow().get(key).copied().unwrap_or(0.0)
    }

    /// Summed duration of every span named `name`, nanoseconds.
    pub fn busy_ns(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Summed self time of every span named `name`, nanoseconds.
    pub fn self_ns(&self, name: &str) -> u64 {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| self_time_ns((s.start_ns, s.end_ns), &mut children[i]))
            .sum()
    }

    /// The recorded spans, one JSON object per line.
    pub fn write_jsonl(&self) -> String {
        let mut out = String::new();
        for s in self.spans.borrow().iter() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, parent
            );
        }
        out
    }
}

/// Duration of `parent` minus the part of it covered by the union of
/// `children` (sorted in place). Children may overlap each other or stick
/// out of the parent; only their union inside the parent is subtracted.
pub fn self_time_ns(parent: (u64, u64), children: &mut [(u64, u64)]) -> u64 {
    let (p0, p1) = parent;
    children.sort_unstable();
    let mut covered = 0u64;
    let mut reach = p0;
    for &(c0, c1) in children.iter() {
        let (c0, c1) = (c0.max(reach), c1.min(p1));
        if c1 > c0 {
            covered += c1 - c0;
            reach = c1;
        }
    }
    p1.saturating_sub(p0) - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_parent_minus_the_union_of_children() {
        // Disjoint children: both subtracted.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 20), (30, 50)]), 70);
        // Overlapping children count once: union of [10,40) and [30,60)
        // is 50 long.
        assert_eq!(self_time_ns((0, 100), &mut [(30, 60), (10, 40)]), 50);
        // A child nested in another child adds nothing.
        assert_eq!(self_time_ns((0, 100), &mut [(10, 90), (20, 30)]), 20);
        // Parts outside the parent are clipped.
        assert_eq!(self_time_ns((50, 100), &mut [(0, 60), (90, 200)]), 30);
        // No children: all self.
        assert_eq!(self_time_ns((5, 25), &mut []), 20);
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let t = Tracer::new();
        t.set_op(7);
        t.span("outer", || {
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
            t.span("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(5))
            });
        });
        let spans = t.spans.borrow().clone();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans.iter().all(|s| s.op == 7));
        let outer = t.busy_ns("outer");
        let inner = t.busy_ns("inner");
        assert!(inner >= 10_000_000);
        assert_eq!(t.self_ns("outer"), outer - inner);
        assert_eq!(t.self_ns("inner"), inner);
        assert_eq!(t.write_jsonl().lines().count(), 3);
    }
}
