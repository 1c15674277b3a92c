//! Test oracle: the discrete-event queue as it was before the due-now
//! FIFO, kept verbatim. Every event, due now or later, goes through the
//! binary heap, ordered by `(time, seq)`.
//!
//! `event_queue_oracle.rs` holds `decor_net::EventQueue` to it, and the
//! frozen transport and detector in `transport_oracle.rs` and
//! `detect_oracle.rs` run on it, so neither reference shares the
//! production queue. Only the unit tests and the `#[cfg(test)]` `len`
//! were left out.
//!
//! Include it with `#[path = "oracle/heap_queue.rs"] mod heap_queue;`.

#![allow(dead_code)] // each including test binary uses a different subset

use std::collections::BinaryHeap;

/// Simulation time in ticks.
pub type Time = u64;

/// A time-ordered event queue with stable FIFO tie-breaking.
///
/// `BinaryHeap` needs `Ord` on the stored items; `HeapItem` implements it
/// manually on `(time, seq)` only, so the event payload `E` needs no
/// ordering traits.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapItem<E>>,
    seq: u64,
    now: Time,
}

struct HeapItem<E> {
    time: Time,
    seq: u64,
    event: E,
}

impl<E> PartialEq for HeapItem<E> {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl<E> Eq for HeapItem<E> {}
impl<E> PartialOrd for HeapItem<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for HeapItem<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: invert so the earliest (time, seq) pops first.
        (other.time, other.seq).cmp(&(self.time, self.seq))
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulation time: the timestamp of the last popped event
    /// (zero before any pop).
    pub fn now(&self) -> Time {
        self.now
    }

    /// Returns the queue to its initial state (empty, time zero) while
    /// keeping the heap's buffer, so a reused queue schedules without
    /// reallocating.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.seq = 0;
        self.now = 0;
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// Panics when scheduling into the past (`at < now`): discrete-event
    /// causality violation.
    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "cannot schedule event at {at}, simulation time is already {}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(HeapItem {
            time: at,
            seq,
            event,
        });
    }

    /// Schedules `event` `delay` ticks after the current time.
    pub fn schedule_after(&mut self, delay: Time, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let item = self.heap.pop()?;
        self.now = item.time;
        Some((item.time, item.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|i| i.time)
    }
}
