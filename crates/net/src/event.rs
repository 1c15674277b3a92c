//! A deterministic discrete-event queue.
//!
//! Simulation time is an integer tick count ([`Time`]); callers choose the
//! tick granularity (the heartbeat simulator uses 1 tick = 1 ms). Events
//! scheduled for the same tick pop in FIFO order thanks to a monotone
//! sequence number, which keeps runs bit-for-bit reproducible regardless of
//! heap internals.
//!
//! Events pop in ascending `(time, seq)` order. An event scheduled *at the
//! current instant* skips the heap and joins a FIFO of due-now events,
//! which pops after the heap's entries at that instant. That is the same
//! order: a heap entry at the current instant was scheduled before the
//! clock reached it, so before every due-now event, and its sequence
//! number is smaller; the clock cannot advance while the FIFO holds
//! anything, because its events are the earliest left. The transport's
//! first attempts and link hand-offs are all due now, so a lossless flush
//! never touches the heap.

use std::collections::{BinaryHeap, VecDeque};

/// Simulation time in ticks.
pub type Time = u64;

/// A time-ordered event queue with stable FIFO tie-breaking.
///
/// `BinaryHeap` needs `Ord` on the stored items; `HeapItem` implements it
/// manually on `(time, seq)` only, so the event payload `E` needs no
/// ordering traits.
pub struct EventQueue<E> {
    heap: BinaryHeap<HeapItem<E>>,
    /// Events scheduled at the current instant, in scheduling order; they
    /// pop after the heap's entries at that instant.
    due: VecDeque<E>,
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
            due: VecDeque::new(),
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
    /// keeping the heap's and the due-now FIFO's buffers, so a reused
    /// queue schedules without reallocating.
    pub fn reset(&mut self) {
        self.heap.clear();
        self.due.clear();
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
        if at == self.now {
            self.due.push_back(event);
        } else {
            self.heap.push(HeapItem {
                time: at,
                seq,
                event,
            });
        }
    }

    /// Schedules `event` `delay` ticks after the current time.
    pub fn schedule_after(&mut self, delay: Time, event: E) {
        self.schedule(self.now + delay, event);
    }

    /// Pops the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let heap_first = self.heap.peek().is_some_and(|i| i.time == self.now);
        if !heap_first {
            if let Some(event) = self.due.pop_front() {
                return Some((self.now, event));
            }
        }
        let item = self.heap.pop()?;
        self.now = item.time;
        Some((item.time, item.event))
    }

    /// Timestamp of the next event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        if self.due.is_empty() {
            self.heap.peek().map(|i| i.time)
        } else {
            Some(self.now)
        }
    }

    /// Number of pending events.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.due.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(5, i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((5, i)));
        }
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), 0);
        q.schedule(7, ());
        q.schedule(3, ());
        q.pop();
        assert_eq!(q.now(), 3);
        q.pop();
        assert_eq!(q.now(), 7);
    }

    #[test]
    fn schedule_after_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(10, "first");
        q.pop();
        q.schedule_after(5, "second");
        assert_eq!(q.pop(), Some((15, "second")));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, ());
        q.pop();
        q.schedule(5, ());
    }

    #[test]
    fn peek_does_not_consume() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(4, ());
        q.schedule(2, ());
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(q.peek_time(), Some(2));
        assert_eq!(q.pop().map(|(t, _)| t), Some(2));
        assert_eq!(q.pop().map(|(t, _)| t), Some(4));
        assert_eq!(q.pop().map(|(t, _)| t), None);
    }

    #[test]
    fn due_now_events_pop_after_heap_entries_at_the_same_instant() {
        let mut q = EventQueue::new();
        q.schedule(0, "now");
        q.schedule(5, "a");
        q.schedule(5, "b");
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((0, "now")));
        assert_eq!(q.pop(), Some((5, "a")));
        q.schedule_after(0, "c");
        assert_eq!(q.peek_time(), Some(5));
        assert_eq!(q.pop(), Some((5, "b")));
        assert_eq!(q.pop(), Some((5, "c")));
        assert_eq!(q.pop(), None);
        q.schedule_after(0, "d");
        q.reset();
        assert_eq!((q.len(), q.now(), q.peek_time()), (0, 0, None));
    }

    #[test]
    fn events_scheduled_during_run_are_processed() {
        // Simulates a periodic process rescheduling itself.
        let mut q = EventQueue::new();
        q.schedule(0, ());
        let mut fired = Vec::new();
        while let Some((t, ())) = q.pop() {
            fired.push(t);
            if t < 50 {
                q.schedule(t + 10, ());
            }
        }
        assert_eq!(fired, vec![0, 10, 20, 30, 40, 50]);
    }
}
