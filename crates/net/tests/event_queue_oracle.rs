//! Differential tier for the discrete-event queue: [`EventQueue`], whose
//! events due at the current instant wait in a FIFO instead of the heap,
//! against the frozen heap-only queue it replaced.
//!
//! Scripts interleave `schedule`, `schedule_after`, `pop` and `reset`,
//! with delays that are often 0 and absolute times that often tie, so an
//! event is regularly scheduled at the current instant while the heap
//! still holds entries at that instant: the one case the FIFO orders
//! differently inside, and must pop in the same `(time, seq)` order. After
//! every step both queues must agree on `now`, `peek_time` and the popped
//! `(time, event)`.

use decor_net::EventQueue;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[path = "oracle/heap_queue.rs"]
mod heap_queue;

/// Pops one event from both queues and requires the same answer.
fn pop_both(fast: &mut EventQueue<usize>, slow: &mut heap_queue::EventQueue<usize>) -> bool {
    assert_eq!(fast.peek_time(), slow.peek_time(), "peek_time");
    let popped = fast.pop();
    assert_eq!(popped, slow.pop(), "popped event");
    assert_eq!(fast.now(), slow.now(), "clock");
    popped.is_some()
}

/// Runs one random script on both queues, then drains them.
fn run_script(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fast = EventQueue::new();
    let mut slow = heap_queue::EventQueue::new();
    // Short horizons make same-instant ties common; long ones spread out.
    let max_delay: u64 = [0, 1, 3, 40][rng.gen_range(0..4usize)];
    let steps = rng.gen_range(1..400usize);
    for event in 0..steps {
        match rng.gen_range(0..20u32) {
            0..=10 => {
                let delay = if rng.gen_bool(0.4) {
                    0
                } else {
                    rng.gen_range(0..=max_delay)
                };
                if rng.gen_bool(0.5) {
                    fast.schedule_after(delay, event);
                    slow.schedule_after(delay, event);
                } else {
                    let at = slow.now() + delay;
                    fast.schedule(at, event);
                    slow.schedule(at, event);
                }
            }
            11 => {
                fast.reset();
                slow.reset();
            }
            _ => {
                pop_both(&mut fast, &mut slow);
            }
        }
    }
    while pop_both(&mut fast, &mut slow) {}
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn event_queue_matches_the_heap_only_oracle(seed in any::<u64>()) {
        run_script(seed);
    }
}

#[test]
fn due_now_events_follow_heap_entries_at_the_same_instant() {
    // Three heap entries at t=5; popping the first and scheduling at t=5
    // again (relative and absolute) must pop the other two heap entries
    // first, then the due-now events in scheduling order.
    let mut fast = EventQueue::new();
    let mut slow = heap_queue::EventQueue::new();
    for (at, event) in [(5, 0), (5, 1), (9, 2), (5, 3)] {
        fast.schedule(at, event);
        slow.schedule(at, event);
    }
    assert!(pop_both(&mut fast, &mut slow));
    fast.schedule_after(0, 4);
    slow.schedule_after(0, 4);
    fast.schedule(5, 5);
    slow.schedule(5, 5);
    let mut order = Vec::new();
    while let Some((t, e)) = fast.pop() {
        assert_eq!(Some((t, e)), slow.pop());
        order.push((t, e));
    }
    assert_eq!(slow.pop(), None);
    assert_eq!(order, vec![(5, 1), (5, 3), (5, 4), (5, 5), (9, 2)]);
}
