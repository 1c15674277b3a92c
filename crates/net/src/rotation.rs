//! Shift rotation state for distributed set-k-cover scheduling.
//!
//! [`crate::sleep::SleepScheduler`] answers the *combinatorial* question —
//! how to partition a k-covered deployment into disjoint shifts that each
//! maintain a coverage target alone (the set-k-cover of Abrams, Goel &
//! Plotkin). This module holds the *runtime* side of that answer:
//!
//! - [`RotationConfig`] — the duty-cycling knobs (shift length on the
//!   transport tick clock, battery capacity, awake/asleep idle costs);
//! - [`ShiftSchedule`] — an agreed shift assignment, queryable at any
//!   simulation instant ("who is scheduled asleep *now*?"), so that the
//!   endurance loop's detector never mistakes a sleeping node's silence
//!   for a failure.
//!
//! The schedule itself is agreed in-network by `decor-core`'s rotation
//! agreement (coordinator election + reliable `ShiftAssign` dissemination);
//! this module only represents the agreed outcome.

use crate::event::Time;
use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// Duty-cycled rotation knobs.
///
/// Costs are in the same energy units as [`crate::energy::EnergyModel`]
/// charges per message, so one battery pays for both radio traffic and
/// idle listening: a node's battery is spent when its cumulative radio
/// energy (from `Network::stats`) plus its idle cost reaches `battery`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct RotationConfig {
    /// Coverage degree each shift must maintain on its own (usually 1:
    /// the k-covered deployment splits into ~k 1-covering shifts).
    pub target_coverage: u32,
    /// Shift length in ticks of the transport clock. One heartbeat period
    /// `Tc` equals one shift period: an awake node beats once per period.
    pub period: Time,
    /// Battery capacity per node, in energy-model units.
    pub battery: f64,
    /// Idle cost per period while awake (listening radio, sensing).
    pub awake_cost: f64,
    /// Idle cost per period while scheduled asleep (clock upkeep only).
    pub sleep_cost: f64,
}

impl Default for RotationConfig {
    fn default() -> Self {
        // Battery 2000 sustains ~50 always-awake periods for a node with
        // a handful of neighbors under the default energy model — small
        // enough that endurance sims finish in test time, large enough
        // that rotation's multi-x extension is measurable.
        RotationConfig {
            target_coverage: 1,
            period: 1_000,
            battery: 2_000.0,
            awake_cost: 1.0,
            sleep_cost: 0.02,
        }
    }
}

impl RotationConfig {
    /// Validates the knobs; schedulers and sims call this on entry.
    pub fn validate(&self) {
        assert!(self.target_coverage >= 1, "target coverage must be >= 1");
        assert!(self.period > 0, "shift period must be positive");
        assert!(
            self.battery > 0.0 && self.battery.is_finite(),
            "battery must be positive"
        );
        assert!(
            self.awake_cost > 0.0 && self.awake_cost.is_finite(),
            "awake cost must be positive"
        );
        assert!(
            self.sleep_cost >= 0.0 && self.sleep_cost < self.awake_cost,
            "sleeping must cost less than waking"
        );
    }
}

/// An agreed shift assignment, rotating round-robin on the tick clock.
///
/// Shift `s` is on duty during periods `t` with `(t / period) % S == s`.
/// Nodes not assigned to any shift (`shift_of` = `None`) are treated as
/// always awake — this covers both the empty schedule (no feasible
/// partition: everyone stays on) and replacements placed mid-run before
/// the next agreement folds them in.
#[derive(Clone, Debug, PartialEq)]
pub struct ShiftSchedule {
    shifts: Vec<Vec<NodeId>>,
    member_of: Vec<usize>,
    period: Time,
}

impl ShiftSchedule {
    /// Builds a schedule from disjoint shifts over a network of `n_nodes`
    /// node ids. Panics when a node appears in two shifts or `period` is
    /// zero.
    pub fn new(shifts: Vec<Vec<NodeId>>, period: Time, n_nodes: usize) -> Self {
        assert!(period > 0, "shift period must be positive");
        let mut member_of = vec![usize::MAX; n_nodes];
        for (si, shift) in shifts.iter().enumerate() {
            for &id in shift {
                assert!(id < n_nodes, "shift member {id} out of range");
                assert!(
                    member_of[id] == usize::MAX,
                    "node {id} assigned to two shifts"
                );
                member_of[id] = si;
            }
        }
        ShiftSchedule {
            shifts,
            member_of,
            period,
        }
    }

    /// An empty schedule: nobody is ever scheduled asleep (the always-on
    /// degenerate case).
    pub fn always_on(period: Time, n_nodes: usize) -> Self {
        ShiftSchedule::new(Vec::new(), period, n_nodes)
    }

    /// Number of shifts. 0 or 1 means nobody ever sleeps.
    pub fn n_shifts(&self) -> usize {
        self.shifts.len()
    }

    /// The shifts, each sorted as provided by the scheduler.
    pub fn shifts(&self) -> &[Vec<NodeId>] {
        &self.shifts
    }

    /// The shift `id` belongs to, `None` for unscheduled nodes.
    pub fn shift_of(&self, id: NodeId) -> Option<usize> {
        match self.member_of.get(id) {
            Some(&si) if si != usize::MAX => Some(si),
            _ => None,
        }
    }

    /// The shift on duty at tick `now` (0 when there is at most one).
    pub fn scheduled_shift(&self, now: Time) -> usize {
        if self.shifts.len() <= 1 {
            return 0;
        }
        ((now / self.period) % self.shifts.len() as Time) as usize
    }

    /// Is `id` scheduled asleep at tick `now`? Unscheduled nodes and
    /// single-shift schedules never sleep.
    pub fn is_scheduled_asleep(&self, id: NodeId, now: Time) -> bool {
        if self.shifts.len() <= 1 {
            return false;
        }
        match self.shift_of(id) {
            Some(si) => si != self.scheduled_shift(now),
            None => false,
        }
    }

    /// Folds a replacement node into the rotation: assigns `id` to shift
    /// `si`, growing the member table as needed. Panics when `id` already
    /// belongs to a shift or `si` is out of range.
    pub fn assign(&mut self, id: NodeId, si: usize) {
        assert!(si < self.shifts.len(), "shift {si} out of range");
        if id >= self.member_of.len() {
            self.member_of.resize(id + 1, usize::MAX);
        }
        assert!(
            self.member_of[id] == usize::MAX,
            "node {id} already assigned"
        );
        self.member_of[id] = si;
        self.shifts[si].push(id);
        self.shifts[si].sort_unstable();
    }

    /// The shift with the fewest members (ties: lowest index) — where a
    /// replacement does the most good.
    pub fn least_loaded_shift(&self) -> Option<usize> {
        (0..self.shifts.len()).min_by_key(|&si| self.shifts[si].len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sched3() -> ShiftSchedule {
        // 6 nodes, 3 shifts of 2, period 10.
        ShiftSchedule::new(vec![vec![0, 1], vec![2, 3], vec![4, 5]], 10, 6)
    }

    #[test]
    fn default_config_validates() {
        RotationConfig::default().validate();
    }

    #[test]
    #[should_panic(expected = "cost less")]
    fn sleep_dearer_than_awake_rejected() {
        RotationConfig {
            sleep_cost: 2.0,
            awake_cost: 1.0,
            ..RotationConfig::default()
        }
        .validate();
    }

    #[test]
    fn scheduled_shift_rotates_round_robin() {
        let s = sched3();
        assert_eq!(s.scheduled_shift(0), 0);
        assert_eq!(s.scheduled_shift(9), 0);
        assert_eq!(s.scheduled_shift(10), 1);
        assert_eq!(s.scheduled_shift(25), 2);
        assert_eq!(s.scheduled_shift(30), 0);
    }

    #[test]
    fn asleep_iff_off_shift() {
        let s = sched3();
        assert!(!s.is_scheduled_asleep(0, 5));
        assert!(s.is_scheduled_asleep(2, 5));
        assert!(s.is_scheduled_asleep(0, 15));
        assert!(!s.is_scheduled_asleep(2, 15));
    }

    #[test]
    fn unscheduled_nodes_never_sleep() {
        let mut s = sched3();
        // Node 6 arrives mid-run; until folded in it is always awake.
        assert_eq!(s.shift_of(6), None);
        assert!(!s.is_scheduled_asleep(6, 15));
        s.assign(6, 1);
        assert_eq!(s.shift_of(6), Some(1));
        assert!(s.is_scheduled_asleep(6, 5));
        assert!(!s.is_scheduled_asleep(6, 15));
    }

    #[test]
    fn single_or_empty_schedule_is_always_on() {
        let one = ShiftSchedule::new(vec![vec![0, 1]], 10, 2);
        let none = ShiftSchedule::always_on(10, 2);
        for now in [0u64, 7, 15, 100] {
            for id in 0..2 {
                assert!(!one.is_scheduled_asleep(id, now));
                assert!(!none.is_scheduled_asleep(id, now));
            }
        }
    }

    #[test]
    #[should_panic(expected = "two shifts")]
    fn overlapping_shifts_rejected() {
        let _ = ShiftSchedule::new(vec![vec![0, 1], vec![1, 2]], 10, 3);
    }

    #[test]
    fn least_loaded_shift_breaks_ties_low() {
        let s = ShiftSchedule::new(vec![vec![0, 1], vec![2], vec![3]], 10, 4);
        assert_eq!(s.least_loaded_shift(), Some(1));
        assert_eq!(ShiftSchedule::always_on(10, 4).least_loaded_shift(), None);
    }
}
