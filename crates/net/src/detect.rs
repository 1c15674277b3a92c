//! The heartbeat failure detector of §3.2.
//!
//! "Neighboring nodes periodically exchange meta-information about their
//! positions, with a period `Tc`. Once a node stops receiving such messages
//! from one of its neighbors, this indicates that the neighbor has failed.
//! The nodes do not need to be synchronized."
//!
//! [`HeartbeatSim`] runs that protocol as a discrete-event simulation:
//! every alive node broadcasts a heartbeat each period (with a per-node
//! random phase — *unsynchronized*), remembers when it last heard each
//! neighbor, and declares a neighbor failed after `timeout_periods` silent
//! periods.
//!
//! Every beat and every check recurs exactly one period later, so the
//! events of one period come in the same order as those of the period
//! before. The simulation therefore walks a fixed per-period calendar, the
//! nodes sorted by phase, instead of a priority queue, and merges in the
//! events that happen once (shift boundaries, the failure instant) at
//! their ticks. Events at one tick run in the order the queue's FIFO
//! tie-break gave them (DESIGN.md §16); the frozen queue-based detector in
//! `tests/detect_oracle.rs` referees that.
//!
//! What each node remembers lives in a [`WatchTable`], shared with the
//! period-clocked detector of `decor_core::endurance`: one dense row per
//! observer, built by the t=0 hello exchange.

use crate::event::Time;
use crate::messages::Message;
use crate::network::Network;
use crate::node::NodeId;
use crate::rotation::ShiftSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Heartbeat protocol parameters.
#[derive(Clone, Copy, Debug)]
pub struct HeartbeatConfig {
    /// Heartbeat period `Tc` in ticks.
    pub period: Time,
    /// A neighbor is declared failed after this many silent periods.
    /// Must be at least 2 (one period of silence can be pure phase skew).
    pub timeout_periods: u32,
    /// Seed for the per-node phase jitter.
    pub seed: u64,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            period: 1_000,
            timeout_periods: 3,
            seed: 0,
        }
    }
}

/// Outcome of a detection simulation.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DetectionReport {
    /// For every failed node that was detected: the earliest detection
    /// time and the detecting observer.
    pub first_detection: BTreeMap<NodeId, (Time, NodeId)>,
    /// Failed nodes that no alive neighbor ever detected (isolated nodes).
    pub undetected: Vec<NodeId>,
    /// Nodes suspected failed that were actually alive, with the earliest
    /// suspicion time and observer. Empty on a loss-free medium; on a
    /// lossy one, `timeout_periods` consecutively lost heartbeats trigger
    /// a false alarm (probability `loss^timeout` per window).
    pub false_positives: BTreeMap<NodeId, (Time, NodeId)>,
    /// Heartbeat messages broadcast during the run.
    pub heartbeats_sent: u64,
    /// Suspicions suppressed because the silent neighbor was scheduled
    /// asleep by the rotation (see [`crate::rotation`]): the silence
    /// crossed the timeout, but the three-state lifecycle says `Asleep`,
    /// not `Dead`, so no alarm was raised. Always 0 without a schedule.
    pub sleeping_suppressed: u64,
}

impl DetectionReport {
    /// Worst-case detection latency relative to the failure instant,
    /// `None` when nothing was detected.
    pub fn max_latency(&self, fail_at: Time) -> Option<Time> {
        self.first_detection
            .values()
            .map(|&(t, _)| t.saturating_sub(fail_at))
            .max()
    }
}

/// The suspicion predicate of §3.2, extracted pure so the miss-count
/// boundary is testable exactly: an observer suspects a neighbor when the
/// silence `now - last_heard` spans at least `timeout_periods` full
/// heartbeat periods — *exactly* at `period * timeout_periods` ticks, not
/// one tick sooner. Any heard heartbeat moves `last_heard` forward and
/// thereby resets the silence window from scratch.
///
/// Saturating: an observer clock behind the last-heard stamp (impossible
/// in the simulator, defensive for callers) reads as zero silence.
pub fn silent_too_long(now: Time, last_heard: Time, period: Time, timeout_periods: u32) -> bool {
    now.saturating_sub(last_heard) >= period * timeout_periods as Time
}

/// One watched neighbor in an observer's row of a [`WatchTable`]. The
/// table owns the neighbor id and the last-heard stamp, which keeps every
/// row sorted; a detector owns the strike count.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WatchSlot {
    neighbor: NodeId,
    last_heard: Time,
    /// Consecutive on-duty periods the neighbor was expected and not
    /// heard (the endurance loop's strike count; the event-driven
    /// [`HeartbeatSim`] measures silence by time and leaves it 0).
    pub strikes: u32,
}

impl WatchSlot {
    /// The watched neighbor.
    pub fn neighbor(&self) -> NodeId {
        self.neighbor
    }

    /// When the observer last heard the neighbor: the hello that created
    /// the slot, then every heartbeat that got through.
    pub fn last_heard(&self) -> Time {
        self.last_heard
    }
}

/// The heartbeat detectors' neighbor tables: for every observer, one
/// contiguous row of [`WatchSlot`]s sorted by neighbor id.
///
/// The t=0 hello exchange ([`WatchTable::exchange_hellos`]) builds it and
/// a replacement's symmetric hello ([`WatchTable::introduce`]) extends it.
/// Rows stay sorted by construction: hellos go out in ascending id order,
/// and a replacement always has the largest id so far. A received beat
/// ([`WatchTable::beat`]) therefore finds its slot by binary search over
/// a dozen entries. A beat from a sender the observer does not watch (on
/// a lossy medium, its hello was lost) finds no slot and is dropped:
/// nothing would ever read it.
#[derive(Clone, Debug)]
pub struct WatchTable {
    /// Row `i` holds observer `i`'s watched neighbors.
    rows: Vec<Vec<WatchSlot>>,
    /// Hearers of the last broadcast, reused across calls.
    heard: Vec<NodeId>,
}

impl WatchTable {
    /// The t=0 hello exchange: every alive node, in ascending id order,
    /// broadcasts a hello (charged to the maintenance plane), and every
    /// hearer starts watching the sender with a last-heard stamp of 0.
    pub fn exchange_hellos(net: &mut Network) -> WatchTable {
        let mut table = WatchTable {
            rows: vec![Vec::new(); net.len()],
            heard: Vec::new(),
        };
        for id in 0..net.len() {
            if net.is_alive(id) {
                let pos = net.node(id).pos;
                net.broadcast_into(id, Message::Hello { pos }, &mut table.heard);
                for &observer in &table.heard {
                    push_slot(&mut table.rows[observer], id, 0);
                }
            }
        }
        table
    }

    /// A replacement's symmetric hello at `now`: `id`, the newest node,
    /// broadcasts a hello; each hearer starts watching `id`, and `id`
    /// starts watching each hearer.
    pub fn introduce(&mut self, net: &mut Network, id: NodeId, now: Time) {
        self.rows.resize(self.rows.len().max(net.len()), Vec::new());
        let pos = net.node(id).pos;
        net.broadcast_into(id, Message::Hello { pos }, &mut self.heard);
        for &observer in &self.heard {
            push_slot(&mut self.rows[observer], id, now);
            push_slot(&mut self.rows[id], observer, now);
        }
    }

    /// `id` broadcasts its heartbeat at `now` through
    /// [`Network::broadcast_into`]; every hearer that watches `id`
    /// records the beat.
    pub fn beat(&mut self, net: &mut Network, id: NodeId, now: Time) {
        let pos = net.node(id).pos;
        net.broadcast_into(id, Message::Heartbeat { pos }, &mut self.heard);
        for &observer in &self.heard {
            stamp(&mut self.rows, observer, id, now);
        }
    }

    /// `observer`'s watched neighbors, sorted by id (empty for an id the
    /// table has never seen).
    pub fn row(&self, observer: NodeId) -> &[WatchSlot] {
        self.rows.get(observer).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Mutable [`WatchTable::row`], for detectors that keep per-slot
    /// strike counts.
    pub fn row_mut(&mut self, observer: NodeId) -> &mut [WatchSlot] {
        self.rows
            .get_mut(observer)
            .map(Vec::as_mut_slice)
            .unwrap_or(&mut [])
    }
}

/// Appends a fresh slot for `neighbor`. Every caller pushes in ascending
/// neighbor order, which keeps the row sorted for [`stamp`].
fn push_slot(row: &mut Vec<WatchSlot>, neighbor: NodeId, now: Time) {
    debug_assert!(
        row.last().is_none_or(|s| s.neighbor < neighbor),
        "watch row out of order: {neighbor} after {:?}",
        row.last()
    );
    row.push(WatchSlot {
        neighbor,
        last_heard: now,
        strikes: 0,
    });
}

/// `observer` heard `sender` at `now`: moves its last-heard stamp, when
/// it watches `sender` at all.
fn stamp(rows: &mut [Vec<WatchSlot>], observer: NodeId, sender: NodeId, now: Time) {
    let Some(row) = rows.get_mut(observer) else {
        return;
    };
    if let Ok(i) = row.binary_search_by_key(&sender, |s| s.neighbor) {
        row[i].last_heard = now;
    }
}

/// Discrete-event heartbeat detector simulation.
pub struct HeartbeatSim {
    cfg: HeartbeatConfig,
}

impl HeartbeatSim {
    /// Creates a simulator with the given configuration.
    ///
    /// Panics if `timeout_periods < 2` — with unsynchronized phases a
    /// single silent period cannot distinguish skew from failure.
    pub fn new(cfg: HeartbeatConfig) -> Self {
        assert!(cfg.period > 0, "heartbeat period must be positive");
        assert!(
            cfg.timeout_periods >= 2,
            "timeout must span at least 2 periods to tolerate phase skew"
        );
        HeartbeatSim { cfg }
    }

    /// Runs the protocol on `net`: heartbeats start at time 0, the nodes in
    /// `victims` fail at `fail_at`, and the simulation ends at `horizon`.
    ///
    /// Returns who detected which failure and when. The network is mutated
    /// (victims fail, heartbeat traffic is accounted in `net.stats`).
    pub fn run(
        &self,
        net: &mut Network,
        victims: &[NodeId],
        fail_at: Time,
        horizon: Time,
    ) -> DetectionReport {
        self.run_inner(net, victims, fail_at, horizon, None)
    }

    /// Like [`HeartbeatSim::run`], but rotation-aware: nodes scheduled
    /// asleep by `schedule` pause their heartbeats and checks, observers
    /// measure a neighbor's silence only across windows where *both* ends
    /// were scheduled awake, and a timeout crossed while the neighbor is
    /// asleep is counted in
    /// [`DetectionReport::sleeping_suppressed`] instead of raising an
    /// alarm. With an empty or single-shift schedule this is exactly
    /// [`HeartbeatSim::run`].
    pub fn run_scheduled(
        &self,
        net: &mut Network,
        victims: &[NodeId],
        fail_at: Time,
        horizon: Time,
        schedule: &ShiftSchedule,
    ) -> DetectionReport {
        self.run_inner(net, victims, fail_at, horizon, Some(schedule))
    }

    fn run_inner(
        &self,
        net: &mut Network,
        victims: &[NodeId],
        fail_at: Time,
        horizon: Time,
        schedule: Option<&ShiftSchedule>,
    ) -> DetectionReport {
        let mut rng = StdRng::seed_from_u64(self.cfg.seed);
        let period = self.cfg.period;

        // Neighbor tables and last-heard clocks, established by an initial
        // hello exchange at t=0 (charged to the maintenance plane).
        let ids = net.alive_ids();
        let watch = WatchTable::exchange_hellos(net);

        // Unsynchronized start: each node's first beat at a random phase.
        // The stable sort keeps ids ascending within a phase.
        let mut slots: Vec<Slot> = ids
            .iter()
            .map(|&id| Slot {
                phase: rng.gen_range(0..period),
                id,
                beating: true,
                checking: true,
            })
            .collect();
        slots.sort_by_key(|s| s.phase);

        // Rotating schedules only: an always-on schedule must leave the
        // run bit-identical to the schedule-free one.
        let rotating = schedule.filter(|s| s.n_shifts() > 1);
        let detected = vec![None; net.len()];
        let mut run = Run {
            cfg: self.cfg,
            horizon,
            live: slots.len(),
            next_shift: rotating.map(|_| 0),
            fail_at: (fail_at <= horizon).then_some(fail_at),
            net,
            rotating,
            victims,
            watch,
            report: DetectionReport::default(),
            detected,
        };

        // Walk the ticks `m·period + phase`, phases ascending, until the
        // horizon or until no slot is left on the calendar.
        let mut m: u64 = 0;
        let mut start: Time = 0;
        'calendar: while run.live > 0 {
            let mut g = 0;
            while g < slots.len() {
                let phase = slots[g].phase;
                let Some(now) = start.checked_add(phase).filter(|&t| t <= horizon) else {
                    break 'calendar;
                };
                let end = g + slots[g..].partition_point(|s| s.phase == phase);
                run.one_offs_before(Some(now));
                if run.next_shift == Some(now) {
                    run.rotate(now);
                }
                let fail = run.fail_at.take_if(|&mut t| t == now).is_some();
                let group = &mut slots[g..end];
                // The order the event queue's (time, seq) tie-break gave
                // one tick (DESIGN.md §16). Period 0's Beats and period 1's
                // Checks were scheduled before the failure, every later
                // Beat and Check after it, each Check ahead of its tick's
                // Beats.
                match m {
                    0 => {
                        run.beats(group, now);
                        if fail {
                            run.fail();
                        }
                    }
                    1 => {
                        run.checks(group, now);
                        if fail {
                            run.fail();
                        }
                        run.beats(group, now);
                    }
                    _ => {
                        if fail {
                            run.fail();
                        }
                        run.checks(group, now);
                        run.beats(group, now);
                    }
                }
                g = end;
            }
            m += 1;
            match start.checked_add(period) {
                Some(next) => start = next,
                None => break,
            }
        }
        run.one_offs_before(None);

        let Run {
            mut report,
            detected,
            ..
        } = run;
        report.undetected = victims
            .iter()
            .copied()
            .filter(|&v| detected.get(v).is_none_or(Option::is_none))
            .collect();
        // Classify suspicions: real failures vs false alarms. A suspicion
        // of a node that is alive at the end of the run (i.e. never in
        // `victims`) is a false positive.
        let mut is_victim = vec![false; detected.len()];
        for &v in victims {
            if let Some(flag) = is_victim.get_mut(v) {
                *flag = true;
            }
        }
        for (nb, when) in detected.into_iter().enumerate() {
            let Some(when) = when else { continue };
            if is_victim[nb] {
                report.first_detection.insert(nb, when);
            } else {
                report.false_positives.insert(nb, when);
            }
        }
        report
    }
}

/// One node's place on [`HeartbeatSim`]'s calendar: it beats at every
/// tick `m·period + phase` and checks at each of them from `m = 1` on.
struct Slot {
    phase: Time,
    id: NodeId,
    /// Its beats are still on the calendar. Cleared at the first beat
    /// that finds the node dead: death is final.
    beating: bool,
    /// Likewise for its checks.
    checking: bool,
}

/// The state of one [`HeartbeatSim`] run as it walks its calendar.
struct Run<'a> {
    cfg: HeartbeatConfig,
    horizon: Time,
    /// Slots with a beat or a check still on the calendar.
    live: usize,
    /// The next shift boundary within the horizon (rotating schedules
    /// only).
    next_shift: Option<Time>,
    /// The failure instant, while it is pending and within the horizon.
    fail_at: Option<Time>,
    net: &'a mut Network,
    rotating: Option<&'a ShiftSchedule>,
    victims: &'a [NodeId],
    watch: WatchTable,
    report: DetectionReport,
    /// Earliest suspicion of each node: (time, observer).
    detected: Vec<Option<(Time, NodeId)>>,
}

impl Run<'_> {
    /// Runs the shift boundaries and the failure due before `end` (all
    /// that are left, for `None`) in time order. A boundary goes first at
    /// an equal tick: every boundary was scheduled before the failure.
    fn one_offs_before(&mut self, end: Option<Time>) {
        let due = |t: Option<Time>| t.filter(|&t| end.is_none_or(|e| t < e));
        loop {
            match (due(self.next_shift), due(self.fail_at)) {
                (Some(r), f) if f.is_none_or(|f| r <= f) => self.rotate(r),
                (_, Some(_)) => {
                    self.fail_at = None;
                    self.fail();
                }
                _ => return,
            }
        }
    }

    /// A shift boundary: re-apply the schedule's sleep flags to the
    /// network, and move to the next boundary. A node waking at `now`
    /// beats at `now`.
    fn rotate(&mut self, now: Time) {
        let sched = self.rotating.expect("shift boundaries need a schedule");
        sched.apply_sleep_flags(self.net, now);
        self.next_shift = now
            .checked_add(sched.period())
            .filter(|&t| t <= self.horizon);
    }

    /// The failure instant: victims drop out of the network.
    fn fail(&mut self) {
        for &v in self.victims {
            self.net.fail_node(v);
        }
    }

    /// The beats of one phase group at `now`, ascending by id.
    fn beats(&mut self, group: &mut [Slot], now: Time) {
        for slot in group {
            if !slot.beating {
                continue;
            }
            if !self.net.is_alive(slot.id) {
                // Dead nodes stop beating — that is the signal.
                slot.beating = false;
                self.live -= usize::from(!slot.checking);
                continue;
            }
            // A scheduled-asleep node's radio is off: it skips the beat
            // but keeps its cadence for the next awake shift.
            let asleep = self
                .rotating
                .is_some_and(|s| s.is_scheduled_asleep(slot.id, now));
            if !asleep {
                self.watch.beat(self.net, slot.id, now);
                self.report.heartbeats_sent += 1;
            }
        }
    }

    /// The checks of one phase group at `now`, ascending by id: each
    /// observer scans its neighbor row for silent neighbors.
    fn checks(&mut self, group: &mut [Slot], now: Time) {
        let (period, timeout) = (self.cfg.period, self.cfg.timeout_periods);
        for slot in group {
            if !slot.checking {
                continue;
            }
            let id = slot.id;
            if !self.net.is_alive(id) {
                slot.checking = false;
                self.live -= usize::from(!slot.beating);
                continue;
            }
            if self
                .rotating
                .is_some_and(|s| s.is_scheduled_asleep(id, now))
            {
                // A sleeping observer scans nothing (radio off) but keeps
                // its check cadence.
                continue;
            }
            for watched in self.watch.row(id) {
                // Suspicion is based purely on silence: the observer
                // cannot consult ground truth. On a lossy medium this can
                // misfire on alive neighbors (classified by `run_inner`).
                let (nb, last) = (watched.neighbor(), watched.last_heard());
                match self.rotating {
                    Some(sched) if sched.is_scheduled_asleep(nb, now) => {
                        // Three-state lifecycle: the schedule says Asleep,
                        // not Dead. Count the would-be alarm, never raise
                        // it.
                        if silent_too_long(now, last, period, timeout) {
                            self.report.sleeping_suppressed += 1;
                        }
                    }
                    Some(sched) => {
                        // Silence only counts across windows where both
                        // ends were on duty: a neighbor (or the observer
                        // itself) fresh off a sleep shift gets a full
                        // timeout before suspicion.
                        let eff = last
                            .max(sched.last_wake_at(nb, now))
                            .max(sched.last_wake_at(id, now));
                        if silent_too_long(now, eff, period, timeout) {
                            self.detected[nb].get_or_insert((now, id));
                        }
                    }
                    None => {
                        if silent_too_long(now, last, period, timeout) {
                            self.detected[nb].get_or_insert((now, id));
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};

    fn line_network(n: usize, spacing: f64) -> Network {
        let mut net = Network::new(Aabb::square(100.0));
        for i in 0..n {
            net.add_node(Point::new(5.0 + i as f64 * spacing, 50.0), 4.0, 8.0);
        }
        net
    }

    fn cfg(seed: u64) -> HeartbeatConfig {
        HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed,
        }
    }

    #[test]
    fn watch_table_rows_are_sorted_and_skip_unwatched_senders() {
        let neighbors = |row: &[WatchSlot]| row.iter().map(|s| s.neighbor).collect::<Vec<_>>();
        // Spacing 5 at rc 8: each node hears only its line neighbors. The
        // cut 3 -> 2 eats 3's hello, so 2 never watches 3.
        let mut net = line_network(4, 5.0);
        net.set_blackhole(3, 2);
        let mut table = WatchTable::exchange_hellos(&mut net);
        net.clear_blackhole(3, 2);
        assert_eq!(neighbors(table.row(1)), vec![0, 2]);
        assert_eq!(neighbors(table.row(2)), vec![1]);
        assert_eq!(neighbors(table.row(3)), vec![2]);
        assert!(table
            .row(1)
            .iter()
            .all(|s| s.last_heard == 0 && s.strikes == 0));
        table.beat(&mut net, 2, 70);
        assert_eq!(table.row(1)[1].last_heard, 70);
        assert_eq!(table.row(3)[0].last_heard, 70);
        assert_eq!(table.row(1)[0].last_heard, 0, "node 0 did not beat");
        // 2 hears 3's beat now, but has no slot for it: the beat is dropped.
        table.beat(&mut net, 3, 80);
        assert_eq!(net.stats.received_by(2), 2);
        assert_eq!(
            table.row(2),
            &[WatchSlot {
                neighbor: 1,
                last_heard: 0,
                strikes: 0
            }]
        );
        // A replacement next to node 1 says hello: its hearers append it
        // and it watches them, all stamped at the hello.
        let r = net.add_node(Point::new(10.0, 50.0), 4.0, 8.0);
        table.introduce(&mut net, r, 90);
        assert_eq!(neighbors(table.row(r)), vec![0, 1, 2]);
        for observer in [0, 1, 2] {
            let slot = *table.row(observer).last().unwrap();
            assert_eq!(
                slot,
                WatchSlot {
                    neighbor: r,
                    last_heard: 90,
                    strikes: 0
                }
            );
        }
        assert!(table.row(99).is_empty() && table.row_mut(99).is_empty());
    }

    #[test]
    fn failed_node_is_detected_by_neighbors() {
        let mut net = line_network(3, 5.0);
        let sim = HeartbeatSim::new(cfg(1));
        let report = sim.run(&mut net, &[1], 500, 2000);
        assert!(report.first_detection.contains_key(&1));
        assert!(report.undetected.is_empty());
        let (t, observer) = report.first_detection[&1];
        assert!(t > 500, "detection after the failure instant");
        assert!(observer == 0 || observer == 2);
    }

    #[test]
    fn detection_latency_is_bounded_by_timeout_plus_period() {
        let mut net = line_network(5, 5.0);
        let sim = HeartbeatSim::new(cfg(2));
        let report = sim.run(&mut net, &[2], 1000, 10_000);
        let latency = report.max_latency(1000).expect("detected");
        // Worst case: last beat right before failure, timeout 3 periods,
        // check up to one period later => <= 5 periods with slack.
        assert!(latency <= 500, "latency {latency}");
        assert!(latency >= 200, "cannot detect faster than ~2 periods");
    }

    #[test]
    fn no_false_positives_without_failures() {
        let mut net = line_network(4, 5.0);
        let sim = HeartbeatSim::new(cfg(3));
        let report = sim.run(&mut net, &[], 500, 5000);
        assert!(report.first_detection.is_empty());
        assert!(report.undetected.is_empty());
    }

    #[test]
    fn isolated_failure_goes_undetected() {
        // Node 2 is out of everyone's range.
        let mut net = line_network(2, 5.0);
        net.add_node(Point::new(90.0, 90.0), 4.0, 8.0);
        let sim = HeartbeatSim::new(cfg(4));
        let report = sim.run(&mut net, &[2], 500, 5000);
        assert_eq!(report.undetected, vec![2]);
    }

    #[test]
    fn simultaneous_failures_all_detected() {
        let mut net = line_network(6, 5.0);
        let sim = HeartbeatSim::new(cfg(5));
        let report = sim.run(&mut net, &[1, 3], 700, 8000);
        assert!(report.first_detection.contains_key(&1));
        assert!(report.first_detection.contains_key(&3));
    }

    #[test]
    fn heartbeat_traffic_is_maintenance_plane() {
        let mut net = line_network(3, 5.0);
        let sim = HeartbeatSim::new(cfg(6));
        let report = sim.run(&mut net, &[], 100, 1000);
        assert!(report.heartbeats_sent > 0);
        assert_eq!(net.stats.protocol_sent, 0);
        assert!(net.stats.maintenance_sent >= report.heartbeats_sent);
    }

    #[test]
    fn dead_nodes_send_no_heartbeats_after_failure() {
        let mut net = line_network(2, 5.0);
        let sim = HeartbeatSim::new(cfg(7));
        let horizon = 10_000;
        let report = sim.run(&mut net, &[1], 0, horizon);
        // Node 1 fails at t=0 (before its first beat fires it may beat once
        // if its phase event was scheduled before Fail pops — FIFO order
        // puts Beat first only if scheduled at the same tick earlier).
        // Either way, its beats must stop early.
        let periods = horizon / 100;
        assert!(
            report.heartbeats_sent <= periods + 2,
            "sent {} but only one node should keep beating",
            report.heartbeats_sent
        );
    }

    #[test]
    fn loss_free_medium_never_false_positives() {
        let mut net = line_network(6, 5.0);
        let sim = HeartbeatSim::new(cfg(11));
        let report = sim.run(&mut net, &[2], 500, 8000);
        assert!(report.false_positives.is_empty());
        assert!(report.first_detection.contains_key(&2));
    }

    #[test]
    fn heavy_loss_triggers_false_positives() {
        // 70% loss: P(3 consecutive heartbeats lost) = 0.343 per window,
        // so over 30 periods false alarms are near-certain.
        let mut net = line_network(8, 5.0);
        net.set_loss(0.7, 42);
        let sim = HeartbeatSim::new(cfg(12));
        let report = sim.run(&mut net, &[], 500, 30_000);
        assert!(
            !report.false_positives.is_empty(),
            "70% loss must cause false alarms"
        );
        assert!(report.first_detection.is_empty(), "nobody actually failed");
    }

    #[test]
    fn moderate_loss_still_detects_real_failures() {
        let mut net = line_network(6, 5.0);
        net.set_loss(0.2, 7);
        let sim = HeartbeatSim::new(cfg(13));
        let report = sim.run(&mut net, &[3], 500, 10_000);
        assert!(
            report.first_detection.contains_key(&3),
            "real failure must still be caught through 20% loss"
        );
    }

    #[test]
    fn run_is_deterministic_in_seed() {
        let run = |seed| {
            let mut net = line_network(5, 5.0);
            let sim = HeartbeatSim::new(cfg(seed));
            let r = sim.run(&mut net, &[2], 500, 5000);
            (r.first_detection, r.heartbeats_sent)
        };
        assert_eq!(run(9), run(9));
    }

    #[test]
    fn suspicion_fires_at_exactly_the_miss_threshold() {
        // Declared failed after *exactly* `timeout_periods` silent
        // periods — not one tick sooner, not one period later.
        for period in [1u64, 10, 100, 1_000] {
            for tp in 2u32..=5 {
                let window = period * tp as Time;
                let last = 700 * period; // arbitrary positive last-heard
                assert!(
                    !silent_too_long(last + window - 1, last, period, tp),
                    "period {period}, tp {tp}: fired a tick early"
                );
                assert!(
                    silent_too_long(last + window, last, period, tp),
                    "period {period}, tp {tp}: missed the exact boundary"
                );
                assert!(
                    silent_too_long(last + window + 1, last, period, tp),
                    "period {period}, tp {tp}: suspicion must latch"
                );
            }
        }
    }

    #[test]
    fn single_late_heartbeat_resets_the_silence_window() {
        let (period, tp) = (100u64, 3u32);
        let window = period * tp as Time;
        // Silent since t=0: about to be declared at t=300...
        assert!(silent_too_long(window, 0, period, tp));
        // ...but one heartbeat at t=299 resets the count from scratch:
        let heard = window - 1;
        assert!(!silent_too_long(window, heard, period, tp));
        assert!(!silent_too_long(heard + window - 1, heard, period, tp));
        // and the full threshold must elapse again after it.
        assert!(silent_too_long(heard + window, heard, period, tp));
    }

    #[test]
    fn suspicion_clock_saturates() {
        // An observer stamp ahead of `now` reads as zero silence, never
        // as a huge wrapped value.
        assert!(!silent_too_long(50, 100, 10, 2));
    }

    #[test]
    fn sim_detection_time_matches_the_pure_predicate() {
        // With one observer the sim's detection instant must be the first
        // Check tick where `silent_too_long` holds over the victim's true
        // last beat: no off-by-one between the extracted predicate and
        // the event loop. The victim's last beat lands in
        // [fail_at - period, fail_at], and detection fires at the first
        // check in [last + timeout, last + timeout + period), so the
        // detection tick is confined to
        // [fail_at + timeout - period, fail_at + timeout + period).
        for seed in 0..20u64 {
            let mut net = line_network(2, 5.0);
            let sim = HeartbeatSim::new(cfg(seed));
            let fail_at = 500;
            let report = sim.run(&mut net, &[1], fail_at, 5_000);
            let (t, observer) = report.first_detection[&1];
            assert_eq!(observer, 0);
            assert!(
                (fail_at + 200..fail_at + 400).contains(&t),
                "seed {seed}: detection at {t} outside the exact window"
            );
        }
    }

    #[test]
    fn sleeping_node_is_never_suspected() {
        // Two alternating shifts, shift period 4 heartbeat periods: every
        // node is silent for 400-tick stretches — far past the 300-tick
        // timeout — yet the three-state lifecycle must classify that
        // silence as Asleep, not Dead: zero false positives, and the
        // suppression counter proves the timeout actually crossed.
        use crate::rotation::ShiftSchedule;
        let mut net = line_network(6, 5.0);
        let sched = ShiftSchedule::new(vec![vec![0, 2, 4], vec![1, 3, 5]], 400, 6);
        let sim = HeartbeatSim::new(cfg(31));
        let report = sim.run_scheduled(&mut net, &[], 100_000, 8_000, &sched);
        assert!(
            report.false_positives.is_empty(),
            "scheduled sleep misread as failure: {report:?}"
        );
        assert!(report.first_detection.is_empty());
        assert!(
            report.sleeping_suppressed > 0,
            "the timeout never crossed — the suppression path was not exercised"
        );
    }

    #[test]
    fn dead_node_is_detected_by_its_shift_mates() {
        // Victim 1 shares shift 0 with its watcher 0: a real failure is
        // still caught under rotation, during their common awake windows.
        use crate::rotation::ShiftSchedule;
        let mut net = line_network(4, 5.0);
        let sched = ShiftSchedule::new(vec![vec![0, 1], vec![2, 3]], 800, 4);
        let sim = HeartbeatSim::new(cfg(32));
        let report = sim.run_scheduled(&mut net, &[1], 100, 20_000, &sched);
        assert!(
            report.first_detection.contains_key(&1),
            "rotation must not mask a real failure: {report:?}"
        );
        assert!(report.false_positives.is_empty(), "{report:?}");
    }

    #[test]
    fn fresh_waker_gets_a_full_timeout_window() {
        // Detection of a same-shift victim can only fire once the shift
        // has been awake a full timeout: silence accrued while either end
        // slept is not evidence.
        use crate::rotation::ShiftSchedule;
        let mut net = line_network(4, 5.0);
        let sched = ShiftSchedule::new(vec![vec![0, 1], vec![2, 3]], 800, 4);
        let sim = HeartbeatSim::new(cfg(33));
        // Fail during the victim's *off* shift: [800, 1600).
        let report = sim.run_scheduled(&mut net, &[1], 900, 20_000, &sched);
        let (t, _) = report.first_detection[&1];
        assert!(
            t >= 1600 + 300,
            "suspected at {t}, before the shift was awake a full timeout"
        );
    }

    #[test]
    fn always_on_schedule_matches_plain_run() {
        use crate::rotation::ShiftSchedule;
        let plain = {
            let mut net = line_network(5, 5.0);
            let sim = HeartbeatSim::new(cfg(34));
            let r = sim.run(&mut net, &[2], 500, 5_000);
            (r.first_detection, r.heartbeats_sent, net.stats.total_sent)
        };
        let scheduled = {
            let mut net = line_network(5, 5.0);
            let sim = HeartbeatSim::new(cfg(34));
            let sched = ShiftSchedule::always_on(400, 5);
            let r = sim.run_scheduled(&mut net, &[2], 500, 5_000, &sched);
            assert_eq!(r.sleeping_suppressed, 0);
            (r.first_detection, r.heartbeats_sent, net.stats.total_sent)
        };
        assert_eq!(plain, scheduled, "always-on rotation must be a no-op");
    }

    #[test]
    fn rotation_halves_the_heartbeat_traffic() {
        use crate::rotation::ShiftSchedule;
        let beats = |sched: Option<ShiftSchedule>| {
            let mut net = line_network(6, 5.0);
            let sim = HeartbeatSim::new(cfg(35));
            match sched {
                Some(s) => sim.run_scheduled(&mut net, &[], 100_000, 20_000, &s),
                None => sim.run(&mut net, &[], 100_000, 20_000),
            }
            .heartbeats_sent
        };
        let on = beats(None);
        let rotated = beats(Some(ShiftSchedule::new(
            vec![vec![0, 2, 4], vec![1, 3, 5]],
            400,
            6,
        )));
        assert!(
            rotated * 2 <= on + 6,
            "two disjoint shifts must ~halve beats: {rotated} vs {on}"
        );
    }

    #[test]
    #[should_panic(expected = "timeout must span")]
    fn tiny_timeout_panics() {
        let _ = HeartbeatSim::new(HeartbeatConfig {
            period: 10,
            timeout_periods: 1,
            seed: 0,
        });
    }
}
