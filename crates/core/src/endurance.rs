//! Multi-day endurance simulation: rotation, drain, death, restoration.
//!
//! The lifetime claims of the paper's motivation #3 ("k-coverage leads to
//! significant energy savings and increases the lifetime for the
//! network") are only credible if rotation survives contact with the rest
//! of the system: batteries drain per the energy model on every real
//! message and awake period, nodes die mid-shift, the heartbeat detector
//! must tell scheduled sleep from death, and restoration must fold
//! replacements back into the rotation. [`run_endurance`] runs that whole
//! loop on one deterministic clock and reports *lifetime to first
//! unrecoverable coverage loss* — the figure of merit the endurance test
//! tier compares between rotation and always-on.
//!
//! One period of the rotation clock is one heartbeat period `Tc`; within
//! a period events happen in a fixed order (chaos, disasters, coverage
//! check, shift transitions, heartbeats, detection, restoration, idle
//! drain, re-agreement), each sub-step iterating in node-id order — the
//! run is bit-identical across process runs and worker threads.

use crate::config::DeploymentConfig;
use crate::coverage::{CoverageMap, SensorId};
use crate::rotation::agree_shifts;
use crate::Placer;
use decor_geom::Disk;
use decor_net::{
    silent_too_long, ChaosEngine, Network, NodeId, RotationConfig, ShiftSchedule, Time, WatchTable,
};
use decor_trace::TraceEvent;
use std::collections::BTreeSet;

/// Endurance scenario knobs, orthogonal to [`DeploymentConfig`] (which
/// carries the rotation knobs themselves in
/// [`DeploymentConfig::rotation`]).
#[derive(Clone, Debug, PartialEq)]
pub struct EnduranceConfig {
    /// Duty-cycle the deployment (`true`) or keep every node always on
    /// (`false`, the baseline the lifetime extension is measured
    /// against). Both arms use identical energy accounting.
    pub rotate: bool,
    /// Total replacement sensors the restoration side may deploy across
    /// the whole run. 0 (the default) measures pure lifetime: deaths are
    /// detected but never healed.
    pub spare_budget: usize,
    /// Hard cap on simulated periods, so a healthy configuration cannot
    /// spin forever. A run that reaches it reports
    /// [`EnduranceReport::ended_by_horizon`].
    pub max_periods: u64,
    /// Scripted area failures: at the start of period `.0`, every alive
    /// node inside disk `.1` dies (the paper's natural disasters, §2.1).
    pub disasters: Vec<(u64, Disk)>,
    /// A neighbor is declared dead after this many silent periods (the
    /// detector's `timeout_periods`, on the same period clock).
    pub timeout_periods: u32,
}

impl Default for EnduranceConfig {
    fn default() -> Self {
        EnduranceConfig {
            rotate: true,
            spare_budget: 0,
            max_periods: 100_000,
            disasters: Vec::new(),
            timeout_periods: 3,
        }
    }
}

/// Outcome of one endurance run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct EnduranceReport {
    /// Periods until the first instant where the target coverage became
    /// unrecoverable (even waking every alive node, with no spares left,
    /// some point stays under-covered). Equals `max_periods` when the
    /// horizon ended the run instead.
    pub lifetime_periods: u64,
    /// Shifts in the initial agreement (0 or 1 means always-on).
    pub shifts: usize,
    /// Heartbeats broadcast across the run.
    pub heartbeats_sent: u64,
    /// Alive nodes suspected dead — must be zero: scheduled sleepers are
    /// protected by the three-state lifecycle and this simulation runs a
    /// loss-free medium for heartbeats within a period.
    pub false_positives: u64,
    /// Timeouts that crossed while the silent neighbor was scheduled
    /// asleep (each one a false restoration that did not happen).
    pub sleeping_suppressed: u64,
    /// Nodes whose battery ran out.
    pub battery_deaths: usize,
    /// Nodes killed by scripted disasters.
    pub disaster_deaths: usize,
    /// Nodes crashed by the chaos plan.
    pub chaos_deaths: usize,
    /// Dead nodes some alive observer actually detected.
    pub detected_deaths: usize,
    /// Replacement sensors deployed.
    pub extra_nodes: usize,
    /// Periods where the schedule alone under-covered some point and the
    /// whole network was woken to compensate.
    pub emergency_periods: u64,
    /// In-network re-agreements after membership changed.
    pub reschedules: u64,
    /// Restoration episodes (placer invocations that placed something).
    pub restorations: u64,
    /// `ShiftAssign` transport messages across all agreements.
    pub assignments_sent: u64,
    /// True when the horizon, not coverage loss, ended the run.
    pub ended_by_horizon: bool,
}

impl EnduranceReport {
    /// Lifetime ratio of this run over a baseline run (typically rotation
    /// over always-on).
    pub fn extension_over(&self, baseline: &EnduranceReport) -> f64 {
        self.lifetime_periods as f64 / baseline.lifetime_periods.max(1) as f64
    }
}

/// The map points a node at `pos` with radius `rs` covers: the map's
/// point index tests `dx² + dy² ≤ rs²` exactly as
/// [`decor_net::Node::covers`] does. The loop fills one list per mirror
/// node when the node enters the mirror, and the lists are the only
/// sensor–point incidence it has: the duty check counts from them, and
/// [`agree_shifts`] partitions them. Deaths leave the lists alone, since
/// a dead node is never on duty and the partition skips it.
fn covered_points(map: &CoverageMap, pos: decor_geom::Point, rs: f64) -> Box<[u32]> {
    let mut pts = Vec::new();
    map.for_each_point_within_unordered(pos, rs, |pid, _| pts.push(pid as u32));
    pts.into_boxed_slice()
}

/// True when the on-duty nodes leave some map point below `target`,
/// recounting each point's on-duty coverers from the lists into `count`.
fn duty_short(pts_of: &[Box<[u32]>], on_duty: &[bool], target: u32, count: &mut [u32]) -> bool {
    count.fill(0);
    for (pts, _) in pts_of.iter().zip(on_duty).filter(|&(_, &duty)| duty) {
        for &pid in pts.iter() {
            count[pid as usize] += 1;
        }
    }
    count.iter().any(|&c| c < target)
}

/// Why a mirror node died; each cause has its own report counter.
#[derive(Clone, Copy, Debug)]
enum Death {
    /// The chaos plan crashed it.
    Chaos,
    /// A scripted disaster's disk held it.
    Disaster,
    /// Its battery ran out.
    Battery,
}

/// One mirror node's bookkeeping. Radio spend lives in `net.stats` and
/// idle spend here; a node dies when their sum reaches the capacity
/// `rot.battery` every node starts with.
#[derive(Clone, Copy, Debug)]
struct NodeRecord {
    /// The map sensor the node mirrors.
    sensor: SensorId,
    /// Idle drain charged so far.
    idle_spent: f64,
    /// Total spend when the node last woke.
    spent_at_wake: f64,
    /// On duty last period; every node enters awake.
    was_awake: bool,
    /// Its death was detected already.
    death_handled: bool,
}

/// The endurance loop's state, but for the detector's watch lists. Node
/// `id` of `net` mirrors map sensor `nodes[id].sensor` and covers the map
/// points `pts_of[id]`.
struct Endurance<'a> {
    map: &'a mut CoverageMap,
    placer: &'a dyn Placer,
    cfg: &'a DeploymentConfig,
    e: &'a EnduranceConfig,
    rot: RotationConfig,
    net: Network,
    nodes: Vec<NodeRecord>,
    pts_of: Vec<Box<[u32]>>,
    schedule: ShiftSchedule,
    report: EnduranceReport,
    /// The next agreement's epoch.
    epoch: u64,
    /// Membership changed (an emergency or a restoration) since the
    /// last agreement.
    changed: bool,
}

impl<'a> Endurance<'a> {
    /// Mirrors the map's active sensors into a network, everyone awake,
    /// and agrees on the first rotation (always-on when `e.rotate` is
    /// off).
    fn new(
        map: &'a mut CoverageMap,
        placer: &'a dyn Placer,
        cfg: &'a DeploymentConfig,
        e: &'a EnduranceConfig,
    ) -> Self {
        cfg.validate();
        let rot = cfg.rotation.unwrap_or_default();
        rot.validate();
        assert!(
            e.timeout_periods >= 2,
            "timeout must span at least 2 periods"
        );
        let sensors = map.active_sensors();
        let mut net = Network::new(*map.field());
        cfg.link.apply(&mut net);
        net.set_trace(cfg.trace.clone());
        let mut s = Endurance {
            map,
            placer,
            cfg,
            e,
            rot,
            net,
            nodes: Vec::with_capacity(sensors.len()),
            pts_of: Vec::with_capacity(sensors.len()),
            schedule: ShiftSchedule::always_on(rot.period, sensors.len()),
            report: EnduranceReport::default(),
            epoch: 0,
            changed: false,
        };
        for &(sid, _) in &sensors {
            s.enter(sid);
        }
        if e.rotate {
            s.agree();
        }
        s.report.shifts = s.schedule.n_shifts();
        s
    }

    /// Enters map sensor `sid` into the mirror, awake with a fresh
    /// battery: a network node at its position, a record and its covered
    /// points. The initial mirror and every replacement come through here.
    fn enter(&mut self, sid: SensorId) -> NodeId {
        let pos = self.map.sensor_pos(sid);
        let id = self.net.add_node(pos, self.cfg.rs, self.cfg.rc);
        self.nodes.push(NodeRecord {
            sensor: sid,
            idle_spent: 0.0,
            spent_at_wake: 0.0,
            was_awake: true,
            death_handled: false,
        });
        self.pts_of.push(covered_points(self.map, pos, self.cfg.rs));
        id
    }

    /// Retires node `id`, dead of `cause`: fails it in the network (a
    /// chaos crash already has), deactivates its sensor, traces the
    /// failure and counts it.
    fn retire(&mut self, id: NodeId, cause: Death) {
        self.net.fail_node(id);
        self.map.deactivate_sensor(self.nodes[id].sensor);
        self.cfg
            .trace
            .emit(TraceEvent::NodeFailed { node: id as u64 });
        let r = &mut self.report;
        *match cause {
            Death::Chaos => &mut r.chaos_deaths,
            Death::Disaster => &mut r.disaster_deaths,
            Death::Battery => &mut r.battery_deaths,
        } += 1;
    }

    /// Wakes every node and runs one in-network agreement over the alive
    /// mirror at the next epoch; its schedule replaces the current one.
    fn agree(&mut self) {
        for id in 0..self.net.len() {
            self.net.set_sleeping(id, false);
        }
        let (n, rot, link) = (self.map.n_points(), &self.rot, &self.cfg.link);
        let agreement = agree_shifts(&mut self.net, &self.pts_of, n, rot, link, self.epoch);
        self.epoch += 1;
        self.report.assignments_sent += agreement.assignments_sent;
        self.schedule = agreement.schedule;
    }

    /// The emergency wake: the schedule alone under-covers but the alive
    /// nodes do not, so every alive node is on duty this period and the
    /// rotation is re-agreed after it.
    fn wake_all(&mut self, on_duty: &mut Vec<bool>) {
        self.report.emergency_periods += 1;
        self.changed = true;
        on_duty.clear();
        on_duty.extend((0..self.net.len()).map(|id| self.net.is_alive(id)));
    }

    /// One restoration episode: heals the map with the placer under the
    /// remaining spare budget and enters each new sensor into the mirror,
    /// the least loaded shift and `watch`. Returns whether anything was
    /// placed.
    fn restore(&mut self, watch: &mut WatchTable, now: Time) -> bool {
        let spares_left = self.e.spare_budget.saturating_sub(self.report.extra_nodes);
        if spares_left == 0 {
            return false;
        }
        let mut rcfg = self.cfg.clone();
        rcfg.max_new_nodes = spares_left;
        // The loop applies the chaos plan to its own network on the period
        // clock. A distributed placer handed the plan would replay it from
        // t = 0 on its own mirror and retire sensors whose nodes live on.
        rcfg.chaos = None;
        // Heal to the deployment's own coverage requirement, not just the
        // rotation target: a hole patched to bare target coverage caps the
        // next partition at a single shift and silently collapses the whole
        // network back to always-on.
        rcfg.k = self.cfg.k.max(self.rot.target_coverage);
        let first_new = self.map.n_sensors();
        let outcome = self.placer.place(self.map, &rcfg);
        if outcome.placed.is_empty() {
            return false;
        }
        self.report.extra_nodes += outcome.placed.len();
        self.report.restorations += 1;
        self.changed = true;
        // The placer appended its sensors to the map, and every older
        // active sensor is already mirrored (invariant 6).
        for sid in first_new..self.map.n_sensors() {
            if !self.map.sensor_active(sid) {
                continue;
            }
            let id = self.enter(sid);
            if self.schedule.n_shifts() > 1 {
                if let Some(si) = self.schedule.least_loaded_shift() {
                    self.schedule.assign(id, si);
                }
            }
            // Replacement introduces itself; hearers start watching it and
            // it starts watching them (symmetric hello).
            watch.introduce(&mut self.net, id, now);
            self.cfg
                .trace
                .emit(TraceEvent::NodeWake { node: id as u64 });
        }
        true
    }
}

/// Runs the endurance loop. `cfg.rotation` supplies the rotation knobs
/// (defaults apply when `None`); `e` selects the scenario. The map is
/// mutated: deaths deactivate sensors, restorations add them.
pub fn run_endurance(
    map: &mut CoverageMap,
    placer: &dyn Placer,
    cfg: &DeploymentConfig,
    e: &EnduranceConfig,
) -> EnduranceReport {
    let mut s = Endurance::new(map, placer, cfg, e);
    // Watch lists from a t=0 hello exchange (everyone awake at deploy).
    let mut watch = WatchTable::exchange_hellos(&mut s.net);
    let (rot, trace) = (s.rot, &cfg.trace);
    let target = rot.target_coverage;
    let mut chaos = cfg.chaos.clone().map(ChaosEngine::new);
    let mut disasters = e.disasters.clone();
    disasters.sort_by_key(|&(p, _)| p);
    let mut next_disaster = 0usize;
    let mut duty_count = vec![0u32; s.map.n_points()];
    let mut suspected: BTreeSet<NodeId> = BTreeSet::new();
    let mut prev_shift: Option<usize> = None;

    for period in 0.. {
        if period >= e.max_periods {
            s.report.ended_by_horizon = true;
            s.report.lifetime_periods = e.max_periods;
            break;
        }
        let now: Time = period * rot.period;
        trace.set_time(now);

        // (a) Chaos faults due this period.
        if let Some(engine) = chaos.as_mut() {
            engine.advance_to(&mut s.net, now);
            for id in engine.take_crashed() {
                s.retire(id, Death::Chaos);
            }
        }
        // (b) Scripted disasters.
        while next_disaster < disasters.len() && disasters[next_disaster].0 <= period {
            let disk = disasters[next_disaster].1;
            for id in s.net.alive_ids() {
                if disk.contains(s.net.node(id).pos) {
                    s.retire(id, Death::Disaster);
                }
            }
            next_disaster += 1;
        }
        // Invariant 6: every death deactivated its sensor and every
        // replacement entered both, so the map's counts are the alive
        // nodes' and answer "would waking everyone cover?".
        if cfg.invariants.is_enabled() {
            for (id, node) in s.nodes.iter().enumerate() {
                let (alive, active) = (s.net.is_alive(id), s.map.sensor_active(node.sensor));
                let what = "endurance mirror liveness of node";
                cfg.invariants.check_cache(what, id, &alive, &active);
            }
        }

        // (c) Ground-truth coverage check with escalation. A node is on
        // duty when alive and its shift is scheduled (unscheduled nodes
        // are always on).
        let mut on_duty: Vec<bool> = (0..s.net.len())
            .map(|id| s.net.is_alive(id) && !s.schedule.is_scheduled_asleep(id, now))
            .collect();
        let short = duty_short(&s.pts_of, &on_duty, target, &mut duty_count);
        // Invariant 6, duty form: the point lists agree with a recount
        // from `Node::covers`. A per-point range query, so debug only.
        if cfg!(debug_assertions) && cfg.invariants.is_enabled() {
            let mut buf = Vec::new();
            let fresh = s.map.points().iter().any(|&p| {
                s.net.alive_within_into(p, cfg.rs, &mut buf);
                let on = buf
                    .iter()
                    .filter(|&&id| on_duty[id] && s.net.node(id).covers(p));
                (on.count() as u32) < target
            });
            let what = "endurance on-duty shortfall of period";
            cfg.invariants
                .check_cache(what, period as usize, &short, &fresh);
        }
        let emergency = short;
        if short {
            // Wake everyone when that covers; when even that is not
            // enough, heal or die.
            let covers = |s: &Endurance| s.map.count_below(target) == 0;
            let coverable = covers(&s) || (s.restore(&mut watch, now) && covers(&s));
            if !coverable {
                s.report.lifetime_periods = period;
                break;
            }
            s.wake_all(&mut on_duty);
        }

        // (d) Shift transitions: trace boundaries, flip radio flags,
        // charge the sleep-entry drain summary.
        if s.schedule.n_shifts() > 1 {
            let cur = s.schedule.scheduled_shift(now);
            if prev_shift != Some(cur) {
                if let Some(prev) = prev_shift {
                    trace.emit(TraceEvent::ShiftEnd { shift: prev as u64 });
                }
                let awake = on_duty.iter().filter(|&&a| a).count() as u64;
                trace.emit(TraceEvent::ShiftBegin {
                    shift: cur as u64,
                    awake,
                });
                prev_shift = Some(cur);
            }
        }
        for (id, node) in s.nodes.iter_mut().enumerate() {
            if !s.net.is_alive(id) {
                continue;
            }
            let spent = s.net.stats.energy_of(id) + node.idle_spent;
            if on_duty[id] && !node.was_awake {
                trace.emit(TraceEvent::NodeWake { node: id as u64 });
                node.spent_at_wake = spent;
            } else if !on_duty[id] && node.was_awake {
                trace.emit(TraceEvent::NodeSleep { node: id as u64 });
                trace.emit(TraceEvent::BatteryDrain {
                    node: id as u64,
                    amount: spent - node.spent_at_wake,
                });
            }
            node.was_awake = on_duty[id];
            s.net.set_sleeping(id, !on_duty[id]);
        }

        // (e) Heartbeats: every on-duty node beats once, in id order.
        for (id, &duty) in on_duty.iter().enumerate() {
            if s.net.is_alive(id) && duty {
                watch.beat(&mut s.net, id, now);
                s.report.heartbeats_sent += 1;
            }
        }

        // (f) Detection: on-duty observers scan their watch lists.
        let mut newly_detected: Vec<(NodeId, NodeId)> = Vec::new();
        for (id, &duty) in on_duty.iter().enumerate() {
            if !s.net.is_alive(id) || !duty {
                continue;
            }
            for slot in watch.row_mut(id) {
                let (nb, last) = (slot.neighbor(), slot.last_heard());
                // Was the neighbor *expected* to beat this period? Dead
                // nodes stay on their last schedule, so a dead neighbor
                // whose shift is on duty is expected — and missed.
                let expected = emergency || !s.schedule.is_scheduled_asleep(nb, now);
                if !expected {
                    // Scheduled asleep: silence is the plan. A naive
                    // detector would suspect here; count the suppression.
                    // Strikes neither accrue nor reset — only on-duty
                    // periods are evidence either way.
                    if silent_too_long(now, last, rot.period, e.timeout_periods) {
                        s.report.sleeping_suppressed += 1;
                    }
                    continue;
                }
                if last == now {
                    slot.strikes = 0;
                    continue;
                }
                slot.strikes += 1;
                if slot.strikes >= e.timeout_periods {
                    if s.net.is_alive(nb) {
                        if suspected.insert(nb) {
                            s.report.false_positives += 1;
                        }
                    } else if !s.nodes[nb].death_handled {
                        s.nodes[nb].death_handled = true;
                        newly_detected.push((id, nb));
                    }
                }
            }
        }
        for (observer, nb) in newly_detected {
            s.report.detected_deaths += 1;
            trace.emit(TraceEvent::HeartbeatMiss {
                observer: observer as u64,
                node: nb as u64,
            });
            // A detected real failure triggers healing when spares allow.
            s.restore(&mut watch, now);
        }
        // Replacements placed by a detection-triggered heal enter awake;
        // they start paying the awake idle cost this very period.
        on_duty.resize(s.net.len(), true);

        // (g) Idle drain and battery deaths. Radio spend already lives in
        // net.stats; batteries die when the sum crosses capacity.
        for (id, &duty) in on_duty.iter().enumerate() {
            if !s.net.is_alive(id) {
                continue;
            }
            let node = &mut s.nodes[id];
            node.idle_spent += if duty { rot.awake_cost } else { rot.sleep_cost };
            let spent = s.net.stats.energy_of(id) + node.idle_spent;
            if spent >= rot.battery {
                trace.emit(TraceEvent::BatteryDrain {
                    node: id as u64,
                    amount: spent,
                });
                // Deliberately NOT a membership change: the network must
                // *detect* the silence before it reacts.
                s.retire(id, Death::Battery);
            }
        }

        // (h) Re-agreement after membership changed (emergency or
        // restoration): wake everyone, agree afresh, rotate on.
        if s.changed && e.rotate {
            s.agree();
            s.report.reschedules += 1;
            s.changed = false;
            prev_shift = None;
        }
    }
    s.report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedGreedy;
    use crate::InvariantChecker;
    use decor_geom::{Aabb, Point};
    use decor_lds::halton_points;
    use decor_net::FaultPlan;

    fn covered_map(k: u32, n_pts: usize) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(60.0);
        let mut cfg = DeploymentConfig::with_k(k);
        cfg.rotation = Some(RotationConfig::default());
        let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        CentralizedGreedy.place(&mut map, &cfg);
        assert_eq!(map.count_below(k), 0);
        (map, cfg)
    }

    fn quick(rotate: bool) -> EnduranceConfig {
        EnduranceConfig {
            rotate,
            max_periods: 2_000,
            ..EnduranceConfig::default()
        }
    }

    #[test]
    fn rotation_outlives_always_on() {
        let run = |rotate: bool| {
            let (mut map, cfg) = covered_map(3, 250);
            run_endurance(&mut map, &CentralizedGreedy, &cfg, &quick(rotate))
        };
        let on = run(false);
        let rotated = run(true);
        assert!(!on.ended_by_horizon, "baseline must actually die");
        assert!(!rotated.ended_by_horizon, "rotation must actually die");
        assert!(rotated.shifts > 1, "k=3 deployment must split into shifts");
        let ext = rotated.extension_over(&on);
        assert!(
            ext >= 2.0,
            "rotation must at least double lifetime: {} vs {} ({ext:.2}x)",
            rotated.lifetime_periods,
            on.lifetime_periods
        );
    }

    #[test]
    fn no_false_positives_and_suppression_proves_sleep() {
        // With S shifts a node sleeps S-1 consecutive periods; a 2-period
        // timeout guarantees that sleep stretch crosses the would-alarm
        // threshold even for the 3-shift schedule this deployment yields.
        let (mut map, cfg) = covered_map(3, 250);
        let mut e = quick(true);
        e.timeout_periods = 2;
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
        assert_eq!(report.false_positives, 0, "sleepers declared dead");
        assert!(
            report.sleeping_suppressed > 0,
            "no timeout ever crossed while asleep — suppression untested"
        );
    }

    #[test]
    fn always_on_never_suppresses() {
        let (mut map, cfg) = covered_map(3, 250);
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &quick(false));
        assert_eq!(report.shifts, 0);
        assert_eq!(report.sleeping_suppressed, 0);
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn endurance_is_deterministic() {
        let run = || {
            let (mut map, cfg) = covered_map(3, 200);
            run_endurance(&mut map, &CentralizedGreedy, &cfg, &quick(true))
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn disaster_kills_and_detection_notices() {
        // The greedy stacks k co-located sensors per benefit-max point, so
        // a survivable disaster needs a dense point set (every point keeps
        // a neighboring stack within rs) and a disk small enough to take
        // one stack's worth, not a whole neighborhood.
        let (mut map, cfg) = covered_map(3, 500);
        let mut e = quick(true);
        e.disasters = vec![(3, Disk::new(Point::new(30.0, 30.0), 2.0))];
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
        assert!(report.disaster_deaths > 0, "the disk must hit someone");
        assert!(
            report.detected_deaths > 0,
            "neighbors must notice the silence"
        );
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn spares_heal_a_disaster_and_extend_lifetime() {
        let run = |spares: usize| {
            let (mut map, cfg) = covered_map(3, 250);
            let mut e = quick(true);
            e.spare_budget = spares;
            e.disasters = vec![(3, Disk::new(Point::new(30.0, 30.0), 14.0))];
            run_endurance(&mut map, &CentralizedGreedy, &cfg, &e)
        };
        let bare = run(0);
        let healed = run(60);
        assert!(healed.extra_nodes > 0, "spares must be spent");
        assert!(healed.restorations > 0);
        assert!(healed.reschedules > 0, "replacements re-enter the rotation");
        assert!(
            healed.lifetime_periods >= bare.lifetime_periods,
            "healing cannot shorten life: {} vs {}",
            healed.lifetime_periods,
            bare.lifetime_periods
        );
    }

    #[test]
    fn chaos_crashes_count_separately() {
        let (mut map, mut cfg) = covered_map(3, 250);
        // Crash two nodes early via the chaos plan.
        cfg.chaos = Some(FaultPlan::parse("0 crash 0\n1000 crash 7\n").unwrap());
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &quick(true));
        assert_eq!(report.chaos_deaths, 2);
        assert_eq!(report.false_positives, 0);
    }

    #[test]
    fn the_mirror_matches_the_map_through_crash_disaster_and_spares() {
        // The Voronoi placer replays `cfg.chaos` on its own mirror when
        // handed one, so restoration must not hand it the loop's plan.
        let placers: [&dyn Placer; 2] = [&CentralizedGreedy, &crate::VoronoiDecor { rc: 8.0 }];
        for placer in placers {
            let (mut map, mut cfg) = covered_map(3, 300);
            cfg.chaos = Some(FaultPlan::parse("0 crash 4\n3000 crash 11\n").unwrap());
            cfg.invariants = InvariantChecker::enabled();
            let mut e = quick(true);
            e.spare_budget = 40;
            e.disasters = vec![(4, Disk::new(Point::new(30.0, 30.0), 9.0))];
            let report = run_endurance(&mut map, placer, &cfg, &e);
            assert_eq!(report.chaos_deaths, 2, "{}", placer.name());
            assert!(report.disaster_deaths > 0 && report.battery_deaths > 0);
            assert!(report.extra_nodes > 0, "spares must enter the mirror");
            assert!(
                report.emergency_periods > 0,
                "waking everyone must be tried"
            );
            cfg.invariants.assert_green();
        }
    }

    #[test]
    fn covered_points_match_node_covers_on_the_boundary() {
        // An integer lattice of points and sensors: at rs 4 and 5 every
        // sensor has points exactly rs away along both axes, and at rs 5
        // also on the (3, 4) diagonals. The partition trusts these rows,
        // so they must take `Node::covers`' `dist² <= rs²` verdict there.
        // The map's bucket edge is the default rs, 4, so the queries at
        // 5 and 9 take the index's wide path.
        let field = Aabb::square(24.0);
        let points: Vec<Point> = (0..=24)
            .flat_map(|i| (0..=24).map(move |j| Point::new(i as f64, j as f64)))
            .collect();
        let map = CoverageMap::new(points.clone(), &field, &DeploymentConfig::with_k(1));
        for rs in [4.0, 5.0, 9.0] {
            let mut on_boundary = 0;
            for x in (0..=24).step_by(4) {
                for y in (0..=24).step_by(6) {
                    let node = decor_net::Node::new(Point::new(x as f64, y as f64), rs, 2.0 * rs);
                    let mut got = covered_points(&map, node.pos, rs).into_vec();
                    got.sort_unstable();
                    let want: Vec<u32> = (0..points.len() as u32)
                        .filter(|&pi| node.covers(points[pi as usize]))
                        .collect();
                    assert_eq!(got, want, "rs {rs}, node at ({x}, {y})");
                    on_boundary += want
                        .iter()
                        .filter(|&&pi| node.pos.dist_sq(points[pi as usize]) == rs * rs)
                        .count();
                }
            }
            assert!(on_boundary > 0, "rs {rs}: no point lies on a boundary");
        }
    }

    #[test]
    fn horizon_caps_an_immortal_run() {
        let (mut map, mut cfg) = covered_map(1, 150);
        // Giant batteries: nobody dies before the horizon.
        cfg.rotation = Some(RotationConfig {
            battery: 1e12,
            ..RotationConfig::default()
        });
        let e = EnduranceConfig {
            max_periods: 50,
            ..EnduranceConfig::default()
        };
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
        assert!(report.ended_by_horizon);
        assert_eq!(report.lifetime_periods, 50);
    }
}
