//! The full failure-and-restoration pipeline (§4.2, Figs. 11–14).
//!
//! A deployed network suffers failures (random or area), surviving
//! neighbors detect them through the heartbeat protocol, and a placement
//! algorithm restores `k`-coverage. [`fail_and_restore`] wires the pieces
//! together: `decor-net` failure injection and detection on one side,
//! `decor-core` placement on the other, with the coverage map as the
//! shared ground truth.
//!
//! Victims are chosen from the map, not from a network. An area plan asks
//! the map's sensor index for the active sensors in its disc; a random
//! plan draws ranks with [`FailurePlan::draw_ranks`], the same draw
//! [`FailurePlan::victims`] makes on a network. Either way each victim
//! also gets its *mirror id*: its rank among the active sensors, which is
//! the node id a network built from [`CoverageMap::active_sensors`] gives
//! it. Trace events name victims by mirror id, and the heartbeat phase,
//! the only part that needs a network, builds exactly that mirror.

use crate::config::DeploymentConfig;
use crate::coverage::{CoverageMap, SensorId};
use crate::invariants::InvariantChecker;
use crate::metrics::PlacementOutcome;
use crate::Placer;
use decor_geom::Disk;
use decor_net::{
    FailurePlan, HeartbeatConfig, HeartbeatSim, Network, NodeId, ShiftSchedule, SleepScheduler,
    Time,
};
use decor_trace::TraceEvent;

/// Outcome of one failure-and-restoration episode.
#[derive(Clone, Debug)]
pub struct RestorationReport {
    /// Sensors killed by the failure plan.
    pub victims: usize,
    /// Victims detected by the heartbeat protocol (equals `victims` when
    /// detection is skipped — failures are then assumed known).
    pub detected: usize,
    /// Worst-case detection latency in ticks (None when detection was
    /// skipped or nothing was detected).
    pub detection_latency: Option<Time>,
    /// Fraction of points still `k`-covered right after the failure
    /// (the y-axis of Figs. 11 and 13).
    pub coverage_after_failure: f64,
    /// New sensors the restoration placed (the y-axis of Fig. 14).
    pub extra_nodes: usize,
    /// Fraction of points `k`-covered after restoration.
    pub coverage_after_restore: f64,
    /// Alive nodes the detector suspected dead anyway (false alarms that
    /// would have triggered pointless restorations). With rotation
    /// enabled this must stay zero for scheduled sleepers: the pipeline
    /// consults the sleep schedule before declaring anyone dead.
    pub false_restorations: usize,
    /// Timeouts that crossed while the silent neighbor was scheduled
    /// asleep — each one a restoration the three-state lifecycle
    /// prevented. Always 0 without `DeploymentConfig::rotation`.
    pub sleeping_suppressed: u64,
    /// The raw placement outcome of the restoration run.
    pub outcome: PlacementOutcome,
}

/// Fails sensors per `plan`, optionally runs heartbeat detection, then
/// restores `k`-coverage with `placer`.
///
/// When `heartbeat` is `Some`, a detection simulation runs first over a
/// network mirror of every active sensor (in the paper's §3.2 protocol
/// every node beats): the failure fires at tick `4 × period` and
/// detection gets `40` periods to conclude; its latency lands in the
/// report. With rotation configured, detection runs against the
/// set-k-cover sleep schedule of that mirror. Detection never sees
/// `cfg.chaos`: only the restoration placer applies the fault plan, so a
/// plan is replayed once per run. Restoration proceeds for
/// all victims regardless (undetected isolated victims are eventually
/// noticed as coverage holes — the paper's uncovered-region estimation).
///
/// Restoration is output-sensitive. Without a heartbeat phase nothing
/// here touches the whole field: victims come from the map (see the
/// module docs), and the deactivations mark the damaged tiles of the
/// coverage map's summary layer, from which every placer works — the
/// centralized baseline restricts its candidate pool to the point-index
/// buckets around below-target points, grid DECOR builds its engine over
/// the damaged cells only, and the Voronoi scheme's ownership worklist
/// re-examines (after one initial pass) only the points each round's
/// placements disturbed. Cost scales with the damaged area, not the
/// field; victims, trace and placements are identical to the full-field
/// paths (differential tests pin this).
///
/// With the invariant checker on, invariant 7 checks that each mirror id
/// maps back to its victim's sensor, and that no active sensor is left
/// inside an area plan's disc.
pub fn fail_and_restore(
    map: &mut CoverageMap,
    placer: &dyn Placer,
    cfg: &DeploymentConfig,
    plan: &FailurePlan,
    heartbeat: Option<HeartbeatConfig>,
) -> RestorationReport {
    cfg.validate();
    let victims = select_victims(map, plan, &cfg.invariants);

    let (detected, latency, false_restorations, sleeping_suppressed) = match heartbeat {
        Some(hb) => {
            // Mirror node i is the i-th active sensor, so the victims'
            // mirror ids are their node ids here. The configured link
            // loss applies, so detection runs over the same medium the
            // restoration placer will use.
            let mut net = Network::new(*map.field());
            cfg.link.apply(&mut net);
            net.set_trace(cfg.trace.clone());
            for (_, pos) in map.active_sensors() {
                net.add_node(pos, cfg.rs, cfg.rc);
            }
            let victims_net: Vec<NodeId> = victims.iter().map(|&(_, node)| node).collect();
            // With rotation configured, detection must run against the
            // sleep schedule: a node whose shift is off duty is Asleep,
            // not Dead, and its silence must never be declared a failure.
            // The schedule is the canonical set-k-cover partition of the
            // pre-failure deployment — exactly what the in-network
            // agreement (`crate::rotation`) lands on.
            let schedule: Option<ShiftSchedule> = cfg.rotation.as_ref().and_then(|rot| {
                let shifts = SleepScheduler::new(rot.target_coverage).shifts(&net, map.points());
                let n = net.len();
                (shifts.len() > 1).then(|| ShiftSchedule::new(shifts, rot.period, n))
            });
            let sim = HeartbeatSim::new(hb);
            let fail_at = 4 * hb.period;
            let horizon = fail_at + 40 * hb.period;
            let report = match &schedule {
                Some(sched) => sim.run_scheduled(&mut net, &victims_net, fail_at, horizon, sched),
                None => sim.run(&mut net, &victims_net, fail_at, horizon),
            };
            cfg.trace.set_time(fail_at);
            for &v in &victims_net {
                cfg.trace.emit(TraceEvent::NodeFailed { node: v as u64 });
            }
            // Detections in (time, victim) order so the trace timeline
            // stays monotone.
            let mut detections: Vec<(Time, NodeId, NodeId)> = report
                .first_detection
                .iter()
                .map(|(&victim, &(t, observer))| (t, victim, observer))
                .collect();
            detections.sort_unstable();
            for (t, victim, observer) in detections {
                cfg.trace.set_time(t);
                cfg.trace.emit(TraceEvent::HeartbeatMiss {
                    observer: observer as u64,
                    node: victim as u64,
                });
            }
            (
                report.first_detection.len(),
                report.max_latency(fail_at),
                report.false_positives.len(),
                report.sleeping_suppressed,
            )
        }
        None => {
            for &(_, node) in &victims {
                cfg.trace.emit(TraceEvent::NodeFailed { node: node as u64 });
            }
            (victims.len(), None, 0, 0)
        }
    };

    kill_victims(map, plan, &victims, &cfg.invariants);
    let coverage_after_failure = map.fraction_k_covered(cfg.k);

    let outcome = placer.place(map, cfg);
    RestorationReport {
        victims: victims.len(),
        detected,
        detection_latency: latency,
        coverage_after_failure,
        extra_nodes: outcome.placed.len(),
        coverage_after_restore: map.fraction_k_covered(cfg.k),
        false_restorations,
        sleeping_suppressed,
        outcome,
    }
}

/// Fails an exact fraction of sensors and reports only the surviving
/// coverage — the Fig. 11/12 measurement (no restoration). Picks the same
/// victims as [`fail_and_restore`], with the same invariant-7 checks.
/// Leaves the map failed; callers clone or rebuild.
pub fn coverage_after_failure(
    map: &mut CoverageMap,
    cfg: &DeploymentConfig,
    plan: &FailurePlan,
    k_measure: u32,
) -> f64 {
    let victims = select_victims(map, plan, &cfg.invariants);
    kill_victims(map, plan, &victims, &cfg.invariants);
    map.fraction_k_covered(k_measure)
}

/// The victims `plan` picks among the map's active sensors, as
/// `(sensor id, mirror id)` pairs in ascending order (the two orders
/// agree). These are exactly the victims [`FailurePlan::victims`] picks
/// on a network mirror built from [`CoverageMap::active_sensors`].
fn select_victims(
    map: &mut CoverageMap,
    plan: &FailurePlan,
    checker: &InvariantChecker,
) -> Vec<(SensorId, NodeId)> {
    let victims: Vec<(SensorId, NodeId)> = match *plan {
        FailurePlan::Area { disk } => {
            let sids = active_in_disc(map, disk);
            let inactive = map.inactive_sensors();
            sids.into_iter()
                .map(|sid| (sid, rank_of(inactive, sid)))
                .collect()
        }
        _ => {
            let ranks = plan
                .draw_ranks(map.n_active_sensors())
                .expect("every plan but an area plan draws ranks");
            let inactive = map.inactive_sensors();
            ranks
                .into_iter()
                .map(|rank| (sensor_at_rank(inactive, rank), rank))
                .collect()
        }
    };
    if checker.is_enabled() {
        let inactive = map.inactive_sensors();
        for &(sid, node) in &victims {
            checker.check_mirror_id(
                node as u64,
                sid as u64,
                rank_of(inactive, sid) as u64,
                sensor_at_rank(inactive, node) as u64,
            );
        }
    }
    victims
}

/// Deactivates the victims, then checks that an area plan left no active
/// sensor inside its disc.
fn kill_victims(
    map: &mut CoverageMap,
    plan: &FailurePlan,
    victims: &[(SensorId, NodeId)],
    checker: &InvariantChecker,
) {
    for &(sid, _) in victims {
        map.deactivate_sensor(sid);
    }
    if let FailurePlan::Area { disk } = *plan {
        if checker.is_enabled() {
            checker.check_disc_cleared(active_in_disc(map, disk).len());
        }
    }
}

/// Ids of the active sensors that `Disk::contains` accepts, ascending.
/// The sensor index filters with the same squared-distance test; its
/// query radius is a hair wider than the disc's, so rounding in the
/// index's bucket range cannot drop a sensor the disc holds. (The disc's
/// fields are public and `contains` squares the radius, hence `abs`.)
fn active_in_disc(map: &CoverageMap, disk: Disk) -> Vec<SensorId> {
    let reach = disk.radius.abs() * (1.0 + 1e-9) + 1e-9;
    let mut sids = Vec::new();
    map.for_each_sensor_within(disk.center, reach, |sid, pos| {
        if disk.contains(pos) {
            sids.push(sid);
        }
    });
    sids.sort_unstable();
    sids
}

/// The rank of active sensor `sid` among the active sensors, given the
/// ascending inactive ids: its id minus the inactive ids below it.
fn rank_of(inactive: &[SensorId], sid: SensorId) -> NodeId {
    sid - inactive.partition_point(|&i| i < sid)
}

/// The active sensor of rank `rank`, the inverse of [`rank_of`]. It is
/// `rank + j` for the `j` inactive ids below it, and those are exactly
/// the ids with `inactive[i] - i <= rank`: `inactive[i] - i` counts the
/// active ids below `inactive[i]`, so it never decreases.
fn sensor_at_rank(inactive: &[SensorId], rank: NodeId) -> SensorId {
    let (mut lo, mut hi) = (0, inactive.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if inactive[mid] - mid <= rank {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    rank + lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedGreedy;
    use decor_geom::{Aabb, Point};
    use decor_lds::halton_points;

    fn covered_map(k: u32, n_pts: usize) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(k);
        let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        CentralizedGreedy.place(&mut map, &cfg);
        assert_eq!(map.count_below(k), 0);
        (map, cfg)
    }

    #[test]
    fn area_failure_then_restore_recovers_coverage() {
        let (mut map, cfg) = covered_map(1, 600);
        let plan = FailurePlan::Area {
            disk: Disk::new(Point::new(50.0, 50.0), 24.0),
        };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, None);
        assert!(report.victims > 0);
        assert!(report.coverage_after_failure < 1.0);
        assert!(report.extra_nodes > 0);
        assert_eq!(report.coverage_after_restore, 1.0);
        assert_eq!(map.count_below(1), 0);
    }

    #[test]
    fn area_failure_drops_roughly_the_disc_share() {
        let (mut map, cfg) = covered_map(1, 1000);
        let plan = FailurePlan::Area {
            disk: Disk::new(Point::new(50.0, 50.0), 24.0),
        };
        let cov = coverage_after_failure(&mut map, &cfg, &plan, 1);
        // Disc is ~18% of the field; sensors just outside still cover the
        // fringe, so the covered share stays within a band around 82%.
        assert!((0.70..=0.95).contains(&cov), "coverage {cov}");
    }

    #[test]
    fn random_fraction_failure_degrades_gracefully() {
        let (mut map, cfg) = covered_map(3, 800);
        let plan = FailurePlan::Fraction {
            frac: 0.15,
            seed: 2,
        };
        let cov3 = coverage_after_failure(&mut map, &cfg, &plan, 3);
        assert!(cov3 < 1.0, "some 3-coverage must be lost");
        // 1-coverage survives much better than 3-coverage.
        let cov1 = map.fraction_k_covered(1);
        assert!(cov1 > cov3);
        assert!(cov1 > 0.95, "1-coverage should barely notice 15% failures");
    }

    #[test]
    fn detection_reports_latency_and_counts() {
        let (mut map, cfg) = covered_map(1, 400);
        let plan = FailurePlan::Fraction { frac: 0.1, seed: 3 };
        let hb = HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 4,
        };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, Some(hb));
        assert!(report.victims > 0);
        assert!(report.detected > 0);
        assert!(report.detected <= report.victims);
        let lat = report.detection_latency.expect("something detected");
        assert!((200..=1000).contains(&lat), "latency {lat}");
        assert_eq!(report.coverage_after_restore, 1.0);
    }

    #[test]
    fn detection_emits_failure_and_miss_events() {
        let (mut map, mut cfg) = covered_map(1, 400);
        cfg.trace = decor_trace::TraceHandle::counting();
        let plan = FailurePlan::Fraction { frac: 0.1, seed: 3 };
        let hb = HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 4,
        };
        let placer = crate::grid_scheme::GridDecor { cell_size: 10.0 };
        let report = fail_and_restore(&mut map, &placer, &cfg, &plan, Some(hb));
        let counts = cfg.trace.counts().expect("counting sink attached");
        let get = |k: &str| counts.get(k).copied().unwrap_or(0);
        assert_eq!(get("node_failed"), report.victims as u64);
        assert_eq!(get("heartbeat_miss"), report.detected as u64);
        assert_eq!(get("sensor_placed"), report.extra_nodes as u64);
    }

    #[test]
    fn no_failures_means_no_restoration() {
        let (mut map, cfg) = covered_map(1, 300);
        let plan = FailurePlan::Fraction { frac: 0.0, seed: 5 };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, None);
        assert_eq!(report.victims, 0);
        assert_eq!(report.extra_nodes, 0);
        assert_eq!(report.coverage_after_failure, 1.0);
    }

    #[test]
    fn sleeping_nodes_cause_zero_false_restorations() {
        // Regression for the three-state lifecycle: rotation puts whole
        // shifts to sleep for 4 heartbeat periods — past the 3-period
        // timeout — so a schedule-blind detector would suspect every
        // sleeper and trigger restorations for nodes that are fine. The
        // pipeline must consult the schedule instead: zero false
        // restorations, and a non-zero suppression count proving the
        // timeouts genuinely crossed while the nodes slept.
        let (mut map, mut cfg) = covered_map(3, 500);
        cfg.rotation = Some(decor_net::RotationConfig {
            target_coverage: 1,
            period: 400,
            ..decor_net::RotationConfig::default()
        });
        let plan = FailurePlan::Fraction { frac: 0.0, seed: 0 };
        let hb = HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 8,
        };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, Some(hb));
        assert_eq!(report.victims, 0);
        assert_eq!(
            report.false_restorations, 0,
            "a scheduled sleeper was declared dead"
        );
        assert!(
            report.sleeping_suppressed > 0,
            "rotation never crossed a timeout — the regression is untested"
        );
        assert_eq!(report.extra_nodes, 0, "nothing failed, nothing to place");
    }

    #[test]
    fn real_failures_still_restored_under_rotation() {
        let (mut map, mut cfg) = covered_map(3, 500);
        cfg.rotation = Some(decor_net::RotationConfig {
            target_coverage: 1,
            period: 400,
            ..decor_net::RotationConfig::default()
        });
        let plan = FailurePlan::Fraction {
            frac: 0.15,
            seed: 2,
        };
        let hb = HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 9,
        };
        let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, Some(hb));
        assert!(report.victims > 0);
        assert_eq!(report.false_restorations, 0);
        assert_eq!(
            report.coverage_after_restore, 1.0,
            "rotation must not block healing"
        );
    }

    /// Without a heartbeat phase nothing reads a shift schedule, so
    /// rotation must change neither the report nor the trace (and the
    /// schedule is not computed at all).
    #[test]
    fn rotation_without_heartbeat_changes_nothing() {
        let plan = FailurePlan::Area {
            disk: Disk::new(Point::new(40.0, 55.0), 20.0),
        };
        let run = |rotate: bool| {
            let (mut map, mut cfg) = covered_map(3, 500);
            cfg.trace = decor_trace::TraceHandle::jsonl_writer();
            if rotate {
                cfg.rotation = Some(decor_net::RotationConfig {
                    target_coverage: 1,
                    period: 400,
                    ..decor_net::RotationConfig::default()
                });
            }
            let report = fail_and_restore(&mut map, &CentralizedGreedy, &cfg, &plan, None);
            (
                format!("{report:?}"),
                cfg.trace.jsonl().expect("JSONL sink"),
            )
        };
        let (plain, rotating) = (run(false), run(true));
        assert!(plain.1.contains("node_failed"));
        assert_eq!(plain, rotating);
    }

    /// Invariant 7 holds on a map whose inactive sensors shift the mirror
    /// ids away from the sensor ids, for both plan families.
    #[test]
    fn failures_keep_invariant_seven_green() {
        let (mut map, mut cfg) = covered_map(2, 600);
        for sid in (0..map.n_sensors()).step_by(7) {
            map.deactivate_sensor(sid);
        }
        CentralizedGreedy.place(&mut map, &cfg);
        cfg.invariants = crate::InvariantChecker::enabled();
        let plans = [
            FailurePlan::Area {
                disk: Disk::new(Point::new(60.0, 40.0), 18.0),
            },
            FailurePlan::Iid { q: 0.2, seed: 3 },
            FailurePlan::Fraction {
                frac: 0.25,
                seed: 4,
            },
        ];
        for plan in plans {
            let mut m = map.clone();
            let report = fail_and_restore(&mut m, &CentralizedGreedy, &cfg, &plan, None);
            assert!(report.victims > 0);
            assert_eq!(report.coverage_after_restore, 1.0);
            m.verify_consistency();
        }
        cfg.invariants.assert_green();
    }

    #[test]
    fn ranks_and_sensors_invert_each_other() {
        let inactive = [0, 1, 4, 5, 9];
        let active: Vec<usize> = (0..14).filter(|s| !inactive.contains(s)).collect();
        for (rank, &sid) in active.iter().enumerate() {
            assert_eq!(rank_of(&inactive, sid), rank);
            assert_eq!(sensor_at_rank(&inactive, rank), sid);
        }
        assert_eq!(sensor_at_rank(&[], 6), 6);
    }

    #[test]
    fn higher_k_tolerates_more_failures() {
        // The Fig. 12 mechanism in miniature: a k=3 deployment keeps far
        // more 1-coverage under 30% failures than a k=1 deployment.
        let survive = |k: u32| {
            let (mut map, cfg) = covered_map(k, 600);
            let plan = FailurePlan::Fraction { frac: 0.3, seed: 6 };
            coverage_after_failure(&mut map, &cfg, &plan, 1)
        };
        let k1 = survive(1);
        let k3 = survive(3);
        assert!(k3 > k1, "k=3 ({k3}) must beat k=1 ({k1})");
        assert!(k3 > 0.9, "k=3 should keep >90% 1-coverage, got {k3}");
    }
}
