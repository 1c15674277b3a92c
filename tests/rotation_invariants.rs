//! Property-based tests over the set-k-cover rotation invariants:
//!
//! - the canonical partition's shifts are **disjoint** and **exhaustive**
//!   over the alive nodes;
//! - **each shift alone** maintains the target coverage at every
//!   monitored point;
//! - at **any instant** of the rotation clock, the scheduled-awake set
//!   maintains the target;
//! - the endurance loop never reports an impossible outcome (false
//!   positives on sleepers, lifetimes past the horizon, more deaths than
//!   nodes) for randomized fields, coverage degrees, batteries and chaos
//!   plans.

use decor::core::{
    run_endurance, CentralizedGreedy, CoverageMap, DeploymentConfig, EnduranceConfig, Placer,
};
use decor::geom::{Aabb, Point};
use decor::lds::halton_points;
use decor::net::{FaultPlan, Network, RotationConfig, ShiftSchedule, SleepScheduler};
use proptest::prelude::*;
use std::collections::BTreeSet;

const SIDE: f64 = 40.0;

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..SIDE, 0.0..SIDE).prop_map(|(x, y)| Point::new(x, y))
}

/// A network from an arbitrary sensor cloud (rs 4, rc 8 — the paper's).
fn net_of(cloud: &[Point]) -> Network {
    let mut net = Network::new(Aabb::square(SIDE));
    for &p in cloud {
        net.add_node(p, 4.0, 8.0);
    }
    net
}

/// Each node's covered points by `Node::covers`, one row per node: the
/// incidence the partition reads.
fn rows_of(net: &Network, points: &[Point]) -> Vec<Box<[u32]>> {
    (0..net.len())
        .map(|id| {
            (0..points.len() as u32)
                .filter(|&pi| net.node(id).covers(points[pi as usize]))
                .collect()
        })
        .collect()
}

/// The canonical partition of `net`'s alive nodes over `points`.
fn shifts_of(net: &Network, points: &[Point], target: u32) -> Vec<Vec<usize>> {
    SleepScheduler::new(target).shifts(&rows_of(net, points), |id| net.is_alive(id), points.len())
}

/// Coverage degree of `p` among `ids`.
fn degree(net: &Network, ids: &[usize], p: Point) -> u32 {
    ids.iter().filter(|&&id| net.node(id).covers(p)).count() as u32
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Disjoint + exhaustive + per-shift coverage, on arbitrary clouds.
    #[test]
    fn shifts_partition_the_alive_nodes(
        cloud in prop::collection::vec(arb_point(), 4..80),
        target in 1u32..3,
        n_pts in 20usize..60,
    ) {
        let net = net_of(&cloud);
        let points = halton_points(n_pts, &Aabb::square(SIDE));
        let shifts = shifts_of(&net, &points, target);
        let mut seen = BTreeSet::new();
        for shift in &shifts {
            for &id in shift {
                prop_assert!(seen.insert(id), "node {id} in two shifts");
            }
            for &p in &points {
                prop_assert!(
                    degree(&net, shift, p) >= target,
                    "a shift alone under-covers {p:?}"
                );
            }
        }
        if !shifts.is_empty() {
            let alive: BTreeSet<usize> = net.alive_ids().into_iter().collect();
            prop_assert_eq!(seen, alive, "partition must be exhaustive");
        }
    }

    /// At every instant of the rotation clock the scheduled-awake set
    /// (shift members on duty plus unscheduled nodes) holds the target.
    #[test]
    fn scheduled_awake_set_covers_at_every_instant(
        cloud in prop::collection::vec(arb_point(), 4..60),
        target in 1u32..3,
        period in 1u64..5_000,
        probes in prop::collection::vec(0u64..1_000_000, 4..9),
    ) {
        let net = net_of(&cloud);
        let points = halton_points(30, &Aabb::square(SIDE));
        let shifts = shifts_of(&net, &points, target);
        prop_assume!(!shifts.is_empty());
        let schedule = ShiftSchedule::new(shifts, period, net.len());
        for &t in &probes {
            let awake: Vec<usize> = (0..net.len())
                .filter(|&id| !schedule.is_scheduled_asleep(id, t))
                .collect();
            for &p in &points {
                prop_assert!(
                    degree(&net, &awake, p) >= target,
                    "under-covered at t={t}"
                );
            }
        }
    }
}

proptest! {
    // The endurance loop is a full simulation per case; keep cases few.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Endurance outcomes stay sane for random k, battery and chaos.
    #[test]
    fn endurance_reports_are_always_plausible(
        k in 1u32..4,
        battery in 200.0..2_000.0f64,
        chaos_seed in 0u64..1_000,
        with_chaos in any::<bool>(),
        rotate in any::<bool>(),
    ) {
        let field = Aabb::square(SIDE);
        let mut cfg = DeploymentConfig::with_k(k);
        cfg.rotation = Some(RotationConfig {
            battery,
            ..RotationConfig::default()
        });
        let mut map = CoverageMap::new(halton_points(120, &field), &field, &cfg);
        CentralizedGreedy.place(&mut map, &cfg);
        let n0 = map.n_active_sensors();
        cfg.chaos = with_chaos.then(|| FaultPlan::generate(chaos_seed, n0, 50_000));
        let e = EnduranceConfig {
            rotate,
            max_periods: 300,
            ..EnduranceConfig::default()
        };
        let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
        prop_assert_eq!(report.false_positives, 0, "sleeper declared dead");
        prop_assert!(report.lifetime_periods <= e.max_periods);
        if report.ended_by_horizon {
            prop_assert_eq!(report.lifetime_periods, e.max_periods);
        }
        let deaths = report.battery_deaths + report.disaster_deaths + report.chaos_deaths;
        prop_assert!(deaths <= n0, "more deaths ({deaths}) than sensors ({n0})");
        prop_assert!(report.detected_deaths <= deaths);
        if !rotate {
            prop_assert_eq!(report.sleeping_suppressed, 0);
            prop_assert_eq!(report.reschedules, 0);
        }
    }
}
