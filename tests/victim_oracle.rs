//! Victims chosen from the coverage map vs victims chosen from a
//! whole-field network mirror.
//!
//! `fail_and_restore` and `coverage_after_failure` pick victims from the
//! map's sensor index (area plans) or by rank (random plans), and name
//! them by their rank among the active sensors. The path they replaced
//! built a `Network` of every active sensor and asked
//! `FailurePlan::victims`; it is kept verbatim as the oracle
//! `oracle/mirror_victims.rs`. On maps with inactive sensors, left by
//! random deactivate/reactivate scripts, both must kill the same sensors,
//! emit the same JSONL trace (so the same `NodeFailed` ids), measure the
//! same coverage after failure and return the same `RestorationReport`.
//! Area plans are centred on a sensor, or sized so that their radius
//! lands exactly on one; random plans include the extreme rates 0 and 1.

#[path = "oracle/mirror_victims.rs"]
mod mirror_victims;

use decor::core::restore::{coverage_after_failure, fail_and_restore, RestorationReport};
use decor::core::{CentralizedGreedy, CoverageMap, DeploymentConfig, InvariantChecker};
use decor::geom::{Aabb, Disk, Point};
use decor::lds::halton_points;
use decor::net::{FailurePlan, HeartbeatConfig};
use decor::trace::TraceHandle;
use mirror_victims::{
    mirror_coverage_after_failure, mirror_fail_and_restore, mirror_victim_sensors,
};
use proptest::prelude::*;

const SIDE: f64 = 60.0;

/// A field with `n_sensors` random sensors of mixed radii, then a script
/// of deactivations (ops 0 and 1) and reactivations (op 2).
#[derive(Clone, Debug)]
struct Scenario {
    k: u32,
    n_points: usize,
    sensors: Vec<(Point, f64)>,
    script: Vec<(u32, prop::sample::Index)>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        1u32..4,
        120usize..400,
        prop::collection::vec(
            (0.0..SIDE, 0.0..SIDE, 0.5..2.0f64).prop_map(|(x, y, f)| (Point::new(x, y), 4.0 * f)),
            1..160,
        ),
        prop::collection::vec((0u32..3, any::<prop::sample::Index>()), 0..120),
    )
        .prop_map(|(k, n_points, sensors, script)| Scenario {
            k,
            n_points,
            sensors,
            script,
        })
}

/// The plan kinds: 0 an area centred on a sensor, 1 an area whose radius
/// lands exactly on a sensor, 2 i.i.d., 3 an exact fraction. `rate` picks
/// 0, 1 or `x` for the random plans.
fn plan_for(
    map: &CoverageMap,
    kind: u32,
    pick: prop::sample::Index,
    x: f64,
    rate: u32,
) -> FailurePlan {
    let s = pick.index(map.n_sensors());
    let q = match rate {
        0 => 0.0,
        1 => 1.0,
        _ => x,
    };
    match kind {
        0 => FailurePlan::Area {
            disk: Disk::new(map.sensor_pos(s), 30.0 * x),
        },
        1 => {
            let center = Point::new(SIDE * x, SIDE * (1.0 - x));
            FailurePlan::Area {
                disk: Disk::new(center, center.dist(map.sensor_pos(s))),
            }
        }
        2 => FailurePlan::Iid {
            q,
            seed: pick.index(1 << 20) as u64,
        },
        _ => FailurePlan::Fraction {
            frac: q,
            seed: pick.index(1 << 20) as u64,
        },
    }
}

fn build(sc: &Scenario) -> (CoverageMap, DeploymentConfig) {
    let field = Aabb::square(SIDE);
    let cfg = DeploymentConfig::with_k(sc.k);
    let mut map = CoverageMap::new(halton_points(sc.n_points, &field), &field, &cfg);
    for &(pos, rs) in &sc.sensors {
        map.add_sensor(pos, rs);
    }
    for &(op, idx) in &sc.script {
        let sid = idx.index(map.n_sensors());
        if op < 2 {
            map.deactivate_sensor(sid);
        } else {
            map.reactivate_sensor(sid);
        }
    }
    map.verify_consistency();
    (map, cfg)
}

/// Sensor ids active in `before` but not in `after`, ascending.
fn killed(before: &CoverageMap, after: &CoverageMap) -> Vec<usize> {
    (0..before.n_sensors())
        .filter(|&s| before.sensor_active(s) && !after.sensor_active(s))
        .collect()
}

fn coverage_of(map: &CoverageMap) -> Vec<u32> {
    (0..map.n_points()).map(|p| map.coverage(p)).collect()
}

/// Runs `fail_and_restore` and the mirror oracle on copies of `map` with a
/// JSONL trace attached, requiring equal kills, traces and reports. The
/// map-based side also runs with the invariant checker on.
fn assert_restore_matches(
    map: &CoverageMap,
    cfg: &DeploymentConfig,
    plan: &FailurePlan,
    hb: Option<HeartbeatConfig>,
) -> RestorationReport {
    let mut cfg_new = cfg.clone();
    cfg_new.trace = TraceHandle::jsonl_writer();
    cfg_new.invariants = InvariantChecker::enabled();
    let mut cfg_old = cfg.clone();
    cfg_old.trace = TraceHandle::jsonl_writer();
    let (mut m_new, mut m_old) = (map.clone(), map.clone());
    let new = fail_and_restore(&mut m_new, &CentralizedGreedy, &cfg_new, plan, hb);
    let old = mirror_fail_and_restore(&mut m_old, &CentralizedGreedy, &cfg_old, plan, hb);
    cfg_new.invariants.assert_green();
    assert_eq!(format!("{new:?}"), format!("{old:?}"), "reports differ");
    assert_eq!(
        cfg_new.trace.jsonl(),
        cfg_old.trace.jsonl(),
        "traces differ"
    );
    assert_eq!(coverage_of(&m_new), coverage_of(&m_old));
    m_new.verify_consistency();
    new
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn map_victims_match_the_mirror(
        sc in arb_scenario(),
        kind in 0u32..4,
        pick in any::<prop::sample::Index>(),
        x in 0.0..1.0f64,
        rate in 0u32..4,
        beat in 0u32..4,
    ) {
        let (map, cfg) = build(&sc);
        let plan = plan_for(&map, kind, pick, x, rate);

        // The same sensors die, and the survivors measure the same.
        let want = mirror_victim_sensors(&map, &plan);
        let mut m_new = map.clone();
        let mut m_old = map.clone();
        let mut cfg_checked = cfg.clone();
        cfg_checked.invariants = InvariantChecker::enabled();
        let cov_new = coverage_after_failure(&mut m_new, &cfg_checked, &plan, cfg.k);
        let cov_old = mirror_coverage_after_failure(&mut m_old, &cfg, &plan, cfg.k);
        cfg_checked.invariants.assert_green();
        prop_assert_eq!(killed(&map, &m_new), want.clone());
        prop_assert_eq!(killed(&map, &m_old), want.clone());
        prop_assert_eq!(cov_new.to_bits(), cov_old.to_bits());
        m_new.verify_consistency();

        // The whole pipeline: no heartbeat, heartbeat.
        let hb = HeartbeatConfig { period: 100, timeout_periods: 3, seed: pick.index(1000) as u64 };
        let hb = match beat {
            0 | 1 => None,
            _ => Some(hb),
        };
        let report = assert_restore_matches(&map, &cfg, &plan, hb);
        prop_assert_eq!(report.victims, want.len());
    }
}

/// A fixed case of each plan kind on a map whose inactive sensors sit
/// below, among and above the victims, so mirror ids and sensor ids
/// differ.
#[test]
fn mirror_ids_skip_inactive_sensors() {
    let field = Aabb::square(SIDE);
    let cfg = DeploymentConfig::with_k(1);
    let mut map = CoverageMap::new(halton_points(300, &field), &field, &cfg);
    for i in 0..12 {
        for j in 0..12 {
            map.add_sensor(Point::new(2.5 + 5.0 * i as f64, 2.5 + 5.0 * j as f64), 4.0);
        }
    }
    for sid in [0, 3, 70, 71, 72, 90, 140] {
        map.deactivate_sensor(sid);
    }
    let plans = [
        FailurePlan::Area {
            disk: Disk::new(Point::new(30.0, 30.0), 11.0),
        },
        FailurePlan::Iid { q: 0.3, seed: 5 },
        FailurePlan::Fraction { frac: 0.2, seed: 6 },
        FailurePlan::Fraction { frac: 1.0, seed: 7 },
    ];
    for plan in plans {
        let report = assert_restore_matches(&map, &cfg, &plan, None);
        assert!(report.victims > 0, "{plan:?} killed nothing");
    }
}
