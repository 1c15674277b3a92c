//! Differential tests for the placement engine: the incremental benefit
//! machinery ([`ShardedBenefitEngine`], and the seed path's
//! [`BenefitTable`] oracle) must stay bit-identical to direct evaluation
//! ([`benefit_at`] and its argmax, [`direct_best`]) under arbitrary sensor
//! churn, and the engine-backed centralized placement must reproduce the
//! seed placement path, kept here as an oracle ([`benefit_table_greedy`]),
//! exactly.

#[path = "oracle/benefit_table.rs"]
mod benefit_table;

use benefit_table::BenefitTable;
use decor::core::{
    benefit_at, CentralizedGreedy, CoverageMap, DeploymentConfig, PlacementOutcome, Placer,
    ShardedBenefitEngine, TracePoint,
};
use decor::geom::{Aabb, Point};
use decor::lds::halton_points;
use proptest::prelude::*;

/// The seed centralized greedy: a [`BenefitTable`] over every point, whose
/// `best()` is a linear scan and whose updates recompute every affected
/// benefit. The engine-backed [`CentralizedGreedy`] restricts candidates
/// to the deficit's neighborhood and caches per-shard maxima; it must
/// place the same sensors in the same order with the same trace.
fn benefit_table_greedy(map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
    let initial = map.n_active_sensors();
    let cands: Vec<usize> = (0..map.n_points()).collect();
    let mut table = BenefitTable::new(map, cands, cfg.rs, cfg.k);
    let mut out = PlacementOutcome {
        initial_sensors: initial,
        ..PlacementOutcome::default()
    };
    out.trace.push(TracePoint {
        total_sensors: initial,
        fraction_k_covered: map.fraction_k_covered(cfg.k),
    });
    while out.placed.len() < cfg.max_new_nodes {
        let Some((_, _, pos, _)) = table.best() else {
            break; // zero benefit everywhere => fully k-covered
        };
        map.add_sensor(pos, cfg.rs);
        table.on_sensor_added(map, pos, cfg.rs);
        out.placed.push(pos);
        out.trace.push(TracePoint {
            total_sensors: initial + out.placed.len(),
            fraction_k_covered: map.fraction_k_covered(cfg.k),
        });
    }
    out.fully_covered = map.count_below(cfg.k) == 0;
    out
}

/// Runs [`CentralizedGreedy`] and the [`benefit_table_greedy`] oracle on
/// copies of `map` and requires identical placements and traces.
fn assert_greedy_matches_oracle(map: &CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
    let (mut m_engine, mut m_table) = (map.clone(), map.clone());
    let a = CentralizedGreedy.place(&mut m_engine, cfg);
    let b = benefit_table_greedy(&mut m_table, cfg);
    assert_eq!(a.placed, b.placed, "placements diverge");
    assert_eq!(a.fully_covered, b.fully_covered);
    assert_eq!(a.trace, b.trace);
    m_engine.verify_consistency();
    a
}

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..100.0f64, 0.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
}

/// One churn step: add a sensor, kill an earlier one, or revive one.
#[derive(Clone, Debug)]
enum Churn {
    Add(Point, f64),
    Kill(prop::sample::Index),
    Revive(prop::sample::Index),
}

fn arb_churn() -> impl Strategy<Value = Churn> {
    // 0..=2 => Add (3x weight), 3 => Kill, 4 => Revive.
    (
        0u8..5,
        arb_point(),
        2.0..10.0f64,
        any::<prop::sample::Index>(),
    )
        .prop_map(|(tag, p, r, idx)| match tag {
            0..=2 => Churn::Add(p, r),
            3 => Churn::Kill(idx),
            _ => Churn::Revive(idx),
        })
}

/// The direct argmax of Equation 1 over `cands`: `(point_id, benefit)`
/// of the maximum positive benefit, ties to the lowest id; `None` when
/// every benefit is zero.
fn direct_best(map: &CoverageMap, cands: &[usize], rs: f64, k: u32) -> Option<(usize, u64)> {
    cands
        .iter()
        .map(|&pid| (pid, benefit_at(map, map.points()[pid], rs, k)))
        .filter(|&(_, b)| b > 0)
        .min_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)))
}

/// Checks that every incremental benefit view agrees with direct
/// evaluation: table slots, engine slots, and `best()` of both against
/// [`direct_best`].
fn assert_all_views_agree(
    map: &CoverageMap,
    table: &BenefitTable,
    engine: &mut ShardedBenefitEngine,
    cands: &[usize],
    rs: f64,
    k: u32,
) {
    for (slot, &pid) in cands.iter().enumerate() {
        let direct = benefit_at(map, map.points()[pid], rs, k);
        assert_eq!(table.benefit(slot), direct, "table slot {slot} (pid {pid})");
        assert_eq!(
            engine.benefit(slot),
            direct,
            "engine slot {slot} (pid {pid})"
        );
    }
    let tb = table.best().map(|(_, pid, _, b)| (pid, b));
    let eb = engine.best(map).map(|(_, pid, _, b)| (pid, b));
    let db = direct_best(map, cands, rs, k);
    assert_eq!(tb, db, "table.best vs direct argmax");
    assert_eq!(eb, db, "engine.best vs direct argmax");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The incremental table and the sharded engine track direct
    /// evaluation exactly through arbitrary interleavings of sensor
    /// additions, deactivations and reactivations.
    #[test]
    fn benefit_views_agree_under_churn(
        seed_sensors in prop::collection::vec((arb_point(), 2.0..10.0f64), 0..6),
        churn in prop::collection::vec(arb_churn(), 1..24),
        k in 1u32..4,
    ) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(k);
        let mut map = CoverageMap::new(halton_points(250, &field), &field, &cfg);
        for &(p, r) in &seed_sensors {
            map.add_sensor(p, r);
        }
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut table = BenefitTable::new(&map, cands.clone(), cfg.rs, cfg.k);
        let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);

        for step in &churn {
            match step {
                Churn::Add(p, r) => {
                    map.add_sensor(*p, *r);
                    table.on_sensor_added(&map, *p, *r);
                    engine.on_sensor_added(&map, *p, *r);
                }
                Churn::Kill(idx) => {
                    if map.n_sensors() == 0 {
                        continue;
                    }
                    let sid = idx.index(map.n_sensors());
                    if map.deactivate_sensor(sid) {
                        let (pos, r) = (map.sensor_pos(sid), map.sensor_rs(sid));
                        table.on_sensor_removed(&map, pos, r);
                        engine.on_sensor_removed(&map, pos, r);
                    }
                }
                Churn::Revive(idx) => {
                    if map.n_sensors() == 0 {
                        continue;
                    }
                    let sid = idx.index(map.n_sensors());
                    if map.reactivate_sensor(sid) {
                        let (pos, r) = (map.sensor_pos(sid), map.sensor_rs(sid));
                        table.on_sensor_added(&map, pos, r);
                        engine.on_sensor_added(&map, pos, r);
                    }
                }
            }
        }
        map.verify_consistency();
        assert_all_views_agree(&map, &table, &mut engine, &cands, cfg.rs, cfg.k);
    }

    /// The engine-backed centralized greedy reproduces the seed
    /// BenefitTable placement sequence bit-for-bit on random fields with
    /// random pre-existing sensors, optionally on top of a regular
    /// lattice of up to 60 paper-radius sensors.
    #[test]
    fn engine_placement_sequence_matches_seed_path(
        n_pts in 100usize..800,
        lattice in 0usize..61,
        initial in prop::collection::vec((arb_point(), 2.0..8.0f64), 0..12),
        k in 1u32..4,
        cap_tag in 0usize..3,
    ) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig {
            max_new_nodes: [8usize, 25, 100_000][cap_tag],
            ..DeploymentConfig::with_k(k)
        };
        let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        for i in 0..lattice {
            let (col, row) = ((i % 8) as f64, (i / 8) as f64);
            map.add_sensor(Point::new(3.0 + 13.0 * col, 3.0 + 17.0 * row), cfg.rs);
        }
        for &(p, r) in &initial {
            map.add_sensor(p, r);
        }
        assert_greedy_matches_oracle(&map, &cfg);
    }
}

/// Restoration after an area failure: a lattice-covered field loses
/// every sensor within 18 units of its center. The random fields above
/// start from 0–12 sensors, so nearly every tile is deficient; this case
/// pins the engine's small deficit-candidate pool (deficient tiles plus
/// an `rs` ring around the hole) against the oracle's full sweep.
#[test]
fn restoration_from_damage_hole_matches_reference_path() {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig::with_k(2);
    let mut map = CoverageMap::new(halton_points(900, &field), &field, &cfg);
    let mut ids = Vec::new();
    for i in 0..20 {
        for j in 0..20 {
            ids.push(map.add_sensor(
                Point::new(2.5 + 5.0 * i as f64, 2.5 + 5.0 * j as f64),
                cfg.rs,
            ));
        }
    }
    let hole = Point::new(50.0, 50.0);
    for &id in &ids {
        if map.sensor_pos(id).dist(hole) <= 18.0 {
            map.deactivate_sensor(id);
        }
    }
    assert!(map.count_below(cfg.k) > 0, "the hole must create deficit");
    let out = assert_greedy_matches_oracle(&map, &cfg);
    assert!(out.fully_covered);
}

/// Deterministic (non-proptest) churn check with a fixed heterogeneous
/// script, so a regression fails with a stable, reproducible scenario.
#[test]
fn fixed_churn_script_stays_consistent() {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig::with_k(2);
    let mut map = CoverageMap::new(halton_points(400, &field), &field, &cfg);
    let cands: Vec<usize> = (0..map.n_points()).collect();
    let mut table = BenefitTable::new(&map, cands.clone(), cfg.rs, cfg.k);
    let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);

    let script: Vec<(f64, f64, f64)> = (0..30)
        .map(|i| {
            let t = i as f64;
            (
                5.0 + 89.0 * ((t * 0.37) % 1.0),
                5.0 + 89.0 * ((t * 0.61) % 1.0),
                2.0 + 8.0 * ((t * 0.23) % 1.0),
            )
        })
        .collect();
    for &(x, y, r) in &script {
        let p = Point::new(x, y);
        map.add_sensor(p, r);
        table.on_sensor_added(&map, p, r);
        engine.on_sensor_added(&map, p, r);
    }
    // Kill every third sensor, then revive every second killed one.
    for sid in (0..map.n_sensors()).step_by(3) {
        if map.deactivate_sensor(sid) {
            let (pos, r) = (map.sensor_pos(sid), map.sensor_rs(sid));
            table.on_sensor_removed(&map, pos, r);
            engine.on_sensor_removed(&map, pos, r);
        }
    }
    for sid in (0..map.n_sensors()).step_by(6) {
        if map.reactivate_sensor(sid) {
            let (pos, r) = (map.sensor_pos(sid), map.sensor_rs(sid));
            table.on_sensor_added(&map, pos, r);
            engine.on_sensor_added(&map, pos, r);
        }
    }
    map.verify_consistency();
    assert_all_views_agree(&map, &table, &mut engine, &cands, cfg.rs, cfg.k);
}
