//! Property-based tests over the workspace's core invariants, spanning
//! crates through the facade API.

#[path = "oracle/benefit_table.rs"]
mod benefit_table;

use benefit_table::BenefitTable;
use decor::core::{benefit_at, CoverageMap, DeploymentConfig};
use decor::geom::{Aabb, GridIndex, Point};
use decor::lds::{halton_points, radical_inverse, star_discrepancy};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..100.0f64, 0.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The spatial index agrees with brute force for any point cloud,
    /// query center and radius.
    #[test]
    fn grid_index_matches_brute_force(
        pts in prop::collection::vec(arb_point(), 1..120),
        q in arb_point(),
        r in 0.1..60.0f64,
    ) {
        let mut idx = GridIndex::for_square_field(100.0, 4.0);
        for (i, &p) in pts.iter().enumerate() {
            idx.insert(i, p);
        }
        let mut got = idx.within(q, r);
        got.sort_unstable();
        let mut want: Vec<usize> = pts
            .iter()
            .enumerate()
            .filter(|(_, p)| q.dist_sq(**p) <= r * r)
            .map(|(i, _)| i)
            .collect();
        want.sort_unstable();
        prop_assert_eq!(got, want);
    }

    /// Coverage bookkeeping survives arbitrary interleavings of sensor
    /// additions and deactivations.
    #[test]
    fn coverage_map_incremental_matches_recompute(
        sensors in prop::collection::vec((arb_point(), 1.0..12.0f64), 1..40),
        kills in prop::collection::vec(any::<prop::sample::Index>(), 0..12),
    ) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::default();
        let mut map = CoverageMap::new(halton_points(200, &field), &field, &cfg);
        for &(p, rs) in &sensors {
            map.add_sensor(p, rs);
        }
        for idx in &kills {
            let sid = idx.index(sensors.len());
            map.deactivate_sensor(sid);
        }
        map.verify_consistency(); // recomputes from scratch and compares
    }

    /// The incremental benefit table equals direct evaluation after any
    /// placement sequence.
    #[test]
    fn benefit_table_matches_direct(
        placements in prop::collection::vec(any::<prop::sample::Index>(), 1..25),
        k in 1u32..4,
    ) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig { k, ..DeploymentConfig::default() };
        let mut map = CoverageMap::new(halton_points(150, &field), &field, &cfg);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut table = BenefitTable::new(&map, cands.clone(), cfg.rs, cfg.k);
        for idx in &placements {
            let pid = idx.index(map.n_points());
            let q = map.points()[pid];
            map.add_sensor(q, cfg.rs);
            table.on_sensor_added(&map, q, cfg.rs);
        }
        for (slot, &pid) in cands.iter().enumerate() {
            prop_assert_eq!(
                table.benefit(slot),
                benefit_at(&map, map.points()[pid], cfg.rs, cfg.k)
            );
        }
    }

    /// Radical inverses stay in [0, 1) for any index and base.
    #[test]
    fn radical_inverse_in_unit_interval(i in 0u64..1_000_000, b in 2u32..64) {
        let x = radical_inverse(i, b);
        prop_assert!((0.0..1.0).contains(&x));
    }

    /// Star discrepancy is a proper [0, 1] measure for any unit-square
    /// point set.
    #[test]
    fn star_discrepancy_is_bounded(
        pts in prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 1..40),
    ) {
        let d = star_discrepancy(&pts);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// A benefit is bounded by k times the points in range, and placing a
    /// sensor at a candidate never increases its own benefit.
    #[test]
    fn benefit_bounds_and_monotonicity(
        pre in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
        target in any::<prop::sample::Index>(),
        k in 1u32..4,
    ) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig { k, ..DeploymentConfig::default() };
        let mut map = CoverageMap::new(halton_points(150, &field), &field, &cfg);
        for idx in &pre {
            let pid = idx.index(map.n_points());
            map.add_sensor(map.points()[pid], cfg.rs);
        }
        let pid = target.index(map.n_points());
        let c = map.points()[pid];
        let before = benefit_at(&map, c, cfg.rs, cfg.k);
        let mut in_range = 0u64;
        map.for_each_point_within_unordered(c, cfg.rs, |_, _| in_range += 1);
        prop_assert!(before <= in_range * k as u64);
        map.add_sensor(c, cfg.rs);
        let after = benefit_at(&map, c, cfg.rs, cfg.k);
        prop_assert!(after <= before);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// The hierarchical coverage core (u8 slabs, tile deficiency
    /// summaries, active-radius histogram) stays consistent through mixed
    /// add / deactivate / reactivate traffic on a 10⁵-point field — the
    /// scale the tile layer exists for. Also pins the tile-guided
    /// `uncovered_ids` to the ground-truth sweep at several requirements.
    #[test]
    fn large_field_coverage_core_survives_mixed_ops(
        sensors in prop::collection::vec((arb_point(), 2.0..30.0f64), 10..40),
        kills in prop::collection::vec(any::<prop::sample::Index>(), 0..15),
        revives in prop::collection::vec(any::<prop::sample::Index>(), 0..10),
    ) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig { k: 2, ..DeploymentConfig::default() };
        let mut map = CoverageMap::new(halton_points(100_000, &field), &field, &cfg);
        for &(p, rs) in &sensors {
            map.add_sensor(p, rs);
        }
        for idx in &kills {
            map.deactivate_sensor(idx.index(sensors.len()));
        }
        for idx in &revives {
            map.reactivate_sensor(idx.index(sensors.len()));
        }
        map.verify_consistency();
        for k in [1u32, 2, 3] {
            let sweep: Vec<usize> =
                (0..map.n_points()).filter(|&i| map.coverage(i) < k).collect();
            prop_assert_eq!(map.uncovered_ids(k), sweep, "k={}", k);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// For any sub-rectangle, the fraction of Halton points inside tracks
    /// its area — the quantitative form of "points approximate the area".
    #[test]
    fn halton_points_estimate_rectangle_areas(
        x0 in 0.0..80.0f64,
        y0 in 0.0..80.0f64,
        w in 10.0..20.0f64,
        h in 10.0..20.0f64,
    ) {
        let field = Aabb::square(100.0);
        let pts = halton_points(2000, &field);
        let rect = Aabb::new(Point::new(x0, y0), Point::new((x0 + w).min(100.0), (y0 + h).min(100.0)));
        let inside = pts.iter().filter(|p| rect.contains(**p)).count() as f64;
        let est = inside / 2000.0 * 10_000.0;
        let err = (est - rect.area()).abs() / rect.area();
        prop_assert!(err < 0.12, "area {} est {} err {}", rect.area(), est, err);
    }
}
