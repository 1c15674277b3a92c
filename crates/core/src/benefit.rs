//! The benefit function (Equation 1).
//!
//! The benefit of placing a sensor at candidate point `c` is
//! `b(c) = Σ_{p : d(p,c) ≤ rs} max(k − k_p, 0)` — the total remaining
//! coverage deficit the new sensor would bite into. DECOR always places at
//! the maximum-benefit candidate.
//!
//! [`benefit_at`] evaluates it directly, in O(points within `rs`). The
//! placers keep benefits incrementally in [`crate::ShardedBenefitEngine`],
//! which tests hold to direct evaluation and to the seed path's table
//! (the oracle in `tests/oracle/benefit_table.rs`).

use crate::coverage::CoverageMap;
use decor_geom::Point;

/// Direct evaluation of Equation 1 at candidate position `c`.
///
/// Two fast paths: when the coverage map's tile summaries say no point in
/// the disk is below the target requirement (and `k` is at most that
/// target), the benefit is zero without any scan; otherwise the deficit is
/// accumulated by the chunked slab kernel in
/// [`CoverageMap::deficit_within`].
pub fn benefit_at(map: &CoverageMap, c: Point, rs: f64, k: u32) -> u64 {
    if k <= map.k_target() && map.disk_fully_covered(c, rs) {
        return 0;
    }
    map.deficit_within(c, rs, k)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentConfig;
    use decor_geom::Aabb;
    use decor_lds::halton_points;

    fn setup(n_pts: usize) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::default();
        let map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        (map, cfg)
    }

    #[test]
    fn benefit_of_empty_map_counts_full_deficit() {
        let (map, cfg) = setup(500);
        let c = map.points()[7];
        let mut in_range = 0u64;
        map.for_each_point_within_unordered(c, cfg.rs, |_, _| in_range += 1);
        assert_eq!(benefit_at(&map, c, cfg.rs, cfg.k), in_range * cfg.k as u64);
    }

    #[test]
    fn benefit_drops_after_placement() {
        let (mut map, cfg) = setup(500);
        let c = map.points()[7];
        let before = benefit_at(&map, c, cfg.rs, cfg.k);
        map.add_sensor(c, cfg.rs);
        let after = benefit_at(&map, c, cfg.rs, cfg.k);
        assert!(after < before);
        // Every in-range point lost exactly one unit of deficit.
        let mut in_range = 0u64;
        map.for_each_point_within_unordered(c, cfg.rs, |_, _| in_range += 1);
        assert_eq!(before - after, in_range);
    }

    #[test]
    fn benefit_is_zero_when_saturated() {
        let (mut map, cfg) = setup(200);
        let c = map.points()[0];
        for _ in 0..cfg.k {
            map.add_sensor(c, 200.0); // covers everything
        }
        assert_eq!(benefit_at(&map, c, cfg.rs, cfg.k), 0);
    }
}
