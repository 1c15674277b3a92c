//! Analytical bounds on the node count needed for k-coverage.
//!
//! The paper never states them, but they anchor every Fig. 7/8 sanity
//! check in this reproduction: no algorithm can k-cover a field with
//! fewer sensors than `k · area / (π rs²)` (each sensor contributes at
//! most one disk of coverage mass).

use decor_geom::Aabb;

/// Information-theoretic lower bound: no placement of `n` sensors of
/// radius `rs` can k-cover `field` if `n < k·area/(π rs²)`.
///
/// ```
/// use decor_core::bounds::coverage_lower_bound;
/// use decor_geom::Aabb;
///
/// // The paper's field at k = 4: at least 796 sensors, matching the
/// // centralized greedy's reported 788 within greedy overhead.
/// let field = Aabb::square(100.0);
/// assert_eq!(coverage_lower_bound(&field, 4.0, 4), 796);
/// ```
pub fn coverage_lower_bound(field: &Aabb, rs: f64, k: u32) -> usize {
    assert!(rs > 0.0, "sensing radius must be positive");
    let per_disk = std::f64::consts::PI * rs * rs;
    (k as f64 * field.area() / per_disk).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::centralized::CentralizedGreedy;
    use crate::config::DeploymentConfig;
    use crate::coverage::CoverageMap;
    use crate::Placer;
    use decor_lds::halton_points;

    #[test]
    fn paper_field_bounds() {
        let field = Aabb::square(100.0);
        // k=1: 10000/(π·16) ≈ 199; k=4: ≈ 796.
        assert_eq!(coverage_lower_bound(&field, 4.0, 1), 199);
        assert_eq!(coverage_lower_bound(&field, 4.0, 4), 796);
    }

    #[test]
    fn centralized_greedy_lands_between_bound_and_3x() {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(2);
        let mut map = CoverageMap::new(halton_points(2000, &field), &field, &cfg);
        let placed = CentralizedGreedy.place(&mut map, &cfg).placed.len();
        let lb = coverage_lower_bound(&field, cfg.rs, cfg.k);
        assert!(placed >= lb, "impossible: {placed} below lower bound {lb}");
        assert!(
            placed < 3 * lb,
            "greedy too wasteful: {placed} vs bound {lb}"
        );
    }

    #[test]
    fn bound_scales_linearly_in_k() {
        let field = Aabb::square(50.0);
        let b1 = coverage_lower_bound(&field, 4.0, 1);
        let b5 = coverage_lower_bound(&field, 4.0, 5);
        assert!((b5 as f64 - 5.0 * b1 as f64).abs() < 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_radius_panics() {
        let _ = coverage_lower_bound(&Aabb::square(10.0), 0.0, 1);
    }
}
