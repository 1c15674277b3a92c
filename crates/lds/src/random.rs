//! Random point sets — the baselines the paper's discrepancy argument
//! compares against, and the generator for random sensor fields.

use decor_geom::{Aabb, Point};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// `n` i.i.d. uniform points on the unit square, deterministic in `seed`.
pub fn random_unit(n: usize, seed: u64) -> Vec<(f64, f64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (rng.gen::<f64>(), rng.gen::<f64>()))
        .collect()
}

/// `n` uniform random points over `field`, deterministic in `seed`.
///
/// This also generates the *initial sensor deployments* of the experiments
/// ("up to 200 sensor nodes ... on a randomly generated field").
pub fn random_points(n: usize, field: &Aabb, seed: u64) -> Vec<Point> {
    let mut out = Vec::with_capacity(n);
    random_points_into(n, field, seed, &mut out);
    out
}

/// Buffer-reuse variant of [`random_points`]: clears `out` and refills it
/// in place, preserving its capacity. Draws the identical RNG stream, so
/// the contents are bit-equal to a fresh [`random_points`] call — warm
/// fleet workers rely on that to keep pooled runs deterministic.
pub fn random_points_into(n: usize, field: &Aabb, seed: u64, out: &mut Vec<Point>) {
    out.clear();
    let mut rng = StdRng::seed_from_u64(seed);
    out.extend((0..n).map(|_| {
        let u = rng.gen::<f64>();
        let v = rng.gen::<f64>();
        field.from_unit(u, v)
    }));
}

/// Jittered (stratified) sampling: the unit square is divided into a
/// `ceil(√n) × ceil(√n)` grid and one uniform point is drawn per cell until
/// `n` points exist. Better discrepancy than i.i.d. sampling, worse than
/// Halton — a useful middle rung for the approximation ablation.
pub fn jittered_unit(n: usize, seed: u64) -> Vec<(f64, f64)> {
    if n == 0 {
        return Vec::new();
    }
    let side = (n as f64).sqrt().ceil() as usize;
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pts = Vec::with_capacity(n);
    'outer: for j in 0..side {
        for i in 0..side {
            if pts.len() == n {
                break 'outer;
            }
            let u = (i as f64 + rng.gen::<f64>()) / side as f64;
            let v = (j as f64 + rng.gen::<f64>()) / side as f64;
            pts.push((u, v));
        }
    }
    pts
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_in_seed() {
        assert_eq!(random_unit(100, 5), random_unit(100, 5));
        assert_ne!(random_unit(100, 5), random_unit(100, 6));
        assert_eq!(jittered_unit(100, 5), jittered_unit(100, 5));
    }

    #[test]
    fn counts_and_ranges() {
        for pts in [random_unit(257, 1), jittered_unit(257, 1)] {
            assert_eq!(pts.len(), 257);
            for (u, v) in pts {
                assert!((0.0..1.0).contains(&u) && (0.0..1.0).contains(&v));
            }
        }
    }

    #[test]
    fn jittered_fills_strata() {
        // With n a perfect square, each grid cell holds exactly one point.
        let n = 64;
        let pts = jittered_unit(n, 3);
        let side = 8;
        let mut seen = vec![false; n];
        for (u, v) in pts {
            let cell = (v * side as f64) as usize * side + (u * side as f64) as usize;
            assert!(!seen[cell], "two points in stratum {cell}");
            seen[cell] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn field_mapping_contains_points() {
        let field = Aabb::new(Point::new(-10.0, 5.0), Point::new(30.0, 45.0));
        let pts = random_points(300, &field, 9);
        assert_eq!(pts.len(), 300);
        assert!(pts.iter().all(|&p| field.contains(p)));
    }

    #[test]
    fn into_variant_matches_and_reuses_capacity() {
        let field = Aabb::new(Point::new(-10.0, 5.0), Point::new(30.0, 45.0));
        let fresh = random_points(200, &field, 42);
        let mut buf = Vec::new();
        random_points_into(200, &field, 42, &mut buf);
        assert_eq!(buf, fresh);
        let cap = buf.capacity();
        random_points_into(150, &field, 7, &mut buf);
        assert_eq!(buf, random_points(150, &field, 7));
        assert_eq!(buf.capacity(), cap, "refill must not reallocate");
    }

    #[test]
    fn zero_points() {
        assert!(random_unit(0, 1).is_empty());
        assert!(jittered_unit(0, 1).is_empty());
    }
}
