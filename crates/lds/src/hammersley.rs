//! Hammersley point sets.
//!
//! The `N`-point 2-D Hammersley set is `{(i/N, φ₂(i)) : i = 0..N-1}` where
//! `φ₂` is the base-2 radical inverse. Trading one radical-inverse
//! dimension for the regular `i/N` grid improves the discrepancy bound to
//! `O(log N / N)` — the paper cites this alongside Halton and reports
//! "similar results". Unlike Halton, the set is *closed*: `N` must be known
//! up front, and prefixes of a larger set are not themselves Hammersley.

use crate::vdc::radical_inverse;

/// The `n`-point 2-D Hammersley set on the unit square.
///
/// Uses `( (i + 0.5) / n, φ₂(i) )` — the half-offset keeps the first
/// coordinate strictly inside `(0, 1)`, matching the Halton convention of
/// avoiding boundary points.
pub fn hammersley_unit(n: usize) -> Vec<(f64, f64)> {
    (0..n)
        .map(|i| ((i as f64 + 0.5) / n as f64, radical_inverse(i as u64, 2)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_and_range() {
        let pts = hammersley_unit(100);
        assert_eq!(pts.len(), 100);
        for &(u, v) in &pts {
            assert!(u > 0.0 && u < 1.0, "u={u}");
            assert!((0.0..1.0).contains(&v), "v={v}");
        }
    }

    #[test]
    fn first_coordinate_is_regular_grid() {
        let pts = hammersley_unit(4);
        let us: Vec<f64> = pts.iter().map(|&(u, _)| u).collect();
        assert_eq!(us, vec![0.125, 0.375, 0.625, 0.875]);
    }

    #[test]
    fn second_coordinate_is_vdc() {
        let pts = hammersley_unit(4);
        let vs: Vec<f64> = pts.iter().map(|&(_, v)| v).collect();
        assert_eq!(vs, vec![0.0, 0.5, 0.25, 0.75]);
    }

    #[test]
    fn points_are_distinct() {
        let mut pts = hammersley_unit(1024);
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pts.dedup();
        assert_eq!(pts.len(), 1024);
    }

    #[test]
    fn equidistribution_in_strips() {
        // Every vertical tenth of the square holds exactly n/10 points
        // (the first coordinate is a regular grid).
        let n = 1000;
        let pts = hammersley_unit(n);
        let mut counts = [0usize; 10];
        for (u, _) in pts {
            counts[((u * 10.0) as usize).min(9)] += 1;
        }
        assert!(counts.iter().all(|&c| c == n / 10), "{counts:?}");
    }

    #[test]
    fn empty_set() {
        assert!(hammersley_unit(0).is_empty());
    }
}
