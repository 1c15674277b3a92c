//! Halton sequences: the paper's primary field-approximation generator.

use crate::vdc::{radical_inverse, scrambled_radical_inverse};
use crate::PRIMES;
use decor_geom::{Aabb, Point};

/// A d-dimensional Halton sequence over the first `d` primes.
///
/// Dimension `j` of element `i` is the base-`p_j` radical inverse of
/// `i`. The plain paper configuration is `HaltonSequence::new(2)`;
/// `scrambled` is a quality knob exposed for the ablation experiments.
#[derive(Clone, Debug)]
pub struct HaltonSequence {
    bases: Vec<u32>,
    scramble_seed: Option<u64>,
}

impl HaltonSequence {
    /// A plain Halton sequence of dimension `dim` (1 ≤ dim ≤ 16).
    pub fn new(dim: usize) -> Self {
        assert!(
            (1..=PRIMES.len()).contains(&dim),
            "supported dimensions are 1..={}",
            PRIMES.len()
        );
        HaltonSequence {
            bases: PRIMES[..dim].to_vec(),
            scramble_seed: None,
        }
    }

    /// Enables deterministic digit scrambling with the given seed.
    pub fn scrambled(mut self, seed: u64) -> Self {
        self.scramble_seed = Some(seed);
        self
    }

    /// Dimension of the sequence.
    pub fn dim(&self) -> usize {
        self.bases.len()
    }

    /// The `i`-th element (0-based) as a vector of unit-interval values.
    pub fn element(&self, i: u64) -> Vec<f64> {
        self.bases
            .iter()
            .map(|&b| match self.scramble_seed {
                // Salt the seed per dimension so axes are decorrelated.
                Some(s) => scrambled_radical_inverse(i, b, s ^ (b as u64) << 32),
                None => radical_inverse(i, b),
            })
            .collect()
    }

    /// First `n` elements of a 2-D sequence as `(u, v)` pairs.
    ///
    /// The sequence is started at index 1 (skipping the origin), the usual
    /// convention that avoids the all-zeros first point.
    pub fn take_unit2(&self, n: usize) -> Vec<(f64, f64)> {
        assert!(self.dim() >= 2, "take_unit2 requires dimension >= 2");
        (1..=n as u64)
            .map(|i| {
                let e = self.element(i);
                (e[0], e[1])
            })
            .collect()
    }
}

/// The paper's field approximation: `n` 2-D Halton points (bases 2, 3)
/// stretched over `field`. Fig. 4 shows exactly this with `n = 2000` on the
/// `100 x 100` field.
///
/// ```
/// use decor_geom::Aabb;
/// use decor_lds::halton_points;
///
/// let field = Aabb::square(100.0);
/// let pts = halton_points(2000, &field);
/// assert_eq!(pts.len(), 2000);
/// assert!(pts.iter().all(|p| field.contains(*p)));
/// // Low discrepancy: every quadrant holds ~500 points.
/// let q1 = pts.iter().filter(|p| p.x < 50.0 && p.y < 50.0).count();
/// assert!((480..=520).contains(&q1));
/// ```
pub fn halton_points(n: usize, field: &Aabb) -> Vec<Point> {
    HaltonSequence::new(2)
        .take_unit2(n)
        .into_iter()
        .map(|(u, v)| field.from_unit(u, v))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_elements_match_hand_computation() {
        let h = HaltonSequence::new(2);
        // Element 1: (1/2, 1/3); element 2: (1/4, 2/3); element 3: (3/4, 1/9).
        assert_eq!(h.element(1), vec![0.5, 1.0 / 3.0]);
        assert_eq!(h.element(2), vec![0.25, 2.0 / 3.0]);
        let e3 = h.element(3);
        assert!((e3[0] - 0.75).abs() < 1e-15);
        assert!((e3[1] - 1.0 / 9.0).abs() < 1e-15);
    }

    #[test]
    fn take_skips_the_origin() {
        let pts = HaltonSequence::new(2).take_unit2(10);
        assert_eq!(pts.len(), 10);
        assert!(pts.iter().all(|&(u, v)| u > 0.0 && v > 0.0));
    }

    #[test]
    fn points_are_distinct() {
        let pts = HaltonSequence::new(2).take_unit2(2000);
        let mut sorted = pts.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        assert_eq!(sorted.len(), 2000);
    }

    #[test]
    fn equidistribution_in_quadrants() {
        // 2000 Halton points must land ~500 per quadrant, much tighter
        // than random sampling noise.
        let pts = HaltonSequence::new(2).take_unit2(2000);
        let mut counts = [0usize; 4];
        for (u, v) in pts {
            let q = (u >= 0.5) as usize + 2 * ((v >= 0.5) as usize);
            counts[q] += 1;
        }
        for c in counts {
            assert!((480..=520).contains(&c), "quadrant count {c} far from 500");
        }
    }

    #[test]
    fn scrambled_sequence_differs_but_fills_space() {
        let plain = HaltonSequence::new(2).take_unit2(256);
        let scr = HaltonSequence::new(2).scrambled(11).take_unit2(256);
        assert_ne!(plain, scr);
        let mut counts = [0usize; 4];
        for &(u, v) in &scr {
            let q = (u >= 0.5) as usize + 2 * ((v >= 0.5) as usize);
            counts[q] += 1;
        }
        for c in counts {
            assert!((40..=90).contains(&c), "scrambled quadrant count {c}");
        }
    }

    #[test]
    fn halton_points_cover_the_field() {
        let field = Aabb::square(100.0);
        let pts = halton_points(2000, &field);
        assert_eq!(pts.len(), 2000);
        assert!(pts.iter().all(|&p| field.contains(p)));
        // Spread check: bounding box of the points nearly fills the field.
        let max_x = pts.iter().map(|p| p.x).fold(0.0, f64::max);
        let max_y = pts.iter().map(|p| p.y).fold(0.0, f64::max);
        assert!(max_x > 95.0 && max_y > 95.0);
    }

    #[test]
    #[should_panic(expected = "supported dimensions")]
    fn dimension_zero_panics() {
        let _ = HaltonSequence::new(0);
    }
}
