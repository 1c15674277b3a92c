//! Property tests for the low-discrepancy machinery.

use decor_lds::vdc::splitmix64;
use decor_lds::{
    hammersley_unit, l2_star_discrepancy, radical_inverse, scrambled_radical_inverse,
    star_discrepancy, PointSetKind, Sobol2D,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The radical inverse is injective on any window of indices that fit
    /// within the same digit budget.
    #[test]
    fn radical_inverse_injective(base in 2u32..16, start in 0u64..1000) {
        let vals: Vec<f64> = (start..start + 64).map(|i| radical_inverse(i, base)).collect();
        let mut sorted = vals.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        sorted.dedup();
        prop_assert_eq!(sorted.len(), 64);
    }

    /// Scrambling preserves the unit interval and injectivity.
    #[test]
    fn scrambled_inverse_valid(base in 2u32..16, seed in any::<u64>()) {
        let vals: Vec<f64> = (0..128).map(|i| scrambled_radical_inverse(i, base, seed)).collect();
        for &v in &vals {
            prop_assert!((0.0..1.0).contains(&v));
        }
        let mut sorted = vals;
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let n = sorted.len();
        sorted.dedup_by(|a, b| (*a - *b).abs() < 1e-15);
        prop_assert_eq!(sorted.len(), n);
    }

    /// Every generator's unit points stay in [0, 1)² and come in the
    /// requested count.
    #[test]
    fn generators_produce_valid_unit_points(n in 1usize..300, seed in any::<u64>()) {
        for kind in [
            PointSetKind::Halton,
            PointSetKind::Hammersley,
            PointSetKind::Sobol,
            PointSetKind::Random(seed),
            PointSetKind::Jittered(seed),
        ] {
            let pts = kind.unit_points(n);
            prop_assert_eq!(pts.len(), n, "{:?}", kind);
            for &(u, v) in &pts {
                prop_assert!((0.0..1.0).contains(&u) && (0.0..1.0).contains(&v), "{:?}", kind);
            }
        }
    }

    /// Discrepancy measures are permutation invariant.
    #[test]
    fn discrepancy_permutation_invariant(shift in 1usize..30) {
        let pts = hammersley_unit(64);
        let mut rotated = pts.clone();
        rotated.rotate_left(shift % 64);
        prop_assert!((star_discrepancy(&pts) - star_discrepancy(&rotated)).abs() < 1e-12);
        prop_assert!((l2_star_discrepancy(&pts) - l2_star_discrepancy(&rotated)).abs() < 1e-12);
    }

    /// Adding a duplicate of an existing point cannot reduce the star
    /// discrepancy below 0 nor take it above 1.
    #[test]
    fn discrepancy_stays_bounded_under_duplication(idx in any::<prop::sample::Index>()) {
        let mut pts = hammersley_unit(32);
        let dup = pts[idx.index(pts.len())];
        pts.push(dup);
        let d = star_discrepancy(&pts);
        prop_assert!((0.0..=1.0).contains(&d));
    }

    /// splitmix64 is a bijection-ish mixer: no collisions on contiguous
    /// ranges (true bijection; verify on a window).
    #[test]
    fn splitmix_window_collision_free(start in any::<u64>()) {
        let window = 128u64;
        let mut outs: Vec<u64> = (0..window).map(|i| splitmix64(start.wrapping_add(i))).collect();
        outs.sort_unstable();
        outs.dedup();
        prop_assert_eq!(outs.len(), window as usize);
    }

    /// Sobol points of any prefix length are distinct.
    #[test]
    fn sobol_prefix_distinct(n in 1usize..512) {
        let mut pts = Sobol2D::new().take(n);
        pts.sort_by(|a, b| a.partial_cmp(b).unwrap());
        pts.dedup();
        prop_assert_eq!(pts.len(), n);
    }
}
