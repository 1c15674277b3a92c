//! Low-discrepancy point sets for area approximation.
//!
//! DECOR replaces the continuous monitored area with a discrete set of
//! points (§3.2 of the paper): a point set of low *discrepancy* approximates
//! area measures far better than a uniform random sample of the same
//! cardinality. The paper proposes the Halton and Hammersley generators,
//! whose star discrepancies are `O(log^d N / N)` and `O(log^{d-1} N / N)`
//! respectively, versus `O(sqrt(log log N / N))` for random points.
//!
//! Provided here:
//! - [`vdc`] — the van der Corput radical inverse (any base), plus a
//!   deterministic digit-scrambled variant;
//! - [`halton`] — d-dimensional Halton sequences over the first primes,
//!   with a scrambling option;
//! - [`hammersley`] — the N-point Hammersley set;
//! - [`sobol`] — a 2-D Sobol sequence (extension: not in the paper, used in
//!   the ablation benches);
//! - [`random`] — uniform and jittered random point sets (baselines);
//! - [`discrepancy`] — exact star discrepancy (small N) and Warnock's
//!   L2-star discrepancy, used to validate the paper's premise.
//!
//! Field-mapping helpers ([`halton_points`], [`random_points`] and
//! [`PointSetKind::points`]) stretch unit-square samples over an arbitrary
//! [`decor_geom::Aabb`] field, which is how every experiment builds its
//! 2000-point approximation of the `100 x 100` area.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod discrepancy;
pub mod faure;
pub mod halton;
pub mod hammersley;
pub mod random;
pub mod sobol;
pub mod vdc;

pub use discrepancy::{l2_star_discrepancy, star_discrepancy};
pub use faure::{faure2d, faure_unit};
pub use halton::{halton_points, HaltonSequence};
pub use hammersley::hammersley_unit;
pub use random::{random_points, random_points_into};
pub use sobol::Sobol2D;
pub use vdc::{radical_inverse, scrambled_radical_inverse};

/// The first 16 primes, used as Halton bases.
pub const PRIMES: [u32; 16] = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53];

/// How a point set approximating the field is generated.
///
/// The experiment harness uses this to switch the approximation backend
/// (Fig. 4 uses Halton; the paper notes Hammersley gives similar results;
/// random is the ablation baseline).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointSetKind {
    /// Halton sequence (bases 2 and 3).
    Halton,
    /// Hammersley set (base 2 + i/N).
    Hammersley,
    /// 2-D Sobol sequence.
    Sobol,
    /// 2-D Faure sequence (base 2).
    Faure,
    /// Uniform random points (seeded).
    Random(u64),
    /// Jittered grid (seeded): one point per cell of a √N×√N grid.
    Jittered(u64),
}

impl PointSetKind {
    /// Generates `n` unit-square points of this kind.
    pub fn unit_points(&self, n: usize) -> Vec<(f64, f64)> {
        match *self {
            PointSetKind::Halton => HaltonSequence::new(2).take_unit2(n),
            PointSetKind::Hammersley => hammersley_unit(n),
            PointSetKind::Sobol => Sobol2D::new().take(n),
            PointSetKind::Faure => faure_unit(n),
            PointSetKind::Random(seed) => random::random_unit(n, seed),
            PointSetKind::Jittered(seed) => random::jittered_unit(n, seed),
        }
    }

    /// Generates `n` points of this kind mapped over `field`.
    pub fn points(&self, n: usize, field: &decor_geom::Aabb) -> Vec<decor_geom::Point> {
        self.unit_points(n)
            .into_iter()
            .map(|(u, v)| field.from_unit(u, v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::Aabb;

    #[test]
    fn every_kind_generates_requested_count_inside_field() {
        let field = Aabb::square(100.0);
        for kind in [
            PointSetKind::Halton,
            PointSetKind::Hammersley,
            PointSetKind::Sobol,
            PointSetKind::Faure,
            PointSetKind::Random(7),
            PointSetKind::Jittered(7),
        ] {
            let pts = kind.points(500, &field);
            assert_eq!(pts.len(), 500, "{kind:?}");
            assert!(pts.iter().all(|p| field.contains(*p)), "{kind:?}");
        }
    }

    #[test]
    fn halton_beats_random_on_star_discrepancy() {
        // The premise of §3.2: for equal cardinality the LDS approximates
        // the area better. Star discrepancy is the formal statement.
        let n = 128;
        let h = PointSetKind::Halton.unit_points(n);
        let r = PointSetKind::Random(3).unit_points(n);
        let dh = star_discrepancy(&h);
        let dr = star_discrepancy(&r);
        assert!(
            dh < dr,
            "halton discrepancy {dh} should beat random {dr} at n={n}"
        );
    }

    #[test]
    fn hammersley_beats_halton_slightly() {
        // O(log N / N) vs O(log² N / N): Hammersley should be no worse.
        let n = 256;
        let h = star_discrepancy(&PointSetKind::Halton.unit_points(n));
        let hm = star_discrepancy(&PointSetKind::Hammersley.unit_points(n));
        assert!(hm <= h * 1.25, "hammersley {hm} vs halton {h}");
    }
}
