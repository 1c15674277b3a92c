//! DECOR — DEpendable COverage Restoration (Drougas & Kalogeraki, IPDPS
//! 2007) — plus the baselines its evaluation compares against.
//!
//! The problem: given a field `A`, a coverage requirement `k`, and a
//! (possibly empty, possibly damaged) initial deployment of sensors with
//! sensing radius `rs`, place new sensors so that *every* point of `A` is
//! covered by at least `k` sensors, using as few new sensors as possible.
//!
//! DECOR's two moves:
//! 1. approximate `A` by a low-discrepancy point set (see `decor-lds`) and
//!    track per-point coverage counts ([`CoverageMap`]);
//! 2. greedily place sensors at the approximation point of maximum
//!    *benefit* `b(c) = Σ_{p : d(p,c) ≤ rs} max(k − k_p, 0)`
//!    ([`benefit`]), either globally ([`centralized`]) or cell-locally in
//!    a distributed fashion ([`grid_scheme`], [`voronoi_scheme`]).
//!
//! The crate also provides the [`redundancy`] metric of Fig. 9, the
//! reliability math of §2.1 ([`reliability`]), the failure-restoration
//! pipeline of §4.2 ([`restore`]), the per-replica seeds and worker count
//! ([`parallel`]) that `decor_exp::MatrixRunner` averages experiments
//! over, and a run-time [`invariants`] checker that chaos tests attach to
//! validate the protocol's safety properties under scripted fault
//! injection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod async_grid;
pub mod benefit;
pub mod bounds;
pub mod centralized;
pub mod config;
pub mod coverage;
pub mod diagnostics;
pub mod endurance;
pub mod engine;
pub mod grid_scheme;
pub mod hole_scheme;
pub mod invariants;
pub mod knowledge;
pub mod metrics;
pub mod parallel;
pub mod random_place;
pub mod redundancy;
pub mod reliability;
pub mod restore;
pub mod rotation;
mod rounds;
pub mod scratch;
pub mod voronoi_scheme;

pub use async_grid::AsyncGridDecor;
pub use benefit::benefit_at;
pub use centralized::CentralizedGreedy;
pub use config::{ConfigError, DeploymentConfig, LinkConfig, SchemeKind};
pub use coverage::{CoverageMap, SensorId};
pub use diagnostics::DeploymentDiagnostics;
pub use endurance::{run_endurance, EnduranceConfig, EnduranceReport};
pub use engine::ShardedBenefitEngine;
pub use grid_scheme::GridDecor;
pub use hole_scheme::HoleHealing;
pub use invariants::InvariantChecker;
pub use knowledge::NeighborKnowledge;
pub use metrics::{MessageStats, PlacementOutcome, TracePoint};
pub use random_place::RandomPlacement;
pub use redundancy::redundant_mask;
pub use rotation::{agree_shifts, ShiftAgreement};
pub use scratch::SimScratch;
pub use voronoi_scheme::VoronoiDecor;

/// A placement algorithm: consumes a coverage map (which already contains
/// the surviving initial sensors) and deploys new sensors until the map is
/// `k`-covered or the algorithm gives up.
pub trait Placer {
    /// Human-readable name used by the experiment harness ("Centralized",
    /// "Grid (small cell)", ...).
    fn name(&self) -> String;

    /// Runs the algorithm, mutating `map` by adding sensors. Returns what
    /// was placed plus cost accounting.
    fn place(&self, map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome;

    /// Like [`Placer::place`], but threads a pooled [`SimScratch`] so a
    /// warm caller reuses the engine/network/transport allocations from
    /// the previous run. The default delegates to `place` (cold path);
    /// schemes that override it must produce bit-identical outcomes
    /// either way.
    fn place_in(
        &self,
        map: &mut CoverageMap,
        cfg: &DeploymentConfig,
        _scratch: &mut SimScratch,
    ) -> PlacementOutcome {
        self.place(map, cfg)
    }
}
