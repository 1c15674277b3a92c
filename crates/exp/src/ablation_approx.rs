//! Ablation — does the *low-discrepancy* part of DECOR actually matter?
//!
//! DECOR certifies coverage only at its approximation points. If those
//! points cluster (as i.i.d. random points do), the greedy sees "100%
//! covered" while real gaps remain between the points. This experiment
//! deploys against each approximation backend and then audits the result
//! on a dense reference grid the algorithm never saw:
//!
//! - **certified coverage** — what the algorithm believes (always 100%);
//! - **true coverage** — fraction of the dense reference covered at the
//!   requested k.
//!
//! Expectation (and the reason §3.2 insists on Halton/Hammersley): the
//! LDS backends audit at ≈100%, the random backend leaves real holes,
//! and any backend's node count scales with its effective resolution.
//!
//! Since the exact hole detector landed ([`decor_geom::detect_holes`])
//! the audit has a referee that needs no sampling at all: the *exact*
//! area the deployment leaves uncovered ([`exact_missed_area`]), computed
//! from the Voronoi decomposition of the final sensor set. [`run`]
//! reports it per backend and [`run_budget`] sweeps the approximation
//! budget to show how the missed area decays as the sketch densifies —
//! ground truth the dense reference grid only estimates.

use crate::common::ExpParams;
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::{CentralizedGreedy, CoverageMap, DeploymentConfig, Placer};
use decor_geom::{detect_holes, Point};
use decor_lds::PointSetKind;

/// Approximation backends audited, in row order.
pub const BACKENDS: [&str; 4] = ["Halton", "Hammersley", "Random", "Jittered"];

fn backend(idx: usize, seed: u64) -> PointSetKind {
    match idx {
        0 => PointSetKind::Halton,
        1 => PointSetKind::Hammersley,
        2 => PointSetKind::Random(seed),
        3 => PointSetKind::Jittered(seed),
        _ => unreachable!(),
    }
}

/// True coverage audit: fraction of a dense reference grid (4× the
/// approximation density, regular so it has no blind spots) k-covered by
/// the map's active sensors.
pub fn audit_true_coverage(map: &CoverageMap, k: u32) -> f64 {
    let field = map.field();
    let side = ((map.n_points() * 4) as f64).sqrt().ceil() as usize;
    let mut covered = 0usize;
    let mut total = 0usize;
    for i in 0..side {
        for j in 0..side {
            let p = Point::new(
                field.min.x + field.width() * (i as f64 + 0.5) / side as f64,
                field.min.y + field.height() * (j as f64 + 0.5) / side as f64,
            );
            total += 1;
            // Early-exits at the k-th coverer instead of enumerating every
            // sensor in a 64-unit disk around the probe.
            if map.covered_at_least(p, k as usize) {
                covered += 1;
            }
        }
    }
    covered as f64 / total as f64
}

/// The exact referee: total area of the field *really* left 1-uncovered
/// by the map's active sensors (all of sensing radius `rs`), from the
/// Voronoi hole decomposition. No sampling error — this is the ground
/// truth the dense grid estimates.
pub fn exact_missed_area(map: &CoverageMap, rs: f64) -> f64 {
    let sensors: Vec<Point> = map.active_sensors().into_iter().map(|(_, p)| p).collect();
    detect_holes(&sensors, rs, map.field()).total_area()
}

/// Runs the ablation at k = 1 (where approximation holes show directly).
/// Columns: backend index, nodes placed, certified coverage %, true
/// (audited) coverage %, exact missed area (field units²).
pub fn run(params: &ExpParams) -> Table {
    let mut t = Table::new(
        "ablation_approx",
        "Approximation backend ablation (0=Halton, 1=Hammersley, 2=Random, 3=Jittered)",
        vec![
            "backend".into(),
            "nodes_placed".into(),
            "certified_pct".into(),
            "true_pct".into(),
            "missed_area".into(),
        ],
    );
    let cfg = DeploymentConfig::with_k(1);
    let field = params.field();
    for (bi, _) in BACKENDS.iter().enumerate() {
        let results =
            MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0xAB, |_, seed| {
                let pts = backend(bi, seed).points(params.n_points, &field);
                let mut map = CoverageMap::new(pts, &field, &cfg);
                let out = CentralizedGreedy.place(&mut map, &cfg);
                (
                    out.placed.len() as f64,
                    map.fraction_k_covered(1) * 100.0,
                    audit_true_coverage(&map, 1) * 100.0,
                    exact_missed_area(&map, cfg.rs),
                )
            });
        t.push_row(vec![
            bi as f64,
            mean(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.2).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.3).collect::<Vec<_>>()),
        ]);
    }
    t
}

/// Approximation-budget sweep: deploy the Halton sketch at a range of
/// point budgets and referee each deployment with the *exact* missed
/// area. Columns: budget (points), nodes placed, exact missed area,
/// missed area as % of the field. The missed area should decay toward
/// zero as the budget grows — quantifying exactly how much coverage the
/// approximation of §3.2 gives up at each resolution.
pub fn run_budget(params: &ExpParams) -> Table {
    let mut t = Table::new(
        "ablation_budget",
        "Exact missed-hole area vs approximation-point budget (Halton, k=1)",
        vec![
            "budget".into(),
            "nodes_placed".into(),
            "missed_area".into(),
            "missed_pct".into(),
        ],
    );
    let cfg = DeploymentConfig::with_k(1);
    let field = params.field();
    let field_area = field.area();
    // Halton is deterministic, so one deployment per budget is the whole
    // experiment — no replica averaging needed.
    for div in [8usize, 4, 2, 1] {
        let budget = (params.n_points / div).max(16);
        let pts = PointSetKind::Halton.points(budget, &field);
        let mut map = CoverageMap::new(pts, &field, &cfg);
        let out = CentralizedGreedy.place(&mut map, &cfg);
        let missed = exact_missed_area(&map, cfg.rs);
        t.push_row(vec![
            budget as f64,
            out.placed.len() as f64,
            missed,
            100.0 * missed / field_area,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_backend_certifies_full_coverage() {
        let t = run(&ExpParams::quick());
        for row in &t.rows {
            assert_eq!(row[2], 100.0, "certified coverage is what greedy saw");
        }
    }

    #[test]
    fn halton_audits_better_than_random() {
        let t = run(&ExpParams::quick());
        let halton_true = t.rows[0][3];
        let random_true = t.rows[2][3];
        assert!(
            halton_true >= random_true,
            "halton audit {halton_true}% must be at least random's {random_true}%"
        );
    }

    #[test]
    fn paper_scale_approximation_leaves_few_holes() {
        // At the paper's 2000 points (spacing ≈ 2.2 « rs = 4) the holes
        // between certified points shrink to slivers. Quick mode's 500
        // points (spacing ≈ 4.5 ≈ rs) legitimately audit in the 80s —
        // which is itself the ablation's message: the approximation
        // density is a real knob.
        let params = ExpParams {
            seeds: 1,
            ..ExpParams::paper()
        };
        let cfg = DeploymentConfig::with_k(1);
        let field = params.field();
        let pts = PointSetKind::Halton.points(params.n_points, &field);
        let mut map = CoverageMap::new(pts, &field, &cfg);
        CentralizedGreedy.place(&mut map, &cfg);
        let audited = audit_true_coverage(&map, 1) * 100.0;
        assert!(
            audited > 95.0,
            "paper-scale halton audit too low: {audited}%"
        );
    }

    #[test]
    fn audit_grid_is_denser_than_approximation() {
        // Sanity: a map with no sensors audits at zero.
        let params = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(1);
        let field = params.field();
        let map = CoverageMap::new(PointSetKind::Halton.points(200, &field), &field, &cfg);
        assert_eq!(audit_true_coverage(&map, 1), 0.0);
    }

    #[test]
    fn exact_referee_agrees_with_the_sampled_audit() {
        // The exact missed area and the dense-grid audit measure the same
        // quantity; they must agree to within the grid's resolution.
        let params = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(1);
        let field = params.field();
        let pts = PointSetKind::Halton.points(params.n_points, &field);
        let mut map = CoverageMap::new(pts, &field, &cfg);
        CentralizedGreedy.place(&mut map, &cfg);
        let missed = exact_missed_area(&map, cfg.rs);
        let sampled = (1.0 - audit_true_coverage(&map, 1)) * field.area();
        // One dense-grid cell of slack per boundary-crossing sample row.
        let side = ((map.n_points() * 4) as f64).sqrt().ceil();
        let tol = 4.0 * field.area() / side;
        assert!(
            (missed - sampled).abs() <= tol,
            "exact {missed} vs sampled {sampled} (tol {tol})"
        );
    }

    #[test]
    fn missed_area_decays_with_the_budget() {
        let t = run_budget(&ExpParams::quick());
        assert_eq!(t.rows.len(), 4);
        let coarse = t.rows.first().unwrap();
        let fine = t.rows.last().unwrap();
        assert!(fine[0] > coarse[0], "budgets must increase");
        assert!(
            fine[2] <= coarse[2],
            "densest sketch {} must not miss more than the coarsest {}",
            fine[2],
            coarse[2]
        );
        for row in &t.rows {
            assert!(row[3] >= 0.0 && row[3] < 100.0);
        }
    }
}
