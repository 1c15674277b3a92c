//! Figure 12 — "Maximum allowed failures for 1-coverage of 90% of the
//! area."
//!
//! For each k and scheme: deploy for k, then find the largest random
//! failure fraction that still leaves at least 90% of the points
//! 1-covered. Expected shape: tolerance grows steeply with k (the paper
//! reports up to 75%); for k ≥ 2 even 30% failures keep 90% 1-coverage.

use crate::common::{deploy, ExpParams};
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::restore::coverage_after_failure;
use decor_core::SchemeKind;
use decor_net::FailurePlan;

/// The k values swept (paper: 1..=5).
pub const KS: [u32; 5] = [1, 2, 3, 4, 5];

/// Coverage target: 90% of points 1-covered.
pub const TARGET: f64 = 0.90;

/// Failure-fraction granularity of the search (percentage points).
pub const STEP_PCT: u32 = 5;

/// Largest failure percentage (stepped by [`STEP_PCT`]) keeping at least
/// `TARGET` of the points 1-covered, for a concrete deployed map.
pub fn max_tolerated_pct(
    map: &decor_core::CoverageMap,
    cfg: &decor_core::DeploymentConfig,
    fail_seed: u64,
) -> u32 {
    let mut best = 0;
    let mut pct = STEP_PCT;
    while pct <= 95 {
        let mut m = map.clone();
        let plan = FailurePlan::Fraction {
            frac: pct as f64 / 100.0,
            seed: fail_seed ^ pct as u64,
        };
        let cov = coverage_after_failure(&mut m, cfg, &plan, 1);
        if cov >= TARGET {
            best = pct;
            pct += STEP_PCT;
        } else {
            break;
        }
    }
    best
}

/// Runs the experiment. Columns: k, then maximum tolerated failure % per
/// scheme.
pub fn run(params: &ExpParams) -> Table {
    let mut columns = vec!["k".to_owned()];
    columns.extend(SchemeKind::ALL.iter().map(|s| s.label().to_owned()));
    let mut t = Table::new(
        "fig12",
        "Maximum failure % preserving 1-coverage of 90% of the area",
        columns,
    );
    for &k in &KS {
        let mut row = vec![k as f64];
        for &scheme in &SchemeKind::ALL {
            let tolerated =
                MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0x12, |i, seed| {
                    let (map, _, cfg) = deploy(params, scheme, k, seed);
                    max_tolerated_pct(&map, &cfg, seed ^ (i as u64) << 40) as f64
                });
            row.push(mean(&tolerated));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerance_grows_with_k() {
        let params = ExpParams::quick();
        let tolerance = |k: u32| {
            let v = MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                let (map, _, cfg) = deploy(&params, SchemeKind::Centralized, k, seed);
                max_tolerated_pct(&map, &cfg, seed ^ 0xF) as f64
            });
            mean(&v)
        };
        let t1 = tolerance(1);
        let t3 = tolerance(3);
        assert!(t3 > t1, "k=3 tolerance {t3} must exceed k=1 tolerance {t1}");
        assert!(
            t3 >= 30.0,
            "k=3 must survive 30% failures (paper), got {t3}"
        );
    }

    #[test]
    fn search_is_monotone_in_its_inputs() {
        // A fully over-provisioned map tolerates massive failure rates.
        let params = ExpParams::quick();
        let cfg = decor_core::DeploymentConfig::with_k(1);
        let mut map = params.make_map(&cfg, 0, 1);
        for _ in 0..6 {
            // Six independent blankets of total coverage.
            for i in 0..13 {
                for j in 0..13 {
                    map.add_sensor(
                        decor_geom::Point::new(4.0 + 7.7 * i as f64, 4.0 + 7.7 * j as f64),
                        6.0,
                    );
                }
            }
        }
        let tol = max_tolerated_pct(&map, &cfg, 9);
        assert!(tol >= 50, "6x blanket should survive >=50%, got {tol}");
    }
}
