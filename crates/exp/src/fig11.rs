//! Figure 11 — "3-coverage under random failures."
//!
//! Each scheme deploys for k = 3; then a random fraction of all nodes
//! fails and we measure the percentage of points still 3-covered.
//! Expected shape: random placement (hugely over-provisioned) degrades
//! most gracefully; the DECOR variants beat the centralized greedy (their
//! extra nodes double as redundancy); everything decreases monotonically
//! in the failure fraction.

use crate::common::{deploy, ExpParams};
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::restore::coverage_after_failure;
use decor_core::SchemeKind;
use decor_net::FailurePlan;

/// The coverage requirement of the figure.
pub const K: u32 = 3;

/// Failure percentages swept (paper: 0..30%).
pub const FAIL_PCTS: [u32; 7] = [0, 5, 10, 15, 20, 25, 30];

/// Runs the experiment. Columns: failed %, then surviving 3-coverage %
/// per scheme.
pub fn run(params: &ExpParams) -> Table {
    let mut columns = vec!["failed_pct".to_owned()];
    columns.extend(SchemeKind::ALL.iter().map(|s| s.label().to_owned()));
    let mut t = Table::new(
        "fig11",
        format!("{K}-coverage under random failures"),
        columns,
    );
    // Deploy once per (scheme, seed); evaluate every failure level on a
    // clone so levels are comparable.
    let mut series: Vec<Vec<f64>> = Vec::new();
    for &scheme in &SchemeKind::ALL {
        let per_seed =
            MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0x11, |i, seed| {
                let (map, _, cfg) = deploy(params, scheme, K, seed);
                FAIL_PCTS
                    .iter()
                    .map(|&pct| {
                        let mut m = map.clone();
                        let plan = FailurePlan::Fraction {
                            frac: pct as f64 / 100.0,
                            seed: seed ^ (i as u64) << 32 ^ pct as u64,
                        };
                        coverage_after_failure(&mut m, &cfg, &plan, K) * 100.0
                    })
                    .collect::<Vec<f64>>()
            });
        let per_pct: Vec<f64> = (0..FAIL_PCTS.len())
            .map(|pi| mean(&per_seed.iter().map(|s| s[pi]).collect::<Vec<_>>()))
            .collect();
        series.push(per_pct);
    }
    for (pi, &pct) in FAIL_PCTS.iter().enumerate() {
        let mut row = vec![pct as f64];
        row.extend(series.iter().map(|s| s[pi]));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_degrades_monotonically() {
        // Scaled-down variant (k=2) so the quick run stays fast; the
        // monotonicity and ordering logic is identical.
        let params = ExpParams::quick();
        let scheme = SchemeKind::Centralized;
        let per_seed = MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
            let (map, _, cfg) = deploy(&params, scheme, 2, seed);
            [0u32, 15, 30]
                .iter()
                .map(|&pct| {
                    let mut m = map.clone();
                    let plan = FailurePlan::Fraction {
                        frac: pct as f64 / 100.0,
                        seed: seed ^ pct as u64,
                    };
                    coverage_after_failure(&mut m, &cfg, &plan, 2) * 100.0
                })
                .collect::<Vec<f64>>()
        });
        for s in &per_seed {
            assert_eq!(s[0], 100.0, "no failures, full coverage");
            assert!(s[1] >= s[2] - 1e-9, "monotone degradation: {s:?}");
            assert!(s[2] < 100.0, "30% failures must cost something");
        }
    }

    #[test]
    fn random_deployment_tolerates_failures_best() {
        let params = ExpParams::quick();
        let survive = |scheme: SchemeKind| {
            let v = MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                let (mut map, _, cfg) = deploy(&params, scheme, 2, seed);
                let plan = FailurePlan::Fraction {
                    frac: 0.3,
                    seed: seed ^ 7,
                };
                coverage_after_failure(&mut map, &cfg, &plan, 2) * 100.0
            });
            mean(&v)
        };
        let random = survive(SchemeKind::Random);
        let central = survive(SchemeKind::Centralized);
        assert!(
            random > central,
            "random ({random}) must out-survive centralized ({central})"
        );
    }
}
