//! Figures 13 and 14 — area failure and its repair.
//!
//! A disaster disc (radius 24 on the paper's field, ~17% of the area)
//! destroys every node inside. Fig. 13 measures the percentage of points
//! still k-covered right after — expected to be roughly equal across
//! deployment algorithms (the disc wipes everyone out equally). Fig. 14
//! counts the extra nodes each algorithm needs to restore full k-coverage
//! — expected: random 1500–3000, DECOR 25–50% above the centralized
//! greedy, Voronoi big-rc the best DECOR variant.

use crate::common::{deploy, ExpParams};
use crate::fig05_06::disaster_disk;
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::restore::fail_and_restore;
use decor_core::SchemeKind;
use decor_net::FailurePlan;

/// The k values swept (paper: 1..=5).
pub const KS: [u32; 5] = [1, 2, 3, 4, 5];

/// Runs both figures in one pass (the restoration continues from the
/// failed state the coverage measurement sees). Returns `(fig13, fig14)`.
pub fn run(params: &ExpParams) -> (Table, Table) {
    let mut columns = vec!["k".to_owned()];
    columns.extend(SchemeKind::ALL.iter().map(|s| s.label().to_owned()));
    let mut t13 = Table::new(
        "fig13",
        "Percentage of k-covered points after an area failure",
        columns.clone(),
    );
    let mut t14 = Table::new(
        "fig14",
        "Extra nodes needed to recover coverage of the failure area",
        columns,
    );
    let disk = disaster_disk(params);
    for &k in &KS {
        let mut row13 = vec![k as f64];
        let mut row14 = vec![k as f64];
        for &scheme in &SchemeKind::ALL {
            let results =
                MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0x13, |_, seed| {
                    let (mut map, _, cfg) = deploy(params, scheme, k, seed);
                    let placer = params.placer(scheme, seed ^ 0xABCD);
                    let plan = FailurePlan::Area { disk };
                    let report = fail_and_restore(&mut map, placer.as_ref(), &cfg, &plan, None);
                    (
                        report.coverage_after_failure * 100.0,
                        report.extra_nodes as f64,
                    )
                });
            row13.push(mean(&results.iter().map(|&(c, _)| c).collect::<Vec<_>>()));
            row14.push(mean(&results.iter().map(|&(_, e)| e).collect::<Vec<_>>()));
        }
        t13.push_row(row13);
        t14.push_row(row14);
    }
    (t13, t14)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_failure_hits_all_schemes_equally() {
        // Fig. 13's point: the post-failure coverage is (almost) the same
        // for every deployment algorithm.
        let params = ExpParams::quick();
        let k = 1;
        let disk = disaster_disk(&params);
        let after = |scheme: SchemeKind| {
            let v = MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                let (mut map, _, cfg) = deploy(&params, scheme, k, seed);
                let placer = params.placer(scheme, seed);
                let plan = FailurePlan::Area { disk };
                fail_and_restore(&mut map, placer.as_ref(), &cfg, &plan, None)
                    .coverage_after_failure
                    * 100.0
            });
            mean(&v)
        };
        let central = after(SchemeKind::Centralized);
        let grid = after(SchemeKind::GridSmall);
        assert!(
            (central - grid).abs() < 10.0,
            "post-failure coverage should be similar: {central} vs {grid}"
        );
        assert!(central < 95.0, "the disaster must leave a hole");
    }

    #[test]
    fn restoration_recovers_and_costs_nodes() {
        let params = ExpParams::quick();
        let disk = disaster_disk(&params);
        let (mut map, _, cfg) = deploy(&params, SchemeKind::VoronoiBig, 1, 4);
        let placer = params.placer(SchemeKind::VoronoiBig, 5);
        let plan = FailurePlan::Area { disk };
        let report = fail_and_restore(&mut map, placer.as_ref(), &cfg, &plan, None);
        assert!(report.extra_nodes > 0);
        assert_eq!(report.coverage_after_restore, 1.0);
    }

    #[test]
    fn random_restoration_is_most_expensive() {
        let params = ExpParams::quick();
        let disk = disaster_disk(&params);
        let extra = |scheme: SchemeKind| {
            let v = MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                let (mut map, _, cfg) = deploy(&params, scheme, 1, seed);
                let placer = params.placer(scheme, seed ^ 0xEE);
                let plan = FailurePlan::Area { disk };
                fail_and_restore(&mut map, placer.as_ref(), &cfg, &plan, None).extra_nodes as f64
            });
            mean(&v)
        };
        let random = extra(SchemeKind::Random);
        let central = extra(SchemeKind::Centralized);
        assert!(
            random > 2.0 * central,
            "random repair ({random}) must dwarf centralized ({central})"
        );
    }
}
