//! Extension — the paper's omitted Hammersley variant.
//!
//! §4: "We also experimented using a set of Hammersley points to
//! approximate the field. The results were similar to the ones presented
//! in this section and are omitted due to space limitations." This
//! experiment reproduces that claim: it reruns the Fig. 8 measurement
//! (nodes for 100% k-coverage) with the field approximated by Hammersley
//! instead of Halton points and reports the relative difference, which
//! should be small for every algorithm.

use crate::common::ExpParams;
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::{CoverageMap, DeploymentConfig, SchemeKind};
use decor_lds::{random_points, PointSetKind};

/// The k values compared (a subset of Fig. 8's sweep keeps this cheap).
pub const KS: [u32; 3] = [1, 3, 5];

fn nodes_needed(
    params: &ExpParams,
    kind: PointSetKind,
    scheme: SchemeKind,
    k: u32,
    seed: u64,
) -> f64 {
    let cfg = DeploymentConfig::with_k(k);
    let field = params.field();
    let mut map = CoverageMap::new(kind.points(params.n_points, &field), &field, &cfg);
    for p in random_points(params.initial_nodes, &field, seed) {
        map.add_sensor(p, cfg.rs);
    }
    let out = params.placer(scheme, seed ^ 0x9E37).place(&mut map, &cfg);
    out.total_sensors() as f64
}

/// Runs the comparison for the centralized and one DECOR scheme.
/// Columns: k, Halton nodes, Hammersley nodes, |relative difference| %.
pub fn run(params: &ExpParams) -> Table {
    let mut t = Table::new(
        "ext_hammersley",
        "Halton vs Hammersley approximation (nodes for 100% k-coverage, centralized + grid small)",
        vec![
            "k".into(),
            "halton_centralized".into(),
            "hammersley_centralized".into(),
            "centralized_diff_pct".into(),
            "halton_grid".into(),
            "hammersley_grid".into(),
            "grid_diff_pct".into(),
        ],
    );
    for &k in &KS {
        let mut row = vec![k as f64];
        for scheme in [SchemeKind::Centralized, SchemeKind::GridSmall] {
            let halton = mean(&MatrixRunner::auto().replicas(
                params.seeds,
                params.base_seed ^ 0x4A17,
                |_, seed| nodes_needed(params, PointSetKind::Halton, scheme, k, seed),
            ));
            let hammersley = mean(&MatrixRunner::auto().replicas(
                params.seeds,
                params.base_seed ^ 0x4A17,
                |_, seed| nodes_needed(params, PointSetKind::Hammersley, scheme, k, seed),
            ));
            let diff = (halton - hammersley).abs() / halton * 100.0;
            row.extend([halton, hammersley, diff]);
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hammersley_results_are_similar_to_halton() {
        // The paper's omitted claim, at quick scale, for the centralized
        // algorithm: within 10% of each other.
        let params = ExpParams::quick();
        let k = 2;
        let halton = mean(&MatrixRunner::auto().replicas(params.seeds, 1, |_, seed| {
            nodes_needed(
                &params,
                PointSetKind::Halton,
                SchemeKind::Centralized,
                k,
                seed,
            )
        }));
        let hammersley = mean(&MatrixRunner::auto().replicas(params.seeds, 1, |_, seed| {
            nodes_needed(
                &params,
                PointSetKind::Hammersley,
                SchemeKind::Centralized,
                k,
                seed,
            )
        }));
        let diff = (halton - hammersley).abs() / halton;
        assert!(
            diff < 0.10,
            "halton {halton} vs hammersley {hammersley}: {:.1}% apart",
            diff * 100.0
        );
    }
}
