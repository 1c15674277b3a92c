//! Figure 8 — "Number of nodes needed for k-coverage of the area vs. k."
//!
//! Expected shape (paper, k = 4): centralized 788, Voronoi big-rc ~13%
//! above it (891), grid small-cell worst among DECOR (1196), random ~4×.
//! All series grow roughly linearly in k (each unit of k needs another
//! layer of disk coverage).

use crate::common::ExpParams;
use crate::runner::{aggregate, MatrixRunner};
use crate::scenario::{ScenarioMatrix, ScenarioSpec};
use crate::table::Table;
use decor_core::SchemeKind;

/// The k values swept (paper: 1..=5).
pub const KS: [u32; 5] = [1, 2, 3, 4, 5];

/// The figure as a scenario matrix: one cell per (k, scheme), each k
/// sweeping the same field population (`base_seed ^ k << 8`, the mixing
/// this module has always used). `tests/matrix_differential.rs` pins the
/// matrix path against the raw sequential loop.
pub fn matrix(params: &ExpParams) -> ScenarioMatrix {
    let mut cells = Vec::new();
    for &k in &KS {
        for &scheme in &SchemeKind::ALL {
            let mut spec = ScenarioSpec::from_params(params, scheme, k);
            spec.name = format!("fig08-{}-k{k}", scheme.spec_name());
            spec.base_seed = params.base_seed ^ (k as u64) << 8;
            cells.push(spec);
        }
    }
    ScenarioMatrix::new(cells).expect("fig08 matrix is valid")
}

/// Runs the experiment. Columns: k, then total nodes per scheme.
pub fn run(params: &ExpParams) -> Table {
    let mut columns = vec!["k".to_owned()];
    columns.extend(SchemeKind::ALL.iter().map(|s| s.label().to_owned()));
    let mut t = Table::new("fig08", "Nodes needed for 100% k-coverage vs k", columns);
    let m = matrix(params);
    let summaries = aggregate(&m, &MatrixRunner::auto().run(&m));
    for (ki, &k) in KS.iter().enumerate() {
        let mut row = vec![k as f64];
        for (si, _) in SchemeKind::ALL.iter().enumerate() {
            let s = &summaries[ki * SchemeKind::ALL.len() + si];
            assert!(s.all_fully_covered, "{} failed to cover at k={k}", s.name);
            row.push(s.mean_total_sensors);
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::deploy;
    use crate::stats::mean;

    /// A scaled-down sweep: k in {1, 2} under quick params to keep test
    /// time sane; asserts the orderings the paper reports.
    #[test]
    fn orderings_match_paper_shape() {
        let params = ExpParams::quick();
        let mut columns = vec!["k".to_owned()];
        columns.extend(SchemeKind::ALL.iter().map(|s| s.label().to_owned()));
        let mut rows = Vec::new();
        for k in [1u32, 2] {
            let mut row = vec![k as f64];
            for &scheme in &SchemeKind::ALL {
                let totals =
                    MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                        let (_, out, _) = deploy(&params, scheme, k, seed);
                        out.total_sensors() as f64
                    });
                row.push(mean(&totals));
            }
            rows.push(row);
        }
        let col = |name: &str| -> usize {
            1 + SchemeKind::ALL
                .iter()
                .position(|s| s.label() == name)
                .unwrap()
        };
        for row in &rows {
            let central = row[col("Centralized")];
            let random = row[col("Random")];
            let vbig = row[col("Voronoi (big rc)")];
            let gsmall = row[col("Grid (small cell)")];
            assert!(central <= vbig + 1e-9, "centralized must be best: {row:?}");
            assert!(random > 1.8 * central, "random must be far worse: {row:?}");
            assert!(gsmall >= central, "grid small >= centralized: {row:?}");
        }
        // Node demand grows with k for every scheme.
        for (c, (r1, r0)) in rows[1].iter().zip(&rows[0]).enumerate().skip(1) {
            assert!(r1 > r0, "column {c} must grow with k");
        }
    }

    /// The exact-geometry hole healer on the same Fig. 8 scenario: it is
    /// not one of the paper's six curves, but it must clear the same bar
    /// (full k-coverage at every k, every seed) and stay competitive —
    /// well under the random baseline, in the same band as the DECOR
    /// schemes.
    #[test]
    fn holes_scheme_covers_the_fig08_scenario() {
        let params = ExpParams::quick();
        let mut prev = 0.0;
        for k in [1u32, 2] {
            let count = |scheme: SchemeKind| {
                mean(
                    &MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                        let (map, out, cfg) = deploy(&params, scheme, k, seed);
                        assert!(
                            out.fully_covered,
                            "{} failed to cover at k={k}",
                            scheme.label()
                        );
                        assert_eq!(map.count_below(cfg.k), 0, "{}", scheme.label());
                        out.total_sensors() as f64
                    }),
                )
            };
            let holes = count(SchemeKind::Holes);
            let central = count(SchemeKind::Centralized);
            let random = count(SchemeKind::Random);
            assert!(
                holes < random,
                "k={k}: holes ({holes}) must beat random ({random})"
            );
            assert!(
                holes <= 2.0 * central,
                "k={k}: holes ({holes}) must stay near centralized ({central})"
            );
            assert!(holes > prev, "node demand must grow with k");
            prev = holes;
        }
    }
}
