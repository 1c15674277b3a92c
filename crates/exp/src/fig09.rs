//! Figure 9 — "Percentage of redundant nodes vs. k."
//!
//! A node is redundant when removing it keeps the area k-covered.
//! Expected shape: centralized ≈ 0 (global greedy never wastes), the
//! informed DECOR variants (Voronoi big rc) low, Voronoi small rc higher
//! (blind annulus), random catastrophic (the paper reports 1500–3000
//! redundant *nodes*). Note the paper's §4.1 text is internally
//! inconsistent about the grid ordering (it claims both that redundancy
//! grows with cell size and that the big cell places "few or no redundant
//! nodes"); EXPERIMENTS.md records which reading our mechanism matches.

use crate::common::{deploy, ExpParams};
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::redundancy::redundancy_stats;
use decor_core::SchemeKind;

/// The k values swept (paper: 1..=5).
pub const KS: [u32; 5] = [1, 2, 3, 4, 5];

/// Runs the experiment. Columns: k, then redundant-node percentage per
/// scheme.
pub fn run(params: &ExpParams) -> Table {
    let mut columns = vec!["k".to_owned()];
    columns.extend(SchemeKind::ALL.iter().map(|s| s.label().to_owned()));
    let mut t = Table::new("fig09", "Percentage of redundant nodes vs k", columns);
    for &k in &KS {
        let mut row = vec![k as f64];
        for &scheme in &SchemeKind::ALL {
            let fracs = MatrixRunner::auto().replicas(
                params.seeds,
                params.base_seed ^ (k as u64) << 16,
                |_, seed| {
                    let (mut map, _, cfg) = deploy(params, scheme, k, seed);
                    redundancy_stats(&mut map, cfg.k).1 * 100.0
                },
            );
            row.push(mean(&fracs));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn redundancy_orderings_match_paper_shape() {
        let params = ExpParams::quick();
        let k = 2;
        let frac_of = |scheme: SchemeKind| {
            let fracs = MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                let (mut map, _, cfg) = deploy(&params, scheme, k, seed);
                redundancy_stats(&mut map, cfg.k).1 * 100.0
            });
            mean(&fracs)
        };
        let central = frac_of(SchemeKind::Centralized);
        let random = frac_of(SchemeKind::Random);
        let vbig = frac_of(SchemeKind::VoronoiBig);
        let vsmall = frac_of(SchemeKind::VoronoiSmall);
        assert!(central < 10.0, "centralized wastes little, got {central}%");
        assert!(
            random > 4.0 * central.max(2.0),
            "random ({random}%) must dwarf centralized ({central}%)"
        );
        assert!(
            vbig <= vsmall + 3.0,
            "big rc ({vbig}%) should not waste more than small rc ({vsmall}%)"
        );
    }
}
