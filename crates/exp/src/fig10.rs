//! Figure 10 — "Message overhead of DECOR."
//!
//! Protocol messages (placement notices) per cell, for the four DECOR
//! variants, versus k. Expected shape: roughly flat in k (more nodes share
//! the burden as k grows); grid big-cell leaders send more per cell than
//! small-cell leaders; Voronoi traffic grows with `rc`. The table also
//! carries the per-node numbers under leader rotation (the paper quotes
//! ≈4 messages/node for the small cell and ≈2 for the big cell).

use crate::common::{deploy, ExpParams};
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::SchemeKind;

/// The k values swept (paper: 1..=5).
pub const KS: [u32; 5] = [1, 2, 3, 4, 5];

/// The four DECOR variants of the figure.
pub const DECOR_SCHEMES: [SchemeKind; 4] = [
    SchemeKind::GridSmall,
    SchemeKind::GridBig,
    SchemeKind::VoronoiSmall,
    SchemeKind::VoronoiBig,
];

/// Runs the experiment. Columns: k, per-cell messages for the four DECOR
/// variants, then per-node-rotated messages for the two grid variants.
pub fn run(params: &ExpParams) -> Table {
    let mut columns = vec!["k".to_owned()];
    columns.extend(DECOR_SCHEMES.iter().map(|s| s.label().to_owned()));
    columns.push("Grid small (per node, rotated)".to_owned());
    columns.push("Grid big (per node, rotated)".to_owned());
    let mut t = Table::new("fig10", "Protocol messages per cell vs k", columns);
    for &k in &KS {
        let mut row = vec![k as f64];
        let mut rotated = Vec::new();
        for &scheme in &DECOR_SCHEMES {
            let stats = MatrixRunner::auto().replicas(
                params.seeds,
                params.base_seed ^ (k as u64) << 24,
                |_, seed| {
                    let (_, out, _) = deploy(params, scheme, k, seed);
                    (out.messages.per_cell, out.messages.per_node_rotated)
                },
            );
            row.push(mean(&stats.iter().map(|&(pc, _)| pc).collect::<Vec<_>>()));
            if matches!(scheme, SchemeKind::GridSmall | SchemeKind::GridBig) {
                rotated.push(mean(&stats.iter().map(|&(_, pn)| pn).collect::<Vec<_>>()));
            }
        }
        row.extend(rotated);
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn message_shape_matches_paper() {
        let params = ExpParams::quick();
        let k = 2;
        let per_cell = |scheme: SchemeKind| {
            let stats = MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                let (_, out, _) = deploy(&params, scheme, k, seed);
                out.messages.per_cell
            });
            mean(&stats)
        };
        let gsmall = per_cell(SchemeKind::GridSmall);
        let gbig = per_cell(SchemeKind::GridBig);
        let vsmall = per_cell(SchemeKind::VoronoiSmall);
        let vbig = per_cell(SchemeKind::VoronoiBig);
        assert!(gsmall > 0.0 && vsmall > 0.0);
        assert!(gbig > gsmall, "big cell {gbig} must exceed small {gsmall}");
        assert!(vbig > vsmall, "big rc {vbig} must exceed small {vsmall}");
    }

    #[test]
    fn rotation_spreads_load_below_per_cell() {
        let params = ExpParams::quick();
        let (_, out, _) = deploy(&params, SchemeKind::GridSmall, 2, 3);
        assert!(out.messages.per_node_rotated <= out.messages.per_cell + 1e-9);
    }
}
