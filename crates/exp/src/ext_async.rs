//! Extension — what does asynchrony cost?
//!
//! The paper's schemes are "fully distributed" and explicitly
//! unsynchronized, but any round-based simulation (including its own and
//! our `GridDecor`) aligns the leaders' decisions. The event-driven
//! [`decor_core::AsyncGridDecor`] removes that idealization: leaders wake
//! on independent timers and placement notices take `L` ticks to reach
//! neighbor cells. While a notice is in flight the neighbors' coverage
//! views are stale, so borders get double-covered.
//!
//! This experiment sweeps the staleness ratio `L / T` (notice latency
//! over leader work period) and reports the node count relative to the
//! synchronous scheme.
//!
//! Measured finding (see EXPERIMENTS.md): the asynchronous run *beats*
//! the synchronous one at low latency (≈ −5%) — desynchronized wakes are
//! serialized in time, so each leader usually sees its neighbors' latest
//! placements, whereas lock-step rounds maximize simultaneous-decision
//! collisions. As `L/T` grows the stale-view cost eats that advantage
//! and the async count converges to the synchronous one from below.
//! Within the async family, node count is monotone in `L/T`.

use crate::common::ExpParams;
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::{AsyncGridDecor, DeploymentConfig, GridDecor, Placer};

/// Latency/work-period ratios swept.
pub const RATIOS: [f64; 4] = [0.01, 0.5, 2.0, 5.0];

/// Leader work period (ticks).
pub const WORK: u64 = 1_000;

/// The coverage requirement used.
pub const K: u32 = 2;

/// Runs the experiment. Columns: L/T ratio, async nodes placed, sync
/// nodes placed (constant reference), overhead %.
pub fn run(params: &ExpParams) -> Table {
    let mut t = Table::new(
        "ext_async",
        "Asynchrony cost: nodes placed vs notice-latency/work-period ratio (grid 5x5, k=2)",
        vec![
            "latency_over_period".into(),
            "async_nodes".into(),
            "sync_nodes".into(),
            "overhead_pct".into(),
        ],
    );
    let sync_counts =
        MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0xA57C, |_, seed| {
            let cfg = DeploymentConfig::with_k(K);
            let mut map = params.make_map(&cfg, params.initial_nodes, seed);
            GridDecor { cell_size: 5.0 }
                .place(&mut map, &cfg)
                .placed
                .len() as f64
        });
    let sync = mean(&sync_counts);
    for &ratio in &RATIOS {
        let latency = (ratio * WORK as f64).round().max(1.0) as u64;
        let counts =
            MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0xA57C, |_, seed| {
                let cfg = DeploymentConfig::with_k(K);
                let mut map = params.make_map(&cfg, params.initial_nodes, seed);
                let placer = AsyncGridDecor {
                    cell_size: 5.0,
                    work_period: WORK,
                    notice_latency: latency,
                    seed,
                };
                let out = placer.place(&mut map, &cfg);
                assert!(out.fully_covered);
                out.placed.len() as f64
            });
        let a = mean(&counts);
        t.push_row(vec![ratio, a, sync, (a / sync - 1.0) * 100.0]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn asynchrony_overhead_grows_with_staleness() {
        let params = ExpParams::quick();
        let t = run(&params);
        assert_eq!(t.rows.len(), RATIOS.len());
        let first = t.rows.first().unwrap();
        let last = t.rows.last().unwrap();
        // Near-synchronous async run lands near the sync reference.
        assert!(
            first[3].abs() < 40.0,
            "L/T≈0 overhead should be moderate: {first:?}"
        );
        // Heavy staleness costs at least as much as near-zero staleness.
        assert!(
            last[1] >= first[1] * 0.95,
            "staleness cannot reduce node count: {t:?}"
        );
    }
}
