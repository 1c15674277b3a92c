//! The tile-ring restoration candidate set, kept as a test oracle.
//!
//! Before candidates were grown at point-index bucket granularity,
//! `CoverageMap::deficit_candidates_into` took every coarse tile holding a
//! below-target point, dilated that set by `⌈margin / tile_edge⌉` tiles,
//! and returned every point of the marked tiles. [`tile_ring_candidates`]
//! is that function. The tile layer is private to the map, so the oracle
//! first rebuilds it from public state exactly as `CoverageMap::new` lays
//! it out (tiles of 16 point-index buckets, the bucket edge from
//! `query_bucket_edge`), then runs the old loop verbatim.
//! [`tile_ring_greedy`] is the centralized greedy loop over that set.
//! `candidate_oracle.rs` holds the bucket-tight set to both.
//!
//! Include it with `#[path = "oracle/tile_candidates.rs"] mod tile_candidates;`.

#![allow(dead_code)] // each including test binary uses a different subset

use decor::core::{
    CoverageMap, DeploymentConfig, PlacementOutcome, ShardedBenefitEngine, TracePoint,
};
use decor::geom::query_bucket_edge;

/// Tile edge in point-index buckets, as in `decor_core::coverage`.
const TILE_BUCKETS: f64 = 16.0;

/// The tile-ring candidate set of a map built with sensing radius
/// `map_rs` (the radius its point index was sized for).
pub fn tile_ring_candidates(map: &CoverageMap, map_rs: f64, margin: f64) -> Vec<usize> {
    // The tile layer, as `CoverageMap::new` builds it and the mutators
    // keep it.
    let field = map.field();
    let min_dim = field.width().min(field.height());
    let bucket = query_bucket_edge(map_rs, min_dim, map.n_points());
    let tile_edge = bucket * TILE_BUCKETS;
    let tile_cols = (field.width() / tile_edge).ceil().max(1.0) as usize;
    let tile_rows = (field.height() / tile_edge).ceil().max(1.0) as usize;
    let mut tile_groups: Vec<Vec<usize>> = vec![Vec::new(); tile_cols * tile_rows];
    let mut tile_below = vec![0u32; tile_cols * tile_rows];
    for (pid, &p) in map.points().iter().enumerate() {
        let tx = (((p.x - field.min.x) / tile_edge).floor().max(0.0) as usize).min(tile_cols - 1);
        let ty = (((p.y - field.min.y) / tile_edge).floor().max(0.0) as usize).min(tile_rows - 1);
        let t = ty * tile_cols + tx;
        tile_groups[t].push(pid);
        if map.coverage(pid) < map.k_target() {
            tile_below[t] += 1;
        }
    }

    // The old `deficit_candidates_into`, with the CSR slices read from
    // `tile_groups`.
    let mut out = Vec::new();
    let ring = (margin / tile_edge).ceil().max(0.0) as usize;
    let mut wanted = vec![false; tile_below.len()];
    let mut any = false;
    for (t, &below) in tile_below.iter().enumerate() {
        if below == 0 {
            continue;
        }
        any = true;
        let tx = t % tile_cols;
        let ty = t / tile_cols;
        let x0 = tx.saturating_sub(ring);
        let x1 = (tx + ring).min(tile_cols - 1);
        let y0 = ty.saturating_sub(ring);
        let y1 = (ty + ring).min(tile_rows - 1);
        for y in y0..=y1 {
            for x in x0..=x1 {
                wanted[y * tile_cols + x] = true;
            }
        }
    }
    if !any {
        return out;
    }
    for (t, &w) in wanted.iter().enumerate() {
        if !w {
            continue;
        }
        out.extend(tile_groups[t].iter().copied());
    }
    out.sort_unstable();
    out
}

/// `CentralizedGreedy` with its candidate pool taken from
/// [`tile_ring_candidates`] instead of the map.
pub fn tile_ring_greedy(
    map: &mut CoverageMap,
    map_rs: f64,
    cfg: &DeploymentConfig,
) -> PlacementOutcome {
    let initial = map.n_active_sensors();
    let cands = if cfg.k <= map.k_target() {
        tile_ring_candidates(map, map_rs, cfg.rs)
    } else {
        (0..map.n_points()).collect()
    };
    let mut engine = ShardedBenefitEngine::global(map, cands, cfg.rs, cfg.k);
    let mut out = PlacementOutcome {
        initial_sensors: initial,
        ..PlacementOutcome::default()
    };
    out.trace.push(TracePoint {
        total_sensors: initial,
        fraction_k_covered: map.fraction_k_covered(cfg.k),
    });
    while out.placed.len() < cfg.max_new_nodes {
        let Some((_, _, pos, _)) = engine.best(map) else {
            break;
        };
        map.add_sensor(pos, cfg.rs);
        engine.on_sensor_added(map, pos, cfg.rs);
        out.placed.push(pos);
        out.trace.push(TracePoint {
            total_sensors: initial + out.placed.len(),
            fraction_k_covered: map.fraction_k_covered(cfg.k),
        });
    }
    out.fully_covered = map.count_below(cfg.k) == 0;
    out
}
