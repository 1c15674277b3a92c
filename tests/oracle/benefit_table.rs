//! The seed placement path's benefit evaluator, kept as a test oracle.
//!
//! [`BenefitTable`] holds the benefit of every candidate and, when a
//! sensor lands or leaves at `q`, recomputes directly the benefits of the
//! candidates within `rs + rs'` of `q`; `best()` is a linear scan. No
//! production path runs it any more: the sharded engine replaced it, and
//! `engine_differential.rs` and `proptest_invariants.rs` hold the engine
//! and the centralized placer to it.
//!
//! Include it with `#[path = "oracle/benefit_table.rs"] mod benefit_table;`.

#![allow(dead_code)] // each including test binary uses a different subset

use decor::core::{benefit_at, CoverageMap};
use decor::geom::{query_bucket_edge, FrozenGridIndex, Point};

/// Incrementally-maintained benefits over a fixed candidate set of
/// approximation-point ids. The table holds no reference to the map:
/// callers pass it to the update methods right after each map change.
#[derive(Clone, Debug)]
pub struct BenefitTable {
    rs: f64,
    k: u32,
    /// Candidate point ids, parallel to `benefits`.
    cand_pids: Vec<usize>,
    cand_pos: Vec<Point>,
    benefits: Vec<u64>,
    /// Spatial index over candidate positions; payload is the slot.
    cand_index: FrozenGridIndex,
}

impl BenefitTable {
    /// Builds the table for the given candidate point ids, computing every
    /// initial benefit directly.
    pub fn new(map: &CoverageMap, cand_pids: Vec<usize>, rs: f64, k: u32) -> Self {
        let field = map.field();
        let bucket = query_bucket_edge(
            rs,
            field.width().min(field.height()),
            cand_pids.len().max(1),
        );
        let cand_pos: Vec<Point> = cand_pids.iter().map(|&pid| map.points()[pid]).collect();
        let benefits = cand_pos
            .iter()
            .map(|&pos| benefit_at(map, pos, rs, k))
            .collect();
        let cand_index = FrozenGridIndex::from_points(
            field.min,
            (field.width(), field.height()),
            bucket,
            cand_pos.iter().copied().enumerate(),
        );
        BenefitTable {
            rs,
            k,
            cand_pids,
            cand_pos,
            benefits,
            cand_index,
        }
    }

    /// Current benefit of candidate slot `slot`.
    pub fn benefit(&self, slot: usize) -> u64 {
        self.benefits[slot]
    }

    /// The best candidate: `(slot, point_id, position, benefit)` with the
    /// maximum positive benefit, ties to the lowest slot; `None` when
    /// every candidate has zero benefit.
    pub fn best(&self) -> Option<(usize, usize, Point, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for (slot, &b) in self.benefits.iter().enumerate() {
            if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                best = Some((slot, b));
            }
        }
        best.map(|(slot, b)| (slot, self.cand_pids[slot], self.cand_pos[slot], b))
    }

    /// A sensor of radius `r` landed at `q` (the map is already updated).
    pub fn on_sensor_added(&mut self, map: &CoverageMap, q: Point, r: f64) {
        self.recompute_near(map, q, r);
    }

    /// The sensor of radius `r` at `q` was deactivated (the map is already
    /// updated).
    pub fn on_sensor_removed(&mut self, map: &CoverageMap, q: Point, r: f64) {
        self.recompute_near(map, q, r);
    }

    /// Only candidates within `r + rs` of `q` can have changed; their
    /// benefits are recomputed directly, which stays correct for
    /// heterogeneous radii.
    fn recompute_near(&mut self, map: &CoverageMap, q: Point, r: f64) {
        let mut affected = Vec::new();
        self.cand_index.within_into(q, r + self.rs, &mut affected);
        for slot in affected {
            self.benefits[slot] = benefit_at(map, self.cand_pos[slot], self.rs, self.k);
        }
    }
}
