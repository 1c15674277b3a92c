//! The sharded, incrementally-maintained placement engine.
//!
//! A plain table of candidate benefits (the seed path, kept as the test
//! oracle `tests/oracle/benefit_table.rs`) answers `best()` with a linear
//! scan over all candidates and reacts to placements by *recomputing*
//! every affected benefit from the map. Both costs are paid on every
//! placement step, and the centralized baseline takes hundreds of steps
//! per run. This engine replaces both:
//!
//! - **Exact delta maintenance.** A sensor landing at `q` changes the
//!   coverage of exactly the points within its radius; each such point
//!   whose deficit actually moved contributes **±1** to the benefit of
//!   every candidate within `rs` of it (benefits are integers, so the
//!   deltas are exact — placement sequences stay bit-identical to the
//!   recompute-from-scratch path).
//! - **Spatial shards with lazy maxima.** Candidates are bucketed into
//!   spatial shards; each shard caches its best `(slot, benefit)` and is
//!   invalidated only when one of its candidates changes. `best()` then
//!   refreshes the dirty shards (a scan over their few slots — no
//!   geometry) and reduces over the per-shard maxima instead of all
//!   candidates.
//! - **Occupied shards only.** Global mode tiles the whole field into up
//!   to 64×64 shards, but a restoration's candidates crowd around the
//!   damage, so nearly all of them are empty. Each reset lists the
//!   non-empty shards in ascending order, and `best()` walks that list
//!   alone. Ties go to the lowest slot, not the lowest shard, so the walk
//!   order cannot change an answer.
//! - **Parallel shard recomputation.** Building the benefit vector
//!   evaluates Equation 1 once per candidate; those evaluations fan out
//!   over crossbeam scoped threads, one contiguous chunk of candidates
//!   per thread.
//!
//! Two scoring modes cover all three placement schemes:
//!
//! - [`ShardedBenefitEngine::global`] — Equation 1 over the whole map,
//!   shards are square tiles (centralized greedy);
//! - [`ShardedBenefitEngine::reset_cells`] — benefit truncated to the
//!   shard's own points and candidates must themselves be deficient,
//!   shards are the caller's partition (grid DECOR's cells).
//!
//! Tie-breaking contract: maximum benefit, ties to the lowest slot —
//! identical to a direct argmax over [`benefit_at`] in slot order (global
//! mode) and to grid DECOR's keep-first cell scan (cells mode).

use crate::benefit::benefit_at;
use crate::coverage::CoverageMap;
use decor_geom::{query_bucket_edge, FrozenGridIndex, Point};

/// Below this many candidates the initial benefit build stays sequential:
/// spawning threads would cost more than the evaluations.
const PAR_BUILD_THRESHOLD: usize = 1024;

struct Shard {
    /// Member slot indices, ascending (so a keep-first max scan breaks
    /// ties to the lowest slot).
    slots: Vec<usize>,
    /// Cached best `(slot, benefit)` with positive benefit; valid only
    /// when `dirty` is false.
    best: Option<(usize, u64)>,
    dirty: bool,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Equation 1 over the whole map; candidates are spatially indexed so
    /// a changed point can find the candidates it contributes to. The
    /// candidate set is fixed at build time, so the index is frozen CSR.
    Global,
    /// Benefit truncated to the shard's own points (grid DECOR's leader
    /// horizon); a candidate is eligible only while itself deficient.
    Cells,
}

/// Sharded benefit engine over a fixed candidate set. See the module docs.
///
/// Every constructor routes through the capacity-preserving
/// [`ShardedBenefitEngine::reset_global`] / [`ShardedBenefitEngine::reset_cells`]
/// rebuild paths, so a warm engine reused across runs produces state
/// bit-identical to a freshly built one.
pub struct ShardedBenefitEngine {
    rs: f64,
    k: u32,
    /// Candidate point ids, indexed by slot.
    slot_pid: Vec<usize>,
    slot_pos: Vec<Point>,
    benefits: Vec<u64>,
    shard_of_slot: Vec<u32>,
    shards: Vec<Shard>,
    /// Indices of the shards holding at least one slot, ascending. Rebuilt
    /// by every reset, capacity retained.
    occupied: Vec<u32>,
    mode: Mode,
    /// Global mode's candidate index. Kept as a field (not an enum
    /// payload) so its slabs survive a mode switch and resets reuse them.
    cand_index: FrozenGridIndex,
    /// Cells mode's point id -> shard map (`u32::MAX` for points outside
    /// the partition). Empty in global mode, capacity retained.
    shard_of_pid: Vec<u32>,
    /// Scratch for the changed-point set of `apply_coverage_delta`,
    /// reused across placements so the hot path stays allocation-free.
    changed_scratch: Vec<(usize, Point)>,
}

impl ShardedBenefitEngine {
    /// Builds a global-benefit engine (Equation 1) over candidate point
    /// ids of `map`, sharded into square tiles sized to the influence
    /// diameter `2·rs` (clamped so huge radii degenerate to one shard and
    /// tiny radii to at most a 64×64 tiling).
    pub fn global(map: &CoverageMap, cand_pids: Vec<usize>, rs: f64, k: u32) -> Self {
        let mut engine = Self::empty();
        let mut cands = cand_pids;
        engine.reset_global(map, &mut cands, rs, k);
        engine
    }

    /// An engine with no candidates and no shards. The useful starting
    /// state for a pooled engine: the first `reset_*` sizes the slabs and
    /// later resets reuse them.
    pub fn empty() -> Self {
        ShardedBenefitEngine {
            rs: 0.0,
            k: 0,
            slot_pid: Vec::new(),
            slot_pos: Vec::new(),
            benefits: Vec::new(),
            shard_of_slot: Vec::new(),
            shards: Vec::new(),
            occupied: Vec::new(),
            mode: Mode::Global,
            cand_index: FrozenGridIndex::empty(),
            shard_of_pid: Vec::new(),
            changed_scratch: Vec::new(),
        }
    }

    /// Rebuilds `self` as a global-benefit engine over `cand_pids`,
    /// reusing every slab already owned. `cand_pids` is *swapped* into
    /// the engine (the caller gets the previous candidate buffer back,
    /// contents unspecified) so round-tripping through an arena never
    /// reallocates the candidate list. State is bit-identical to
    /// [`ShardedBenefitEngine::global`].
    pub fn reset_global(&mut self, map: &CoverageMap, cand_pids: &mut Vec<usize>, rs: f64, k: u32) {
        self.rs = rs;
        self.k = k;
        self.mode = Mode::Global;
        std::mem::swap(&mut self.slot_pid, cand_pids);
        self.shard_of_pid.clear();
        let field = map.field();
        let (w, h) = (field.width(), field.height());
        let tile = (2.0 * rs).max(w.max(h) / 64.0);
        let nx = (w / tile).ceil().max(1.0) as usize;
        let ny = (h / tile).ceil().max(1.0) as usize;
        let bucket = query_bucket_edge(rs, w.min(h), self.slot_pid.len().max(1));
        let origin = field.min;
        self.slot_pos.clear();
        self.shard_of_slot.clear();
        for sh in &mut self.shards {
            sh.slots.clear();
            sh.best = None;
            sh.dirty = false;
        }
        self.shards.resize_with(nx * ny, || Shard {
            slots: Vec::new(),
            best: None,
            dirty: false,
        });
        for (slot, &pid) in self.slot_pid.iter().enumerate() {
            let pos = map.points()[pid];
            let tx = (((pos.x - origin.x) / tile).floor().max(0.0) as usize).min(nx - 1);
            let ty = (((pos.y - origin.y) / tile).floor().max(0.0) as usize).min(ny - 1);
            let si = ty * nx + tx;
            self.shards[si].slots.push(slot);
            self.shards[si].dirty = true;
            self.shard_of_slot.push(si as u32);
            self.slot_pos.push(pos);
        }
        self.list_occupied();
        self.cand_index.rebuild_from_points(
            field.min,
            (w, h),
            bucket,
            self.slot_pos.iter().copied().enumerate(),
        );
        let slot_pos = &self.slot_pos;
        par_compute_into(
            slot_pos.len(),
            &|slot: usize| benefit_at(map, slot_pos[slot], rs, k),
            &mut self.benefits,
        );
    }

    /// Rebuilds `self` as a cell-truncated engine over `partition` (one
    /// shard per entry; entries list candidate point ids, typically a grid
    /// cell's points in ascending order), reusing every slab already
    /// owned. Benefit of a candidate sums the deficits of *its own
    /// shard's* points within `rs`, and `best` queries skip candidates
    /// whose own coverage already meets `k` — grid DECOR's exact leader
    /// rule.
    pub fn reset_cells(&mut self, map: &CoverageMap, partition: &[Vec<usize>], rs: f64, k: u32) {
        self.rs = rs;
        self.k = k;
        self.mode = Mode::Cells;
        self.shard_of_pid.clear();
        self.shard_of_pid.resize(map.n_points(), u32::MAX);
        self.slot_pid.clear();
        self.slot_pos.clear();
        self.shard_of_slot.clear();
        for sh in &mut self.shards {
            sh.slots.clear();
            sh.best = None;
            sh.dirty = true;
        }
        self.shards.resize_with(partition.len(), || Shard {
            slots: Vec::new(),
            best: None,
            dirty: true,
        });
        for (si, pids) in partition.iter().enumerate() {
            for &pid in pids {
                debug_assert_eq!(
                    self.shard_of_pid[pid],
                    u32::MAX,
                    "partition entries must be disjoint"
                );
                self.shard_of_pid[pid] = si as u32;
                self.shards[si].slots.push(self.slot_pid.len());
                self.shard_of_slot.push(si as u32);
                self.slot_pid.push(pid);
                self.slot_pos.push(map.points()[pid]);
            }
        }
        self.list_occupied();
        let shards_ref = &self.shards;
        let shard_of_slot_ref = &self.shard_of_slot;
        let slot_pos_ref = &self.slot_pos;
        let slot_pid_ref = &self.slot_pid;
        par_compute_into(
            slot_pid_ref.len(),
            &move |slot: usize| {
                let c = slot_pos_ref[slot];
                let sh = &shards_ref[shard_of_slot_ref[slot] as usize];
                let mut b = 0u64;
                for &other in &sh.slots {
                    if slot_pos_ref[other].in_disk(c, rs) {
                        let kp = map.coverage(slot_pid_ref[other]);
                        if kp < k {
                            b += (k - kp) as u64;
                        }
                    }
                }
                b
            },
            &mut self.benefits,
        );
    }

    /// Current benefit of candidate slot `slot`.
    pub fn benefit(&self, slot: usize) -> u64 {
        self.benefits[slot]
    }

    /// The globally best candidate: `(slot, point_id, position, benefit)`
    /// with maximum benefit, ties to the lowest slot; `None` when every
    /// (eligible) candidate has zero benefit. Walks the occupied shards
    /// only, refreshing each if dirty and reducing over their cached
    /// maxima.
    pub fn best(&mut self, map: &CoverageMap) -> Option<(usize, usize, Point, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for i in 0..self.occupied.len() {
            let si = self.occupied[i] as usize;
            self.refresh_shard(map, si);
            if let Some((slot, b)) = self.shards[si].best {
                if best.is_none_or(|(bs, bb)| b > bb || (b == bb && slot < bs)) {
                    best = Some((slot, b));
                }
            }
        }
        best.map(|(slot, b)| (slot, self.slot_pid[slot], self.slot_pos[slot], b))
    }

    /// The best candidate of shard `si` alone: `(point_id, benefit)` or
    /// `None`. This is grid DECOR's per-cell query.
    pub fn best_in_shard(&mut self, map: &CoverageMap, si: usize) -> Option<(usize, u64)> {
        self.refresh_shard(map, si);
        self.shards[si]
            .best
            .map(|(slot, b)| (self.slot_pid[slot], b))
    }

    /// Lists the shards holding at least one slot, ascending.
    fn list_occupied(&mut self) {
        self.occupied.clear();
        let shards = &self.shards;
        self.occupied
            .extend((0..shards.len() as u32).filter(|&si| !shards[si as usize].slots.is_empty()));
    }

    fn refresh_shard(&mut self, map: &CoverageMap, si: usize) {
        if !self.shards[si].dirty {
            return;
        }
        let cells_mode = self.mode == Mode::Cells;
        let mut best: Option<(usize, u64)> = None;
        for &slot in &self.shards[si].slots {
            if cells_mode && map.coverage(self.slot_pid[slot]) >= self.k {
                continue;
            }
            let b = self.benefits[slot];
            if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                best = Some((slot, b));
            }
        }
        self.shards[si].best = best;
        self.shards[si].dirty = false;
    }

    /// Notifies the engine that a sensor of radius `rs_new` landed at `q`,
    /// *after* the map was updated. O(changed points × local candidates).
    pub fn on_sensor_added(&mut self, map: &CoverageMap, q: Point, rs_new: f64) {
        self.apply_coverage_delta(map, q, rs_new, true);
    }

    /// Notifies the engine that the sensor of radius `rs_old` at `q` was
    /// deactivated, *after* the map was updated.
    pub fn on_sensor_removed(&mut self, map: &CoverageMap, q: Point, rs_old: f64) {
        self.apply_coverage_delta(map, q, rs_old, false);
    }

    fn apply_coverage_delta(&mut self, map: &CoverageMap, q: Point, r: f64, added: bool) {
        // Coverage changed for exactly the points within `r` of `q`. The
        // deficit of such a point moved by 1 iff the step crossed the `k`
        // boundary: post-coverage <= k after an add (pre < k), post < k
        // after a removal. The same predicate captures every eligibility
        // flip in cells mode (a candidate's own crossing of `k`).
        let k = self.k;
        let mut changed = std::mem::take(&mut self.changed_scratch);
        changed.clear();
        map.for_each_point_within_unordered(q, r, |pid, ppos| {
            let c = map.coverage(pid);
            let crossed = if added { c <= k } else { c < k };
            if crossed {
                changed.push((pid, ppos));
            }
        });
        match self.mode {
            Mode::Global => {
                let cand_index = &self.cand_index;
                let benefits = &mut self.benefits;
                let shards = &mut self.shards;
                let shard_of_slot = &self.shard_of_slot;
                for &(_, ppos) in &changed {
                    cand_index.for_each_within(ppos, self.rs, |slot, _| {
                        if added {
                            benefits[slot] -= 1;
                        } else {
                            benefits[slot] += 1;
                        }
                        shards[shard_of_slot[slot] as usize].dirty = true;
                    });
                }
            }
            Mode::Cells => {
                let rs = self.rs;
                for &(pid, ppos) in &changed {
                    let si = self.shard_of_pid[pid];
                    if si == u32::MAX {
                        continue;
                    }
                    let sh = &mut self.shards[si as usize];
                    sh.dirty = true;
                    for &slot in &sh.slots {
                        if self.slot_pos[slot].in_disk(ppos, rs) {
                            if added {
                                self.benefits[slot] -= 1;
                            } else {
                                self.benefits[slot] += 1;
                            }
                        }
                    }
                }
            }
        }
        self.changed_scratch = changed;
    }
}

/// Evaluates `f(0..n)` into `out` (cleared first), fanning chunks out
/// over crossbeam scoped threads when `n` is large enough to amortize
/// thread spawn, one contiguous chunk per thread. Workers write disjoint
/// `chunks_mut` slabs of `out` directly, so a warm buffer makes the
/// whole evaluation allocation-free; `f` is deterministic per index, so
/// the result is identical either way.
fn par_compute_into<F>(n: usize, f: &F, out: &mut Vec<u64>)
where
    F: Fn(usize) -> u64 + Sync,
{
    out.clear();
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
        .min(n.max(1));
    if threads <= 1 || n < PAR_BUILD_THRESHOLD {
        out.extend((0..n).map(f));
        return;
    }
    out.resize(n, 0);
    let chunk = n.div_ceil(threads);
    crossbeam::thread::scope(|scope| {
        for (i, slab) in out.chunks_mut(chunk).enumerate() {
            let start = i * chunk;
            scope.spawn(move |_| {
                for (j, b) in slab.iter_mut().enumerate() {
                    *b = f(start + j);
                }
            });
        }
    })
    .expect("scope failed");
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeploymentConfig;
    use decor_geom::Aabb;
    use decor_lds::halton_points;

    fn setup(n_pts: usize, k: u32) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(k);
        let map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        (map, cfg)
    }

    fn cells(map: &CoverageMap, partition: &[Vec<usize>], rs: f64, k: u32) -> ShardedBenefitEngine {
        let mut engine = ShardedBenefitEngine::empty();
        engine.reset_cells(map, partition, rs, k);
        engine
    }

    /// The direct argmax over `cands` in slot order: the engine's
    /// `(slot, point_id, position, benefit)` answer, recomputed.
    fn direct_best(
        map: &CoverageMap,
        cands: &[usize],
        rs: f64,
        k: u32,
    ) -> Option<(usize, usize, Point, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for (slot, &pid) in cands.iter().enumerate() {
            let b = benefit_at(map, map.points()[pid], rs, k);
            if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                best = Some((slot, b));
            }
        }
        best.map(|(slot, b)| (slot, cands[slot], map.points()[cands[slot]], b))
    }

    #[test]
    fn global_matches_direct_evaluation_initially() {
        let (map, cfg) = setup(500, 2);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        assert_eq!(engine.slot_pid.len(), cands.len());
        for (slot, &pid) in cands.iter().enumerate() {
            let direct = benefit_at(&map, map.points()[pid], cfg.rs, cfg.k);
            assert_eq!(engine.benefit(slot), direct, "slot {slot}");
        }
    }

    #[test]
    fn global_best_matches_direct_argmax_under_placements() {
        let (mut map, cfg) = setup(600, 3);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        for step in 0..60usize {
            let want = direct_best(&map, &cands, cfg.rs, cfg.k);
            assert_eq!(engine.best(&map), want, "step {step}");
            let Some((_, _, pos, _)) = want else {
                break;
            };
            map.add_sensor(pos, cfg.rs);
            engine.on_sensor_added(&map, pos, cfg.rs);
        }
    }

    #[test]
    fn boundary_points_at_exactly_rs_count_in_every_path() {
        // A point sitting exactly on a sensing-disk boundary (d == rs)
        // must be covered in the naive scan, the incremental map
        // counters, both engine scorings, and the direct benefit
        // evaluation alike — the predicate is single-sourced in
        // `Point::in_disk` and this pins the inclusive boundary.
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(1); // rs = 4.0
        let pts = vec![
            decor_geom::Point::new(50.0, 50.0),
            decor_geom::Point::new(54.0, 50.0), // exactly rs east
            decor_geom::Point::new(50.0, 46.0), // exactly rs south
            decor_geom::Point::new(46.0, 50.0), // exactly rs west
            decor_geom::Point::new(53.0, 53.0), // sqrt(18) > rs: outside
        ];
        let mut map = CoverageMap::new(pts, &field, &cfg);
        let cands: Vec<usize> = (0..map.n_points()).collect();

        // The center candidate's benefit counts all three boundary
        // points (plus itself) in every evaluator.
        assert_eq!(benefit_at(&map, map.points()[0], cfg.rs, cfg.k), 4);
        let global = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        assert_eq!(global.benefit(0), 4);
        let partition = vec![cands.clone()];
        let cells = cells(&map, &partition, cfg.rs, cfg.k);
        assert_eq!(cells.benefit(0), 4);

        // Placing at the center covers the boundary points inclusively,
        // in the point counters and in the sensor-side covering query.
        map.add_sensor(map.points()[0], cfg.rs);
        let coverers = |map: &CoverageMap, pid: usize| {
            let mut n = 0;
            map.for_each_sensor_covering(map.points()[pid], |_, _| n += 1);
            n
        };
        for pid in 0..4 {
            assert_eq!(map.coverage(pid), 1, "point {pid} sits on/within rs");
            assert_eq!(coverers(&map, pid), 1, "point {pid} sits on/within rs");
        }
        assert_eq!(map.coverage(4), 0, "outside point untouched");
        assert_eq!(coverers(&map, 4), 0, "outside point has no coverer");
        map.verify_consistency();
    }

    #[test]
    fn global_delta_handles_heterogeneous_radii() {
        let (mut map, cfg) = setup(400, 2);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        for (step, &factor) in [0.5, 1.5, 1.0, 2.5, 0.75].iter().enumerate() {
            let q = map.points()[(step * 83) % map.n_points()];
            let rs_new = cfg.rs * factor;
            map.add_sensor(q, rs_new);
            engine.on_sensor_added(&map, q, rs_new);
        }
        for (slot, &pid) in cands.iter().enumerate() {
            assert_eq!(
                engine.benefit(slot),
                benefit_at(&map, map.points()[pid], cfg.rs, cfg.k),
                "slot {slot} drifted"
            );
        }
    }

    #[test]
    fn global_delta_survives_removal_churn() {
        let (mut map, cfg) = setup(400, 2);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        let mut sids = Vec::new();
        for step in 0..20usize {
            let q = map.points()[(step * 61) % map.n_points()];
            sids.push((map.add_sensor(q, cfg.rs), q));
            engine.on_sensor_added(&map, q, cfg.rs);
        }
        for &(sid, q) in sids.iter().step_by(2) {
            assert!(map.deactivate_sensor(sid));
            engine.on_sensor_removed(&map, q, cfg.rs);
        }
        let (sid, q) = sids[0];
        assert!(map.reactivate_sensor(sid));
        engine.on_sensor_added(&map, q, cfg.rs);
        map.verify_consistency();
        for (slot, &pid) in cands.iter().enumerate() {
            assert_eq!(
                engine.benefit(slot),
                benefit_at(&map, map.points()[pid], cfg.rs, cfg.k),
                "slot {slot} drifted"
            );
        }
    }

    #[test]
    fn parallel_build_matches_sequential() {
        // 2000 candidates crosses PAR_BUILD_THRESHOLD; benefits must be
        // identical to slot-by-slot sequential evaluation.
        let (map, cfg) = setup(2000, 2);
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let engine = ShardedBenefitEngine::global(&map, cands.clone(), cfg.rs, cfg.k);
        for (slot, &pid) in cands.iter().enumerate() {
            assert_eq!(
                engine.benefit(slot),
                benefit_at(&map, map.points()[pid], cfg.rs, cfg.k)
            );
        }
    }

    #[test]
    fn subset_candidates_keep_lowest_slot_tiebreak() {
        let (map, cfg) = setup(300, 1);
        let cands = vec![250, 3, 77, 150];
        let want = direct_best(&map, &cands, cfg.rs, cfg.k);
        let mut engine = ShardedBenefitEngine::global(&map, cands, cfg.rs, cfg.k);
        assert_eq!(engine.best(&map), want);
    }

    #[test]
    fn best_none_when_fully_covered() {
        let (mut map, cfg) = setup(200, 2);
        for _ in 0..cfg.k {
            map.add_sensor(Point::new(50.0, 50.0), 200.0);
        }
        let cands: Vec<usize> = (0..map.n_points()).collect();
        let mut engine = ShardedBenefitEngine::global(&map, cands, cfg.rs, cfg.k);
        assert!(engine.best(&map).is_none());
    }

    /// The `best()` answers of `engine`, reset over `cands`, along a
    /// greedy run on a copy of `map`.
    fn greedy_answers(
        engine: &mut ShardedBenefitEngine,
        map: &CoverageMap,
        cands: &[usize],
        rs: f64,
        k: u32,
    ) -> Vec<Option<(usize, usize, Point, u64)>> {
        let mut map = map.clone();
        let mut buf = cands.to_vec();
        engine.reset_global(&map, &mut buf, rs, k);
        let mut answers = Vec::new();
        loop {
            let best = engine.best(&map);
            answers.push(best);
            let Some((_, _, pos, _)) = best else {
                return answers;
            };
            map.add_sensor(pos, rs);
            engine.on_sensor_added(&map, pos, rs);
        }
    }

    /// A pooled engine carried through global → cells → global resets
    /// (different candidate sets, shard grids and radii) answers exactly
    /// like a fresh one: no reset may leave a stale occupied-shard list.
    #[test]
    fn reused_engine_matches_fresh_across_mode_switches() {
        let (mut map, cfg) = setup(1200, 2);
        for i in 0..8 {
            for j in 0..8 {
                let p = Point::new(6.0 + 12.5 * i as f64, 6.0 + 12.5 * j as f64);
                map.add_sensor(p, 6.0);
                map.add_sensor(p, 6.0);
            }
        }
        let below: Vec<usize> = map.uncovered_ids(cfg.k);
        assert!(!below.is_empty());
        let all: Vec<usize> = (0..map.n_points()).collect();
        let mut pooled = ShardedBenefitEngine::empty();
        let fresh = |cands: &[usize], rs: f64| {
            greedy_answers(&mut ShardedBenefitEngine::empty(), &map, cands, rs, cfg.k)
        };
        assert_eq!(
            greedy_answers(&mut pooled, &map, &all, cfg.rs, cfg.k),
            fresh(&all, cfg.rs)
        );
        // Cells mode over a partition with empty entries.
        let partition: Vec<Vec<usize>> = (0..12)
            .map(|c| {
                if c % 3 == 1 {
                    Vec::new()
                } else {
                    below.iter().copied().filter(|p| p % 12 == c).collect()
                }
            })
            .collect();
        pooled.reset_cells(&map, &partition, cfg.rs, cfg.k);
        let mut fresh_cells = cells(&map, &partition, cfg.rs, cfg.k);
        assert_eq!(pooled.best(&map), fresh_cells.best(&map));
        for si in 0..partition.len() {
            assert_eq!(
                pooled.best_in_shard(&map, si),
                fresh_cells.best_in_shard(&map, si)
            );
        }
        // Back to global mode: first the tight candidate set, then a wider
        // radius over every point.
        assert_eq!(
            greedy_answers(&mut pooled, &map, &below, cfg.rs, cfg.k),
            fresh(&below, cfg.rs)
        );
        assert_eq!(
            greedy_answers(&mut pooled, &map, &all, 7.0, cfg.k),
            fresh(&all, 7.0)
        );
    }

    #[test]
    fn cells_mode_is_covered_by_grid_scheme_tests() {
        // Construction smoke test here; behavioural equivalence against
        // the direct per-cell scan lives in grid_scheme::tests.
        let (map, cfg) = setup(300, 1);
        let half: Vec<usize> = (0..150).collect();
        let rest: Vec<usize> = (150..300).collect();
        let mut engine = cells(&map, &[half, rest], cfg.rs, cfg.k);
        assert_eq!(engine.shards.len(), 2);
        assert!(engine.best_in_shard(&map, 0).is_some());
    }
}
