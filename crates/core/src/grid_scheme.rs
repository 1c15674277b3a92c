//! Grid-based DECOR (§3.1–3.3).
//!
//! The field is partitioned into fixed square cells; each non-empty cell
//! elects a leader (rotated round-robin for energy fairness). Every round,
//! each leader inspects the approximation points of *its own cell* and, if
//! any is under-covered, places one new sensor at the cell point of maximum
//! benefit — where benefit is truncated to the leader's horizon (its own
//! cell's points). Leaders whose cell is fully covered adopt a nearby
//! *empty* cell with uncovered points and seed it with a leader node
//! (the paper's rule: "the leader of a neighboring cell will place a new
//! leader in the uncovered cell").
//!
//! All leaders decide simultaneously from the coverage state at the start
//! of the round; placements apply together afterwards. That concurrency is
//! the scheme's real cost: adjacent leaders double-cover their common
//! border within a round, and the truncated benefit horizon wastes the part
//! of a sensor's disk that pokes into neighboring cells. Both effects grow
//! as cells shrink, which is why the small-cell variant needs the most
//! nodes in Fig. 8.
//!
//! Message accounting (Fig. 10): after placing, a leader unicasts a
//! placement notice to the leader of every neighboring cell whose area the
//! new sensor's disk overlaps. Leaders communicate directly, which requires
//! `rc >= 2·√2·cell` (the paper's `rc = 10·√2` for 5×5 cells); the scheme
//! configures its accounting network accordingly.
//!
//! On a lossy medium (`cfg.link.loss_rate > 0`) those notices ride the
//! reliable transport (`decor_net::transport`). A notice that exhausts its
//! retry budget leaves the *cell* blind to the announced sensor
//! ([`crate::NeighborKnowledge`], keyed by cell index — cell members share
//! a blackboard, so whoever leads next round inherits the gap), and the
//! blind cell may re-cover the border redundantly. The transport bounds
//! that waste.

use crate::config::DeploymentConfig;
use crate::coverage::{CoverageMap, SensorId};
use crate::engine::ShardedBenefitEngine;
use crate::metrics::PlacementOutcome;
use crate::rounds::{Rounds, World};
use crate::scratch::SimScratch;
use crate::Placer;
use decor_geom::{Aabb, Point};
use decor_net::{rotation_leader_in, NodeId};
use decor_trace::TraceEvent;
use std::collections::BTreeSet;

/// Grid-based DECOR with square cells of edge `cell_size`.
#[derive(Clone, Copy, Debug)]
pub struct GridDecor {
    /// Cell edge length (paper: 5 for "small cell", 10 for "big cell").
    pub cell_size: f64,
}

pub(crate) struct Cells {
    pub(crate) cols: usize,
    pub(crate) rows: usize,
    pub(crate) size: f64,
    pub(crate) origin: Point,
    /// Approximation-point ids per cell.
    pub(crate) points: Vec<Vec<usize>>,
    /// Cell index of each approximation point (inverse of `points`), so
    /// radius queries can filter to one cell without scanning its list.
    pub(crate) cell_of_pid: Vec<u32>,
    /// Member sensor ids (alive network nodes) per cell.
    pub(crate) members: Vec<Vec<NodeId>>,
}

impl Cells {
    pub(crate) fn new(field: &Aabb, size: f64, map: &CoverageMap) -> Self {
        let mut cells = Cells {
            cols: 0,
            rows: 0,
            size,
            origin: field.min,
            points: Vec::new(),
            cell_of_pid: Vec::new(),
            members: Vec::new(),
        };
        cells.rebuild(field, size, map);
        cells
    }

    /// Re-derives the partition in place, preserving the allocations of a
    /// previous run — the cold constructor routes through here, so a
    /// rebuilt partition is identical to a fresh one.
    pub(crate) fn rebuild(&mut self, field: &Aabb, size: f64, map: &CoverageMap) {
        let cols = (field.width() / size).ceil().max(1.0) as usize;
        let rows = (field.height() / size).ceil().max(1.0) as usize;
        self.cols = cols;
        self.rows = rows;
        self.size = size;
        self.origin = field.min;
        for v in &mut self.points {
            v.clear();
        }
        self.points.resize_with(cols * rows, Vec::new);
        for v in &mut self.members {
            v.clear();
        }
        self.members.resize_with(cols * rows, Vec::new);
        self.cell_of_pid.clear();
        self.cell_of_pid.resize(map.n_points(), 0);
        let origin = self.origin;
        for (pid, &p) in map.points().iter().enumerate() {
            let cx = (((p.x - origin.x) / size).floor() as usize).min(cols - 1);
            let cy = (((p.y - origin.y) / size).floor() as usize).min(rows - 1);
            let ci = cy * cols + cx;
            self.points[ci].push(pid);
            self.cell_of_pid[pid] = ci as u32;
        }
    }

    pub(crate) fn index_of(&self, p: Point) -> usize {
        let cx = (((p.x - self.origin.x) / self.size).floor() as usize).min(self.cols - 1);
        let cy = (((p.y - self.origin.y) / self.size).floor() as usize).min(self.rows - 1);
        cy * self.cols + cx
    }

    pub(crate) fn len(&self) -> usize {
        self.cols * self.rows
    }

    /// Adds node `node` at `pos` to the members of its cell.
    fn join(&mut self, node: NodeId, pos: Point) {
        let ci = self.index_of(pos);
        self.members[ci].push(node);
    }

    pub(crate) fn center(&self, ci: usize) -> Point {
        let cx = ci % self.cols;
        let cy = ci / self.cols;
        Point::new(
            self.origin.x + (cx as f64 + 0.5) * self.size,
            self.origin.y + (cy as f64 + 0.5) * self.size,
        )
    }

    pub(crate) fn rect(&self, ci: usize) -> Aabb {
        let cx = ci % self.cols;
        let cy = ci / self.cols;
        let min = Point::new(
            self.origin.x + cx as f64 * self.size,
            self.origin.y + cy as f64 * self.size,
        );
        Aabb::new(min, Point::new(min.x + self.size, min.y + self.size))
    }

    /// The 8-neighborhood of cell `ci` (indices only, in-bounds).
    pub(crate) fn neighbors(&self, ci: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(8);
        self.neighbors_into(ci, &mut out);
        out
    }

    /// [`Cells::neighbors`] into a reused buffer (cleared first).
    pub(crate) fn neighbors_into(&self, ci: usize, out: &mut Vec<usize>) {
        out.clear();
        let cx = (ci % self.cols) as isize;
        let cy = (ci / self.cols) as isize;
        for dy in -1..=1 {
            for dx in -1..=1 {
                if dx == 0 && dy == 0 {
                    continue;
                }
                let nx = cx + dx;
                let ny = cy + dy;
                if nx >= 0 && ny >= 0 && (nx as usize) < self.cols && (ny as usize) < self.rows {
                    out.push(ny as usize * self.cols + nx as usize);
                }
            }
        }
    }
}

/// Grid-scheme round-loop scratch: the per-run buffers `place_in` needs
/// beyond the round protocol's, pooled inside [`SimScratch`] so warm runs
/// reuse the capacity.
/// All state is fully re-derived per run — nothing observable leaks
/// between runs.
#[derive(Default)]
pub(crate) struct GridScratch {
    /// The cell partition, rebuilt per run via [`Cells::rebuild`].
    cells: Option<Cells>,
    /// Shard index per cell (`u32::MAX` = no shard).
    shard_of_cell: Vec<u32>,
    /// Per-cell deficiency flags used while building the partition.
    deficient: Vec<bool>,
    /// Deficient point ids (`CoverageMap::uncovered_ids_into` target).
    uncovered: Vec<usize>,
    /// Engine partition: the points of each deficient cell.
    partition: Vec<Vec<usize>>,
    /// Engine-path adoption scan lists (shard-bearing neighbors).
    adopt_targets: Vec<Vec<usize>>,
    /// Round decisions: (acting cell, leader, target pid, benefit).
    decisions: Vec<(usize, NodeId, usize, u64)>,
    /// Empty cells claimed by adoption this round.
    claimed_empty: Vec<usize>,
    /// Neighbor-index buffer for [`Cells::neighbors_into`].
    neigh: Vec<usize>,
    /// Election sort buffer for [`rotation_leader_in`].
    elect: Vec<NodeId>,
}

/// A crashed node leaves its cell's members, so rotations never elect the
/// dead. The sharded engine needs no update because chaos runs use the
/// direct scan (see `GridDecor::cell_best`).
impl World for Cells {
    /// A notice to a leader that is unreachable directly (exotic geometry,
    /// or a crash mid-flight) is modelled as multi-hop: it reaches the
    /// cell, whose members share a blackboard, at one message's cost.
    const PEER_DOWN_ARRIVES: bool = true;

    fn retire(&mut self, map: &CoverageMap, node: NodeId, sid: SensorId) {
        let ci = self.index_of(map.sensor_pos(sid));
        self.members[ci].retain(|&m| m != node);
    }
}

impl GridDecor {
    /// Coverage of point `pid` as the cell sees it: ground truth minus the
    /// sensors whose placement notices never reached this cell.
    fn estimated_coverage(map: &CoverageMap, pid: usize, hidden: Option<&BTreeSet<usize>>) -> u32 {
        match hidden {
            None => map.coverage(pid),
            Some(h) => {
                let mut c = 0u32;
                map.for_each_sensor_covering(map.points()[pid], |sid, _| {
                    c += u32::from(!h.contains(&sid));
                });
                c
            }
        }
    }

    /// Benefit of placing at point `pid`, truncated to the points of cell
    /// `ci` — the leader's knowledge horizon (further truncated by the
    /// cell's notice blind spots, if any).
    fn cell_benefit(
        map: &CoverageMap,
        cells: &Cells,
        ci: usize,
        pid: usize,
        cfg: &DeploymentConfig,
        hidden: Option<&BTreeSet<usize>>,
    ) -> u64 {
        let c = map.points()[pid];
        let mut b = 0u64;
        // Radius query over the frozen point index, filtered to the cell's
        // own points; the sum is order-independent integer addition, so
        // the result matches the old scan over `cells.points[ci]` exactly.
        map.for_each_point_within_unordered(c, cfg.rs, |qid, _| {
            if cells.cell_of_pid[qid] == ci as u32 {
                let kp = Self::estimated_coverage(map, qid, hidden);
                if kp < cfg.k {
                    b += (cfg.k - kp) as u64;
                }
            }
        });
        b
    }

    /// The best candidate point of cell `ci`: among the cell's deficient
    /// points, the one of maximum truncated benefit (ties to lowest id).
    /// Shared with the asynchronous implementation (which runs on a perfect
    /// medium, hence no blind spots).
    pub(crate) fn best_candidate_for(
        map: &CoverageMap,
        cells: &Cells,
        ci: usize,
        cfg: &DeploymentConfig,
    ) -> Option<(usize, u64)> {
        Self::best_candidate(map, cells, ci, cfg, None)
    }

    fn best_candidate(
        map: &CoverageMap,
        cells: &Cells,
        ci: usize,
        cfg: &DeploymentConfig,
        hidden: Option<&BTreeSet<usize>>,
    ) -> Option<(usize, u64)> {
        let mut best: Option<(usize, u64)> = None;
        for &pid in &cells.points[ci] {
            if Self::estimated_coverage(map, pid, hidden) >= cfg.k {
                continue;
            }
            let b = Self::cell_benefit(map, cells, ci, pid, cfg, hidden);
            if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                best = Some((pid, b));
            }
        }
        best
    }

    /// Per-cell best query, answered by the sharded engine when one is in
    /// use (cached per-cell maxima, delta-maintained) and by the direct
    /// O(cell²) scan otherwise. The run's inputs pick the path, and the
    /// engine serves only lossless, chaos-free runs, for two reasons:
    ///
    /// - under loss a cell's estimate also depends on its knowledge
    ///   ledger, and an adopting leader judges an empty neighbor cell with
    ///   *its own* cell's ledger — a per-cell engine view cannot answer
    ///   that query;
    /// - a chaos crash can make a cell deficient that had no shard when
    ///   the engine was built.
    ///
    /// The engine covers only the cells that were deficient at build time
    /// (`shard_of_cell[ci] == u32::MAX` marks the rest): without loss or
    /// chaos coverage is monotone, so a cell that starts clean can never
    /// regain a positive truncated benefit — the direct scan would answer
    /// `None` for it on every round. In debug builds with the invariant
    /// checker on, every engine answer is cross-checked against that scan
    /// (invariant 5).
    fn cell_best(
        engine: &mut Option<&mut ShardedBenefitEngine>,
        shard_of_cell: &[u32],
        map: &CoverageMap,
        cells: &Cells,
        ci: usize,
        cfg: &DeploymentConfig,
        hidden: Option<&BTreeSet<usize>>,
    ) -> Option<(usize, u64)> {
        let Some(e) = engine.as_mut() else {
            return Self::best_candidate(map, cells, ci, cfg, hidden);
        };
        debug_assert!(hidden.is_none(), "engine requires ground-truth coverage");
        let best = match shard_of_cell[ci] {
            u32::MAX => None,
            si => e.best_in_shard(map, si as usize),
        };
        if cfg!(debug_assertions) && cfg.invariants.is_enabled() {
            let fresh = Self::best_candidate(map, cells, ci, cfg, None);
            cfg.invariants
                .check_cache("grid engine best of cell", ci, &best, &fresh);
        }
        best
    }
}

impl Placer for GridDecor {
    fn name(&self) -> String {
        format!("Grid ({}x{} cell)", self.cell_size, self.cell_size)
    }

    fn place(&self, map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
        self.place_in(map, cfg, &mut SimScratch::new())
    }

    /// The one production path. Placement notices ride the reliable
    /// transport; per-cell bests come from the sharded engine on a
    /// lossless, chaos-free run and from the direct per-cell scan
    /// otherwise (see `GridDecor::cell_best` for why the inputs, not a
    /// flag, pick the path).
    fn place_in(
        &self,
        map: &mut CoverageMap,
        cfg: &DeploymentConfig,
        scratch: &mut SimScratch,
    ) -> PlacementOutcome {
        cfg.validate();
        assert!(
            self.cell_size > 0.0 && self.cell_size.is_finite(),
            "cell size must be positive"
        );
        let field = *map.field();
        // Split the scratch into its independent pools up front so the
        // round loop can borrow them side by side.
        let SimScratch {
            engine: engine_pool,
            net,
            transport,
            rounds: round_pool,
            grid:
                GridScratch {
                    cells: cells_pool,
                    shard_of_cell,
                    deficient,
                    uncovered,
                    partition,
                    adopt_targets,
                    decisions,
                    claimed_empty,
                    neigh,
                    elect,
                },
            ..
        } = scratch;
        let mut cells = match cells_pool.take() {
            Some(mut c) => {
                c.rebuild(&field, self.cell_size, map);
                c
            }
            None => Cells::new(&field, self.cell_size, map),
        };
        // Inter-leader range: diagonal of a 2-cell block (the paper's
        // 10·√2 for 5×5 cells), never below the configured rc.
        let rc_grid = (2.0 * std::f64::consts::SQRT_2 * self.cell_size).max(cfg.rc);
        // Ledger rows are cell indices. Cell members share a blackboard,
        // so a missed notice blinds the whole cell across leader rotations.
        let mut rounds = Rounds::start("grid", rc_grid, map, cfg, net, transport, round_pool);
        for (nid, &sid) in rounds.sid_of().iter().enumerate() {
            cells.join(nid, map.sensor_pos(sid));
        }
        // One shard per *deficient* cell: per-cell truncated benefits
        // delta-maintained, per-cell best cached until a placement lands in
        // the cell. Restoration runs start with most of the field healthy,
        // so the engine build (the O(points·deg) part) touches only the
        // damaged cells — `uncovered_ids` walks the coverage map's
        // deficient tiles rather than sweeping the field.
        // Lossless, chaos-free runs only (see `GridDecor::cell_best`).
        let mut engine: Option<&mut ShardedBenefitEngine> = None;
        shard_of_cell.clear();
        if !cfg.link.is_lossy() && cfg.chaos.is_none() {
            shard_of_cell.resize(cells.len(), u32::MAX);
            deficient.clear();
            deficient.resize(cells.len(), false);
            map.uncovered_ids_into(cfg.k, uncovered);
            for &pid in uncovered.iter() {
                deficient[cells.cell_of_pid[pid] as usize] = true;
            }
            // Partition slots are recycled in place; only the first
            // `n_shards` entries are meaningful this run.
            let mut n_shards = 0usize;
            for ci in 0..cells.len() {
                if deficient[ci] {
                    shard_of_cell[ci] = n_shards as u32;
                    if n_shards == partition.len() {
                        partition.push(Vec::new());
                    }
                    partition[n_shards].clear();
                    partition[n_shards].extend_from_slice(&cells.points[ci]);
                    n_shards += 1;
                }
            }
            engine_pool.reset_cells(map, &partition[..n_shards], cfg.rs, cfg.k);
            engine = Some(engine_pool);
            // Adoption can only land in a shard-bearing neighbor (clean
            // cells answer `None` forever), so each cell's adoption scan
            // list shrinks to those, preserving neighbor order.
            for ci in 0..cells.len() {
                if ci == adopt_targets.len() {
                    adopt_targets.push(Vec::new());
                }
                cells.neighbors_into(ci, neigh);
                adopt_targets[ci].clear();
                adopt_targets[ci].extend(
                    neigh
                        .iter()
                        .copied()
                        .filter(|&nc| shard_of_cell[nc] != u32::MAX),
                );
            }
        }

        while let Some(round) = rounds.begin(map, &mut cells) {
            // Decisions from the coverage snapshot at round start. Each
            // entry: (acting cell, leader node, target point id, benefit).
            decisions.clear();
            claimed_empty.clear();
            #[allow(clippy::needless_range_loop)] // ci indexes members + adopt_targets
            for ci in 0..cells.len() {
                if cells.members[ci].is_empty() {
                    continue;
                }
                cfg.trace.emit(TraceEvent::ElectionStart {
                    cell: ci as u64,
                    round,
                });
                let leader =
                    rotation_leader_in(&cells.members[ci], round, elect).expect("non-empty");
                cfg.trace.emit(TraceEvent::ElectionWon {
                    cell: ci as u64,
                    round,
                    leader: leader as u64,
                });
                cfg.invariants.check_election(
                    ci as u64,
                    round,
                    leader as u64,
                    rounds.net.is_alive(leader),
                );
                let hidden = rounds.knowledge.hidden_from(ci);
                if let Some((pid, b)) =
                    Self::cell_best(&mut engine, shard_of_cell, map, &cells, ci, cfg, hidden)
                {
                    if cfg.invariants.is_enabled() {
                        cfg.invariants.check_estimate(
                            pid,
                            Self::estimated_coverage(map, pid, hidden),
                            map.coverage(pid),
                        );
                    }
                    decisions.push((ci, leader, pid, b));
                    continue;
                }
                // Own cell covered: adopt one neighboring empty cell with
                // deficient points, if any (lowest index, not yet claimed
                // this round). The adopting leader judges the empty cell
                // with its own cell's knowledge. On the engine path the
                // scan list was precomputed down to shard-bearing
                // neighbors; everything else is a guaranteed `None`.
                let adoption_scan: &[usize] = if engine.is_some() {
                    &adopt_targets[ci]
                } else {
                    cells.neighbors_into(ci, neigh);
                    neigh
                };
                for &nc in adoption_scan {
                    if !cells.members[nc].is_empty() || claimed_empty.contains(&nc) {
                        continue;
                    }
                    if let Some((pid, b)) =
                        Self::cell_best(&mut engine, shard_of_cell, map, &cells, nc, cfg, hidden)
                    {
                        if cfg.invariants.is_enabled() {
                            cfg.invariants.check_estimate(
                                pid,
                                Self::estimated_coverage(map, pid, hidden),
                                map.coverage(pid),
                            );
                        }
                        claimed_empty.push(nc);
                        decisions.push((nc, leader, pid, b));
                        break;
                    }
                }
            }

            // Stall rescue: deficient points exist but no populated cell is
            // adjacent to them. The paper waves this away ("if an entire
            // cell is empty, we can use a regular positioning of sensors");
            // we model a base-station dispatch seeding the nearest such
            // cell from the nearest populated cell (or out-of-band when no
            // cell is populated at all).
            if decisions.is_empty() {
                if map.count_below(cfg.k) == 0 {
                    if rounds.idle(map, &mut cells) {
                        continue;
                    }
                    break;
                }
                // Base-station dispatch plans from ground truth (no ledger).
                let deficient_cell = (0..cells.len()).find(|&ci| {
                    Self::cell_best(&mut engine, shard_of_cell, map, &cells, ci, cfg, None)
                        .is_some()
                });
                let Some(target) = deficient_cell else { break };
                let (pid, b) =
                    Self::cell_best(&mut engine, shard_of_cell, map, &cells, target, cfg, None)
                        .unwrap();
                let seeder = (0..cells.len())
                    .filter(|&ci| !cells.members[ci].is_empty())
                    .min_by(|&a, &b| {
                        let da = cells.center(a).dist(cells.center(target));
                        let db = cells.center(b).dist(cells.center(target));
                        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
                    });
                match seeder {
                    Some(ci) => {
                        let leader = rotation_leader_in(&cells.members[ci], round, elect).unwrap();
                        decisions.push((target, leader, pid, b));
                    }
                    None => {
                        // No sensors anywhere: bootstrap one out-of-band.
                        let pos = map.points()[pid];
                        let (_, nid) = rounds.place(map, None, pos, b, target as u64);
                        if let Some(e) = engine.as_mut() {
                            e.on_sensor_added(map, pos, cfg.rs);
                        }
                        cells.join(nid, pos);
                        rounds.close_round(map);
                        continue;
                    }
                }
            }

            // Apply all placements simultaneously, then send notices.
            for &(ci, leader, pid, benefit) in decisions.iter() {
                if !rounds.has_budget() {
                    break;
                }
                let pos = map.points()[pid];
                let (new_sid, nid) = rounds.place(map, Some(leader), pos, benefit, ci as u64);
                if let Some(e) = engine.as_mut() {
                    e.on_sensor_added(map, pos, cfg.rs);
                }
                cells.join(nid, pos);
                // Placement notice to every neighboring cell whose area the
                // new disk overlaps and that currently has a leader.
                let disk = decor_geom::Disk::new(pos, cfg.rs);
                cells.neighbors_into(ci, neigh);
                for &nc in neigh.iter() {
                    if cells.members[nc].is_empty() || !disk.intersects_aabb(&cells.rect(nc)) {
                        continue;
                    }
                    let nb_leader = rotation_leader_in(&cells.members[nc], round, elect).unwrap();
                    rounds.notify(leader, nb_leader, pos, nc, new_sid);
                }
            }
            if !rounds.end_round(map, &mut cells) {
                break;
            }
        }

        let populated = cells.members.iter().filter(|m| !m.is_empty()).count();
        let total_members: usize = cells.members.iter().map(Vec::len).sum();
        *cells_pool = Some(cells);
        rounds.finish(map, populated.max(1), total_members.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_lds::{halton_points, random_points};

    fn setup(k: u32, n_pts: usize, initial: usize, seed: u64) -> (CoverageMap, DeploymentConfig) {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(k);
        let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
        for p in random_points(initial, &field, seed) {
            map.add_sensor(p, cfg.rs);
        }
        (map, cfg)
    }

    #[test]
    fn reaches_full_coverage_small_cell() {
        let (mut map, cfg) = setup(1, 500, 50, 1);
        let out = GridDecor { cell_size: 5.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered, "uncovered: {}", map.count_below(1));
        assert_eq!(map.count_below(1), 0);
        assert!(out.rounds > 0);
    }

    #[test]
    fn reaches_full_coverage_big_cell_k2() {
        let (mut map, cfg) = setup(2, 500, 50, 2);
        let out = GridDecor { cell_size: 10.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert!(map.min_coverage() >= 2);
    }

    #[test]
    fn bootstraps_from_empty_network() {
        let (mut map, cfg) = setup(1, 300, 0, 3);
        let out = GridDecor { cell_size: 10.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert!(!out.placed.is_empty());
    }

    #[test]
    fn places_nothing_when_already_covered() {
        let (mut map, cfg) = setup(1, 300, 0, 4);
        map.add_sensor(Point::new(50.0, 50.0), 200.0);
        let out = GridDecor { cell_size: 5.0 }.place(&mut map, &cfg);
        assert!(out.placed.is_empty());
        assert!(out.fully_covered);
    }

    #[test]
    fn uses_more_nodes_than_centralized() {
        use crate::centralized::CentralizedGreedy;
        let (mut m1, cfg) = setup(2, 800, 100, 5);
        let central = CentralizedGreedy.place(&mut m1, &cfg).placed.len();
        let (mut m2, _) = setup(2, 800, 100, 5);
        let grid = GridDecor { cell_size: 5.0 }
            .place(&mut m2, &cfg)
            .placed
            .len();
        assert!(
            grid as f64 >= central as f64,
            "grid {grid} vs centralized {central}"
        );
        assert!(
            (grid as f64) < 3.0 * central as f64,
            "grid {grid} should stay within 3x of centralized {central}"
        );
    }

    #[test]
    fn sends_placement_notices() {
        let (mut map, cfg) = setup(2, 500, 100, 6);
        let out = GridDecor { cell_size: 5.0 }.place(&mut map, &cfg);
        assert!(out.messages.protocol_total > 0);
        assert!(out.messages.per_cell > 0.0);
        assert!(out.messages.per_node_rotated <= out.messages.per_cell);
    }

    #[test]
    fn bigger_cells_send_more_messages_per_cell() {
        // Fig. 10: "the bigger the cell size, the more the messages that
        // need to be sent by a leader".
        let (mut m1, cfg) = setup(3, 800, 100, 7);
        let small = GridDecor { cell_size: 5.0 }.place(&mut m1, &cfg).messages;
        let (mut m2, _) = setup(3, 800, 100, 7);
        let big = GridDecor { cell_size: 10.0 }.place(&mut m2, &cfg).messages;
        assert!(
            big.per_cell > small.per_cell,
            "big {} vs small {}",
            big.per_cell,
            small.per_cell
        );
    }

    #[test]
    fn trace_is_monotone_in_coverage() {
        let (mut map, cfg) = setup(1, 400, 30, 8);
        let out = GridDecor { cell_size: 5.0 }.place(&mut map, &cfg);
        for w in out.trace.windows(2) {
            assert!(w[1].fraction_k_covered >= w[0].fraction_k_covered - 1e-12);
        }
        assert_eq!(out.trace.last().unwrap().fraction_k_covered, 1.0);
    }

    #[test]
    fn respects_max_new_nodes() {
        let cfg = DeploymentConfig {
            max_new_nodes: 7,
            ..DeploymentConfig::with_k(3)
        };
        let field = Aabb::square(100.0);
        let mut map = CoverageMap::new(halton_points(400, &field), &field, &cfg);
        let out = GridDecor { cell_size: 5.0 }.place(&mut map, &cfg);
        assert!(out.placed.len() <= 7);
        assert!(!out.fully_covered);
    }

    /// Runs `placer` on a copy of `map` twice: once with the invariant
    /// checker on, so every per-cell best the sharded engine serves is
    /// cross-checked against the direct scan (invariant 5), and once with
    /// an empty fault plan, which selects the direct scan. The two runs
    /// must agree bit for bit: same placements, rounds and messages.
    fn assert_engine_matches_direct_scan(
        placer: GridDecor,
        map: &CoverageMap,
        cfg: &DeploymentConfig,
    ) {
        use crate::invariants::InvariantChecker;
        use decor_net::FaultPlan;
        let checked = DeploymentConfig {
            invariants: InvariantChecker::enabled(),
            ..cfg.clone()
        };
        let direct = DeploymentConfig {
            chaos: Some(FaultPlan::empty()),
            ..cfg.clone()
        };
        let (mut m_engine, mut m_direct) = (map.clone(), map.clone());
        let a = placer.place(&mut m_engine, &checked);
        let b = placer.place(&mut m_direct, &direct);
        checked.invariants.assert_green();
        assert_eq!(a.placed, b.placed, "cell={}", placer.cell_size);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.fully_covered, b.fully_covered);
        assert_eq!(a.messages, b.messages);
        m_engine.verify_consistency();
    }

    #[test]
    fn engine_path_matches_direct_scan_path() {
        for (k, initial, cell) in [(1u32, 0usize, 5.0), (2, 50, 5.0), (3, 80, 10.0)] {
            let (map, cfg) = setup(k, 600, initial, 11);
            assert_engine_matches_direct_scan(GridDecor { cell_size: cell }, &map, &cfg);
        }
    }

    #[test]
    fn restoration_engine_path_matches_direct_scan_path() {
        // Restoration shape: a pre-covered field with a damage hole. The
        // engine path builds shards only over the hole's cells; the
        // direct path scans everything. Placements must stay identical.
        let cfg = DeploymentConfig::with_k(2);
        let field = Aabb::square(100.0);
        let mut map = CoverageMap::new(halton_points(800, &field), &field, &cfg);
        let mut ids = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                ids.push(map.add_sensor(
                    Point::new(2.5 + 5.0 * i as f64, 2.5 + 5.0 * j as f64),
                    cfg.rs,
                ));
            }
        }
        let hole = Point::new(35.0, 65.0);
        for &id in &ids {
            if map.sensor_pos(id).dist(hole) <= 15.0 {
                map.deactivate_sensor(id);
            }
        }
        assert!(map.count_below(cfg.k) > 0);
        assert_engine_matches_direct_scan(GridDecor { cell_size: 5.0 }, &map, &cfg);
    }

    #[test]
    fn zero_loss_notices_need_no_retries() {
        // On a loss-free medium every notice lands on its first attempt
        // and is acked once: no retries and no give-ups. The protocol
        // plane is one data frame plus one ack per notice, plus one
        // multi-hop frame per notice an adopting leader sends beyond its
        // radio range.
        for (k, initial, cell) in [(1u32, 30usize, 5.0), (2, 60, 10.0)] {
            let (mut map, cfg) = setup(k, 500, initial, 15);
            let m = GridDecor { cell_size: cell }.place(&mut map, &cfg).messages;
            assert_eq!(m.retries, 0, "k={k} cell={cell}");
            assert_eq!(m.notices_gave_up, 0);
            assert_eq!(m.duplicates_suppressed, 0);
            assert!(m.acks > 0);
            assert!(m.protocol_total >= 2 * m.acks);
        }
    }

    #[test]
    fn converges_under_heavy_loss() {
        // At 10% and 30% loss the transport keeps the grid convergent:
        // full k-coverage, retry traffic growing with the loss rate, and
        // blind-spot duplicate placements bounded.
        let (mut m_ref, cfg0) = setup(2, 500, 60, 21);
        let baseline = GridDecor { cell_size: 5.0 }
            .place(&mut m_ref, &cfg0)
            .placed
            .len();
        let mut prev_retries = 0;
        for loss in [0.1, 0.3] {
            let (mut map, mut cfg) = setup(2, 500, 60, 21);
            cfg.link = crate::LinkConfig::lossy(loss, 29);
            let out = GridDecor { cell_size: 5.0 }.place(&mut map, &cfg);
            assert!(out.fully_covered, "loss={loss} left deficient points");
            assert!(map.min_coverage() >= 2);
            assert!(out.messages.retries > prev_retries, "loss={loss}");
            assert!(out.messages.acks > 0);
            assert!(
                out.placed.len() <= baseline + baseline / 2 + 5,
                "loss={loss}: {} placed vs {baseline} baseline",
                out.placed.len()
            );
            prev_retries = out.messages.retries;
        }
    }

    #[test]
    fn chaos_crashes_recover_to_full_coverage() {
        use crate::invariants::InvariantChecker;
        use decor_net::FaultPlan;
        let (mut map, mut cfg) = setup(2, 500, 60, 31);
        cfg.chaos = Some(FaultPlan::parse("0 crash 3\n2 crash 17\n40 crash 8\n").unwrap());
        cfg.invariants = InvariantChecker::enabled();
        let out = GridDecor { cell_size: 5.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered, "uncovered: {}", map.count_below(2));
        assert!(map.min_coverage() >= 2);
        assert_eq!(cfg.invariants.dead(), vec![3, 8, 17]);
        cfg.invariants.assert_green();
    }

    #[test]
    fn chaos_partition_and_blackhole_still_converge() {
        use crate::invariants::InvariantChecker;
        use decor_net::FaultPlan;
        let plan = "0 partition 0 1 2 3 4 5 6 7 8 9\n\
                    1 blackhole 10 11\n\
                    5 crash 12\n\
                    200 heal\n\
                    200 unblackhole 10 11\n";
        let (mut map, mut cfg) = setup(2, 500, 60, 33);
        cfg.chaos = Some(FaultPlan::parse(plan).unwrap());
        cfg.invariants = InvariantChecker::enabled();
        let out = GridDecor { cell_size: 5.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        cfg.invariants.assert_green();
    }

    #[test]
    fn empty_chaos_plan_changes_nothing() {
        use decor_net::FaultPlan;
        let (mut m_chaos, mut cfg_chaos) = setup(2, 500, 60, 35);
        let mut m_plain = m_chaos.clone();
        let cfg_plain = cfg_chaos.clone();
        cfg_chaos.chaos = Some(FaultPlan::empty());
        cfg_chaos.invariants = crate::invariants::InvariantChecker::enabled();
        let a = GridDecor { cell_size: 5.0 }.place(&mut m_chaos, &cfg_chaos);
        let b = GridDecor { cell_size: 5.0 }.place(&mut m_plain, &cfg_plain);
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages.protocol_total, b.messages.protocol_total);
        cfg_chaos.invariants.assert_green();
    }

    #[test]
    fn chaos_requires_no_minimum_population() {
        // Crash every initial sensor: the stall rescue must rebuild from
        // nothing once the massacre ends.
        use crate::invariants::InvariantChecker;
        use decor_net::{FaultEvent, FaultKind, FaultPlan};
        let (mut map, mut cfg) = setup(1, 300, 4, 37);
        let events = (0..4)
            .map(|n| FaultEvent {
                at: 0,
                kind: FaultKind::Crash { node: n },
            })
            .collect();
        cfg.chaos = Some(FaultPlan::new(events));
        cfg.invariants = InvariantChecker::enabled();
        let out = GridDecor { cell_size: 10.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert_eq!(cfg.invariants.dead().len(), 4);
        cfg.invariants.assert_green();
    }

    #[test]
    fn cells_partition_points_exactly() {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::default();
        let map = CoverageMap::new(halton_points(700, &field), &field, &cfg);
        let cells = Cells::new(&field, 5.0, &map);
        assert_eq!(cells.len(), 400);
        let total: usize = cells.points.iter().map(Vec::len).sum();
        assert_eq!(total, 700);
        // Every point is in the cell its coordinates say.
        for ci in 0..cells.len() {
            let rect = cells.rect(ci);
            for &pid in &cells.points[ci] {
                assert!(rect.contains(map.points()[pid]));
            }
        }
    }

    #[test]
    fn neighbor_counts_are_correct() {
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::default();
        let map = CoverageMap::new(halton_points(100, &field), &field, &cfg);
        let cells = Cells::new(&field, 10.0, &map); // 10x10 cells
        assert_eq!(cells.neighbors(0).len(), 3); // corner
        assert_eq!(cells.neighbors(5).len(), 5); // edge
        assert_eq!(cells.neighbors(55).len(), 8); // interior
    }
}
