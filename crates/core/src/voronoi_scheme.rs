//! Voronoi-based DECOR (§3.1–3.3, Definition 1).
//!
//! Every sensor node is its own cell: it *owns* the approximation points
//! within its communication radius `rc` that are at least as close to it
//! as to any 1-hop neighbor it knows about. Each round, a node estimates
//! the coverage of its owned points **from local knowledge only** — it can
//! count just the sensors within `rc` of itself — and, if any owned point
//! looks under-covered, places one new sensor at the owned point of
//! maximum (locally-estimated) benefit. New sensors become nodes with
//! cells of their own, which is how coverage creeps into large uncovered
//! regions ("new cells are created by new nodes during the recovery
//! process").
//!
//! The knowledge limit is the scheme's cost model: a sensor farther than
//! `rc` from the node may still cover one of its points (it only needs to
//! be within `rs` of the *point*), and the node, blind to it, will place a
//! redundant sensor. Growing `rc` shrinks that blind annulus — exactly the
//! Fig. 9 effect where the big-`rc` variant places far fewer redundant
//! nodes. Simultaneous decisions by mutually-invisible nodes add border
//! redundancy on top.
//!
//! Messages (Fig. 10): upon placing, a node unicasts a placement notice to
//! each of its 1-hop neighbors, so per-placement traffic grows with the
//! neighborhood size, i.e. with `rc` — the paper's "analogous to the
//! communication radius" observation.
//!
//! On a lossy medium (`cfg.link.loss_rate > 0`) notices ride the reliable
//! transport (`decor_net::transport`): acks, bounded retries, duplicate
//! suppression. A notice whose retry budget runs out leaves the intended
//! recipient blind to the new sensor ([`crate::NeighborKnowledge`]) — it
//! may then place a redundant border sensor, which is exactly the paper's
//! desynchronization failure mode, bounded here by the transport instead
//! of silent.

use crate::config::DeploymentConfig;
use crate::coverage::{CoverageMap, SensorId};
use crate::knowledge::NeighborKnowledge;
use crate::metrics::PlacementOutcome;
use crate::rounds::{Rounds, World};
use crate::scratch::SimScratch;
use crate::Placer;
use decor_net::NodeId;
use std::collections::BTreeSet;

#[cfg(test)]
#[path = "../tests/oracle/voronoi_owners.rs"]
mod voronoi_owners;

/// Edge of an ownership tile in index buckets. A round's dirty points are
/// evaluated one tile at a time, against one gather of the sensors near
/// the tile (DESIGN.md §17).
const OWNER_TILE_BUCKETS: f64 = 2.0;

/// Relative slack that keeps the tile gather and the kernel's distance
/// shortcuts clear of their exact bounds: the gather radius grows by this
/// fraction, and each shortcut radius shrinks by this fraction of `rc`.
/// It is many orders of magnitude above the rounding error of a squared
/// distance.
const MARGIN: f64 = 1e-9;

/// Voronoi-based DECOR. `rc` overrides the config's communication radius
/// (the paper evaluates `rc = 8` and `rc = 10·√2 ≈ 14.14`).
#[derive(Clone, Copy, Debug)]
pub struct VoronoiDecor {
    /// Communication radius defining both the knowledge horizon and the
    /// local Voronoi cells.
    pub rc: f64,
}

/// The squared radii one ownership pass compares distances against.
#[derive(Clone, Copy, Debug)]
struct Radii {
    rc: f64,
    rc_sq: f64,
    /// `(rc − max_rs − MARGIN·rc)²`, or −1 when that radius is negative.
    /// A viewer with no hidden set this close to a point is within `rc`
    /// of every sensor covering it, so its estimate is `coverage(p)`.
    sees_all_sq: f64,
    /// `(rc/2 − MARGIN·rc)²`. A candidate this close to a point is within
    /// `rc` of every candidate closer to the point.
    blocked_sq: f64,
}

impl Radii {
    fn new(rc: f64, max_rs: f64) -> Self {
        let sees_all = rc - max_rs - MARGIN * rc;
        let half = rc / 2.0 - MARGIN * rc;
        Radii {
            rc,
            rc_sq: rc * rc,
            sees_all_sq: if sees_all > 0.0 {
                sees_all * sees_all
            } else {
                -1.0
            },
            blocked_sq: half * half,
        }
    }
}

impl VoronoiDecor {
    /// Coverage of point `p` as estimated by the agent at `viewer`:
    /// the number of *known* sensors (within `rc` of the viewer, minus any
    /// in `hidden` — sensors whose placement notice never reached this
    /// viewer) covering `p`. `coverers` are the true coverers of `p`
    /// (id, position).
    fn estimate(
        viewer: decor_geom::Point,
        coverers: &[(usize, decor_geom::Point)],
        rc: f64,
        hidden: Option<&BTreeSet<usize>>,
    ) -> u32 {
        let rc_sq = rc * rc;
        coverers
            .iter()
            .filter(|&&(cid, cpos)| {
                viewer.dist_sq(cpos) <= rc_sq && hidden.is_none_or(|h| !h.contains(&cid))
            })
            .count() as u32
    }

    /// Fills `s.near` with every active sensor within `reach` of
    /// `center`, with its squared sensing radius.
    fn gather(map: &CoverageMap, center: decor_geom::Point, reach: f64, s: &mut OwnersScratch) {
        let near = &mut s.near;
        near.clear();
        map.for_each_sensor_within(center, reach, |sid, spos| {
            let rs = map.sensor_rs(sid);
            near.push((sid, spos, rs * rs));
        });
    }

    /// The agents that own point `pid` under their local Voronoi view *and*
    /// believe it under-covered, ascending by `(distance², id)`. This is
    /// the per-point body of the decision phase; its result depends only
    /// on the sensors within `rc` of the point (candidate owners are
    /// within `rc`, and a coverer is within `rs <= rc`), which is what lets
    /// rounds cache it per point and invalidate just the `rc`-disk of each
    /// new placement.
    ///
    /// `s.near` must hold every active sensor within `max(rc, max_rs)` of
    /// the point ([`VoronoiDecor::gather`]); the candidates and coverers
    /// are picked from it with the index's own `dist² <= r²` tests.
    fn point_owners_into(
        map: &CoverageMap,
        pid: usize,
        radii: Radii,
        k: u32,
        knowledge: &NeighborKnowledge,
        s: &mut OwnersScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let OwnersScratch {
            near,
            cands,
            coverers,
            owners,
            ..
        } = s;
        let p = map.points()[pid];
        let coverage = map.coverage(pid);
        // An estimate counts some of the `coverage(p)` sensors covering
        // p, so below k every candidate believes p under-covered and no
        // coverer list is needed.
        let estimates = coverage >= k;
        cands.clear();
        coverers.clear();
        let mut closest: Option<(f64, usize, decor_geom::Point)> = None;
        for &(sid, spos, rs_sq) in near.iter() {
            let d = p.dist_sq(spos);
            if d <= radii.rc_sq {
                if closest.is_none_or(|(cd, cid, _)| d < cd || (d == cd && sid < cid)) {
                    closest = Some((d, sid, spos));
                }
                cands.push((d, sid, spos));
            }
            if estimates && d <= rs_sq {
                coverers.push((sid, spos));
            }
        }
        let Some((_, first, first_pos)) = closest else {
            return; // unreachable this round; fringe grows later
        };
        debug_assert!(!estimates || coverers.len() == coverage as usize);
        owners.clear();
        for &(d, sid, spos) in cands.iter() {
            let hidden = knowledge.hidden_from(sid);
            if estimates {
                let est = if hidden.is_none() && d <= radii.sees_all_sq {
                    coverage
                } else {
                    Self::estimate(spos, coverers, radii.rc, hidden)
                };
                if est >= k {
                    continue; // this agent believes p is fine
                }
            }
            // Local ownership: no agent closer to p (by distance², then
            // id) is a 1-hop neighbor of this one. An agent it never
            // learned about cannot defer it. The closest candidate blocks
            // most agents, so it is tried before the full scan.
            if sid != first {
                let knows = |cid: usize| hidden.is_none_or(|h| !h.contains(&cid));
                let blocked = (hidden.is_none() && d <= radii.blocked_sq)
                    || (spos.dist_sq(first_pos) <= radii.rc_sq && knows(first))
                    || cands.iter().any(|&(cd, cid, cpos)| {
                        (cd < d || (cd == d && cid < sid))
                            && spos.dist_sq(cpos) <= radii.rc_sq
                            && knows(cid)
                    });
                if blocked {
                    continue;
                }
            }
            owners.push((d, sid));
        }
        owners.sort_unstable_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        out.extend(owners.iter().map(|&(_, sid)| sid));
    }

    /// [`VoronoiDecor::point_owners_into`] for one point on a gather of
    /// its own: the fresh evaluation invariant 5 holds the cache to.
    fn fresh_owners_into(
        map: &CoverageMap,
        pid: usize,
        rc: f64,
        k: u32,
        knowledge: &NeighborKnowledge,
        s: &mut OwnersScratch,
        out: &mut Vec<usize>,
    ) {
        let max_rs = map.max_active_rs();
        let reach = rc.max(max_rs) * (1.0 + MARGIN);
        Self::gather(map, map.points()[pid], reach, s);
        Self::point_owners_into(map, pid, Radii::new(rc, max_rs), k, knowledge, s, out);
    }

    /// Locally-estimated benefit of agent `viewer` placing at `c`:
    /// Equation 1 restricted to the points the agent knows (within `rc` of
    /// itself), with coverage replaced by the agent's estimate.
    fn est_benefit(
        map: &CoverageMap,
        viewer: decor_geom::Point,
        c: decor_geom::Point,
        cfg: &DeploymentConfig,
        radii: Radii,
        hidden: Option<&BTreeSet<usize>>,
    ) -> u64 {
        let mut b = 0u64;
        // Streamed, allocation-free form of the old collect-and-estimate
        // loop: the benefit is an order-independent integer sum, and the
        // per-point estimate counts known coverers exactly as
        // [`Self::estimate`] does over the collected slice.
        map.for_each_point_within_unordered(c, cfg.rs, |ppid, ppos| {
            let d = viewer.dist_sq(ppos);
            if d <= radii.rc_sq {
                // A viewer that sees every coverer of the point estimates
                // its coverage exactly; a zero-coverage point has no
                // coverers to see, whatever the viewer knows.
                let coverage = map.coverage(ppid);
                let est = if coverage == 0 || (hidden.is_none() && d <= radii.sees_all_sq) {
                    coverage
                } else {
                    let mut est = 0u32;
                    map.for_each_sensor_covering(ppos, |sid, spos| {
                        if viewer.dist_sq(spos) <= radii.rc_sq
                            && hidden.is_none_or(|h| !h.contains(&sid))
                        {
                            est += 1;
                        }
                    });
                    est
                };
                if est < cfg.k {
                    b += (cfg.k - est) as u64;
                }
            }
        });
        b
    }
}

/// Reusable buffers of the ownership pass, so it allocates nothing per
/// tile or per point.
#[derive(Default)]
struct OwnersScratch {
    /// The round's dirty points as `tile << 32 | pid` keys, sorted so
    /// that each tile's points are contiguous.
    batch: Vec<u64>,
    /// The gather: `(sid, position, rs²)` of every active sensor the
    /// current tile's points can see.
    near: Vec<(usize, decor_geom::Point, f64)>,
    /// One point's candidate owners: `(distance², sid, position)`.
    cands: Vec<(f64, usize, decor_geom::Point)>,
    /// One point's coverers: `(sid, position)`.
    coverers: Vec<(usize, decor_geom::Point)>,
    /// One point's owners as `(distance², sid)`, sorted before output.
    owners: Vec<(f64, usize)>,
}

/// The square tiles a round's dirty points are batched by: edge
/// [`OWNER_TILE_BUCKETS`] index buckets, anchored at the field's corner.
#[derive(Debug)]
struct OwnerTiles {
    origin: decor_geom::Point,
    edge: f64,
    cols: usize,
    rows: usize,
}

impl OwnerTiles {
    fn new(map: &CoverageMap) -> Self {
        let field = map.field();
        let edge = OWNER_TILE_BUCKETS * map.bucket_edge();
        OwnerTiles {
            origin: field.min,
            edge,
            cols: (field.width() / edge).ceil().max(1.0) as usize,
            rows: (field.height() / edge).ceil().max(1.0) as usize,
        }
    }

    /// The tile holding `p` (clamped to the grid, so a point on the
    /// field's far edge joins the last tile, whose closure holds it).
    fn tile_of(&self, p: decor_geom::Point) -> usize {
        let tx = (((p.x - self.origin.x) / self.edge).floor().max(0.0) as usize).min(self.cols - 1);
        let ty = (((p.y - self.origin.y) / self.edge).floor().max(0.0) as usize).min(self.rows - 1);
        ty * self.cols + tx
    }

    fn center(&self, tile: usize) -> decor_geom::Point {
        let (tx, ty) = (tile % self.cols, tile / self.cols);
        decor_geom::Point::new(
            self.origin.x + (tx as f64 + 0.5) * self.edge,
            self.origin.y + (ty as f64 + 0.5) * self.edge,
        )
    }

    fn half_diagonal(&self) -> f64 {
        self.edge * std::f64::consts::FRAC_1_SQRT_2
    }
}

/// The per-point ownership cache: `owners[pid]` is the last
/// [`VoronoiDecor::point_owners_into`] result for point `pid`. An entry
/// goes stale when a sensor lands within `rc` of the point or a crash
/// retires one within `max(rc, rs)` of it (see its [`World`] impl); ledger
/// writes need no hook of their own (DESIGN.md §17). Stale points wait on
/// the `dirty` worklist, so a round's recompute cost is proportional to
/// the disturbed area, not the field.
#[derive(Default)]
struct OwnerCache {
    /// The run's communication radius.
    rc: f64,
    /// Cached owners per point; the inner vecs are recycled in place.
    owners: Vec<Vec<usize>>,
    /// Dedup guard of `dirty` (`true` = awaiting a recompute).
    stale: Vec<bool>,
    /// Worklist of point ids awaiting a recompute.
    dirty: Vec<usize>,
    /// Dense "point has at least one owner" flags — what the decision
    /// phase iterates. An ascending-pid scan over this reproduces the
    /// retired `BTreeSet<usize>`'s iteration order exactly.
    active: Vec<bool>,
}

impl OwnerCache {
    /// Marks all `n_points` entries stale for a run at radius `rc`,
    /// keeping the allocations.
    fn reset(&mut self, n_points: usize, rc: f64) {
        self.rc = rc;
        for o in self.owners.iter_mut() {
            o.clear();
        }
        self.owners.resize_with(n_points, Vec::new);
        self.stale.clear();
        self.stale.resize(n_points, true);
        self.dirty.clear();
        self.dirty.extend(0..n_points);
        self.active.clear();
        self.active.resize(n_points, false);
    }

    /// Marks every point within `radius` of `center` stale.
    fn invalidate(&mut self, map: &CoverageMap, center: decor_geom::Point, radius: f64) {
        map.for_each_point_within_unordered(center, radius, |pid, _| {
            if !self.stale[pid] {
                self.stale[pid] = true;
                self.dirty.push(pid);
            }
        });
    }

    /// Recomputes every stale entry, one tile of dirty points at a time:
    /// one gather of the sensors within `max(rc, max_rs)` plus the tile's
    /// half-diagonal serves all of the tile's points.
    fn refresh(
        &mut self,
        map: &CoverageMap,
        k: u32,
        knowledge: &NeighborKnowledge,
        s: &mut OwnersScratch,
    ) {
        let tiles = OwnerTiles::new(map);
        s.batch.clear();
        for pid in self.dirty.drain(..) {
            if self.stale[pid] {
                let tile = tiles.tile_of(map.points()[pid]) as u64;
                s.batch.push((tile << 32) | pid as u64);
            }
        }
        s.batch.sort_unstable();
        let max_rs = map.max_active_rs();
        let radii = Radii::new(self.rc, max_rs);
        let reach = (self.rc.max(max_rs) + tiles.half_diagonal()) * (1.0 + MARGIN);
        let mut i = 0;
        while i < s.batch.len() {
            let tile = s.batch[i] >> 32;
            VoronoiDecor::gather(map, tiles.center(tile as usize), reach, s);
            while i < s.batch.len() && s.batch[i] >> 32 == tile {
                let pid = (s.batch[i] & u32::MAX as u64) as usize;
                let out = &mut self.owners[pid];
                VoronoiDecor::point_owners_into(map, pid, radii, k, knowledge, s, out);
                self.stale[pid] = false;
                self.active[pid] = !out.is_empty();
                i += 1;
            }
        }
    }
}

/// Voronoi-scheme run/round buffers, pooled in [`SimScratch`] so warm
/// fleet runs reuse last run's capacity. Everything is cleared or
/// rebuilt at run start (or per round) before any read, so contents
/// never leak between runs — the pool-poisoning proptests pin this.
#[derive(Default)]
pub(crate) struct VoronoiScratch {
    /// The per-point ownership cache.
    cache: OwnerCache,
    /// Per-round `(agent sid, owned deficient pid)` pairs; pushed in
    /// ascending-pid order and sorted, replacing the old per-round
    /// `BTreeMap<usize, Vec<usize>>` grouping (same order: ascending
    /// sid, then ascending pid, and the pairs are unique).
    owned: Vec<(usize, usize)>,
    /// Per-round `(agent sid, point id, estimated benefit)` decisions.
    decisions: Vec<(usize, usize, u64)>,
    /// Batch, gather and per-point buffers of the ownership pass.
    owners_scratch: OwnersScratch,
    /// Neighbor-list buffer for placement notices.
    nbs_buf: Vec<NodeId>,
    /// Dense sid → node id map (`usize::MAX` = sensor has no node, i.e.
    /// it was inactive when the run started).
    net_of: Vec<NodeId>,
    /// Stall-rescue deficient-point buffer.
    deficient: Vec<usize>,
}

/// A crashed agent neither covers nor owns points (map queries only visit
/// active sensors), so the cache drops every entry the sensor could have
/// shaped: the points within `rc` of it, where it was a candidate owner,
/// and within its own sensing radius, where it was a coverer. Initial
/// sensors may sense wider than `rc`, so the disk has radius `max(rc, rs)`.
impl World for OwnerCache {
    fn retire(&mut self, map: &CoverageMap, _: NodeId, sid: SensorId) {
        self.invalidate(map, map.sensor_pos(sid), self.rc.max(map.sensor_rs(sid)));
    }
}

impl Placer for VoronoiDecor {
    fn name(&self) -> String {
        format!("Voronoi (rc={:.1})", self.rc)
    }

    fn place(&self, map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
        self.place_in(map, cfg, &mut SimScratch::new())
    }

    /// The one production path: placement notices ride the reliable
    /// transport, and per-point ownership results are cached across
    /// rounds, with only the points a round disturbed recomputed — under
    /// loss and chaos too.
    fn place_in(
        &self,
        map: &mut CoverageMap,
        cfg: &DeploymentConfig,
        pool: &mut SimScratch,
    ) -> PlacementOutcome {
        cfg.validate();
        let rc = self.rc;
        assert!(
            rc >= cfg.rs,
            "Voronoi scheme needs rc >= rs (got rc={rc}, rs={})",
            cfg.rs
        );
        // Pooled round-loop buffers, destructured into disjoint `&mut`s so
        // the borrow checker accepts simultaneous use across the loop.
        let SimScratch {
            net,
            transport,
            rounds: round_pool,
            voro:
                VoronoiScratch {
                    cache,
                    owned,
                    decisions,
                    owners_scratch,
                    nbs_buf,
                    net_of,
                    deficient,
                },
            ..
        } = pool;
        // Ledger rows are sensor ids: each agent keeps its own.
        let mut rounds = Rounds::start("voronoi", rc, map, cfg, net, transport, round_pool);
        // Both id spaces are insertion-dense (`add_sensor`/`add_node`
        // hand out sequential ids), so plain vecs replace the old
        // `BTreeMap` sid↔nid maps. Sensors inactive at run start (failed
        // before restoration) get no node; the sentinel is never read
        // because dead agents neither own points nor place.
        net_of.clear();
        net_of.resize(map.n_sensors(), usize::MAX);
        for (nid, &sid) in rounds.sid_of().iter().enumerate() {
            net_of[sid] = nid;
        }

        let rc_sq = rc * rc;
        cache.reset(map.n_points(), rc);
        while rounds.begin(map, cache).is_some() {
            // ---- Decision phase (coverage snapshot at round start) ----
            // For every point, find the agents that (a) believe it is
            // under-covered and (b) own it under their local view.
            cache.refresh(map, cfg.k, &rounds.knowledge, owners_scratch);
            // Invariant 5: every cached entry equals a fresh single-point
            // evaluation. That is the full per-round recompute the cache
            // avoids, so debug builds only.
            if cfg!(debug_assertions) && cfg.invariants.is_enabled() {
                let mut fresh = Vec::new();
                for (pid, cached) in cache.owners.iter().enumerate() {
                    Self::fresh_owners_into(
                        map,
                        pid,
                        rc,
                        cfg.k,
                        &rounds.knowledge,
                        owners_scratch,
                        &mut fresh,
                    );
                    cfg.invariants
                        .check_cache("voronoi owners of point", pid, cached, &fresh);
                }
            }
            // The ascending-pid scan over `active` visits points in the
            // same order the old full sweep pushed pids — so each agent's
            // owned list is byte-identical to the sweep's. The sort then
            // groups by agent: `(sid, pid)` pairs are unique and were
            // pushed in ascending-pid order, so the unstable sort yields
            // exactly the old `BTreeMap`'s (ascending sid, ascending pid)
            // iteration.
            owned.clear();
            for (pid, &has_owner) in cache.active.iter().enumerate() {
                if has_owner {
                    for &sid in &cache.owners[pid] {
                        owned.push((sid, pid));
                    }
                }
            }
            owned.sort_unstable();

            // Each acting agent picks its best owned deficient point.
            // (agent sid, point id, locally-estimated benefit)
            decisions.clear();
            let radii = Radii::new(rc, map.max_active_rs());
            let mut gi = 0;
            while gi < owned.len() {
                let sid = owned[gi].0;
                let mut gj = gi;
                while gj < owned.len() && owned[gj].0 == sid {
                    gj += 1;
                }
                let viewer = map.sensor_pos(sid);
                let hidden = rounds.knowledge.hidden_from(sid);
                let mut best: Option<(usize, u64)> = None;
                for &(_, pid) in &owned[gi..gj] {
                    let b = Self::est_benefit(map, viewer, map.points()[pid], cfg, radii, hidden);
                    if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
                        best = Some((pid, b));
                    }
                }
                if let Some((pid, b)) = best {
                    if cfg.invariants.is_enabled() {
                        let mut measured = 0u32;
                        map.for_each_sensor_covering(map.points()[pid], |cid, cpos| {
                            if viewer.dist_sq(cpos) <= rc_sq
                                && hidden.is_none_or(|h| !h.contains(&cid))
                            {
                                measured += 1;
                            }
                        });
                        cfg.invariants
                            .check_estimate(pid, measured, map.coverage(pid));
                    }
                    decisions.push((sid, pid, b));
                }
                gi = gj;
            }

            // ---- Stall rescue ----
            if decisions.is_empty() {
                if map.count_below(cfg.k) == 0 {
                    if rounds.idle(map, cache) {
                        continue;
                    }
                    break;
                }
                // Deficient points exist but nobody sees or reaches them:
                // dispatch one sensor out-of-band to the deficient point
                // nearest an existing agent (or the first one when the
                // field is empty). Models the paper's bootstrap fallback.
                map.uncovered_ids_into(cfg.k, deficient);
                let target = deficient
                    .iter()
                    .copied()
                    .min_by(|&a, &b| {
                        let da = nearest_agent_dist(map, map.points()[a]);
                        let db = nearest_agent_dist(map, map.points()[b]);
                        da.partial_cmp(&db).unwrap().then(a.cmp(&b))
                    })
                    .expect("non-empty deficient set");
                let pos = map.points()[target];
                // Out-of-band dispatch: no placing agent, no local estimate.
                let (sid, nid) = rounds.place(map, None, pos, 0, u64::MAX);
                cache.invalidate(map, pos, rc);
                debug_assert_eq!(sid, net_of.len());
                net_of.push(nid);
                rounds.close_round(map);
                continue;
            }

            // ---- Apply phase ----
            for &(agent_sid, pid, benefit) in decisions.iter() {
                if !rounds.has_budget() {
                    break;
                }
                let agent = net_of[agent_sid];
                let pos = map.points()[pid];
                let (new_sid, new_nid) =
                    rounds.place(map, Some(agent), pos, benefit, agent_sid as u64);
                cache.invalidate(map, pos, rc);
                debug_assert_eq!(new_sid, net_of.len());
                net_of.push(new_nid);
                // Placement notice: one reliable send per 1-hop neighbor
                // of the placing agent (traffic grows with rc — Fig. 10).
                // The announced sensor's rc-disk is already dirty, which
                // covers every ownership a lost notice's ledger write can
                // change.
                rounds.net.neighbors_into(agent, nbs_buf);
                for &nb in nbs_buf.iter() {
                    let recipient = rounds.sid_of()[nb];
                    rounds.notify(agent, nb, pos, recipient, new_sid);
                }
            }
            if !rounds.end_round(map, cache) {
                break;
            }
        }

        let agents = map.n_active_sensors().max(1);
        rounds.finish(map, agents, agents)
    }
}

/// Distance from `q` to the nearest active sensor (infinity when none).
/// Delegates to the sensor index's ring-expanding nearest query; the
/// returned distance is `sqrt` of the minimum squared distance, identical
/// to the minimum of the old per-sensor `q.dist(spos)` scan.
fn nearest_agent_dist(map: &CoverageMap, q: decor_geom::Point) -> f64 {
    map.nearest_active_sensor(q)
        .map_or(f64::INFINITY, |(_, _, d)| d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};
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
    fn reaches_full_coverage_small_rc() {
        let (mut map, cfg) = setup(1, 500, 50, 1);
        let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered, "uncovered: {}", map.count_below(1));
    }

    #[test]
    fn reaches_full_coverage_big_rc_k2() {
        let (mut map, cfg) = setup(2, 500, 50, 2);
        let out = VoronoiDecor { rc: 14.142 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert!(map.min_coverage() >= 2);
    }

    #[test]
    fn bootstraps_from_empty_network() {
        let (mut map, cfg) = setup(1, 300, 0, 3);
        let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert!(!out.placed.is_empty());
    }

    #[test]
    fn covers_remote_disaster_region_by_expansion() {
        // All initial sensors in the left half; the scheme must creep
        // rightwards via newly placed nodes.
        let field = Aabb::square(100.0);
        let cfg = DeploymentConfig::with_k(1);
        let mut map = CoverageMap::new(halton_points(400, &field), &field, &cfg);
        for i in 0..20 {
            map.add_sensor(
                Point::new(5.0 + (i % 5) as f64 * 8.0, 10.0 + (i / 5) as f64 * 20.0),
                cfg.rs,
            );
        }
        let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        // Some placements must have reached the right half.
        assert!(out.placed.iter().any(|p| p.x > 80.0));
    }

    #[test]
    fn places_nothing_when_already_covered() {
        let (mut map, cfg) = setup(1, 300, 0, 4);
        map.add_sensor(Point::new(50.0, 50.0), 200.0);
        let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
        assert!(out.placed.is_empty());
        assert!(out.fully_covered);
    }

    #[test]
    fn bigger_rc_wastes_fewer_nodes() {
        // Fig. 8/9: more knowledge => placement closer to centralized.
        let (mut m1, cfg) = setup(2, 600, 80, 5);
        let small = VoronoiDecor { rc: 8.0 }.place(&mut m1, &cfg).placed.len();
        let (mut m2, _) = setup(2, 600, 80, 5);
        let big = VoronoiDecor { rc: 14.142 }
            .place(&mut m2, &cfg)
            .placed
            .len();
        assert!(
            big <= small,
            "big rc used {big} nodes, small rc used {small}"
        );
    }

    #[test]
    fn sends_messages_proportional_to_neighborhood() {
        let (mut m1, cfg) = setup(2, 500, 80, 6);
        let small = VoronoiDecor { rc: 8.0 }.place(&mut m1, &cfg).messages;
        let (mut m2, _) = setup(2, 500, 80, 6);
        let big = VoronoiDecor { rc: 14.142 }.place(&mut m2, &cfg).messages;
        assert!(small.protocol_total > 0);
        assert!(
            big.per_cell > small.per_cell,
            "big {} vs small {}",
            big.per_cell,
            small.per_cell
        );
    }

    #[test]
    fn cached_path_matches_recompute_all_path() {
        // With the checker on, every round cross-checks each cached
        // ownership against a fresh recomputation (invariant 5): lossless,
        // at 20% loss (ledger writes), and with crashes on top.
        use crate::invariants::InvariantChecker;
        use decor_net::FaultPlan;
        let crashes = FaultPlan::parse("0 crash 3\n2 crash 11\n9 crash 30\n40 crash 7\n").unwrap();
        for (k, initial, rc) in [(1u32, 0usize, 8.0), (2, 50, 8.0), (2, 60, 14.142)] {
            for (loss, chaos) in [(0.0, None), (0.2, None), (0.2, Some(crashes.clone()))] {
                let (mut map, mut cfg) = setup(k, 500, initial, 13);
                cfg.link = crate::LinkConfig::lossy(loss, 5);
                cfg.chaos = chaos;
                cfg.invariants = InvariantChecker::enabled();
                let out = VoronoiDecor { rc }.place(&mut map, &cfg);
                assert!(
                    out.fully_covered,
                    "k={k} initial={initial} rc={rc} loss={loss}"
                );
                cfg.invariants.assert_green();
            }
        }
    }

    #[test]
    fn zero_loss_notices_need_no_retries() {
        // On a loss-free medium every notice lands on its first attempt:
        // no retries or give-ups, and each notice costs exactly one data
        // frame plus one ack.
        for (k, initial, rc) in [(1u32, 40usize, 8.0), (2, 60, 14.142)] {
            let (mut map, cfg) = setup(k, 500, initial, 17);
            let m = VoronoiDecor { rc }.place(&mut map, &cfg).messages;
            assert_eq!(m.retries, 0, "k={k} rc={rc}");
            assert_eq!(m.notices_gave_up, 0);
            assert_eq!(m.duplicates_suppressed, 0);
            assert!(m.acks > 0);
            assert_eq!(m.protocol_total, 2 * m.acks);
        }
    }

    #[test]
    fn converges_under_heavy_loss() {
        // At 10% and 30% loss the transport keeps the placers convergent:
        // full k-coverage, retry/ack traffic visible, and the extra
        // (blind-spot) placements bounded.
        let (mut m_ref, cfg0) = setup(2, 500, 60, 19);
        let baseline = VoronoiDecor { rc: 8.0 }
            .place(&mut m_ref, &cfg0)
            .placed
            .len();
        let mut prev_retries = 0;
        for loss in [0.1, 0.3] {
            let (mut map, mut cfg) = setup(2, 500, 60, 19);
            cfg.link = crate::LinkConfig::lossy(loss, 23);
            let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
            assert!(out.fully_covered, "loss={loss} left deficient points");
            assert!(map.min_coverage() >= 2);
            assert!(out.messages.retries > prev_retries, "loss={loss}");
            assert!(out.messages.acks > 0);
            // Desynchronization may waste sensors, but boundedly so.
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
        let (mut map, mut cfg) = setup(2, 500, 60, 41);
        cfg.chaos = Some(FaultPlan::parse("0 crash 5\n3 crash 21\n50 crash 9\n").unwrap());
        cfg.invariants = InvariantChecker::enabled();
        let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered, "uncovered: {}", map.count_below(2));
        assert!(map.min_coverage() >= 2);
        assert_eq!(cfg.invariants.dead(), vec![5, 9, 21]);
        cfg.invariants.assert_green();
    }

    #[test]
    fn chaos_partition_and_latency_still_converge() {
        use crate::invariants::InvariantChecker;
        use decor_net::FaultPlan;
        let plan = "0 partition 0 1 2 3 4 5 6 7 8 9 10 11 12 13 14\n\
                    2 latency 16\n\
                    4 crash 7\n\
                    300 heal\n\
                    300 latency 0\n";
        let (mut map, mut cfg) = setup(2, 500, 60, 43);
        cfg.chaos = Some(FaultPlan::parse(plan).unwrap());
        cfg.invariants = InvariantChecker::enabled();
        let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
        assert!(out.fully_covered);
        cfg.invariants.assert_green();
    }

    #[test]
    fn empty_chaos_plan_changes_nothing() {
        use decor_net::FaultPlan;
        let (mut m_chaos, mut cfg_chaos) = setup(2, 500, 60, 45);
        let mut m_plain = m_chaos.clone();
        let cfg_plain = cfg_chaos.clone();
        cfg_chaos.chaos = Some(FaultPlan::empty());
        cfg_chaos.invariants = crate::invariants::InvariantChecker::enabled();
        let a = VoronoiDecor { rc: 8.0 }.place(&mut m_chaos, &cfg_chaos);
        let b = VoronoiDecor { rc: 8.0 }.place(&mut m_plain, &cfg_plain);
        assert_eq!(a.placed, b.placed);
        assert_eq!(a.rounds, b.rounds);
        assert_eq!(a.messages.protocol_total, b.messages.protocol_total);
        cfg_chaos.invariants.assert_green();
    }

    /// A random layout for the ownership oracle. Points and sensors sit
    /// on a lattice of step 1 or 0.5 (or anywhere), so distances of
    /// exactly `rc`, `rs`, `rc − rs` and `rc/2` and equal-distance ties
    /// occur; a few anchor points get such sensors planted around them.
    /// Radii include `rc == rs` and initial sensors wider than `rc`; some
    /// sensors are deactivated (a few of them reactivated), and some
    /// agents are blind to random sensors.
    fn owner_scenario(seed: u64) -> (CoverageMap, DeploymentConfig, f64, NeighborKnowledge) {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let rs = [4.0, 3.0, 2.5][rng.gen_range(0..3usize)];
        // rc == rs; rc == 2·rs, where rc − rs == rc/2; integer rc; the
        // paper's big rc.
        let rc = [rs, 2.0 * rs, 10.0, 8.0, 14.142][rng.gen_range(0..5usize)];
        let wide = if rng.gen_bool(0.3) { rc * 1.5 } else { rs };
        let side: f64 = [24.0, 40.0][rng.gen_range(0..2usize)];
        let step: f64 = [1.0, 0.5, 0.0][rng.gen_range(0..3usize)];
        let draw = |rng: &mut StdRng| {
            if step == 0.0 {
                Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
            } else {
                let n = (side / step) as u32;
                Point::new(
                    rng.gen_range(0..=n) as f64 * step,
                    rng.gen_range(0..=n) as f64 * step,
                )
            }
        };
        let field = Aabb::square(side);
        let cfg = DeploymentConfig {
            rs,
            rc,
            ..DeploymentConfig::with_k(rng.gen_range(1..=4u32))
        };
        let mut points: Vec<Point> = (0..rng.gen_range(20..200usize))
            .map(|_| draw(&mut rng))
            .collect();
        let mut sensors: Vec<(Point, f64)> = (0..rng.gen_range(0..50usize))
            .map(|_| {
                let r = if rng.gen_bool(0.2) { wide } else { rs };
                (draw(&mut rng), r)
            })
            .collect();
        for _ in 0..rng.gen_range(0..4usize) {
            let p = draw(&mut rng);
            points.push(p);
            let a = rng.gen_range(1..=4u32) as f64;
            let planted = [
                (rc, 0.0),         // a candidate exactly rc away
                (0.0, rs),         // a coverer exactly rs away
                (-(rc - rs), 0.0), // rc − rs away: rc − max_rs unless wide
                (0.0, -rc / 2.0),  // a candidate exactly rc/2 away
                (rc / 2.0, 0.0),   // ... and its tie
                (a, 0.0),          // four candidates at one distance
                (-a, 0.0),
                (0.0, a),
                (0.0, -a),
                (0.6 * rc, 0.8 * rc), // rc away off the axes (exact at rc = 10)
            ];
            for (dx, dy) in planted {
                if rng.gen_bool(0.7) {
                    sensors.push((Point::new(p.x + dx, p.y + dy), rs));
                }
            }
            // A point exactly rs from a sensor, and one exactly rc away.
            if let Some(&(s, _)) = sensors.last() {
                points.push(Point::new(s.x + rs, s.y));
                points.push(Point::new(s.x, s.y - rc));
            }
        }
        points.retain(|&p| field.contains(p));
        sensors.retain(|&(s, _)| field.contains(s));
        if points.is_empty() {
            points.push(Point::new(side / 2.0, side / 2.0));
        }
        let mut map = CoverageMap::new(points, &field, &cfg);
        for &(pos, r) in &sensors {
            map.add_sensor(pos, r);
        }
        for sid in 0..map.n_sensors() {
            if rng.gen_bool(0.15) {
                map.deactivate_sensor(sid);
                if rng.gen_bool(0.3) {
                    map.reactivate_sensor(sid);
                }
            }
        }
        let mut knowledge = NeighborKnowledge::new();
        let n = map.n_sensors();
        for viewer in 0..n {
            if rng.gen_bool(0.2) {
                for _ in 0..rng.gen_range(1..=3usize) {
                    knowledge.hide(viewer, rng.gen_range(0..n));
                }
            }
        }
        (map, cfg, rc, knowledge)
    }

    /// Holds the tile batch and the single-point evaluation to the frozen
    /// per-point kernel (owner lists compared exactly, order included),
    /// and the shortcut `est_benefit` to the frozen one, for every agent
    /// at every point within `rc` of it.
    fn assert_matches_oracle(
        map: &CoverageMap,
        cfg: &DeploymentConfig,
        rc: f64,
        knowledge: &NeighborKnowledge,
    ) {
        let mut cache = OwnerCache::default();
        let mut s = OwnersScratch::default();
        cache.reset(map.n_points(), rc);
        cache.refresh(map, cfg.k, knowledge, &mut s);
        let mut frozen = voronoi_owners::OwnersScratch::default();
        let (mut want, mut fresh) = (Vec::new(), Vec::new());
        for pid in 0..map.n_points() {
            voronoi_owners::point_owners_into(
                map,
                pid,
                rc,
                rc * rc,
                cfg.k,
                knowledge,
                &mut frozen,
                &mut want,
            );
            assert_eq!(cache.owners[pid], want, "tile batch, point {pid}");
            assert_eq!(cache.active[pid], !want.is_empty());
            VoronoiDecor::fresh_owners_into(map, pid, rc, cfg.k, knowledge, &mut s, &mut fresh);
            assert_eq!(fresh, want, "single point {pid}");
        }
        let radii = Radii::new(rc, map.max_active_rs());
        for (sid, viewer) in map.active_sensors() {
            let hidden = knowledge.hidden_from(sid);
            map.for_each_point_within_unordered(viewer, rc, |pid, c| {
                assert_eq!(
                    VoronoiDecor::est_benefit(map, viewer, c, cfg, radii, hidden),
                    voronoi_owners::est_benefit(map, viewer, c, cfg, rc, hidden),
                    "benefit of agent {sid} at point {pid}"
                );
            });
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        #[test]
        fn tile_kernel_matches_the_per_point_oracle(seed in proptest::prelude::any::<u64>()) {
            let (map, cfg, rc, knowledge) = owner_scenario(seed);
            assert_matches_oracle(&map, &cfg, rc, &knowledge);
        }
    }

    #[test]
    fn tile_kernel_matches_the_oracle_at_exact_boundaries() {
        // rc = 8 = 2·rs: candidates exactly rc − rs = rc/2 = 4 from the
        // point at (20, 20) tie four ways, one more sits exactly rc away,
        // and the coverers sit exactly rs away; then the same with a
        // sensor sensing wider than rc, with a blind agent, and with the
        // nearest candidate dead.
        let field = Aabb::square(40.0);
        let cfg = DeploymentConfig::with_k(3);
        let pts: Vec<Point> = (0..=40)
            .flat_map(|x| (0..=40).map(move |y| Point::new(x as f64, y as f64)))
            .collect();
        let mut map = CoverageMap::new(pts, &field, &cfg);
        for (x, y) in [
            (24.0, 20.0),
            (16.0, 20.0),
            (20.0, 24.0),
            (20.0, 16.0),
            (28.0, 20.0),
        ] {
            map.add_sensor(Point::new(x, y), cfg.rs);
        }
        let mut knowledge = NeighborKnowledge::new();
        assert_matches_oracle(&map, &cfg, 8.0, &knowledge);
        let wide = map.add_sensor(Point::new(10.0, 10.0), 12.0);
        assert_matches_oracle(&map, &cfg, 8.0, &knowledge);
        knowledge.hide(1, 0);
        knowledge.hide(4, wide);
        assert_matches_oracle(&map, &cfg, 8.0, &knowledge);
        map.deactivate_sensor(0);
        assert_matches_oracle(&map, &cfg, 8.0, &knowledge);
        assert_matches_oracle(&map, &cfg, 4.0, &knowledge);
    }

    #[test]
    fn tile_gather_keeps_a_sensor_rc_beyond_a_tile_corner() {
        // The tile gather's worst case: a point on a tile's corner, the
        // tile's centre and a sensor `rc` from the point on one line, so
        // the sensor sits exactly the gather radius (`rc` plus the
        // half-diagonal) from the centre. A sweep of small angle offsets
        // off the diagonal, at both of the paper's `rc`, found these
        // sensors: within `rc` of the point by the oracle's `dist² <= rc²`
        // test, yet past the unpadded gather radius from the centre once
        // rounded. Only `MARGIN` keeps them in the gather; without it the
        // point's one owner is lost.
        let field = Aabb::square(40.0);
        let cfg = DeploymentConfig::with_k(1);
        let pts: Vec<Point> = (0..=10)
            .flat_map(|x| (0..=10).map(move |y| Point::new(4.0 * x as f64, 4.0 * y as f64)))
            .collect();
        for (rc, corner, sensor) in [
            (
                8.0,
                Point::new(16.0, 16.0),
                Point::new(10.34314576182133, 10.34314573919391),
            ),
            (
                10.0 * std::f64::consts::SQRT_2,
                Point::new(32.0, 32.0),
                Point::new(22.000000120000003, 21.999999879999997),
            ),
        ] {
            let mut map = CoverageMap::new(pts.clone(), &field, &cfg);
            map.add_sensor(sensor, cfg.rs);
            let tiles = OwnerTiles::new(&map);
            let tile = tiles.tile_of(corner);
            let centre = tiles.center(tile);
            assert_eq!(tiles.edge, 8.0, "tiles of 2 buckets of edge rs");
            let to_corner = (centre.x - corner.x).abs();
            assert_eq!(to_corner, 4.0, "the point is its tile's corner");
            assert!(corner.dist_sq(sensor) <= rc * rc, "rc {rc}: out of reach");
            let unpadded = rc + tiles.half_diagonal();
            assert!(
                centre.dist_sq(sensor) > unpadded * unpadded,
                "rc {rc}: rounding must put the sensor past the unpadded gather"
            );
            assert_matches_oracle(&map, &cfg, rc, &NeighborKnowledge::new());
        }
    }

    #[test]
    fn estimate_ignores_sensors_beyond_rc() {
        let viewer = Point::new(0.0, 0.0);
        let coverers = vec![
            (0, Point::new(3.0, 0.0)), // within rc=8
            (1, Point::new(9.0, 0.0)), // beyond
            (2, Point::new(7.9, 0.0)), // within
        ];
        assert_eq!(VoronoiDecor::estimate(viewer, &coverers, 8.0, None), 2);
        // A hidden sensor is invisible even in range.
        let hidden: std::collections::BTreeSet<usize> = [2].into();
        assert_eq!(
            VoronoiDecor::estimate(viewer, &coverers, 8.0, Some(&hidden)),
            1
        );
    }

    #[test]
    fn trace_ends_fully_covered() {
        let (mut map, cfg) = setup(1, 400, 40, 7);
        let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
        assert_eq!(out.trace.last().unwrap().fraction_k_covered, 1.0);
        for w in out.trace.windows(2) {
            assert!(w[1].fraction_k_covered >= w[0].fraction_k_covered - 1e-12);
        }
    }

    #[test]
    fn respects_max_new_nodes() {
        let cfg = DeploymentConfig {
            max_new_nodes: 9,
            ..DeploymentConfig::with_k(2)
        };
        let field = Aabb::square(100.0);
        let mut map = CoverageMap::new(halton_points(300, &field), &field, &cfg);
        let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
        assert!(out.placed.len() <= 9);
        assert!(!out.fully_covered);
    }

    #[test]
    #[should_panic(expected = "rc >= rs")]
    fn rc_below_rs_panics() {
        let (mut map, cfg) = setup(1, 100, 0, 8);
        let _ = VoronoiDecor { rc: 2.0 }.place(&mut map, &cfg);
    }
}
