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

/// Voronoi-based DECOR. `rc` overrides the config's communication radius
/// (the paper evaluates `rc = 8` and `rc = 10·√2 ≈ 14.14`).
#[derive(Clone, Copy, Debug)]
pub struct VoronoiDecor {
    /// Communication radius defining both the knowledge horizon and the
    /// local Voronoi cells.
    pub rc: f64,
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

    /// The agents that own point `pid` under their local Voronoi view *and*
    /// believe it under-covered. This is the per-point body of the decision
    /// phase; its result depends only on the sensors within `rc` of the
    /// point (candidate owners are within `rc`, and a coverer is within
    /// `rs <= rc`), which is what lets rounds cache it per point and
    /// invalidate just the `rc`-disk of each new placement.
    #[allow(clippy::too_many_arguments)]
    fn point_owners_into(
        map: &CoverageMap,
        pid: usize,
        rc: f64,
        rc_sq: f64,
        k: u32,
        knowledge: &NeighborKnowledge,
        scratch: &mut OwnersScratch,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        let p = map.points()[pid];
        // Agents that could own p (scratch buffers reused across points).
        let cands = &mut scratch.cands;
        cands.clear();
        map.for_each_sensor_within(p, rc, |sid, spos| {
            cands.push((sid, spos, p.dist_sq(spos)));
        });
        if cands.is_empty() {
            return; // unreachable this round; fringe grows later
        }
        cands.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap().then(a.0.cmp(&b.0)));
        let coverers = &mut scratch.coverers;
        coverers.clear();
        // `coverage(pid)` is the maintained count of exactly the sensors
        // `for_each_sensor_covering` would visit here, so a zero-coverage
        // point can skip the bucket scan: the coverer list is empty.
        if map.coverage(pid) > 0 {
            map.for_each_sensor_covering(p, |sid, spos| coverers.push((sid, spos)));
        }
        for (idx, &(sid, spos, _)) in cands.iter().enumerate() {
            let hidden = knowledge.hidden_from(sid);
            if Self::estimate(spos, coverers, rc, hidden) >= k {
                continue; // this agent believes p is fine
            }
            // Local ownership: no agent closer to p is a 1-hop neighbor of
            // this one. An agent it never learned about cannot defer it.
            let blocked = cands[..idx]
                .iter()
                .any(|&(cid, cpos, _)| spos.dist_sq(cpos) <= rc_sq && knowledge.knows(sid, cid));
            if !blocked {
                out.push(sid);
            }
        }
    }

    /// Locally-estimated benefit of agent `viewer` placing at `c`:
    /// Equation 1 restricted to the points the agent knows (within `rc` of
    /// itself), with coverage replaced by the agent's estimate.
    fn est_benefit(
        map: &CoverageMap,
        viewer: decor_geom::Point,
        c: decor_geom::Point,
        cfg: &DeploymentConfig,
        rc: f64,
        hidden: Option<&BTreeSet<usize>>,
    ) -> u64 {
        let rc_sq = rc * rc;
        let mut b = 0u64;
        // Streamed, allocation-free form of the old collect-and-estimate
        // loop: the benefit is an order-independent integer sum, and the
        // per-point estimate counts known coverers exactly as
        // [`Self::estimate`] does over the collected slice.
        map.for_each_point_within_unordered(c, cfg.rs, |ppid, ppos| {
            if viewer.dist_sq(ppos) <= rc_sq {
                // A zero-coverage point has no coverers to scan, so the
                // viewer's estimate is 0 no matter what it knows.
                if map.coverage(ppid) == 0 {
                    b += cfg.k as u64;
                    return;
                }
                let mut est = 0u32;
                map.for_each_sensor_covering(ppos, |sid, spos| {
                    if viewer.dist_sq(spos) <= rc_sq && hidden.is_none_or(|h| !h.contains(&sid)) {
                        est += 1;
                    }
                });
                if est < cfg.k {
                    b += (cfg.k - est) as u64;
                }
            }
        });
        b
    }
}

/// Reusable buffers for [`VoronoiDecor::point_owners_into`], so the
/// per-point ownership pass does not allocate per point.
#[derive(Default)]
struct OwnersScratch {
    cands: Vec<(usize, decor_geom::Point, f64)>,
    coverers: Vec<(usize, decor_geom::Point)>,
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
    /// Candidate/coverer buffers for the ownership pass.
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
            for pid in cache.dirty.drain(..) {
                if !cache.stale[pid] {
                    continue;
                }
                Self::point_owners_into(
                    map,
                    pid,
                    rc,
                    rc_sq,
                    cfg.k,
                    &rounds.knowledge,
                    owners_scratch,
                    &mut cache.owners[pid],
                );
                cache.stale[pid] = false;
                cache.active[pid] = !cache.owners[pid].is_empty();
            }
            // Invariant 5: every cached entry equals a fresh recomputation.
            // That is the full per-round recompute the cache avoids, so
            // debug builds only.
            if cfg!(debug_assertions) && cfg.invariants.is_enabled() {
                let mut fresh = Vec::new();
                for (pid, cached) in cache.owners.iter().enumerate() {
                    Self::point_owners_into(
                        map,
                        pid,
                        rc,
                        rc_sq,
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
                    let b = Self::est_benefit(map, viewer, map.points()[pid], cfg, rc, hidden);
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
