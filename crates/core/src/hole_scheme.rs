//! The exact-geometry hole-healing scheme (`"holes"`).
//!
//! Where every other placer in this crate reasons about coverage through
//! the approximation-point sketch, this one closes the loop with *exact*
//! geometry: each round it runs the Voronoi hole detector
//! ([`decor_geom::detect_holes`]) over the region of interest around the
//! current deficit, and drops a sensor at the **deepest witness** of the
//! largest uncovered region — the point locally farthest from every
//! active sensor, the exact analogue of the paper's "place where coverage
//! is worst" heuristic. Once no true (0-coverage) hole remains, residual
//! `k`-deficits are drained by the same sharded greedy engine the
//! centralized baseline uses, so the tail of the run is bit-comparable to
//! [`crate::CentralizedGreedy`].
//!
//! The detector pass is *output-sensitive*: the region of interest is the
//! bounding box of the deficient approximation points (inflated by `2·rs`
//! so the surrounding Voronoi structure is complete) and only sensors
//! whose disks can reach it are gathered, so healing a small wound on a
//! large field never touches the far side of the field.
//!
//! Like the distributed schemes the placer runs the round protocol
//! (DESIGN.md §17) over a mirror [`Network`] of accounting nodes, so a
//! scripted fault plan can crash sensors mid-restoration on a per-round
//! clock; crashed sensors are retired from the coverage map (and reported
//! to the invariant checker) before the next decision, so the healer
//! reacts to faults it has itself already repaired around.

use decor_geom::{detect_holes, Aabb, Point};
use decor_net::{Network, NodeId};
use decor_trace::TraceEvent;

use crate::config::DeploymentConfig;
use crate::coverage::{CoverageMap, SensorId};
use crate::engine::ShardedBenefitEngine;
use crate::metrics::PlacementOutcome;
use crate::rounds::{RoundScratch, Run, World};
use crate::Placer;

/// Exact hole detection + deepest-witness healing, engine top-up for
/// residual `k`-deficits.
#[derive(Clone, Copy, Debug, Default)]
pub struct HoleHealing;

/// A crash retires coverage behind the residual greedy engine's back, so
/// the engine is dropped and rebuilt from the map at its next use.
impl World for Option<ShardedBenefitEngine> {
    fn retire(&mut self, _: &CoverageMap, _: NodeId, _: SensorId) {
        *self = None;
    }
}

/// The exact-geometry candidate: the deepest witness of the largest true
/// hole inside the deficit's region of interest, or `None` when the
/// deficit region is fully 1-covered (residuals are then `k`-deficits the
/// greedy engine handles).
fn hole_candidate(map: &CoverageMap, cfg: &DeploymentConfig) -> Option<Point> {
    // True holes are 0-coverage regions; anchor the ROI on the points
    // that see *no* sensor. (A hole can hide between approximation
    // points, but it then borders the deficit the sketch does see — the
    // 2·rs inflation pulls it into the ROI.)
    let bare = map.uncovered_ids(1);
    if bare.is_empty() {
        return None;
    }
    let pts = map.points();
    let mut lo = pts[bare[0]];
    let mut hi = lo;
    for &pid in &bare[1..] {
        let p = pts[pid];
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    let roi = Aabb::new(lo, hi)
        .inflate(2.0 * cfg.rs)
        .intersection(map.field())?;
    // Every sensor whose disk reaches into the ROI lies within its
    // circumradius plus rs of the center; rs again as slack.
    let gather_r = roi.width().hypot(roi.height()) * 0.5 + 2.0 * cfg.rs;
    let sensors: Vec<Point> = map
        .sensors_within(roi.center(), gather_r)
        .into_iter()
        .map(|sid| map.sensor_pos(sid))
        .collect();
    let report = detect_holes(&sensors, cfg.rs, &roi);
    // Largest hole first (detect_holes sorts by area); its deepest
    // witness is strictly uncovered, so the placement always progresses.
    report.holes().first().map(|h| h.deepest)
}

impl Placer for HoleHealing {
    fn name(&self) -> String {
        "Holes (exact)".to_owned()
    }

    fn place(&self, map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
        cfg.validate();
        // The accounting mirror gives the fault plan nodes to crash. The
        // healer itself is a central authority and sends no messages.
        let mut bufs = RoundScratch::default();
        let net = Network::new(*map.field());
        let mut run = Run::new("holes", cfg.rc, net, &mut bufs, map, cfg);
        // Greedy engine for the residual k-deficit, built lazily the
        // first round no true hole remains and dropped whenever a crash
        // retires coverage behind its back.
        let mut engine: Option<ShardedBenefitEngine> = None;
        while run.running() {
            let round = run.round();
            // The healer has no transport; chaos rides a per-round clock
            // with the transport's backoff tick, so scripted faults land
            // between placements exactly as they do for the distributed
            // schemes.
            let now = round * cfg.link.backoff_base;
            if run.advance_to(now, map, &mut engine) {
                cfg.trace.set_time(now);
            }
            cfg.trace.emit(TraceEvent::RoundBegin {
                scheme: "holes",
                round,
            });

            let pos = if map.count_below(cfg.k) == 0 {
                if run.idle(map, &mut engine) {
                    continue;
                }
                break;
            } else if let Some(pos) = hole_candidate(map, cfg) {
                pos
            } else {
                // No true hole left: residual deficit is k > 1 depth.
                // Same candidate policy as the centralized baseline.
                let eng = engine.get_or_insert_with(|| {
                    let cands: Vec<usize> = if cfg.k <= map.k_target() {
                        map.deficit_candidates(cfg.rs)
                    } else {
                        (0..map.n_points()).collect()
                    };
                    ShardedBenefitEngine::global(map, cands, cfg.rs, cfg.k)
                });
                let Some((_, _, pos, _)) = eng.best(map) else {
                    // A deficient point is its own positive-benefit
                    // candidate, so this is unreachable while deficit
                    // remains; bail rather than spin if it ever isn't.
                    break;
                };
                pos
            };

            // The witness benefit is scored by the same Eq. 1 the engine
            // uses, so hole placements and engine placements are
            // comparable in the trace. The central healing authority, not
            // an agent, places it.
            let benefit = map.deficit_within(pos, cfg.rs, cfg.k);
            run.place(map, None, pos, benefit, u64::MAX);
            if let Some(eng) = engine.as_mut() {
                eng.on_sensor_added(map, pos, cfg.rs);
            }
            run.close_round(map);
        }
        // No messages: the healer is centralized (cost accounting matches
        // the centralized baseline's all-zero stats).
        run.finish(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::invariants::InvariantChecker;
    use decor_lds::halton_points;
    use decor_net::FaultPlan;

    fn fresh_map(n_pts: usize, cfg: &DeploymentConfig) -> CoverageMap {
        let field = Aabb::square(100.0);
        CoverageMap::new(halton_points(n_pts, &field), &field, cfg)
    }

    #[test]
    fn achieves_full_coverage_for_k1() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(300, &cfg);
        let out = HoleHealing.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert_eq!(map.count_below(1), 0);
        assert!(!out.placed.is_empty());
    }

    #[test]
    fn achieves_full_coverage_for_k3() {
        let cfg = DeploymentConfig::with_k(3);
        let mut map = fresh_map(300, &cfg);
        let out = HoleHealing.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert!(map.min_coverage() >= 3);
    }

    #[test]
    fn k1_field_is_geometrically_clear_after_healing() {
        // The scheme's claim over the sketch-based placers: after a k=1
        // run the *exact* uncovered area of the whole field is zero, not
        // just the sampled one.
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(500, &cfg);
        let out = HoleHealing.place(&mut map, &cfg);
        assert!(out.fully_covered);
        let sensors: Vec<Point> = map.active_sensors().into_iter().map(|(_, p)| p).collect();
        let report = detect_holes(&sensors, cfg.rs, map.field());
        // The sketch can miss slivers between approximation points, so
        // the exact residue is not zero — but the deepest-witness policy
        // keeps it to sub-percent of the field (a grid/random placer at
        // this sketch density leaves strictly more).
        let bound = 0.01 * map.field().area();
        assert!(
            report.total_area() < bound,
            "geometric residue {} >= {bound}",
            report.total_area()
        );
    }

    #[test]
    fn heals_a_punched_wound_with_few_sensors() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(900, &cfg);
        // Cover the field with a lattice, then punch a wound.
        let mut ids = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                ids.push(map.add_sensor(
                    Point::new(2.5 + 5.0 * i as f64, 2.5 + 5.0 * j as f64),
                    cfg.rs,
                ));
            }
        }
        let wound = Point::new(50.0, 50.0);
        for &id in &ids {
            if map.sensor_pos(id).dist(wound) <= 15.0 {
                map.deactivate_sensor(id);
            }
        }
        assert!(map.count_below(1) > 0);
        let out = HoleHealing.place(&mut map, &cfg);
        assert!(out.fully_covered);
        // ~28 sensors died; exact healing should need far fewer than a
        // blanket re-lattice of the wound.
        assert!(
            out.placed.len() <= 28,
            "healing used {} sensors",
            out.placed.len()
        );
        for p in &out.placed {
            assert!(
                p.dist(wound) <= 15.0 + 2.0 * cfg.rs,
                "placement {p:?} far from the wound"
            );
        }
        map.verify_consistency();
    }

    #[test]
    fn respects_existing_sensors() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(500, &cfg);
        for i in 0..13 {
            for j in 0..13 {
                map.add_sensor(Point::new(4.0 + 7.7 * i as f64, 4.0 + 7.7 * j as f64), 6.0);
            }
        }
        assert_eq!(map.count_below(1), 0);
        let out = HoleHealing.place(&mut map, &cfg);
        assert!(out.placed.is_empty(), "nothing to restore");
        assert!(out.fully_covered);
    }

    #[test]
    fn max_new_nodes_caps_the_run() {
        let cfg = DeploymentConfig {
            max_new_nodes: 5,
            ..DeploymentConfig::with_k(3)
        };
        let mut map = fresh_map(500, &cfg);
        let out = HoleHealing.place(&mut map, &cfg);
        assert_eq!(out.placed.len(), 5);
        assert!(!out.fully_covered);
    }

    #[test]
    fn exchanges_no_messages() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(300, &cfg);
        let out = HoleHealing.place(&mut map, &cfg);
        assert_eq!(out.messages.protocol_total, 0);
    }

    #[test]
    fn placement_is_deterministic() {
        let cfg = DeploymentConfig::with_k(2);
        let mut a = fresh_map(250, &cfg);
        let mut b = a.clone();
        let oa = HoleHealing.place(&mut a, &cfg);
        let ob = HoleHealing.place(&mut b, &cfg);
        assert_eq!(oa.placed, ob.placed);
        assert_eq!(oa.rounds, ob.rounds);
    }

    #[test]
    fn converges_under_chaos_with_invariants() {
        let cfg = DeploymentConfig {
            chaos: Some(FaultPlan::generate(11, 40, 600)),
            invariants: InvariantChecker::enabled(),
            ..DeploymentConfig::with_k(2)
        };
        let mut map = fresh_map(350, &cfg);
        let out = HoleHealing.place(&mut map, &cfg);
        assert!(out.fully_covered, "must out-place the fault plan");
        assert_eq!(map.count_below(2), 0);
        map.verify_consistency();
    }

    #[test]
    fn trace_rounds_are_well_formed() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(300, &cfg);
        let out = HoleHealing.place(&mut map, &cfg);
        assert!(out.rounds > 0);
        assert_eq!(out.trace.len(), out.placed.len() + 1);
        for w in out.trace.windows(2) {
            assert!(w[1].fraction_k_covered >= w[0].fraction_k_covered - 1e-12);
        }
        assert_eq!(out.trace.last().unwrap().fraction_k_covered, 1.0);
    }
}
