//! Baseline 1: the centralized greedy algorithm.
//!
//! Same heuristic as DECOR (maximum-benefit placement at an approximation
//! point) but with a *global* view of the field: one sequential loop over
//! all candidates, always placing at the globally best point. The paper
//! uses it as the quality reference ("expected to result in a more
//! efficient placement than DECOR"); it exchanges no messages because a
//! central authority sees everything.

use crate::benefit::benefit_at;
use crate::config::DeploymentConfig;
use crate::coverage::CoverageMap;
use crate::metrics::{PlacementOutcome, TracePoint};
use crate::scratch::SimScratch;
use crate::Placer;

/// The centralized greedy baseline.
///
/// `trace_every` controls how often the coverage trace is sampled
/// (1 = after every placement, the default).
#[derive(Clone, Copy, Debug)]
pub struct CentralizedGreedy;

impl Placer for CentralizedGreedy {
    fn name(&self) -> String {
        "Centralized".to_owned()
    }

    fn place(&self, map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
        self.place_in(map, cfg, &mut SimScratch::new())
    }

    fn place_in(
        &self,
        map: &mut CoverageMap,
        cfg: &DeploymentConfig,
        scratch: &mut SimScratch,
    ) -> PlacementOutcome {
        cfg.validate();
        let initial = map.n_active_sensors();
        // Output-sensitive candidate set: any positive-benefit candidate
        // has a below-target point within `rs`, so it lives in that
        // point's point-index bucket or the ring around it — and coverage
        // only grows during greedy placement, so the initial set stays a
        // superset throughout. The tile summaries track deficiency at
        // `k_target`; a stricter requirement would see deficits the tiles
        // don't, so fall back to the full sweep there.
        let cands = &mut scratch.cands;
        if cfg.k <= map.k_target() {
            map.deficit_candidates_into(cfg.rs, &mut scratch.tile_flags, cands);
        } else {
            cands.clear();
            cands.extend(0..map.n_points());
        }
        let engine = &mut scratch.engine;
        engine.reset_global(map, cands, cfg.rs, cfg.k);
        let mut out = PlacementOutcome {
            initial_sensors: initial,
            ..PlacementOutcome::default()
        };
        out.trace.push(TracePoint {
            total_sensors: initial,
            fraction_k_covered: map.fraction_k_covered(cfg.k),
        });
        // Invariant 5: the engine's answer is an argmax over every point,
        // which also proves the candidate set a superset. A full sweep per
        // placement, so debug builds only.
        let audit = cfg!(debug_assertions) && cfg.invariants.is_enabled();
        while out.placed.len() < cfg.max_new_nodes {
            let best = engine.best(map);
            if audit {
                cfg.invariants.check_cache(
                    "centralized engine best at placement",
                    out.placed.len(),
                    &best.map(|(_, pid, _, b)| (pid, b)),
                    &argmax_benefit(map, cfg),
                );
            }
            let Some((_, _, pos, _)) = best else {
                break; // zero benefit everywhere => fully k-covered
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
}

/// `(point_id, benefit)` of the positive-benefit point with the largest
/// Equation 1 benefit, ties to the lowest id: the answer the engine must
/// give over any candidate superset in ascending id order.
fn argmax_benefit(map: &CoverageMap, cfg: &DeploymentConfig) -> Option<(usize, u64)> {
    let mut best: Option<(usize, u64)> = None;
    for (pid, &p) in map.points().iter().enumerate() {
        let b = benefit_at(map, p, cfg.rs, cfg.k);
        if b > 0 && best.is_none_or(|(_, bb)| b > bb) {
            best = Some((pid, b));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::Aabb;
    use decor_lds::halton_points;

    fn fresh_map(n_pts: usize, cfg: &DeploymentConfig) -> CoverageMap {
        let field = Aabb::square(100.0);
        CoverageMap::new(halton_points(n_pts, &field), &field, cfg)
    }

    #[test]
    fn achieves_full_coverage_for_k1() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(500, &cfg);
        let out = CentralizedGreedy.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert_eq!(map.count_below(1), 0);
        assert!(!out.placed.is_empty());
    }

    #[test]
    fn achieves_full_coverage_for_k3() {
        let cfg = DeploymentConfig::with_k(3);
        let mut map = fresh_map(500, &cfg);
        let out = CentralizedGreedy.place(&mut map, &cfg);
        assert!(out.fully_covered);
        assert!(map.min_coverage() >= 3);
    }

    #[test]
    fn node_count_scales_roughly_linearly_with_k() {
        let field_pts = 800;
        let count_for = |k: u32| {
            let cfg = DeploymentConfig::with_k(k);
            let mut map = fresh_map(field_pts, &cfg);
            CentralizedGreedy.place(&mut map, &cfg).placed.len()
        };
        let n1 = count_for(1);
        let n3 = count_for(3);
        assert!(n3 > 2 * n1, "k=3 needs well over 2x the k=1 nodes");
        assert!(n3 < 5 * n1, "k=3 should stay below 5x the k=1 nodes");
    }

    #[test]
    fn node_count_is_near_paper_scale() {
        // Paper: 788 nodes for k=4 on 2000 points / 100x100 / rs=4.
        // The exact number depends on the point realization; we accept a
        // generous band around the disc-packing lower bound (~640).
        let cfg = DeploymentConfig::with_k(4);
        let mut map = fresh_map(2000, &cfg);
        let out = CentralizedGreedy.place(&mut map, &cfg);
        assert!(out.fully_covered);
        let n = out.placed.len();
        assert!((650..=1000).contains(&n), "k=4 centralized used {n} nodes");
    }

    #[test]
    fn respects_existing_sensors() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(500, &cfg);
        // Pre-cover the whole field.
        for i in 0..13 {
            for j in 0..13 {
                map.add_sensor(
                    decor_geom::Point::new(4.0 + 7.7 * i as f64, 4.0 + 7.7 * j as f64),
                    6.0,
                );
            }
        }
        assert_eq!(map.count_below(1), 0);
        let out = CentralizedGreedy.place(&mut map, &cfg);
        assert!(out.placed.is_empty(), "nothing to restore");
        assert!(out.fully_covered);
        assert_eq!(out.initial_sensors, 169);
    }

    #[test]
    fn trace_is_monotone_and_ends_at_one() {
        let cfg = DeploymentConfig::with_k(2);
        let mut map = fresh_map(400, &cfg);
        let out = CentralizedGreedy.place(&mut map, &cfg);
        for w in out.trace.windows(2) {
            assert!(w[1].fraction_k_covered >= w[0].fraction_k_covered - 1e-12);
            assert_eq!(w[1].total_sensors, w[0].total_sensors + 1);
        }
        assert_eq!(out.trace.last().unwrap().fraction_k_covered, 1.0);
    }

    #[test]
    fn max_new_nodes_caps_the_run() {
        let cfg = DeploymentConfig {
            max_new_nodes: 5,
            ..DeploymentConfig::with_k(3)
        };
        let mut map = fresh_map(500, &cfg);
        let out = CentralizedGreedy.place(&mut map, &cfg);
        assert_eq!(out.placed.len(), 5);
        assert!(!out.fully_covered);
    }

    #[test]
    fn exchanges_no_messages() {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = fresh_map(300, &cfg);
        let out = CentralizedGreedy.place(&mut map, &cfg);
        assert_eq!(out.messages.protocol_total, 0);
    }

    /// Invariant 5 audits every engine answer against an argmax over the
    /// whole field; a candidate set missing a positive-benefit point, or
    /// a stale shard, turns this red (debug builds).
    #[test]
    fn engine_answers_match_a_whole_field_argmax() {
        let field = Aabb::square(100.0);
        for (k, rs_place) in [(1, 4.0), (2, 4.0), (2, 6.5), (3, 3.0)] {
            let map_cfg = DeploymentConfig::with_k(k);
            let mut map = CoverageMap::new(halton_points(900, &field), &field, &map_cfg);
            CentralizedGreedy.place(&mut map, &map_cfg);
            for sid in 0..map.n_sensors() {
                let p = map.sensor_pos(sid);
                if p.dist(decor_geom::Point::new(35.0, 60.0)) < 21.0 || sid % 11 == 0 {
                    map.deactivate_sensor(sid);
                }
            }
            let cfg = DeploymentConfig {
                rs: rs_place,
                rc: 2.0 * rs_place,
                invariants: crate::InvariantChecker::enabled(),
                ..DeploymentConfig::with_k(k)
            };
            let out = CentralizedGreedy.place(&mut map, &cfg);
            assert!(out.fully_covered && !out.placed.is_empty());
            cfg.invariants.assert_green();
        }
    }

    #[test]
    fn greedy_never_places_zero_benefit_nodes() {
        // Every placement must reduce the global deficit: total placed
        // equals the number of strict deficit decreases.
        let cfg = DeploymentConfig::with_k(2);
        let mut map = fresh_map(300, &cfg);
        let deficit_before: u64 = (0..map.n_points())
            .map(|i| (cfg.k - map.coverage(i).min(cfg.k)) as u64)
            .sum();
        let out = CentralizedGreedy.place(&mut map, &cfg);
        assert!(deficit_before > 0);
        assert!(out.placed.len() as u64 <= deficit_before);
    }
}
