//! Integration: the full failure-and-restoration pipeline on a lossy
//! medium. Heartbeat detection, distributed placement and the placement
//! notices all share the configured link; the reliable transport must keep
//! the distributed placers convergent while the retry/ack accounting shows
//! what that reliability costs.

use decor::core::restore::fail_and_restore;
use decor::core::{
    CentralizedGreedy, CoverageMap, DeploymentConfig, GridDecor, HoleHealing, LinkConfig, Placer,
    VoronoiDecor,
};
use decor::geom::Aabb;
use decor::lds::{halton_points, random_points};
use decor::net::{FailurePlan, HeartbeatConfig};

/// A fully k-covered field built by the centralized baseline.
fn covered_map(k: u32, n_pts: usize, initial: usize, seed: u64) -> (CoverageMap, DeploymentConfig) {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig::with_k(k);
    let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
    for p in random_points(initial, &field, seed) {
        map.add_sensor(p, cfg.rs);
    }
    CentralizedGreedy.place(&mut map, &cfg);
    assert_eq!(map.count_below(k), 0);
    (map, cfg)
}

#[test]
fn restoration_reaches_target_over_a_lossy_medium() {
    // 20% packet loss on every exchange — heartbeats and placement
    // notices alike. Restoration must still reach full k-coverage.
    let (mut map, mut cfg) = covered_map(2, 600, 60, 31);
    cfg.link = LinkConfig::lossy(0.2, 41);
    let plan = FailurePlan::Fraction {
        frac: 0.15,
        seed: 43,
    };
    let report = fail_and_restore(&mut map, &VoronoiDecor { rc: 8.0 }, &cfg, &plan, None);
    assert!(report.victims > 0);
    assert!(report.coverage_after_failure < 1.0);
    assert_eq!(report.coverage_after_restore, 1.0, "{report:?}");
    assert_eq!(map.count_below(2), 0);
    assert!(
        report.outcome.messages.retries > 0,
        "loss must force retries: {:?}",
        report.outcome.messages
    );
}

#[test]
fn heartbeat_false_positives_do_not_corrupt_restoration_counts() {
    // Heavy loss makes the detector suspect *alive* sensors. Those false
    // positives must stay alive in the coverage map: the restoration
    // replaces only the real victims, and the bookkeeping must add up
    // exactly — active after = active before − victims + placed.
    let (mut map, mut cfg) = covered_map(2, 600, 60, 33);
    cfg.link = LinkConfig::lossy(0.3, 47);
    let active_before = map.n_active_sensors();
    let plan = FailurePlan::Fraction {
        frac: 0.1,
        seed: 53,
    };
    let hb = HeartbeatConfig {
        period: 100,
        timeout_periods: 2, // trigger-happy: loss^2 per window is common
        seed: 59,
    };
    let report = fail_and_restore(&mut map, &VoronoiDecor { rc: 8.0 }, &cfg, &plan, Some(hb));
    assert!(report.victims > 0);
    assert!(
        report.detected <= report.victims,
        "detected counts real victims only: {report:?}"
    );
    assert_eq!(report.extra_nodes, report.outcome.placed.len());
    assert_eq!(
        map.n_active_sensors(),
        active_before - report.victims + report.extra_nodes,
        "false positives must not be deactivated: {report:?}"
    );
    assert_eq!(report.coverage_after_restore, 1.0);
}

#[test]
fn hole_healer_restores_through_the_pipeline_without_protocol_traffic() {
    // The exact-geometry healer rides the same failure-and-restoration
    // pipeline: heartbeat detection runs over the 20%-loss link, but the
    // healer itself is centralized and must restore full coverage with
    // zero protocol messages — loss cannot slow it down or change what
    // it places.
    let (mut map, mut cfg) = covered_map(1, 600, 60, 31);
    cfg.link = LinkConfig::lossy(0.2, 41);
    let plan = FailurePlan::Fraction {
        frac: 0.2,
        seed: 61,
    };
    let hb = HeartbeatConfig {
        period: 100,
        timeout_periods: 3,
        seed: 67,
    };
    let report = fail_and_restore(&mut map, &HoleHealing, &cfg, &plan, Some(hb));
    assert!(report.victims > 0);
    assert!(report.coverage_after_failure < 1.0);
    assert_eq!(report.coverage_after_restore, 1.0, "{report:?}");
    assert_eq!(map.count_below(1), 0);
    assert_eq!(
        report.outcome.messages.protocol_total, 0,
        "the healer is message-free: {:?}",
        report.outcome.messages
    );
}

#[test]
fn both_distributed_placers_converge_up_to_thirty_percent_loss() {
    // The acceptance bar of the transport layer: at 10% and 30% loss both
    // distributed schemes still reach full k-coverage, the blind-spot
    // duplicates stay bounded, and retry/ack traffic grows with the rate.
    let placers: [(&str, &dyn Placer); 2] = [
        ("voronoi", &VoronoiDecor { rc: 8.0 }),
        ("grid", &GridDecor { cell_size: 5.0 }),
    ];
    for (name, placer) in placers {
        let baseline = {
            let (mut map, cfg) = damaged_map(2, 500, 60, 35);
            placer.place(&mut map, &cfg).placed.len()
        };
        let mut prev_retries = 0;
        for loss in [0.1, 0.3] {
            let (mut map, mut cfg) = damaged_map(2, 500, 60, 35);
            cfg.link = LinkConfig::lossy(loss, 61);
            let out = placer.place(&mut map, &cfg);
            assert!(out.fully_covered, "{name} at loss {loss}");
            assert!(map.min_coverage() >= 2, "{name} at loss {loss}");
            assert!(
                out.placed.len() <= baseline * 3 / 2 + 5,
                "{name} at loss {loss}: {} placed vs {baseline} baseline",
                out.placed.len()
            );
            assert!(
                out.messages.retries > prev_retries,
                "{name}: retry traffic must grow with loss"
            );
            assert!(out.messages.acks > 0, "{name}: acks are counted");
            prev_retries = out.messages.retries;
        }
    }
}

#[test]
fn huge_backoff_base_neither_wraps_the_clock_nor_stalls_placement() {
    // A backoff base of 2^62 doubles past u64::MAX by the third retry;
    // the transport must park such retries at the end of time instead of
    // wrapping its clock, and both placers must still converge.
    let placers: [(&str, &dyn Placer); 2] = [
        ("voronoi", &VoronoiDecor { rc: 8.0 }),
        ("grid", &GridDecor { cell_size: 5.0 }),
    ];
    for (name, placer) in placers {
        let (mut map, mut cfg) = damaged_map(2, 500, 60, 35);
        cfg.link = LinkConfig {
            backoff_base: 1 << 62,
            ..LinkConfig::lossy(0.3, 61)
        };
        let out = placer.place(&mut map, &cfg);
        assert!(out.fully_covered, "{name}");
        assert!(map.min_coverage() >= 2, "{name}");
        assert!(out.messages.retries > 0, "{name}: 30% loss forces retries");
    }
}

/// A partially covered field (no placer has run yet).
fn damaged_map(k: u32, n_pts: usize, initial: usize, seed: u64) -> (CoverageMap, DeploymentConfig) {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig::with_k(k);
    let mut map = CoverageMap::new(halton_points(n_pts, &field), &field, &cfg);
    for p in random_points(initial, &field, seed) {
        map.add_sensor(p, cfg.rs);
    }
    (map, cfg)
}
