//! The bucket-tight restoration candidate set vs the tile-ring set it
//! replaced.
//!
//! `CoverageMap::deficit_candidates_into` marks the point-index bucket of
//! every below-target point and the ring around it. The set it replaced
//! took whole 16-bucket tiles plus a tile ring; it is kept as the oracle
//! `oracle/tile_candidates.rs`. The new set must be ascending and a subset
//! of the old one, every point it drops must have zero benefit, and
//! `CentralizedGreedy` must place identically over both, on damaged maps
//! with crash scripts and with sensing radii that differ between the map,
//! its sensors and the placer.

#[path = "oracle/tile_candidates.rs"]
mod tile_candidates;

use decor::core::{benefit_at, CentralizedGreedy, CoverageMap, DeploymentConfig, Placer};
use decor::geom::{Aabb, Disk, Point};
use decor::lds::halton_points;
use proptest::prelude::*;
use tile_candidates::{tile_ring_candidates, tile_ring_greedy};

#[derive(Clone, Debug)]
struct Scenario {
    side: f64,
    n_points: usize,
    k: u32,
    /// The radius the map's point index is sized for.
    map_rs: f64,
    /// The placer's radius: the candidate margin and the scoring radius.
    place_rs: f64,
    /// Lattice pitch of the initial deployment, as a multiple of `map_rs`.
    pitch: f64,
    /// Radius factor of every other lattice sensor.
    alt_rs: f64,
    hole: (f64, f64, f64),
    crashes: Vec<prop::sample::Index>,
}

fn arb_scenario() -> impl Strategy<Value = Scenario> {
    (
        (40.0..160.0f64, 150usize..1500, 1u32..4),
        (2.0..6.0f64, 0.5..3.0f64, 0.6..1.6f64, 0.5..1.5f64),
        (0.0..1.0f64, 0.0..1.0f64, 3.0..30.0f64),
        prop::collection::vec(any::<prop::sample::Index>(), 0..12),
    )
        .prop_map(
            |((side, n_points, k), (map_rs, place_f, pitch, alt_rs), hole, crashes)| Scenario {
                side,
                n_points,
                k,
                map_rs,
                place_rs: map_rs * place_f,
                pitch,
                alt_rs,
                hole,
                crashes,
            },
        )
}

/// A lattice-covered field with an area failure and a few crashes.
fn damaged(sc: &Scenario) -> (CoverageMap, DeploymentConfig) {
    let field = Aabb::square(sc.side);
    let map_cfg = DeploymentConfig {
        rs: sc.map_rs,
        rc: 2.0 * sc.map_rs,
        ..DeploymentConfig::with_k(sc.k)
    };
    let mut map = CoverageMap::new(halton_points(sc.n_points, &field), &field, &map_cfg);
    let pitch = sc.map_rs * sc.pitch;
    let n_side = (sc.side / pitch) as usize + 1;
    for i in 0..=n_side {
        for j in 0..=n_side {
            let pos = Point::new(
                (pitch * i as f64).min(sc.side),
                (pitch * j as f64).min(sc.side),
            );
            let rs = if (i + j) % 2 == 0 {
                sc.map_rs
            } else {
                sc.map_rs * sc.alt_rs
            };
            map.add_sensor(pos, rs);
        }
    }
    let hole = Disk::new(
        Point::new(sc.hole.0 * sc.side, sc.hole.1 * sc.side),
        sc.hole.2,
    );
    for sid in 0..map.n_sensors() {
        if hole.contains(map.sensor_pos(sid)) {
            map.deactivate_sensor(sid);
        }
    }
    for idx in &sc.crashes {
        map.deactivate_sensor(idx.index(map.n_sensors()));
    }
    let place_cfg = DeploymentConfig {
        rs: sc.place_rs,
        rc: 2.0 * sc.place_rs,
        ..DeploymentConfig::with_k(sc.k)
    };
    (map, place_cfg)
}

fn assert_tighter_and_lossless(map: &CoverageMap, map_rs: f64, cfg: &DeploymentConfig) {
    let new = map.deficit_candidates(cfg.rs);
    let old = tile_ring_candidates(map, map_rs, cfg.rs);
    assert!(new.windows(2).all(|w| w[0] < w[1]), "not ascending");
    let mut dropped = Vec::new();
    let mut j = 0;
    for &pid in &old {
        if j < new.len() && new[j] == pid {
            j += 1;
        } else {
            dropped.push(pid);
        }
    }
    assert_eq!(j, new.len(), "a candidate outside the tile-ring set");
    for pid in dropped {
        assert_eq!(
            benefit_at(map, map.points()[pid], cfg.rs, cfg.k),
            0,
            "dropped point {pid} has positive benefit"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn bucket_candidates_are_a_lossless_subset(sc in arb_scenario()) {
        let (map, cfg) = damaged(&sc);
        assert_tighter_and_lossless(&map, sc.map_rs, &cfg);

        let (mut m_new, mut m_old) = (map.clone(), map.clone());
        let a = CentralizedGreedy.place(&mut m_new, &cfg);
        let b = tile_ring_greedy(&mut m_old, sc.map_rs, &cfg);
        prop_assert_eq!(&a.placed, &b.placed);
        prop_assert_eq!(a.fully_covered, b.fully_covered);
        prop_assert_eq!(&a.trace, &b.trace);
        // Restored, the field has no candidates left.
        if a.fully_covered {
            prop_assert!(m_new.deficit_candidates(cfg.rs).is_empty());
        }
    }
}

/// Cold fields (every bucket marked) and healthy ones (none) at the
/// paper's defaults.
#[test]
fn cold_field_takes_every_point_and_healthy_field_none() {
    let field = Aabb::square(100.0);
    let cfg = DeploymentConfig::with_k(2);
    let mut map = CoverageMap::new(halton_points(2000, &field), &field, &cfg);
    let all: Vec<usize> = (0..2000).collect();
    assert_eq!(map.deficit_candidates(cfg.rs), all);
    assert_eq!(tile_ring_candidates(&map, cfg.rs, cfg.rs), all);
    CentralizedGreedy.place(&mut map, &cfg);
    assert!(map.deficit_candidates(cfg.rs).is_empty());
    assert!(tile_ring_candidates(&map, cfg.rs, cfg.rs).is_empty());
}
