//! Extension — heterogeneous sensing radii.
//!
//! §2: "In a heterogeneous network deployment, the sensing and coverage
//! radii of the sensors may vary ... Our solution is designed to work
//! under such a setting, since the only assumption we make is that the
//! sensing radius is smaller than or equal to the communication radius."
//! The paper never evaluates this; we do. The initial deployment mixes
//! sensors with radii drawn from {rs/2, rs, 3rs/2}; restoration places
//! homogeneous `rs` sensors. The claim holds if every scheme still
//! reaches 100% k-coverage, with node counts between the all-small and
//! all-large homogeneous references.

use crate::common::ExpParams;
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::{CoverageMap, DeploymentConfig, SchemeKind};
use decor_lds::{halton_points, random_points};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The k values swept.
pub const KS: [u32; 3] = [1, 2, 3];

/// Builds a map with `initial` sensors of mixed radii (uniform over
/// `{0.5, 1.0, 1.5} × rs`), deterministic in `seed`.
pub fn mixed_radius_map(
    params: &ExpParams,
    cfg: &DeploymentConfig,
    initial: usize,
    seed: u64,
) -> CoverageMap {
    let field = params.field();
    let mut map = CoverageMap::new(halton_points(params.n_points, &field), &field, cfg);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x8E7E);
    for p in random_points(initial, &field, seed) {
        let factor = [0.5, 1.0, 1.5][rng.gen_range(0..3usize)];
        map.add_sensor(p, cfg.rs * factor);
    }
    map
}

/// Runs the experiment. Columns: k, then nodes placed per scheme on the
/// mixed-radius field (all runs must fully cover — asserted).
pub fn run(params: &ExpParams) -> Table {
    let schemes = [
        SchemeKind::Centralized,
        SchemeKind::GridSmall,
        SchemeKind::VoronoiBig,
    ];
    let mut columns = vec!["k".to_owned()];
    columns.extend(schemes.iter().map(|s| s.label().to_owned()));
    let mut t = Table::new(
        "ext_heterogeneous",
        "Restoration on heterogeneous initial deployments (nodes placed)",
        columns,
    );
    for &k in &KS {
        let mut row = vec![k as f64];
        for &scheme in &schemes {
            let placed = MatrixRunner::auto().replicas(
                params.seeds,
                params.base_seed ^ 0x8E7E,
                |_, seed| {
                    let cfg = DeploymentConfig::with_k(k);
                    let mut map = mixed_radius_map(params, &cfg, params.initial_nodes, seed);
                    let out = params.placer(scheme, seed).place(&mut map, &cfg);
                    assert!(
                        out.fully_covered,
                        "{} failed on heterogeneous field at k={k}",
                        scheme.label()
                    );
                    out.placed.len() as f64
                },
            );
            row.push(mean(&placed));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_core::Placer;

    #[test]
    fn all_schemes_cover_heterogeneous_fields() {
        let params = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(2);
        for scheme in SchemeKind::ALL {
            let mut map = mixed_radius_map(&params, &cfg, 50, 3);
            let out = params.placer(scheme, 4).place(&mut map, &cfg);
            assert!(out.fully_covered, "{}", scheme.label());
            assert_eq!(map.count_below(2), 0, "{}", scheme.label());
            map.verify_consistency();
        }
    }

    #[test]
    fn mixed_radii_actually_vary() {
        let params = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(1);
        let map = mixed_radius_map(&params, &cfg, 60, 5);
        let radii: std::collections::BTreeSet<u64> = (0..map.n_sensors())
            .map(|sid| (map.sensor_rs(sid) * 10.0) as u64)
            .collect();
        assert!(radii.len() >= 2, "radii must vary: {radii:?}");
    }

    #[test]
    fn larger_initial_sensors_reduce_restoration_cost() {
        // A field seeded with 1.5x-radius sensors needs fewer new nodes
        // than one seeded with 0.5x-radius sensors at the same positions.
        let params = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(1);
        let field = params.field();
        let positions = random_points(60, &field, 8);
        let count_with = |factor: f64| {
            let mut map = CoverageMap::new(halton_points(params.n_points, &field), &field, &cfg);
            for &p in &positions {
                map.add_sensor(p, cfg.rs * factor);
            }
            decor_core::CentralizedGreedy
                .place(&mut map, &cfg)
                .placed
                .len()
        };
        let small = count_with(0.5);
        let large = count_with(1.5);
        assert!(large < small, "large sensors must help: {large} vs {small}");
    }
}
