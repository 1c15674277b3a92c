//! Shared experiment setup: the paper's simulation parameters and helpers
//! to build fields, initial deployments and algorithm instances.

use decor_core::{
    CentralizedGreedy, ConfigError, CoverageMap, DeploymentConfig, GridDecor, HoleHealing,
    LinkConfig, Placer, RandomPlacement, SchemeKind, VoronoiDecor,
};
use decor_geom::Aabb;
use decor_lds::{halton_points, random_points};

/// Experiment-scale parameters.
///
/// [`ExpParams::paper`] reproduces §4 exactly: a `100 × 100` field
/// approximated with 2000 Halton points, `rs = 4`, up to 200 initial
/// sensors, figures averaged over 5 randomly generated fields.
/// [`ExpParams::quick`] shrinks everything for smoke tests.
#[derive(Clone, Copy, Debug)]
pub struct ExpParams {
    /// Field edge length.
    pub field_side: f64,
    /// Number of approximation points.
    pub n_points: usize,
    /// Initial randomly-deployed sensors before restoration starts.
    pub initial_nodes: usize,
    /// Replicas (random fields) each data point is averaged over.
    pub seeds: usize,
    /// Base seed; replica `i` derives its own via splitmix.
    pub base_seed: u64,
    /// Packet-loss rate in percent applied to every in-network exchange
    /// (placement notices ride the reliable transport when non-zero).
    pub loss_pct: u32,
}

impl ExpParams {
    /// The paper's configuration (§4, first paragraph).
    pub fn paper() -> Self {
        ExpParams {
            field_side: 100.0,
            n_points: 2000,
            initial_nodes: 200,
            seeds: 5,
            base_seed: 0xDEC0_2007,
            loss_pct: 0,
        }
    }

    /// A reduced configuration for smoke tests and CI.
    pub fn quick() -> Self {
        ExpParams {
            field_side: 100.0,
            n_points: 500,
            initial_nodes: 60,
            seeds: 2,
            base_seed: 0xDEC0,
            loss_pct: 0,
        }
    }

    /// The paper's scenario scaled to `n_points` approximation points at
    /// the paper's point density (0.2 points per unit²): the field side
    /// grows with `√(n / 2000)`, so each decade of points is a decade of
    /// monitored area. This is the axis the `pr6_scale` benchmark sweeps
    /// (2k → 2M points, 100×100 → ~3162×3162).
    pub fn scaled(n_points: usize) -> Self {
        let base = Self::paper();
        assert!(n_points > 0, "a field needs at least one point");
        let factor = (n_points as f64 / base.n_points as f64).sqrt();
        ExpParams {
            field_side: base.field_side * factor,
            n_points,
            ..base
        }
    }

    /// Checks the scale every run needs: at least one approximation point
    /// on a field of positive, finite side. `decor-cli` and
    /// [`crate::scenario::ScenarioSpec::validate`] both apply it.
    pub fn check(&self) -> Result<(), ConfigError> {
        if self.n_points == 0 {
            return Err(ConfigError("n_points", "n_points must be positive".into()));
        }
        if !(self.field_side.is_finite() && self.field_side > 0.0) {
            let rule = "field_side must be positive and finite".into();
            return Err(ConfigError("field_side", rule));
        }
        Ok(())
    }

    /// The monitored field.
    pub fn field(&self) -> Aabb {
        Aabb::square(self.field_side)
    }

    /// The link configuration these parameters describe: lossless by
    /// default, seeded per replica when `loss_pct > 0`.
    pub fn link(&self, seed: u64) -> LinkConfig {
        if self.loss_pct > 0 {
            LinkConfig::lossy(self.loss_pct as f64 / 100.0, seed ^ 0x11FF)
        } else {
            LinkConfig::default()
        }
    }

    /// A fresh coverage map with the Halton approximation and `initial`
    /// random sensors (the "partially monitored" starting state).
    pub fn make_map(&self, cfg: &DeploymentConfig, initial: usize, seed: u64) -> CoverageMap {
        let field = self.field();
        let mut map = CoverageMap::new(halton_points(self.n_points, &field), &field, cfg);
        for p in random_points(initial, &field, seed) {
            map.add_sensor(p, cfg.rs);
        }
        map
    }

    /// Instantiates the placer for a scheme. `seed` feeds the random
    /// baseline; DECOR variants and the centralized greedy are
    /// deterministic given the map.
    pub fn placer(&self, scheme: SchemeKind, seed: u64) -> Box<dyn Placer> {
        match scheme {
            SchemeKind::GridSmall => Box::new(GridDecor { cell_size: 5.0 }),
            SchemeKind::GridBig => Box::new(GridDecor { cell_size: 10.0 }),
            SchemeKind::VoronoiSmall | SchemeKind::VoronoiBig => Box::new(VoronoiDecor {
                rc: voronoi_rc(scheme).expect("a Voronoi scheme"),
            }),
            SchemeKind::Centralized => Box::new(CentralizedGreedy),
            SchemeKind::Random => Box::new(RandomPlacement { seed }),
            SchemeKind::Holes => Box::new(HoleHealing),
        }
    }
}

/// The communication radius a Voronoi scheme fixes for itself (the
/// paper's `rc = 8` and `rc = 10·√2`), or `None` for the other schemes,
/// which take `rc` from the config.
pub fn voronoi_rc(scheme: SchemeKind) -> Option<f64> {
    match scheme {
        SchemeKind::VoronoiSmall => Some(8.0),
        SchemeKind::VoronoiBig => Some(10.0 * std::f64::consts::SQRT_2),
        _ => None,
    }
}

/// Deploys `scheme` at coverage requirement `k` on a fresh random field:
/// builds the map (initial sensors seeded by `seed`), runs the placer, and
/// returns the final map, the outcome, and the config used.
pub fn deploy(
    params: &ExpParams,
    scheme: SchemeKind,
    k: u32,
    seed: u64,
) -> (
    decor_core::CoverageMap,
    decor_core::PlacementOutcome,
    DeploymentConfig,
) {
    deploy_with(params, scheme, k, seed, |_| {})
}

/// [`deploy`] with a hook that customizes the [`DeploymentConfig`] before
/// the map is built — the single code path every caller (figure modules,
/// the scenario matrix runner, traced runs) funnels through, which
/// is what makes the differential tier's bit-identity claims meaningful.
pub fn deploy_with(
    params: &ExpParams,
    scheme: SchemeKind,
    k: u32,
    seed: u64,
    customize: impl FnOnce(&mut DeploymentConfig),
) -> (
    decor_core::CoverageMap,
    decor_core::PlacementOutcome,
    DeploymentConfig,
) {
    let mut cfg = DeploymentConfig::with_k(k);
    cfg.link = params.link(seed);
    customize(&mut cfg);
    let mut map = params.make_map(&cfg, params.initial_nodes, seed);
    let placer = params.placer(scheme, seed ^ 0x9E37);
    let outcome = placer.place(&mut map, &cfg);
    (map, outcome, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deploy_reaches_full_coverage() {
        let p = ExpParams::quick();
        let (map, out, cfg) = deploy(&p, SchemeKind::Centralized, 1, 3);
        assert!(out.fully_covered);
        assert_eq!(map.count_below(cfg.k), 0);
    }

    #[test]
    fn paper_params_match_section_4() {
        let p = ExpParams::paper();
        assert_eq!(p.field_side, 100.0);
        assert_eq!(p.n_points, 2000);
        assert_eq!(p.initial_nodes, 200);
        assert_eq!(p.seeds, 5);
    }

    #[test]
    fn scaled_params_keep_paper_density() {
        let base = ExpParams::paper();
        let base_density = base.n_points as f64 / (base.field_side * base.field_side);
        for n in [2_000usize, 20_000, 200_000, 2_000_000] {
            let p = ExpParams::scaled(n);
            let density = p.n_points as f64 / (p.field_side * p.field_side);
            assert!(
                (density - base_density).abs() < 1e-9,
                "density drift at n={n}: {density} vs {base_density}"
            );
        }
        assert_eq!(ExpParams::scaled(2000).field_side, 100.0);
    }

    #[test]
    fn make_map_contains_initial_sensors() {
        let p = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(1);
        let map = p.make_map(&cfg, 30, 7);
        assert_eq!(map.n_active_sensors(), 30);
        assert_eq!(map.n_points(), p.n_points);
    }

    #[test]
    fn make_map_is_deterministic_in_seed() {
        let p = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(1);
        let a = p.make_map(&cfg, 20, 3).active_sensors();
        let b = p.make_map(&cfg, 20, 3).active_sensors();
        assert_eq!(a, b);
    }

    #[test]
    fn all_schemes_instantiate() {
        let p = ExpParams::quick();
        for s in SchemeKind::ALL {
            let placer = p.placer(s, 1);
            assert!(!placer.name().is_empty());
        }
    }
}
