//! Extension — clustered initial deployments.
//!
//! The paper's experiments start from *uniform* random fields, but real
//! deployments cluster (§1: sensors "deployed randomly", e.g. dropped
//! from a vehicle along a path). This experiment seeds the field with
//! Gaussian clusters instead of uniform noise and asks whether the
//! restoration schemes degrade: they should not — a clustered start is
//! just a differently-shaped coverage hole.
//!
//! Reported per scheme: nodes placed from a uniform start vs a clustered
//! start (same sensor budget), and the clustered/uniform ratio. Expected
//! near 1 for the adaptive schemes; the greedy refills whatever shape the
//! hole has.

use crate::common::ExpParams;
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::{CoverageMap, DeploymentConfig, SchemeKind};
use decor_geom::Point;
use decor_lds::halton_points;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of cluster centers the clustered generator uses.
pub const CLUSTERS: usize = 5;

/// Cluster spread (standard deviation in field units).
pub const SPREAD: f64 = 8.0;

/// Generates `n` sensor positions in `CLUSTERS` Gaussian blobs
/// (Box–Muller, clamped to the field), deterministic in `seed`.
pub fn clustered_positions(params: &ExpParams, n: usize, seed: u64) -> Vec<Point> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xC105);
    let field = params.field();
    let centers: Vec<Point> = (0..CLUSTERS)
        .map(|_| {
            Point::new(
                rng.gen_range(0.15..0.85) * params.field_side,
                rng.gen_range(0.15..0.85) * params.field_side,
            )
        })
        .collect();
    (0..n)
        .map(|i| {
            let c = centers[i % CLUSTERS];
            // Box–Muller.
            let u1: f64 = rng.gen_range(1e-12..1.0);
            let u2: f64 = rng.gen::<f64>();
            let r = (-2.0 * u1.ln()).sqrt() * SPREAD;
            let p = Point::new(
                c.x + r * (std::f64::consts::TAU * u2).cos(),
                c.y + r * (std::f64::consts::TAU * u2).sin(),
            );
            field.clamp(p)
        })
        .collect()
}

fn nodes_needed(params: &ExpParams, scheme: SchemeKind, k: u32, seed: u64, clustered: bool) -> f64 {
    let cfg = DeploymentConfig::with_k(k);
    let field = params.field();
    let mut map = CoverageMap::new(halton_points(params.n_points, &field), &field, &cfg);
    let initial = if clustered {
        clustered_positions(params, params.initial_nodes, seed)
    } else {
        decor_lds::random_points(params.initial_nodes, &field, seed)
    };
    for p in initial {
        map.add_sensor(p, cfg.rs);
    }
    let out = params.placer(scheme, seed ^ 0x9E37).place(&mut map, &cfg);
    assert!(
        out.fully_covered,
        "{} failed (clustered={clustered})",
        scheme.label()
    );
    out.placed.len() as f64
}

/// Runs the comparison at k = 2 for three schemes. Columns: scheme index
/// (0 = centralized, 1 = grid small, 2 = voronoi big), uniform-start
/// nodes, clustered-start nodes, ratio.
pub fn run(params: &ExpParams) -> Table {
    let schemes = [
        SchemeKind::Centralized,
        SchemeKind::GridSmall,
        SchemeKind::VoronoiBig,
    ];
    let mut t = Table::new(
        "ext_clustered",
        "Clustered vs uniform initial deployments (k=2; 0=Centralized, 1=Grid small, 2=Voronoi big)",
        vec![
            "scheme".into(),
            "uniform_start_nodes".into(),
            "clustered_start_nodes".into(),
            "ratio".into(),
        ],
    );
    for (si, &scheme) in schemes.iter().enumerate() {
        let uniform = mean(&MatrixRunner::auto().replicas(
            params.seeds,
            params.base_seed ^ 0xC1,
            |_, seed| nodes_needed(params, scheme, 2, seed, false),
        ));
        let clustered = mean(&MatrixRunner::auto().replicas(
            params.seeds,
            params.base_seed ^ 0xC1,
            |_, seed| nodes_needed(params, scheme, 2, seed, true),
        ));
        t.push_row(vec![si as f64, uniform, clustered, clustered / uniform]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clustered_positions_really_cluster() {
        let params = ExpParams::quick();
        let pts = clustered_positions(&params, 100, 3);
        assert_eq!(pts.len(), 100);
        assert!(pts.iter().all(|p| params.field().contains(*p)));
        // Mean nearest-neighbor distance far below uniform expectation
        // (~0.5/sqrt(n/area) = ~5 for 100 points on 100x100).
        let nn: Vec<f64> = pts
            .iter()
            .enumerate()
            .map(|(i, p)| {
                pts.iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, q)| p.dist(*q))
                    .fold(f64::INFINITY, f64::min)
            })
            .collect();
        let mean_nn = nn.iter().sum::<f64>() / nn.len() as f64;
        assert!(mean_nn < 4.0, "clusters expected, mean nn {mean_nn}");
    }

    #[test]
    fn schemes_handle_clustered_starts() {
        let params = ExpParams::quick();
        let t = run(&params);
        for row in &t.rows {
            // The run asserts full coverage internally; here check the
            // cost ratio stays sane (clustered starts waste some initial
            // sensors, so the restorer may need a few more — but not 2x).
            assert!(
                (0.7..=1.8).contains(&row[3]),
                "clustered/uniform ratio out of band: {row:?}"
            );
        }
    }
}
