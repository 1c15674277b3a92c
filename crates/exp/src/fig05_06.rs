//! Figures 5 and 6 — example DECOR deployment and an uncovered (disaster)
//! area.
//!
//! Both are qualitative pictures in the paper; we render them as ASCII
//! (used by `examples/deployment_map.rs`) and report summary numbers.
//! Each figure deploys once ([`deploy_example`]) and draws its table and
//! pictures from that one map.

use crate::ascii_plot::scatter2;
use crate::common::{deploy, ExpParams};
use crate::table::Table;
use decor_core::{CoverageMap, DeploymentConfig, PlacementOutcome, SchemeKind};
use decor_geom::{Disk, Point};

/// The deployment both figures show: grid DECOR with small cells at
/// `k = 1` on the base seed's field.
pub fn deploy_example(params: &ExpParams) -> (CoverageMap, PlacementOutcome, DeploymentConfig) {
    deploy(params, SchemeKind::GridSmall, 1, params.base_seed)
}

/// Figure 5: the table of [`deploy_example`]'s deployment. Columns: k,
/// initial sensors, placed sensors, final coverage %.
pub fn run_deployment(map: &CoverageMap, out: &PlacementOutcome, cfg: &DeploymentConfig) -> Table {
    let mut t = Table::new(
        "fig05",
        "Example DECOR deployment (grid, small cell, k=1)",
        vec![
            "k".into(),
            "initial".into(),
            "placed".into(),
            "coverage_pct".into(),
        ],
    );
    t.push_row(vec![
        cfg.k as f64,
        out.initial_sensors as f64,
        out.placed.len() as f64,
        map.fraction_k_covered(cfg.k) * 100.0,
    ]);
    t
}

/// The disaster disc of §4.2: radius 24 at the field center (~17% of the
/// paper's 100×100 area).
pub fn disaster_disk(params: &ExpParams) -> Disk {
    Disk::new(
        Point::new(params.field_side / 2.0, params.field_side / 2.0),
        0.24 * params.field_side,
    )
}

/// Figure 6: strikes [`disaster_disk`] on `map`, deactivating every
/// active sensor inside it, and tabulates the damage. Columns: k, sensors
/// killed, % of points inside the disc, % of points still covered.
pub fn run_disaster(params: &ExpParams, map: &mut CoverageMap, cfg: &DeploymentConfig) -> Table {
    let mut t = Table::new(
        "fig06",
        "Uncovered area after a disaster (disc r=0.24·side at center), k=1",
        vec![
            "k".into(),
            "killed".into(),
            "points_in_disc_pct".into(),
            "coverage_after_pct".into(),
        ],
    );
    let disk = disaster_disk(params);
    let in_disc = map.points().iter().filter(|&&p| disk.contains(p)).count() as f64
        / map.n_points() as f64
        * 100.0;
    let mut killed = 0;
    for (sid, pos) in map.active_sensors() {
        if disk.contains(pos) {
            map.deactivate_sensor(sid);
            killed += 1;
        }
    }
    t.push_row(vec![
        cfg.k as f64,
        killed as f64,
        in_disc,
        map.fraction_k_covered(cfg.k) * 100.0,
    ]);
    t
}

/// The ASCII picture of either figure: the points still covered as dots
/// and the active sensors as `O`, so a disaster's hole shows blank.
pub fn render(params: &ExpParams, map: &CoverageMap) -> String {
    let alive: Vec<Point> = map.active_sensors().iter().map(|&(_, p)| p).collect();
    let covered: Vec<Point> = (0..map.n_points())
        .filter(|&i| map.coverage(i) >= 1)
        .map(|i| map.points()[i])
        .collect();
    scatter2(&params.field(), &covered, '.', &alive, 'O', 72, 28)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deployment_reaches_full_coverage() {
        let (map, out, cfg) = deploy_example(&ExpParams::quick());
        let t = run_deployment(&map, &out, &cfg);
        assert_eq!(t.rows[0][3], 100.0);
        assert!(t.rows[0][2] > 0.0, "some sensors must be placed");
    }

    #[test]
    fn disaster_uncovers_roughly_the_disc() {
        let p = ExpParams::quick();
        let (mut map, _, cfg) = deploy_example(&p);
        let t = run_disaster(&p, &mut map, &cfg);
        let in_disc = t.rows[0][2];
        let after = t.rows[0][3];
        assert!((12.0..=25.0).contains(&in_disc), "disc share {in_disc}");
        assert!(after < 100.0);
        // The hole cannot be larger than the disc plus a sensing-radius rim.
        assert!(after > 100.0 - in_disc - 15.0, "coverage after {after}");
        assert!(
            map.active_sensors()
                .iter()
                .all(|&(_, pos)| !disaster_disk(&p).contains(pos)),
            "no sensor survives inside the disc"
        );
    }

    #[test]
    fn renders_contain_sensors_and_points() {
        let p = ExpParams::quick();
        let (mut map, _, cfg) = deploy_example(&p);
        let dep = render(&p, &map);
        assert!(dep.contains('O') && dep.contains('.'));
        run_disaster(&p, &mut map, &cfg);
        let dis = render(&p, &map);
        assert!(dis.contains('O'));
        assert_ne!(dep, dis, "the hole must show");
    }
}
