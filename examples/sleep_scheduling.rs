//! Sleep scheduling: turning k-coverage into network lifetime.
//!
//! ```text
//! cargo run --release --example sleep_scheduling
//! ```
//!
//! The paper's third motivation for k-coverage (§1): with k sensors on
//! every point, most of them can sleep. This example deploys for
//! k = 1..4 and runs the endurance loop twice on each deployment: once
//! rotating disjoint 1-covering shifts agreed in-network, once with
//! every node always on. Both arms drain the same batteries on every
//! message and awake period; the printed extension is the ratio of
//! their lifetimes to the first unrecoverable coverage loss.

use decor::core::{
    run_endurance, CentralizedGreedy, CoverageMap, DeploymentConfig, EnduranceConfig, Placer,
};
use decor::geom::Aabb;
use decor::lds::halton_points;
use decor::net::RotationConfig;

fn main() {
    let field = Aabb::square(100.0);
    let rot = RotationConfig::default();
    println!(
        "k-coverage as an energy budget — battery {}, awake cost {}/period, sleep cost {}/period\n",
        rot.battery, rot.awake_cost, rot.sleep_cost
    );
    println!(
        "{:>3} {:>8} {:>8} {:>16} {:>16} {:>11}",
        "k", "sensors", "shifts", "rotating", "always-on", "extension"
    );
    for k in 1..=4u32 {
        let arm = |rotate: bool| {
            let cfg = DeploymentConfig {
                k,
                rotation: Some(rot),
                ..DeploymentConfig::default()
            };
            let mut map = CoverageMap::new(halton_points(2000, &field), &field, &cfg);
            assert!(CentralizedGreedy.place(&mut map, &cfg).fully_covered);
            let sensors = map.n_active_sensors();
            let e = EnduranceConfig {
                rotate,
                max_periods: 5_000,
                ..EnduranceConfig::default()
            };
            (
                sensors,
                run_endurance(&mut map, &CentralizedGreedy, &cfg, &e),
            )
        };
        let (sensors, rotating) = arm(true);
        let (_, always_on) = arm(false);
        println!(
            "{:>3} {:>8} {:>8} {:>9} periods {:>9} periods {:>10.2}x",
            k,
            sensors,
            rotating.shifts,
            rotating.lifetime_periods,
            always_on.lifetime_periods,
            rotating.extension_over(&always_on)
        );
    }
    println!("\na tight greedy deployment splits into fewer than k shifts (splitting a");
    println!("point's exactly-k coverers into k covers is a hard domatic-partition");
    println!("instance), but wherever it splits at all, rotation outlives always-on:");
    println!("higher k buys fault tolerance AND lifetime.");
}
