//! Extension — endurance under rotation, disasters and chaos.
//!
//! The paper evaluates a single failure event on an always-on network; a
//! long-lived deployment rotates sleep shifts, drains batteries on every
//! message, suffers area disasters and node crashes, and heals itself
//! from a bounded spare budget. This experiment runs the full endurance
//! loop ([`decor_core::run_endurance`]) twice per replica — duty-cycled
//! and always-on — over the same deployment, disaster script and chaos
//! plan, and compares:
//!
//! - **lifetime to first unrecoverable coverage loss** — rotation must
//!   outlive always-on by roughly the coverage degree k;
//! - **false positives** — must be zero: scheduled sleepers are protected
//!   by the three-state lifecycle, so no battery is ever wasted restoring
//!   a node that was merely asleep;
//! - **healing** — the scripted disaster is detected in-network, spares
//!   refill the hole, and replacements are folded into the rotation
//!   (reschedules > 0 on the rotating arm).

use crate::common::{deploy_with, ExpParams};
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::{run_endurance, EnduranceConfig, EnduranceReport, SchemeKind};
use decor_geom::{Disk, Point};
use decor_lds::vdc::splitmix64;
use decor_net::{FaultPlan, RotationConfig};

/// Coverage requirement of the study (the ISSUE's acceptance point).
pub const K: u32 = 3;

/// Disaster disc radius — local enough that the spare budget can refill
/// the hole in one restoration episode.
pub const DISASTER_R: f64 = 8.0;

/// The period the scripted disaster strikes at.
pub const DISASTER_PERIOD: u64 = 5;

/// Replacement sensors the restoration side may spend per run.
pub const SPARES: usize = 80;

/// Horizon cap (both arms die well before this under default batteries).
pub const MAX_PERIODS: u64 = 5_000;

/// A deterministic disaster center for replica `seed`, kept away from
/// the field border so the disc stays inside.
pub fn disaster_center(params: &ExpParams, seed: u64) -> Point {
    let a = splitmix64(seed ^ 0xD15A);
    let b = splitmix64(a);
    let margin = DISASTER_R;
    let span = params.field_side - 2.0 * margin;
    Point::new(
        margin + (a >> 11) as f64 / (1u64 << 53) as f64 * span,
        margin + (b >> 11) as f64 / (1u64 << 53) as f64 * span,
    )
}

/// One replica: runs both arms on identically-built deployments and the
/// same disaster/chaos script.
pub fn endurance_pair(params: &ExpParams, seed: u64) -> (EnduranceReport, EnduranceReport) {
    // One early crash, scripted on the transport tick clock.
    let chaos = FaultPlan::parse("2000 crash 1\n").expect("literal plan parses");
    let e = EnduranceConfig {
        spare_budget: SPARES,
        max_periods: MAX_PERIODS,
        disasters: vec![(
            DISASTER_PERIOD,
            Disk::new(disaster_center(params, seed), DISASTER_R),
        )],
        ..EnduranceConfig::default()
    };
    both_arms(params, K, seed, Some(chaos), &e)
}

/// The two arms of an endurance replica at coverage requirement `k`:
/// each deploys centralized DECOR afresh with the default rotation knobs
/// and the chaos plan `chaos`, then runs [`run_endurance`] under `e`,
/// always-on first, then rotating.
pub(crate) fn both_arms(
    params: &ExpParams,
    k: u32,
    seed: u64,
    chaos: Option<FaultPlan>,
    e: &EnduranceConfig,
) -> (EnduranceReport, EnduranceReport) {
    let arm = |rotate: bool| {
        let (mut map, _, cfg) = deploy_with(params, SchemeKind::Centralized, k, seed, |cfg| {
            cfg.rotation = Some(RotationConfig::default());
            cfg.chaos = chaos.clone();
        });
        let e = EnduranceConfig {
            rotate,
            ..e.clone()
        };
        run_endurance(&mut map, &decor_core::CentralizedGreedy, &cfg, &e)
    };
    (arm(false), arm(true))
}

/// Runs the endurance study. One row per arm (always-on first), columns
/// averaged over the replicas.
pub fn run(params: &ExpParams) -> Table {
    let mut t = Table::new(
        "ext_endurance",
        format!("Endurance with disaster (r={DISASTER_R}) + chaos crash, spares={SPARES}, k={K}"),
        vec![
            "rotating".into(),
            "lifetime_periods".into(),
            "battery_deaths".into(),
            "disaster_deaths".into(),
            "chaos_deaths".into(),
            "detected_deaths".into(),
            "sleeping_suppressed".into(),
            "false_positives".into(),
            "restorations".into(),
            "extra_nodes".into(),
        ],
    );
    let pairs = MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0xE7D, |_, seed| {
        endurance_pair(params, seed)
    });
    for (rotating, pick) in [
        (
            0.0,
            Box::new(|p: &(EnduranceReport, EnduranceReport)| p.0.clone())
                as Box<dyn Fn(&(EnduranceReport, EnduranceReport)) -> EnduranceReport>,
        ),
        (
            1.0,
            Box::new(|p: &(EnduranceReport, EnduranceReport)| p.1.clone()),
        ),
    ] {
        let arm: Vec<EnduranceReport> = pairs.iter().map(&pick).collect();
        let col =
            |f: &dyn Fn(&EnduranceReport) -> f64| mean(&arm.iter().map(f).collect::<Vec<_>>());
        t.push_row(vec![
            rotating,
            col(&|r| r.lifetime_periods as f64),
            col(&|r| r.battery_deaths as f64),
            col(&|r| r.disaster_deaths as f64),
            col(&|r| r.chaos_deaths as f64),
            col(&|r| r.detected_deaths as f64),
            col(&|r| r.sleeping_suppressed as f64),
            col(&|r| r.false_positives as f64),
            col(&|r| r.restorations as f64),
            col(&|r| r.extra_nodes as f64),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_outlives_always_on_through_disaster_and_chaos() {
        let params = ExpParams::quick();
        let (on, rotated) = endurance_pair(&params, params.base_seed);
        assert!(rotated.shifts > 1, "k=3 must split into shifts");
        assert_eq!(on.false_positives, 0);
        assert_eq!(rotated.false_positives, 0, "sleepers declared dead");
        assert!(
            rotated.sleeping_suppressed > 0,
            "suppression never exercised"
        );
        assert!(rotated.chaos_deaths > 0, "the scripted crash must land");
        assert!(
            rotated.extension_over(&on) >= 2.0,
            "rotation must at least double lifetime: {} vs {}",
            rotated.lifetime_periods,
            on.lifetime_periods
        );
    }

    #[test]
    fn spares_heal_the_disaster_into_the_rotation() {
        let params = ExpParams::quick();
        let (_, rotated) = endurance_pair(&params, params.base_seed);
        assert!(rotated.disaster_deaths > 0, "the disc must hit someone");
        assert!(rotated.restorations > 0, "the hole must be healed");
        assert!(rotated.extra_nodes > 0, "healing spends spares");
        assert!(
            rotated.reschedules > 0,
            "replacements must re-enter the rotation"
        );
    }

    #[test]
    fn disaster_centers_are_deterministic_and_inside() {
        let params = ExpParams::quick();
        let a = disaster_center(&params, 5);
        assert_eq!(a, disaster_center(&params, 5));
        for seed in 0..8 {
            let c = disaster_center(&params, seed);
            assert!(params.field().contains(c));
        }
    }
}
