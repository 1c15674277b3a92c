//! Endurance test tier — the ISSUE's acceptance criteria for distributed
//! set-k-cover rotation integrated with restoration:
//!
//! - at k = 3, lifetime to first unrecoverable coverage loss under
//!   rotation is at least 2× the always-on baseline;
//! - zero heartbeat false positives on scheduled-asleep nodes, with the
//!   suppression counter proving the three-state lifecycle was actually
//!   exercised;
//! - the endurance simulation is deterministic: bit-identical
//!   [`EnduranceReport`]s across 1/2/8 worker threads;
//! - the paper-scale endurance and lifetime studies reproduce their
//!   committed `results/*.csv` byte for byte.
//!
//! `ENDURANCE_MAX_PERIODS` caps the simulated horizon (the CI endurance
//! job sets it); the cap must stay well above the natural herd-death
//! time (~100 periods at default batteries) or the capped run reports
//! `ended_by_horizon` instead of a lifetime.

use decor::core::{run_endurance, EnduranceConfig, EnduranceReport, SchemeKind};
use decor::exp::common::{deploy_with, ExpParams};
use decor::exp::{ext_endurance, ext_lifetime, MatrixRunner};
use decor::geom::{Disk, Point};
use decor::net::RotationConfig;

/// The horizon cap: `ENDURANCE_MAX_PERIODS` when set (the CI endurance
/// job), a test-friendly default otherwise.
fn horizon() -> u64 {
    horizon_from(std::env::var("ENDURANCE_MAX_PERIODS").ok())
}

fn horizon_from(var: Option<String>) -> u64 {
    var.and_then(|v| v.parse().ok()).unwrap_or(5_000)
}

/// Runs one endurance arm on a fresh k-covered deployment.
fn endure(
    k: u32,
    seed: u64,
    rotate: bool,
    mutate: impl FnOnce(&mut EnduranceConfig),
) -> EnduranceReport {
    let params = ExpParams::quick();
    let (mut map, _, cfg) = deploy_with(&params, SchemeKind::Centralized, k, seed, |cfg| {
        cfg.rotation = Some(RotationConfig::default());
    });
    let mut e = EnduranceConfig {
        rotate,
        max_periods: horizon(),
        ..EnduranceConfig::default()
    };
    mutate(&mut e);
    run_endurance(&mut map, &decor::core::CentralizedGreedy, &cfg, &e)
}

#[test]
fn rotation_at_k3_at_least_doubles_lifetime() {
    let seed = 7;
    let on = endure(3, seed, false, |_| {});
    let rotated = endure(3, seed, true, |_| {});
    assert!(!on.ended_by_horizon, "baseline must die inside the horizon");
    assert!(
        !rotated.ended_by_horizon,
        "rotation must die inside the horizon"
    );
    assert!(rotated.shifts > 1, "k=3 must split into shifts");
    assert_eq!(on.false_positives, 0);
    assert_eq!(rotated.false_positives, 0, "a sleeper was declared dead");
    assert!(
        rotated.extension_over(&on) >= 2.0,
        "rotation must at least double lifetime: {} vs {} periods",
        rotated.lifetime_periods,
        on.lifetime_periods
    );
}

#[test]
fn sleeping_nodes_are_never_falsely_restored() {
    // A 2-period timeout guarantees every sleep stretch of the agreed
    // schedule crosses the naive-detector alarm threshold, so the
    // suppression counter proves the three-state lifecycle fired.
    let report = endure(3, 11, true, |e| e.timeout_periods = 2);
    assert_eq!(report.false_positives, 0);
    assert_eq!(report.extra_nodes, 0, "nothing to restore, nothing placed");
    assert!(
        report.sleeping_suppressed > 0,
        "no timeout ever crossed on a sleeper — suppression untested"
    );
}

#[test]
fn detected_disaster_heals_into_the_rotation() {
    let report = endure(3, 13, true, |e| {
        e.spare_budget = 80;
        e.disasters = vec![(5, Disk::new(Point::new(40.0, 40.0), 8.0))];
    });
    assert!(report.disaster_deaths > 0, "the disc must hit someone");
    assert!(report.restorations > 0, "the hole must be healed");
    assert!(report.reschedules > 0, "replacements re-enter the rotation");
    assert_eq!(report.false_positives, 0);
}

#[test]
fn endurance_reports_are_bit_identical_across_worker_counts() {
    let run_with = |threads: usize| -> Vec<EnduranceReport> {
        MatrixRunner::new(threads).replicas(3, 0xE2D, |i, seed| {
            endure(3, seed, i % 2 == 0, |e| e.max_periods = 500)
        })
    };
    let one = run_with(1);
    let two = run_with(2);
    let eight = run_with(8);
    assert_eq!(one, two, "2 workers diverged from sequential");
    assert_eq!(one, eight, "8 workers diverged from sequential");
}

#[test]
fn horizon_cap_parses_like_the_ci_job_sets_it() {
    assert_eq!(horizon_from(Some("120".into())), 120);
    assert_eq!(horizon_from(Some("not-a-number".into())), 5_000);
    assert_eq!(horizon_from(None), 5_000);
}

#[test]
fn capped_horizon_ends_an_immortal_run() {
    let report = endure(3, 17, true, |e| {
        e.max_periods = 40;
    });
    // 40 periods is far below herd death at default batteries: the cap,
    // not coverage loss, must end this run — exactly how the CI job's
    // ENDURANCE_MAX_PERIODS bounds wall-clock.
    assert!(report.ended_by_horizon);
    assert_eq!(report.lifetime_periods, 40);
}

/// `results/ext_endurance.csv` is the committed referee for the
/// rotating-vs-always-on study under disaster, chaos and spares: the
/// paper-scale table must reproduce it byte for byte.
#[test]
fn ext_endurance_table_matches_the_committed_csv() {
    let csv = ext_endurance::run(&ExpParams::paper()).to_csv();
    assert_eq!(csv, include_str!("../results/ext_endurance.csv"));
}

/// `results/ext_lifetime.csv` is the committed referee for the lifetime
/// sweep over k: the paper-scale table must reproduce it byte for byte.
#[test]
fn ext_lifetime_table_matches_the_committed_csv() {
    let csv = ext_lifetime::run(&ExpParams::paper()).to_csv();
    assert_eq!(csv, include_str!("../results/ext_lifetime.csv"));
}
