//! Chaos tier: fault-plan fuzzing over the distributed placers.
//!
//! Random bounded [`FaultPlan`]s (crashes — including leaders mid-round —
//! partitions, blackholed links, latency spikes, energy drains) are
//! injected into grid and Voronoi restoration runs with the invariant
//! checker attached. Every plan must leave the checker green and the
//! field fully k-covered once the faults cease.
//!
//! The vendored proptest shim cannot shrink, so a failing plan is
//! delta-debugged here (`decor::net::shrink_plan`) down to a locally
//! minimal script, which the panic message prints together with a
//! `decor-cli` replay command. See tests/README.md ("The chaos tier")
//! for the workflow.

#[path = "support/trace_diff.rs"]
mod trace_diff;

use decor::core::{
    CoverageMap, DeploymentConfig, GridDecor, HoleHealing, InvariantChecker, PlacementOutcome,
    Placer, VoronoiDecor,
};
use decor::geom::Aabb;
use decor::lds::{halton_points, random_points};
use decor::net::{shrink_plan, FaultPlan};
use decor::trace::TraceHandle;
use proptest::prelude::*;
use trace_diff::first_divergence;

/// The golden-trace scenario, scaled up to eight initial sensors so the
/// generator's crash budget (half the population) can kill four of them.
const FIELD_SIDE: f64 = 30.0;
const N_POINTS: usize = 150;
const INITIAL_SENSORS: usize = 8;
const SEED: u64 = 11;
/// Generated fault plans land in `[0, HORIZON)` transport ticks with
/// cleanup at `HORIZON`; the placers force remaining batches once the
/// protocol goes quiet, so any horizon terminates.
const HORIZON: u64 = 600;

fn scenario_map(cfg: &DeploymentConfig) -> CoverageMap {
    let field = Aabb::square(FIELD_SIDE);
    let mut map = CoverageMap::new(halton_points(N_POINTS, &field), &field, cfg);
    for p in random_points(INITIAL_SENSORS, &field, SEED) {
        map.add_sensor(p, cfg.rs);
    }
    map
}

/// Runs `placer` on the canonical scenario under `plan` with the
/// invariant checker attached.
fn chaos_run(placer: &dyn Placer, plan: &FaultPlan) -> (PlacementOutcome, InvariantChecker) {
    let mut cfg = DeploymentConfig::with_k(1);
    cfg.chaos = Some(plan.clone());
    cfg.invariants = InvariantChecker::enabled();
    let mut map = scenario_map(&cfg);
    let out = placer.place(&mut map, &cfg);
    (out, cfg.invariants)
}

/// The fuzzed property: why did the run fail, or `None` when it held.
/// Deterministic in `plan`, so the shrinker can re-evaluate it freely.
fn plan_failure(placer: &dyn Placer, plan: &FaultPlan) -> Option<String> {
    let (out, checker) = chaos_run(placer, plan);
    let violations = checker.violations();
    if !violations.is_empty() {
        return Some(format!(
            "invariant violations:\n  {}",
            violations.join("\n  ")
        ));
    }
    if !out.fully_covered {
        return Some(format!(
            "restoration did not reach full k-coverage ({} placed, {} rounds)",
            out.placed.len(),
            out.rounds
        ));
    }
    None
}

/// Shrinks a failing plan to a locally minimal one and panics with the
/// minimal script plus a copy-paste replay command. When
/// `CHAOS_PLAN_OUT` names a file, the minimal plan is also written
/// there so CI can upload it as an artifact.
fn fail_with_replay(placer: &dyn Placer, scheme_flag: &str, plan: &FaultPlan, why: &str) -> ! {
    let minimal = shrink_plan(plan, |p| plan_failure(placer, p).is_some());
    if let Some(path) = std::env::var_os("CHAOS_PLAN_OUT") {
        let reason: String = why.lines().map(|l| format!("# {l}\n")).collect();
        let body = format!("# scheme: {scheme_flag}\n{reason}{}", minimal.to_text());
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("CHAOS_PLAN_OUT: cannot write {path:?}: {e}");
        }
    }
    panic!(
        "chaos property failed: {why}\n\
         minimal failing plan ({} of {} faults):\n{}\n\
         replay: save the plan above as plan.txt and run\n  \
         cargo run --release -p decor-exp --bin decor-cli -- deploy --scheme {scheme_flag} \
         --k 1 --field {FIELD_SIDE} --points {N_POINTS} --initial {INITIAL_SENSORS} \
         --seed {SEED} --chaos-plan plan.txt",
        minimal.len(),
        plan.len(),
        minimal.to_text().trim_end(),
    );
}

fn check_scheme(placer: &dyn Placer, scheme_flag: &str, seed: u64) {
    let plan = FaultPlan::generate(seed, INITIAL_SENSORS, HORIZON);
    if let Some(why) = plan_failure(placer, &plan) {
        fail_with_replay(placer, scheme_flag, &plan, &why);
    }
}

proptest! {
    // CI runs 256+ cases per scheme via PROPTEST_CASES (see the `chaos`
    // job in .github/workflows/ci.yml); 64 keeps local runs snappy.
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn grid_survives_random_fault_plans(seed in any::<u64>()) {
        check_scheme(&GridDecor { cell_size: 10.0 }, "grid-big", seed);
    }

    #[test]
    fn voronoi_survives_random_fault_plans(seed in any::<u64>()) {
        check_scheme(&VoronoiDecor { rc: 8.0 }, "voronoi-small", seed);
    }

    #[test]
    fn holes_survives_random_fault_plans(seed in any::<u64>()) {
        check_scheme(&HoleHealing, "holes", seed);
    }
}

/// End-to-end shrinking: a noisy plan in which exactly one fault is
/// decisive must delta-debug down to that fault alone. The property
/// here — "the chaos run places more sensors than the fault-free
/// baseline" — holds for any plan whose crash actually uncovers points,
/// and for none of the noise events.
#[test]
fn shrinking_isolates_the_decisive_fault() {
    let placer = GridDecor { cell_size: 10.0 };
    let baseline = {
        let cfg = DeploymentConfig::with_k(1);
        let mut map = scenario_map(&cfg);
        let out = placer.place(&mut map, &cfg);
        assert!(out.fully_covered);
        out.placed.len()
    };
    let plan = FaultPlan::parse(
        "0 latency 3\n\
         1 drain 2 0.5\n\
         2 crash 3\n\
         4 drain 5 0.25\n\
         6 latency 0\n",
    )
    .unwrap();
    let mut fails = |p: &FaultPlan| chaos_run(&placer, p).0.placed.len() > baseline;
    assert!(fails(&plan), "the crash must force extra placements");
    let minimal = shrink_plan(&plan, &mut fails);
    assert!(fails(&minimal), "shrinking must preserve the failure");
    assert!(
        minimal.len() < plan.len(),
        "shrinking must drop the noise events, kept:\n{}",
        minimal.to_text()
    );
    for i in 0..minimal.len() {
        let mut rest = minimal.events().to_vec();
        rest.remove(i);
        assert!(
            !fails(&FaultPlan::new(rest)),
            "minimal plan is not 1-minimal: event {i} of\n{}",
            minimal.to_text()
        );
    }
}

/// Chaos at 100× the seed field area (ROADMAP item 1): a 300×300 field,
/// lattice-covered, with a deterministic fault plan crashing sensors
/// spread across the field. The run must stay invariant-green, restore
/// full coverage, and leave the hierarchical coverage core consistent.
#[test]
fn grid_survives_chaos_on_large_field() {
    use decor::geom::Point;
    let field = Aabb::square(300.0);
    let mut cfg = DeploymentConfig::with_k(1);
    cfg.invariants = InvariantChecker::enabled();
    cfg.chaos = Some(
        FaultPlan::parse(
            "0 crash 12\n\
             3 crash 700\n\
             5 latency 4\n\
             8 crash 1803\n\
             11 crash 2222\n\
             14 crash 3599\n",
        )
        .unwrap(),
    );
    let mut map = CoverageMap::new(halton_points(15_000, &field), &field, &cfg);
    for i in 0..60 {
        for j in 0..60 {
            map.add_sensor(
                Point::new(2.5 + 5.0 * i as f64, 2.5 + 5.0 * j as f64),
                cfg.rs,
            );
        }
    }
    assert_eq!(map.count_below(1), 0, "the lattice must cover the field");
    let placer = GridDecor { cell_size: 10.0 };
    let out = placer.place(&mut map, &cfg);
    assert!(out.fully_covered, "restoration must converge under chaos");
    cfg.invariants.assert_green();
    map.verify_consistency();
}

/// Every crash scheduled while its victim is still alive must appear in
/// the checker's dead-set — the bookkeeping the election and placement
/// invariants hang off.
#[test]
fn checker_accounts_for_every_effective_crash() {
    let placer = VoronoiDecor { rc: 8.0 };
    let plan = FaultPlan::parse("0 crash 1\n3 crash 6\n3 crash 1\n80 crash 4\n").unwrap();
    let (out, checker) = chaos_run(&placer, &plan);
    assert!(out.fully_covered);
    checker.assert_green();
    // The duplicate crash of node 1 fires on a corpse and is dropped.
    assert_eq!(checker.dead(), vec![1, 4, 6]);
}

/// Initial sensors may sense farther than the Voronoi scheme's `rc`: here
/// four `rs = 20` sensors at `rc = 8`, crashed one by one at t = 1–4. A
/// crash must drop every cached ownership out to the victim's own sensing
/// radius, not just `rc`; in debug builds invariant 5 cross-checks each
/// cached entry against a fresh recomputation every round.
#[test]
fn voronoi_cache_survives_crashes_of_wide_sensors() {
    use decor::geom::Point;
    let mut cfg = DeploymentConfig::with_k(1);
    cfg.invariants = InvariantChecker::enabled();
    cfg.chaos = Some(FaultPlan::parse("1 crash 8\n2 crash 9\n3 crash 10\n4 crash 11\n").unwrap());
    let mut map = scenario_map(&cfg);
    for (x, y) in [(7.5, 7.5), (22.5, 7.5), (7.5, 22.5), (22.5, 22.5)] {
        map.add_sensor(Point::new(x, y), 20.0);
    }
    let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
    assert!(out.fully_covered);
    assert_eq!(cfg.invariants.dead(), vec![8, 9, 10, 11]);
    cfg.invariants.assert_green();
}

/// Differential satellite: attaching an *empty* fault plan must not
/// perturb the simulation at all — the JSONL traces are bit-identical.
/// The chaos engine rides the transport clock, so this pins both the
/// "no engine constructed" and "engine constructed but never fires"
/// paths to the same event stream.
fn traced_run(placer: &dyn Placer, chaos: Option<FaultPlan>) -> String {
    let mut cfg = DeploymentConfig::with_k(1);
    cfg.trace = TraceHandle::jsonl_writer();
    cfg.chaos = chaos;
    let mut map = scenario_map(&cfg);
    let out = placer.place(&mut map, &cfg);
    assert!(out.fully_covered, "scenario must converge");
    cfg.trace.jsonl().expect("JSONL sink attached")
}

fn assert_empty_plan_is_inert(placer: &dyn Placer) {
    let without = traced_run(placer, None);
    let with_empty = traced_run(placer, Some(FaultPlan::empty()));
    if let Some(d) = first_divergence(&without, &with_empty) {
        panic!("empty fault plan perturbed the trace: {d}");
    }
}

#[test]
fn grid_empty_plan_trace_is_bit_identical() {
    assert_empty_plan_is_inert(&GridDecor { cell_size: 10.0 });
}

#[test]
fn voronoi_empty_plan_trace_is_bit_identical() {
    assert_empty_plan_is_inert(&VoronoiDecor { rc: 8.0 });
}
