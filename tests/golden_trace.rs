//! Golden-trace regression tests.
//!
//! Each scenario runs a placer with a JSONL trace sink attached and
//! compares the canonical trace line-for-line against a fixture
//! committed under `tests/fixtures/`. Any behavioral drift — a message
//! sent in a different order, an election resolving differently, a
//! placement moving by one point — fails with the differ's
//! first-divergence report.
//!
//! Regenerating fixtures is legitimate ONLY when a change intentionally
//! alters simulation behavior (see tests/README.md). To regenerate:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_trace
//! ```

#[path = "support/trace_diff.rs"]
mod trace_diff;

use decor::core::{
    run_endurance, CentralizedGreedy, CoverageMap, DeploymentConfig, EnduranceConfig, GridDecor,
    HoleHealing, InvariantChecker, LinkConfig, Placer, VoronoiDecor,
};
use decor::exp::jsonio::Json;
use decor::geom::{Aabb, Disk, Point};
use decor::lds::{halton_points, random_points};
use decor::net::{FaultPlan, RotationConfig};
use decor::trace::TraceHandle;
use std::path::PathBuf;
use trace_diff::first_divergence;

/// A 30×30 field split by the grid scheme into 3×3 cells of edge 10.
const FIELD_SIDE: f64 = 30.0;
const N_POINTS: usize = 150;
const INITIAL_SENSORS: usize = 4;
const SEED: u64 = 11;

/// Runs `placer` on the canonical 3×3-cell scenario and returns the
/// JSONL trace of the run.
fn run_scenario(placer: &dyn Placer, loss: Option<f64>) -> String {
    let field = Aabb::square(FIELD_SIDE);
    let mut cfg = DeploymentConfig::with_k(1);
    if let Some(rate) = loss {
        cfg.link = LinkConfig::lossy(rate, 23);
    }
    cfg.trace = TraceHandle::jsonl_writer();
    let mut map = CoverageMap::new(halton_points(N_POINTS, &field), &field, &cfg);
    for p in random_points(INITIAL_SENSORS, &field, SEED) {
        map.add_sensor(p, cfg.rs);
    }
    let out = placer.place(&mut map, &cfg);
    assert!(out.fully_covered, "scenario must converge");
    cfg.trace.jsonl().expect("JSONL sink attached")
}

fn fixture_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `got` against the committed fixture, or rewrites the fixture
/// when `UPDATE_GOLDEN=1` is set.
fn assert_matches_fixture(name: &str, got: &str) {
    let path = fixture_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some_and(|v| v == "1") {
        std::fs::write(&path, got).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        eprintln!("updated {}", path.display());
        return;
    }
    let want = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "{}: {e}\nrun `UPDATE_GOLDEN=1 cargo test --test golden_trace` \
             to (re)create fixtures",
            path.display()
        )
    });
    if let Some(d) = first_divergence(&want, got) {
        panic!(
            "{name}: trace drifted from the committed golden fixture.\n{d}\n\
             If this change is intentional, regenerate with \
             `UPDATE_GOLDEN=1 cargo test --test golden_trace` \
             and explain the behavioral change in the commit."
        );
    }
}

#[test]
fn grid_3x3_zero_loss_matches_golden() {
    let trace = run_scenario(&GridDecor { cell_size: 10.0 }, None);
    assert_matches_fixture("grid_3x3_loss0.jsonl", &trace);
}

#[test]
fn grid_3x3_20pct_loss_matches_golden() {
    let trace = run_scenario(&GridDecor { cell_size: 10.0 }, Some(0.2));
    assert_matches_fixture("grid_3x3_loss20.jsonl", &trace);
}

#[test]
fn voronoi_3x3_zero_loss_matches_golden() {
    let trace = run_scenario(&VoronoiDecor { rc: 8.0 }, None);
    assert_matches_fixture("voronoi_3x3_loss0.jsonl", &trace);
}

#[test]
fn voronoi_3x3_20pct_loss_matches_golden() {
    let trace = run_scenario(&VoronoiDecor { rc: 8.0 }, Some(0.2));
    assert_matches_fixture("voronoi_3x3_loss20.jsonl", &trace);
}

#[test]
fn holes_3x3_zero_loss_matches_golden() {
    let trace = run_scenario(&HoleHealing, None);
    assert_matches_fixture("holes_3x3_loss0.jsonl", &trace);
}

/// Runs `placer` on the canonical scenario over a 20%-loss link under the
/// scripted fault `plan`, with the invariant checker attached, and
/// returns the JSONL trace. The run must converge with no violation.
fn run_chaos_scenario(placer: &dyn Placer, plan: &str) -> String {
    let field = Aabb::square(FIELD_SIDE);
    let mut cfg = DeploymentConfig::with_k(1);
    cfg.link = LinkConfig::lossy(0.2, 23);
    cfg.chaos = Some(FaultPlan::parse(plan).unwrap());
    cfg.invariants = InvariantChecker::enabled();
    cfg.trace = TraceHandle::jsonl_writer();
    let mut map = CoverageMap::new(halton_points(N_POINTS, &field), &field, &cfg);
    for p in random_points(INITIAL_SENSORS, &field, SEED) {
        map.add_sensor(p, cfg.rs);
    }
    let out = placer.place(&mut map, &cfg);
    assert!(out.fully_covered, "placer must out-place the fault plan");
    assert!(
        cfg.invariants.violations().is_empty(),
        "invariants: {:?}",
        cfg.invariants.violations()
    );
    cfg.trace.jsonl().expect("JSONL sink attached")
}

/// The hole healer under a scripted chaos plan on a 20%-loss link, with
/// the invariant checker attached: two of the four initial sensors crash
/// mid-restoration and the healer must route around its own repairs,
/// bit-reproducibly. (The healer itself is message-free — the lossy link
/// exercises the accounting mirror, not a protocol.)
#[test]
fn holes_chaos_20pct_loss_matches_golden() {
    let trace = run_chaos_scenario(&HoleHealing, "0 crash 1\n3 crash 3\n5 latency 2\n");
    assert_matches_fixture("holes_chaos_loss20.jsonl", &trace);
}

/// The distributed placers' round protocol under chaos. The plan crashes
/// an initial sensor at round start and another mid-flush, then leaves
/// faults pending once the field is covered, so the runs also force the
/// next fault batch after a covered round and at a stall, retire the
/// crash that batch brings, and (for the grid) count a notice to a
/// crashed leader as one multi-hop message.
const PROTOCOL_CHAOS_PLAN: &str = "0 crash 1\n3 crash 3\n5 latency 2\n400 latency 0\n800 crash 2\n";

#[test]
fn grid_chaos_20pct_loss_matches_golden() {
    let trace = run_chaos_scenario(&GridDecor { cell_size: 10.0 }, PROTOCOL_CHAOS_PLAN);
    assert_matches_fixture("grid_chaos_loss20.jsonl", &trace);
}

#[test]
fn voronoi_chaos_20pct_loss_matches_golden() {
    let trace = run_chaos_scenario(&VoronoiDecor { rc: 8.0 }, PROTOCOL_CHAOS_PLAN);
    assert_matches_fixture("voronoi_chaos_loss20.jsonl", &trace);
}

/// Restoration at 100× the seed field area: a 300×300 field (15k points,
/// seed density) pre-covered by a sensor lattice, with an area failure
/// punched at the center. Only the damaged area acts, so the fixture
/// stays small even though the field is two orders of magnitude bigger —
/// the behavior the hierarchical coverage core must not change.
#[test]
fn voronoi_large_field_restoration_matches_golden() {
    let side = 300.0;
    let field = Aabb::square(side);
    let mut cfg = DeploymentConfig::with_k(1);
    cfg.trace = TraceHandle::jsonl_writer();
    let mut map = CoverageMap::new(halton_points(15_000, &field), &field, &cfg);
    let hole = Point::new(150.0, 150.0);
    let mut victims = Vec::new();
    for i in 0..60 {
        for j in 0..60 {
            let p = Point::new(2.5 + 5.0 * i as f64, 2.5 + 5.0 * j as f64);
            let id = map.add_sensor(p, cfg.rs);
            if p.dist(hole) <= 15.0 {
                victims.push(id);
            }
        }
    }
    assert_eq!(map.count_below(1), 0, "the lattice must cover the field");
    for id in victims {
        map.deactivate_sensor(id);
    }
    assert!(map.count_below(1) > 0, "the hole must uncover points");
    let out = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
    assert!(out.fully_covered, "restoration must converge");
    map.verify_consistency();
    let trace = cfg.trace.jsonl().expect("JSONL sink attached");
    assert_matches_fixture("voronoi_large_restore.jsonl", &trace);
}

/// Rotation + failure endurance: a compact k=3 deployment duty-cycles
/// its agreed shifts, a scripted disaster kills part of one stack at
/// period 1, neighbors detect the silence in-network, and the rotation
/// carries on to the horizon. The fixture pins the whole lifecycle
/// stream — shift boundaries, sleep/wake transitions, battery-drain
/// summaries, the failure and its heartbeat-miss detection — so any
/// drift in schedule agreement, rotation order or detector behavior
/// shows up as a first-divergence report.
#[test]
fn endurance_rotation_disaster_matches_golden() {
    let field = Aabb::square(FIELD_SIDE);
    let mut cfg = DeploymentConfig::with_k(3);
    // A short comms radius keeps the neighbor graph (and the fixture)
    // sparse while staying connected across the dense stacks.
    cfg.rc = 5.0;
    let mut map = CoverageMap::new(halton_points(60, &field), &field, &cfg);
    CentralizedGreedy.place(&mut map, &cfg);
    assert_eq!(map.count_below(3), 0, "scenario must start 3-covered");
    // Trace only the endurance loop, not the deployment placement, and
    // check invariant 6 (the mirror against the map) every period.
    cfg.rotation = Some(RotationConfig::default());
    cfg.trace = TraceHandle::jsonl_writer();
    cfg.invariants = InvariantChecker::enabled();
    let e = EnduranceConfig {
        rotate: true,
        max_periods: 4,
        timeout_periods: 2,
        disasters: vec![(1, Disk::new(Point::new(10.0, 12.0), 1.5))],
        ..EnduranceConfig::default()
    };
    let report = run_endurance(&mut map, &CentralizedGreedy, &cfg, &e);
    assert!(report.shifts > 1, "the deployment must actually rotate");
    assert!(report.disaster_deaths > 0, "the disc must hit someone");
    assert!(report.detected_deaths > 0, "the death must be detected");
    assert!(report.ended_by_horizon, "the run must survive the disaster");
    assert_eq!(report.false_positives, 0);
    cfg.invariants.assert_green();
    let trace = cfg.trace.jsonl().expect("JSONL sink attached");
    assert_matches_fixture("endurance_rotation.jsonl", &trace);
}

#[test]
fn traced_runs_replay_with_zero_divergence() {
    // Re-running the same scenario with the same seed must reproduce the
    // trace bit-for-bit — the replayability guarantee golden fixtures
    // rest on.
    for loss in [None, Some(0.2)] {
        let a = run_scenario(&GridDecor { cell_size: 10.0 }, loss);
        let b = run_scenario(&GridDecor { cell_size: 10.0 }, loss);
        assert!(
            first_divergence(&a, &b).is_none(),
            "grid replay diverged (loss={loss:?})"
        );
        let a = run_scenario(&VoronoiDecor { rc: 8.0 }, loss);
        let b = run_scenario(&VoronoiDecor { rc: 8.0 }, loss);
        assert!(
            first_divergence(&a, &b).is_none(),
            "voronoi replay diverged (loss={loss:?})"
        );
        let a = run_scenario(&HoleHealing, loss);
        let b = run_scenario(&HoleHealing, loss);
        assert!(
            first_divergence(&a, &b).is_none(),
            "holes replay diverged (loss={loss:?})"
        );
    }
}

#[test]
fn every_trace_line_is_canonical() {
    // Every line of every committed fixture must be one canonical record:
    // a JSON object with no padding, `seq` counting up from 0 within its
    // file, then `t`, then an `ev` that is one of `TraceEvent::kind()`'s
    // labels.
    let kinds = [
        "msg_send",
        "msg_deliver",
        "msg_drop",
        "msg_retry",
        "msg_ack",
        "election_start",
        "election_won",
        "heartbeat_miss",
        "node_failed",
        "sensor_placed",
        "round_begin",
        "round_end",
        "coverage_delta",
        "chaos_crash",
        "chaos_partition",
        "chaos_heal",
        "chaos_blackhole",
        "chaos_unblackhole",
        "chaos_latency",
        "chaos_drain",
        "shift_begin",
        "shift_end",
        "node_sleep",
        "node_wake",
        "battery_drain",
    ];
    let mut fixtures: Vec<PathBuf> = std::fs::read_dir(fixture_path(""))
        .expect("fixture directory")
        .map(|entry| entry.expect("fixture entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "jsonl"))
        .collect();
    fixtures.sort();
    assert!(fixtures.len() >= 10, "fixtures: {fixtures:?}");
    for path in fixtures {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = 0u64;
        for line in text.lines() {
            assert_eq!(line, line.trim(), "{name}: padded line: {line}");
            let record =
                Json::parse(line).unwrap_or_else(|e| panic!("{name}: not JSON ({e}): {line}"));
            let Json::Obj(fields) = &record else {
                panic!("{name}: not an object: {line}");
            };
            let keys: Vec<&str> = fields.iter().take(3).map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["seq", "t", "ev"], "{name}: key order: {line}");
            assert_eq!(
                record.get("seq").and_then(Json::as_u64),
                Some(lines),
                "{name}: seq gap: {line}"
            );
            assert!(
                record.get("t").and_then(Json::as_u64).is_some(),
                "{name}: bad time: {line}"
            );
            let kind = record.get("ev").and_then(Json::as_str);
            assert!(
                kind.is_some_and(|k| kinds.contains(&k)),
                "{name}: unknown event kind: {line}"
            );
            lines += 1;
        }
        assert!(lines > 0, "{name} must not be empty");
    }
}

#[test]
fn first_divergence_names_the_first_differing_event() {
    assert!(first_divergence("a\nb\n", "a\nb").is_none());
    let d = first_divergence("a\nb\nc\n", "a\nB\nc\n").unwrap();
    assert_eq!(
        (d.index, d.left.as_deref(), d.right.as_deref()),
        (1, Some("b"), Some("B"))
    );
    let msg = first_divergence("a\n", "a\nb\n").unwrap().to_string();
    assert!(msg.contains("diverge at event 1"), "{msg}");
    assert!(msg.contains("left:  <end of trace>"), "{msg}");
    assert!(msg.contains("right: b"), "{msg}");
}
