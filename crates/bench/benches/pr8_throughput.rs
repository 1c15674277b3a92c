//! PR-8 acceptance benchmark: scenario-matrix throughput.
//!
//! Two phases:
//!
//! 1. **Guarded batch** — a fixed 64-run matrix (tiny deploy scenarios
//!    across two schemes) through [`MatrixRunner`], timed end to end.
//!    The median lands in `BENCH_PR9.json` and `scripts/bench_guard.sh`
//!    gates regressions: this is the service's unit of work, so runner
//!    overhead (claiming, scattering, aggregation plumbing) shows up
//!    here before it shows up in a fleet.
//!
//! 2. **Saturation** — one pass over a `PR8_RUNS`-run matrix (default
//!    10 000) printing runs/sec and worker utilization
//!    (busy-time / wall-time × threads). At the full 10k scale the run
//!    asserts >95% utilization: the work-stealing loop must keep every
//!    worker busy on a matrix whose runs vary in cost by scheme. Quick
//!    mode (`PR8_RUNS=200` in CI) prints without asserting — tiny
//!    matrices end with a partial final wave, so the bound only means
//!    something when runs ≫ threads.
//!
//! Reproduce the committed summary with:
//!
//! ```text
//! CRITERION_JSON=$PWD/BENCH_PR9.json \
//!     cargo bench -p decor-bench --bench pr8_throughput
//! ```

use criterion::{black_box, Criterion};
use decor_core::SchemeKind;
use decor_exp::scenario::{ScenarioMatrix, ScenarioSpec};
use decor_exp::{ExpParams, MatrixRunner};

/// A deploy cell small enough that a 10k-run matrix finishes in seconds:
/// 200 approximation points, 24 initial sensors, k = 1.
fn tiny_cell(scheme: SchemeKind, replicas: usize, base_seed: u64) -> ScenarioSpec {
    let params = ExpParams {
        n_points: 200,
        initial_nodes: 24,
        ..ExpParams::quick()
    };
    let mut spec = ScenarioSpec::from_params(&params, scheme, 1);
    spec.name = format!("pr8-{}", scheme.spec_name());
    spec.replicas = replicas;
    spec.base_seed = base_seed;
    spec
}

fn batch_matrix(runs: usize) -> ScenarioMatrix {
    let schemes = [
        SchemeKind::Centralized,
        SchemeKind::GridSmall,
        SchemeKind::VoronoiSmall,
        SchemeKind::Random,
    ];
    let per_cell = runs.div_ceil(schemes.len());
    let cells = schemes
        .iter()
        .enumerate()
        .map(|(i, &s)| tiny_cell(s, per_cell, 0xDEC0_0008 ^ ((i as u64) << 16)))
        .collect();
    ScenarioMatrix::new(cells)
        .expect("pr8 matrix is valid")
        .capped(runs)
        .expect("cap is positive")
}

fn bench_batch(c: &mut Criterion) {
    let matrix = batch_matrix(64);
    let runner = MatrixRunner::auto();
    // Sanity: the batch must complete and cover, or the timing is noise.
    let probe = runner.run(&matrix);
    assert!(probe.complete(), "pr8 batch left holes");
    assert_eq!(probe.executed, 64);
    let mut g = c.benchmark_group("pr8/matrix");
    g.sample_size(10);
    g.bench_function("serve_batch_64", |b| {
        b.iter(|| black_box(runner.run(&matrix)))
    });
    g.finish();
}

fn saturation() {
    let runs: usize = std::env::var("PR8_RUNS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10_000);
    let matrix = batch_matrix(runs);
    let runner = MatrixRunner::auto();
    let out = runner.run(&matrix);
    assert!(out.complete(), "saturation matrix left holes");
    let util = out.utilization();
    println!(
        "pr8 saturation: {} runs on {} threads in {:.2} s — {:.0} runs/sec, {:.1}% utilization",
        out.executed,
        out.threads,
        out.wall_ns as f64 / 1e9,
        out.runs_per_sec(),
        util * 100.0
    );
    if runs >= 10_000 {
        assert!(
            util > 0.95,
            "matrix runner utilization {util:.3} at {runs} runs — the work-stealing \
             loop is leaving workers idle"
        );
    }
}

fn main() {
    let mut criterion = Criterion::default();
    bench_batch(&mut criterion);
    saturation();
}
