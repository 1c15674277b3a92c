//! Differential tier: the scenario-matrix runner against the legacy
//! sequential figure paths.
//!
//! The matrix runner is only trustworthy if pushing a figure through it
//! is *bit-identical* to the hand-written loop it replaced — same seeds,
//! same placements, same floating-point sums. These tests re-implement
//! the legacy fig08 / ext_loss replica loops inline (frozen copies of
//! the pre-runner code) and compare every field of every run, then pin
//! the runner's invariances: worker count (1/2/8) and tracing (on/off)
//! must not change a single bit of the results. The paper-scale ext_loss
//! table is also held to the committed `results/ext_loss.csv`.

use decor::core::parallel::replica_seed;
use decor::core::{LinkConfig, Placer, SchemeKind, VoronoiDecor};
use decor::exp::common::{deploy, ExpParams};
use decor::exp::runner::{aggregate, MatrixRunner};
use decor::exp::scenario::{ScenarioMatrix, ScenarioSpec, Workload, PROBE_PERIOD};
use decor::exp::stats::mean;
use decor::exp::{ext_loss, fig08};
use decor::net::{FailurePlan, HeartbeatConfig, HeartbeatSim, Network};

/// A fig08-equivalent matrix restricted to k ∈ {1, 2} (the full KS sweep
/// is minutes-long at test scale; the code path is identical).
fn fig08_like_matrix(params: &ExpParams, trace: bool) -> ScenarioMatrix {
    let mut cells = Vec::new();
    for &k in &[1u32, 2] {
        for &scheme in &SchemeKind::ALL {
            let mut spec = ScenarioSpec::from_params(params, scheme, k);
            spec.name = format!("fig08-{}-k{k}", scheme.spec_name());
            spec.base_seed = params.base_seed ^ (k as u64) << 8;
            spec.trace = trace;
            cells.push(spec);
        }
    }
    ScenarioMatrix::new(cells).unwrap()
}

#[test]
fn fig08_matrix_is_bit_identical_to_the_sequential_loop() {
    let params = ExpParams::quick();
    let m = fig08_like_matrix(&params, false);
    let out = MatrixRunner::new(2).run(&m);
    assert!(out.complete());

    // The legacy path, frozen: for each (k, scheme) cell, a sequential
    // replica loop over `deploy` with the module's seed mixing.
    for (i, run) in m.expand().iter().enumerate() {
        let spec = &m.cells()[run.cell];
        let seed = replica_seed(params.base_seed ^ (spec.k as u64) << 8, run.replica);
        let (map, legacy, cfg) = deploy(&params, spec.scheme, spec.k, seed);
        let got = out.results[i].as_ref().unwrap();
        assert_eq!(got.seed, seed, "{}", spec.name);
        assert_eq!(got.total_sensors, legacy.total_sensors(), "{}", spec.name);
        assert_eq!(got.placed, legacy.placed.len(), "{}", spec.name);
        assert_eq!(got.rounds, legacy.rounds, "{}", spec.name);
        assert_eq!(got.retries, legacy.messages.retries, "{}", spec.name);
        assert_eq!(got.fully_covered, legacy.fully_covered, "{}", spec.name);
        // Bitwise f64 equality — not approximate.
        assert_eq!(
            got.coverage_pct,
            map.fraction_k_covered(cfg.k) * 100.0,
            "{}",
            spec.name
        );
    }

    // Aggregation reproduces the legacy `mean(per-replica totals)` sums
    // (same values, same summation order).
    for (cell, spec) in m.cells().iter().enumerate() {
        let legacy_mean = mean(
            &(0..spec.replicas)
                .map(|i| {
                    let seed = replica_seed(spec.base_seed, i);
                    let (_, out, _) = deploy(&params, spec.scheme, spec.k, seed);
                    out.total_sensors() as f64
                })
                .collect::<Vec<_>>(),
        );
        assert_eq!(
            aggregate(&m, &out)[cell].mean_total_sensors,
            legacy_mean,
            "{}",
            spec.name
        );
    }
}

/// The per-replica column tuple the legacy ext_loss module fed to `mean`:
/// detection %, false alarms, latency, coverage %, retries, gave-up.
type LossColumns = (f64, f64, f64, f64, f64, f64);

/// The pre-runner ext_loss replica body, frozen verbatim.
fn legacy_ext_loss_replica(params: &ExpParams, loss: u32, seed: u64) -> LossColumns {
    const PERIOD: u64 = 1_000;
    let (mut map, _, mut cfg) = deploy(params, SchemeKind::Centralized, 2, seed);
    let sensors = map.active_sensors();
    let mut net = Network::new(*map.field());
    for &(_, pos) in &sensors {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    net.set_loss(loss as f64 / 100.0, seed ^ 0xF0);
    let victims = FailurePlan::Fraction {
        frac: 0.1,
        seed: seed ^ 0x0F,
    }
    .victims(&net);
    let sim = HeartbeatSim::new(HeartbeatConfig {
        period: PERIOD,
        timeout_periods: 3,
        seed: seed ^ 0xBEA7,
    });
    let fail_at = 4 * PERIOD;
    let report = sim.run(&mut net, &victims, fail_at, fail_at + 30 * PERIOD);
    let rate = if victims.is_empty() {
        1.0
    } else {
        report.first_detection.len() as f64 / victims.len() as f64
    };
    let latency = report
        .max_latency(fail_at)
        .map(|l| l as f64 / PERIOD as f64)
        .unwrap_or(0.0);
    for &v in &victims {
        map.deactivate_sensor(sensors[v].0);
    }
    if loss > 0 {
        cfg.link = LinkConfig::lossy(loss as f64 / 100.0, seed ^ 0x7A);
    }
    let restore = VoronoiDecor { rc: 8.0 }.place(&mut map, &cfg);
    (
        rate * 100.0,
        report.false_positives.len() as f64,
        latency,
        map.fraction_k_covered(cfg.k) * 100.0,
        restore.messages.retries as f64,
        restore.messages.notices_gave_up as f64,
    )
}

#[test]
fn ext_loss_matrix_is_bit_identical_to_the_legacy_closure() {
    let params = ExpParams::quick();
    assert_eq!(PROBE_PERIOD, 1_000, "probe must keep the legacy period");
    let m = ext_loss::matrix(&params);
    let out = MatrixRunner::new(2).run(&m);
    assert!(out.complete());
    let runs = m.expand();
    for (i, run) in runs.iter().enumerate() {
        let spec = &m.cells()[run.cell];
        assert_eq!(spec.workload, Workload::FailureProbe);
        let legacy = legacy_ext_loss_replica(&params, spec.loss_pct, run.seed);
        let got = out.results[i].as_ref().unwrap();
        let probe = got.probe.expect("probe stats");
        assert_eq!(probe.detection_rate_pct, legacy.0, "{}", spec.name);
        assert_eq!(probe.false_alarms, legacy.1, "{}", spec.name);
        assert_eq!(probe.worst_latency_periods, legacy.2, "{}", spec.name);
        assert_eq!(got.coverage_pct, legacy.3, "{}", spec.name);
        assert_eq!(got.retries as f64, legacy.4, "{}", spec.name);
        assert_eq!(got.gave_up as f64, legacy.5, "{}", spec.name);
    }

    // And the published table (which now rides the matrix runner) equals
    // the legacy per-column means exactly.
    let table = ext_loss::run(&params);
    for (row, &loss) in table.rows.iter().zip(&ext_loss::LOSS_PCTS) {
        let legacy: Vec<LossColumns> = (0..params.seeds)
            .map(|i| {
                legacy_ext_loss_replica(&params, loss, replica_seed(params.base_seed ^ 0x1055, i))
            })
            .collect();
        let col = |f: &dyn Fn(&LossColumns) -> f64| mean(&legacy.iter().map(f).collect::<Vec<_>>());
        assert_eq!(row[0], loss as f64);
        assert_eq!(row[1], col(&|r| r.0), "detection at loss {loss}");
        assert_eq!(row[2], col(&|r| r.1), "false alarms at loss {loss}");
        assert_eq!(row[3], col(&|r| r.2), "latency at loss {loss}");
        assert_eq!(row[4], col(&|r| r.3), "coverage at loss {loss}");
        assert_eq!(row[5], col(&|r| r.4), "retries at loss {loss}");
        assert_eq!(row[6], col(&|r| r.5), "gave up at loss {loss}");
    }
}

/// `results/ext_loss.csv` is the committed referee for the lossy failure
/// study: the paper-scale table must reproduce it byte for byte.
#[test]
fn ext_loss_table_matches_the_committed_csv() {
    let csv = ext_loss::run(&ExpParams::paper()).to_csv();
    assert_eq!(csv, include_str!("../results/ext_loss.csv"));
}

#[test]
fn worker_count_never_changes_matrix_results() {
    let params = ExpParams::quick();
    for matrix in [fig08_like_matrix(&params, false), ext_loss::matrix(&params)] {
        let reference = MatrixRunner::new(1).run(&matrix).fingerprint_lines();
        assert_eq!(reference.len(), matrix.n_runs());
        for threads in [2usize, 8] {
            let got = MatrixRunner::new(threads).run(&matrix).fingerprint_lines();
            assert_eq!(got, reference, "threads={threads}");
        }
    }
}

#[test]
fn tracing_never_changes_matrix_results() {
    let params = ExpParams::quick();
    let plain = MatrixRunner::new(2).run(&fig08_like_matrix(&params, false));
    let traced = MatrixRunner::new(2).run(&fig08_like_matrix(&params, true));
    let traced_matrix = fig08_like_matrix(&params, true);
    let runs = traced_matrix.expand();
    for ((p, t), run) in plain.results.iter().zip(&traced.results).zip(&runs) {
        let (p, t) = (p.as_ref().unwrap(), t.as_ref().unwrap());
        assert!(p.trace.is_none());
        let trace = t.trace.as_ref().expect("traced run carries its trace");
        // The distributed schemes narrate their protocol; the baselines
        // (centralized greedy, random) place silently — their trace is
        // attached but empty.
        let scheme = traced_matrix.cells()[run.cell].scheme;
        let silent = matches!(scheme, SchemeKind::Centralized | SchemeKind::Random);
        assert_eq!(trace.is_empty(), silent, "{scheme:?}");
        // Strip the trace: everything else must match bit for bit.
        let mut stripped = t.clone();
        stripped.trace = None;
        assert_eq!(stripped.fingerprint_json(), p.fingerprint_json());
    }
    // Traces themselves are deterministic across worker counts.
    let traced8 = MatrixRunner::new(8).run(&fig08_like_matrix(&params, true));
    assert_eq!(traced8.fingerprint_lines(), traced.fingerprint_lines());
}

#[test]
fn fig08_module_matrix_covers_the_full_sweep() {
    // The module's own matrix must expand to the paper's 5 k-values over
    // all six schemes with the paper's replica count — the shape `run`
    // aggregates into the published table.
    let params = ExpParams::paper();
    let m = fig08::matrix(&params);
    assert_eq!(m.cells().len(), fig08::KS.len() * SchemeKind::ALL.len());
    assert_eq!(m.n_runs(), m.cells().len() * params.seeds);
    for (i, spec) in m.cells().iter().enumerate() {
        let k = fig08::KS[i / SchemeKind::ALL.len()];
        assert_eq!(spec.k, k);
        assert_eq!(spec.base_seed, params.base_seed ^ (k as u64) << 8);
        assert_eq!(spec.workload, Workload::Deploy);
    }
}
