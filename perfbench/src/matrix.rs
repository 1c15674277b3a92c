//! `fig08` and `ext-loss`: one op is one run of a committed spec file
//! through `MatrixRunner` at one worker, as `decor-serve run --threads 1`
//! runs it.

use crate::spans::Tracer;
use crate::workload::{
    add_event_counts, layer_of, seed_mix, Digest, OpOutput, RunnerProbe, Spanned, Workload,
};
use decor_core::{DeploymentConfig, InvariantChecker, LinkConfig, Placer, SchemeKind};
use decor_exp::scenario::{ProbeStats, PROBE_PERIOD};
use decor_exp::{
    execute_run, MatrixOutcome, MatrixRunner, RunResult, RunSpec, ScenarioMatrix, ScenarioSpec,
    WorkerArena, Workload as RunWorkload,
};
use decor_net::{FailurePlan, HeartbeatConfig, HeartbeatSim, Network};
use decor_trace::TraceHandle;

/// The committed Fig. 8 matrix: 6 schemes × k 1–5 × 5 replicas.
pub const FIG08_SPECS: &str = include_str!("../../tests/fixtures/specs/fig08_paper.jsonl");

/// The committed lossy failure study: voronoi-small, k=2, 0–40% loss.
pub const EXT_LOSS_SPECS: &str = include_str!("../../tests/fixtures/specs/ext_loss_paper.jsonl");

/// Runs of the latest op that the cross-path check compares.
const CROSS_SAMPLE: usize = 6;

/// A committed matrix with the benchmark's seed mixed into every cell.
pub struct MatrixWorkload {
    matrix: ScenarioMatrix,
    runs: Vec<RunSpec>,
    /// Fingerprints of the latest untraced op, one per run.
    last: Vec<String>,
    probe_runner: bool,
}

/// Parses a committed spec file, mixes `seed` into every cell's base seed
/// and warms up with one replica of every committed cell through the same
/// runner. The warm-up runs seed 0's inputs, so set-up does the same work
/// on every seed. The runner scaling probe is offered when `probe_runner`
/// is set.
pub fn setup(specs: &str, seed: u64, probe_runner: bool) -> Result<MatrixWorkload, String> {
    let committed = ScenarioMatrix::from_jsonl(specs)?;
    let mix = seed_mix(seed);
    let mut cells = Vec::with_capacity(committed.cells().len());
    for cell in committed.cells() {
        // The replay mirrors the paths the committed specs take.
        if cell.chaos_seed.is_some() || cell.trace {
            return Err(format!("cell '{}' asks for chaos or tracing", cell.name));
        }
        cells.push(ScenarioSpec {
            base_seed: cell.base_seed ^ mix,
            ..cell.clone()
        });
    }
    let warm_up = ScenarioMatrix::new(
        committed
            .cells()
            .iter()
            .map(|c| ScenarioSpec {
                replicas: 1,
                ..c.clone()
            })
            .collect(),
    )?;
    check_outcome(&MatrixRunner::new(1).run(&warm_up))?;
    let matrix = ScenarioMatrix::new(cells)?;
    Ok(MatrixWorkload {
        runs: matrix.expand(),
        matrix,
        last: Vec::new(),
        probe_runner,
    })
}

/// Every run present, fully k-covered and free of invariant violations.
fn check_outcome(outcome: &MatrixOutcome) -> Result<(), String> {
    for (i, r) in outcome.results.iter().enumerate() {
        let r = r.as_ref().ok_or(format!("run {i} has no result"))?;
        check_run(r).map_err(|e| format!("run {i}: {e}"))?;
    }
    Ok(())
}

fn check_run(r: &RunResult) -> Result<(), String> {
    if !r.fully_covered {
        return Err(format!("not fully k-covered ({}%)", r.coverage_pct));
    }
    if r.invariant_violations > 0 {
        return Err(format!("{} invariant violations", r.invariant_violations));
    }
    Ok(())
}

/// Digest, sensors and first failed check over one op's runs.
fn summarize<'a>(results: impl Iterator<Item = &'a RunResult>, fps: &mut Vec<String>) -> OpOutput {
    let mut digest = Digest::new();
    let mut sensors = 0u64;
    let mut problem = None;
    fps.clear();
    for r in results {
        let fp = r.fingerprint_json();
        digest.str(&fp);
        fps.push(fp);
        sensors += r.placed as u64;
        if let (None, Err(e)) = (&problem, check_run(r)) {
            problem = Some(format!("cell {} replica {}: {e}", r.cell, r.replica));
        }
    }
    OpOutput {
        digest: digest.finish(),
        sensors,
        problem,
    }
}

impl Workload for MatrixWorkload {
    fn inputs(&self) -> usize {
        1
    }

    fn run(&mut self, _input: usize) -> OpOutput {
        let outcome = MatrixRunner::new(1).run(&self.matrix);
        let mut out = summarize(outcome.results.iter().flatten(), &mut self.last);
        if out.problem.is_none() && !outcome.complete() {
            out.problem = Some("the runner left runs without a result".into());
        }
        out
    }

    fn replay(&mut self, _input: usize, tracer: &Tracer) -> OpOutput {
        // A fresh arena per op, as `MatrixRunner::run` builds one per call.
        let mut arena = WorkerArena::new();
        let cells = self.matrix.cells();
        let results: Vec<RunResult> = self
            .runs
            .iter()
            .map(|run| {
                tracer.span("scenario", || {
                    replay_run(&cells[run.cell], run, &mut arena, tracer)
                })
            })
            .collect();
        tracer.add("arena.templates", arena.n_templates() as f64);
        summarize(results.iter(), &mut Vec::new())
    }

    fn cross_check(&mut self) -> Result<usize, String> {
        let cells = self.matrix.cells();
        let step = self.runs.len().div_ceil(CROSS_SAMPLE);
        let mut compared = 0;
        for (i, run) in self.runs.iter().enumerate().step_by(step) {
            let spec = &cells[run.cell];
            let cold = execute_run(spec, run).fingerprint_json();
            // The replay runs with the invariant checker on.
            let replayed = replay_run(spec, run, &mut WorkerArena::new(), &Tracer::new());
            check_run(&replayed).map_err(|e| format!("run {i} ({}) replayed: {e}", spec.name))?;
            let replayed = replayed.fingerprint_json();
            let warm = self
                .last
                .get(i)
                .ok_or("no untraced op ran before the check")?;
            if cold != *warm || replayed != *warm {
                return Err(format!(
                    "run {i} ({}): cold, warm and replayed fingerprints differ\n cold     {cold}\n warm     {warm}\n replayed {replayed}",
                    spec.name
                ));
            }
            compared += 1;
        }
        Ok(compared)
    }

    fn runner_probe(&mut self) -> Result<Option<RunnerProbe>, String> {
        if !self.probe_runner {
            return Ok(None);
        }
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let one = MatrixRunner::new(1).run(&self.matrix);
        let many = MatrixRunner::new(nproc).run(&self.matrix);
        check_outcome(&many)?;
        if one.fingerprint_lines() != many.fingerprint_lines() {
            return Err(format!("{nproc} workers changed the matrix's results"));
        }
        let capacity_ns = many.wall_ns as f64 * many.threads as f64;
        Ok(Some(RunnerProbe {
            utilization: many.utilization(),
            speedup: one.wall_ns as f64 / many.wall_ns.max(1) as f64,
            idle_ms: (capacity_ns - many.busy_ns as f64).max(0.0) / 1e6,
        }))
    }
}

/// `execute_run_in`, step by step, with a counting trace sink attached
/// and every call into a layer in a span.
fn replay_run(
    spec: &ScenarioSpec,
    run: &RunSpec,
    arena: &mut WorkerArena,
    tracer: &Tracer,
) -> RunResult {
    match spec.workload {
        RunWorkload::Deploy => replay_deploy(spec, run, arena, tracer),
        RunWorkload::FailureProbe => replay_failure_probe(spec, run, arena, tracer),
    }
}

/// The config `deploy_with_in` builds, with a counting sink and the
/// invariant checker attached.
fn counting_config(k: u32, link: LinkConfig) -> DeploymentConfig {
    let mut cfg = DeploymentConfig::with_k(k);
    cfg.link = link;
    cfg.trace = TraceHandle::counting();
    cfg.invariants = InvariantChecker::enabled();
    cfg
}

fn replay_deploy(
    spec: &ScenarioSpec,
    run: &RunSpec,
    arena: &mut WorkerArena,
    tracer: &Tracer,
) -> RunResult {
    let params = spec.params();
    let cfg = counting_config(spec.k, params.link(run.seed));
    let mut map = tracer.span("arena", || {
        arena.make_map(&params, &cfg, params.initial_nodes, run.seed)
    });
    let placer = params.placer(spec.scheme, run.seed ^ 0x9E37);
    let placer = Spanned {
        inner: placer.as_ref(),
        layer: layer_of(spec.scheme),
        tracer,
    };
    let out = placer.place_in(&mut map, &cfg, &mut arena.scratch);
    let coverage = tracer.span("coverage", || map.fraction_k_covered(cfg.k));
    arena.recycle(map);
    add_event_counts(tracer, &cfg);
    RunResult {
        cell: run.cell,
        replica: run.replica,
        seed: run.seed,
        coverage_pct: coverage * 100.0,
        missed_area: (1.0 - coverage) * params.field().area(),
        total_sensors: out.total_sensors(),
        placed: out.placed.len(),
        rounds: out.rounds,
        retries: out.messages.retries,
        gave_up: out.messages.notices_gave_up,
        fully_covered: out.fully_covered,
        invariant_violations: cfg.invariants.violations().len(),
        probe: None,
        wall_ns: 0,
        trace: cfg.trace.jsonl(),
    }
}

fn replay_failure_probe(
    spec: &ScenarioSpec,
    run: &RunSpec,
    arena: &mut WorkerArena,
    tracer: &Tracer,
) -> RunResult {
    let params = spec.params();
    let loss = spec.loss_pct;
    let seed = run.seed;
    let mut cfg = counting_config(spec.k, params.link(seed));
    let mut map = tracer.span("arena", || {
        arena.make_map(&params, &cfg, params.initial_nodes, seed)
    });
    let deployer = params.placer(SchemeKind::Centralized, seed ^ 0x9E37);
    Spanned {
        inner: deployer.as_ref(),
        layer: "centralized",
        tracer,
    }
    .place_in(&mut map, &cfg, &mut arena.scratch);
    let sensors = map.active_sensors();
    let mut net = tracer.span("network", || {
        let mut net = match arena.scratch.net.take() {
            Some(mut pooled) => {
                pooled.reset(*map.field());
                pooled
            }
            None => Network::new(*map.field()),
        };
        for &(_, pos) in &sensors {
            net.add_node(pos, cfg.rs, cfg.rc);
        }
        net.set_loss(loss as f64 / 100.0, seed ^ 0xF0);
        net
    });
    tracer.add("network.nodes", net.len() as f64);
    let victims = FailurePlan::Fraction {
        frac: spec.fail_frac,
        seed: seed ^ 0x0F,
    }
    .victims(&net);
    let sim = HeartbeatSim::new(HeartbeatConfig {
        period: PROBE_PERIOD,
        timeout_periods: 3,
        seed: seed ^ 0xBEA7,
    });
    let fail_at = 4 * PROBE_PERIOD;
    let report = tracer.span("detect", || {
        sim.run(&mut net, &victims, fail_at, fail_at + 30 * PROBE_PERIOD)
    });
    let rate = if victims.is_empty() {
        1.0
    } else {
        report.first_detection.len() as f64 / victims.len() as f64
    };
    let latency = report
        .max_latency(fail_at)
        .map(|l| l as f64 / PROBE_PERIOD as f64)
        .unwrap_or(0.0);
    tracer.add("detect.heartbeats", report.heartbeats_sent as f64);
    tracer.add("detect.runs", 1.0);
    tracer.add("detect.detect_rate", rate * 100.0);
    tracer.add("detect.false_alarms", report.false_positives.len() as f64);
    tracer.span("coverage.deactivate", || {
        for &v in &victims {
            map.deactivate_sensor(sensors[v].0);
        }
    });
    if loss > 0 {
        cfg.link = LinkConfig::lossy(loss as f64 / 100.0, seed ^ 0x7A);
    }
    let placer = params.placer(spec.scheme, seed ^ 0x9E37);
    arena.scratch.net = Some(net);
    let restore = Spanned {
        inner: placer.as_ref(),
        layer: layer_of(spec.scheme),
        tracer,
    }
    .place_in(&mut map, &cfg, &mut arena.scratch);
    let coverage = tracer.span("coverage", || map.fraction_k_covered(cfg.k));
    arena.recycle(map);
    add_event_counts(tracer, &cfg);
    RunResult {
        cell: run.cell,
        replica: run.replica,
        seed,
        coverage_pct: coverage * 100.0,
        missed_area: (1.0 - coverage) * params.field().area(),
        total_sensors: restore.total_sensors(),
        placed: restore.placed.len(),
        rounds: restore.rounds,
        retries: restore.messages.retries,
        gave_up: restore.messages.notices_gave_up,
        fully_covered: restore.fully_covered,
        invariant_violations: cfg.invariants.violations().len(),
        probe: Some(ProbeStats {
            detection_rate_pct: rate * 100.0,
            false_alarms: report.false_positives.len() as f64,
            worst_latency_periods: latency,
        }),
        wall_ns: 0,
        trace: cfg.trace.jsonl(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The replay runs with the invariant checker on, and a run that
    /// records a violation fails its op.
    #[test]
    fn an_invariant_violation_fails_the_op() {
        assert!(counting_config(2, LinkConfig::default())
            .invariants
            .is_enabled());
        let matrix = ScenarioMatrix::from_jsonl(EXT_LOSS_SPECS).unwrap();
        let run = &matrix.expand()[0];
        let spec = &matrix.cells()[run.cell];
        let mut r = replay_run(spec, run, &mut WorkerArena::new(), &Tracer::new());
        assert_eq!(r.invariant_violations, 0);
        assert!(summarize(std::iter::once(&r), &mut Vec::new())
            .problem
            .is_none());
        r.invariant_violations = 1;
        let problem = summarize(std::iter::once(&r), &mut Vec::new()).problem;
        assert!(problem.is_some_and(|p| p.contains("invariant violations")));
    }
}
