//! Scenario specs: the stable input format of the batch matrix service.
//!
//! The production shape of this system is not one simulation but a fleet
//! of parameter sweeps — scheme × k × loss × chaos seed × field — run
//! continuously (ROADMAP item 2). A [`ScenarioSpec`] describes one *cell*
//! of such a sweep: a workload (plain deployment, or the `ext_loss`-style
//! failure probe), the scenario scale, the scheme under test, and how many
//! replicas to average over. A [`ScenarioMatrix`] is an ordered list of
//! cells; [`ScenarioMatrix::expand`] flattens it into runs with
//! deterministic per-run seeds derived via the same
//! [`replica_seed`] mixing the figure modules have always used, so a
//! matrix run is bit-identical to the legacy sequential loops
//! (pinned by `tests/matrix_differential.rs`).
//!
//! Specs serialize as single-line JSON ([`ScenarioSpec::to_json`] /
//! [`ScenarioSpec::from_json`]) with defaulted-field forward
//! compatibility: fields absent from an old spec file take today's
//! defaults, unknown fields from a newer producer are ignored, and
//! malformed input (bad JSON, unknown scheme or workload, out-of-range
//! values) is a descriptive `Err`, never a panic.

use crate::arena::{deploy_with_in, WorkerArena};
use crate::common::ExpParams;
use crate::jsonio::{num, Json};
use decor_core::parallel::replica_seed;
use decor_core::{ConfigError, DeploymentConfig, InvariantChecker, LinkConfig, SchemeKind};
use decor_net::{FailurePlan, FaultPlan, HeartbeatConfig, HeartbeatSim, Network};
use serde::{Deserialize, Serialize};

/// What a run actually executes.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Workload {
    /// Place sensors from the initial random deployment until full
    /// k-coverage — the fig-08 family. `loss_pct` puts the placement
    /// notices on the lossy medium.
    Deploy,
    /// The `ext_loss` probe: deploy a centralized k-covered field, fail
    /// `fail_frac` of the sensors, run the heartbeat detector over a
    /// medium with `loss_pct` loss, then restore with the spec's scheme
    /// over the same lossy link. Reports detection metrics alongside the
    /// restoration result.
    FailureProbe,
}

impl Workload {
    /// Stable wire name.
    pub fn spec_name(&self) -> &'static str {
        match self {
            Workload::Deploy => "deploy",
            Workload::FailureProbe => "failure-probe",
        }
    }

    /// Parses [`Workload::spec_name`].
    pub fn parse_spec_name(name: &str) -> Result<Workload, String> {
        match name {
            "deploy" => Ok(Workload::Deploy),
            "failure-probe" => Ok(Workload::FailureProbe),
            other => Err(format!(
                "unknown workload '{other}' (deploy | failure-probe)"
            )),
        }
    }
}

/// One cell of a scenario matrix: a workload at one parameter point,
/// replicated over `replicas` random fields.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Free-form label echoed into results (default: empty).
    pub name: String,
    /// The scheme under test (restoring scheme for the failure probe).
    pub scheme: SchemeKind,
    /// What to execute per run.
    pub workload: Workload,
    /// Coverage requirement.
    pub k: u32,
    /// Field edge length.
    pub field_side: f64,
    /// Approximation points.
    pub n_points: usize,
    /// Initial randomly-deployed sensors.
    pub initial_nodes: usize,
    /// Packet-loss percentage. For [`Workload::Deploy`] this is the
    /// medium the placement notices ride; for [`Workload::FailureProbe`]
    /// it is the probe's lossy medium (the initial centralized deployment
    /// stays lossless, as in `ext_loss`).
    pub loss_pct: u32,
    /// Victim fraction for [`Workload::FailureProbe`] (ignored by
    /// deploy).
    pub fail_frac: f64,
    /// When set, each run generates a [`FaultPlan`] from
    /// `replica_seed(chaos_seed, replica)` and runs with the invariant
    /// checker attached.
    pub chaos_seed: Option<u64>,
    /// Replicas (random fields) this cell averages over.
    pub replicas: usize,
    /// Base seed; replica `i` derives its own via [`replica_seed`].
    pub base_seed: u64,
    /// Attach a JSONL trace sink per run and carry the text in the
    /// result. Tracing never changes results — the differential tier
    /// compares traced and untraced matrices bit-for-bit.
    pub trace: bool,
}

impl Default for ScenarioSpec {
    /// The paper's scenario (§4) under a centralized deploy.
    fn default() -> Self {
        let p = ExpParams::paper();
        ScenarioSpec {
            name: String::new(),
            scheme: SchemeKind::Centralized,
            workload: Workload::Deploy,
            k: 3,
            field_side: p.field_side,
            n_points: p.n_points,
            initial_nodes: p.initial_nodes,
            loss_pct: 0,
            fail_frac: 0.1,
            chaos_seed: None,
            replicas: p.seeds,
            base_seed: p.base_seed,
            trace: false,
        }
    }
}

impl ScenarioSpec {
    /// A spec with the scenario scale taken from experiment parameters
    /// (the bridge the fig/ext modules use).
    pub fn from_params(params: &ExpParams, scheme: SchemeKind, k: u32) -> Self {
        ScenarioSpec {
            scheme,
            k,
            field_side: params.field_side,
            n_points: params.n_points,
            initial_nodes: params.initial_nodes,
            loss_pct: params.loss_pct,
            replicas: params.seeds,
            base_seed: params.base_seed,
            ..ScenarioSpec::default()
        }
    }

    /// The experiment parameters a run of this cell uses. The failure
    /// probe keeps its initial deployment lossless (`ext_loss` semantics):
    /// `loss_pct` only drives the probe medium there.
    pub fn params(&self) -> ExpParams {
        ExpParams {
            field_side: self.field_side,
            n_points: self.n_points,
            initial_nodes: self.initial_nodes,
            seeds: self.replicas,
            base_seed: self.base_seed,
            loss_pct: match self.workload {
                Workload::Deploy => self.loss_pct,
                Workload::FailureProbe => 0,
            },
        }
    }

    /// Validates ranges; every constructor of a matrix calls this so bad
    /// specs surface as errors at the boundary, not panics mid-run.
    pub fn validate(&self) -> Result<(), String> {
        let ctx = |what: &str| format!("spec '{}': {what}", self.name);
        if self.k < 1 {
            return Err(ctx("k must be at least 1"));
        }
        if self.loss_pct >= 100 {
            return Err(ctx("loss_pct must be below 100"));
        }
        if self.replicas == 0 {
            return Err(ctx("replicas must be positive"));
        }
        self.params()
            .check()
            .map_err(|ConfigError(_, rule)| ctx(&rule))?;
        if !(self.fail_frac > 0.0 && self.fail_frac < 1.0) {
            return Err(ctx("fail_frac must be in (0, 1)"));
        }
        Ok(())
    }

    /// Canonical single-line JSON. Every field is always emitted, so the
    /// rendering doubles as the format's documentation.
    pub fn to_json(&self) -> String {
        Json::Obj(vec![
            ("name".into(), Json::Str(self.name.clone())),
            ("scheme".into(), Json::Str(self.scheme.spec_name().into())),
            (
                "workload".into(),
                Json::Str(self.workload.spec_name().into()),
            ),
            ("k".into(), Json::UInt(self.k as u64)),
            ("field_side".into(), num(self.field_side, "field_side")),
            ("n_points".into(), Json::UInt(self.n_points as u64)),
            (
                "initial_nodes".into(),
                Json::UInt(self.initial_nodes as u64),
            ),
            ("loss_pct".into(), Json::UInt(self.loss_pct as u64)),
            ("fail_frac".into(), num(self.fail_frac, "fail_frac")),
            (
                "chaos_seed".into(),
                match self.chaos_seed {
                    Some(s) => Json::UInt(s),
                    None => Json::Null,
                },
            ),
            ("replicas".into(), Json::UInt(self.replicas as u64)),
            ("base_seed".into(), Json::UInt(self.base_seed)),
            ("trace".into(), Json::Bool(self.trace)),
        ])
        .render()
    }

    /// Parses [`ScenarioSpec::to_json`] output — or any forward- or
    /// backward-compatible variant: missing fields take the defaults,
    /// unknown fields are ignored, everything else errors descriptively.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("scenario spec: {e}"))?;
        let Json::Obj(_) = v else {
            return Err("scenario spec: expected a JSON object".into());
        };
        let mut spec = ScenarioSpec::default();
        if let Some(name) = v.get("name") {
            spec.name = req_str(name, "name")?.to_owned();
        }
        let scheme = v
            .get("scheme")
            .ok_or("scenario spec: missing required field 'scheme'")?;
        spec.scheme = SchemeKind::parse_spec_name(req_str(scheme, "scheme")?)?;
        if let Some(w) = v.get("workload") {
            spec.workload = Workload::parse_spec_name(req_str(w, "workload")?)?;
        }
        if let Some(x) = v.get("k") {
            spec.k = req_u32(x, "k")?;
        }
        if let Some(x) = v.get("field_side") {
            spec.field_side = req_f64(x, "field_side")?;
        }
        if let Some(x) = v.get("n_points") {
            spec.n_points = req_u64(x, "n_points")? as usize;
        }
        if let Some(x) = v.get("initial_nodes") {
            spec.initial_nodes = req_u64(x, "initial_nodes")? as usize;
        }
        if let Some(x) = v.get("loss_pct") {
            spec.loss_pct = req_u32(x, "loss_pct")?;
        }
        if let Some(x) = v.get("fail_frac") {
            spec.fail_frac = req_f64(x, "fail_frac")?;
        }
        if let Some(x) = v.get("chaos_seed") {
            spec.chaos_seed = match x {
                Json::Null => None,
                other => Some(req_u64(other, "chaos_seed")?),
            };
        }
        if let Some(x) = v.get("replicas") {
            spec.replicas = req_u64(x, "replicas")? as usize;
        }
        if let Some(x) = v.get("base_seed") {
            spec.base_seed = req_u64(x, "base_seed")?;
        }
        if let Some(x) = v.get("trace") {
            spec.trace = x
                .as_bool()
                .ok_or("scenario spec: field 'trace' must be a bool")?;
        }
        spec.validate()?;
        Ok(spec)
    }
}

fn req_str<'a>(v: &'a Json, field: &str) -> Result<&'a str, String> {
    v.as_str()
        .ok_or_else(|| format!("scenario spec: field '{field}' must be a string"))
}

fn req_u64(v: &Json, field: &str) -> Result<u64, String> {
    v.as_u64()
        .ok_or_else(|| format!("scenario spec: field '{field}' must be a non-negative integer"))
}

/// A `u32` field: a non-negative integer that fits, never a wrapped one.
fn req_u32(v: &Json, field: &str) -> Result<u32, String> {
    u32::try_from(req_u64(v, field)?)
        .map_err(|_| format!("scenario spec: field '{field}' out of range"))
}

fn req_f64(v: &Json, field: &str) -> Result<f64, String> {
    v.as_f64()
        .ok_or_else(|| format!("scenario spec: field '{field}' must be a number"))
}

/// One concrete run of the expanded matrix.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunSpec {
    /// Index of the cell in the matrix.
    pub cell: usize,
    /// Replica index within the cell.
    pub replica: usize,
    /// The run's seed: `replica_seed(cell.base_seed, replica)`.
    pub seed: u64,
}

/// An ordered list of scenario cells — the unit of work `decor-serve`
/// accepts and [`crate::runner::MatrixRunner`] executes.
#[derive(Clone, Debug, PartialEq)]
pub struct ScenarioMatrix {
    cells: Vec<ScenarioSpec>,
}

impl ScenarioMatrix {
    /// A matrix from validated cells.
    pub fn new(cells: Vec<ScenarioSpec>) -> Result<Self, String> {
        if cells.is_empty() {
            return Err("scenario matrix: no cells".into());
        }
        for cell in &cells {
            cell.validate()?;
        }
        Ok(ScenarioMatrix { cells })
    }

    /// The cross product of schemes × ks × loss rates over a template —
    /// the paper's figure shape. Each `k` gets its own field population
    /// (`base_seed ^ k << 8`, the fig-08 mixing) while schemes at the same
    /// parameter point share fields, so curves stay comparable; the loss
    /// axis mixes higher bits.
    pub fn axes(
        template: &ScenarioSpec,
        schemes: &[SchemeKind],
        ks: &[u32],
        loss_pcts: &[u32],
    ) -> Result<Self, String> {
        let mut cells = Vec::new();
        for &k in ks {
            for &loss_pct in loss_pcts {
                for &scheme in schemes {
                    cells.push(ScenarioSpec {
                        name: format!(
                            "{}-{}-k{k}-loss{loss_pct}",
                            template.workload.spec_name(),
                            scheme.spec_name()
                        ),
                        scheme,
                        k,
                        loss_pct,
                        base_seed: template.base_seed
                            ^ ((k as u64) << 8)
                            ^ ((loss_pct as u64) << 24),
                        ..template.clone()
                    });
                }
            }
        }
        ScenarioMatrix::new(cells)
    }

    /// The cells, in matrix order.
    pub fn cells(&self) -> &[ScenarioSpec] {
        &self.cells
    }

    /// Total runs across all cells.
    pub fn n_runs(&self) -> usize {
        self.cells.iter().map(|c| c.replicas).sum()
    }

    /// Flattens into runs — cell-major, replicas in order — with the
    /// deterministic per-run seeds.
    pub fn expand(&self) -> Vec<RunSpec> {
        let mut runs = Vec::with_capacity(self.n_runs());
        for (cell, spec) in self.cells.iter().enumerate() {
            for replica in 0..spec.replicas {
                runs.push(RunSpec {
                    cell,
                    replica,
                    seed: replica_seed(spec.base_seed, replica),
                });
            }
        }
        runs
    }

    /// One spec per line.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for cell in &self.cells {
            out.push_str(&cell.to_json());
            out.push('\n');
        }
        out
    }

    /// Parses [`ScenarioMatrix::to_jsonl`]; blank lines and `#` comments
    /// are ignored, errors name the offending line.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut cells = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            cells.push(
                ScenarioSpec::from_json(line).map_err(|e| format!("line {}: {e}", lineno + 1))?,
            );
        }
        ScenarioMatrix::new(cells)
    }

    /// The matrix truncated to at most `max_runs` total runs: trailing
    /// cells drop, the boundary cell keeps a reduced replica count. Used
    /// by `decor-serve gen --runs` to cap CI smoke matrices.
    pub fn capped(&self, max_runs: usize) -> Result<ScenarioMatrix, String> {
        if max_runs == 0 {
            return Err("scenario matrix: cap must be positive".into());
        }
        let mut cells = Vec::new();
        let mut left = max_runs;
        for cell in &self.cells {
            if left == 0 {
                break;
            }
            let mut cell = cell.clone();
            cell.replicas = cell.replicas.min(left);
            left -= cell.replicas;
            cells.push(cell);
        }
        ScenarioMatrix::new(cells)
    }

    /// A stable content hash of the matrix, used by checkpoint journals
    /// to refuse resuming against a different spec file.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf29ce484222325u64;
        for b in self.to_jsonl().bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x100000001b3);
        }
        h
    }
}

/// Failure-probe metrics (the `ext_loss` detection columns).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProbeStats {
    /// Real failures caught, percent.
    pub detection_rate_pct: f64,
    /// Alive sensors falsely declared dead.
    pub false_alarms: f64,
    /// Worst detection latency in heartbeat periods.
    pub worst_latency_periods: f64,
}

/// The typed result of one run.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct RunResult {
    /// Cell index in the matrix.
    pub cell: usize,
    /// Replica index within the cell.
    pub replica: usize,
    /// The seed the run derived everything from.
    pub seed: u64,
    /// Fraction of approximation points k-covered at the end, percent.
    pub coverage_pct: f64,
    /// Area left below the coverage requirement, in field units²
    /// (`(1 - coverage) · field area` over the approximation).
    pub missed_area: f64,
    /// Sensors active after the run (initial + placed).
    pub total_sensors: usize,
    /// Sensors the placer consumed.
    pub placed: usize,
    /// Protocol rounds executed.
    pub rounds: usize,
    /// Transport retransmissions spent.
    pub retries: u64,
    /// Placement notices whose retry budget ran out.
    pub gave_up: u64,
    /// Did the run reach full k-coverage?
    pub fully_covered: bool,
    /// Invariant violations observed (0 unless a chaos run is attached
    /// and something actually broke).
    pub invariant_violations: usize,
    /// Detection metrics ([`Workload::FailureProbe`] only).
    pub probe: Option<ProbeStats>,
    /// Wall time of this run, nanoseconds. The only nondeterministic
    /// field — excluded from [`RunResult::fingerprint_json`].
    pub wall_ns: u64,
    /// Canonical JSONL trace when the spec asked for one.
    pub trace: Option<String>,
}

impl RunResult {
    fn to_json_value(&self, wall_ns: u64) -> Json {
        Json::Obj(vec![
            ("cell".into(), Json::UInt(self.cell as u64)),
            ("replica".into(), Json::UInt(self.replica as u64)),
            ("seed".into(), Json::UInt(self.seed)),
            ("coverage_pct".into(), num(self.coverage_pct, "coverage")),
            ("missed_area".into(), num(self.missed_area, "missed_area")),
            (
                "total_sensors".into(),
                Json::UInt(self.total_sensors as u64),
            ),
            ("placed".into(), Json::UInt(self.placed as u64)),
            ("rounds".into(), Json::UInt(self.rounds as u64)),
            ("retries".into(), Json::UInt(self.retries)),
            ("gave_up".into(), Json::UInt(self.gave_up)),
            ("fully_covered".into(), Json::Bool(self.fully_covered)),
            (
                "invariant_violations".into(),
                Json::UInt(self.invariant_violations as u64),
            ),
            (
                "probe".into(),
                match &self.probe {
                    None => Json::Null,
                    Some(p) => Json::Obj(vec![
                        (
                            "detection_rate_pct".into(),
                            num(p.detection_rate_pct, "detection_rate_pct"),
                        ),
                        ("false_alarms".into(), num(p.false_alarms, "false_alarms")),
                        (
                            "worst_latency_periods".into(),
                            num(p.worst_latency_periods, "worst_latency_periods"),
                        ),
                    ]),
                },
            ),
            ("wall_ns".into(), Json::UInt(wall_ns)),
            (
                "trace".into(),
                match &self.trace {
                    None => Json::Null,
                    Some(t) => Json::Str(t.clone()),
                },
            ),
        ])
    }

    /// Canonical single-line JSON (checkpoint journal / `decor-serve`
    /// per-run output format).
    pub fn to_json(&self) -> String {
        self.to_json_value(self.wall_ns).render()
    }

    /// [`RunResult::to_json`] rendered into a caller-owned buffer
    /// (cleared first), so per-run streaming reuses one line buffer
    /// instead of allocating a fresh string per result.
    pub fn to_json_into(&self, out: &mut String) {
        out.clear();
        self.to_json_value(self.wall_ns).render_into(out);
    }

    /// [`RunResult::to_json`] with `wall_ns` zeroed: the run's
    /// deterministic identity. Two runs of the same `RunSpec` must
    /// produce identical fingerprints whatever the scheduling.
    pub fn fingerprint_json(&self) -> String {
        self.to_json_value(0).render()
    }

    /// Parses [`RunResult::to_json`] output.
    pub fn from_json(text: &str) -> Result<Self, String> {
        let v = Json::parse(text).map_err(|e| format!("run result: {e}"))?;
        let f = |field: &str| -> Result<&Json, String> {
            v.get(field)
                .ok_or_else(|| format!("run result: missing field '{field}'"))
        };
        let probe = match f("probe")? {
            Json::Null => None,
            p => Some(ProbeStats {
                detection_rate_pct: req_f64(
                    p.get("detection_rate_pct").unwrap_or(&Json::Null),
                    "detection_rate_pct",
                )?,
                false_alarms: req_f64(
                    p.get("false_alarms").unwrap_or(&Json::Null),
                    "false_alarms",
                )?,
                worst_latency_periods: req_f64(
                    p.get("worst_latency_periods").unwrap_or(&Json::Null),
                    "worst_latency_periods",
                )?,
            }),
        };
        Ok(RunResult {
            cell: req_u64(f("cell")?, "cell")? as usize,
            replica: req_u64(f("replica")?, "replica")? as usize,
            seed: req_u64(f("seed")?, "seed")?,
            coverage_pct: req_f64(f("coverage_pct")?, "coverage_pct")?,
            missed_area: req_f64(f("missed_area")?, "missed_area")?,
            total_sensors: req_u64(f("total_sensors")?, "total_sensors")? as usize,
            placed: req_u64(f("placed")?, "placed")? as usize,
            rounds: req_u64(f("rounds")?, "rounds")? as usize,
            retries: req_u64(f("retries")?, "retries")?,
            gave_up: req_u64(f("gave_up")?, "gave_up")?,
            fully_covered: f("fully_covered")?
                .as_bool()
                .ok_or("run result: field 'fully_covered' must be a bool")?,
            invariant_violations: req_u64(f("invariant_violations")?, "invariant_violations")?
                as usize,
            probe,
            wall_ns: req_u64(f("wall_ns")?, "wall_ns")?,
            trace: match f("trace")? {
                Json::Null => None,
                t => Some(req_str(t, "trace")?.to_owned()),
            },
        })
    }
}

/// The heartbeat period the failure probe uses (ticks) — `ext_loss`'s
/// constant, re-exported so both paths share it.
pub const PROBE_PERIOD: u64 = 1_000;

/// Executes one run of `spec` — the single execution path behind the
/// matrix runner and (through the refactored fig/ext modules) the paper
/// figures. Deterministic in `(spec, run)`.
pub fn execute_run(spec: &ScenarioSpec, run: &RunSpec) -> RunResult {
    execute_run_in(spec, run, &mut WorkerArena::new())
}

/// [`execute_run`] against a pooled [`WorkerArena`]: the map, the benefit
/// engine, the simulated radio and the transport come from the arena
/// instead of the allocator, and go back to it when the run ends. The
/// result is bit-identical to a run in a fresh arena — the `pool_reuse`
/// proptest (`crates/exp/tests/pool_reuse.rs`) pins that across
/// interleaved scenario shapes.
pub fn execute_run_in(spec: &ScenarioSpec, run: &RunSpec, arena: &mut WorkerArena) -> RunResult {
    let t0 = std::time::Instant::now();
    let mut result = match spec.workload {
        Workload::Deploy => execute_deploy(spec, run, arena),
        Workload::FailureProbe => execute_failure_probe(spec, run, arena),
    };
    result.wall_ns = t0.elapsed().as_nanos() as u64;
    result
}

/// The per-run chaos plan: seeded by `replica_seed(chaos_seed, replica)`
/// over the cell's initial population, on the CLI's horizon.
fn chaos_plan(spec: &ScenarioSpec, run: &RunSpec) -> Option<FaultPlan> {
    spec.chaos_seed.map(|chaos| {
        FaultPlan::generate(replica_seed(chaos, run.replica), spec.initial_nodes, 1_000)
    })
}

fn customize(spec: &ScenarioSpec, run: &RunSpec) -> impl FnOnce(&mut DeploymentConfig) {
    let chaos = chaos_plan(spec, run);
    let trace = spec.trace;
    move |cfg: &mut DeploymentConfig| {
        if trace {
            cfg.trace = decor_trace::TraceHandle::jsonl_writer();
        }
        if chaos.is_some() {
            cfg.invariants = InvariantChecker::enabled();
            cfg.chaos = chaos;
        }
    }
}

fn execute_deploy(spec: &ScenarioSpec, run: &RunSpec, arena: &mut WorkerArena) -> RunResult {
    let params = spec.params();
    let (map, out, cfg) = deploy_with_in(
        &params,
        spec.scheme,
        spec.k,
        run.seed,
        customize(spec, run),
        arena,
    );
    let coverage = map.fraction_k_covered(cfg.k);
    arena.recycle(map);
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

/// The `ext_loss` closure, verbatim: centralized deploy, fractional
/// failure, heartbeat detection over the lossy medium, restoration with
/// the spec's scheme over the same medium. Seed mixing (`^ 0xF0`,
/// `^ 0x0F`, `^ 0xBEA7`, `^ 0x7A`) matches the legacy module exactly —
/// the differential tier depends on it.
fn execute_failure_probe(spec: &ScenarioSpec, run: &RunSpec, arena: &mut WorkerArena) -> RunResult {
    let params = spec.params();
    let loss = spec.loss_pct;
    let seed = run.seed;
    let (mut map, _, mut cfg) = deploy_with_in(
        &params,
        SchemeKind::Centralized,
        spec.k,
        seed,
        customize(spec, run),
        arena,
    );
    let sensors = map.active_sensors();
    // The probe borrows the arena's pooled radio before the restore
    // placer needs it, and returns it below — `Network::reset` makes the
    // reused instance indistinguishable from a fresh one.
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
    let report = sim.run(&mut net, &victims, fail_at, fail_at + 30 * PROBE_PERIOD);
    let rate = if victims.is_empty() {
        1.0
    } else {
        report.first_detection.len() as f64 / victims.len() as f64
    };
    let latency = report
        .max_latency(fail_at)
        .map(|l| l as f64 / PROBE_PERIOD as f64)
        .unwrap_or(0.0);
    for &v in &victims {
        map.deactivate_sensor(sensors[v].0);
    }
    if loss > 0 {
        cfg.link = LinkConfig::lossy(loss as f64 / 100.0, seed ^ 0x7A);
    }
    let placer = params.placer(spec.scheme, seed ^ 0x9E37);
    // Hand the probe radio back first so the restore placer reuses it
    // instead of building a fresh network.
    arena.scratch.net = Some(net);
    let restore = placer.place_in(&mut map, &cfg, &mut arena.scratch);
    let coverage = map.fraction_k_covered(cfg.k);
    arena.recycle(map);
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

    fn quick_spec() -> ScenarioSpec {
        let p = ExpParams::quick();
        ScenarioSpec {
            name: "quick".into(),
            ..ScenarioSpec::from_params(&p, SchemeKind::Centralized, 1)
        }
    }

    #[test]
    fn spec_json_roundtrips() {
        let mut spec = quick_spec();
        spec.chaos_seed = Some(0xFFFF_FFFF_FFFF_FFFF);
        spec.trace = true;
        spec.workload = Workload::FailureProbe;
        let back = ScenarioSpec::from_json(&spec.to_json()).unwrap();
        assert_eq!(back, spec);
    }

    #[test]
    fn missing_fields_take_defaults() {
        let spec = ScenarioSpec::from_json(r#"{"scheme":"grid-big"}"#).unwrap();
        assert_eq!(spec.scheme, SchemeKind::GridBig);
        let defaults = ScenarioSpec::default();
        assert_eq!(spec.k, defaults.k);
        assert_eq!(spec.n_points, defaults.n_points);
        assert_eq!(spec.base_seed, defaults.base_seed);
        assert_eq!(spec.workload, Workload::Deploy);
    }

    #[test]
    fn unknown_fields_are_ignored() {
        let spec =
            ScenarioSpec::from_json(r#"{"scheme":"random","future_knob":42,"k":2}"#).unwrap();
        assert_eq!(spec.scheme, SchemeKind::Random);
        assert_eq!(spec.k, 2);
    }

    #[test]
    fn malformed_specs_error_without_panicking() {
        for (bad, needle) in [
            (r#"{"k":1}"#, "missing required field 'scheme'"),
            (r#"{"scheme":"quantum"}"#, "unknown scheme"),
            (
                r#"{"scheme":"random","workload":"dance"}"#,
                "unknown workload",
            ),
            (r#"{"scheme":"random","k":0}"#, "k must be at least 1"),
            (r#"{"scheme":"random","loss_pct":100}"#, "loss_pct"),
            (r#"{"scheme":"random","replicas":0}"#, "replicas"),
            (r#"{"scheme":"random","fail_frac":1.5}"#, "fail_frac"),
            (r#"{"scheme":"random","k":"three"}"#, "field 'k'"),
            (
                r#"{"scheme":"random","k":4294967298}"#,
                "field 'k' out of range",
            ),
            (
                r#"{"scheme":"random","loss_pct":4294967306}"#,
                "field 'loss_pct' out of range",
            ),
            (r#"not json"#, "scenario spec"),
            (r#"[1,2]"#, "expected a JSON object"),
        ] {
            let err = ScenarioSpec::from_json(bad).unwrap_err();
            assert!(err.contains(needle), "{bad} -> {err}");
        }
    }

    #[test]
    fn matrix_expansion_uses_replica_seed_mixing() {
        let mut a = quick_spec();
        a.replicas = 3;
        let mut b = quick_spec();
        b.scheme = SchemeKind::Random;
        b.replicas = 2;
        b.base_seed = 99;
        let m = ScenarioMatrix::new(vec![a, b]).unwrap();
        assert_eq!(m.n_runs(), 5);
        let runs = m.expand();
        assert_eq!(runs.len(), 5);
        for (i, r) in runs[..3].iter().enumerate() {
            assert_eq!((r.cell, r.replica), (0, i));
            assert_eq!(r.seed, replica_seed(ExpParams::quick().base_seed, i));
        }
        assert_eq!(runs[3].seed, replica_seed(99, 0));
        assert_eq!(runs[4].seed, replica_seed(99, 1));
    }

    #[test]
    fn matrix_jsonl_roundtrips_and_fingerprints() {
        let m = ScenarioMatrix::axes(
            &quick_spec(),
            &[SchemeKind::Centralized, SchemeKind::Random],
            &[1, 2],
            &[0, 20],
        )
        .unwrap();
        assert_eq!(m.cells().len(), 8);
        let text = format!("# a comment\n\n{}", m.to_jsonl());
        let back = ScenarioMatrix::from_jsonl(&text).unwrap();
        assert_eq!(back, m);
        assert_eq!(back.fingerprint(), m.fingerprint());
        let mut other = m.clone();
        other.cells[0].k = 5;
        assert_ne!(
            ScenarioMatrix::new(other.cells).unwrap().fingerprint(),
            m.fingerprint()
        );
        assert!(ScenarioMatrix::from_jsonl("\n# only comments\n").is_err());
        let err = ScenarioMatrix::from_jsonl("{\"scheme\":\"bogus\"}\n").unwrap_err();
        assert!(err.contains("line 1"), "{err}");
    }

    #[test]
    fn capped_matrix_trims_runs_exactly() {
        let m = ScenarioMatrix::axes(
            &quick_spec(),
            &[SchemeKind::Centralized, SchemeKind::Random],
            &[1, 2],
            &[0],
        )
        .unwrap();
        assert_eq!(m.n_runs(), 8, "2 replicas x 4 cells");
        let capped = m.capped(5).unwrap();
        assert_eq!(capped.n_runs(), 5);
        assert_eq!(capped.cells().len(), 3, "boundary cell keeps 1 replica");
        assert_eq!(capped.cells()[2].replicas, 1);
        assert_eq!(m.capped(100).unwrap(), m, "a loose cap changes nothing");
        assert!(m.capped(0).is_err());
    }

    #[test]
    fn axes_k_mixing_matches_fig08() {
        let template = quick_spec();
        let m = ScenarioMatrix::axes(&template, &[SchemeKind::Centralized], &[2], &[0]).unwrap();
        assert_eq!(
            m.cells()[0].base_seed,
            template.base_seed ^ (2u64) << 8,
            "the k axis must reuse the fig-08 seed mixing"
        );
    }

    #[test]
    fn run_result_json_roundtrips() {
        let r = RunResult {
            cell: 3,
            replica: 1,
            seed: u64::MAX,
            coverage_pct: 99.7512,
            missed_area: 24.875,
            total_sensors: 210,
            placed: 10,
            rounds: 4,
            retries: 17,
            gave_up: 1,
            fully_covered: false,
            invariant_violations: 0,
            probe: Some(ProbeStats {
                detection_rate_pct: 100.0,
                false_alarms: 2.0,
                worst_latency_periods: 3.5,
            }),
            wall_ns: 123_456,
            trace: Some("{\"seq\":0}\n{\"seq\":1}\n".into()),
        };
        let back = RunResult::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);
        // The fingerprint ignores wall time but nothing else.
        let mut later = r.clone();
        later.wall_ns = 999;
        assert_eq!(later.fingerprint_json(), r.fingerprint_json());
        later.retries = 18;
        assert_ne!(later.fingerprint_json(), r.fingerprint_json());
        assert!(RunResult::from_json("{}").is_err());
    }

    #[test]
    fn deploy_run_matches_common_deploy() {
        let spec = quick_spec();
        let m = ScenarioMatrix::new(vec![spec.clone()]).unwrap();
        let run = m.expand()[0];
        let result = execute_run(&spec, &run);
        let (map, out, cfg) = crate::common::deploy(&spec.params(), spec.scheme, spec.k, run.seed);
        assert_eq!(result.total_sensors, out.total_sensors());
        assert_eq!(result.placed, out.placed.len());
        assert_eq!(result.fully_covered, out.fully_covered);
        assert_eq!(
            result.coverage_pct,
            map.fraction_k_covered(cfg.k) * 100.0,
            "bitwise, not approximately"
        );
        assert!(result.wall_ns > 0, "wall time is measured");
        assert!(result.trace.is_none());
        assert!(result.probe.is_none());
    }

    #[test]
    fn traced_run_changes_nothing_but_the_trace() {
        let mut spec = quick_spec();
        let run = ScenarioMatrix::new(vec![spec.clone()]).unwrap().expand()[0];
        let plain = execute_run(&spec, &run);
        spec.trace = true;
        let traced = execute_run(&spec, &run);
        assert!(traced.trace.is_some());
        let mut stripped = traced.clone();
        stripped.trace = None;
        assert_eq!(stripped.fingerprint_json(), plain.fingerprint_json());
    }

    #[test]
    fn failure_probe_reports_detection_and_restores() {
        let mut spec = quick_spec();
        spec.workload = Workload::FailureProbe;
        spec.scheme = SchemeKind::VoronoiSmall;
        spec.k = 2;
        spec.loss_pct = 20;
        let run = ScenarioMatrix::new(vec![spec.clone()]).unwrap().expand()[0];
        let r = execute_run(&spec, &run);
        let probe = r.probe.expect("probe stats present");
        assert!(probe.detection_rate_pct > 85.0, "{probe:?}");
        assert_eq!(r.coverage_pct, 100.0, "restoration must recover coverage");
        assert!(r.retries > 0, "20% loss must cost retries");
    }

    #[test]
    fn chaos_seed_attaches_a_plan_and_the_checker() {
        let mut spec = quick_spec();
        spec.scheme = SchemeKind::GridSmall;
        spec.chaos_seed = Some(7);
        let run = ScenarioMatrix::new(vec![spec.clone()]).unwrap().expand()[0];
        let r = execute_run(&spec, &run);
        assert_eq!(r.invariant_violations, 0, "chaos must not break invariants");
        // Replicas get distinct plans.
        assert_ne!(
            chaos_plan(
                &spec,
                &RunSpec {
                    cell: 0,
                    replica: 0,
                    seed: 0
                }
            ),
            chaos_plan(
                &spec,
                &RunSpec {
                    cell: 0,
                    replica: 1,
                    seed: 0
                }
            ),
        );
    }
}
