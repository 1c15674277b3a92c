//! The one executor every experiment runs on, with checkpoint journals.
//!
//! One private worker pool runs every replica loop in `decor-exp`: scoped
//! worker threads, each owning a [`WorkerArena`], claim job indices with a
//! `fetch_add` on one atomic counter, accumulate `(index, result)` pairs
//! locally, and the pairs are scattered into their slots after the joins —
//! no shared lock on the hot path, results identical for every worker
//! count. [`MatrixRunner::run_with`] drives a [`ScenarioMatrix`] on it;
//! [`MatrixRunner::replicas`] runs a figure's per-seed closure on it.
//!
//! Long matrices checkpoint through a [`CheckpointJournal`]: a header line
//! pinning the matrix fingerprint followed by one [`RunResult`] JSON line
//! per completed run, appended as runs finish. A journal written by a run
//! that died mid-flight (truncated last line included) restores into a
//! skip-map, and the resumed matrix is bit-identical to an uninterrupted
//! one — `tests/matrix_checkpoint.rs` pins this end to end.

use crate::arena::WorkerArena;
use crate::scenario::{execute_run_in, RunResult, ScenarioMatrix};
use crate::stats::mean;
use decor_core::parallel::{default_threads, replica_seed};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Optional knobs for [`MatrixRunner::run_with`].
#[derive(Default)]
pub struct RunnerHooks<'a> {
    /// Runs already completed (index in matrix expansion order →
    /// restored result). Skipped runs are copied into the outcome
    /// without executing and do not count toward `stop_after`.
    pub skip: BTreeMap<usize, RunResult>,
    /// Called as each run finishes, from worker threads — the streaming
    /// output / journal-append hook. Must be cheap or internally locked.
    pub on_result: Option<&'a (dyn Fn(&RunResult) + Sync)>,
    /// Execute at most this many runs, then decline the rest (the
    /// "process died mid-flight" lever for checkpoint tests). Remaining
    /// slots stay `None` in the outcome.
    pub stop_after: Option<usize>,
}

/// What a matrix run produced.
#[derive(Debug)]
pub struct MatrixOutcome {
    /// One slot per run in matrix expansion order; `None` only when
    /// `stop_after` cut the run short.
    pub results: Vec<Option<RunResult>>,
    /// Wall time of the whole matrix, nanoseconds.
    pub wall_ns: u64,
    /// Time spent inside `execute_run`: the executed runs' `wall_ns`, summed.
    pub busy_ns: u64,
    /// Worker threads used.
    pub threads: usize,
    /// Runs actually executed this invocation.
    pub executed: usize,
    /// Runs restored from the skip-map.
    pub skipped: usize,
}

impl MatrixOutcome {
    /// Did every run produce a result?
    pub fn complete(&self) -> bool {
        self.results.iter().all(|r| r.is_some())
    }

    /// Fraction of the pool's wall-clock capacity spent executing runs —
    /// the saturation number the PR8 bench gates (>95% on a big matrix).
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 || self.threads == 0 {
            return 0.0;
        }
        self.busy_ns as f64 / (self.wall_ns as f64 * self.threads as f64)
    }

    /// Executed runs per wall-clock second.
    pub fn runs_per_sec(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.executed as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// The deterministic identity of the result set: one fingerprint line
    /// per completed run, expansion order, wall times zeroed. Two runs of
    /// the same matrix must agree on this whatever the thread count,
    /// checkpointing, or tracing (traces are compared too).
    pub fn fingerprint_lines(&self) -> Vec<String> {
        self.results
            .iter()
            .flatten()
            .map(|r| r.fingerprint_json())
            .collect()
    }
}

/// The work-stealing executor: scenario matrices through
/// [`MatrixRunner::run_with`], figure replica loops through
/// [`MatrixRunner::replicas`], both on the same pool.
#[derive(Clone, Copy, Debug)]
pub struct MatrixRunner {
    threads: usize,
}

impl MatrixRunner {
    /// A runner with an explicit worker count (`>= 1` enforced).
    pub fn new(threads: usize) -> Self {
        MatrixRunner {
            threads: threads.max(1),
        }
    }

    /// A runner sized by [`default_threads`] — hardware parallelism under
    /// the `DECOR_THREADS` override.
    pub fn auto() -> Self {
        MatrixRunner::new(default_threads())
    }

    /// The worker count this runner uses.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs the whole matrix.
    pub fn run(&self, matrix: &ScenarioMatrix) -> MatrixOutcome {
        self.run_with(matrix, RunnerHooks::default())
    }

    /// Runs the matrix under [`RunnerHooks`].
    pub fn run_with(&self, matrix: &ScenarioMatrix, hooks: RunnerHooks<'_>) -> MatrixOutcome {
        let runs = matrix.expand();
        let cells = matrix.cells();
        let stop_budget = hooks.stop_after.unwrap_or(usize::MAX);
        let claimed = AtomicUsize::new(0);
        let t0 = std::time::Instant::now();
        let (mut results, threads) = pool(self.threads, runs.len(), |i, arena| {
            if hooks.skip.contains_key(&i) {
                return None;
            }
            // Claim an execution permit; past the budget every index is
            // declined (a claim is never returned, so the cut is exact).
            if claimed.fetch_add(1, Ordering::Relaxed) >= stop_budget {
                return None;
            }
            let run = runs[i];
            let result = execute_run_in(&cells[run.cell], &run, arena);
            if let Some(f) = hooks.on_result {
                f(&result);
            }
            Some(result)
        });
        let executed = results.iter().flatten().count();
        let busy_ns = results.iter().flatten().map(|r| r.wall_ns).sum();
        let mut skipped = 0usize;
        for (&i, cached) in &hooks.skip {
            if let Some(slot) = results.get_mut(i) {
                *slot = Some(cached.clone());
                skipped += 1;
            }
        }
        MatrixOutcome {
            results,
            wall_ns: t0.elapsed().as_nanos() as u64,
            busy_ns,
            threads,
            executed,
            skipped,
        }
    }

    /// Runs `f(i, replica_seed(base_seed, i))` for replicas `0..n` on the
    /// pool and returns the results in replica order. `f` must be
    /// deterministic in its arguments; the output is then identical to
    /// the sequential loop for every worker count.
    pub fn replicas<T, F>(&self, n: usize, base_seed: u64, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, u64) -> T + Sync,
    {
        let (slots, _) = pool(self.threads, n, |i, _| {
            Some(f(i, replica_seed(base_seed, i)))
        });
        slots
            .into_iter()
            .map(|slot| slot.expect("every replica filled"))
            .collect()
    }
}

/// The pool: `threads` scoped workers (at most one per job, at least one),
/// each owning a [`WorkerArena`], claim indices `0..n` off one atomic
/// counter and run `job` on them; `None` declines an index. Each worker
/// keeps its `(index, result)` pairs locally and the pairs are scattered
/// into their slots after the joins. Returns the slots and the worker
/// count.
fn pool<T, F>(threads: usize, n: usize, job: F) -> (Vec<Option<T>>, usize)
where
    T: Send,
    F: Fn(usize, &mut WorkerArena) -> Option<T> + Sync,
{
    let threads = threads.clamp(1, n.max(1));
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<T>> = (0..n).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|_| {
                    let mut local = Vec::new();
                    // After the first run per scenario shape, a worker's
                    // runs reuse its arena's allocations.
                    let mut arena = WorkerArena::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break local;
                        }
                        if let Some(out) = job(i, &mut arena) {
                            local.push((i, out));
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            for (i, out) in h.join().expect("pool worker panicked") {
                debug_assert!(slots[i].is_none(), "job {i} computed twice");
                slots[i] = Some(out);
            }
        }
    })
    .expect("pool scope failed");
    (slots, threads)
}

/// Aggregated view of one cell: the replica means the figure tables print.
/// Means are computed with [`crate::stats::mean`] over replica order, so a
/// refactored figure module reproduces its legacy numbers bit for bit.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSummary {
    /// Cell index in the matrix.
    pub cell: usize,
    /// The cell's label.
    pub name: String,
    /// Replicas aggregated (None-slots from a stopped run are excluded —
    /// check [`MatrixOutcome::complete`] before trusting means).
    pub replicas: usize,
    /// Mean final coverage, percent.
    pub mean_coverage_pct: f64,
    /// Mean uncovered area.
    pub mean_missed_area: f64,
    /// Mean sensors active after the run.
    pub mean_total_sensors: f64,
    /// Mean sensors placed.
    pub mean_placed: f64,
    /// Mean transport retries.
    pub mean_retries: f64,
    /// Mean notices that exhausted their retry budget.
    pub mean_gave_up: f64,
    /// Did every aggregated replica reach full coverage?
    pub all_fully_covered: bool,
    /// Invariant violations summed across replicas.
    pub invariant_violations: usize,
    /// Probe means (failure-probe cells only).
    pub mean_detection_rate_pct: Option<f64>,
    /// Mean false alarms.
    pub mean_false_alarms: Option<f64>,
    /// Mean worst detection latency, periods.
    pub mean_worst_latency_periods: Option<f64>,
}

impl CellSummary {
    /// Canonical single-line JSON (the `decor-serve` summary stream).
    pub fn to_json(&self) -> String {
        use crate::jsonio::{num, Json};
        let opt = |v: Option<f64>, what: &str| match v {
            Some(x) => num(x, what),
            None => Json::Null,
        };
        Json::Obj(vec![
            ("cell".into(), Json::UInt(self.cell as u64)),
            ("name".into(), Json::Str(self.name.clone())),
            ("replicas".into(), Json::UInt(self.replicas as u64)),
            (
                "mean_coverage_pct".into(),
                num(self.mean_coverage_pct, "mean_coverage_pct"),
            ),
            (
                "mean_missed_area".into(),
                num(self.mean_missed_area, "mean_missed_area"),
            ),
            (
                "mean_total_sensors".into(),
                num(self.mean_total_sensors, "mean_total_sensors"),
            ),
            ("mean_placed".into(), num(self.mean_placed, "mean_placed")),
            (
                "mean_retries".into(),
                num(self.mean_retries, "mean_retries"),
            ),
            (
                "mean_gave_up".into(),
                num(self.mean_gave_up, "mean_gave_up"),
            ),
            (
                "all_fully_covered".into(),
                Json::Bool(self.all_fully_covered),
            ),
            (
                "invariant_violations".into(),
                Json::UInt(self.invariant_violations as u64),
            ),
            (
                "mean_detection_rate_pct".into(),
                opt(self.mean_detection_rate_pct, "mean_detection_rate_pct"),
            ),
            (
                "mean_false_alarms".into(),
                opt(self.mean_false_alarms, "mean_false_alarms"),
            ),
            (
                "mean_worst_latency_periods".into(),
                opt(
                    self.mean_worst_latency_periods,
                    "mean_worst_latency_periods",
                ),
            ),
        ])
        .render()
    }
}

/// Collapses a matrix outcome into per-cell summaries (matrix order).
pub fn aggregate(matrix: &ScenarioMatrix, outcome: &MatrixOutcome) -> Vec<CellSummary> {
    let mut per_cell: Vec<Vec<&RunResult>> = vec![Vec::new(); matrix.cells().len()];
    for r in outcome.results.iter().flatten() {
        per_cell[r.cell].push(r);
    }
    // Expansion order is replica order within a cell, so each bucket is
    // already sorted — which keeps the f64 summation order identical to
    // the legacy sequential loops.
    matrix
        .cells()
        .iter()
        .enumerate()
        .map(|(cell, spec)| {
            let rs = &per_cell[cell];
            let col =
                |f: &dyn Fn(&RunResult) -> f64| mean(&rs.iter().map(|r| f(r)).collect::<Vec<_>>());
            let probes: Vec<_> = rs.iter().filter_map(|r| r.probe).collect();
            let probe_col = |f: &dyn Fn(&crate::scenario::ProbeStats) -> f64| {
                if probes.len() == rs.len() && !probes.is_empty() {
                    Some(mean(&probes.iter().map(f).collect::<Vec<_>>()))
                } else {
                    None
                }
            };
            CellSummary {
                cell,
                name: spec.name.clone(),
                replicas: rs.len(),
                mean_coverage_pct: col(&|r| r.coverage_pct),
                mean_missed_area: col(&|r| r.missed_area),
                mean_total_sensors: col(&|r| r.total_sensors as f64),
                mean_placed: col(&|r| r.placed as f64),
                mean_retries: col(&|r| r.retries as f64),
                mean_gave_up: col(&|r| r.gave_up as f64),
                all_fully_covered: !rs.is_empty() && rs.iter().all(|r| r.fully_covered),
                invariant_violations: rs.iter().map(|r| r.invariant_violations).sum(),
                mean_detection_rate_pct: probe_col(&|p| p.detection_rate_pct),
                mean_false_alarms: probe_col(&|p| p.false_alarms),
                mean_worst_latency_periods: probe_col(&|p| p.worst_latency_periods),
            }
        })
        .collect()
}

/// The checkpoint journal format: a header line naming the matrix, then
/// one [`RunResult`] line per completed run in completion (not expansion)
/// order. Append-only, so a crash can at worst truncate the final line —
/// [`CheckpointJournal::load`] tolerates exactly that.
pub struct CheckpointJournal;

impl CheckpointJournal {
    /// The header line for a matrix (no trailing newline).
    pub fn header(matrix: &ScenarioMatrix) -> String {
        use crate::jsonio::Json;
        Json::Obj(vec![
            ("journal".into(), Json::Str("decor-matrix".into())),
            ("fingerprint".into(), Json::UInt(matrix.fingerprint())),
            ("n_runs".into(), Json::UInt(matrix.n_runs() as u64)),
        ])
        .render()
    }

    /// Restores a journal into a [`RunnerHooks::skip`] map, verifying it
    /// belongs to `matrix`. A truncated final line (the crash case) is
    /// dropped silently; corruption anywhere else is an error.
    pub fn load(text: &str, matrix: &ScenarioMatrix) -> Result<BTreeMap<usize, RunResult>, String> {
        use crate::jsonio::Json;
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or("checkpoint journal: empty file")?;
        let h = Json::parse(header).map_err(|e| format!("checkpoint journal header: {e}"))?;
        if h.get("journal").and_then(|v| v.as_str()) != Some("decor-matrix") {
            return Err("checkpoint journal: not a decor-matrix journal".into());
        }
        let fp = h
            .get("fingerprint")
            .and_then(|v| v.as_u64())
            .ok_or("checkpoint journal: header missing fingerprint")?;
        if fp != matrix.fingerprint() {
            return Err(format!(
                "checkpoint journal: matrix fingerprint mismatch \
                 (journal {fp:#x}, spec {:#x}) — refusing to resume \
                 against a different matrix",
                matrix.fingerprint()
            ));
        }
        // Map (cell, replica) to the expansion index.
        let mut offset = Vec::with_capacity(matrix.cells().len());
        let mut acc = 0usize;
        for c in matrix.cells() {
            offset.push(acc);
            acc += c.replicas;
        }
        let mut skip = BTreeMap::new();
        let mut pending: Vec<(usize, &str)> = lines.filter(|(_, l)| !l.trim().is_empty()).collect();
        let last = pending.pop();
        let mut insert = |lineno: usize, line: &str, tolerant: bool| -> Result<(), String> {
            match RunResult::from_json(line) {
                Ok(r) => {
                    let cell = matrix.cells().get(r.cell).ok_or_else(|| {
                        format!("line {}: cell {} out of range", lineno + 1, r.cell)
                    })?;
                    if r.replica >= cell.replicas {
                        return Err(format!(
                            "line {}: replica {} out of range for cell {}",
                            lineno + 1,
                            r.replica,
                            r.cell
                        ));
                    }
                    skip.insert(offset[r.cell] + r.replica, r);
                    Ok(())
                }
                Err(e) if tolerant => {
                    // The crash-truncated tail: drop it, the run re-executes.
                    let _ = e;
                    Ok(())
                }
                Err(e) => Err(format!("line {}: {e}", lineno + 1)),
            }
        };
        for (lineno, line) in pending {
            insert(lineno, line, false)?;
        }
        if let Some((lineno, line)) = last {
            insert(lineno, line, true)?;
        }
        Ok(skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::ExpParams;
    use crate::scenario::{ScenarioSpec, Workload};
    use decor_core::SchemeKind;
    use std::sync::Mutex;

    fn tiny_matrix() -> ScenarioMatrix {
        let p = ExpParams::quick();
        let mut a = ScenarioSpec::from_params(&p, SchemeKind::Centralized, 1);
        a.name = "a".into();
        a.replicas = 3;
        let mut b = ScenarioSpec::from_params(&p, SchemeKind::GridSmall, 1);
        b.name = "b".into();
        b.replicas = 2;
        ScenarioMatrix::new(vec![a, b]).unwrap()
    }

    #[test]
    fn thread_counts_agree_bitwise() {
        let m = tiny_matrix();
        let reference = MatrixRunner::new(1).run(&m);
        assert!(reference.complete());
        assert_eq!(reference.executed, 5);
        for threads in [2, 8] {
            let got = MatrixRunner::new(threads).run(&m);
            assert_eq!(
                got.fingerprint_lines(),
                reference.fingerprint_lines(),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn replicas_match_sequential() {
        let work = |i: usize, seed: u64| (i, seed, (i as u64).wrapping_mul(seed));
        let seq: Vec<_> = (0..8).map(|i| work(i, replica_seed(7, i))).collect();
        assert_eq!(MatrixRunner::auto().replicas(8, 7, work), seq);
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let reference: Vec<_> = (0..12).map(|i| (i, replica_seed(11, i))).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = MatrixRunner::new(threads).replicas(12, 11, |i, seed| (i, seed));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn replicas_zero_is_empty() {
        let v: Vec<u32> = MatrixRunner::new(4).replicas(0, 1, |_, _| 0);
        assert!(v.is_empty());
    }

    #[test]
    fn replicas_heavier_than_threads() {
        // Far more replicas than workers exercises the work stealing.
        let v = MatrixRunner::new(3).replicas(500, 3, |i, _| i * i);
        assert_eq!(v, (0..500).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn on_result_streams_every_run() {
        let m = tiny_matrix();
        let seen = Mutex::new(Vec::new());
        let hook = |r: &RunResult| seen.lock().unwrap().push((r.cell, r.replica));
        let out = MatrixRunner::new(4).run_with(
            &m,
            RunnerHooks {
                on_result: Some(&hook),
                ..RunnerHooks::default()
            },
        );
        let mut got = seen.into_inner().unwrap();
        got.sort_unstable();
        assert_eq!(got, vec![(0, 0), (0, 1), (0, 2), (1, 0), (1, 1)]);
        assert!(out.complete());
    }

    #[test]
    fn stop_after_cuts_exactly_and_skip_resumes() {
        let m = tiny_matrix();
        let full = MatrixRunner::new(2).run(&m);
        let partial = MatrixRunner::new(2).run_with(
            &m,
            RunnerHooks {
                stop_after: Some(2),
                ..RunnerHooks::default()
            },
        );
        assert_eq!(partial.executed, 2);
        assert!(!partial.complete());
        // Resume from the partial results.
        let mut skip = BTreeMap::new();
        for (i, r) in partial.results.iter().enumerate() {
            if let Some(r) = r {
                skip.insert(i, r.clone());
            }
        }
        let resumed = MatrixRunner::new(2).run_with(
            &m,
            RunnerHooks {
                skip,
                ..RunnerHooks::default()
            },
        );
        assert_eq!(resumed.skipped, 2);
        assert_eq!(resumed.executed, 3);
        assert!(resumed.complete());
        assert_eq!(resumed.fingerprint_lines(), full.fingerprint_lines());
    }

    #[test]
    fn outcome_accounting_is_sane() {
        let m = tiny_matrix();
        let out = MatrixRunner::new(2).run(&m);
        assert!(out.wall_ns > 0);
        assert!(out.busy_ns > 0);
        assert!(out.runs_per_sec() > 0.0);
        let u = out.utilization();
        assert!(u > 0.0 && u <= 1.0, "utilization {u}");
    }

    #[test]
    fn aggregate_matches_legacy_mean() {
        let m = tiny_matrix();
        let out = MatrixRunner::new(4).run(&m);
        let summaries = aggregate(&m, &out);
        assert_eq!(summaries.len(), 2);
        // Cell 0 means must equal the sequential stats::mean computation.
        let cell0: Vec<f64> = out.results[..3]
            .iter()
            .map(|r| r.as_ref().unwrap().total_sensors as f64)
            .collect();
        assert_eq!(summaries[0].mean_total_sensors, mean(&cell0));
        assert_eq!(summaries[0].replicas, 3);
        assert_eq!(summaries[1].replicas, 2);
        assert!(summaries[0].all_fully_covered);
        assert!(summaries[0].mean_detection_rate_pct.is_none());
        let json = summaries[0].to_json();
        assert!(json.contains("\"name\":\"a\""), "{json}");
    }

    #[test]
    fn aggregate_carries_probe_columns() {
        let p = ExpParams::quick();
        let mut spec = ScenarioSpec::from_params(&p, SchemeKind::VoronoiSmall, 2);
        spec.workload = Workload::FailureProbe;
        spec.replicas = 2;
        let m = ScenarioMatrix::new(vec![spec]).unwrap();
        let out = MatrixRunner::new(2).run(&m);
        let s = &aggregate(&m, &out)[0];
        assert!(s.mean_detection_rate_pct.unwrap() > 85.0);
        assert!(s.mean_false_alarms.is_some());
        assert!(s.to_json().contains("mean_detection_rate_pct"));
    }

    #[test]
    fn journal_roundtrip_resumes_bit_identically() {
        let m = tiny_matrix();
        let full = MatrixRunner::new(2).run(&m);
        // Journal the first three completions, in arbitrary order.
        let mut journal = CheckpointJournal::header(&m);
        journal.push('\n');
        for i in [4usize, 0, 2] {
            journal.push_str(&full.results[i].as_ref().unwrap().to_json());
            journal.push('\n');
        }
        let skip = CheckpointJournal::load(&journal, &m).unwrap();
        assert_eq!(skip.keys().copied().collect::<Vec<_>>(), vec![0, 2, 4]);
        let resumed = MatrixRunner::new(1).run_with(
            &m,
            RunnerHooks {
                skip,
                ..RunnerHooks::default()
            },
        );
        assert_eq!(resumed.executed, 2);
        assert_eq!(resumed.skipped, 3);
        assert_eq!(resumed.fingerprint_lines(), full.fingerprint_lines());
    }

    #[test]
    fn journal_tolerates_a_truncated_tail_only() {
        let m = tiny_matrix();
        let full = MatrixRunner::new(1).run(&m);
        let line = full.results[0].as_ref().unwrap().to_json();
        let header = CheckpointJournal::header(&m);
        // Truncated last line: dropped, the one intact line survives.
        let crashed = format!("{header}\n{line}\n{}", &line[..line.len() / 2]);
        let skip = CheckpointJournal::load(&crashed, &m).unwrap();
        assert_eq!(skip.len(), 1);
        // The same corruption mid-file is an error.
        let corrupt = format!("{header}\n{}\n{line}\n", &line[..line.len() / 2]);
        let err = CheckpointJournal::load(&corrupt, &m).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn journal_refuses_a_different_matrix() {
        let m = tiny_matrix();
        let other = {
            let mut cells = m.cells().to_vec();
            cells[0].k = 2;
            ScenarioMatrix::new(cells).unwrap()
        };
        let journal = format!("{}\n", CheckpointJournal::header(&other));
        let err = CheckpointJournal::load(&journal, &m).unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
        assert!(CheckpointJournal::load("", &m).is_err());
        assert!(CheckpointJournal::load("{\"journal\":\"nope\"}", &m).is_err());
    }
}
