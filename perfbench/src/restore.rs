//! `restore-200k`: one radius-24 area disaster on a pristine 200k-point
//! field, repaired through `fail_and_restore` with the centralized placer
//! and no heartbeat phase, as `decor-cli restore` runs it.

use crate::spans::Tracer;
use crate::workload::{add_event_counts, seed_mix, Digest, OpOutput, Spanned, Workload};
use decor_core::restore::{fail_and_restore, RestorationReport};
use decor_core::{CentralizedGreedy, CoverageMap, DeploymentConfig, InvariantChecker};
use decor_exp::ExpParams;
use decor_geom::{Disk, Point};
use decor_lds::halton_points;
use decor_lds::vdc::splitmix64;
use decor_net::FailurePlan;
use decor_trace::TraceHandle;

/// Approximation points of the field (1000 × 1000 at the paper's density).
const POINTS: usize = 200_000;

/// Lattice pitch that 2-covers the field at `rs = 4`, as in the scale
/// benchmark of `crates/bench`.
const LATTICE: f64 = 3.5;

/// Disaster radius.
const HOLE_R: f64 = 24.0;

/// Disaster sites the ops cycle through.
const SITES: usize = 32;

/// Base of the site seeds; the benchmark's seed is mixed into it.
const SITE_SEED: u64 = 0x5173_D15A_2400;

/// The pristine lattice-covered field, and a working copy the ops damage.
pub struct RestoreWorkload {
    pristine: CoverageMap,
    map: CoverageMap,
    cfg: DeploymentConfig,
    sites: Vec<Point>,
    /// The latest untraced op's input and output.
    last: Option<(usize, OpOutput)>,
}

/// Builds the field, covers it with the lattice and warms up with one op.
pub fn setup(seed: u64) -> Result<RestoreWorkload, String> {
    let params = ExpParams::scaled(POINTS);
    let field = params.field();
    let side = params.field_side;
    let cfg = DeploymentConfig::with_k(2);
    let mut pristine = CoverageMap::new(halton_points(POINTS, &field), &field, &cfg);
    let n_side = (side / LATTICE).floor() as usize + 1;
    for i in 0..=n_side {
        for j in 0..=n_side {
            let pos = Point::new(
                (LATTICE * i as f64).min(side),
                (LATTICE * j as f64).min(side),
            );
            pristine.add_sensor(pos, cfg.rs);
        }
    }
    if pristine.count_below(cfg.k) > 0 {
        return Err("the lattice leaves part of the field below k".into());
    }
    let mix = seed_mix(seed);
    let sites = (0..SITES)
        .map(|i| {
            let a = splitmix64(SITE_SEED ^ mix ^ (i as u64));
            let b = splitmix64(a);
            let span = side - 2.0 * HOLE_R;
            Point::new(
                HOLE_R + (a >> 11) as f64 / (1u64 << 53) as f64 * span,
                HOLE_R + (b >> 11) as f64 / (1u64 << 53) as f64 * span,
            )
        })
        .collect();
    let mut w = RestoreWorkload {
        map: pristine.clone(),
        pristine,
        cfg,
        sites,
        last: None,
    };
    w.prepare(0);
    if let Some(problem) = w.run(0).problem {
        return Err(format!("warm-up op: {problem}"));
    }
    Ok(w)
}

impl RestoreWorkload {
    fn plan(&self, input: usize) -> FailurePlan {
        FailurePlan::Area {
            disk: Disk::new(self.sites[input], HOLE_R),
        }
    }
}

/// Digest, sensors and first failed check of one restoration.
fn summarize(r: &RestorationReport, cfg: &DeploymentConfig) -> OpOutput {
    let mut d = Digest::new();
    d.u64(r.victims as u64)
        .u64(r.detected as u64)
        .u64(r.detection_latency.unwrap_or(u64::MAX))
        .f64(r.coverage_after_failure)
        .u64(r.extra_nodes as u64)
        .f64(r.coverage_after_restore)
        .u64(r.false_restorations as u64)
        .u64(r.sleeping_suppressed)
        .u64(r.outcome.rounds as u64)
        .u64(r.outcome.messages.protocol_total);
    for p in &r.outcome.placed {
        d.f64(p.x).f64(p.y);
    }
    let problem = if r.victims == 0 {
        Some("the disaster hit no sensor".to_owned())
    } else if !r.outcome.fully_covered || r.coverage_after_restore < 1.0 {
        Some(format!(
            "not fully k-covered after restore ({})",
            r.coverage_after_restore
        ))
    } else if !cfg.invariants.violations().is_empty() {
        Some(format!(
            "{} invariant violations",
            cfg.invariants.violations().len()
        ))
    } else {
        None
    };
    OpOutput {
        digest: d.finish(),
        sensors: r.extra_nodes as u64,
        problem,
    }
}

impl Workload for RestoreWorkload {
    fn inputs(&self) -> usize {
        SITES
    }

    fn prepare(&mut self, _input: usize) {
        self.map.reset_from(&self.pristine);
    }

    fn run(&mut self, input: usize) -> OpOutput {
        let plan = self.plan(input);
        let report = fail_and_restore(&mut self.map, &CentralizedGreedy, &self.cfg, &plan, None);
        let out = summarize(&report, &self.cfg);
        self.last = Some((input, out.clone()));
        out
    }

    fn replay(&mut self, input: usize, tracer: &Tracer) -> OpOutput {
        let plan = self.plan(input);
        let mut cfg = self.cfg.clone();
        cfg.trace = TraceHandle::counting();
        cfg.invariants = InvariantChecker::enabled();
        tracer.add("restore.mirror_nodes", self.map.n_active_sensors() as f64);
        let placer = Spanned {
            inner: &CentralizedGreedy,
            layer: "centralized",
            tracer,
        };
        let report = tracer.span("restore", || {
            fail_and_restore(&mut self.map, &placer, &cfg, &plan, None)
        });
        tracer.add("restore.victims", report.victims as f64);
        add_event_counts(tracer, &cfg);
        summarize(&report, &cfg)
    }

    fn cross_check(&mut self) -> Result<usize, String> {
        let (input, plain) = self
            .last
            .clone()
            .ok_or("no untraced op ran before the check")?;
        self.prepare(input);
        let replayed = self.replay(input, &Tracer::new());
        if replayed != plain {
            return Err(format!(
                "site {input}: the replay gives {replayed:?}, the untraced op {plain:?}"
            ));
        }
        Ok(1)
    }
}
