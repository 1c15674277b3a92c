//! `endurance`: one `ext_endurance::endurance_pair` at paper scale, an
//! always-on and a rotating arm through the same disaster and chaos crash.

use crate::spans::Tracer;
use crate::workload::{add_event_counts, seed_mix, Digest, OpOutput, Spanned, Workload};
use decor_core::parallel::replica_seed;
use decor_core::{
    run_endurance, CentralizedGreedy, DeploymentConfig, EnduranceConfig, EnduranceReport,
    InvariantChecker, Placer,
};
use decor_exp::ext_endurance::{
    disaster_center, endurance_pair, DISASTER_PERIOD, DISASTER_R, K, MAX_PERIODS, SPARES,
};
use decor_exp::ExpParams;
use decor_geom::Disk;
use decor_net::{FaultPlan, RotationConfig};
use decor_trace::TraceHandle;

/// Replica seeds the ops cycle through.
const REPLICAS: usize = 16;

/// Endurance pairs over `REPLICAS` replica seeds.
pub struct EnduranceWorkload {
    params: ExpParams,
    seeds: Vec<u64>,
    /// The latest untraced op's input and output.
    last: Option<(usize, OpOutput)>,
}

/// Derives the replica seeds as `ext_endurance` does, with the
/// benchmark's seed mixed into their base, and warms up with one op.
pub fn setup(seed: u64) -> Result<EnduranceWorkload, String> {
    let params = ExpParams::paper();
    let base = params.base_seed ^ 0xE7D ^ seed_mix(seed);
    let mut w = EnduranceWorkload {
        params,
        seeds: (0..REPLICAS).map(|i| replica_seed(base, i)).collect(),
        last: None,
    };
    if let Some(problem) = w.run(0).problem {
        return Err(format!("warm-up op: {problem}"));
    }
    Ok(w)
}

/// Digest, sensors and first failed check of one pair, whose runs
/// recorded `violations` invariant violations.
fn summarize(on: &EnduranceReport, rot: &EnduranceReport, violations: usize) -> OpOutput {
    let problem = if on.false_positives + rot.false_positives > 0 {
        Some(format!(
            "false positives: always-on {}, rotating {}",
            on.false_positives, rot.false_positives
        ))
    } else if rot.lifetime_periods < on.lifetime_periods {
        Some(format!(
            "rotation shortened lifetime: {} < {} periods",
            rot.lifetime_periods, on.lifetime_periods
        ))
    } else if violations > 0 {
        Some(format!("{violations} invariant violations"))
    } else {
        None
    };
    OpOutput {
        digest: Digest::new().str(&format!("{on:?}\n{rot:?}")).finish(),
        sensors: (on.extra_nodes + rot.extra_nodes) as u64,
        problem,
    }
}

impl Workload for EnduranceWorkload {
    fn inputs(&self) -> usize {
        REPLICAS
    }

    fn run(&mut self, input: usize) -> OpOutput {
        let (on, rot) = endurance_pair(&self.params, self.seeds[input]);
        let out = summarize(&on, &rot, 0);
        self.last = Some((input, out.clone()));
        out
    }

    fn replay(&mut self, input: usize, tracer: &Tracer) -> OpOutput {
        let seed = self.seeds[input];
        let placer = Spanned {
            inner: &CentralizedGreedy,
            layer: "centralized",
            tracer,
        };
        // `endurance_pair`'s arm, step by step: `deploy_with` (centralized
        // deploy with rotation and the scripted crash), then the loop.
        let arm = |rotate: bool| {
            let mut cfg = DeploymentConfig::with_k(K);
            cfg.link = self.params.link(seed);
            cfg.rotation = Some(RotationConfig::default());
            cfg.chaos = Some(FaultPlan::parse("2000 crash 1\n").expect("literal plan parses"));
            cfg.trace = TraceHandle::counting();
            cfg.invariants = InvariantChecker::enabled();
            let mut map = tracer.span("common.make_map", || {
                self.params.make_map(&cfg, self.params.initial_nodes, seed)
            });
            placer.place(&mut map, &cfg);
            let e = EnduranceConfig {
                rotate,
                spare_budget: SPARES,
                max_periods: MAX_PERIODS,
                disasters: vec![(
                    DISASTER_PERIOD,
                    Disk::new(disaster_center(&self.params, seed), DISASTER_R),
                )],
                ..EnduranceConfig::default()
            };
            let report = tracer.span("endurance", || run_endurance(&mut map, &placer, &cfg, &e));
            add_event_counts(tracer, &cfg);
            record(tracer, &report);
            (report, cfg.invariants.violations().len())
        };
        let ((on, on_violations), (rot, rot_violations)) = (arm(false), arm(true));
        tracer.add("endurance.lifetime_periods", rot.lifetime_periods as f64);
        summarize(&on, &rot, on_violations + rot_violations)
    }

    fn cross_check(&mut self) -> Result<usize, String> {
        let (input, plain) = self
            .last
            .clone()
            .ok_or("no untraced op ran before the check")?;
        let replayed = self.replay(input, &Tracer::new());
        if replayed != plain {
            return Err(format!(
                "replica {input}: the replay gives {replayed:?}, the untraced op {plain:?}"
            ));
        }
        Ok(1)
    }
}

fn record(t: &Tracer, r: &EnduranceReport) {
    t.add("endurance.periods", r.lifetime_periods as f64);
    t.add("endurance.heartbeats", r.heartbeats_sent as f64);
    t.add("endurance.restorations", r.restorations as f64);
    t.add("endurance.false_positives", r.false_positives as f64);
    t.add(
        "endurance.sleeping_suppressed",
        r.sleeping_suppressed as f64,
    );
    t.add("rotation.assignments", r.assignments_sent as f64);
    t.add("rotation.reschedules", r.reschedules as f64);
}
