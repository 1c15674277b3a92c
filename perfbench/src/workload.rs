//! What every workload provides, and the helpers they share.

use crate::spans::Tracer;
use crate::stats::{fnv1a, FNV_OFFSET};
use decor_core::{CoverageMap, DeploymentConfig, PlacementOutcome, Placer, SchemeKind, SimScratch};
use decor_lds::vdc::splitmix64;

/// What one op produced.
#[derive(Clone, Debug, PartialEq)]
pub struct OpOutput {
    /// Hash of the op's deterministic output.
    pub digest: u64,
    /// Sensors the op placed.
    pub sensors: u64,
    /// The first per-op check the output failed, if any.
    pub problem: Option<String>,
}

/// The runner scaling probe's result.
#[derive(Clone, Copy, Debug)]
pub struct RunnerProbe {
    /// Share of the pool's wall-clock capacity spent executing runs.
    pub utilization: f64,
    /// One-worker wall time over `nproc`-worker wall time.
    pub speedup: f64,
    /// Worker time not spent executing runs, milliseconds.
    pub idle_ms: f64,
}

/// One workload after set-up. Op `i` runs input `i % inputs()`, and the
/// same input always gives the same output.
pub trait Workload {
    /// Distinct inputs the ops cycle through.
    fn inputs(&self) -> usize;

    /// Untimed work before an op, such as resetting the field.
    fn prepare(&mut self, _input: usize) {}

    /// One op through the program's own entry points, tracing off.
    fn run(&mut self, input: usize) -> OpOutput;

    /// The same op replayed step by step through public calls, each call
    /// into a layer wrapped in a span. Must give the output [`Workload::run`]
    /// gives.
    fn replay(&mut self, input: usize, tracer: &Tracer) -> OpOutput;

    /// Compares other paths through the program, the traced replay among
    /// them, on a sample of the latest op's runs; returns how many runs it
    /// compared.
    fn cross_check(&mut self) -> Result<usize, String> {
        Ok(0)
    }

    /// The runner scaling probe, for workloads that go through the runner.
    fn runner_probe(&mut self) -> Result<Option<RunnerProbe>, String> {
        Ok(None)
    }
}

/// Mixes the benchmark's seed into a committed seed. Seed 0 leaves every
/// committed seed as it is, so seed 0 runs the committed inputs verbatim.
pub fn seed_mix(seed: u64) -> u64 {
    if seed == 0 {
        0
    } else {
        splitmix64(seed)
    }
}

/// The span name (= layer) of a scheme's placer.
pub fn layer_of(scheme: SchemeKind) -> &'static str {
    match scheme {
        SchemeKind::Centralized => "centralized",
        SchemeKind::GridSmall => "grid_scheme.small",
        SchemeKind::GridBig => "grid_scheme.big",
        SchemeKind::VoronoiSmall => "voronoi_scheme.small",
        SchemeKind::VoronoiBig => "voronoi_scheme.big",
        SchemeKind::Random => "random_place",
        SchemeKind::Holes => "hole_scheme",
    }
}

/// A placer that opens a span around every call into the wrapped one and
/// counts what the call placed and sent.
pub struct Spanned<'a> {
    /// The wrapped placer.
    pub inner: &'a dyn Placer,
    /// Its layer.
    pub layer: &'static str,
    /// Where the spans and counters go.
    pub tracer: &'a Tracer,
}

impl Spanned<'_> {
    fn record(&self, out: &PlacementOutcome) {
        let t = self.tracer;
        t.add(&format!("{}.sensors", self.layer), out.placed.len() as f64);
        t.add(&format!("{}.rounds", self.layer), out.rounds as f64);
        let m = &out.messages;
        t.add("transport.msgs", m.protocol_total as f64);
        t.add("transport.retries", m.retries as f64);
        t.add("transport.acks", m.acks as f64);
        t.add("transport.gave_up", m.notices_gave_up as f64);
        t.add("transport.dup_suppressed", m.duplicates_suppressed as f64);
    }
}

impl Placer for Spanned<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn place(&self, map: &mut CoverageMap, cfg: &DeploymentConfig) -> PlacementOutcome {
        let out = self.tracer.span(self.layer, || self.inner.place(map, cfg));
        self.record(&out);
        out
    }

    fn place_in(
        &self,
        map: &mut CoverageMap,
        cfg: &DeploymentConfig,
        scratch: &mut SimScratch,
    ) -> PlacementOutcome {
        let out = self
            .tracer
            .span(self.layer, || self.inner.place_in(map, cfg, scratch));
        self.record(&out);
        out
    }
}

/// Adds the counts of a `TraceHandle::counting()` sink to the tracer's
/// `trace.events.<kind>` counters.
pub fn add_event_counts(tracer: &Tracer, cfg: &DeploymentConfig) {
    for (kind, n) in cfg.trace.counts().unwrap_or_default() {
        tracer.add(&format!("trace.events.{kind}"), n as f64);
    }
}

/// An FNV-1a digest built field by field.
pub struct Digest(u64);

impl Digest {
    /// An empty digest.
    pub fn new() -> Self {
        Digest(FNV_OFFSET)
    }

    /// Adds a string and a separator.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.0 = fnv1a(fnv1a(self.0, s.as_bytes()), b"\n");
        self
    }

    /// Adds an integer.
    pub fn u64(&mut self, x: u64) -> &mut Self {
        self.0 = fnv1a(self.0, &x.to_le_bytes());
        self
    }

    /// Adds a float, bit for bit.
    pub fn f64(&mut self, x: f64) -> &mut Self {
        self.u64(x.to_bits())
    }

    /// The digest so far.
    pub fn finish(&self) -> u64 {
        self.0
    }
}
