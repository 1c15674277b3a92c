//! The metric tables: names and units as `BENCHMARK.json` lists them, and
//! how the traced run derives each per-layer metric from spans and
//! counters.

use crate::spans::Tracer;
use crate::workload::RunnerProbe;

/// A printed metric: name, unit, value.
pub type Metric = (String, &'static str, f64);

/// End-to-end metrics, measured with tracing off: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("ops_per_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_tail", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("sensors_per_op", "count"),
];

/// Every event kind a `TraceHandle::counting()` sink can see.
pub const EVENT_KINDS: &[&str] = &[
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

/// The distributed placers whose spans give `busy_ms`, `sensors`,
/// `rounds` and `us_per_sensor`.
const ROUND_PLACERS: &[&str] = &[
    "voronoi_scheme.small",
    "voronoi_scheme.big",
    "grid_scheme.small",
    "grid_scheme.big",
];

/// What the traced run measured, over `ops` replayed ops.
pub struct Traced<'a> {
    /// Spans and counters of every replayed op.
    pub tracer: &'a Tracer,
    /// Ops replayed.
    pub ops: f64,
    /// Untraced time of the same ops, nanoseconds.
    pub untraced_ns: f64,
    /// The runner scaling probe, where the workload has one.
    pub runner: Option<RunnerProbe>,
}

/// Per-op metrics derived from one tracer.
struct PerOp<'a> {
    t: &'a Tracer,
    ops: f64,
    out: Vec<Metric>,
}

impl PerOp<'_> {
    fn push(&mut self, name: &str, unit: &'static str, v: f64) {
        self.out.push((name.to_owned(), unit, v));
    }

    /// The counter `name`, per op.
    fn count(&mut self, name: &str, unit: &'static str) {
        let v = self.t.counter(name) / self.ops;
        self.push(name, unit, v);
    }

    /// `ns` nanoseconds in all, as milliseconds per op.
    fn ms(&mut self, name: &str, ns: u64) {
        let v = ns as f64 / 1e6 / self.ops;
        self.push(name, "ms", v);
    }
}

/// `num / den`, 0 when `den` is.
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every per-layer metric as `(name, unit, value)`, per op. A layer the
/// workload never calls reads 0.
pub fn per_layer(m: &Traced) -> Vec<Metric> {
    let t = m.tracer;
    let op_ns = t.busy_ns("op") as f64;
    let share = |ns: u64| ratio(100.0 * ns as f64, op_ns);
    let mut p = PerOp {
        t,
        ops: m.ops.max(1.0),
        out: Vec::new(),
    };

    for &layer in ROUND_PLACERS {
        let busy = t.busy_ns(layer);
        p.ms(&format!("{layer}.busy_ms"), busy);
        p.count(&format!("{layer}.sensors"), "count");
        p.count(&format!("{layer}.rounds"), "count");
        let sensors = t.counter(&format!("{layer}.sensors"));
        p.push(
            &format!("{layer}.us_per_sensor"),
            "us",
            ratio(busy as f64 / 1e3, sensors),
        );
    }
    let voronoi = t.busy_ns("voronoi_scheme.small") + t.busy_ns("voronoi_scheme.big");
    p.push("voronoi_scheme.share_pct", "%", share(voronoi));
    p.ms("random_place.busy_ms", t.busy_ns("random_place"));
    p.count("random_place.sensors", "count");

    let busy = t.busy_ns("centralized");
    p.ms("centralized.busy_ms", busy);
    p.count("centralized.sensors", "count");
    let sensors = t.counter("centralized.sensors");
    p.push(
        "centralized.us_per_sensor",
        "us",
        ratio(busy as f64 / 1e3, sensors),
    );
    p.push("centralized.share_pct", "%", share(busy));

    let busy = t.busy_ns("detect");
    p.ms("detect.busy_ms", busy);
    p.count("detect.heartbeats", "count");
    let heartbeats = t.counter("detect.heartbeats");
    p.push(
        "detect.ns_per_heartbeat",
        "ns",
        ratio(busy as f64, heartbeats),
    );
    let rate = ratio(t.counter("detect.detect_rate"), t.counter("detect.runs"));
    p.push("detect.detect_rate", "%", rate);
    p.count("detect.false_alarms", "count");
    p.push("detect.share_pct", "%", share(busy));

    let own = t.self_ns("restore");
    p.ms("restore.self_ms", own);
    p.count("restore.victims", "count");
    p.count("restore.mirror_nodes", "count");
    p.push("restore.share_pct", "%", share(own));

    let own = t.self_ns("endurance");
    p.ms("endurance.self_ms", own);
    p.count("endurance.periods", "periods");
    let periods = t.counter("endurance.periods");
    p.push(
        "endurance.us_per_period",
        "us",
        ratio(own as f64 / 1e3, periods),
    );
    p.count("endurance.lifetime_periods", "periods");
    for key in [
        "heartbeats",
        "restorations",
        "false_positives",
        "sleeping_suppressed",
    ] {
        p.count(&format!("endurance.{key}"), "count");
    }
    p.push("endurance.share_pct", "%", share(own));
    p.count("rotation.assignments", "count");
    p.count("rotation.reschedules", "count");

    p.ms("network.build_ms", t.busy_ns("network"));
    p.count("network.nodes", "count");

    for key in ["msgs", "retries", "acks", "gave_up", "dup_suppressed"] {
        p.count(&format!("transport.{key}"), "count");
    }
    // Goodput: first transmissions of data frames over all frames sent.
    let msgs = t.counter("transport.msgs");
    let data = msgs - t.counter("transport.acks") - t.counter("transport.retries");
    p.push("transport.goodput", "fraction", ratio(data, msgs));

    p.ms("arena.make_map_ms", t.busy_ns("arena"));
    p.count("arena.templates", "count");
    p.ms("coverage.measure_ms", t.busy_ns("coverage"));

    let r = m.runner;
    p.push(
        "runner.utilization",
        "fraction",
        r.map_or(0.0, |r| r.utilization),
    );
    p.push("runner.speedup", "x", r.map_or(0.0, |r| r.speedup));
    p.push("runner.idle_ms", "ms", r.map_or(0.0, |r| r.idle_ms));

    for kind in EVENT_KINDS {
        p.count(&format!("trace.events.{kind}"), "count");
    }
    p.ms("trace.op_ms", op_ns as u64);
    let overhead = ratio(100.0 * (op_ns - m.untraced_ns), m.untraced_ns);
    p.push("trace.overhead_pct", "%", overhead);
    p.out
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_exp::jsonio::Json;

    fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("BENCHMARK.json has no '{key}' list"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_owned();
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_printed_metrics() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).unwrap();
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        assert_eq!(listed(&doc, "end_to_end"), e2e);
        let tracer = Tracer::new();
        let layers: Vec<(String, String)> = per_layer(&Traced {
            tracer: &tracer,
            ops: 1.0,
            untraced_ns: 1.0,
            runner: None,
        })
        .into_iter()
        .map(|(n, u, _)| (n, u.to_owned()))
        .collect();
        assert_eq!(listed(&doc, "per_layer"), layers);
    }
}
