//! Deterministic chaos: scripted fault injection over the live network.
//!
//! Restoration protocols fail at the *composition* of faults — a
//! partition during an election, a leader crash between a placement
//! decision and its notice — which hand-written scenarios rarely reach.
//! This module makes those compositions first-class and reproducible:
//!
//! - a [`FaultPlan`] is a sim-time-ordered script of faults (crashes,
//!   partitions/heals, blackholed directed links, latency spikes,
//!   energy drains) with a stable text format for replay files;
//! - [`FaultPlan::generate`] derives a bounded random plan from a seed,
//!   so `(scenario, chaos_seed)` always replays bit-identically;
//! - a [`ChaosEngine`] applies the plan directly on the transport's
//!   event clock (see `Transport::flush_chaos_into`), so faults land *between
//!   retries* of in-flight messages, not just at round boundaries;
//! - [`shrink_plan`] delta-debugs a failing plan down to a locally
//!   minimal one (the vendored proptest shim cannot shrink).
//!
//! Every generated plan ends with cleanup events (heal, un-blackhole,
//! latency back to nominal) so "restoration converges once faults
//! cease" is a meaningful property to assert.

use crate::event::Time;
use crate::network::Network;
use crate::node::NodeId;
use decor_trace::TraceEvent;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One kind of injected fault.
#[derive(Clone, Debug, PartialEq)]
pub enum FaultKind {
    /// Node `node` dies (total: unknown ids are a no-op, like
    /// [`Network::fail_node`]).
    Crash {
        /// The victim's network node id.
        node: NodeId,
    },
    /// The medium splits: `side_a` vs everyone else. Replaces any
    /// earlier partition.
    Partition {
        /// Node ids on side A of the cut.
        side_a: Vec<NodeId>,
    },
    /// Removes the partition.
    Heal,
    /// The directed link `from -> to` eats every packet.
    Blackhole {
        /// Sending side of the severed link.
        from: NodeId,
        /// Receiving side of the severed link.
        to: NodeId,
    },
    /// Restores the directed link `from -> to`.
    Unblackhole {
        /// Sending side of the restored link.
        from: NodeId,
        /// Receiving side of the restored link.
        to: NodeId,
    },
    /// Every transport retry backoff gains `extra` ticks; 0 restores
    /// nominal timing.
    Latency {
        /// Extra ticks per backoff.
        extra: Time,
    },
    /// Node `node` is charged `amount` energy without transmitting.
    Drain {
        /// The drained node's id.
        node: NodeId,
        /// Energy units charged.
        amount: f64,
    },
}

/// One scheduled fault: a [`FaultKind`] stamped with its injection time
/// on the transport clock.
#[derive(Clone, Debug, PartialEq)]
pub struct FaultEvent {
    /// Injection time (ticks on the transport clock).
    pub at: Time,
    /// What happens.
    pub kind: FaultKind,
}

impl FaultEvent {
    /// The event's line in the [`FaultPlan`] text format.
    fn line(&self) -> String {
        match &self.kind {
            FaultKind::Crash { node } => format!("{} crash {node}", self.at),
            FaultKind::Partition { side_a } => {
                let ids: Vec<String> = side_a.iter().map(|id| id.to_string()).collect();
                format!("{} partition {}", self.at, ids.join(" "))
                    .trim_end()
                    .to_string()
            }
            FaultKind::Heal => format!("{} heal", self.at),
            FaultKind::Blackhole { from, to } => format!("{} blackhole {from} {to}", self.at),
            FaultKind::Unblackhole { from, to } => {
                format!("{} unblackhole {from} {to}", self.at)
            }
            FaultKind::Latency { extra } => format!("{} latency {extra}", self.at),
            FaultKind::Drain { node, amount } => {
                format!("{} drain {node} {amount}", self.at)
            }
        }
    }
}

/// A sim-time-ordered fault script. Construction sorts by time (stable:
/// same-time faults keep their listed order), so iteration order is the
/// injection order.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// A plan from unordered events; sorts stably by injection time.
    pub fn new(mut events: Vec<FaultEvent>) -> Self {
        events.sort_by_key(|e| e.at);
        FaultPlan { events }
    }

    /// The plan that injects nothing.
    pub fn empty() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// The scheduled faults, in injection order.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// Serializes to the replay text format: one `<time> <kind> [args…]`
    /// line per fault, parseable by [`FaultPlan::parse`].
    pub fn to_text(&self) -> String {
        let mut out = String::from("# decor chaos fault plan\n");
        for e in &self.events {
            out.push_str(&e.line());
            out.push('\n');
        }
        out
    }

    /// Parses the text format produced by [`FaultPlan::to_text`]. Blank
    /// lines and `#` comments are ignored. Returns a message naming the
    /// offending line on malformed input.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut events = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut tok = line.split_whitespace();
            let err = |what: &str| format!("line {}: {what}: {line:?}", lineno + 1);
            let at: Time = tok
                .next()
                .ok_or_else(|| err("missing time"))?
                .parse()
                .map_err(|_| err("bad time"))?;
            let kind = tok.next().ok_or_else(|| err("missing fault kind"))?;
            let mut num = |what: &str| -> Result<u64, String> {
                tok.next()
                    .ok_or_else(|| err(what))?
                    .parse::<u64>()
                    .map_err(|_| err(what))
            };
            let kind = match kind {
                "crash" => FaultKind::Crash {
                    node: num("crash needs a node id")? as NodeId,
                },
                "partition" => {
                    let side_a: Result<Vec<NodeId>, String> = tok
                        .by_ref()
                        .map(|t| {
                            t.parse::<u64>()
                                .map(|v| v as NodeId)
                                .map_err(|_| err("partition ids must be integers"))
                        })
                        .collect();
                    FaultKind::Partition { side_a: side_a? }
                }
                "heal" => FaultKind::Heal,
                "blackhole" => FaultKind::Blackhole {
                    from: num("blackhole needs <from> <to>")? as NodeId,
                    to: num("blackhole needs <from> <to>")? as NodeId,
                },
                "unblackhole" => FaultKind::Unblackhole {
                    from: num("unblackhole needs <from> <to>")? as NodeId,
                    to: num("unblackhole needs <from> <to>")? as NodeId,
                },
                "latency" => FaultKind::Latency {
                    extra: num("latency needs an extra tick count")?,
                },
                "drain" => {
                    let node = num("drain needs <node> <amount>")? as NodeId;
                    let amount: f64 = tok
                        .next()
                        .ok_or_else(|| err("drain needs <node> <amount>"))?
                        .parse()
                        .map_err(|_| err("bad drain amount"))?;
                    if !amount.is_finite() {
                        return Err(err("drain amount must be finite"));
                    }
                    FaultKind::Drain { node, amount }
                }
                other => return Err(err(&format!("unknown fault kind {other:?}"))),
            };
            if tok.next().is_some() {
                return Err(err("trailing tokens"));
            }
            events.push(FaultEvent { at, kind });
        }
        Ok(FaultPlan::new(events))
    }

    /// Derives a bounded random plan from `seed`: a mix of crashes
    /// (capped at half the `n_nodes` initial population), partitions,
    /// blackholes, latency spikes, and drains at times in `[0, horizon)`,
    /// followed by cleanup events at `horizon` (heal, un-blackhole,
    /// latency back to 0) so every fault provably ceases. Deterministic:
    /// the same `(seed, n_nodes, horizon)` always yields the same plan.
    pub fn generate(seed: u64, n_nodes: usize, horizon: Time) -> Self {
        if n_nodes == 0 {
            return FaultPlan::empty();
        }
        let horizon = horizon.max(1);
        let mut rng = StdRng::seed_from_u64(seed);
        let n_faults = rng.gen_range(1..=6usize);
        let crash_budget = (n_nodes / 2).max(1);
        let mut crashes = 0usize;
        let mut partitioned = false;
        let mut spiked = false;
        let mut holes: Vec<(NodeId, NodeId)> = Vec::new();
        let mut events = Vec::new();
        for _ in 0..n_faults {
            let at = rng.gen_range(0..horizon);
            let pick = rng.gen_range(0..7u32);
            let kind = match pick {
                // Crashes get the biggest share: they are the paper's
                // core fault model.
                0..=2 if crashes < crash_budget => {
                    crashes += 1;
                    FaultKind::Crash {
                        node: rng.gen_range(0..n_nodes),
                    }
                }
                3 => {
                    partitioned = true;
                    let side_a: Vec<NodeId> = (0..n_nodes).filter(|_| rng.gen_bool(0.5)).collect();
                    FaultKind::Partition { side_a }
                }
                4 if n_nodes >= 2 => {
                    let from = rng.gen_range(0..n_nodes);
                    let mut to = rng.gen_range(0..n_nodes - 1);
                    if to >= from {
                        to += 1;
                    }
                    holes.push((from, to));
                    FaultKind::Blackhole { from, to }
                }
                5 => {
                    spiked = true;
                    FaultKind::Latency {
                        extra: rng.gen_range(1..=32u64),
                    }
                }
                _ => FaultKind::Drain {
                    node: rng.gen_range(0..n_nodes),
                    amount: rng.gen_range(0.1..2.0f64),
                },
            };
            events.push(FaultEvent { at, kind });
        }
        // Cleanup: every non-crash fault is lifted at the horizon.
        if partitioned {
            events.push(FaultEvent {
                at: horizon,
                kind: FaultKind::Heal,
            });
        }
        for (from, to) in holes {
            events.push(FaultEvent {
                at: horizon,
                kind: FaultKind::Unblackhole { from, to },
            });
        }
        if spiked {
            events.push(FaultEvent {
                at: horizon,
                kind: FaultKind::Latency { extra: 0 },
            });
        }
        FaultPlan::new(events)
    }
}

/// Applies a [`FaultPlan`] to a [`Network`] as simulated time advances.
///
/// The engine is a cursor over the plan: [`ChaosEngine::advance_to`]
/// injects every fault due at or before the given instant, in plan
/// order. `Transport::flush_chaos_into` calls it before every pop of the
/// retry clock, so faults interleave with in-flight retransmissions;
/// placers additionally call it at round boundaries and drain pending
/// batches when coverage converges while faults are still scheduled.
#[derive(Clone, Debug)]
pub struct ChaosEngine<'a> {
    /// The script, borrowed from its owner where possible (placers hold
    /// the plan in their config) so attaching chaos to a run does not
    /// copy the event list.
    plan: std::borrow::Cow<'a, FaultPlan>,
    cursor: usize,
    crashed: Vec<NodeId>,
}

impl ChaosEngine<'static> {
    /// An engine at the start of `plan`, taking ownership of it.
    pub fn new(plan: FaultPlan) -> Self {
        ChaosEngine {
            plan: std::borrow::Cow::Owned(plan),
            cursor: 0,
            crashed: Vec::new(),
        }
    }
}

impl<'a> ChaosEngine<'a> {
    /// An engine at the start of `plan`, borrowing it — the zero-copy
    /// twin of [`ChaosEngine::new`] for callers that keep the plan alive
    /// (e.g. a placer's deployment config).
    pub fn borrowed(plan: &'a FaultPlan) -> Self {
        ChaosEngine {
            plan: std::borrow::Cow::Borrowed(plan),
            cursor: 0,
            crashed: Vec::new(),
        }
    }

    /// True once every fault has been injected.
    pub fn is_exhausted(&self) -> bool {
        self.cursor >= self.plan.events.len()
    }

    /// Injection time of the next pending fault, if any.
    pub fn next_time(&self) -> Option<Time> {
        self.plan.events.get(self.cursor).map(|e| e.at)
    }

    /// Injects every fault due at or before `now`, in plan order.
    pub fn advance_to(&mut self, net: &mut Network, now: Time) {
        while self.next_time().is_some_and(|t| t <= now) {
            self.apply_next(net);
        }
    }

    /// Forces the next same-time batch of faults regardless of the
    /// clock, returning its injection time. Placers call this when
    /// coverage converges while faults are still pending — otherwise a
    /// quiet (retry-free) run would never reach the fault times.
    pub fn advance_next_batch(&mut self, net: &mut Network) -> Option<Time> {
        let t = self.next_time()?;
        self.advance_to(net, t);
        Some(t)
    }

    /// Node ids crashed by the plan since the last call (ids that were
    /// alive when their crash fired). The placer uses this to retire the
    /// corresponding sensors from its coverage ground truth.
    pub fn take_crashed(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.crashed)
    }

    fn apply_next(&mut self, net: &mut Network) {
        // Borrow the event in place: the only variant with heap payload
        // (`Partition`) feeds its id list to the network via iterator, so
        // no per-event clone of the plan's data is needed.
        let ev = &self.plan.events[self.cursor];
        self.cursor += 1;
        net.trace().set_time(ev.at);
        match &ev.kind {
            FaultKind::Crash { node } => {
                let node = *node;
                if net.fail_node(node) {
                    self.crashed.push(node);
                }
                net.trace()
                    .emit(TraceEvent::ChaosCrash { node: node as u64 });
            }
            FaultKind::Partition { side_a } => {
                net.trace().emit(TraceEvent::ChaosPartition {
                    side: side_a.len() as u64,
                });
                net.set_partition(side_a.iter().copied());
            }
            FaultKind::Heal => {
                net.heal_partition();
                net.trace().emit(TraceEvent::ChaosHeal);
            }
            FaultKind::Blackhole { from, to } => {
                net.set_blackhole(*from, *to);
                net.trace().emit(TraceEvent::ChaosBlackhole {
                    from: *from as u64,
                    to: *to as u64,
                });
            }
            FaultKind::Unblackhole { from, to } => {
                net.clear_blackhole(*from, *to);
                net.trace().emit(TraceEvent::ChaosUnblackhole {
                    from: *from as u64,
                    to: *to as u64,
                });
            }
            FaultKind::Latency { extra } => {
                net.set_extra_latency(*extra);
                net.trace().emit(TraceEvent::ChaosLatency { extra: *extra });
            }
            FaultKind::Drain { node, amount } => {
                net.drain_energy(*node, *amount);
                net.trace().emit(TraceEvent::ChaosDrain {
                    node: *node as u64,
                    amount: *amount,
                });
            }
        }
    }
}

/// Delta-debugs a failing plan to a locally minimal one: the returned
/// plan still satisfies `fails`, and (when the input failed at all) no
/// single event can be removed without the failure disappearing. The
/// classic ddmin loop — the vendored proptest shim cannot shrink, so
/// chaos tests shrink here instead.
///
/// `fails` must be deterministic; it is called many times.
pub fn shrink_plan(plan: &FaultPlan, mut fails: impl FnMut(&FaultPlan) -> bool) -> FaultPlan {
    if !fails(plan) {
        return plan.clone();
    }
    // The working set lives inside a `FaultPlan` so every probe borrows
    // it directly: a candidate chunk is drained into `removed` (capacity
    // reused across probes) and spliced back when the probe passes.
    // Removing a slice of a time-sorted list keeps it sorted, so probe
    // plans never need `FaultPlan::new`'s stable re-sort — the one plan
    // clone happens here, not once per probe.
    let mut work = plan.clone();
    let mut removed: Vec<FaultEvent> = Vec::new();
    let mut n = 2usize;
    while work.events.len() >= 2 {
        let chunk = work.events.len().div_ceil(n);
        let mut reduced = false;
        let mut i = 0;
        while i < n {
            let lo = i * chunk;
            if lo >= work.events.len() {
                break;
            }
            let hi = (lo + chunk).min(work.events.len());
            i += 1;
            if lo == 0 && hi == work.events.len() {
                continue; // complement would be empty
            }
            removed.clear();
            removed.extend(work.events.drain(lo..hi));
            if fails(&work) {
                n = n.saturating_sub(1).max(2);
                reduced = true;
                break;
            }
            // Still passing without the chunk: put it back in place.
            work.events.splice(lo..lo, removed.drain(..));
        }
        if !reduced {
            if n >= work.events.len() {
                break;
            }
            n = (n * 2).min(work.events.len());
        }
    }
    // Final 1-minimality pass: drop single events while that still fails.
    let mut i = 0;
    while work.events.len() > 1 && i < work.events.len() {
        let ev = work.events.remove(i);
        if !fails(&work) {
            work.events.insert(i, ev);
            i += 1;
        }
    }
    work
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};

    fn small_net(n: usize) -> Network {
        let mut net = Network::new(Aabb::square(100.0));
        for i in 0..n {
            net.add_node(Point::new(10.0 + 3.0 * i as f64, 10.0), 4.0, 8.0);
        }
        net
    }

    #[test]
    fn generate_is_deterministic_in_the_seed() {
        let a = FaultPlan::generate(42, 10, 1000);
        let b = FaultPlan::generate(42, 10, 1000);
        assert_eq!(a, b);
        let c = FaultPlan::generate(43, 10, 1000);
        assert_ne!(a, c, "adjacent seeds must diverge");
        assert!(!a.is_empty());
    }

    #[test]
    fn generated_faults_cease_by_the_horizon() {
        for seed in 0..50u64 {
            let plan = FaultPlan::generate(seed, 8, 500);
            let mut net = small_net(8);
            let mut engine = ChaosEngine::new(plan.clone());
            engine.advance_to(&mut net, Time::MAX);
            assert!(engine.is_exhausted());
            assert!(
                !net.is_partitioned(),
                "seed {seed}: partition survived the horizon"
            );
            assert_eq!(
                net.extra_latency(),
                0,
                "seed {seed}: latency spike survived the horizon"
            );
            // Any blackholed link must have been restored: a unicast
            // between two alive in-range nodes can only fail as Lost if
            // a cut survived (the medium is lossless here).
            let alive = net.alive_ids();
            for &a in &alive {
                for &b in &alive {
                    if a == b || net.node(a).pos.dist(net.node(b).pos) > net.node(a).rc {
                        continue;
                    }
                    assert!(
                        net.unicast(a, b, crate::Message::Hello { pos: Point::ORIGIN })
                            .is_ok(),
                        "seed {seed}: link {a}->{b} still cut after horizon"
                    );
                }
            }
        }
    }

    #[test]
    fn generated_crashes_spare_half_the_population() {
        for seed in 0..50u64 {
            let plan = FaultPlan::generate(seed, 8, 500);
            let crashes = plan
                .events()
                .iter()
                .filter(|e| matches!(e.kind, FaultKind::Crash { .. }))
                .count();
            assert!(
                crashes <= 4,
                "seed {seed}: {crashes} crashes out of 8 nodes"
            );
        }
    }

    #[test]
    fn text_format_roundtrips() {
        for seed in [0u64, 7, 99, 12345] {
            let plan = FaultPlan::generate(seed, 6, 300);
            let parsed = FaultPlan::parse(&plan.to_text()).unwrap();
            assert_eq!(plan, parsed, "seed {seed}");
        }
        // Hand-written plan exercising every kind.
        let text = "\
# a comment

120 crash 5
10 partition 0 1 2
300 heal
150 blackhole 3 7
350 unblackhole 3 7
400 latency 16
600 drain 2 1.5
";
        let plan = FaultPlan::parse(text).unwrap();
        assert_eq!(plan.len(), 7);
        assert_eq!(
            plan.events()[0],
            FaultEvent {
                at: 10,
                kind: FaultKind::Partition {
                    side_a: vec![0, 1, 2]
                }
            },
            "parse sorts by time"
        );
        assert_eq!(FaultPlan::parse(&plan.to_text()).unwrap(), plan);
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        for bad in [
            "crash 5",             // missing time
            "10 crash",            // missing node
            "10 crash x",          // non-numeric node
            "10 melt 3",           // unknown kind
            "10 heal now",         // trailing tokens
            "10 drain 3",          // missing amount
            "10 drain 3 NaN",      // non-finite amount
            "10 blackhole 3",      // missing <to>
            "10 latency -5",       // negative ticks
            "10 partition 1 2 x3", // non-numeric member
        ] {
            let res = FaultPlan::parse(bad);
            assert!(res.is_err(), "{bad:?} must not parse: {res:?}");
            assert!(
                res.unwrap_err().starts_with("line 1"),
                "error must name the line"
            );
        }
    }

    #[test]
    fn engine_applies_in_time_order_and_reports_crashes() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 50,
                kind: FaultKind::Crash { node: 1 },
            },
            FaultEvent {
                at: 10,
                kind: FaultKind::Crash { node: 0 },
            },
            FaultEvent {
                at: 10,
                kind: FaultKind::Crash { node: 99 }, // unknown: no-op
            },
            FaultEvent {
                at: 80,
                kind: FaultKind::Latency { extra: 7 },
            },
        ]);
        let mut net = small_net(3);
        let mut engine = ChaosEngine::new(plan);
        engine.advance_to(&mut net, 9);
        assert!(engine.take_crashed().is_empty(), "nothing due before t=10");
        engine.advance_to(&mut net, 49);
        assert_eq!(engine.take_crashed(), vec![0]);
        assert!(net.is_alive(1), "t=50 crash not yet due");
        assert_eq!(engine.next_time(), Some(50));
        engine.advance_to(&mut net, 1000);
        assert_eq!(engine.take_crashed(), vec![1]);
        assert_eq!(net.extra_latency(), 7);
        assert!(engine.is_exhausted());
        assert_eq!(engine.next_time(), None);
    }

    #[test]
    fn advance_next_batch_forces_pending_faults() {
        let plan = FaultPlan::new(vec![
            FaultEvent {
                at: 500,
                kind: FaultKind::Crash { node: 0 },
            },
            FaultEvent {
                at: 500,
                kind: FaultKind::Crash { node: 1 },
            },
            FaultEvent {
                at: 900,
                kind: FaultKind::Crash { node: 2 },
            },
        ]);
        let mut net = small_net(3);
        let mut engine = ChaosEngine::new(plan);
        assert_eq!(engine.advance_next_batch(&mut net), Some(500));
        assert_eq!(engine.take_crashed(), vec![0, 1], "whole t=500 batch");
        assert!(net.is_alive(2));
        assert_eq!(engine.advance_next_batch(&mut net), Some(900));
        assert_eq!(engine.advance_next_batch(&mut net), None);
    }

    #[test]
    fn engine_emits_chaos_trace_events() {
        let plan = FaultPlan::parse(
            "5 crash 1\n6 partition 0\n7 heal\n8 blackhole 0 2\n9 unblackhole 0 2\n10 latency 3\n11 drain 2 0.5\n",
        )
        .unwrap();
        let mut net = small_net(3);
        let trace = decor_trace::TraceHandle::counting();
        net.set_trace(trace.clone());
        let mut engine = ChaosEngine::new(plan);
        engine.advance_to(&mut net, 100);
        let counts = trace.counts().unwrap();
        for kind in [
            "chaos_crash",
            "chaos_partition",
            "chaos_heal",
            "chaos_blackhole",
            "chaos_unblackhole",
            "chaos_latency",
            "chaos_drain",
        ] {
            assert_eq!(counts.get(kind).copied().unwrap_or(0), 1, "{kind}");
        }
    }

    #[test]
    fn shrink_finds_the_single_culprit() {
        let plan = FaultPlan::generate(7, 10, 1000);
        assert!(plan.len() >= 2, "want a multi-event plan for this test");
        // Synthetic failure: any plan containing a crash of node 3.
        let culprit = FaultEvent {
            at: 123,
            kind: FaultKind::Crash { node: 3 },
        };
        let mut events = plan.events().to_vec();
        events.push(culprit.clone());
        let big = FaultPlan::new(events);
        let fails = |p: &FaultPlan| {
            p.events()
                .iter()
                .any(|e| e.kind == FaultKind::Crash { node: 3 })
        };
        let small = shrink_plan(&big, fails);
        assert_eq!(small.events(), &[culprit]);
    }

    #[test]
    fn shrink_of_a_passing_plan_is_identity() {
        let plan = FaultPlan::generate(7, 10, 1000);
        assert_eq!(shrink_plan(&plan, |_| false), plan);
    }

    #[test]
    fn shrink_preserves_failure_with_interacting_events() {
        // Failure needs BOTH a partition and a crash: shrinking must keep
        // one of each, dropping everything else.
        let mut events = FaultPlan::generate(11, 10, 1000).events().to_vec();
        events.push(FaultEvent {
            at: 40,
            kind: FaultKind::Partition { side_a: vec![0, 1] },
        });
        events.push(FaultEvent {
            at: 60,
            kind: FaultKind::Crash { node: 0 },
        });
        let big = FaultPlan::new(events);
        let fails = |p: &FaultPlan| {
            p.events()
                .iter()
                .any(|e| matches!(e.kind, FaultKind::Partition { .. }))
                && p.events()
                    .iter()
                    .any(|e| matches!(e.kind, FaultKind::Crash { .. }))
        };
        assert!(fails(&big));
        let small = shrink_plan(&big, fails);
        assert!(fails(&small), "shrunk plan must still fail");
        assert_eq!(small.len(), 2, "exactly one partition + one crash remain");
    }
}
