//! Differential tier for the heartbeat detector: [`HeartbeatSim`] against
//! a frozen reference implementation.
//!
//! The reference below is the detector as it was before the watch table:
//! one `BTreeMap<(observer, sender), Time>` of last-heard stamps written
//! on every received beat, a `BTreeMap` of watch lists from the t=0 hello
//! exchange, and a `BTreeMap` of detections. Its logic is kept unchanged
//! as the oracle, so the dense table must reproduce its reports and its
//! traffic counters bit for bit on every medium the detector runs on:
//! lossless and lossy, with isolated nodes. (The oracle still takes a
//! fault plan, as it always did; the detector no longer does, so every
//! call passes none. Nor does the detector take a shift schedule any
//! more, so the oracle's rotation branches are gone.)

use decor_geom::{Aabb, Point};
use decor_net::{
    silent_too_long, ChaosEngine, DetectionReport, HeartbeatConfig, HeartbeatSim, Message, Network,
    NodeId, Time,
};
use heap_queue::EventQueue;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

#[path = "oracle/heap_queue.rs"]
mod heap_queue;

#[derive(Clone, Copy, Debug)]
enum Ev {
    Beat(NodeId),
    Check(NodeId),
    Fail,
}

/// The map-based detector, frozen.
fn reference_run(
    cfg: HeartbeatConfig,
    net: &mut Network,
    victims: &[NodeId],
    fail_at: Time,
    horizon: Time,
    mut chaos: Option<&mut ChaosEngine>,
) -> DetectionReport {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut q: EventQueue<Ev> = EventQueue::new();
    let period = cfg.period;

    let ids = net.alive_ids();
    let mut last_heard: BTreeMap<(NodeId, NodeId), Time> = BTreeMap::new();
    let mut watch: BTreeMap<NodeId, Vec<NodeId>> = BTreeMap::new();
    for &id in &ids {
        let pos = net.node(id).pos;
        let heard_by = net.broadcast(id, Message::Hello { pos });
        for observer in heard_by {
            last_heard.insert((observer, id), 0);
            watch.entry(observer).or_default().push(id);
        }
    }

    for &id in &ids {
        let phase = rng.gen_range(0..period);
        q.schedule(phase, Ev::Beat(id));
        q.schedule(phase + period, Ev::Check(id));
    }
    q.schedule(fail_at, Ev::Fail);

    let mut report = DetectionReport::default();
    let mut detected: BTreeMap<NodeId, (Time, NodeId)> = BTreeMap::new();

    while let Some((now, ev)) = q.pop() {
        if now > horizon {
            break;
        }
        if let Some(engine) = chaos.as_deref_mut() {
            engine.advance_to(net, now);
        }
        match ev {
            Ev::Fail => {
                for &v in victims {
                    net.fail_node(v);
                }
            }
            Ev::Beat(id) => {
                if !net.is_alive(id) {
                    continue;
                }
                let pos = net.node(id).pos;
                let heard_by = net.broadcast(id, Message::Heartbeat { pos });
                report.heartbeats_sent += 1;
                for observer in heard_by {
                    last_heard.insert((observer, id), now);
                }
                q.schedule(now + period, Ev::Beat(id));
            }
            Ev::Check(id) => {
                if !net.is_alive(id) {
                    continue;
                }
                if let Some(neighbors) = watch.get(&id) {
                    for &nb in neighbors {
                        let last = last_heard.get(&(id, nb)).copied().unwrap_or(0);
                        if silent_too_long(now, last, period, cfg.timeout_periods) {
                            detected.entry(nb).or_insert((now, id));
                        }
                    }
                }
                q.schedule(now + period, Ev::Check(id));
            }
        }
    }

    report.undetected = victims
        .iter()
        .copied()
        .filter(|v| !detected.contains_key(v))
        .collect();
    let victim_set: std::collections::BTreeSet<NodeId> = victims.iter().copied().collect();
    for (nb, when) in detected {
        if victim_set.contains(&nb) {
            report.first_detection.insert(nb, when);
        } else {
            report.false_positives.insert(nb, when);
        }
    }
    report
}

/// Every traffic counter the network keeps, per node and in aggregate.
/// Energy is compared by bit pattern: both detectors must charge the same
/// floating-point sums in the same order.
fn counters(net: &Network) -> (Vec<(u64, u64, u64)>, [u64; 5]) {
    let per_node = (0..net.len())
        .map(|id| {
            (
                net.stats.sent_by(id),
                net.stats.received_by(id),
                net.stats.energy_of(id).to_bits(),
            )
        })
        .collect();
    let s = &net.stats;
    (
        per_node,
        [
            s.total_sent,
            s.maintenance_sent,
            s.protocol_sent,
            s.retries_sent,
            s.acks_sent,
        ],
    )
}

/// Far corners, more than 15 apart from each other and from the cluster
/// square `[0, 60)²`, so at `rc <= 15` a node placed there hears nobody.
const ISOLATED: [(f64, f64); 3] = [(99.0, 99.0), (99.0, 78.0), (78.0, 99.0)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The watch-table detector and the map-based oracle agree on the
    /// whole report and on every traffic counter.
    #[test]
    fn heartbeat_sim_matches_the_map_oracle(
        cluster in prop::collection::vec((0.0..60.0f64, 0.0..60.0f64), 1..45),
        n_isolated in 0usize..4,
        rc in 5.0..15.0f64,
        loss_pct in 0u32..71,
        loss_seed in any::<u64>(),
        victim_picks in prop::collection::vec(any::<prop::sample::Index>(), 0..6),
        unknown_victim in any::<bool>(),
        hb_seed in any::<u64>(),
        timeout_periods in 2u32..5,
        fail_at in 0u64..2_000,
    ) {
        let mut net = Network::new(Aabb::square(100.0));
        for &(x, y) in &cluster {
            net.add_node(Point::new(x, y), rc / 2.0, rc);
        }
        for &(x, y) in &ISOLATED[..n_isolated] {
            net.add_node(Point::new(x, y), rc / 2.0, rc);
        }
        let n = net.len();
        if loss_pct > 0 {
            net.set_loss(loss_pct as f64 / 100.0, loss_seed);
        }

        let mut victims: Vec<NodeId> = victim_picks.iter().map(|i| i.index(n)).collect();
        victims.sort_unstable();
        victims.dedup();
        if unknown_victim {
            victims.push(n + 7); // failing an unknown id is a no-op
        }

        let horizon = 5_000;

        let cfg = HeartbeatConfig { period: 100, timeout_periods, seed: hb_seed };
        let sim = HeartbeatSim::new(cfg);
        let mut oracle_net = net.clone();
        let expected = reference_run(
            cfg,
            &mut oracle_net,
            &victims,
            fail_at,
            horizon,
            None,
        );
        let got = sim.run(&mut net, &victims, fail_at, horizon);
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(counters(&net), counters(&oracle_net));
        prop_assert_eq!(net.alive_ids(), oracle_net.alive_ids());
    }
}

/// A fixed lossy, partly isolated layout, so a failure of the oracle
/// itself (not the comparison) names a concrete scenario.
#[test]
fn oracle_agrees_on_a_lossy_line_with_an_isolated_node() {
    let mut net = Network::new(Aabb::square(100.0));
    for i in 0..12 {
        net.add_node(Point::new(5.0 + i as f64 * 5.0, 50.0), 4.0, 8.0);
    }
    net.add_node(Point::new(95.0, 5.0), 4.0, 8.0);
    net.set_loss(0.45, 3);
    let cfg = HeartbeatConfig {
        period: 100,
        timeout_periods: 3,
        seed: 5,
    };
    let mut oracle_net = net.clone();
    let expected = reference_run(cfg, &mut oracle_net, &[4, 12], 600, 8_000, None);
    let got = HeartbeatSim::new(cfg).run(&mut net, &[4, 12], 600, 8_000);
    assert!(
        !expected.false_positives.is_empty(),
        "45% loss must misfire"
    );
    assert_eq!(expected.undetected, vec![12], "the isolated victim");
    assert_eq!(got, expected);
    assert_eq!(counters(&net), counters(&oracle_net));
}

/// The phase `HeartbeatSim` draws for each alive node: one `gen_range`
/// per alive id, in ascending id order, from the config's seed.
fn phases(net: &Network, cfg: &HeartbeatConfig) -> Vec<(NodeId, Time)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    net.alive_ids()
        .into_iter()
        .map(|id| (id, rng.gen_range(0..cfg.period)))
        .collect()
}

/// Runs `HeartbeatSim` and the frozen reference on copies of `net` and
/// asserts that they agree: the report, every traffic counter, and which
/// nodes are alive, and whether a partition is up, at the end. (No run
/// here sets a sleep flag, so sleep is not compared.)
fn assert_agrees(
    net: &Network,
    cfg: HeartbeatConfig,
    victims: &[NodeId],
    fail_at: Time,
    horizon: Time,
) -> DetectionReport {
    let (mut got_net, mut oracle_net) = (net.clone(), net.clone());
    let expected = reference_run(cfg, &mut oracle_net, victims, fail_at, horizon, None);
    let got = HeartbeatSim::new(cfg).run(&mut got_net, victims, fail_at, horizon);
    let end_state = |net: &Network| (net.alive_ids(), net.is_partitioned());
    let case = format!("victims {victims:?}, fail_at {fail_at}, horizon {horizon}");
    assert_eq!(got, expected, "{case}");
    assert_eq!(counters(&got_net), counters(&oracle_net), "{case}");
    assert_eq!(end_state(&got_net), end_state(&oracle_net), "{case}");
    got
}

/// A lossy line of ten nodes, each hearing two on either side.
fn lossy_line() -> Network {
    let mut net = Network::new(Aabb::square(100.0));
    for i in 0..10 {
        net.add_node(Point::new(5.0 + i as f64 * 4.0, 50.0), 4.0, 8.0);
    }
    net.set_loss(0.3, 17);
    net
}

/// Periods of 4 ticks put two or three nodes on every phase; periods of
/// 100 spread them out.
fn tie_configs() -> [HeartbeatConfig; 2] {
    [
        HeartbeatConfig {
            period: 4,
            timeout_periods: 2,
            seed: 41,
        },
        HeartbeatConfig {
            period: 100,
            timeout_periods: 3,
            seed: 42,
        },
    ]
}

/// The failure lands on a beat tick of the victims: before that tick's
/// failure in period 0, between its Checks and its Beats in period 1, and
/// ahead of both from period 2 on.
#[test]
fn failure_on_a_beat_tick_in_periods_0_1_and_5() {
    let net = lossy_line();
    for cfg in tie_configs() {
        let phases = phases(&net, &cfg);
        for (_, phase) in [phases[2], phases[5]] {
            // Every node on that phase fails.
            let victims: Vec<NodeId> = phases
                .iter()
                .filter(|&&(_, p)| p == phase)
                .map(|&(id, _)| id)
                .collect();
            for m in [0, 1, 5] {
                let fail_at = m * cfg.period + phase;
                assert_agrees(&net, cfg, &victims, fail_at, 40 * cfg.period);
            }
        }
    }
}

/// A failure after the last recurring tick, but within the horizon, still
/// runs.
#[test]
fn failure_after_the_last_recurring_tick() {
    let net = lossy_line();
    let cfg = tie_configs()[1];
    let mut ticks: Vec<Time> = phases(&net, &cfg).iter().map(|&(_, p)| p).collect();
    ticks.sort_unstable();
    // The widest gap between consecutive phases.
    let (lo, hi) = ticks
        .windows(2)
        .map(|w| (w[0], w[1]))
        .max_by_key(|&(lo, hi)| hi - lo)
        .unwrap();
    assert!(hi - lo >= 3, "phases {ticks:?}");
    let horizon = 5 * cfg.period + hi - 1;
    let report = assert_agrees(&net, cfg, &[4, 7], horizon, horizon);
    assert_eq!(report.undetected, vec![4, 7], "failed after every check");
}

/// With no node alive only the one-off event runs: the failure.
#[test]
fn network_without_an_alive_node() {
    let cfg = tie_configs()[1];
    let empty = Network::new(Aabb::square(100.0));
    assert_agrees(&empty, cfg, &[], 200, 1_000);
    let mut dead = lossy_line();
    for id in 0..dead.len() {
        dead.fail_node(id);
    }
    for fail_at in [100, 5_000] {
        let report = assert_agrees(&dead, cfg, &[3], fail_at, 1_000);
        assert_eq!(report.heartbeats_sent, 0);
    }
}

/// A horizon shorter than one period runs part of period 0 only.
#[test]
fn horizon_shorter_than_one_period() {
    let net = lossy_line();
    let cfg = tie_configs()[1];
    for (fail_at, horizon) in [(20, 50), (0, 0), (60, 99)] {
        assert_agrees(&net, cfg, &[1, 2], fail_at, horizon);
    }
}
