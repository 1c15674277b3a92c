//! Microbenchmarks of the substrate crates: LDS generation, discrepancy
//! measures, geometry queries, the event queue, heartbeat detection (a
//! line and an `ext-loss`-shaped probe), the reliable transport,
//! connectivity checks and the sleep-shift partition.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use decor_core::SchemeKind;
use decor_exp::common::deploy_with;
use decor_exp::scenario::PROBE_PERIOD;
use decor_exp::ExpParams;
use decor_geom::{Aabb, Point, UnitDiskGraph};
use decor_lds::{
    hammersley_unit, l2_star_discrepancy, random_points, star_discrepancy, HaltonSequence, Sobol2D,
};
use decor_net::{
    EventQueue, FailurePlan, HeartbeatConfig, HeartbeatSim, Message, Network, NodeId,
    RotationConfig, SleepScheduler, Transport, TransportConfig,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::hint::black_box;

fn bench_lds_generation(c: &mut Criterion) {
    let mut g = c.benchmark_group("lds_generation_2000");
    g.bench_function("halton", |b| {
        b.iter(|| black_box(HaltonSequence::new(2).take_unit2(2000)))
    });
    g.bench_function("halton_scrambled", |b| {
        b.iter(|| black_box(HaltonSequence::new(2).scrambled(7).take_unit2(2000)))
    });
    g.bench_function("hammersley", |b| {
        b.iter(|| black_box(hammersley_unit(2000)))
    });
    g.bench_function("sobol", |b| b.iter(|| black_box(Sobol2D::new().take(2000))));
    g.finish();
}

fn bench_discrepancy(c: &mut Criterion) {
    let pts = HaltonSequence::new(2).take_unit2(256);
    let mut g = c.benchmark_group("discrepancy_256");
    g.sample_size(20);
    g.bench_function("star_exact", |b| {
        b.iter(|| black_box(star_discrepancy(&pts)))
    });
    g.bench_function("l2_warnock", |b| {
        b.iter(|| black_box(l2_star_discrepancy(&pts)))
    });
    g.finish();
}

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_schedule_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule((i * 7919) % 100_000, i);
            }
            let mut acc = 0u64;
            while let Some((_, e)) = q.pop() {
                acc = acc.wrapping_add(e);
            }
            black_box(acc)
        })
    });
}

fn line_network(n: usize) -> Network {
    let mut net = Network::new(Aabb::square(1000.0));
    for i in 0..n {
        net.add_node(Point::new(5.0 + i as f64 * 5.0, 50.0), 4.0, 8.0);
    }
    net
}

fn bench_heartbeat_sim(c: &mut Criterion) {
    let mut g = c.benchmark_group("heartbeat_detection");
    g.sample_size(20);
    g.bench_function("100_nodes_20_periods", |b| {
        b.iter(|| {
            let mut net = line_network(100);
            let sim = HeartbeatSim::new(HeartbeatConfig {
                period: 100,
                timeout_periods: 3,
                seed: 1,
            });
            black_box(sim.run(&mut net, &[50], 500, 2000))
        })
    });
    g.finish();
}

/// The heartbeat detector as one `ext-loss` failure probe runs it: the
/// paper field's k=2 centralized deployment (seed 7), 10% loss, 10% of
/// the nodes failing at 4 periods, and a horizon of 34 periods. Each
/// iteration runs on a fresh copy of the deployed network, so it pays
/// for the hello exchange and the first fill of every hearer row.
fn bench_detect_probe(c: &mut Criterion) {
    let (map, _, cfg) = deploy_with(&ExpParams::paper(), SchemeKind::Centralized, 2, 7, |_| {});
    let mut base = Network::new(*map.field());
    for (_, pos) in map.active_sensors() {
        base.add_node(pos, cfg.rs, cfg.rc);
    }
    base.set_loss(0.1, 11);
    let victims = FailurePlan::Fraction {
        frac: 0.1,
        seed: 13,
    }
    .victims(&base);
    let period = PROBE_PERIOD;
    let sim = HeartbeatSim::new(HeartbeatConfig {
        period,
        timeout_periods: 3,
        seed: 17,
    });
    println!(
        "net/detect/probe: {} nodes, {} victims",
        base.len(),
        victims.len()
    );
    let mut g = c.benchmark_group("net/detect");
    g.sample_size(20);
    g.bench_function("probe", |b| {
        b.iter_batched(
            || base.clone(),
            |mut net| black_box(sim.run(&mut net, &victims, 4 * period, 34 * period)),
            BatchSize::LargeInput,
        )
    });
    g.finish();
}

/// Reliable-transport throughput under a Voronoi-style notice fan-out: a
/// seeded 100×100 field of 1000 nodes at rc = 10√2 (Voronoi-big's radio
/// range). In each of five rounds, 140 senders in seeded order each send
/// a placement notice to every rc-neighbour through one reused
/// transport, then flush. The rate is in notices per second.
fn bench_transport_fanout(c: &mut Criterion) {
    let field = Aabb::square(100.0);
    let rc = 10.0 * std::f64::consts::SQRT_2;
    let mut base = Network::new(field);
    for p in random_points(1000, &field, 17) {
        base.add_node(p, 4.0, rc);
    }
    let mut senders: Vec<NodeId> = (0..base.len()).collect();
    senders.shuffle(&mut StdRng::seed_from_u64(19));
    // (sender, notice, its rc-neighbours), 140 senders per round.
    let fanout: Vec<(NodeId, Message, Vec<NodeId>)> = senders[..5 * 140]
        .iter()
        .map(|&id| {
            let pos = base.node(id).pos;
            (id, Message::PlacementNotice { pos }, base.neighbors_of(id))
        })
        .collect();
    let notices = fanout.iter().map(|(_, _, nbs)| nbs.len() as u64).sum();
    let cfg = TransportConfig::default();
    let mut g = c.benchmark_group("net/transport/notice_fanout");
    g.sample_size(20);
    g.throughput(Throughput::Elements(notices));
    for (name, loss) in [("loss0", 0.0), ("loss20", 0.2)] {
        let mut medium = base.clone();
        if loss > 0.0 {
            medium.set_loss(loss, 23);
        }
        let mut tr = Transport::new(cfg);
        let mut outcomes = Vec::new();
        g.bench_function(name, |b| {
            b.iter_batched(
                || medium.clone(),
                |mut net| {
                    tr.reset(cfg);
                    for round in fanout.chunks(140) {
                        for &(from, msg, ref nbs) in round {
                            for &to in nbs {
                                tr.send(from, to, msg);
                            }
                        }
                        tr.flush_into(&mut net, &mut outcomes);
                    }
                    tr.stats.delivered
                },
                BatchSize::LargeInput,
            )
        });
    }
    g.finish();
}

fn bench_unit_disk_graph(c: &mut Criterion) {
    let mut pts = Vec::new();
    // A deterministic quasi-random cloud of 800 nodes.
    for (u, v) in HaltonSequence::new(2).take_unit2(800) {
        pts.push(Point::new(u * 100.0, v * 100.0));
    }
    let mut g = c.benchmark_group("unit_disk_graph_800");
    g.sample_size(20);
    g.bench_function("build", |b| {
        b.iter(|| black_box(UnitDiskGraph::build(&pts, 8.0)))
    });
    let graph = UnitDiskGraph::build(&pts, 8.0);
    g.bench_function("is_connected", |b| {
        b.iter(|| black_box(graph.is_connected()))
    });
    g.bench_function("k_connectivity_2", |b| {
        b.iter(|| black_box(graph.vertex_connectivity_at_least(2)))
    });
    g.finish();
}

fn bench_network_traffic(c: &mut Criterion) {
    c.bench_function("broadcast_500_nodes", |b| {
        let mut net = Network::new(Aabb::square(100.0));
        for (u, v) in HaltonSequence::new(2).take_unit2(500) {
            net.add_node(Point::new(u * 100.0, v * 100.0), 4.0, 8.0);
        }
        b.iter(|| {
            for id in 0..500 {
                black_box(net.broadcast(
                    id,
                    decor_net::Message::Heartbeat {
                        pos: net.node(id).pos,
                    },
                ));
            }
        })
    });
}

fn bench_delaunay_and_voronoi(c: &mut Criterion) {
    let mut pts = Vec::new();
    for (u, v) in HaltonSequence::new(2).take_unit2(400) {
        pts.push(Point::new(u * 100.0, v * 100.0));
    }
    let mut g = c.benchmark_group("delaunay_400_sites");
    g.sample_size(20);
    g.bench_function("triangulate", |b| {
        b.iter(|| black_box(decor_geom::Delaunay::build(&pts)))
    });
    let d = decor_geom::Delaunay::build(&pts);
    let field = Aabb::square(100.0);
    g.bench_function("voronoi_cells", |b| {
        b.iter(|| black_box(d.voronoi_cells(&field)))
    });
    g.finish();
}

fn bench_breach_paths(c: &mut Criterion) {
    let mut pts = Vec::new();
    for (u, v) in HaltonSequence::new(2).take_unit2(300) {
        pts.push(Point::new(u * 100.0, v * 100.0));
    }
    let field = Aabb::square(100.0);
    let mut g = c.benchmark_group("coverage_paths_res128");
    g.sample_size(10);
    g.bench_function("maximal_breach", |b| {
        b.iter(|| black_box(decor_geom::maximal_breach_path(&pts, &field, 128)))
    });
    g.bench_function("best_support", |b| {
        b.iter(|| black_box(decor_geom::best_support_path(&pts, &field, 128)))
    });
    g.finish();
}

fn bench_routing(c: &mut Criterion) {
    let net = {
        let mut net = Network::new(Aabb::square(100.0));
        for (u, v) in HaltonSequence::new(2).take_unit2(600) {
            net.add_node(Point::new(u * 100.0, v * 100.0), 4.0, 8.0);
        }
        net
    };
    c.bench_function("bfs_route_600_nodes", |b| {
        b.iter(|| black_box(decor_net::shortest_path(&net, 0, 599)))
    });
}

fn bench_partition(c: &mut Criterion) {
    // The rows `agree_shifts` partitions: a seeded k=3 centralized
    // deployment at paper scale (2000 points, seed 7), one row per
    // active sensor listing the map points it covers, as the endurance
    // loop builds them. Only the partition is timed.
    let params = ExpParams::paper();
    let (map, _, cfg) = deploy_with(&params, SchemeKind::Centralized, 3, 7, |cfg| {
        cfg.rotation = Some(RotationConfig::default());
    });
    let rows: Vec<Box<[u32]>> = map
        .active_sensors()
        .into_iter()
        .map(|(_, pos)| {
            let mut row = Vec::new();
            map.for_each_point_within_unordered(pos, cfg.rs, |pid, _| row.push(pid as u32));
            row.into_boxed_slice()
        })
        .collect();
    let target = RotationConfig::default().target_coverage;
    let shifts = SleepScheduler::new(target).shifts(&rows, |_| true, map.n_points());
    println!(
        "endurance/partition/paper_k3: {} nodes, {} points, {} shifts",
        rows.len(),
        map.n_points(),
        shifts.len()
    );
    let mut g = c.benchmark_group("endurance/partition");
    g.sample_size(20);
    g.bench_function("paper_k3", |b| {
        b.iter(|| black_box(SleepScheduler::new(target).shifts(&rows, |_| true, map.n_points())))
    });
    g.finish();
}

criterion_group!(
    substrates,
    bench_lds_generation,
    bench_discrepancy,
    bench_event_queue,
    bench_heartbeat_sim,
    bench_detect_probe,
    bench_transport_fanout,
    bench_unit_disk_graph,
    bench_network_traffic,
    bench_delaunay_and_voronoi,
    bench_breach_paths,
    bench_routing,
    bench_partition
);
criterion_main!(substrates);
