//! Differential tier — distributed shift agreement vs the centralized
//! partition.
//!
//! [`decor::core::agree_shifts`] disseminates assignments in-network
//! (election, BFS tree, reliable transport, retries); the schedule it
//! lands on must be **bit-identical** to the centralized
//! [`decor::net::SleepScheduler::shifts`] output — on lossless and lossy
//! links, and regardless of how many worker threads run the replicas.
//!
//! The two sides read the sensor–point incidence two ways. The agreement
//! partitions rows from the map's point index, as `run_endurance` builds
//! them; the expected partition reads rows from `Node::covers`, the
//! geometry the scheduler once queried itself. Equal shifts on real
//! deployments, at quick and paper scale, keep the two in step.

use decor::core::{agree_shifts, LinkConfig, SchemeKind};
use decor::exp::common::{deploy_with, ExpParams};
use decor::exp::MatrixRunner;
use decor::net::{Network, NodeId, RotationConfig, SleepScheduler};

/// A k-covered field mirrored into a network, with each node's covered
/// points found both ways.
struct Deployed {
    net: Network,
    /// Each node's points from the map's point index, as the loop has them.
    map_rows: Vec<Box<[u32]>>,
    /// Each node's points by `Node::covers`.
    node_rows: Vec<Box<[u32]>>,
    n_points: usize,
}

/// Deploys a k-covered field and mirrors it into a network.
fn deployed(params: &ExpParams, k: u32, seed: u64) -> Deployed {
    let (map, _, cfg) = deploy_with(params, SchemeKind::Centralized, k, seed, |_| {});
    let mut net = Network::new(*map.field());
    let mut map_rows = Vec::new();
    for (_, pos) in map.active_sensors() {
        net.add_node(pos, cfg.rs, cfg.rc);
        let mut row = Vec::new();
        map.for_each_point_within_unordered(pos, cfg.rs, |pid, _| row.push(pid as u32));
        map_rows.push(row.into_boxed_slice());
    }
    let points = map.points();
    let node_rows = (0..net.len())
        .map(|id| {
            (0..points.len() as u32)
                .filter(|&pi| net.node(id).covers(points[pi as usize]))
                .collect()
        })
        .collect();
    Deployed {
        net,
        map_rows,
        node_rows,
        n_points: map.n_points(),
    }
}

/// One replica: the distributed agreement's shifts at the given loss.
fn agreed_shifts(params: &ExpParams, k: u32, seed: u64, loss: Option<f64>) -> Vec<Vec<NodeId>> {
    let Deployed {
        mut net,
        map_rows,
        n_points,
        ..
    } = deployed(params, k, seed);
    let link = match loss {
        Some(rate) => LinkConfig::lossy(rate, seed ^ 0x1055),
        None => LinkConfig::default(),
    };
    link.apply(&mut net);
    let rot = RotationConfig::default();
    let agreement = agree_shifts(&mut net, &map_rows, n_points, &rot, &link, seed);
    agreement.schedule.shifts().to_vec()
}

#[test]
fn agreement_matches_centralized_partition_lossless_and_lossy() {
    for params in [ExpParams::quick(), ExpParams::paper()] {
        let scale = params.n_points;
        for seed in [3u64, 9] {
            let d = deployed(&params, 3, seed);
            let want =
                SleepScheduler::new(1).shifts(&d.node_rows, |id| d.net.is_alive(id), d.n_points);
            assert!(
                want.len() > 1,
                "k=3 deployment must split ({scale} points, seed {seed})"
            );
            for loss in [None, Some(0.2)] {
                let got = agreed_shifts(&params, 3, seed, loss);
                assert_eq!(
                    got, want,
                    "distributed agreement drifted from the centralized \
                     partition ({scale} points, seed {seed}, loss {loss:?})"
                );
            }
        }
    }
}

#[test]
fn agreement_is_bit_identical_across_worker_counts() {
    let run_with = |threads: usize| -> Vec<Vec<Vec<NodeId>>> {
        MatrixRunner::new(threads).replicas(4, 0xD1FF, |i, seed| {
            let loss = if i % 2 == 0 { None } else { Some(0.2) };
            agreed_shifts(&ExpParams::quick(), 3, seed, loss)
        })
    };
    let one = run_with(1);
    let two = run_with(2);
    let eight = run_with(8);
    assert_eq!(one, two, "2 workers diverged from sequential");
    assert_eq!(one, eight, "8 workers diverged from sequential");
}

#[test]
fn agreement_pays_for_its_messages() {
    let Deployed {
        mut net,
        map_rows,
        n_points,
        ..
    } = deployed(&ExpParams::quick(), 3, 5);
    let link = LinkConfig::default();
    let rot = RotationConfig::default();
    let agreement = agree_shifts(&mut net, &map_rows, n_points, &rot, &link, 0);
    assert!(agreement.schedule.n_shifts() > 1);
    assert!(agreement.assignments_sent > 0);
    assert_eq!(agreement.gave_up, 0, "lossless must reach every member");
    assert!(
        net.stats.total_sent > 0 && net.stats.protocol_sent > 0,
        "agreement traffic must be charged to the energy accounting"
    );
}
