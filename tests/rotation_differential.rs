//! Differential tier — distributed shift agreement vs the centralized
//! partition.
//!
//! [`decor::core::agree_shifts`] disseminates assignments in-network
//! (election, BFS tree, reliable transport, retries); the schedule it
//! lands on must be **bit-identical** to the centralized
//! [`decor::net::SleepScheduler::shifts`] output — on lossless and lossy
//! links, and regardless of how many worker threads run the replicas.

use decor::core::{agree_shifts, LinkConfig, SchemeKind};
use decor::exp::common::{deploy_with, ExpParams};
use decor::exp::MatrixRunner;
use decor::geom::Point;
use decor::net::{Network, NodeId, RotationConfig, SleepScheduler};

/// Deploys a k-covered field and mirrors it into a network.
fn deployed_net(k: u32, seed: u64) -> (Network, Vec<Point>) {
    let params = ExpParams::quick();
    let (map, _, cfg) = deploy_with(&params, SchemeKind::Centralized, k, seed, |_| {});
    let mut net = Network::new(*map.field());
    for (_, pos) in map.active_sensors() {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    let points = map.points().to_vec();
    (net, points)
}

/// One replica: the distributed agreement's shifts at the given loss.
fn agreed_shifts(k: u32, seed: u64, loss: Option<f64>) -> Vec<Vec<NodeId>> {
    let (mut net, points) = deployed_net(k, seed);
    let link = match loss {
        Some(rate) => LinkConfig::lossy(rate, seed ^ 0x1055),
        None => LinkConfig::default(),
    };
    link.apply(&mut net);
    let rot = RotationConfig::default();
    let agreement = agree_shifts(&mut net, &points, &rot, &link, seed);
    agreement.schedule.shifts().to_vec()
}

#[test]
fn agreement_matches_centralized_partition_lossless_and_lossy() {
    for seed in [3u64, 9] {
        let (net, points) = deployed_net(3, seed);
        let want = SleepScheduler::new(1).shifts(&net, &points);
        assert!(want.len() > 1, "k=3 deployment must split (seed {seed})");
        for loss in [None, Some(0.2)] {
            let got = agreed_shifts(3, seed, loss);
            assert_eq!(
                got, want,
                "distributed agreement drifted from the centralized \
                 partition (seed {seed}, loss {loss:?})"
            );
        }
    }
}

#[test]
fn agreement_is_bit_identical_across_worker_counts() {
    let run_with = |threads: usize| -> Vec<Vec<Vec<NodeId>>> {
        MatrixRunner::new(threads).replicas(4, 0xD1FF, |i, seed| {
            let loss = if i % 2 == 0 { None } else { Some(0.2) };
            agreed_shifts(3, seed, loss)
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
    let (mut net, points) = deployed_net(3, 5);
    let link = LinkConfig::default();
    let rot = RotationConfig::default();
    let agreement = agree_shifts(&mut net, &points, &rot, &link, 0);
    assert!(agreement.schedule.n_shifts() > 1);
    assert!(agreement.assignments_sent > 0);
    assert_eq!(agreement.gave_up, 0, "lossless must reach every member");
    assert!(
        net.stats.total_sent > 0 && net.stats.protocol_sent > 0,
        "agreement traffic must be charged to the energy accounting"
    );
}
