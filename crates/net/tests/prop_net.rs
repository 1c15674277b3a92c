//! Property tests for the WSN simulator substrate.

use decor_geom::{Aabb, Point};
use decor_net::{rotation_leader, shortest_path, EventQueue, FailurePlan, Message, Network};
use proptest::prelude::*;

fn arb_point() -> impl Strategy<Value = Point> {
    (0.0..100.0f64, 0.0..100.0f64).prop_map(|(x, y)| Point::new(x, y))
}

fn build_net(positions: &[Point], rc: f64) -> Network {
    let mut net = Network::new(Aabb::square(100.0));
    for &p in positions {
        net.add_node(p, (rc / 2.0).max(0.5), rc);
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Events pop in non-decreasing time order with FIFO ties, no matter
    /// the schedule order.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..1000, 1..100)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, i);
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((t, i)) = q.pop() {
            prop_assert_eq!(times[i], t);
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }

    /// Fraction failure kills exactly round(frac·n) nodes, all distinct.
    #[test]
    fn fraction_failure_exact_count(
        pts in prop::collection::vec(arb_point(), 1..80),
        frac in 0.0..1.0f64,
        seed in any::<u64>(),
    ) {
        let net = build_net(&pts, 8.0);
        let victims = FailurePlan::Fraction { frac, seed }.victims(&net);
        prop_assert_eq!(victims.len(), (pts.len() as f64 * frac).round() as usize);
        let mut v = victims.clone();
        v.dedup();
        prop_assert_eq!(v.len(), victims.len(), "victims must be unique and sorted");
    }

    /// Area failures kill exactly the nodes in the disc.
    #[test]
    fn area_failure_is_geometric(
        pts in prop::collection::vec(arb_point(), 1..80),
        c in arb_point(),
        r in 1.0..50.0f64,
    ) {
        let mut net = build_net(&pts, 8.0);
        let disk = decor_geom::Disk::new(c, r);
        let victims = FailurePlan::Area { disk }.apply(&mut net);
        for (i, &p) in pts.iter().enumerate() {
            prop_assert_eq!(victims.contains(&i), disk.contains(p), "node {}", i);
        }
    }

    /// Message accounting conserves: every unicast adds exactly one to
    /// sender and receiver counters; totals match.
    #[test]
    fn stats_conservation(
        pts in prop::collection::vec(arb_point(), 2..30),
        attempts in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..60),
    ) {
        let mut net = build_net(&pts, 30.0);
        let mut expected_total = 0u64;
        for (fi, ti) in &attempts {
            let from = fi.index(pts.len());
            let to = ti.index(pts.len());
            if from == to {
                continue;
            }
            if net.unicast(from, to, Message::Hello { pos: pts[from] }).is_ok() {
                expected_total += 1;
            }
        }
        prop_assert_eq!(net.stats.total_sent, expected_total);
        let sent_sum: u64 = (0..pts.len()).map(|i| net.stats.sent_by(i)).sum();
        let recv_sum: u64 = (0..pts.len()).map(|i| net.stats.received_by(i)).sum();
        prop_assert_eq!(sent_sum, expected_total);
        prop_assert_eq!(recv_sum, expected_total);
        prop_assert_eq!(
            net.stats.maintenance_sent + net.stats.protocol_sent,
            expected_total
        );
    }

    /// BFS routing returns a valid path: endpoints correct, every hop
    /// within the sender's rc, and no shorter path exists (spot-check by
    /// hop-count minimality vs. a direct link).
    #[test]
    fn shortest_path_is_valid(
        pts in prop::collection::vec(arb_point(), 2..40),
        fi in any::<prop::sample::Index>(),
        ti in any::<prop::sample::Index>(),
    ) {
        let net = build_net(&pts, 15.0);
        let from = fi.index(pts.len());
        let to = ti.index(pts.len());
        if let Some(path) = shortest_path(&net, from, to) {
            prop_assert_eq!(*path.first().unwrap(), from);
            prop_assert_eq!(*path.last().unwrap(), to);
            for hop in path.windows(2) {
                prop_assert!(pts[hop[0]].dist(pts[hop[1]]) <= 15.0 + 1e-9);
            }
            if from != to && pts[from].dist(pts[to]) <= 15.0 {
                prop_assert_eq!(path.len(), 2, "direct link must be used");
            }
        }
    }

    /// Rotation visits every member once per cycle.
    #[test]
    fn rotation_visits_every_member(members in prop::collection::vec(0usize..1000, 1..20)) {
        let mut uniq = members.clone();
        uniq.sort_unstable();
        uniq.dedup();
        let cycle: Vec<usize> = (0..uniq.len() as u64)
            .map(|r| rotation_leader(&members, r).unwrap())
            .collect();
        let mut sorted = cycle.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, uniq, "one full cycle visits each member once");
    }

    /// Failing nodes only ever shrinks neighbor lists.
    #[test]
    fn failure_shrinks_neighborhoods(
        pts in prop::collection::vec(arb_point(), 2..40),
        kill in any::<prop::sample::Index>(),
    ) {
        let mut net = build_net(&pts, 12.0);
        let before: Vec<Vec<usize>> = (0..pts.len()).map(|i| net.neighbors_of(i)).collect();
        let victim = kill.index(pts.len());
        net.fail_node(victim);
        for (i, before_i) in before.iter().enumerate() {
            let after = net.neighbors_of(i);
            for nb in &after {
                prop_assert!(before_i.contains(nb), "neighbors cannot appear");
                prop_assert_ne!(*nb, victim);
            }
        }
    }
}
