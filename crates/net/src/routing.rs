//! Multi-hop routing over the communication graph.
//!
//! The paper sizes the grid scheme's communication radius so neighboring
//! leaders can talk *directly* (`rc = 10·√2` for 5×5 cells) "without the
//! need of any routing mechanism for the inter-leader communication".
//! Reports to a sink still cross several hops; [`shortest_path`], a BFS
//! over alive nodes, finds the minimum-hop route they take.

use crate::network::Network;
use crate::node::NodeId;
use std::collections::VecDeque;

/// Minimum-hop path from `from` to `to` over alive nodes (BFS), both
/// endpoints included. `None` when unreachable or an endpoint is down.
///
/// ```
/// use decor_geom::{Aabb, Point};
/// use decor_net::{shortest_path, Network};
///
/// let mut net = Network::new(Aabb::square(100.0));
/// for i in 0..4 {
///     net.add_node(Point::new(5.0 + 6.0 * i as f64, 50.0), 4.0, 8.0);
/// }
/// assert_eq!(shortest_path(&net, 0, 3), Some(vec![0, 1, 2, 3]));
/// net.fail_node(2);
/// assert_eq!(shortest_path(&net, 0, 3), None, "the relay is gone");
/// ```
pub fn shortest_path(net: &Network, from: NodeId, to: NodeId) -> Option<Vec<NodeId>> {
    if !net.is_alive(from) || !net.is_alive(to) {
        return None;
    }
    if from == to {
        return Some(vec![from]);
    }
    let n = net.len();
    let mut prev = vec![usize::MAX; n];
    let mut seen = vec![false; n];
    seen[from] = true;
    let mut queue = VecDeque::new();
    queue.push_back(from);
    'bfs: while let Some(u) = queue.pop_front() {
        for v in net.neighbors_of(u) {
            if !seen[v] {
                seen[v] = true;
                prev[v] = u;
                if v == to {
                    break 'bfs;
                }
                queue.push_back(v);
            }
        }
    }
    if !seen[to] {
        return None;
    }
    let mut path = vec![to];
    let mut cur = to;
    while cur != from {
        cur = prev[cur];
        path.push(cur);
    }
    path.reverse();
    Some(path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};

    fn line(n: usize, spacing: f64) -> Network {
        let mut net = Network::new(Aabb::square(200.0));
        for i in 0..n {
            net.add_node(Point::new(5.0 + i as f64 * spacing, 50.0), 4.0, 8.0);
        }
        net
    }

    #[test]
    fn shortest_path_on_a_line() {
        let net = line(5, 6.0); // each hop reaches only adjacent nodes
        let p = shortest_path(&net, 0, 4).unwrap();
        assert_eq!(p, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn shortest_path_skips_when_radius_allows() {
        let net = line(5, 4.0); // rc=8 spans two spacings
        let p = shortest_path(&net, 0, 4).unwrap();
        assert_eq!(p, vec![0, 2, 4]);
    }

    #[test]
    fn path_to_self_is_trivial() {
        let net = line(3, 5.0);
        assert_eq!(shortest_path(&net, 1, 1), Some(vec![1]));
    }

    #[test]
    fn unreachable_returns_none() {
        let mut net = line(3, 5.0);
        net.add_node(Point::new(150.0, 50.0), 4.0, 8.0);
        assert_eq!(shortest_path(&net, 0, 3), None);
    }

    #[test]
    fn dead_relay_forces_detour_or_failure() {
        let mut net = line(5, 6.0);
        net.fail_node(2);
        assert_eq!(shortest_path(&net, 0, 4), None, "line is cut");
    }

    #[test]
    fn shortest_path_detours_around_a_void() {
        // A routing void: a's only neighbor (b) is *farther* from the
        // target, while a detour b→c→d→e→f→t exists (every hop ≤ rc = 8,
        // and none of c..f is within rc of a).
        let mut net = Network::new(Aabb::square(100.0));
        let a = net.add_node(Point::new(35.0, 50.0), 4.0, 8.0);
        let b = net.add_node(Point::new(30.0, 50.0), 4.0, 8.0);
        net.add_node(Point::new(30.0, 43.0), 4.0, 8.0); // c
        net.add_node(Point::new(36.0, 39.0), 4.0, 8.0); // d
        net.add_node(Point::new(43.0, 42.0), 4.0, 8.0); // e
        net.add_node(Point::new(47.0, 46.0), 4.0, 8.0); // f
        let t = net.add_node(Point::new(50.0, 50.0), 4.0, 8.0);
        assert_eq!(net.neighbors_of(a), vec![b], "a must have only b");
        let p = shortest_path(&net, a, t).unwrap();
        assert_eq!(p.first(), Some(&a));
        assert_eq!(p.last(), Some(&t));
        assert!(p.len() >= 5, "detour must be long: {p:?}");
    }
}
