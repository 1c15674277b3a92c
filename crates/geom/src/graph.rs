//! Unit-disk communication graphs and connectivity checks.
//!
//! Two nodes can communicate when their distance is at most `rc`. The paper
//! states (§2) that `rc >= 2·rs` plus full k-coverage implies
//! k-connectivity; this module provides the machinery to *check* that
//! corollary in tests and experiments:
//!
//! - [`UnitDiskGraph`] — adjacency built with the spatial index (O(n · deg)).
//! - [`UnitDiskGraph::is_connected`] — BFS.
//! - [`UnitDiskGraph::vertex_connectivity_at_least`] — Menger's theorem via
//!   unit-capacity max-flow on the node-split digraph: the graph is
//!   k-vertex-connected iff every non-adjacent pair has k internally
//!   disjoint paths.

use crate::grid_index::GridIndex;
use crate::point::Point;

/// An undirected unit-disk graph over a set of node positions.
#[derive(Clone, Debug)]
pub struct UnitDiskGraph {
    adj: Vec<Vec<usize>>,
}

impl UnitDiskGraph {
    /// Builds the graph: nodes `i`, `j` are adjacent iff
    /// `dist(p_i, p_j) <= rc` and `i != j`.
    pub fn build(positions: &[Point], rc: f64) -> Self {
        assert!(rc > 0.0, "communication radius must be positive");
        let mut adj = vec![Vec::new(); positions.len()];
        if !positions.is_empty() {
            // Index extent from the data itself; degenerate extents padded.
            let (mut lo, mut hi) = (positions[0], positions[0]);
            for &p in positions {
                lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
                hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
            }
            let extent = ((hi.x - lo.x).max(rc), (hi.y - lo.y).max(rc));
            let mut idx = GridIndex::new(lo, extent, rc);
            for (i, &p) in positions.iter().enumerate() {
                idx.insert(i, p);
            }
            for (i, &p) in positions.iter().enumerate() {
                idx.for_each_within(p, rc, |j, _| {
                    if j != i {
                        adj[i].push(j);
                    }
                });
            }
            for l in &mut adj {
                l.sort_unstable();
            }
        }
        UnitDiskGraph { adj }
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True when the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Neighbor list of node `i` (sorted by id).
    pub fn neighbors(&self, i: usize) -> &[usize] {
        &self.adj[i]
    }

    /// Total number of undirected edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// BFS connectivity over all nodes. The empty graph and the singleton
    /// are connected by convention.
    pub fn is_connected(&self) -> bool {
        let n = self.len();
        if n <= 1 {
            return true;
        }
        let mut seen = vec![false; n];
        let mut queue = std::collections::VecDeque::new();
        seen[0] = true;
        queue.push_back(0);
        let mut visited = 1;
        while let Some(u) = queue.pop_front() {
            for &v in &self.adj[u] {
                if !seen[v] {
                    seen[v] = true;
                    visited += 1;
                    queue.push_back(v);
                }
            }
        }
        visited == n
    }

    /// Maximum number of internally vertex-disjoint paths between `s`
    /// and `t` (`s != t`), capped at `cap` to bound work.
    ///
    /// Implemented as unit-capacity max-flow on the standard node-split
    /// transformation (each node but `s`,`t` becomes an `in -> out` arc of
    /// capacity one). Runs `cap` augmenting BFS passes at most.
    pub fn disjoint_paths(&self, s: usize, t: usize, cap: usize) -> usize {
        assert_ne!(s, t);
        let n = self.len();
        // Node-split ids: in(v) = 2v, out(v) = 2v + 1.
        // Arcs: in(v) -> out(v) cap 1 (v != s, t: s/t get cap `cap`),
        //       out(u) -> in(v) cap 1 for each edge (u, v).
        let num = 2 * n;
        let mut graph: Vec<Vec<usize>> = vec![Vec::new(); num];
        let mut to: Vec<usize> = Vec::new();
        let mut cap_vec: Vec<i32> = Vec::new();
        let add_edge = |graph: &mut Vec<Vec<usize>>,
                        to: &mut Vec<usize>,
                        caps: &mut Vec<i32>,
                        u: usize,
                        v: usize,
                        c: i32| {
            graph[u].push(to.len());
            to.push(v);
            caps.push(c);
            graph[v].push(to.len());
            to.push(u);
            caps.push(0);
        };
        for v in 0..n {
            let c = if v == s || v == t { cap as i32 } else { 1 };
            add_edge(&mut graph, &mut to, &mut cap_vec, 2 * v, 2 * v + 1, c);
        }
        for u in 0..n {
            for &v in &self.adj[u] {
                // Each undirected edge becomes two directed out->in arcs;
                // add each direction once (u < v handles both).
                if u < v {
                    add_edge(&mut graph, &mut to, &mut cap_vec, 2 * u + 1, 2 * v, 1);
                    add_edge(&mut graph, &mut to, &mut cap_vec, 2 * v + 1, 2 * u, 1);
                }
            }
        }
        let source = 2 * s; // in(s); its split arc has capacity `cap`
        let sink = 2 * t + 1; // out(t)
        let mut flow = 0usize;
        let mut parent_edge = vec![usize::MAX; num];
        while flow < cap {
            // BFS for an augmenting path.
            for pe in parent_edge.iter_mut() {
                *pe = usize::MAX;
            }
            let mut queue = std::collections::VecDeque::new();
            queue.push_back(source);
            let mut reached = false;
            'bfs: while let Some(u) = queue.pop_front() {
                for &e in &graph[u] {
                    let v = to[e];
                    if cap_vec[e] > 0 && parent_edge[v] == usize::MAX && v != source {
                        parent_edge[v] = e;
                        if v == sink {
                            reached = true;
                            break 'bfs;
                        }
                        queue.push_back(v);
                    }
                }
            }
            if !reached {
                break;
            }
            // Augment by one unit.
            let mut v = sink;
            while v != source {
                let e = parent_edge[v];
                cap_vec[e] -= 1;
                cap_vec[e ^ 1] += 1;
                v = to[e ^ 1];
            }
            flow += 1;
        }
        flow
    }

    /// Checks k-vertex-connectivity (capped test, exact for `k <= n-1`).
    ///
    /// Uses Menger's theorem: the graph is k-connected iff it has more than
    /// k nodes and every pair of *non-adjacent* nodes admits `k` internally
    /// disjoint paths. To bound cost we test `s = 0` against all others and
    /// every non-adjacent pair among a capped sample — exact per
    /// Even–Tarjan's observation that fixing one endpoint in a minimum
    /// separator's complement suffices when iterated over k+1 seeds.
    /// For the sizes exercised here (hundreds of nodes) we keep the simpler
    /// exact variant: all pairs (s, t) with `s` in the first `k+1` nodes.
    pub fn vertex_connectivity_at_least(&self, k: usize) -> bool {
        let n = self.len();
        if k == 0 {
            return true;
        }
        if n <= k {
            return false; // k-connectivity requires at least k+1 nodes
        }
        if !self.is_connected() {
            return false;
        }
        let seeds = (k + 1).min(n);
        for s in 0..seeds {
            for t in 0..n {
                if t == s || self.adj[s].binary_search(&t).is_ok() {
                    continue;
                }
                if self.disjoint_paths(s, t, k) < k {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pts(coords: &[(f64, f64)]) -> Vec<Point> {
        coords.iter().map(|&(x, y)| Point::new(x, y)).collect()
    }

    #[test]
    fn adjacency_respects_rc() {
        let g = UnitDiskGraph::build(&pts(&[(0.0, 0.0), (1.0, 0.0), (3.0, 0.0)]), 1.5);
        assert_eq!(g.neighbors(0), &[1]);
        assert_eq!(g.neighbors(1), &[0]);
        assert_eq!(g.neighbors(2), &[] as &[usize]);
        assert_eq!(g.edge_count(), 1);
    }

    #[test]
    fn boundary_distance_is_adjacent() {
        let g = UnitDiskGraph::build(&pts(&[(0.0, 0.0), (2.0, 0.0)]), 2.0);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn chain_is_connected_but_not_biconnected() {
        let g = UnitDiskGraph::build(&pts(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]), 1.2);
        assert!(g.is_connected());
        assert!(g.vertex_connectivity_at_least(1));
        assert!(!g.vertex_connectivity_at_least(2));
    }

    #[test]
    fn disconnected_graph_detected() {
        let g = UnitDiskGraph::build(&pts(&[(0.0, 0.0), (10.0, 0.0)]), 1.0);
        assert!(!g.is_connected());
        assert!(!g.vertex_connectivity_at_least(1));
    }

    #[test]
    fn empty_and_singleton_are_connected() {
        assert!(UnitDiskGraph::build(&[], 1.0).is_connected());
        assert!(UnitDiskGraph::build(&pts(&[(0.0, 0.0)]), 1.0).is_connected());
    }

    #[test]
    fn triangle_is_biconnected() {
        let g = UnitDiskGraph::build(&pts(&[(0.0, 0.0), (1.0, 0.0), (0.5, 0.8)]), 1.2);
        assert!(g.vertex_connectivity_at_least(2));
        assert!(!g.vertex_connectivity_at_least(3)); // needs > 3 nodes
    }

    #[test]
    fn square_with_diagonals_is_triconnected() {
        // K4 via generous radius.
        let g = UnitDiskGraph::build(&pts(&[(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]), 2.0);
        assert!(g.vertex_connectivity_at_least(3));
    }

    #[test]
    fn cut_vertex_limits_connectivity() {
        // Two triangles sharing a single vertex (bowtie): 1-connected only.
        let g = UnitDiskGraph::build(
            &pts(&[
                (0.0, 0.0),
                (1.0, 0.6),
                (1.0, -0.6),
                (2.0, 0.0), // shared hub is node 3
                (3.0, 0.6),
                (3.0, -0.6),
                (4.0, 0.0),
            ]),
            1.4,
        );
        assert!(g.is_connected());
        assert!(g.vertex_connectivity_at_least(1));
        assert!(!g.vertex_connectivity_at_least(2));
    }

    #[test]
    fn disjoint_paths_on_cycle() {
        // 6-cycle: exactly two disjoint paths between opposite nodes.
        let mut coords = Vec::new();
        for i in 0..6 {
            let a = i as f64 * std::f64::consts::TAU / 6.0;
            coords.push((a.cos(), a.sin()));
        }
        let g = UnitDiskGraph::build(&pts(&coords), 1.05);
        assert_eq!(g.disjoint_paths(0, 3, 5), 2);
        assert_eq!(g.disjoint_paths(0, 2, 5), 2);
    }

    #[test]
    fn dense_cluster_has_high_connectivity() {
        // 3x3 grid with radius covering rook+diagonal moves => quite dense.
        let mut coords = Vec::new();
        for i in 0..3 {
            for j in 0..3 {
                coords.push((i as f64, j as f64));
            }
        }
        let g = UnitDiskGraph::build(&pts(&coords), 1.5);
        assert!(g.vertex_connectivity_at_least(3));
    }
}
