//! Sleep scheduling: splitting a k-covered deployment into shifts.
//!
//! The paper's third motivation for k-coverage (§1): "When k nodes are
//! covering a point, we have the option of putting some of them to sleep
//! or balance the workload among all k nodes. Thus, k-coverage leads to
//! significant energy savings and increases the lifetime for the
//! network." [`SleepScheduler::shifts`] partitions the alive nodes into
//! disjoint *shifts*, each of which alone keeps every monitored point
//! covered at the target degree (greedy set-multicover per shift).
//! `decor_core::rotation::agree_shifts` agrees on that partition
//! in-network, and `decor_core::run_endurance` duty-cycles it against
//! the battery model to measure the lifetime it buys.
//!
//! The greedy is output-sensitive: each assignment touches only the
//! points the chosen node covers. The most constrained point comes from
//! an ordered set keyed by (slack, point), a candidate's gain is counted
//! over its own points, and only the assigned node's points are updated
//! (DESIGN.md §15).

use crate::network::Network;
use crate::node::NodeId;
use decor_geom::Point;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Builds sleep shifts from a k-covered deployment.
///
/// ```
/// use decor_geom::{Aabb, Point};
/// use decor_net::{Network, SleepScheduler};
///
/// // Two identical sensors covering one spot can take turns.
/// let mut net = Network::new(Aabb::square(10.0));
/// net.add_node(Point::new(5.0, 5.0), 4.0, 8.0);
/// net.add_node(Point::new(5.0, 5.0), 4.0, 8.0);
/// let points = vec![Point::new(5.0, 5.0)];
/// let shifts = SleepScheduler::new(1).shifts(&net, &points);
/// assert_eq!(shifts, vec![vec![0], vec![1]]);
/// ```
#[derive(Clone, Copy, Debug)]
pub struct SleepScheduler {
    /// Coverage degree each shift must maintain on its own (usually 1:
    /// the k-covered deployment is split into ~k 1-covering shifts).
    pub target_coverage: u32,
}

impl SleepScheduler {
    /// Creates a scheduler. Panics when `target_coverage` is zero.
    pub fn new(target_coverage: u32) -> Self {
        assert!(target_coverage >= 1, "target coverage must be at least 1");
        SleepScheduler { target_coverage }
    }

    /// For each point, the alive nodes covering it (sorted by id).
    fn coverers(net: &Network, points: &[Point]) -> Vec<Vec<NodeId>> {
        let r = max_rs(net);
        let mut buf: Vec<NodeId> = Vec::new();
        points
            .iter()
            .map(|&p| {
                net.alive_within_into(p, r, &mut buf);
                buf.iter()
                    .copied()
                    .filter(|&id| net.node(id).covers(p))
                    .collect()
            })
            .collect()
    }

    /// Partitions the alive nodes into disjoint shifts, each achieving
    /// `target_coverage` of every point in `points` on its own. Nodes
    /// left over are dealt round-robin across the shifts as spares, so
    /// every shift gets backup. Returns an empty vec when even the full
    /// network cannot reach the target.
    ///
    /// Construction is a balanced simultaneous assignment (a domatic-
    /// partition heuristic): extracting complete shifts one at a time lets
    /// the first shift hog the coverers of tight points and ruins the
    /// rest, so instead all `S` shifts are built together — the most
    /// constrained (point, shift) deficit is always served next — and `S`
    /// is found by trying the upper bound `min_p |coverers(p)| / target`
    /// downwards until a feasible partition appears.
    pub fn shifts(&self, net: &Network, points: &[Point]) -> Vec<Vec<NodeId>> {
        let coverers = Self::coverers(net, points);
        let min_cover = coverers.iter().map(Vec::len).min().unwrap_or(0) as u32;
        if min_cover < self.target_coverage {
            return Vec::new(); // even everyone awake cannot cover
        }
        // The coverer lists inverted into rows of one flat buffer: node
        // `id` covers points `pts[start[id]..start[id + 1]]`, ascending.
        // Shared by every attempt below.
        let mut start = vec![0usize; net.len() + 1];
        for &id in coverers.iter().flatten() {
            start[id + 1] += 1;
        }
        for id in 0..net.len() {
            start[id + 1] += start[id];
        }
        let mut pts = vec![0u32; start[net.len()]];
        let mut fill = start.clone();
        for (pi, c) in coverers.iter().enumerate() {
            let pi = u32::try_from(pi).expect("fewer than 2^32 points");
            for &id in c {
                pts[fill[id]] = pi;
                fill[id] += 1;
            }
        }
        let pts_of = |id: NodeId| &pts[start[id]..start[id + 1]];
        let s_max = (min_cover / self.target_coverage).max(1) as usize;
        for s in (1..=s_max).rev() {
            if let Some(mut shifts) = self.try_partition(&coverers, pts_of, net.len(), s) {
                // Spares spread round-robin so every shift gets backup.
                let assigned: BTreeSet<NodeId> = shifts.iter().flatten().copied().collect();
                for (i, id) in net
                    .alive_ids()
                    .into_iter()
                    .filter(|id| !assigned.contains(id))
                    .enumerate()
                {
                    shifts[i % s].push(id);
                }
                for shift in &mut shifts {
                    shift.sort_unstable();
                }
                return shifts;
            }
        }
        Vec::new()
    }

    /// Attempts to build exactly `s` disjoint shifts simultaneously out
    /// of `n_nodes` nodes. `pts_of(id)` is node `id`'s row of `coverers`
    /// inverted.
    fn try_partition<'a>(
        &self,
        coverers: &[Vec<NodeId>],
        pts_of: impl Fn(NodeId) -> &'a [u32],
        n_nodes: usize,
        s: usize,
    ) -> Option<Vec<Vec<NodeId>>> {
        let n_points = coverers.len();
        // deficit[pi * s + si]: coverage still needed by shift si at pi.
        let mut deficit = vec![self.target_coverage; n_points * s];
        // need[pi]: the deficits of pi summed over the shifts.
        let mut need = vec![self.target_coverage as i64 * s as i64; n_points];
        // avail[pi]: coverers of pi not yet assigned to a shift.
        let mut avail: Vec<i64> = coverers.iter().map(|c| c.len() as i64).collect();
        // The points still in need, keyed by (slack, point): the first
        // entry is the most constrained point, the lowest id on equal
        // slack. Each key holds the point's current avail - need.
        let mut needy: BTreeSet<(i64, usize)> =
            (0..n_points).map(|pi| (avail[pi] - need[pi], pi)).collect();
        let mut free = vec![true; n_nodes];
        let mut shifts = vec![Vec::new(); s];
        while let Some(&(slack, pi)) = needy.first() {
            if slack < 0 {
                return None; // infeasible for this s
            }
            // Serve the shift with the largest deficit at pi (ties: low id).
            let row = &deficit[pi * s..(pi + 1) * s];
            let si = (0..s)
                .max_by_key(|&si| (row[si], Reverse(si)))
                .expect("an attempt builds at least one shift");
            debug_assert!(row[si] > 0);
            // Among free coverers of pi, pick the one covering the most
            // still-deficient points *of that shift* (ties: low id).
            let mut best: Option<(NodeId, usize)> = None;
            for &id in &coverers[pi] {
                if !free[id] {
                    continue;
                }
                let gain = pts_of(id)
                    .iter()
                    .filter(|&&qi| deficit[qi as usize * s + si] > 0)
                    .count();
                if best.is_none_or(|(_, g)| gain > g) {
                    best = Some((id, gain));
                }
            }
            let (id, _) = best?; // no available coverer: infeasible
            free[id] = false;
            shifts[si].push(id);
            // Only the assigned node's points change: each loses a free
            // coverer, and where shift si still lacked coverage its
            // deficit falls too (slack unchanged); elsewhere slack drops.
            for &qi in pts_of(id) {
                let qi = qi as usize;
                if need[qi] == 0 {
                    continue; // satisfied: no longer keyed
                }
                let old = (avail[qi] - need[qi], qi);
                avail[qi] -= 1;
                let d = &mut deficit[qi * s + si];
                if *d > 0 {
                    *d -= 1;
                    need[qi] -= 1;
                    if need[qi] == 0 {
                        needy.remove(&old);
                    }
                } else {
                    needy.remove(&old);
                    needy.insert((old.0 - 1, qi));
                }
            }
        }
        Some(shifts)
    }
}

fn max_rs(net: &Network) -> f64 {
    net.alive_ids()
        .into_iter()
        .map(|id| net.node(id).rs)
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::Aabb;

    /// A network where every point is covered by exactly `layers`
    /// identical sensor lattices.
    fn layered_net(layers: usize) -> (Network, Vec<Point>) {
        let mut net = Network::new(Aabb::square(40.0));
        for _ in 0..layers {
            for i in 0..6 {
                for j in 0..6 {
                    net.add_node(
                        Point::new(3.0 + 6.5 * i as f64, 3.0 + 6.5 * j as f64),
                        6.0,
                        12.0,
                    );
                }
            }
        }
        let mut pts = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                pts.push(Point::new(2.0 + 3.6 * i as f64, 2.0 + 3.6 * j as f64));
            }
        }
        (net, pts)
    }

    #[test]
    fn shifts_partition_and_each_covers() {
        let (net, pts) = layered_net(3);
        let sched = SleepScheduler::new(1);
        let shifts = sched.shifts(&net, &pts);
        assert!(shifts.len() >= 2, "3 layers must yield >= 2 shifts");
        // Disjoint.
        let mut seen = std::collections::BTreeSet::new();
        for shift in &shifts {
            for &id in shift {
                assert!(seen.insert(id), "node {id} in two shifts");
            }
            // Each shift alone covers every point.
            for &p in &pts {
                assert!(
                    shift.iter().any(|&id| net.node(id).covers(p)),
                    "point {p} uncovered by a shift"
                );
            }
        }
    }

    #[test]
    fn impossible_target_yields_no_shifts() {
        let (net, pts) = layered_net(1);
        let sched = SleepScheduler::new(5); // only 1 layer exists
        assert!(sched.shifts(&net, &pts).is_empty());
    }

    #[test]
    fn spares_are_dealt_round_robin() {
        // Point a has 4 coverers and point b 6, so at target 2 there are
        // two shifts of 2 + 2 nodes and b's 2 leftovers are spares.
        let mut net = Network::new(Aabb::square(40.0));
        for _ in 0..4 {
            net.add_node(Point::new(5.0, 5.0), 2.0, 4.0);
        }
        for _ in 0..6 {
            net.add_node(Point::new(30.0, 30.0), 2.0, 4.0);
        }
        let pts = [Point::new(5.0, 5.0), Point::new(30.0, 30.0)];
        let shifts = SleepScheduler::new(2).shifts(&net, &pts);
        assert_eq!(shifts, vec![vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7, 9]]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_target_panics() {
        let _ = SleepScheduler::new(0);
    }
}
