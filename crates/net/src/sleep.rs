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
//! The partition's whole input is which node covers which point: one row
//! per node listing the points it covers, as `run_endurance` keeps them
//! for its duty check (Abrams, Goel & Plotkin's set k-cover takes exactly
//! this incidence). No geometry runs here; the caller decides coverage
//! once, and the point → coverers lists are the transpose of the live
//! rows.
//!
//! The greedy is output-sensitive: each assignment touches only the
//! points the chosen node covers. The most constrained point comes from
//! an ordered set keyed by (slack, point), a candidate's gain is counted
//! over its own row, and only the assigned node's points are updated
//! (DESIGN.md §15). Neither depends on the order within a row, so rows
//! may list their points in any order.

use crate::node::NodeId;
use std::cmp::Reverse;
use std::collections::BTreeSet;

/// Builds sleep shifts from a k-covered deployment.
///
/// ```
/// use decor_net::SleepScheduler;
///
/// // Two nodes covering the one monitored point can take turns.
/// let rows: Vec<Box<[u32]>> = vec![Box::new([0]), Box::new([0])];
/// let shifts = SleepScheduler::new(1).shifts(&rows, |_| true, 1);
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

    /// Partitions the live nodes into disjoint shifts, each achieving
    /// `target_coverage` of every one of `n_points` points on its own.
    /// `rows[id]` lists the points node `id` covers, in any order and
    /// each below `n_points`; `alive(id)` says whether the node takes
    /// part. Nodes left over are dealt round-robin across the shifts as
    /// spares, so every shift gets backup. Returns an empty vec when even
    /// all live nodes cannot reach the target.
    ///
    /// Construction is a balanced simultaneous assignment (a domatic-
    /// partition heuristic): extracting complete shifts one at a time lets
    /// the first shift hog the coverers of tight points and ruins the
    /// rest, so instead all `S` shifts are built together — the most
    /// constrained (point, shift) deficit is always served next — and `S`
    /// is found by trying the upper bound `min_p |coverers(p)| / target`
    /// downwards until a feasible partition appears.
    pub fn shifts(
        &self,
        rows: &[Box<[u32]>],
        alive: impl Fn(NodeId) -> bool,
        n_points: usize,
    ) -> Vec<Vec<NodeId>> {
        let live: Vec<NodeId> = (0..rows.len()).filter(|&id| alive(id)).collect();
        // The live rows transposed by a counting sort into one flat
        // buffer: point `pi` is covered by `cov[start[pi]..start[pi + 1]]`,
        // ids ascending. Shared by every attempt below.
        let mut start = vec![0usize; n_points + 1];
        for &id in &live {
            for &pi in rows[id].iter() {
                start[pi as usize + 1] += 1;
            }
        }
        let min_cover = start[1..].iter().min().copied().unwrap_or(0) as u32;
        if min_cover < self.target_coverage {
            return Vec::new(); // even everyone awake cannot cover
        }
        for pi in 0..n_points {
            start[pi + 1] += start[pi];
        }
        let mut cov = vec![0; start[n_points]];
        let mut fill = start.clone();
        for &id in &live {
            for &pi in rows[id].iter() {
                cov[fill[pi as usize]] = id;
                fill[pi as usize] += 1;
            }
        }
        let s_max = (min_cover / self.target_coverage).max(1) as usize;
        for s in (1..=s_max).rev() {
            if let Some(mut shifts) = self.try_partition(rows, &start, &cov, s) {
                // Spares spread round-robin so every shift gets backup.
                let assigned: BTreeSet<NodeId> = shifts.iter().flatten().copied().collect();
                for (i, &id) in live.iter().filter(|id| !assigned.contains(id)).enumerate() {
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

    /// Attempts to build exactly `s` disjoint shifts simultaneously.
    /// Point `pi`'s coverers are `cov[start[pi]..start[pi + 1]]`, the
    /// transpose of the live `rows`.
    fn try_partition(
        &self,
        rows: &[Box<[u32]>],
        start: &[usize],
        cov: &[NodeId],
        s: usize,
    ) -> Option<Vec<Vec<NodeId>>> {
        let n_points = start.len() - 1;
        let coverers = |pi: usize| &cov[start[pi]..start[pi + 1]];
        // deficit[pi * s + si]: coverage still needed by shift si at pi.
        let mut deficit = vec![self.target_coverage; n_points * s];
        // need[pi]: the deficits of pi summed over the shifts.
        let mut need = vec![self.target_coverage as i64 * s as i64; n_points];
        // avail[pi]: coverers of pi not yet assigned to a shift.
        let mut avail: Vec<i64> = (0..n_points).map(|pi| coverers(pi).len() as i64).collect();
        // The points still in need, keyed by (slack, point): the first
        // entry is the most constrained point, the lowest id on equal
        // slack. Each key holds the point's current avail - need.
        let mut needy: BTreeSet<(i64, usize)> =
            (0..n_points).map(|pi| (avail[pi] - need[pi], pi)).collect();
        let mut free = vec![true; rows.len()];
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
            for &id in coverers(pi) {
                if !free[id] {
                    continue;
                }
                let gain = rows[id]
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
            for &qi in rows[id].iter() {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Rows of `layers` identical 6×6 lattices of rs-6 sensors (spacing
    /// 6.5) over a 10×10 lattice of points (spacing 3.6): every layer
    /// covers every point.
    fn layered_rows(layers: usize) -> Vec<Box<[u32]>> {
        let covers = |node: usize, pi: usize| {
            let (x, y) = (3.0 + 6.5 * (node / 6) as f64, 3.0 + 6.5 * (node % 6) as f64);
            let (px, py) = (2.0 + 3.6 * (pi / 10) as f64, 2.0 + 3.6 * (pi % 10) as f64);
            (x - px) * (x - px) + (y - py) * (y - py) <= 36.0
        };
        (0..layers * 36)
            .map(|id| {
                (0..100u32)
                    .filter(|&pi| covers(id % 36, pi as usize))
                    .collect()
            })
            .collect()
    }

    #[test]
    fn shifts_partition_and_each_covers() {
        let rows = layered_rows(3);
        let shifts = SleepScheduler::new(1).shifts(&rows, |_| true, 100);
        assert!(shifts.len() >= 2, "3 layers must yield >= 2 shifts");
        // Disjoint.
        let mut seen = BTreeSet::new();
        for shift in &shifts {
            for &id in shift {
                assert!(seen.insert(id), "node {id} in two shifts");
            }
            // Each shift alone covers every point.
            for pi in 0..100 {
                assert!(
                    shift.iter().any(|&id| rows[id].contains(&pi)),
                    "point {pi} uncovered by a shift"
                );
            }
        }
    }

    #[test]
    fn row_order_does_not_matter() {
        let rows = layered_rows(3);
        let reversed: Vec<Box<[u32]>> = rows
            .iter()
            .map(|row| row.iter().rev().copied().collect())
            .collect();
        let sched = SleepScheduler::new(1);
        assert_eq!(
            sched.shifts(&reversed, |_| true, 100),
            sched.shifts(&rows, |_| true, 100)
        );
    }

    #[test]
    fn impossible_target_yields_no_shifts() {
        let rows = layered_rows(1);
        let sched = SleepScheduler::new(5); // only 1 layer exists
        assert!(sched.shifts(&rows, |_| true, 100).is_empty());
    }

    #[test]
    fn spares_are_dealt_round_robin() {
        // Point 0 has 4 coverers and point 1 has 6, so at target 2 there
        // are two shifts of 2 + 2 nodes and point 1's 2 leftovers are
        // spares.
        let rows: Vec<Box<[u32]>> = (0..10).map(|id| Box::from([u32::from(id >= 4)])).collect();
        let shifts = SleepScheduler::new(2).shifts(&rows, |_| true, 2);
        assert_eq!(shifts, vec![vec![0, 2, 4, 6, 8], vec![1, 3, 5, 7, 9]]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_target_panics() {
        let _ = SleepScheduler::new(0);
    }
}
