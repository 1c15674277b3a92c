//! Differential tier for the sleep-shift partition:
//! [`SleepScheduler::shifts`] against a frozen reference implementation.
//!
//! The reference below is the partition as it was before it became
//! output-sensitive: every step rescans every point to find the most
//! constrained one, scores each candidate by a binary search in every
//! point's coverer list, and rescans every point again to apply the
//! assignment. Its code is kept unchanged as the oracle, leaving out only
//! the lifetime simulation that has since been retired. The incremental
//! partition must reproduce its shifts exactly — the same shifts, in the
//! same order, with the same members and spares — including every
//! infeasible case, over stacked random clouds with dead nodes, mixed
//! sensing radii and targets 1 to 3.
//!
//! The oracle finds each point's coverers by range queries on the
//! network; the partition reads node → point rows, built here from
//! `Node::covers`. So the comparison also pins the partition's transpose
//! of those rows against the oracle's coverer lists.

use decor_geom::{Aabb, Point};
use decor_net::{Network, SleepScheduler};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    use decor_geom::Point;
    use decor_net::{Network, NodeId};

    /// The scheduler as it was, without its lifetime simulation.
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
        /// left over are appended to the *first* shift as spares. Returns an
        /// empty vec when even the full network cannot reach the target.
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
            let s_max = (min_cover / self.target_coverage).max(1) as usize;
            for s in (1..=s_max).rev() {
                if let Some(mut shifts) = self.try_partition(net, &coverers, s) {
                    // Spares spread round-robin so every shift gets backup.
                    let assigned: std::collections::BTreeSet<NodeId> =
                        shifts.iter().flatten().copied().collect();
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

        /// Attempts to build exactly `s` disjoint shifts simultaneously.
        fn try_partition(
            &self,
            net: &Network,
            coverers: &[Vec<NodeId>],
            s: usize,
        ) -> Option<Vec<Vec<NodeId>>> {
            let n_points = coverers.len();
            // deficit[si][pi]: coverage still needed by shift si at point pi.
            let mut deficit = vec![vec![self.target_coverage; n_points]; s];
            let mut shift_of = vec![usize::MAX; net.len()];
            let mut shifts = vec![Vec::new(); s];
            loop {
                // Most-constrained point: smallest slack between available
                // coverers and total remaining need.
                let mut pick: Option<(usize, i64)> = None; // (point, slack)
                let mut any_need = false;
                for pi in 0..n_points {
                    let need: i64 = (0..s).map(|si| deficit[si][pi] as i64).sum();
                    if need == 0 {
                        continue;
                    }
                    any_need = true;
                    let avail = coverers[pi]
                        .iter()
                        .filter(|&&id| shift_of[id] == usize::MAX)
                        .count() as i64;
                    let slack = avail - need;
                    if slack < 0 {
                        return None; // infeasible for this s
                    }
                    if pick.is_none_or(|(_, sl)| slack < sl) {
                        pick = Some((pi, slack));
                    }
                }
                if !any_need {
                    break;
                }
                let (pi, _) = pick.expect("need exists");
                // Serve the shift with the largest deficit at pi (ties: low id).
                let si = (0..s)
                    .max_by_key(|&si| (deficit[si][pi], std::cmp::Reverse(si)))
                    .unwrap();
                debug_assert!(deficit[si][pi] > 0);
                // Among available coverers of pi, pick the one covering the
                // most still-deficient points *of that shift* (ties: low id).
                let mut best: Option<(NodeId, u64)> = None;
                for &id in &coverers[pi] {
                    if shift_of[id] != usize::MAX {
                        continue;
                    }
                    let gain: u64 = coverers
                        .iter()
                        .enumerate()
                        .filter(|&(qi, c)| deficit[si][qi] > 0 && c.binary_search(&id).is_ok())
                        .count() as u64;
                    if best.is_none_or(|(bid, g)| gain > g || (gain == g && id < bid)) {
                        best = Some((id, gain));
                    }
                }
                let (id, _) = best?; // no available coverer: infeasible
                shift_of[id] = si;
                shifts[si].push(id);
                for (qi, c) in coverers.iter().enumerate() {
                    if deficit[si][qi] > 0 && c.binary_search(&id).is_ok() {
                        deficit[si][qi] -= 1;
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
}

/// Side of the square field the generated clouds live in.
const SIDE: f64 = 20.0;

/// The sensing radii a stacked copy draws from.
const RADII: [f64; 3] = [4.0, 6.0, 9.0];

/// One generated partition problem.
#[derive(Clone, Debug)]
struct Case {
    /// Node positions of the cloud every copy repeats.
    cloud: Vec<(f64, f64)>,
    /// The radius index into [`RADII`] of each stacked copy.
    copies: Vec<usize>,
    /// Nodes failed before partitioning (indices into all copies).
    dead: Vec<prop::sample::Index>,
    /// Points anchored within the smallest copy radius of a cloud node,
    /// as (cloud node, angle, reach).
    points: Vec<(prop::sample::Index, f64, f64)>,
    /// Points drawn anywhere in the field, as fractions of its side.
    strays: Vec<(f64, f64)>,
    target: u32,
}

fn cases() -> impl Strategy<Value = Case> {
    (
        prop::collection::vec((0.0..SIDE, 0.0..SIDE), 1..30),
        prop::collection::vec(0usize..3, 1..4),
        prop::collection::vec(any::<prop::sample::Index>(), 0..4),
        (
            prop::collection::vec(
                (any::<prop::sample::Index>(), 0.0..1.0f64, 0.0..1.0f64),
                0..119,
            ),
            prop::collection::vec((0.0..1.0f64, 0.0..1.0f64), 0..2),
        ),
        1u32..4,
    )
        .prop_map(|(cloud, copies, dead, (points, strays), target)| Case {
            cloud,
            copies,
            dead,
            points,
            strays,
            target,
        })
}

impl Case {
    /// The network (copy `c` of cloud node `j` is node `c·len + j`) and
    /// the monitored points.
    fn build(&self) -> (Network, Vec<Point>) {
        let mut net = Network::new(Aabb::square(SIDE));
        for &ri in &self.copies {
            for &(x, y) in &self.cloud {
                net.add_node(Point::new(x, y), RADII[ri], 2.0 * RADII[ri]);
            }
        }
        for pick in &self.dead {
            net.fail_node(pick.index(net.len()));
        }
        let rs = self
            .copies
            .iter()
            .map(|&ri| RADII[ri])
            .fold(f64::MAX, f64::min);
        let mut points: Vec<Point> = self
            .points
            .iter()
            .map(|&(node, u, v)| {
                let (x, y) = self.cloud[node.index(self.cloud.len())];
                let (a, r) = (u * std::f64::consts::TAU, v * rs * 0.999);
                Point::new(
                    (x + r * a.cos()).clamp(0.0, SIDE),
                    (y + r * a.sin()).clamp(0.0, SIDE),
                )
            })
            .collect();
        points.extend(
            self.strays
                .iter()
                .map(|&(u, v)| Point::new(u * SIDE, v * SIDE)),
        );
        (net, points)
    }
}

/// The incremental partition and the oracle on one network. The oracle
/// finds each point's coverers by geometry; the partition gets the same
/// incidence as rows, one per node, from `Node::covers`.
fn both(net: &Network, points: &[Point], target: u32) -> (Vec<Vec<usize>>, Vec<Vec<usize>>) {
    let rows: Vec<Box<[u32]>> = (0..net.len())
        .map(|id| {
            (0..points.len() as u32)
                .filter(|&pi| net.node(id).covers(points[pi as usize]))
                .collect()
        })
        .collect();
    let got = SleepScheduler::new(target).shifts(&rows, |id| net.is_alive(id), points.len());
    let want = reference::SleepScheduler::new(target).shifts(net, points);
    (got, want)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The incremental partition reproduces the rescanning oracle's shifts
    /// exactly, feasible or not.
    #[test]
    fn shifts_match_the_rescanning_oracle(case in cases()) {
        let (net, points) = case.build();
        let (got, want) = both(&net, &points, case.target);
        prop_assert_eq!(got, want);
    }
}

/// The generator reaches the cases that matter: multi-shift partitions
/// (where the tie-breaks and the shared deficits decide the outcome) and
/// infeasible ones (where the slack test decides it). Prints both shares.
#[test]
fn generated_cases_reach_multi_shift_and_infeasible_partitions() {
    let mut rng = TestRng::deterministic("partition_oracle::shares");
    let (n, mut multi, mut infeasible) = (256, 0, 0);
    for _ in 0..n {
        let case = cases().new_value(&mut rng);
        let (net, points) = case.build();
        let (got, want) = both(&net, &points, case.target);
        assert_eq!(got, want, "{case:?}");
        match got.len() {
            0 => infeasible += 1,
            1 => {}
            _ => multi += 1,
        }
    }
    println!(
        "{n} cases: {multi} with >= 2 shifts ({:.0}%), {infeasible} infeasible ({:.0}%)",
        100.0 * multi as f64 / n as f64,
        100.0 * infeasible as f64 / n as f64
    );
    assert!(
        multi * 5 >= n,
        "only {multi} of {n} cases split into shifts"
    );
    assert!(
        infeasible * 5 >= n,
        "only {infeasible} of {n} cases are infeasible"
    );
}

/// Paper scale: 2000 points on a 100 × 100 field under three independently
/// jittered `rs = 4` lattices with a few dead nodes, at targets 1 and 2.
#[test]
fn paper_scale_layered_partition_matches_the_oracle() {
    let side = 100.0;
    let mut rng = StdRng::seed_from_u64(7);
    let mut net = Network::new(Aabb::square(side));
    for _ in 0..3 {
        for i in 0..19 {
            for j in 0..19 {
                let x = (0.5 + 5.5 * i as f64 + rng.gen_range(-0.8..0.8f64)).clamp(0.0, side);
                let y = (0.5 + 5.5 * j as f64 + rng.gen_range(-0.8..0.8f64)).clamp(0.0, side);
                net.add_node(Point::new(x, y), 4.0, 8.0);
            }
        }
    }
    for id in (0..net.len()).step_by(97) {
        net.fail_node(id);
    }
    let points: Vec<Point> = (0..2000)
        .map(|_| Point::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
        .collect();
    for target in [1, 2] {
        let (got, want) = both(&net, &points, target);
        assert_eq!(got, want, "target {target}");
        if target == 1 {
            assert!(got.len() >= 2, "three layers must split: {}", got.len());
        }
    }
}
