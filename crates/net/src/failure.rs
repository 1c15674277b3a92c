//! Failure injection (paper §2.1).
//!
//! Two failure classes drive the evaluation:
//! - **random node failures** — nodes fail independently (i.i.d. with
//!   probability `q`, Figs. 11–12 additionally use exact fractions of the
//!   deployment);
//! - **area failures** — a disaster (earthquake, fire) kills *every* node
//!   inside a disc (radius 24 ≈ 17% of the paper's field, Figs. 6, 13, 14).

use crate::network::Network;
use crate::node::NodeId;
use decor_geom::Disk;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// A failure scenario that can select victims from a network.
///
/// ```
/// use decor_geom::{Aabb, Disk, Point};
/// use decor_net::{FailurePlan, Network};
///
/// let mut net = Network::new(Aabb::square(100.0));
/// for i in 0..10 {
///     net.add_node(Point::new(5.0 + 10.0 * i as f64, 50.0), 4.0, 8.0);
/// }
/// // A disaster disc kills exactly the nodes inside it.
/// let plan = FailurePlan::Area { disk: Disk::new(Point::new(50.0, 50.0), 16.0) };
/// let victims = plan.apply(&mut net);
/// assert_eq!(victims, vec![3, 4, 5, 6]);
/// assert_eq!(net.alive_count(), 6);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FailurePlan {
    /// Every alive node fails independently with probability `q`.
    Iid {
        /// Per-node failure probability in `[0, 1]`.
        q: f64,
        /// RNG seed (deterministic victim selection).
        seed: u64,
    },
    /// An exact fraction of the alive nodes fails, chosen uniformly.
    Fraction {
        /// Fraction of alive nodes to fail, in `[0, 1]`.
        frac: f64,
        /// RNG seed.
        seed: u64,
    },
    /// Every alive node inside the disc fails (correlated area failure).
    Area {
        /// The disaster disc.
        disk: Disk,
    },
}

impl FailurePlan {
    /// Selects the victims this plan would kill in `net` (sorted by id).
    /// Does not modify the network.
    pub fn victims(&self, net: &Network) -> Vec<NodeId> {
        let alive = net.alive_ids();
        match *self {
            FailurePlan::Area { disk } => alive
                .into_iter()
                .filter(|&id| disk.contains(net.node(id).pos))
                .collect(),
            _ => self
                .draw_ranks(alive.len())
                .into_iter()
                .flatten()
                .map(|rank| alive[rank])
                .collect(),
        }
    }

    /// The victims a random plan draws among `n_alive` alive nodes, as
    /// ranks: positions in the ascending list of alive ids, ascending.
    /// `None` for an [`FailurePlan::Area`] plan, whose victims depend on
    /// positions rather than ranks.
    ///
    /// The draw depends only on `n_alive` and the seed, so a caller that
    /// keeps its nodes elsewhere (the coverage map's sensors) picks the
    /// same victims as [`FailurePlan::victims`] on a network of those
    /// nodes, without building one.
    pub fn draw_ranks(&self, n_alive: usize) -> Option<Vec<usize>> {
        match *self {
            FailurePlan::Iid { q, seed } => {
                assert!((0.0..=1.0).contains(&q), "probability q must be in [0,1]");
                let mut rng = StdRng::seed_from_u64(seed);
                Some((0..n_alive).filter(|_| rng.gen::<f64>() < q).collect())
            }
            FailurePlan::Fraction { frac, seed } => {
                assert!(
                    (0.0..=1.0).contains(&frac),
                    "fraction must be in [0,1], got {frac}"
                );
                let mut rng = StdRng::seed_from_u64(seed);
                let count = (n_alive as f64 * frac).round() as usize;
                let mut pool: Vec<usize> = (0..n_alive).collect();
                pool.shuffle(&mut rng);
                pool.truncate(count);
                pool.sort_unstable();
                Some(pool)
            }
            FailurePlan::Area { .. } => None,
        }
    }

    /// Applies the plan: fails every victim. Returns the victims.
    pub fn apply(&self, net: &mut Network) -> Vec<NodeId> {
        let victims = self.victims(net);
        for &v in &victims {
            net.fail_node(v);
        }
        victims
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};

    fn grid_network(n_side: usize) -> Network {
        let mut net = Network::new(Aabb::square(100.0));
        for i in 0..n_side {
            for j in 0..n_side {
                let p = Point::new(
                    5.0 + 90.0 * i as f64 / (n_side - 1) as f64,
                    5.0 + 90.0 * j as f64 / (n_side - 1) as f64,
                );
                net.add_node(p, 4.0, 8.0);
            }
        }
        net
    }

    #[test]
    fn fraction_kills_exact_count() {
        let mut net = grid_network(10); // 100 nodes
        let plan = FailurePlan::Fraction { frac: 0.3, seed: 1 };
        let victims = plan.apply(&mut net);
        assert_eq!(victims.len(), 30);
        assert_eq!(net.alive_count(), 70);
    }

    #[test]
    fn fraction_zero_and_one() {
        let net = grid_network(5);
        assert!(FailurePlan::Fraction { frac: 0.0, seed: 2 }
            .victims(&net)
            .is_empty());
        assert_eq!(
            FailurePlan::Fraction { frac: 1.0, seed: 2 }
                .victims(&net)
                .len(),
            25
        );
    }

    #[test]
    fn fraction_is_deterministic_in_seed() {
        let net = grid_network(10);
        let a = FailurePlan::Fraction { frac: 0.5, seed: 9 }.victims(&net);
        let b = FailurePlan::Fraction { frac: 0.5, seed: 9 }.victims(&net);
        let c = FailurePlan::Fraction {
            frac: 0.5,
            seed: 10,
        }
        .victims(&net);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn iid_kill_rate_is_statistically_plausible() {
        let net = grid_network(20); // 400 nodes
        let victims = FailurePlan::Iid { q: 0.25, seed: 4 }.victims(&net);
        let rate = victims.len() as f64 / 400.0;
        assert!((0.15..=0.35).contains(&rate), "rate {rate}");
    }

    #[test]
    fn iid_extremes() {
        let net = grid_network(5);
        assert!(FailurePlan::Iid { q: 0.0, seed: 3 }
            .victims(&net)
            .is_empty());
        assert_eq!(FailurePlan::Iid { q: 1.0, seed: 3 }.victims(&net).len(), 25);
    }

    #[test]
    fn area_failure_kills_disc_only() {
        let mut net = grid_network(10);
        let disk = Disk::new(Point::new(50.0, 50.0), 24.0);
        let victims = FailurePlan::Area { disk }.apply(&mut net);
        assert!(!victims.is_empty());
        for &v in &victims {
            assert!(disk.contains(net.node(v).pos));
        }
        for id in net.alive_ids() {
            assert!(!disk.contains(net.node(id).pos));
        }
    }

    #[test]
    fn area_failure_fraction_matches_paper_geometry() {
        // Disc r=24 on a 100x100 field covers ~17-18% of the area; a dense
        // uniform grid should lose roughly that share of nodes (edge
        // effects make it slightly higher for an interior disc).
        let mut net = grid_network(50); // 2500 nodes
        let disk = Disk::new(Point::new(50.0, 50.0), 24.0);
        let victims = FailurePlan::Area { disk }.apply(&mut net);
        let frac = victims.len() as f64 / 2500.0;
        assert!((0.14..=0.24).contains(&frac), "killed fraction {frac}");
    }

    #[test]
    fn victims_do_not_mutate() {
        let net = grid_network(5);
        let _ = FailurePlan::Fraction { frac: 0.5, seed: 1 }.victims(&net);
        assert_eq!(net.alive_count(), 25);
    }

    #[test]
    fn apply_twice_is_idempotent_for_area() {
        let mut net = grid_network(10);
        let disk = Disk::new(Point::new(20.0, 20.0), 15.0);
        let first = FailurePlan::Area { disk }.apply(&mut net);
        let second = FailurePlan::Area { disk }.apply(&mut net);
        assert!(!first.is_empty());
        assert!(second.is_empty(), "no alive nodes left in the disc");
    }

    /// The random draws as they were written over the alive ids, before
    /// they moved to ranks.
    fn draw_over_alive_ids(plan: FailurePlan, net: &Network) -> Vec<NodeId> {
        let alive = net.alive_ids();
        match plan {
            FailurePlan::Iid { q, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                alive.into_iter().filter(|_| rng.gen::<f64>() < q).collect()
            }
            FailurePlan::Fraction { frac, seed } => {
                let mut rng = StdRng::seed_from_u64(seed);
                let count = (alive.len() as f64 * frac).round() as usize;
                let mut pool = alive;
                pool.shuffle(&mut rng);
                let mut victims: Vec<NodeId> = pool.into_iter().take(count).collect();
                victims.sort_unstable();
                victims
            }
            FailurePlan::Area { .. } => unreachable!("random plans only"),
        }
    }

    #[test]
    fn ranks_draw_what_the_alive_ids_drew() {
        let mut net = grid_network(9);
        for id in [0, 7, 8, 20, 35, 36, 37, 80] {
            net.fail_node(id);
        }
        let alive = net.alive_ids();
        for seed in 0..20 {
            for plan in [
                FailurePlan::Iid { q: 0.4, seed },
                FailurePlan::Fraction { frac: 0.3, seed },
                FailurePlan::Fraction { frac: 1.0, seed },
            ] {
                let ranks = plan.draw_ranks(alive.len()).expect("a random plan");
                assert!(ranks.windows(2).all(|w| w[0] < w[1]));
                let via_ranks: Vec<NodeId> = ranks.iter().map(|&r| alive[r]).collect();
                assert_eq!(via_ranks, draw_over_alive_ids(plan, &net), "{plan:?}");
                assert_eq!(plan.victims(&net), via_ranks);
            }
        }
        let disk = Disk::new(Point::new(50.0, 50.0), 10.0);
        assert_eq!(FailurePlan::Area { disk }.draw_ranks(alive.len()), None);
    }

    #[test]
    #[should_panic(expected = "fraction must be in [0,1]")]
    fn invalid_fraction_panics() {
        let net = grid_network(3);
        let _ = FailurePlan::Fraction { frac: 1.5, seed: 0 }.victims(&net);
    }
}
