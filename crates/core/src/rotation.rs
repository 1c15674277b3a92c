//! Distributed shift agreement for set-k-cover rotation.
//!
//! `decor_net::SleepScheduler` answers *what* the shifts should be;
//! `decor_net::rotation::ShiftSchedule` represents the agreed answer. This
//! module supplies the missing middle: how a deployment *agrees* on that
//! answer in-network, reusing the machinery the restoration pipeline
//! already has —
//!
//! 1. a coordinator is elected by round-robin rotation over the alive
//!    nodes ([`decor_net::rotation_leader`], keyed by the agreement
//!    epoch so the role migrates across re-agreements);
//! 2. every other node reports in with one `Hello` broadcast (unreliable,
//!    charged — position reports aggregate up the BFS tree below, and
//!    this round is the price of that knowledge);
//! 3. the coordinator computes the canonical partition (the *same*
//!    deterministic greedy every node would compute from the same
//!    knowledge — see the convergence note below) and disseminates one
//!    [`decor_net::Message::ShiftAssign`] per member over the reliable
//!    transport along a BFS spanning tree rooted at the coordinator —
//!    each member learns its shift across its single tree edge, so the
//!    per-node agreement cost is O(degree), not O(network diameter), and
//!    no relay hotspot forms around the coordinator;
//! 4. a [`crate::NeighborKnowledge`] ledger tracks who provably has
//!    *not* been told their shift yet; nodes still blind when the retry
//!    budget exhausts fall back to computing the canonical partition
//!    locally (it is a pure function of the shared neighbor knowledge,
//!    so the fallback lands on the same answer — the ledger records how
//!    often the network had to lean on that crutch).
//!
//! Because step 3's partition is exactly
//! [`decor_net::SleepScheduler::shifts`], the agreed schedule is
//! bit-identical to the centralized output — the differential tests pin
//! this, across worker-thread counts and loss rates.

use decor_net::election::alive_members;
use decor_net::{
    rotation_leader, Message, Network, NodeId, RotationConfig, ShiftSchedule, SleepScheduler,
    Transport,
};

use crate::config::LinkConfig;
use crate::knowledge::NeighborKnowledge;

/// How many dissemination rounds the coordinator retries before letting
/// still-blind nodes fall back to local computation. Each round already
/// rides the transport's own ack/retry machinery, so this bounds *path
/// re-tries* (e.g. after a relay died mid-round), not per-link attempts.
const MAX_ROUNDS: u32 = 4;

/// Outcome of one in-network shift agreement.
#[derive(Clone, Debug)]
pub struct ShiftAgreement {
    /// The agreed schedule — bit-identical to the centralized
    /// [`decor_net::SleepScheduler::shifts`] partition.
    pub schedule: ShiftSchedule,
    /// The elected coordinator, `None` when nobody is alive.
    pub coordinator: Option<NodeId>,
    /// Dissemination rounds actually used (0 when there was nothing to
    /// disseminate: degenerate schedule or empty network).
    pub rounds: u32,
    /// `ShiftAssign` messages handed to the reliable transport, across
    /// all hops and rounds.
    pub assignments_sent: u64,
    /// Members the coordinator could not reach within the retry budget;
    /// they fell back to computing the canonical partition locally.
    pub gave_up: usize,
}

/// Runs one shift-agreement epoch on `net`, charging all agreement
/// traffic to the network's energy accounting.
///
/// The returned schedule's period comes from `rot.period`; its membership
/// is the canonical set-k-cover partition of the currently-alive nodes
/// over `n_points` points, where `rows[id]` lists the points node `id`
/// covers (one row per node of `net`, as `run_endurance` keeps them).
/// When no feasible partition exists (some point's alive coverers fall
/// below `rot.target_coverage`) the schedule is empty — always-on — and
/// nothing is disseminated.
pub fn agree_shifts(
    net: &mut Network,
    rows: &[Box<[u32]>],
    n_points: usize,
    rot: &RotationConfig,
    link: &LinkConfig,
    epoch: u64,
) -> ShiftAgreement {
    rot.validate();
    let all: Vec<NodeId> = (0..net.len()).collect();
    let alive = alive_members(&all, net);
    let coordinator = rotation_leader(&alive, epoch);

    let shifts =
        SleepScheduler::new(rot.target_coverage).shifts(rows, |id| net.is_alive(id), n_points);
    let schedule = ShiftSchedule::new(shifts, rot.period, net.len());

    let mut agreement = ShiftAgreement {
        schedule,
        coordinator,
        rounds: 0,
        assignments_sent: 0,
        gave_up: 0,
    };
    let Some(coord) = coordinator else {
        return agreement;
    };
    if agreement.schedule.n_shifts() <= 1 {
        // Nothing to agree on: everyone stays awake either way.
        return agreement;
    }

    // Gather: one hello broadcast per member (position reports aggregate
    // up the tree; the partition is computed from the caller's coverage
    // rows, this round charges the traffic that makes the coordinator's
    // knowledge plausible).
    let mut heard = Vec::new();
    for &id in &alive {
        if id != coord {
            let pos = net.node(id).pos;
            net.broadcast_into(id, Message::Hello { pos }, &mut heard);
        }
    }

    // BFS spanning tree rooted at the coordinator: each member's single
    // tree edge is the reliable-transport hop its assignment rides.
    let mut parent: Vec<Option<NodeId>> = vec![None; net.len()];
    let mut seen = vec![false; net.len()];
    seen[coord] = true;
    let mut order = vec![coord];
    let mut qi = 0;
    let mut nbs = Vec::new();
    while qi < order.len() {
        let u = order[qi];
        qi += 1;
        net.neighbors_into(u, &mut nbs);
        for &v in &nbs {
            if !seen[v] {
                seen[v] = true;
                parent[v] = Some(u);
                order.push(v);
            }
        }
    }

    // Dissemination: the ledger starts with every non-coordinator member
    // blind and clears as the transport's acks confirm delivery over the
    // member's tree edge. Unreachable members (no tree edge) stay blind
    // and fall back to local computation.
    let mut ledger = NeighborKnowledge::new();
    let epoch_key = epoch as usize;
    for shift in agreement.schedule.shifts() {
        for &id in shift {
            if id != coord && net.is_alive(id) {
                ledger.hide(id, epoch_key);
            }
        }
    }

    let mut transport = Transport::new(link.transport());
    let mut outcomes = Vec::new();
    while !ledger.is_empty() && agreement.rounds < MAX_ROUNDS {
        agreement.rounds += 1;
        let blind: Vec<NodeId> = (0..net.len())
            .filter(|&id| !ledger.knows(id, epoch_key))
            .collect();
        let mut in_flight: Vec<(NodeId, decor_net::MsgId)> = Vec::new();
        for id in blind {
            let Some(si) = agreement.schedule.shift_of(id) else {
                ledger.reveal(id, epoch_key);
                continue;
            };
            if !net.is_alive(id) {
                // A member that died between partition and dissemination
                // has no radio to tell; it stops being our problem.
                ledger.reveal(id, epoch_key);
                continue;
            }
            let Some(from) = parent[id] else {
                continue; // outside the tree: unreachable, stays blind
            };
            let msg = Message::ShiftAssign {
                node: id,
                shift: si as u32,
            };
            in_flight.push((id, transport.send(from, id, msg)));
            agreement.assignments_sent += 1;
        }
        transport.flush_into(net, &mut outcomes);
        // Message ids are unique, so a sorted slice answers the lookups.
        outcomes.sort_unstable_by_key(|&(mid, _)| mid);
        for (id, mid) in in_flight {
            let delivered = outcomes
                .binary_search_by_key(&mid, |&(m, _)| m)
                .is_ok_and(|ix| outcomes[ix].1.is_delivered());
            if delivered {
                ledger.reveal(id, epoch_key);
            }
        }
    }
    agreement.gave_up = ledger.blind_spots();
    agreement
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};

    /// A 4x4 lattice where every lattice point is covered by several
    /// sensors: rs 6 on spacing 4 gives deep overlap, rc 8 keeps the
    /// comm graph connected. The rows are `Node::covers`' verdicts.
    fn lattice_net() -> (Network, Vec<Box<[u32]>>, usize) {
        let mut net = Network::new(Aabb::square(20.0));
        let mut points = Vec::new();
        for i in 0..4 {
            for j in 0..4 {
                let p = Point::new(4.0 + 4.0 * i as f64, 4.0 + 4.0 * j as f64);
                net.add_node(p, 6.0, 8.0);
                points.push(p);
            }
        }
        let rows = (0..net.len())
            .map(|id| {
                (0..points.len() as u32)
                    .filter(|&pi| net.node(id).covers(points[pi as usize]))
                    .collect()
            })
            .collect();
        (net, rows, points.len())
    }

    fn centralized(net: &Network, rows: &[Box<[u32]>], n_points: usize) -> Vec<Vec<NodeId>> {
        SleepScheduler::new(1).shifts(rows, |id| net.is_alive(id), n_points)
    }

    fn rot() -> RotationConfig {
        RotationConfig::default()
    }

    #[test]
    fn agreed_schedule_matches_centralized_partition() {
        let (mut net, rows, n) = lattice_net();
        let expected = centralized(&net, &rows, n);
        let agreement = agree_shifts(&mut net, &rows, n, &rot(), &LinkConfig::default(), 0);
        assert_eq!(agreement.schedule.shifts(), &expected[..]);
        assert!(agreement.schedule.n_shifts() > 1, "lattice must split");
    }

    #[test]
    fn lossless_agreement_reaches_everyone_in_one_round() {
        let (mut net, rows, n) = lattice_net();
        let agreement = agree_shifts(&mut net, &rows, n, &rot(), &LinkConfig::default(), 0);
        assert_eq!(agreement.rounds, 1);
        assert_eq!(agreement.gave_up, 0);
        assert!(agreement.assignments_sent >= 15, "one per member at least");
    }

    #[test]
    fn agreement_charges_the_network() {
        let (mut net, rows, n) = lattice_net();
        let agreement = agree_shifts(&mut net, &rows, n, &rot(), &LinkConfig::default(), 0);
        assert!(agreement.schedule.n_shifts() > 1);
        assert!(net.stats.total_sent > 0, "agreement traffic must be paid");
        assert!(net.stats.protocol_sent > 0, "ShiftAssign is protocol plane");
    }

    #[test]
    fn coordinator_rotates_with_the_epoch() {
        let (mut net, rows, n) = lattice_net();
        let a = agree_shifts(&mut net, &rows, n, &rot(), &LinkConfig::default(), 0);
        let b = agree_shifts(&mut net, &rows, n, &rot(), &LinkConfig::default(), 1);
        assert_ne!(a.coordinator, b.coordinator, "the role must migrate");
    }

    #[test]
    fn lossy_agreement_still_lands_on_the_canonical_schedule() {
        let (mut net, rows, n) = lattice_net();
        let expected = centralized(&net, &rows, n);
        let link = LinkConfig::lossy(0.2, 42);
        link.apply(&mut net);
        let agreement = agree_shifts(&mut net, &rows, n, &rot(), &link, 0);
        assert_eq!(
            agreement.schedule.shifts(),
            &expected[..],
            "loss may cost retries, never a different schedule"
        );
    }

    #[test]
    fn infeasible_target_yields_always_on_without_traffic() {
        let mut net = Network::new(Aabb::square(20.0));
        net.add_node(Point::new(10.0, 10.0), 6.0, 8.0);
        let rows: Vec<Box<[u32]>> = vec![Box::new([0])];
        let hungry = RotationConfig {
            target_coverage: 5,
            ..rot()
        };
        let agreement = agree_shifts(&mut net, &rows, 1, &hungry, &LinkConfig::default(), 0);
        assert_eq!(agreement.schedule.n_shifts(), 0, "always-on fallback");
        assert_eq!(agreement.rounds, 0);
        assert_eq!(net.stats.total_sent, 0, "nothing to say, nothing sent");
    }

    #[test]
    fn empty_network_agrees_on_nothing() {
        let mut net = Network::new(Aabb::square(20.0));
        let agreement = agree_shifts(&mut net, &[], 0, &rot(), &LinkConfig::default(), 0);
        assert_eq!(agreement.coordinator, None);
        assert_eq!(agreement.schedule.n_shifts(), 0);
    }

    #[test]
    fn dead_members_are_not_chased() {
        let (mut net, rows, n) = lattice_net();
        // Partition computed over alive nodes only; kill one first.
        net.fail_node(5);
        let agreement = agree_shifts(&mut net, &rows, n, &rot(), &LinkConfig::default(), 0);
        assert_eq!(agreement.gave_up, 0);
        assert_eq!(agreement.schedule.shift_of(5), None, "corpses unscheduled");
    }
}
