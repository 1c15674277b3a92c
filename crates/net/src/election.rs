//! Leader election and rotation (paper §3.1).
//!
//! The grid scheme needs one leader per cell. The paper delegates to known
//! in-network algorithms (LEACH-style randomized election \[6\], group
//! management \[11\], mobile ad-hoc election \[12\]) and assumes a *rotation*
//! mechanism spreads the leader's energy burden across the cell. We model
//! the outcome of those protocols, not their packet exchanges: a
//! round-robin rotation over the alive members.

use crate::network::Network;
use crate::node::NodeId;

/// Round-robin rotation: the leader for rotation round `round`.
///
/// Members are considered in sorted order so the schedule is independent
/// of the caller's ordering; every member leads once per `members.len()`
/// rounds, which is what equalizes per-node message load in Fig. 10's
/// "with rotation" numbers. Returns `None` for an empty member set (an
/// empty cell has no leader; the paper's fallback is a neighboring cell
/// deploying one, handled by the grid scheme).
pub fn rotation_leader(members: &[NodeId], round: u64) -> Option<NodeId> {
    rotation_leader_in(members, round, &mut Vec::new())
}

/// [`rotation_leader`] with a caller-owned sort buffer, so round loops
/// that elect once per cell per round stay off the allocator. Same
/// result for any (even dirty) buffer — it is cleared first.
pub fn rotation_leader_in(members: &[NodeId], round: u64, buf: &mut Vec<NodeId>) -> Option<NodeId> {
    if members.is_empty() {
        return None;
    }
    buf.clear();
    buf.extend_from_slice(members);
    buf.sort_unstable();
    buf.dedup();
    Some(buf[(round % buf.len() as u64) as usize])
}

/// The members of a cell that are alive on `net`, in the original order.
///
/// Elections must never consider a dead node: a crashed leader stays in
/// the cell's static member list (cells are geometric), so callers filter
/// through this before every [`rotation_leader`] call.
pub fn alive_members(members: &[NodeId], net: &Network) -> Vec<NodeId> {
    members
        .iter()
        .copied()
        .filter(|&m| net.is_alive(m))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};

    /// A 4-member cell on a shared medium: ids 0..4 in mutual range.
    fn cell_net() -> (Network, Vec<NodeId>) {
        let mut net = Network::new(Aabb::square(100.0));
        let members: Vec<NodeId> = (0..4)
            .map(|i| net.add_node(Point::new(10.0 + 2.0 * i as f64, 10.0), 4.0, 8.0))
            .collect();
        (net, members)
    }

    #[test]
    fn empty_cell_has_no_leader() {
        assert_eq!(rotation_leader(&[], 0), None);
    }

    #[test]
    fn rotation_cycles_through_all_members() {
        let members = vec![9, 2, 5];
        let schedule: Vec<NodeId> = (0..6)
            .map(|r| rotation_leader(&members, r).unwrap())
            .collect();
        assert_eq!(schedule, vec![2, 5, 9, 2, 5, 9]);
    }

    #[test]
    fn rotation_is_order_independent() {
        let a = rotation_leader(&[4, 1, 8], 1);
        let b = rotation_leader(&[8, 4, 1], 1);
        assert_eq!(a, b);
    }

    #[test]
    fn rotation_fairness_over_full_cycle() {
        let members = vec![10, 20, 30, 40];
        let mut counts = std::collections::BTreeMap::new();
        for r in 0..400 {
            *counts
                .entry(rotation_leader(&members, r).unwrap())
                .or_insert(0) += 1;
        }
        for (_, c) in counts {
            assert_eq!(c, 100);
        }
    }

    #[test]
    fn rotation_dedups_members() {
        assert_eq!(rotation_leader(&[5, 5, 5], 2), Some(5));
        assert_eq!(rotation_leader(&[2, 2, 7], 1), Some(7));
    }

    #[test]
    fn singleton_cell_always_leads() {
        for r in 0..5 {
            assert_eq!(rotation_leader(&[42], r), Some(42));
        }
    }

    #[test]
    fn dead_members_never_lead() {
        let (mut net, members) = cell_net();
        net.fail_node(0);
        net.fail_node(2);
        for round in 0..8 {
            let alive = alive_members(&members, &net);
            assert_eq!(alive, vec![1, 3]);
            let leader = rotation_leader(&alive, round).unwrap();
            assert!(
                net.is_alive(leader),
                "round {round} elected dead node {leader}"
            );
        }
    }
}
