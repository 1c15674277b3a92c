//! Sensor node state.

use decor_geom::Point;
use serde::{Deserialize, Serialize};

/// Index of a node within its [`crate::Network`].
pub type NodeId = usize;

/// A static, homogeneous-or-not sensor device (paper §2).
///
/// Each node has a sensing radius `rs` (it covers the disk of radius `rs`
/// around its position) and a communication radius `rc` (it can exchange
/// messages with nodes within `rc`). The paper's only standing assumption
/// is `rs <= rc`, enforced at construction.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Position in the field (GPS-accurate per the paper's assumption).
    pub pos: Point,
    /// Sensing radius.
    pub rs: f64,
    /// Communication radius (`>= rs`).
    pub rc: f64,
    /// False once the node has failed; failed nodes neither sense nor
    /// communicate.
    pub alive: bool,
}

impl Node {
    /// Creates an alive node. Panics unless `0 < rs <= rc`.
    pub fn new(pos: Point, rs: f64, rc: f64) -> Self {
        assert!(
            rs > 0.0 && rs.is_finite(),
            "sensing radius must be positive"
        );
        assert!(
            rc >= rs,
            "the paper's standing assumption is rs <= rc (got rs={rs}, rc={rc})"
        );
        Node {
            pos,
            rs,
            rc,
            alive: true,
        }
    }

    /// Does this (alive) node cover point `p`?
    #[inline]
    pub fn covers(&self, p: Point) -> bool {
        self.alive && self.pos.dist_sq(p) <= self.rs * self.rs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covers_within_rs_only() {
        let n = Node::new(Point::new(10.0, 10.0), 4.0, 8.0);
        assert!(n.covers(Point::new(13.0, 10.0)));
        assert!(n.covers(Point::new(14.0, 10.0))); // boundary
        assert!(!n.covers(Point::new(14.1, 10.0)));
    }

    #[test]
    fn dead_node_does_not_cover() {
        let mut n = Node::new(Point::ORIGIN, 4.0, 8.0);
        n.alive = false;
        assert!(!n.covers(Point::ORIGIN));
    }

    #[test]
    #[should_panic(expected = "rs <= rc")]
    fn rc_smaller_than_rs_panics() {
        let _ = Node::new(Point::ORIGIN, 5.0, 4.0);
    }

    #[test]
    #[should_panic(expected = "sensing radius must be positive")]
    fn zero_rs_panics() {
        let _ = Node::new(Point::ORIGIN, 0.0, 4.0);
    }
}
