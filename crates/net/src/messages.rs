//! The protocol vocabulary exchanged by DECOR nodes.
//!
//! The reproduction counts and costs these messages (Fig. 10 reports
//! messages per cell as the energy proxy); their payload sizes feed the
//! energy model. Message *semantics* live with the schemes in `decor-core`
//! and the detector in [`crate::detect`].

use crate::node::NodeId;
use decor_geom::Point;
use serde::{Deserialize, Serialize};

/// A protocol message.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum Message {
    /// Periodic position/liveness meta-information (§3.2: exchanged with
    /// period `Tc`; silence reveals failure).
    Heartbeat {
        /// Sender's position, repeated each period per the paper.
        pos: Point,
    },
    /// Neighbor discovery hello.
    Hello {
        /// Sender's position.
        pos: Point,
    },
    /// A leader (grid scheme) or node (Voronoi scheme) announces that a new
    /// sensor was deployed at `pos` — sent to neighbors whose cells the new
    /// sensor's coverage overlaps, so they do not over-cover their borders
    /// (§3.3).
    PlacementNotice {
        /// Where the new sensor was placed.
        pos: Point,
    },
    /// A leader forwards its placement decisions towards the base station.
    Report {
        /// Number of placements carried in this report.
        placements: u32,
    },
    /// The rotation coordinator assigns `node` to sleep shift `shift`
    /// (see [`crate::rotation`]). Relayed hop-by-hop over the reliable
    /// transport during shift agreement; rides the protocol plane.
    ShiftAssign {
        /// The node being assigned.
        node: NodeId,
        /// Its shift index in the agreed rotation.
        shift: u32,
    },
    /// Link-layer acknowledgement of a reliably-sent message (see
    /// [`crate::transport`]). Carries the per-link sequence number being
    /// acknowledged. Acks are classified on the *protocol* plane: in this
    /// codebase the reliable transport only carries restoration-protocol
    /// traffic (placement notices), so its repair overhead belongs to the
    /// Fig. 10 proxy; [`crate::NetStats::acks_sent`] isolates them.
    Ack {
        /// Sequence number of the message being acknowledged.
        seq: u64,
    },
}

impl Message {
    /// Approximate payload size in bytes, used by the energy model.
    ///
    /// Sizes follow a mote-class packet layout: 8 bytes per coordinate
    /// pair, 4 bytes per id/counter, 1 byte tag.
    pub fn payload_bytes(&self) -> u32 {
        match self {
            Message::Heartbeat { .. } | Message::Hello { .. } | Message::PlacementNotice { .. } => {
                1 + 16
            }
            Message::Report { .. } => 1 + 4,
            Message::ShiftAssign { .. } => 1 + 4 + 4,
            Message::Ack { .. } => 1 + 4,
        }
    }

    /// Stable short label of the variant, used as the `msg` field of trace
    /// events ([`decor_trace::TraceEvent`]).
    pub fn kind(&self) -> &'static str {
        match self {
            Message::Heartbeat { .. } => "heartbeat",
            Message::Hello { .. } => "hello",
            Message::PlacementNotice { .. } => "notice",
            Message::Report { .. } => "report",
            Message::ShiftAssign { .. } => "shift",
            Message::Ack { .. } => "ack",
        }
    }

    /// True for messages belonging to the background maintenance plane
    /// (heartbeats, hellos) as opposed to the restoration protocol itself.
    ///
    /// Fig. 10 counts protocol messages; maintenance traffic is constant
    /// background load and reported separately.
    pub fn is_maintenance(&self) -> bool {
        matches!(self, Message::Heartbeat { .. } | Message::Hello { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payload_sizes_are_positive_and_stable() {
        let msgs = [
            Message::Heartbeat { pos: Point::ORIGIN },
            Message::Hello { pos: Point::ORIGIN },
            Message::PlacementNotice { pos: Point::ORIGIN },
            Message::Report { placements: 5 },
            Message::ShiftAssign { node: 4, shift: 1 },
            Message::Ack { seq: 17 },
        ];
        for m in msgs {
            assert!(m.payload_bytes() > 0, "{m:?}");
        }
        assert_eq!(Message::Report { placements: 5 }.payload_bytes(), 5);
        assert_eq!(
            Message::ShiftAssign { node: 4, shift: 1 }.payload_bytes(),
            9
        );
    }

    #[test]
    fn maintenance_classification() {
        assert!(Message::Heartbeat { pos: Point::ORIGIN }.is_maintenance());
        assert!(Message::Hello { pos: Point::ORIGIN }.is_maintenance());
        assert!(!Message::PlacementNotice { pos: Point::ORIGIN }.is_maintenance());
        assert!(!Message::Report { placements: 0 }.is_maintenance());
        assert!(!Message::ShiftAssign { node: 0, shift: 0 }.is_maintenance());
        assert!(!Message::Ack { seq: 0 }.is_maintenance());
    }
}
