//! Result records produced by placement algorithms.

use decor_geom::Point;
use serde::{Deserialize, Serialize};

/// One sample of the coverage-vs-nodes curve (Fig. 7).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct TracePoint {
    /// Total sensors active in the map after this step (initial + placed).
    pub total_sensors: usize,
    /// Fraction of approximation points covered at least `k` times.
    pub fraction_k_covered: f64,
}

/// Message accounting for a distributed run (Fig. 10).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MessageStats {
    /// Restoration-protocol messages sent in total.
    pub protocol_total: u64,
    /// Number of cells the scheme partitioned the field into (grid: fixed
    /// cells; Voronoi: one cell per participating node).
    pub cells: usize,
    /// Protocol messages per cell — the y-axis of Fig. 10.
    pub per_cell: f64,
    /// Protocol messages per node when leadership rotates within each cell
    /// (grid scheme; equals `per_cell` for Voronoi where every node is its
    /// own cell).
    pub per_node_rotated: f64,
    /// Retransmissions performed by the reliable transport (counted inside
    /// `protocol_total` too — a retry burns the same air time).
    pub retries: u64,
    /// Link-layer acknowledgements (also inside `protocol_total`).
    pub acks: u64,
    /// Placement notices whose retry budget ran out — each one is a
    /// potential border blind spot at the recipient.
    pub notices_gave_up: u64,
    /// Data frames that arrived more than once and were suppressed at the
    /// receiver (lost-ack retransmissions).
    pub duplicates_suppressed: u64,
}

/// Everything a [`crate::Placer`] reports about a run.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct PlacementOutcome {
    /// Positions of newly placed sensors, in placement order.
    pub placed: Vec<Point>,
    /// Sensors active in the map before the run.
    pub initial_sensors: usize,
    /// Synchronous rounds executed (0 for the sequential baselines).
    pub rounds: usize,
    /// Coverage trace sampled after every placement (baselines) or every
    /// round (distributed schemes). Always ends with the final state.
    pub trace: Vec<TracePoint>,
    /// Did the run achieve full k-coverage (vs hitting `max_new_nodes`)?
    pub fully_covered: bool,
    /// Message accounting (zeroed for the centralized/random baselines,
    /// which exchange no in-network messages).
    pub messages: MessageStats,
}

impl PlacementOutcome {
    /// Total sensors after the run (initial + placed).
    pub fn total_sensors(&self) -> usize {
        self.initial_sensors + self.placed.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_counts_initial_and_placed() {
        let o = PlacementOutcome {
            placed: vec![Point::ORIGIN; 7],
            initial_sensors: 5,
            ..PlacementOutcome::default()
        };
        assert_eq!(o.total_sensors(), 12);
    }

    #[test]
    fn default_outcome_is_empty() {
        let o = PlacementOutcome::default();
        assert_eq!(o.total_sensors(), 0);
        assert!(!o.fully_covered);
        assert_eq!(o.messages.protocol_total, 0);
    }
}
