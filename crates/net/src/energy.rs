//! A first-order radio energy model.
//!
//! The paper uses "number of messages sent" as its energy proxy (Fig. 10).
//! This model refines that just enough to be meaningful: transmitting costs
//! a per-message overhead plus a per-byte cost scaled by the square of the
//! transmission range (free-space path loss, as in the LEACH line of work
//! the paper cites for leader election), and receiving costs electronics
//! energy per byte.

use serde::{Deserialize, Serialize};

/// Energy model parameters. Units are abstract "energy units"; defaults
/// follow the classic first-order model ratios (50 nJ/bit electronics,
/// 100 pJ/bit/m² amplifier) with bytes instead of bits.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Electronics cost per byte, paid by both sender and receiver.
    pub elec_per_byte: f64,
    /// Amplifier cost per byte per (distance unit)², paid by the sender.
    pub amp_per_byte_d2: f64,
    /// Fixed per-message overhead (synchronization, headers), sender side.
    pub tx_overhead: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        EnergyModel {
            elec_per_byte: 0.4,
            amp_per_byte_d2: 0.0008,
            tx_overhead: 1.0,
        }
    }
}

impl EnergyModel {
    /// Energy the sender spends to transmit `bytes` over distance `d`.
    pub fn tx_cost(&self, bytes: u32, d: f64) -> f64 {
        self.tx_overhead + bytes as f64 * (self.elec_per_byte + self.amp_per_byte_d2 * d * d)
    }

    /// Energy a receiver spends on `bytes`.
    pub fn rx_cost(&self, bytes: u32) -> f64 {
        bytes as f64 * self.elec_per_byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_grows_with_distance_and_size() {
        let m = EnergyModel::default();
        assert!(m.tx_cost(16, 8.0) > m.tx_cost(16, 4.0));
        assert!(m.tx_cost(32, 4.0) > m.tx_cost(16, 4.0));
    }

    #[test]
    fn rx_is_linear_in_bytes() {
        let m = EnergyModel::default();
        assert_eq!(m.rx_cost(0), 0.0);
        assert!((m.rx_cost(20) - 2.0 * m.rx_cost(10)).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_message_still_costs_overhead() {
        let m = EnergyModel::default();
        assert_eq!(m.tx_cost(0, 5.0), m.tx_overhead);
    }

    #[test]
    fn doubling_range_quadruples_amp_term() {
        let m = EnergyModel {
            elec_per_byte: 0.0,
            amp_per_byte_d2: 1.0,
            tx_overhead: 0.0,
        };
        assert!((m.tx_cost(1, 8.0) - 4.0 * m.tx_cost(1, 4.0)).abs() < 1e-12);
    }
}
