//! A first-order radio energy model.
//!
//! The paper uses "number of messages sent" as its energy proxy (Fig. 10).
//! This model refines that just enough to be meaningful: transmitting costs
//! a per-message overhead plus a per-byte cost scaled by the square of the
//! transmission range (free-space path loss, as in the LEACH line of work
//! the paper cites for leader election), and receiving costs electronics
//! energy per byte.
//!
//! Units are abstract "energy units"; the values follow the classic
//! first-order model ratios (50 nJ/bit electronics, 100 pJ/bit/m²
//! amplifier) with bytes instead of bits. Every battery in the endurance
//! loop is spent in these units, so a changed value moves battery deaths.

/// Electronics cost per byte, paid by both sender and receiver.
const ELEC_PER_BYTE: f64 = 0.4;
/// Amplifier cost per byte per (distance unit)², paid by the sender.
const AMP_PER_BYTE_D2: f64 = 0.0008;
/// Fixed per-message overhead (synchronization, headers), sender side.
const TX_OVERHEAD: f64 = 1.0;

/// Energy the sender spends to transmit `bytes` over distance `d`.
pub(crate) fn tx_cost(bytes: u32, d: f64) -> f64 {
    TX_OVERHEAD + bytes as f64 * (ELEC_PER_BYTE + AMP_PER_BYTE_D2 * d * d)
}

/// Energy a receiver spends on `bytes`.
pub(crate) fn rx_cost(bytes: u32) -> f64 {
    bytes as f64 * ELEC_PER_BYTE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_grows_with_distance_and_size() {
        assert!(tx_cost(16, 8.0) > tx_cost(16, 4.0));
        assert!(tx_cost(32, 4.0) > tx_cost(16, 4.0));
    }

    #[test]
    fn rx_is_linear_in_bytes() {
        assert_eq!(rx_cost(0), 0.0);
        assert!((rx_cost(20) - 2.0 * rx_cost(10)).abs() < 1e-12);
    }

    #[test]
    fn zero_byte_message_still_costs_overhead() {
        assert_eq!(tx_cost(0, 5.0), TX_OVERHEAD);
    }

    #[test]
    fn doubling_range_quadruples_amp_term() {
        // The overhead and electronics terms do not depend on range, so
        // they cancel against a zero-range send.
        let amp = |d: f64| tx_cost(1, d) - tx_cost(1, 0.0);
        assert!((amp(8.0) - 4.0 * amp(4.0)).abs() < 1e-12);
        assert!(amp(4.0) > 0.0);
    }
}
