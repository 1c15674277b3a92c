//! Replica seeds and worker counts for parallel experiments.
//!
//! The paper averages every figure over 5 random fields. The replicas run
//! on the experiment executor (`decor_exp::MatrixRunner`); this module
//! holds what that executor and the benchmark share with it:
//! [`replica_seed`], the deterministic splitmix64 per-replica seed that
//! makes sequential and parallel execution produce identical results, and
//! [`default_threads`], the `DECOR_THREADS`-aware worker count.

use decor_lds::vdc::splitmix64;

/// Derives the seed for replica `i` from a base seed.
///
/// Mixing (rather than `base + i`) keeps replica RNG streams statistically
/// independent even for adjacent indices.
pub fn replica_seed(base: u64, i: usize) -> u64 {
    splitmix64(base ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// Parses a `DECOR_THREADS`-style override: a positive integer, with
/// surrounding whitespace tolerated. Anything else (empty, `0`, garbage)
/// is rejected so a typo falls back to the hardware default instead of
/// silently serializing the run.
pub fn parse_thread_override(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The worker count the experiment executor uses by default: the
/// `DECOR_THREADS` environment override when set to a positive integer,
/// else the hardware parallelism. Bench boxes and CI runners pin worker
/// counts with the env var; because every replica is deterministic in its
/// inputs, the setting can only change wall time, never results.
pub fn default_threads() -> usize {
    std::env::var("DECOR_THREADS")
        .ok()
        .and_then(|v| parse_thread_override(&v))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_seeds_are_distinct_and_stable() {
        let s: Vec<u64> = (0..16).map(|i| replica_seed(42, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
        assert_eq!(replica_seed(42, 3), s[3]);
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 16 "), Some(16));
        assert_eq!(parse_thread_override("0"), None, "zero workers is absurd");
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("four"), None);
        assert_eq!(parse_thread_override("-2"), None);
        assert!(default_threads() >= 1);
    }
}
