//! Extension experiment — network lifetime vs k (the paper's motivation
//! #3, not evaluated in its §4).
//!
//! "When k nodes are covering a point, we have the option of putting some
//! of them to sleep ... k-coverage leads to significant energy savings
//! and increases the lifetime for the network." We quantify that with the
//! full endurance loop ([`decor_core::run_endurance`]): deploy for k,
//! agree on disjoint 1-covering shifts in-network, duty-cycle them on the
//! transport clock with real heartbeat traffic and per-message energy
//! accounting, and measure *lifetime to first unrecoverable coverage
//! loss* against the always-on baseline. Expectation: the extension
//! factor tracks k (each extra layer of coverage becomes another shift).

use crate::common::ExpParams;
use crate::ext_endurance::both_arms;
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::EnduranceConfig;

/// The k values swept.
pub const KS: [u32; 5] = [1, 2, 3, 4, 5];

/// Horizon cap: a healthy rotation at the largest k dies well before
/// this many periods under the default battery.
pub const MAX_PERIODS: u64 = 5_000;

/// One replica of the lifetime study at coverage requirement `k`:
/// returns (shifts, rotating lifetime, always-on lifetime, extension).
pub fn lifetime_sample(params: &ExpParams, k: u32, seed: u64) -> (f64, f64, f64, f64) {
    let e = EnduranceConfig {
        max_periods: MAX_PERIODS,
        ..EnduranceConfig::default()
    };
    let (on, rotated) = both_arms(params, k, seed, None, &e);
    (
        rotated.shifts as f64,
        rotated.lifetime_periods as f64,
        on.lifetime_periods as f64,
        rotated.extension_over(&on),
    )
}

/// Runs the experiment with the centralized deployment (the endurance
/// loop is scheme-agnostic; centralized gives the tightest deployments,
/// making the lifetime gain a conservative estimate). Columns: k, shifts
/// agreed, rotating lifetime, always-on lifetime, extension factor.
pub fn run(params: &ExpParams) -> Table {
    let mut t = Table::new(
        "ext_lifetime",
        "Lifetime to first unrecoverable coverage loss: rotation vs always-on",
        vec![
            "k".into(),
            "shifts".into(),
            "periods_rotating".into(),
            "periods_always_on".into(),
            "extension_factor".into(),
        ],
    );
    for &k in &KS {
        let results =
            MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0x51EE9, |_, seed| {
                lifetime_sample(params, k, seed)
            });
        t.push_row(vec![
            k as f64,
            mean(&results.iter().map(|r| r.0).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.1).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.2).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.3).collect::<Vec<_>>()),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifetime_extension_grows_with_k() {
        let params = ExpParams::quick();
        let factor = |k: u32| {
            let results =
                MatrixRunner::auto().replicas(params.seeds, params.base_seed, |_, seed| {
                    lifetime_sample(&params, k, seed).3
                });
            mean(&results)
        };
        let f1 = factor(1);
        let f3 = factor(3);
        assert!(
            f3 > f1 + 0.5,
            "k=3 extension ({f3:.2}x) must clearly beat k=1 ({f1:.2}x)"
        );
        assert!(
            f3 >= 2.0,
            "k=3 should at least double lifetime, got {f3:.2}x"
        );
    }

    #[test]
    fn both_arms_die_inside_the_horizon() {
        let params = ExpParams::quick();
        let (shifts, rot, on, ext) = lifetime_sample(&params, 3, params.base_seed);
        assert!(shifts > 1.0, "k=3 must split into shifts, got {shifts}");
        assert!(on < MAX_PERIODS as f64, "baseline must actually die");
        assert!(rot < MAX_PERIODS as f64, "rotation must actually die");
        assert!(ext > 1.0, "rotation must outlive always-on");
    }
}
