//! Extension — failure detection under packet loss.
//!
//! §2.1 concedes that "sensors are also susceptible to packet loss and
//! link failures" but the paper never quantifies what loss does to its
//! heartbeat failure detector (§3.2). This experiment does: deploy a
//! k = 2 field, fail 10% of the sensors, run the detector over media with
//! increasing packet-loss rates, and measure
//!
//! - the **detection rate** (real failures caught),
//! - the **false-alarm count** (alive sensors suspected after
//!   `timeout_periods` consecutive losses),
//! - the **worst detection latency** in heartbeat periods.
//!
//! Expected: detection stays near-perfect (a dead node is silent forever,
//! a lossy link only delays the verdict), latency creeps up, and false
//! alarms grow roughly like `n · loss^timeout` — the knob a deployment
//! tunes with `timeout_periods`.
//!
//! The sweep then *restores* the failed field with the Voronoi scheme over
//! the same lossy medium: placement notices ride the reliable transport
//! (acks, bounded retries), so the restored coverage should stay at 100%
//! while the retry traffic grows with the loss rate — the cost curve of
//! reliability.

use crate::common::ExpParams;
use crate::runner::{aggregate, MatrixRunner};
use crate::scenario::{ScenarioMatrix, ScenarioSpec, Workload};
use crate::table::Table;
use decor_core::SchemeKind;

/// Loss rates swept (percent).
pub const LOSS_PCTS: [u32; 5] = [0, 10, 20, 30, 40];

/// The sweep as a scenario matrix: one failure-probe cell per loss rate,
/// restoring with the small-rc Voronoi scheme over the lossy medium. The
/// probe execution lives in [`crate::scenario::execute_run`];
/// `tests/matrix_differential.rs` pins it against the legacy inline loop.
pub fn matrix(params: &ExpParams) -> ScenarioMatrix {
    let cells = LOSS_PCTS
        .iter()
        .map(|&loss| {
            let mut spec = ScenarioSpec::from_params(params, SchemeKind::VoronoiSmall, 2);
            spec.name = format!("ext-loss-{loss}");
            spec.workload = Workload::FailureProbe;
            spec.loss_pct = loss;
            spec.fail_frac = 0.1;
            spec.base_seed = params.base_seed ^ 0x1055;
            spec
        })
        .collect();
    ScenarioMatrix::new(cells).expect("ext_loss matrix is valid")
}

/// Runs the experiment. Columns: loss %, detection rate %, false alarms,
/// worst latency in periods, restored coverage %, transport retries spent
/// restoring, notices that exhausted their retry budget.
pub fn run(params: &ExpParams) -> Table {
    let mut t = Table::new(
        "ext_loss",
        "Heartbeat failure detection under packet loss (k=2 field, 10% node failures)",
        vec![
            "loss_pct".into(),
            "detection_rate_pct".into(),
            "false_alarms".into(),
            "worst_latency_periods".into(),
            "restore_coverage_pct".into(),
            "restore_retries".into(),
            "restore_gave_up".into(),
        ],
    );
    let m = matrix(params);
    let summaries = aggregate(&m, &MatrixRunner::auto().run(&m));
    for (s, &loss) in summaries.iter().zip(&LOSS_PCTS) {
        let probe = |v: Option<f64>| v.expect("probe cells always carry detection stats");
        t.push_row(vec![
            loss as f64,
            probe(s.mean_detection_rate_pct),
            probe(s.mean_false_alarms),
            probe(s.mean_worst_latency_periods),
            s.mean_coverage_pct,
            s.mean_retries,
            s.mean_gave_up,
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loss_costs_false_alarms_not_detections() {
        let params = ExpParams::quick();
        let t = run(&params);
        let clean = &t.rows[0];
        let lossy = t.rows.last().unwrap();
        // Loss-free: no false alarms, high detection.
        assert_eq!(clean[2], 0.0, "no false alarms without loss: {t:?}");
        assert!(clean[1] > 90.0, "detection rate {:?}", clean[1]);
        // 40% loss: detection holds up, false alarms appear.
        assert!(
            lossy[1] > 85.0,
            "detection must survive loss: {:?}",
            lossy[1]
        );
        assert!(
            lossy[2] > clean[2],
            "false alarms must grow with loss: {t:?}"
        );
        // Latency roughly non-decreasing from clean to lossy (high loss
        // adds false positives whose early verdicts can shave the worst
        // real-victim latency, hence the slack).
        assert!(lossy[3] >= clean[3] - 0.75, "latency shape: {t:?}");
        // Restoration reaches full k-coverage at every loss rate — that is
        // the transport's whole job.
        for row in &t.rows {
            assert_eq!(row[4], 100.0, "restored coverage at loss {}: {t:?}", row[0]);
        }
        // Retry traffic is the price: zero without loss, growing with it.
        assert_eq!(clean[5], 0.0, "no retries without loss: {t:?}");
        assert!(
            lossy[5] > t.rows[1][5],
            "retries must grow with loss: {t:?}"
        );
    }
}
