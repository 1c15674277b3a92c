//! Figure 7 — "Coverage achieved with different number of sensors, for
//! k = 3."
//!
//! For every algorithm we capture the coverage trace (fraction of points
//! 3-covered after each placement) and resample it on a common node-count
//! grid. Expected shape: the centralized greedy rises fastest, the DECOR
//! variants follow closely (Voronoi big-rc nearest), random needs several
//! times more nodes for the same coverage.

use crate::common::{deploy, ExpParams};
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::{SchemeKind, TracePoint};

/// The coverage requirement of the figure.
pub const K: u32 = 3;

/// Coverage value of a trace at `x` total sensors (step lookup: the value
/// after the last placement not exceeding `x`; 0 before the trace starts).
fn trace_at(trace: &[TracePoint], x: usize) -> f64 {
    let mut v = 0.0;
    for t in trace {
        if t.total_sensors <= x {
            v = t.fraction_k_covered;
        } else {
            break;
        }
    }
    v
}

/// X-axis grid: total node counts sampled.
pub fn node_grid(params: &ExpParams) -> Vec<usize> {
    // Paper plots 0..3500 at 2000 points; scale the ceiling with the
    // problem size so quick mode stays meaningful.
    let top = if params.n_points >= 1500 { 3500 } else { 1200 };
    (0..=top).step_by(top / 14).collect()
}

/// Runs the experiment. Columns: number of nodes, then one coverage
/// percentage series per scheme (paper legend order).
pub fn run(params: &ExpParams) -> Table {
    let xs = node_grid(params);
    let mut columns = vec!["nodes".to_owned()];
    columns.extend(SchemeKind::ALL.iter().map(|s| s.label().to_owned()));
    let mut t = Table::new(
        "fig07",
        format!("Percentage of area {K}-covered vs number of nodes"),
        columns,
    );
    // series[scheme][x-index] = mean coverage %.
    let mut series: Vec<Vec<f64>> = Vec::new();
    for &scheme in &SchemeKind::ALL {
        let traces =
            MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0x07, |_, seed| {
                let (_, out, _) = deploy(params, scheme, K, seed);
                out.trace
            });
        let per_x: Vec<f64> = xs
            .iter()
            .map(|&x| {
                mean(
                    &traces
                        .iter()
                        .map(|tr| trace_at(tr, x) * 100.0)
                        .collect::<Vec<_>>(),
                )
            })
            .collect();
        series.push(per_x);
    }
    for (xi, &x) in xs.iter().enumerate() {
        let mut row = vec![x as f64];
        row.extend(series.iter().map(|s| s[xi]));
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_lookup_steps_correctly() {
        let tr = vec![
            TracePoint {
                total_sensors: 10,
                fraction_k_covered: 0.2,
            },
            TracePoint {
                total_sensors: 20,
                fraction_k_covered: 0.5,
            },
            TracePoint {
                total_sensors: 30,
                fraction_k_covered: 1.0,
            },
        ];
        assert_eq!(trace_at(&tr, 5), 0.0);
        assert_eq!(trace_at(&tr, 10), 0.2);
        assert_eq!(trace_at(&tr, 25), 0.5);
        assert_eq!(trace_at(&tr, 99), 1.0);
    }

    #[test]
    fn curves_are_monotone_and_ordered() {
        let params = ExpParams::quick();
        let t = run(&params);
        // Every series is non-decreasing in the node count.
        for s in SchemeKind::ALL {
            let series = t.series(s.label()).unwrap();
            for w in series.windows(2) {
                assert!(w[1] >= w[0] - 1e-9, "{}: {:?}", s.label(), series);
            }
            // Everyone but random (which may need more nodes than the
            // plotted range — exactly what the paper's figure shows) must
            // reach full coverage inside the grid.
            if s != SchemeKind::Random {
                assert_eq!(*series.last().unwrap(), 100.0, "{} must finish", s.label());
            } else {
                assert!(*series.last().unwrap() > 50.0, "random too slow");
            }
        }
        // Centralized dominates random in area under the curve (pointwise
        // dominance can flip at tiny x where both are near zero, because
        // the greedy optimizes total deficit, not the k-covered count).
        let central = t.series("Centralized").unwrap();
        let random = t.series("Random").unwrap();
        let auc = |s: &[f64]| s.iter().sum::<f64>();
        assert!(
            auc(&central) > auc(&random) * 1.2,
            "centralized AUC {} vs random AUC {}",
            auc(&central),
            auc(&random)
        );
    }
}
