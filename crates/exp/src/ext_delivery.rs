//! Extension — field observability through failure and restoration.
//!
//! §1 motivates restoration with data loss: "the data (e.g., sensors'
//! reports) may become stale or get lost". Raw report delivery among
//! *surviving* sensors turns out to be a weak metric: after the §4.2
//! disaster the survivors form a connected ring around the hole and
//! deliver 100% of their own reports — the lost data is the hole itself.
//! The meaningful measure is **observability**: the fraction of field
//! points whose readings reach the base station, i.e. points covered by
//! at least one alive sensor that has a multi-hop route to the sink.
//!
//! Per k: deploy with a DECOR scheme, measure observability, apply the
//! disaster disc, measure again, restore with the same scheme, measure a
//! third time. Expected: 100% → ≈ (100 − disc share)% → 100%.

use crate::common::{deploy, ExpParams};
use crate::fig05_06::disaster_disk;
use crate::runner::MatrixRunner;
use crate::stats::mean;
use crate::table::Table;
use decor_core::{CoverageMap, DeploymentConfig, SchemeKind};
use decor_geom::Point;
use decor_net::{collect_reports, sink_near, FailurePlan, Network};
use std::collections::VecDeque;

/// The k values swept.
pub const KS: [u32; 3] = [1, 3, 5];

/// Fraction of approximation points covered by at least one alive sensor
/// that can route (multi-hop) to the sink nearest the origin corner.
/// Also returns the mean hop count of one full report round (data-plane
/// cost).
pub fn observability_of(map: &CoverageMap, cfg: &DeploymentConfig) -> (f64, f64) {
    let sensors = map.active_sensors();
    if sensors.is_empty() {
        return (0.0, 0.0);
    }
    let mut net = Network::new(*map.field());
    for &(_, pos) in &sensors {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    let sink = sink_near(&net, Point::new(0.0, 0.0)).expect("non-empty");
    // Reachable set: BFS from the sink over the alive graph.
    let mut reachable = vec![false; net.len()];
    reachable[sink] = true;
    let mut queue = VecDeque::from([sink]);
    while let Some(u) = queue.pop_front() {
        for v in net.neighbors_of(u) {
            if !reachable[v] {
                reachable[v] = true;
                queue.push_back(v);
            }
        }
    }
    // A point is observable when some covering sensor is reachable.
    // `active_sensors` is ascending in sensor id, so net node index =
    // binary-search position.
    let sids: Vec<usize> = sensors.iter().map(|&(sid, _)| sid).collect();
    let mut observable = 0usize;
    for pid in 0..map.n_points() {
        let p = map.points()[pid];
        let mut any = false;
        map.for_each_sensor_covering(p, |sid, _| {
            if !any {
                let net_id = sids.binary_search(&sid).expect("mirrored");
                any = reachable[net_id];
            }
        });
        if any {
            observable += 1;
        }
    }
    let report = collect_reports(&mut net, sink);
    (observable as f64 / map.n_points() as f64, report.mean_hops)
}

/// The trace-event kinds reported as columns, in column order. The
/// restoration run carries a [`decor_trace::TraceHandle::counting`]
/// handle, so each column is the mean number of events of that kind per
/// replica.
pub const TRACE_KINDS: [&str; 6] = [
    "msg_send",
    "msg_deliver",
    "msg_drop",
    "msg_retry",
    "msg_ack",
    "sensor_placed",
];

/// Runs the experiment with the Voronoi (big rc) scheme.
/// Columns: k, observability % before / after disaster / after
/// restoration, mean report hops before, the transport retries the
/// restoration spent (zero on a loss-free medium; set
/// [`ExpParams::loss_pct`] to make the restoration pay for reliability),
/// and per-event-kind trace counts of the restoration run
/// ([`TRACE_KINDS`]).
pub fn run(params: &ExpParams) -> Table {
    let mut cols = vec![
        "k".into(),
        "observable_before_pct".into(),
        "observable_after_failure_pct".into(),
        "observable_after_restore_pct".into(),
        "mean_report_hops".into(),
        "restore_retries".into(),
    ];
    cols.extend(TRACE_KINDS.iter().map(|kind| format!("trace_{kind}")));
    let mut t = Table::new(
        "ext_delivery",
        "Field observability through disaster and restoration (Voronoi big rc)",
        cols,
    );
    let scheme = SchemeKind::VoronoiBig;
    let disk = disaster_disk(params);
    for &k in &KS {
        let results =
            MatrixRunner::auto().replicas(params.seeds, params.base_seed ^ 0xDE11, |_, seed| {
                let (mut map, _, mut cfg) = deploy(params, scheme, k, seed);
                let (before, hops) = observability_of(&map, &cfg);
                // Disaster.
                let sensors = map.active_sensors();
                let mut net = Network::new(*map.field());
                for &(_, pos) in &sensors {
                    net.add_node(pos, cfg.rs, cfg.rc);
                }
                for v in (FailurePlan::Area { disk }).victims(&net) {
                    map.deactivate_sensor(sensors[v].0);
                }
                let (after_failure, _) = observability_of(&map, &cfg);
                // Restoration with the same scheme, over the configured
                // medium, with a counting trace sink attached.
                cfg.trace = decor_trace::TraceHandle::counting();
                let placer = params.placer(scheme, seed ^ 0x77);
                let restore = placer.place(&mut map, &cfg);
                let (after_restore, _) = observability_of(&map, &cfg);
                let counts = cfg.trace.counts().unwrap_or_default();
                let kinds = TRACE_KINDS.map(|kind| counts.get(kind).copied().unwrap_or(0) as f64);
                (
                    before,
                    after_failure,
                    after_restore,
                    hops,
                    restore.messages.retries as f64,
                    kinds,
                )
            });
        let mut row = vec![
            k as f64,
            mean(&results.iter().map(|r| r.0 * 100.0).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.1 * 100.0).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.2 * 100.0).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.3).collect::<Vec<_>>()),
            mean(&results.iter().map(|r| r.4).collect::<Vec<_>>()),
        ];
        for i in 0..TRACE_KINDS.len() {
            row.push(mean(&results.iter().map(|r| r.5[i]).collect::<Vec<_>>()));
        }
        t.push_row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disaster_blinds_the_hole_and_restoration_heals_it() {
        let params = ExpParams::quick();
        let disk = disaster_disk(&params);
        let (mut map, _, cfg) = deploy(&params, SchemeKind::VoronoiBig, 1, 5);
        let (before, hops) = observability_of(&map, &cfg);
        assert!(
            before > 0.97,
            "fresh deployment near-fully observable: {before}"
        );
        assert!(hops > 1.0, "multi-hop routing expected");
        let sensors = map.active_sensors();
        let mut net = Network::new(*map.field());
        for &(_, pos) in &sensors {
            net.add_node(pos, cfg.rs, cfg.rc);
        }
        for v in (FailurePlan::Area { disk }).victims(&net) {
            map.deactivate_sensor(sensors[v].0);
        }
        let (after_failure, _) = observability_of(&map, &cfg);
        assert!(
            after_failure < 0.95,
            "the hole must blind the sink: {after_failure}"
        );
        assert!(
            after_failure > 0.6,
            "only the hole goes dark: {after_failure}"
        );
        let placer = params.placer(SchemeKind::VoronoiBig, 9);
        placer.place(&mut map, &cfg);
        let (after_restore, _) = observability_of(&map, &cfg);
        assert!(
            after_restore >= before - 0.01,
            "restoration must restore observability: {after_restore} (before {before})"
        );
    }

    #[test]
    fn restoration_trace_counts_surface_per_kind() {
        let params = ExpParams::quick();
        let disk = disaster_disk(&params);
        let (mut map, _, mut cfg) = deploy(&params, SchemeKind::VoronoiBig, 1, 5);
        let sensors = map.active_sensors();
        let mut net = Network::new(*map.field());
        for &(_, pos) in &sensors {
            net.add_node(pos, cfg.rs, cfg.rc);
        }
        for v in (FailurePlan::Area { disk }).victims(&net) {
            map.deactivate_sensor(sensors[v].0);
        }
        cfg.trace = decor_trace::TraceHandle::counting();
        let placer = params.placer(SchemeKind::VoronoiBig, 9);
        let out = placer.place(&mut map, &cfg);
        let counts = cfg.trace.counts().expect("counting sink attached");
        let get = |k: &str| counts.get(k).copied().unwrap_or(0);
        assert_eq!(get("sensor_placed"), out.placed.len() as u64);
        assert!(get("msg_send") > 0, "placement notices must be traced");
        assert!(get("round_begin") as usize >= out.rounds);
        // Either the last productive round breaks at its bottom (equal)
        // or a final empty round opens and breaks immediately (+1).
        assert!(
            get("round_begin") == get("round_end") || get("round_begin") == get("round_end") + 1,
            "begin {} vs end {}",
            get("round_begin"),
            get("round_end")
        );
    }

    #[test]
    fn empty_map_is_unobservable() {
        let params = ExpParams::quick();
        let cfg = DeploymentConfig::with_k(1);
        let map = CoverageMap::new(
            decor_lds::halton_points(100, &params.field()),
            &params.field(),
            &cfg,
        );
        assert_eq!(observability_of(&map, &cfg).0, 0.0);
    }
}
