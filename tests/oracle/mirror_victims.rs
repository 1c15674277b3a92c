//! The mirror-based failure path, kept as a test oracle.
//!
//! [`mirror_fail_and_restore`] and [`mirror_coverage_after_failure`] are
//! `decor_core::restore`'s functions as they were before victims came from
//! the coverage map: they copy every active sensor into a fresh `Network`
//! (node `i` is the `i`-th active sensor) and ask `FailurePlan::victims`
//! of that mirror. No production path builds the mirror without a
//! heartbeat phase any more; `victim_oracle.rs` holds the map-based path
//! to this one.
//!
//! Include it with `#[path = "oracle/mirror_victims.rs"] mod mirror_victims;`.

#![allow(dead_code)] // each including test binary uses a different subset

use decor::core::restore::RestorationReport;
use decor::core::{CoverageMap, DeploymentConfig, Placer, SensorId};
use decor::net::{FailurePlan, HeartbeatConfig, HeartbeatSim, Network, NodeId, Time};
use decor::trace::TraceEvent;

/// The sensor ids the mirror path kills: `FailurePlan::victims` on a
/// mirror of the active sensors, mapped back through the mirror.
pub fn mirror_victim_sensors(map: &CoverageMap, plan: &FailurePlan) -> Vec<SensorId> {
    let sensors = map.active_sensors();
    let mut net = Network::new(*map.field());
    for &(_, pos) in &sensors {
        net.add_node(pos, 4.0, 8.0); // the radii play no part in victims
    }
    plan.victims(&net)
        .into_iter()
        .map(|v| sensors[v].0)
        .collect()
}

/// `fail_and_restore` over a whole-field mirror.
pub fn mirror_fail_and_restore(
    map: &mut CoverageMap,
    placer: &dyn Placer,
    cfg: &DeploymentConfig,
    plan: &FailurePlan,
    heartbeat: Option<HeartbeatConfig>,
) -> RestorationReport {
    cfg.validate();
    // Mirror the active sensors into a network for failure selection and
    // detection. Network node i corresponds to sensors[i] below. The
    // configured link loss applies here too, so heartbeat detection runs
    // over the same medium the restoration placer will use.
    let sensors = map.active_sensors();
    let mut net = Network::new(*map.field());
    cfg.link.apply(&mut net);
    net.set_trace(cfg.trace.clone());
    for &(_, pos) in &sensors {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    let victims_net = plan.victims(&net);

    let (detected, latency, false_restorations) = match heartbeat {
        Some(hb) => {
            let sim = HeartbeatSim::new(hb);
            let fail_at = 4 * hb.period;
            let horizon = fail_at + 40 * hb.period;
            let report = sim.run(&mut net, &victims_net, fail_at, horizon);
            cfg.trace.set_time(fail_at);
            for &v in &victims_net {
                cfg.trace.emit(TraceEvent::NodeFailed { node: v as u64 });
            }
            // Detections in (time, victim) order so the trace timeline
            // stays monotone.
            let mut detections: Vec<(Time, NodeId, NodeId)> = report
                .first_detection
                .iter()
                .map(|(&victim, &(t, observer))| (t, victim, observer))
                .collect();
            detections.sort_unstable();
            for (t, victim, observer) in detections {
                cfg.trace.set_time(t);
                cfg.trace.emit(TraceEvent::HeartbeatMiss {
                    observer: observer as u64,
                    node: victim as u64,
                });
            }
            (
                report.first_detection.len(),
                report.max_latency(fail_at),
                report.false_positives.len(),
            )
        }
        None => {
            for &v in &victims_net {
                net.fail_node(v);
                cfg.trace.emit(TraceEvent::NodeFailed { node: v as u64 });
            }
            (victims_net.len(), None, 0)
        }
    };

    // Kill the same sensors in the coverage map.
    for &v in &victims_net {
        let (sid, _) = sensors[v];
        map.deactivate_sensor(sid);
    }
    let coverage_after_failure = map.fraction_k_covered(cfg.k);

    let outcome = placer.place(map, cfg);
    RestorationReport {
        victims: victims_net.len(),
        detected,
        detection_latency: latency,
        coverage_after_failure,
        extra_nodes: outcome.placed.len(),
        coverage_after_restore: map.fraction_k_covered(cfg.k),
        false_restorations,
        sleeping_suppressed: 0,
        outcome,
    }
}

/// `coverage_after_failure` over a whole-field mirror.
pub fn mirror_coverage_after_failure(
    map: &mut CoverageMap,
    cfg: &DeploymentConfig,
    plan: &FailurePlan,
    k_measure: u32,
) -> f64 {
    let sensors = map.active_sensors();
    let mut net = Network::new(*map.field());
    for &(_, pos) in &sensors {
        net.add_node(pos, cfg.rs, cfg.rc);
    }
    let victims = plan.victims(&net);
    for &v in &victims {
        map.deactivate_sensor(sensors[v].0);
    }
    map.fraction_k_covered(k_measure)
}
