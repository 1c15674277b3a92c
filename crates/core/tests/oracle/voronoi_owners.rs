//! Test oracle: the Voronoi scheme's per-point ownership rule as it was
//! before the tile-batched kernel, kept verbatim.
//!
//! `point_owners_into` runs one `rc` range query per point, sorts the
//! candidates by `(distance², id)`, collects the coverers with a second
//! query and scans the sorted prefix for a blocking neighbour; `estimate`
//! and `est_benefit` count the coverers a viewer knows one by one. The
//! production kernel in `voronoi_scheme.rs` must reproduce their answers
//! exactly, owner order included.
//!
//! Only the item paths changed: the associated functions of `VoronoiDecor`
//! became free functions, and the scratch struct is this file's own.
//! Include it from `crates/core/src/voronoi_scheme.rs` with
//! `#[cfg(test)] #[path = "../tests/oracle/voronoi_owners.rs"] mod voronoi_owners;`.

use crate::config::DeploymentConfig;
use crate::coverage::CoverageMap;
use crate::knowledge::NeighborKnowledge;
use std::collections::BTreeSet;

/// Coverage of point `p` as estimated by the agent at `viewer`:
/// the number of *known* sensors (within `rc` of the viewer, minus any
/// in `hidden` — sensors whose placement notice never reached this
/// viewer) covering `p`. `coverers` are the true coverers of `p`
/// (id, position).
pub(crate) fn estimate(
    viewer: decor_geom::Point,
    coverers: &[(usize, decor_geom::Point)],
    rc: f64,
    hidden: Option<&BTreeSet<usize>>,
) -> u32 {
    let rc_sq = rc * rc;
    coverers
        .iter()
        .filter(|&&(cid, cpos)| {
            viewer.dist_sq(cpos) <= rc_sq && hidden.is_none_or(|h| !h.contains(&cid))
        })
        .count() as u32
}

/// The agents that own point `pid` under their local Voronoi view *and*
/// believe it under-covered. This is the per-point body of the decision
/// phase; its result depends only on the sensors within `rc` of the
/// point (candidate owners are within `rc`, and a coverer is within
/// `rs <= rc`), which is what lets rounds cache it per point and
/// invalidate just the `rc`-disk of each new placement.
#[allow(clippy::too_many_arguments)]
pub(crate) fn point_owners_into(
    map: &CoverageMap,
    pid: usize,
    rc: f64,
    rc_sq: f64,
    k: u32,
    knowledge: &NeighborKnowledge,
    scratch: &mut OwnersScratch,
    out: &mut Vec<usize>,
) {
    out.clear();
    let p = map.points()[pid];
    // Agents that could own p (scratch buffers reused across points).
    let cands = &mut scratch.cands;
    cands.clear();
    map.for_each_sensor_within(p, rc, |sid, spos| {
        cands.push((sid, spos, p.dist_sq(spos)));
    });
    if cands.is_empty() {
        return; // unreachable this round; fringe grows later
    }
    cands.sort_by(|a, b| a.2.partial_cmp(&b.2).unwrap().then(a.0.cmp(&b.0)));
    let coverers = &mut scratch.coverers;
    coverers.clear();
    // `coverage(pid)` is the maintained count of exactly the sensors
    // `for_each_sensor_covering` would visit here, so a zero-coverage
    // point can skip the bucket scan: the coverer list is empty.
    if map.coverage(pid) > 0 {
        map.for_each_sensor_covering(p, |sid, spos| coverers.push((sid, spos)));
    }
    for (idx, &(sid, spos, _)) in cands.iter().enumerate() {
        let hidden = knowledge.hidden_from(sid);
        if estimate(spos, coverers, rc, hidden) >= k {
            continue; // this agent believes p is fine
        }
        // Local ownership: no agent closer to p is a 1-hop neighbor of
        // this one. An agent it never learned about cannot defer it.
        let blocked = cands[..idx]
            .iter()
            .any(|&(cid, cpos, _)| spos.dist_sq(cpos) <= rc_sq && knowledge.knows(sid, cid));
        if !blocked {
            out.push(sid);
        }
    }
}

/// Locally-estimated benefit of agent `viewer` placing at `c`:
/// Equation 1 restricted to the points the agent knows (within `rc` of
/// itself), with coverage replaced by the agent's estimate.
pub(crate) fn est_benefit(
    map: &CoverageMap,
    viewer: decor_geom::Point,
    c: decor_geom::Point,
    cfg: &DeploymentConfig,
    rc: f64,
    hidden: Option<&BTreeSet<usize>>,
) -> u64 {
    let rc_sq = rc * rc;
    let mut b = 0u64;
    // Streamed, allocation-free form of the old collect-and-estimate
    // loop: the benefit is an order-independent integer sum, and the
    // per-point estimate counts known coverers exactly as
    // [`estimate`] does over the collected slice.
    map.for_each_point_within_unordered(c, cfg.rs, |ppid, ppos| {
        if viewer.dist_sq(ppos) <= rc_sq {
            // A zero-coverage point has no coverers to scan, so the
            // viewer's estimate is 0 no matter what it knows.
            if map.coverage(ppid) == 0 {
                b += cfg.k as u64;
                return;
            }
            let mut est = 0u32;
            map.for_each_sensor_covering(ppos, |sid, spos| {
                if viewer.dist_sq(spos) <= rc_sq && hidden.is_none_or(|h| !h.contains(&sid)) {
                    est += 1;
                }
            });
            if est < cfg.k {
                b += (cfg.k - est) as u64;
            }
        }
    });
    b
}

/// Reusable buffers for [`point_owners_into`], so the per-point ownership
/// pass does not allocate per point.
#[derive(Default)]
pub(crate) struct OwnersScratch {
    cands: Vec<(usize, decor_geom::Point, f64)>,
    coverers: Vec<(usize, decor_geom::Point)>,
}
