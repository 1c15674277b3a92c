//! The round protocol the distributed placers run around their decision
//! rules (DESIGN.md §17).
//!
//! In the paper grid and Voronoi DECOR are one protocol: an owner places a
//! sensor at its best point and notifies the neighbors its new disk
//! overlaps (§3). The schemes differ only in who owns a point, so
//! everything else a run does lives here, once:
//!
//! - [`Run`]: the accounting network and its node → sensor mirror, the
//!   fault plan's cursor, crash retirement, the forced fault batch on a
//!   covered field, sensor placement, the round close and the convergence
//!   check. [`crate::HoleHealing`], which has no transport, drives one on
//!   its own per-round clock.
//! - [`Rounds`]: a [`Run`] whose notices ride the reliable transport: the
//!   pooled-radio handoff, the round start at the transport's clock, the
//!   notices, their flush into the blind-spot ledger, and the message
//!   accounting.
//!
//! A placer keeps its decision rule and the state a crash must update
//! (its [`World`]). Every trace event, loss-stream draw and checker call
//! comes in the order the placers' own loops made them.

use crate::config::DeploymentConfig;
use crate::coverage::{CoverageMap, SensorId};
use crate::knowledge::NeighborKnowledge;
use crate::metrics::{MessageStats, PlacementOutcome, TracePoint};
use decor_geom::Point;
use decor_net::{ChaosEngine, DeliveryOutcome, Message, MsgId, Network, NodeId, Time, Transport};
use decor_trace::TraceEvent;
use std::ops::{Deref, DerefMut};

/// Safety cap on synchronous rounds.
const MAX_ROUNDS: usize = 100_000;

/// What a placer keeps about its sensors beyond the coverage map, which
/// the round protocol updates when a fault crashes one.
pub(crate) trait World {
    /// The scheme's rule for a notice whose recipient is down: `true` when
    /// it still reaches its ledger row, at one message's cost; `false`
    /// when the row stays blind to the announced sensor.
    const PEER_DOWN_ARRIVES: bool = false;

    /// Forgets crashed node `node`, whose sensor `sid` the map has just
    /// deactivated.
    fn retire(&mut self, map: &CoverageMap, node: NodeId, sid: SensorId);
}

/// The round protocol's buffers, pooled in [`crate::SimScratch`] so warm
/// runs reuse their capacity. Each is cleared before it is read.
#[derive(Default)]
pub(crate) struct RoundScratch {
    /// Sensor id per node id (node ids are insertion-dense).
    sid_of: Vec<SensorId>,
    /// Active-sensor buffer for `CoverageMap::active_sensors_into`.
    sensors: Vec<(SensorId, Point)>,
    /// The round's notices: (message, ledger row, announced sensor).
    pending: Vec<(MsgId, usize, SensorId)>,
    /// The round's transport conclusions, sorted by message id.
    flushed: Vec<(MsgId, DeliveryOutcome)>,
}

/// One placement run: the coverage outcome, the accounting network the
/// fault plan acts on, and the node → sensor mirror that maps a crash
/// back to its sensor.
pub(crate) struct Run<'a> {
    cfg: &'a DeploymentConfig,
    /// Label of the scheme in trace events and checker reports.
    scheme: &'static str,
    /// Radio range of every node the run adds.
    rc: f64,
    /// The accounting network.
    pub(crate) net: Network,
    chaos: Option<ChaosEngine<'a>>,
    bufs: &'a mut RoundScratch,
    out: PlacementOutcome,
    /// `out.placed.len()` when the current round began.
    round_start: usize,
}

impl<'a> Run<'a> {
    /// Mirrors the map's active sensors as the nodes of `net` (node `i` is
    /// the `i`-th active sensor in id order), attaches the fault plan and
    /// samples the coverage trace's first point.
    pub(crate) fn new(
        scheme: &'static str,
        rc: f64,
        mut net: Network,
        bufs: &'a mut RoundScratch,
        map: &CoverageMap,
        cfg: &'a DeploymentConfig,
    ) -> Self {
        net.set_trace(cfg.trace.clone());
        bufs.sid_of.clear();
        map.active_sensors_into(&mut bufs.sensors);
        for &(sid, pos) in &bufs.sensors {
            let nid = net.add_node(pos, cfg.rs, rc);
            debug_assert_eq!(nid, bufs.sid_of.len());
            bufs.sid_of.push(sid);
        }
        let initial = map.n_active_sensors();
        let mut out = PlacementOutcome {
            initial_sensors: initial,
            ..PlacementOutcome::default()
        };
        out.trace.push(TracePoint {
            total_sensors: initial,
            fraction_k_covered: map.fraction_k_covered(cfg.k),
        });
        Run {
            cfg,
            scheme,
            rc,
            net,
            chaos: cfg.chaos.as_ref().map(ChaosEngine::borrowed),
            bufs,
            out,
            round_start: 0,
        }
    }

    /// The sensor id of every node, indexed by node id.
    pub(crate) fn sid_of(&self) -> &[SensorId] {
        &self.bufs.sid_of
    }

    /// The number of the current round, from 0.
    pub(crate) fn round(&self) -> u64 {
        self.out.rounds as u64
    }

    /// True while the placement budget has room for another sensor.
    pub(crate) fn has_budget(&self) -> bool {
        self.out.placed.len() < self.cfg.max_new_nodes
    }

    /// True while another round may start: budget left, round cap not hit.
    pub(crate) fn running(&self) -> bool {
        self.has_budget() && self.out.rounds < MAX_ROUNDS
    }

    /// Injects every fault due by `now` and retires the sensors it
    /// crashed. False when the run has no fault plan.
    pub(crate) fn advance_to(
        &mut self,
        now: Time,
        map: &mut CoverageMap,
        world: &mut impl World,
    ) -> bool {
        let Some(ch) = self.chaos.as_mut() else {
            return false;
        };
        ch.advance_to(&mut self.net, now);
        self.retire_crashed(map, world);
        true
    }

    /// Retires the nodes the plan crashed since the last call: the checker
    /// learns the death, the map deactivates the sensor (ground truth
    /// drops), and the placer's world forgets it.
    fn retire_crashed(&mut self, map: &mut CoverageMap, world: &mut impl World) {
        let Some(ch) = self.chaos.as_mut() else {
            return;
        };
        for node in ch.take_crashed() {
            let sid = self.bufs.sid_of[node];
            self.cfg.invariants.note_crash(node as u64);
            map.deactivate_sensor(sid);
            world.retire(map, node, sid);
        }
    }

    /// On a covered field with faults still scheduled, forces the next
    /// batch and retires its crashes: a quiet run would never reach their
    /// injection times. False when no fault is pending.
    fn force_next_batch(&mut self, map: &mut CoverageMap, world: &mut impl World) -> bool {
        let Some(ch) = self.chaos.as_mut().filter(|ch| !ch.is_exhausted()) else {
            return false;
        };
        ch.advance_next_batch(&mut self.net);
        self.retire_crashed(map, world);
        true
    }

    /// Ends a round that found nothing to place on a covered field: forces
    /// the next fault batch and closes the empty round. False when no
    /// fault is pending, so the run has converged.
    pub(crate) fn idle(&mut self, map: &mut CoverageMap, world: &mut impl World) -> bool {
        let forced = self.force_next_batch(map, world);
        if forced {
            self.close_round(map);
        }
        forced
    }

    /// Places a sensor at `pos` and its node in the accounting network.
    /// `placer` is the deciding agent's node, which must be alive; `None`
    /// for a placement no agent decided. Returns the new sensor and node.
    pub(crate) fn place(
        &mut self,
        map: &mut CoverageMap,
        placer: Option<NodeId>,
        pos: Point,
        benefit: u64,
        agent: u64,
    ) -> (SensorId, NodeId) {
        if let Some(p) = placer {
            let alive = self.net.is_alive(p);
            self.cfg
                .invariants
                .check_placer_alive(self.scheme, p as u64, alive);
        }
        let sid = map.add_sensor(pos, self.cfg.rs);
        let nid = self.net.add_node(pos, self.cfg.rs, self.rc);
        debug_assert_eq!(nid, self.bufs.sid_of.len());
        self.bufs.sid_of.push(sid);
        self.out.placed.push(pos);
        self.cfg.trace.emit(TraceEvent::SensorPlaced {
            x: pos.x,
            y: pos.y,
            benefit,
            agent,
        });
        (sid, nid)
    }

    /// Closes the current round: emits its `RoundEnd` (with the sensors
    /// placed since it began) and the resulting `CoverageDelta`, counts
    /// the round and samples the coverage trace.
    pub(crate) fn close_round(&mut self, map: &CoverageMap) {
        let placed = self.out.placed.len() - self.round_start;
        self.round_start = self.out.placed.len();
        self.cfg.trace.emit(TraceEvent::RoundEnd {
            round: self.out.rounds as u64,
            placed: placed as u64,
        });
        self.cfg.trace.emit(TraceEvent::CoverageDelta {
            below_target: map.count_below(self.cfg.k) as u64,
        });
        self.out.rounds += 1;
        self.out.trace.push(TracePoint {
            total_sensors: self.out.total_sensors(),
            fraction_k_covered: map.fraction_k_covered(self.cfg.k),
        });
    }

    /// Ends the run: records whether the field is covered, and checks that
    /// a run left uncovered stopped at a cap or with faults pending.
    pub(crate) fn finish(&mut self, map: &CoverageMap) -> PlacementOutcome {
        self.out.fully_covered = map.count_below(self.cfg.k) == 0;
        self.cfg.invariants.check_converged(
            self.out.fully_covered,
            self.chaos.as_ref().is_some_and(|ch| !ch.is_exhausted()),
            !self.running(),
        );
        std::mem::take(&mut self.out)
    }
}

/// A [`Run`] whose placement notices ride the reliable transport, on the
/// radio pooled in [`crate::SimScratch`].
pub(crate) struct Rounds<'a> {
    run: Run<'a>,
    transport: Transport,
    /// The blind-spot ledger: which sensors each ledger row never heard of.
    pub(crate) knowledge: NeighborKnowledge,
    net_slot: &'a mut Option<Network>,
    transport_slot: &'a mut Option<Transport>,
}

impl<'a> Rounds<'a> {
    /// Starts a run on the pooled radio. A warm scratch hands back the
    /// last run's network and transport, reset to the state a fresh
    /// construction yields; [`Rounds::finish`] hands them back again.
    pub(crate) fn start(
        scheme: &'static str,
        rc: f64,
        map: &CoverageMap,
        cfg: &'a DeploymentConfig,
        net_slot: &'a mut Option<Network>,
        transport_slot: &'a mut Option<Transport>,
        bufs: &'a mut RoundScratch,
    ) -> Self {
        let field = *map.field();
        let mut net = match net_slot.take() {
            Some(mut n) => {
                n.reset(field);
                n
            }
            None => Network::new(field),
        };
        cfg.link.apply(&mut net);
        let transport = match transport_slot.take() {
            Some(mut t) => {
                t.reset(cfg.link.transport());
                t
            }
            None => Transport::new(cfg.link.transport()),
        };
        Rounds {
            run: Run::new(scheme, rc, net, bufs, map, cfg),
            transport,
            knowledge: NeighborKnowledge::new(),
            net_slot,
            transport_slot,
        }
    }

    /// Starts the next round at the transport's clock: faults due by now
    /// land (and their crashes retire) before any decision. Returns the
    /// round's number, or `None` once the run hit its budget or the
    /// round cap.
    pub(crate) fn begin(&mut self, map: &mut CoverageMap, world: &mut impl World) -> Option<u64> {
        if !self.run.running() {
            return None;
        }
        let now = self.transport.now();
        self.run.advance_to(now, map, world);
        let round = self.run.round();
        self.run.cfg.trace.set_time(now);
        self.run.cfg.trace.emit(TraceEvent::RoundBegin {
            scheme: self.run.scheme,
            round,
        });
        self.run.bufs.pending.clear();
        Some(round)
    }

    /// Sends node `from`'s placement notice of sensor `announced` (at
    /// `pos`) to node `to`. If it never arrives, ledger row `viewer` stays
    /// blind to the sensor.
    pub(crate) fn notify(
        &mut self,
        from: NodeId,
        to: NodeId,
        pos: Point,
        viewer: usize,
        announced: SensorId,
    ) {
        let id = self
            .transport
            .send(from, to, Message::PlacementNotice { pos });
        self.run.bufs.pending.push((id, viewer, announced));
    }

    /// Ends the round: flushes its notices, writes each one's fate into
    /// the ledger, retires the crashes that fired during the flush and
    /// closes the round at the transport's clock. On a covered field it
    /// forces the next fault batch; false when none is pending, so the
    /// run has converged.
    pub(crate) fn end_round<W: World>(&mut self, map: &mut CoverageMap, world: &mut W) -> bool {
        let Run {
            cfg,
            net,
            chaos,
            bufs,
            ..
        } = &mut self.run;
        // Under chaos the flush interleaves fault injection with the
        // retry clock, so crashes land between retransmissions.
        match chaos.as_mut() {
            Some(ch) => self.transport.flush_chaos_into(net, ch, &mut bufs.flushed),
            None => self.transport.flush_into(net, &mut bufs.flushed),
        }
        // Message ids are unique, so a sorted slice answers the lookups.
        bufs.flushed.sort_unstable_by_key(|&(id, _)| id);
        for &(id, viewer, announced) in &bufs.pending {
            let outcome = bufs
                .flushed
                .binary_search_by_key(&id, |&(mid, _)| mid)
                .ok()
                .map(|ix| &bufs.flushed[ix].1);
            let arrived = match outcome {
                Some(DeliveryOutcome::Delivered { .. }) => true,
                Some(DeliveryOutcome::PeerDown) if W::PEER_DOWN_ARRIVES => {
                    net.stats.protocol_sent += 1;
                    net.stats.total_sent += 1;
                    true
                }
                // A GaveUp notice may still have arrived (lost acks only);
                // the sender cannot tell, so the row counts as blind.
                _ => {
                    self.knowledge.hide(viewer, announced);
                    false
                }
            };
            let knows = self.knowledge.knows(viewer, announced);
            cfg.invariants
                .check_ledger(viewer as u64, announced as u64, arrived, knows);
        }
        self.run.retire_crashed(map, world);
        self.run.cfg.trace.set_time(self.transport.now());
        self.run.close_round(map);
        map.count_below(self.run.cfg.k) > 0 || self.run.force_next_batch(map, world)
    }

    /// Ends the run with its message accounting over `cells` cells of
    /// `members` nodes in all, and hands the radio back to the pool.
    pub(crate) fn finish(
        mut self,
        map: &CoverageMap,
        cells: usize,
        members: usize,
    ) -> PlacementOutcome {
        let mut out = self.run.finish(map);
        let sent = self.run.net.stats.protocol_sent;
        let stats = &self.transport.stats;
        out.messages = MessageStats {
            protocol_total: sent,
            cells,
            per_cell: sent as f64 / cells as f64,
            per_node_rotated: sent as f64 / members as f64,
            retries: stats.retries,
            acks: stats.acks,
            notices_gave_up: stats.gave_up,
            duplicates_suppressed: stats.duplicates_suppressed,
        };
        *self.net_slot = Some(self.run.net);
        *self.transport_slot = Some(self.transport);
        out
    }
}

impl<'a> Deref for Rounds<'a> {
    type Target = Run<'a>;

    fn deref(&self) -> &Run<'a> {
        &self.run
    }
}

impl DerefMut for Rounds<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        &mut self.run
    }
}
