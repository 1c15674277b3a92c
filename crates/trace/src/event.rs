//! The typed event vocabulary and its canonical serialization.

use std::fmt::Write as _;

/// One structured simulation event.
///
/// Identifiers are plain `u64`s supplied by the emitter (node ids, sensor
/// ids, cell indices); message kinds are static labels such as `"notice"`
/// or `"ack"`. The variants cover the observable actions of the DECOR
/// protocols: physical transmissions, transport-layer repair, leadership,
/// failure detection, and placement progress.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A frame was put on the air (charged to the sender).
    MsgSend {
        /// Sending node.
        from: u64,
        /// Intended receiver.
        to: u64,
        /// Message kind label (e.g. `"notice"`, `"ack"`).
        msg: &'static str,
    },
    /// A frame arrived at its receiver.
    MsgDeliver {
        /// Sending node.
        from: u64,
        /// Receiving node.
        to: u64,
        /// Message kind label.
        msg: &'static str,
    },
    /// A frame was lost on the air.
    MsgDrop {
        /// Sending node.
        from: u64,
        /// Intended receiver.
        to: u64,
        /// Message kind label.
        msg: &'static str,
    },
    /// The reliable transport retransmitted a message.
    MsgRetry {
        /// Sending node.
        from: u64,
        /// Intended receiver.
        to: u64,
        /// Per-directed-link sequence number.
        seq: u64,
        /// Data transmissions so far, including this one.
        attempt: u64,
    },
    /// The sender received the acknowledgement — the message concluded
    /// delivered at the transport layer.
    MsgAck {
        /// Original sender (the ack's receiver).
        from: u64,
        /// Original receiver (the ack's sender).
        to: u64,
        /// Per-directed-link sequence number acknowledged.
        seq: u64,
    },
    /// A cell opened its leader election for a round.
    ElectionStart {
        /// Cell index (grid) or agent id (Voronoi).
        cell: u64,
        /// Protocol round.
        round: u64,
    },
    /// A leader emerged.
    ElectionWon {
        /// Cell index.
        cell: u64,
        /// Protocol round.
        round: u64,
        /// Winning node/sensor id.
        leader: u64,
    },
    /// A heartbeat observer declared a neighbor silent.
    HeartbeatMiss {
        /// The observing node.
        observer: u64,
        /// The node declared silent.
        node: u64,
    },
    /// A node failed (ground truth, not detection).
    NodeFailed {
        /// The failed node.
        node: u64,
    },
    /// A restoration sensor was placed.
    SensorPlaced {
        /// Position, x.
        x: f64,
        /// Position, y.
        y: f64,
        /// Benefit score (Eq. 1) the placer attributed to the spot.
        benefit: u64,
        /// Deciding agent: cell index (grid) or agent sensor id (Voronoi).
        agent: u64,
    },
    /// A synchronous protocol round opened.
    RoundBegin {
        /// Scheme label (e.g. `"grid"`, `"voronoi"`).
        scheme: &'static str,
        /// Round number, starting at 0.
        round: u64,
    },
    /// A synchronous protocol round closed.
    RoundEnd {
        /// Round number.
        round: u64,
        /// Sensors placed during the round.
        placed: u64,
    },
    /// Coverage progress after a round: how many approximation points
    /// remain below the target `k`.
    CoverageDelta {
        /// Points still below the coverage target.
        below_target: u64,
    },
    /// A chaos fault crashed a node (ground truth, injected by the fault
    /// plan — distinct from [`TraceEvent::NodeFailed`], which other nets
    /// in the same run may emit under their own id space).
    ChaosCrash {
        /// The crashed node, in the chaos network's id space.
        node: u64,
    },
    /// A chaos fault partitioned the network into two sides.
    ChaosPartition {
        /// Number of node ids on side A of the cut.
        side: u64,
    },
    /// A chaos fault healed the current partition.
    ChaosHeal,
    /// A chaos fault blackholed one directed link.
    ChaosBlackhole {
        /// Sending side of the muted link.
        from: u64,
        /// Receiving side of the muted link.
        to: u64,
    },
    /// A chaos fault restored a blackholed directed link.
    ChaosUnblackhole {
        /// Sending side of the restored link.
        from: u64,
        /// Receiving side of the restored link.
        to: u64,
    },
    /// A chaos fault changed the network-wide extra latency.
    ChaosLatency {
        /// Extra ticks added to every retransmission backoff (0 restores
        /// nominal timing).
        extra: u64,
    },
    /// A chaos fault drained energy from a node's battery accounting.
    ChaosDrain {
        /// The drained node.
        node: u64,
        /// Energy units drained.
        amount: f64,
    },
    /// A rotation shift took over duty (see `decor_net::rotation`).
    ShiftBegin {
        /// The shift now on duty.
        shift: u64,
        /// Nodes awake during this shift period (members plus any
        /// emergency wake-ups and unscheduled nodes).
        awake: u64,
    },
    /// A rotation shift went off duty.
    ShiftEnd {
        /// The shift that just finished its period.
        shift: u64,
    },
    /// A node turned its radio off for a scheduled sleep period.
    NodeSleep {
        /// The node going to sleep.
        node: u64,
    },
    /// A scheduled-asleep node woke back up for duty.
    NodeWake {
        /// The waking node.
        node: u64,
    },
    /// Battery accounting: energy a node spent over its last awake span
    /// (radio traffic plus idle listening), emitted when it goes to sleep
    /// or dies.
    BatteryDrain {
        /// The node whose battery drained.
        node: u64,
        /// Energy units spent since the node last woke.
        amount: f64,
    },
}

impl TraceEvent {
    /// Stable snake_case label of the variant, used as the `"ev"` field of
    /// the canonical serialization and as the key of
    /// [`TraceHandle::counts`](crate::TraceHandle::counts).
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::MsgSend { .. } => "msg_send",
            TraceEvent::MsgDeliver { .. } => "msg_deliver",
            TraceEvent::MsgDrop { .. } => "msg_drop",
            TraceEvent::MsgRetry { .. } => "msg_retry",
            TraceEvent::MsgAck { .. } => "msg_ack",
            TraceEvent::ElectionStart { .. } => "election_start",
            TraceEvent::ElectionWon { .. } => "election_won",
            TraceEvent::HeartbeatMiss { .. } => "heartbeat_miss",
            TraceEvent::NodeFailed { .. } => "node_failed",
            TraceEvent::SensorPlaced { .. } => "sensor_placed",
            TraceEvent::RoundBegin { .. } => "round_begin",
            TraceEvent::RoundEnd { .. } => "round_end",
            TraceEvent::CoverageDelta { .. } => "coverage_delta",
            TraceEvent::ChaosCrash { .. } => "chaos_crash",
            TraceEvent::ChaosPartition { .. } => "chaos_partition",
            TraceEvent::ChaosHeal => "chaos_heal",
            TraceEvent::ChaosBlackhole { .. } => "chaos_blackhole",
            TraceEvent::ChaosUnblackhole { .. } => "chaos_unblackhole",
            TraceEvent::ChaosLatency { .. } => "chaos_latency",
            TraceEvent::ChaosDrain { .. } => "chaos_drain",
            TraceEvent::ShiftBegin { .. } => "shift_begin",
            TraceEvent::ShiftEnd { .. } => "shift_end",
            TraceEvent::NodeSleep { .. } => "node_sleep",
            TraceEvent::NodeWake { .. } => "node_wake",
            TraceEvent::BatteryDrain { .. } => "battery_drain",
        }
    }
}

/// A [`TraceEvent`] stamped by the [`TraceHandle`](crate::TraceHandle):
/// `seq` is a monotone per-trace counter, `time` the simulation clock at
/// emission.
#[derive(Clone, Debug)]
pub(crate) struct TraceRecord {
    /// Monotone sequence number, 0-based within one trace.
    pub(crate) seq: u64,
    /// Simulation time (ticks) when the event was emitted.
    pub(crate) time: u64,
    /// The event itself.
    pub(crate) event: TraceEvent,
}

impl TraceRecord {
    /// Appends the canonical single-line JSON of the record to `s`: fixed
    /// key order (`seq`, `t`, `ev`, then the variant's fields in
    /// declaration order), no whitespace, floats through Rust's
    /// shortest-roundtrip `Display`. Two records are equal iff their
    /// canonical lines are byte-identical, which is what the golden-trace
    /// fixtures and the trace differ rely on.
    pub(crate) fn canonical_into(&self, s: &mut String) {
        let _ = write!(s, "{{\"seq\":{},\"t\":{},\"ev\":\"", self.seq, self.time);
        s.push_str(self.event.kind());
        s.push('"');
        match &self.event {
            TraceEvent::MsgSend { from, to, msg }
            | TraceEvent::MsgDeliver { from, to, msg }
            | TraceEvent::MsgDrop { from, to, msg } => {
                let _ = write!(s, ",\"from\":{from},\"to\":{to},\"msg\":\"{msg}\"");
            }
            TraceEvent::MsgRetry {
                from,
                to,
                seq,
                attempt,
            } => {
                let _ = write!(
                    s,
                    ",\"from\":{from},\"to\":{to},\"mseq\":{seq},\"attempt\":{attempt}"
                );
            }
            TraceEvent::MsgAck { from, to, seq } => {
                let _ = write!(s, ",\"from\":{from},\"to\":{to},\"mseq\":{seq}");
            }
            TraceEvent::ElectionStart { cell, round } => {
                let _ = write!(s, ",\"cell\":{cell},\"round\":{round}");
            }
            TraceEvent::ElectionWon {
                cell,
                round,
                leader,
            } => {
                let _ = write!(s, ",\"cell\":{cell},\"round\":{round},\"leader\":{leader}");
            }
            TraceEvent::HeartbeatMiss { observer, node } => {
                let _ = write!(s, ",\"observer\":{observer},\"node\":{node}");
            }
            TraceEvent::NodeFailed { node } => {
                let _ = write!(s, ",\"node\":{node}");
            }
            TraceEvent::SensorPlaced {
                x,
                y,
                benefit,
                agent,
            } => {
                let _ = write!(s, ",\"x\":");
                push_f64(s, *x);
                let _ = write!(s, ",\"y\":");
                push_f64(s, *y);
                let _ = write!(s, ",\"benefit\":{benefit},\"agent\":{agent}");
            }
            TraceEvent::RoundBegin { scheme, round } => {
                let _ = write!(s, ",\"scheme\":\"{scheme}\",\"round\":{round}");
            }
            TraceEvent::RoundEnd { round, placed } => {
                let _ = write!(s, ",\"round\":{round},\"placed\":{placed}");
            }
            TraceEvent::CoverageDelta { below_target } => {
                let _ = write!(s, ",\"below\":{below_target}");
            }
            TraceEvent::ChaosCrash { node } => {
                let _ = write!(s, ",\"node\":{node}");
            }
            TraceEvent::ChaosPartition { side } => {
                let _ = write!(s, ",\"side\":{side}");
            }
            TraceEvent::ChaosHeal => {}
            TraceEvent::ChaosBlackhole { from, to } | TraceEvent::ChaosUnblackhole { from, to } => {
                let _ = write!(s, ",\"from\":{from},\"to\":{to}");
            }
            TraceEvent::ChaosLatency { extra } => {
                let _ = write!(s, ",\"extra\":{extra}");
            }
            TraceEvent::ChaosDrain { node, amount } | TraceEvent::BatteryDrain { node, amount } => {
                let _ = write!(s, ",\"node\":{node},\"amount\":");
                push_f64(s, *amount);
            }
            TraceEvent::ShiftBegin { shift, awake } => {
                let _ = write!(s, ",\"shift\":{shift},\"awake\":{awake}");
            }
            TraceEvent::ShiftEnd { shift } => {
                let _ = write!(s, ",\"shift\":{shift}");
            }
            TraceEvent::NodeSleep { node } | TraceEvent::NodeWake { node } => {
                let _ = write!(s, ",\"node\":{node}");
            }
        }
        s.push('}');
    }
}

/// Canonical float formatting: Rust's `Display` emits the shortest string
/// that round-trips, deterministically across platforms. Non-finite values
/// never occur in the simulation; serialize them as `null` rather than
/// produce invalid JSON.
fn push_f64(s: &mut String, v: f64) {
    if v.is_finite() {
        let _ = write!(s, "{v}");
    } else {
        s.push_str("null");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl TraceRecord {
        fn canonical(&self) -> String {
            let mut s = String::new();
            self.canonical_into(&mut s);
            s
        }
    }

    fn rec(event: TraceEvent) -> TraceRecord {
        TraceRecord {
            seq: 3,
            time: 17,
            event,
        }
    }

    #[test]
    fn canonical_is_single_line_fixed_order() {
        let line = rec(TraceEvent::MsgSend {
            from: 1,
            to: 2,
            msg: "notice",
        })
        .canonical();
        assert_eq!(
            line,
            r#"{"seq":3,"t":17,"ev":"msg_send","from":1,"to":2,"msg":"notice"}"#
        );
        assert!(!line.contains('\n'));
    }

    #[test]
    fn every_variant_serializes_with_its_kind() {
        let events = [
            TraceEvent::MsgSend {
                from: 0,
                to: 1,
                msg: "hello",
            },
            TraceEvent::MsgDeliver {
                from: 0,
                to: 1,
                msg: "hello",
            },
            TraceEvent::MsgDrop {
                from: 0,
                to: 1,
                msg: "hello",
            },
            TraceEvent::MsgRetry {
                from: 0,
                to: 1,
                seq: 4,
                attempt: 2,
            },
            TraceEvent::MsgAck {
                from: 0,
                to: 1,
                seq: 4,
            },
            TraceEvent::ElectionStart { cell: 5, round: 1 },
            TraceEvent::ElectionWon {
                cell: 5,
                round: 1,
                leader: 9,
            },
            TraceEvent::HeartbeatMiss {
                observer: 2,
                node: 7,
            },
            TraceEvent::NodeFailed { node: 7 },
            TraceEvent::SensorPlaced {
                x: 1.5,
                y: 2.25,
                benefit: 12,
                agent: 3,
            },
            TraceEvent::RoundBegin {
                scheme: "grid",
                round: 0,
            },
            TraceEvent::RoundEnd {
                round: 0,
                placed: 4,
            },
            TraceEvent::CoverageDelta { below_target: 11 },
            TraceEvent::ChaosCrash { node: 3 },
            TraceEvent::ChaosPartition { side: 4 },
            TraceEvent::ChaosHeal,
            TraceEvent::ChaosBlackhole { from: 1, to: 2 },
            TraceEvent::ChaosUnblackhole { from: 1, to: 2 },
            TraceEvent::ChaosLatency { extra: 16 },
            TraceEvent::ChaosDrain {
                node: 5,
                amount: 1.5,
            },
            TraceEvent::ShiftBegin { shift: 1, awake: 6 },
            TraceEvent::ShiftEnd { shift: 0 },
            TraceEvent::NodeSleep { node: 4 },
            TraceEvent::NodeWake { node: 4 },
            TraceEvent::BatteryDrain {
                node: 4,
                amount: 2.5,
            },
        ];
        for ev in events {
            let kind = ev.kind();
            let line = rec(ev).canonical();
            assert!(
                line.contains(&format!("\"ev\":\"{kind}\"")),
                "{line} missing kind {kind}"
            );
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn floats_use_shortest_roundtrip_display() {
        let line = rec(TraceEvent::SensorPlaced {
            x: 0.1,
            y: 33.0,
            benefit: 1,
            agent: 0,
        })
        .canonical();
        assert!(line.contains("\"x\":0.1,"), "{line}");
        assert!(line.contains("\"y\":33,"), "{line}");
    }

    #[test]
    fn non_finite_floats_become_null() {
        let line = rec(TraceEvent::SensorPlaced {
            x: f64::NAN,
            y: f64::INFINITY,
            benefit: 0,
            agent: 0,
        })
        .canonical();
        assert!(line.contains("\"x\":null,\"y\":null"), "{line}");
    }

    #[test]
    fn chaos_variants_serialize_canonically() {
        assert_eq!(
            rec(TraceEvent::ChaosCrash { node: 9 }).canonical(),
            r#"{"seq":3,"t":17,"ev":"chaos_crash","node":9}"#
        );
        assert_eq!(
            rec(TraceEvent::ChaosHeal).canonical(),
            r#"{"seq":3,"t":17,"ev":"chaos_heal"}"#
        );
        assert_eq!(
            rec(TraceEvent::ChaosDrain {
                node: 2,
                amount: 0.5
            })
            .canonical(),
            r#"{"seq":3,"t":17,"ev":"chaos_drain","node":2,"amount":0.5}"#
        );
    }

    #[test]
    fn rotation_variants_serialize_canonically() {
        assert_eq!(
            rec(TraceEvent::ShiftBegin { shift: 2, awake: 5 }).canonical(),
            r#"{"seq":3,"t":17,"ev":"shift_begin","shift":2,"awake":5}"#
        );
        assert_eq!(
            rec(TraceEvent::ShiftEnd { shift: 1 }).canonical(),
            r#"{"seq":3,"t":17,"ev":"shift_end","shift":1}"#
        );
        assert_eq!(
            rec(TraceEvent::NodeSleep { node: 7 }).canonical(),
            r#"{"seq":3,"t":17,"ev":"node_sleep","node":7}"#
        );
        assert_eq!(
            rec(TraceEvent::NodeWake { node: 7 }).canonical(),
            r#"{"seq":3,"t":17,"ev":"node_wake","node":7}"#
        );
        assert_eq!(
            rec(TraceEvent::BatteryDrain {
                node: 7,
                amount: 12.25
            })
            .canonical(),
            r#"{"seq":3,"t":17,"ev":"battery_drain","node":7,"amount":12.25}"#
        );
    }

    #[test]
    fn identical_records_have_identical_lines() {
        let a = rec(TraceEvent::CoverageDelta { below_target: 2 });
        let b = a.clone();
        assert_eq!(a.canonical(), b.canonical());
    }
}
