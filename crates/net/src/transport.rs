//! Reliable message delivery over the lossy [`Network`] medium.
//!
//! The paper's border-correctness argument (§3.2–3.3) assumes placement
//! notices between neighboring cells actually arrive; on a lossy medium a
//! fire-and-forget unicast silently desynchronizes the cells' coverage
//! views. This module adds the missing link layer:
//!
//! - **sequence numbers** per directed link `(from, to)`;
//! - **acknowledgements** ([`Message::Ack`]) from the receiver;
//! - **bounded retransmissions** with deterministic exponential backoff,
//!   scheduled on the discrete-event [`EventQueue`] (the retry instant
//!   saturates, so no backoff base can wrap the clock);
//! - **duplicate suppression** at the receiver (a retransmission whose
//!   original arrived — e.g. because only the ack was lost — is counted
//!   as a duplicate, not as a second arrival);
//! - **per-link FIFO**: each directed link keeps at most one message in
//!   the air; later sends on the same link wait for the earlier one to
//!   conclude, so a link's messages conclude in send order — a
//!   retransmission can never leapfrog a younger message;
//! - a terminal [`DeliveryOutcome`] per message: delivered, gave up after
//!   the retry budget, or peer down/unreachable.
//!
//! There is no application plane: a caller learns what arrived from the
//! outcomes [`Transport::flush_into`] reports. The placers write each
//! notice's outcome into their knowledge ledger, and the shift agreement
//! does the same for its assignments.
//!
//! Every physical transmission (first attempt, retry, ack) goes through
//! [`Network::unicast`], so it is charged energy and counted in
//! [`crate::NetStats`] — the Fig. 10 messages-per-cell proxy stays honest
//! about what reliability costs.
//! [`NetStats::retries_sent`](crate::NetStats::retries_sent) and
//! [`NetStats::acks_sent`](crate::NetStats::acks_sent) separate the repair
//! traffic from first transmissions.
//!
//! ```
//! use decor_geom::{Aabb, Point};
//! use decor_net::{DeliveryOutcome, Message, Network, Transport, TransportConfig};
//!
//! let mut net = Network::new(Aabb::square(100.0));
//! let a = net.add_node(Point::new(10.0, 10.0), 4.0, 8.0);
//! let b = net.add_node(Point::new(15.0, 10.0), 4.0, 8.0);
//! net.set_loss(0.3, 7);
//! let mut tr = Transport::new(TransportConfig::default());
//! let id = tr.send(a, b, Message::PlacementNotice { pos: Point::ORIGIN });
//! let mut outcomes = Vec::new();
//! tr.flush_into(&mut net, &mut outcomes);
//! assert_eq!(outcomes.len(), 1);
//! assert_eq!(outcomes[0].0, id);
//! assert!(matches!(outcomes[0].1, DeliveryOutcome::Delivered { .. }));
//! ```

use crate::chaos::ChaosEngine;
use crate::event::{EventQueue, Time};
use crate::messages::Message;
use crate::network::{Network, SendError};
use crate::node::NodeId;
use decor_trace::TraceEvent;
use std::num::NonZeroUsize;

/// Reliability knobs of the transport layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TransportConfig {
    /// Maximum retransmissions after the first attempt. A message makes at
    /// most `1 + max_retries` trips onto the air before the sender gives
    /// up. With per-trip loss `p` the residual give-up probability is
    /// roughly `p^(1 + max_retries)` (ack losses push it slightly higher).
    pub max_retries: u32,
    /// Ticks before the first retransmission; doubles on every further
    /// retry (deterministic exponential backoff: `base, 2·base, 4·base…`).
    pub backoff_base: Time,
}

impl Default for TransportConfig {
    fn default() -> Self {
        // 8 retries survive 30% loss with residual failure ~2e-5 per
        // message; base 4 keeps backoff spans short on the tick clock.
        TransportConfig {
            max_retries: 8,
            backoff_base: 4,
        }
    }
}

impl TransportConfig {
    /// Validates the knobs; [`Transport::new`] calls this.
    pub fn validate(&self) {
        assert!(self.backoff_base > 0, "backoff base must be positive");
    }
}

/// Terminal fate of a reliably-sent message, from the sender's viewpoint.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryOutcome {
    /// The receiver acknowledged the message. `attempts` counts data
    /// transmissions including the successful one.
    Delivered {
        /// Data transmissions used (1 = first try).
        attempts: u32,
    },
    /// The retry budget ran out without an acknowledgement. Note the data
    /// may still have arrived (only the acks lost); the *sender* cannot
    /// distinguish the two, and neither does this outcome.
    GaveUp {
        /// Data transmissions used (`1 + max_retries`).
        attempts: u32,
    },
    /// The peer (or the sender itself) is down or out of range — no amount
    /// of retrying helps, so the transport fails fast.
    PeerDown,
}

impl DeliveryOutcome {
    /// True only for [`DeliveryOutcome::Delivered`].
    pub fn is_delivered(&self) -> bool {
        matches!(self, DeliveryOutcome::Delivered { .. })
    }
}

/// Aggregate transport-layer statistics (complementing [`crate::NetStats`],
/// which counts physical transmissions).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TransportStats {
    /// Messages handed to [`Transport::send`].
    pub sent: u64,
    /// Data transmissions, including retransmissions.
    pub data_transmissions: u64,
    /// Retransmissions only.
    pub retries: u64,
    /// Acknowledgement transmissions attempted by receivers.
    pub acks: u64,
    /// Data frames that arrived more than once and were suppressed at the
    /// receiver (their redundant trips still cost energy).
    pub duplicates_suppressed: u64,
    /// Messages concluded [`DeliveryOutcome::Delivered`].
    pub delivered: u64,
    /// Messages concluded [`DeliveryOutcome::GaveUp`].
    pub gave_up: u64,
    /// Messages concluded [`DeliveryOutcome::PeerDown`].
    pub peer_down: u64,
}

/// Handle identifying a message passed to [`Transport::send`], echoed back
/// with its [`DeliveryOutcome`] by [`Transport::flush_into`].
pub type MsgId = usize;

/// One in-flight (or finished) reliable message.
#[derive(Clone, Debug)]
struct Flight {
    from: NodeId,
    to: NodeId,
    msg: Message,
    seq: u64,
    attempts: u32,
    done: bool,
    /// The data frame arrived once; any later arrival is a
    /// retransmission after a lost ack.
    arrived: bool,
    /// The send queued behind this one on its link, launched when this
    /// one concludes. Its id is larger than this flight's, so never 0,
    /// and the `Option` takes no space of its own.
    next: Option<NonZeroUsize>,
}

/// The reliable-delivery layer. One instance serves any number of links,
/// each a directed pair `(from, to)` of node ids.
///
/// Per-link state is one table: row `from` holds, sorted by receiver,
/// the last flight sent on each link `from → to`. Everything else lives
/// on the flights. A send's `seq` is its link's last flight's plus one.
/// The link is busy while that flight has not concluded; the send then
/// queues behind it as its `next` and launches when it concludes, so the
/// flights of a link form one FIFO chain and only its head is airborne.
/// Hence "this `(link, seq)` arrived before" is "this flight arrived
/// before", and a per-flight flag is the receiver's whole dedup state.
///
/// Deterministic: retry timing comes from the [`EventQueue`] (stable FIFO
/// ties), loss decisions from the network's seeded stream, and the link
/// rows are sorted vectors.
pub struct Transport {
    cfg: TransportConfig,
    clock: EventQueue<MsgId>,
    flights: Vec<Flight>,
    /// `last[from]`: `(to, last flight on from → to)`, sorted by `to`.
    last: Vec<Vec<(NodeId, MsgId)>>,
    finished: Vec<(MsgId, DeliveryOutcome)>,
    /// Aggregate statistics, publicly readable.
    pub stats: TransportStats,
}

impl Transport {
    /// A transport with the given reliability knobs.
    pub fn new(cfg: TransportConfig) -> Self {
        cfg.validate();
        Transport {
            cfg,
            clock: EventQueue::new(),
            flights: Vec::new(),
            last: Vec::new(),
            finished: Vec::new(),
            stats: TransportStats::default(),
        }
    }

    /// Returns the transport to the state of `Transport::new(cfg)`,
    /// keeping the flight vector, event-queue heap, conclusion list and
    /// the link rows allocated. A reset transport behaves
    /// bit-identically to a freshly constructed one.
    pub fn reset(&mut self, cfg: TransportConfig) {
        cfg.validate();
        self.cfg = cfg;
        self.clock.reset();
        self.flights.clear();
        self.last.iter_mut().for_each(Vec::clear);
        self.finished.clear();
        self.stats = TransportStats::default();
    }

    /// Enqueues `msg` for reliable delivery `from → to`. Nothing hits the
    /// air until [`Transport::flush_into`] drives the event clock. Returns
    /// the handle under which the flush will report the outcome.
    ///
    /// Sends on one directed link are strictly FIFO: a message waits until
    /// every earlier message on the same link has reached its terminal
    /// outcome, so retransmissions never reorder a link's messages.
    /// `from` indexes a row of the link table, so ids are expected to be
    /// dense, as [`Network::add_node`] hands them out.
    pub fn send(&mut self, from: NodeId, to: NodeId, msg: Message) -> MsgId {
        let id = self.flights.len();
        if self.last.len() <= from {
            self.last.resize_with(from + 1, Vec::new);
        }
        let row = &mut self.last[from];
        let prev = match row.binary_search_by_key(&to, |&(r, _)| r) {
            Ok(i) => Some(std::mem::replace(&mut row[i].1, id)),
            Err(i) => {
                row.insert(i, (to, id));
                None
            }
        };
        self.flights.push(Flight {
            from,
            to,
            msg,
            seq: prev.map_or(0, |p| self.flights[p].seq + 1),
            attempts: 0,
            done: false,
            arrived: false,
            next: None,
        });
        self.stats.sent += 1;
        match prev {
            Some(p) if !self.flights[p].done => self.flights[p].next = NonZeroUsize::new(id),
            _ => self.clock.schedule_after(0, id),
        }
        id
    }

    /// Runs the event clock until every enqueued message reaches a terminal
    /// state, then fills `out` (cleared first) with the `(handle, outcome)`
    /// pairs concluded since the last flush, in conclusion order. Both the
    /// buffer's and the internal conclusion list's capacity survive, since
    /// round loops flush every round.
    pub fn flush_into(&mut self, net: &mut Network, out: &mut Vec<(MsgId, DeliveryOutcome)>) {
        while let Some((_, id)) = self.clock.pop() {
            self.attempt(net, id);
        }
        out.clear();
        out.append(&mut self.finished);
    }

    /// Like [`Transport::flush_into`], but interleaves a [`ChaosEngine`]
    /// with the retry clock: before every pop, all faults due at or before
    /// the popped instant are injected. A scripted crash therefore lands
    /// *between retries* of an in-flight message — the attempt after it
    /// concludes [`DeliveryOutcome::PeerDown`], exactly as a mid-exchange
    /// death behaves on the real medium. With an exhausted (or empty)
    /// plan this is byte-for-byte `flush_into`.
    pub fn flush_chaos_into(
        &mut self,
        net: &mut Network,
        chaos: &mut ChaosEngine,
        out: &mut Vec<(MsgId, DeliveryOutcome)>,
    ) {
        while let Some(t) = self.clock.peek_time() {
            chaos.advance_to(net, t);
            let (_, id) = self.clock.pop().expect("peeked event is poppable");
            self.attempt(net, id);
        }
        out.clear();
        out.append(&mut self.finished);
    }

    /// Current transport clock (ticks); advances as flushes retry.
    pub fn now(&self) -> Time {
        self.clock.now()
    }

    fn conclude(&mut self, id: MsgId, outcome: DeliveryOutcome) {
        self.flights[id].done = true;
        match outcome {
            DeliveryOutcome::Delivered { .. } => self.stats.delivered += 1,
            DeliveryOutcome::GaveUp { .. } => self.stats.gave_up += 1,
            DeliveryOutcome::PeerDown => self.stats.peer_down += 1,
        }
        self.finished.push((id, outcome));
        // The link is free again: launch the send queued behind this one.
        if let Some(next) = self.flights[id].next.map(NonZeroUsize::get) {
            // FIFO: the queued send has never flown and carries the next
            // seq, so a link's arrivals are monotone in seq.
            debug_assert!(
                self.flights[next].attempts == 0
                    && self.flights[next].seq == self.flights[id].seq + 1,
                "out-of-order launch on link"
            );
            self.clock.schedule_after(0, next);
        }
    }

    /// Retries `id` after exponential backoff (plus any chaos latency
    /// spike), or gives up once the budget is spent.
    fn retry_or_give_up(&mut self, id: MsgId, extra_latency: Time) {
        let attempts = self.flights[id].attempts;
        // The budget is 1 first try + max_retries retransmissions.
        if attempts > self.cfg.max_retries {
            self.conclude(id, DeliveryOutcome::GaveUp { attempts });
        } else {
            // attempts = 1 → wait base; 2 → 2·base; … Saturating, so a
            // huge base parks the retry at the end of time instead of
            // wrapping the clock.
            let exp = (attempts - 1).min(32);
            let wait = self
                .cfg
                .backoff_base
                .saturating_mul(1 << exp)
                .saturating_add(extra_latency);
            self.clock
                .schedule(self.clock.now().saturating_add(wait), id);
        }
    }

    /// One data transmission plus, on success, the receiver's ack.
    fn attempt(&mut self, net: &mut Network, id: MsgId) {
        if self.flights[id].done {
            return;
        }
        let Flight {
            from, to, msg, seq, ..
        } = self.flights[id];
        self.flights[id].attempts += 1;
        let attempts = self.flights[id].attempts;
        self.stats.data_transmissions += 1;
        // Transmissions happen on the transport clock; stamp trace events
        // (including the unicasts below) with it.
        net.trace().set_time(self.clock.now());
        if attempts > 1 {
            self.stats.retries += 1;
            net.stats.retries_sent += 1;
            net.trace().emit(TraceEvent::MsgRetry {
                from: from as u64,
                to: to as u64,
                seq,
                attempt: attempts as u64,
            });
        }
        match net.unicast(from, to, msg) {
            Ok(()) => {
                // Data arrived: a duplicate when this flight arrived
                // before (retransmission after a lost ack).
                if std::mem::replace(&mut self.flights[id].arrived, true) {
                    self.stats.duplicates_suppressed += 1;
                }
                // The receiver acknowledges every arrival, duplicate or
                // not — the sender is asking because it missed the ack.
                self.stats.acks += 1;
                match net.unicast(to, from, Message::Ack { seq }) {
                    Ok(()) => {
                        net.trace().emit(TraceEvent::MsgAck {
                            from: from as u64,
                            to: to as u64,
                            seq,
                        });
                        self.conclude(id, DeliveryOutcome::Delivered { attempts })
                    }
                    // Lost ack, asymmetric range, or a sender that died
                    // mid-exchange: the sender hears nothing and behaves
                    // exactly as if the data frame was lost.
                    Err(_) => self.retry_or_give_up(id, net.extra_latency()),
                }
            }
            Err(SendError::Lost) => self.retry_or_give_up(id, net.extra_latency()),
            Err(SendError::SenderDown | SendError::ReceiverDown | SendError::OutOfRange) => {
                self.conclude(id, DeliveryOutcome::PeerDown)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decor_geom::{Aabb, Point};

    fn pair_net() -> Network {
        let mut net = Network::new(Aabb::square(100.0));
        net.add_node(Point::new(10.0, 10.0), 4.0, 8.0);
        net.add_node(Point::new(15.0, 10.0), 4.0, 8.0);
        net
    }

    fn notice() -> Message {
        Message::PlacementNotice { pos: Point::ORIGIN }
    }

    fn flush(tr: &mut Transport, net: &mut Network) -> Vec<(MsgId, DeliveryOutcome)> {
        let mut out = Vec::new();
        tr.flush_into(net, &mut out);
        out
    }

    /// Sends one message and drives it to its terminal outcome.
    fn send_now(
        tr: &mut Transport,
        net: &mut Network,
        from: NodeId,
        to: NodeId,
        msg: Message,
    ) -> DeliveryOutcome {
        let id = tr.send(from, to, msg);
        let outcomes = flush(tr, net);
        outcomes
            .into_iter()
            .find(|&(mid, _)| mid == id)
            .map(|(_, o)| o)
            .expect("flush concludes every enqueued message")
    }

    fn flush_chaos(
        tr: &mut Transport,
        net: &mut Network,
        chaos: &mut crate::chaos::ChaosEngine,
    ) -> Vec<(MsgId, DeliveryOutcome)> {
        let mut out = Vec::new();
        tr.flush_chaos_into(net, chaos, &mut out);
        out
    }

    #[test]
    fn lossless_delivery_is_one_data_frame_plus_ack() {
        let mut net = pair_net();
        let mut tr = Transport::new(TransportConfig::default());
        let out = send_now(&mut tr, &mut net, 0, 1, notice());
        assert_eq!(out, DeliveryOutcome::Delivered { attempts: 1 });
        assert_eq!(net.stats.sent_by(0), 1);
        assert_eq!(net.stats.sent_by(1), 1, "the ack");
        assert_eq!(net.stats.acks_sent, 1);
        assert_eq!(net.stats.retries_sent, 0);
        assert_eq!(tr.stats.duplicates_suppressed, 0);
    }

    #[test]
    fn retries_punch_through_loss() {
        let mut net = pair_net();
        net.set_loss(0.3, 11);
        let mut tr = Transport::new(TransportConfig::default());
        let mut delivered = 0;
        for _ in 0..50 {
            if send_now(&mut tr, &mut net, 0, 1, notice()).is_delivered() {
                delivered += 1;
            }
        }
        // Per attempt both the data frame and the ack must survive
        // (p = 0.49); the give-up probability over 9 attempts is 0.51^9
        // ≈ 0.2%, so essentially everything gets through.
        assert!(
            delivered >= 48,
            "8 retries must beat 30% loss: {delivered}/50"
        );
        assert!(tr.stats.retries > 0, "loss must have forced retries");
        assert_eq!(net.stats.retries_sent, tr.stats.retries);
    }

    #[test]
    fn gives_up_after_bounded_attempts() {
        let mut net = pair_net();
        net.set_loss(0.999, 3);
        let cfg = TransportConfig {
            max_retries: 3,
            backoff_base: 2,
        };
        let mut tr = Transport::new(cfg);
        // With loss 0.999 a give-up is near-certain per message.
        let mut gave_up = 0;
        for _ in 0..10 {
            match send_now(&mut tr, &mut net, 0, 1, notice()) {
                DeliveryOutcome::GaveUp { attempts } => {
                    assert_eq!(attempts, 4, "1 first try + 3 retries");
                    gave_up += 1;
                }
                DeliveryOutcome::Delivered { attempts } => assert!(attempts <= 4),
                DeliveryOutcome::PeerDown => panic!("peers are up"),
            }
        }
        assert!(gave_up >= 9);
        assert!(tr.stats.gave_up >= 9);
    }

    #[test]
    fn backoff_schedule_is_exponential() {
        let mut net = pair_net();
        net.set_loss(0.999, 5);
        let cfg = TransportConfig {
            max_retries: 4,
            backoff_base: 4,
        };
        let mut tr = Transport::new(cfg);
        let t0 = tr.now();
        let out = send_now(&mut tr, &mut net, 0, 1, notice());
        // Give-up path visits every backoff step: 4 + 8 + 16 + 32 = 60.
        if matches!(out, DeliveryOutcome::GaveUp { .. }) {
            assert_eq!(tr.now() - t0, 60, "sum of base·2^i for i in 0..4");
        }
    }

    #[test]
    fn peer_down_fails_fast() {
        let mut net = pair_net();
        net.fail_node(1);
        let mut tr = Transport::new(TransportConfig::default());
        let out = send_now(&mut tr, &mut net, 0, 1, notice());
        assert_eq!(out, DeliveryOutcome::PeerDown);
        assert_eq!(net.stats.total_sent, 0, "no air time wasted on a corpse");
        // Out-of-range is equally terminal.
        let mut far = Network::new(Aabb::square(100.0));
        far.add_node(Point::new(10.0, 10.0), 4.0, 8.0);
        far.add_node(Point::new(50.0, 50.0), 4.0, 8.0);
        assert_eq!(
            send_now(&mut tr, &mut far, 0, 1, notice()),
            DeliveryOutcome::PeerDown
        );
    }

    #[test]
    fn duplicate_suppression_on_lost_acks() {
        // Force many exchanges over a lossy medium: whenever only the ack
        // is lost, the retransmitted data frame must be suppressed.
        let mut net = pair_net();
        net.set_loss(0.4, 21);
        let mut tr = Transport::new(TransportConfig::default());
        for _ in 0..200 {
            send_now(&mut tr, &mut net, 0, 1, notice());
        }
        assert!(
            tr.stats.duplicates_suppressed > 0,
            "40% loss over 200 messages must lose some acks: {:?}",
            tr.stats
        );
        // Dedup state is per-link and per-seq: every delivery was unique.
        assert_eq!(tr.stats.delivered + tr.stats.gave_up, 200);
    }

    #[test]
    fn sequence_numbers_are_per_link() {
        let mut net = Network::new(Aabb::square(100.0));
        for i in 0..3 {
            net.add_node(Point::new(10.0 + i as f64 * 3.0, 10.0), 4.0, 8.0);
        }
        let mut tr = Transport::new(TransportConfig::default());
        tr.send(0, 1, notice());
        tr.send(0, 2, notice());
        tr.send(0, 1, notice());
        tr.send(1, 0, notice());
        assert_eq!(tr.flights[0].seq, 0);
        assert_eq!(tr.flights[1].seq, 0, "distinct link starts at 0");
        assert_eq!(tr.flights[2].seq, 1);
        assert_eq!(tr.flights[3].seq, 0, "reverse direction is its own link");
        let outcomes = flush(&mut tr, &mut net);
        assert!(outcomes.iter().all(|(_, o)| o.is_delivered()));
    }

    #[test]
    fn batch_flush_reports_every_message_once() {
        let mut net = pair_net();
        net.set_loss(0.3, 9);
        let mut tr = Transport::new(TransportConfig::default());
        let ids: Vec<MsgId> = (0..20).map(|_| tr.send(0, 1, notice())).collect();
        let outcomes = flush(&mut tr, &mut net);
        let mut reported: Vec<MsgId> = outcomes.iter().map(|&(id, _)| id).collect();
        reported.sort_unstable();
        assert_eq!(reported, ids);
        assert!(
            flush(&mut tr, &mut net).is_empty(),
            "second flush reports nothing"
        );
    }

    #[test]
    fn transport_is_deterministic() {
        let run = || {
            let mut net = pair_net();
            net.set_loss(0.45, 77);
            let mut tr = Transport::new(TransportConfig::default());
            let outs: Vec<DeliveryOutcome> = (0..40)
                .map(|_| send_now(&mut tr, &mut net, 0, 1, notice()))
                .collect();
            (outs, tr.stats, net.stats.total_sent)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn retry_traffic_grows_with_loss() {
        let retries_at = |loss: f64| {
            let mut net = pair_net();
            if loss > 0.0 {
                net.set_loss(loss, 13);
            }
            let mut tr = Transport::new(TransportConfig::default());
            for _ in 0..100 {
                send_now(&mut tr, &mut net, 0, 1, notice());
            }
            tr.stats.retries
        };
        let r0 = retries_at(0.0);
        let r1 = retries_at(0.1);
        let r3 = retries_at(0.3);
        assert_eq!(r0, 0);
        assert!(r1 > 0);
        assert!(r3 > r1, "retries at 30% ({r3}) must exceed 10% ({r1})");
    }

    #[test]
    fn per_link_fifo_concludes_in_send_order_under_loss() {
        let mut net = pair_net();
        net.set_loss(0.4, 33);
        let mut tr = Transport::new(TransportConfig::default());
        let sent: Vec<MsgId> = (0..30).map(|_| tr.send(0, 1, notice())).collect();
        let concluded: Vec<MsgId> = flush(&mut tr, &mut net).iter().map(|&(id, _)| id).collect();
        assert_eq!(concluded, sent, "a retransmission leapfrogged a send");
        assert!(tr.stats.retries > 0, "40% loss must force retries");
    }

    #[test]
    fn only_one_flight_per_link_is_airborne() {
        // With FIFO, a second send on a busy link must not transmit until
        // the first concludes: sending two without flushing keeps exactly
        // one event scheduled.
        let mut net = pair_net();
        let mut tr = Transport::new(TransportConfig::default());
        tr.send(0, 1, notice());
        tr.send(0, 1, notice());
        assert_eq!(tr.clock.len(), 1, "second message waits for the link");
        tr.send(1, 0, notice());
        assert_eq!(tr.clock.len(), 2, "the reverse link is independent");
        let outcomes = flush(&mut tr, &mut net);
        assert_eq!(outcomes.len(), 3);
    }

    #[test]
    fn trace_records_retries_and_acks() {
        let mut net = pair_net();
        net.set_loss(0.4, 5);
        let trace = decor_trace::TraceHandle::counting();
        net.set_trace(trace.clone());
        let mut tr = Transport::new(TransportConfig::default());
        for _ in 0..40 {
            send_now(&mut tr, &mut net, 0, 1, notice());
        }
        let counts = trace.counts().unwrap();
        assert_eq!(
            counts.get("msg_retry").copied().unwrap_or(0),
            tr.stats.retries
        );
        assert_eq!(
            counts.get("msg_ack").copied().unwrap_or(0),
            tr.stats.delivered
        );
        assert_eq!(
            counts["msg_send"],
            tr.stats.data_transmissions + tr.stats.acks
        );
        assert!(counts["msg_drop"] > 0, "40% loss must drop frames");
    }

    #[test]
    fn chaos_crash_lands_between_retries() {
        use crate::chaos::{ChaosEngine, FaultEvent, FaultKind, FaultPlan};
        // Receiver dies at t=3, between the first attempt (t=0) and the
        // first retry (t=4): the retry must conclude PeerDown instead of
        // burning the rest of the budget.
        let mut net = pair_net();
        net.set_loss(0.999, 3);
        let mut tr = Transport::new(TransportConfig::default());
        let mut chaos = ChaosEngine::new(FaultPlan::new(vec![FaultEvent {
            at: 3,
            kind: FaultKind::Crash { node: 1 },
        }]));
        let id = tr.send(0, 1, notice());
        let outcomes = flush_chaos(&mut tr, &mut net, &mut chaos);
        assert_eq!(outcomes, vec![(id, DeliveryOutcome::PeerDown)]);
        assert!(!net.is_alive(1));
        assert!(chaos.is_exhausted());
        assert_eq!(chaos.take_crashed(), vec![1]);
    }

    #[test]
    fn chaos_latency_spike_stretches_backoff() {
        use crate::chaos::{ChaosEngine, FaultEvent, FaultKind, FaultPlan};
        let mut net = pair_net();
        net.set_loss(0.999, 3);
        let cfg = TransportConfig {
            max_retries: 2,
            backoff_base: 4,
        };
        // Nominal give-up path visits backoffs 4 + 8 = 12 ticks.
        let mut tr = Transport::new(cfg);
        tr.send(0, 1, notice());
        flush(&mut tr, &mut net);
        assert_eq!(tr.now(), 12);
        // A +10 spike from t=0 makes it (4+10) + (8+10) = 32.
        let mut net = pair_net();
        net.set_loss(0.999, 3);
        let mut tr = Transport::new(cfg);
        let mut chaos = ChaosEngine::new(FaultPlan::new(vec![FaultEvent {
            at: 0,
            kind: FaultKind::Latency { extra: 10 },
        }]));
        tr.send(0, 1, notice());
        flush_chaos(&mut tr, &mut net, &mut chaos);
        assert_eq!(tr.now(), 32);
    }

    #[test]
    fn flush_chaos_with_empty_plan_matches_flush() {
        use crate::chaos::{ChaosEngine, FaultPlan};
        let run = |use_chaos: bool| {
            let mut net = pair_net();
            net.set_loss(0.45, 77);
            let mut tr = Transport::new(TransportConfig::default());
            let mut chaos = ChaosEngine::new(FaultPlan::empty());
            let mut outs = Vec::new();
            for _ in 0..30 {
                tr.send(0, 1, notice());
                if use_chaos {
                    outs.extend(flush_chaos(&mut tr, &mut net, &mut chaos));
                } else {
                    outs.extend(flush(&mut tr, &mut net));
                }
            }
            (outs, tr.stats, net.stats.total_sent)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn huge_backoff_saturates_the_retry_instant() {
        // 2^62 << 2 overflows u64: the retry instant must saturate at the
        // end of time instead of wrapping the clock back towards zero.
        let mut net = pair_net();
        net.set_loss(0.5, 17);
        let mut tr = Transport::new(TransportConfig {
            max_retries: 8,
            backoff_base: 1 << 62,
        });
        let mut sent = Vec::new();
        let mut concluded = Vec::new();
        let mut now = tr.now();
        for batch in 0..12 {
            for i in 0..4 {
                let from = (batch + i) % 2;
                sent.push(tr.send(from, 1 - from, notice()));
            }
            concluded.extend(flush(&mut tr, &mut net).into_iter().map(|(id, _)| id));
            assert!(tr.now() >= now, "clock went back: {} -> {}", now, tr.now());
            now = tr.now();
        }
        assert_eq!(now, Time::MAX, "50% loss must reach a saturated retry");
        concluded.sort_unstable();
        assert_eq!(concluded, sent, "every message concludes exactly once");
        assert_eq!(tr.stats.delivered + tr.stats.gave_up, sent.len() as u64);

        // One give-up path: 2^62 + 2^63 ticks, then a wait of 2^64 that
        // saturates rather than losing its high bit to the shift.
        let mut net = pair_net();
        net.set_loss(0.999, 5);
        let mut tr = Transport::new(TransportConfig {
            max_retries: 3,
            backoff_base: 1 << 62,
        });
        let out = send_now(&mut tr, &mut net, 0, 1, notice());
        assert_eq!(out, DeliveryOutcome::GaveUp { attempts: 4 });
        assert_eq!(tr.now(), Time::MAX);
    }

    #[test]
    #[should_panic(expected = "backoff base must be positive")]
    fn zero_backoff_panics() {
        let _ = Transport::new(TransportConfig {
            max_retries: 1,
            backoff_base: 0,
        });
    }
}
