//! Differential tier for the reliable transport: [`Transport`] against a
//! frozen reference implementation.
//!
//! The reference below is the transport as it was before the last-flight
//! table: four sorted-vec `LinkMap`s keyed by directed link (`next_seq`,
//! the receiver's `seen` watermark, the `busy` set and the `waiting`
//! queues). Its code is kept unchanged as the oracle, leaving out only the
//! `config`, `flush`, `flush_chaos` and `send_now` wrappers no script
//! calls. The table must reproduce it bit for bit: the same outcomes,
//! inbox, statistics and clock after every flush, and the same traffic
//! counters and trace on the medium, over scripts of repeated sends,
//! flushes, node failures, chaos plans and a reset.

use decor_geom::{Aabb, Point};
use decor_net::{
    ChaosEngine, DeliveryOutcome, FaultEvent, FaultKind, FaultPlan, Message, MsgId, Network,
    NodeId, Transport, TransportConfig,
};
use decor_trace::TraceHandle;
use proptest::prelude::*;

mod reference {
    use decor_net::{
        ChaosEngine, DeliveryOutcome, EventQueue, Inbound, Message, MsgId, Network, NodeId,
        SendError, Time, TransportConfig, TransportStats,
    };
    use decor_trace::TraceEvent;
    use std::collections::VecDeque;

    /// One in-flight (or finished) reliable message.
    #[derive(Clone, Debug)]
    struct Flight {
        from: NodeId,
        to: NodeId,
        msg: Message,
        seq: u64,
        attempts: u32,
        done: bool,
    }

    /// A map keyed by directed link `(from, to)`, stored as a sorted vec with
    /// binary-search lookups. Same contract as the `BTreeMap` it replaced
    /// (unique keys, key order), but `clear` keeps the backing capacity, so a
    /// pooled transport's per-link state reaches a zero-allocation steady
    /// state instead of rebuilding a tree node per link per run.
    #[derive(Debug)]
    struct LinkMap<V> {
        entries: Vec<((NodeId, NodeId), V)>,
    }

    impl<V> LinkMap<V> {
        fn new() -> Self {
            LinkMap {
                entries: Vec::new(),
            }
        }

        fn clear(&mut self) {
            self.entries.clear();
        }

        fn idx(&self, link: (NodeId, NodeId)) -> Result<usize, usize> {
            self.entries.binary_search_by_key(&link, |&(k, _)| k)
        }

        fn get_mut(&mut self, link: (NodeId, NodeId)) -> Option<&mut V> {
            match self.idx(link) {
                Ok(i) => Some(&mut self.entries[i].1),
                Err(_) => None,
            }
        }

        /// The value under `link`, inserting `default` first when absent.
        fn entry_or(&mut self, link: (NodeId, NodeId), default: V) -> &mut V {
            let i = match self.idx(link) {
                Ok(i) => i,
                Err(i) => {
                    self.entries.insert(i, (link, default));
                    i
                }
            };
            &mut self.entries[i].1
        }

        /// Set-style insert (for `LinkMap<()>`): true when newly added.
        fn insert(&mut self, link: (NodeId, NodeId)) -> bool
        where
            V: Default,
        {
            match self.idx(link) {
                Ok(_) => false,
                Err(i) => {
                    self.entries.insert(i, (link, V::default()));
                    true
                }
            }
        }

        fn remove(&mut self, link: (NodeId, NodeId)) {
            if let Ok(i) = self.idx(link) {
                self.entries.remove(i);
            }
        }
    }

    /// The reliable-delivery layer. One instance serves any number of links;
    /// per-link state (sequence counters, receiver dedup windows) is keyed by
    /// the directed pair `(from, to)`.
    ///
    /// Deterministic: retry timing comes from the [`EventQueue`] (stable FIFO
    /// ties), loss decisions from the network's seeded stream, and all state
    /// lives in ordered maps.
    pub struct Transport {
        cfg: TransportConfig,
        clock: EventQueue<MsgId>,
        flights: Vec<Flight>,
        next_seq: LinkMap<u64>,
        /// Receiver-side dedup: the latest seq delivered up, per directed
        /// link. A watermark suffices for a full set because per-link FIFO
        /// means only the single in-flight (not yet concluded) message ever
        /// transmits, and flights on a link launch in strictly increasing
        /// seq order — so arrivals per link are monotone in seq, repeating
        /// only the current one (retransmissions after a lost ack).
        seen: LinkMap<u64>,
        /// Directed links with a flight currently in the air.
        busy: LinkMap<()>,
        /// Sends waiting for their link to free up, FIFO per directed link.
        /// Drained entries are kept (an empty queue behaves like an absent
        /// one) so their deque capacity survives for the next burst.
        waiting: LinkMap<VecDeque<MsgId>>,
        /// Application-plane deliveries at receivers, in arrival order.
        inbox: Vec<Inbound>,
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
                next_seq: LinkMap::new(),
                seen: LinkMap::new(),
                busy: LinkMap::new(),
                waiting: LinkMap::new(),
                inbox: Vec::new(),
                finished: Vec::new(),
                stats: TransportStats::default(),
            }
        }

        /// Returns the transport to the state of `Transport::new(cfg)`,
        /// keeping the flight vector, event-queue heap, inbox buffers and
        /// the flat per-link maps allocated. A reset transport behaves
        /// bit-identically to a freshly constructed one.
        pub fn reset(&mut self, cfg: TransportConfig) {
            cfg.validate();
            self.cfg = cfg;
            self.clock.reset();
            self.flights.clear();
            self.next_seq.clear();
            self.seen.clear();
            self.busy.clear();
            self.waiting.clear();
            self.inbox.clear();
            self.finished.clear();
            self.stats = TransportStats::default();
        }

        /// Enqueues `msg` for reliable delivery `from → to`. Nothing hits the
        /// air until [`Transport::flush`] drives the event clock. Returns the
        /// handle under which `flush` will report the outcome.
        ///
        /// Sends on one directed link are strictly FIFO: a message waits until
        /// every earlier message on the same link has reached its terminal
        /// outcome, so retransmissions never reorder the application stream.
        pub fn send(&mut self, from: NodeId, to: NodeId, msg: Message) -> MsgId {
            let seq_slot = self.next_seq.entry_or((from, to), 0);
            let seq = *seq_slot;
            *seq_slot += 1;
            let id = self.flights.len();
            self.flights.push(Flight {
                from,
                to,
                msg,
                seq,
                attempts: 0,
                done: false,
            });
            self.stats.sent += 1;
            if self.busy.insert((from, to)) {
                self.clock.schedule_after(0, id);
            } else {
                self.waiting
                    .entry_or((from, to), VecDeque::new())
                    .push_back(id);
            }
            id
        }

        /// [`Transport::flush`] into a caller-owned buffer (cleared first),
        /// preserving both the buffer's and the internal conclusion list's
        /// capacity — round loops flush every round, and `mem::take` would
        /// regrow both from scratch each time.
        pub fn flush_into(&mut self, net: &mut Network, out: &mut Vec<(MsgId, DeliveryOutcome)>) {
            while let Some((_, id)) = self.clock.pop() {
                self.attempt(net, id);
            }
            out.clear();
            out.append(&mut self.finished);
        }

        /// [`Transport::flush_chaos`] into a caller-owned buffer (cleared
        /// first); see [`Transport::flush_into`].
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

        /// Drains the application-plane inbox: every message delivered up at a
        /// receiver since the last take, in arrival order. Each `(link, seq)`
        /// appears at most once ever (duplicates are suppressed below this
        /// surface), and per directed link the sequence numbers are strictly
        /// increasing — the FIFO discipline forbids reordering.
        pub fn take_inbox(&mut self) -> Vec<Inbound> {
            std::mem::take(&mut self.inbox)
        }

        fn conclude(&mut self, id: MsgId, outcome: DeliveryOutcome) {
            self.flights[id].done = true;
            match outcome {
                DeliveryOutcome::Delivered { .. } => self.stats.delivered += 1,
                DeliveryOutcome::GaveUp { .. } => self.stats.gave_up += 1,
                DeliveryOutcome::PeerDown => self.stats.peer_down += 1,
            }
            self.finished.push((id, outcome));
            // The link is free again: launch the next queued send, if any.
            // (The drained waiting entry stays — empty ≡ absent — so its
            // deque keeps its capacity for the link's next burst.)
            let link = (self.flights[id].from, self.flights[id].to);
            let next = self.waiting.get_mut(link).and_then(VecDeque::pop_front);
            match next {
                Some(next_id) => self.clock.schedule_after(0, next_id),
                None => self.busy.remove(link),
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
                // attempts = 1 → wait base; 2 → 2·base; … (shift capped well
                // below overflow).
                let exp = (attempts - 1).min(32);
                self.clock
                    .schedule_after((self.cfg.backoff_base << exp) + extra_latency, id);
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
                    // Data arrived: deliver up unless this seq was seen before
                    // (retransmission after a lost ack). Per-link arrivals are
                    // monotone in seq (see the `seen` field doc), so equality
                    // against the watermark is the full dedup test.
                    let first_arrival = match self.seen.get_mut((from, to)) {
                        Some(w) if *w == seq => false,
                        Some(w) => {
                            debug_assert!(seq > *w, "non-monotone arrival on link");
                            *w = seq;
                            true
                        }
                        None => {
                            self.seen.entry_or((from, to), seq);
                            true
                        }
                    };
                    if first_arrival {
                        self.inbox.push(Inbound { from, to, seq, msg });
                    } else {
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
}

/// Every traffic counter the network keeps, per node and in aggregate.
/// Energy is compared by bit pattern: both transports must charge the
/// same floating-point sums in the same order.
fn counters(net: &Network) -> (Vec<(u64, u64, u64)>, [u64; 5]) {
    let per_node = (0..net.len())
        .map(|id| {
            (
                net.stats.sent_by(id),
                net.stats.received_by(id),
                net.stats.energy_of(id).to_bits(),
            )
        })
        .collect();
    let s = &net.stats;
    (
        per_node,
        [
            s.total_sent,
            s.maintenance_sent,
            s.protocol_sent,
            s.retries_sent,
            s.acks_sent,
        ],
    )
}

/// One step of a script, driven into both transports.
#[derive(Clone, Debug)]
enum Step {
    /// One send per pick, on a link drawn from the script's link pool.
    Send(Vec<prop::sample::Index>),
    /// Runs both clocks until every send concluded, through the chaos
    /// engines when `chaos` is set and the script has a plan.
    Flush { chaos: bool },
    /// A node dies between flushes.
    Fail(prop::sample::Index),
    /// Both transports return to their initial state, flights pending or
    /// not.
    Reset,
}

/// A script step from a generated `(kind, picks)` pair: sends are the
/// most common step, so links queue several sends deep between flushes.
fn step(kind: u32, picks: Vec<prop::sample::Index>) -> Step {
    match kind {
        0..=4 => Step::Send(picks),
        5 | 6 => Step::Flush { chaos: false },
        7 => Step::Flush { chaos: true },
        _ => Step::Fail(picks[0]),
    }
}

/// The reference and the table side by side, each with its own network
/// copy, chaos engine and trace.
struct Pair<'a> {
    oracle: reference::Transport,
    oracle_net: Network,
    oracle_chaos: Option<ChaosEngine<'a>>,
    oracle_trace: TraceHandle,
    table: Transport,
    net: Network,
    chaos: Option<ChaosEngine<'a>>,
    trace: TraceHandle,
}

impl Pair<'_> {
    fn new(net: Network, cfg: TransportConfig, plan: Option<&FaultPlan>) -> Pair<'_> {
        let mut oracle_net = net.clone();
        let mut net = net;
        let (oracle_trace, trace) = (TraceHandle::jsonl_writer(), TraceHandle::jsonl_writer());
        oracle_net.set_trace(oracle_trace.clone());
        net.set_trace(trace.clone());
        Pair {
            oracle: reference::Transport::new(cfg),
            oracle_net,
            oracle_chaos: plan.map(ChaosEngine::borrowed),
            oracle_trace,
            table: Transport::new(cfg),
            net,
            chaos: plan.map(ChaosEngine::borrowed),
            trace,
        }
    }

    fn send(&mut self, from: NodeId, to: NodeId) -> MsgId {
        let msg = Message::PlacementNotice {
            pos: Point::new(from as f64, to as f64),
        };
        let id = self.table.send(from, to, msg);
        assert_eq!(id, self.oracle.send(from, to, msg), "send handles");
        id
    }

    /// Flushes both sides and compares everything observable.
    fn flush(&mut self, chaos: bool) -> Vec<(MsgId, DeliveryOutcome)> {
        let (mut got, mut expected) = (Vec::new(), Vec::new());
        match (chaos, self.chaos.as_mut(), self.oracle_chaos.as_mut()) {
            (true, Some(c), Some(oc)) => {
                self.table.flush_chaos_into(&mut self.net, c, &mut got);
                self.oracle
                    .flush_chaos_into(&mut self.oracle_net, oc, &mut expected);
            }
            _ => {
                self.table.flush_into(&mut self.net, &mut got);
                self.oracle.flush_into(&mut self.oracle_net, &mut expected);
            }
        }
        assert_eq!(got, expected, "outcomes");
        assert_eq!(self.table.take_inbox(), self.oracle.take_inbox(), "inbox");
        assert_eq!(self.table.stats, self.oracle.stats, "transport stats");
        assert_eq!(self.table.now(), self.oracle.now(), "clock");
        assert_eq!(counters(&self.net), counters(&self.oracle_net), "net stats");
        assert_eq!(self.net.alive_ids(), self.oracle_net.alive_ids());
        assert_eq!(self.trace.jsonl(), self.oracle_trace.jsonl(), "trace");
        got
    }

    fn fail(&mut self, id: NodeId) {
        self.net.fail_node(id);
        self.oracle_net.fail_node(id);
    }

    fn reset(&mut self, cfg: TransportConfig) {
        self.table.reset(cfg);
        self.oracle.reset(cfg);
    }
}

/// Far corners, more than 15 apart from each other and from the cluster
/// square `[0, 40)²`, so at `rc <= 15` a node placed there hears nobody.
const ISOLATED: [(f64, f64); 2] = [(99.0, 99.0), (99.0, 78.0)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The last-flight table and the link-map oracle agree on every
    /// flush of a random script.
    #[test]
    fn transport_matches_the_link_map_oracle(
        cluster in prop::collection::vec((0.0..40.0f64, 0.0..40.0f64), 2..14),
        n_isolated in 0usize..3,
        rc in 5.0..15.0f64,
        dead in prop::collection::vec(any::<prop::sample::Index>(), 0..3),
        loss_pct in 0u32..86,
        loss_seed in any::<u64>(),
        max_retries in 0u32..7,
        backoff_base in 1u64..7,
        links in prop::collection::vec((any::<prop::sample::Index>(), any::<prop::sample::Index>()), 1..10),
        steps in prop::collection::vec((0u32..9, prop::collection::vec(any::<prop::sample::Index>(), 1..9)), 1..14),
        reset_at in any::<prop::sample::Index>(),
        chaos_mode in 0u32..3,
        chaos_seed in any::<u64>(),
        fault_picks in prop::collection::vec((0u64..1_500, any::<prop::sample::Index>(), any::<prop::sample::Index>()), 3..4),
    ) {
        let mut net = Network::new(Aabb::square(100.0));
        for &(x, y) in &cluster {
            net.add_node(Point::new(x, y), rc / 2.0, rc);
        }
        for &(x, y) in &ISOLATED[..n_isolated] {
            net.add_node(Point::new(x, y), rc / 2.0, rc);
        }
        let n = net.len();
        for pick in &dead {
            net.fail_node(pick.index(n));
        }
        if loss_pct > 0 {
            net.set_loss(loss_pct as f64 / 100.0, loss_seed);
        }
        // Id `n` names no node: its sends and receipts fail fast.
        let links: Vec<(NodeId, NodeId)> =
            links.iter().map(|(a, b)| (a.index(n + 1), b.index(n + 1))).collect();

        let horizon = 1_500;
        let plan = match chaos_mode {
            0 => None,
            1 => Some(FaultPlan::generate(chaos_seed, n, horizon)),
            _ => {
                // A crash, a blackhole, a partition and a latency spike,
                // each but the crash lifted again.
                let (at, a, b) = fault_picks[0];
                let (a, b) = (a.index(n), b.index(n));
                let (at2, c, _) = fault_picks[1];
                let side_a: Vec<NodeId> = (0..n).filter(|&id| (id + c.index(n)) % 2 == 0).collect();
                let (at3, _, _) = fault_picks[2];
                Some(FaultPlan::new(vec![
                    FaultEvent { at, kind: FaultKind::Crash { node: a } },
                    FaultEvent { at: at / 2, kind: FaultKind::Blackhole { from: b, to: a } },
                    FaultEvent { at: at / 2 + 200, kind: FaultKind::Unblackhole { from: b, to: a } },
                    FaultEvent { at: at2, kind: FaultKind::Partition { side_a } },
                    FaultEvent { at: at2 + 150, kind: FaultKind::Heal },
                    FaultEvent { at: at3, kind: FaultKind::Latency { extra: 9 } },
                    FaultEvent { at: at3 + 300, kind: FaultKind::Latency { extra: 0 } },
                ]))
            }
        };

        let cfg = TransportConfig { max_retries, backoff_base };
        let mut pair = Pair::new(net, cfg, plan.as_ref());
        let mut script: Vec<Step> = steps.into_iter().map(|(k, p)| step(k, p)).collect();
        script.insert(reset_at.index(script.len() + 1), Step::Reset);
        script.push(Step::Flush { chaos: true });
        for s in script {
            match s {
                Step::Send(picks) => {
                    for pick in picks {
                        let (from, to) = links[pick.index(links.len())];
                        pair.send(from, to);
                    }
                }
                Step::Flush { chaos } => {
                    pair.flush(chaos);
                }
                Step::Fail(pick) => pair.fail(pick.index(n)),
                Step::Reset => pair.reset(cfg),
            }
        }
    }
}

/// A fixed script that reaches every path the proptest relies on: queues
/// several sends deep, duplicates after lost acks, give-ups, a peer that
/// dies between flushes, a chaos crash mid-retry and a reset with flights
/// still queued.
#[test]
fn oracle_agrees_on_deep_queues_losses_crashes_and_a_reset() {
    let mut net = Network::new(Aabb::square(100.0));
    for i in 0..5 {
        net.add_node(Point::new(10.0 + i as f64 * 4.0, 10.0), 4.0, 8.0);
    }
    net.set_loss(0.45, 19);
    let plan = FaultPlan::new(vec![FaultEvent {
        at: 40,
        kind: FaultKind::Crash { node: 4 },
    }]);
    let cfg = TransportConfig {
        max_retries: 3,
        backoff_base: 2,
    };
    let mut pair = Pair::new(net, cfg, Some(&plan));
    let mut outcomes = Vec::new();
    for round in 0..6 {
        for _ in 0..6 {
            pair.send(0, 1);
            pair.send(1, 0);
            pair.send(2, 4);
        }
        pair.send(3, 2);
        if round == 2 {
            pair.fail(3);
        }
        outcomes.extend(pair.flush(round % 2 == 1));
    }
    let stats = pair.oracle.stats;
    assert!(stats.duplicates_suppressed > 0, "{stats:?}");
    assert!(stats.gave_up > 0, "{stats:?}");
    assert!(stats.peer_down > 0, "{stats:?}");
    assert!(!pair.net.is_alive(4), "the chaos crash fired");
    let delivered = outcomes.iter().filter(|(_, o)| o.is_delivered()).count();
    assert!(delivered > 50, "{delivered} delivered");

    for _ in 0..5 {
        pair.send(0, 1);
    }
    pair.reset(cfg);
    for _ in 0..3 {
        pair.send(0, 1);
        pair.send(1, 2);
    }
    let after_reset = pair.flush(false);
    assert_eq!(after_reset.len(), 6, "queued sends die with the reset");
    assert_eq!(pair.oracle.stats.sent, 6);
}
