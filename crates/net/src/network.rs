//! The network fabric: node storage, neighbor lookup, range-checked
//! message delivery, and per-node message/energy accounting.
//!
//! A broadcast reads its receivers from the sender's *hearer row*: the
//! ids within the sender's `rc`, ascending, filled by one spatial-grid
//! query the first time the sender broadcasts and extended by
//! [`Network::add_node`] while any row is filled. A new node has the
//! largest id so far, so appending it keeps every row sorted, and
//! [`Network::fail_node`] is final, so readers skip dead ids instead of
//! editing rows. A network that never broadcasts (every placer's) fills
//! no row and pays nothing for the table. [`Network::neighbors_into`]
//! keeps the grid query.

use crate::energy;
use crate::event::Time;
use crate::messages::Message;
use crate::node::{Node, NodeId};
use decor_geom::{Aabb, GridIndex, Point};
use decor_trace::{TraceEvent, TraceHandle};
use std::collections::BTreeSet;

/// Per-node and aggregate traffic statistics.
///
/// Fig. 10 of the paper reports "messages per cell" as the energy proxy;
/// [`NetStats`] keeps the raw counters the harness aggregates into that
/// figure, split into protocol traffic (placement notices, elections,
/// reports) and maintenance traffic (heartbeats, hellos).
#[derive(Clone, Debug, Default)]
pub struct NetStats {
    sent: Vec<u64>,
    received: Vec<u64>,
    energy: Vec<f64>,
    /// Total messages sent (protocol + maintenance).
    pub total_sent: u64,
    /// Messages on the maintenance plane (heartbeats, hellos).
    pub maintenance_sent: u64,
    /// Messages of the restoration protocol itself.
    pub protocol_sent: u64,
    /// Retransmissions performed by the reliable transport. Each one is
    /// *also* counted in `total_sent` and its plane counter (a retry burns
    /// the same air time and energy as the original), so this counter lets
    /// analyses separate first transmissions from repair traffic.
    pub retries_sent: u64,
    /// Link-layer acknowledgements ([`Message::Ack`]). Acks ride the
    /// protocol plane (they acknowledge protocol traffic) and are also in
    /// `total_sent`/`protocol_sent`; this counter isolates them.
    pub acks_sent: u64,
}

impl NetStats {
    fn grow_to(&mut self, n: usize) {
        self.sent.resize(n, 0);
        self.received.resize(n, 0);
        self.energy.resize(n, 0.0);
    }

    /// Zeroes every counter, keeping the per-node vectors' capacity.
    fn reset(&mut self) {
        self.sent.clear();
        self.received.clear();
        self.energy.clear();
        self.total_sent = 0;
        self.maintenance_sent = 0;
        self.protocol_sent = 0;
        self.retries_sent = 0;
        self.acks_sent = 0;
    }

    /// Messages sent by node `id`.
    pub fn sent_by(&self, id: NodeId) -> u64 {
        self.sent.get(id).copied().unwrap_or(0)
    }

    /// Messages received by node `id`.
    pub fn received_by(&self, id: NodeId) -> u64 {
        self.received.get(id).copied().unwrap_or(0)
    }

    /// Energy consumed by node `id`.
    pub fn energy_of(&self, id: NodeId) -> f64 {
        self.energy.get(id).copied().unwrap_or(0.0)
    }
}

/// The splitmix64 output finalizer: a full-avalanche 64-bit mix, so inputs
/// differing in a single bit (adjacent seeds) diverge completely.
fn splitmix64_mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Error returned by [`Network::unicast`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SendError {
    /// Sender does not exist or has failed.
    SenderDown,
    /// Receiver does not exist or has failed.
    ReceiverDown,
    /// Receiver is beyond the sender's communication radius.
    OutOfRange,
    /// The packet was transmitted but lost in the air (lossy medium).
    /// The sender still paid transmission energy and counters.
    Lost,
}

/// A wireless sensor network: nodes plus the radio medium.
///
/// Geometry queries (neighbors, coverage candidates) go through an internal
/// spatial hash-grid of the *alive* nodes, so they stay O(1) expected even
/// with thousands of sensors.
///
/// ```
/// use decor_geom::{Aabb, Point};
/// use decor_net::{Message, Network};
///
/// let mut net = Network::new(Aabb::square(100.0));
/// let a = net.add_node(Point::new(10.0, 10.0), 4.0, 8.0);
/// let b = net.add_node(Point::new(15.0, 10.0), 4.0, 8.0);
/// assert_eq!(net.neighbors_of(a), vec![b]);
/// net.unicast(a, b, Message::Hello { pos: Point::new(10.0, 10.0) }).unwrap();
/// assert_eq!(net.stats.total_sent, 1);
/// net.fail_node(b);
/// assert!(net.neighbors_of(a).is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct Network {
    nodes: Vec<Node>,
    /// Scheduled-asleep flags (see [`crate::rotation`]): a sleeping node's
    /// radio is off — it neither transmits nor receives, but it is *not*
    /// failed. Default false everywhere, so code that never touches
    /// rotation sees the historical behavior bit-for-bit.
    sleeping: Vec<bool>,
    index: GridIndex,
    /// Per-packet loss probability in `[0, 1)` (0 = perfect medium).
    loss_rate: f64,
    /// Deterministic loss stream (splitmix-style counter mix).
    loss_state: u64,
    /// Traffic counters, publicly readable; mutated by `unicast`/`broadcast`.
    pub stats: NetStats,
    /// Optional structured-event sink; disabled by default (zero cost).
    trace: TraceHandle,
    /// Chaos partition: when set, packets only flow between nodes on the
    /// same side (side A = the set, side B = everyone else).
    partition: Option<BTreeSet<NodeId>>,
    /// Chaos-blackholed directed links: packets `from -> to` vanish in
    /// the air (the sender still pays, like a lossy drop).
    blackholes: BTreeSet<(NodeId, NodeId)>,
    /// Chaos latency spike: extra ticks added to every transport backoff.
    extra_latency: Time,
    /// Hearer rows: once node `i` has broadcast, `hearers[i]` holds every
    /// node within `i`'s `rc` that was alive then or was added since,
    /// ascending and without `i`. Ids that died since stay in the row.
    /// Rows are created by the first fill; rows past `filled.len()` are
    /// empty spares that keep their capacity across [`Network::reset`].
    hearers: Vec<Vec<NodeId>>,
    /// `filled[i]`: has node `i`'s hearer row been filled? As long as no
    /// row is filled this may be shorter than `nodes`; after a fill it
    /// grows with every `add_node`.
    filled: Vec<bool>,
    /// The largest `rc` among the filled rows, `None` while none is
    /// filled: the radius of `add_node`'s reverse query.
    fill_radius: Option<f64>,
    /// Scratch for `add_node`'s reverse query, kept between calls so an
    /// insertion allocates nothing.
    near: Vec<NodeId>,
}

impl Network {
    /// An empty network over `field`. Every network charges its radio
    /// traffic to the one first-order energy model (the private `energy`
    /// module).
    pub fn new(field: Aabb) -> Self {
        let cell = (field.width().min(field.height()) / 20.0).max(1.0);
        Network {
            nodes: Vec::new(),
            sleeping: Vec::new(),
            index: GridIndex::new(field.min, (field.width(), field.height()), cell),
            loss_rate: 0.0,
            loss_state: 0,
            stats: NetStats::default(),
            trace: TraceHandle::disabled(),
            partition: None,
            blackholes: BTreeSet::new(),
            extra_latency: 0,
            hearers: Vec::new(),
            filled: Vec::new(),
            fill_radius: None,
            near: Vec::new(),
        }
    }

    /// Returns the network to the state of `Network::new(field)` — no
    /// nodes, perfect medium, zeroed counters,
    /// disabled trace, no hearer row filled — while keeping the node
    /// storage, spatial-index buckets, hearer rows and stats vectors
    /// allocated. A reset network behaves bit-identically to a freshly
    /// constructed one.
    pub fn reset(&mut self, field: Aabb) {
        let cell = (field.width().min(field.height()) / 20.0).max(1.0);
        // Rows past `filled` have not been filled since the last reset.
        for row in &mut self.hearers[..self.filled.len()] {
            row.clear();
        }
        self.filled.clear();
        self.fill_radius = None;
        self.nodes.clear();
        self.sleeping.clear();
        self.index
            .reset(field.min, (field.width(), field.height()), cell);
        self.loss_rate = 0.0;
        self.loss_state = 0;
        self.stats.reset();
        self.trace = TraceHandle::disabled();
        self.partition = None;
        self.blackholes.clear();
        self.extra_latency = 0;
    }

    /// Attaches a trace handle; every subsequent transmission emits
    /// send/deliver/drop events through it. Clones of the handle share one
    /// totally ordered stream.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// The attached trace handle (disabled by default).
    pub fn trace(&self) -> &TraceHandle {
        &self.trace
    }

    /// Enables a lossy medium: every transmission is independently lost
    /// with probability `rate` (per receiver for broadcasts). The loss
    /// stream is deterministic in `seed`; the seed is passed through a full
    /// splitmix64 finalizer so even adjacent seeds (2 vs 3) produce
    /// unrelated streams. Panics unless `0 <= rate < 1`.
    pub fn set_loss(&mut self, rate: f64, seed: u64) {
        assert!(
            (0.0..1.0).contains(&rate),
            "loss rate must be in [0, 1), got {rate}"
        );
        self.loss_rate = rate;
        self.loss_state = splitmix64_mix(seed);
    }

    /// Draws the next loss decision from the deterministic stream.
    fn packet_lost(&mut self) -> bool {
        if self.loss_rate == 0.0 {
            return false;
        }
        // splitmix64 step.
        self.loss_state = self.loss_state.wrapping_add(0x9E3779B97F4A7C15);
        let z = splitmix64_mix(self.loss_state);
        ((z >> 11) as f64 / (1u64 << 53) as f64) < self.loss_rate
    }

    /// Splits the medium in two: packets cross between `side_a` and the
    /// rest of the network only after [`Network::heal_partition`]. Nodes
    /// on the same side keep communicating normally. Replaces any
    /// previous partition.
    pub fn set_partition(&mut self, side_a: impl IntoIterator<Item = NodeId>) {
        self.partition = Some(side_a.into_iter().collect());
    }

    /// Removes the partition (if any); the medium is whole again.
    pub fn heal_partition(&mut self) {
        self.partition = None;
    }

    /// Is a partition currently in effect?
    pub fn is_partitioned(&self) -> bool {
        self.partition.is_some()
    }

    /// Blackholes the directed link `from -> to`: packets on it vanish
    /// in the air until [`Network::clear_blackhole`]. The reverse
    /// direction is unaffected.
    pub fn set_blackhole(&mut self, from: NodeId, to: NodeId) {
        self.blackholes.insert((from, to));
    }

    /// Restores the directed link `from -> to`.
    pub fn clear_blackhole(&mut self, from: NodeId, to: NodeId) {
        self.blackholes.remove(&(from, to));
    }

    /// Extra ticks the reliable transport adds to every retry backoff
    /// (a chaos latency spike). 0 = nominal timing.
    pub fn extra_latency(&self) -> Time {
        self.extra_latency
    }

    /// Sets the chaos latency spike; 0 restores nominal timing.
    pub fn set_extra_latency(&mut self, extra: Time) {
        self.extra_latency = extra;
    }

    /// Charges `amount` of energy to node `id` without any transmission
    /// (a chaos energy drain). Unknown ids are ignored.
    pub fn drain_energy(&mut self, id: NodeId, amount: f64) {
        if let Some(e) = self.stats.energy.get_mut(id) {
            *e += amount;
        }
    }

    /// Is the directed link `from -> to` severed by a partition or a
    /// blackhole? Pure — consumes no loss-stream state, so attaching an
    /// empty chaos plan leaves the packet-loss sequence untouched.
    fn link_cut(&self, from: NodeId, to: NodeId) -> bool {
        if self.blackholes.contains(&(from, to)) {
            return true;
        }
        match &self.partition {
            Some(side_a) => side_a.contains(&from) != side_a.contains(&to),
            None => false,
        }
    }

    /// Adds an alive node, returning its id. While any hearer row is
    /// filled, the new node is appended to each filled row whose node's
    /// `rc` reaches it.
    pub fn add_node(&mut self, pos: Point, rs: f64, rc: f64) -> NodeId {
        let id = self.nodes.len();
        if let Some(radius) = self.fill_radius {
            self.append_hearer(id, pos, radius);
        }
        self.nodes.push(Node::new(pos, rs, rc));
        self.sleeping.push(false);
        self.index.insert(id, pos);
        self.stats.grow_to(self.nodes.len());
        id
    }

    /// One reverse query finds the filled rows whose node's `rc` reaches
    /// the new node `id` at `pos` (`radius` is the largest such `rc`), and
    /// `id` is appended to each. It is the largest id so far, so every row
    /// stays sorted. The test is the grid query's own, so the row holds
    /// what a fresh fill would.
    fn append_hearer(&mut self, id: NodeId, pos: Point, radius: f64) {
        let mut near = std::mem::take(&mut self.near);
        self.index.within_into(pos, radius, &mut near);
        for &s in &near {
            let hub = &self.nodes[s];
            if self.filled[s] && hub.pos.in_disk(pos, hub.rc) {
                debug_assert!(self.hearers[s].last().is_none_or(|&last| last < id));
                self.hearers[s].push(id);
            }
        }
        self.near = near;
        self.filled.push(false);
        if self.hearers.len() == id {
            self.hearers.push(Vec::new());
        }
    }

    /// Fills node `from`'s hearer row with one grid query: the alive
    /// nodes within its `rc`, without itself, ascending.
    fn fill_row(&mut self, from: NodeId) {
        let n = self.nodes.len();
        self.filled.resize(n, false);
        if self.hearers.len() < n {
            self.hearers.resize_with(n, Vec::new);
        }
        let Node { pos, rc, .. } = self.nodes[from];
        let row = &mut self.hearers[from];
        self.index.within_into(pos, rc, row);
        row.retain(|&i| i != from);
        row.sort_unstable();
        self.filled[from] = true;
        self.fill_radius = Some(self.fill_radius.map_or(rc, |r| r.max(rc)));
    }

    /// Sets node `id`'s scheduled-asleep flag (see [`crate::rotation`]).
    /// A sleeping node's radio is off: it neither transmits nor receives
    /// and pays no rx energy, but it stays alive and in the spatial index
    /// (geometry queries are about positions, not duty state). Total:
    /// unknown ids are ignored.
    pub fn set_sleeping(&mut self, id: NodeId, asleep: bool) {
        if let Some(s) = self.sleeping.get_mut(id) {
            *s = asleep;
        }
    }

    /// Is node `id` alive *and* on duty (not scheduled asleep)? The
    /// receiver-side predicate of every transmission.
    pub fn is_awake(&self, id: NodeId) -> bool {
        self.is_alive(id) && !self.sleeping.get(id).copied().unwrap_or(false)
    }

    /// Number of nodes ever added (alive and failed).
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when no nodes were ever added.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node record for `id`. Panics on out-of-range ids; see
    /// [`Network::try_node`] for the total variant.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id]
    }

    /// The node record for `id`, or `None` when no such node was ever
    /// added. The non-panicking sibling of [`Network::node`], consistent
    /// with [`Network::is_alive`] and [`Network::fail_node`] being total.
    pub fn try_node(&self, id: NodeId) -> Option<&Node> {
        self.nodes.get(id)
    }

    /// Is node `id` alive?
    pub fn is_alive(&self, id: NodeId) -> bool {
        self.nodes.get(id).is_some_and(|n| n.alive)
    }

    /// Marks node `id` failed. Idempotent, and total like [`Network::is_alive`]:
    /// returns whether the node was alive before the call, `false` for
    /// unknown ids.
    pub fn fail_node(&mut self, id: NodeId) -> bool {
        match self.nodes.get_mut(id) {
            Some(n) if n.alive => {
                n.alive = false;
                let pos = n.pos;
                self.index.remove(id, pos);
                true
            }
            _ => false,
        }
    }

    /// Ids of all alive nodes, ascending.
    pub fn alive_ids(&self) -> Vec<NodeId> {
        (0..self.nodes.len())
            .filter(|&i| self.nodes[i].alive)
            .collect()
    }

    /// Alive nodes within distance `r` of point `q` (any node's own radius
    /// is irrelevant here — this is a pure geometric query): clears `out`
    /// and fills it with their ids, ascending.
    pub fn alive_within_into(&self, q: Point, r: f64, out: &mut Vec<NodeId>) {
        self.index.within_into(q, r, out);
        out.sort_unstable();
    }

    /// 1-hop neighbors of `id`: alive nodes within *`id`'s* communication
    /// radius, excluding `id` itself.
    ///
    /// With heterogeneous radii links can be asymmetric; DECOR only ever
    /// sends over the sender's radius, which this models.
    pub fn neighbors_of(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.neighbors_into(id, &mut out);
        out
    }

    /// Buffer-reusing variant of [`Network::neighbors_of`]: clears `out`
    /// and fills it with the same ids in the same (ascending) order,
    /// avoiding a fresh allocation per call. Protocol round loops call
    /// this once per agent per round. Total: a dead or unknown `id`
    /// yields an empty buffer.
    pub fn neighbors_into(&self, id: NodeId, out: &mut Vec<NodeId>) {
        out.clear();
        let Some(n) = self.nodes.get(id) else {
            return;
        };
        if !n.alive {
            return;
        }
        self.index.within_into(n.pos, n.rc, out);
        out.retain(|&i| i != id);
        out.sort_unstable();
    }

    /// Sends `msg` from `from` to `to`, charging energy and counters.
    ///
    /// A scheduled-asleep sender cannot transmit (radio off — reads as
    /// [`SendError::SenderDown`], like a failed node). A scheduled-asleep
    /// *receiver* silently misses the frame: the sender still transmits
    /// and pays (it cannot know the peer's duty state), the frame is
    /// dropped like a cut link — without consuming the loss stream, so
    /// rotation-free runs keep their exact packet-loss sequence.
    pub fn unicast(&mut self, from: NodeId, to: NodeId, msg: Message) -> Result<(), SendError> {
        let sender = *self.nodes.get(from).ok_or(SendError::SenderDown)?;
        if !sender.alive || self.sleeping[from] {
            return Err(SendError::SenderDown);
        }
        let receiver = *self.nodes.get(to).ok_or(SendError::ReceiverDown)?;
        if !receiver.alive {
            return Err(SendError::ReceiverDown);
        }
        let d = sender.pos.dist(receiver.pos);
        if d > sender.rc {
            return Err(SendError::OutOfRange);
        }
        let bytes = msg.payload_bytes();
        // The sender transmits (and pays) regardless of whether the
        // medium then eats the packet.
        self.stats.sent[from] += 1;
        self.stats.energy[from] += energy::tx_cost(bytes, d);
        self.stats.total_sent += 1;
        if msg.is_maintenance() {
            self.stats.maintenance_sent += 1;
        } else {
            self.stats.protocol_sent += 1;
        }
        if matches!(msg, Message::Ack { .. }) {
            self.stats.acks_sent += 1;
        }
        self.trace.emit(TraceEvent::MsgSend {
            from: from as u64,
            to: to as u64,
            msg: msg.kind(),
        });
        // A severed link (chaos partition/blackhole) or a sleeping
        // receiver eats the packet after the sender paid, exactly like a
        // lossy drop — but without drawing from the loss stream, so runs
        // without chaos faults or rotation are unaffected.
        if self.link_cut(from, to) || self.sleeping[to] {
            self.trace.emit(TraceEvent::MsgDrop {
                from: from as u64,
                to: to as u64,
                msg: msg.kind(),
            });
            return Err(SendError::Lost);
        }
        if self.packet_lost() {
            self.trace.emit(TraceEvent::MsgDrop {
                from: from as u64,
                to: to as u64,
                msg: msg.kind(),
            });
            return Err(SendError::Lost);
        }
        self.stats.received[to] += 1;
        self.stats.energy[to] += energy::rx_cost(bytes);
        self.trace.emit(TraceEvent::MsgDeliver {
            from: from as u64,
            to: to as u64,
            msg: msg.kind(),
        });
        Ok(())
    }

    /// Broadcasts `msg` from `from` at full power; every alive node within
    /// the sender's `rc` receives it. Returns the receiver ids (sorted).
    ///
    /// A broadcast counts as *one* sent message (single transmission) and
    /// one reception per receiver.
    pub fn broadcast(&mut self, from: NodeId, msg: Message) -> Vec<NodeId> {
        let mut heard = Vec::new();
        self.broadcast_into(from, msg, &mut heard);
        heard
    }

    /// Buffer-reuse variant of [`Network::broadcast`]: clears `heard` and
    /// fills it with the same receivers in the same (ascending) order,
    /// with the same accounting, trace events and loss-stream draws. The
    /// receivers come from the sender's hearer row, filled on its first
    /// broadcast, so a warm call queries no index and allocates nothing.
    /// A dead or sleeping sender transmits nothing and leaves `heard`
    /// empty.
    pub fn broadcast_into(&mut self, from: NodeId, msg: Message, heard: &mut Vec<NodeId>) {
        heard.clear();
        let sender = match self.nodes.get(from) {
            Some(n) if n.alive && !self.sleeping[from] => *n,
            _ => return,
        };
        if !self.filled.get(from).copied().unwrap_or(false) {
            self.fill_row(from);
        }
        let receivers = std::mem::take(&mut self.hearers[from]);
        let bytes = msg.payload_bytes();
        self.stats.sent[from] += 1;
        self.stats.energy[from] += energy::tx_cost(bytes, sender.rc);
        self.stats.total_sent += 1;
        if msg.is_maintenance() {
            self.stats.maintenance_sent += 1;
        } else {
            self.stats.protocol_sent += 1;
        }
        // `to: u64::MAX` marks the single broadcast transmission; each
        // listener then delivers or drops independently.
        self.trace.emit(TraceEvent::MsgSend {
            from: from as u64,
            to: u64::MAX,
            msg: msg.kind(),
        });
        // On a lossy medium each listener drops the frame independently;
        // a sleeping listener misses it for free (radio off, no rx
        // energy, no loss-stream draw).
        for &r in &receivers {
            if !self.nodes[r].alive {
                continue; // death is final: the row keeps the id
            }
            if self.link_cut(from, r) || self.sleeping[r] {
                self.trace.emit(TraceEvent::MsgDrop {
                    from: from as u64,
                    to: r as u64,
                    msg: msg.kind(),
                });
                continue;
            }
            if self.packet_lost() {
                self.trace.emit(TraceEvent::MsgDrop {
                    from: from as u64,
                    to: r as u64,
                    msg: msg.kind(),
                });
                continue;
            }
            self.stats.received[r] += 1;
            self.stats.energy[r] += energy::rx_cost(bytes);
            self.trace.emit(TraceEvent::MsgDeliver {
                from: from as u64,
                to: r as u64,
                msg: msg.kind(),
            });
            heard.push(r);
        }
        self.hearers[from] = receivers;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_with(positions: &[(f64, f64)], rs: f64, rc: f64) -> Network {
        let mut net = Network::new(Aabb::square(100.0));
        for &(x, y) in positions {
            net.add_node(Point::new(x, y), rs, rc);
        }
        net
    }

    #[test]
    fn add_and_query_nodes() {
        let net = net_with(&[(10.0, 10.0), (20.0, 10.0)], 4.0, 8.0);
        assert_eq!(net.len(), 2);
        assert_eq!(net.alive_ids().len(), 2);
        assert!(net.is_alive(0) && net.is_alive(1));
        assert_eq!(net.node(1).pos, Point::new(20.0, 10.0));
    }

    #[test]
    fn neighbors_respect_rc() {
        let net = net_with(&[(10.0, 10.0), (17.0, 10.0), (30.0, 10.0)], 4.0, 8.0);
        assert_eq!(net.neighbors_of(0), vec![1]);
        assert_eq!(net.neighbors_of(1), vec![0]);
        assert_eq!(net.neighbors_of(2), Vec::<NodeId>::new());
    }

    #[test]
    fn neighbors_into_reuses_buffer_and_matches() {
        let net = net_with(&[(10.0, 10.0), (17.0, 10.0), (30.0, 10.0)], 4.0, 8.0);
        let mut buf = vec![99usize; 8];
        net.neighbors_into(0, &mut buf);
        assert_eq!(buf, net.neighbors_of(0));
        net.neighbors_into(2, &mut buf);
        assert!(buf.is_empty(), "stale contents must be cleared");
        net.neighbors_into(42, &mut buf);
        assert!(buf.is_empty(), "unknown id yields an empty buffer");
    }

    #[test]
    fn broadcast_into_reuses_buffer_and_matches() {
        // A lossy, partitioned medium with a sleeping listener: node 0's
        // range holds 1 (across the cut), 2 (asleep) and 3..=5.
        let mut net = net_with(
            &[
                (50.0, 50.0),
                (54.0, 50.0),
                (50.0, 54.0),
                (46.0, 50.0),
                (50.0, 46.0),
                (53.0, 53.0),
                (90.0, 90.0),
            ],
            4.0,
            8.0,
        );
        net.set_loss(0.4, 21);
        net.set_partition([1]);
        net.set_sleeping(2, true);
        let mut twin = net.clone();
        let msg = Message::Heartbeat {
            pos: Point::new(50.0, 50.0),
        };
        let mut buf = vec![99usize; 8];
        for round in 0..30 {
            let from = [0, 3, 5][round % 3];
            twin.broadcast_into(from, msg, &mut buf);
            assert_eq!(buf, net.broadcast(from, msg), "round {round}");
        }
        for id in 0..net.len() {
            assert_eq!(twin.stats.received_by(id), net.stats.received_by(id));
            assert_eq!(twin.stats.energy_of(id), net.stats.energy_of(id));
        }
        // Both media drew the same losses: their streams stay in step.
        for _ in 0..16 {
            assert_eq!(twin.unicast(0, 3, msg), net.unicast(0, 3, msg));
        }
        twin.broadcast_into(6, msg, &mut buf);
        assert!(buf.is_empty(), "stale contents must be cleared");
        let sent = twin.stats.total_sent;
        let energy = twin.stats.energy_of(2);
        buf.push(99);
        twin.broadcast_into(2, msg, &mut buf);
        assert!(buf.is_empty(), "a sleeping sender hears nobody");
        twin.fail_node(4);
        buf.push(99);
        twin.broadcast_into(4, msg, &mut buf);
        assert!(buf.is_empty(), "a dead sender hears nobody");
        twin.broadcast_into(42, msg, &mut buf);
        assert!(buf.is_empty(), "an unknown sender hears nobody");
        assert_eq!(twin.stats.total_sent, sent, "silent senders pay nothing");
        assert_eq!(twin.stats.sent_by(2), 0);
        assert_eq!(twin.stats.sent_by(4), 0);
        assert_eq!(twin.stats.energy_of(2), energy);
    }

    #[test]
    fn failed_nodes_leave_the_medium() {
        let mut net = net_with(&[(10.0, 10.0), (17.0, 10.0)], 4.0, 8.0);
        assert!(net.fail_node(1));
        assert!(!net.fail_node(1), "second failure is a no-op");
        assert_eq!(net.alive_ids().len(), 1);
        assert_eq!(net.neighbors_of(0), Vec::<NodeId>::new());
        assert_eq!(net.neighbors_of(1), Vec::<NodeId>::new());
        assert_eq!(net.alive_ids(), vec![0]);
    }

    #[test]
    fn unicast_success_updates_stats() {
        let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
        let msg = Message::PlacementNotice { pos: Point::ORIGIN };
        assert_eq!(net.unicast(0, 1, msg), Ok(()));
        assert_eq!(net.stats.sent_by(0), 1);
        assert_eq!(net.stats.received_by(1), 1);
        assert_eq!(net.stats.total_sent, 1);
        assert_eq!(net.stats.protocol_sent, 1);
        assert_eq!(net.stats.maintenance_sent, 0);
        assert!(net.stats.energy_of(0) > 0.0);
        assert!(net.stats.energy_of(1) > 0.0);
        assert!(net.stats.energy_of(0) > net.stats.energy_of(1), "tx > rx");
    }

    #[test]
    fn unicast_range_check() {
        let mut net = net_with(&[(10.0, 10.0), (30.0, 10.0)], 4.0, 8.0);
        let msg = Message::Hello { pos: Point::ORIGIN };
        assert_eq!(net.unicast(0, 1, msg), Err(SendError::OutOfRange));
        assert_eq!(net.stats.total_sent, 0);
    }

    #[test]
    fn unicast_to_or_from_dead_node_fails() {
        let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
        net.fail_node(1);
        let msg = Message::Hello { pos: Point::ORIGIN };
        assert_eq!(net.unicast(0, 1, msg), Err(SendError::ReceiverDown));
        assert_eq!(net.unicast(1, 0, msg), Err(SendError::SenderDown));
    }

    #[test]
    fn asymmetric_radii_make_asymmetric_links() {
        let mut net = Network::new(Aabb::square(100.0));
        net.add_node(Point::new(10.0, 10.0), 4.0, 12.0); // long range
        net.add_node(Point::new(20.0, 10.0), 4.0, 5.0); // short range
        let msg = Message::Hello { pos: Point::ORIGIN };
        assert_eq!(net.unicast(0, 1, msg), Ok(()));
        assert_eq!(net.unicast(1, 0, msg), Err(SendError::OutOfRange));
        assert_eq!(net.neighbors_of(0), vec![1]);
        assert_eq!(net.neighbors_of(1), Vec::<NodeId>::new());
    }

    #[test]
    fn broadcast_reaches_all_in_range() {
        let mut net = net_with(
            &[(50.0, 50.0), (54.0, 50.0), (50.0, 57.0), (80.0, 80.0)],
            4.0,
            8.0,
        );
        let rx = net.broadcast(
            0,
            Message::Heartbeat {
                pos: Point::new(50.0, 50.0),
            },
        );
        assert_eq!(rx, vec![1, 2]);
        assert_eq!(net.stats.sent_by(0), 1, "broadcast is one transmission");
        assert_eq!(net.stats.received_by(1), 1);
        assert_eq!(net.stats.received_by(2), 1);
        assert_eq!(net.stats.received_by(3), 0);
        assert_eq!(net.stats.maintenance_sent, 1);
    }

    #[test]
    fn broadcast_from_dead_node_is_silent() {
        let mut net = net_with(&[(50.0, 50.0), (54.0, 50.0)], 4.0, 8.0);
        net.fail_node(0);
        let rx = net.broadcast(0, Message::Hello { pos: Point::ORIGIN });
        assert!(rx.is_empty());
        assert_eq!(net.stats.total_sent, 0);
    }

    #[test]
    fn alive_within_is_geometric() {
        let mut net = net_with(&[(10.0, 10.0), (14.0, 10.0), (40.0, 40.0)], 4.0, 8.0);
        let mut out = Vec::new();
        net.alive_within_into(Point::new(12.0, 10.0), 3.0, &mut out);
        assert_eq!(out, vec![0, 1]);
        net.fail_node(0);
        net.alive_within_into(Point::new(12.0, 10.0), 3.0, &mut out);
        assert_eq!(out, vec![1]);
    }

    #[test]
    fn lossy_unicast_charges_sender_not_receiver() {
        let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
        net.set_loss(0.999, 3); // effectively always lost
        let mut lost = 0;
        for _ in 0..20 {
            if net.unicast(0, 1, Message::Hello { pos: Point::ORIGIN }) == Err(SendError::Lost) {
                lost += 1;
            }
        }
        assert!(lost >= 19, "loss rate 0.999 must drop nearly everything");
        assert_eq!(net.stats.sent_by(0), 20, "sender pays for every attempt");
        assert!(net.stats.received_by(1) <= 1);
        assert!(net.stats.energy_of(0) > 0.0);
    }

    #[test]
    fn lossy_broadcast_drops_receivers_independently() {
        let mut net = net_with(&[(50.0, 50.0), (54.0, 50.0), (50.0, 54.0)], 4.0, 8.0);
        net.set_loss(0.5, 9);
        let mut total_rx = 0usize;
        for _ in 0..40 {
            total_rx += net
                .broadcast(
                    0,
                    Message::Heartbeat {
                        pos: Point::new(50.0, 50.0),
                    },
                )
                .len();
        }
        // 40 broadcasts × 2 listeners × 50% ≈ 40; allow a wide band.
        assert!((20..=60).contains(&total_rx), "received {total_rx}");
        assert_eq!(net.stats.sent_by(0), 40);
    }

    #[test]
    fn loss_stream_is_deterministic() {
        let run = |seed| {
            let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
            net.set_loss(0.5, seed);
            (0..32)
                .map(|_| {
                    net.unicast(0, 1, Message::Hello { pos: Point::ORIGIN })
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6));
    }

    #[test]
    fn neighboring_seeds_diverge() {
        // The old `seed | 1` mixing collapsed adjacent even/odd seeds
        // (2 and 3 shared a stream); the splitmix64 finalizer must not.
        let run = |seed| {
            let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
            net.set_loss(0.5, seed);
            (0..64)
                .map(|_| {
                    net.unicast(0, 1, Message::Hello { pos: Point::ORIGIN })
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        for seed in [0u64, 2, 4, 100, 0xDEC0] {
            assert_ne!(run(seed), run(seed + 1), "seeds {seed} and {}", seed + 1);
        }
        assert_eq!(run(2), run(2), "same seed still reproduces");
    }

    #[test]
    fn fail_node_is_total() {
        let mut net = net_with(&[(10.0, 10.0)], 4.0, 8.0);
        assert!(!net.fail_node(999), "unknown id is not an error");
        assert!(net.fail_node(0));
        assert!(!net.fail_node(0), "second failure is a no-op");
        assert_eq!(net.alive_ids().len(), 0);
    }

    #[test]
    fn try_node_is_total() {
        let net = net_with(&[(10.0, 10.0)], 4.0, 8.0);
        assert_eq!(net.try_node(0).unwrap().pos, Point::new(10.0, 10.0));
        assert!(net.try_node(1).is_none());
    }

    #[test]
    fn acks_are_counted_separately() {
        let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
        net.unicast(0, 1, Message::PlacementNotice { pos: Point::ORIGIN })
            .unwrap();
        net.unicast(1, 0, Message::Ack { seq: 0 }).unwrap();
        assert_eq!(net.stats.acks_sent, 1);
        assert_eq!(net.stats.protocol_sent, 2, "acks ride the protocol plane");
        assert_eq!(net.stats.total_sent, 2);
    }

    #[test]
    #[should_panic(expected = "loss rate must be in [0, 1)")]
    fn invalid_loss_rate_panics() {
        let mut net = net_with(&[(10.0, 10.0)], 4.0, 8.0);
        net.set_loss(1.0, 0);
    }

    #[test]
    fn partition_cuts_cross_side_links_only() {
        let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0), (12.0, 14.0)], 4.0, 8.0);
        let msg = Message::Hello { pos: Point::ORIGIN };
        net.set_partition([0, 2]);
        assert!(net.is_partitioned());
        assert_eq!(net.unicast(0, 1, msg), Err(SendError::Lost));
        assert_eq!(net.unicast(1, 0, msg), Err(SendError::Lost));
        assert_eq!(net.unicast(0, 2, msg), Ok(()), "same side still flows");
        assert_eq!(
            net.stats.sent_by(0),
            2,
            "sender pays for partitioned attempts"
        );
        net.heal_partition();
        assert!(!net.is_partitioned());
        assert_eq!(net.unicast(0, 1, msg), Ok(()));
    }

    #[test]
    fn blackhole_is_directional() {
        let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
        let msg = Message::Hello { pos: Point::ORIGIN };
        net.set_blackhole(0, 1);
        assert_eq!(net.unicast(0, 1, msg), Err(SendError::Lost));
        assert_eq!(net.unicast(1, 0, msg), Ok(()), "reverse link unaffected");
        net.clear_blackhole(0, 1);
        assert_eq!(net.unicast(0, 1, msg), Ok(()));
    }

    #[test]
    fn partition_drops_broadcast_listeners_across_the_cut() {
        let mut net = net_with(&[(50.0, 50.0), (54.0, 50.0), (50.0, 54.0)], 4.0, 8.0);
        net.set_partition([0, 1]);
        let rx = net.broadcast(
            0,
            Message::Heartbeat {
                pos: Point::new(50.0, 50.0),
            },
        );
        assert_eq!(rx, vec![1], "node 2 is on the far side");
    }

    #[test]
    fn chaos_cuts_do_not_consume_the_loss_stream() {
        let outcomes = |blackhole_first: bool| {
            let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
            net.set_loss(0.5, 7);
            if blackhole_first {
                net.set_blackhole(0, 1);
                for _ in 0..5 {
                    assert_eq!(
                        net.unicast(0, 1, Message::Hello { pos: Point::ORIGIN }),
                        Err(SendError::Lost)
                    );
                }
                net.clear_blackhole(0, 1);
            }
            (0..16)
                .map(|_| {
                    net.unicast(0, 1, Message::Hello { pos: Point::ORIGIN })
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(outcomes(false), outcomes(true));
    }

    #[test]
    fn drain_energy_charges_without_traffic() {
        let mut net = net_with(&[(10.0, 10.0)], 4.0, 8.0);
        net.drain_energy(0, 1.5);
        net.drain_energy(99, 1.0); // unknown id ignored
        assert_eq!(net.stats.energy_of(0), 1.5);
        assert_eq!(net.stats.total_sent, 0);
    }

    #[test]
    fn extra_latency_roundtrips() {
        let mut net = net_with(&[(10.0, 10.0)], 4.0, 8.0);
        assert_eq!(net.extra_latency(), 0);
        net.set_extra_latency(16);
        assert_eq!(net.extra_latency(), 16);
        net.set_extra_latency(0);
        assert_eq!(net.extra_latency(), 0);
    }

    #[test]
    fn sleeping_receiver_misses_frames_for_free() {
        let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
        net.set_sleeping(1, true);
        assert!(!net.is_awake(1));
        assert!(net.is_alive(1), "sleeping is not dead");
        let msg = Message::Heartbeat { pos: Point::ORIGIN };
        assert_eq!(net.unicast(0, 1, msg), Err(SendError::Lost));
        assert_eq!(net.stats.sent_by(0), 1, "sender pays regardless");
        assert_eq!(net.stats.received_by(1), 0);
        assert_eq!(net.stats.energy_of(1), 0.0, "radio off costs nothing");
        net.set_sleeping(1, false);
        assert_eq!(net.unicast(0, 1, msg), Ok(()));
    }

    #[test]
    fn sleeping_sender_cannot_transmit() {
        let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
        net.set_sleeping(0, true);
        let msg = Message::Heartbeat { pos: Point::ORIGIN };
        assert_eq!(net.unicast(0, 1, msg), Err(SendError::SenderDown));
        assert!(net.broadcast(0, msg).is_empty());
        assert_eq!(net.stats.total_sent, 0);
    }

    #[test]
    fn broadcast_skips_sleeping_listeners() {
        let mut net = net_with(&[(50.0, 50.0), (54.0, 50.0), (50.0, 54.0)], 4.0, 8.0);
        net.set_sleeping(1, true);
        let rx = net.broadcast(
            0,
            Message::Heartbeat {
                pos: Point::new(50.0, 50.0),
            },
        );
        assert_eq!(rx, vec![2], "only the awake listener hears");
        assert_eq!(net.stats.received_by(1), 0);
    }

    #[test]
    fn sleeping_does_not_consume_the_loss_stream() {
        // Frames dropped at a sleeping radio burn no loss draws: after
        // the node wakes, the loss sequence continues exactly where it
        // would have without the sleeping-period traffic.
        let outcomes = |send_while_asleep: bool| {
            let mut net = net_with(&[(10.0, 10.0), (15.0, 10.0)], 4.0, 8.0);
            net.set_loss(0.5, 11);
            if send_while_asleep {
                net.set_sleeping(1, true);
                for _ in 0..5 {
                    assert_eq!(
                        net.unicast(0, 1, Message::Hello { pos: Point::ORIGIN }),
                        Err(SendError::Lost)
                    );
                }
                net.set_sleeping(1, false);
            }
            (0..16)
                .map(|_| {
                    net.unicast(0, 1, Message::Hello { pos: Point::ORIGIN })
                        .is_ok()
                })
                .collect::<Vec<bool>>()
        };
        assert_eq!(outcomes(false), outcomes(true));
    }

    #[test]
    fn dead_and_unknown_nodes_read_as_not_awake() {
        let mut net = net_with(&[(10.0, 10.0)], 4.0, 8.0);
        net.set_sleeping(0, true);
        net.fail_node(0);
        assert!(!net.is_awake(0));
        net.set_sleeping(99, true); // unknown ids ignored
        assert!(!net.is_awake(99));
    }

    #[test]
    fn reset_clears_sleep_flags() {
        let mut net = net_with(&[(10.0, 10.0)], 4.0, 8.0);
        net.set_sleeping(0, true);
        net.reset(Aabb::square(100.0));
        let id = net.add_node(Point::new(10.0, 10.0), 4.0, 8.0);
        assert!(net.is_awake(id));
    }
}
