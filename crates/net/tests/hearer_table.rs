//! Property tier for `Network`'s hearer rows: the receivers of every
//! broadcast, read from rows that fill on a sender's first broadcast and
//! grow by appending in `add_node`, against a naive scan over all nodes.
//!
//! Random scripts add nodes with mixed `rc` (some outside the field, some
//! exactly `rc` from an existing node, where the boundary counts as
//! inside), fail nodes, put them to sleep, reset the network and
//! broadcast, so rows fill at different points of a script. After every
//! step, for every node:
//! - the receivers of a lossless broadcast (sent on a clone, so the
//!   script's own fill points stay put) equal the alive, awake nodes in
//!   the sender's `rc`, without the sender, ascending;
//! - `neighbors_into` equals the same scan without the awake test (it is
//!   a geometric query: sleeping radios stay in range);
//! - a network that filled rows and was then reset gives the same
//!   receivers and traffic counters as `Network::new` on the same script.

use decor_geom::{Aabb, Point};
use decor_net::{Message, Network, NodeId};
use proptest::prelude::*;

/// The field the networks are built over; nodes may also lie outside it.
const SIDE: f64 = 40.0;

/// Radio ranges. Each is 2.5 times an integer, so `rc·(3/5, 4/5)` is
/// exact in binary and a node placed that far from another lies exactly
/// `rc` away, as it does along an axis.
const RCS: [f64; 4] = [2.5, 5.0, 7.5, 10.0];

/// Offsets of length 1 in units of `rc`: the axes and the 3-4-5 diagonals.
const DIRS: [(f64, f64); 8] = [
    (1.0, 0.0),
    (-1.0, 0.0),
    (0.0, 1.0),
    (0.0, -1.0),
    (0.6, 0.8),
    (-0.6, 0.8),
    (0.8, -0.6),
    (-0.8, -0.6),
];

#[derive(Clone, Copy, Debug)]
enum Step {
    Add {
        pos: Point,
        rc: f64,
    },
    /// A node exactly `anchor`'s `rc` away from it, with range `rc`
    /// (`None`: the anchor's, so the pair is on the rim of both disks).
    AddOnRim {
        anchor: usize,
        dir: usize,
        rc: Option<f64>,
    },
    Fail(usize),
    Sleep(usize, bool),
    Broadcast(usize),
    Reset,
}

/// A point on a quarter-unit lattice over `[-6, SIDE + 6)²`, so ties in
/// distance are common and exact.
fn lattice(u: f64, v: f64) -> Point {
    let q = |t: f64| ((t * (SIDE + 12.0) * 4.0).floor() / 4.0) - 6.0;
    Point::new(q(u), q(v))
}

fn decode(kind: u32, a: prop::sample::Index, b: prop::sample::Index, u: f64, v: f64) -> Step {
    let rc = RCS[b.index(RCS.len())];
    // Ids are picked among the first 64; an id past the network is a
    // no-op for every call the script makes.
    let id = a.index(64);
    match kind {
        0..=6 => Step::Add {
            pos: lattice(u, v),
            rc,
        },
        7..=9 => Step::AddOnRim {
            anchor: id,
            dir: (v * DIRS.len() as f64) as usize,
            rc: (u < 0.5).then_some(rc),
        },
        10 | 11 => Step::Fail(id),
        12 | 13 => Step::Sleep(id, u < 0.6),
        14..=18 => Step::Broadcast(id),
        _ => Step::Reset,
    }
}

fn field() -> Aabb {
    Aabb::square(SIDE)
}

/// Applies `step`, returning the receivers when it is a broadcast.
fn apply(net: &mut Network, step: Step) -> Vec<NodeId> {
    match step {
        Step::Add { pos, rc } => {
            net.add_node(pos, rc / 2.0, rc);
        }
        Step::AddOnRim { anchor, dir, rc } => {
            let Some(a) = net.try_node(anchor).copied() else {
                return Vec::new();
            };
            let (dx, dy) = DIRS[dir];
            let pos = Point::new(a.pos.x + dx * a.rc, a.pos.y + dy * a.rc);
            let rc = rc.unwrap_or(a.rc);
            net.add_node(pos, rc / 2.0, rc);
        }
        Step::Fail(id) => {
            net.fail_node(id);
        }
        Step::Sleep(id, asleep) => net.set_sleeping(id, asleep),
        Step::Broadcast(id) => {
            return net.broadcast(id, Message::Hello { pos: Point::ORIGIN });
        }
        Step::Reset => net.reset(field()),
    }
    Vec::new()
}

/// The naive scan: nodes in `id`'s range (boundary inclusive), alive,
/// awake when `awake_only`, without `id`, ascending. Empty for a dead or
/// unknown `id`.
fn scan(net: &Network, id: NodeId, awake_only: bool) -> Vec<NodeId> {
    if !net.is_alive(id) {
        return Vec::new();
    }
    let s = net.node(id);
    (0..net.len())
        .filter(|&j| j != id && net.is_alive(j) && (!awake_only || net.is_awake(j)))
        .filter(|&j| net.node(j).pos.in_disk(s.pos, s.rc))
        .collect()
}

/// Checks every node's broadcast receivers and neighbor list against the
/// naive scan. Broadcasts go out on a clone, which leaves `net`'s fill
/// points as the script set them.
fn check_against_scan(net: &Network) {
    let mut probe = net.clone();
    let mut buf = Vec::new();
    for id in 0..net.len() {
        let expected = if net.is_awake(id) {
            scan(net, id, true)
        } else {
            Vec::new()
        };
        probe.broadcast_into(id, Message::Heartbeat { pos: Point::ORIGIN }, &mut buf);
        assert_eq!(buf, expected, "receivers of node {id}");
        net.neighbors_into(id, &mut buf);
        assert_eq!(buf, scan(net, id, false), "neighbors of node {id}");
    }
}

/// Every traffic counter, per node and in aggregate (energy by bit
/// pattern).
fn counters(net: &Network) -> (Vec<(u64, u64, u64)>, [u64; 3]) {
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
        [s.total_sent, s.maintenance_sent, s.protocol_sent],
    )
}

type RawStep = (u32, prop::sample::Index, prop::sample::Index, f64, f64);

fn raw_steps(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<RawStep>> {
    prop::collection::vec(
        (
            0u32..20,
            any::<prop::sample::Index>(),
            any::<prop::sample::Index>(),
            0.0..1.0f64,
            0.0..1.0f64,
        ),
        len,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn hearer_rows_match_a_naive_scan(
        dirt in raw_steps(1..40),
        script in raw_steps(1..60),
    ) {
        // A pooled network: rows filled by an earlier script, then reset.
        let mut reused = Network::new(field());
        for &(kind, a, b, u, v) in &dirt {
            apply(&mut reused, decode(kind, a, b, u, v));
        }
        for id in 0..reused.len() {
            reused.broadcast(id, Message::Hello { pos: Point::ORIGIN });
        }
        reused.reset(field());

        let mut fresh = Network::new(field());
        for (i, &(kind, a, b, u, v)) in script.iter().enumerate() {
            let step = decode(kind, a, b, u, v);
            let heard = apply(&mut fresh, step);
            prop_assert_eq!(apply(&mut reused, step), heard, "step {} ({:?})", i, step);
            check_against_scan(&fresh);
            check_against_scan(&reused);
            prop_assert_eq!(counters(&reused), counters(&fresh), "step {} ({:?})", i, step);
        }
    }
}

/// A fixed script with both rim cases: a node added exactly `rc` from a
/// sender whose row is filled is appended to it, and one added just
/// beyond is not.
#[test]
fn a_node_on_the_rim_of_a_filled_row_is_appended() {
    let mut net = Network::new(field());
    let a = net.add_node(Point::new(10.0, 10.0), 2.5, 5.0);
    let b = net.add_node(Point::new(12.0, 10.0), 2.5, 5.0);
    assert_eq!(
        net.broadcast(a, Message::Hello { pos: Point::ORIGIN }),
        vec![b]
    );
    let rim = net.add_node(Point::new(13.0, 14.0), 2.5, 5.0);
    net.add_node(Point::new(10.0, 15.25), 2.5, 5.0); // just beyond the rim
    net.fail_node(b);
    assert_eq!(
        net.broadcast(a, Message::Hello { pos: Point::ORIGIN }),
        vec![rim]
    );
    assert_eq!(net.neighbors_of(a), vec![rim]);
    net.reset(field());
    let c = net.add_node(Point::new(10.0, 10.0), 2.5, 5.0);
    assert!(net
        .broadcast(c, Message::Hello { pos: Point::ORIGIN })
        .is_empty());
    let d = net.add_node(Point::new(10.0, 15.0), 2.5, 5.0);
    assert_eq!(
        net.broadcast(c, Message::Hello { pos: Point::ORIGIN }),
        vec![d]
    );
}
