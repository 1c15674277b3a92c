//! Property tests for the reliable-transport invariants (tier: invariants).
//!
//! Over random loss rates, seeds and traffic patterns, the transport must
//! uphold its contracts, each read from what a caller observes — the
//! outcomes [`Transport::flush_into`] reports and [`Transport::stats`]:
//!
//! 1. per directed link, messages conclude in send order: a
//!    retransmission never leapfrogs a younger message;
//! 2. every message handed to [`Transport::send`] reaches a terminal
//!    [`DeliveryOutcome`] exactly once across flushes;
//! 3. the statistics agree with the outcomes.

use decor_geom::{Aabb, Point};
use decor_net::{DeliveryOutcome, Message, MsgId, Network, Transport, TransportConfig};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A 2×2 square of mutually reachable nodes: 12 directed links.
fn quad_net(loss: f64, seed: u64) -> Network {
    let mut net = Network::new(Aabb::square(100.0));
    for &(x, y) in &[(10.0, 10.0), (15.0, 10.0), (10.0, 15.0), (15.0, 15.0)] {
        net.add_node(Point::new(x, y), 4.0, 8.0);
    }
    if loss > 0.0 {
        net.set_loss(loss, seed);
    }
    net
}

fn notice() -> Message {
    Message::PlacementNotice { pos: Point::ORIGIN }
}

/// Drives every enqueued message to its outcome and returns the outcomes.
fn flush(tr: &mut Transport, net: &mut Network) -> Vec<(MsgId, DeliveryOutcome)> {
    let mut out = Vec::new();
    tr.flush_into(net, &mut out);
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Invariant 1: per directed link, messages conclude in send order —
    /// no reordering — at any loss rate, even one high enough to force
    /// give-ups mid-stream.
    #[test]
    fn links_conclude_in_send_order(
        loss in 0.0..0.85f64,
        seed in any::<u64>(),
        // (sender, receiver) pairs drawn from the quad.
        links in prop::collection::vec((0usize..4, 0usize..4), 1..60),
    ) {
        let mut net = quad_net(loss, seed);
        let mut tr = Transport::new(TransportConfig {
            max_retries: 4,
            backoff_base: 2,
        });
        let mut link_of: BTreeMap<MsgId, (usize, usize)> = BTreeMap::new();
        for &(a, b) in &links {
            if a != b {
                link_of.insert(tr.send(a, b, notice()), (a, b));
            }
        }
        let outcomes = flush(&mut tr, &mut net);
        prop_assert_eq!(outcomes.len(), link_of.len());
        let mut last: BTreeMap<(usize, usize), MsgId> = BTreeMap::new();
        for (id, _) in outcomes {
            let link = link_of[&id];
            if let Some(&prev) = last.get(&link) {
                prop_assert!(
                    id > prev,
                    "link {:?} concluded message {} after {}",
                    link, id, prev
                );
            }
            last.insert(link, id);
        }
    }

    /// Invariant 2: every send concludes exactly once, across any
    /// interleaving of sends and flushes.
    #[test]
    fn every_message_concludes_exactly_once(
        loss in 0.0..0.9f64,
        seed in any::<u64>(),
        // Batch sizes interleaved with flushes.
        batches in prop::collection::vec(1usize..12, 1..8),
    ) {
        let mut net = quad_net(loss, seed);
        let mut tr = Transport::new(TransportConfig {
            max_retries: 3,
            backoff_base: 4,
        });
        let mut sent: Vec<MsgId> = Vec::new();
        let mut concluded: BTreeMap<MsgId, DeliveryOutcome> = BTreeMap::new();
        for (bi, &n) in batches.iter().enumerate() {
            for j in 0..n {
                // Cycle through links deterministically.
                let a = (bi + j) % 4;
                let b = (a + 1 + j % 3) % 4;
                sent.push(tr.send(a, b, notice()));
            }
            for (id, out) in flush(&mut tr, &mut net) {
                prop_assert!(
                    concluded.insert(id, out).is_none(),
                    "message {id} concluded twice"
                );
            }
        }
        prop_assert!(flush(&mut tr, &mut net).is_empty(), "extra flush must be empty");
        let mut reported: Vec<MsgId> = concluded.keys().copied().collect();
        reported.sort_unstable();
        let mut expected = sent.clone();
        expected.sort_unstable();
        prop_assert_eq!(reported, expected);
    }

    /// Invariant 3: the statistics count the outcomes. Every send makes
    /// one first attempt, so data frames are sends plus retries; on the
    /// all-alive quad nothing concludes PeerDown, so they are also the
    /// outcomes' attempts summed; and each ack answers one arrival, so
    /// the first arrivals (acks less duplicates) number at least the
    /// delivered messages and at most those plus the give-ups, whose data
    /// may have arrived with only the acks lost.
    #[test]
    fn stats_agree_with_outcomes(
        loss in 0.0..0.85f64,
        seed in any::<u64>(),
        links in prop::collection::vec((0usize..4, 0usize..4), 1..60),
    ) {
        let max_retries = 4;
        let mut net = quad_net(loss, seed);
        let mut tr = Transport::new(TransportConfig {
            max_retries,
            backoff_base: 2,
        });
        for &(a, b) in &links {
            if a != b {
                tr.send(a, b, notice());
            }
        }
        let (mut delivered, mut gave_up, mut attempts) = (0, 0, 0);
        for (_, out) in flush(&mut tr, &mut net) {
            match out {
                DeliveryOutcome::Delivered { attempts: n } => {
                    prop_assert!((1..=1 + max_retries).contains(&n));
                    delivered += 1;
                    attempts += u64::from(n);
                }
                DeliveryOutcome::GaveUp { attempts: n } => {
                    prop_assert_eq!(n, 1 + max_retries);
                    gave_up += 1;
                    attempts += u64::from(n);
                }
                DeliveryOutcome::PeerDown => prop_assert!(false, "every quad node is up"),
            }
        }
        let st = tr.stats;
        prop_assert_eq!((st.delivered, st.gave_up, st.peer_down), (delivered, gave_up, 0));
        prop_assert_eq!(st.sent, delivered + gave_up);
        prop_assert_eq!(st.data_transmissions, st.sent + st.retries);
        prop_assert_eq!(st.data_transmissions, attempts);
        let first_arrivals = st.acks - st.duplicates_suppressed;
        prop_assert!(
            (delivered..=delivered + gave_up).contains(&first_arrivals),
            "{} first arrivals for {} delivered and {} given up",
            first_arrivals, delivered, gave_up
        );
    }
}
