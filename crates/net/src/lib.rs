//! A wireless-sensor-network simulator substrate for DECOR.
//!
//! The paper evaluates DECOR "in simulation" without naming a simulator, so
//! this crate builds the substrate its evaluation needs:
//!
//! - [`event`] — a deterministic discrete-event queue (integer tick clock,
//!   a binary heap plus a FIFO of events due at the current instant, ties
//!   popped in scheduling order);
//! - [`node`] — sensor node state: position, sensing radius `rs`,
//!   communication radius `rc`, alive/failed flag;
//! - [`network`] — the network fabric: spatial-indexed neighbor lookup,
//!   range-checked unicast/broadcast with per-node message and energy
//!   accounting (the paper equates "messages sent" with energy dissipation
//!   in Fig. 10);
//! - [`messages`] — the protocol message vocabulary DECOR exchanges;
//! - [`failure`] — failure injection: i.i.d. node failures with probability
//!   `q`, exact random fractions, and disc-shaped *area failures* (natural
//!   disasters, §2.1);
//! - [`detect`] — the heartbeat failure detector of §3.2: neighbors
//!   exchange position meta-information with period `Tc`; silence beyond a
//!   timeout flags the neighbor as failed;
//! - [`transport`] — a reliable-delivery layer over the lossy medium:
//!   per-link sequence numbers, acks, bounded retransmissions with
//!   deterministic exponential backoff, duplicate suppression, and
//!   terminal delivery outcomes;
//! - [`election`] — round-robin leader rotation over a cell's alive
//!   members (the paper's cited election algorithms, abstracted);
//! - [`chaos`] — deterministic fault injection: sim-time-ordered
//!   [`FaultPlan`] scripts (crashes, partitions, blackholes, latency
//!   spikes, drains), a seeded plan generator, and ddmin plan shrinking;
//! - `energy` (private) — the first-order radio cost every transmission
//!   and reception is charged in [`NetStats`];
//! - [`sleep`] / [`rotation`] — set-k-cover sleep shifts (the paper's
//!   motivation #3) and the runtime rotation state: shift schedules on the
//!   tick clock, battery knobs, and the awake / scheduled-asleep / dead
//!   node lifecycle that `decor_core::endurance`'s detector distinguishes.
//!
//! Everything is deterministic given explicit seeds; nothing here spawns
//! threads (parallelism lives in `decor_exp::MatrixRunner`, across runs).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod detect;
pub mod election;
mod energy;
pub mod event;
pub mod failure;
pub mod messages;
pub mod network;
pub mod node;
pub mod reports;
pub mod rotation;
pub mod routing;
pub mod sleep;
pub mod transport;

pub use chaos::{shrink_plan, ChaosEngine, FaultEvent, FaultKind, FaultPlan};
pub use detect::{
    silent_too_long, DetectionReport, HeartbeatConfig, HeartbeatSim, WatchSlot, WatchTable,
};
pub use election::{rotation_leader, rotation_leader_in};
pub use event::{EventQueue, Time};
pub use failure::FailurePlan;
pub use messages::Message;
pub use network::{NetStats, Network, SendError};
pub use node::{Node, NodeId};
pub use reports::{collect_reports, sink_near, DeliveryReport};
pub use rotation::{RotationConfig, ShiftSchedule};
pub use routing::shortest_path;
pub use sleep::SleepScheduler;
pub use transport::{DeliveryOutcome, MsgId, Transport, TransportConfig, TransportStats};
