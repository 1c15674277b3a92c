//! Structured simulation tracing for the DECOR reproduction.
//!
//! Every claim the reproduction makes — placement order, message counts,
//! ARQ retries, leader rotations — unfolds as a sequence of discrete
//! events. This crate captures that sequence as typed [`TraceEvent`]s,
//! each stamped with the current simulation time and a monotonic sequence
//! number, so determinism and differential tests can compare *entire event
//! streams* bit-for-bit instead of only end-state statistics.
//!
//! The pieces:
//!
//! - [`TraceEvent`]: the typed event vocabulary, with a canonical
//!   single-line JSON serialization of each stamped record that is stable
//!   across runs and platforms.
//! - [`TraceHandle`]: the cloneable, optionally-attached handle the
//!   simulator and placers carry. It either accumulates canonical JSONL
//!   text ([`TraceHandle::jsonl_writer`]) or tallies per-kind counts
//!   ([`TraceHandle::counting`]). A disabled handle (the default) is a
//!   `None` — emitting through it is a branch on a niche-optimized option
//!   and nothing else, which keeps tracing zero-cost for every caller
//!   that never asks for it.
//!
//! The crate is dependency-free and knows nothing about networks or
//! coverage maps; node/sensor identifiers arrive as plain `u64`.

mod event;
mod handle;

pub use event::TraceEvent;
pub use handle::TraceHandle;
