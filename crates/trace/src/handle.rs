//! The optionally-attached, cloneable trace handle.

use crate::event::{TraceEvent, TraceRecord};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Where an enabled handle's records go.
enum Sink {
    /// The canonical JSONL text of every record, one `\n`-terminated line
    /// each. The caller writes the text wherever it wants (a file for
    /// `--trace-out`, memory for the golden-trace tests).
    Jsonl(String),
    /// Records tallied per event kind — the cheapest sink, used for the
    /// per-event-kind columns of the delivery experiment.
    Counts(BTreeMap<&'static str, u64>),
}

impl Sink {
    /// Kept out of line so that `emit` stays a short prologue and a branch
    /// on the disabled handle every untraced run goes through.
    #[inline(never)]
    fn record(&mut self, rec: &TraceRecord) {
        match self {
            Sink::Jsonl(text) => {
                // Render straight into the accumulated text: one growing
                // buffer, no per-record intermediate string.
                rec.canonical_into(text);
                text.push('\n');
            }
            Sink::Counts(counts) => *counts.entry(rec.event.kind()).or_insert(0) += 1,
        }
    }
}

struct TraceState {
    sink: Sink,
    seq: u64,
    time: u64,
}

/// A cloneable handle through which the simulator emits trace events.
///
/// The default handle is *disabled*: it holds no state at all, and both
/// [`emit`](TraceHandle::emit) and [`set_time`](TraceHandle::set_time)
/// reduce to a branch on a niche-optimized `Option` — zero cost for every
/// caller that never enables tracing. An enabled handle shares one
/// `Arc<Mutex<…>>` among all its clones, so the sink sees a single totally
/// ordered stream with a monotone sequence number no matter how many
/// components (network, transport, placer) hold a copy.
///
/// The handle deliberately has no effect on configuration equality:
/// `PartialEq` always returns `true`, because two deployments differing
/// only in observability are the same deployment.
#[derive(Clone, Default)]
pub struct TraceHandle {
    inner: Option<Arc<Mutex<TraceState>>>,
}

impl TraceHandle {
    /// The disabled handle (same as `Default`).
    pub fn disabled() -> Self {
        TraceHandle { inner: None }
    }

    fn with_sink(sink: Sink) -> Self {
        TraceHandle {
            inner: Some(Arc::new(Mutex::new(TraceState {
                sink,
                seq: 0,
                time: 0,
            }))),
        }
    }

    /// An enabled handle accumulating canonical JSONL text; read it back
    /// with [`TraceHandle::jsonl`].
    pub fn jsonl_writer() -> Self {
        Self::with_sink(Sink::Jsonl(String::new()))
    }

    /// An enabled handle tallying events per kind; read the tally back
    /// with [`TraceHandle::counts`].
    pub fn counting() -> Self {
        Self::with_sink(Sink::Counts(BTreeMap::new()))
    }

    /// Updates the simulation clock stamped onto subsequent events.
    /// No-op when disabled.
    pub fn set_time(&self, time: u64) {
        if let Some(inner) = &self.inner {
            lock(inner).time = time;
        }
    }

    /// Stamps `event` with the current time and the next sequence number
    /// and hands it to the sink. No-op when disabled.
    pub fn emit(&self, event: TraceEvent) {
        if let Some(inner) = &self.inner {
            let state = &mut *lock(inner);
            let rec = TraceRecord {
                seq: state.seq,
                time: state.time,
                event,
            };
            state.seq += 1;
            state.sink.record(&rec);
        }
    }

    /// A copy of the accumulated JSONL text of a
    /// [`jsonl_writer`](TraceHandle::jsonl_writer) handle; `None` when
    /// disabled or counting.
    pub fn jsonl(&self) -> Option<String> {
        match &lock(self.inner.as_ref()?).sink {
            Sink::Jsonl(text) => Some(text.clone()),
            Sink::Counts(_) => None,
        }
    }

    /// A copy of the per-kind counts (labels as in [`TraceEvent::kind`],
    /// kinds never emitted absent) of a [`counting`](TraceHandle::counting)
    /// handle; `None` when disabled or writing JSONL.
    pub fn counts(&self) -> Option<BTreeMap<&'static str, u64>> {
        match &lock(self.inner.as_ref()?).sink {
            Sink::Counts(counts) => Some(counts.clone()),
            Sink::Jsonl(_) => None,
        }
    }
}

/// Lock helper: a panicking emitter cannot corrupt a sink (sinks only
/// append), so poisoning is recovered rather than propagated.
fn lock(m: &Arc<Mutex<TraceState>>) -> std::sync::MutexGuard<'_, TraceState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl std::fmt::Debug for TraceHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.inner {
            None => write!(f, "TraceHandle(disabled)"),
            Some(inner) => write!(f, "TraceHandle(enabled, {} events)", lock(inner).seq),
        }
    }
}

/// Trace attachment never affects configuration identity — all handles
/// compare equal so `DeploymentConfig` equality stays about the deployment.
impl PartialEq for TraceHandle {
    fn eq(&self, _other: &Self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let h = TraceHandle::disabled();
        h.set_time(5);
        h.emit(TraceEvent::NodeFailed { node: 1 });
        assert_eq!(h.jsonl(), None);
        assert_eq!(h.counts(), None);
    }

    #[test]
    fn emit_stamps_monotone_seq_and_current_time() {
        let h = TraceHandle::jsonl_writer();
        h.emit(TraceEvent::NodeFailed { node: 0 });
        h.set_time(42);
        h.emit(TraceEvent::NodeFailed { node: 1 });
        assert_eq!(
            h.jsonl().unwrap(),
            "{\"seq\":0,\"t\":0,\"ev\":\"node_failed\",\"node\":0}\n\
             {\"seq\":1,\"t\":42,\"ev\":\"node_failed\",\"node\":1}\n"
        );
    }

    #[test]
    fn clones_share_one_stream() {
        let h = TraceHandle::counting();
        let h2 = h.clone();
        h.emit(TraceEvent::NodeFailed { node: 0 });
        h2.emit(TraceEvent::NodeFailed { node: 1 });
        assert_eq!(h.counts().unwrap()["node_failed"], 2);
        assert_eq!(format!("{h2:?}"), "TraceHandle(enabled, 2 events)");
    }

    #[test]
    fn counting_tallies_by_kind() {
        let h = TraceHandle::counting();
        h.emit(TraceEvent::NodeFailed { node: 0 });
        h.emit(TraceEvent::NodeFailed { node: 1 });
        h.emit(TraceEvent::RoundBegin {
            scheme: "grid",
            round: 0,
        });
        let counts = h.counts().unwrap();
        assert_eq!(counts.len(), 2, "{counts:?}");
        assert_eq!(counts["node_failed"], 2);
        assert_eq!(counts["round_begin"], 1);
        assert!(h.jsonl().is_none(), "not a JSONL sink");
    }

    #[test]
    fn jsonl_accessor_matches_sink_kind() {
        let h = TraceHandle::jsonl_writer();
        h.emit(TraceEvent::NodeFailed { node: 3 });
        let text = h.jsonl().unwrap();
        assert!(text.contains("\"ev\":\"node_failed\""));
        assert!(h.counts().is_none(), "not a counting sink");
    }

    #[test]
    fn handles_always_compare_equal() {
        assert_eq!(TraceHandle::disabled(), TraceHandle::jsonl_writer());
        assert_eq!(TraceHandle::counting(), TraceHandle::counting());
    }

    #[test]
    fn debug_shows_enabledness() {
        assert_eq!(
            format!("{:?}", TraceHandle::disabled()),
            "TraceHandle(disabled)"
        );
        let h = TraceHandle::counting();
        h.emit(TraceEvent::NodeFailed { node: 0 });
        assert_eq!(format!("{h:?}"), "TraceHandle(enabled, 1 events)");
    }
}
