//! Where trace records go.

use crate::event::TraceRecord;
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// A consumer of stamped trace records.
///
/// Sinks receive records one at a time, in emission order, under the
/// [`TraceHandle`](crate::TraceHandle)'s lock — implementations should be
/// cheap and must not re-enter the handle. `as_any`/`as_any_mut` allow the
/// handle's typed accessors to recover the concrete sink after a run.
pub trait TraceSink: Send {
    /// Consumes one record.
    fn record(&mut self, rec: &TraceRecord);
    /// Upcast for typed recovery of the concrete sink.
    fn as_any(&self) -> &dyn Any;
    /// Mutable upcast for typed recovery of the concrete sink.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

/// Keeps the most recent `capacity` records in memory — the flight-recorder
/// sink for interactive debugging, bounded regardless of run length.
#[derive(Debug)]
pub struct RingBuffer {
    capacity: usize,
    buf: VecDeque<TraceRecord>,
    /// Total records ever offered, including evicted ones.
    total: u64,
}

impl RingBuffer {
    /// A ring holding at most `capacity` records (capacity 0 counts only).
    pub fn new(capacity: usize) -> Self {
        RingBuffer {
            capacity,
            buf: VecDeque::with_capacity(capacity.min(4096)),
            total: 0,
        }
    }

    /// The retained records, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &TraceRecord> {
        self.buf.iter()
    }

    /// Number of retained records (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total records ever offered, including those evicted by the cap.
    pub fn total_seen(&self) -> u64 {
        self.total
    }
}

impl TraceSink for RingBuffer {
    fn record(&mut self, rec: &TraceRecord) {
        self.total += 1;
        if self.capacity == 0 {
            return;
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(rec.clone());
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Accumulates the canonical JSONL text of every record — one
/// [`TraceRecord::canonical`] line per event, `\n`-terminated. The caller
/// writes the text wherever it wants (a file for `--trace-out`, memory for
/// the golden-trace tests).
#[derive(Debug, Default)]
pub struct JsonlWriter {
    text: String,
}

impl JsonlWriter {
    /// An empty writer.
    pub fn new() -> Self {
        JsonlWriter::default()
    }

    /// The accumulated JSONL text.
    pub fn contents(&self) -> &str {
        &self.text
    }

    /// Number of lines (= records) accumulated.
    pub fn lines(&self) -> usize {
        self.text.lines().count()
    }
}

impl TraceSink for JsonlWriter {
    fn record(&mut self, rec: &TraceRecord) {
        // Render straight into the accumulated text: one growing buffer,
        // no per-record intermediate string.
        rec.canonical_into(&mut self.text);
        self.text.push('\n');
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Tallies records per event kind — the cheapest sink, used for the
/// per-event-kind columns of the delivery experiment.
#[derive(Debug, Default)]
pub struct CountingSink {
    counts: BTreeMap<&'static str, u64>,
}

impl CountingSink {
    /// An empty tally.
    pub fn new() -> Self {
        CountingSink::default()
    }

    /// Count for one event kind (label as in
    /// [`TraceEvent::kind`](crate::TraceEvent::kind)), 0 when never seen.
    pub fn count(&self, kind: &str) -> u64 {
        self.counts.get(kind).copied().unwrap_or(0)
    }

    /// All non-zero counts, ordered by kind label.
    pub fn counts(&self) -> &BTreeMap<&'static str, u64> {
        &self.counts
    }

    /// Total records across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.values().sum()
    }
}

impl TraceSink for CountingSink {
    fn record(&mut self, rec: &TraceRecord) {
        *self.counts.entry(rec.event.kind()).or_insert(0) += 1;
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::TraceEvent;

    fn rec(seq: u64) -> TraceRecord {
        TraceRecord {
            seq,
            time: seq * 2,
            event: TraceEvent::NodeFailed { node: seq },
        }
    }

    #[test]
    fn ring_buffer_keeps_only_the_tail() {
        let mut ring = RingBuffer::new(3);
        for i in 0..10 {
            ring.record(&rec(i));
        }
        assert_eq!(ring.len(), 3);
        assert_eq!(ring.total_seen(), 10);
        let seqs: Vec<u64> = ring.records().map(|r| r.seq).collect();
        assert_eq!(seqs, vec![7, 8, 9]);
    }

    #[test]
    fn zero_capacity_ring_only_counts() {
        let mut ring = RingBuffer::new(0);
        ring.record(&rec(0));
        assert!(ring.is_empty());
        assert_eq!(ring.total_seen(), 1);
    }

    #[test]
    fn jsonl_writer_is_one_line_per_record() {
        let mut w = JsonlWriter::new();
        w.record(&rec(0));
        w.record(&rec(1));
        assert_eq!(w.lines(), 2);
        assert!(w.contents().ends_with('\n'));
        let first = w.contents().lines().next().unwrap();
        assert_eq!(first, rec(0).canonical());
    }

    #[test]
    fn counting_sink_tallies_by_kind() {
        let mut c = CountingSink::new();
        c.record(&rec(0));
        c.record(&rec(1));
        c.record(&TraceRecord {
            seq: 2,
            time: 0,
            event: TraceEvent::RoundBegin {
                scheme: "grid",
                round: 0,
            },
        });
        assert_eq!(c.count("node_failed"), 2);
        assert_eq!(c.count("round_begin"), 1);
        assert_eq!(c.count("msg_send"), 0);
        assert_eq!(c.total(), 3);
    }
}
