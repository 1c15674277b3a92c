//! A first-divergence differ over canonical JSONL traces, shared by the
//! trace-comparing tests (`golden_trace.rs`, `determinism.rs`,
//! `chaos_restoration.rs`): on a mismatch they report the first event
//! where two traces part ways instead of a whole-text diff.
//!
//! Include it with `#[path = "support/trace_diff.rs"] mod trace_diff;`.

use std::fmt;

/// The first point where two traces part ways.
pub struct Divergence {
    /// 0-based index of the first differing event line.
    pub index: usize,
    /// The left trace's line at that index, `None` when it ended first.
    pub left: Option<String>,
    /// The right trace's line at that index, `None` when it ended first.
    pub right: Option<String>,
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn side(line: &Option<String>) -> &str {
            line.as_deref().unwrap_or("<end of trace>")
        }
        writeln!(f, "traces diverge at event {}:", self.index)?;
        writeln!(f, "  left:  {}", side(&self.left))?;
        write!(f, "  right: {}", side(&self.right))
    }
}

/// Compares two canonical JSONL traces line by line and returns the first
/// divergence, or `None` when the traces are identical. A trace that is a
/// strict prefix of the other diverges at the shorter one's end.
pub fn first_divergence(left: &str, right: &str) -> Option<Divergence> {
    let mut l = left.lines();
    let mut r = right.lines();
    let mut index = 0;
    loop {
        match (l.next(), r.next()) {
            (None, None) => return None,
            (a, b) if a == b => index += 1,
            (a, b) => {
                return Some(Divergence {
                    index,
                    left: a.map(str::to_string),
                    right: b.map(str::to_string),
                })
            }
        }
    }
}
