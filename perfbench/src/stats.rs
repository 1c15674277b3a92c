//! Summary statistics, digests, and the process's CPU time and memory.

use std::time::Duration;

/// The median of `xs` (mean of the middle pair for an even count; 0 for
/// an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// A latency tail: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples beyond it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// Share of samples at or below `value`, percent.
    pub percentile: f64,
    /// Samples beyond it.
    pub beyond: usize,
    /// Samples in all.
    pub n: usize,
}

/// Samples a tail percentile must leave beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The tail of `xs`: the sample with exactly [`TAIL_BEYOND`] samples
/// beyond it in sorted order. When that sample would not lie above the
/// median (fewer than `2 · TAIL_BEYOND + 1` samples) it is no tail, and
/// the slowest sample stands in for it; `beyond` and `n` say so.
pub fn tail(xs: &[f64]) -> Tail {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return Tail {
            value: 0.0,
            percentile: 0.0,
            beyond: 0,
            n,
        };
    }
    let idx = if n > 2 * TAIL_BEYOND {
        n - TAIL_BEYOND - 1
    } else {
        n - 1
    };
    Tail {
        value: v[idx],
        percentile: 100.0 * (idx + 1) as f64 / n as f64,
        beyond: n - 1 - idx,
        n,
    }
}

/// Ops a tail window must hold at least.
const WINDOW_OPS: usize = 100;

/// The tail of a run whose ops cycle through `inputs` inputs, robust to
/// bursts of machine noise. The run is cut into windows of whole cycles
/// holding at least [`WINDOW_OPS`] ops (the last window takes the rest),
/// [`tail`] is taken per window, and the window with the median tail is
/// returned with the number of windows. A run too short for two windows
/// is one window.
pub fn windowed_tail(xs: &[f64], inputs: usize) -> (Tail, usize) {
    let size = WINDOW_OPS.div_ceil(inputs.max(1)) * inputs.max(1);
    let windows = (xs.len() / size).max(1);
    let mut tails: Vec<Tail> = (0..windows)
        .map(|w| {
            let end = if w + 1 == windows {
                xs.len()
            } else {
                (w + 1) * size
            };
            tail(&xs[w * size..end])
        })
        .collect();
    tails.sort_by(|a, b| a.value.total_cmp(&b.value));
    (tails[(windows - 1) / 2], windows)
}

/// FNV-1a over `bytes`, continuing from `h` (start from [`FNV_OFFSET`]).
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// The FNV-1a offset basis.
pub const FNV_OFFSET: u64 = 0xcbf29ce484222325;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads clock_gettime(2) with the 64-bit Linux timespec");

/// `struct timespec` on 64-bit Linux.
#[repr(C)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

/// CPU time this process has used so far, user plus system, all threads
/// (`CLOCK_PROCESS_CPUTIME_ID`).
pub fn cpu_time() -> Duration {
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut t = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `t` is a live, writable value with the layout of the C
    // `struct timespec` on the 64-bit Linux targets the compile_error
    // above admits; clock_gettime writes only into `*tp`.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut t) };
    assert_eq!(rc, 0, "the process CPU-time clock always exists");
    Duration::new(t.sec as u64, t.nsec as u32)
}

/// Peak resident set size of this process so far, in MB (10⁶ bytes),
/// from the kernel's high-water mark for this process image.
/// (`getrusage`'s `ru_maxrss` would not do: it keeps the high-water mark
/// of the parent that forked the process, such as `cargo run`.)
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line in /proc/self/status")?;
    let kib: f64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .map_err(|e| format!("parsing '{line}': {e}"))?;
    Ok(kib * 1024.0 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let t = tail(&xs);
        assert_eq!(t.value, 90.0);
        assert_eq!(t.beyond, 10);
        assert_eq!(t.n, 100);
        assert_eq!(t.percentile, 90.0);

        // 1000 samples: p99 has exactly ten beyond it.
        let xs: Vec<f64> = (1..=1000).rev().map(|i| i as f64).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond, t.percentile), (990.0, 10, 99.0));

        // 21 samples: the smallest count whose tail lies above the median.
        let xs: Vec<f64> = (0..21).map(|i| i as f64).collect();
        let t = tail(&xs);
        assert_eq!((t.value, t.beyond, t.n), (10.0, 10, 21));
    }

    #[test]
    fn tail_of_few_samples_is_the_maximum_and_says_so() {
        let t = tail(&[5.0, 9.0, 7.0]);
        assert_eq!((t.value, t.beyond, t.n, t.percentile), (9.0, 0, 3, 100.0));
        // 20 samples: ten beyond would put the tail at the median.
        let xs: Vec<f64> = (0..20).map(|i| i as f64).collect();
        assert_eq!(tail(&xs).value, 19.0);
        assert_eq!(tail(&[]).n, 0);
    }

    #[test]
    fn windowed_tail_ignores_a_burst_in_one_window() {
        // 6 windows of 4 cycles × 32 inputs; every op takes 10 ms except
        // a burst of 30 slow ops inside the third window.
        let mut xs = vec![10.0; 6 * 128];
        for x in &mut xs[300..330] {
            *x = 50.0;
        }
        assert!(tail(&xs).value == 50.0, "the whole-run tail sees the burst");
        let (t, windows) = windowed_tail(&xs, 32);
        assert_eq!((t.value, t.beyond, t.n, windows), (10.0, 10, 128, 6));
        // The last window keeps the remainder.
        let (t, windows) = windowed_tail(&xs[..2 * 128 + 64], 32);
        assert_eq!((t.n, windows), (128, 2));
        // Too short for two windows: the whole run, as `tail` gives it.
        assert_eq!(windowed_tail(&xs[..150], 32), (tail(&xs[..150]), 1));
        assert_eq!(windowed_tail(&[3.0, 1.0], 1), (tail(&[3.0, 1.0]), 1));
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a(FNV_OFFSET, b""), 0xcbf29ce484222325);
        assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63dc4c8601ec8c);
    }

    #[test]
    fn process_usage_is_read() {
        assert!(peak_rss_mb().unwrap() > 0.0);
        let before = cpu_time();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_time() > before, "{x}");
    }
}
