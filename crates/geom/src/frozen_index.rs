//! A frozen, cache-friendly CSR spatial index over immutable points.
//!
//! [`crate::GridIndex`] stores each bucket as its own `Vec<(usize, Point)>`:
//! flexible for insertion/removal (sensors come and go), but every radius
//! query chases one heap pointer per bucket and loads 24-byte tuples it
//! mostly discards. The DECOR hot paths — benefit evaluation, k-coverage
//! counting, candidate-delta propagation — query the *approximation points*,
//! which never move after a deployment is built. [`FrozenGridIndex`] is the
//! matching read-only layout:
//!
//! - all entries live in three contiguous struct-of-arrays slabs
//!   (`xs`, `ys`, `ids`), grouped by bucket, with a CSR `bucket_starts`
//!   offset table — a query touches a handful of cache lines, not a
//!   pointer per bucket;
//! - each bucket precomputes its 3×3-neighborhood row ranges, so the
//!   common `r <= cell` query resolves to three contiguous slab scans with
//!   zero arithmetic beyond one bucket lookup;
//! - each bucket stores the tight AABB of its actual points; large-radius
//!   queries skip buckets the disk cannot touch and batch-accept buckets
//!   the disk fully contains without per-point tests;
//! - every comparison is squared-distance against `r·r`, bit-identical to
//!   [`crate::Point::in_disk`], so results match the mutable index exactly
//!   (boundary points at distance exactly `r` included);
//! - no query allocates: [`FrozenGridIndex::for_each_within`],
//!   [`FrozenGridIndex::count_within`] and the early-exit
//!   [`FrozenGridIndex::covers_at_least`] stream over the slabs directly.
//!
//! Build one from a populated [`crate::GridIndex`] via
//! [`GridIndex::freeze`](crate::GridIndex::freeze) or directly from points
//! with [`FrozenGridIndex::from_points`].

use crate::grid_index::GridIndex;
use crate::point::Point;

/// Tight bounding box of one bucket's points, for disk prefiltering.
/// Empty buckets keep the inverted default and are skipped by length.
#[derive(Clone, Copy, Debug)]
struct BucketBox {
    min_x: f64,
    min_y: f64,
    max_x: f64,
    max_y: f64,
}

impl BucketBox {
    const EMPTY: BucketBox = BucketBox {
        min_x: f64::INFINITY,
        min_y: f64::INFINITY,
        max_x: f64::NEG_INFINITY,
        max_y: f64::NEG_INFINITY,
    };

    #[inline]
    fn grow(&mut self, p: Point) {
        self.min_x = self.min_x.min(p.x);
        self.min_y = self.min_y.min(p.y);
        self.max_x = self.max_x.max(p.x);
        self.max_y = self.max_y.max(p.y);
    }

    /// Squared distance from `q` to the nearest point of the box — a lower
    /// bound on the squared distance to any contained point (monotone
    /// float ops only, so the bound is safe under rounding).
    #[inline]
    fn near_sq(&self, q: Point) -> f64 {
        let dx = (self.min_x - q.x).max(q.x - self.max_x).max(0.0);
        let dy = (self.min_y - q.y).max(q.y - self.max_y).max(0.0);
        dx * dx + dy * dy
    }

    /// Squared distance from `q` to the farthest corner of the box — an
    /// upper bound on the squared distance to any contained point.
    #[inline]
    fn far_sq(&self, q: Point) -> f64 {
        let dx = (q.x - self.min_x).abs().max((q.x - self.max_x).abs());
        let dy = (q.y - self.min_y).abs().max((q.y - self.max_y).abs());
        dx * dx + dy * dy
    }
}

/// Read-only CSR bucket grid over a fixed point set. See the module docs.
///
/// ```
/// use decor_geom::{FrozenGridIndex, Point};
///
/// let idx = FrozenGridIndex::from_points(
///     Point::ORIGIN,
///     (100.0, 100.0),
///     4.0,
///     [(0, Point::new(10.0, 10.0)), (1, Point::new(13.0, 10.0)), (2, Point::new(90.0, 90.0))],
/// );
/// assert_eq!(idx.count_within(Point::new(11.0, 10.0), 4.0), 2);
/// assert!(idx.covers_at_least(Point::new(11.0, 10.0), 4.0, 2));
/// assert!(!idx.covers_at_least(Point::new(11.0, 10.0), 4.0, 3));
/// ```
#[derive(Debug)]
pub struct FrozenGridIndex {
    origin: Point,
    cell: f64,
    nx: usize,
    ny: usize,
    /// CSR offsets: bucket `b` owns slab entries
    /// `bucket_starts[b] .. bucket_starts[b + 1]`.
    bucket_starts: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    ids: Vec<u32>,
    /// Per-bucket tight point AABBs (disk prefilter on wide queries).
    boxes: Vec<BucketBox>,
    /// Per-bucket precomputed 3×3-neighborhood slab ranges, one
    /// `(start, end)` pair per covered row. Rows clipped away at the field
    /// border are stored as empty ranges.
    neigh: Vec<[(u32, u32); 3]>,
    /// Build-time staging for the input entries; emptied after every
    /// build, retained so rebuilds reach a zero-allocation steady state.
    entries_scratch: Vec<(usize, Point)>,
    /// Build-time per-bucket counts, then placement cursors.
    cursor_scratch: Vec<u32>,
}

impl Clone for FrozenGridIndex {
    fn clone(&self) -> Self {
        FrozenGridIndex {
            origin: self.origin,
            cell: self.cell,
            nx: self.nx,
            ny: self.ny,
            bucket_starts: self.bucket_starts.clone(),
            xs: self.xs.clone(),
            ys: self.ys.clone(),
            ids: self.ids.clone(),
            boxes: self.boxes.clone(),
            neigh: self.neigh.clone(),
            entries_scratch: Vec::new(),
            cursor_scratch: Vec::new(),
        }
    }

    fn clone_from(&mut self, src: &Self) {
        // Field-wise `clone_from` so the slabs keep their capacity — the
        // reason `Clone` is hand-written (a derived impl would fall back
        // to `*self = src.clone()` and reallocate every slab).
        self.origin = src.origin;
        self.cell = src.cell;
        self.nx = src.nx;
        self.ny = src.ny;
        self.bucket_starts.clone_from(&src.bucket_starts);
        self.xs.clone_from(&src.xs);
        self.ys.clone_from(&src.ys);
        self.ids.clone_from(&src.ids);
        self.boxes.clone_from(&src.boxes);
        self.neigh.clone_from(&src.neigh);
        // Scratch buffers are build-time only; keep ours.
    }
}

impl FrozenGridIndex {
    /// Builds the frozen index directly from `(id, position)` pairs, for
    /// points expected in the box `[origin, origin + extent]` with bucket
    /// edge `cell` (out-of-range points clamp to the edge buckets, like
    /// [`GridIndex`]).
    ///
    /// Panics if `cell` or either extent is not positive, or an id exceeds
    /// `u32::MAX` (the compact slab stores 32-bit ids).
    pub fn from_points<I>(origin: Point, extent: (f64, f64), cell: f64, points: I) -> Self
    where
        I: IntoIterator<Item = (usize, Point)>,
    {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "bucket edge must be positive"
        );
        assert!(
            extent.0 > 0.0 && extent.1 > 0.0,
            "index extent must be positive"
        );
        let nx = (extent.0 / cell).ceil().max(1.0) as usize;
        let ny = (extent.1 / cell).ceil().max(1.0) as usize;
        Self::from_parts(origin, cell, nx, ny, points)
    }

    /// Builds from an explicit bucket-grid geometry — used by
    /// [`GridIndex::freeze`] to reproduce the source grid exactly rather
    /// than re-deriving `nx`/`ny` from a rounded extent.
    pub(crate) fn from_parts<I>(origin: Point, cell: f64, nx: usize, ny: usize, points: I) -> Self
    where
        I: IntoIterator<Item = (usize, Point)>,
    {
        let mut idx = FrozenGridIndex::empty();
        idx.rebuild_from_parts(origin, cell, nx, ny, points);
        idx
    }

    /// The index over no points on a degenerate 1×1 grid — a valid target
    /// for [`FrozenGridIndex::rebuild_from_points`], or a placeholder in
    /// reusable scratch state.
    pub fn empty() -> Self {
        FrozenGridIndex {
            origin: Point::ORIGIN,
            cell: 1.0,
            nx: 1,
            ny: 1,
            bucket_starts: vec![0, 0],
            xs: Vec::new(),
            ys: Vec::new(),
            ids: Vec::new(),
            boxes: vec![BucketBox::EMPTY],
            neigh: vec![[(0, 0); 3]],
            entries_scratch: Vec::new(),
            cursor_scratch: Vec::new(),
        }
    }

    /// In-place twin of [`FrozenGridIndex::from_points`]: rebuilds `self`
    /// over a new point set (and possibly new geometry), reusing every
    /// slab allocation. The result is indistinguishable from a freshly
    /// built index — `from_points` itself routes through this method, so
    /// there is exactly one build code path.
    pub fn rebuild_from_points<I>(
        &mut self,
        origin: Point,
        extent: (f64, f64),
        cell: f64,
        points: I,
    ) where
        I: IntoIterator<Item = (usize, Point)>,
    {
        assert!(
            cell > 0.0 && cell.is_finite(),
            "bucket edge must be positive"
        );
        assert!(
            extent.0 > 0.0 && extent.1 > 0.0,
            "index extent must be positive"
        );
        let nx = (extent.0 / cell).ceil().max(1.0) as usize;
        let ny = (extent.1 / cell).ceil().max(1.0) as usize;
        self.rebuild_from_parts(origin, cell, nx, ny, points);
    }

    /// The single build path: counting sort into the CSR slabs, reusing
    /// `self`'s allocations.
    pub(crate) fn rebuild_from_parts<I>(
        &mut self,
        origin: Point,
        cell: f64,
        nx: usize,
        ny: usize,
        points: I,
    ) where
        I: IntoIterator<Item = (usize, Point)>,
    {
        self.origin = origin;
        self.cell = cell;
        self.nx = nx;
        self.ny = ny;
        self.entries_scratch.clear();
        self.entries_scratch.extend(points);
        let entries = &self.entries_scratch;

        // Counting sort into CSR: one pass to size buckets, one to place.
        let bucket_of = |p: Point| -> usize {
            let bx = ((p.x - origin.x) / cell).floor();
            let by = ((p.y - origin.y) / cell).floor();
            let bx = (bx.max(0.0) as usize).min(nx - 1);
            let by = (by.max(0.0) as usize).min(ny - 1);
            by * nx + bx
        };
        let counts = &mut self.cursor_scratch;
        counts.clear();
        counts.resize(nx * ny, 0);
        for &(id, p) in entries {
            debug_assert!(p.is_finite(), "cannot index a non-finite point");
            assert!(u32::try_from(id).is_ok(), "id {id} exceeds u32 range");
            counts[bucket_of(p)] += 1;
        }
        self.bucket_starts.clear();
        self.bucket_starts.reserve(nx * ny + 1);
        let mut acc = 0u32;
        for &c in counts.iter() {
            self.bucket_starts.push(acc);
            acc += c;
        }
        self.bucket_starts.push(acc);
        let n = entries.len();
        self.xs.clear();
        self.xs.resize(n, 0.0);
        self.ys.clear();
        self.ys.resize(n, 0.0);
        self.ids.clear();
        self.ids.resize(n, 0);
        self.boxes.clear();
        self.boxes.resize(nx * ny, BucketBox::EMPTY);
        // Reuse the counts buffer as the placement cursors.
        counts.copy_from_slice(&self.bucket_starts[..nx * ny]);
        for &(id, p) in entries {
            let b = bucket_of(p);
            let at = counts[b] as usize;
            counts[b] += 1;
            self.xs[at] = p.x;
            self.ys[at] = p.y;
            self.ids[at] = id as u32;
            self.boxes[b].grow(p);
        }

        // Precompute each bucket's 3×3-neighborhood slab ranges: buckets of
        // one row are consecutive in the CSR slab, so the three-bucket span
        // `[bx-1, bx+1]` of a row is one contiguous range.
        self.neigh.clear();
        self.neigh.reserve(nx * ny);
        for by in 0..ny {
            for bx in 0..nx {
                let bx0 = bx.saturating_sub(1);
                let bx1 = (bx + 1).min(nx - 1);
                let mut rows = [(0u32, 0u32); 3];
                for (slot, dy) in (-1i64..=1).enumerate() {
                    let ry = by as i64 + dy;
                    if ry < 0 || ry as usize >= ny {
                        continue; // stays (0, 0): empty
                    }
                    let row = ry as usize * nx;
                    rows[slot] = (
                        self.bucket_starts[row + bx0],
                        self.bucket_starts[row + bx1 + 1],
                    );
                }
                self.neigh.push(rows);
            }
        }
        self.entries_scratch.clear();
    }

    /// Number of stored entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when no entries are stored.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Bucket edge length.
    #[inline]
    pub fn cell(&self) -> f64 {
        self.cell
    }

    /// Bucket-grid dimensions `(nx, ny)`; bucket `(bx, by)` is the
    /// `by * nx + bx`-th of the grid.
    #[inline]
    pub fn dims(&self) -> (usize, usize) {
        (self.nx, self.ny)
    }

    /// Ids stored in bucket `(bx, by)`, in insertion order.
    #[inline]
    pub fn bucket_ids(&self, bx: usize, by: usize) -> &[u32] {
        let b = by * self.nx + bx;
        &self.ids[self.bucket_starts[b] as usize..self.bucket_starts[b + 1] as usize]
    }

    /// Clamped coordinates `(bx, by)` of the bucket holding location `p`:
    /// the bucket an entry at `p` is stored in, and the centre of the
    /// 3×3 neighbourhood a query at `p` no wider than a bucket scans.
    #[inline]
    pub fn bucket_coords(&self, p: Point) -> (usize, usize) {
        let bx = ((p.x - self.origin.x) / self.cell).floor();
        let by = ((p.y - self.origin.y) / self.cell).floor();
        let bx = (bx.max(0.0) as usize).min(self.nx - 1);
        let by = (by.max(0.0) as usize).min(self.ny - 1);
        (bx, by)
    }

    /// Calls `f(id, position)` for every entry within distance `r` of `q`
    /// (boundary inclusive), in slab (bucket) order.
    #[inline]
    pub fn for_each_within<F: FnMut(usize, Point)>(&self, q: Point, r: f64, mut f: F) {
        self.for_each_within_while(q, r, |id, p| {
            f(id, p);
            true
        });
    }

    /// Like [`FrozenGridIndex::for_each_within`], but stops as soon as `f`
    /// returns `false`. Returns `true` when the scan ran to completion.
    /// This is the early-exit primitive behind
    /// [`FrozenGridIndex::covers_at_least`].
    pub fn for_each_within_while<F: FnMut(usize, Point) -> bool>(
        &self,
        q: Point,
        r: f64,
        mut f: F,
    ) -> bool {
        let rr = r * r;
        if r <= self.cell {
            // Fast path: the disk spans at most the precomputed 3×3
            // neighborhood — three contiguous slab ranges, no bucket math.
            let (bx, by) = self.bucket_coords(q);
            for &(start, end) in &self.neigh[by * self.nx + bx] {
                if !self.scan_range(q, rr, start as usize, end as usize, &mut f) {
                    return false;
                }
            }
            return true;
        }
        // Wide query: walk the covered bucket rectangle with per-bucket
        // AABB prefilters.
        let (bx0, by0) = self.bucket_coords(Point::new(q.x - r, q.y - r));
        let (bx1, by1) = self.bucket_coords(Point::new(q.x + r, q.y + r));
        for by in by0..=by1 {
            let row = by * self.nx;
            for bx in bx0..=bx1 {
                let b = row + bx;
                let start = self.bucket_starts[b] as usize;
                let end = self.bucket_starts[b + 1] as usize;
                if start == end {
                    continue;
                }
                let bb = &self.boxes[b];
                if bb.near_sq(q) > rr {
                    continue; // disk cannot reach any point of the bucket
                }
                if bb.far_sq(q) <= rr {
                    // Disk swallows the bucket: accept without testing.
                    for i in start..end {
                        if !f(self.ids[i] as usize, Point::new(self.xs[i], self.ys[i])) {
                            return false;
                        }
                    }
                    continue;
                }
                if !self.scan_range(q, rr, start, end, &mut f) {
                    return false;
                }
            }
        }
        true
    }

    /// Distance-tests slab entries `[start, end)` against `rr`, feeding
    /// hits to `f`. Returns `false` when `f` stopped the scan.
    #[inline]
    fn scan_range<F: FnMut(usize, Point) -> bool>(
        &self,
        q: Point,
        rr: f64,
        start: usize,
        end: usize,
        f: &mut F,
    ) -> bool {
        for i in start..end {
            let dx = q.x - self.xs[i];
            let dy = q.y - self.ys[i];
            if dx * dx + dy * dy <= rr
                && !f(self.ids[i] as usize, Point::new(self.xs[i], self.ys[i]))
            {
                return false;
            }
        }
        true
    }

    /// Visits the CSR slab *ranges* a disk query would scan, instead of
    /// individual entries: `f(xs, ys, ids, all_inside)` receives parallel
    /// slices of one contiguous range. When `all_inside` is true the
    /// range was batch-accepted by its bucket AABB — every entry is
    /// within `r` of `q` and needs no distance test; otherwise the caller
    /// must test each entry against `r²` itself.
    ///
    /// This is the building block for chunked kernels that accumulate
    /// over a dense per-id payload slab (coverage counts): the inner loop
    /// runs over contiguous arrays with no closure dispatch per entry,
    /// which the compiler can unroll and vectorize.
    pub fn for_each_slab_range_within<F>(&self, q: Point, r: f64, mut f: F)
    where
        F: FnMut(&[f64], &[f64], &[u32], bool),
    {
        let emit = |start: usize, end: usize, all_inside: bool, f: &mut F| {
            if start < end {
                f(
                    &self.xs[start..end],
                    &self.ys[start..end],
                    &self.ids[start..end],
                    all_inside,
                );
            }
        };
        if r <= self.cell {
            let (bx, by) = self.bucket_coords(q);
            for &(start, end) in &self.neigh[by * self.nx + bx] {
                emit(start as usize, end as usize, false, &mut f);
            }
            return;
        }
        let rr = r * r;
        let (bx0, by0) = self.bucket_coords(Point::new(q.x - r, q.y - r));
        let (bx1, by1) = self.bucket_coords(Point::new(q.x + r, q.y + r));
        for by in by0..=by1 {
            let row = by * self.nx;
            for bx in bx0..=bx1 {
                let b = row + bx;
                let start = self.bucket_starts[b] as usize;
                let end = self.bucket_starts[b + 1] as usize;
                if start == end {
                    continue;
                }
                let bb = &self.boxes[b];
                if bb.near_sq(q) > rr {
                    continue;
                }
                emit(start, end, bb.far_sq(q) <= rr, &mut f);
            }
        }
    }

    /// Counts entries within distance `r` of `q` (boundary inclusive).
    pub fn count_within(&self, q: Point, r: f64) -> usize {
        let mut n = 0usize;
        let rr = r * r;
        if r <= self.cell {
            let (bx, by) = self.bucket_coords(q);
            for &(start, end) in &self.neigh[by * self.nx + bx] {
                for i in start as usize..end as usize {
                    let dx = q.x - self.xs[i];
                    let dy = q.y - self.ys[i];
                    n += usize::from(dx * dx + dy * dy <= rr);
                }
            }
            return n;
        }
        let (bx0, by0) = self.bucket_coords(Point::new(q.x - r, q.y - r));
        let (bx1, by1) = self.bucket_coords(Point::new(q.x + r, q.y + r));
        for by in by0..=by1 {
            let row = by * self.nx;
            for bx in bx0..=bx1 {
                let b = row + bx;
                let start = self.bucket_starts[b] as usize;
                let end = self.bucket_starts[b + 1] as usize;
                if start == end {
                    continue;
                }
                let bb = &self.boxes[b];
                if bb.near_sq(q) > rr {
                    continue;
                }
                if bb.far_sq(q) <= rr {
                    n += end - start; // fully inside: count wholesale
                    continue;
                }
                for i in start..end {
                    let dx = q.x - self.xs[i];
                    let dy = q.y - self.ys[i];
                    n += usize::from(dx * dx + dy * dy <= rr);
                }
            }
        }
        n
    }

    /// True when at least `k` entries lie within distance `r` of `q` —
    /// the k-coverage predicate. Stops scanning at the `k`-th hit instead
    /// of counting the whole disk, which is what every coverage check
    /// actually needs (`k` is small; the disk population is not).
    pub fn covers_at_least(&self, q: Point, r: f64, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        let mut remaining = k;
        // `for_each_within_while` returns false iff the closure stopped
        // the scan, i.e. the k-th hit was seen.
        !self.for_each_within_while(q, r, |_, _| {
            remaining -= 1;
            remaining > 0
        })
    }

    /// Collects ids of entries within `r` of `q` into `out` (cleared
    /// first), in slab order. The buffer-reuse twin of
    /// [`FrozenGridIndex::within`].
    pub fn within_into(&self, q: Point, r: f64, out: &mut Vec<usize>) {
        out.clear();
        self.for_each_within(q, r, |id, _| out.push(id));
    }

    /// Collects the ids of all entries within distance `r` of `q`.
    pub fn within(&self, q: Point, r: f64) -> Vec<usize> {
        let mut out = Vec::new();
        self.within_into(q, r, &mut out);
        out
    }
}

impl GridIndex {
    /// Freezes the current contents into a [`FrozenGridIndex`] with the
    /// same geometry (origin, extent, bucket edge) and entries. The frozen
    /// copy answers the same queries with identical results but cannot be
    /// mutated — keep the `GridIndex` when entries still come and go.
    pub fn freeze(&self) -> FrozenGridIndex {
        FrozenGridIndex::from_parts(
            self.origin(),
            self.cell(),
            self.nx(),
            self.ny(),
            self.iter(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_points(n: usize) -> Vec<(usize, Point)> {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut pts = Vec::new();
        for id in 0..n {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
            pts.push((id, Point::new(x, y)));
        }
        pts
    }

    fn frozen(pts: &[(usize, Point)]) -> FrozenGridIndex {
        FrozenGridIndex::from_points(Point::ORIGIN, (100.0, 100.0), 4.0, pts.iter().copied())
    }

    fn brute_within(pts: &[(usize, Point)], q: Point, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = pts
            .iter()
            .filter(|&&(_, p)| q.in_disk(p, r))
            .map(|&(id, _)| id)
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn matches_brute_force_across_radii() {
        let pts = sample_points(600);
        let idx = frozen(&pts);
        for &(_, q) in pts.iter().step_by(23) {
            // 0.5/4.0 hit the fast path; 12/60 the wide prefiltered path.
            for r in [0.5, 4.0, 12.0, 60.0] {
                let mut got = idx.within(q, r);
                got.sort_unstable();
                assert_eq!(got, brute_within(&pts, q, r), "q={q} r={r}");
                assert_eq!(idx.count_within(q, r), got.len(), "q={q} r={r}");
            }
        }
    }

    #[test]
    fn buckets_list_every_entry_once_in_insertion_order() {
        let pts = sample_points(500);
        let idx = frozen(&pts);
        assert_eq!(idx.cell(), 4.0);
        let (nx, ny) = idx.dims();
        assert_eq!((nx, ny), (25, 25));
        let mut seen = Vec::new();
        for by in 0..ny {
            for bx in 0..nx {
                let ids = idx.bucket_ids(bx, by);
                assert!(ids.windows(2).all(|w| w[0] < w[1]));
                for &id in ids {
                    assert_eq!(idx.bucket_coords(pts[id as usize].1), (bx, by));
                }
                seen.extend_from_slice(ids);
            }
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..500).collect::<Vec<u32>>());
    }

    #[test]
    fn matches_mutable_grid_index_after_freeze() {
        let pts = sample_points(400);
        let mut grid = GridIndex::for_square_field(100.0, 4.0);
        for &(id, p) in &pts {
            grid.insert(id, p);
        }
        let idx = grid.freeze();
        assert_eq!(idx.len(), grid.len());
        for &(_, q) in pts.iter().step_by(31) {
            for r in [1.0, 4.0, 17.0] {
                let mut a = idx.within(q, r);
                let mut b = grid.within(q, r);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "q={q} r={r}");
            }
        }
    }

    #[test]
    fn covers_at_least_agrees_with_count() {
        let pts = sample_points(500);
        let idx = frozen(&pts);
        for &(_, q) in pts.iter().step_by(41) {
            for r in [2.0, 4.0, 10.0] {
                let n = idx.count_within(q, r);
                for k in 0..=(n + 2) {
                    assert_eq!(
                        idx.covers_at_least(q, r, k),
                        n >= k,
                        "q={q} r={r} k={k} n={n}"
                    );
                }
            }
        }
    }

    #[test]
    fn boundary_radius_is_inclusive() {
        let idx = FrozenGridIndex::from_points(
            Point::ORIGIN,
            (10.0, 10.0),
            1.0,
            [(0, Point::new(5.0, 5.0))],
        );
        // Exactly at distance r on both paths (r <= cell and r > cell).
        assert_eq!(idx.within(Point::new(5.0, 6.0), 1.0), vec![0]);
        assert_eq!(idx.within(Point::new(5.0, 9.0), 4.0), vec![0]);
        assert!(idx.covers_at_least(Point::new(5.0, 9.0), 4.0, 1));
    }

    #[test]
    fn queries_outside_field_clamp_safely() {
        let pts = vec![(0, Point::new(0.5, 0.5)), (1, Point::new(99.5, 99.5))];
        let idx = frozen(&pts);
        assert_eq!(idx.within(Point::new(-3.0, -3.0), 6.0), vec![0]);
        assert_eq!(idx.within(Point::new(105.0, 105.0), 9.0), vec![1]);
        assert_eq!(idx.count_within(Point::new(-50.0, -50.0), 1.0), 0);
    }

    #[test]
    fn out_of_field_points_clamp_to_edge_buckets() {
        let idx = FrozenGridIndex::from_points(
            Point::ORIGIN,
            (10.0, 10.0),
            2.0,
            [(7, Point::new(-5.0, 15.0))],
        );
        assert_eq!(idx.within(Point::new(-5.0, 15.0), 0.1), vec![7]);
    }

    #[test]
    fn within_into_reuses_buffer() {
        let pts = sample_points(200);
        let idx = frozen(&pts);
        let mut buf = vec![999usize; 50];
        idx.within_into(Point::new(50.0, 50.0), 8.0, &mut buf);
        let mut expect = brute_within(&pts, Point::new(50.0, 50.0), 8.0);
        buf.sort_unstable();
        expect.sort_unstable();
        assert_eq!(buf, expect);
    }

    #[test]
    fn empty_index_answers_empty() {
        let idx = FrozenGridIndex::from_points(Point::ORIGIN, (10.0, 10.0), 1.0, []);
        assert!(idx.is_empty());
        assert_eq!(idx.count_within(Point::new(5.0, 5.0), 100.0), 0);
        assert!(!idx.covers_at_least(Point::new(5.0, 5.0), 100.0, 1));
        assert!(idx.covers_at_least(Point::new(5.0, 5.0), 100.0, 0));
    }

    #[test]
    fn early_exit_stops_the_scan() {
        let pts = sample_points(500);
        let idx = frozen(&pts);
        let mut visited = 0usize;
        let completed = idx.for_each_within_while(Point::new(50.0, 50.0), 60.0, |_, _| {
            visited += 1;
            visited < 3
        });
        assert!(!completed);
        assert_eq!(visited, 3);
    }

    #[test]
    fn slab_ranges_cover_exactly_the_disk() {
        let pts = sample_points(500);
        let idx = frozen(&pts);
        for &(_, q) in pts.iter().step_by(37) {
            // 3.0 exercises the fast 3-row path, 20.0 the prefiltered
            // wide path with batch-accepted interior buckets.
            for r in [3.0, 20.0] {
                let rr = r * r;
                let mut got = Vec::new();
                let mut batch_accepted = 0usize;
                idx.for_each_slab_range_within(q, r, |xs, ys, ids, all_inside| {
                    assert_eq!(xs.len(), ids.len());
                    assert_eq!(ys.len(), ids.len());
                    for i in 0..ids.len() {
                        let d2 = q.dist_sq(Point::new(xs[i], ys[i]));
                        if all_inside {
                            assert!(d2 <= rr, "batch-accepted entry outside disk");
                            batch_accepted += 1;
                        }
                        if d2 <= rr {
                            got.push(ids[i] as usize);
                        }
                    }
                });
                got.sort_unstable();
                assert_eq!(got, brute_within(&pts, q, r), "q={q} r={r}");
                if r == 20.0 && q.x > 25.0 && q.x < 75.0 && q.y > 25.0 && q.y < 75.0 {
                    assert!(batch_accepted > 0, "interior wide query must batch-accept");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "bucket edge must be positive")]
    fn zero_cell_panics() {
        let _ = FrozenGridIndex::from_points(Point::ORIGIN, (10.0, 10.0), 0.0, []);
    }

    /// Regression for the old `min_dim / 64` bucket floor: with the bucket
    /// edge derived from the query radius (density floor only for sparse
    /// sets), the number of candidate points a radius query *visits* stays
    /// near-constant as the field side grows at fixed point density —
    /// instead of growing with `(side/64)²`.
    #[test]
    fn visited_candidates_stay_flat_as_field_grows_at_fixed_density() {
        let rs = 4.0;
        let density = 0.2; // points per unit²
        let mut per_query: Vec<f64> = Vec::new();
        for side in [100.0f64, 300.0, 900.0] {
            let n = (side * side * density) as usize;
            // Deterministic LCG scatter (geom has no random source).
            let mut state = 0x2545F4914F6CDD1Du64;
            let mut next = || {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let pts: Vec<Point> = (0..n)
                .map(|_| Point::new(next() * side, next() * side))
                .collect();
            let bucket = crate::query_bucket_edge(rs, side, n);
            let idx = FrozenGridIndex::from_points(
                Point::ORIGIN,
                (side, side),
                bucket,
                pts.iter().copied().enumerate(),
            );
            // Average over a grid of interior query centers.
            let mut visited = 0usize;
            let mut queries = 0usize;
            for qi in 1..=5 {
                for qj in 1..=5 {
                    let q = Point::new(side * qi as f64 / 6.0, side * qj as f64 / 6.0);
                    idx.for_each_slab_range_within(q, rs, |xs, _, _, _| visited += xs.len());
                    queries += 1;
                }
            }
            per_query.push(visited as f64 / queries as f64);
        }
        let max = per_query.iter().cloned().fold(f64::MIN, f64::max);
        let min = per_query.iter().cloned().fold(f64::MAX, f64::min);
        // A 3×3 bucket neighborhood at bucket=rs visits ~(3·rs)²·density
        // ≈ 29 points regardless of field size; allow generous noise but
        // rule out any systematic growth with the field side.
        assert!(
            max < 2.0 * min,
            "visited candidates must stay flat: {per_query:?}"
        );
    }
}
