//! The coverage map: the paper's discrete representation of the monitored
//! area (§3.2).
//!
//! A [`CoverageMap`] holds the approximation points of the field (Halton
//! points in the paper's experiments) and, for each point `p`, the count
//! `k_p` of active sensors covering it. Sensors are added incrementally —
//! each placement updates only the points within its sensing disk via a
//! spatial hash-grid — and can be deactivated/reactivated to drive the
//! failure experiments without rebuilding the map.

use crate::config::DeploymentConfig;
use decor_geom::{query_bucket_edge, Aabb, FrozenGridIndex, GridIndex, Point};
use std::collections::BTreeMap;

/// Index of a sensor within its [`CoverageMap`].
pub type SensorId = usize;

/// Tile edge in point-index buckets: the coarse summary layer groups
/// 16×16 buckets per tile. The bucket edge is at least `rs`, so a tile is
/// at least `16·rs` wide and any `rs`-disk touches at most 4 tiles.
const TILE_BUCKETS: f64 = 16.0;

#[derive(Clone, Copy, Debug)]
struct Sensor {
    pos: Point,
    rs: f64,
    active: bool,
}

/// Discrete coverage state of a field.
///
/// ```
/// use decor_core::{CoverageMap, DeploymentConfig};
/// use decor_geom::{Aabb, Point};
/// use decor_lds::halton_points;
///
/// let field = Aabb::square(100.0);
/// let cfg = DeploymentConfig::default();
/// let mut map = CoverageMap::new(halton_points(500, &field), &field, &cfg);
/// assert_eq!(map.fraction_k_covered(1), 0.0);
/// let s = map.add_sensor(Point::new(50.0, 50.0), 30.0);
/// assert!(map.fraction_k_covered(1) > 0.2);
/// map.deactivate_sensor(s); // failures are reversible bookkeeping
/// assert_eq!(map.fraction_k_covered(1), 0.0);
/// ```
#[derive(Clone, Debug)]
pub struct CoverageMap {
    field: Aabb,
    points: Vec<Point>,
    /// Per-point coverage counts as a dense `u8` slab — a quarter of the
    /// old `Vec<u32>` footprint, so the chunked deficit kernels stream
    /// it from cache. Additions guard against saturation (see
    /// [`CoverageMap::add_sensor`]).
    coverage: Vec<u8>,
    /// The approximation points never move after construction, so they
    /// live in the read-only CSR index (contiguous slabs, early exit);
    /// only the sensors need the mutable bucket grid.
    pt_index: FrozenGridIndex,
    sensors: Vec<Sensor>,
    sensor_index: GridIndex,
    /// Ids of the inactive sensors: `inactive[..inactive_sorted]` ascends,
    /// and ids deactivated out of order since the last
    /// [`CoverageMap::inactive_sensors`] call follow it unsorted. A
    /// deactivation is then O(1) in any order (endurance battery deaths
    /// come in no particular order), and `n_active_sensors` is a
    /// subtraction.
    inactive: Vec<SensorId>,
    inactive_sorted: usize,
    /// Histogram of *active* sensing radii keyed by `f64::to_bits`
    /// (positive finite floats order the same as their bit patterns), so
    /// the maximum query radius follows deactivations instead of
    /// ratcheting up forever.
    rs_hist: BTreeMap<u64, u32>,
    /// Cached largest key of `rs_hist` (0.0 when no sensor is active).
    max_rs: f64,
    /// The configured coverage requirement; [`CoverageMap::uncovered_ids`]
    /// answers queries at this `k` from the deficient tiles without a
    /// field sweep.
    k_target: u32,
    /// `cov_hist[c]` = number of points with coverage exactly `c`.
    cov_hist: Vec<usize>,
    // --- coarse tile summary layer (16×16 buckets per tile) ---
    tile_cols: usize,
    tile_rows: usize,
    tile_edge: f64,
    /// Tile index of each approximation point.
    tile_of_pid: Vec<u32>,
    /// Per tile: number of points with coverage below `k_target`. A zero
    /// is the "fully k-covered" summary bit that lets benefit scoring,
    /// `uncovered_ids` and restoration scans skip the whole tile.
    tile_below: Vec<u32>,
    /// CSR tile → points: tile `t` owns
    /// `tile_pids[tile_starts[t] .. tile_starts[t + 1]]`, each group in
    /// ascending point-id order.
    tile_starts: Vec<u32>,
    tile_pids: Vec<u32>,
}

impl CoverageMap {
    /// Builds a map over `points` (the field approximation). The spatial
    /// index bucket size is tied to `cfg.rs`, the dominant query radius.
    ///
    /// Panics if any point lies outside `field` or the point set is empty.
    pub fn new(points: Vec<Point>, field: &Aabb, cfg: &DeploymentConfig) -> Self {
        cfg.validate();
        assert!(
            !points.is_empty(),
            "a coverage map needs at least one point"
        );
        for &p in &points {
            assert!(
                field.contains(p),
                "approximation point {p} outside the field"
            );
        }
        let min_dim = field.width().min(field.height());
        let bucket = query_bucket_edge(cfg.rs, min_dim, points.len());
        let pt_index = FrozenGridIndex::from_points(
            field.min,
            (field.width(), field.height()),
            bucket,
            points.iter().copied().enumerate(),
        );
        let sensor_index = GridIndex::new(field.min, (field.width(), field.height()), bucket);
        let n = points.len();

        // Tile layer: counting-sort the points into a tile CSR (ascending
        // id within each tile, since ids are visited in order).
        let tile_edge = bucket * TILE_BUCKETS;
        let tile_cols = (field.width() / tile_edge).ceil().max(1.0) as usize;
        let tile_rows = (field.height() / tile_edge).ceil().max(1.0) as usize;
        let n_tiles = tile_cols * tile_rows;
        let mut tile_of_pid = Vec::with_capacity(n);
        let mut counts = vec![0u32; n_tiles];
        for &p in &points {
            let tx =
                (((p.x - field.min.x) / tile_edge).floor().max(0.0) as usize).min(tile_cols - 1);
            let ty =
                (((p.y - field.min.y) / tile_edge).floor().max(0.0) as usize).min(tile_rows - 1);
            let t = (ty * tile_cols + tx) as u32;
            tile_of_pid.push(t);
            counts[t as usize] += 1;
        }
        let mut tile_starts = Vec::with_capacity(n_tiles + 1);
        let mut acc = 0u32;
        for &c in &counts {
            tile_starts.push(acc);
            acc += c;
        }
        tile_starts.push(acc);
        let mut tile_pids = vec![0u32; n];
        let mut cursor = tile_starts[..n_tiles].to_vec();
        for (pid, &t) in tile_of_pid.iter().enumerate() {
            tile_pids[cursor[t as usize] as usize] = pid as u32;
            cursor[t as usize] += 1;
        }

        CoverageMap {
            field: *field,
            points,
            coverage: vec![0; n],
            pt_index,
            sensors: Vec::new(),
            sensor_index,
            inactive: Vec::new(),
            inactive_sorted: 0,
            rs_hist: BTreeMap::new(),
            max_rs: 0.0,
            k_target: cfg.k,
            cov_hist: vec![n],
            tile_cols,
            tile_rows,
            tile_edge,
            tile_of_pid,
            tile_below: counts,
            tile_starts,
            tile_pids,
        }
    }

    /// Rebuilds `self` as a bitwise copy of `template`, reusing every
    /// slab `self` already owns. Field-wise `clone_from` lets the point
    /// CSR, the bucket grids, the coverage slab and the tile layer all
    /// keep their capacity, so a warm map resets without touching the
    /// allocator. The result is indistinguishable from
    /// `template.clone()`.
    pub fn reset_from(&mut self, template: &CoverageMap) {
        self.field = template.field;
        self.points.clone_from(&template.points);
        self.coverage.clone_from(&template.coverage);
        self.pt_index.clone_from(&template.pt_index);
        self.sensors.clone_from(&template.sensors);
        self.sensor_index.clone_from(&template.sensor_index);
        self.inactive.clone_from(&template.inactive);
        self.inactive_sorted = template.inactive_sorted;
        self.rs_hist.clone_from(&template.rs_hist);
        self.max_rs = template.max_rs;
        self.k_target = template.k_target;
        self.cov_hist.clone_from(&template.cov_hist);
        self.tile_cols = template.tile_cols;
        self.tile_rows = template.tile_rows;
        self.tile_edge = template.tile_edge;
        self.tile_of_pid.clone_from(&template.tile_of_pid);
        self.tile_below.clone_from(&template.tile_below);
        self.tile_starts.clone_from(&template.tile_starts);
        self.tile_pids.clone_from(&template.tile_pids);
    }

    /// The coverage requirement this map was configured with.
    pub fn k_target(&self) -> u32 {
        self.k_target
    }

    /// The monitored field.
    pub fn field(&self) -> &Aabb {
        &self.field
    }

    /// The approximation points.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// Number of approximation points.
    pub fn n_points(&self) -> usize {
        self.points.len()
    }

    /// Current coverage count `k_p` of point `pid`.
    #[inline]
    pub fn coverage(&self, pid: usize) -> u32 {
        self.coverage[pid] as u32
    }

    /// Edge of the point and sensor index buckets (both grids share it).
    pub(crate) fn bucket_edge(&self) -> f64 {
        self.pt_index.cell()
    }

    /// The widest sensing radius among the active sensors (0.0 when none
    /// is active): no sensor covers a point farther than this from it.
    pub(crate) fn max_active_rs(&self) -> f64 {
        self.max_rs
    }

    /// Visits `(point_id, position)` for approximation points within `r`
    /// of `q`, in hash-grid bucket order, without allocating. Use for order-independent accumulation
    /// (sums, counts) on hot paths.
    pub fn for_each_point_within_unordered<F: FnMut(usize, Point)>(&self, q: Point, r: f64, f: F) {
        self.pt_index.for_each_within(q, r, f)
    }

    /// Like [`CoverageMap::for_each_point_within_unordered`], but stops as
    /// soon as `f` returns `false`. Returns `true` when the scan ran to
    /// completion. Use for order-independent early-exit predicates
    /// ("is any point in this disk under-covered?").
    pub fn for_each_point_within_while<F: FnMut(usize, Point) -> bool>(
        &self,
        q: Point,
        r: f64,
        f: F,
    ) -> bool {
        self.pt_index.for_each_within_while(q, r, f)
    }

    /// True when at least `k` active sensors cover location `q`, honoring
    /// each sensor's own radius. Early-exits at the `k`-th coverer instead
    /// of enumerating the whole disk — the cheap form of the k-coverage
    /// audit.
    pub fn covered_at_least(&self, q: Point, k: usize) -> bool {
        if k == 0 {
            return true;
        }
        if self.max_rs == 0.0 {
            return false;
        }
        let mut remaining = k;
        !self
            .sensor_index
            .for_each_within_while(q, self.max_rs, |id, pos| {
                let s = &self.sensors[id];
                debug_assert_eq!(pos, s.pos);
                if q.in_disk(s.pos, s.rs) {
                    remaining -= 1;
                }
                remaining > 0
            })
    }

    /// Visits `(sensor_id, position)` of every active sensor covering `q`
    /// (each sensor's own radius honored), in hash-grid bucket order,
    /// without allocating.
    pub fn for_each_sensor_covering<F: FnMut(usize, Point)>(&self, q: Point, mut f: F) {
        if self.max_rs == 0.0 {
            return;
        }
        self.sensor_index
            .for_each_within(q, self.max_rs, |id, pos| {
                let s = &self.sensors[id];
                debug_assert_eq!(pos, s.pos);
                if q.in_disk(s.pos, s.rs) {
                    f(id, pos);
                }
            });
    }

    /// Adds an active sensor; updates coverage of all points in its disk.
    pub fn add_sensor(&mut self, pos: Point, rs: f64) -> SensorId {
        assert!(
            rs > 0.0 && rs.is_finite(),
            "sensing radius must be positive"
        );
        let id = self.sensors.len();
        self.sensors.push(Sensor {
            pos,
            rs,
            active: true,
        });
        self.sensor_index.insert(id, pos);
        self.note_rs_activated(rs);
        let coverage = &mut self.coverage;
        let hist = &mut self.cov_hist;
        let tile_below = &mut self.tile_below;
        let tile_of_pid = &self.tile_of_pid;
        let kt = self.k_target;
        self.pt_index.for_each_within(pos, rs, |pid, _| {
            let c = coverage[pid] as usize;
            assert!(
                c < u8::MAX as usize,
                "coverage saturation: point {pid} already covered {c} times"
            );
            hist[c] -= 1;
            if hist.len() <= c + 1 {
                hist.resize(c + 2, 0);
            }
            hist[c + 1] += 1;
            coverage[pid] = (c + 1) as u8;
            if c + 1 == kt as usize {
                tile_below[tile_of_pid[pid] as usize] -= 1;
            }
        });
        id
    }

    /// Records an activation of radius `rs` in the radius histogram.
    fn note_rs_activated(&mut self, rs: f64) {
        *self.rs_hist.entry(rs.to_bits()).or_insert(0) += 1;
        if rs > self.max_rs {
            self.max_rs = rs;
        }
    }

    /// Records a deactivation of radius `rs`, shrinking the cached
    /// maximum when the last sensor of the widest radius went away.
    fn note_rs_deactivated(&mut self, rs: f64) {
        let bits = rs.to_bits();
        let n = self.rs_hist.get_mut(&bits).expect("radius histogram drift");
        *n -= 1;
        if *n == 0 {
            self.rs_hist.remove(&bits);
            if rs == self.max_rs {
                self.max_rs = self
                    .rs_hist
                    .keys()
                    .next_back()
                    .map_or(0.0, |&b| f64::from_bits(b));
            }
        }
    }

    /// Number of sensors ever added (active and inactive).
    pub fn n_sensors(&self) -> usize {
        self.sensors.len()
    }

    /// Number of currently active sensors. O(1).
    pub fn n_active_sensors(&self) -> usize {
        self.sensors.len() - self.inactive.len()
    }

    /// Ids of the inactive sensors, ascending. Takes `&mut self` because
    /// ids deactivated out of order are merged in here, not at each
    /// deactivation; with none pending this is O(1).
    ///
    /// An active sensor's *rank*, its position in
    /// [`CoverageMap::active_sensors`], is its id minus the number of
    /// inactive ids below it — a binary search in this list.
    pub(crate) fn inactive_sensors(&mut self) -> &[SensorId] {
        if self.inactive_sorted < self.inactive.len() {
            self.inactive.sort_unstable();
            self.inactive_sorted = self.inactive.len();
        }
        &self.inactive
    }

    /// Position of sensor `id`.
    pub fn sensor_pos(&self, id: SensorId) -> Point {
        self.sensors[id].pos
    }

    /// Sensing radius of sensor `id`.
    pub fn sensor_rs(&self, id: SensorId) -> f64 {
        self.sensors[id].rs
    }

    /// Is sensor `id` active?
    pub fn sensor_active(&self, id: SensorId) -> bool {
        self.sensors[id].active
    }

    /// Deactivates sensor `id` (failure), decrementing covered points.
    /// Idempotent; returns whether the sensor was active.
    pub fn deactivate_sensor(&mut self, id: SensorId) -> bool {
        if !self.sensors[id].active {
            return false;
        }
        self.sensors[id].active = false;
        if self.inactive_sorted == self.inactive.len()
            && self.inactive.last().is_none_or(|&last| last < id)
        {
            self.inactive_sorted += 1;
        }
        self.inactive.push(id);
        let pos = self.sensors[id].pos;
        let rs = self.sensors[id].rs;
        self.sensor_index.remove(id, pos);
        self.note_rs_deactivated(rs);
        let coverage = &mut self.coverage;
        let hist = &mut self.cov_hist;
        let tile_below = &mut self.tile_below;
        let tile_of_pid = &self.tile_of_pid;
        let kt = self.k_target;
        self.pt_index.for_each_within(pos, rs, |pid, _| {
            debug_assert!(coverage[pid] > 0, "coverage underflow");
            let c = coverage[pid] as usize;
            hist[c] -= 1;
            hist[c - 1] += 1;
            coverage[pid] = (c - 1) as u8;
            if c == kt as usize {
                tile_below[tile_of_pid[pid] as usize] += 1;
            }
        });
        true
    }

    /// Reactivates a previously deactivated sensor. Idempotent; returns
    /// whether the sensor was inactive.
    pub fn reactivate_sensor(&mut self, id: SensorId) -> bool {
        if self.sensors[id].active {
            return false;
        }
        self.sensors[id].active = true;
        let at = match self.inactive[..self.inactive_sorted].binary_search(&id) {
            Ok(at) => {
                self.inactive_sorted -= 1;
                at
            }
            // In the unsorted tail, most often its last entry (a probe
            // that deactivates and at once reactivates).
            Err(_) => self
                .inactive
                .iter()
                .rposition(|&i| i == id)
                .expect("an inactive sensor is listed"),
        };
        self.inactive.remove(at);
        let pos = self.sensors[id].pos;
        let rs = self.sensors[id].rs;
        self.sensor_index.insert(id, pos);
        self.note_rs_activated(rs);
        let coverage = &mut self.coverage;
        let hist = &mut self.cov_hist;
        let tile_below = &mut self.tile_below;
        let tile_of_pid = &self.tile_of_pid;
        let kt = self.k_target;
        self.pt_index.for_each_within(pos, rs, |pid, _| {
            let c = coverage[pid] as usize;
            assert!(
                c < u8::MAX as usize,
                "coverage saturation: point {pid} already covered {c} times"
            );
            hist[c] -= 1;
            if hist.len() <= c + 1 {
                hist.resize(c + 2, 0);
            }
            hist[c + 1] += 1;
            coverage[pid] = (c + 1) as u8;
            if c + 1 == kt as usize {
                tile_below[tile_of_pid[pid] as usize] -= 1;
            }
        });
        true
    }

    /// Ids of active sensors within distance `r` of `q` (sorted).
    pub fn sensors_within(&self, q: Point, r: f64) -> Vec<SensorId> {
        let mut v = self.sensor_index.within(q, r);
        v.sort_unstable();
        v
    }

    /// Visits `(sensor_id, position)` of active sensors within `r` of `q`.
    pub fn for_each_sensor_within<F: FnMut(usize, Point)>(&self, q: Point, r: f64, f: F) {
        self.sensor_index.for_each_within(q, r, f)
    }

    /// The active sensor nearest to `q`: `(id, position, distance)`, or
    /// `None` when no sensor is active. Ring-expanding search over the
    /// sensor index, so it is fast when a sensor is nearby.
    pub fn nearest_active_sensor(&self, q: Point) -> Option<(SensorId, Point, f64)> {
        self.sensor_index.nearest(q)
    }

    /// Fraction of approximation points with coverage `>= k`. O(k) via the
    /// incrementally-maintained coverage histogram.
    pub fn fraction_k_covered(&self, k: u32) -> f64 {
        if self.points.is_empty() {
            return 1.0;
        }
        let covered = self.points.len() - self.count_below(k);
        covered as f64 / self.points.len() as f64
    }

    /// Number of points with coverage below `k`. O(k), no sweep.
    pub fn count_below(&self, k: u32) -> usize {
        self.cov_hist
            .iter()
            .take((k as usize).min(self.cov_hist.len()))
            .sum()
    }

    /// Ids of points with coverage below `k`, ascending. Histogram-guided:
    /// returns empty in O(k) when nothing is below `k`. For `k` up to the
    /// configured [`CoverageMap::k_target`] the scan visits only deficient
    /// tiles (output-sensitive); only `k > k_target` pays a field sweep.
    pub fn uncovered_ids(&self, k: u32) -> Vec<usize> {
        let mut out = Vec::new();
        self.uncovered_ids_into(k, &mut out);
        out
    }

    /// [`CoverageMap::uncovered_ids`] into a reused buffer (cleared
    /// first).
    pub fn uncovered_ids_into(&self, k: u32, out: &mut Vec<usize>) {
        out.clear();
        if self.count_below(k) == 0 {
            return;
        }
        if k > self.k_target {
            out.extend((0..self.points.len()).filter(|&i| (self.coverage[i] as u32) < k));
            return;
        }
        // below-k ⊆ below-k_target, and every below-k_target point lives
        // in a tile with tile_below > 0; tile groups hold ascending pids
        // and tiles are visited in index order, so a final sort restores
        // the global ascending order across tiles.
        for (t, &below) in self.tile_below.iter().enumerate() {
            if below == 0 {
                continue;
            }
            let start = self.tile_starts[t] as usize;
            let end = self.tile_starts[t + 1] as usize;
            for &pid in &self.tile_pids[start..end] {
                if (self.coverage[pid as usize] as u32) < k {
                    out.push(pid as usize);
                }
            }
        }
        out.sort_unstable();
    }

    /// True when every approximation point inside the disk `(c, r)` has
    /// coverage at least the configured target. Tile-accelerated: tiles
    /// whose deficiency count is zero are skipped wholesale, so on a
    /// healthy field this is O(tiles touched) rather than O(points in
    /// disk).
    pub fn disk_fully_covered(&self, c: Point, r: f64) -> bool {
        if self.count_below(self.k_target) == 0 {
            return true;
        }
        if !self.tiles_deficient_near(c, r) {
            return true;
        }
        let kt = self.k_target;
        self.pt_index
            .for_each_within_while(c, r, |pid, _| (self.coverage[pid] as u32) >= kt)
    }

    /// Does any tile overlapping the disk `(c, r)` contain a
    /// below-target point?
    fn tiles_deficient_near(&self, c: Point, r: f64) -> bool {
        let (tx0, ty0) = self.tile_coords(Point::new(c.x - r, c.y - r));
        let (tx1, ty1) = self.tile_coords(Point::new(c.x + r, c.y + r));
        for ty in ty0..=ty1 {
            let row = ty * self.tile_cols;
            for tx in tx0..=tx1 {
                if self.tile_below[row + tx] > 0 {
                    return true;
                }
            }
        }
        false
    }

    /// Clamped tile coordinates of a location (which may lie outside the
    /// field, e.g. the corner of a query box).
    fn tile_coords(&self, p: Point) -> (usize, usize) {
        let tx = (((p.x - self.field.min.x) / self.tile_edge).floor().max(0.0) as usize)
            .min(self.tile_cols - 1);
        let ty = (((p.y - self.field.min.y) / self.tile_edge).floor().max(0.0) as usize)
            .min(self.tile_rows - 1);
        (tx, ty)
    }

    /// Total coverage deficit `Σ max(0, k - k_p)` over approximation
    /// points within `r` of `q` — the integer benefit of placing a
    /// `k`-requirement sensor there. Streams the CSR slabs in chunk
    /// ranges; ranges whose bucket box lies entirely inside the disk skip
    /// the per-point distance test.
    pub fn deficit_within(&self, q: Point, r: f64, k: u32) -> u64 {
        let rr = r * r;
        let coverage = &self.coverage;
        let mut sum = 0u64;
        self.pt_index
            .for_each_slab_range_within(q, r, |xs, ys, ids, all_inside| {
                if all_inside {
                    for &pid in ids {
                        let c = coverage[pid as usize] as u32;
                        sum += u64::from(k.saturating_sub(c));
                    }
                } else {
                    for i in 0..xs.len() {
                        let dx = xs[i] - q.x;
                        let dy = ys[i] - q.y;
                        let inside = (dx * dx + dy * dy <= rr) as u32;
                        let c = coverage[ids[i] as usize] as u32;
                        sum += u64::from(inside * k.saturating_sub(c));
                    }
                }
            });
        sum
    }

    /// Ascending ids of every point in a point-index bucket that holds a
    /// below-target point or lies within `margin` of one: the
    /// output-sensitive restoration candidate set. Any location whose
    /// `rs`-disk (for `rs <= margin`) reaches a below-target point lies in
    /// one of these buckets, so greedy placement restricted to these
    /// candidates sees every positive-benefit point. Empty on a field
    /// with nothing below target; every id when every bucket is marked.
    pub fn deficit_candidates(&self, margin: f64) -> Vec<usize> {
        let mut marked = Vec::new();
        let mut out = Vec::new();
        self.deficit_candidates_into(margin, &mut marked, &mut out);
        out
    }

    /// Buffer-reuse variant of [`CoverageMap::deficit_candidates`]:
    /// `marked` is a bucket-flag scratch buffer and `out` receives the
    /// candidate ids (both cleared first). With warm buffers this does
    /// not allocate unless the candidate set outgrows `out`.
    ///
    /// The below-target points are found through the deficient tiles'
    /// CSR. Each marks its own bucket and the buckets around it: one ring
    /// when `margin` is at most the bucket edge, because a disk query no
    /// wider than a bucket scans exactly the 3×3 bucket neighbourhood of
    /// its centre, so a candidate whose scan reaches the point sits in
    /// that point's neighbourhood too. A wider query scans the buckets
    /// its rounded bounding box touches, so a wider margin marks
    /// `⌈margin / bucket⌉` rings plus one that absorbs the rounding.
    pub fn deficit_candidates_into(
        &self,
        margin: f64,
        marked: &mut Vec<bool>,
        out: &mut Vec<usize>,
    ) {
        out.clear();
        marked.clear();
        if self.count_below(self.k_target) == 0 {
            return;
        }
        let cell = self.pt_index.cell();
        let (nx, ny) = self.pt_index.dims();
        let ring = if margin <= cell {
            1
        } else {
            (margin / cell).ceil() as usize + 1
        };
        marked.resize(nx * ny, false);
        let (mut x0, mut y0, mut x1, mut y1) = (nx, ny, 0, 0);
        let mut n_marked = 0usize;
        for (t, &below) in self.tile_below.iter().enumerate() {
            if below == 0 {
                continue;
            }
            let start = self.tile_starts[t] as usize;
            let end = self.tile_starts[t + 1] as usize;
            for &pid in &self.tile_pids[start..end] {
                let pid = pid as usize;
                if self.coverage[pid] as u32 >= self.k_target {
                    continue;
                }
                let (bx, by) = self.pt_index.bucket_coords(self.points[pid]);
                let (bx0, bx1) = (bx.saturating_sub(ring), (bx + ring).min(nx - 1));
                let (by0, by1) = (by.saturating_sub(ring), (by + ring).min(ny - 1));
                for y in by0..=by1 {
                    for flag in &mut marked[y * nx + bx0..=y * nx + bx1] {
                        n_marked += usize::from(!*flag);
                        *flag = true;
                    }
                }
                (x0, y0, x1, y1) = (x0.min(bx0), y0.min(by0), x1.max(bx1), y1.max(by1));
            }
        }
        if n_marked == nx * ny {
            out.extend(0..self.points.len());
            return;
        }
        for y in y0..=y1 {
            for x in x0..=x1 {
                if marked[y * nx + x] {
                    out.extend(
                        self.pt_index
                            .bucket_ids(x, y)
                            .iter()
                            .map(|&pid| pid as usize),
                    );
                }
            }
        }
        out.sort_unstable();
    }

    /// The minimum coverage over all points. O(min) via the histogram.
    pub fn min_coverage(&self) -> u32 {
        self.cov_hist.iter().position(|&n| n > 0).unwrap_or(0) as u32
    }

    /// Positions of all active sensors (paired with ids, ascending).
    pub fn active_sensors(&self) -> Vec<(SensorId, Point)> {
        let mut out = Vec::new();
        self.active_sensors_into(&mut out);
        out
    }

    /// [`CoverageMap::active_sensors`] into a reused buffer (cleared
    /// first).
    pub fn active_sensors_into(&self, out: &mut Vec<(SensorId, Point)>) {
        out.clear();
        out.extend(
            self.sensors
                .iter()
                .enumerate()
                .filter(|(_, s)| s.active)
                .map(|(i, s)| (i, s.pos)),
        );
    }

    /// Recomputes every point's coverage from scratch (O(n·deg)) and
    /// asserts it matches the incremental counters, the coverage
    /// histogram, the per-tile deficiency summaries, the active-radius
    /// histogram and the inactive-id list. Test/debug aid.
    pub fn verify_consistency(&self) {
        for (pid, &p) in self.points.iter().enumerate() {
            let truth = self
                .sensors
                .iter()
                .filter(|s| s.active && p.in_disk(s.pos, s.rs))
                .count() as u32;
            assert_eq!(
                truth, self.coverage[pid] as u32,
                "coverage drift at point {pid} ({p})"
            );
        }
        let mut hist = vec![0usize; self.cov_hist.len()];
        for &c in &self.coverage {
            hist[c as usize] += 1;
        }
        assert_eq!(hist, self.cov_hist, "coverage histogram drift");
        let mut tile_below = vec![0u32; self.tile_below.len()];
        for (pid, &t) in self.tile_of_pid.iter().enumerate() {
            if (self.coverage[pid] as u32) < self.k_target {
                tile_below[t as usize] += 1;
            }
        }
        assert_eq!(tile_below, self.tile_below, "tile deficiency drift");
        let mut rs_hist: BTreeMap<u64, u32> = BTreeMap::new();
        for s in self.sensors.iter().filter(|s| s.active) {
            *rs_hist.entry(s.rs.to_bits()).or_insert(0) += 1;
        }
        assert_eq!(rs_hist, self.rs_hist, "active-radius histogram drift");
        let true_max = rs_hist
            .keys()
            .next_back()
            .map_or(0.0, |&b| f64::from_bits(b));
        assert_eq!(true_max, self.max_rs, "max active radius drift");
        let prefix = &self.inactive[..self.inactive_sorted];
        assert!(
            prefix.windows(2).all(|w| w[0] < w[1]),
            "inactive-id prefix out of order"
        );
        let mut inactive = self.inactive.clone();
        inactive.sort_unstable();
        let truth: Vec<SensorId> = (0..self.sensors.len())
            .filter(|&id| !self.sensors[id].active)
            .collect();
        assert_eq!(inactive, truth, "inactive-id list drift");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Aabb {
        Aabb::square(100.0)
    }

    fn grid_points(n_side: usize) -> Vec<Point> {
        let mut pts = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                pts.push(Point::new(
                    100.0 * (i as f64 + 0.5) / n_side as f64,
                    100.0 * (j as f64 + 0.5) / n_side as f64,
                ));
            }
        }
        pts
    }

    fn map() -> CoverageMap {
        CoverageMap::new(grid_points(20), &field(), &DeploymentConfig::default())
    }

    #[test]
    fn fresh_map_is_uncovered() {
        let m = map();
        assert_eq!(m.n_points(), 400);
        assert_eq!(m.fraction_k_covered(1), 0.0);
        assert_eq!(m.min_coverage(), 0);
        assert_eq!(m.count_below(1), 400);
    }

    #[test]
    fn add_sensor_covers_its_disk() {
        let mut m = map();
        m.add_sensor(Point::new(50.0, 50.0), 10.0);
        let covered: Vec<usize> = (0..m.n_points()).filter(|&i| m.coverage(i) > 0).collect();
        assert!(!covered.is_empty());
        for &pid in &covered {
            assert!(m.points()[pid].dist(Point::new(50.0, 50.0)) <= 10.0);
        }
        m.verify_consistency();
    }

    #[test]
    fn overlapping_sensors_stack_coverage() {
        let mut m = map();
        m.add_sensor(Point::new(50.0, 50.0), 10.0);
        m.add_sensor(Point::new(50.0, 50.0), 10.0);
        m.add_sensor(Point::new(50.0, 50.0), 10.0);
        let pid = (0..m.n_points())
            .find(|&p| m.points()[p].dist(Point::new(50.0, 50.0)) <= 4.0)
            .unwrap();
        assert_eq!(m.coverage(pid), 3);
        let stacked = (0..m.n_points()).filter(|&p| m.coverage(p) >= 2).count();
        assert!(stacked > 0 && stacked < m.n_points());
        assert_eq!(m.fraction_k_covered(2), stacked as f64 / 400.0);
        m.verify_consistency();
    }

    #[test]
    fn deactivate_and_reactivate_roundtrip() {
        let mut m = map();
        let s = m.add_sensor(Point::new(30.0, 30.0), 8.0);
        let before: Vec<u32> = (0..m.n_points()).map(|i| m.coverage(i)).collect();
        assert!(m.deactivate_sensor(s));
        assert!(!m.deactivate_sensor(s), "idempotent");
        assert_eq!(m.fraction_k_covered(1), 0.0);
        assert_eq!(m.n_active_sensors(), 0);
        assert!(m.reactivate_sensor(s));
        assert!(!m.reactivate_sensor(s), "idempotent");
        let after: Vec<u32> = (0..m.n_points()).map(|i| m.coverage(i)).collect();
        assert_eq!(before, after);
        m.verify_consistency();
    }

    /// The inactive-id list follows deactivations in any order,
    /// reactivations from its sorted part and from its unsorted tail, and
    /// `reset_from`.
    #[test]
    fn inactive_ids_track_out_of_order_churn() {
        let mut m = map();
        for i in 0..20 {
            m.add_sensor(Point::new(4.0 + 4.5 * i as f64, 50.0), 5.0);
        }
        for sid in [2, 5, 9, 7, 1, 15, 3] {
            assert!(m.deactivate_sensor(sid));
        }
        m.verify_consistency();
        assert_eq!(m.n_active_sensors(), 13);
        assert!(m.reactivate_sensor(5)); // from the sorted part
        assert!(m.reactivate_sensor(1)); // from the unsorted tail
        m.verify_consistency();
        let mut copy = CoverageMap::new(grid_points(4), &field(), &DeploymentConfig::default());
        copy.reset_from(&m);
        assert_eq!(copy.inactive_sensors(), &[2, 3, 7, 9, 15]);
        assert_eq!(m.inactive_sensors(), &[2, 3, 7, 9, 15]);
        assert!(m.deactivate_sensor(19)); // appends in order
        assert!(m.deactivate_sensor(0)); // out of order again
        m.verify_consistency();
        assert_eq!(m.inactive_sensors(), &[0, 2, 3, 7, 9, 15, 19]);
        assert_eq!(m.n_active_sensors(), 13);
        let active: Vec<SensorId> = m.active_sensors().iter().map(|&(s, _)| s).collect();
        assert_eq!(active.len(), m.n_active_sensors());
    }

    #[test]
    fn sensors_covering_honors_individual_radii() {
        let mut m = map();
        let near = m.add_sensor(Point::new(50.0, 50.0), 3.0);
        let far = m.add_sensor(Point::new(58.0, 50.0), 12.0);
        let q = Point::new(52.0, 50.0);
        let covering = |q| {
            let mut ids = Vec::new();
            m.for_each_sensor_covering(q, |id, _| ids.push(id));
            ids.sort_unstable();
            ids
        };
        // near covers q (d=2 <= 3); far covers q (d=6 <= 12).
        assert_eq!(covering(q), vec![near, far]);
        let q2 = Point::new(54.0, 50.0); // d(near)=4 > 3, d(far)=4 <= 12
        assert_eq!(covering(q2), vec![far]);
    }

    #[test]
    fn uncovered_ids_match_count_below() {
        let mut m = map();
        m.add_sensor(Point::new(50.0, 50.0), 30.0);
        assert_eq!(m.uncovered_ids(1).len(), m.count_below(1));
        assert_eq!(m.uncovered_ids(2).len(), m.count_below(2));
        assert!(m.count_below(2) >= m.count_below(1));
    }

    #[test]
    fn full_coverage_reachable() {
        let mut m = map();
        // Blanket the field with a coarse sensor lattice.
        for i in 0..10 {
            for j in 0..10 {
                m.add_sensor(
                    Point::new(5.0 + 10.0 * i as f64, 5.0 + 10.0 * j as f64),
                    8.0,
                );
            }
        }
        assert_eq!(m.fraction_k_covered(1), 1.0);
        assert!(m.min_coverage() >= 1);
        m.verify_consistency();
    }

    #[test]
    #[should_panic(expected = "outside the field")]
    fn point_outside_field_panics() {
        let _ = CoverageMap::new(
            vec![Point::new(500.0, 0.0)],
            &field(),
            &DeploymentConfig::default(),
        );
    }

    #[test]
    #[should_panic(expected = "at least one point")]
    fn empty_point_set_panics() {
        let _ = CoverageMap::new(Vec::new(), &field(), &DeploymentConfig::default());
    }

    #[test]
    fn active_sensor_listing() {
        let mut m = map();
        let a = m.add_sensor(Point::new(10.0, 10.0), 4.0);
        let b = m.add_sensor(Point::new(20.0, 20.0), 4.0);
        m.deactivate_sensor(a);
        let act = m.active_sensors();
        assert_eq!(act.len(), 1);
        assert_eq!(act[0].0, b);
        assert_eq!(m.n_sensors(), 2);
        assert_eq!(m.n_active_sensors(), 1);
    }

    #[test]
    fn sensor_accessors() {
        let mut m = map();
        let s = m.add_sensor(Point::new(12.0, 34.0), 5.0);
        assert_eq!(m.sensor_pos(s), Point::new(12.0, 34.0));
        assert_eq!(m.sensor_rs(s), 5.0);
        assert!(m.sensor_active(s));
    }

    /// Regression: the query radius used to ratchet up forever. In a
    /// heterogeneous field, one huge-radius sensor dying must shrink
    /// `max_rs` back to the widest *surviving* radius.
    #[test]
    fn max_rs_shrinks_when_wide_sensor_dies() {
        let mut m = map();
        let a = m.add_sensor(Point::new(10.0, 10.0), 4.0);
        let big = m.add_sensor(Point::new(50.0, 50.0), 60.0);
        let b = m.add_sensor(Point::new(90.0, 90.0), 7.0);
        assert_eq!(m.max_rs, 60.0);
        m.deactivate_sensor(big);
        assert_eq!(m.max_rs, 7.0);
        m.verify_consistency();
        // Coverage queries still honor the surviving radii.
        assert!(m.covered_at_least(Point::new(90.0, 88.0), 1));
        assert!(!m.covered_at_least(Point::new(50.0, 50.0), 1));
        m.reactivate_sensor(big);
        assert_eq!(m.max_rs, 60.0);
        m.deactivate_sensor(a);
        m.deactivate_sensor(big);
        m.deactivate_sensor(b);
        assert_eq!(m.max_rs, 0.0);
        m.verify_consistency();
    }

    /// Duplicate radii must survive one of their sensors deactivating.
    #[test]
    fn max_rs_with_duplicate_radii() {
        let mut m = map();
        let a = m.add_sensor(Point::new(20.0, 20.0), 9.0);
        let _b = m.add_sensor(Point::new(80.0, 80.0), 9.0);
        m.deactivate_sensor(a);
        assert_eq!(m.max_rs, 9.0);
        m.verify_consistency();
    }

    /// The tile-guided `uncovered_ids` path must agree with a naive
    /// field sweep at every `k`, below and above the target.
    #[test]
    fn uncovered_ids_matches_sweep_at_all_k() {
        let cfg = DeploymentConfig {
            k: 3,
            ..DeploymentConfig::default()
        };
        let mut m = CoverageMap::new(grid_points(20), &field(), &cfg);
        m.add_sensor(Point::new(30.0, 30.0), 25.0);
        m.add_sensor(Point::new(40.0, 35.0), 18.0);
        m.add_sensor(Point::new(70.0, 60.0), 22.0);
        m.add_sensor(Point::new(55.0, 45.0), 12.0);
        for k in 0..=5 {
            let sweep: Vec<usize> = (0..m.n_points()).filter(|&i| m.coverage(i) < k).collect();
            assert_eq!(m.uncovered_ids(k), sweep, "k={k}");
        }
    }

    /// Histogram early-out: once everything is covered at `k`, the
    /// answer is empty without touching any tile.
    #[test]
    fn uncovered_ids_early_out_when_fully_covered() {
        let cfg = DeploymentConfig {
            k: 1,
            ..DeploymentConfig::default()
        };
        let mut m = CoverageMap::new(grid_points(20), &field(), &cfg);
        m.add_sensor(Point::new(50.0, 50.0), 80.0);
        assert!(m.uncovered_ids(1).is_empty());
        assert!(m.disk_fully_covered(Point::new(50.0, 50.0), 10.0));
    }

    #[test]
    fn deficit_within_matches_naive_sum() {
        let mut m = map();
        m.add_sensor(Point::new(45.0, 45.0), 15.0);
        m.add_sensor(Point::new(60.0, 50.0), 10.0);
        for &(q, r, k) in &[
            (Point::new(50.0, 50.0), 12.0, 2u32),
            (Point::new(10.0, 10.0), 30.0, 1),
            (Point::new(50.0, 50.0), 70.0, 3),
        ] {
            let naive: u64 = (0..m.n_points())
                .filter(|&i| m.points()[i].in_disk(q, r))
                .map(|i| u64::from(k.saturating_sub(m.coverage(i))))
                .sum();
            assert_eq!(m.deficit_within(q, r, k), naive, "q={q} r={r} k={k}");
        }
    }

    /// The restoration candidate set covers every deficient point plus a
    /// margin ring, and collapses to empty on a healthy field.
    #[test]
    fn deficit_candidates_cover_deficient_points_with_margin() {
        let cfg = DeploymentConfig {
            k: 1,
            ..DeploymentConfig::default()
        };
        let mut m = CoverageMap::new(grid_points(20), &field(), &cfg);
        m.add_sensor(Point::new(50.0, 50.0), 80.0); // cover all
        assert!(m.deficit_candidates(8.0).is_empty());

        let mut m = CoverageMap::new(grid_points(20), &field(), &cfg);
        m.add_sensor(Point::new(25.0, 25.0), 30.0);
        let cands = m.deficit_candidates(8.0);
        let deficient = m.uncovered_ids(1);
        // Every deficient point is a candidate, and so is every point
        // within the margin of one (the greedy-placement superset).
        for pid in &deficient {
            assert!(cands.binary_search(pid).is_ok());
        }
        for pid in 0..m.n_points() {
            let p = m.points()[pid];
            let near_deficient = deficient.iter().any(|&d| m.points()[d].dist(p) <= 8.0);
            if near_deficient {
                assert!(cands.binary_search(&pid).is_ok(), "missing candidate {pid}");
            }
        }
        assert!(cands.windows(2).all(|w| w[0] < w[1]), "sorted unique");
        // Bucket-tight: far from every deficient point, nothing is a
        // candidate. The bucket edge here is `rs` = 4, so the margin of 8
        // marks 2 + 1 rings, and a marked bucket lies within 16 units of
        // a deficient point along each axis (a tile is 64 units wide).
        for &pid in &cands {
            let p = m.points()[pid];
            assert!(deficient
                .iter()
                .any(|&d| m.points()[d].dist(p) < 16.0 * 2f64.sqrt()));
        }
    }

    /// A sensor stack reaching 255 coverers trips the saturation guard.
    #[test]
    #[should_panic(expected = "coverage saturation")]
    fn coverage_saturation_guard_trips() {
        let pts = vec![Point::new(50.0, 50.0)];
        let mut m = CoverageMap::new(pts, &field(), &DeploymentConfig::default());
        for _ in 0..256 {
            m.add_sensor(Point::new(50.0, 50.0), 5.0);
        }
    }
}
