//! Delaunay triangulation (Bowyer–Watson) and exact global Voronoi cells.
//!
//! A *node* can compute only its local Voronoi cell (paper Definition 1,
//! bounded by its communication radius). For analysis we also want the
//! exact, global diagram: a sensor's true Voronoi cell is the
//! intersection of the bisector half-planes against its **Delaunay
//! neighbors** only (a classical duality), so one triangulation yields
//! every cell exactly.
//!
//! Used by deployment diagnostics (cell-area variance = load balance),
//! by tests cross-validating the rc-limited local cells, and available to
//! downstream users for the Voronoi-path analyses of the paper's related
//! work [13, 24].

use crate::aabb::Aabb;
use crate::point::Point;
use crate::polygon::{ConvexPolygon, HalfPlane};
use std::collections::BTreeSet;

/// A Delaunay triangulation of a planar point set.
///
/// ```
/// use decor_geom::{Aabb, Delaunay, Point};
///
/// let sites = vec![
///     Point::new(25.0, 25.0),
///     Point::new(75.0, 25.0),
///     Point::new(50.0, 75.0),
/// ];
/// let d = Delaunay::build(&sites);
/// assert_eq!(d.triangles().len(), 1);
/// // The exact Voronoi cells tile the field.
/// let field = Aabb::square(100.0);
/// let total: f64 = d.voronoi_cells(&field).iter().map(|c| c.area()).sum();
/// assert!((total - field.area()).abs() < 1e-6);
/// ```
#[derive(Clone, Debug)]
pub struct Delaunay {
    points: Vec<Point>,
    /// Triangles as index triples (counter-clockwise).
    triangles: Vec<[usize; 3]>,
    /// Degenerate flag: fewer than 3 points or all (near-)collinear.
    degenerate: bool,
}

/// Is point `p` strictly inside the circumcircle of CCW triangle
/// `(a, b, c)`? Standard 3×3 determinant test.
///
/// The determinant scales with coordinate⁴, so the near-cocircular
/// tolerance is normalized by the squared magnitudes of the lifted
/// vertices — the same triangle at 1×, 100×, or 10000× coordinate scale
/// gets the same verdict.
fn in_circumcircle(a: Point, b: Point, c: Point, p: Point) -> bool {
    let ax = a.x - p.x;
    let ay = a.y - p.y;
    let bx = b.x - p.x;
    let by = b.y - p.y;
    let cx = c.x - p.x;
    let cy = c.y - p.y;
    let la = ax * ax + ay * ay;
    let lb = bx * bx + by * by;
    let lc = cx * cx + cy * cy;
    let det = la * (bx * cy - cx * by) - lb * (ax * cy - cx * ay) + lc * (ax * by - bx * ay);
    let scale = la.max(lb).max(lc);
    det > 1e-12 * scale * scale
}

/// Signed twice-area of triangle `(a, b, c)`; positive when CCW.
fn orient(a: Point, b: Point, c: Point) -> f64 {
    (b - a).cross(c - a)
}

impl Delaunay {
    /// Builds the triangulation. Duplicate points are collapsed; for
    /// degenerate inputs (fewer than three distinct points, or all
    /// collinear) the triangulation is empty and neighbor queries fall
    /// back to "all other points".
    pub fn build(points: &[Point]) -> Self {
        // Collapse exact duplicates while keeping original indexing:
        // duplicates get no triangles of their own but remain addressable.
        let pts = points.to_vec();
        let n = pts.len();
        if n < 3 {
            return Delaunay {
                points: pts,
                triangles: Vec::new(),
                degenerate: true,
            };
        }
        // Super-triangle comfortably containing the bounding box.
        let mut lo = pts[0];
        let mut hi = pts[0];
        for &p in &pts {
            lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
            hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
        }
        // The floor only guards all-coincident inputs; it must not be an
        // absolute constant or the super-triangle's relative size (and
        // with it hull-adjacent combinatorics) would depend on the
        // coordinate scale.
        let raw_span = (hi.x - lo.x).max(hi.y - lo.y);
        let span = if raw_span > 0.0 {
            raw_span
        } else {
            hi.x.abs().max(hi.y.abs()).max(1.0)
        };
        let mid = lo.midpoint(hi);
        let s0 = Point::new(mid.x - 20.0 * span, mid.y - 10.0 * span);
        let s1 = Point::new(mid.x + 20.0 * span, mid.y - 10.0 * span);
        let s2 = Point::new(mid.x, mid.y + 20.0 * span);
        // Working vertex array: real points then the 3 super vertices.
        let mut verts = pts.clone();
        verts.extend([s0, s1, s2]);
        let (i0, i1, i2) = (n, n + 1, n + 2);
        let mut tris: Vec<[usize; 3]> = vec![[i0, i1, i2]];

        let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
        for (pi, &p) in pts.iter().enumerate() {
            let key = (p.x.to_bits(), p.y.to_bits());
            if !seen.insert(key) {
                continue; // duplicate point: skip insertion
            }
            // Bad triangles: circumcircle contains p.
            let mut bad: Vec<usize> = Vec::new();
            for (ti, t) in tris.iter().enumerate() {
                if in_circumcircle(verts[t[0]], verts[t[1]], verts[t[2]], p) {
                    bad.push(ti);
                }
            }
            // Boundary polygon: edges of bad triangles not shared by two
            // bad triangles.
            let mut edge_count: std::collections::BTreeMap<(usize, usize), usize> =
                std::collections::BTreeMap::new();
            for &ti in &bad {
                let t = tris[ti];
                for e in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                    let k = (e.0.min(e.1), e.0.max(e.1));
                    *edge_count.entry(k).or_insert(0) += 1;
                }
            }
            // Remove bad triangles (descending indices to keep validity).
            bad.sort_unstable_by(|a, b| b.cmp(a));
            // Collect boundary with orientation from the bad set.
            let mut boundary: Vec<(usize, usize)> = Vec::new();
            for &ti in &bad {
                let t = tris[ti];
                for e in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                    let k = (e.0.min(e.1), e.0.max(e.1));
                    if edge_count[&k] == 1 {
                        boundary.push(e);
                    }
                }
            }
            for ti in bad {
                tris.swap_remove(ti);
            }
            // Re-triangulate the cavity.
            for (u, v) in boundary {
                let mut t = [u, v, pi];
                if orient(verts[t[0]], verts[t[1]], verts[t[2]]) < 0.0 {
                    t.swap(0, 1);
                }
                // Skip exactly-degenerate slivers. `orient` scales with
                // coordinate², so normalize by the adjacent edge lengths:
                // the filter rejects on sin(angle), not on absolute area.
                let (va, vb, vc) = (verts[t[0]], verts[t[1]], verts[t[2]]);
                let scale = ((vb - va).norm_sq() * (vc - va).norm_sq()).sqrt();
                if orient(va, vb, vc).abs() > 1e-12 * scale {
                    tris.push(t);
                }
            }
        }
        // Drop triangles touching the super vertices.
        let triangles: Vec<[usize; 3]> = tris
            .into_iter()
            .filter(|t| t.iter().all(|&v| v < n))
            .collect();
        let degenerate = triangles.is_empty();
        Delaunay {
            points: pts,
            triangles,
            degenerate,
        }
    }

    /// The triangles (empty for degenerate inputs).
    pub fn triangles(&self) -> &[[usize; 3]] {
        &self.triangles
    }

    /// True when the input admitted no triangulation (collinear / tiny).
    pub fn is_degenerate(&self) -> bool {
        self.degenerate
    }

    /// Undirected Delaunay edges as `(min, max)` index pairs.
    pub fn edges(&self) -> BTreeSet<(usize, usize)> {
        let mut out = BTreeSet::new();
        for t in &self.triangles {
            for e in [(t[0], t[1]), (t[1], t[2]), (t[2], t[0])] {
                out.insert((e.0.min(e.1), e.0.max(e.1)));
            }
        }
        out
    }

    /// Delaunay neighbors of point `i`. For degenerate triangulations
    /// (where the duality argument breaks down) this conservatively
    /// returns *all* other points, which keeps Voronoi cells exact.
    pub fn neighbors(&self, i: usize) -> Vec<usize> {
        if self.degenerate {
            return (0..self.points.len()).filter(|&j| j != i).collect();
        }
        let mut out = BTreeSet::new();
        for t in &self.triangles {
            if t.contains(&i) {
                for &v in t {
                    if v != i {
                        out.insert(v);
                    }
                }
            }
        }
        // Points that ended up without any triangle (duplicates) also
        // fall back to the conservative neighbor set.
        if out.is_empty() && self.points.len() > 1 {
            return (0..self.points.len()).filter(|&j| j != i).collect();
        }
        out.into_iter().collect()
    }

    /// The exact Voronoi cell of point `i`, clipped to `field`.
    ///
    /// Correctness leans on the duality theorem: every bounding bisector
    /// of a Voronoi cell belongs to a Delaunay neighbor.
    pub fn voronoi_cell(&self, i: usize, field: &Aabb) -> ConvexPolygon {
        let me = self.points[i];
        let planes: Vec<HalfPlane> = self
            .neighbors(i)
            .into_iter()
            .filter(|&j| self.points[j] != me)
            .map(|j| HalfPlane::bisector(me, self.points[j]))
            .collect();
        ConvexPolygon::from_aabb(field).clip_all(planes.iter())
    }

    /// All Voronoi cells, clipped to `field`.
    pub fn voronoi_cells(&self, field: &Aabb) -> Vec<ConvexPolygon> {
        (0..self.points.len())
            .map(|i| self.voronoi_cell(i, field))
            .collect()
    }
}

/// Coefficient of variation (std/mean) of the Voronoi cell areas of
/// `points` within `field` — a load-balance measure: 0 for perfectly
/// even responsibility regions. Duplicated points share a cell and are
/// counted once; returns 0 for fewer than 2 distinct points.
pub fn cell_area_cv(points: &[Point], field: &Aabb) -> f64 {
    let mut seen: BTreeSet<(u64, u64)> = BTreeSet::new();
    let mut distinct: Vec<Point> = Vec::new();
    for &p in points {
        if seen.insert((p.x.to_bits(), p.y.to_bits())) {
            distinct.push(p);
        }
    }
    if distinct.len() < 2 {
        return 0.0;
    }
    let d = Delaunay::build(&distinct);
    let areas: Vec<f64> = d.voronoi_cells(field).iter().map(|c| c.area()).collect();
    let mean = areas.iter().sum::<f64>() / areas.len() as f64;
    if mean <= 0.0 {
        return 0.0;
    }
    let var = areas.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / areas.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn field() -> Aabb {
        Aabb::square(100.0)
    }

    fn scatter(n: usize) -> Vec<Point> {
        // Deterministic LCG scatter.
        let mut state = 0x853C49E6748FEA9Bu64;
        (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let x = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let y = (state >> 11) as f64 / (1u64 << 53) as f64 * 100.0;
                Point::new(x, y)
            })
            .collect()
    }

    #[test]
    fn square_triangulates_into_two_triangles() {
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ];
        let d = Delaunay::build(&pts);
        assert_eq!(d.triangles().len(), 2);
        assert_eq!(d.edges().len(), 5); // 4 sides + 1 diagonal
        assert!(!d.is_degenerate());
    }

    #[test]
    fn empty_circumcircle_property_holds() {
        let pts = scatter(60);
        let d = Delaunay::build(&pts);
        assert!(!d.is_degenerate());
        for t in d.triangles() {
            for (pi, &p) in pts.iter().enumerate() {
                if t.contains(&pi) {
                    continue;
                }
                assert!(
                    !in_circumcircle(pts[t[0]], pts[t[1]], pts[t[2]], p),
                    "point {pi} inside circumcircle of {t:?}"
                );
            }
        }
    }

    #[test]
    fn triangle_count_matches_euler_formula() {
        // For a triangulated point set: T = 2n - 2 - h, where h is the
        // number of hull vertices. Verify the weaker bound and edge
        // consistency E = (3T + h) / 2 via Euler: V - E + F = 2.
        let pts = scatter(40);
        let d = Delaunay::build(&pts);
        let t = d.triangles().len();
        let e = d.edges().len();
        // F = T + outer face.
        assert_eq!(40 - e as i64 + (t as i64 + 1), 2, "Euler characteristic");
    }

    #[test]
    fn voronoi_cells_partition_the_field() {
        let pts = scatter(30);
        let d = Delaunay::build(&pts);
        let cells = d.voronoi_cells(&field());
        let total: f64 = cells.iter().map(|c| c.area()).sum();
        assert!(
            (total - 10_000.0).abs() < 1.0,
            "cells must tile the field: {total}"
        );
        for (i, cell) in cells.iter().enumerate() {
            assert!(cell.contains(pts[i]), "cell {i} must contain its site");
        }
    }

    #[test]
    fn voronoi_cells_agree_with_nearest_site() {
        let pts = scatter(25);
        let d = Delaunay::build(&pts);
        let cells = d.voronoi_cells(&field());
        // Sample a grid: each sample's nearest site's cell contains it.
        for gx in 0..20 {
            for gy in 0..20 {
                let q = Point::new(2.5 + 5.0 * gx as f64, 2.5 + 5.0 * gy as f64);
                let (ni, nd) = pts
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, q.dist(*p)))
                    .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                    .unwrap();
                // Skip near-ties where float noise could flip ownership.
                let second = pts
                    .iter()
                    .enumerate()
                    .filter(|&(i, _)| i != ni)
                    .map(|(_, p)| q.dist(*p))
                    .fold(f64::INFINITY, f64::min);
                if second - nd < 1e-6 {
                    continue;
                }
                assert!(cells[ni].contains(q), "sample {q} outside cell {ni}");
            }
        }
    }

    #[test]
    fn collinear_points_are_degenerate_but_cells_still_exact() {
        let pts: Vec<Point> = (0..5)
            .map(|i| Point::new(10.0 + 20.0 * i as f64, 50.0))
            .collect();
        let d = Delaunay::build(&pts);
        assert!(d.is_degenerate());
        assert!(d.triangles().is_empty());
        let cells = d.voronoi_cells(&field());
        let total: f64 = cells.iter().map(|c| c.area()).sum();
        assert!((total - 10_000.0).abs() < 1.0, "strip cells tile: {total}");
        // Middle site owns a vertical strip of width 20.
        assert!((cells[2].area() - 2000.0).abs() < 1.0);
    }

    #[test]
    fn tiny_inputs() {
        assert!(Delaunay::build(&[]).triangles().is_empty());
        let one = Delaunay::build(&[Point::new(5.0, 5.0)]);
        assert!(one.is_degenerate());
        let cells = one.voronoi_cells(&field());
        assert!((cells[0].area() - 10_000.0).abs() < 1e-6);
        let two = Delaunay::build(&[Point::new(25.0, 50.0), Point::new(75.0, 50.0)]);
        let cells2 = two.voronoi_cells(&field());
        assert!((cells2[0].area() - 5000.0).abs() < 1e-6);
        assert!((cells2[1].area() - 5000.0).abs() < 1e-6);
    }

    #[test]
    fn duplicate_points_share_cells_safely() {
        let pts = vec![
            Point::new(30.0, 30.0),
            Point::new(30.0, 30.0),
            Point::new(70.0, 70.0),
            Point::new(20.0, 80.0),
        ];
        let d = Delaunay::build(&pts);
        // The duplicate gets the conservative neighbor fallback and an
        // empty cell (its bisector against its twin is undefined; we
        // filter coincident sites, so it shares the twin's region).
        let cell = d.voronoi_cell(0, &field());
        assert!(cell.contains(Point::new(30.0, 30.0)));
    }

    #[test]
    fn delaunay_contains_nearest_neighbor_edges() {
        // Classic inclusion: each point's nearest neighbor is a Delaunay
        // neighbor.
        let pts = scatter(40);
        let d = Delaunay::build(&pts);
        for (i, &p) in pts.iter().enumerate() {
            let (nn, _) = pts
                .iter()
                .enumerate()
                .filter(|&(j, _)| j != i)
                .map(|(j, q)| (j, p.dist(*q)))
                .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
                .unwrap();
            assert!(
                d.neighbors(i).contains(&nn),
                "nearest neighbor {nn} of {i} missing"
            );
        }
    }

    #[test]
    fn triangulation_combinatorics_scale_invariant() {
        // The same scatter triangulated at 1x/100x/10000x coordinate
        // scale must produce the identical edge set: the circumcircle
        // and sliver predicates are normalized, so scaling every
        // coordinate cannot flip a combinatorial decision.
        let base = scatter(60);
        let edges_at = |s: f64| {
            let pts: Vec<Point> = base.iter().map(|p| Point::new(p.x * s, p.y * s)).collect();
            let d = Delaunay::build(&pts);
            assert!(!d.is_degenerate(), "scatter degenerate at scale {s}");
            d.edges()
        };
        let e1 = edges_at(1.0);
        assert!(!e1.is_empty());
        assert_eq!(e1, edges_at(100.0), "edge set drifted at 100x scale");
        assert_eq!(e1, edges_at(10_000.0), "edge set drifted at 10000x scale");
        assert_eq!(e1, edges_at(1e-4), "edge set drifted at micro scale");
    }

    #[test]
    fn cell_area_cv_detects_clustering() {
        // A regular grid has near-zero CV; a clustered set has a large one.
        let mut regular = Vec::new();
        for i in 0..5 {
            for j in 0..5 {
                regular.push(Point::new(10.0 + 20.0 * i as f64, 10.0 + 20.0 * j as f64));
            }
        }
        let cv_reg = cell_area_cv(&regular, &field());
        let mut clustered = scatter(20);
        clustered.iter_mut().for_each(|p| {
            p.x = 40.0 + p.x * 0.2;
            p.y = 40.0 + p.y * 0.2;
        });
        let cv_clu = cell_area_cv(&clustered, &field());
        assert!(cv_reg < 0.1, "regular grid CV {cv_reg}");
        assert!(cv_clu > 0.5, "clustered CV {cv_clu}");
        assert_eq!(cell_area_cv(&[], &field()), 0.0);
        assert_eq!(cell_area_cv(&[Point::new(1.0, 1.0)], &field()), 0.0);
    }
}
