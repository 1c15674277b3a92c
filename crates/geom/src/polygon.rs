//! Convex polygons and half-plane clipping.
//!
//! A Voronoi cell is the intersection of half-planes — one per neighbor
//! (the perpendicular bisector) — clipped to a bounding box. We represent
//! cells as convex polygons and clip with Sutherland–Hodgman.

use crate::aabb::Aabb;
use crate::point::Point;
use serde::{Deserialize, Serialize};

/// An oriented half-plane `{ p : n · p <= c }` with inward normal away
/// from `n`.
///
/// `HalfPlane::bisector(a, b)` keeps the side of `a`, which is how Voronoi
/// cells are built: each neighbor `b` cuts away the points closer to `b`.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct HalfPlane {
    /// Outward normal (points away from the kept side).
    pub normal: Point,
    /// Offset: the half-plane is `normal · p <= offset`.
    pub offset: f64,
}

impl HalfPlane {
    /// The half-plane of points at least as close to `a` as to `b`
    /// (the perpendicular bisector, keeping `a`'s side).
    ///
    /// Panics if `a == b` (no bisector exists).
    pub fn bisector(a: Point, b: Point) -> Self {
        assert!(
            a != b,
            "perpendicular bisector of coincident points is undefined"
        );
        let n = b - a;
        let m = a.midpoint(b);
        HalfPlane {
            normal: n,
            offset: n.dot(m),
        }
    }

    /// Signed evaluation: negative inside, zero on the boundary line.
    #[inline]
    pub fn eval(&self, p: Point) -> f64 {
        self.normal.dot(p) - self.offset
    }

    /// Inclusive containment.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.eval(p) <= 1e-9 * self.normal.norm().max(1.0)
    }

    /// Intersection of the boundary line with segment `a`–`b`, assuming the
    /// two endpoints straddle the line.
    fn clip_point(&self, a: Point, b: Point) -> Point {
        let fa = self.eval(a);
        let fb = self.eval(b);
        let t = fa / (fa - fb);
        a.lerp(b, t.clamp(0.0, 1.0))
    }
}

/// A convex polygon stored as counter-clockwise vertices.
///
/// May be empty (fully clipped away). Degenerate polygons (fewer than three
/// vertices after clipping) are treated as empty.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct ConvexPolygon {
    vertices: Vec<Point>,
}

impl ConvexPolygon {
    /// A polygon from CCW vertices; the caller supplies a convex CCW chain.
    #[cfg(test)]
    pub(crate) fn from_ccw(vertices: Vec<Point>) -> Self {
        ConvexPolygon { vertices }
    }

    /// The polygon of an axis-aligned box.
    pub fn from_aabb(b: &Aabb) -> Self {
        ConvexPolygon {
            vertices: b.corners().to_vec(),
        }
    }

    /// The empty polygon.
    pub fn empty() -> Self {
        ConvexPolygon::default()
    }

    /// Vertices in CCW order (empty slice when the polygon is empty).
    pub fn vertices(&self) -> &[Point] {
        &self.vertices
    }

    /// True when the polygon has no interior.
    pub fn is_empty(&self) -> bool {
        self.vertices.len() < 3 || self.area() <= 0.0
    }

    /// Shoelace area (non-negative for CCW chains).
    pub fn area(&self) -> f64 {
        let n = self.vertices.len();
        if n < 3 {
            return 0.0;
        }
        let mut s = 0.0;
        for i in 0..n {
            s += self.vertices[i].cross(self.vertices[(i + 1) % n]);
        }
        s * 0.5
    }

    /// Centroid of the polygon (`None` when empty).
    pub fn centroid(&self) -> Option<Point> {
        let a = self.area();
        if a <= 0.0 {
            return None;
        }
        let n = self.vertices.len();
        let mut cx = 0.0;
        let mut cy = 0.0;
        for i in 0..n {
            let p = self.vertices[i];
            let q = self.vertices[(i + 1) % n];
            let w = p.cross(q);
            cx += (p.x + q.x) * w;
            cy += (p.y + q.y) * w;
        }
        Some(Point::new(cx / (6.0 * a), cy / (6.0 * a)))
    }

    /// Inclusive point-in-polygon test (convexity assumed).
    ///
    /// The cross product scales with edge length × distance, so the
    /// boundary tolerance is normalized by both: a point within
    /// `1e-9 × extent` of the supporting line counts as inside, at any
    /// coordinate scale. This is deliberately at least as inclusive as
    /// [`ConvexPolygon::clip`]'s strict `<= 0` keep rule, so every vertex
    /// that survives a clip is reported contained.
    pub fn contains(&self, p: Point) -> bool {
        let n = self.vertices.len();
        if n < 3 {
            return false;
        }
        let ext = self.extent();
        for i in 0..n {
            let a = self.vertices[i];
            let b = self.vertices[(i + 1) % n];
            let e = b - a;
            if e.cross(p - a) < -1e-9 * e.norm() * ext {
                return false;
            }
        }
        true
    }

    /// Characteristic length of the polygon (bounding-box L∞ extent),
    /// used to scale boundary tolerances. Zero for empty polygons.
    fn extent(&self) -> f64 {
        let Some(bb) = self.bounding_box() else {
            return 0.0;
        };
        bb.width().max(bb.height())
    }

    /// Clips the polygon by a half-plane (Sutherland–Hodgman step).
    ///
    /// Returns the (possibly empty) intersection `self ∩ h`.
    pub fn clip(&self, h: &HalfPlane) -> ConvexPolygon {
        let n = self.vertices.len();
        if n == 0 {
            return ConvexPolygon::empty();
        }
        let mut out = Vec::with_capacity(n + 1);
        for i in 0..n {
            let cur = self.vertices[i];
            let nxt = self.vertices[(i + 1) % n];
            let cur_in = h.eval(cur) <= 0.0;
            let nxt_in = h.eval(nxt) <= 0.0;
            if cur_in {
                out.push(cur);
                if !nxt_in {
                    out.push(h.clip_point(cur, nxt));
                }
            } else if nxt_in {
                out.push(h.clip_point(cur, nxt));
            }
        }
        dedup_close(&mut out);
        if out.len() < 3 {
            return ConvexPolygon::empty();
        }
        ConvexPolygon { vertices: out }
    }

    /// Clips by many half-planes in sequence.
    pub fn clip_all<'a, I: IntoIterator<Item = &'a HalfPlane>>(&self, planes: I) -> ConvexPolygon {
        let mut poly = self.clone();
        for h in planes {
            if poly.vertices.is_empty() {
                break;
            }
            poly = poly.clip(h);
        }
        poly
    }

    /// Tight bounding box (`None` when empty).
    fn bounding_box(&self) -> Option<Aabb> {
        let first = *self.vertices.first()?;
        let mut bb = Aabb::new(first, first);
        for &v in &self.vertices[1..] {
            bb.min.x = bb.min.x.min(v.x);
            bb.min.y = bb.min.y.min(v.y);
            bb.max.x = bb.max.x.max(v.x);
            bb.max.y = bb.max.y.max(v.y);
        }
        Some(bb)
    }
}

/// Removes consecutive near-duplicate vertices introduced by clipping.
///
/// "Near" is relative to the chain's own extent (two vertices closer
/// than `1e-9 ×` the bounding-box span collapse), so micro-field cells
/// dedup as reliably as kilometer-scale ones and genuinely distinct
/// corners of large cells are never silently deleted.
fn dedup_close(v: &mut Vec<Point>) {
    if v.len() < 2 {
        return;
    }
    let mut lo = v[0];
    let mut hi = v[0];
    for &p in v.iter() {
        lo = Point::new(lo.x.min(p.x), lo.y.min(p.y));
        hi = Point::new(hi.x.max(p.x), hi.y.max(p.y));
    }
    let ext = (hi.x - lo.x).max(hi.y - lo.y);
    // For an all-coincident chain (ext == 0) any positive tolerance
    // collapses it to one vertex, which is what we want.
    let tol_sq = (1e-9 * ext).powi(2).max(f64::MIN_POSITIVE);
    let mut out: Vec<Point> = Vec::with_capacity(v.len());
    for &p in v.iter() {
        if out.last().is_none_or(|&q| q.dist_sq(p) > tol_sq) {
            out.push(p);
        }
    }
    while out.len() >= 2 && out.first().unwrap().dist_sq(*out.last().unwrap()) <= tol_sq {
        out.pop();
    }
    *v = out;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_square() -> ConvexPolygon {
        ConvexPolygon::from_aabb(&Aabb::square(1.0))
    }

    #[test]
    fn square_area_and_centroid() {
        let sq = unit_square();
        assert!((sq.area() - 1.0).abs() < 1e-12);
        let c = sq.centroid().unwrap();
        assert!((c.x - 0.5).abs() < 1e-12 && (c.y - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bisector_keeps_a_side() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(2.0, 0.0);
        let h = HalfPlane::bisector(a, b);
        assert!(h.contains(a));
        assert!(!h.contains(b));
        assert!(h.contains(Point::new(1.0, 5.0))); // on the boundary
    }

    #[test]
    #[should_panic(expected = "coincident")]
    fn bisector_of_coincident_points_panics() {
        let p = Point::new(1.0, 1.0);
        let _ = HalfPlane::bisector(p, p);
    }

    #[test]
    fn clip_square_by_diagonal() {
        let sq = unit_square();
        // Keep points with x + y <= 1 (lower-left triangle).
        let h = HalfPlane {
            normal: Point::new(1.0, 1.0),
            offset: 1.0,
        };
        let tri = sq.clip(&h);
        assert!((tri.area() - 0.5).abs() < 1e-12);
        assert!(tri.contains(Point::new(0.1, 0.1)));
        assert!(!tri.contains(Point::new(0.9, 0.9)));
    }

    #[test]
    fn clip_away_everything_yields_empty() {
        let sq = unit_square();
        let h = HalfPlane {
            normal: Point::new(1.0, 0.0),
            offset: -1.0, // x <= -1: nothing in the unit square
        };
        let e = sq.clip(&h);
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert!(e.centroid().is_none());
    }

    #[test]
    fn clip_keep_everything_is_identity_area() {
        let sq = unit_square();
        let h = HalfPlane {
            normal: Point::new(0.0, 1.0),
            offset: 5.0, // y <= 5 keeps all
        };
        let c = sq.clip(&h);
        assert!((c.area() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn repeated_clipping_produces_voronoi_quadrant() {
        // Node at (0.25, 0.25) with neighbors at (0.75, 0.25) and
        // (0.25, 0.75): its cell inside the unit square is the quarter
        // square [0, 0.5]².
        let sq = unit_square();
        let me = Point::new(0.25, 0.25);
        let planes = [
            HalfPlane::bisector(me, Point::new(0.75, 0.25)),
            HalfPlane::bisector(me, Point::new(0.25, 0.75)),
        ];
        let cell = sq.clip_all(planes.iter());
        assert!((cell.area() - 0.25).abs() < 1e-12);
        assert!(cell.contains(Point::new(0.4, 0.4)));
        assert!(!cell.contains(Point::new(0.6, 0.4)));
    }

    #[test]
    fn contains_is_boundary_inclusive() {
        let sq = unit_square();
        assert!(sq.contains(Point::new(0.0, 0.5)));
        assert!(sq.contains(Point::new(1.0, 1.0)));
        assert!(!sq.contains(Point::new(1.001, 0.5)));
    }

    #[test]
    fn bounding_box_of_clipped_polygon() {
        let sq = unit_square();
        let h = HalfPlane {
            normal: Point::new(1.0, 0.0),
            offset: 0.5, // x <= 0.5
        };
        let bb = sq.clip(&h).bounding_box().unwrap();
        assert!((bb.max.x - 0.5).abs() < 1e-12);
        assert_eq!(bb.min, Point::new(0.0, 0.0));
    }

    #[test]
    fn empty_polygon_queries() {
        let e = ConvexPolygon::empty();
        assert!(e.is_empty());
        assert!(!e.contains(Point::ORIGIN));
        assert!(e.bounding_box().is_none());
        assert_eq!(e.vertices().len(), 0);
    }

    #[test]
    fn clip_output_vertices_are_contained() {
        // Reconciliation with `clip`: every vertex kept or created by a
        // clip must be reported contained, at any coordinate scale.
        for scale in [1.0, 100.0, 10_000.0, 1e-4] {
            let me = Point::new(0.3 * scale, 0.4 * scale);
            let mut poly = ConvexPolygon::from_aabb(&Aabb::square(scale));
            for i in 0..10 {
                let ang = i as f64 * std::f64::consts::TAU / 10.0 + 0.3;
                let other = Point::new(
                    scale * (0.5 + 0.45 * ang.cos()),
                    scale * (0.5 + 0.45 * ang.sin()),
                );
                poly = poly.clip(&HalfPlane::bisector(me, other));
                for &v in poly.vertices() {
                    assert!(
                        poly.contains(v),
                        "clip vertex {v} not contained at scale {scale}"
                    );
                }
            }
            assert!(!poly.is_empty());
            assert!(poly.contains(me));
        }
    }

    #[test]
    fn contains_tolerance_is_scale_invariant() {
        for scale in [1.0, 100.0, 10_000.0, 1e-4] {
            let sq = ConvexPolygon::from_aabb(&Aabb::square(scale));
            // A relative 1e-12 excursion past the boundary is tolerated...
            assert!(
                sq.contains(Point::new(scale * (1.0 + 1e-12), 0.5 * scale)),
                "boundary point rejected at scale {scale}"
            );
            // ...a relative 1e-3 excursion is not.
            assert!(
                !sq.contains(Point::new(scale * 1.001, 0.5 * scale)),
                "outside point accepted at scale {scale}"
            );
        }
    }

    #[test]
    fn dedup_threshold_tracks_polygon_scale() {
        // Graze a corner at a relative 1e-6 offset: on a micro square the
        // two clip points are genuinely distinct corners and must survive.
        let micro = ConvexPolygon::from_aabb(&Aabb::square(1e-6));
        let graze = |off: f64| HalfPlane {
            normal: Point::new(-1.0, -1.0),
            offset: -off, // keeps x + y >= off
        };
        let clipped = micro.clip(&graze(1e-12));
        assert_eq!(
            clipped.vertices().len(),
            5,
            "micro-field corner cut lost vertices: {:?}",
            clipped.vertices()
        );
        // The same relative grazing cut on a kilometer-scale square
        // produces clip points within float noise of the corner; they
        // must collapse instead of surviving as phantom slivers.
        let big = ConvexPolygon::from_aabb(&Aabb::square(1e6));
        let clipped = big.clip(&graze(1e-8));
        assert_eq!(
            clipped.vertices().len(),
            4,
            "large-field noise vertices survived: {:?}",
            clipped.vertices()
        );
    }

    #[test]
    fn clip_preserves_convexity() {
        let sq = unit_square();
        let mut poly = sq;
        // Clip with a fan of bisectors against points on a circle.
        let me = Point::new(0.5, 0.5);
        for i in 0..8 {
            let ang = i as f64 * std::f64::consts::TAU / 8.0;
            let other = Point::new(0.5 + 0.8 * ang.cos(), 0.5 + 0.8 * ang.sin());
            poly = poly.clip(&HalfPlane::bisector(me, other));
        }
        assert!(!poly.is_empty());
        assert!(poly.contains(me));
        assert!(poly.area() < 1.0);
    }
}
