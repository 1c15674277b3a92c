//! Planar points and the small amount of vector arithmetic DECOR needs.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, Div, Mul, Neg, Sub};

/// A point (or free vector) in the plane.
///
/// Coordinates are `f64`; the DECOR field is `[0, 100] x [0, 100]` but
/// nothing here assumes that. `Point` is `Copy` and 16 bytes, so it is
/// passed by value everywhere.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Horizontal coordinate.
    pub x: f64,
    /// Vertical coordinate.
    pub y: f64,
}

impl Point {
    /// The origin `(0, 0)`.
    pub const ORIGIN: Point = Point { x: 0.0, y: 0.0 };

    /// Creates a point from its coordinates.
    #[inline]
    pub const fn new(x: f64, y: f64) -> Self {
        Point { x, y }
    }

    /// Euclidean distance to `other`.
    #[inline]
    pub fn dist(self, other: Point) -> f64 {
        self.dist_sq(other).sqrt()
    }

    /// Squared Euclidean distance to `other`.
    ///
    /// Coverage predicates compare against `rs²` to avoid the square root
    /// on the hot path.
    #[inline]
    pub fn dist_sq(self, other: Point) -> f64 {
        let dx = self.x - other.x;
        let dy = self.y - other.y;
        dx * dx + dy * dy
    }

    /// Inclusive disk membership: `self` lies within `radius` of `center`,
    /// boundary included (`dist <= radius`).
    ///
    /// Every coverage predicate in the workspace must route through this
    /// one definition so the sharded benefit engine, the naive coverage
    /// scan, and the per-cell benefit paths agree bit-for-bit on points
    /// sitting exactly on a sensing-disk boundary.
    #[inline]
    pub fn in_disk(self, center: Point, radius: f64) -> bool {
        self.dist_sq(center) <= radius * radius
    }

    /// Squared length of `self` viewed as a vector from the origin.
    #[inline]
    pub fn norm_sq(self) -> f64 {
        self.x * self.x + self.y * self.y
    }

    /// Length of `self` viewed as a vector from the origin.
    #[inline]
    pub fn norm(self) -> f64 {
        self.norm_sq().sqrt()
    }

    /// Dot product with `other` (both viewed as vectors).
    #[inline]
    pub fn dot(self, other: Point) -> f64 {
        self.x * other.x + self.y * other.y
    }

    /// Z-component of the cross product `self × other` (both as vectors).
    ///
    /// Positive when `other` is counter-clockwise from `self`.
    #[inline]
    pub fn cross(self, other: Point) -> f64 {
        self.x * other.y - self.y * other.x
    }

    /// Midpoint of the segment `self`–`other`.
    #[inline]
    pub fn midpoint(self, other: Point) -> Point {
        Point::new((self.x + other.x) * 0.5, (self.y + other.y) * 0.5)
    }

    /// Linear interpolation: `self` at `t = 0`, `other` at `t = 1`.
    #[inline]
    pub fn lerp(self, other: Point, t: f64) -> Point {
        Point::new(
            self.x + (other.x - self.x) * t,
            self.y + (other.y - self.y) * t,
        )
    }

    /// The vector rotated 90° counter-clockwise.
    #[inline]
    pub fn perp(self) -> Point {
        Point::new(-self.y, self.x)
    }

    /// True when both coordinates are finite (no NaN / infinity).
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite()
    }
}

impl Add for Point {
    type Output = Point;
    #[inline]
    fn add(self, rhs: Point) -> Point {
        Point::new(self.x + rhs.x, self.y + rhs.y)
    }
}

impl Sub for Point {
    type Output = Point;
    #[inline]
    fn sub(self, rhs: Point) -> Point {
        Point::new(self.x - rhs.x, self.y - rhs.y)
    }
}

impl Mul<f64> for Point {
    type Output = Point;
    #[inline]
    fn mul(self, rhs: f64) -> Point {
        Point::new(self.x * rhs, self.y * rhs)
    }
}

impl Div<f64> for Point {
    type Output = Point;
    #[inline]
    fn div(self, rhs: f64) -> Point {
        Point::new(self.x / rhs, self.y / rhs)
    }
}

impl Neg for Point {
    type Output = Point;
    #[inline]
    fn neg(self) -> Point {
        Point::new(-self.x, -self.y)
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:.3}, {:.3})", self.x, self.y)
    }
}

impl From<(f64, f64)> for Point {
    fn from((x, y): (f64, f64)) -> Self {
        Point::new(x, y)
    }
}

impl From<Point> for (f64, f64) {
    fn from(p: Point) -> Self {
        (p.x, p.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_symmetric_and_zero_on_self() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(4.0, 6.0);
        assert_eq!(a.dist(b), b.dist(a));
        assert_eq!(a.dist(a), 0.0);
        assert_eq!(a.dist(b), 5.0);
    }

    #[test]
    fn dist_sq_matches_dist() {
        let a = Point::new(-3.0, 0.5);
        let b = Point::new(2.0, -1.5);
        let d = a.dist(b);
        assert!((a.dist_sq(b) - d * d).abs() < 1e-12);
    }

    #[test]
    fn vector_arithmetic() {
        let a = Point::new(1.0, 2.0);
        let b = Point::new(3.0, -1.0);
        assert_eq!(a + b, Point::new(4.0, 1.0));
        assert_eq!(a - b, Point::new(-2.0, 3.0));
        assert_eq!(a * 2.0, Point::new(2.0, 4.0));
        assert_eq!(b / 2.0, Point::new(1.5, -0.5));
        assert_eq!(-a, Point::new(-1.0, -2.0));
    }

    #[test]
    fn dot_and_cross() {
        let a = Point::new(1.0, 0.0);
        let b = Point::new(0.0, 1.0);
        assert_eq!(a.dot(b), 0.0);
        assert_eq!(a.cross(b), 1.0);
        assert_eq!(b.cross(a), -1.0);
    }

    #[test]
    fn midpoint_and_lerp_agree() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, -4.0);
        assert_eq!(a.midpoint(b), a.lerp(b, 0.5));
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
    }

    #[test]
    fn perp_is_orthogonal_and_ccw() {
        let v = Point::new(3.0, 4.0);
        let p = v.perp();
        assert_eq!(v.dot(p), 0.0);
        assert!(v.cross(p) > 0.0);
    }

    #[test]
    fn conversions_roundtrip() {
        let p = Point::from((2.5, -1.25));
        let t: (f64, f64) = p.into();
        assert_eq!(t, (2.5, -1.25));
    }

    #[test]
    fn finite_detection() {
        assert!(Point::new(1.0, 2.0).is_finite());
        assert!(!Point::new(f64::NAN, 0.0).is_finite());
        assert!(!Point::new(0.0, f64::INFINITY).is_finite());
    }
}
