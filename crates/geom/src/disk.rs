//! Disks: sensing and communication ranges, and disaster areas.

use crate::aabb::Aabb;
use crate::point::Point;
use serde::{Deserialize, Serialize};

/// A closed disk: all points within `radius` of `center`.
///
/// Three roles in the reproduction:
/// - a sensor's *sensing disk* (radius `rs`) — the area it covers;
/// - a sensor's *communication disk* (radius `rc`) — its 1-hop neighborhood;
/// - a *disaster disk* (the paper uses radius 24) — the region whose nodes
///   all fail in the area-failure experiments (Figs. 6, 13, 14).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Disk {
    /// Center of the disk.
    pub center: Point,
    /// Radius (must be non-negative; a zero radius is the single point).
    pub radius: f64,
}

impl Disk {
    /// Creates a disk. Panics if `radius` is negative or not finite.
    pub fn new(center: Point, radius: f64) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "disk radius must be finite and non-negative, got {radius}"
        );
        Disk { center, radius }
    }

    /// Closed containment: is `p` within the disk (boundary included)?
    ///
    /// The paper's coverage predicate: point `p` is covered by sensor `s`
    /// iff `d(p, s) <= rs`.
    #[inline]
    pub fn contains(&self, p: Point) -> bool {
        self.center.dist_sq(p) <= self.radius * self.radius
    }

    /// Area `π r²`.
    #[inline]
    pub fn area(&self) -> f64 {
        std::f64::consts::PI * self.radius * self.radius
    }

    /// Does the disk intersect an axis-aligned box (boundary touch counts)?
    #[inline]
    pub fn intersects_aabb(&self, b: &Aabb) -> bool {
        b.dist_to(self.center) <= self.radius
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn containment_boundary_inclusive() {
        let d = Disk::new(Point::new(0.0, 0.0), 4.0);
        assert!(d.contains(Point::new(4.0, 0.0)));
        assert!(d.contains(Point::new(0.0, 0.0)));
        assert!(!d.contains(Point::new(4.0001, 0.0)));
    }

    #[test]
    #[should_panic(expected = "radius must be finite")]
    fn negative_radius_panics() {
        let _ = Disk::new(Point::ORIGIN, -1.0);
    }

    #[test]
    fn disk_aabb_intersection() {
        let d = Disk::new(Point::new(5.0, 5.0), 1.0);
        let inside = Aabb::square(10.0);
        assert!(d.intersects_aabb(&inside));
        let corner = Aabb::new(Point::new(6.0, 6.0), Point::new(8.0, 8.0));
        // Closest corner (6,6) is at distance sqrt(2) > 1 from (5,5).
        assert!(!d.intersects_aabb(&corner));
        let near = Aabb::new(Point::new(5.5, 5.5), Point::new(8.0, 8.0));
        assert!(d.intersects_aabb(&near));
    }

    #[test]
    fn area_formula() {
        let d = Disk::new(Point::ORIGIN, 4.0);
        assert!((d.area() - 16.0 * PI).abs() < 1e-12);
    }
}
