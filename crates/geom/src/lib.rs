//! Geometry substrate for the DECOR reproduction.
//!
//! The DECOR paper (Drougas & Kalogeraki, IPDPS 2007) reduces sensor-network
//! coverage restoration to planar geometry: sensors are disks of radius
//! `rs`, the monitored field is an axis-aligned rectangle, cells are either
//! grid rectangles or local Voronoi regions, and connectivity is a unit-disk
//! graph over the communication radius `rc`. This crate provides those
//! primitives:
//!
//! - [`Point`] / [`Aabb`] / [`Disk`] — basic planar types.
//! - [`GridIndex`] — a uniform hash-grid spatial index answering
//!   radius queries in O(1) expected time; the workhorse behind coverage
//!   counting and benefit evaluation.
//! - [`FrozenGridIndex`] — the read-only CSR twin of [`GridIndex`] for
//!   point sets that never change (the coverage approximation points):
//!   contiguous struct-of-arrays slabs, precomputed bucket neighborhoods,
//!   AABB prefilters, and an early-exit `covers_at_least` k-coverage
//!   predicate.
//! - [`ConvexPolygon`] and half-plane clipping — exact Voronoi cells.
//! - [`Delaunay`] — Bowyer–Watson triangulation and the exact global
//!   Voronoi diagram it induces.
//! - [`UnitDiskGraph`] — communication graph, BFS connectivity and
//!   Menger-style vertex k-connectivity checks (for the paper's corollary
//!   that `rc >= 2*rs` plus k-coverage implies k-connectivity).
//!
//! All coordinates are `f64`. Determinism matters for the reproduction, so
//! no operation here consults a random source.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aabb;
pub mod delaunay;
pub mod disk;
pub mod frozen_index;
pub mod graph;
pub mod grid_index;
pub mod holes;
pub mod paths;
pub mod point;
pub mod polygon;

pub use aabb::Aabb;
pub use delaunay::{cell_area_cv, Delaunay};
pub use disk::Disk;
pub use frozen_index::FrozenGridIndex;
pub use graph::UnitDiskGraph;
pub use grid_index::{query_bucket_edge, GridIndex};
pub use holes::{detect_holes, disk_polygon_overlap, Hole, HoleReport};
pub use paths::{best_support_path, maximal_breach_path, CrossingPath};
pub use point::Point;
pub use polygon::{ConvexPolygon, HalfPlane};
