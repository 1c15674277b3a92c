//! # DECOR — Distributed, Reliable k-Coverage Restoration
//!
//! A from-scratch reproduction of *"Distributed, Reliable Restoration
//! Techniques using Wireless Sensor Devices"* (Drougas & Kalogeraki,
//! IPDPS 2007). This facade crate re-exports the workspace sub-crates:
//!
//! - [`geom`] — planar geometry: points, disks, spatial hash-grid index,
//!   Delaunay triangulation and global Voronoi cells, unit-disk graphs.
//! - [`lds`] — low-discrepancy point sets (Halton, Hammersley, Sobol) and
//!   discrepancy measures used to approximate the monitored area.
//! - [`net`] — a discrete-event wireless-sensor-network simulator: radio,
//!   neighbor tables, heartbeat failure detection, leader election,
//!   failure injection, message/energy accounting.
//! - [`core`] — the DECOR algorithm itself (grid-based and Voronoi-based
//!   schemes) plus the paper's two baselines (centralized greedy, random
//!   placement), coverage maps, benefit functions, redundancy analysis and
//!   the failure-restoration pipeline.
//! - [`exp`] — the experiment harness reproducing every figure of the
//!   paper's evaluation section.
//! - [`trace`] — structured simulation tracing: typed events, canonical
//!   JSONL serialization backing the golden-trace regression suite, and
//!   per-kind event counts.
//!
//! ## Quickstart
//!
//! ```
//! use decor::core::{CoverageMap, DeploymentConfig, centralized::CentralizedGreedy, Placer};
//! use decor::geom::Aabb;
//! use decor::lds::halton_points;
//!
//! // The paper's field: 100 x 100, approximated with 2000 Halton points,
//! // sensing radius rs = 4, coverage requirement k = 2.
//! let field = Aabb::square(100.0);
//! let points = halton_points(2000, &field);
//! let cfg = DeploymentConfig { rs: 4.0, k: 2, ..DeploymentConfig::default() };
//! let mut map = CoverageMap::new(points, &field, &cfg);
//! let outcome = CentralizedGreedy.place(&mut map, &cfg);
//! assert!(outcome.fully_covered);
//! assert_eq!(map.fraction_k_covered(2), 1.0);
//! assert!(!outcome.placed.is_empty());
//! ```

pub use decor_core as core;
pub use decor_exp as exp;
pub use decor_geom as geom;
pub use decor_lds as lds;
pub use decor_net as net;
pub use decor_trace as trace;
