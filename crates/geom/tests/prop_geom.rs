//! Property tests for the geometry substrate.

use decor_geom::{Aabb, ConvexPolygon, Delaunay, GridIndex, HalfPlane, Point, UnitDiskGraph};
use proptest::prelude::*;

fn arb_point(side: f64) -> impl Strategy<Value = Point> {
    (0.0..side, 0.0..side).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Triangle inequality and symmetry of the distance metric.
    #[test]
    fn distance_metric_axioms(a in arb_point(100.0), b in arb_point(100.0), c in arb_point(100.0)) {
        prop_assert!((a.dist(b) - b.dist(a)).abs() < 1e-12);
        prop_assert!(a.dist(c) <= a.dist(b) + b.dist(c) + 1e-9);
        prop_assert!(a.dist(a) == 0.0);
    }

    /// Clamping a point into a box yields the closest box point.
    #[test]
    fn aabb_clamp_is_nearest(p in arb_point(200.0)) {
        let b = Aabb::new(Point::new(50.0, 50.0), Point::new(150.0, 120.0));
        let c = b.clamp(p);
        prop_assert!(b.contains(c));
        // No box corner or the center is closer than the clamp.
        for probe in b.corners().iter().chain([b.center()].iter()) {
            prop_assert!(p.dist(c) <= p.dist(*probe) + 1e-9);
        }
    }

    /// Half-plane clipping never grows a polygon and preserves points on
    /// the kept side.
    #[test]
    fn clipping_shrinks_area(
        nx in -1.0..1.0f64, ny in -1.0..1.0f64, off in -50.0..150.0f64,
    ) {
        prop_assume!(nx.abs() + ny.abs() > 1e-6);
        let sq = ConvexPolygon::from_aabb(&Aabb::square(100.0));
        let h = HalfPlane { normal: Point::new(nx, ny), offset: off };
        let clipped = sq.clip(&h);
        prop_assert!(clipped.area() <= sq.area() + 1e-6);
        if let Some(c) = clipped.centroid() {
            prop_assert!(h.contains(c));
            prop_assert!(sq.contains(c));
        }
    }

    /// Grid-index removal really removes: after removing a random subset,
    /// queries never return removed ids.
    #[test]
    fn grid_index_remove_is_complete(
        pts in prop::collection::vec(arb_point(100.0), 1..60),
        removals in prop::collection::vec(any::<prop::sample::Index>(), 0..30),
        q in arb_point(100.0),
        r in 1.0..50.0f64,
    ) {
        let mut idx = GridIndex::for_square_field(100.0, 4.0);
        for (i, &p) in pts.iter().enumerate() {
            idx.insert(i, p);
        }
        let mut removed = std::collections::BTreeSet::new();
        for sel in &removals {
            let i = sel.index(pts.len());
            if removed.insert(i) {
                prop_assert!(idx.remove(i, pts[i]));
            }
        }
        for id in idx.within(q, r) {
            prop_assert!(!removed.contains(&id));
        }
        prop_assert_eq!(idx.len(), pts.len() - removed.len());
    }

    /// Unit-disk graphs are symmetric and edges respect the radius.
    #[test]
    fn unit_disk_graph_symmetry(
        pts in prop::collection::vec(arb_point(60.0), 2..40),
        rc in 2.0..20.0f64,
    ) {
        let g = UnitDiskGraph::build(&pts, rc);
        for u in 0..g.len() {
            for &v in g.neighbors(u) {
                prop_assert!(pts[u].dist(pts[v]) <= rc + 1e-9);
                prop_assert!(g.neighbors(v).contains(&u), "asymmetric edge {u}-{v}");
            }
        }
    }

    /// Global Voronoi cells (Delaunay duality) tile the field for any
    /// point cloud: areas sum to the field area and every site sits in
    /// its own cell.
    #[test]
    fn voronoi_cells_tile_for_any_cloud(
        pts in prop::collection::vec(arb_point(100.0), 2..40),
    ) {
        // Dedup exact duplicates (duplicates legitimately share cells).
        let mut distinct: Vec<Point> = Vec::new();
        for p in pts {
            if !distinct.contains(&p) {
                distinct.push(p);
            }
        }
        prop_assume!(distinct.len() >= 2);
        let field = Aabb::square(100.0);
        let d = Delaunay::build(&distinct);
        let cells = d.voronoi_cells(&field);
        let total: f64 = cells.iter().map(|c| c.area()).sum();
        prop_assert!((total - field.area()).abs() < 1.0, "sum {total}");
        for (i, c) in cells.iter().enumerate() {
            prop_assert!(c.contains(distinct[i]), "site {i} outside its cell");
        }
    }

    /// k-connectivity is monotone decreasing in k.
    #[test]
    fn connectivity_monotone_in_k(
        pts in prop::collection::vec(arb_point(30.0), 3..15),
    ) {
        let g = UnitDiskGraph::build(&pts, 12.0);
        let mut prev = true;
        for k in 1..=4usize {
            let now = g.vertex_connectivity_at_least(k);
            prop_assert!(!now || prev, "k-connectivity must be monotone");
            prev = now;
        }
    }
}
