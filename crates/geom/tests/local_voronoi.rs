//! Local Voronoi cells (Definition 1 of the paper) in exact geometry,
//! kept as a test referee.
//!
//! In the Voronoi-based DECOR scheme every node `s_i` owns the region of
//! points that are (a) within its communication radius `rc` — it cannot
//! know about anything farther — and (b) at least as close to `s_i` as to
//! any 1-hop neighbor. The cell is computed by clipping the `rc`-box around
//! the node with the perpendicular bisector of every neighbor, then
//! intersecting with the field boundary.
//!
//! Two views:
//! - [`local_voronoi_cell`] — the exact polygon (bisector clipping);
//! - [`owns_point`] — the predicate a real node evaluates per point.
//!
//! The Voronoi placer (`decor_core::voronoi_scheme`) evaluates ownership
//! per point against the neighbours a node knows; no production path
//! builds the polygon. The tests below hold the predicate to the polygon
//! and the polygon to the global Voronoi diagram.

use decor_geom::{Aabb, ConvexPolygon, Delaunay, HalfPlane, Point};
use proptest::prelude::*;

/// Computes the local Voronoi cell of `node` given its 1-hop `neighbors`,
/// clipped to `field` and to the `rc`-box around the node.
///
/// Neighbors coincident with `node` are ignored (they induce no bisector);
/// neighbors farther than `2·rc` cannot influence the cell and are skipped
/// as an optimization.
fn local_voronoi_cell(node: Point, neighbors: &[Point], field: &Aabb, rc: f64) -> ConvexPolygon {
    let rc_box = Aabb::new(
        Point::new(node.x - rc, node.y - rc),
        Point::new(node.x + rc, node.y + rc),
    );
    let start = match field.intersection(&rc_box) {
        Some(b) if b.area() > 0.0 => ConvexPolygon::from_aabb(&b),
        _ => return ConvexPolygon::empty(),
    };
    let planes: Vec<HalfPlane> = neighbors
        .iter()
        .filter(|&&nb| nb != node && node.dist_sq(nb) <= (2.0 * rc) * (2.0 * rc))
        .map(|&nb| HalfPlane::bisector(node, nb))
        .collect();
    start.clip_all(planes.iter())
}

/// The per-point ownership predicate: does `node` own `p` given its
/// 1-hop `neighbors` and communication radius `rc`?
///
/// `p` must be within `rc` of `node` and no neighbor may be strictly
/// closer to `p`. Ties (equidistant points) are owned by *both* nodes,
/// mirroring the paper's "smaller than" wording loosely; DECOR's schemes
/// break ties by node id at a higher level when exclusive ownership is
/// required.
fn owns_point(node: Point, p: Point, neighbors: &[Point], rc: f64) -> bool {
    let d = node.dist_sq(p);
    if d > rc * rc {
        return false;
    }
    neighbors.iter().all(|&nb| nb.dist_sq(p) >= d)
}

const FIELD: Aabb = Aabb {
    min: Point { x: 0.0, y: 0.0 },
    max: Point { x: 100.0, y: 100.0 },
};

#[test]
fn isolated_node_owns_its_rc_box() {
    let node = Point::new(50.0, 50.0);
    let cell = local_voronoi_cell(node, &[], &FIELD, 8.0);
    assert!((cell.area() - 256.0).abs() < 1e-9); // (2*8)^2
    assert!(cell.contains(node));
}

#[test]
fn cell_clips_to_field_boundary() {
    let node = Point::new(2.0, 2.0);
    let cell = local_voronoi_cell(node, &[], &FIELD, 8.0);
    // rc-box is [-6,10]² clipped to [0,10]² => area 100.
    assert!((cell.area() - 100.0).abs() < 1e-9);
}

#[test]
fn one_neighbor_halves_the_cell() {
    let node = Point::new(50.0, 50.0);
    let nb = Point::new(58.0, 50.0);
    let cell = local_voronoi_cell(node, &[nb], &FIELD, 8.0);
    // Bisector at x = 54 cuts the [42,58]×[42,58] box: width 12 of 16.
    assert!((cell.area() - 12.0 * 16.0).abs() < 1e-9);
    assert!(cell.contains(Point::new(53.0, 50.0)));
    assert!(!cell.contains(Point::new(55.0, 50.0)));
}

#[test]
fn surrounded_node_gets_small_cell() {
    let node = Point::new(50.0, 50.0);
    let mut nbs = Vec::new();
    for i in 0..6 {
        let a = i as f64 * std::f64::consts::TAU / 6.0;
        nbs.push(Point::new(50.0 + 4.0 * a.cos(), 50.0 + 4.0 * a.sin()));
    }
    let cell = local_voronoi_cell(node, &nbs, &FIELD, 8.0);
    assert!(!cell.is_empty());
    assert!(cell.contains(node));
    // Hexagonal cell with apothem 2: area 8√3 ≈ 13.86, well under box.
    assert!(cell.area() < 20.0);
}

#[test]
fn coincident_neighbor_is_ignored() {
    let node = Point::new(50.0, 50.0);
    let cell = local_voronoi_cell(node, &[node], &FIELD, 8.0);
    assert!((cell.area() - 256.0).abs() < 1e-9);
}

#[test]
fn far_neighbor_does_not_affect_cell() {
    let node = Point::new(50.0, 50.0);
    let near = local_voronoi_cell(node, &[], &FIELD, 8.0);
    let far = local_voronoi_cell(node, &[Point::new(90.0, 90.0)], &FIELD, 8.0);
    assert!((near.area() - far.area()).abs() < 1e-9);
}

#[test]
fn ownership_predicate_matches_cell_polygon() {
    let node = Point::new(40.0, 60.0);
    let nbs = [
        Point::new(46.0, 60.0),
        Point::new(40.0, 52.0),
        Point::new(35.0, 65.0),
    ];
    let rc = 8.0;
    let cell = local_voronoi_cell(node, &nbs, &FIELD, rc);
    // Sample a grid; the predicate uses the rc-disk while the polygon
    // uses the rc-box, so restrict sampling to the disk.
    for i in 0..40 {
        for j in 0..40 {
            let p = Point::new(32.0 + 16.0 * i as f64 / 39.0, 52.0 + 16.0 * j as f64 / 39.0);
            if node.dist(p) > rc - 1e-9 || !FIELD.contains(p) {
                continue;
            }
            // Skip points near cell boundaries where float ties differ.
            let margin = nbs
                .iter()
                .map(|&nb| (nb.dist_sq(p) - node.dist_sq(p)).abs())
                .fold(f64::INFINITY, f64::min);
            if margin < 1e-6 {
                continue;
            }
            assert_eq!(
                owns_point(node, p, &nbs, rc),
                cell.contains(p),
                "disagreement at {p}"
            );
        }
    }
}

#[test]
fn ownership_respects_rc_limit() {
    let node = Point::new(50.0, 50.0);
    assert!(owns_point(node, Point::new(57.0, 50.0), &[], 8.0));
    assert!(!owns_point(node, Point::new(59.0, 50.0), &[], 8.0));
}

#[test]
fn tie_points_are_owned_by_both() {
    let a = Point::new(40.0, 50.0);
    let b = Point::new(60.0, 50.0);
    let mid = Point::new(50.0, 50.0);
    assert!(owns_point(a, mid, &[b], 15.0));
    assert!(owns_point(b, mid, &[a], 15.0));
}

#[test]
fn node_outside_field_gets_clipped_or_empty_cell() {
    let node = Point::new(-20.0, -20.0);
    let cell = local_voronoi_cell(node, &[], &FIELD, 8.0);
    assert!(cell.is_empty());
}

fn arb_point(side: f64) -> impl Strategy<Value = Point> {
    (0.0..side, 0.0..side).prop_map(|(x, y)| Point::new(x, y))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A local Voronoi cell always contains its node (when inside the
    /// field) and never exceeds the rc-box area.
    #[test]
    fn voronoi_cell_contains_node(
        node in arb_point(100.0),
        nbs in prop::collection::vec(arb_point(100.0), 0..8),
        rc in 4.0..20.0f64,
    ) {
        let field = Aabb::square(100.0);
        let filtered: Vec<Point> = nbs.into_iter().filter(|&n| n != node).collect();
        let cell = local_voronoi_cell(node, &filtered, &field, rc);
        prop_assert!(cell.area() <= (2.0 * rc) * (2.0 * rc) + 1e-6);
        if !cell.is_empty() {
            prop_assert!(cell.contains(node));
        }
    }

    /// The rc-limited local Voronoi cell is a superset of the exact
    /// global cell intersected with the rc-box (fewer clipping planes
    /// can only leave more area).
    #[test]
    fn local_cell_contains_global_cell(
        pts in prop::collection::vec(arb_point(100.0), 3..20),
        idx in any::<prop::sample::Index>(),
        rc in 6.0..25.0f64,
    ) {
        let mut distinct: Vec<Point> = Vec::new();
        for p in pts {
            if !distinct.contains(&p) {
                distinct.push(p);
            }
        }
        prop_assume!(distinct.len() >= 3);
        let field = Aabb::square(100.0);
        let i = idx.index(distinct.len());
        let me = distinct[i];
        let d = Delaunay::build(&distinct);
        let global = d.voronoi_cell(i, &field);
        let neighbors: Vec<Point> = distinct
            .iter()
            .enumerate()
            .filter(|&(j, p)| j != i && me.dist(*p) <= rc)
            .map(|(_, &p)| p)
            .collect();
        let local = local_voronoi_cell(me, &neighbors, &field, rc);
        // Sample the global cell; every interior sample within the
        // rc-box must lie in the local cell.
        if let Some(c) = global.centroid() {
            if me.dist(c) < rc * 0.99 {
                prop_assert!(local.contains(c), "centroid {c} escaped local cell");
            }
        }
        for t in [0.25, 0.5, 0.75] {
            let probe = me.lerp(global.centroid().unwrap_or(me), t);
            if me.dist(probe) < rc * 0.99 && global.contains(probe) {
                prop_assert!(local.contains(probe), "probe {probe} escaped");
            }
        }
    }
}
