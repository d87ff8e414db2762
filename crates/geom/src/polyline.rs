//! Polylines — the exact geometry of TIGER-style line features (streets,
//! rivers, railway tracks, administrative boundaries).

use crate::rect::mbr_of_points;
use crate::{Point, Rect, Segment};
use serde::{Deserialize, Serialize};

/// An open chain of straight line segments.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polyline {
    pts: Vec<Point>,
}

impl Polyline {
    /// Creates a polyline from its vertices.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two vertices are given.
    pub fn new(pts: Vec<Point>) -> Self {
        assert!(pts.len() >= 2, "a polyline needs at least two vertices");
        Polyline { pts }
    }

    /// The vertices of the polyline.
    #[inline]
    pub fn points(&self) -> &[Point] {
        &self.pts
    }

    /// Iterator over the constituent segments.
    pub fn segments(&self) -> impl Iterator<Item = Segment> + '_ {
        self.pts.windows(2).map(|w| Segment::new(w[0], w[1]))
    }

    /// Minimum bounding rectangle.
    pub fn mbr(&self) -> Rect {
        mbr_of_points(&self.pts)
    }

    /// Total arc length.
    pub fn length(&self) -> f64 {
        self.segments().map(|s| s.length()).sum()
    }

    /// Exact intersection test against another polyline; see
    /// [`intersects`].
    pub fn intersects(&self, other: &Polyline) -> bool {
        intersects(&self.pts, &other.pts)
    }

    /// Serialized size in bytes when stored in a geometry cluster; see
    /// [`stored_size`].
    pub fn stored_size(&self) -> usize {
        stored_size(self.pts.len())
    }
}

/// Serialized size in bytes of a polyline of `vertices` vertices stored in
/// a geometry cluster: a vertex count followed by `2 × 8` bytes per vertex.
pub fn stored_size(vertices: usize) -> usize {
    4 + vertices * 16
}

/// Exact intersection test of two polylines given as their vertices, as
/// a geometry store hands them out.
///
/// Candidate segment pairs are pre-filtered by their MBRs; the remaining
/// pairs run the exact orientation test. This mirrors the multi-step
/// refinement of [BKSS 94]: approximation test first, exact test last.
pub fn intersects(a: &[Point], b: &[Point]) -> bool {
    if !mbr_of_points(a).intersects(&mbr_of_points(b)) {
        return false;
    }
    // Small polylines: direct quadratic scan with MBR pre-filter.
    for wa in a.windows(2) {
        let sa = Segment::new(wa[0], wa[1]);
        let ma = sa.mbr();
        for wb in b.windows(2) {
            let sb = Segment::new(wb[0], wb[1]);
            if ma.intersects(&sb.mbr()) && sa.intersects(&sb) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pl(pts: &[(f64, f64)]) -> Polyline {
        Polyline::new(pts.iter().map(|&(x, y)| Point::new(x, y)).collect())
    }

    #[test]
    fn crossing_polylines_intersect() {
        let a = pl(&[(0.0, 0.0), (2.0, 2.0), (4.0, 0.0)]);
        let b = pl(&[(0.0, 2.0), (2.0, 0.0)]);
        assert!(a.intersects(&b));
        assert!(b.intersects(&a));
    }

    #[test]
    fn disjoint_polylines() {
        let a = pl(&[(0.0, 0.0), (1.0, 0.0)]);
        let b = pl(&[(0.0, 2.0), (1.0, 2.0)]);
        assert!(!a.intersects(&b));
    }

    #[test]
    fn mbr_overlap_without_exact_intersection() {
        // L-shaped around each other: MBRs overlap, geometry does not.
        let a = pl(&[(0.0, 0.0), (0.0, 3.0), (3.0, 3.0)]);
        let b = pl(&[(1.0, 1.0), (2.0, 1.0)]);
        assert!(a.mbr().intersects(&b.mbr()));
        assert!(!a.intersects(&b));
    }

    #[test]
    fn shared_vertex_intersects() {
        let a = pl(&[(0.0, 0.0), (1.0, 1.0)]);
        let b = pl(&[(1.0, 1.0), (2.0, 0.0)]);
        assert!(a.intersects(&b));
    }

    #[test]
    fn length_and_mbr() {
        let a = pl(&[(0.0, 0.0), (3.0, 4.0), (3.0, 10.0)]);
        assert_eq!(a.length(), 11.0);
        assert_eq!(a.mbr(), Rect::new(0.0, 0.0, 3.0, 10.0));
    }

    #[test]
    fn stored_size_formula() {
        let a = pl(&[(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)]);
        assert_eq!(a.stored_size(), 4 + 3 * 16);
    }

    /// The exact test as it was written on [`Polyline`] before the
    /// geometry store handed out vertex slices: the oracle for
    /// [`intersects`].
    fn intersects_oracle(a: &Polyline, b: &Polyline) -> bool {
        if !a.mbr().intersects(&b.mbr()) {
            return false;
        }
        for sa in a.segments() {
            let ma = sa.mbr();
            for sb in b.segments() {
                if ma.intersects(&sb.mbr()) && sa.intersects(&sb) {
                    return true;
                }
            }
        }
        false
    }

    /// Vertices on a 5 × 5 integer grid, so collinear overlaps, shared
    /// vertices, touching endpoints and zero-length segments (a repeated
    /// vertex) are common.
    fn arb_grid_polyline() -> impl Strategy<Value = Polyline> {
        proptest::collection::vec((0u8..5, 0u8..5), 2..6).prop_map(|v| {
            Polyline::new(
                v.into_iter()
                    .map(|(x, y)| Point::new(f64::from(x), f64::from(y)))
                    .collect(),
            )
        })
    }

    /// Vertices anywhere in a 16 × 16 square, so many pairs' MBRs overlap
    /// without their segments meeting.
    fn arb_polyline() -> impl Strategy<Value = Polyline> {
        proptest::collection::vec((-8.0f64..8.0, -8.0f64..8.0), 2..8)
            .prop_map(|v| Polyline::new(v.into_iter().map(|(x, y)| Point::new(x, y)).collect()))
    }

    proptest! {
        #[test]
        fn slice_test_equals_the_polyline_oracle_on_a_grid(
            a in arb_grid_polyline(),
            b in arb_grid_polyline(),
        ) {
            let want = intersects_oracle(&a, &b);
            prop_assert_eq!(intersects(a.points(), b.points()), want);
            prop_assert_eq!(a.intersects(&b), want);
            prop_assert_eq!(intersects(b.points(), a.points()), want);
        }

        #[test]
        fn slice_test_equals_the_polyline_oracle(a in arb_polyline(), b in arb_polyline()) {
            prop_assert_eq!(intersects(a.points(), b.points()), intersects_oracle(&a, &b));
        }
    }

    #[test]
    fn degenerate_cases_match_the_oracle() {
        let cases = [
            // Collinear, overlapping.
            (pl(&[(0.0, 0.0), (2.0, 0.0)]), pl(&[(1.0, 0.0), (3.0, 0.0)])),
            // Collinear, disjoint.
            (pl(&[(0.0, 0.0), (1.0, 0.0)]), pl(&[(2.0, 0.0), (3.0, 0.0)])),
            // Touching end to end.
            (pl(&[(0.0, 0.0), (1.0, 0.0)]), pl(&[(1.0, 0.0), (1.0, 5.0)])),
            // A zero-length segment on the other's interior.
            (pl(&[(1.0, 0.0), (1.0, 0.0)]), pl(&[(0.0, 0.0), (2.0, 0.0)])),
            // A zero-length segment beside it.
            (pl(&[(1.0, 1.0), (1.0, 1.0)]), pl(&[(0.0, 0.0), (2.0, 0.0)])),
            // Two equal points.
            (pl(&[(3.0, 3.0), (3.0, 3.0)]), pl(&[(3.0, 3.0), (3.0, 3.0)])),
        ];
        let want = [true, false, true, true, false, true];
        for ((a, b), want) in cases.iter().zip(want) {
            assert_eq!(intersects_oracle(a, b), want, "{a:?} {b:?}");
            assert_eq!(intersects(a.points(), b.points()), want, "{a:?} {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_vertex() {
        let _ = Polyline::new(vec![Point::new(0.0, 0.0)]);
    }
}
