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

    /// Exact intersection test against another polyline.
    ///
    /// Candidate segment pairs are pre-filtered by their MBRs; the remaining
    /// pairs run the exact orientation test. This mirrors the multi-step
    /// refinement of [BKSS 94]: approximation test first, exact test last.
    pub fn intersects(&self, other: &Polyline) -> bool {
        if !self.mbr().intersects(&other.mbr()) {
            return false;
        }
        // Small polylines: direct quadratic scan with MBR pre-filter.
        for sa in self.segments() {
            let ma = sa.mbr();
            for sb in other.segments() {
                if ma.intersects(&sb.mbr()) && sa.intersects(&sb) {
                    return true;
                }
            }
        }
        false
    }

    /// Serialized size in bytes when stored in a geometry cluster: a vertex
    /// count followed by `2 × 8` bytes per vertex.
    pub fn stored_size(&self) -> usize {
        4 + self.pts.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_single_vertex() {
        let _ = Polyline::new(vec![Point::new(0.0, 0.0)]);
    }
}
