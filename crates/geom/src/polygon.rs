//! Simple polygons — exact geometry for areal features (forests, cities,
//! administrative areas). Supports the "find all forests which are in a city"
//! style joins from the paper's introduction.

use crate::rect::mbr_of_points;
use crate::segment::{orientation, Orientation};
use crate::{Point, Rect, Segment};
use serde::{Deserialize, Serialize};

/// A simple polygon given by its boundary ring (implicitly closed; the last
/// vertex connects back to the first).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Polygon {
    ring: Vec<Point>,
}

impl Polygon {
    /// Creates a polygon from its boundary ring.
    ///
    /// # Panics
    ///
    /// Panics if fewer than three vertices are given.
    pub fn new(ring: Vec<Point>) -> Self {
        assert!(ring.len() >= 3, "a polygon needs at least three vertices");
        Polygon { ring }
    }

    /// The boundary vertices (without the closing duplicate).
    #[inline]
    pub fn ring(&self) -> &[Point] {
        &self.ring
    }

    /// Iterator over the boundary edges, including the closing edge.
    pub fn edges(&self) -> impl Iterator<Item = Segment> + '_ {
        let n = self.ring.len();
        (0..n).map(move |i| Segment::new(self.ring[i], self.ring[(i + 1) % n]))
    }

    /// Minimum bounding rectangle.
    pub fn mbr(&self) -> Rect {
        mbr_of_points(&self.ring)
    }

    /// Signed area via the shoelace formula (positive for counter-clockwise
    /// rings).
    pub fn signed_area(&self) -> f64 {
        let n = self.ring.len();
        let mut acc = 0.0;
        for i in 0..n {
            let p = self.ring[i];
            let q = self.ring[(i + 1) % n];
            acc += p.x * q.y - q.x * p.y;
        }
        acc * 0.5
    }

    /// Absolute enclosed area.
    pub fn area(&self) -> f64 {
        self.signed_area().abs()
    }

    /// Point-in-polygon test (boundary counts as inside).
    pub fn contains_point(&self, p: &Point) -> bool {
        // Boundary check first so the crossing count cannot misclassify
        // points lying exactly on an edge.
        for e in self.edges() {
            if orientation(&e.a, &e.b, p) == Orientation::Collinear && e.mbr().contains_point(p) {
                return true;
            }
        }
        // Ray casting towards +x.
        let mut inside = false;
        let n = self.ring.len();
        let mut j = n - 1;
        for i in 0..n {
            let pi = self.ring[i];
            let pj = self.ring[j];
            if (pi.y > p.y) != (pj.y > p.y) {
                let x_cross = pj.x + (p.y - pj.y) / (pi.y - pj.y) * (pi.x - pj.x);
                if p.x < x_cross {
                    inside = !inside;
                }
            }
            j = i;
        }
        inside
    }

    /// Whether two polygons intersect (share any point, including full
    /// containment of one in the other).
    pub fn intersects(&self, other: &Polygon) -> bool {
        if !self.mbr().intersects(&other.mbr()) {
            return false;
        }
        for ea in self.edges() {
            let ma = ea.mbr();
            for eb in other.edges() {
                if ma.intersects(&eb.mbr()) && ea.intersects(&eb) {
                    return true;
                }
            }
        }
        // No boundary crossing: containment is the only remaining option.
        self.contains_point(&other.ring[0]) || other.contains_point(&self.ring[0])
    }

    /// Whether `other` lies completely inside `self` ("forests in a city").
    pub fn contains_polygon(&self, other: &Polygon) -> bool {
        if !self.mbr().contains(&other.mbr()) {
            return false;
        }
        // All vertices inside and no boundary crossing.
        if !other.ring.iter().all(|p| self.contains_point(p)) {
            return false;
        }
        for ea in self.edges() {
            for eb in other.edges() {
                if ea.intersects(&eb) {
                    // Touching boundaries still count as contained only if no
                    // proper crossing; be conservative and reject crossings
                    // where an interior point of `other` leaves `self`.
                    let mid = eb.a.midpoint(&eb.b);
                    if !self.contains_point(&mid) {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Serialized size in bytes when stored in a geometry cluster.
    pub fn stored_size(&self) -> usize {
        4 + self.ring.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square(x: f64, y: f64, side: f64) -> Polygon {
        Polygon::new(vec![
            Point::new(x, y),
            Point::new(x + side, y),
            Point::new(x + side, y + side),
            Point::new(x, y + side),
        ])
    }

    #[test]
    fn area_of_square() {
        assert_eq!(square(0.0, 0.0, 2.0).area(), 4.0);
    }

    #[test]
    fn signed_area_orientation() {
        let ccw = square(0.0, 0.0, 1.0);
        assert!(ccw.signed_area() > 0.0);
        let cw = Polygon::new(ccw.ring().iter().rev().copied().collect());
        assert!(cw.signed_area() < 0.0);
        assert_eq!(ccw.area(), cw.area());
    }

    #[test]
    fn contains_point_inside_outside() {
        let p = square(0.0, 0.0, 4.0);
        assert!(p.contains_point(&Point::new(2.0, 2.0)));
        assert!(!p.contains_point(&Point::new(5.0, 2.0)));
        assert!(!p.contains_point(&Point::new(-0.1, 2.0)));
    }

    #[test]
    fn contains_point_on_boundary() {
        let p = square(0.0, 0.0, 4.0);
        assert!(p.contains_point(&Point::new(0.0, 2.0)));
        assert!(p.contains_point(&Point::new(4.0, 4.0)));
    }

    #[test]
    fn contains_point_concave() {
        // A "U" shape: the notch is outside.
        let u = Polygon::new(vec![
            Point::new(0.0, 0.0),
            Point::new(6.0, 0.0),
            Point::new(6.0, 6.0),
            Point::new(4.0, 6.0),
            Point::new(4.0, 2.0),
            Point::new(2.0, 2.0),
            Point::new(2.0, 6.0),
            Point::new(0.0, 6.0),
        ]);
        assert!(u.contains_point(&Point::new(1.0, 5.0)));
        assert!(u.contains_point(&Point::new(5.0, 5.0)));
        assert!(!u.contains_point(&Point::new(3.0, 5.0))); // inside the notch
        assert!(u.contains_point(&Point::new(3.0, 1.0))); // under the notch
    }

    #[test]
    fn overlapping_polygons_intersect() {
        assert!(square(0.0, 0.0, 2.0).intersects(&square(1.0, 1.0, 2.0)));
    }

    #[test]
    fn disjoint_polygons() {
        assert!(!square(0.0, 0.0, 1.0).intersects(&square(5.0, 5.0, 1.0)));
    }

    #[test]
    fn nested_polygons_intersect() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        assert!(outer.intersects(&inner));
        assert!(inner.intersects(&outer));
    }

    #[test]
    fn contains_polygon_nested() {
        let outer = square(0.0, 0.0, 10.0);
        let inner = square(4.0, 4.0, 1.0);
        assert!(outer.contains_polygon(&inner));
        assert!(!inner.contains_polygon(&outer));
        // Overlapping but not contained.
        let cross = square(9.0, 9.0, 5.0);
        assert!(!outer.contains_polygon(&cross));
    }

    #[test]
    #[should_panic(expected = "at least three")]
    fn rejects_degenerate_ring() {
        let _ = Polygon::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]);
    }
}
