//! Axis-parallel rectangles (minimum bounding rectangles).
//!
//! A [`Rect`] is given by its lower-left corner `(xl, yl)` and its upper-right
//! corner `(xu, yu)`, exactly as in the paper (§2.2). Degenerate rectangles
//! (zero width and/or height) are legal: they arise as the MBRs of horizontal
//! or vertical line segments and of points.

use crate::Point;
use serde::{Deserialize, Serialize};

/// An axis-parallel rectangle; the MBR approximation used by the filter step.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Rect {
    /// Lower x bound.
    pub xl: f64,
    /// Lower y bound.
    pub yl: f64,
    /// Upper x bound.
    pub xu: f64,
    /// Upper y bound.
    pub yu: f64,
}

impl Rect {
    /// Creates a rectangle from its bounds.
    ///
    /// # Panics
    ///
    /// Panics (debug builds only) if the bounds are inverted or NaN.
    #[inline]
    pub fn new(xl: f64, yl: f64, xu: f64, yu: f64) -> Self {
        debug_assert!(
            xl <= xu && yl <= yu,
            "inverted rect: [{xl},{xu}]x[{yl},{yu}]"
        );
        Rect { xl, yl, xu, yu }
    }

    /// The "empty" rectangle, an identity element for [`Rect::union`].
    #[inline]
    pub const fn empty() -> Self {
        Rect {
            xl: f64::INFINITY,
            yl: f64::INFINITY,
            xu: f64::NEG_INFINITY,
            yu: f64::NEG_INFINITY,
        }
    }

    /// Whether this is the empty rectangle (contains no point).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.xl > self.xu || self.yl > self.yu
    }

    /// Width along the x axis.
    #[inline]
    pub fn width(&self) -> f64 {
        self.xu - self.xl
    }

    /// Height along the y axis.
    #[inline]
    pub fn height(&self) -> f64 {
        self.yu - self.yl
    }

    /// Area of the rectangle. Zero for degenerate rectangles.
    #[inline]
    pub fn area(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() * self.height()
        }
    }

    /// Half perimeter ("margin" in the R\*-tree split heuristics).
    #[inline]
    pub fn margin(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.width() + self.height()
        }
    }

    /// Center of the rectangle.
    #[inline]
    pub fn center(&self) -> Point {
        Point::new((self.xl + self.xu) * 0.5, (self.yl + self.yu) * 0.5)
    }

    /// Whether the two closed rectangles share at least one point.
    ///
    /// Touching boundaries count as intersecting — the filter step must not
    /// lose candidates whose MBRs merely touch.
    #[inline]
    pub fn intersects(&self, other: &Rect) -> bool {
        self.xl <= other.xu && other.xl <= self.xu && self.yl <= other.yu && other.yl <= self.yu
    }

    /// Intersection of two rectangles, or `None` when disjoint.
    #[inline]
    pub fn intersection(&self, other: &Rect) -> Option<Rect> {
        if self.intersects(other) {
            Some(Rect {
                xl: self.xl.max(other.xl),
                yl: self.yl.max(other.yl),
                xu: self.xu.min(other.xu),
                yu: self.yu.min(other.yu),
            })
        } else {
            None
        }
    }

    /// Smallest rectangle covering both inputs.
    #[inline]
    pub fn union(&self, other: &Rect) -> Rect {
        Rect {
            xl: self.xl.min(other.xl),
            yl: self.yl.min(other.yl),
            xu: self.xu.max(other.xu),
            yu: self.yu.max(other.yu),
        }
    }

    /// Whether `other` lies completely inside `self` (closed containment).
    #[inline]
    pub fn contains(&self, other: &Rect) -> bool {
        self.xl <= other.xl && self.yl <= other.yl && self.xu >= other.xu && self.yu >= other.yu
    }

    /// Whether the point lies inside the closed rectangle.
    #[inline]
    pub fn contains_point(&self, p: &Point) -> bool {
        self.xl <= p.x && p.x <= self.xu && self.yl <= p.y && p.y <= self.yu
    }

    /// Area increase needed to include `other` (the `enlargement` of the
    /// classic R-tree ChooseSubtree heuristic).
    #[inline]
    pub fn enlargement(&self, other: &Rect) -> f64 {
        self.union(other).area() - self.area()
    }

    /// Area of overlap with `other` (zero when disjoint).
    #[inline]
    pub fn overlap_area(&self, other: &Rect) -> f64 {
        match self.intersection(other) {
            Some(i) => i.area(),
            None => 0.0,
        }
    }

    /// Normalized *degree of overlap* in `[0, 1]` between two intersecting
    /// MBRs; drives the simulated refinement-test duration (§4.2 of the
    /// paper: 2–18 ms depending on the degree of overlap).
    ///
    /// For non-degenerate rectangles this is the Jaccard measure
    /// `area(a ∩ b) / area(a ∪ b)` (w.r.t. the covering union rectangle).
    /// For degenerate rectangles (line-segment MBRs with zero area) we fall
    /// back to the product of the per-axis extent ratios so that heavily
    /// overlapping segments still report a high degree.
    pub fn overlap_degree(&self, other: &Rect) -> f64 {
        let Some(i) = self.intersection(other) else {
            return 0.0;
        };
        let u = self.union(other);
        let ua = u.area();
        if ua > 0.0 {
            let deg = i.area() / ua;
            if deg > 0.0 {
                return deg.clamp(0.0, 1.0);
            }
        }
        // Degenerate case: compare per-axis extents of the intersection with
        // the union's extents, treating a zero-extent axis as fully shared.
        let fx = if u.width() > 0.0 {
            i.width() / u.width()
        } else {
            1.0
        };
        let fy = if u.height() > 0.0 {
            i.height() / u.height()
        } else {
            1.0
        };
        (fx * fy).clamp(0.0, 1.0)
    }
}

impl Default for Rect {
    fn default() -> Self {
        Rect::empty()
    }
}

/// Computes the MBR of a set of points. Returns [`Rect::empty`] for an empty
/// slice. A NaN coordinate adds nothing (`f64::min`/`max` skip it), in
/// debug builds too: a stored geometry is read as found, so a corrupt
/// vertex must not trip [`Rect::new`]'s bounds assertion.
pub fn mbr_of_points(pts: &[Point]) -> Rect {
    pts.iter().fold(Rect::empty(), |r, p| Rect {
        xl: r.xl.min(p.x),
        yl: r.yl.min(p.y),
        xu: r.xu.max(p.x),
        yu: r.yu.max(p.y),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(xl: f64, yl: f64, xu: f64, yu: f64) -> Rect {
        Rect::new(xl, yl, xu, yu)
    }

    #[test]
    fn area_and_margin() {
        let a = r(0.0, 0.0, 2.0, 3.0);
        assert_eq!(a.area(), 6.0);
        assert_eq!(a.margin(), 5.0);
    }

    #[test]
    fn degenerate_rect_has_zero_area() {
        let a = r(1.0, 1.0, 1.0, 5.0);
        assert_eq!(a.area(), 0.0);
        assert_eq!(a.margin(), 4.0);
    }

    #[test]
    fn empty_rect_properties() {
        let e = Rect::empty();
        assert!(e.is_empty());
        assert_eq!(e.area(), 0.0);
        assert_eq!(e.margin(), 0.0);
        let a = r(0.0, 0.0, 1.0, 1.0);
        assert_eq!(e.union(&a), a);
    }

    #[test]
    fn intersection_of_overlapping() {
        let a = r(0.0, 0.0, 2.0, 2.0);
        let b = r(1.0, 1.0, 3.0, 3.0);
        assert!(a.intersects(&b));
        assert_eq!(a.intersection(&b), Some(r(1.0, 1.0, 2.0, 2.0)));
        assert_eq!(a.overlap_area(&b), 1.0);
    }

    #[test]
    fn touching_rects_intersect() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(1.0, 0.0, 2.0, 1.0);
        assert!(a.intersects(&b));
        assert_eq!(a.overlap_area(&b), 0.0);
    }

    #[test]
    fn disjoint_rects() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(!a.intersects(&b));
        assert_eq!(a.intersection(&b), None);
        assert_eq!(a.overlap_degree(&b), 0.0);
    }

    #[test]
    fn union_covers_both() {
        let a = r(0.0, 0.0, 1.0, 1.0);
        let b = r(2.0, -1.0, 3.0, 0.5);
        let u = a.union(&b);
        assert!(u.contains(&a));
        assert!(u.contains(&b));
        assert_eq!(u, r(0.0, -1.0, 3.0, 1.0));
    }

    #[test]
    fn containment() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert!(a.contains(&b));
        assert!(!b.contains(&a));
        assert!(a.contains(&a));
        assert!(a.contains_point(&Point::new(0.0, 10.0)));
        assert!(!a.contains_point(&Point::new(-0.1, 5.0)));
    }

    #[test]
    fn enlargement_zero_when_contained() {
        let a = r(0.0, 0.0, 10.0, 10.0);
        let b = r(2.0, 2.0, 3.0, 3.0);
        assert_eq!(a.enlargement(&b), 0.0);
        assert!(b.enlargement(&a) > 0.0);
    }

    #[test]
    fn overlap_degree_identical_is_one() {
        let a = r(1.0, 2.0, 3.0, 4.0);
        assert_eq!(a.overlap_degree(&a), 1.0);
    }

    #[test]
    fn overlap_degree_degenerate_segments() {
        // Two identical vertical-segment MBRs fully overlap.
        let a = r(1.0, 0.0, 1.0, 10.0);
        assert_eq!(a.overlap_degree(&a), 1.0);
        // Half-overlapping vertical segments on the same line.
        let b = r(1.0, 5.0, 1.0, 15.0);
        let d = a.overlap_degree(&b);
        assert!(d > 0.0 && d < 1.0, "degree was {d}");
    }

    #[test]
    fn mbr_of_points_covers_all() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(-2.0, 0.0),
            Point::new(3.0, 2.0),
        ];
        let m = mbr_of_points(&pts);
        assert_eq!(m, r(-2.0, 0.0, 3.0, 5.0));
        assert!(mbr_of_points(&[]).is_empty());
    }

    /// A NaN coordinate (a corrupt stored vertex) adds nothing to the MBR
    /// and trips no bounds assertion, in debug builds too.
    #[test]
    fn mbr_of_points_skips_nan_coordinates() {
        let pts = [
            Point::new(1.0, 5.0),
            Point::new(f64::NAN, 7.0),
            Point::new(3.0, f64::NAN),
        ];
        assert_eq!(mbr_of_points(&pts), r(1.0, 5.0, 3.0, 7.0));
        let line = [Point::new(0.0, 0.0), Point::new(4.0, 4.0)];
        assert!(!crate::polyline::intersects(&pts, &line));
    }
}
