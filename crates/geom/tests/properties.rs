//! Property-based tests for the geometry crate.

use proptest::prelude::*;
use psj_geom::sweep::{
    nested_loop_pairs, sort_by_xl, sweep_pairs, sweep_pairs_restricted, sweep_pairs_soa,
    SweepScratch,
};
use psj_geom::{rect_distance, Point, Polygon, Polyline, Rect, Segment, SoaMbrs};
use std::collections::BTreeSet;

fn arb_rect() -> impl Strategy<Value = Rect> {
    (
        -100.0f64..100.0,
        -100.0f64..100.0,
        0.0f64..50.0,
        0.0f64..50.0,
    )
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

fn arb_point() -> impl Strategy<Value = Point> {
    (-100.0f64..100.0, -100.0f64..100.0).prop_map(|(x, y)| Point::new(x, y))
}

fn arb_segment() -> impl Strategy<Value = Segment> {
    (arb_point(), arb_point()).prop_map(|(a, b)| Segment::new(a, b))
}

proptest! {
    #[test]
    fn intersects_is_symmetric(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn intersection_consistent_with_predicate(a in arb_rect(), b in arb_rect()) {
        prop_assert_eq!(a.intersection(&b).is_some(), a.intersects(&b));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains(&i));
            prop_assert!(b.contains(&i));
        }
    }

    #[test]
    fn union_contains_both(a in arb_rect(), b in arb_rect()) {
        let u = a.union(&b);
        prop_assert!(u.contains(&a));
        prop_assert!(u.contains(&b));
        // Union is the *smallest* covering rect: every bound is attained.
        prop_assert!(u.xl == a.xl || u.xl == b.xl);
        prop_assert!(u.xu == a.xu || u.xu == b.xu);
        prop_assert!(u.yl == a.yl || u.yl == b.yl);
        prop_assert!(u.yu == a.yu || u.yu == b.yu);
    }

    #[test]
    fn enlargement_nonnegative(a in arb_rect(), b in arb_rect()) {
        prop_assert!(a.enlargement(&b) >= 0.0);
        if a.contains(&b) {
            prop_assert_eq!(a.enlargement(&b), 0.0);
        }
    }

    #[test]
    fn overlap_area_bounded(a in arb_rect(), b in arb_rect()) {
        let o = a.overlap_area(&b);
        prop_assert!(o >= 0.0);
        prop_assert!(o <= a.area() + 1e-9);
        prop_assert!(o <= b.area() + 1e-9);
    }

    #[test]
    fn overlap_degree_in_unit_interval(a in arb_rect(), b in arb_rect()) {
        let d = a.overlap_degree(&b);
        prop_assert!((0.0..=1.0).contains(&d), "degree {} out of range", d);
        prop_assert_eq!(d > 0.0, a.overlap_area(&b) > 0.0 ||
            (a.intersects(&b) && (a.area() == 0.0 || b.area() == 0.0)));
    }

    #[test]
    fn sweep_equals_nested_loop(
        mut r in prop::collection::vec(arb_rect(), 0..60),
        mut s in prop::collection::vec(arb_rect(), 0..60),
    ) {
        sort_by_xl(&mut r);
        sort_by_xl(&mut s);
        let a: BTreeSet<_> = sweep_pairs(&r, &s).into_iter().collect();
        let b: BTreeSet<_> = nested_loop_pairs(&r, &s).into_iter().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn sweep_emits_no_duplicates(
        mut r in prop::collection::vec(arb_rect(), 0..60),
        mut s in prop::collection::vec(arb_rect(), 0..60),
    ) {
        sort_by_xl(&mut r);
        sort_by_xl(&mut s);
        let pairs = sweep_pairs(&r, &s);
        let set: BTreeSet<_> = pairs.iter().copied().collect();
        prop_assert_eq!(set.len(), pairs.len());
    }

    #[test]
    fn segment_intersection_symmetric(a in arb_segment(), b in arb_segment()) {
        prop_assert_eq!(a.intersects(&b), b.intersects(&a));
    }

    #[test]
    fn intersecting_segments_have_intersecting_mbrs(a in arb_segment(), b in arb_segment()) {
        if a.intersects(&b) {
            prop_assert!(a.mbr().intersects(&b.mbr()));
        }
    }

    #[test]
    fn segment_self_intersects(a in arb_segment()) {
        prop_assert!(a.intersects(&a));
    }

    #[test]
    fn polyline_mbr_contains_segment_mbrs(
        pts in prop::collection::vec(arb_point(), 2..12),
    ) {
        let pl = Polyline::new(pts);
        let m = pl.mbr();
        for s in pl.segments() {
            prop_assert!(m.contains(&s.mbr()));
        }
    }

    #[test]
    fn rect_as_polygon_agrees_with_rect_ops(a in arb_rect(), b in arb_rect()) {
        // A rectangle converted to a polygon ring must agree with the
        // native Rect operations.
        let poly = |r: &Rect| Polygon::new(vec![
            Point::new(r.xl, r.yl),
            Point::new(r.xu, r.yl),
            Point::new(r.xu, r.yu),
            Point::new(r.xl, r.yu),
        ]);
        let pa = poly(&a);
        let pb = poly(&b);
        prop_assert!((pa.area() - a.area()).abs() < 1e-9);
        prop_assert_eq!(pa.mbr(), a);
        prop_assert_eq!(pa.intersects(&pb), a.intersects(&b));
        prop_assert_eq!(pa.contains_polygon(&pb), a.contains(&b));
    }

    #[test]
    fn polygon_vertices_are_contained(
        pts in prop::collection::vec(arb_point(), 3..10),
    ) {
        let poly = Polygon::new(pts.clone());
        for p in &pts {
            prop_assert!(poly.contains_point(p), "vertex {p:?} not contained");
        }
    }

    #[test]
    fn polygon_centroidish_point_inside_mbr_rule(
        cx in -50.0f64..50.0,
        cy in -50.0f64..50.0,
        r in 1.0f64..20.0,
        sides in 3usize..12,
    ) {
        // Regular polygon: the center is inside; points far outside are not.
        let ring: Vec<Point> = (0..sides)
            .map(|i| {
                let a = i as f64 / sides as f64 * std::f64::consts::TAU;
                Point::new(cx + r * a.cos(), cy + r * a.sin())
            })
            .collect();
        let poly = Polygon::new(ring);
        prop_assert!(poly.contains_point(&Point::new(cx, cy)));
        prop_assert!(!poly.contains_point(&Point::new(cx + 3.0 * r, cy)));
        prop_assert!((poly.area() - 0.5 * sides as f64 * r * r
            * (std::f64::consts::TAU / sides as f64).sin()).abs() < 1e-6);
    }

    #[test]
    fn polyline_intersection_implies_mbr_overlap(
        a in prop::collection::vec(arb_point(), 2..8),
        b in prop::collection::vec(arb_point(), 2..8),
    ) {
        let pa = Polyline::new(a);
        let pb = Polyline::new(b);
        if pa.intersects(&pb) {
            prop_assert!(pa.mbr().intersects(&pb.mbr()));
        }
        prop_assert_eq!(pa.intersects(&pb), pb.intersects(&pa));
    }
}

// --- SoA kernel equivalence --------------------------------------------
//
// The chunked SoA filter/sweep kernel must be a drop-in replacement for the
// scalar plane sweep: identical pairs, identical filter index lists,
// identical order — on every input, including xl ties, touching and
// degenerate rectangles, empty sides, and window-disjoint sides.

/// Rectangles with a coarse coordinate grid (quantized to 0.5) so xl ties,
/// touching edges and degenerate (zero-area) rects occur constantly.
fn arb_grid_rect() -> impl Strategy<Value = Rect> {
    (-40i32..40, -40i32..40, 0i32..12, 0i32..12).prop_map(|(x, y, w, h)| {
        Rect::new(
            x as f64 * 0.5,
            y as f64 * 0.5,
            (x + w) as f64 * 0.5,
            (y + h) as f64 * 0.5,
        )
    })
}

/// An xl-sorted sequence sized across node shapes: empty, a single entry,
/// leaf-sized (26), and directory-sized (102) inputs all fall in range.
fn arb_sorted_side(max: usize) -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(arb_grid_rect(), 0..max).prop_map(|mut v| {
        sort_by_xl(&mut v);
        v
    })
}

/// Windows both overlapping and far outside the rect population, plus
/// degenerate point windows.
fn arb_window() -> impl Strategy<Value = Rect> {
    (-120i32..120, -120i32..120, 0i32..80, 0i32..80).prop_map(|(x, y, w, h)| {
        Rect::new(
            x as f64 * 0.5,
            y as f64 * 0.5,
            (x + w) as f64 * 0.5,
            (y + h) as f64 * 0.5,
        )
    })
}

proptest! {
    #[test]
    fn soa_sweep_equals_scalar_sweep(
        r in arb_sorted_side(110),
        s in arb_sorted_side(110),
        window in arb_window(),
    ) {
        let (mut fr, mut fs, mut scalar) = (Vec::new(), Vec::new(), Vec::new());
        sweep_pairs_restricted(&r, &s, &window, &mut fr, &mut fs, &mut scalar);

        let soa_r = SoaMbrs::from_rects(&r);
        let soa_s = SoaMbrs::from_rects(&s);
        let mut scratch = SweepScratch::default();
        let mut soa = Vec::new();
        sweep_pairs_soa(&soa_r, &soa_s, &window, &mut scratch, &mut soa);

        prop_assert_eq!(&soa, &scalar, "pairs diverge");
        prop_assert_eq!(&scratch.filt_r, &fr, "R filter list diverges");
        prop_assert_eq!(&scratch.filt_s, &fs, "S filter list diverges");
    }

    #[test]
    fn soa_filter_window_equals_scalar_intersects(
        rects in prop::collection::vec(arb_grid_rect(), 0..110),
        window in arb_window(),
    ) {
        // filter_window has no sortedness requirement: any entry order.
        let soa = SoaMbrs::from_rects(&rects);
        let mut got = Vec::new();
        soa.filter_window(&window, &mut got);
        let want: Vec<u32> = rects
            .iter()
            .enumerate()
            .filter(|(_, rc)| rc.intersects(&window))
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn soa_gather_equals_filter_window_on_sorted_input(
        rects in arb_sorted_side(110),
        window in arb_window(),
    ) {
        let soa = SoaMbrs::from_rects(&rects);
        let mut plain = Vec::new();
        soa.filter_window(&window, &mut plain);
        let mut idx = vec![7u32];
        let (mut xl, mut xh, mut yl, mut yh) = (vec![1.0], vec![1.0], vec![1.0], vec![1.0]);
        soa.run().filter_window_gather(&window, &mut idx, &mut xl, &mut xh, &mut yl, &mut yh);
        prop_assert_eq!(&idx, &plain, "gather index list diverges");
        for (pos, &i) in idx.iter().enumerate() {
            let want = rects[i as usize];
            prop_assert_eq!(
                (xl[pos], yl[pos], xh[pos], yh[pos]),
                (want.xl, want.yl, want.xu, want.yu),
                "gathered coords diverge at {}", pos
            );
        }
    }

    #[test]
    fn soa_filter_within_equals_scalar_distance(
        rects in prop::collection::vec(arb_grid_rect(), 0..110),
        q in arb_grid_rect(),
        eps in 0.0f64..30.0,
    ) {
        let soa = SoaMbrs::from_rects(&rects);
        let mut got = Vec::new();
        soa.filter_within(&q, eps, &mut got);
        let want: Vec<u32> = rects
            .iter()
            .enumerate()
            .filter(|(_, rc)| rect_distance(&q, rc) <= eps)
            .map(|(i, _)| i as u32)
            .collect();
        prop_assert_eq!(got, want);
    }
}
