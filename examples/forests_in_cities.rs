//! "Find all forests which are in a city" — the paper's introductory
//! example, as a polygon containment join.
//!
//! The filter step runs on the polygon MBRs through the R\*-tree join; the
//! refinement step then tests exact polygon containment. This shows how the
//! library handles join predicates beyond line intersection: run the filter
//! with `refine = false`, keep the exact geometry on the side, and refine
//! with whatever predicate the query needs.
//!
//! ```sh
//! cargo run --release -p psj-examples --bin forests_in_cities
//! ```

use psj_core::{try_run_join, NativeConfig, RunControl};
use psj_geom::{Point, Polygon};
use psj_rtree::{PagedTree, RTree};
use rand_like::SimpleRng;

/// Tiny deterministic LCG so the example needs no extra dependencies.
mod rand_like {
    pub struct SimpleRng(u64);
    impl SimpleRng {
        pub fn new(seed: u64) -> Self {
            SimpleRng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
        }
        pub fn next_f64(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (self.0 >> 11) as f64 / (1u64 << 53) as f64
        }
        pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
            lo + self.next_f64() * (hi - lo)
        }
    }
}

fn blob(rng: &mut SimpleRng, cx: f64, cy: f64, r: f64, sides: usize) -> Polygon {
    let ring = (0..sides)
        .map(|i| {
            let a = i as f64 / sides as f64 * std::f64::consts::TAU;
            let rr = r * (0.8 + 0.4 * rng.next_f64());
            Point::new(cx + rr * a.cos(), cy + rr * a.sin())
        })
        .collect();
    Polygon::new(ring)
}

fn main() {
    let mut rng = SimpleRng::new(1996);

    // Cities: 40 large polygons scattered over a 100x100 map.
    let cities: Vec<Polygon> = (0..40)
        .map(|_| {
            let cx = rng.range(10.0, 90.0);
            let cy = rng.range(10.0, 90.0);
            let r = rng.range(4.0, 9.0);
            blob(&mut rng, cx, cy, r, 12)
        })
        .collect();

    // Forests: 600 small polygons, some inside cities, most not.
    let forests: Vec<Polygon> = (0..600)
        .map(|_| {
            let cx = rng.range(0.0, 100.0);
            let cy = rng.range(0.0, 100.0);
            let r = rng.range(0.3, 1.5);
            blob(&mut rng, cx, cy, r, 8)
        })
        .collect();

    // Index the MBRs; keep the exact polygons for refinement.
    let index = |polys: &[Polygon]| {
        let mut t = RTree::new();
        for (i, p) in polys.iter().enumerate() {
            t.insert(p.mbr(), i as u64);
        }
        PagedTree::freeze(&t, |_| None)
    };
    let forest_tree = index(&forests);
    let city_tree = index(&cities);

    // Filter step: MBR-intersecting (forest, city) pairs via the parallel
    // R*-tree join.
    let mut cfg = NativeConfig::new(4);
    cfg.refine = false; // we refine with the polygon predicate below
    let filter = try_run_join(&forest_tree, &city_tree, &cfg, &RunControl::default())
        .expect("in-memory join");

    // Refinement step: exact containment.
    let mut contained: Vec<(u64, u64)> = filter
        .pairs
        .iter()
        .copied()
        .filter(|&(f, c)| cities[c as usize].contains_polygon(&forests[f as usize]))
        .collect();
    contained.sort_unstable();

    println!("cities:                 {}", cities.len());
    println!("forests:                {}", forests.len());
    println!("filter-step candidates: {}", filter.candidates);
    println!("forests inside a city:  {}", contained.len());
    println!(
        "false-hit rate:         {:.0}%",
        100.0 * (1.0 - contained.len() as f64 / filter.candidates.max(1) as f64)
    );
    for (f, c) in contained.iter().take(6) {
        println!("  forest {f:>3} ⊂ city {c}");
    }

    // Sanity: brute-force agreement.
    let mut brute: Vec<(u64, u64)> = Vec::new();
    for (f, forest) in forests.iter().enumerate() {
        for (c, city) in cities.iter().enumerate() {
            if city.contains_polygon(forest) {
                brute.push((f as u64, c as u64));
            }
        }
    }
    brute.sort_unstable();
    assert_eq!(
        contained, brute,
        "index join must agree with the brute force"
    );
    println!("verified against brute force ✓");
}
