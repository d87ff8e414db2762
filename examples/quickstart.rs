//! Quickstart: index two small relations with R\*-trees and join them in
//! parallel.
//!
//! ```sh
//! cargo run --release -p psj-examples --bin quickstart
//! ```

use psj_core::{try_run_join, NativeConfig, RunControl};
use psj_geom::{Point, Polyline};
use psj_rtree::{PagedTree, RTree};

fn main() {
    // --- 1. Two tiny relations: "roads" and "rivers". ----------------------
    // Roads: a little grid. Rivers: two diagonals crossing it.
    let roads: Vec<Polyline> = (0..10)
        .flat_map(|k| {
            let c = k as f64;
            [
                Polyline::new(vec![Point::new(0.0, c), Point::new(9.0, c)]), // horizontal
                Polyline::new(vec![Point::new(c, 0.0), Point::new(c, 9.0)]), // vertical
            ]
        })
        .collect();
    let rivers = vec![
        Polyline::new(vec![Point::new(-1.0, -1.0), Point::new(10.0, 10.0)]),
        Polyline::new(vec![Point::new(-1.0, 10.0), Point::new(10.0, -1.0)]),
        Polyline::new(vec![Point::new(20.0, 20.0), Point::new(30.0, 30.0)]), // far away
    ];

    // --- 2. Build and freeze one R*-tree per relation. ---------------------
    // `freeze` assigns 4 KB pages and stores the exact geometry in per-page
    // clusters so the join's refinement step can use it.
    let tree_of = |objs: &[Polyline]| {
        let mut t = RTree::new();
        for (i, g) in objs.iter().enumerate() {
            t.insert(g.mbr(), i as u64);
        }
        let objs = objs.to_vec();
        PagedTree::freeze(&t, move |oid| Some(objs[oid as usize].clone()))
    };
    let road_tree = tree_of(&roads);
    let river_tree = tree_of(&rivers);

    // --- 3. Parallel spatial join: which roads cross which rivers? ---------
    let cfg = NativeConfig::new(4); // 4 threads taking morsels from one shared queue
    let result = try_run_join(&road_tree, &river_tree, &cfg, &RunControl::default())
        .expect("in-memory join");

    println!("tasks created:        {}", result.tasks);
    println!("filter candidates:    {}", result.candidates);
    println!("exact intersections:  {}", result.pairs.len());
    println!("wall time:            {:?}", result.elapsed);

    let mut pairs = result.pairs;
    pairs.sort_unstable();
    for (road, river) in pairs.iter().take(8) {
        println!("  road {road:>2} crosses river {river}");
    }
    if pairs.len() > 8 {
        println!("  ... and {} more", pairs.len() - 8);
    }

    // Every road crosses both diagonals; river 2 is out of reach.
    assert!(pairs.iter().all(|&(_, river)| river != 2));
}
