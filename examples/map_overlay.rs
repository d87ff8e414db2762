//! Map overlay: the paper's motivating workload at (scaled-down) TIGER
//! size — join a street map against a boundaries/rivers/railways map and
//! report filter and refinement statistics plus the parallel speed-up on
//! the *real* machine this example runs on.
//!
//! ```sh
//! cargo run --release -p psj-examples --bin map_overlay -- [scale]
//! ```
//! Default scale 0.1 (≈13 k + 13 k objects). Scale 1.0 reproduces the
//! paper's full workload (needs a few seconds to index).

use psj_core::{join_candidates, try_run_join, NativeConfig, RunControl};
use psj_datagen::{map_stats, Scenario};
use psj_rtree::{PagedTree, RTree};
use std::collections::HashMap;
use std::time::Instant;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1);
    let scenario = Scenario::scaled(1996, scale);
    println!(
        "generating TIGER-like scenario: {} streets + {} line features",
        scenario.map1_objects, scenario.map2_objects
    );
    let (map1, map2) = scenario.generate();
    let s1 = map_stats(&map1);
    let s2 = map_stats(&map2);
    println!(
        "map1: avg MBR extent {:.3} km, avg {:.1} vertices; map2: {:.3} km, {:.1} vertices",
        s1.avg_mbr_extent, s1.avg_vertices, s2.avg_mbr_extent, s2.avg_vertices
    );

    let index = |objs: &[psj_datagen::MapObject], name: &str| {
        let t0 = Instant::now();
        let mut t = RTree::new();
        for o in objs {
            t.insert(o.mbr(), o.oid);
        }
        let geoms: HashMap<u64, psj_geom::Polyline> =
            objs.iter().map(|o| (o.oid, o.geom.clone())).collect();
        let paged = PagedTree::freeze(&t, move |oid| geoms.get(&oid).cloned());
        println!(
            "{name}: height {}, {} data pages, {} dir pages ({:.2?})",
            paged.height(),
            paged.stats().num_data_pages,
            paged.stats().num_dir_pages,
            t0.elapsed()
        );
        paged
    };
    let a = index(&map1, "tree1");
    let b = index(&map2, "tree2");

    // Sequential filter step (the BKS'93 baseline).
    let t0 = Instant::now();
    let seq = join_candidates(&a, &b);
    let seq_time = t0.elapsed();
    println!(
        "\nsequential filter step: {} candidates in {:.2?}",
        seq.candidates.len(),
        seq_time
    );

    // Parallel join with exact refinement at increasing thread counts.
    println!("\nparallel join (filter + exact refinement):");
    println!(
        "{:>8} {:>12} {:>12} {:>10}",
        "threads", "results", "wall time", "speedup"
    );
    let mut t1 = None;
    let max_threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(4);
    let mut threads = 1;
    while threads <= max_threads {
        let res = try_run_join(&a, &b, &NativeConfig::new(threads), &RunControl::default())
            .expect("in-memory join");
        let secs = res.elapsed.as_secs_f64();
        let base = *t1.get_or_insert(secs);
        println!(
            "{:>8} {:>12} {:>12.3?} {:>9.1}x",
            threads,
            res.pairs.len(),
            res.elapsed,
            base / secs
        );
        threads *= 2;
    }
}
