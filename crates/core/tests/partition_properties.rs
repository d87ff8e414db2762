//! Property tests for the partition engine's two correctness pillars:
//!
//! * **grid coverage** — every intersecting pair of input rectangles shares
//!   at least one cell, and in particular both items land in the pair's
//!   reference-point *owner* cell, so no result can be lost to the grid;
//! * **reference-point dedup** — exactly one cell owns each pair, so no
//!   result can be reported twice, with no hash table needed to prove it.
//!
//! Plus end-to-end closures: the full engine equals the brute-force
//! quadratic join on arbitrary rectangle soups, the plan's replication
//! counters reconcile with the placement lists they summarize, and the
//! plan built on any number of threads equals a brute-force reference
//! and is identical at every thread count.

use proptest::prelude::*;
use psj_core::partition::grid::{build_cells, plan_grid, CellIndex, GridPlan, ItemStats};
use psj_core::{
    plan_partition, try_run_partition_join, NativeConfig, PartitionInput, RectItem, RunControl,
};
use psj_geom::Rect;

/// Rectangle soup over a [0, 40)² universe with non-degenerate extents.
fn rects() -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(
        (0u16..400, 0u16..400, 1u16..40, 1u16..40).prop_map(|(x, y, w, h)| {
            Rect::new(
                f64::from(x) / 10.0,
                f64::from(y) / 10.0,
                f64::from(x) / 10.0 + f64::from(w) / 10.0,
                f64::from(y) / 10.0 + f64::from(h) / 10.0,
            )
        }),
        40..250,
    )
}

/// Rectangle soup built to stress the planner's phases: `xl` ties in runs
/// (a shared value, and `-0.0` next to `0.0`), zero-width items, items far
/// outside any universe, and lengths that put chunk boundaries inside
/// cells. `lo..hi` (tenths) bounds the ordinary coordinates, so two soups
/// over different ranges leave items of the wider one outside the
/// universe.
fn tricky_rects(lo: i16, hi: i16) -> impl Strategy<Value = Vec<Rect>> {
    prop::collection::vec(
        (0u8..10, lo..hi, lo..hi, 0u16..40, 0u16..40).prop_map(|(kind, x, y, w, h)| {
            let (x, y) = (f64::from(x) / 10.0, f64::from(y) / 10.0);
            let (w, h) = (f64::from(w) / 10.0, f64::from(h) / 10.0);
            let xl = match kind {
                0 => -0.0,
                1 => 0.0,
                2 | 3 => 7.5,
                4 => x + 1000.0,
                _ => x,
            };
            Rect::new(xl, y, xl + w, y + h)
        }),
        0..160,
    )
}

fn items(v: &[Rect]) -> Vec<RectItem> {
    v.iter()
        .enumerate()
        .map(|(i, &mbr)| RectItem { mbr, oid: i as u64 })
        .collect()
}

/// Both sides' cell indexes over `grid`, built on `threads` threads.
fn indexes(grid: &GridPlan, a: &[Rect], b: &[Rect], threads: usize) -> [CellIndex; 2] {
    let [(idx_a, _), (idx_b, _)] = build_cells(
        grid,
        [&items(a), &items(b)],
        threads,
        &RunControl::default(),
    )
    .expect("no cancel token");
    [idx_a, idx_b]
}

/// The brute-force cell index: for every cell, the items whose cell range
/// covers it (items missing the universe dropped), sorted by
/// `(xl.total_cmp, index)`; plus per-cell replica counts and the number of
/// placed items.
fn reference_index(grid: &GridPlan, mbrs: &[Rect]) -> (Vec<Vec<u32>>, Vec<u32>, usize) {
    let mut runs = vec![Vec::new(); grid.cells()];
    let mut replicas = vec![0u32; grid.cells()];
    let mut placed = 0;
    for (i, r) in mbrs.iter().enumerate() {
        if !r.intersects(&grid.universe) {
            continue;
        }
        placed += 1;
        let (cx0, cx1, cy0, cy1) = grid.cell_range(r);
        let home = grid.cell_id(cx0, cy0) as usize;
        for (c, run) in runs.iter_mut().enumerate() {
            let (cx, cy) = (c as u32 % grid.nx, c as u32 / grid.nx);
            if (cx0..=cx1).contains(&cx) && (cy0..=cy1).contains(&cy) {
                run.push(i as u32);
                replicas[c] += u32::from(c != home);
            }
        }
    }
    for run in &mut runs {
        run.sort_by(|&i, &j| {
            mbrs[i as usize]
                .xl
                .total_cmp(&mbrs[j as usize].xl)
                .then(i.cmp(&j))
        });
    }
    (runs, replicas, placed)
}

/// Plans a grid over both inputs the way the executor does (intersection
/// universe; items outside it cannot contribute a pair).
fn plan(a: &[Rect], b: &[Rect], workers: usize) -> Option<GridPlan> {
    let sa = ItemStats::scan(a);
    let sb = ItemStats::scan(b);
    let (ra, rb) = (sa.bbox?, sb.bbox?);
    if !ra.intersects(&rb) {
        return None;
    }
    let universe = Rect {
        xl: ra.xl.max(rb.xl),
        yl: ra.yl.max(rb.yl),
        xu: ra.xu.min(rb.xu),
        yu: ra.yu.min(rb.yu),
    };
    Some(plan_grid(universe, &sa, &sb, workers))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Grid coverage: for every intersecting pair, the owner cell (the one
    /// holding the bottom-left corner of the MBR intersection) appears in
    /// BOTH sides' placement lists — the per-cell sweep that runs there
    /// sees both items, so the pair cannot be lost.
    #[test]
    fn every_intersecting_pair_shares_its_owner_cell(
        a in rects(),
        b in rects(),
        workers in 1usize..9,
    ) {
        let Some(grid) = plan(&a, &b, workers) else { return Ok(()); };
        let [idx_a, idx_b] = indexes(&grid, &a, &b, workers);
        // Invert the CSR into per-item cell sets once.
        let cells_of = |idx: &CellIndex, n: usize| {
            let mut cells = vec![Vec::new(); n];
            for c in 0..grid.cells() {
                for &i in idx.cell(c) {
                    cells[i as usize].push(c);
                }
            }
            cells
        };
        let cells_a = cells_of(&idx_a, a.len());
        let cells_b = cells_of(&idx_b, b.len());
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                if !ra.intersects(rb) {
                    continue;
                }
                let owner = grid.owner_cell(ra, rb) as usize;
                prop_assert!(
                    cells_a[i].contains(&owner) && cells_b[j].contains(&owner),
                    "pair ({i},{j}) owner cell {owner} missing a side \
                     (a in {:?}, b in {:?})",
                    cells_a[i],
                    cells_b[j]
                );
            }
        }
    }

    /// Reference-point dedup: replaying the executor's per-cell loop —
    /// every cell, every co-located pair, count it when this cell is the
    /// owner — reports each intersecting pair exactly once, even though
    /// replication makes many pairs co-located in several cells.
    #[test]
    fn reference_point_reports_each_pair_exactly_once(
        a in rects(),
        b in rects(),
        workers in 1usize..9,
    ) {
        let Some(grid) = plan(&a, &b, workers) else { return Ok(()); };
        let [idx_a, idx_b] = indexes(&grid, &a, &b, workers);
        let mut reported = vec![0u32; a.len() * b.len()];
        for c in 0..grid.cells() {
            for &i in idx_a.cell(c) {
                for &j in idx_b.cell(c) {
                    let (ra, rb) = (&a[i as usize], &b[j as usize]);
                    if ra.intersects(rb) && grid.owner_cell(ra, rb) as usize == c {
                        reported[i as usize * b.len() + j as usize] += 1;
                    }
                }
            }
        }
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                let want = u32::from(ra.intersects(rb));
                prop_assert_eq!(
                    reported[i * b.len() + j],
                    want,
                    "pair ({}, {}) reported {} times (want {})",
                    i, j, reported[i * b.len() + j], want
                );
            }
        }
    }

    /// End-to-end: the full partition engine on raw rectangle streams
    /// equals the brute-force quadratic join, at several thread counts.
    #[test]
    fn engine_equals_brute_force_on_rect_soups(
        a in rects(),
        b in rects(),
        threads in 1usize..5,
    ) {
        let (ia, ib) = (items(&a), items(&b));
        let mut want: Vec<(u64, u64)> = Vec::new();
        for (i, ra) in a.iter().enumerate() {
            for (j, rb) in b.iter().enumerate() {
                if ra.intersects(rb) {
                    want.push((i as u64, j as u64));
                }
            }
        }
        want.sort_unstable();
        let mut cfg = NativeConfig::new(threads);
        cfg.refine = false;
        let res = try_run_partition_join(
            PartitionInput::Rects(&ia),
            PartitionInput::Rects(&ib),
            &cfg,
            &RunControl::default(),
        )
        .expect("in-memory join");
        let mut got = res.pairs.clone();
        got.sort_unstable();
        prop_assert_eq!(got, want);
        prop_assert_eq!(res.candidates as usize, res.pairs.len());
    }

    /// The CSR's per-cell replica counters reconcile with the placement
    /// lists: replicas[c] counts exactly the items in cell c whose home
    /// (first-overlapped) cell is some other cell.
    #[test]
    fn replica_counters_reconcile_with_placements(
        a in rects(),
        b in rects(),
    ) {
        let Some(grid) = plan(&a, &b, 4) else { return Ok(()); };
        for (side, idx) in [&a, &b].into_iter().zip(indexes(&grid, &a, &b, 2)) {
            for c in 0..grid.cells() {
                let non_home = idx
                    .cell(c)
                    .iter()
                    .filter(|&&i| {
                        let r = &side[i as usize];
                        let (cx0, _, cy0, _) = grid.cell_range(r);
                        grid.cell_id(cx0, cy0) as usize != c
                    })
                    .count();
                prop_assert_eq!(
                    idx.replicas[c] as usize,
                    non_home,
                    "cell {} replica counter disagrees with placements",
                    c
                );
            }
        }
    }

    /// The plan built on T threads equals a brute-force reference, for T
    /// in {1, 2, 3, 4, 7, 8, n + 1}: every cell's run is exactly the items
    /// whose cell range covers it, sorted by `(xl.total_cmp, index)`; the
    /// replica counts and placed counts agree; and every coordinate lane
    /// holds the bits of its placement's MBR.
    #[test]
    fn parallel_plan_equals_brute_force_reference(
        a in tricky_rects(-40, 440),
        b in tricky_rects(100, 300),
    ) {
        let (ia, ib) = (items(&a), items(&b));
        let n = a.len().max(b.len());
        for threads in [1, 2, 3, 4, 7, 8, n + 1] {
            let plan = plan_partition(
                PartitionInput::Rects(&ia),
                PartitionInput::Rects(&ib),
                &NativeConfig::new(threads),
            );
            if plan.a.offsets.is_empty() {
                // Disjoint or empty inputs: no grid was built.
                continue;
            }
            let grid = &plan.grid;
            for (side, idx, coords) in [(&a, &plan.a, &plan.coords_a), (&b, &plan.b, &plan.coords_b)] {
                let (runs, replicas, placed) = reference_index(grid, side);
                prop_assert_eq!(idx.placed, placed, "placed, threads={}", threads);
                prop_assert_eq!(&idx.replicas, &replicas, "replicas, threads={}", threads);
                prop_assert_eq!(idx.offsets.len(), grid.cells() + 1);
                for (c, want) in runs.iter().enumerate() {
                    prop_assert_eq!(idx.cell(c), &want[..], "cell {}, threads={}", c, threads);
                }
                let lanes = coords.run(0, idx.items.len());
                for (p, &i) in idx.items.iter().enumerate() {
                    let r = &side[i as usize];
                    let got = [lanes.xl[p], lanes.xh[p], lanes.yl[p], lanes.yh[p]].map(f64::to_bits);
                    let want = [r.xl, r.xu, r.yl, r.yu].map(f64::to_bits);
                    prop_assert_eq!(got, want, "lanes of placement {}, threads={}", p, threads);
                }
            }
        }
    }

    /// `plan_partition` is field-for-field identical at T = 1..8: the grid,
    /// both cell indexes and both coordinate lane sets.
    #[test]
    fn plan_is_identical_at_every_thread_count(
        a in tricky_rects(-40, 440),
        b in tricky_rects(100, 300),
    ) {
        let (ia, ib) = (items(&a), items(&b));
        let at = |threads| {
            plan_partition(
                PartitionInput::Rects(&ia),
                PartitionInput::Rects(&ib),
                &NativeConfig::new(threads),
            )
        };
        let one = at(1);
        for threads in 2..=8 {
            let plan = at(threads);
            prop_assert_eq!(plan.grid, one.grid, "grid, threads={}", threads);
            prop_assert_eq!(&plan.a, &one.a, "side A index, threads={}", threads);
            prop_assert_eq!(&plan.b, &one.b, "side B index, threads={}", threads);
            prop_assert_eq!(&plan.coords_a, &one.coords_a, "side A lanes, threads={}", threads);
            prop_assert_eq!(&plan.coords_b, &one.coords_b, "side B lanes, threads={}", threads);
        }
    }
}
