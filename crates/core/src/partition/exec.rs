//! Partition-join executor: cells → morsels → the shared morsel cursor.
//!
//! Planning borrows raw item streams (a tree input streams its leaves
//! into one item array), sizes the grid ([`super::grid::plan_grid`]),
//! replicates items into cells on `num_threads` threads
//! ([`super::grid::build_cells`]), rates every *occupied* cell (items on both
//! sides — a pair's owner cell always has both, so single-sided cells can
//! be skipped outright) with the same Minkowski model the morsel planner
//! uses, and packs cells into [`CellMorsel`]s next-fit in row-major cell
//! order. Execution then runs on the runtime the R-tree engine uses
//! ([`crate::morsel`]): the workers take morsels through one shared cursor
//! in id order, record one [`TaskTrace`] per morsel (tagged
//! [`JoinEngine::Partition`], carrying per-morsel replication/dedup
//! attribution), a panicking morsel is contained the same way, and the
//! driver runs the same morsel-id-order merge — the output sequence never
//! depends on thread count or schedule.
//!
//! Per cell, the kernel is the PR 5 SoA sweep: both item runs are already
//! `(xl, index)`-sorted by the planner, the universe rectangle is the
//! restriction window (every placed item intersects it, so the filter
//! passes everything and the sweep dominates), and each emitted pair is
//! kept only if this cell owns it per the reference-point test —
//! suppressed pairs are counted as `deduped`, kept ones as `candidates`
//! and (optionally) refined against exact geometry.
//!
//! The engine runs entirely in memory: no page cache, no fault surface.
//! [`RunControl::cancel`] and [`RunControl::trace`] are honored;
//! [`RunControl::fault`] and [`RunControl::retry`] act on cache fills,
//! which this engine never performs, and are therefore inert.

use super::grid::{build_cells, plan_grid, CellIndex, GridPlan, ItemStats, RunCoords};
use super::{JoinEngine, PartitionInput, RectItem};
use crate::metrics::TaskTrace;
use crate::morsel::{auto_budget, Driver, FailState, MorselBody};
use crate::native::{NativeConfig, NativeError, NativeResult, RunControl};
use psj_geom::polyline::intersects;
use psj_geom::{sweep_pairs_soa_runs, Point, Rect, SweepPair, SweepScratch};
use psj_obs::trace::TID_MAIN;
use psj_rtree::{GeomRef, JoinNode, PagedTree};
use std::borrow::Cow;
use std::time::Instant;

/// One partition morsel: a run of occupied cells (row-major cell order)
/// whose estimated candidates add up to roughly one budget.
#[derive(Debug, Clone, PartialEq)]
pub struct CellMorsel {
    /// Position in cell order; doubles as the merge key.
    pub id: u32,
    /// Occupied cells, in row-major order. Never empty.
    pub cells: Vec<u32>,
    /// Estimated filter-step candidates (≥ 1).
    pub est: u64,
}

/// Everything the partition planner decides before workers start.
#[derive(Debug, Clone)]
pub struct PartitionPlan {
    /// The grid.
    pub grid: GridPlan,
    /// Cell index of side A.
    pub a: CellIndex,
    /// Cell index of side B.
    pub b: CellIndex,
    /// The morsels, ids `0..n` in cell order.
    pub morsels: Vec<CellMorsel>,
    /// The budget actually used (resolved auto budget).
    pub budget: u64,
    /// Total estimated candidates over all occupied cells.
    pub total_est: u64,
    /// Cells with items on both sides — the executable work units.
    pub occupied: usize,
    /// Placement-aligned coordinates of side A: position `p` holds the MBR
    /// of `a.items[p]`, so a cell's run is a contiguous
    /// [`SoaRun`](psj_geom::SoaRun).
    pub coords_a: RunCoords,
    /// Placement-aligned coordinates of side B.
    pub coords_b: RunCoords,
}

/// One side of the join: its items — borrowed from a raw stream, or
/// streamed out of a tree's leaves — plus, for tree inputs, the geometry
/// refs refinement resolves through the tree's cluster store.
struct Side<'t> {
    items: Cow<'t, [RectItem]>,
    geoms: Vec<GeomRef>,
    tree: Option<&'t PagedTree>,
}

impl<'t> Side<'t> {
    fn new(input: PartitionInput<'t>) -> Self {
        match input {
            PartitionInput::Tree(t) => {
                let n = t.len() as usize;
                let mut items = Vec::with_capacity(n);
                let mut geoms = Vec::with_capacity(n);
                // Stream the leaves through the borrowing node accessor —
                // the same read surface cache-backed executors use — so the
                // item order is pinned to page order either way.
                let mut access = t;
                for p in 0..t.num_pages() {
                    let node =
                        psj_rtree::NodeAccess::read(&mut access, psj_store::PageId(p as u32))
                            .expect("in-memory node access is infallible");
                    if !node.is_leaf() {
                        continue;
                    }
                    let lanes = node.lanes();
                    for i in 0..lanes.len() {
                        items.push(RectItem {
                            mbr: lanes.rect(i),
                            oid: node.oid(i),
                        });
                        geoms.push(node.geom(i));
                    }
                }
                Side {
                    items: Cow::Owned(items),
                    geoms,
                    tree: Some(t),
                }
            }
            PartitionInput::Rects(items) => Side {
                items: Cow::Borrowed(items),
                geoms: Vec::new(),
                tree: None,
            },
        }
    }

    /// Exact geometry of item `i`, when this side has any to offer.
    #[inline]
    fn geometry(&self, i: usize) -> Option<&[Point]> {
        let tree = self.tree?;
        let g = self.geoms[i];
        tree.clusters().geometry(g.page, g.slot)
    }
}

/// Plans the partition join on `cfg.num_threads` threads: grid,
/// replication, cell rating, packing. Exposed for tests and benches that
/// want to inspect the plan the executor runs (the executor calls exactly
/// this).
pub fn plan_partition(
    a: PartitionInput<'_>,
    b: PartitionInput<'_>,
    cfg: &NativeConfig,
) -> PartitionPlan {
    match plan_sides(&Side::new(a), &Side::new(b), cfg, &RunControl::default()) {
        Ok(plan) => plan,
        Err(e) => unreachable!("planning without a cancel token cannot fail: {e}"),
    }
}

/// Worker count the grid planner assumes, regardless of the run's actual
/// thread count — see the comment at the `plan_grid` call site: a grid
/// that varied with `num_threads` would change the output *sequence*
/// (never the set) across thread counts, breaking byte-identity with the
/// single-threaded run. 8 keeps ≥ 128 cells available on dense inputs, so
/// any realistic thread count still has morsels to share.
const PLAN_GRAIN: usize = 8;

/// Plans over both sides on `cfg.num_threads` threads (see
/// [`build_cells`]); the plan is identical at every thread count except
/// for the morsel packing, which follows the thread count's budget. With
/// `ctl.trace` set, the steps only the calling thread runs each get a span
/// on the driver row: `plan.stats` (both sides' extents), `plan.rate`
/// (occupied cells' estimates) and `plan.pack` (morsels), beside
/// [`build_cells`]' own.
fn plan_sides(
    a: &Side<'_>,
    b: &Side<'_>,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> Result<PartitionPlan, NativeError> {
    let now = || ctl.trace.as_ref().map(|t| t.now_ns());
    let span = |name: &'static str, start: Option<u64>, arg: (&'static str, u64)| {
        if let (Some(t), Some(start)) = (ctl.trace.as_ref(), start) {
            t.span(TID_MAIN, name, "join", start, &[arg]);
        }
    };
    let start = now();
    let sa = ItemStats::scan(a.items.iter().map(|i| &i.mbr));
    let sb = ItemStats::scan(b.items.iter().map(|i| &i.mbr));
    let items = (a.items.len() + b.items.len()) as u64;
    span("plan.stats", start, ("items", items));
    let universe = match (sa.bbox, sb.bbox) {
        (Some(ra), Some(rb)) if ra.intersects(&rb) => Rect {
            xl: ra.xl.max(rb.xl),
            yl: ra.yl.max(rb.yl),
            xu: ra.xu.min(rb.xu),
            yu: ra.yu.min(rb.yu),
        },
        // Disjoint or empty inputs: no pair can exist. A degenerate
        // single-cell grid over a point keeps every downstream invariant.
        _ => {
            return Ok(PartitionPlan {
                grid: GridPlan::new(Rect::new(0.0, 0.0, 0.0, 0.0), 1, 1),
                a: CellIndex::default(),
                b: CellIndex::default(),
                morsels: Vec::new(),
                budget: 0,
                total_est: 0,
                occupied: 0,
                coords_a: RunCoords::default(),
                coords_b: RunCoords::default(),
            });
        }
    };
    // The grid is planned at a *fixed* parallelism grain, not
    // `cfg.num_threads`: cell boundaries determine the order pairs are
    // emitted in (cells concatenate in row-major order at merge), so a
    // thread-count-dependent grid would make the output sequence vary with
    // the thread count. Morsel *packing* below may depend on threads freely
    // — the merge concatenates per-morsel outputs in id order, which equals
    // cell order no matter where the packing boundaries fall. This is the
    // same argument that makes the native engine byte-identical across
    // thread counts.
    let grid = plan_grid(universe, &sa, &sb, PLAN_GRAIN);
    let [(idx_a, coords_a), (idx_b, coords_b)] =
        build_cells(&grid, [&a.items, &b.items], cfg.num_threads, ctl)?;

    // Rate occupied cells with the morsel planner's Minkowski model: two
    // uniformly placed entries in a cell intersect with probability
    // `min(1, (wa+wb)/cell_w) × min(1, (ha+hb)/cell_h)`.
    let start = now();
    let cell_w = grid.universe.width() / f64::from(grid.nx);
    let cell_h = grid.universe.height() / f64::from(grid.ny);
    let p_axis = |ext_a: f64, ext_b: f64, span: f64| {
        if span <= 0.0 {
            1.0
        } else {
            ((ext_a + ext_b) / span).min(1.0)
        }
    };
    let px = p_axis(sa.avg_w, sb.avg_w, cell_w);
    let py = p_axis(sa.avg_h, sb.avg_h, cell_h);
    let mut rated: Vec<(u32, f64)> = Vec::new();
    let mut total = 0.0f64;
    for c in 0..grid.cells() {
        let na = idx_a.cell(c).len();
        let nb = idx_b.cell(c).len();
        if na == 0 || nb == 0 {
            continue;
        }
        let est = (na as f64 * nb as f64 * px * py).max(1.0);
        total += est;
        rated.push((c as u32, est));
    }
    let occupied = rated.len();
    let budget = auto_budget(total, cfg.num_threads);
    span("plan.rate", start, ("occupied", occupied as u64));

    // Next-fit pack in cell order, same discipline as `morselize`: a morsel
    // exceeds the budget only when it holds exactly one cell.
    let start = now();
    let mut morsels: Vec<CellMorsel> = Vec::new();
    let mut cur_cells: Vec<u32> = Vec::new();
    let mut cur_est = 0.0f64;
    let flush = |cells: &mut Vec<u32>, est: &mut f64, morsels: &mut Vec<CellMorsel>| {
        if !cells.is_empty() {
            morsels.push(CellMorsel {
                id: morsels.len() as u32,
                cells: std::mem::take(cells),
                est: (est.round() as u64).max(1),
            });
            *est = 0.0;
        }
    };
    for (c, e) in rated {
        if !cur_cells.is_empty() && cur_est + e > budget as f64 {
            flush(&mut cur_cells, &mut cur_est, &mut morsels);
        }
        cur_cells.push(c);
        cur_est += e;
    }
    flush(&mut cur_cells, &mut cur_est, &mut morsels);
    span("plan.pack", start, ("morsels", morsels.len() as u64));

    Ok(PartitionPlan {
        grid,
        a: idx_a,
        b: idx_b,
        morsels,
        budget,
        total_est: total.round() as u64,
        occupied,
        coords_a,
        coords_b,
    })
}

/// Runs the partition join with runtime controls. Planning runs on the
/// join's workers in three timed phases: `plan.count` (placements per
/// cell), `plan.scatter` (each placement's index and its four coordinates
/// into the cell's run) and `plan.sort` (each run by `(xl, position)`,
/// reading only the run). Cancellation is honored between planning phases
/// and at cell granularity; tracing emits `plan_partition`/`join` driver
/// spans with the driver-only planning steps (`plan.stats`, `plan.prefix`,
/// `plan.rate`, `plan.pack`) inside `plan_partition`, one
/// `plan.count`/`plan.scatter`/`plan.sort` span per worker, and per-morsel
/// `task` spans like the R-tree engine. Fault plans and retry policies are
/// inert here (they act on node reads; this engine reads no nodes) —
/// callers that need fault coverage keep [`JoinEngine::RTree`]; `psj join`
/// rejects the cache and fault options with `--engine partition`.
///
/// [`NativeResult::elapsed`] starts before planning: the grid, the
/// replication passes and the per-cell sorts are real costs of answering
/// the join, and any comparison with the R-tree engine is honest only if
/// they count.
pub fn try_run_partition_join(
    a: PartitionInput<'_>,
    b: PartitionInput<'_>,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> Result<NativeResult, NativeError> {
    let since = Instant::now();
    let driver = Driver::start(cfg.num_threads, JoinEngine::Partition, ctl);
    let start = driver.now_ns();
    let side_a = Side::new(a);
    let side_b = Side::new(b);
    driver.check()?;
    let plan = plan_sides(&side_a, &side_b, cfg, ctl)?;
    driver.span(
        "plan_partition",
        start,
        &[
            ("cells", plan.grid.cells() as u64),
            ("nx", u64::from(plan.grid.nx)),
            ("ny", u64::from(plan.grid.ny)),
            ("occupied", plan.occupied as u64),
            ("morsels", plan.morsels.len() as u64),
            ("budget", plan.budget),
            ("total_est", plan.total_est),
        ],
    );
    driver.check()?;
    driver.run_morsels(&plan.morsels, plan.occupied, since, |_| Sweep {
        plan: &plan,
        a: &side_a,
        b: &side_b,
        refine: cfg.refine,
        scratch: SweepScratch::default(),
        pairs: Vec::new(),
    })
}

/// One grid worker: the plan, both sides, and the sweep's reusable buffers.
struct Sweep<'p, 't> {
    plan: &'p PartitionPlan,
    a: &'p Side<'t>,
    b: &'p Side<'t>,
    refine: bool,
    scratch: SweepScratch,
    pairs: Vec<SweepPair>,
}

impl MorselBody<CellMorsel> for Sweep<'_, '_> {
    fn run(
        &mut self,
        morsel: &CellMorsel,
        fail: &FailState<'_>,
        tt: &mut TaskTrace,
        out: &mut Vec<(u64, u64)>,
    ) -> bool {
        let (plan, grid) = (self.plan, &self.plan.grid);
        tt.tasks = morsel.cells.len() as u32;
        for &cell in &morsel.cells {
            if fail.stopped() {
                return false;
            }
            let c = cell as usize;
            let (lo_a, hi_a) = (plan.a.offsets[c] as usize, plan.a.offsets[c + 1] as usize);
            let (lo_b, hi_b) = (plan.b.offsets[c] as usize, plan.b.offsets[c + 1] as usize);
            let run_a = &plan.a.items[lo_a..hi_a];
            let run_b = &plan.b.items[lo_b..hi_b];
            tt.replicated += u64::from(plan.a.replicas[c]) + u64::from(plan.b.replicas[c]);
            // The runs are (xl, index)-sorted and contiguous in the plan's
            // placement-aligned coordinate arrays, so the sweep reads them
            // directly — no per-cell gather, no window filter (every
            // placed item intersects its cell by construction).
            self.pairs.clear();
            sweep_pairs_soa_runs(
                &plan.coords_a.run(lo_a, hi_a),
                &plan.coords_b.run(lo_b, hi_b),
                &mut self.scratch,
                &mut self.pairs,
            );
            let (mut candidates, mut deduped) = (0u64, 0u64);
            for &(pa, pb) in &self.pairs {
                // Reference-point test: only the owner cell reports a pair.
                // The corners come from the placement-aligned coordinate
                // runs the sweep just scanned, so rejected duplicates never
                // touch the (cold) per-side MBR arrays.
                let (axl, ayl) = plan.coords_a.lower_left(lo_a + pa as usize);
                let (bxl, byl) = plan.coords_b.lower_left(lo_b + pb as usize);
                if grid.cell_id(grid.cell_x(axl.max(bxl)), grid.cell_y(ayl.max(byl))) != cell {
                    deduped += 1;
                    continue;
                }
                let ia = run_a[pa as usize] as usize;
                let ib = run_b[pb as usize] as usize;
                candidates += 1;
                if self.refine {
                    let hit = match (self.a.geometry(ia), self.b.geometry(ib)) {
                        (Some(ga), Some(gb)) => intersects(ga, gb),
                        // A candidate can only be refuted by exact geometry
                        // on both sides — raw-rect inputs always pass.
                        _ => true,
                    };
                    if !hit {
                        continue;
                    }
                }
                out.push((self.a.items[ia].oid, self.b.items[ib].oid));
            }
            tt.candidates += candidates;
            tt.deduped += deduped;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::{AUTO_BUDGET_MAX, AUTO_BUDGET_MIN};
    use crate::seq::{join_candidates, join_refined};
    use psj_geom::{Point, Polyline};
    use psj_obs::trace::worker_tid;
    use psj_rtree::RTree;

    fn tree(n: usize, offset: f64) -> PagedTree {
        let mut t = RTree::new();
        let mut geoms = Vec::new();
        for i in 0..n {
            let x = (i % 30) as f64 + offset;
            let y = (i / 30) as f64 + offset;
            t.insert(Rect::new(x, y, x + 1.1, y + 1.1), i as u64);
            geoms.push(Polyline::new(vec![
                Point::new(x, y),
                Point::new(x + 1.1, y + 1.1),
            ]));
        }
        PagedTree::freeze(&t, move |oid| Some(geoms[oid as usize].clone()))
    }

    fn join(a: PartitionInput<'_>, b: PartitionInput<'_>, cfg: &NativeConfig) -> NativeResult {
        try_run_partition_join(a, b, cfg, &RunControl::default()).expect("in-memory join")
    }

    fn sorted(mut v: Vec<(u64, u64)>) -> Vec<(u64, u64)> {
        v.sort_unstable();
        v
    }

    #[test]
    fn filter_step_matches_sequential_oracle() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let want = sorted(join_candidates(&a, &b).candidates);
        for threads in [1, 2, 4, 8] {
            let mut cfg = NativeConfig::new(threads);
            cfg.refine = false;
            let res = join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
            assert_eq!(sorted(res.pairs.clone()), want, "{threads} threads");
            assert_eq!(res.candidates as usize, res.pairs.len());
            assert_eq!(res.engine, JoinEngine::Partition);
            assert_eq!(res.node_pairs, 0);
            assert!(res.buffer.is_none());
        }
    }

    #[test]
    fn refined_matches_sequential_refined() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let want = sorted(join_refined(&a, &b));
        let res = join(
            PartitionInput::Tree(&a),
            PartitionInput::Tree(&b),
            &NativeConfig::new(4),
        );
        assert_eq!(sorted(res.pairs.clone()), want);
        assert!(res.pairs.len() <= res.candidates as usize);
    }

    #[test]
    fn output_sequence_is_deterministic_across_schedules() {
        let a = tree(700, 0.0);
        let b = tree(700, 0.4);
        let mut cfg = NativeConfig::new(1);
        cfg.refine = false;
        let want = join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg).pairs;
        for threads in [2, 4, 8] {
            for round in 0..3 {
                let mut cfg = NativeConfig::new(threads);
                cfg.refine = false;
                let res = join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
                assert_eq!(
                    res.pairs, want,
                    "merge must be deterministic: {threads} threads, round {round}"
                );
            }
        }
    }

    #[test]
    fn raw_rect_stream_joins_against_tree() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        // Side B as an unindexed stream with the same MBRs/oids.
        let items: Vec<super::super::RectItem> = b
            .window_query(&b.mbr())
            .into_iter()
            .map(|e| super::super::RectItem {
                mbr: e.mbr,
                oid: e.oid,
            })
            .collect();
        let mut cfg = NativeConfig::new(4);
        cfg.refine = false;
        let want = sorted(join_candidates(&a, &b).candidates);
        let res = join(
            PartitionInput::Tree(&a),
            PartitionInput::Rects(&items),
            &cfg,
        );
        assert_eq!(sorted(res.pairs.clone()), want);
        // With refinement on, the streamed side has no geometry: its
        // candidates pass conservatively, so output falls between the
        // refined and unrefined counts.
        let mut cfg = NativeConfig::new(4);
        cfg.refine = true;
        let res = join(
            PartitionInput::Tree(&a),
            PartitionInput::Rects(&items),
            &cfg,
        );
        assert_eq!(
            sorted(res.pairs.clone()),
            want,
            "one-sided geometry cannot refute any candidate"
        );
    }

    #[test]
    fn disjoint_inputs_yield_empty_result() {
        let a = tree(100, 0.0);
        let b = tree(100, 10_000.0);
        let res = join(
            PartitionInput::Tree(&a),
            PartitionInput::Tree(&b),
            &NativeConfig::new(4),
        );
        assert!(res.pairs.is_empty());
        assert_eq!(res.tasks, 0);
        assert_eq!(res.morsels, 0);
        assert_eq!(res.replicated, 0);
        assert_eq!(res.deduped, 0);
    }

    #[test]
    fn empty_input_yields_empty_result() {
        let a = tree(100, 0.0);
        let items: Vec<super::super::RectItem> = Vec::new();
        let res = join(
            PartitionInput::Tree(&a),
            PartitionInput::Rects(&items),
            &NativeConfig::new(2),
        );
        assert!(res.pairs.is_empty());
        assert_eq!(res.morsels, 0);
    }

    #[test]
    fn traces_reconcile_with_aggregates() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let mut cfg = NativeConfig::new(4);
        cfg.refine = false;
        let res = join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
        assert_eq!(res.task_traces.len(), res.morsels);
        assert!(res.morsels > 1, "workload must produce several morsels");
        for t in &res.task_traces {
            assert_eq!(t.engine, JoinEngine::Partition);
            assert_eq!(t.node_pairs, 0);
            assert_eq!(t.pages, 0);
        }
        let cands: u64 = res.task_traces.iter().map(|t| t.candidates).sum();
        assert_eq!(cands, res.candidates, "candidates attribute fully");
        let rep: u64 = res.task_traces.iter().map(|t| t.replicated).sum();
        assert_eq!(rep, res.replicated, "replication attributes fully");
        let ded: u64 = res.task_traces.iter().map(|t| t.deduped).sum();
        assert_eq!(ded, res.deduped, "dedup attributes fully");
        assert!(
            res.replicated > 0,
            "overlapping grid data must replicate across cells"
        );
        assert!(
            res.deduped > 0,
            "replicated pairs must be suppressed somewhere"
        );
        assert_eq!(res.steals, 0, "the shared cursor never steals");
        let cell_sum: u64 = res.task_traces.iter().map(|t| u64::from(t.tasks)).sum();
        assert_eq!(
            cell_sum as usize, res.tasks,
            "morsels cover every occupied cell"
        );
    }

    #[test]
    fn cancelled_token_aborts_join() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let ctl = RunControl::default().with_cancel(&token);
        let err = try_run_partition_join(
            PartitionInput::Tree(&a),
            PartitionInput::Tree(&b),
            &NativeConfig::new(4),
            &ctl,
        );
        assert!(matches!(err, Err(NativeError::Cancelled)));
    }

    #[test]
    fn candidates_equal_rtree_engine_candidates() {
        let a = tree(700, 0.0);
        let b = tree(700, 0.4);
        let mut cfg = NativeConfig::new(4);
        cfg.refine = false;
        let rtree = super::super::try_run_join(&a, &b, &cfg, &RunControl::default()).unwrap();
        let part = join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
        assert_eq!(
            part.candidates, rtree.candidates,
            "both engines must agree on the filter-step candidate count"
        );
    }

    #[test]
    fn plan_is_what_the_executor_runs() {
        let a = tree(900, 0.0);
        let b = tree(900, 0.4);
        let mut cfg = NativeConfig::new(4);
        cfg.refine = false;
        let plan = plan_partition(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
        let res = join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
        assert_eq!(plan.morsels.len(), res.morsels);
        assert_eq!(plan.occupied, res.tasks);
        assert!(plan.budget >= AUTO_BUDGET_MIN && plan.budget <= AUTO_BUDGET_MAX);
        let cells_in_morsels: usize = plan.morsels.iter().map(|m| m.cells.len()).sum();
        assert_eq!(cells_in_morsels, plan.occupied);
        for (i, m) in plan.morsels.iter().enumerate() {
            assert_eq!(m.id as usize, i);
            assert!(!m.cells.is_empty());
            assert!(m.est >= 1);
            assert!(
                m.est <= plan.budget || m.cells.len() == 1,
                "over-budget morsel must be a singleton"
            );
        }
    }

    #[test]
    fn traced_planning_records_each_phase_once_per_worker() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let sink = psj_obs::TraceSink::new(1 << 16);
        let ctl = RunControl::default().with_trace(std::sync::Arc::clone(&sink));
        let mut cfg = NativeConfig::new(3);
        cfg.refine = false;
        try_run_partition_join(
            PartitionInput::Tree(&a),
            PartitionInput::Tree(&b),
            &cfg,
            &ctl,
        )
        .expect("no cancel token");
        let mut text = Vec::new();
        sink.write_jsonl(&mut text).expect("write to a Vec");
        let text = String::from_utf8(text).expect("JSONL is UTF-8");
        psj_obs::validate_jsonl(&text).expect("trace validates");
        let events: Vec<psj_obs::json::Value> = text
            .lines()
            .map(|l| psj_obs::json::parse(l).expect("line parses"))
            .collect();
        let tids_of = |name: &str| -> Vec<u32> {
            let mut tids: Vec<u32> = events
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .map(|e| e.get("tid").and_then(|t| t.as_f64()).expect("tid") as u32)
                .collect();
            tids.sort_unstable();
            tids
        };
        let workers: Vec<u32> = (0..3).map(worker_tid).collect();
        for phase in ["plan.count", "plan.scatter", "plan.sort"] {
            assert_eq!(tids_of(phase), workers, "{phase}: one span per worker row");
        }
        let plan = events
            .iter()
            .find(|e| e.get("name").and_then(|n| n.as_str()) == Some("plan_partition"))
            .expect("driver plan span");
        assert_eq!(
            plan.get("tid").and_then(|t| t.as_f64()),
            Some(f64::from(TID_MAIN))
        );
        for arg in [
            "cells",
            "nx",
            "ny",
            "occupied",
            "morsels",
            "budget",
            "total_est",
        ] {
            assert!(
                plan.get("args").and_then(|a| a.get(arg)).is_some(),
                "plan_partition keeps its {arg} arg"
            );
        }
    }

    /// The steps only the driver runs (extents, prefix sums, rating,
    /// packing) each get one span on the driver row, in order, inside
    /// `plan_partition`.
    #[test]
    fn traced_planning_records_each_driver_step_once() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let sink = psj_obs::TraceSink::new(1 << 16);
        let ctl = RunControl::default().with_trace(std::sync::Arc::clone(&sink));
        let mut cfg = NativeConfig::new(2);
        cfg.refine = false;
        try_run_partition_join(
            PartitionInput::Tree(&a),
            PartitionInput::Tree(&b),
            &cfg,
            &ctl,
        )
        .expect("no cancel token");
        let mut text = Vec::new();
        sink.write_jsonl(&mut text).expect("write to a Vec");
        let text = String::from_utf8(text).expect("JSONL is UTF-8");
        psj_obs::validate_jsonl(&text).expect("trace validates");
        let events: Vec<psj_obs::json::Value> = text
            .lines()
            .map(|l| psj_obs::json::parse(l).expect("line parses"))
            .collect();
        // (tid, begin, end) of the one span named `name`.
        let span = |name: &str| -> (f64, f64, f64) {
            let found: Vec<_> = events
                .iter()
                .filter(|e| e.get("name").and_then(|n| n.as_str()) == Some(name))
                .collect();
            assert_eq!(found.len(), 1, "{name}: one span");
            let num = |k: &str| found[0].get(k).and_then(|v| v.as_f64()).expect(k);
            (num("tid"), num("ts"), num("ts") + num("dur"))
        };
        // Times are printed in µs to the ns, so sums may be a rounding off.
        let ns = 1e-3;
        let (_, plan_begin, plan_end) = span("plan_partition");
        let mut last_end = plan_begin;
        for step in ["plan.stats", "plan.prefix", "plan.rate", "plan.pack"] {
            let (tid, begin, end) = span(step);
            assert_eq!(tid, f64::from(TID_MAIN), "{step} is on the driver row");
            assert!(
                begin + ns >= last_end && end <= plan_end + ns,
                "{step} in order"
            );
            last_end = end;
        }
    }
}
