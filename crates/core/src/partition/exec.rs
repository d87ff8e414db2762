//! Partition-join executor: cells → morsels → the shared morsel cursor.
//!
//! Planning borrows raw item streams (a tree input streams its leaves
//! into one item array), sizes the grid ([`super::grid::plan_grid`]),
//! replicates items into cells on `num_threads` threads
//! ([`super::grid::build_cells`]), rates every *occupied* cell (items on both
//! sides — a pair's owner cell always has both, so single-sided cells can
//! be skipped outright) with the same Minkowski model the morsel planner
//! uses, and packs cells into [`CellMorsel`]s next-fit in row-major cell
//! order. Execution then works as in [`crate::native`]: the workers take
//! morsels through one shared cursor in id order, record one [`TaskTrace`]
//! per morsel (tagged [`JoinEngine::Partition`], carrying per-morsel
//! replication/dedup attribution), and the driver runs the same
//! morsel-id-order merge — the output sequence never depends on thread
//! count or schedule.
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
use crate::morsel::{auto_budget, MorselOutputs, WorkerOutput};
use crate::native::{NativeConfig, NativeError, NativeResult, RunControl};
use psj_geom::{sweep_pairs_soa_runs, Rect, SweepPair, SweepScratch};
use psj_obs::trace::{worker_tid, TID_MAIN};
use psj_obs::ThreadTracer;
use psj_rtree::{GeomRef, PagedTree};
use std::borrow::Cow;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
                    if node.level != 0 {
                        continue;
                    }
                    for e in node.data_entries() {
                        items.push(RectItem {
                            mbr: e.mbr,
                            oid: e.oid,
                        });
                        geoms.push(e.geom);
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
    fn geometry(&self, i: usize) -> Option<&psj_geom::Polyline> {
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
/// for the morsel packing, which follows the thread count's budget.
fn plan_sides(
    a: &Side<'_>,
    b: &Side<'_>,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> Result<PartitionPlan, NativeError> {
    let sa = ItemStats::scan(a.items.iter().map(|i| &i.mbr));
    let sb = ItemStats::scan(b.items.iter().map(|i| &i.mbr));
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

    // Next-fit pack in cell order, same discipline as `morselize`: a morsel
    // exceeds the budget only when it holds exactly one cell.
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

/// Runs the partition join.
///
/// # Panics
///
/// Never fails on storage (the engine is in-memory); the panic-free
/// fallible variant exists for cancellation — see
/// [`try_run_partition_join`].
pub fn run_partition_join(
    a: PartitionInput<'_>,
    b: PartitionInput<'_>,
    cfg: &NativeConfig,
) -> NativeResult {
    match try_run_partition_join(a, b, cfg, &RunControl::default()) {
        Ok(res) => res,
        Err(e) => unreachable!("in-memory partition join cannot fail: {e}"),
    }
}

/// Runs the partition join with runtime controls. Cancellation is honored
/// between planning phases and at cell granularity; tracing emits
/// `plan_partition`/`join` driver spans, one `plan.count`/`plan.scatter`/
/// `plan.sort` span per worker, and per-morsel `task` spans like the
/// native executor. Fault plans and retry policies are inert here (they
/// act on page-cache fills; this engine has no cache) — callers that need
/// fault coverage keep [`JoinEngine::RTree`]; `psj join` rejects the
/// cache and fault options with `--engine partition`.
pub fn try_run_partition_join(
    a: PartitionInput<'_>,
    b: PartitionInput<'_>,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> Result<NativeResult, NativeError> {
    assert!(cfg.num_threads > 0, "need at least one thread");
    // The clock starts before planning: the grid, the replication passes
    // and the per-cell sorts are real costs of answering the join, and any
    // comparison with the R-tree engine is honest only if they count.
    let start = Instant::now();
    let cancel = ctl.cancel;
    let trace = ctl.trace.as_ref();
    let join_start_ns = trace.map(|t| {
        t.set_thread_name(TID_MAIN, "join driver");
        for id in 0..cfg.num_threads {
            t.set_thread_name(worker_tid(id), format!("worker {id}"));
        }
        t.now_ns()
    });

    let plan_start_ns = trace.map(|t| t.now_ns());
    let side_a = Side::new(a);
    let side_b = Side::new(b);
    if let Some(token) = cancel {
        token.check().map_err(|_| NativeError::Cancelled)?;
    }
    let plan = plan_sides(&side_a, &side_b, cfg, ctl)?;
    let num_morsels = plan.morsels.len();
    if let (Some(t), Some(start)) = (trace, plan_start_ns) {
        t.span(
            TID_MAIN,
            "plan_partition",
            "join",
            start,
            &[
                ("cells", plan.grid.cells() as u64),
                ("nx", u64::from(plan.grid.nx)),
                ("ny", u64::from(plan.grid.ny)),
                ("occupied", plan.occupied as u64),
                ("morsels", num_morsels as u64),
                ("budget", plan.budget),
                ("total_est", plan.total_est),
            ],
        );
    }
    if let Some(token) = cancel {
        token.check().map_err(|_| NativeError::Cancelled)?;
    }

    let candidates = AtomicU64::new(0);
    let replicated = AtomicU64::new(0);
    let deduped = AtomicU64::new(0);
    // The dispatcher: the id of the next morsel to hand out (`Relaxed`, as
    // in the native executor: it publishes no data).
    let next = AtomicUsize::new(0);

    let mut results: Vec<WorkerOutput> = Vec::with_capacity(cfg.num_threads);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.num_threads);
        for id in 0..cfg.num_threads {
            let next = &next;
            let plan = &plan;
            let side_a = &side_a;
            let side_b = &side_b;
            let candidates = &candidates;
            let replicated = &replicated;
            let deduped = &deduped;
            let tracer = ctl.trace.as_ref().map(|t| t.tracer(worker_tid(id)));
            handles.push(scope.spawn(move || {
                run_worker(
                    id, cfg, plan, side_a, side_b, next, candidates, replicated, deduped, cancel,
                    tracer,
                )
            }));
        }
        for h in handles {
            results.push(h.join().expect("worker panicked"));
        }
    });
    let elapsed = start.elapsed();
    if let (Some(t), Some(start_ns)) = (trace, join_start_ns) {
        t.span(
            TID_MAIN,
            "join",
            "join",
            start_ns,
            &[
                ("engine", 1),
                ("cells", plan.occupied as u64),
                ("morsels", num_morsels as u64),
                ("threads", cfg.num_threads as u64),
            ],
        );
    }

    if let Some(token) = cancel {
        token.check().map_err(|_| NativeError::Cancelled)?;
    }

    // Deterministic merge, the one the native executor runs.
    let (merged, task_traces) = MorselOutputs::place(num_morsels, results);
    Ok(NativeResult {
        pairs: merged.concat(),
        candidates: candidates.load(Ordering::Relaxed),
        node_pairs: 0,
        elapsed,
        tasks: plan.occupied,
        morsels: num_morsels,
        steals: 0,
        buffer: None,
        buffer_per_worker: Vec::new(),
        task_traces,
        engine: JoinEngine::Partition,
        replicated: replicated.load(Ordering::Relaxed),
        deduped: deduped.load(Ordering::Relaxed),
    })
}

#[allow(clippy::too_many_arguments)]
fn run_worker(
    id: usize,
    cfg: &NativeConfig,
    plan: &PartitionPlan,
    side_a: &Side<'_>,
    side_b: &Side<'_>,
    next: &AtomicUsize,
    candidates: &AtomicU64,
    replicated: &AtomicU64,
    deduped: &AtomicU64,
    cancel: Option<&crate::cancel::CancelToken>,
    mut tracer: Option<ThreadTracer>,
) -> WorkerOutput {
    let mut scratch = SweepScratch::default();
    let mut sweep_out: Vec<SweepPair> = Vec::new();
    let mut outputs: Vec<(u32, Vec<(u64, u64)>)> = Vec::new();
    let mut traces: Vec<TaskTrace> = Vec::new();
    let mut local_candidates = 0u64;
    let mut local_replicated = 0u64;
    let mut local_deduped = 0u64;
    let grid = &plan.grid;

    'outer: loop {
        if cancel.is_some_and(|t| t.is_cancelled()) {
            break 'outer;
        }
        let Some(morsel) = plan.morsels.get(next.fetch_add(1, Ordering::Relaxed)) else {
            break 'outer;
        };

        let seg_start = Instant::now();
        let seg_start_ns = tracer.as_ref().map_or(0, ThreadTracer::now_ns);
        let (base_cands, base_rep, base_dedup) =
            (local_candidates, local_replicated, local_deduped);
        let mid = morsel.id;
        let num_cells = morsel.cells.len() as u32;
        let mut out: Vec<(u64, u64)> = Vec::new();
        let mut dirty = false;
        for &cell in &morsel.cells {
            if cancel.is_some_and(|t| t.is_cancelled()) {
                dirty = true;
                break;
            }
            let c = cell as usize;
            let (lo_a, hi_a) = (plan.a.offsets[c] as usize, plan.a.offsets[c + 1] as usize);
            let (lo_b, hi_b) = (plan.b.offsets[c] as usize, plan.b.offsets[c + 1] as usize);
            let run_a = &plan.a.items[lo_a..hi_a];
            let run_b = &plan.b.items[lo_b..hi_b];
            local_replicated += u64::from(plan.a.replicas[c]) + u64::from(plan.b.replicas[c]);
            // The runs are (xl, index)-sorted and contiguous in the plan's
            // placement-aligned coordinate arrays, so the sweep reads them
            // directly — no per-cell gather, no window filter (every
            // placed item intersects its cell by construction).
            sweep_out.clear();
            sweep_pairs_soa_runs(
                &plan.coords_a.run(lo_a, hi_a),
                &plan.coords_b.run(lo_b, hi_b),
                &mut scratch,
                &mut sweep_out,
            );
            for &(pa, pb) in &sweep_out {
                // Reference-point test: only the owner cell reports a pair.
                // The corners come from the placement-aligned coordinate
                // runs the sweep just scanned, so rejected duplicates never
                // touch the (cold) per-side MBR arrays.
                let (axl, ayl) = plan.coords_a.lower_left(lo_a + pa as usize);
                let (bxl, byl) = plan.coords_b.lower_left(lo_b + pb as usize);
                if grid.cell_id(grid.cell_x(axl.max(bxl)), grid.cell_y(ayl.max(byl))) != cell {
                    local_deduped += 1;
                    continue;
                }
                let ia = run_a[pa as usize] as usize;
                let ib = run_b[pb as usize] as usize;
                local_candidates += 1;
                if cfg.refine {
                    let hit = match (side_a.geometry(ia), side_b.geometry(ib)) {
                        (Some(ga), Some(gb)) => ga.intersects(gb),
                        // A candidate can only be refuted by exact geometry
                        // on both sides — raw-rect inputs always pass.
                        _ => true,
                    };
                    if !hit {
                        continue;
                    }
                }
                out.push((side_a.items[ia].oid, side_b.items[ib].oid));
            }
        }
        let tt = TaskTrace {
            worker: id,
            morsel: mid,
            tasks: num_cells,
            node_pairs: 0,
            candidates: local_candidates - base_cands,
            pages: 0,
            hits_local: 0,
            hits_remote: 0,
            misses: 0,
            retries: 0,
            wall: seg_start.elapsed(),
            engine: JoinEngine::Partition,
            replicated: local_replicated - base_rep,
            deduped: local_deduped - base_dedup,
        };
        if let Some(tr) = tracer.as_mut() {
            tr.span(
                "task",
                "join",
                seg_start_ns,
                &[
                    ("worker", id as u64),
                    ("morsel", mid as u64),
                    ("cells", u64::from(num_cells)),
                    ("candidates", tt.candidates),
                    ("replicated", tt.replicated),
                    ("deduped", tt.deduped),
                ],
            );
        }
        traces.push(tt);
        if dirty {
            break 'outer;
        }
        outputs.push((mid, out));
    }

    candidates.fetch_add(local_candidates, Ordering::Relaxed);
    replicated.fetch_add(local_replicated, Ordering::Relaxed);
    deduped.fetch_add(local_deduped, Ordering::Relaxed);
    (outputs, traces)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::morsel::{AUTO_BUDGET_MAX, AUTO_BUDGET_MIN};
    use crate::seq::{join_candidates, join_refined};
    use psj_geom::{Point, Polyline};
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
            let res = run_partition_join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
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
        let res = run_partition_join(
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
        let want =
            run_partition_join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg).pairs;
        for threads in [2, 4, 8] {
            for round in 0..3 {
                let mut cfg = NativeConfig::new(threads);
                cfg.refine = false;
                let res =
                    run_partition_join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
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
        let res = run_partition_join(
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
        let res = run_partition_join(
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
        let res = run_partition_join(
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
        let res = run_partition_join(
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
        let res = run_partition_join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
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
        let rtree = crate::native::run_native_join(&a, &b, &cfg);
        let part = run_partition_join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
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
        let res = run_partition_join(PartitionInput::Tree(&a), PartitionInput::Tree(&b), &cfg);
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
}
