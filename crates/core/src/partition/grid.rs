//! Grid planning for the partition join engine.
//!
//! The planner sizes a uniform grid over the **universe** — the
//! intersection of the two inputs' bounding boxes (any result pair's MBR
//! intersection lies inside both boxes, so nothing outside the universe can
//! contribute) — from the same input statistics the morsel planner's cost
//! model uses ([`crate::cost`]): item counts size the grid for work and
//! parallelism, average entry extents bound how finely it may be cut before
//! replication explodes. Every item is then *replicated* into each cell its
//! MBR overlaps (CSR layout, one index per side, each cell's run sorted by
//! `xl` for the plane sweep, its coordinates in lanes beside it;
//! [`build_cells`] counts, scatters and sorts on the join's threads), and
//! cross-cell duplicate results are suppressed at execution time with the
//! **reference-point test**: a pair is reported only by the cell containing
//! the bottom-left corner of its MBR intersection, which lies in exactly one
//! cell.
//!
//! Cell membership is decided by [`GridPlan::cell_x`]/[`GridPlan::cell_y`]
//! everywhere — item placement and the reference-point test share the same
//! clamped float→cell mapping, so a pair's owning cell is always among the
//! cells both items were placed in (the mapping is monotone and
//! `a.xl ≤ ref.x ≤ a.xu` brackets the reference point inside both items'
//! cell ranges). Floating-point cell *boundaries* never enter any decision.
//! The mapping truncates rather than calling `f64::floor` (a library call
//! on the baseline x86-64 target); after clamping at 0 truncation equals
//! `floor`, so it picks the same cell for every `f64`.

use super::RectItem;
use crate::native::{NativeError, RunControl};
use psj_geom::{Rect, SoaRun};
use psj_obs::trace::{worker_tid, TID_MAIN};
use std::ops::Range;

/// Target combined items per cell: small enough that a per-cell sweep stays
/// in cache, large enough that per-cell overhead amortizes.
pub const TARGET_CELL_ITEMS: usize = 256;
/// Minimum cells per worker, so the scheduler has slack to balance.
pub const CELLS_PER_WORKER: usize = 16;
/// Hard ceiling on grid size, bounding planner memory on huge inputs.
pub const MAX_CELLS: usize = 1 << 14;

/// A uniform grid over the join universe.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridPlan {
    /// Intersection of the two inputs' bounding boxes.
    pub universe: Rect,
    /// Grid columns.
    pub nx: u32,
    /// Grid rows.
    pub ny: u32,
    /// Precomputed `nx / width` (0 when the universe is degenerate), so
    /// the cell mapping multiplies instead of dividing — it runs per MBR
    /// corner at placement and per result pair in the reference-point
    /// test, where a dependent divide per call is measurable.
    sx: f64,
    /// Precomputed `ny / height`, same role as `sx`.
    sy: f64,
}

impl GridPlan {
    /// Builds a grid, precomputing the coordinate→cell scale factors.
    pub fn new(universe: Rect, nx: u32, ny: u32) -> Self {
        let scale = |n: u32, span: f64| {
            if span <= 0.0 || n <= 1 {
                0.0
            } else {
                f64::from(n) / span
            }
        };
        GridPlan {
            universe,
            nx,
            ny,
            sx: scale(nx, universe.width()),
            sy: scale(ny, universe.height()),
        }
    }

    /// Total cell count.
    pub fn cells(&self) -> usize {
        self.nx as usize * self.ny as usize
    }

    /// Column of coordinate `x`, clamped into the grid: the column
    /// `floor((x − xl) · sx)` clamped to `0..nx`. Monotone in `x` (`sx ≥ 0`
    /// and subtraction, multiplication, `max`, the cast and `min` all
    /// preserve order; a degenerate axis maps everything to column 0).
    ///
    /// The mapping truncates instead of calling `f64::floor`, which the
    /// baseline x86-64 target (no SSE4.1 `roundsd`) lowers to a library
    /// call, four per placed item. Truncation picks the same cell for
    /// every `f64`: on `t ≥ 0` it equals `floor`; negatives, `−0.0` and
    /// `NaN` meet `max(0.0)` first (`f64::max` returns the non-`NaN`
    /// operand) and map to 0, as `floor` then clamping does; `±∞`
    /// saturate in the cast the same way.
    #[inline]
    pub fn cell_x(&self, x: f64) -> u32 {
        cell_of((x - self.universe.xl) * self.sx, self.nx)
    }

    /// Row of coordinate `y`, clamped into the grid; the same mapping as
    /// [`GridPlan::cell_x`] on the `y` axis. Monotone in `y`.
    #[inline]
    pub fn cell_y(&self, y: f64) -> u32 {
        cell_of((y - self.universe.yl) * self.sy, self.ny)
    }

    /// Row-major id of cell `(cx, cy)`.
    #[inline]
    pub fn cell_id(&self, cx: u32, cy: u32) -> u32 {
        cy * self.nx + cx
    }

    /// Cells an MBR overlaps: `(cx0, cx1, cy0, cy1)`, all inclusive.
    #[inline]
    pub fn cell_range(&self, r: &Rect) -> (u32, u32, u32, u32) {
        (
            self.cell_x(r.xl),
            self.cell_x(r.xu),
            self.cell_y(r.yl),
            self.cell_y(r.yu),
        )
    }

    /// The cell that owns a result pair: the one containing the bottom-left
    /// corner of the two MBRs' intersection (the reference point). Exactly
    /// one cell owns each pair, and both items are guaranteed to have been
    /// replicated into it.
    #[inline]
    pub fn owner_cell(&self, a: &Rect, b: &Rect) -> u32 {
        self.cell_id(self.cell_x(a.xl.max(b.xl)), self.cell_y(a.yl.max(b.yl)))
    }
}

/// One pass of summary statistics over an item stream, mirroring what
/// [`crate::cost::TreeProfile`] samples from a frozen tree — here exact,
/// since planning already walks every item.
#[derive(Debug, Clone, Copy, Default)]
pub struct ItemStats {
    /// Item count.
    pub n: usize,
    /// Bounding box of all items (`None` when empty).
    pub bbox: Option<Rect>,
    /// Mean MBR width.
    pub avg_w: f64,
    /// Mean MBR height.
    pub avg_h: f64,
}

impl ItemStats {
    /// Scans `mbrs`.
    pub fn scan<'r>(mbrs: impl IntoIterator<Item = &'r Rect>) -> Self {
        let mut bbox: Option<Rect> = None;
        let (mut sw, mut sh) = (0.0f64, 0.0f64);
        let mut n = 0usize;
        for r in mbrs {
            n += 1;
            sw += r.width();
            sh += r.height();
            bbox = Some(match bbox {
                None => *r,
                Some(acc) => Rect {
                    xl: acc.xl.min(r.xl),
                    yl: acc.yl.min(r.yl),
                    xu: acc.xu.max(r.xu),
                    yu: acc.yu.max(r.yu),
                },
            });
        }
        ItemStats {
            n,
            bbox,
            avg_w: if n == 0 { 0.0 } else { sw / n as f64 },
            avg_h: if n == 0 { 0.0 } else { sh / n as f64 },
        }
    }
}

/// Sizes the grid for the given universe and input statistics.
///
/// Cell count targets [`TARGET_CELL_ITEMS`] combined items per cell and at
/// least [`CELLS_PER_WORKER`] cells per worker, clamped to [`MAX_CELLS`];
/// columns and rows are apportioned by the universe's aspect ratio. Each
/// axis is then capped so a cell is no narrower than the mean entry extent
/// on that axis — cutting finer than the data multiplies replication
/// without shrinking per-cell work.
pub fn plan_grid(universe: Rect, a: &ItemStats, b: &ItemStats, workers: usize) -> GridPlan {
    let n_total = a.n + b.n;
    let cells_work = n_total.div_ceil(TARGET_CELL_ITEMS);
    let cells_par = workers.max(1) * CELLS_PER_WORKER;
    let cells = cells_work.max(cells_par).clamp(1, MAX_CELLS);

    let w = universe.width().max(0.0);
    let h = universe.height().max(0.0);
    let cap = |span: f64, avg_a: f64, avg_b: f64| -> u32 {
        if span <= 0.0 {
            return 1;
        }
        let avg = (avg_a.max(avg_b)).max(f64::MIN_POSITIVE);
        ((span / avg).floor().max(1.0)).min(MAX_CELLS as f64) as u32
    };
    let cap_x = cap(w, a.avg_w, b.avg_w);
    let cap_y = cap(h, a.avg_h, b.avg_h);

    let aspect = if h > 0.0 && w > 0.0 { w / h } else { 1.0 };
    let nx = ((cells as f64 * aspect).sqrt().round().max(1.0) as u32).min(cap_x);
    let ny = ((cells as f64 / f64::from(nx.max(1))).round().max(1.0) as u32).min(cap_y);
    GridPlan::new(universe, nx, ny)
}

/// Cell `floor(t)` clamped to `0..n`, computed by truncation — exact for
/// every `f64` (see [`GridPlan::cell_x`]).
#[inline]
fn cell_of(t: f64, n: u32) -> u32 {
    (t.max(0.0) as i64).min(i64::from(n) - 1) as u32
}

/// `f64` → `u64` map that preserves [`f64::total_cmp`] order: flip the
/// sign bit on non-negatives, flip every bit on negatives. Sorting the
/// mapped keys sorts exactly like `sort_by(total_cmp)`, with integer
/// comparisons.
#[inline]
fn f64_key(x: f64) -> u64 {
    let b = x.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// Per-side cell index in CSR layout: `items[offsets[c]..offsets[c + 1]]`
/// are the global indices of the items replicated into cell `c`, sorted by
/// `(xl, index)` so each cell's run is directly sweepable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CellIndex {
    /// CSR offsets, length `cells + 1`.
    pub offsets: Vec<u32>,
    /// Global item indices, grouped by cell.
    pub items: Vec<u32>,
    /// Per-cell replica placements: entries of the cell whose *home* cell
    /// (bottom-left corner of their MBR) is a different cell. Summing over
    /// the cells of a morsel gives that morsel's replication attribution;
    /// summing over all executed cells gives the run aggregate — the same
    /// numbers by construction.
    pub replicas: Vec<u32>,
    /// Items that intersect the universe (each counted once, not per cell).
    pub placed: usize,
}

impl CellIndex {
    /// The sorted item run of cell `c`.
    #[inline]
    pub fn cell(&self, c: usize) -> &[u32] {
        &self.items[self.offsets[c] as usize..self.offsets[c + 1] as usize]
    }
}

/// Coordinates of every placement, aligned with a [`CellIndex`]'s `items`
/// array: position `p` holds the MBR of `items[p]`. Built with the index so
/// each cell's sweep reads its run as contiguous coordinate slices — no
/// per-cell gather, no per-cell allocation, and no window-filter pass
/// (every placed item intersects its cell by construction).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunCoords {
    xl: Vec<f64>,
    xh: Vec<f64>,
    yl: Vec<f64>,
    yh: Vec<f64>,
}

impl RunCoords {
    /// `n` placements' lanes, zeroed.
    fn zeroed(n: usize) -> Self {
        RunCoords {
            xl: vec![0.0; n],
            xh: vec![0.0; n],
            yl: vec![0.0; n],
            yh: vec![0.0; n],
        }
    }

    /// The SoA view of placements `lo..hi`.
    pub fn run(&self, lo: usize, hi: usize) -> SoaRun<'_> {
        SoaRun {
            xl: &self.xl[lo..hi],
            xh: &self.xh[lo..hi],
            yl: &self.yl[lo..hi],
            yh: &self.yh[lo..hi],
        }
    }

    /// Lower-left corner of placement `p` — the reference-point test reads
    /// it from here (contiguous and still cache-hot from the sweep) rather
    /// than chasing the placement index into the side's item array.
    #[inline]
    pub(super) fn lower_left(&self, p: usize) -> (f64, f64) {
        (self.xl[p], self.yl[p])
    }
}

/// Builds both sides' cell indexes over `grid`, each with its
/// placement-aligned coordinate lanes, on `threads` threads. Items
/// disjoint from the universe are dropped (they cannot contribute a pair);
/// the rest are replicated into every overlapped cell, each cell's run
/// sorted by `(xl, index)`.
///
/// Four phases, with no global sort:
///
/// 1. **count** — thread `k` takes the `k`-th contiguous chunk of each
///    side's items and counts placements and replicas per cell;
/// 2. **prefix sum** (on the caller) — the CSR offsets, and each chunk's
///    sub-run inside every cell (cell-major, chunk-minor);
/// 3. **scatter** — thread `k` writes its chunk's indices, in input order,
///    into its own sub-runs, handed out with `split_at_mut`, and each
///    placement's four coordinates beside its index in the lanes;
/// 4. **sort** — thread `k` takes a contiguous group of cells balanced by
///    placement count and sorts each run by `(xl, position in the run)`,
///    permuting indices and lanes through per-thread scratch. It reads
///    only the run, never the side's items: each placement's MBR was
///    copied next to it in phase 3, so no random gather into the input
///    is left. A cell's sub-runs follow chunk order and each chunk
///    scatters in input order, so position rises with the item index and
///    the order is exactly `(xl, index)` (the keys are unique, so
///    `sort_unstable` is deterministic).
///
/// Every cell's run is the same set at any thread count and its order is
/// a total order on that set, so the result is identical for every
/// `threads`. One thread runs every phase inline, with no spawn. With
/// `ctl.trace` set, each thread records one `plan.count`, `plan.scatter`
/// and `plan.sort` span on its worker row, and the calling thread one
/// `plan.prefix` span (phase 2) on the driver row; `ctl.cancel` is checked
/// between phases.
pub fn build_cells(
    grid: &GridPlan,
    sides: [&[RectItem]; 2],
    threads: usize,
    ctl: &RunControl<'_>,
) -> Result<[(CellIndex, RunCoords); 2], NativeError> {
    let threads = threads.max(1);
    let cells = grid.cells();
    let check = || match ctl.cancel {
        Some(token) => token.check().map_err(|_| NativeError::Cancelled),
        None => Ok(()),
    };
    let now = || ctl.trace.as_ref().map(|t| t.now_ns());
    let span = |k: usize, name: &'static str, start: Option<u64>, arg: (&'static str, u64)| {
        if let (Some(t), Some(start)) = (ctl.trace.as_ref(), start) {
            t.span(worker_tid(k), name, "join", start, &[arg]);
        }
    };
    let chunk = |s: usize, k: usize| {
        let n = sides[s].len();
        n * k / threads..n * (k + 1) / threads
    };

    // Phase 1: per-chunk counts.
    let counts: Vec<[ChunkCounts; 2]> = fan_out(vec![(); threads], |k, ()| {
        let start = now();
        let counted = [0, 1].map(|s| ChunkCounts::count(grid, &sides[s][chunk(s, k)]));
        let items = (chunk(0, k).len() + chunk(1, k).len()) as u64;
        span(k, "plan.count", start, ("items", items));
        counted
    });
    check()?;

    // Phase 2: prefix sums, then each chunk's sub-run of every cell.
    let start = now();
    let mut offsets = [0, 1].map(|_| Vec::with_capacity(cells + 1));
    let mut replicas = [0, 1].map(|_| vec![0u32; cells]);
    for (s, (offsets, replicas)) in offsets.iter_mut().zip(&mut replicas).enumerate() {
        let mut acc = 0u32;
        offsets.push(acc);
        for (c, replica) in replicas.iter_mut().enumerate() {
            for k in &counts {
                acc += k[s].cells[c];
                *replica += k[s].replicas[c];
            }
            offsets.push(acc);
        }
    }
    let mut items = [0, 1].map(|s| vec![0u32; offsets[s][cells] as usize]);
    let mut coords = [0, 1].map(|s| RunCoords::zeroed(items[s].len()));
    let mut runs: Vec<[Vec<Slots<'_>>; 2]> = (0..threads)
        .map(|_| [Vec::with_capacity(cells), Vec::with_capacity(cells)])
        .collect();
    for (s, (side_items, lanes)) in items.iter_mut().zip(coords.iter_mut()).enumerate() {
        let mut rest = Slots::new(side_items, lanes);
        for c in 0..cells {
            for (run, count) in runs.iter_mut().zip(&counts) {
                run[s].push(rest.split_front(count[s].cells[c] as usize));
            }
        }
    }
    if let (Some(t), Some(start)) = (ctl.trace.as_ref(), start) {
        t.span(
            TID_MAIN,
            "plan.prefix",
            "join",
            start,
            &[("cells", cells as u64)],
        );
    }

    // Phase 3: each chunk scatters its indices and coordinates, in input
    // order.
    fan_out(runs, |k, mut runs| {
        let start = now();
        let mut placements = 0u64;
        for (s, runs) in runs.iter_mut().enumerate() {
            let range = chunk(s, k);
            let base = range.start;
            let mut filled = vec![0usize; runs.len()];
            for (j, item) in sides[s][range].iter().enumerate() {
                place(grid, &item.mbr, |c, _| {
                    runs[c].put(filled[c], (base + j) as u32, &item.mbr);
                    filled[c] += 1;
                    placements += 1;
                });
            }
        }
        span(k, "plan.scatter", start, ("placements", placements));
    });
    check()?;

    // Phase 4: contiguous cell groups balanced by placements; each cell's
    // run is sorted in place.
    let totals: Vec<u64> = (0..=cells)
        .map(|c| u64::from(offsets[0][c]) + u64::from(offsets[1][c]))
        .collect();
    let mut cuts: Vec<usize> = (0..threads)
        .map(|k| totals.partition_point(|&t| t < totals[cells] * k as u64 / threads as u64))
        .collect();
    cuts.push(cells);
    let mut groups: Vec<[(Range<usize>, Slots<'_>); 2]> =
        (0..threads).map(|_| Default::default()).collect();
    for (s, (side_items, lanes)) in items.iter_mut().zip(coords.iter_mut()).enumerate() {
        let mut rest = Slots::new(side_items, lanes);
        for (k, group) in groups.iter_mut().enumerate() {
            let (c0, c1) = (cuts[k], cuts[k + 1]);
            let len = (offsets[s][c1] - offsets[s][c0]) as usize;
            group[s] = (c0..c1, rest.split_front(len));
        }
    }
    fan_out(groups, |k, mut group| {
        let start = now();
        let mut scratch = SortScratch::default();
        let mut placements = 0u64;
        for (s, (group_cells, run)) in group.iter_mut().enumerate() {
            let base = offsets[s][group_cells.start] as usize;
            for c in group_cells.clone() {
                let lo = offsets[s][c] as usize - base;
                let hi = offsets[s][c + 1] as usize - base;
                run.sort_run(lo..hi, &mut scratch);
            }
            placements += run.items.len() as u64;
        }
        span(k, "plan.sort", start, ("placements", placements));
    });

    Ok([0, 1].map(|s| {
        let index = CellIndex {
            offsets: std::mem::take(&mut offsets[s]),
            items: std::mem::take(&mut items[s]),
            replicas: std::mem::take(&mut replicas[s]),
            placed: counts.iter().map(|k| k[s].placed).sum(),
        };
        (index, std::mem::take(&mut coords[s]))
    }))
}

/// Calls `visit(cell, home)` for every cell `r` is replicated into — `home`
/// marks the cell of its bottom-left corner — unless `r` misses the
/// universe. Both the count and the scatter pass place through here.
#[inline]
fn place(grid: &GridPlan, r: &Rect, mut visit: impl FnMut(usize, bool)) -> bool {
    if !r.intersects(&grid.universe) {
        return false;
    }
    let (cx0, cx1, cy0, cy1) = grid.cell_range(r);
    for cy in cy0..=cy1 {
        for cx in cx0..=cx1 {
            visit(grid.cell_id(cx, cy) as usize, (cx, cy) == (cx0, cy0));
        }
    }
    true
}

/// One chunk's per-cell placement and replica counts.
struct ChunkCounts {
    cells: Vec<u32>,
    replicas: Vec<u32>,
    placed: usize,
}

impl ChunkCounts {
    fn count(grid: &GridPlan, items: &[RectItem]) -> Self {
        let mut counts = ChunkCounts {
            cells: vec![0; grid.cells()],
            replicas: vec![0; grid.cells()],
            placed: 0,
        };
        for item in items {
            let placed = place(grid, &item.mbr, |c, home| {
                counts.cells[c] += 1;
                counts.replicas[c] += u32::from(!home);
            });
            counts.placed += usize::from(placed);
        }
        counts
    }
}

/// A stretch of one side's placements: item indices and, aligned with
/// them, the coordinate lanes (`xl`, `xh`, `yl`, `yh`). The scatter hands
/// each chunk one per cell, the sort one per thread.
#[derive(Default)]
struct Slots<'a> {
    items: &'a mut [u32],
    lanes: [&'a mut [f64]; 4],
}

impl<'a> Slots<'a> {
    /// All of a side's placements.
    fn new(items: &'a mut [u32], coords: &'a mut RunCoords) -> Self {
        Slots {
            items,
            lanes: [
                coords.xl.as_mut_slice(),
                coords.xh.as_mut_slice(),
                coords.yl.as_mut_slice(),
                coords.yh.as_mut_slice(),
            ],
        }
    }

    /// Splits the first `len` placements off.
    fn split_front(&mut self, len: usize) -> Slots<'a> {
        Slots {
            items: split_front(&mut self.items, len),
            lanes: self.lanes.each_mut().map(|lane| split_front(lane, len)),
        }
    }

    /// Writes item `i` with MBR `r` at placement `p`.
    #[inline]
    fn put(&mut self, p: usize, i: u32, r: &Rect) {
        self.items[p] = i;
        self.lanes[0][p] = r.xl;
        self.lanes[1][p] = r.xu;
        self.lanes[2][p] = r.yl;
        self.lanes[3][p] = r.yu;
    }

    /// Sorts placements `run` by `(xl, position)`, reading nothing but the
    /// run itself. Position in a cell's run rises with the item index (the
    /// scatter fills a cell chunk after chunk, each in input order), so
    /// this is the `(xl, index)` order; the keys are unique, so
    /// `sort_unstable` is deterministic.
    fn sort_run(&mut self, run: Range<usize>, scratch: &mut SortScratch) {
        let keys = &mut scratch.keys;
        keys.clear();
        keys.extend(
            self.lanes[0][run.clone()]
                .iter()
                .zip(0u32..)
                .map(|(&xl, j)| (f64_key(xl), j)),
        );
        keys.sort_unstable();
        permute(&mut self.items[run.clone()], keys, &mut scratch.items);
        for lane in &mut self.lanes {
            permute(&mut lane[run.clone()], keys, &mut scratch.coords);
        }
    }
}

/// One sort thread's reusable buffers.
#[derive(Default)]
struct SortScratch {
    keys: Vec<(u64, u32)>,
    items: Vec<u32>,
    coords: Vec<f64>,
}

/// Rearranges `run` so position `p` holds what position `keys[p].1` held,
/// through the copy `tmp`.
fn permute<T: Copy>(run: &mut [T], keys: &[(u64, u32)], tmp: &mut Vec<T>) {
    tmp.clear();
    tmp.extend_from_slice(run);
    for (slot, &(_, j)) in run.iter_mut().zip(keys) {
        *slot = tmp[j as usize];
    }
}

/// Splits the first `len` elements off `rest`.
fn split_front<'a, T>(rest: &mut &'a mut [T], len: usize) -> &'a mut [T] {
    let (head, tail) = std::mem::take(rest).split_at_mut(len);
    *rest = tail;
    head
}

/// Runs `job(k, w)` for the `k`-th work item, one thread each: item 0 on
/// the caller, the rest on scoped threads. A single item runs inline, with
/// no spawn.
fn fan_out<W: Send, R: Send>(work: Vec<W>, job: impl Fn(usize, W) -> R + Sync) -> Vec<R> {
    let mut work = work.into_iter();
    let Some(first) = work.next() else {
        return Vec::new();
    };
    std::thread::scope(|scope| {
        let job = &job;
        let handles: Vec<_> = work
            .enumerate()
            .map(|(k, w)| scope.spawn(move || job(k + 1, w)))
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(job(0, first));
        out.extend(
            handles
                .into_iter()
                .map(|h| h.join().expect("planner thread panicked")),
        );
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(xl: f64, yl: f64, xu: f64, yu: f64) -> Rect {
        Rect::new(xl, yl, xu, yu)
    }

    #[test]
    fn radix_order_equals_total_cmp_order() {
        // Keys crossing every tricky region: negatives, ±0.0, subnormals,
        // infinities, plus ties.
        let xs = [
            -1e300,
            -1.5,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            1.5,
            1e300,
            f64::NEG_INFINITY,
            f64::INFINITY,
            42.0,
            -42.0,
        ];
        for x in xs {
            for y in xs {
                assert_eq!(
                    f64_key(x).cmp(&f64_key(y)),
                    x.total_cmp(&y),
                    "key order diverges for {x} vs {y}"
                );
            }
        }
    }

    /// One side's cell index over `g`, built on `threads` threads.
    fn index(g: &GridPlan, mbrs: &[Rect], threads: usize) -> (CellIndex, RunCoords) {
        let items: Vec<RectItem> = mbrs
            .iter()
            .enumerate()
            .map(|(i, &mbr)| RectItem { mbr, oid: i as u64 })
            .collect();
        let [side, _] = build_cells(g, [&items, &[]], threads, &RunControl::default())
            .expect("no cancel token");
        side
    }

    fn grid_over(mbrs: &[Rect], workers: usize) -> GridPlan {
        let s = ItemStats::scan(mbrs);
        plan_grid(s.bbox.unwrap(), &s, &s, workers)
    }

    #[test]
    fn stats_scan_is_exact() {
        let mbrs = vec![r(0.0, 0.0, 2.0, 4.0), r(1.0, 1.0, 3.0, 2.0)];
        let s = ItemStats::scan(&mbrs);
        assert_eq!(s.n, 2);
        assert_eq!(s.bbox, Some(r(0.0, 0.0, 3.0, 4.0)));
        assert_eq!(s.avg_w, 2.0);
        assert_eq!(s.avg_h, 2.5);
        assert!(ItemStats::scan(&[]).bbox.is_none());
    }

    #[test]
    fn cell_mapping_is_clamped_and_monotone() {
        let g = GridPlan::new(r(0.0, 0.0, 10.0, 10.0), 4, 4);
        assert_eq!(g.cell_x(-5.0), 0);
        assert_eq!(g.cell_x(0.0), 0);
        assert_eq!(g.cell_x(9.99), 3);
        assert_eq!(g.cell_x(10.0), 3, "upper boundary clamps into the grid");
        assert_eq!(g.cell_x(50.0), 3);
        let mut prev = 0;
        for i in 0..100 {
            let c = g.cell_x(i as f64 * 0.1);
            assert!(c >= prev, "cell_x must be monotone");
            prev = c;
        }
    }

    /// `x` and the `f64`s one ulp below and above it (`x` finite).
    fn ulp_neighbours(x: f64) -> [f64; 3] {
        let step = |up: bool| {
            if x == 0.0 {
                let tiny = f64::from_bits(1);
                return if up { tiny } else { -tiny };
            }
            let bits = x.to_bits();
            f64::from_bits(if (x > 0.0) == up { bits + 1 } else { bits - 1 })
        };
        [step(false), x, step(true)]
    }

    #[test]
    fn cell_mapping_matches_floor_and_clamp() {
        // The mapping as it was before truncation replaced `floor`.
        let floor_clamp = |t: f64, n: u32| (t.floor() as i64).clamp(0, i64::from(n) - 1) as u32;
        let check = |g: &GridPlan, x: f64, y: f64| {
            let want_x = floor_clamp((x - g.universe.xl) * g.sx, g.nx);
            let want_y = floor_clamp((y - g.universe.yl) * g.sy, g.ny);
            assert_eq!(g.cell_x(x), want_x, "cell_x({x:e}) on {g:?}");
            assert_eq!(g.cell_y(y), want_y, "cell_y({y:e}) on {g:?}");
        };
        let specials = [
            0.0,
            -0.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            f64::MIN_POSITIVE / 2.0,
            -f64::MIN_POSITIVE / 2.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN,
            f64::MAX,
        ];
        let grids = [
            GridPlan::new(r(0.0, 0.0, 10.0, 10.0), 4, 4),
            GridPlan::new(r(0.0, 0.0, 3.0, 1.0), 16384, 1),
            GridPlan::new(r(-7.25, -1e6, -0.5, 3e-3), 4, 4),
            GridPlan::new(r(-3.0, 2.0, 1e9, 2.0), 16384, 1),
            GridPlan::new(r(5.0, -1.0, 5.0, 1.0), 4, 4),
        ];
        assert_eq!(grids[4].sx, 0.0, "a degenerate axis has no scale");
        for g in &grids {
            for v in specials {
                check(g, v, v);
                assert_eq!(cell_of(v, g.nx), floor_clamp(v, g.nx), "cell_of({v:e})");
            }
            // One ulp either side of every cell boundary `k`, in cell
            // space and in coordinate space.
            let boundary =
                |lo: f64, s: f64, k: u32| if s == 0.0 { lo } else { lo + f64::from(k) / s };
            for k in 0..=g.nx.max(g.ny) {
                for t in ulp_neighbours(f64::from(k)) {
                    assert_eq!(cell_of(t, g.nx), floor_clamp(t, g.nx), "cell_of({t:e})");
                }
                let xs = ulp_neighbours(boundary(g.universe.xl, g.sx, k.min(g.nx)));
                let ys = ulp_neighbours(boundary(g.universe.yl, g.sy, k.min(g.ny)));
                for (x, y) in xs.into_iter().zip(ys) {
                    check(g, x, y);
                }
            }
        }
    }

    #[test]
    fn degenerate_universe_collapses_to_one_cell() {
        let g = plan_grid(
            r(5.0, 0.0, 5.0, 10.0),
            &ItemStats {
                n: 100,
                bbox: None,
                avg_w: 0.0,
                avg_h: 1.0,
            },
            &ItemStats::default(),
            4,
        );
        assert_eq!(g.nx, 1, "zero-width universe keeps one column");
        assert!(g.ny >= 1);
        assert_eq!(g.cell_x(5.0), 0);
    }

    #[test]
    fn entry_extent_caps_grid_resolution() {
        // Items as wide as the universe: any cut would replicate every item
        // into every column.
        let mbrs: Vec<Rect> = (0..1000)
            .map(|i| r(0.0, i as f64, 100.0, i as f64 + 1.0))
            .collect();
        let g = grid_over(&mbrs, 4);
        assert_eq!(g.nx, 1, "full-width items forbid column cuts");
        assert!(g.ny > 1, "rows may still cut");
    }

    #[test]
    fn owner_cell_is_within_both_items_ranges() {
        let mbrs: Vec<Rect> = (0..500)
            .map(|i| {
                let x = (i % 25) as f64 * 0.83;
                let y = (i / 25) as f64 * 1.07;
                r(x, y, x + 1.9, y + 1.4)
            })
            .collect();
        let g = grid_over(&mbrs, 4);
        assert!(g.cells() > 1);
        for (i, a) in mbrs.iter().enumerate() {
            for b in &mbrs[i..] {
                if !a.intersects(b) {
                    continue;
                }
                let owner = g.owner_cell(a, b);
                let (ax0, ax1, ay0, ay1) = g.cell_range(a);
                let (bx0, bx1, by0, by1) = g.cell_range(b);
                let (ox, oy) = (owner % g.nx, owner / g.nx);
                assert!(
                    (ax0..=ax1).contains(&ox) && (ay0..=ay1).contains(&oy),
                    "owner outside a's range"
                );
                assert!(
                    (bx0..=bx1).contains(&ox) && (by0..=by1).contains(&oy),
                    "owner outside b's range"
                );
            }
        }
    }

    #[test]
    fn csr_covers_every_overlapped_cell_and_sorts_runs() {
        let mbrs: Vec<Rect> = (0..300)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                r(x, y, x + 2.5, y + 2.5)
            })
            .collect();
        let g = grid_over(&mbrs, 2);
        let (idx, coords) = index(&g, &mbrs, 3);
        assert_eq!((idx.clone(), coords.clone()), index(&g, &mbrs, 1));
        assert_eq!(idx.placed, mbrs.len());
        assert_eq!(idx.offsets.len(), g.cells() + 1);
        // Every (item, overlapped cell) placement is present exactly once.
        let mut want = 0usize;
        for r in &mbrs {
            let (cx0, cx1, cy0, cy1) = g.cell_range(r);
            want += ((cx1 - cx0 + 1) * (cy1 - cy0 + 1)) as usize;
        }
        assert_eq!(idx.items.len(), want);
        let total_replicas: u64 = idx.replicas.iter().map(|&x| u64::from(x)).sum();
        assert_eq!(
            total_replicas as usize,
            want - idx.placed,
            "replicas = placements beyond each item's home cell"
        );
        for c in 0..g.cells() {
            let run = idx.cell(c);
            for w in run.windows(2) {
                let (ra, rb) = (mbrs[w[0] as usize], mbrs[w[1] as usize]);
                assert!(
                    ra.xl < rb.xl || (ra.xl == rb.xl && w[0] < w[1]),
                    "cell runs sorted by (xl, index)"
                );
            }
        }
        let lanes = coords.run(0, idx.items.len());
        for (p, &i) in idx.items.iter().enumerate() {
            let r = mbrs[i as usize];
            assert_eq!(
                (lanes.xl[p], lanes.xh[p], lanes.yl[p], lanes.yh[p]),
                (r.xl, r.xu, r.yl, r.yu),
                "coordinate lanes follow the placements"
            );
        }
    }

    #[test]
    fn items_outside_universe_are_dropped() {
        let g = GridPlan::new(r(0.0, 0.0, 10.0, 10.0), 2, 2);
        let mbrs = vec![r(20.0, 20.0, 21.0, 21.0), r(1.0, 1.0, 2.0, 2.0)];
        let (idx, _) = index(&g, &mbrs, 2);
        assert_eq!(idx.placed, 1);
        assert_eq!(idx.items, vec![1]);
    }
}
