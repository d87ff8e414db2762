//! Per-layer metrics of the three join workloads.
//!
//! The layer budget is taken at one thread, where times add: the direct
//! passes below re-run, on the operation's own node pairs and page
//! requests, the public functions the join is made of, and
//! `budget.explained_share` is their sum over the one-thread join time.
//! What is left is what no public function exposes: queueing and stealing,
//! resolving candidates to object ids, and the ordered merge.

use super::{common, median, Layers, TENTH};
use crate::estimator::estimate;
use crate::fixtures::Fixture;
use crate::joins::{set_up, JoinBench, Kind, BLOCK};
use crate::spans::{Recorder, ROOT};
use crate::{host, Ctx};
use psj_buffer::{BufferStats, PageSource, Policy, SharedPageCache};
use psj_core::{
    create_tasks, expand_pair, join_candidates, plan_partition, try_run_join, Candidate,
    KernelScratch, NativeResult, PartitionInput, RunControl, TaskPair,
};
use psj_geom::{sweep_pairs_soa, sweep_pairs_soa_runs, SweepPair, SweepScratch};
use psj_rtree::{Node, PagedTree};
use psj_store::{PageError, PageId};
use std::hint::black_box;
use std::io;
use std::time::Instant;

/// Operations behind a median that needs no tail (one-thread join, refine,
/// oracle, tree-input grid join).
const FEW_OPS: usize = 15;

/// Repetitions of every direct pass; the median is reported.
const PASSES: usize = 5;

/// High bit separating tree B's pages from tree A's in one cache, as the
/// executor's own page source does.
const TREE_B: u32 = 1 << 31;

fn ms(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Median wall time, ms, of `n` runs of `f`.
fn median_ms(n: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = Instant::now();
            f();
            ms(t0)
        })
        .collect();
    median(&times)
}

/// Decodes nodes from the trees' serialized pages, like the executor's
/// private page source.
struct TreePages<'t> {
    a: &'t PagedTree,
    b: &'t PagedTree,
}

impl PageSource for TreePages<'_> {
    type Item = Node;

    fn fetch_page(&self, page: PageId) -> Result<Node, PageError> {
        Ok(if page.0 & TREE_B != 0 {
            Node::decode(self.b.pages().read(PageId(page.0 & !TREE_B)))
        } else {
            Node::decode(self.a.pages().read(page))
        })
    }

    fn page_count(&self) -> usize {
        self.a.num_pages() + self.b.num_pages()
    }
}

/// What the traced repeat collected from every operation's result.
#[derive(Default)]
struct OpStats {
    serial_ms: Vec<f64>,
    busy_share: Vec<f64>,
    wall_cv: Vec<f64>,
    steals: Vec<f64>,
    /// Morsel time of the worker that had the most, per operation: how
    /// long the parallel phase lasted.
    parallel_ms: Vec<f64>,
    /// The counters of the last operation (they repeat from one to the
    /// next, steals aside).
    last: Counts,
}

/// The counters a [`NativeResult`] reports.
#[derive(Default, Clone, Copy)]
struct Counts {
    tasks: usize,
    morsels: usize,
    node_pairs: u64,
    candidates: u64,
    replicated: u64,
    deduped: u64,
    buffer: Option<BufferStats>,
}

impl OpStats {
    fn record(&mut self, wall_ms: f64, res: &NativeResult, threads: usize) {
        let elapsed_ms = res.elapsed.as_secs_f64() * 1e3;
        self.serial_ms.push(wall_ms - elapsed_ms);
        let walls: Vec<f64> = res
            .task_traces
            .iter()
            .map(|t| t.wall.as_secs_f64() * 1e3)
            .collect();
        let sum: f64 = walls.iter().sum();
        self.busy_share.push(sum / (threads as f64 * elapsed_ms));
        let mean = sum / walls.len().max(1) as f64;
        let var = walls.iter().map(|w| (w - mean).powi(2)).sum::<f64>() / walls.len().max(1) as f64;
        self.wall_cv.push(var.sqrt() / mean);
        self.steals.push(res.steals as f64);
        let mut per_worker = vec![0.0f64; threads];
        for t in &res.task_traces {
            per_worker[t.worker] += t.wall.as_secs_f64() * 1e3;
        }
        self.parallel_ms
            .push(per_worker.iter().fold(0.0, |m, w| w.max(m)));
        self.last = Counts {
            tasks: res.tasks,
            morsels: res.morsels,
            node_pairs: res.node_pairs,
            candidates: res.candidates,
            replicated: res.replicated,
            deduped: res.deduped,
            buffer: res.buffer,
        };
    }
}

/// Runs the traced join workload and fills `layers`. Returns the traced
/// repeat's attempted and failed operation counts.
pub fn run(ctx: &Ctx, kind: Kind, layers: &mut Layers, rec: &Recorder) -> io::Result<(u64, u64)> {
    let fixture = Fixture::open(&ctx.root, ctx.seed)?;
    let (load_s, bench) = set_up(ctx, kind, &fixture)?;
    common(
        layers,
        ctx,
        &fixture,
        bench.a.num_pages() + bench.b.num_pages(),
        bench.a.height().max(bench.b.height()),
    )?;
    layers.set("store.load_s", load_s);
    bench.warm_up();

    // The workload at a tenth of its length, untraced then traced.
    let ops = (bench.ops(ctx.seconds) / TENTH as usize / BLOCK).max(1) * BLOCK;
    let untraced = bench.timed(&bench.cfg, ops, None, |_, _, _| {});
    let plain = estimate(&untraced.blocks);
    let mut stats = OpStats::default();
    let jiffies = host::steal_jiffies();
    let traced = bench.timed(&bench.cfg, ops, Some(rec), |_, wall, res| {
        stats.record(wall.as_secs_f64() * 1e3, res, ctx.threads);
    });
    layers.set(
        "host.steal_share",
        host::steal_share(jiffies, host::steal_jiffies()),
    );
    let with_spans = estimate(&traced.blocks);
    layers.set(
        "obs.trace_overhead",
        with_spans.op_ms_p50 / plain.op_ms_p50 - 1.0,
    );
    layers.set("host.quiet_block_share", with_spans.quiet_block_share);

    let last = stats.last;
    layers.set("core.serial_ms", median(&stats.serial_ms));
    layers.set("core.busy_share", median(&stats.busy_share));
    layers.set("core.morsel_wall_cv", median(&stats.wall_cv));
    layers.set(
        "core.steals",
        stats.steals.iter().sum::<f64>() / stats.steals.len() as f64,
    );
    layers.set("core.tasks", last.tasks as f64);
    layers.set("core.morsels", last.morsels as f64);
    layers.set("core.node_pairs", last.node_pairs as f64);
    layers.set("core.candidates", last.candidates as f64);

    // One thread: the base of scale-up, CPU inflation and the budget.
    let ctl = RunControl::default();
    let mut one = bench.cfg.clone();
    one.num_threads = 1;
    let t1_ms = median_ms(FEW_OPS, || {
        black_box(bench.op(&one, &ctl).ok());
    });
    layers.set("core.op_ms_p50_t1", t1_ms);
    layers.set("core.scaleup", t1_ms / plain.op_ms_p50);
    layers.set("core.cpu_inflation", plain.cpu_ms_per_op / t1_ms);
    layers.set(
        "core.oracle_ms",
        median_ms(PASSES, || {
            black_box(join_candidates(&bench.a, &bench.b));
        }),
    );
    let mut refining = bench.cfg.clone();
    refining.refine = true;
    let refine_ms = median_ms(PASSES, || {
        black_box(bench.op(&refining, &ctl).ok());
    });
    layers.set("core.refine_ms", (refine_ms - plain.op_ms_p50).max(0.0));

    let explained_ms = match kind {
        Kind::Mem => tree_passes(&bench, layers, rec, t1_ms).0,
        Kind::Ooc => {
            let (in_memory_ms, visited) = tree_passes(&bench, layers, rec, t1_ms);
            in_memory_ms + cache_passes(&bench, layers, rec, &last, &visited, plain.op_ms_p50)
        }
        Kind::Grid => {
            let exec_ms = median(&stats.parallel_ms);
            layers.set("partition.exec_ms", exec_ms);
            layers.set(
                "partition.serial_share",
                1.0 - exec_ms / with_spans.op_ms_p50,
            );
            grid_passes(&bench, layers, rec, &last, plain.op_ms_p50)
        }
    };
    layers.set("budget.explained_share", explained_ms / t1_ms);
    Ok((traced.attempted, traced.failed))
}

/// Depth-first traversal of every task through `expand_pair`, as the
/// sequential join does; returns the visited node pairs and the candidates.
fn expand_all(a: &PagedTree, b: &PagedTree, tasks: &[TaskPair]) -> (Vec<TaskPair>, usize) {
    let mut scratch = KernelScratch::default();
    let (mut stack, mut children) = (Vec::new(), Vec::new());
    let mut candidates: Vec<Candidate> = Vec::new();
    let mut visited = Vec::new();
    for task in tasks {
        stack.push(*task);
        while let Some(pair) = stack.pop() {
            children.clear();
            expand_pair(
                a.node(pair.a),
                b.node(pair.b),
                &pair,
                &mut scratch,
                &mut children,
                &mut candidates,
            );
            stack.extend(children.drain(..).rev());
            visited.push(pair);
        }
    }
    (visited, candidates.len())
}

/// Direct passes of the in-memory part of the R-tree join: task creation,
/// node-pair expansion and the sweep kernel. Returns the explained ms and
/// the node pairs the join visits.
fn tree_passes(
    bench: &JoinBench,
    layers: &mut Layers,
    rec: &Recorder,
    t1_ms: f64,
) -> (f64, Vec<TaskPair>) {
    let (a, b) = (&bench.a, &bench.b);
    let min_tasks = bench.cfg.min_tasks_factor * bench.cfg.num_threads;
    let mut visited = Vec::new();
    let mut candidates = 0usize;
    for pass in 0..PASSES as u64 {
        rec.span("bench.tree_passes", 0, ROOT, pass, |parent| {
            let tasks = rec.span("core.create_tasks", 0, parent, pass, |_| {
                create_tasks(a, b, min_tasks).tasks
            });
            (visited, candidates) = rec.span("core.expand_pair", 0, parent, pass, |_| {
                expand_all(a, b, &tasks)
            });
            // The sweep kernel alone, over the same leaf node pairs.
            rec.span("geom.sweep_pairs_soa", 0, parent, pass, |_| {
                let mut scratch = SweepScratch::default();
                let mut out: Vec<SweepPair> = Vec::new();
                for pair in visited.iter().filter(|p| p.la == 0 && p.lb == 0) {
                    out.clear();
                    sweep_pairs_soa(
                        a.node(pair.a).soa_mbrs(),
                        b.node(pair.b).soa_mbrs(),
                        &pair.window,
                        &mut scratch,
                        &mut out,
                    );
                    black_box(&out);
                }
            });
        });
    }
    let self_ms = |prefix: &str| rec.self_ms_per_op(prefix, PASSES);
    let kernel_ms = self_ms("geom.");
    // `expand_pair` runs the kernel itself, so the core passes already hold
    // the kernel's time; the kernel pass only says how much of it.
    let core_ms = self_ms("core.create_tasks") + self_ms("core.expand_pair");
    layers.set("core.create_tasks_ms", self_ms("core.create_tasks"));
    layers.set(
        "geom.sweep_ns_per_pair",
        kernel_ms * 1e6 / candidates as f64,
    );
    layers.set("geom.kernel_share", kernel_ms / t1_ms);
    (core_ms, visited)
}

/// Direct passes of `join_ooc`'s page-read path: the join's page requests
/// through a cold cache, page decode, and hits and fills on their own.
/// Returns the explained ms.
fn cache_passes(
    bench: &JoinBench,
    layers: &mut Layers,
    rec: &Recorder,
    last: &Counts,
    visited: &[TaskPair],
    op_ms_p50: f64,
) -> f64 {
    let (a, b) = (&bench.a, &bench.b);
    let self_ms = |prefix: &str| rec.self_ms_per_op(prefix, PASSES);
    let source = TreePages { a, b };
    let capacity = bench
        .cfg
        .buffer
        .as_ref()
        .expect("join_ooc is buffered")
        .capacity_pages;
    // The operation's page requests, in traversal order, through a
    // cold cache of the workload's size.
    for pass in 0..PASSES as u64 {
        let cache = SharedPageCache::<Node>::new(1, capacity, 8, Policy::Lru);
        rec.span("buffer.get", 0, ROOT, pass, |_| {
            for pair in visited {
                black_box(cache.get(0, pair.a, &source));
                black_box(cache.get(0, PageId(pair.b.0 | TREE_B), &source));
            }
        });
    }
    let pages = source.page_count();
    for pass in 0..PASSES as u64 {
        rec.span("store.node_decode", 0, ROOT, pass, |_| {
            for p in 0..a.num_pages() as u32 {
                black_box(source.fetch_page(PageId(p)).ok());
            }
            for p in 0..b.num_pages() as u32 {
                black_box(source.fetch_page(PageId(p | TREE_B)).ok());
            }
        });
    }
    layers.set(
        "store.page_decode_us",
        self_ms("store.") * 1e3 / pages as f64,
    );

    // Hits and fills on their own: distinct pages into a cache that
    // holds them all, then the same pages again.
    let n = capacity.min(a.num_pages()) as u32;
    let cache = SharedPageCache::<Node>::new(1, 2 * n as usize, 8, Policy::Lru);
    let t0 = Instant::now();
    for p in 0..n {
        black_box(cache.get(0, PageId(p), &source));
    }
    layers.set("buffer.miss_fill_us", ms(t0) * 1e3 / f64::from(n));
    let t0 = Instant::now();
    for _ in 0..PASSES {
        for p in 0..n {
            black_box(cache.guard_get(0, PageId(p)));
        }
    }
    layers.set(
        "buffer.hit_ns",
        ms(t0) * 1e6 / (PASSES as f64 * f64::from(n)),
    );

    let stats = last
        .buffer
        .expect("a buffered join reports cache statistics");
    let requests = stats.requests() as f64;
    layers.set("buffer.requests_per_op", requests);
    layers.set("buffer.miss_share", stats.misses as f64 / requests);
    layers.set("buffer.evictions_per_op", stats.evictions as f64);
    layers.set("buffer.l1_hit_share", stats.hits_l1 as f64 / requests);
    layers.set(
        "buffer.remote_hit_share",
        stats.hits_remote as f64 / requests,
    );
    layers.set("buffer.retries_per_op", stats.retries as f64);
    // The same join with both trees in memory: what the buffer costs.
    let mut in_memory = bench.cfg.clone();
    in_memory.buffer = None;
    let mem_ms = median_ms(2 * FEW_OPS, || {
        black_box(try_run_join(a, b, &in_memory, &RunControl::default()).ok());
    });
    layers.set("buffer.time_share", 1.0 - mem_ms / op_ms_p50);
    // The cache pass decodes on every miss, so it holds store's time.
    self_ms("buffer.")
}

/// Direct passes of the grid join's layers; returns the explained ms.
fn grid_passes(
    bench: &JoinBench,
    layers: &mut Layers,
    rec: &Recorder,
    last: &Counts,
    op_ms_p50: f64,
) -> f64 {
    let (ra, rb) = bench
        .rects
        .as_ref()
        .expect("join_grid has rectangle streams");
    let mut one = bench.cfg.clone();
    one.num_threads = 1;
    let mut swept = 0usize;
    let mut cells = 0usize;
    for pass in 0..PASSES as u64 {
        rec.span("bench.grid_passes", 0, ROOT, pass, |parent| {
            let plan = rec.span("partition.plan_partition", 0, parent, pass, |_| {
                plan_partition(PartitionInput::Rects(ra), PartitionInput::Rects(rb), &one)
            });
            cells = plan.grid.cells();
            // The run kernel alone, over every cell of the plan.
            swept = rec.span("geom.sweep_pairs_soa_runs", 0, parent, pass, |_| {
                let mut scratch = SweepScratch::default();
                let mut out: Vec<SweepPair> = Vec::new();
                let mut pairs = 0usize;
                for c in 0..cells {
                    let (lo_a, hi_a) = (plan.a.offsets[c] as usize, plan.a.offsets[c + 1] as usize);
                    let (lo_b, hi_b) = (plan.b.offsets[c] as usize, plan.b.offsets[c + 1] as usize);
                    out.clear();
                    sweep_pairs_soa_runs(
                        &plan.coords_a.run(lo_a, hi_a),
                        &plan.coords_b.run(lo_b, hi_b),
                        &mut scratch,
                        &mut out,
                    );
                    pairs += out.len();
                }
                pairs
            });
        });
    }
    let plan_ms = rec.self_ms_per_op("partition.", PASSES);
    let kernel_ms = rec.self_ms_per_op("geom.", PASSES);
    layers.set(
        "geom.sweep_runs_ns_per_pair",
        kernel_ms * 1e6 / swept as f64,
    );
    layers.set("partition.plan_ms", plan_ms);
    layers.set("partition.cells", cells as f64);
    layers.set(
        "partition.replication_ratio",
        last.replicated as f64 / (ra.len() + rb.len()) as f64,
    );
    layers.set(
        "partition.dedup_share",
        last.deduped as f64 / (last.candidates + last.deduped) as f64,
    );
    let ctl = RunControl::default();
    layers.set(
        "partition.tree_input_ms",
        median_ms(FEW_OPS, || {
            black_box(
                psj_core::try_run_partition_join(
                    PartitionInput::Tree(&bench.a),
                    PartitionInput::Tree(&bench.b),
                    &bench.cfg,
                    &ctl,
                )
                .ok(),
            );
        }),
    );
    let rtree_ms = median_ms(2 * FEW_OPS, || {
        black_box(try_run_join(&bench.a, &bench.b, &bench.cfg, &ctl).ok());
    });
    layers.set("partition.vs_rtree", op_ms_p50 / rtree_ms);
    plan_ms + kernel_ms
}
