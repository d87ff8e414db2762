//! Morsel planning — phase 1½ of the parallel join.
//!
//! Phase 1 ([`crate::task::create_tasks`]) produces tasks in local
//! plane-sweep order, but their costs are wildly skewed: a task near the
//! dense center of two maps can hold orders of magnitude more candidates
//! than one at the fringe, and a static split over *counts* of such tasks
//! loses the paper's speedup to stragglers. The planner therefore regroups
//! the task list into **morsels**: contiguous runs of tasks whose *estimated
//! candidate count* ([`CandidateEstimator`]) adds up to roughly one budget.
//! Oversized tasks are split one tree level at a time (their children stay
//! contiguous in plane-sweep order, so execution order — and therefore the
//! merged output order — is unchanged); undersized neighbors are packed
//! together so scheduling overhead stays amortized.
//!
//! Morsels are numbered in plane-sweep order. Both real-thread engines run
//! them on one runtime (`Driver::run_morsels`): T workers hand them out
//! through one shared cursor, in id order, and the driver merges the
//! worker-local outputs in morsel-id order (`MorselOutputs`), which makes
//! the parallel result byte-identical to the sequential oracle regardless
//! of which worker ran which morsel (see `DESIGN.md` §11). An engine
//! brings only its plan and its per-morsel body (`MorselBody`).

use crate::cancel::CancelToken;
use crate::cost::CandidateEstimator;
use crate::metrics::TaskTrace;
use crate::native::{JoinError, NativeError, NativeResult, RunControl};
use crate::partition::JoinEngine;
use crate::task::{expand_pair, KernelScratch, TaskPair};
use psj_buffer::BufferStats;
use psj_obs::trace::{cache_tid, worker_tid, TID_MAIN};
use psj_obs::{ThreadTracer, TraceSink};
use psj_rtree::{JoinNode, PagedTree};
use psj_store::{lock_clean, PageError};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One morsel: a contiguous run of tasks (in plane-sweep order) sized to
/// roughly one candidate budget.
#[derive(Debug, Clone)]
pub struct Morsel {
    /// Position in plane-sweep order; doubles as the merge key.
    pub id: u32,
    /// The tasks, in plane-sweep order. Never empty.
    pub tasks: Vec<TaskPair>,
    /// Estimated filter-step candidates (≥ 1).
    pub est: u64,
}

/// Planner tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct MorselOptions {
    /// Target estimated candidates per morsel; `0` = auto: the total
    /// estimate split into [`MORSELS_PER_WORKER`] morsels per worker,
    /// clamped to `[`[`AUTO_BUDGET_MIN`]`, `[`AUTO_BUDGET_MAX`]`]`.
    pub budget: u64,
    /// Workers the auto budget divides work over.
    pub workers: usize,
    /// How many tree levels an oversized task may be split down. `0`
    /// disables splitting (pure packing).
    pub max_split_levels: u8,
}

/// Auto-budget morsels per worker: enough slack for the shared cursor to
/// flatten skew, few enough that per-morsel overhead stays negligible.
pub const MORSELS_PER_WORKER: u64 = 16;
/// Auto-budget floor (estimated candidates).
pub const AUTO_BUDGET_MIN: u64 = 64;
/// Auto-budget ceiling (estimated candidates).
pub const AUTO_BUDGET_MAX: u64 = 65_536;
/// Default split depth for oversized tasks.
pub const MAX_SPLIT_LEVELS: u8 = 2;

/// The auto budget both planners use: `total_est` estimated candidates
/// split into [`MORSELS_PER_WORKER`] morsels per worker, clamped to
/// `[`[`AUTO_BUDGET_MIN`]`, `[`AUTO_BUDGET_MAX`]`]`.
pub(crate) fn auto_budget(total_est: f64, workers: usize) -> u64 {
    let per = total_est / (workers.max(1) as u64 * MORSELS_PER_WORKER) as f64;
    (per.round() as u64).clamp(AUTO_BUDGET_MIN, AUTO_BUDGET_MAX)
}

impl MorselOptions {
    /// Auto budget for `workers` workers, default split depth.
    pub fn new(workers: usize) -> Self {
        MorselOptions {
            budget: 0,
            workers: workers.max(1),
            max_split_levels: MAX_SPLIT_LEVELS,
        }
    }
}

/// Result of morsel planning.
#[derive(Debug, Clone)]
pub struct MorselPlan {
    /// The morsels, ids `0..n` in plane-sweep order.
    pub morsels: Vec<Morsel>,
    /// The budget actually used (resolved auto budget).
    pub budget: u64,
    /// Total estimated candidates over all phase-1 tasks (pre-split).
    pub total_est: u64,
    /// Node pairs expanded while splitting oversized tasks.
    pub split_expansions: u64,
}

/// A task is split when its estimate exceeds this multiple of the budget;
/// between 1× and 2× it is simply packed alone.
const SPLIT_FACTOR: f64 = 2.0;

/// Plans morsels for `tasks` (phase-1 output, plane-sweep order).
pub fn morselize(
    a: &PagedTree,
    b: &PagedTree,
    tasks: &[TaskPair],
    est: &CandidateEstimator,
    opts: &MorselOptions,
) -> MorselPlan {
    let rate = |t: &TaskPair| {
        let (na, nb) = (a.frame(t.a), b.frame(t.b));
        est.estimate(
            na.len(),
            t.la,
            &na.mbr(),
            nb.len(),
            t.lb,
            &nb.mbr(),
            &t.window,
        )
    };
    let rated: Vec<(TaskPair, f64)> = tasks.iter().map(|t| (*t, rate(t))).collect();
    let total: f64 = rated.iter().map(|(_, e)| e).sum();
    let budget = if opts.budget > 0 {
        opts.budget
    } else {
        auto_budget(total, opts.workers)
    };

    // Split pass: depth-first in order, so children replace their parent
    // in place and the unit stream stays in plane-sweep order.
    let split_threshold = budget as f64 * SPLIT_FACTOR;
    let mut units: Vec<(TaskPair, f64)> = Vec::with_capacity(rated.len());
    let mut stack: Vec<(TaskPair, f64, u8)> =
        rated.into_iter().rev().map(|(t, e)| (t, e, 0u8)).collect();
    let mut scratch = KernelScratch::default();
    let mut children: Vec<TaskPair> = Vec::new();
    let mut cands = Vec::new();
    let mut split_expansions = 0u64;
    while let Some((t, e, depth)) = stack.pop() {
        if e > split_threshold && t.level() > 0 && depth < opts.max_split_levels {
            children.clear();
            let (na, nb) = (a.frame(t.a), b.frame(t.b));
            expand_pair(&na, &nb, &t, &mut scratch, &mut children, &mut cands);
            split_expansions += 1;
            debug_assert!(
                cands.is_empty(),
                "split above leaf level yields no candidates"
            );
            for c in children.drain(..).rev() {
                let ce = rate(&c);
                stack.push((c, ce, depth + 1));
            }
        } else {
            units.push((t, e));
        }
    }

    // Pack pass: greedy contiguous next-fit. A morsel exceeds the budget
    // only when it holds exactly one (unsplittable or depth-limited) task.
    let mut morsels: Vec<Morsel> = Vec::new();
    let mut cur_tasks: Vec<TaskPair> = Vec::new();
    let mut cur_est = 0.0f64;
    let flush = |tasks: &mut Vec<TaskPair>, est: &mut f64, morsels: &mut Vec<Morsel>| {
        if !tasks.is_empty() {
            morsels.push(Morsel {
                id: morsels.len() as u32,
                tasks: std::mem::take(tasks),
                est: (est.round() as u64).max(1),
            });
            *est = 0.0;
        }
    };
    for (t, e) in units {
        if !cur_tasks.is_empty() && cur_est + e > budget as f64 {
            flush(&mut cur_tasks, &mut cur_est, &mut morsels);
        }
        cur_tasks.push(t);
        cur_est += e;
    }
    flush(&mut cur_tasks, &mut cur_est, &mut morsels);

    MorselPlan {
        morsels,
        budget,
        total_est: total.round() as u64,
        split_expansions,
    }
}

/// One worker's run output: its completed morsels' result pairs keyed by
/// morsel id, and its attribution traces.
type WorkerOutput = (Vec<(u32, Vec<(u64, u64)>)>, Vec<TaskTrace>);

/// The deterministic merge of both real-thread engines: every completed
/// morsel's output in its id slot. Concatenating the slots in id order
/// gives the single-threaded byte order whichever worker ran which morsel.
/// A morsel that ran twice or got lost is an executor bug, not a data
/// error, so either one panics.
struct MorselOutputs {
    slots: Vec<Option<Vec<(u64, u64)>>>,
}

impl MorselOutputs {
    /// Places every worker's outputs in the slots of a plan of `morsels`
    /// morsels, and collects the workers' traces.
    ///
    /// # Panics
    ///
    /// Panics if a morsel id appears twice.
    fn place(morsels: usize, workers: Vec<WorkerOutput>) -> (Self, Vec<TaskTrace>) {
        let mut slots = Vec::new();
        slots.resize_with(morsels, || None);
        let mut traces = Vec::with_capacity(morsels);
        for (outputs, mut t) in workers {
            for (id, out) in outputs {
                let slot = &mut slots[id as usize];
                assert!(slot.is_none(), "morsel {id} executed twice");
                *slot = Some(out);
            }
            traces.append(&mut t);
        }
        (MorselOutputs { slots }, traces)
    }

    /// Morsels whose output was placed.
    fn completed(&self) -> usize {
        self.slots.iter().filter(|s| s.is_some()).count()
    }

    /// The outputs concatenated in morsel-id order.
    ///
    /// # Panics
    ///
    /// Panics if a morsel's output is missing.
    fn concat(self) -> Vec<(u64, u64)> {
        let len = self.slots.iter().flatten().map(Vec::len).sum();
        let mut pairs = Vec::with_capacity(len);
        for (id, slot) in self.slots.into_iter().enumerate() {
            match slot {
                Some(mut out) => pairs.append(&mut out),
                None => panic!("morsel {id} lost"),
            }
        }
        pairs
    }
}

/// Cross-worker stop state of one run: the caller's cancel token, and the
/// abort flag the first unrecoverable page error raises, after which every
/// worker bails out at its next check. Contained morsel panics are
/// recorded here too, but deliberately do NOT raise `abort`: the point of
/// catching them is that the rest of the plan still runs.
#[derive(Default)]
pub(crate) struct FailState<'c> {
    cancel: Option<&'c CancelToken>,
    abort: AtomicBool,
    failed_tasks: AtomicU64,
    first_error: Mutex<Option<PageError>>,
    first_panic: Mutex<Option<String>>,
}

impl FailState<'_> {
    /// Whether the token fired or a worker aborted the run: a body checks
    /// this between its own steps and stops early when it holds.
    #[inline]
    pub(crate) fn stopped(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled) || self.abort.load(Ordering::Relaxed)
    }

    /// Records an unrecoverable page error and aborts the run.
    pub(crate) fn record(&self, error: PageError) {
        self.failed_tasks.fetch_add(1, Ordering::Relaxed);
        lock_clean(&self.first_error).get_or_insert(error);
        self.abort.store(true, Ordering::SeqCst);
    }

    fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        lock_clean(&self.first_panic).get_or_insert(msg);
    }
}

/// One worker's engine half of the morsel loop, built on its own thread.
pub(crate) trait MorselBody<M> {
    /// Runs `morsel`, appending its result pairs to `out` in the oracle's
    /// order and counting its work into `tt` (tasks, node pairs,
    /// candidates, read retries, replication, dedup). Returns `false` when it saw
    /// [`FailState::stopped`] mid-morsel: the partial output is then
    /// discarded and the worker retires.
    fn run(
        &mut self,
        morsel: &M,
        fail: &FailState<'_>,
        tt: &mut TaskTrace,
        out: &mut Vec<(u64, u64)>,
    ) -> bool;

    /// This worker's page-cache counters; `None` when it reads no cache,
    /// and a node pair then counts as its two node reads.
    fn stats(&self) -> Option<BufferStats> {
        None
    }
}

/// The driver of one real-thread join: its controls, its trace rows and
/// the `join` span, which it opens before the engine plans.
pub(crate) struct Driver<'c> {
    threads: usize,
    engine: JoinEngine,
    cancel: Option<&'c CancelToken>,
    trace: Option<&'c Arc<TraceSink>>,
    start_ns: Option<u64>,
}

impl<'c> Driver<'c> {
    /// Names the trace rows and opens the `join` span.
    pub(crate) fn start(threads: usize, engine: JoinEngine, ctl: &'c RunControl<'_>) -> Self {
        assert!(threads > 0, "need at least one thread");
        let trace = ctl.trace.as_ref();
        let start_ns = trace.map(|t| {
            t.set_thread_name(TID_MAIN, "join driver");
            for id in 0..threads {
                t.set_thread_name(worker_tid(id), format!("worker {id}"));
                if engine == JoinEngine::RTree {
                    t.set_thread_name(cache_tid(id), format!("cache (worker {id})"));
                }
            }
            t.now_ns()
        });
        Driver {
            threads,
            engine,
            cancel: ctl.cancel,
            trace,
            start_ns,
        }
    }

    /// The trace clock (`None` untraced), to open a driver-row span.
    pub(crate) fn now_ns(&self) -> Option<u64> {
        self.trace.map(|t| t.now_ns())
    }

    /// Closes the driver-row span `name` opened at `start`.
    pub(crate) fn span(
        &self,
        name: &'static str,
        start: Option<u64>,
        args: &[(&'static str, u64)],
    ) {
        if let (Some(t), Some(start)) = (self.trace, start) {
            t.span(TID_MAIN, name, "join", start, args);
        }
    }

    /// `Err(Cancelled)` once the caller's token has fired.
    pub(crate) fn check(&self) -> Result<(), NativeError> {
        match self.cancel {
            Some(t) if t.is_cancelled() => Err(NativeError::Cancelled),
            _ => Ok(()),
        }
    }

    /// Runs `morsels` (ids `0..n` in plan order) on the driver's workers,
    /// each built by `worker` on its thread, and merges their outputs in id
    /// order. `tasks` is the plan's unit count and `since` the start of
    /// [`NativeResult::elapsed`]; the caller adds its cache statistics.
    ///
    /// Every morsel runs under `catch_unwind`: a panic (a kernel bug, an
    /// injected fault) is contained to the morsel that hit it, and its
    /// worker keeps its thread and takes the next morsel. Shared structures
    /// stay usable across the unwind because every lock on a worker's path
    /// recovers from poisoning (`lock_clean`) and in-flight cache fills are
    /// cleaned up by a drop guard. The run then reports
    /// [`NativeError::WorkerPanic`], since a merge missing a morsel would
    /// be a silently wrong answer.
    pub(crate) fn run_morsels<M: Sync, W: MorselBody<M>>(
        self,
        morsels: &[M],
        tasks: usize,
        since: Instant,
        worker: impl Fn(usize) -> W + Sync,
    ) -> Result<NativeResult, NativeError> {
        let fail = FailState {
            cancel: self.cancel,
            ..FailState::default()
        };
        // The dispatcher: the id of the next morsel to hand out. `Relaxed`
        // suffices: each `fetch_add` returns a distinct id, and the cursor
        // publishes no data (the plan is immutable and visible to every
        // worker from its spawn).
        let next = AtomicUsize::new(0);
        let results: Vec<WorkerOutput> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..self.threads)
                .map(|id| {
                    let (driver, fail, next, worker) = (&self, &fail, &next, &worker);
                    let tracer = self.trace.map(|t| t.tracer(worker_tid(id)));
                    scope.spawn(move || {
                        driver.work(id, morsels, next, fail, &mut worker(id), tracer)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("a worker panicked outside its morsels"))
                .collect()
        });
        let elapsed = since.elapsed();
        let count = match self.engine {
            JoinEngine::RTree => "tasks",
            JoinEngine::Partition => "cells",
        };
        self.span(
            "join",
            self.start_ns,
            &[
                ("engine", self.engine as u64),
                (count, tasks as u64),
                ("morsels", morsels.len() as u64),
                ("threads", self.threads as u64),
            ],
        );

        if let Some(error) = lock_clean(&fail.first_error).take() {
            return Err(NativeError::Storage(JoinError {
                error,
                failed_tasks: fail.failed_tasks.load(Ordering::Relaxed),
            }));
        }
        // A token that fired mid-run means workers unwound early and the
        // result set may be partial; report cancellation instead.
        self.check()?;
        let (merged, task_traces) = MorselOutputs::place(morsels.len(), results);
        if let Some(message) = lock_clean(&fail.first_panic).take() {
            return Err(NativeError::WorkerPanic {
                message,
                completed_morsels: merged.completed(),
                morsels: morsels.len(),
            });
        }
        let sum = |f: fn(&TaskTrace) -> u64| -> u64 { task_traces.iter().map(f).sum() };
        Ok(NativeResult {
            pairs: merged.concat(),
            candidates: sum(|t| t.candidates),
            node_pairs: sum(|t| t.node_pairs),
            elapsed,
            tasks,
            morsels: morsels.len(),
            steals: 0,
            buffer: None,
            buffer_per_worker: Vec::new(),
            engine: self.engine,
            replicated: sum(|t| t.replicated),
            deduped: sum(|t| t.deduped),
            task_traces,
        })
    }

    /// One worker: takes morsels until the cursor passes the end or the
    /// run stops, recording one [`TaskTrace`] (and `task` span) per morsel
    /// it takes, a panicked one included.
    fn work<M, W: MorselBody<M>>(
        &self,
        id: usize,
        morsels: &[M],
        next: &AtomicUsize,
        fail: &FailState<'_>,
        body: &mut W,
        mut tracer: Option<ThreadTracer>,
    ) -> WorkerOutput {
        let (mut outputs, mut traces) = (Vec::new(), Vec::new());
        // The plan is fixed before workers start, so nothing can appear
        // after the cursor passes the end: the worker retires without a
        // termination barrier.
        while !fail.stopped() {
            let mid = next.fetch_add(1, Ordering::Relaxed);
            let Some(morsel) = morsels.get(mid) else {
                break;
            };
            let start = Instant::now();
            let start_ns = tracer.as_ref().map_or(0, ThreadTracer::now_ns);
            // Only this thread advances its own cache counters, so the
            // deltas between morsel boundaries are exact.
            let base = body.stats();
            let mut tt = TaskTrace {
                worker: id,
                morsel: mid as u32,
                engine: self.engine,
                ..TaskTrace::default()
            };
            let mut out = Vec::new();
            let done = catch_unwind(AssertUnwindSafe(|| {
                body.run(morsel, fail, &mut tt, &mut out)
            }));
            match (base, body.stats()) {
                (Some(base), Some(now)) => {
                    let delta = now.since(&base);
                    tt.pages = delta.requests();
                    tt.hits_local = delta.hits_local;
                    tt.hits_remote = delta.hits_remote;
                    tt.misses = delta.misses;
                }
                _ => tt.pages = 2 * tt.node_pairs,
            }
            tt.wall = start.elapsed();
            if let Some(tr) = tracer.as_mut() {
                let (w, m) = (id as u64, u64::from(tt.morsel));
                let args: &[(&str, u64)] = match self.engine {
                    JoinEngine::RTree => &[
                        ("worker", w),
                        ("morsel", m),
                        ("tasks", u64::from(tt.tasks)),
                        ("node_pairs", tt.node_pairs),
                        ("candidates", tt.candidates),
                        ("pages", tt.pages),
                        ("hits_local", tt.hits_local),
                        ("hits_remote", tt.hits_remote),
                        ("retries", tt.retries),
                    ],
                    JoinEngine::Partition => &[
                        ("worker", w),
                        ("morsel", m),
                        ("cells", u64::from(tt.tasks)),
                        ("candidates", tt.candidates),
                        ("replicated", tt.replicated),
                        ("deduped", tt.deduped),
                    ],
                };
                tr.span("task", "join", start_ns, args);
            }
            traces.push(tt);
            match done {
                Ok(true) => outputs.push((tt.morsel, out)),
                Ok(false) => break,
                // The morsel's output is lost (the driver reports a typed
                // error), but this worker keeps taking morsels.
                Err(payload) => fail.record_panic(payload.as_ref()),
            }
        }
        (outputs, traces)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psj_geom::Rect;
    use psj_rtree::RTree;

    fn grid_tree(n: usize, offset: f64) -> PagedTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 30) as f64 + offset;
            let y = (i / 30) as f64 + offset;
            t.insert(Rect::new(x, y, x + 1.1, y + 1.1), i as u64);
        }
        PagedTree::freeze(&t, |_| None)
    }

    fn plan(n: usize, budget: u64, split: u8) -> (PagedTree, PagedTree, MorselPlan) {
        let a = grid_tree(n, 0.0);
        let b = grid_tree(n, 0.4);
        let tc = crate::task::create_tasks(&a, &b, 8);
        let est = CandidateEstimator::new(&a, &b);
        let opts = MorselOptions {
            budget,
            workers: 4,
            max_split_levels: split,
        };
        let p = morselize(&a, &b, &tc.tasks, &est, &opts);
        (a, b, p)
    }

    #[test]
    fn morsels_cover_all_tasks_in_order_without_splitting() {
        let a = grid_tree(900, 0.0);
        let b = grid_tree(900, 0.4);
        let tc = crate::task::create_tasks(&a, &b, 8);
        let est = CandidateEstimator::new(&a, &b);
        let opts = MorselOptions {
            budget: 0,
            workers: 4,
            max_split_levels: 0,
        };
        let p = morselize(&a, &b, &tc.tasks, &est, &opts);
        let flat: Vec<_> = p
            .morsels
            .iter()
            .flat_map(|m| m.tasks.iter().map(TaskPair::key))
            .collect();
        let want: Vec<_> = tc.tasks.iter().map(TaskPair::key).collect();
        assert_eq!(flat, want, "packing must preserve order and coverage");
        for (i, m) in p.morsels.iter().enumerate() {
            assert_eq!(m.id as usize, i);
            assert!(!m.tasks.is_empty());
            assert!(m.est >= 1);
        }
    }

    #[test]
    fn over_budget_morsels_are_singletons() {
        let (_, _, p) = plan(2000, 32, 1);
        for m in &p.morsels {
            assert!(
                m.est <= p.budget || m.tasks.len() == 1,
                "over-budget morsel with {} tasks (est {} > budget {})",
                m.tasks.len(),
                m.est,
                p.budget
            );
        }
    }

    #[test]
    fn splitting_produces_more_finer_morsels() {
        // min_tasks = 1 keeps phase 1 at the root pair: the only way to get
        // parallelism is the planner's own split pass.
        let a = grid_tree(2000, 0.0);
        let b = grid_tree(2000, 0.4);
        let tc = crate::task::create_tasks(&a, &b, 1);
        assert!(
            tc.tasks.iter().any(|t| t.level() > 0),
            "coarse phase 1 must leave directory-level tasks"
        );
        let est = CandidateEstimator::new(&a, &b);
        let mk = |split| {
            let opts = MorselOptions {
                budget: 64,
                workers: 4,
                max_split_levels: split,
            };
            morselize(&a, &b, &tc.tasks, &est, &opts)
        };
        let coarse = mk(0);
        let fine = mk(2);
        assert!(
            fine.split_expansions > 0,
            "a tight budget must force splits"
        );
        assert!(fine.morsels.len() > coarse.morsels.len());
    }

    #[test]
    fn auto_budget_scales_with_workers() {
        let a = grid_tree(2000, 0.0);
        let b = grid_tree(2000, 0.4);
        let tc = crate::task::create_tasks(&a, &b, 8);
        let est = CandidateEstimator::new(&a, &b);
        let p1 = morselize(&a, &b, &tc.tasks, &est, &MorselOptions::new(1));
        let p8 = morselize(&a, &b, &tc.tasks, &est, &MorselOptions::new(8));
        assert!(p8.budget <= p1.budget, "more workers, finer morsels");
        assert!(p8.morsels.len() >= p1.morsels.len());
    }

    /// Morsel `id`'s output in the merge tests: two pairs tagged by id.
    fn out(id: u32) -> (u32, Vec<(u64, u64)>) {
        let id64 = u64::from(id);
        (id, vec![(id64, 0), (id64, 1)])
    }

    /// Per-worker outputs arrive in whatever order the workers took their
    /// morsels; the merge still concatenates them in id order.
    #[test]
    fn merge_concatenates_scrambled_outputs_in_id_order() {
        let workers = vec![
            (vec![out(4), out(1)], Vec::new()),
            (Vec::new(), Vec::new()),
            (vec![out(2), out(0), out(3)], Vec::new()),
        ];
        let (merged, traces) = MorselOutputs::place(5, workers);
        assert!(traces.is_empty());
        assert_eq!(merged.completed(), 5);
        let want: Vec<(u64, u64)> = (0..5u32).flat_map(|id| out(id).1).collect();
        assert_eq!(merged.concat(), want);
    }

    #[test]
    #[should_panic(expected = "morsel 1 executed twice")]
    fn merge_panics_on_a_morsel_executed_twice() {
        let workers = vec![
            (vec![out(0), out(1)], Vec::new()),
            (vec![out(1)], Vec::new()),
        ];
        MorselOutputs::place(2, workers);
    }

    #[test]
    #[should_panic(expected = "morsel 1 lost")]
    fn merge_panics_on_a_lost_morsel() {
        let workers = vec![(vec![out(2)], Vec::new()), (vec![out(0)], Vec::new())];
        let (merged, _) = MorselOutputs::place(3, workers);
        assert_eq!(merged.completed(), 2);
        merged.concat();
    }

    /// A body that outputs its morsel's number and panics on one of them.
    struct PanicOn(usize);

    impl MorselBody<usize> for PanicOn {
        fn run(
            &mut self,
            morsel: &usize,
            _: &FailState<'_>,
            tt: &mut TaskTrace,
            out: &mut Vec<(u64, u64)>,
        ) -> bool {
            tt.tasks = 1;
            assert_ne!(*morsel, self.0, "injected panic in morsel {morsel}");
            out.push((*morsel as u64, 0));
            true
        }
    }

    fn run_panicking(
        threads: usize,
        engine: JoinEngine,
        panic_on: usize,
    ) -> Result<NativeResult, NativeError> {
        let morsels: Vec<usize> = (0..12).collect();
        let ctl = RunControl::default();
        Driver::start(threads, engine, &ctl)
            .run_morsels(&morsels, 12, Instant::now(), |_| PanicOn(panic_on))
    }

    /// Both engines' workers contain a panicking morsel: the caller gets a
    /// typed error naming the one lost morsel, at any thread count.
    #[test]
    fn a_panicking_morsel_is_a_typed_error_at_every_thread_count() {
        for threads in [1, 2, 4] {
            for engine in [JoinEngine::RTree, JoinEngine::Partition] {
                match run_panicking(threads, engine, 5) {
                    Err(NativeError::WorkerPanic {
                        message,
                        completed_morsels,
                        morsels,
                    }) => {
                        assert!(message.contains("injected panic in morsel 5"), "{message}");
                        assert_eq!((completed_morsels, morsels), (11, 12), "T={threads}");
                    }
                    other => panic!("T={threads} {engine:?}: expected WorkerPanic, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn a_clean_run_merges_in_morsel_order_with_one_trace_each() {
        for threads in [1, 2, 4] {
            let res = run_panicking(threads, JoinEngine::Partition, usize::MAX).expect("no panic");
            let want: Vec<(u64, u64)> = (0..12).map(|m| (m, 0)).collect();
            assert_eq!(res.pairs, want, "T={threads}");
            assert_eq!(res.task_traces.len(), 12);
            assert!(res
                .task_traces
                .iter()
                .all(|t| t.engine == JoinEngine::Partition));
        }
    }

    #[test]
    fn empty_task_list_yields_empty_plan() {
        let a = grid_tree(50, 0.0);
        let b = grid_tree(50, 0.4);
        let est = CandidateEstimator::new(&a, &b);
        let p = morselize(&a, &b, &[], &est, &MorselOptions::new(4));
        assert!(p.morsels.is_empty());
        assert_eq!(p.total_est, 0);
    }
}
