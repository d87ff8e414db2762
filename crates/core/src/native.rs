//! Native multithreaded executor: the same three-phase parallel join run on
//! real OS threads, scheduled morsel-at-a-time.
//!
//! While [`crate::sim`] reproduces the paper's *evaluation* (virtual time,
//! KSR1 cost model), this executor is what a downstream user calls
//! ([`try_run_join`]) to actually join two indexed relations fast.
//! Execution is **morsel-driven** (see [`crate::morsel`]):
//! phase 1's tasks are regrouped into morsels of roughly equal *estimated
//! candidate count*, and the workers take them through one shared cursor,
//! in morsel-id order, until the cursor passes the end. That is the paper's
//! dynamic assignment (one shared queue, a task at a time); an idle worker
//! simply takes the next morsel, so there is no per-worker queue and
//! nothing to steal. A worker executes a morsel whole, keeping its task
//! descendants on a private stack, so the only shared step between morsels
//! is one atomic increment. The paper's static deals and its task
//! reassignment are reproduced in virtual time by [`crate::sim`], where the
//! figures measure them.
//!
//! Each worker appends its morsels' result pairs to a buffer of its own;
//! the driver concatenates them in morsel-id order (the runtime and
//! merge in [`crate::morsel`] both engines share), which makes the output
//! **byte-identical to the sequential oracle** ([`crate::seq`]) at every
//! thread count and under every schedule (morsels hold contiguous runs of
//! tasks in plane-sweep order, and the in-morsel traversal is the same
//! depth-first sweep order the oracle uses).
//!
//! # Out-of-core execution
//!
//! By default workers read tree nodes straight from the frozen in-memory
//! trees, as packed frames ([`PagedTree::frame`]): each tree keeps every
//! node's MBR lanes in one vector and its children or object ids in
//! another, so a node read is two subslices and no pointer chase. Setting
//! [`NativeConfig::buffer`] instead routes every node access through one
//! bounded, lock-sharded [`SharedPageCache`] of [`NodeFrame`]s shared by
//! all workers (the paper's global buffer): a miss copies the used prefix
//! of the node's serialized 4 KB page, laid out as the frame, into a fixed
//! cache slot, a hit reads the slot in place, and the cache never holds
//! more than the configured page budget. A page any worker loaded serves
//! everyone; hits on another worker's page are counted as *remote* hits,
//! the accesses the paper charges with the ~10× interconnect penalty. The
//! paper's local (per-processor) buffers are reproduced by the simulator
//! ([`crate::sim::BufferOrg`]).
//!
//! [`NativeResult::buffer`] reports the aggregate [`BufferStats`];
//! [`NativeResult::buffer_per_worker`] breaks them down by worker.
//!
//! # Faults and storage errors
//!
//! Node reads may be disturbed by an injected [`FaultPlan`] (see
//! [`RunControl::fault`]). A worker runs the plan on each node read, before
//! it reads the arena or asks the cache, under [`RunControl::retry`]:
//! transient failures are retried there and counted in
//! [`TaskTrace::retries`]; an unrecoverable failure (an injected
//! corruption, on every read of its page) aborts the join with
//! [`NativeError::Storage`] — a parallel join never silently drops a
//! subtree, so a storage error yields a typed error rather than a wrong
//! answer. A fault plan builds no cache: the unbuffered join reads the
//! arena after the check, as it does without one.

use crate::cancel::CancelToken;
use crate::cost::CandidateEstimator;
use crate::metrics::TaskTrace;
use crate::morsel::{morselize, Driver, FailState, Morsel, MorselBody, MorselOptions};
use crate::partition::JoinEngine;
use crate::task::{create_tasks, expand_pair, Candidate, KernelScratch, TaskPair};
use psj_buffer::{BufferStats, PageRef, PageSource, Policy, SharedPageCache};
use psj_geom::polyline::intersects;
use psj_obs::trace::{cache_tid, worker_tid};
use psj_obs::TraceSink;
use psj_rtree::{FrameRef, JoinNode, NodeFrame, PagedTree};
use psj_store::{FaultPlan, PageError, PageId, RetryPolicy};
use serde::{Deserialize, Serialize};
use std::mem::MaybeUninit;
use std::sync::Arc;
use std::time::Instant;

/// Buffered (out-of-core) execution settings for the native join: one
/// shared LRU page cache.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Total page budget, shared by all workers.
    pub capacity_pages: usize,
    /// Lock shards of the cache.
    pub shards: usize,
}

impl BufferConfig {
    /// A shared cache with the given page budget and 8 lock shards.
    pub fn global(capacity_pages: usize) -> Self {
        BufferConfig {
            capacity_pages,
            shards: 8,
        }
    }
}

/// Configuration of a native parallel join: the R-tree join
/// ([`try_run_join`]) reads every field, the grid join
/// ([`crate::try_run_partition_join`]) `num_threads` and `refine`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct NativeConfig {
    /// Number of worker threads; morsels are sized automatically for them.
    pub num_threads: usize,
    /// Phase 1 descends until at least `min_tasks_factor × num_threads`
    /// tasks exist.
    pub min_tasks_factor: usize,
    /// `true`: run the exact-geometry refinement step on every candidate
    /// (objects without stored geometry pass through). `false`: return the
    /// filter-step candidates.
    pub refine: bool,
    /// `Some`: run out-of-core, reading nodes through a bounded page cache
    /// with this configuration. `None`: read the frozen trees directly.
    /// The grid join ([`crate::try_run_partition_join`]) runs in memory and
    /// ignores it.
    pub buffer: Option<BufferConfig>,
}

impl NativeConfig {
    /// Unbuffered R-tree join with refinement — the recommended
    /// configuration when both trees fit in memory.
    pub fn new(num_threads: usize) -> Self {
        NativeConfig {
            num_threads,
            min_tasks_factor: 8,
            refine: true,
            buffer: None,
        }
    }

    /// The same, with node accesses routed through `buffer`.
    pub fn buffered(num_threads: usize, buffer: BufferConfig) -> Self {
        let mut cfg = NativeConfig::new(num_threads);
        cfg.buffer = Some(buffer);
        cfg
    }
}

/// Runtime controls of a single join run that don't belong in the
/// (serializable) [`NativeConfig`]: cancellation, fault injection, and the
/// storage retry policy.
#[derive(Default, Clone)]
pub struct RunControl<'c> {
    /// Cooperative cancellation token, checked once per node pair.
    pub cancel: Option<&'c CancelToken>,
    /// Deterministic fault plan the R-tree engine runs on every node read,
    /// buffered or not (with a cache, hits included); the grid engine
    /// reads no nodes and ignores it.
    pub fault: Option<Arc<FaultPlan>>,
    /// Retry policy for node reads the fault plan fails transiently.
    pub retry: RetryPolicy,
    /// Trace sink for structured tracing. When set, the run emits its
    /// planning spans and the `join` span on the driver row, one `task`
    /// span per morsel and a `page_retry` instant per retried node read on
    /// each worker row, and, with a cache, a `page_read` span per fill on
    /// the worker's cache row. When
    /// `None`, tracing costs one `Option` check per morsel boundary —
    /// per-morsel attribution itself is always collected.
    pub trace: Option<Arc<TraceSink>>,
}

impl<'c> RunControl<'c> {
    /// Adds a cancellation token.
    pub fn with_cancel(mut self, token: &'c CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Adds a fault plan.
    pub fn with_fault(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Sets the storage retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Attaches a trace sink.
    pub fn with_trace(mut self, trace: Arc<TraceSink>) -> Self {
        self.trace = Some(trace);
        self
    }
}

/// An unrecoverable storage failure that aborted a join.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinError {
    /// The first page error any worker hit (after retries).
    pub error: PageError,
    /// Tasks abandoned because their node fetch failed (workers that were
    /// mid-task when the abort flag went up also count theirs).
    pub failed_tasks: u64,
}

impl std::fmt::Display for JoinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "join aborted by storage error ({} failed tasks): {}",
            self.failed_tasks, self.error
        )
    }
}

impl std::error::Error for JoinError {}

/// Why a fallible native join did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum NativeError {
    /// The cancel token fired (deadline or explicit cancellation).
    Cancelled,
    /// A page could not be read even after retries.
    Storage(JoinError),
    /// A morsel panicked mid-execution. The panic was contained to that
    /// morsel: its worker caught the unwind, kept its thread, and went on
    /// to finish the rest of the plan — but the panicked morsel's output
    /// is missing, so no (silently incomplete) result is returned.
    WorkerPanic {
        /// The first panic's payload, stringified.
        message: String,
        /// Morsels whose output was produced and merged normally.
        completed_morsels: usize,
        /// Total morsels planned for the run.
        morsels: usize,
    },
}

impl std::fmt::Display for NativeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NativeError::Cancelled => write!(f, "join cancelled"),
            NativeError::Storage(e) => write!(f, "{e}"),
            NativeError::WorkerPanic {
                message,
                completed_morsels,
                morsels,
            } => write!(
                f,
                "join morsel panicked ({completed_morsels}/{morsels} morsels completed): {message}"
            ),
        }
    }
}

impl std::error::Error for NativeError {}

/// Result of a native parallel join.
#[derive(Debug, Clone)]
pub struct NativeResult {
    /// Joined `(oid_a, oid_b)` pairs: exact results when `refine` was set,
    /// filter-step candidates otherwise. Worker-local morsel outputs are
    /// merged in morsel-id order, so the sequence is *deterministic* and
    /// byte-identical to the sequential oracle at every thread count.
    pub pairs: Vec<(u64, u64)>,
    /// Number of filter-step candidates (before refinement).
    pub candidates: u64,
    /// Node pairs visited across all threads (morsel execution only;
    /// expansions performed while splitting oversized tasks in phase 1½
    /// are not included).
    pub node_pairs: u64,
    /// Wall-clock duration of the join as its engine times it: the R-tree
    /// engine's clock starts after task creation and morsel planning, the
    /// grid engine's before planning.
    pub elapsed: std::time::Duration,
    /// Number of tasks created in phase 1 (before morsel splitting).
    pub tasks: usize,
    /// Number of morsels planned in phase 1½. A completed run records
    /// exactly one [`TaskTrace`] per morsel.
    pub morsels: usize,
    /// Always 0: both engines take morsels from one shared cursor, so no
    /// worker ever steals one. The field remains only because `benchmark/`
    /// still reads it.
    pub steals: u64,
    /// Aggregate page-cache statistics (`None` when unbuffered).
    pub buffer: Option<BufferStats>,
    /// Per-worker page-cache statistics (empty when unbuffered).
    pub buffer_per_worker: Vec<BufferStats>,
    /// Per-morsel attribution: one entry per acquired morsel, recorded on
    /// every run. Order is unspecified (group by [`TaskTrace::morsel`]).
    pub task_traces: Vec<TaskTrace>,
    /// Engine that produced this result. Every [`TaskTrace`] in
    /// `task_traces` carries the same tag.
    pub engine: crate::partition::JoinEngine,
    /// Grid-replicated item placements (partition engine only; the sum of
    /// the traces' [`TaskTrace::replicated`] — 0 for the R-tree engine).
    pub replicated: u64,
    /// Cross-cell duplicate pairs suppressed by the reference-point test
    /// (partition engine only; sums the traces' [`TaskTrace::deduped`]).
    pub deduped: u64,
}

/// High bit of a [`PageId`] distinguishes tree B's pages from tree A's in
/// the shared cache's key space and the fault plan's.
const TREE_B_TAG: u32 = 1 << 31;

/// `e`, a failed node read keyed by a (tagged) page id, with its page
/// named as its tree's own: the tag stripped, and the tree named in the
/// context, so an error never cites a page id that exists in neither
/// file. Applied where a worker records the error, off the read path, so
/// a faulted read and a cached one report alike.
fn name_tree(e: PageError) -> PageError {
    match e.page() {
        Some(key) => {
            let tree = if key.0 & TREE_B_TAG != 0 { "B" } else { "A" };
            e.in_tree(PageId(key.0 & !TREE_B_TAG), tree)
        }
        None => e,
    }
}

/// A [`PageSource`] over both join inputs: a fill copies the node's words
/// from the owning tree's page arena into the cache's [`NodeFrame`] slot,
/// in place.
struct JoinSource<'t> {
    a: &'t PagedTree,
    b: &'t PagedTree,
}

impl<'t> JoinSource<'t> {
    /// The arena page behind a (tagged) page id.
    fn read(&self, page: PageId) -> FrameRef<'t> {
        if page.0 & TREE_B_TAG != 0 {
            self.b.frame(PageId(page.0 & !TREE_B_TAG))
        } else {
            self.a.frame(page)
        }
    }
}

impl PageSource for JoinSource<'_> {
    type Item = NodeFrame;

    fn fetch_page(&self, page: PageId) -> Result<NodeFrame, PageError> {
        Ok(NodeFrame::from_frame(self.read(page)))
    }

    fn page_count(&self) -> usize {
        self.a.num_pages() + self.b.num_pages()
    }

    fn fill_page<'s>(
        &self,
        page: PageId,
        slot: &'s mut MaybeUninit<NodeFrame>,
    ) -> Result<&'s mut NodeFrame, PageError> {
        Ok(NodeFrame::fill(self.read(page), slot))
    }
}

/// Where one worker reads its nodes: straight from the frozen trees' page
/// arenas, or through the shared cache in front of their pages (tagged
/// page ids keep both trees in one cache). [`Expand`] is monomorphised per
/// implementation, so the in-memory join reads [`FrameRef`]s with no
/// per-read dispatch.
trait Fetch<'t> {
    /// The node representation a read views.
    type Node: JoinNode;
    /// A node read, held while its pair is expanded and its candidates
    /// resolved.
    type Ref;

    fn node_a(&self, page: PageId) -> Result<Self::Ref, PageError>;

    fn node_b(&self, page: PageId) -> Result<Self::Ref, PageError>;

    /// The node a held read views.
    fn view(read: &Self::Ref) -> &Self::Node;

    /// This worker's buffer counters, `None` when unbuffered; morsel
    /// deltas taken from consecutive calls reconcile exactly with the run
    /// aggregates.
    fn stats(&self) -> Option<BufferStats> {
        None
    }
}

/// Direct access to the frozen in-memory trees' page arenas.
struct Direct<'t> {
    a: &'t PagedTree,
    b: &'t PagedTree,
}

impl<'t> Fetch<'t> for Direct<'t> {
    type Node = FrameRef<'t>;
    type Ref = FrameRef<'t>;

    #[inline]
    fn node_a(&self, page: PageId) -> Result<FrameRef<'t>, PageError> {
        Ok(self.a.frame(page))
    }

    #[inline]
    fn node_b(&self, page: PageId) -> Result<FrameRef<'t>, PageError> {
        Ok(self.b.frame(page))
    }

    #[inline]
    fn view<'r>(read: &'r FrameRef<'t>) -> &'r FrameRef<'t> {
        read
    }
}

/// Reads through a page cache of node frames.
struct Cached<'t> {
    source: JoinSource<'t>,
    cache: &'t SharedPageCache<NodeFrame>,
    /// This worker's id, its stats index in the cache.
    worker: usize,
}

impl<'t> Fetch<'t> for Cached<'t> {
    type Node = NodeFrame;
    type Ref = PageRef<'t, NodeFrame>;

    #[inline]
    fn node_a(&self, page: PageId) -> Result<PageRef<'t, NodeFrame>, PageError> {
        self.cache.try_get(self.worker, page, &self.source)
    }

    #[inline]
    fn node_b(&self, page: PageId) -> Result<PageRef<'t, NodeFrame>, PageError> {
        self.cache
            .try_get(self.worker, PageId(page.0 | TREE_B_TAG), &self.source)
    }

    #[inline]
    fn view<'r>(read: &'r PageRef<'t, NodeFrame>) -> &'r NodeFrame {
        read
    }

    fn stats(&self) -> Option<BufferStats> {
        Some(self.cache.stats(self.worker))
    }
}

/// The injected fault plan one worker runs before each of its node reads,
/// under the run's retry policy.
struct Faults<'t> {
    plan: &'t FaultPlan,
    retry: RetryPolicy,
    /// Gets a `page_retry` instant on the worker's row per retry.
    trace: Option<&'t TraceSink>,
    worker: usize,
}

impl Faults<'_> {
    /// Runs the plan on a read of `key` (a tagged page id) and adds its
    /// retries to `tt`; `Err` when the read failed for good. A retry's
    /// trace instant names the tree (0 for A, 1 for B) and its own page.
    fn check(&self, key: PageId, tt: &mut TaskTrace) -> Result<(), PageError> {
        let (checked, retries) = self.retry.run_observed(
            |_| self.plan.before_fetch(key),
            |attempt, _| {
                if let Some(t) = self.trace {
                    let args = [
                        ("tree", u64::from(key.0 & TREE_B_TAG != 0)),
                        ("page", u64::from(key.0 & !TREE_B_TAG)),
                        ("attempt", u64::from(attempt)),
                    ];
                    t.instant(worker_tid(self.worker), "page_retry", "storage", &args);
                }
            },
        );
        tt.retries += retries;
        checked
    }
}

/// One R-tree worker: its node reads and the kernel's reusable buffers.
struct Expand<'t, F> {
    a: &'t PagedTree,
    b: &'t PagedTree,
    refine: bool,
    fetch: F,
    /// `None` without a fault plan: a node read is then the fetch alone.
    faults: Option<Faults<'t>>,
    scratch: KernelScratch,
    children: Vec<TaskPair>,
    cands: Vec<Candidate>,
    /// Morsel-private DFS stack: task descendants never go back to the
    /// dispatcher, so no locking happens between morsel boundaries.
    stack: Vec<TaskPair>,
}

impl<'t, F: Fetch<'t>> Expand<'t, F> {
    fn new(
        a: &'t PagedTree,
        b: &'t PagedTree,
        refine: bool,
        fetch: F,
        faults: Option<Faults<'t>>,
    ) -> Self {
        Expand {
            a,
            b,
            refine,
            fetch,
            faults,
            scratch: KernelScratch::default(),
            children: Vec::new(),
            cands: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Reads a pair's two nodes, each after the fault plan (if any) passed
    /// its read; tree B's key carries [`TREE_B_TAG`], as in the cache.
    fn read_pair(
        &self,
        pair: &TaskPair,
        tt: &mut TaskTrace,
    ) -> Result<(F::Ref, F::Ref), PageError> {
        if let Some(f) = &self.faults {
            f.check(pair.a, tt)?;
        }
        let ra = self.fetch.node_a(pair.a)?;
        if let Some(f) = &self.faults {
            f.check(PageId(pair.b.0 | TREE_B_TAG), tt)?;
        }
        Ok((ra, self.fetch.node_b(pair.b)?))
    }
}

impl<'t, F: Fetch<'t>> MorselBody<Morsel> for Expand<'t, F> {
    /// Executes the morsel's tasks in plane-sweep order, each depth-first
    /// with children pushed in reverse — the sequential oracle's exact
    /// traversal, so `out` is byte-identical to the oracle's slice for
    /// this morsel.
    fn run(
        &mut self,
        morsel: &Morsel,
        fail: &FailState<'_>,
        tt: &mut TaskTrace,
        out: &mut Vec<(u64, u64)>,
    ) -> bool {
        tt.tasks = morsel.tasks.len() as u32;
        // A panicked morsel may have left descendants behind.
        self.stack.clear();
        self.stack.extend(morsel.tasks.iter().rev());
        while let Some(pair) = self.stack.pop() {
            if fail.stopped() {
                return false;
            }
            tt.node_pairs += 1;
            let (ra, rb) = match self.read_pair(&pair, tt) {
                Ok(v) => v,
                Err(e) => {
                    fail.record(name_tree(e));
                    return false;
                }
            };
            let (na, nb) = (F::view(&ra), F::view(&rb));
            self.children.clear();
            self.cands.clear();
            expand_pair(
                na,
                nb,
                &pair,
                &mut self.scratch,
                &mut self.children,
                &mut self.cands,
            );
            self.stack.extend(self.children.drain(..).rev());
            // Every candidate of this expansion lies in the pair just
            // swept (PAPER.md §1): resolve them from the two nodes in
            // hand, so a node pair costs exactly two page reads.
            tt.candidates += self.cands.len() as u64;
            for c in &self.cands {
                let (ia, ib) = (c.idx_a as usize, c.idx_b as usize);
                if self.refine {
                    // Refinement geometry lives in the cluster store,
                    // outside the page budget: the paper reads clusters
                    // once per data page and does not buffer them (§4.2).
                    let (ga, gb) = (na.geom(ia), nb.geom(ib));
                    let hit = match (
                        self.a.clusters().geometry(ga.page, ga.slot),
                        self.b.clusters().geometry(gb.page, gb.slot),
                    ) {
                        (Some(ga), Some(gb)) => intersects(ga, gb),
                        _ => true,
                    };
                    if !hit {
                        continue;
                    }
                }
                out.push((na.oid(ia), nb.oid(ib)));
            }
        }
        true
    }

    fn stats(&self) -> Option<BufferStats> {
        self.fetch.stats()
    }
}

/// Joins two trees with the paper's R-tree traversal, on real threads
/// under `ctl`: cancellation, fault injection, a storage retry policy and
/// tracing. The entry point of the CLI, the serving layer and the
/// benchmark for a tree × tree join; [`crate::try_run_partition_join`]
/// takes unindexed inputs. A fired token returns
/// [`NativeError::Cancelled`] and a panicked morsel
/// [`NativeError::WorkerPanic`].
///
/// A fault plan runs on each node read, so it changes nothing about where
/// nodes are read from: [`NativeResult::buffer`] is `Some` only when
/// `cfg.buffer` is. Transient faults are absorbed by retries and reported
/// in [`TaskTrace::retries`]; an unrecoverable page failure aborts all
/// workers and returns [`NativeError::Storage`].
pub fn try_run_join(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> Result<NativeResult, NativeError> {
    assert!(
        a.num_pages() < TREE_B_TAG as usize && b.num_pages() < TREE_B_TAG as usize,
        "page id tag bit collision"
    );
    let driver = Driver::start(cfg.num_threads, JoinEngine::RTree, ctl);
    let start = driver.now_ns();
    let tc = create_tasks(a, b, cfg.min_tasks_factor * cfg.num_threads);
    let tasks = tc.tasks.len();
    driver.span(
        "create_tasks",
        start,
        &[
            ("tasks", tasks as u64),
            ("pages_a", tc.pages_a.len() as u64),
            ("pages_b", tc.pages_b.len() as u64),
        ],
    );
    driver.check()?;

    // Phase 1½: regroup the task list into morsels sized by estimated
    // candidate counts (split oversized tasks, pack undersized neighbors).
    let start = driver.now_ns();
    let estimator = CandidateEstimator::new(a, b);
    let opts = MorselOptions::new(cfg.num_threads);
    let plan = morselize(a, b, &tc.tasks, &estimator, &opts);
    driver.span(
        "morselize",
        start,
        &[
            ("morsels", plan.morsels.len() as u64),
            ("budget", plan.budget),
            ("total_est", plan.total_est),
            ("split_expansions", plan.split_expansions),
        ],
    );

    let faults = |worker| {
        let fault = ctl.fault.as_deref().filter(|p| !p.is_noop());
        fault.map(|plan| Faults {
            plan,
            retry: ctl.retry,
            trace: ctl.trace.as_deref(),
            worker,
        })
    };
    let cache = cfg.buffer.as_ref().map(|buf| {
        let cache = SharedPageCache::new(
            cfg.num_threads,
            buf.capacity_pages,
            buf.shards.max(1),
            Policy::Lru,
        );
        match &ctl.trace {
            Some(t) => {
                for id in 0..cfg.num_threads {
                    t.set_thread_name(cache_tid(id), format!("cache (worker {id})"));
                }
                cache.with_trace(Arc::clone(t))
            }
            None => cache,
        }
    });
    let since = Instant::now();
    let mut res = match &cache {
        None => driver.run_morsels(&plan.morsels, tasks, since, |worker| {
            Expand::new(a, b, cfg.refine, Direct { a, b }, faults(worker))
        }),
        Some(cache) => driver.run_morsels(&plan.morsels, tasks, since, |worker| {
            let source = JoinSource { a, b };
            let fetch = Cached {
                source,
                cache,
                worker,
            };
            Expand::new(a, b, cfg.refine, fetch, faults(worker))
        }),
    }?;
    if let Some(cache) = &cache {
        res.buffer = Some(cache.total_stats());
        res.buffer_per_worker = cache.per_worker_stats();
    }
    Ok(res)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq::{join_candidates, join_refined};
    use psj_geom::{Point, Polyline, Rect};
    use psj_rtree::RTree;
    use std::collections::BTreeSet;

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

    fn as_set(v: &[(u64, u64)]) -> BTreeSet<(u64, u64)> {
        v.iter().copied().collect()
    }

    fn join(a: &PagedTree, b: &PagedTree, cfg: &NativeConfig) -> NativeResult {
        try_run_join(a, b, cfg, &RunControl::default()).expect("in-memory join")
    }

    fn join_until(
        a: &PagedTree,
        b: &PagedTree,
        token: &CancelToken,
    ) -> Result<NativeResult, NativeError> {
        let ctl = RunControl::default().with_cancel(token);
        try_run_join(a, b, &NativeConfig::new(4), &ctl)
    }

    /// The filter step on `threads` workers through a cache the test
    /// owns, so it can run joins over a warm cache and read its snapshot;
    /// the result's buffer stats are this run's.
    fn join_through(
        a: &PagedTree,
        b: &PagedTree,
        threads: usize,
        cache: &SharedPageCache<NodeFrame>,
    ) -> NativeResult {
        let tc = create_tasks(a, b, 8 * threads);
        let est = CandidateEstimator::new(a, b);
        let plan = morselize(a, b, &tc.tasks, &est, &MorselOptions::new(threads));
        let before = cache.per_worker_stats();
        let ctl = RunControl::default();
        let driver = Driver::start(threads, JoinEngine::RTree, &ctl);
        let mut res = driver
            .run_morsels(&plan.morsels, tc.tasks.len(), Instant::now(), |worker| {
                let source = JoinSource { a, b };
                let fetch = Cached {
                    source,
                    cache,
                    worker,
                };
                Expand::new(a, b, false, fetch, None)
            })
            .expect("in-memory join");
        res.buffer_per_worker = cache
            .per_worker_stats()
            .iter()
            .zip(&before)
            .map(|(now, then)| now.since(then))
            .collect();
        res.buffer = Some(
            res.buffer_per_worker
                .iter()
                .fold(BufferStats::default(), |acc, s| acc.merged(s)),
        );
        res
    }

    /// A lenient load's poisoned page is an empty leaf to the in-memory
    /// join's frame and to the cached join's fill alike.
    #[test]
    fn a_poisoned_page_fills_as_an_empty_leaf() {
        let src = tree(600, 0.0);
        let leaf = (0..src.num_pages() as u32)
            .rev()
            .map(PageId)
            .find(|&p| src.frame(p).is_leaf())
            .expect("a leaf");
        let path = std::env::temp_dir().join(format!("psj-native-poison-{}", std::process::id()));
        src.save_to(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[30 + leaf.index() * psj_store::PAGE_RECORD_SIZE + 100] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = PagedTree::load_from_lenient(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let a = &loaded.tree;
        assert!(a.is_poisoned(leaf));
        let frame = a.frame(leaf);
        assert!(frame.is_leaf() && frame.is_empty() && frame.level() == 0);

        let source = JoinSource { a, b: &src };
        let mut slot = MaybeUninit::new(NodeFrame::from_frame(src.frame(PageId(0))));
        let filled = source.fill_page(leaf, &mut slot).unwrap();
        assert!(filled.is_leaf() && filled.is_empty() && filled.level() == 0);
        let fetched = source.fetch_page(leaf).unwrap();
        assert!(fetched.is_leaf() && fetched.is_empty());
        // Tree B's copy of the same page is intact.
        let intact = source.fetch_page(PageId(leaf.0 | TREE_B_TAG)).unwrap();
        assert_eq!(intact.ids(), src.frame(leaf).ids());
    }

    #[test]
    fn filter_step_matches_sequential() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let want = as_set(&join_candidates(&a, &b).candidates);
        for threads in [1, 2, 4, 8] {
            let mut cfg = NativeConfig::new(threads);
            cfg.refine = false;
            let res = join(&a, &b, &cfg);
            assert_eq!(as_set(&res.pairs), want, "{threads} threads");
            assert_eq!(res.candidates as usize, res.pairs.len());
            assert!(res.buffer.is_none());
        }
    }

    #[test]
    fn refined_matches_sequential_refined() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let want = as_set(&join_refined(&a, &b));
        let res = join(&a, &b, &NativeConfig::new(4));
        assert_eq!(as_set(&res.pairs), want);
        assert!(res.pairs.len() <= res.candidates as usize);
    }

    #[test]
    fn empty_join_terminates() {
        let a = tree(50, 0.0);
        let b = tree(50, 10_000.0);
        let res = join(&a, &b, &NativeConfig::new(4));
        assert!(res.pairs.is_empty());
        assert_eq!(res.tasks, 0);
    }

    #[test]
    fn buffered_global_matches_unbuffered() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let want = as_set(&join_candidates(&a, &b).candidates);
        let total_pages = a.num_pages() + b.num_pages();
        // From comfortable to badly thrashing.
        for capacity in [total_pages * 2, total_pages / 2, 4] {
            let mut cfg = NativeConfig::buffered(4, BufferConfig::global(capacity));
            cfg.refine = false;
            let res = join(&a, &b, &cfg);
            assert_eq!(as_set(&res.pairs), want, "capacity {capacity}");
            let stats = res.buffer.expect("buffered run reports stats");
            assert!(stats.requests() > 0);
            assert!(stats.misses > 0);
            assert_eq!(res.buffer_per_worker.len(), 4);
        }
    }

    #[test]
    fn warm_external_cache_has_zero_misses_on_second_join() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let total_pages = a.num_pages() + b.num_pages();
        let cache: SharedPageCache<NodeFrame> =
            SharedPageCache::new(4, total_pages * 2, 8, Policy::Lru);
        let cold = join_through(&a, &b, 4, &cache);
        let warm = join_through(&a, &b, 4, &cache);
        assert_eq!(as_set(&cold.pairs), as_set(&warm.pairs));
        assert!(cold.buffer.unwrap().misses > 0, "first run faults pages in");
        let warm_stats = warm.buffer.unwrap();
        assert_eq!(
            warm_stats.misses, 0,
            "warm cache serves everything: {warm_stats:?}"
        );
        assert!(warm_stats.requests() > 0);
    }

    /// A page one worker faulted in is a remote hit for every other worker.
    /// Warming the cache at one thread makes worker 0 the owner of every
    /// page the join reads, so the split holds under any schedule — even
    /// one where worker 1 takes no morsel at all.
    #[test]
    fn global_buffer_sees_remote_hits() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let total_pages = a.num_pages() + b.num_pages();
        let cache: SharedPageCache<NodeFrame> =
            SharedPageCache::new(2, total_pages * 2, 8, Policy::Lru);
        let cold = join_through(&a, &b, 1, &cache);
        assert!(
            cold.buffer.unwrap().misses > 0,
            "one worker fills the cache"
        );
        let warm = join_through(&a, &b, 2, &cache);
        assert_eq!(as_set(&warm.pairs), as_set(&cold.pairs));
        let (w0, w1) = (&warm.buffer_per_worker[0], &warm.buffer_per_worker[1]);
        assert_eq!(w1.hits_local, 0, "worker 1 owns no page: {w1:?}");
        assert_eq!(w1.misses, 0, "the warm cache holds every page: {w1:?}");
        assert_eq!(w1.hits_remote, w1.requests(), "{w1:?}");
        assert_eq!(w0.hits_remote, 0, "worker 0 owns every page: {w0:?}");
        assert!(warm.buffer.unwrap().requests() > 0);
    }

    /// A join holds at most two pins per worker (the node pair in hand),
    /// and a worker filling a page holds at most one pin plus the slot it
    /// fills. So whenever every shard has more than `2 × threads` slots
    /// some slot is always free or unpinned, and no page is ever served
    /// unbuffered; the cache's snapshot counts unbuffered fills.
    #[test]
    fn join_configs_with_roomy_shards_never_serve_unbuffered() {
        let a = tree(900, 0.0);
        let b = tree(900, 0.5);
        let shards = 4;
        for capacity in [(a.num_pages() + b.num_pages()) * 2, 8, 64] {
            for threads in [1, 2, 4] {
                let cache: SharedPageCache<NodeFrame> =
                    SharedPageCache::new(threads, capacity, shards, Policy::Lru);
                let res = join_through(&a, &b, threads, &cache);
                let at = format!("{capacity}/T={threads}");
                let total = res.buffer.unwrap();
                assert_eq!(total.requests(), 2 * res.node_pairs, "{at}");
                let unbuffered = cache.unbuffered();
                assert!(
                    unbuffered <= total.misses,
                    "{at}: unbuffered fills are misses"
                );
                if capacity / shards > 2 * threads {
                    assert_eq!(unbuffered, 0, "{at}: {total:?}");
                }
            }
        }
    }

    #[test]
    fn cancelled_token_aborts_join() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let token = CancelToken::new();
        token.cancel();
        let res = join_until(&a, &b, &token);
        assert_eq!(res.err(), Some(NativeError::Cancelled));
    }

    #[test]
    fn expired_deadline_aborts_join() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let token = CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let res = join_until(&a, &b, &token);
        assert_eq!(res.err(), Some(NativeError::Cancelled));
    }

    #[test]
    fn live_token_join_matches_uncancelled() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let want = as_set(&join_refined(&a, &b));
        let token = CancelToken::with_deadline(
            std::time::Instant::now() + std::time::Duration::from_secs(600),
        );
        let res = join_until(&a, &b, &token).expect("far deadline never fires");
        assert_eq!(as_set(&res.pairs), want);
    }

    #[test]
    fn transient_faults_are_absorbed_by_retries() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let want = as_set(&join_refined(&a, &b));
        let plan = Arc::new(FaultPlan::new(7).with_transient(0.3, 2));
        let ctl = RunControl::default()
            .with_fault(plan.clone())
            .with_retry(RetryPolicy::attempts(4));
        let res = try_run_join(&a, &b, &NativeConfig::new(4), &ctl)
            .expect("transient faults must be retried away");
        assert_eq!(as_set(&res.pairs), want);
        assert!(res.buffer.is_none(), "a fault plan builds no cache");
        assert!(plan.transient_injected() > 0, "plan injected nothing");
        let retries: u64 = res.task_traces.iter().map(|t| t.retries).sum();
        assert_eq!(
            retries,
            plan.transient_injected(),
            "every injected transient shows up as exactly one retry"
        );
    }

    /// A traced retry names its tree and that tree's own page, never the
    /// tagged key tree B's reads are faulted under.
    #[test]
    fn traced_retries_name_the_trees_own_page() {
        let a = tree(600, 0.0);
        let b = tree(300, 0.4);
        let plan = Arc::new(FaultPlan::new(7).with_transient(0.3, 2));
        let sink = psj_obs::TraceSink::new(1 << 20);
        let ctl = RunControl::default()
            .with_fault(plan.clone())
            .with_retry(RetryPolicy::attempts(4))
            .with_trace(Arc::clone(&sink));
        try_run_join(&a, &b, &NativeConfig::new(2), &ctl).expect("retried away");
        let mut buf = Vec::new();
        sink.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let arg = |line: &str, key: &str| -> u64 {
            let at = line.find(&format!("\"{key}\":")).expect(key) + key.len() + 3;
            let digits = line[at..].split(|c: char| !c.is_ascii_digit()).next();
            digits.unwrap().parse().unwrap()
        };
        let mut per_tree = [0u64; 2];
        for line in text.lines().filter(|l| l.contains("\"page_retry\"")) {
            let tree = arg(line, "tree") as usize;
            let pages = [a.num_pages(), b.num_pages()][tree];
            assert!((arg(line, "page") as usize) < pages, "{line}");
            per_tree[tree] += 1;
        }
        assert_eq!(per_tree.iter().sum::<u64>(), plan.transient_injected());
        assert!(per_tree[1] > 0, "tree B's reads were retried too");
    }

    #[test]
    fn unrecoverable_faults_abort_with_typed_error() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let plan = Arc::new(FaultPlan::new(11).with_flip(1.0));
        let ctl = RunControl::default().with_fault(plan);
        let err = try_run_join(&a, &b, &NativeConfig::new(4), &ctl)
            .expect_err("every page corrupt: join must fail");
        match err {
            NativeError::Storage(e) => {
                assert!(e.error.is_corrupt(), "expected corruption: {}", e.error);
                assert!(e.failed_tasks >= 1);
            }
            other => panic!("expected a storage error, got {other}"),
        }
    }

    /// A storage error names the page by its own tree's id, below that
    /// tree's page count, and names the tree — buffered or not, whichever
    /// tree's read failed.
    #[test]
    fn storage_errors_name_the_trees_own_page() {
        let a = tree(150, 0.0);
        let b = tree(150, 0.4);
        let keys = |t: &PagedTree, tag: u32| {
            (0..t.num_pages() as u32)
                .map(move |p| PageId(p | tag))
                .collect::<Vec<_>>()
        };
        // A plan that corrupts every page of tree B and none of tree A's.
        let only_b = (0..1u64 << 20)
            .map(|seed| FaultPlan::new(seed).with_flip(0.5))
            .find(|plan| {
                keys(&a, 0)
                    .iter()
                    .all(|&k| plan.permanent_class(k).is_none())
                    && keys(&b, TREE_B_TAG)
                        .iter()
                        .all(|&k| plan.permanent_class(k).is_some())
            })
            .expect("a seed that flips exactly tree B's pages");
        let only_b = Arc::new(only_b);
        let every_page = Arc::new(FaultPlan::new(3).with_flip(1.0));
        let cases = [(&only_b, "(tree B)", &b), (&every_page, "(tree A)", &a)];
        for (plan, tree_name, faulted) in cases {
            for cfg in [
                NativeConfig::new(1),
                NativeConfig::buffered(1, BufferConfig::global(64)),
            ] {
                let ctl = RunControl::default().with_fault(Arc::clone(plan));
                let err = try_run_join(&a, &b, &cfg, &ctl).expect_err("corrupt pages");
                let NativeError::Storage(e) = err else {
                    panic!("expected a storage error, got {err}");
                };
                let page = e.error.page().expect("a corrupt read names its page");
                assert!(page.index() < faulted.num_pages(), "{}", e.error);
                assert!(e.error.to_string().contains(tree_name), "{}", e.error);
            }
        }
    }

    /// Only a run with a page cache names the workers' cache rows.
    #[test]
    fn traced_runs_name_cache_rows_only_with_a_cache() {
        let a = tree(300, 0.0);
        let b = tree(300, 0.4);
        for (cfg, cached) in [
            (NativeConfig::new(2), false),
            (NativeConfig::buffered(2, BufferConfig::global(64)), true),
        ] {
            let sink = psj_obs::TraceSink::new(1 << 20);
            let ctl = RunControl::default().with_trace(Arc::clone(&sink));
            try_run_join(&a, &b, &cfg, &ctl).unwrap();
            let mut buf = Vec::new();
            sink.write_jsonl(&mut buf).unwrap();
            let text = String::from_utf8(buf).unwrap();
            psj_obs::validate_jsonl(&text).expect("trace must validate");
            let rows = text
                .lines()
                .filter(|l| l.contains("\"ph\":\"M\"") && l.contains("cache (worker"))
                .count();
            assert_eq!(rows, if cached { 2 } else { 0 }, "cached: {cached}");
            assert!(text.contains("worker 1"), "worker rows are always named");
        }
    }

    /// A panic inside one morsel (here: an injected one-shot panic on a
    /// node read) must not take down the run's other morsels: the hit
    /// worker catches the unwind and keeps taking morsels, the fault
    /// plan's poison-recovering lock keeps the other workers unblocked,
    /// and the driver reports a typed error instead of merging a silently
    /// incomplete result.
    #[test]
    fn worker_panic_is_contained_and_other_morsels_complete() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        // Page 0 is the root, which only the (unfaulted) phase-1 descent
        // reads; the last page is the rightmost leaf, which some morsel is
        // certain to read.
        let last_leaf = (a.num_pages() - 1) as u32;
        let plan = Arc::new(FaultPlan::new(5).with_panic_page(last_leaf));
        let ctl = RunControl::default().with_fault(plan);
        let err = try_run_join(&a, &b, &NativeConfig::new(4), &ctl)
            .expect_err("a panicked morsel cannot yield a full result");
        match err {
            NativeError::WorkerPanic {
                message,
                completed_morsels,
                morsels,
            } => {
                assert!(message.contains("injected panic"), "message: {message}");
                assert!(morsels > 1, "plan must have several morsels to contain");
                assert_eq!(
                    completed_morsels,
                    morsels - 1,
                    "exactly the panicked morsel is lost; the rest complete"
                );
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }

    #[test]
    fn fault_free_control_matches_plain_join() {
        let a = tree(400, 0.0);
        let b = tree(400, 0.4);
        let want = as_set(&join_refined(&a, &b));
        let res = try_run_join(&a, &b, &NativeConfig::new(2), &RunControl::default())
            .expect("no faults, no cancel");
        assert_eq!(as_set(&res.pairs), want);
        assert!(res.buffer.is_none(), "no buffer config: no cache");
    }

    #[test]
    fn task_traces_reconcile_with_run_aggregates() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let mut cfg = NativeConfig::buffered(4, BufferConfig::global(64));
        cfg.refine = false;
        let res = try_run_join(&a, &b, &cfg, &RunControl::default()).unwrap();
        assert!(res.tasks > 0);
        assert!(res.morsels > 0);
        assert_eq!(
            res.task_traces.len(),
            res.morsels,
            "exactly one trace per morsel"
        );
        let task_sum: u64 = res.task_traces.iter().map(|t| u64::from(t.tasks)).sum();
        assert!(
            task_sum as usize >= res.tasks,
            "morsels cover every phase-1 task ({task_sum} vs {})",
            res.tasks
        );
        assert_eq!(res.steals, 0, "the shared cursor never steals");
        let cands: u64 = res.task_traces.iter().map(|t| t.candidates).sum();
        assert_eq!(cands, res.candidates, "candidates attribute fully");
        let stats = res.buffer.expect("buffered run");
        let pages: u64 = res.task_traces.iter().map(|t| t.pages).sum();
        assert_eq!(pages, stats.requests(), "page requests attribute fully");
        let hits: u64 = res
            .task_traces
            .iter()
            .map(|t| t.hits_local + t.hits_remote)
            .sum();
        assert_eq!(hits, stats.hits_local + stats.hits_remote);
        let misses: u64 = res.task_traces.iter().map(|t| t.misses).sum();
        assert_eq!(misses, stats.misses);
    }

    #[test]
    fn traced_join_emits_one_span_per_task_and_validates() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let mut cfg = NativeConfig::buffered(3, BufferConfig::global(64));
        cfg.refine = false;
        let sink = psj_obs::TraceSink::new(1 << 20);
        let ctl = RunControl::default().with_trace(Arc::clone(&sink));
        let res = try_run_join(&a, &b, &cfg, &ctl).unwrap();
        assert!(res.tasks > 0);
        let mut buf = Vec::new();
        sink.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let summary = psj_obs::validate_jsonl(&text).expect("trace must validate");
        assert!(summary.spans > 0);
        let task_spans = text
            .lines()
            .filter(|l| l.contains("\"name\":\"task\""))
            .count();
        assert_eq!(
            task_spans, res.morsels,
            "{} task spans for {} morsels",
            task_spans, res.morsels
        );
        assert_eq!(task_spans, res.task_traces.len());
        assert_eq!(sink.dropped(), 0);
    }

    /// The tentpole guarantee: at every thread count the merged output is
    /// *byte-identical* (same pairs, same order) to the sequential oracle —
    /// not merely set-equal.
    #[test]
    fn pair_output_is_byte_identical_to_sequential_oracle() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let want = join_refined(&a, &b);
        for threads in [1, 2, 4, 8] {
            let res = join(&a, &b, &NativeConfig::new(threads));
            assert_eq!(res.pairs, want, "byte order diverged: {threads} threads");
        }
    }
}
