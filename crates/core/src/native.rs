//! Native multithreaded executor: the same three-phase parallel join run on
//! real OS threads, scheduled morsel-at-a-time.
//!
//! While [`crate::sim`] reproduces the paper's *evaluation* (virtual time,
//! KSR1 cost model), this executor is what a downstream user calls to
//! actually join two indexed relations fast. Execution is **morsel-driven**
//! (see [`crate::morsel`]): phase 1's tasks are regrouped into morsels of
//! roughly equal *estimated candidate count*, and the workers take them
//! through one shared cursor, in morsel-id order, until the cursor passes
//! the end. That is the paper's dynamic assignment (one shared queue, a
//! task at a time); an idle worker simply takes the next morsel, so there
//! is no per-worker queue and nothing to steal. A worker executes a morsel
//! whole, keeping its task descendants on a private stack, so the only
//! shared step between morsels is one atomic increment. The paper's static
//! deals and its task reassignment are reproduced in virtual time by
//! [`crate::sim`], where the figures measure them.
//!
//! Each morsel's result pairs go to a morsel-local output buffer; the
//! driver concatenates the buffers in morsel-id order (the merge in
//! [`crate::morsel`] both engines share), which makes the output
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
//! [`NativeConfig::buffer`] instead routes every node access
//! through a bounded [`SharedPageCache`] of [`NodeFrame`]s: a miss
//! copies the used prefix of the node's serialized 4 KB page, laid out as
//! the frame, into a fixed cache slot, a hit reads the slot in place, and the cache never holds more than the
//! configured page budget. This reproduces the paper's local/global buffer
//! dimension on real threads:
//!
//! * [`BufferOrg::Local`] — each worker gets a private cache with
//!   `capacity / num_threads` pages. Workers never see each other's pages,
//!   so a page hot on two workers is decoded twice (the paper's
//!   shared-nothing organization).
//! * [`BufferOrg::Global`] — one lock-sharded cache with the full budget is
//!   shared by all workers. A page any worker loaded serves everyone;
//!   hits on another worker's page are counted as *remote* hits, the
//!   accesses the paper charges with the ~10× interconnect penalty.
//!
//! [`NativeResult::buffer`] reports the aggregate [`BufferStats`];
//! [`NativeResult::buffer_per_worker`] breaks them down by worker.
//!
//! # Faults and storage errors
//!
//! [`try_run_native_join`] is the fallible entry point: page fetches may be
//! disturbed by an injected [`FaultPlan`] (see [`RunControl::fault`]) or, in
//! a real deployment, fail outright. Transient failures are retried inside
//! the cache per [`RunControl::retry`] and show up only as
//! [`BufferStats::retries`]; unrecoverable failures (checksum corruption,
//! quarantined pages) abort the join with [`NativeError::Storage`] — a
//! parallel join never silently drops a subtree, so a storage error yields
//! a typed error rather than a wrong answer.

use crate::cancel::{CancelToken, Cancelled};
use crate::cost::CandidateEstimator;
use crate::metrics::TaskTrace;
use crate::morsel::{morselize, Morsel, MorselOptions, MorselOutputs, WorkerOutput};
use crate::sim::BufferOrg;
use crate::task::{create_tasks, expand_pair, Candidate, KernelScratch, TaskPair};
use psj_buffer::{BufferStats, PageRef, PageSource, Policy, SharedPageCache};
use psj_geom::polyline::intersects;
use psj_obs::trace::{worker_tid, TID_MAIN};
use psj_obs::{ThreadTracer, TraceSink};
use psj_rtree::{FrameRef, JoinNode, NodeFrame, PagedTree};
use psj_store::{lock_clean, FaultPlan, PageError, PageId, RetryPolicy};
use serde::{Deserialize, Serialize};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Buffered (out-of-core) execution settings for the native join.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BufferConfig {
    /// Buffer organization: private per-worker caches or one shared cache.
    pub org: BufferOrg,
    /// Total page budget across all workers. Under [`BufferOrg::Local`]
    /// each worker gets `capacity_pages / num_threads` (at least 1).
    pub capacity_pages: usize,
    /// Lock shards of the global cache (ignored for the local
    /// organization, whose per-worker caches are uncontended).
    pub shards: usize,
    /// Page replacement policy.
    pub policy: Policy,
}

impl BufferConfig {
    /// A global (shared) cache with the given page budget, LRU replacement,
    /// and 8 lock shards.
    pub fn global(capacity_pages: usize) -> Self {
        BufferConfig {
            org: BufferOrg::Global,
            capacity_pages,
            shards: 8,
            policy: Policy::Lru,
        }
    }

    /// Private per-worker caches splitting the given total page budget,
    /// LRU replacement.
    pub fn local(capacity_pages: usize) -> Self {
        BufferConfig {
            org: BufferOrg::Local,
            capacity_pages,
            shards: 1,
            policy: Policy::Lru,
        }
    }
}

/// Configuration of a native parallel join.
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
    pub buffer: Option<BufferConfig>,
    /// Which join executor answers: the paper's R-tree traversal, the
    /// in-memory grid partition, or a per-run automatic choice. Only the
    /// engine-dispatching entry points ([`crate::partition::run_join`] /
    /// [`crate::partition::try_run_join`]) consult this; calling
    /// [`run_native_join`] directly always runs the R-tree engine.
    pub engine: crate::partition::JoinEngine,
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
            engine: crate::partition::JoinEngine::RTree,
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
    /// Deterministic fault plan applied to every page fetch. Requires a
    /// buffered run; [`try_run_native_join`] forces an implicit global
    /// buffer when `fault` is set on an unbuffered config.
    pub fault: Option<Arc<FaultPlan>>,
    /// Retry policy for failed page fetches (applied inside the cache).
    pub retry: RetryPolicy,
    /// Trace sink for structured tracing. When set, the run emits
    /// `create_tasks`/`join` spans on the driver row, one `task` span per
    /// task segment on each worker row, and (via the caches this run
    /// builds) `page_read`/`page_retry`/`page_quarantine` events. When `None`, tracing costs one `Option` check per task
    /// boundary — per-task attribution itself is always collected.
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
    /// Wall-clock duration of the parallel phase.
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
/// the shared cache's key space.
const TREE_B_TAG: u32 = 1 << 31;

/// A [`PageSource`] over both join inputs: a fill copies the node's words
/// from the owning tree's page arena into the cache's [`NodeFrame`] slot,
/// in place, after the injected fault plan (if any) has had its say.
struct JoinSource<'t> {
    a: &'t PagedTree,
    b: &'t PagedTree,
    fault: Option<Arc<FaultPlan>>,
}

impl<'t> JoinSource<'t> {
    /// The arena page behind a (tagged) page id.
    fn read(&self, page: PageId) -> Result<FrameRef<'t>, PageError> {
        if let Some(plan) = &self.fault {
            plan.before_fetch(page)?;
        }
        Ok(if page.0 & TREE_B_TAG != 0 {
            self.b.frame(PageId(page.0 & !TREE_B_TAG))
        } else {
            self.a.frame(page)
        })
    }
}

impl PageSource for JoinSource<'_> {
    type Item = NodeFrame;

    fn fetch_page(&self, page: PageId) -> Result<NodeFrame, PageError> {
        Ok(NodeFrame::from_frame(self.read(page)?))
    }

    fn page_count(&self) -> usize {
        self.a.num_pages() + self.b.num_pages()
    }

    fn fill_page<'s>(
        &self,
        page: PageId,
        slot: &'s mut MaybeUninit<NodeFrame>,
    ) -> Result<&'s mut NodeFrame, PageError> {
        Ok(NodeFrame::fill(self.read(page)?, slot))
    }
}

/// Where one worker reads its nodes: straight from the frozen trees' page
/// arenas, or through a cache (shared or private) in front of their pages
/// (tagged page ids keep both trees in one cache). `run_worker` is
/// monomorphised per implementation, so the in-memory join reads
/// [`FrameRef`]s with no per-read dispatch.
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

    /// This worker's buffer counters, `None` when unbuffered; segment
    /// deltas taken from consecutive calls reconcile exactly with the run
    /// aggregates.
    fn stats(&self) -> Option<BufferStats>;
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

    fn stats(&self) -> Option<BufferStats> {
        None
    }
}

/// Reads through a page cache of node frames.
struct Cached<'t> {
    source: JoinSource<'t>,
    cache: &'t SharedPageCache<NodeFrame>,
    /// The stats index: the worker id for the shared cache, 0 for a
    /// private one.
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

/// The caches a buffered run uses, by organization and ownership.
enum CacheSet<'c> {
    None,
    Global(SharedPageCache<NodeFrame>),
    Local(Vec<SharedPageCache<NodeFrame>>),
    /// Caller-owned shared cache that stays warm across joins.
    External(&'c SharedPageCache<NodeFrame>),
}

impl CacheSet<'_> {
    /// The caches `cfg` asks for.
    fn build(cfg: &NativeConfig, retry: RetryPolicy, trace: Option<&Arc<TraceSink>>) -> Self {
        let traced = |cache: SharedPageCache<NodeFrame>| match trace {
            Some(t) => cache.with_trace(Arc::clone(t)),
            None => cache,
        };
        match &cfg.buffer {
            None => CacheSet::None,
            Some(b) => match b.org {
                BufferOrg::Global => CacheSet::Global(traced(
                    SharedPageCache::new(
                        cfg.num_threads,
                        b.capacity_pages,
                        b.shards.max(1),
                        b.policy,
                    )
                    .with_retry(retry),
                )),
                BufferOrg::Local => {
                    let per_worker = (b.capacity_pages / cfg.num_threads).max(1);
                    CacheSet::Local(
                        (0..cfg.num_threads)
                            .map(|_| {
                                traced(
                                    SharedPageCache::new(1, per_worker, 1, b.policy)
                                        .with_retry(retry),
                                )
                            })
                            .collect(),
                    )
                }
            },
        }
    }

    /// The cache worker `id` uses plus its stats index within that cache.
    fn for_worker(&self, id: usize) -> Option<(&SharedPageCache<NodeFrame>, usize)> {
        match self {
            CacheSet::None => None,
            CacheSet::Global(c) => Some((c, id)),
            CacheSet::Local(v) => Some((&v[id], 0)),
            CacheSet::External(c) => Some((c, id)),
        }
    }

    /// Per-worker stats, indexed by worker id.
    fn per_worker_stats(&self, num_threads: usize) -> Vec<BufferStats> {
        match self {
            CacheSet::None => Vec::new(),
            CacheSet::Global(c) => c.per_worker_stats(),
            CacheSet::Local(v) => (0..num_threads).map(|i| v[i].stats(0)).collect(),
            CacheSet::External(c) => c.per_worker_stats().into_iter().take(num_threads).collect(),
        }
    }
}

/// Cross-worker failure state: the first unrecoverable page error raises
/// `abort`; every worker bails out at its next loop iteration. Contained
/// morsel panics are recorded here too, but deliberately do NOT raise
/// `abort` — the point of catching them is that the rest of the plan still
/// runs.
#[derive(Default)]
struct FailState {
    abort: AtomicBool,
    failed_tasks: AtomicU64,
    first_error: Mutex<Option<PageError>>,
    panics: AtomicU64,
    first_panic: Mutex<Option<String>>,
}

impl FailState {
    fn record(&self, error: PageError) {
        self.failed_tasks.fetch_add(1, Ordering::Relaxed);
        let mut slot = lock_clean(&self.first_error);
        if slot.is_none() {
            *slot = Some(error);
        }
        drop(slot);
        self.abort.store(true, Ordering::SeqCst);
    }

    fn record_panic(&self, payload: &(dyn std::any::Any + Send)) {
        self.panics.fetch_add(1, Ordering::Relaxed);
        let msg = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let mut slot = lock_clean(&self.first_panic);
        if slot.is_none() {
            *slot = Some(msg);
        }
    }
}

/// Runs the join on real threads.
///
/// # Panics
///
/// Panics on a storage error — impossible here, because without a fault
/// plan the in-memory page decode cannot fail. Fallible deployments use
/// [`try_run_native_join`].
pub fn run_native_join(a: &PagedTree, b: &PagedTree, cfg: &NativeConfig) -> NativeResult {
    let retry = RetryPolicy::default();
    match run_with_caches(
        a,
        b,
        cfg,
        CacheSet::build(cfg, retry, None),
        &RunControl::default(),
    ) {
        Ok(res) => res,
        Err(e) => unreachable!("in-memory join cannot fail: {e}"),
    }
}

/// Runs the join on real threads with cooperative cancellation.
///
/// Every worker checks `cancel` once per node pair; when the token fires
/// (deadline expiry or explicit [`CancelToken::cancel`]) all workers unwind
/// within one task's worth of work and the call returns `Err(Cancelled)`,
/// discarding partial results. This is the entry point a serving layer uses
/// to enforce per-request deadlines on join queries.
pub fn run_native_join_cancellable(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    cancel: &CancelToken,
) -> Result<NativeResult, Cancelled> {
    let ctl = RunControl::default().with_cancel(cancel);
    match run_with_caches(a, b, cfg, CacheSet::build(cfg, ctl.retry, None), &ctl) {
        Ok(res) => Ok(res),
        Err(NativeError::Cancelled) => Err(Cancelled),
        Err(e) => unreachable!("in-memory join cannot fail: {e}"),
    }
}

/// Runs the join under full runtime control: cancellation, fault
/// injection, and a storage retry policy.
///
/// Faults act on cache fills, so a fault plan on an *unbuffered* config
/// forces an implicit global buffer sized to both trees (the result then
/// carries [`NativeResult::buffer`] stats even though `cfg.buffer` was
/// `None`). Transient faults are absorbed by retries and reported in
/// [`BufferStats::retries`]; an unrecoverable page failure aborts all
/// workers and returns [`NativeError::Storage`].
pub fn try_run_native_join(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> Result<NativeResult, NativeError> {
    let needs_buffer = cfg.buffer.is_none() && ctl.fault.as_ref().is_some_and(|p| !p.is_noop());
    if needs_buffer {
        let mut forced = cfg.clone();
        forced.buffer = Some(BufferConfig::global((a.num_pages() + b.num_pages()).max(1)));
        let caches = CacheSet::build(&forced, ctl.retry, ctl.trace.as_ref());
        return run_with_caches(a, b, &forced, caches, ctl);
    }
    run_with_caches(
        a,
        b,
        cfg,
        CacheSet::build(cfg, ctl.retry, ctl.trace.as_ref()),
        ctl,
    )
}

/// Runs the join with a caller-owned shared cache (global organization).
///
/// Unlike [`run_native_join`], the cache outlives the call: a second join
/// over the same trees starts warm, so a cache sized to the working set
/// reports zero misses the second time. [`NativeResult::buffer`] reports
/// only the activity of *this* run (the delta against the cache's counters
/// at entry). Any `cfg.buffer` setting is ignored in favor of `cache`.
///
/// # Panics
///
/// Panics if `cache` tracks stats for fewer workers than `cfg.num_threads`,
/// or on a storage error (a caller-owned cache may hold quarantined pages;
/// use [`try_run_native_join_with_cache`] to handle those).
pub fn run_native_join_with_cache(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    cache: &SharedPageCache<NodeFrame>,
) -> NativeResult {
    match try_run_native_join_with_cache(a, b, cfg, cache, &RunControl::default()) {
        Ok(res) => res,
        Err(e) => panic!("join with external cache failed: {e}"),
    }
}

/// Fallible variant of [`run_native_join_with_cache`] with runtime
/// controls. Note the retry policy of the *cache* (not `ctl.retry`)
/// governs fetch retries, since the cache is caller-owned.
pub fn try_run_native_join_with_cache(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    cache: &SharedPageCache<NodeFrame>,
    ctl: &RunControl<'_>,
) -> Result<NativeResult, NativeError> {
    assert!(
        cache.num_workers() >= cfg.num_threads,
        "cache tracks {} workers, config wants {}",
        cache.num_workers(),
        cfg.num_threads
    );
    run_with_caches(a, b, cfg, CacheSet::External(cache), ctl)
}

fn run_with_caches(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    caches: CacheSet<'_>,
    ctl: &RunControl<'_>,
) -> Result<NativeResult, NativeError> {
    assert!(cfg.num_threads > 0, "need at least one thread");
    assert!(
        a.num_pages() < TREE_B_TAG as usize && b.num_pages() < TREE_B_TAG as usize,
        "page id tag bit collision"
    );
    let cancel = ctl.cancel;
    let trace = ctl.trace.as_ref();
    let join_start_ns = trace.map(|t| {
        t.set_thread_name(TID_MAIN, "join driver");
        for id in 0..cfg.num_threads {
            t.set_thread_name(worker_tid(id), format!("worker {id}"));
            t.set_thread_name(
                psj_obs::trace::cache_tid(id),
                format!("cache (worker {id})"),
            );
        }
        t.now_ns()
    });
    let tasks_start_ns = trace.map(|t| t.now_ns());
    let tc = create_tasks(a, b, cfg.min_tasks_factor * cfg.num_threads);
    let tasks = tc.tasks.len();
    if let (Some(t), Some(start)) = (trace, tasks_start_ns) {
        t.span(
            TID_MAIN,
            "create_tasks",
            "join",
            start,
            &[
                ("tasks", tasks as u64),
                ("pages_a", tc.pages_a.len() as u64),
                ("pages_b", tc.pages_b.len() as u64),
            ],
        );
    }
    if let Some(token) = cancel {
        token.check().map_err(|_| NativeError::Cancelled)?;
    }

    // Phase 1½: regroup the task list into morsels sized by estimated
    // candidate counts (split oversized tasks, pack undersized neighbors).
    let morsel_start_ns = trace.map(|t| t.now_ns());
    let estimator = CandidateEstimator::new(a, b);
    let opts = MorselOptions::new(cfg.num_threads);
    let plan = morselize(a, b, &tc.tasks, &estimator, &opts);
    let num_morsels = plan.morsels.len();
    if let (Some(t), Some(start)) = (trace, morsel_start_ns) {
        t.span(
            TID_MAIN,
            "morselize",
            "join",
            start,
            &[
                ("morsels", num_morsels as u64),
                ("budget", plan.budget),
                ("total_est", plan.total_est),
                ("split_expansions", plan.split_expansions),
            ],
        );
    }

    // Snapshot so a pre-warmed external cache reports only this run's
    // activity (freshly built caches snapshot all-zero counters).
    let baseline = caches.per_worker_stats(cfg.num_threads);
    let candidates = AtomicU64::new(0);
    let node_pairs = AtomicU64::new(0);
    let fail = FailState::default();
    let start = Instant::now();

    let mut results: Vec<WorkerOutput> = Vec::with_capacity(cfg.num_threads);
    let run = RunShared {
        a,
        b,
        cfg,
        morsels: &plan.morsels,
        next: AtomicUsize::new(0),
        candidates: &candidates,
        node_pairs: &node_pairs,
        cancel,
        fail: &fail,
    };
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(cfg.num_threads);
        for id in 0..cfg.num_threads {
            let (run, caches) = (&run, &caches);
            let fault = ctl.fault.clone();
            let tracer = ctl.trace.as_ref().map(|t| t.tracer(worker_tid(id)));
            handles.push(scope.spawn(move || match caches.for_worker(id) {
                None => run_worker(id, run, &Direct { a, b }, tracer),
                Some((cache, worker)) => {
                    let source = JoinSource { a, b, fault };
                    let fetcher = Cached {
                        source,
                        cache,
                        worker,
                    };
                    run_worker(id, run, &fetcher, tracer)
                }
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
                ("tasks", tasks as u64),
                ("morsels", num_morsels as u64),
                ("threads", cfg.num_threads as u64),
            ],
        );
    }

    let buffer_per_worker: Vec<BufferStats> = caches
        .per_worker_stats(cfg.num_threads)
        .iter()
        .zip(&baseline)
        .map(|(now, then)| now.since(then))
        .collect();
    let buffer = if matches!(caches, CacheSet::None) {
        None
    } else {
        Some(
            buffer_per_worker
                .iter()
                .fold(BufferStats::default(), |acc, s| acc.merged(s)),
        )
    };

    if fail.abort.load(Ordering::SeqCst) {
        let error = lock_clean(&fail.first_error)
            .take()
            .expect("abort flag implies a recorded error");
        return Err(NativeError::Storage(JoinError {
            error,
            failed_tasks: fail.failed_tasks.load(Ordering::Relaxed),
        }));
    }

    if let Some(token) = cancel {
        // A token that fired mid-run means workers unwound early and the
        // result set may be partial; report cancellation instead.
        token.check().map_err(|_| NativeError::Cancelled)?;
    }

    // Deterministic merge. A contained panic explains a missing morsel:
    // the run reports it as a typed error, since a partial merge would be
    // a silently wrong answer.
    let (merged, task_traces) = MorselOutputs::place(num_morsels, results);
    if fail.panics.load(Ordering::Relaxed) > 0 {
        let message = lock_clean(&fail.first_panic)
            .take()
            .unwrap_or_else(|| "panic recorded without a message".to_string());
        return Err(NativeError::WorkerPanic {
            message,
            completed_morsels: merged.completed(),
            morsels: num_morsels,
        });
    }
    Ok(NativeResult {
        pairs: merged.concat(),
        candidates: candidates.load(Ordering::Relaxed),
        node_pairs: node_pairs.load(Ordering::Relaxed),
        elapsed,
        tasks,
        morsels: num_morsels,
        steals: 0,
        buffer,
        buffer_per_worker,
        task_traces,
        engine: crate::partition::JoinEngine::RTree,
        replicated: 0,
        deduped: 0,
    })
}

/// One open morsel segment: the attribution baseline captured when the
/// morsel was acquired (see [`TaskTrace`]).
struct Segment {
    morsel: u32,
    tasks: u32,
    start: Instant,
    start_ns: u64,
    base_stats: BufferStats,
    base_pairs: u64,
    base_cands: u64,
}

/// Closes `seg`: computes the deltas since its baseline, records a
/// [`TaskTrace`], and (when tracing) emits the `task` span.
#[allow(clippy::too_many_arguments)]
fn close_segment(
    seg: Segment,
    id: usize,
    buffered: bool,
    now_stats: BufferStats,
    pairs: u64,
    cands: u64,
    traces: &mut Vec<TaskTrace>,
    tracer: Option<&mut ThreadTracer>,
) {
    let delta = now_stats.since(&seg.base_stats);
    let node_pairs = pairs - seg.base_pairs;
    let candidates = cands - seg.base_cands;
    let pages = if buffered {
        delta.requests()
    } else {
        // Unbuffered fetches bypass the cache counters: each processed
        // node pair reads its two nodes, and nothing else is read.
        2 * node_pairs
    };
    let tt = TaskTrace {
        worker: id,
        morsel: seg.morsel,
        tasks: seg.tasks,
        node_pairs,
        candidates,
        pages,
        hits_local: delta.hits_local,
        hits_remote: delta.hits_remote,
        misses: delta.misses,
        retries: delta.retries,
        wall: seg.start.elapsed(),
        engine: crate::partition::JoinEngine::RTree,
        replicated: 0,
        deduped: 0,
    };
    if let Some(tr) = tracer {
        tr.span(
            "task",
            "join",
            seg.start_ns,
            &[
                ("worker", id as u64),
                ("morsel", seg.morsel as u64),
                ("tasks", seg.tasks as u64),
                ("node_pairs", tt.node_pairs),
                ("candidates", tt.candidates),
                ("pages", tt.pages),
                ("hits_local", tt.hits_local),
                ("hits_remote", tt.hits_remote),
                ("retries", tt.retries),
            ],
        );
    }
    traces.push(tt);
}

/// What every worker of one run shares.
struct RunShared<'r> {
    a: &'r PagedTree,
    b: &'r PagedTree,
    cfg: &'r NativeConfig,
    /// The plan, in morsel-id (plane-sweep) order.
    morsels: &'r [Morsel],
    /// The dispatcher: the id of the next morsel to hand out. A worker
    /// takes ids in increasing order until the cursor passes the end.
    /// `Relaxed` suffices: each `fetch_add` returns a distinct id, and the
    /// cursor publishes no data — the plan is immutable and visible to
    /// every worker from its spawn.
    next: AtomicUsize,
    candidates: &'r AtomicU64,
    node_pairs: &'r AtomicU64,
    cancel: Option<&'r CancelToken>,
    fail: &'r FailState,
}

fn run_worker<'t, F: Fetch<'t>>(
    id: usize,
    run: &RunShared<'_>,
    fetcher: &F,
    mut tracer: Option<ThreadTracer>,
) -> WorkerOutput {
    let RunShared {
        a,
        b,
        cfg,
        morsels,
        ref next,
        candidates,
        node_pairs,
        cancel,
        fail,
    } = *run;
    let mut scratch = KernelScratch::default();
    let mut children: Vec<TaskPair> = Vec::new();
    let mut cands: Vec<Candidate> = Vec::new();
    // Morsel-private DFS stack: task descendants never go back to the
    // dispatcher, so no locking happens between morsel boundaries.
    let mut stack: Vec<TaskPair> = Vec::new();
    let mut outputs: Vec<(u32, Vec<(u64, u64)>)> = Vec::new();
    let mut local_candidates = 0u64;
    let mut local_pairs = 0u64;

    // Per-morsel attribution state. `fetcher.stats()` reads this worker's
    // own counters, which only this thread advances, so deltas between
    // boundaries are exact.
    let buffered = fetcher.stats().is_some();
    let mut traces: Vec<TaskTrace> = Vec::new();

    'outer: loop {
        // Cooperative cancellation / failure abort: each worker bails out on
        // its own; the caller discards partial results once every worker has
        // unwound.
        if cancel.is_some_and(|t| t.is_cancelled()) || fail.abort.load(Ordering::Relaxed) {
            break 'outer;
        }
        // The cursor passed the end: the plan is fixed before workers
        // start, so nothing can appear later and the worker retires
        // without a termination barrier.
        let Some(morsel) = morsels.get(next.fetch_add(1, Ordering::Relaxed)) else {
            break 'outer;
        };

        let seg = Segment {
            morsel: morsel.id,
            tasks: morsel.tasks.len() as u32,
            start: Instant::now(),
            start_ns: tracer.as_ref().map_or(0, ThreadTracer::now_ns),
            base_stats: fetcher.stats().unwrap_or_default(),
            base_pairs: local_pairs,
            base_cands: local_candidates,
        };
        let mid = morsel.id;
        stack.clear();
        stack.extend(morsel.tasks.iter().rev());
        // Execute the morsel's tasks in plane-sweep order, each depth-first
        // with children pushed in reverse — the sequential oracle's exact
        // traversal, so `out` is byte-identical to the oracle's slice for
        // this morsel. `dirty` marks an abort mid-morsel: the segment still
        // closes (attribution stays exact) but the partial output is
        // discarded and the worker unwinds.
        //
        // The whole morsel runs under `catch_unwind`: a panic (a kernel
        // bug, an injected fault) is contained to the morsel that hit it —
        // the worker records it, keeps its thread, and moves on to the
        // next morsel. The shared structures stay usable across the unwind
        // because every lock on the worker's path recovers from poisoning
        // (`lock_clean`) and in-flight cache fills are cleaned up by a
        // drop guard.
        let run_morsel = std::panic::AssertUnwindSafe(|| {
            let mut out: Vec<(u64, u64)> = Vec::new();
            let mut dirty = false;
            'morsel: while let Some(pair) = stack.pop() {
                if cancel.is_some_and(|t| t.is_cancelled()) || fail.abort.load(Ordering::Relaxed) {
                    dirty = true;
                    break 'morsel;
                }
                local_pairs += 1;
                let fetched = fetcher
                    .node_a(pair.a)
                    .and_then(|na| fetcher.node_b(pair.b).map(|nb| (na, nb)));
                let (ra, rb) = match fetched {
                    Ok(v) => v,
                    Err(e) => {
                        fail.record(e);
                        dirty = true;
                        break 'morsel;
                    }
                };
                let (na, nb) = (F::view(&ra), F::view(&rb));
                children.clear();
                cands.clear();
                expand_pair(na, nb, &pair, &mut scratch, &mut children, &mut cands);
                for c in children.drain(..).rev() {
                    stack.push(c);
                }
                // Every candidate of this expansion lies in the pair just
                // swept (PAPER.md §1): resolve them from the two nodes in
                // hand, so a node pair costs exactly two page reads.
                if cands.is_empty() {
                    continue;
                }
                local_candidates += cands.len() as u64;
                for c in &cands {
                    let (ia, ib) = (c.idx_a as usize, c.idx_b as usize);
                    let oids = (na.oid(ia), nb.oid(ib));
                    if cfg.refine {
                        // Refinement geometry lives in the cluster store,
                        // outside the page budget: the paper reads clusters
                        // once per data page and does not buffer them (§4.2).
                        let (ra, rb) = (na.geom(ia), nb.geom(ib));
                        let ga = a.clusters().geometry(ra.page, ra.slot);
                        let gb = b.clusters().geometry(rb.page, rb.slot);
                        let hit = match (ga, gb) {
                            (Some(ga), Some(gb)) => intersects(ga, gb),
                            _ => true,
                        };
                        if hit {
                            out.push(oids);
                        }
                    } else {
                        out.push(oids);
                    }
                }
            }
            (out, dirty)
        });
        let outcome = match std::panic::catch_unwind(run_morsel) {
            Ok(v) => Some(v),
            Err(payload) => {
                fail.record_panic(payload.as_ref());
                // Descendants of the panicked morsel must not leak into
                // the next morsel's traversal.
                stack.clear();
                None
            }
        };
        // The segment closes even for a panicked morsel, so per-worker
        // attribution still accounts for the work it attempted.
        close_segment(
            seg,
            id,
            buffered,
            fetcher.stats().unwrap_or_default(),
            local_pairs,
            local_candidates,
            &mut traces,
            tracer.as_mut(),
        );
        match outcome {
            Some((_, true)) => break 'outer,
            Some((out, false)) => outputs.push((mid, out)),
            // Panicked: the morsel's output is lost (the driver reports a
            // typed error), but this worker keeps taking morsels.
            None => {}
        }
    }

    candidates.fetch_add(local_candidates, Ordering::Relaxed);
    node_pairs.fetch_add(local_pairs, Ordering::Relaxed);
    (outputs, traces)
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

        let source = JoinSource {
            a,
            b: &src,
            fault: None,
        };
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
            let res = run_native_join(&a, &b, &cfg);
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
        let res = run_native_join(&a, &b, &NativeConfig::new(4));
        assert_eq!(as_set(&res.pairs), want);
        assert!(res.pairs.len() <= res.candidates as usize);
    }

    #[test]
    fn empty_join_terminates() {
        let a = tree(50, 0.0);
        let b = tree(50, 10_000.0);
        let res = run_native_join(&a, &b, &NativeConfig::new(4));
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
            let res = run_native_join(&a, &b, &cfg);
            assert_eq!(as_set(&res.pairs), want, "capacity {capacity}");
            let stats = res.buffer.expect("buffered run reports stats");
            assert!(stats.requests() > 0);
            assert!(stats.misses > 0);
            assert_eq!(res.buffer_per_worker.len(), 4);
        }
    }

    #[test]
    fn buffered_local_matches_unbuffered() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let want = as_set(&join_refined(&a, &b));
        let cfg = NativeConfig::buffered(4, BufferConfig::local(32));
        let res = run_native_join(&a, &b, &cfg);
        assert_eq!(as_set(&res.pairs), want);
        let stats = res.buffer.expect("buffered run reports stats");
        assert_eq!(
            stats.hits_remote, 0,
            "local organization has no remote hits"
        );
        assert!(stats.misses > 0);
    }

    #[test]
    fn warm_external_cache_has_zero_misses_on_second_join() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let total_pages = a.num_pages() + b.num_pages();
        let cache: SharedPageCache<NodeFrame> =
            SharedPageCache::new(4, total_pages * 2, 8, Policy::Lru);
        let mut cfg = NativeConfig::new(4);
        cfg.refine = false;
        let cold = run_native_join_with_cache(&a, &b, &cfg, &cache);
        let warm = run_native_join_with_cache(&a, &b, &cfg, &cache);
        assert_eq!(as_set(&cold.pairs), as_set(&warm.pairs));
        assert!(cold.buffer.unwrap().misses > 0, "first run faults pages in");
        let warm_stats = warm.buffer.unwrap();
        assert_eq!(
            warm_stats.misses, 0,
            "warm cache serves everything: {warm_stats:?}"
        );
        assert!(warm_stats.requests() > 0);
    }

    #[test]
    fn cancelled_token_aborts_join() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let token = CancelToken::new();
        token.cancel();
        let res = run_native_join_cancellable(&a, &b, &NativeConfig::new(4), &token);
        assert_eq!(res.err(), Some(Cancelled));
    }

    #[test]
    fn expired_deadline_aborts_join() {
        let a = tree(800, 0.0);
        let b = tree(800, 0.4);
        let token = CancelToken::with_deadline(
            std::time::Instant::now() - std::time::Duration::from_millis(1),
        );
        let res = run_native_join_cancellable(&a, &b, &NativeConfig::new(4), &token);
        assert_eq!(res.err(), Some(Cancelled));
    }

    #[test]
    fn live_token_join_matches_uncancelled() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let want = as_set(&join_refined(&a, &b));
        let token = CancelToken::with_deadline(
            std::time::Instant::now() + std::time::Duration::from_secs(600),
        );
        let res = run_native_join_cancellable(&a, &b, &NativeConfig::new(4), &token)
            .expect("far deadline never fires");
        assert_eq!(as_set(&res.pairs), want);
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
        let mut cfg = NativeConfig::new(1);
        cfg.refine = false;
        let cold = run_native_join_with_cache(&a, &b, &cfg, &cache);
        assert!(
            cold.buffer.unwrap().misses > 0,
            "one worker fills the cache"
        );
        cfg.num_threads = 2;
        let warm = run_native_join_with_cache(&a, &b, &cfg, &cache);
        assert_eq!(as_set(&warm.pairs), as_set(&cold.pairs));
        let (w0, w1) = (&warm.buffer_per_worker[0], &warm.buffer_per_worker[1]);
        assert_eq!(w1.hits_local, 0, "worker 1 owns no page: {w1:?}");
        assert_eq!(w1.misses, 0, "the warm cache holds every page: {w1:?}");
        assert_eq!(w1.hits_remote, w1.requests(), "{w1:?}");
        assert_eq!(w0.hits_remote, 0, "worker 0 owns every page: {w0:?}");
        assert!(warm.buffer.unwrap().requests() > 0);
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
        let res = try_run_native_join(&a, &b, &NativeConfig::new(4), &ctl)
            .expect("transient faults must be retried away");
        assert_eq!(as_set(&res.pairs), want);
        let stats = res.buffer.expect("fault run forces a buffer");
        assert!(plan.transient_injected() > 0, "plan injected nothing");
        assert_eq!(
            stats.retries,
            plan.transient_injected(),
            "every injected transient shows up as exactly one retry"
        );
    }

    #[test]
    fn unrecoverable_faults_abort_with_typed_error() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let plan = Arc::new(FaultPlan::new(11).with_flip(1.0));
        let ctl = RunControl::default().with_fault(plan);
        let err = try_run_native_join(&a, &b, &NativeConfig::new(4), &ctl)
            .expect_err("every page corrupt: join must fail");
        match err {
            NativeError::Storage(e) => {
                assert!(e.error.is_corrupt(), "expected corruption: {}", e.error);
                assert!(e.failed_tasks >= 1);
            }
            other => panic!("expected a storage error, got {other}"),
        }
    }

    /// A panic inside one morsel (here: an injected one-shot panic on a
    /// page fetch) must not take down the run's other morsels: the hit
    /// worker catches the unwind and keeps taking morsels, the caches'
    /// poison-recovering locks and fill guard keep the other workers
    /// unblocked, and the driver reports a typed error instead of merging
    /// a silently incomplete result.
    #[test]
    fn worker_panic_is_contained_and_other_morsels_complete() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        // Page 0 is the root, which only the (unfaulted) phase-1 descent
        // reads; the last page is the rightmost leaf, which some morsel is
        // certain to fetch through the cache.
        let last_leaf = (a.num_pages() - 1) as u32;
        let plan = Arc::new(FaultPlan::new(5).with_panic_page(last_leaf));
        let ctl = RunControl::default().with_fault(plan);
        let err = try_run_native_join(&a, &b, &NativeConfig::new(4), &ctl)
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
        let res = try_run_native_join(&a, &b, &NativeConfig::new(2), &RunControl::default())
            .expect("no faults, no cancel");
        assert_eq!(as_set(&res.pairs), want);
        assert!(res.buffer.is_none(), "no fault plan: no forced buffer");
    }

    #[test]
    fn task_traces_reconcile_with_run_aggregates() {
        let a = tree(600, 0.0);
        let b = tree(600, 0.4);
        let mut cfg = NativeConfig::buffered(4, BufferConfig::global(64));
        cfg.refine = false;
        let res = try_run_native_join(&a, &b, &cfg, &RunControl::default()).unwrap();
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
        let res = try_run_native_join(&a, &b, &cfg, &ctl).unwrap();
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
            let res = run_native_join(&a, &b, &NativeConfig::new(threads));
            assert_eq!(res.pairs, want, "byte order diverged: {threads} threads");
        }
    }
}
