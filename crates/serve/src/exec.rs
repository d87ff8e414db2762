//! Query execution on the loaded trees, read in place.
//!
//! Every tree a server holds is resident as its arena of page frames, so
//! window and k-NN queries read each node they visit straight from it
//! ([`PagedTree::frame`]) through one small [`NodeAccess`], with nothing
//! decoded or copied. The traversals are psj-rtree's own
//! ([`window_query_via`], [`nearest_neighbors_via`]), so a served answer
//! is the direct query's, in the same order. Every node read checks the
//! deadline first; an expired query stops and discards its partial work.
//!
//! # Storage failures
//!
//! A page that cannot be read — poisoned at (lenient) load time, or
//! failed by an injected [`FaultPlan`] once its retries are spent —
//! degrades only the queries that needed it, to [`Outcome::Storage`];
//! other queries and trees are unaffected. A query never returns a
//! silently partial result.

use psj_core::{try_run_join, CancelToken, NativeConfig, NativeError, RunControl};
use psj_geom::{Point, Rect};
use psj_obs::trace::TID_SERVE;
use psj_obs::{Counter, TraceSink};
use psj_rtree::access::Frame;
use psj_rtree::{nearest_neighbors_via, window_query_via, JoinNode, NodeAccess, PagedTree};
use psj_store::{lock_clean, FaultPlan, PageError, PageId, RetryPolicy};
use std::collections::BTreeSet;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Low bits of a fault-plan page key hold the page; upper bits the tree.
pub const TREE_SHIFT: u32 = 24;

/// Maximum number of trees a server can load (tree index fits the key's
/// upper bits with the sign-ish top bit spare).
pub const MAX_TREES: usize = 127;

/// The trees a server exposes, indexed by position, and how their node
/// reads went.
#[derive(Debug)]
pub struct TreeSet {
    trees: Vec<Arc<PagedTree>>,
    /// Injected fault plan run before every node read (testing/chaos), the
    /// policy its transient faults are retried under, and the sink that
    /// gets a `page_retry` instant on the server's row per retry.
    fault: Option<(Arc<FaultPlan>, RetryPolicy, Option<Arc<TraceSink>>)>,
    /// Reads of tree nodes, each a page a window or nearest query visited.
    pub reads: Counter,
    /// Reads that returned a frame.
    pub frames: Counter,
    /// Reads retried after an injected transient fault.
    pub retries: Counter,
    /// Distinct page keys an injected permanent fault refused.
    refused: Mutex<BTreeSet<u32>>,
}

impl TreeSet {
    /// Validates and wraps the loaded trees.
    pub fn new(trees: Vec<Arc<PagedTree>>) -> Result<Self, String> {
        if trees.is_empty() {
            return Err("a server needs at least one tree".into());
        }
        if trees.len() > MAX_TREES {
            return Err(format!("at most {MAX_TREES} trees, got {}", trees.len()));
        }
        for (i, t) in trees.iter().enumerate() {
            if t.num_pages() >= 1 << TREE_SHIFT {
                return Err(format!(
                    "tree {i} has {} pages, page-key space holds {}",
                    t.num_pages(),
                    1 << TREE_SHIFT
                ));
            }
        }
        Ok(TreeSet {
            trees,
            fault: None,
            reads: Counter::new(),
            frames: Counter::new(),
            retries: Counter::new(),
            refused: Mutex::new(BTreeSet::new()),
        })
    }

    /// Runs `plan` before every subsequent node read, retrying its
    /// transient faults under `retry` and telling `trace` of each retry.
    pub fn with_fault(
        mut self,
        plan: Arc<FaultPlan>,
        retry: RetryPolicy,
        trace: Option<Arc<TraceSink>>,
    ) -> Self {
        self.fault = Some((plan, retry, trace));
        self
    }

    /// Distinct corrupt pages so far: pages poisoned at load time plus
    /// pages an injected permanent fault refused.
    pub fn corrupt_pages(&self) -> u64 {
        let poisoned: u64 = self.trees.iter().map(|t| t.poisoned_count() as u64).sum();
        poisoned + lock_clean(&self.refused).len() as u64
    }

    /// Number of trees.
    pub fn len(&self) -> usize {
        self.trees.len()
    }

    /// Whether the set is empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.trees.is_empty()
    }

    /// The tree at `idx`, if loaded.
    pub fn get(&self, idx: u16) -> Option<&Arc<PagedTree>> {
        self.trees.get(idx as usize)
    }

    /// Iterates over the trees in index order.
    pub fn iter(&self) -> impl Iterator<Item = &Arc<PagedTree>> {
        self.trees.iter()
    }
}

/// The [`NodeAccess`] of one query on one tree of a [`TreeSet`]: each read
/// checks the deadline, refuses a page poisoned at load, runs the injected
/// fault plan under its retry policy, and returns the page's arena frame.
struct Reads<'s> {
    set: &'s TreeSet,
    tree: usize,
    deadline: Option<Instant>,
    /// A read failed because the deadline had passed: the query reports
    /// [`Outcome::DeadlineExceeded`], not a storage error.
    expired: bool,
}

impl<'s> Reads<'s> {
    fn new(set: &'s TreeSet, tree: u16, deadline: Option<Instant>) -> Self {
        Reads {
            set,
            tree: tree as usize,
            deadline,
            expired: false,
        }
    }

    /// The query's outcome from its traversal's result.
    fn outcome<T>(&self, found: Result<T, PageError>) -> Outcome<T> {
        match found {
            Ok(v) => Outcome::Ok(v),
            Err(_) if self.expired => Outcome::DeadlineExceeded,
            Err(e) => Outcome::Storage(e),
        }
    }
}

impl NodeAccess for Reads<'_> {
    type Ref<'a>
        = Frame<'a>
    where
        Self: 'a;

    fn read(&mut self, page: PageId) -> Result<Frame<'_>, PageError> {
        self.set.reads.inc();
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            self.expired = true;
            return Err(PageError::io(
                page,
                io::ErrorKind::TimedOut,
                "deadline passed",
            ));
        }
        let tree = &self.set.trees[self.tree];
        // A page poisoned at (lenient) load holds a placeholder; serving
        // it would silently return wrong answers.
        if tree.is_poisoned(page) {
            return Err(PageError::Corrupt {
                page,
                context: format!("tree {} {page} poisoned at load time", self.tree),
            });
        }
        if let Some((plan, retry, trace)) = &self.set.fault {
            // The plan keys on tree and page together, so each tree's
            // pages fault independently; reports name the tree's own page.
            let key = PageId(((self.tree as u32) << TREE_SHIFT) | page.0);
            let (fetched, retries) = retry.run_observed(
                |_| plan.before_fetch(key),
                |attempt, _| {
                    if let Some(t) = trace {
                        let args = [
                            ("tree", self.tree as u64),
                            ("page", u64::from(page.0)),
                            ("attempt", u64::from(attempt)),
                        ];
                        t.instant(TID_SERVE, "page_retry", "storage", &args);
                    }
                },
            );
            self.set.retries.add(retries);
            if let Err(e) = fetched {
                if e.is_corrupt() {
                    lock_clean(&self.set.refused).insert(key.0);
                }
                return Err(e.in_tree(page, self.tree));
            }
        }
        self.set.frames.inc();
        Ok(Frame(tree.frame(page)))
    }
}

/// How one query ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<T> {
    /// The query completed; results are exact.
    Ok(T),
    /// The deadline expired mid-traversal; partial results discarded.
    DeadlineExceeded,
    /// A page the query needed could not be read (poisoned, corrupt, or
    /// unavailable after retries). Partial results discarded — a storage
    /// error never yields a silently incomplete answer.
    Storage(PageError),
}

impl<T> Outcome<T> {
    /// The completed result, if any.
    pub fn ok(self) -> Option<T> {
        match self {
            Outcome::Ok(v) => Some(v),
            _ => None,
        }
    }

    /// Whether the query completed.
    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok(_))
    }
}

/// Window query on tree `tree`: `Outcome::Ok(oids)` exactly matches a
/// direct [`PagedTree::window_query`], in the same order. Reports an
/// expired deadline or an unreadable page as the corresponding non-`Ok`
/// [`Outcome`].
pub fn window(
    trees: &TreeSet,
    tree: u16,
    rect: &Rect,
    deadline: Option<Instant>,
) -> Outcome<Vec<u64>> {
    let mut reads = Reads::new(trees, tree, deadline);
    let found = window_query_via(&mut reads, trees.trees[tree as usize].root(), rect);
    reads.outcome(found.map(|hits| hits.into_iter().map(|e| e.oid).collect()))
}

/// Best-first k-nearest-neighbor query on tree `tree`; results match
/// [`PagedTree::nearest_neighbors`], distances included. Reports an
/// expired deadline or an unreadable page as the corresponding non-`Ok`
/// [`Outcome`].
pub fn nearest(
    trees: &TreeSet,
    tree: u16,
    query: Point,
    k: usize,
    deadline: Option<Instant>,
) -> Outcome<Vec<(f64, u64)>> {
    let mut reads = Reads::new(trees, tree, deadline);
    let found = nearest_neighbors_via(&mut reads, trees.trees[tree as usize].root(), &query, k);
    reads.outcome(found.map(|hits| hits.into_iter().map(|(d, e)| (d, e.oid)).collect()))
}

/// What a completed join reports back to the server: the pairs plus the
/// kernel's phase-1 task count, so the serving layer can expose the
/// paper's parallelism counter per service.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinRun {
    /// Joined `(oid_a, oid_b)` pairs.
    pub pairs: Vec<(u64, u64)>,
    /// Phase-1 tasks created for this join.
    pub tasks: u64,
}

/// Spatial join of two loaded trees with a deadline, on `threads` workers
/// of the R-tree engine: the server passes the execution slots the request
/// holds, and the calling thread is worker 0, so a one-slot join starts no
/// thread. The join kernel reads both trees' arenas
/// itself, so neither the deadline-checked [`NodeAccess`] of the queries
/// nor an injected [`TreeSet`] fault plan applies to joins; the deadline
/// cancels the join's workers instead. A tree with load-time poisoned
/// pages is refused outright with [`Outcome::Storage`] — the direct
/// descent would read the placeholder nodes and silently return wrong
/// pairs.
///
/// `owner` restricts the result to pairs this shard *owns* (sharded
/// clusters replicate boundary items into every overlapping shard, so an
/// unrestricted fan-out would report boundary pairs once per replica):
/// a pair is kept iff its reference point — `a.xl.max(b.xl)`, the lower-x
/// edge of the MBR intersection — lies in `[lo, hi)`. The half-open
/// intervals of a shard plan tile the x-axis, so exactly one shard keeps
/// each pair. `None` keeps everything (the standalone-server case).
pub fn join(
    trees: &TreeSet,
    tree_a: u16,
    tree_b: u16,
    refine: bool,
    owner: Option<(f64, f64)>,
    threads: usize,
    deadline: Option<Instant>,
) -> Outcome<JoinRun> {
    let a = &trees.trees[tree_a as usize];
    let b = &trees.trees[tree_b as usize];
    for (idx, t) in [(tree_a, a), (tree_b, b)] {
        if t.poisoned_count() > 0 {
            let page = t.poisoned_pages().next().expect("count > 0");
            return Outcome::Storage(PageError::Corrupt {
                page,
                context: format!(
                    "tree {idx} has {} poisoned pages; joins need a fully intact index",
                    t.poisoned_count()
                ),
            });
        }
    }
    let mut cfg = NativeConfig::new(threads.max(1));
    cfg.refine = refine;
    let token = match deadline {
        Some(d) => CancelToken::with_deadline(d),
        None => CancelToken::new(),
    };
    let ctl = RunControl::default().with_cancel(&token);
    match try_run_join(a, b, &cfg, &ctl) {
        Ok(r) => {
            let mut pairs = r.pairs;
            if let Some((lo, hi)) = owner {
                retain_owned_pairs(a, b, &mut pairs, lo, hi);
            }
            Outcome::Ok(JoinRun {
                pairs,
                tasks: r.tasks as u64,
            })
        }
        Err(NativeError::Cancelled) => Outcome::DeadlineExceeded,
        Err(NativeError::Storage(e)) => Outcome::Storage(e.error),
        // Re-raise: the worker pool's panic containment (and its
        // psj_worker_panics counter) is the serving layer's designated
        // handler for panics, typed or not.
        Err(e @ NativeError::WorkerPanic { .. }) => panic!("{e}"),
    }
}

/// Keeps only the pairs whose reference point (`a.xl.max(b.xl)`) lies in
/// the owned interval `[lo, hi)`. Reference points are computed from the
/// stored MBRs, which are bit-identical across replicas of an item, so
/// every shard of a plan makes the same keep/drop decision for a pair and
/// the decisions tile: each pair survives on exactly one shard.
fn retain_owned_pairs(a: &PagedTree, b: &PagedTree, pairs: &mut Vec<(u64, u64)>, lo: f64, hi: f64) {
    let xa = leaf_xl_index(a);
    let xb = leaf_xl_index(b);
    pairs.retain(|&(oa, ob)| match (xa.get(&oa), xb.get(&ob)) {
        (Some(&ax), Some(&bx)) => {
            let r = ax.max(bx);
            lo <= r && r < hi
        }
        // A joined oid always has a leaf entry; keep rather than silently
        // drop if that invariant ever breaks.
        _ => true,
    });
}

/// oid → `mbr.xl` over a tree's leaf entries.
fn leaf_xl_index(t: &PagedTree) -> std::collections::HashMap<u64, f64> {
    let mut m = std::collections::HashMap::with_capacity(t.len() as usize);
    for p in 0..t.num_pages() {
        let node = t.frame(PageId(p as u32));
        if node.is_leaf() {
            for (i, &xl) in node.lanes().xl.iter().enumerate() {
                m.insert(node.oid(i), xl);
            }
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use psj_rtree::RTree;
    use std::time::Duration;

    fn tree(n: usize, offset: f64) -> Arc<PagedTree> {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 40) as f64 + offset;
            let y = (i / 40) as f64 + offset;
            t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
        }
        Arc::new(PagedTree::freeze(&t, |_| None))
    }

    fn set() -> TreeSet {
        TreeSet::new(vec![tree(1200, 0.0), tree(900, 0.3)]).unwrap()
    }

    /// `set()` with `plan` run before every node read.
    fn faulty(plan: &Arc<FaultPlan>) -> TreeSet {
        set().with_fault(Arc::clone(plan), RetryPolicy::default(), None)
    }

    fn direct(trees: &TreeSet, tree: u16, rect: &Rect) -> Vec<u64> {
        trees.trees[tree as usize]
            .window_query(rect)
            .iter()
            .map(|e| e.oid)
            .collect()
    }

    /// Small tiles: each touches only a few pages.
    fn tiles() -> impl Iterator<Item = Rect> {
        (0..16).map(|i| {
            let (x, y) = (((i % 4) * 9) as f64, ((i / 4) * 7) as f64);
            Rect::new(x, y, x + 3.0, y + 3.0)
        })
    }

    #[test]
    fn window_batch_matches_direct_queries() {
        let trees = set();
        for tree_idx in 0..2u16 {
            for i in 0..12 {
                let rect = Rect::new((i * 3) as f64, 2.0, (i * 3 + 6) as f64, 9.0);
                let got = window(&trees, tree_idx, &rect, None);
                assert_eq!(
                    got,
                    Outcome::Ok(direct(&trees, tree_idx, &rect)),
                    "tree {tree_idx} query {i}: same oids in the same order"
                );
            }
        }
        assert!(trees.reads.get() > 0);
        assert_eq!(
            trees.frames.get(),
            trees.reads.get(),
            "every read returned a frame"
        );
        assert_eq!((trees.retries.get(), trees.corrupt_pages()), (0, 0));
    }

    #[test]
    fn expired_member_gets_none_others_complete() {
        let trees = set();
        let rect = Rect::new(0.0, 0.0, 10.0, 10.0);
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(
            window(&trees, 0, &rect, Some(past)),
            Outcome::DeadlineExceeded,
            "expired before the root is read"
        );
        assert_eq!(trees.frames.get(), 0, "no frame was handed out");
        assert_eq!(
            window(&trees, 0, &rect, None),
            Outcome::Ok(direct(&trees, 0, &rect)),
            "the next query on the same trees is served"
        );
    }

    #[test]
    fn deadline_expiring_mid_descent_discards_partial_results() {
        // Every node read sleeps 400 ms against a 200 ms deadline: the root
        // is read in time, the deadline passes during that read, and the
        // check before the second node stops the descent.
        for nn in [false, true] {
            let plan = Arc::new(FaultPlan::new(1).with_latency(1.0, Duration::from_millis(400)));
            let trees = faulty(&plan);
            let deadline = Some(Instant::now() + Duration::from_millis(200));
            let expired = if nn {
                nearest(&trees, 0, Point::new(5.0, 5.0), 3, deadline) == Outcome::DeadlineExceeded
            } else {
                window(&trees, 0, &Rect::new(0.0, 0.0, 40.0, 40.0), deadline)
                    == Outcome::DeadlineExceeded
            };
            assert!(expired, "nearest: {nn}");
            assert_eq!(plan.latency_injected(), 1, "stopped after the root");
            assert_eq!((trees.reads.get(), trees.frames.get()), (2, 1));
        }
    }

    #[test]
    fn nearest_matches_direct() {
        let trees = set();
        let q = Point::new(11.3, 4.2);
        let got = nearest(&trees, 0, q, 7, None).ok().unwrap();
        let want = trees.trees[0].nearest_neighbors(&q, 7);
        assert_eq!(got.len(), want.len());
        for ((gd, _), (wd, _)) in got.iter().zip(&want) {
            assert_eq!(gd, wd);
        }
    }

    /// `k` comes from the client: one far past the tree's size returns the
    /// whole tree rather than sizing an allocation by it.
    #[test]
    fn nearest_with_a_huge_k_returns_every_item() {
        let trees = set();
        let got = nearest(&trees, 1, Point::new(3.0, 3.0), u32::MAX as usize, None);
        assert_eq!(got.ok().map(|v| v.len()), Some(900));
    }

    #[test]
    fn nearest_with_expired_deadline_is_none() {
        let trees = set();
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(
            nearest(&trees, 0, Point::new(1.0, 1.0), 3, Some(past)),
            Outcome::DeadlineExceeded
        );
    }

    #[test]
    fn join_matches_core_and_respects_deadline() {
        let trees = set();
        let want = psj_core::join_refined(&trees.trees[0], &trees.trees[1]);
        let got = join(&trees, 0, 1, true, None, 2, None).ok().unwrap();
        assert!(got.tasks > 0, "phase-1 task count travels with the result");
        let as_set =
            |v: &[(u64, u64)]| v.iter().copied().collect::<std::collections::BTreeSet<_>>();
        assert_eq!(as_set(&got.pairs), as_set(&want));
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            join(&trees, 0, 1, true, None, 2, Some(past)),
            Outcome::DeadlineExceeded
        );
    }

    #[test]
    fn tree_set_rejects_oversized() {
        assert!(TreeSet::new(vec![]).is_err());
    }

    #[test]
    fn owner_intervals_partition_the_join_exactly_once() {
        let trees = set();
        let all = join(&trees, 0, 1, true, None, 2, None).ok().unwrap().pairs;
        // Half-open intervals tiling the x-axis, boundary chosen to split
        // the data; pair ownership must partition the unrestricted result.
        let cuts = [f64::NEG_INFINITY, 13.0, 27.5, f64::INFINITY];
        let mut union: Vec<(u64, u64)> = Vec::new();
        let mut total = 0usize;
        for w in cuts.windows(2) {
            let owned = join(&trees, 0, 1, true, Some((w[0], w[1])), 2, None)
                .ok()
                .unwrap()
                .pairs;
            total += owned.len();
            union.extend(owned);
        }
        let as_set =
            |v: &[(u64, u64)]| v.iter().copied().collect::<std::collections::BTreeSet<_>>();
        assert_eq!(as_set(&union), as_set(&all), "intervals cover everything");
        assert_eq!(total, all.len(), "no pair owned twice");
        assert!(total > 0, "non-trivial join");
    }

    #[test]
    fn injected_corruption_degrades_to_storage_not_wrong_answers() {
        // Every read corrupt: all queries must report Storage, none may
        // return results.
        let trees = faulty(&Arc::new(FaultPlan::new(3).with_flip(1.0)));
        let got = window(&trees, 0, &Rect::new(0.0, 0.0, 40.0, 40.0), None);
        assert!(
            matches!(&got, Outcome::Storage(e) if e.is_corrupt()),
            "{got:?}"
        );
        let nn = nearest(&trees, 0, Point::new(1.0, 1.0), 3, None);
        assert!(matches!(nn, Outcome::Storage(_)), "{nn:?}");
        assert_eq!(trees.corrupt_pages(), 1, "both stopped at tree 0's root");
        assert_eq!((trees.frames.get(), trees.retries.get()), (0, 0));
    }

    /// A permanently flipped page fails every read of it the same way, and
    /// counts once however often it is read.
    #[test]
    fn an_injected_flip_fails_every_read_of_its_page() {
        for seed in 0..8u64 {
            let trees = faulty(&Arc::new(FaultPlan::new(seed).with_flip(0.3)));
            let first: Vec<_> = tiles().map(|r| window(&trees, 0, &r, None)).collect();
            let refused = trees.corrupt_pages();
            for _ in 0..3 {
                let again: Vec<_> = tiles().map(|r| window(&trees, 0, &r, None)).collect();
                assert_eq!(again, first, "seed {seed}: the same outcome every read");
            }
            assert_eq!(trees.corrupt_pages(), refused, "seed {seed}");
            let failed = first.iter().filter(|o| !o.is_ok()).count() as u64;
            assert_eq!(failed > 0, refused > 0, "seed {seed}: {first:?}");
        }
    }

    /// Transient bursts shorter than the retry budget cost retries, never
    /// an answer.
    #[test]
    fn a_transient_burst_within_the_retry_budget_succeeds() {
        let plan = Arc::new(FaultPlan::new(9).with_transient(1.0, 2));
        let trees = set().with_fault(Arc::clone(&plan), RetryPolicy::attempts(3), None);
        for rect in tiles() {
            assert_eq!(
                window(&trees, 0, &rect, None),
                Outcome::Ok(direct(&trees, 0, &rect))
            );
        }
        let q = Point::new(11.3, 4.2);
        let got = nearest(&trees, 0, q, 7, None).ok().unwrap();
        let want = trees.trees[0].nearest_neighbors(&q, 7);
        assert_eq!(
            got,
            want.iter().map(|(d, e)| (*d, e.oid)).collect::<Vec<_>>()
        );
        assert!(trees.retries.get() > 0);
        assert_eq!(trees.retries.get(), plan.transient_injected());
        assert_eq!(
            trees.frames.get(),
            trees.reads.get(),
            "every read returned a frame"
        );
    }

    /// An error on tree 1 names tree 1's own page, though the fault plan
    /// keys it together with the tree; the plan still faults each tree's
    /// pages independently.
    #[test]
    fn errors_name_the_trees_own_page() {
        let trees = faulty(&Arc::new(FaultPlan::new(3).with_flip(1.0)));
        let root = trees.trees[1].root();
        let all = Rect::new(0.0, 0.0, 40.0, 40.0);
        match window(&trees, 1, &all, None) {
            Outcome::Storage(e @ PageError::Corrupt { .. }) => {
                assert_eq!(e.page(), Some(root), "{e}");
                assert!(e.to_string().ends_with("(tree 1)"), "{e}");
            }
            other => panic!("expected a corrupt page, got {other:?}"),
        }
        assert!(!window(&trees, 0, &all, None).is_ok());
        assert_eq!(
            trees.corrupt_pages(),
            2,
            "tree 0's root is a page of its own"
        );
    }

    #[test]
    fn partial_corruption_degrades_only_affected_queries() {
        // Seeded partial plans: some queries fail with Storage, and every
        // query that completes must be exactly correct. Whether the root
        // page flips depends on the seed, so sweep several and assert both
        // outcomes occur across the sweep while the correctness invariant
        // holds in every single run.
        let (mut completed, mut failed) = (0u32, 0u32);
        for seed in 0..8u64 {
            let trees = faulty(&Arc::new(FaultPlan::new(seed).with_flip(0.3)));
            // A 30% flip rate leaves many small tiles with an all-clean
            // path.
            for (i, rect) in tiles().enumerate() {
                match window(&trees, 0, &rect, None) {
                    Outcome::Ok(oids) => {
                        completed += 1;
                        assert_eq!(
                            oids,
                            direct(&trees, 0, &rect),
                            "seed {seed} query {i} completed but wrong"
                        );
                    }
                    Outcome::Storage(e) => {
                        failed += 1;
                        assert!(e.is_corrupt(), "seed {seed} query {i}: {e}");
                    }
                    Outcome::DeadlineExceeded => panic!("no deadlines set"),
                }
            }
        }
        assert!(completed > 0, "no query ever completed across 8 seeds");
        assert!(failed > 0, "30% flips never hit any query across 8 seeds");
    }

    #[test]
    fn join_refuses_poisoned_tree() {
        // Persist a tree, corrupt a leaf page on disk, lenient-load it.
        let healthy = tree(900, 0.3);
        let victim_src = tree(1200, 0.0);
        let mut path = std::env::temp_dir();
        path.push(format!("psj-exec-poison-{}.idx", std::process::id()));
        victim_src.save_to(&path).unwrap();
        let leaf = (0..victim_src.num_pages())
            .rev()
            .find(|&n| victim_src.frame(PageId(n as u32)).is_leaf())
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let off = 30 + leaf * psj_store::PAGE_RECORD_SIZE + 100;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = PagedTree::load_from_lenient(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.tree.poisoned_count(), 1);

        let trees = TreeSet::new(vec![Arc::new(loaded.tree), healthy]).unwrap();
        assert_eq!(trees.corrupt_pages(), 1, "counted from the start");
        // The placeholder is never served: reading it is a typed error.
        match window(&trees, 0, &Rect::new(-1.0, -1.0, 50.0, 50.0), None) {
            Outcome::Storage(PageError::Corrupt { page, context }) => {
                assert_eq!(page, PageId(leaf as u32));
                assert!(context.contains("poisoned at load time"), "{context}");
            }
            other => panic!("poisoned page served: {other:?}"),
        }
        let got = join(&trees, 0, 1, true, None, 2, None);
        assert!(
            matches!(&got, Outcome::Storage(e) if e.is_corrupt()),
            "{got:?}"
        );
        // The healthy tree still serves window queries.
        let got = window(&trees, 1, &Rect::new(0.0, 0.0, 40.0, 40.0), None);
        assert!(got.is_ok(), "healthy tree unaffected");
        assert_eq!(trees.corrupt_pages(), 1, "read again, counted once");
    }
}
