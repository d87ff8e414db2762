//! Query execution against the shared page cache.
//!
//! The server pins every loaded tree's pages behind one
//! [`SharedPageCache<Node>`]: all node accesses of all concurrent requests
//! go through it, so the cache's budget bounds decoded-node residency
//! across the whole service and its hit/miss counters describe real
//! cross-request sharing. Page keys combine the tree index (upper bits)
//! with the page number (lower [`TREE_SHIFT`] bits).
//!
//! Two traversals live here, one query each: [`window`], a depth-first
//! descent, and [`nearest`], best-first kNN. Both check their deadline
//! cooperatively at every node fetch; an expired query stops at once and
//! its partial results are discarded.
//!
//! # Storage failures
//!
//! Every traversal returns an [`Outcome`]: a page that cannot be read —
//! quarantined by the cache, poisoned at (lenient) load time, or failed by
//! an injected [`FaultPlan`] — degrades only the queries that needed that
//! page, to [`Outcome::Storage`]; queries on healthy subtrees complete
//! normally, and other trees are entirely unaffected. A query never
//! returns a silently partial result: if any page it touched was
//! unreadable, the whole query reports the storage error.

use psj_buffer::{PageRef, SharedPageCache};
use psj_core::{try_run_join, CancelToken, JoinEngine, NativeConfig, NativeError, RunControl};
use psj_geom::{Point, Rect};
use psj_rtree::nn::min_dist;
use psj_rtree::{JoinNode, Node, NodeAccess, NodeKind, PagedTree};
use psj_store::{FaultPlan, PageError, PageId};
use std::cmp::Ordering as CmpOrdering;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

/// Low bits of a cache key hold the page number; upper bits the tree index.
pub const TREE_SHIFT: u32 = 24;

/// Maximum number of trees a server can load (tree index fits the key's
/// upper bits with the sign-ish top bit spare).
pub const MAX_TREES: usize = 127;

/// The trees a server instance exposes, indexed by position.
#[derive(Debug)]
pub struct TreeSet {
    trees: Vec<Arc<PagedTree>>,
    /// Injected fault plan applied to every cache fill (testing/chaos).
    fault: Option<Arc<FaultPlan>>,
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
        Ok(TreeSet { trees, fault: None })
    }

    /// Applies an injected fault plan to every subsequent cache fill.
    pub fn with_fault(mut self, plan: Arc<FaultPlan>) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Total pages poisoned at load time across all trees.
    pub fn poisoned_total(&self) -> u64 {
        self.trees.iter().map(|t| t.poisoned_count() as u64).sum()
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

    /// Total pages across all trees.
    pub fn total_pages(&self) -> usize {
        self.trees.iter().map(|t| t.num_pages()).sum()
    }

    fn key(&self, tree: usize, page: PageId) -> PageId {
        PageId(((tree as u32) << TREE_SHIFT) | page.0)
    }
}

impl psj_buffer::PageSource for TreeSet {
    type Item = Node;

    fn fetch_page(&self, key: PageId) -> Result<Node, PageError> {
        let tree = (key.0 >> TREE_SHIFT) as usize;
        let page = PageId(key.0 & ((1 << TREE_SHIFT) - 1));
        // Pages poisoned at (lenient) load time hold placeholder nodes;
        // serving one would silently return wrong answers.
        if self.trees[tree].is_poisoned(page) {
            return Err(PageError::Corrupt {
                page: key,
                context: format!("tree {tree} {page} poisoned at load time"),
            });
        }
        if let Some(plan) = &self.fault {
            plan.before_fetch(key)?;
        }
        Ok(Node::decode(self.trees[tree].frame(page)))
    }

    fn page_count(&self) -> usize {
        self.total_pages()
    }
}

/// Cache-backed [`NodeAccess`] over one tree of a [`TreeSet`]: every read
/// goes through [`SharedPageCache::try_get`], so a resident page is a
/// borrowing guard and only a miss or a slot mid-replacement takes the
/// mutex.
struct CachedNodes<'c> {
    trees: &'c TreeSet,
    cache: &'c SharedPageCache<Node>,
    worker: usize,
    tree: usize,
}

impl NodeAccess for CachedNodes<'_> {
    type Ref<'a>
        = PageRef<'a, Node>
    where
        Self: 'a;

    fn read(&mut self, page: PageId) -> Result<PageRef<'_, Node>, PageError> {
        let key = self.trees.key(self.tree, page);
        self.cache.try_get(self.worker, key, self.trees)
    }
}

/// How one query ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome<T> {
    /// The query completed; results are exact.
    Ok(T),
    /// The deadline expired mid-traversal; partial results discarded.
    DeadlineExceeded,
    /// A page the query needed could not be read (corrupt, quarantined, or
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

/// Window query on tree `tree` through `cache`; `worker` indexes the
/// cache's per-worker statistics. `Outcome::Ok(oids)` exactly matches a
/// direct [`PagedTree::window_query`], in the same order. Reports an
/// expired deadline or an unreadable page as the corresponding non-`Ok`
/// [`Outcome`].
pub fn window(
    trees: &TreeSet,
    cache: &SharedPageCache<Node>,
    worker: usize,
    tree: u16,
    rect: &Rect,
    deadline: Option<Instant>,
) -> Outcome<Vec<u64>> {
    let t = &trees.trees[tree as usize];
    let mut out = Vec::new();
    if t.is_empty() {
        return Outcome::Ok(out);
    }
    let mut access = CachedNodes {
        trees,
        cache,
        worker,
        tree: tree as usize,
    };
    let mut stack = vec![t.root()];
    while let Some(page) = stack.pop() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Outcome::DeadlineExceeded;
        }
        let node = match access.read(page) {
            Ok(node) => node,
            Err(e) => return Outcome::Storage(e),
        };
        match &node.kind {
            NodeKind::Dir(entries) => {
                for e in entries {
                    if e.mbr.intersects(rect) {
                        stack.push(PageId(e.child));
                    }
                }
            }
            NodeKind::Leaf(entries) => {
                for e in entries {
                    if e.mbr.intersects(rect) {
                        out.push(e.oid);
                    }
                }
            }
        }
    }
    Outcome::Ok(out)
}

struct HeapItem {
    dist: f64,
    entry: HeapEntry,
}

enum HeapEntry {
    Node(PageId),
    Data(u64),
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == CmpOrdering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<CmpOrdering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> CmpOrdering {
        // Min-heap on distance. `total_cmp` keeps the order total even if a
        // decoded page carries NaN coordinates (NaN sorts last), so a
        // corrupt rectangle cannot break the heap invariant mid-query.
        other.dist.total_cmp(&self.dist)
    }
}

/// Best-first k-nearest-neighbor query through the cache; results match
/// [`PagedTree::nearest_neighbors`]. Reports an expired deadline or an
/// unreadable page as the corresponding non-`Ok` [`Outcome`].
pub fn nearest(
    trees: &TreeSet,
    cache: &SharedPageCache<Node>,
    worker: usize,
    tree: u16,
    query: Point,
    k: usize,
    deadline: Option<Instant>,
) -> Outcome<Vec<(f64, u64)>> {
    let t = &trees.trees[tree as usize];
    let tree_idx = tree as usize;
    let mut out = Vec::with_capacity(k.min(64));
    if k == 0 || t.is_empty() {
        return Outcome::Ok(out);
    }
    let mut access = CachedNodes {
        trees,
        cache,
        worker,
        tree: tree_idx,
    };
    let mut heap = BinaryHeap::new();
    heap.push(HeapItem {
        dist: 0.0,
        entry: HeapEntry::Node(t.root()),
    });
    while let Some(HeapItem { dist, entry }) = heap.pop() {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            return Outcome::DeadlineExceeded;
        }
        match entry {
            HeapEntry::Node(page) => {
                let node = match access.read(page) {
                    Ok(node) => node,
                    Err(e) => return Outcome::Storage(e),
                };
                match &node.kind {
                    NodeKind::Dir(entries) => {
                        for e in entries {
                            heap.push(HeapItem {
                                dist: min_dist(&query, &e.mbr),
                                entry: HeapEntry::Node(PageId(e.child)),
                            });
                        }
                    }
                    NodeKind::Leaf(entries) => {
                        for e in entries {
                            heap.push(HeapItem {
                                dist: min_dist(&query, &e.mbr),
                                entry: HeapEntry::Data(e.oid),
                            });
                        }
                    }
                }
            }
            HeapEntry::Data(oid) => {
                out.push((dist, oid));
                if out.len() == k {
                    break;
                }
            }
        }
    }
    Outcome::Ok(out)
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

/// Join-executor tuning copied from the server configuration: thread count
/// and engine, threaded through to [`NativeConfig`].
#[derive(Debug, Clone, Copy)]
pub struct JoinTuning {
    /// Worker threads per join request.
    pub threads: usize,
    /// Join engine: the R-tree traversal or the in-memory grid partition,
    /// as configured; nothing picks one per request. Served joins descend
    /// frozen trees directly (no page cache), so either engine is safe here.
    pub engine: JoinEngine,
}

impl JoinTuning {
    /// The R-tree engine at the given thread count.
    pub fn threads(threads: usize) -> Self {
        JoinTuning {
            threads,
            engine: JoinEngine::RTree,
        }
    }
}

/// Spatial join of two loaded trees with a deadline, on `tuning.threads`
/// worker threads. Joins descend the frozen trees directly (their node accesses
/// are not routed through the query cache: the join kernel has its own
/// buffer-organization machinery studied by the paper, and sharing the
/// query cache's key space across arbitrary tree *pairs* would alias; for
/// the same reason, an injected [`TreeSet`] fault plan does not apply to
/// joins). A tree with load-time poisoned pages is refused outright with
/// [`Outcome::Storage`] — the direct descent would read the placeholder
/// nodes and silently return wrong pairs.
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
    tuning: JoinTuning,
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
    let mut cfg = NativeConfig::new(tuning.threads.max(1));
    cfg.refine = refine;
    cfg.engine = tuning.engine;
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
    use psj_buffer::Policy;
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

    fn direct(trees: &TreeSet, tree: u16, rect: &Rect) -> Vec<u64> {
        trees.trees[tree as usize]
            .window_query(rect)
            .iter()
            .map(|e| e.oid)
            .collect()
    }

    #[test]
    fn window_batch_matches_direct_queries() {
        let trees = set();
        let cache = SharedPageCache::new(1, 256, 4, Policy::Lru);
        for tree_idx in 0..2u16 {
            for i in 0..12 {
                let rect = Rect::new((i * 3) as f64, 2.0, (i * 3 + 6) as f64, 9.0);
                let got = window(&trees, &cache, 0, tree_idx, &rect, None);
                assert_eq!(
                    got,
                    Outcome::Ok(direct(&trees, tree_idx, &rect)),
                    "tree {tree_idx} query {i}: same oids in the same order"
                );
            }
        }
    }

    #[test]
    fn window_batch_under_tiny_cache_still_correct() {
        let trees = set();
        let cache = SharedPageCache::new(1, 2, 1, Policy::Lru);
        let rect = Rect::new(0.0, 0.0, 40.0, 40.0);
        let got = window(&trees, &cache, 0, 0, &rect, None);
        assert_eq!(got, Outcome::Ok(direct(&trees, 0, &rect)));
        assert!(cache.total_stats().evictions > 0, "tiny cache thrashes");
    }

    #[test]
    fn expired_member_gets_none_others_complete() {
        let trees = set();
        let cache = SharedPageCache::new(1, 256, 4, Policy::Lru);
        let rect = Rect::new(0.0, 0.0, 10.0, 10.0);
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(
            window(&trees, &cache, 0, 0, &rect, Some(past)),
            Outcome::DeadlineExceeded,
            "expired before the root is read"
        );
        assert_eq!(
            window(&trees, &cache, 0, 0, &rect, None),
            Outcome::Ok(direct(&trees, 0, &rect)),
            "the next query on the same cache is served"
        );
    }

    #[test]
    fn deadline_expiring_mid_descent_discards_partial_results() {
        // Every page fill sleeps 400 ms against a 200 ms deadline: the root
        // is read in time, the deadline passes during that read, and the
        // check before the second node stops the descent.
        let plan = Arc::new(FaultPlan::new(1).with_latency(1.0, Duration::from_millis(400)));
        let trees = set().with_fault(Arc::clone(&plan));
        let cache = SharedPageCache::new(1, 256, 4, Policy::Lru);
        let deadline = Instant::now() + Duration::from_millis(200);
        assert_eq!(
            window(
                &trees,
                &cache,
                0,
                0,
                &Rect::new(0.0, 0.0, 40.0, 40.0),
                Some(deadline)
            ),
            Outcome::DeadlineExceeded
        );
        assert_eq!(plan.latency_injected(), 1, "stopped after the root");
    }

    #[test]
    fn nearest_matches_direct() {
        let trees = set();
        let cache = SharedPageCache::new(1, 256, 4, Policy::Lru);
        let q = Point::new(11.3, 4.2);
        let got = nearest(&trees, &cache, 0, 0, q, 7, None).ok().unwrap();
        let want = trees.trees[0].nearest_neighbors(&q, 7);
        assert_eq!(got.len(), want.len());
        for ((gd, _), (wd, _)) in got.iter().zip(&want) {
            assert_eq!(gd, wd);
        }
    }

    #[test]
    fn nearest_with_expired_deadline_is_none() {
        let trees = set();
        let cache = SharedPageCache::new(1, 256, 4, Policy::Lru);
        let past = Instant::now() - Duration::from_millis(5);
        assert_eq!(
            nearest(&trees, &cache, 0, 0, Point::new(1.0, 1.0), 3, Some(past)),
            Outcome::DeadlineExceeded
        );
    }

    #[test]
    fn join_matches_core_and_respects_deadline() {
        let trees = set();
        let want = psj_core::join_refined(&trees.trees[0], &trees.trees[1]);
        let got = join(&trees, 0, 1, true, None, JoinTuning::threads(2), None)
            .ok()
            .unwrap();
        assert!(got.tasks > 0, "phase-1 task count travels with the result");
        let as_set =
            |v: &[(u64, u64)]| v.iter().copied().collect::<std::collections::BTreeSet<_>>();
        assert_eq!(as_set(&got.pairs), as_set(&want));
        let past = Instant::now() - Duration::from_millis(1);
        assert_eq!(
            join(&trees, 0, 1, true, None, JoinTuning::threads(2), Some(past)),
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
        let all = join(&trees, 0, 1, true, None, JoinTuning::threads(2), None)
            .ok()
            .unwrap()
            .pairs;
        // Half-open intervals tiling the x-axis, boundary chosen to split
        // the data; pair ownership must partition the unrestricted result.
        let cuts = [f64::NEG_INFINITY, 13.0, 27.5, f64::INFINITY];
        let mut union: Vec<(u64, u64)> = Vec::new();
        let mut total = 0usize;
        for w in cuts.windows(2) {
            let owned = join(
                &trees,
                0,
                1,
                true,
                Some((w[0], w[1])),
                JoinTuning::threads(2),
                None,
            )
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
        // Every fetch corrupt: all queries must report Storage, none may
        // return results.
        let trees = set().with_fault(Arc::new(FaultPlan::new(3).with_flip(1.0)));
        let cache = SharedPageCache::new(1, 256, 4, Policy::Lru);
        let got = window(&trees, &cache, 0, 0, &Rect::new(0.0, 0.0, 40.0, 40.0), None);
        assert!(
            matches!(&got, Outcome::Storage(e) if e.is_corrupt()),
            "{got:?}"
        );
        let nn = nearest(&trees, &cache, 0, 0, Point::new(1.0, 1.0), 3, None);
        assert!(matches!(nn, Outcome::Storage(_)), "{nn:?}");
        assert!(cache.corrupt_detected() > 0);
        assert!(cache.quarantined_pages() > 0);
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
            let trees = set().with_fault(Arc::new(FaultPlan::new(seed).with_flip(0.3)));
            let cache = SharedPageCache::new(1, 256, 4, Policy::Lru);
            // Small tiles: each touches only a few pages, so a 30% flip
            // rate leaves many queries with an all-clean path.
            for i in 0..16 {
                let (x, y) = (((i % 4) * 9) as f64, ((i / 4) * 7) as f64);
                let rect = Rect::new(x, y, x + 3.0, y + 3.0);
                match window(&trees, &cache, 0, 0, &rect, None) {
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
            .find(|&n| victim_src.node(PageId(n as u32)).is_leaf())
            .unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let off = 30 + leaf * psj_store::PAGE_RECORD_SIZE + 100;
        bytes[off] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let loaded = PagedTree::load_from_lenient(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert_eq!(loaded.tree.poisoned_count(), 1);

        let trees = TreeSet::new(vec![Arc::new(loaded.tree), healthy]).unwrap();
        // The placeholder is never served: its fetch is a typed error.
        let key = trees.key(0, PageId(leaf as u32));
        match psj_buffer::PageSource::fetch_page(&trees, key) {
            Err(PageError::Corrupt { page, context }) => {
                assert_eq!(page, key);
                assert!(context.contains("poisoned at load time"), "{context}");
            }
            other => panic!("poisoned page fetched: {other:?}"),
        }
        let got = join(&trees, 0, 1, true, None, JoinTuning::threads(2), None);
        assert!(
            matches!(&got, Outcome::Storage(e) if e.is_corrupt()),
            "{got:?}"
        );
        // The healthy tree still serves window queries.
        let cache = SharedPageCache::new(1, 256, 4, Policy::Lru);
        let got = window(&trees, &cache, 0, 1, &Rect::new(0.0, 0.0, 40.0, 40.0), None);
        assert!(got.is_ok(), "healthy tree unaffected");
    }
}
