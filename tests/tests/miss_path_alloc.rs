//! The out-of-core join's miss path performs no heap allocation: a miss
//! reserves a slot of the page cache (evicting an unpinned page) and
//! copies the page's used words from the tree's arena into it in place.
//!
//! This binary counts allocations per thread with its own global
//! allocator, replays a join's page requests — in the order a worker reads
//! them — through a cache an eighth of both trees (the out-of-core
//! benchmark's shape), and requires the second replay, hundreds of misses
//! and evictions, to allocate nothing. The first replay only lets the
//! shards' bookkeeping maps reach their working size.

use psj_buffer::{PageSource, Policy, SharedPageCache};
use psj_core::{create_tasks, expand_pair, KernelScratch, TaskPair};
use psj_integration::harness::JoinScenario;
use psj_rtree::{FrameRef, JoinNode, NodeFrame, PagedTree};
use psj_store::{PageError, PageId};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;
use std::mem::MaybeUninit;

struct CountingAlloc;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to the system allocator unchanged.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `layout` carry over.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// High bit separating tree B's pages from tree A's, as the executor's
/// page source does.
const TREE_B: u32 = 1 << 31;

/// Frames copied from both trees' page arenas, in place.
struct Frames<'t> {
    a: &'t PagedTree,
    b: &'t PagedTree,
}

impl<'t> Frames<'t> {
    fn page(&self, page: PageId) -> FrameRef<'t> {
        if page.0 & TREE_B != 0 {
            self.b.pages().read(PageId(page.0 & !TREE_B))
        } else {
            self.a.pages().read(page)
        }
    }
}

impl PageSource for Frames<'_> {
    type Item = NodeFrame;

    fn fetch_page(&self, page: PageId) -> Result<NodeFrame, PageError> {
        Ok(NodeFrame::from_frame(self.page(page)))
    }

    fn page_count(&self) -> usize {
        self.a.num_pages() + self.b.num_pages()
    }

    fn fill_page<'s>(
        &self,
        page: PageId,
        slot: &'s mut MaybeUninit<NodeFrame>,
    ) -> Result<&'s mut NodeFrame, PageError> {
        Ok(NodeFrame::fill(self.page(page), slot))
    }
}

/// The node pairs a one-worker join visits, in its depth-first order.
fn visited_pairs(a: &PagedTree, b: &PagedTree) -> Vec<TaskPair> {
    let mut scratch = KernelScratch::default();
    let (mut stack, mut children, mut candidates) = (Vec::new(), Vec::new(), Vec::new());
    let mut visited = Vec::new();
    for task in create_tasks(a, b, 8).tasks {
        stack.push(task);
        while let Some(pair) = stack.pop() {
            children.clear();
            let (na, nb) = (a.node(pair.a), b.node(pair.b));
            expand_pair(na, nb, &pair, &mut scratch, &mut children, &mut candidates);
            stack.extend(children.drain(..).rev());
            visited.push(pair);
        }
    }
    visited
}

#[test]
fn join_miss_path_allocates_nothing() {
    let s = JoinScenario::paper_maps("miss-path-alloc", 5, 0.05);
    let visited = visited_pairs(&s.a, &s.b);
    let source = Frames { a: &s.a, b: &s.b };
    let cache: SharedPageCache<NodeFrame> =
        SharedPageCache::new(1, s.total_pages() / 8, 8, Policy::Lru);
    // Each pair holds both nodes while it is expanded, as a worker does.
    let replay = || {
        for pair in &visited {
            let na = cache.get(0, pair.a, &source);
            let nb = cache.get(0, PageId(pair.b.0 | TREE_B), &source);
            black_box((na.lanes().len(), nb.lanes().len()));
        }
    };
    replay();
    let before = cache.total_stats();
    let allocated = allocations();
    replay();
    let allocated = allocations() - allocated;
    let replayed = cache.total_stats().since(&before);
    assert_eq!(replayed.requests(), 2 * visited.len() as u64);
    assert!(
        replayed.misses > 500 && replayed.evictions > 500,
        "the replay must churn the cache: {replayed:?}"
    );
    assert_eq!(cache.unbuffered(), 0);
    assert_eq!(
        allocated, 0,
        "{} misses and {} evictions allocated {allocated} times",
        replayed.misses, replayed.evictions
    );
}
