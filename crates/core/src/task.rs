//! Tasks and the task-execution kernel (paper §3.1).
//!
//! A *task* is a pair of subtrees — one from each R\*-tree — whose root MBRs
//! intersect. Task creation enumerates the intersecting pairs of root
//! entries in local plane-sweep order; if there are too few compared to the
//! number of processors, the next lower level is used (§3.1: "If this
//! condition is not fulfilled, the next lower level of the R\*-trees will be
//! considered").
//!
//! The *kernel* ([`expand_pair`]) performs one step of the synchronized
//! depth-first traversal of [BKS 93]: given a pair of nodes and the
//! restriction window inherited from their parent entries, it computes the
//! intersecting entry pairs with the restricted plane sweep and either
//! yields child pairs (directory level) or candidate pairs (leaf level).
//! Both executors (simulated and native) drive this kernel.

use psj_geom::sweep::{sweep_pairs_soa, SweepScratch};
use psj_geom::Rect;
use psj_rtree::{JoinNode, PagedTree};
use psj_store::PageId;
use serde::{Deserialize, Serialize};

/// A pair of subtrees to be joined. `la`/`lb` are the levels of the nodes
/// `a`/`b` (0 = leaf); they differ only while trees of unequal height are
/// being aligned. `window` is the intersection of the parent entries' MBRs —
/// the search-space restriction of [BKS 93].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskPair {
    /// Page of the node from the first tree.
    pub a: PageId,
    /// Level of node `a`.
    pub la: u8,
    /// Page of the node from the second tree.
    pub b: PageId,
    /// Level of node `b`.
    pub lb: u8,
    /// Search-space restriction window.
    pub window: Rect,
}

impl TaskPair {
    /// The pair's level for assignment/reassignment purposes: the higher of
    /// the two node levels.
    pub fn level(&self) -> u8 {
        self.la.max(self.lb)
    }

    /// Identity key for task attribution: the node pages and levels,
    /// ignoring the (floating-point) restriction window. Two pairs over the
    /// same nodes at the same levels are the same unit of work even if
    /// their windows differ.
    pub fn key(&self) -> (u32, u32, u8, u8) {
        (self.a.0, self.b.0, self.la, self.lb)
    }
}

/// A candidate produced at the leaf level: indices of the data entries
/// within their respective leaf pages, plus those pages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Candidate {
    /// Leaf page in the first tree.
    pub page_a: PageId,
    /// Entry index within `page_a`.
    pub idx_a: u32,
    /// Leaf page in the second tree.
    pub page_b: PageId,
    /// Entry index within `page_b`.
    pub idx_b: u32,
}

/// CPU-accounting summary of one kernel step.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SweepWork {
    /// Entries scanned (after window restriction).
    pub entries: usize,
    /// Intersecting pairs produced.
    pub pairs: usize,
}

/// Reusable scratch buffers for the kernel, so executors allocate once.
/// The kernel reads MBRs from each node's SoA lanes, so no per-call
/// rectangle copies remain — only the sweep's filtered/gathered buffers and
/// the pair output.
#[derive(Debug, Default)]
pub struct KernelScratch {
    sweep: SweepScratch,
    pairs: Vec<(u32, u32)>,
}

/// Expands one node pair.
///
/// * Directory levels: child pairs are appended to `children` in local
///   plane-sweep order (callers that execute depth-first push them in
///   reverse onto their stack).
/// * Leaf level: candidate entry pairs are appended to `candidates`.
/// * Unequal levels: only the deeper-reaching side is expanded, keeping the
///   shallower node fixed, until levels align.
///
/// Generic over the node representation ([`JoinNode`]): the in-memory join
/// passes the trees' packed [`psj_rtree::FrameRef`]s, the cached join the
/// [`psj_rtree::NodeFrame`]s in its page cache, and the simulator the
/// decoded [`psj_rtree::Node`]s; all read the same lanes.
pub fn expand_pair<N: JoinNode>(
    na: &N,
    nb: &N,
    pair: &TaskPair,
    scratch: &mut KernelScratch,
    children: &mut Vec<TaskPair>,
    candidates: &mut Vec<Candidate>,
) -> SweepWork {
    debug_assert_eq!(
        na.level(),
        pair.la as u32,
        "node/page level mismatch (tree A)"
    );
    debug_assert_eq!(
        nb.level(),
        pair.lb as u32,
        "node/page level mismatch (tree B)"
    );

    if pair.la != pair.lb {
        return expand_unequal(na, nb, pair, children);
    }

    let (la, lb) = (na.lanes(), nb.lanes());
    scratch.pairs.clear();
    sweep_pairs_soa(la, lb, &pair.window, &mut scratch.sweep, &mut scratch.pairs);
    let work = SweepWork {
        entries: scratch.sweep.filt_r.len() + scratch.sweep.filt_s.len(),
        pairs: scratch.pairs.len(),
    };

    if pair.la == 0 {
        candidates.reserve(scratch.pairs.len());
        for &(i, j) in &scratch.pairs {
            candidates.push(Candidate {
                page_a: pair.a,
                idx_a: i,
                page_b: pair.b,
                idx_b: j,
            });
        }
    } else {
        children.reserve(scratch.pairs.len());
        for &(i, j) in &scratch.pairs {
            let (i, j) = (i as usize, j as usize);
            let window = la
                .rect(i)
                .intersection(&lb.rect(j))
                .expect("sweep produced a non-intersecting pair");
            children.push(TaskPair {
                a: PageId(na.child(i)),
                la: pair.la - 1,
                b: PageId(nb.child(j)),
                lb: pair.lb - 1,
                window,
            });
        }
    }
    work
}

/// Aligns trees of unequal height: descend only in the deeper side.
fn expand_unequal<N: JoinNode>(
    na: &N,
    nb: &N,
    pair: &TaskPair,
    children: &mut Vec<TaskPair>,
) -> SweepWork {
    // The deeper side's entries, each tested against the other node's MBR.
    let (deep, other) = if pair.la > pair.lb {
        (na, nb.mbr())
    } else {
        (nb, na.mbr())
    };
    let lanes = deep.lanes();
    let mut pairs = 0usize;
    for i in 0..lanes.len() {
        let mbr = lanes.rect(i);
        if mbr.intersects(&pair.window) && mbr.intersects(&other) {
            let window = mbr
                .intersection(&other)
                .expect("checked intersection")
                .intersection(&pair.window)
                .unwrap_or(pair.window);
            let child = PageId(deep.child(i));
            children.push(if pair.la > pair.lb {
                TaskPair {
                    a: child,
                    la: pair.la - 1,
                    b: pair.b,
                    lb: pair.lb,
                    window,
                }
            } else {
                TaskPair {
                    a: pair.a,
                    la: pair.la,
                    b: child,
                    lb: pair.lb - 1,
                    window,
                }
            });
            pairs += 1;
        }
    }
    SweepWork {
        entries: lanes.len(),
        pairs,
    }
}

/// Result of task creation: the tasks in local plane-sweep order, plus the
/// pages that had to be read to create them (charged to the sequential
/// phase 1 by the simulator).
#[derive(Debug, Clone)]
pub struct TaskCreation {
    /// Tasks in local plane-sweep order.
    pub tasks: Vec<TaskPair>,
    /// Pages of tree A read during creation (roots and, if descended,
    /// further directory levels).
    pub pages_a: Vec<PageId>,
    /// Pages of tree B read during creation.
    pub pages_b: Vec<PageId>,
}

impl TaskCreation {
    /// The identity keys (see [`TaskPair::key`]) of the created tasks.
    /// Executors use this set for per-task attribution: it lets a worker
    /// recognize a phase-1 task surfacing from its deque among that task's
    /// descendants.
    pub fn key_set(&self) -> std::collections::HashSet<(u32, u32, u8, u8)> {
        self.tasks.iter().map(TaskPair::key).collect()
    }
}

/// Phase 1: creates the task set for joining `a` and `b`.
///
/// Starts from the pairs of intersecting root entries (in plane-sweep
/// order); while there are fewer than `min_tasks` tasks and descending is
/// possible, every task is expanded one level.
pub fn create_tasks(a: &PagedTree, b: &PagedTree, min_tasks: usize) -> TaskCreation {
    let root_pair = TaskPair {
        a: a.root(),
        la: (a.height() - 1) as u8,
        b: b.root(),
        lb: (b.height() - 1) as u8,
        window: match a.mbr().intersection(&b.mbr()) {
            Some(w) => w,
            None => {
                // Disjoint relations: empty join, no tasks.
                return TaskCreation {
                    tasks: Vec::new(),
                    pages_a: vec![a.root()],
                    pages_b: vec![b.root()],
                };
            }
        },
    };

    let mut scratch = KernelScratch::default();
    let mut tasks = vec![root_pair];
    let mut pages_a = Vec::new();
    let mut pages_b = Vec::new();
    let mut candidates = Vec::new();

    // The root pair itself is not a task: always expand it once. Then keep
    // descending while below the task threshold.
    let mut first = true;
    while first || (tasks.len() < min_tasks && tasks.iter().any(|t| t.level() > 0)) {
        first = false;
        let mut next = Vec::with_capacity(tasks.len() * 4);
        for t in &tasks {
            if t.level() == 0 {
                // Cannot descend below the leaves; keep as a task.
                next.push(*t);
                continue;
            }
            pages_a.push(t.a);
            pages_b.push(t.b);
            let (na, nb) = (a.frame(t.a), b.frame(t.b));
            let before = candidates.len();
            expand_pair(&na, &nb, t, &mut scratch, &mut next, &mut candidates);
            debug_assert_eq!(candidates.len(), before, "expansion above leaf level");
        }
        tasks = next;
    }
    pages_a.sort_unstable();
    pages_a.dedup();
    pages_b.sort_unstable();
    pages_b.dedup();
    TaskCreation {
        tasks,
        pages_a,
        pages_b,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use psj_rtree::RTree;

    fn grid_tree(n: usize, offset: f64) -> PagedTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 30) as f64 + offset;
            let y = (i / 30) as f64 + offset;
            t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
        }
        PagedTree::freeze(&t, |_| None)
    }

    #[test]
    fn create_tasks_from_roots() {
        let a = grid_tree(600, 0.0);
        let b = grid_tree(600, 0.4);
        let tc = create_tasks(&a, &b, 1);
        assert!(!tc.tasks.is_empty());
        // All tasks one level below the roots when both trees have height ≥ 2.
        for t in &tc.tasks {
            assert_eq!(t.la as u32, a.height() - 2);
            assert_eq!(t.lb as u32, b.height() - 2);
        }
        assert_eq!(tc.pages_a, vec![a.root()]);
        assert_eq!(tc.pages_b, vec![b.root()]);
    }

    #[test]
    fn descends_when_too_few_tasks() {
        // Height-3 trees so there is a level to descend into.
        let a = grid_tree(4000, 0.0);
        let b = grid_tree(4000, 0.4);
        assert!(a.height() >= 3, "height {}", a.height());
        let shallow = create_tasks(&a, &b, 1);
        let deep = create_tasks(&a, &b, shallow.tasks.len() + 1);
        assert!(deep.tasks.len() > shallow.tasks.len());
        assert!(deep
            .tasks
            .iter()
            .all(|t| t.level() < shallow.tasks[0].level()));
        assert!(deep.pages_a.len() > 1, "descending reads level-1 pages");
    }

    #[test]
    fn disjoint_trees_produce_no_tasks() {
        let a = grid_tree(100, 0.0);
        let b = grid_tree(100, 1000.0);
        let tc = create_tasks(&a, &b, 8);
        assert!(tc.tasks.is_empty());
    }

    #[test]
    fn single_leaf_trees() {
        let a = grid_tree(5, 0.0);
        let b = grid_tree(5, 0.2);
        // Height-1 trees: the only "task" is the root (leaf) pair itself.
        let tc = create_tasks(&a, &b, 4);
        assert_eq!(tc.tasks.len(), 1);
        assert_eq!(tc.tasks[0].level(), 0);
    }

    #[test]
    fn expand_pair_levels_align_for_unequal_heights() {
        let a = grid_tree(900, 0.0); // taller
        let b = grid_tree(20, 0.3); // single leaf
        assert!(a.height() > b.height());
        let tc = create_tasks(&a, &b, 1);
        for t in &tc.tasks {
            // The shallow side stays at level 0 while A descends.
            assert_eq!(t.lb, 0);
        }
        // Expanding down to equal levels eventually yields candidates.
        let mut scratch = KernelScratch::default();
        let mut stack = tc.tasks.clone();
        let mut candidates = Vec::new();
        let mut steps = 0;
        while let Some(p) = stack.pop() {
            steps += 1;
            assert!(steps < 100_000, "runaway expansion");
            let na = a.node(p.a);
            let nb = b.node(p.b);
            expand_pair(na, nb, &p, &mut scratch, &mut stack, &mut candidates);
        }
        assert!(!candidates.is_empty());
    }

    #[test]
    fn kernel_candidates_match_brute_force() {
        let a = grid_tree(300, 0.0);
        let b = grid_tree(300, 0.45);
        let tc = create_tasks(&a, &b, 1);
        let mut scratch = KernelScratch::default();
        let mut stack = tc.tasks.clone();
        let mut candidates = Vec::new();
        while let Some(p) = stack.pop() {
            let na = a.node(p.a);
            let nb = b.node(p.b);
            expand_pair(na, nb, &p, &mut scratch, &mut stack, &mut candidates);
        }
        // Resolve to oid pairs.
        let mut got: Vec<(u64, u64)> = candidates
            .iter()
            .map(|c| {
                (
                    a.node(c.page_a).data_entries()[c.idx_a as usize].oid,
                    b.node(c.page_b).data_entries()[c.idx_b as usize].oid,
                )
            })
            .collect();
        got.sort_unstable();
        got.dedup();
        let all_a = a.window_query(&a.mbr());
        let all_b = b.window_query(&b.mbr());
        let mut want: Vec<(u64, u64)> = Vec::new();
        for ea in &all_a {
            for eb in &all_b {
                if ea.mbr.intersects(&eb.mbr) {
                    want.push((ea.oid, eb.oid));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn tasks_are_in_plane_sweep_order() {
        let a = grid_tree(600, 0.0);
        let b = grid_tree(600, 0.4);
        let tc = create_tasks(&a, &b, 1);
        let stops: Vec<f64> = tc.tasks.iter().map(|t| t.window.xl).collect();
        // The restriction windows' xl values are monotone along the task
        // order modulo equal stops; allow tiny non-monotonicity only within
        // a stop (identical xl).
        assert!(
            stops.windows(2).filter(|w| w[0] > w[1] + 1e-9).count() <= stops.len() / 10,
            "task order strays far from sweep order: {stops:?}"
        );
    }
}
