//! Sequential spatial join (the [BKS 93] algorithm, paper §2.2).
//!
//! Synchronized depth-first traversal of two R\*-trees with the two tuning
//! techniques: search-space restriction and plane-sweep pair computation.
//! This is both the baseline (`t(1)` semantics for the speed-up figures) and
//! the correctness oracle for the parallel executors.

use crate::task::{create_tasks, expand_pair, Candidate, KernelScratch, TaskPair};
use psj_geom::polyline::intersects;
use psj_rtree::{JoinNode, PagedTree};
use serde::{Deserialize, Serialize};

/// Result of a sequential join.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SeqJoinResult {
    /// Candidate pairs `(oid_a, oid_b)` of the filter step, in the order the
    /// traversal produced them (local plane-sweep order).
    pub candidates: Vec<(u64, u64)>,
    /// Number of node pairs visited.
    pub node_pairs: u64,
    /// Number of page reads a cold single-page-buffer traversal would issue
    /// (every distinct node access of the traversal, path buffer excluded).
    pub node_accesses: u64,
}

/// Runs the filter step sequentially and returns all candidate pairs.
pub fn join_candidates(a: &PagedTree, b: &PagedTree) -> SeqJoinResult {
    let tc = create_tasks(a, b, 1);
    let mut scratch = KernelScratch::default();
    let mut stack: Vec<TaskPair> = Vec::new();
    let mut children: Vec<TaskPair> = Vec::new();
    let mut cands: Vec<Candidate> = Vec::new();
    let mut out = Vec::new();
    let mut node_pairs = 0u64;
    // The oracle reads the trees' packed frames, as the in-memory join
    // does: one read per (page, step).

    // Tasks are executed in plane-sweep order; within a task the traversal
    // is depth-first, again in sweep order.
    for task in tc.tasks.iter() {
        stack.push(*task);
        while let Some(pair) = stack.pop() {
            node_pairs += 1;
            let (na, nb) = (a.frame(pair.a), b.frame(pair.b));
            children.clear();
            let before = cands.len();
            expand_pair(&na, &nb, &pair, &mut scratch, &mut children, &mut cands);
            // Depth-first in sweep order: push in reverse.
            stack.extend(children.drain(..).rev());
            if cands.len() > before {
                // All candidates from one expansion share (page_a, page_b):
                // resolve them from the two frames in hand.
                for c in &cands[before..] {
                    out.push((na.oid(c.idx_a as usize), nb.oid(c.idx_b as usize)));
                }
            }
            cands.truncate(before);
        }
    }
    SeqJoinResult {
        candidates: out,
        node_pairs,
        node_accesses: node_pairs * 2,
    }
}

/// Runs the full join sequentially: filter step plus *exact* refinement
/// using the polyline geometry stored in the trees' clusters. Candidates
/// whose geometry is missing on either side are kept conservatively (a
/// candidate can only be refuted by exact geometry).
pub fn join_refined(a: &PagedTree, b: &PagedTree) -> Vec<(u64, u64)> {
    let tc = create_tasks(a, b, 1);
    let mut scratch = KernelScratch::default();
    let mut stack: Vec<TaskPair> = tc.tasks.iter().rev().copied().collect();
    let mut children = Vec::new();
    let mut cands: Vec<Candidate> = Vec::new();
    let mut out = Vec::new();
    while let Some(pair) = stack.pop() {
        let (na, nb) = (a.frame(pair.a), b.frame(pair.b));
        children.clear();
        cands.clear();
        expand_pair(&na, &nb, &pair, &mut scratch, &mut children, &mut cands);
        stack.extend(children.drain(..).rev());
        if cands.is_empty() {
            continue;
        }
        // Resolved from the two frames in hand, as above.
        for c in &cands {
            let (ia, ib) = (c.idx_a as usize, c.idx_b as usize);
            let (ra, rb) = (na.geom(ia), nb.geom(ib));
            let ga = a.clusters().geometry(ra.page, ra.slot);
            let gb = b.clusters().geometry(rb.page, rb.slot);
            let hit = match (ga, gb) {
                (Some(ga), Some(gb)) => intersects(ga, gb),
                _ => true, // no exact geometry: cannot refute the candidate
            };
            if hit {
                out.push((na.oid(ia), nb.oid(ib)));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use psj_geom::{Point, Polyline, Rect};
    use psj_rtree::RTree;

    fn diag_tree(n: usize, offset: f64) -> PagedTree {
        let mut t = RTree::new();
        let mut geoms = Vec::new();
        for i in 0..n {
            let x = (i % 25) as f64 + offset;
            let y = (i / 25) as f64 + offset;
            t.insert(Rect::new(x, y, x + 1.0, y + 1.0), i as u64);
            geoms.push(Polyline::new(vec![
                Point::new(x, y),
                Point::new(x + 1.0, y + 1.0),
            ]));
        }
        PagedTree::freeze(&t, move |oid| Some(geoms[oid as usize].clone()))
    }

    #[test]
    fn candidates_match_brute_force() {
        let a = diag_tree(400, 0.0);
        let b = diag_tree(400, 0.5);
        let res = join_candidates(&a, &b);
        let mut got = res.candidates.clone();
        got.sort_unstable();
        let mut want = Vec::new();
        for ea in a.window_query(&a.mbr()) {
            for eb in b.window_query(&b.mbr()) {
                if ea.mbr.intersects(&eb.mbr) {
                    want.push((ea.oid, eb.oid));
                }
            }
        }
        want.sort_unstable();
        assert_eq!(got, want);
        assert!(res.node_pairs > 0);
    }

    #[test]
    fn no_duplicate_candidates() {
        let a = diag_tree(400, 0.0);
        let b = diag_tree(400, 0.5);
        let res = join_candidates(&a, &b);
        let mut sorted = res.candidates.clone();
        sorted.sort_unstable();
        let before = sorted.len();
        sorted.dedup();
        assert_eq!(before, sorted.len());
    }

    #[test]
    fn self_join_contains_diagonal() {
        let a = diag_tree(200, 0.0);
        let res = join_candidates(&a, &a);
        for i in 0..200u64 {
            assert!(res.candidates.contains(&(i, i)), "missing ({i},{i})");
        }
    }

    #[test]
    fn refinement_filters_false_hits() {
        // Diagonal lines in adjacent unit cells: MBRs of horizontally
        // adjacent cells touch, but the diagonals only meet when the cells
        // actually share the diagonal's endpoint corner.
        let a = diag_tree(400, 0.0);
        let b = diag_tree(400, 0.5);
        let filter = join_candidates(&a, &b).candidates.len();
        let refined = join_refined(&a, &b).len();
        assert!(refined <= filter);
        assert!(refined > 0, "refinement must keep true intersections");
        // Exactness: every refined pair's geometry truly intersects.
        for (oa, ob) in join_refined(&a, &b) {
            let ea = a
                .window_query(&a.mbr())
                .into_iter()
                .find(|e| e.oid == oa)
                .unwrap();
            let ga = a.clusters().geometry(ea.geom.page, ea.geom.slot).unwrap();
            let eb = b
                .window_query(&b.mbr())
                .into_iter()
                .find(|e| e.oid == ob)
                .unwrap();
            let gb = b.clusters().geometry(eb.geom.page, eb.geom.slot).unwrap();
            assert!(intersects(ga, gb));
        }
    }

    #[test]
    fn empty_join_for_disjoint_maps() {
        let a = diag_tree(100, 0.0);
        let b = diag_tree(100, 500.0);
        assert!(join_candidates(&a, &b).candidates.is_empty());
        assert!(join_refined(&a, &b).is_empty());
    }
}
