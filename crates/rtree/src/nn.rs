//! Nearest-neighbor queries (best-first branch and bound, Hjaltason &
//! Samet style).
//!
//! The paper's future work names neighbor queries as the next operator to
//! integrate with parallel spatial query processing; the sequential
//! building block is provided here for both tree forms.

use crate::access::NodeAccess;
use crate::entry::DataEntry;
use crate::frame::JoinNode;
use crate::node::NodeKind;
use crate::paged::PagedTree;
use crate::tree::RTree;
use psj_geom::{Point, Rect};
use psj_store::PageId;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Minimum distance between a point and a rectangle (0 when inside).
pub fn min_dist(p: &Point, r: &Rect) -> f64 {
    let dx = (r.xl - p.x).max(0.0).max(p.x - r.xu);
    let dy = (r.yl - p.y).max(0.0).max(p.y - r.yu);
    (dx * dx + dy * dy).sqrt()
}

/// Heap element ordered by ascending distance.
struct HeapItem<T> {
    dist: f64,
    item: T,
}

impl<T> PartialEq for HeapItem<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for HeapItem<T> {}
impl<T> PartialOrd for HeapItem<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapItem<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on distance. `total_cmp` keeps Eq/Ord
        // consistent even for NaN distances (possible when a corrupt or
        // adversarial rectangle carries NaN coordinates): NaN sorts after
        // every finite distance, so such candidates drain last instead of
        // corrupting the heap's ordering invariant.
        other.dist.total_cmp(&self.dist)
    }
}

enum Candidate {
    Node(u32),
    Entry(DataEntry),
}

impl RTree {
    /// The `k` data entries whose MBRs are nearest to `query`, ascending by
    /// distance (ties in arbitrary order). Returns fewer than `k` when the
    /// tree is smaller.
    pub fn nearest_neighbors(&self, query: &Point, k: usize) -> Vec<(f64, DataEntry)> {
        if k == 0 || self.is_empty() {
            return Vec::new();
        }
        let mut heap: BinaryHeap<HeapItem<Candidate>> = BinaryHeap::new();
        heap.push(HeapItem {
            dist: 0.0,
            item: Candidate::Node(self.root()),
        });
        let mut out = Vec::with_capacity(k);
        while let Some(HeapItem { dist, item }) = heap.pop() {
            match item {
                Candidate::Node(idx) => match &self.node(idx).kind {
                    NodeKind::Dir(entries) => {
                        for e in entries {
                            heap.push(HeapItem {
                                dist: min_dist(query, &e.mbr),
                                item: Candidate::Node(e.child),
                            });
                        }
                    }
                    NodeKind::Leaf(entries) => {
                        for e in entries {
                            heap.push(HeapItem {
                                dist: min_dist(query, &e.mbr),
                                item: Candidate::Entry(*e),
                            });
                        }
                    }
                },
                Candidate::Entry(e) => {
                    out.push((dist, e));
                    if out.len() == k {
                        break;
                    }
                }
            }
        }
        out
    }
}

enum PagedCandidate {
    Node(PageId),
    Entry(DataEntry),
}

/// Best-first k-NN descent over any [`NodeAccess`]: identical candidate
/// order to [`RTree::nearest_neighbors`], so the in-memory delegation in
/// [`PagedTree::nearest_neighbors`] and any cache-backed accessor produce
/// the same distance sequence. Each node borrow is dropped before the next
/// page is read, so pin-guard accessors hold at most one pin at a time.
pub fn nearest_neighbors_via<A: NodeAccess>(
    access: &mut A,
    root: PageId,
    query: &Point,
    k: usize,
) -> Result<Vec<(f64, DataEntry)>, psj_store::PageError> {
    if k == 0 {
        return Ok(Vec::new());
    }
    let mut heap: BinaryHeap<HeapItem<PagedCandidate>> = BinaryHeap::new();
    heap.push(HeapItem {
        dist: 0.0,
        item: PagedCandidate::Node(root),
    });
    // `k` may be far past the tree's size (a served query's `k` is the
    // client's), so it bounds the preallocation only up to a small size.
    let mut out = Vec::with_capacity(k.min(64));
    while let Some(HeapItem { dist, item }) = heap.pop() {
        match item {
            PagedCandidate::Node(page) => {
                let node = access.read(page)?;
                let lanes = node.lanes();
                for i in 0..lanes.len() {
                    let mbr = lanes.rect(i);
                    let item = if node.is_leaf() {
                        PagedCandidate::Entry(DataEntry {
                            mbr,
                            oid: node.oid(i),
                            geom: node.geom(i),
                        })
                    } else {
                        PagedCandidate::Node(PageId(node.child(i)))
                    };
                    heap.push(HeapItem {
                        dist: min_dist(query, &mbr),
                        item,
                    });
                }
            }
            PagedCandidate::Entry(e) => {
                out.push((dist, e));
                if out.len() == k {
                    break;
                }
            }
        }
    }
    Ok(out)
}

impl PagedTree {
    /// The `k` data entries whose MBRs are nearest to `query`; see
    /// [`RTree::nearest_neighbors`]. Delegates to [`nearest_neighbors_via`]
    /// over the infallible in-memory accessor.
    pub fn nearest_neighbors(&self, query: &Point, k: usize) -> Vec<(f64, DataEntry)> {
        if self.is_empty() {
            return Vec::new();
        }
        nearest_neighbors_via(&mut &*self, self.root(), query, k)
            .expect("in-memory node access is infallible")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build(n: usize) -> RTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 40) as f64;
            let y = (i / 40) as f64;
            t.insert(Rect::new(x, y, x + 0.5, y + 0.5), i as u64);
        }
        t
    }

    #[test]
    fn min_dist_basics() {
        let r = Rect::new(1.0, 1.0, 3.0, 3.0);
        assert_eq!(min_dist(&Point::new(2.0, 2.0), &r), 0.0); // inside
        assert_eq!(min_dist(&Point::new(0.0, 2.0), &r), 1.0); // left
        assert_eq!(min_dist(&Point::new(4.0, 2.0), &r), 1.0); // right
        assert_eq!(min_dist(&Point::new(0.0, 0.0), &r), 2.0_f64.sqrt()); // corner
    }

    #[test]
    fn nn_matches_linear_scan() {
        let t = build(500);
        let queries = [
            Point::new(0.0, 0.0),
            Point::new(20.3, 6.1),
            Point::new(-5.0, 100.0),
            Point::new(39.9, 12.0),
        ];
        for q in queries {
            for k in [1usize, 5, 17] {
                let got: Vec<u64> = t
                    .nearest_neighbors(&q, k)
                    .iter()
                    .map(|(_, e)| e.oid)
                    .collect();
                // Linear-scan oracle.
                let mut all: Vec<(f64, u64)> = t
                    .window_query(&t.mbr())
                    .iter()
                    .map(|e| (min_dist(&q, &e.mbr), e.oid))
                    .collect();
                all.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
                // Distances must match exactly (ids may tie).
                let want_dists: Vec<f64> = all.iter().take(k).map(|(d, _)| *d).collect();
                let got_dists: Vec<f64> =
                    t.nearest_neighbors(&q, k).iter().map(|(d, _)| *d).collect();
                assert_eq!(got_dists, want_dists, "q={q:?} k={k}");
                assert_eq!(got.len(), k);
            }
        }
    }

    #[test]
    fn nn_results_are_sorted_by_distance() {
        let t = build(300);
        let res = t.nearest_neighbors(&Point::new(11.5, 3.2), 20);
        assert!(res.windows(2).all(|w| w[0].0 <= w[1].0));
    }

    #[test]
    fn nn_k_larger_than_tree() {
        let t = build(10);
        let res = t.nearest_neighbors(&Point::new(0.0, 0.0), 50);
        assert_eq!(res.len(), 10);
    }

    #[test]
    fn nn_zero_k_and_empty_tree() {
        let t = build(10);
        assert!(t.nearest_neighbors(&Point::new(0.0, 0.0), 0).is_empty());
        let empty = RTree::new();
        assert!(empty.nearest_neighbors(&Point::new(0.0, 0.0), 3).is_empty());
    }

    #[test]
    fn heap_item_order_is_total_and_consistent_with_eq_under_nan() {
        // Regression: `Ord` used `partial_cmp(..).unwrap_or(Equal)` while
        // `PartialEq` compared the raw f64s, so a NaN distance made
        // `a == b` disagree with `a.cmp(&b) == Equal` and silently broke
        // the BinaryHeap ordering invariant.
        let nan = HeapItem {
            dist: f64::NAN,
            item: (),
        };
        let fin = HeapItem {
            dist: 1.0,
            item: (),
        };
        assert_eq!(nan.cmp(&nan), Ordering::Equal);
        assert!(nan == nan, "Eq must agree with Ord for NaN");
        assert_ne!(nan.cmp(&fin), Ordering::Equal);
        assert!(nan != fin);
        // Min-heap order: NaN sorts after every finite distance, so it is
        // the *smallest* element of the max-heap encoding.
        assert_eq!(nan.cmp(&fin), Ordering::Less);

        let mut heap: BinaryHeap<HeapItem<u32>> = BinaryHeap::new();
        for (d, i) in [(2.0, 0), (f64::NAN, 1), (0.5, 2), (f64::NAN, 3), (1.5, 4)] {
            heap.push(HeapItem { dist: d, item: i });
        }
        let drained: Vec<f64> = std::iter::from_fn(|| heap.pop().map(|h| h.dist)).collect();
        assert_eq!(&drained[..3], &[0.5, 1.5, 2.0], "finite dists ascend");
        assert!(drained[3..].iter().all(|d| d.is_nan()), "NaNs drain last");
    }

    #[test]
    fn nan_coordinate_survives_freeze_and_nn() {
        // A NaN rectangle (planted directly in a leaf, as a corrupt decode
        // would produce — `Rect::new` debug-asserts, and the insert path
        // would reject it earlier) must neither panic the freeze-time
        // `sort_entries_by_xl` nor wedge the k-NN heap.
        let mut t = build(100);
        let nan_rect = Rect {
            xl: f64::NAN,
            yl: 0.0,
            xu: f64::NAN,
            yu: 0.5,
        };
        let leaf = (0..t.nodes().len() as u32)
            .find(|&i| matches!(t.node(i).kind, NodeKind::Leaf(_)))
            .expect("built tree has a leaf");
        match &mut t.node_mut(leaf).kind {
            NodeKind::Leaf(entries) => entries[0].mbr = nan_rect,
            NodeKind::Dir(_) => unreachable!(),
        }
        let p = crate::paged::PagedTree::freeze(&t, |_| None);
        for tree_nn in [t.nearest_neighbors(&Point::new(3.0, 3.0), 12), {
            p.nearest_neighbors(&Point::new(3.0, 3.0), 12)
        }] {
            assert_eq!(tree_nn.len(), 12);
            let finite: Vec<f64> = tree_nn
                .iter()
                .map(|(d, _)| *d)
                .filter(|d| d.is_finite())
                .collect();
            assert!(
                finite.windows(2).all(|w| w[0] <= w[1]),
                "finite results stay sorted: {finite:?}"
            );
        }
    }

    #[test]
    fn paged_nn_agrees_with_in_memory() {
        let t = build(400);
        let p = crate::paged::PagedTree::freeze(&t, |_| None);
        for q in [Point::new(5.0, 5.0), Point::new(33.3, 1.1)] {
            let a: Vec<(u64,)> = t
                .nearest_neighbors(&q, 8)
                .iter()
                .map(|(_, e)| (e.oid,))
                .collect();
            let b: Vec<(u64,)> = p
                .nearest_neighbors(&q, 8)
                .iter()
                .map(|(_, e)| (e.oid,))
                .collect();
            // Distances equal; compare distance sequences to dodge ties.
            let da: Vec<f64> = t.nearest_neighbors(&q, 8).iter().map(|(d, _)| *d).collect();
            let db: Vec<f64> = p.nearest_neighbors(&q, 8).iter().map(|(d, _)| *d).collect();
            assert_eq!(da, db);
            assert_eq!(a.len(), b.len());
        }
    }
}
