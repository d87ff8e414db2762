//! Frozen, paged R\*-trees.
//!
//! After building (dynamic insertion or bulk loading) a tree is *frozen*:
//! nodes are assigned page numbers in depth-first order, child pointers are
//! rewritten to page numbers, entries are sorted by their lower x bound
//! (the plane-sweep precondition, so join tasks never re-sort), data entries
//! receive their geometry pointers, and every node is written as its page.
//!
//! The pages are kept as one [`PrefixArena`]: each page's used PSJT3 words
//! back to back, without the zero padding that fills a page to 4 KB on
//! disk (13.2 MB instead of 57.7 MB for two paper-scale trees). The
//! arena is what the in-memory join reads ([`PagedTree::frame`]), what a
//! cached join's miss copies from, and what [`PagedTree::save_to`] pads
//! back to 4 KB pages. The decoded nodes are kept beside it for the
//! readers that still walk [`Node`]s. The exact geometries are grouped
//! into per-data-page clusters ([BK 94]) whose sizes drive the simulated
//! cluster I/O time.

use crate::entry::GeomRef;
use crate::frame::{FrameRef, JoinNode, PrefixArena};
use crate::node::{Node, NodeKind};
use crate::stats::TreeStats;
use crate::tree::RTree;
use psj_geom::{Polyline, Rect};
use psj_store::{ClusterStore, PageId};
use std::collections::BTreeSet;

/// The heap bytes a [`PagedTree`] holds, by part
/// ([`PagedTree::heap_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapBytes {
    /// The page arena: its words and its spans, exactly the pages' used
    /// prefixes.
    pub arena: usize,
    /// The decoded nodes: the node vector, each node's entries and any SoA
    /// view built so far.
    pub nodes: usize,
    /// The geometry clusters (an estimate; see
    /// [`ClusterStore::heap_bytes`]).
    pub clusters: usize,
}

impl HeapBytes {
    /// All parts together.
    pub fn total(&self) -> usize {
        self.arena + self.nodes + self.clusters
    }
}

impl std::fmt::Display for HeapBytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mb = |b: usize| b as f64 / 1e6;
        write!(
            f,
            "heap {:.1} MB: arena + spans {:.1} MB, nodes {:.1} MB, geometry clusters {:.1} MB",
            mb(self.total()),
            mb(self.arena),
            mb(self.nodes),
            mb(self.clusters)
        )
    }
}

/// A read-only paged R\*-tree: its pages as a [`PrefixArena`], the decoded
/// nodes indexed by page number, and the geometry clusters.
///
/// Trees loaded leniently from a partially corrupt file carry a *poisoned*
/// page set: those slots hold placeholder nodes (their on-disk bytes failed
/// checksum verification) and must never be descended into. Fault-aware
/// readers (the serve executor, `fsck`) consult [`PagedTree::is_poisoned`];
/// direct traversal of a poisoned tree is a caller bug.
#[derive(Debug)]
pub struct PagedTree {
    nodes: Vec<Node>,
    /// The pages, one per node: what the joins read and a save writes.
    pages: PrefixArena,
    root: PageId,
    height: u32,
    num_items: u64,
    clusters: ClusterStore,
    poisoned: BTreeSet<u32>,
}

impl PagedTree {
    /// Freezes `tree` into pages. `geometry` supplies the exact geometry of
    /// each object id; objects without geometry get [`GeomRef::UNSET`] and
    /// contribute nothing to their page's cluster.
    pub fn freeze<F>(tree: &RTree, geometry: F) -> Self
    where
        F: FnMut(u64) -> Option<Polyline>,
    {
        Self::freeze_with_attrs(tree, geometry, 0)
    }

    /// As [`PagedTree::freeze`], additionally accounting `attr_bytes` of
    /// stored attribute payload per object in its geometry cluster. The
    /// paper's TIGER records average ~26 KB per data-page cluster — far more
    /// than bare segment coordinates — because each record carries address
    /// ranges, names and classification codes; `attr_bytes` models that.
    pub fn freeze_with_attrs<F>(tree: &RTree, mut geometry: F, attr_bytes: u64) -> Self
    where
        F: FnMut(u64) -> Option<Polyline>,
    {
        let height = tree.height();
        let num_nodes = tree.nodes().len();

        // Depth-first page numbering from the root.
        let mut page_of = vec![u32::MAX; num_nodes];
        let mut order = Vec::with_capacity(num_nodes);
        let mut stack = vec![tree.root()];
        while let Some(idx) = stack.pop() {
            if page_of[idx as usize] != u32::MAX {
                continue;
            }
            page_of[idx as usize] = order.len() as u32;
            order.push(idx);
            if let NodeKind::Dir(entries) = &tree.node(idx).kind {
                // Push in reverse so children are numbered in entry order.
                for e in entries.iter().rev() {
                    stack.push(e.child);
                }
            }
        }

        // Clone reachable nodes in page order, remap children, sort entries.
        let mut nodes: Vec<Node> = Vec::with_capacity(order.len());
        let mut clusters = ClusterStore::new();
        for &idx in &order {
            let mut node = tree.node(idx).clone();
            if let NodeKind::Dir(entries) = &mut node.kind {
                for e in entries.iter_mut() {
                    e.child = page_of[e.child as usize];
                }
            }
            node.sort_entries_by_xl();
            let page = PageId(nodes.len() as u32);
            if let NodeKind::Leaf(entries) = &mut node.kind {
                for e in entries.iter_mut() {
                    e.geom = match geometry(e.oid) {
                        Some(g) => GeomRef {
                            page,
                            slot: clusters.push_with_extra(page, g, attr_bytes),
                        },
                        None => GeomRef::UNSET,
                    };
                }
            }
            nodes.push(node);
        }

        PagedTree {
            pages: PrefixArena::from_nodes(&nodes),
            nodes,
            root: PageId(0),
            height,
            num_items: tree.len(),
            clusters,
            poisoned: BTreeSet::new(),
        }
    }

    /// Assembles a tree from parts loaded from disk (crate-internal; the
    /// loader verifies structure afterwards).
    pub(crate) fn from_loaded_parts(
        nodes: Vec<Node>,
        pages: PrefixArena,
        root: PageId,
        height: u32,
        num_items: u64,
        clusters: ClusterStore,
    ) -> Self {
        PagedTree {
            nodes,
            pages,
            root,
            height,
            num_items,
            clusters,
            poisoned: BTreeSet::new(),
        }
    }

    /// Marks pages whose on-disk bytes failed verification (lenient load).
    pub(crate) fn set_poisoned(&mut self, poisoned: BTreeSet<u32>) {
        self.poisoned = poisoned;
    }

    /// Whether `page` holds a placeholder for corrupt on-disk bytes.
    pub fn is_poisoned(&self, page: PageId) -> bool {
        self.poisoned.contains(&page.0)
    }

    /// Number of poisoned pages (0 for any strictly loaded or frozen tree).
    pub fn poisoned_count(&self) -> usize {
        self.poisoned.len()
    }

    /// The poisoned page ids, ascending.
    pub fn poisoned_pages(&self) -> impl Iterator<Item = PageId> + '_ {
        self.poisoned.iter().map(|&p| PageId(p))
    }

    /// Page number of the root (always page 0 of this tree's file).
    pub fn root(&self) -> PageId {
        self.root
    }

    /// Tree height (number of levels including the root).
    pub fn height(&self) -> u32 {
        self.height
    }

    /// Number of data entries.
    pub fn len(&self) -> u64 {
        self.num_items
    }

    /// Whether the tree holds no data entries.
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// The decoded node stored on `page`.
    pub fn node(&self, page: PageId) -> &Node {
        &self.nodes[page.index()]
    }

    /// The node stored on `page`, viewed in place in the arena: what the
    /// in-memory join reads. A poisoned page's frame is an empty leaf.
    #[inline]
    pub fn frame(&self, page: PageId) -> FrameRef<'_> {
        self.pages.read(page)
    }

    /// Total number of pages.
    pub fn num_pages(&self) -> usize {
        self.nodes.len()
    }

    /// The pages.
    pub fn pages(&self) -> &PrefixArena {
        &self.pages
    }

    /// The geometry clusters.
    pub fn clusters(&self) -> &ClusterStore {
        &self.clusters
    }

    /// MBR of the whole tree.
    pub fn mbr(&self) -> Rect {
        self.node(self.root).mbr()
    }

    /// Window query over the paged form. Delegates to
    /// [`crate::access::window_query_via`] over the infallible in-memory
    /// accessor, so the traversal order is shared with cache-backed readers.
    pub fn window_query(&self, window: &Rect) -> Vec<crate::entry::DataEntry> {
        crate::access::window_query_via(&mut &*self, self.root, window)
            .expect("in-memory node access is infallible")
    }

    /// The heap bytes the tree holds, by part.
    pub fn heap_bytes(&self) -> HeapBytes {
        HeapBytes {
            arena: self.pages.heap_bytes(),
            nodes: self.nodes.capacity() * std::mem::size_of::<Node>()
                + self.nodes.iter().map(Node::heap_bytes).sum::<usize>(),
            clusters: self.clusters.heap_bytes(),
        }
    }

    /// Table 1 statistics for this tree.
    pub fn stats(&self) -> TreeStats {
        let data_pages = self.nodes.iter().filter(|n| n.is_leaf()).count();
        TreeStats {
            height: self.height,
            num_data_entries: self.num_items,
            num_data_pages: data_pages,
            num_dir_pages: self.nodes.len() - data_pages,
            avg_cluster_bytes: self.clusters.avg_bytes(),
        }
    }

    /// Verifies that every in-memory node is the node its arena page
    /// holds, that entries are xl-sorted, that directory MBRs exactly
    /// bound their children, and that every set geometry reference of a
    /// data page names a slot of that page's own cluster. Used by tests and
    /// by loading.
    ///
    /// Poisoned pages (lenient load) are skipped entirely, and directory
    /// entries pointing at a poisoned child skip the MBR/level checks —
    /// the placeholder node there has no meaningful contents.
    pub fn verify(&self) -> Result<(), String> {
        self.verify_with(true)
    }

    /// [`PagedTree::verify`], checking geometry references only if
    /// `geometry`: a lenient load whose cluster section did not parse holds
    /// no geometry to resolve them against.
    pub(crate) fn verify_with(&self, geometry: bool) -> Result<(), String> {
        if self.pages.len() != self.nodes.len() {
            return Err(format!(
                "{} pages for {} nodes",
                self.pages.len(),
                self.nodes.len()
            ));
        }
        for (page, node) in self.nodes.iter().enumerate() {
            if self.poisoned.contains(&(page as u32)) {
                continue;
            }
            if Node::decode(self.pages.read(PageId(page as u32))) != *node {
                return Err(format!("page {page}: decode mismatch"));
            }
            let mbrs = node.entry_mbrs();
            if !mbrs.windows(2).all(|w| w[0].xl <= w[1].xl) {
                return Err(format!("page {page}: entries not xl-sorted"));
            }
            if geometry {
                self.verify_geometry_refs(PageId(page as u32))?;
            }
            if let NodeKind::Dir(entries) = &node.kind {
                for e in entries {
                    if e.child as usize >= self.nodes.len() {
                        return Err(format!("page {page}: child {} out of range", e.child));
                    }
                    if self.poisoned.contains(&e.child) {
                        continue;
                    }
                    let child = self.node(PageId(e.child));
                    if child.mbr() != e.mbr {
                        return Err(format!("page {page}: stale child MBR"));
                    }
                    if child.level + 1 != node.level {
                        return Err(format!("page {page}: level mismatch"));
                    }
                }
            }
        }
        Ok(())
    }

    /// Fails on the first set geometry reference of data page `page` that
    /// names another page or a slot past the end of `page`'s cluster:
    /// refinement would test its candidates against another object's
    /// geometry, or find none and keep them unrefuted.
    fn verify_geometry_refs(&self, page: PageId) -> Result<(), String> {
        let frame = self.frame(page);
        if !frame.is_leaf() {
            return Ok(());
        }
        let stored = self.clusters.get(page).map_or(0, |c| c.len());
        let dangling = (0..frame.len())
            .map(|i| frame.geom(i))
            .find(|g| *g != GeomRef::UNSET && (g.page != page || g.slot as usize >= stored));
        match dangling {
            Some(g) => Err(format!(
                "page {}: geometry reference ({}, slot {}) is not a slot of \
                 the page's cluster, which holds {stored} geometries",
                page.0, g.page, g.slot
            )),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bulk::bulk_load_str_with_fanout;
    use psj_geom::Point;

    fn build_tree(n: usize) -> RTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 40) as f64;
            let y = (i / 40) as f64;
            t.insert(Rect::new(x, y, x + 0.9, y + 0.9), i as u64);
        }
        t
    }

    fn geom_for(oid: u64) -> Option<Polyline> {
        let x = (oid % 40) as f64;
        let y = (oid / 40) as f64;
        Some(Polyline::new(vec![
            Point::new(x, y),
            Point::new(x + 0.9, y + 0.9),
        ]))
    }

    #[test]
    fn freeze_assigns_root_page_zero() {
        let t = build_tree(200);
        let p = PagedTree::freeze(&t, geom_for);
        assert_eq!(p.root(), PageId(0));
        assert_eq!(p.height(), t.height());
        assert_eq!(p.len(), 200);
        p.verify().unwrap();
    }

    #[test]
    fn page_count_equals_node_count() {
        let t = build_tree(500);
        let p = PagedTree::freeze(&t, geom_for);
        assert_eq!(p.num_pages(), p.pages().len());
        let s = p.stats();
        assert_eq!(s.num_data_pages + s.num_dir_pages, p.num_pages());
        assert!(s.num_data_pages > 0 && s.num_dir_pages > 0);
    }

    /// The arena holds exactly the pages' used prefixes: 16 header bytes
    /// (a span) plus 40 per directory entry or 48 per data entry, with no
    /// spare capacity, whether frozen or loaded.
    #[test]
    fn arena_is_exactly_the_used_prefixes() {
        let frozen = PagedTree::freeze(&build_tree(900), geom_for);
        let path = std::env::temp_dir().join(format!("psj-arena-{}", std::process::id()));
        frozen.save_to(&path).unwrap();
        let loaded = PagedTree::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for tree in [&frozen, &loaded] {
            let used: usize = (0..tree.num_pages() as u32)
                .map(|p| tree.node(PageId(p)))
                .map(|n| 16 + n.len() * if n.is_leaf() { 48 } else { 40 })
                .sum();
            let heap = tree.heap_bytes();
            assert_eq!(heap.arena, used);
            assert!(heap.nodes > 0 && heap.clusters > 0);
            assert_eq!(heap.total(), heap.arena + heap.nodes + heap.clusters);
        }
    }

    #[test]
    fn queries_survive_freezing() {
        let t = build_tree(700);
        let p = PagedTree::freeze(&t, geom_for);
        let w = Rect::new(3.0, 2.0, 12.0, 9.0);
        let mut got: Vec<u64> = p.window_query(&w).iter().map(|e| e.oid).collect();
        let mut want: Vec<u64> = t.window_query(&w).iter().map(|e| e.oid).collect();
        got.sort_unstable();
        want.sort_unstable();
        assert_eq!(got, want);
    }

    #[test]
    fn geometry_refs_resolve() {
        let t = build_tree(300);
        let p = PagedTree::freeze(&t, geom_for);
        let all = p.window_query(&p.mbr());
        assert_eq!(all.len(), 300);
        for e in &all {
            let g = p
                .clusters()
                .geometry(e.geom.page, e.geom.slot)
                .expect("geometry present");
            // The geometry's MBR is the entry's MBR by construction.
            assert_eq!(g.mbr(), e.mbr);
        }
        assert!(p.clusters().avg_bytes() > 0);
    }

    #[test]
    fn missing_geometry_leaves_unset_ref() {
        let t = build_tree(50);
        let p = PagedTree::freeze(&t, |_| None);
        for e in p.window_query(&p.mbr()) {
            assert_eq!(e.geom, GeomRef::UNSET);
        }
        assert_eq!(p.clusters().avg_bytes(), 0);
    }

    #[test]
    fn bulk_loaded_tree_freezes_too() {
        let items: Vec<(Rect, u64)> = (0..400)
            .map(|i| {
                let x = (i % 20) as f64;
                let y = (i / 20) as f64;
                (Rect::new(x, y, x + 0.5, y + 0.5), i as u64)
            })
            .collect();
        let t = bulk_load_str_with_fanout(&items, 8, 8);
        let p = PagedTree::freeze(&t, |_| None);
        p.verify().unwrap();
        assert!(p.height() >= 3);
        assert_eq!(p.len(), 400);
    }
}
