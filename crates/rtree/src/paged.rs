//! Frozen, paged R\*-trees.
//!
//! After building (dynamic insertion or bulk loading) a tree is *frozen*:
//! nodes are assigned page numbers in depth-first order, child pointers are
//! rewritten to page numbers, entries are sorted by their lower x bound
//! (the plane-sweep precondition, so join tasks never re-sort), data entries
//! receive their geometry pointers, and every node is written as its page.
//!
//! A frozen or loaded tree is two arenas. The pages are one
//! [`PrefixArena`]: each page's used PSJT3 words back to back, without the
//! zero padding that fills a page to 4 KB on disk (13.2 MB instead of
//! 57.7 MB for two paper-scale trees). Every reader of the tree reads it
//! ([`PagedTree::frame`]): the joins, the window and nearest-neighbor
//! descents, the simulator, statistics and verification; a cached join's
//! miss copies from it, and [`PagedTree::save_to`] pads it back to 4 KB
//! pages. The exact geometries are one [`ClusterStore`]: every object's
//! vertices back to back, grouped into per-data-page clusters ([BK 94])
//! whose sizes drive the simulated cluster I/O time. Neither holds a
//! per-page or per-object allocation. The decoded [`Node`]s exist only
//! behind [`PagedTree::node`], built on its first call.

use crate::entry::GeomRef;
use crate::frame::{FrameRef, JoinNode, PrefixArena};
use crate::node::{Node, NodeKind};
use crate::stats::TreeStats;
use crate::tree::RTree;
use psj_geom::{Polyline, Rect};
use psj_store::{ClusterStore, PageId};
use std::collections::BTreeSet;
use std::sync::OnceLock;

/// The heap bytes a [`PagedTree`] holds, by part
/// ([`PagedTree::heap_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeapBytes {
    /// The page arena: its words and its spans, exactly the pages' used
    /// prefixes.
    pub arena: usize,
    /// The decoded view [`PagedTree::node`] builds on its first call: the
    /// node vector, each node's entries and any SoA view built so far. 0
    /// until then.
    pub nodes: usize,
    /// The geometry arena: vertices, and the object and page offsets
    /// ([`ClusterStore::heap_bytes`]).
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

/// A read-only paged R\*-tree: its pages as a [`PrefixArena`] and its
/// geometry clusters as a [`ClusterStore`].
///
/// Trees loaded leniently from a partially corrupt file carry a *poisoned*
/// page set: those pages hold empty-leaf placeholders (their on-disk bytes
/// failed checksum verification) and must never be descended into.
/// Fault-aware readers (the serve executor, `fsck`) consult
/// [`PagedTree::is_poisoned`]; direct traversal of a poisoned tree is a
/// caller bug.
#[derive(Debug)]
pub struct PagedTree {
    /// The pages, one per node: what every reader reads and a save writes.
    pages: PrefixArena,
    /// The decoded view of `pages` behind [`PagedTree::node`], built on its
    /// first call.
    nodes: OnceLock<Vec<Node>>,
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

        // Clone reachable nodes in page order, remap children, sort entries,
        // and write each as its page.
        let mut pages = PrefixArena::with_pages(order.len());
        let mut clusters = ClusterStore::new();
        for &idx in &order {
            let mut node = tree.node(idx).clone();
            if let NodeKind::Dir(entries) = &mut node.kind {
                for e in entries.iter_mut() {
                    e.child = page_of[e.child as usize];
                }
            }
            node.sort_entries_by_xl();
            let page = PageId(pages.len() as u32);
            if let NodeKind::Leaf(entries) = &mut node.kind {
                for e in entries.iter_mut() {
                    e.geom = match geometry(e.oid) {
                        Some(g) => GeomRef {
                            page,
                            slot: clusters.push_with_extra(
                                page,
                                g.points().iter().copied(),
                                attr_bytes,
                            ),
                        },
                        None => GeomRef::UNSET,
                    };
                }
            }
            pages.push_node(&node);
        }
        pages.shrink_to_fit();
        clusters.shrink_to_fit();

        PagedTree {
            pages,
            nodes: OnceLock::new(),
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
        pages: PrefixArena,
        root: PageId,
        height: u32,
        num_items: u64,
        clusters: ClusterStore,
    ) -> Self {
        PagedTree {
            pages,
            nodes: OnceLock::new(),
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

    /// The node stored on `page`, decoded into its build-time form.
    ///
    /// A compatibility view for the benchmark's traced kernel timing,
    /// which still walks [`Node`]s; the benchmark change that points it at
    /// frames deletes this. The first call decodes every page of the arena
    /// into a node vector that the tree keeps from then on
    /// ([`HeapBytes::nodes`]), about as large again as the arena. No join,
    /// query, save, check or simulation of the tree calls it; read
    /// [`PagedTree::frame`] instead.
    pub fn node(&self, page: PageId) -> &Node {
        let nodes = self.nodes.get_or_init(|| {
            (0..self.pages.len() as u32)
                .map(|p| Node::decode(self.pages.read(PageId(p))))
                .collect()
        });
        &nodes[page.index()]
    }

    /// The node stored on `page`, viewed in place in the arena: what the
    /// in-memory join reads. A poisoned page's frame is an empty leaf.
    #[inline]
    pub fn frame(&self, page: PageId) -> FrameRef<'_> {
        self.pages.read(page)
    }

    /// Total number of pages.
    pub fn num_pages(&self) -> usize {
        self.pages.len()
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
        self.frame(self.root).mbr()
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
            nodes: self.nodes.get().map_or(0, |nodes| {
                nodes.capacity() * std::mem::size_of::<Node>()
                    + nodes.iter().map(Node::heap_bytes).sum::<usize>()
            }),
            clusters: self.clusters.heap_bytes(),
        }
    }

    /// Table 1 statistics for this tree.
    pub fn stats(&self) -> TreeStats {
        let data_pages = (0..self.num_pages() as u32)
            .filter(|&p| self.frame(PageId(p)).is_leaf())
            .count();
        TreeStats {
            height: self.height,
            num_data_entries: self.num_items,
            num_data_pages: data_pages,
            num_dir_pages: self.num_pages() - data_pages,
            avg_cluster_bytes: self.clusters.avg_bytes(),
        }
    }

    /// Verifies that every page's entries are xl-sorted, that directory
    /// entries name pages in range whose MBR is exactly the entry's
    /// rectangle and whose level is one below, that every set geometry
    /// reference of a data page names a slot of that page's own cluster,
    /// and that the pages form one tree under the header: the root sits at
    /// level `height − 1`, and no page is reached twice from it. Used by
    /// tests and by loading.
    ///
    /// Poisoned pages (lenient load) are skipped entirely, and directory
    /// entries pointing at a poisoned child skip the MBR/level checks —
    /// the placeholder there has no meaningful contents. Only a tree with
    /// no poisoned page must reach every page from its root and hold
    /// `len()` leaf entries.
    pub fn verify(&self) -> Result<(), String> {
        self.verify_with(true)
    }

    /// [`PagedTree::verify`], checking geometry references only if
    /// `geometry`: a lenient load whose cluster section did not parse holds
    /// no geometry to resolve them against.
    pub(crate) fn verify_with(&self, geometry: bool) -> Result<(), String> {
        if !self.is_poisoned(self.root) {
            let level = self.frame(self.root).level();
            if self.height.checked_sub(1) != Some(level) {
                return Err(format!(
                    "root page {} is at level {level}, the header's height is {}",
                    self.root.0, self.height
                ));
            }
        }
        // Levels fall by one along every checked entry, so no entry path
        // cycles; a page named by at most one entry, and the root by none,
        // is then reached at most once from the root.
        let mut named = vec![false; self.num_pages()];
        let mut leaf_entries = 0u64;
        for page in (0..self.num_pages() as u32).map(PageId) {
            if self.is_poisoned(page) {
                continue;
            }
            let node = self.frame(page);
            let lanes = node.lanes();
            if !lanes.xl.windows(2).all(|w| w[0] <= w[1]) {
                return Err(format!("page {}: entries not xl-sorted", page.0));
            }
            if geometry {
                self.verify_geometry_refs(page)?;
            }
            if node.is_leaf() {
                leaf_entries += node.len() as u64;
                continue;
            }
            for i in 0..node.len() {
                let child = PageId(node.child(i));
                if child.index() >= self.num_pages() {
                    return Err(format!("page {}: child {} out of range", page.0, child.0));
                }
                if child == self.root || std::mem::replace(&mut named[child.index()], true) {
                    return Err(format!(
                        "page {}: child {} is reached twice from the root",
                        page.0, child.0
                    ));
                }
                if self.is_poisoned(child) {
                    continue;
                }
                let child = self.frame(child);
                if child.mbr() != lanes.rect(i) {
                    return Err(format!("page {}: stale child MBR", page.0));
                }
                if child.level() + 1 != node.level() {
                    return Err(format!("page {}: level mismatch", page.0));
                }
            }
        }
        if self.poisoned.is_empty() {
            let root = self.root.index();
            if let Some(page) = (0..self.num_pages()).find(|&p| p != root && !named[p]) {
                return Err(format!("page {page} is not reached from the root"));
            }
            if leaf_entries != self.num_items {
                return Err(format!(
                    "leaves hold {leaf_entries} entries, the header counts {}",
                    self.num_items
                ));
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
        let stored = self.clusters.cluster_len(page);
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
    /// spare capacity, whether frozen or loaded. The geometry arena holds
    /// exactly 16 bytes a vertex, 4 an object and 12 a page (the last page
    /// is a leaf). No decoded node exists until [`PagedTree::node`] is
    /// called.
    #[test]
    fn arena_is_exactly_the_used_prefixes() {
        let frozen = PagedTree::freeze(&build_tree(900), geom_for);
        let path = std::env::temp_dir().join(format!("psj-arena-{}", std::process::id()));
        frozen.save_to(&path).unwrap();
        let loaded = PagedTree::load_from(&path).unwrap();
        std::fs::remove_file(&path).ok();
        for tree in [&frozen, &loaded] {
            let used: usize = (0..tree.num_pages() as u32)
                .map(|p| tree.frame(PageId(p)))
                .map(|n| 16 + n.len() * if n.is_leaf() { 48 } else { 40 })
                .sum();
            let heap = tree.heap_bytes();
            assert_eq!(heap.arena, used);
            assert_eq!(heap.nodes, 0);
            assert_eq!(heap.clusters, 900 * (2 * 16 + 4) + tree.num_pages() * 12);
            assert_eq!(heap.total(), heap.arena + heap.clusters);
            // The compatibility view reports what it holds once built.
            tree.node(tree.root());
            let heap = tree.heap_bytes();
            assert!(heap.nodes > 0);
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
            // The geometry is the one given at freeze, so its MBR is the
            // entry's MBR by construction.
            assert_eq!(g, geom_for(e.oid).unwrap().points());
            assert_eq!(psj_geom::rect::mbr_of_points(g), e.mbr);
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
