//! The dynamic in-memory R\*-tree: insertion with ChooseSubtree, R\* split
//! and forced reinsertion (Beckmann et al., SIGMOD '90).

use crate::entry::{DataEntry, DirEntry, GeomRef};
use crate::node::{Node, NodeKind};
use crate::split::rstar_split;
use psj_geom::Rect;

/// Number of ChooseSubtree candidates examined with the exact
/// overlap-enlargement criterion when the node is large (the BKSS '90
/// "determine the nearly minimum overlap cost" optimization).
const CHOOSE_SUBTREE_CANDIDATES: usize = 32;

/// Fraction of entries removed by forced reinsertion (30 % of `M + 1`).
const REINSERT_FRACTION: f64 = 0.3;

/// A dynamic R\*-tree over data rectangles.
///
/// Nodes live in an arena ([`Vec<Node>`]); directory entries reference
/// children by arena index until the tree is frozen into pages
/// ([`crate::PagedTree`]). Levels count from the leaves (level 0).
#[derive(Debug, Clone)]
pub struct RTree {
    nodes: Vec<Node>,
    root: u32,
    num_items: u64,
}

enum EntryUnion {
    Dir(DirEntry),
    Data(DataEntry),
}

impl EntryUnion {
    fn mbr(&self) -> Rect {
        match self {
            EntryUnion::Dir(e) => e.mbr,
            EntryUnion::Data(e) => e.mbr,
        }
    }

    fn level(&self, nodes: &[Node]) -> u32 {
        match self {
            EntryUnion::Dir(e) => nodes[e.child as usize].level + 1,
            EntryUnion::Data(_) => 0,
        }
    }
}

impl RTree {
    /// An empty tree (a single empty leaf as root).
    pub fn new() -> Self {
        RTree {
            nodes: vec![Node::new_leaf()],
            root: 0,
            num_items: 0,
        }
    }

    /// Assembles a tree from pre-built parts; callers guarantee structural
    /// consistency (used by bulk loading).
    pub(crate) fn assemble(nodes: Vec<Node>, root: u32, num_items: u64) -> Self {
        RTree {
            nodes,
            root,
            num_items,
        }
    }

    /// Number of data entries.
    pub fn len(&self) -> u64 {
        self.num_items
    }

    /// Whether the tree holds no data entries.
    pub fn is_empty(&self) -> bool {
        self.num_items == 0
    }

    /// Height of the tree: number of levels including the root. An empty
    /// tree has height 1.
    pub fn height(&self) -> u32 {
        self.nodes[self.root as usize].level + 1
    }

    /// The arena index of the root node.
    pub fn root(&self) -> u32 {
        self.root
    }

    /// The node arena (read-only).
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// A node by arena index.
    pub fn node(&self, idx: u32) -> &Node {
        &self.nodes[idx as usize]
    }

    /// MBR of the whole tree.
    pub fn mbr(&self) -> Rect {
        self.nodes[self.root as usize].mbr()
    }

    /// Inserts an object with the given MBR and id.
    pub fn insert(&mut self, mbr: Rect, oid: u64) {
        let entry = DataEntry {
            mbr,
            oid,
            geom: GeomRef::UNSET,
        };
        let mut reinserted = vec![false; self.height() as usize + 1];
        self.insert_entry(EntryUnion::Data(entry), &mut reinserted);
        self.num_items += 1;
    }

    /// Window query: all data entries whose MBR intersects `window`.
    pub fn window_query(&self, window: &Rect) -> Vec<DataEntry> {
        let mut out = Vec::new();
        let mut stack = vec![self.root];
        while let Some(idx) = stack.pop() {
            match &self.nodes[idx as usize].kind {
                NodeKind::Dir(entries) => {
                    for e in entries {
                        if e.mbr.intersects(window) {
                            stack.push(e.child);
                        }
                    }
                }
                NodeKind::Leaf(entries) => {
                    for e in entries {
                        if e.mbr.intersects(window) {
                            out.push(*e);
                        }
                    }
                }
            }
        }
        out
    }

    // --- insertion machinery ---------------------------------------------

    fn insert_entry(&mut self, entry: EntryUnion, reinserted: &mut Vec<bool>) {
        let target_level = entry.level(&self.nodes);
        // Find the insertion path root → node at target_level.
        let mut path = Vec::with_capacity(self.height() as usize);
        let mut cur = self.root;
        while self.nodes[cur as usize].level > target_level {
            let slot = self.choose_subtree(cur, &entry.mbr());
            path.push((cur, slot));
            cur = self.nodes[cur as usize].dir_entries()[slot].child;
        }
        debug_assert_eq!(self.nodes[cur as usize].level, target_level);

        // Insert the entry.
        match entry {
            EntryUnion::Data(e) => self.nodes[cur as usize].data_entries_mut().push(e),
            EntryUnion::Dir(e) => self.nodes[cur as usize].dir_entries_mut().push(e),
        }

        // Tighten MBRs along the path (overflow handling re-tightens below).
        self.adjust_path_mbrs(&path, cur);

        // Handle overflow bottom-up.
        let mut node_idx = cur;
        while self.nodes[node_idx as usize].len() > self.nodes[node_idx as usize].fanout() {
            let level = self.nodes[node_idx as usize].level as usize;
            let is_root = node_idx == self.root;
            if !is_root && !reinserted[level] {
                reinserted[level] = true;
                self.force_reinsert(node_idx, &path, reinserted);
                return; // reinsertions have completed the structural work
            }
            // Split.
            let sibling_idx = self.split_node(node_idx);
            if is_root {
                self.grow_root(node_idx, sibling_idx);
                return;
            }
            // Add sibling entry to the parent and fix the node's own entry.
            let (parent, slot) = *path
                .iter()
                .rev()
                .find(|(p, _)| {
                    self.nodes[*p as usize].level == self.nodes[node_idx as usize].level + 1
                })
                .expect("non-root node must have a parent on the path");
            let node_mbr = self.nodes[node_idx as usize].mbr();
            let sib_mbr = self.nodes[sibling_idx as usize].mbr();
            {
                let pe = self.nodes[parent as usize].dir_entries_mut();
                pe[slot].mbr = node_mbr;
                pe.push(DirEntry {
                    mbr: sib_mbr,
                    child: sibling_idx,
                });
            }
            self.adjust_path_mbrs(&path, parent);
            node_idx = parent;
        }
    }

    /// ChooseSubtree: pick the child of directory node `idx` that should
    /// receive an entry with MBR `r`.
    fn choose_subtree(&self, idx: u32, r: &Rect) -> usize {
        let node = &self.nodes[idx as usize];
        let entries = node.dir_entries();
        debug_assert!(!entries.is_empty());
        let children_are_leaves = node.level == 1;
        if children_are_leaves {
            // Minimum overlap enlargement; ties → min area enlargement, then
            // min area. For big nodes, restrict the exact O(M²) criterion to
            // the CHOOSE_SUBTREE_CANDIDATES entries of least area
            // enlargement (BKSS '90).
            let mut order: Vec<usize> = (0..entries.len()).collect();
            if entries.len() > CHOOSE_SUBTREE_CANDIDATES {
                order.sort_by(|&a, &b| {
                    entries[a]
                        .mbr
                        .enlargement(r)
                        .partial_cmp(&entries[b].mbr.enlargement(r))
                        .expect("NaN enlargement")
                });
                order.truncate(CHOOSE_SUBTREE_CANDIDATES);
            }
            let mut best = order[0];
            let mut best_key = (f64::INFINITY, f64::INFINITY, f64::INFINITY);
            for &cand in &order {
                let enlarged = entries[cand].mbr.union(r);
                let mut overlap_enl = 0.0;
                for (j, other) in entries.iter().enumerate() {
                    if j != cand {
                        overlap_enl += enlarged.overlap_area(&other.mbr)
                            - entries[cand].mbr.overlap_area(&other.mbr);
                    }
                }
                let key = (
                    overlap_enl,
                    entries[cand].mbr.enlargement(r),
                    entries[cand].mbr.area(),
                );
                if key < best_key {
                    best_key = key;
                    best = cand;
                }
            }
            best
        } else {
            // Minimum area enlargement; ties → min area.
            let mut best = 0;
            let mut best_key = (f64::INFINITY, f64::INFINITY);
            for (i, e) in entries.iter().enumerate() {
                let key = (e.mbr.enlargement(r), e.mbr.area());
                if key < best_key {
                    best_key = key;
                    best = i;
                }
            }
            best
        }
    }

    /// Forced reinsertion: remove the 30 % of entries farthest from the
    /// node's center and insert them again at the same level, closest first
    /// ("close reinsert").
    fn force_reinsert(&mut self, node_idx: u32, path: &[(u32, usize)], reinserted: &mut Vec<bool>) {
        let center = self.nodes[node_idx as usize].mbr().center();
        let count = self.nodes[node_idx as usize].len();
        let p = ((count as f64) * REINSERT_FRACTION).ceil() as usize;
        let p = p.clamp(1, count - self.nodes[node_idx as usize].min_fill());

        let mut removed: Vec<EntryUnion> = Vec::with_capacity(p);
        {
            let node = &mut self.nodes[node_idx as usize];
            match &mut node.kind {
                NodeKind::Leaf(v) => {
                    let mut order: Vec<usize> = (0..v.len()).collect();
                    order.sort_by(|&a, &b| {
                        let da = v[a].mbr.center().distance_sq(&center);
                        let db = v[b].mbr.center().distance_sq(&center);
                        db.partial_cmp(&da).expect("NaN distance")
                    });
                    let far: Vec<usize> = order.into_iter().take(p).collect();
                    let mut far_sorted = far.clone();
                    far_sorted.sort_unstable_by(|a, b| b.cmp(a));
                    for i in far_sorted {
                        removed.push(EntryUnion::Data(v.swap_remove(i)));
                    }
                }
                NodeKind::Dir(v) => {
                    let mut order: Vec<usize> = (0..v.len()).collect();
                    order.sort_by(|&a, &b| {
                        let da = v[a].mbr.center().distance_sq(&center);
                        let db = v[b].mbr.center().distance_sq(&center);
                        db.partial_cmp(&da).expect("NaN distance")
                    });
                    let far: Vec<usize> = order.into_iter().take(p).collect();
                    let mut far_sorted = far.clone();
                    far_sorted.sort_unstable_by(|a, b| b.cmp(a));
                    for i in far_sorted {
                        removed.push(EntryUnion::Dir(v.swap_remove(i)));
                    }
                }
            }
        }
        // Tighten the path after shrinking the node.
        self.adjust_path_mbrs(path, node_idx);

        // Close reinsert: nearest to the old center first.
        removed.sort_by(|a, b| {
            let da = a.mbr().center().distance_sq(&center);
            let db = b.mbr().center().distance_sq(&center);
            da.partial_cmp(&db).expect("NaN distance")
        });
        for e in removed {
            self.insert_entry(e, reinserted);
        }
    }

    fn split_node(&mut self, node_idx: u32) -> u32 {
        let level = self.nodes[node_idx as usize].level;
        let min_fill = self.nodes[node_idx as usize].min_fill();
        let sibling = match &mut self.nodes[node_idx as usize].kind {
            NodeKind::Leaf(v) => {
                let (a, b) = rstar_split(std::mem::take(v), min_fill);
                *v = a;
                Node::from_parts(level, NodeKind::Leaf(b))
            }
            NodeKind::Dir(v) => {
                let (a, b) = rstar_split(std::mem::take(v), min_fill);
                *v = a;
                Node::from_parts(level, NodeKind::Dir(b))
            }
        };
        let sibling_idx = self.nodes.len() as u32;
        self.nodes.push(sibling);
        sibling_idx
    }

    fn grow_root(&mut self, old_root: u32, sibling: u32) {
        let level = self.nodes[old_root as usize].level + 1;
        let mut new_root = Node::new_dir(level);
        new_root.dir_entries_mut().push(DirEntry {
            mbr: self.nodes[old_root as usize].mbr(),
            child: old_root,
        });
        new_root.dir_entries_mut().push(DirEntry {
            mbr: self.nodes[sibling as usize].mbr(),
            child: sibling,
        });
        let idx = self.nodes.len() as u32;
        self.nodes.push(new_root);
        self.root = idx;
    }

    /// Recomputes the MBRs stored in the parents along `path` for the
    /// subtree that ends at `below` (and everything above it).
    fn adjust_path_mbrs(&mut self, path: &[(u32, usize)], below: u32) {
        let mut child = below;
        for &(parent, slot) in path.iter().rev() {
            if self.nodes[parent as usize].level <= self.nodes[child as usize].level {
                continue;
            }
            // Only touch parents that actually lie above `child` on the path.
            if self.nodes[parent as usize].dir_entries()[slot].child != child {
                continue;
            }
            let mbr = self.nodes[child as usize].mbr();
            self.nodes[parent as usize].dir_entries_mut()[slot].mbr = mbr;
            child = parent;
        }
    }

    /// Verifies the structural invariants; used by tests and debug builds.
    ///
    /// Checks: parent MBRs contain (exactly bound) child MBRs, fanout limits,
    /// uniform leaf depth, and the entry count.
    pub fn check_invariants(&self) -> Result<(), String> {
        let mut seen_items = 0u64;
        let mut stack = vec![(self.root, None::<Rect>)];
        let root_level = self.nodes[self.root as usize].level;
        while let Some((idx, expected_mbr)) = stack.pop() {
            let node = &self.nodes[idx as usize];
            if let Some(m) = expected_mbr {
                if node.mbr() != m {
                    return Err(format!(
                        "node {idx}: parent entry MBR {:?} != node MBR {:?}",
                        m,
                        node.mbr()
                    ));
                }
            }
            if idx != self.root && node.len() < node.min_fill() {
                return Err(format!("node {idx} underfull: {} entries", node.len()));
            }
            if node.len() > node.fanout() {
                return Err(format!("node {idx} overflows: {} entries", node.len()));
            }
            match &node.kind {
                NodeKind::Dir(entries) => {
                    if node.level == 0 {
                        return Err(format!("directory node {idx} at level 0"));
                    }
                    for e in entries {
                        let child = &self.nodes[e.child as usize];
                        if child.level + 1 != node.level {
                            return Err(format!(
                                "node {idx} level {} has child at level {}",
                                node.level, child.level
                            ));
                        }
                        stack.push((e.child, Some(e.mbr)));
                    }
                }
                NodeKind::Leaf(entries) => {
                    if node.level != 0 {
                        return Err(format!("leaf {idx} at level {}", node.level));
                    }
                    let _ = root_level;
                    seen_items += entries.len() as u64;
                }
            }
        }
        if seen_items != self.num_items {
            return Err(format!(
                "tree claims {} items, found {}",
                self.num_items, seen_items
            ));
        }
        Ok(())
    }
}

impl Default for RTree {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::DATA_FANOUT;

    impl RTree {
        /// Mutable node access, for tests that plant entries insertion
        /// would refuse.
        pub(crate) fn node_mut(&mut self, idx: u32) -> &mut Node {
            &mut self.nodes[idx as usize]
        }
    }

    fn rect_at(i: usize) -> Rect {
        let x = (i % 100) as f64 * 2.0;
        let y = (i / 100) as f64 * 2.0;
        Rect::new(x, y, x + 1.5, y + 1.5)
    }

    #[test]
    fn empty_tree() {
        let t = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        assert!(t.window_query(&Rect::new(0.0, 0.0, 1.0, 1.0)).is_empty());
        t.check_invariants().unwrap();
    }

    #[test]
    fn insert_within_one_leaf() {
        let mut t = RTree::new();
        for i in 0..DATA_FANOUT {
            t.insert(rect_at(i), i as u64);
        }
        assert_eq!(t.height(), 1);
        assert_eq!(t.len(), DATA_FANOUT as u64);
        t.check_invariants().unwrap();
    }

    #[test]
    fn first_split_grows_root() {
        let mut t = RTree::new();
        for i in 0..=DATA_FANOUT {
            t.insert(rect_at(i), i as u64);
        }
        assert_eq!(t.height(), 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn thousand_inserts_keep_invariants() {
        let mut t = RTree::new();
        for i in 0..1000 {
            t.insert(rect_at(i), i as u64);
        }
        assert_eq!(t.len(), 1000);
        assert!(t.height() >= 2);
        t.check_invariants().unwrap();
    }

    #[test]
    fn window_query_equals_linear_scan() {
        let mut t = RTree::new();
        let rects: Vec<Rect> = (0..500).map(rect_at).collect();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        for window in [
            Rect::new(0.0, 0.0, 10.0, 10.0),
            Rect::new(50.0, 0.0, 80.0, 6.0),
            Rect::new(-5.0, -5.0, -1.0, -1.0),
            Rect::new(0.0, 0.0, 500.0, 500.0),
        ] {
            let mut got: Vec<u64> = t.window_query(&window).iter().map(|e| e.oid).collect();
            got.sort_unstable();
            let want: Vec<u64> = rects
                .iter()
                .enumerate()
                .filter(|(_, r)| r.intersects(&window))
                .map(|(i, _)| i as u64)
                .collect();
            assert_eq!(got, want, "window {window:?}");
        }
    }

    #[test]
    fn duplicate_rects_are_kept() {
        let mut t = RTree::new();
        let r = Rect::new(0.0, 0.0, 1.0, 1.0);
        for i in 0..100 {
            t.insert(r, i);
        }
        assert_eq!(t.len(), 100);
        assert_eq!(t.window_query(&r).len(), 100);
        t.check_invariants().unwrap();
    }

    #[test]
    fn mbr_covers_everything() {
        let mut t = RTree::new();
        for i in 0..300 {
            t.insert(rect_at(i), i as u64);
        }
        let m = t.mbr();
        for e in t.window_query(&m) {
            assert!(m.contains(&e.mbr));
        }
    }
}
