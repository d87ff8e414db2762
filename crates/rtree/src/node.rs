//! Tree nodes and their 4 KB page serialization.

use crate::entry::{DataEntry, DirEntry, DATA_ENTRY_BYTES, DIR_ENTRY_BYTES};
use bytes::{Buf, BufMut};
use psj_geom::{Rect, SoaMbrs};
use psj_store::{Page, PAGE_SIZE};
use std::sync::OnceLock;

/// Bytes reserved for the node header (level, kind, entry count).
pub const NODE_HEADER_BYTES: usize = 16;

/// Maximum entries in a directory page: `(4096 - 16) / 40 = 102`.
pub const DIR_FANOUT: usize = (PAGE_SIZE - NODE_HEADER_BYTES) / DIR_ENTRY_BYTES;

/// Maximum entries in a data page: `(4096 - 16) / 156 = 26`.
pub const DATA_FANOUT: usize = (PAGE_SIZE - NODE_HEADER_BYTES) / DATA_ENTRY_BYTES;

/// Minimum fill of a directory page (40 % of the maximum, the R\*-tree's
/// recommended `m`).
pub const DIR_MIN_FILL: usize = DIR_FANOUT * 2 / 5;

/// Minimum fill of a data page (40 % of the maximum).
pub const DATA_MIN_FILL: usize = DATA_FANOUT * 2 / 5;

/// Entries of a node: directory entries above level 0, data entries at
/// level 0.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeKind {
    /// An internal (directory) node.
    Dir(Vec<DirEntry>),
    /// A leaf (data) node.
    Leaf(Vec<DataEntry>),
}

/// One R\*-tree node. `level` counts from the leaves (0 = leaf).
#[derive(Debug, Clone)]
pub struct Node {
    /// Level of the node; leaves are level 0.
    pub level: u32,
    /// The node's entries.
    pub kind: NodeKind,
    /// Frozen struct-of-arrays view of the entry MBRs, built on first use
    /// and reused by every plane-sweep that restricts this node. Invalidated
    /// by the `&mut` entry accessors; not part of the node's identity or
    /// page encoding. The in-memory join reads a paged tree's
    /// [`crate::FrameSlab`] instead, so a frozen or loaded tree builds this
    /// view only for readers that sweep `Node`s directly.
    pub(crate) soa: OnceLock<SoaMbrs>,
}

/// Node equality is entry equality: the cached SoA view is derived state and
/// deliberately ignored (a freshly decoded node must compare equal to the
/// node it was encoded from).
impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.level == other.level && self.kind == other.kind
    }
}

impl Node {
    /// An empty leaf.
    pub fn new_leaf() -> Self {
        Node {
            level: 0,
            kind: NodeKind::Leaf(Vec::with_capacity(DATA_FANOUT + 1)),
            soa: OnceLock::new(),
        }
    }

    /// An empty directory node at `level`.
    pub fn new_dir(level: u32) -> Self {
        Node {
            level,
            kind: NodeKind::Dir(Vec::with_capacity(DIR_FANOUT + 1)),
            soa: OnceLock::new(),
        }
    }

    /// Builds a node from a level and entry set.
    pub fn from_parts(level: u32, kind: NodeKind) -> Self {
        Node {
            level,
            kind,
            soa: OnceLock::new(),
        }
    }

    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        matches!(self.kind, NodeKind::Leaf(_))
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        match &self.kind {
            NodeKind::Dir(v) => v.len(),
            NodeKind::Leaf(v) => v.len(),
        }
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maximum entry count for this node's kind.
    pub fn fanout(&self) -> usize {
        if self.is_leaf() {
            DATA_FANOUT
        } else {
            DIR_FANOUT
        }
    }

    /// Minimum fill for this node's kind.
    pub fn min_fill(&self) -> usize {
        if self.is_leaf() {
            DATA_MIN_FILL
        } else {
            DIR_MIN_FILL
        }
    }

    /// MBR of entry `i`.
    pub fn mbr_of(&self, i: usize) -> Rect {
        match &self.kind {
            NodeKind::Dir(v) => v[i].mbr,
            NodeKind::Leaf(v) => v[i].mbr,
        }
    }

    /// Union of all entry MBRs ([`Rect::empty`] for an empty node).
    pub fn mbr(&self) -> Rect {
        let mut r = Rect::empty();
        match &self.kind {
            NodeKind::Dir(v) => {
                for e in v {
                    r = r.union(&e.mbr);
                }
            }
            NodeKind::Leaf(v) => {
                for e in v {
                    r = r.union(&e.mbr);
                }
            }
        }
        r
    }

    /// The directory entries.
    ///
    /// # Panics
    ///
    /// Panics on a leaf node.
    pub fn dir_entries(&self) -> &[DirEntry] {
        match &self.kind {
            NodeKind::Dir(v) => v,
            NodeKind::Leaf(_) => panic!("dir_entries on a leaf"),
        }
    }

    /// The data entries.
    ///
    /// # Panics
    ///
    /// Panics on a directory node.
    pub fn data_entries(&self) -> &[DataEntry] {
        match &self.kind {
            NodeKind::Leaf(v) => v,
            NodeKind::Dir(_) => panic!("data_entries on a directory node"),
        }
    }

    /// Mutable directory entries; see [`Node::dir_entries`].
    pub fn dir_entries_mut(&mut self) -> &mut Vec<DirEntry> {
        self.soa.take();
        match &mut self.kind {
            NodeKind::Dir(v) => v,
            NodeKind::Leaf(_) => panic!("dir_entries_mut on a leaf"),
        }
    }

    /// Mutable data entries; see [`Node::data_entries`].
    pub fn data_entries_mut(&mut self) -> &mut Vec<DataEntry> {
        self.soa.take();
        match &mut self.kind {
            NodeKind::Leaf(v) => v,
            NodeKind::Dir(_) => panic!("data_entries_mut on a directory node"),
        }
    }

    /// MBRs of all entries, in entry order (used by the join's plane sweep).
    pub fn entry_mbrs(&self) -> Vec<Rect> {
        match &self.kind {
            NodeKind::Dir(v) => v.iter().map(|e| e.mbr).collect(),
            NodeKind::Leaf(v) => v.iter().map(|e| e.mbr).collect(),
        }
    }

    /// Frozen struct-of-arrays view of the entry MBRs (same entry order as
    /// [`Node::entry_mbrs`]), built on first use and cached for the node's
    /// lifetime. A join kernel sweeping `Node`s filters restriction windows
    /// over this view instead of copying `Rect`s per call.
    pub fn soa_mbrs(&self) -> &SoaMbrs {
        self.soa.get_or_init(|| match &self.kind {
            NodeKind::Dir(v) => SoaMbrs::from_iter(v.iter().map(|e| e.mbr)),
            NodeKind::Leaf(v) => SoaMbrs::from_iter(v.iter().map(|e| e.mbr)),
        })
    }

    /// Sorts the entries by their lower x bound, the precondition of the
    /// plane-sweep join. Called when the tree is frozen into pages.
    /// `total_cmp` gives a total order even for NaN coordinates (which sort
    /// after every finite bound), so a degenerate rectangle degrades to a
    /// deterministic order instead of a freeze-time panic.
    pub fn sort_entries_by_xl(&mut self) {
        self.soa.take();
        match &mut self.kind {
            NodeKind::Dir(v) => v.sort_by(|a, b| a.mbr.xl.total_cmp(&b.mbr.xl)),
            NodeKind::Leaf(v) => v.sort_by(|a, b| a.mbr.xl.total_cmp(&b.mbr.xl)),
        }
    }

    /// Serializes the node into a 4 KB page.
    ///
    /// # Panics
    ///
    /// Panics if the node overflows its fanout (cannot happen for nodes
    /// produced by the insertion/split algorithms).
    pub fn encode(&self, page: &mut Page) {
        assert!(self.len() <= self.fanout(), "node overflows page");
        let buf = &mut page.bytes_mut()[..];
        let mut w = &mut buf[..];
        w.put_u32_le(self.level);
        w.put_u8(if self.is_leaf() { 0 } else { 1 });
        w.put_bytes(0, 3);
        w.put_u32_le(self.len() as u32);
        w.put_bytes(0, 4);
        match &self.kind {
            NodeKind::Dir(v) => {
                for e in v {
                    e.encode(&mut w);
                }
            }
            NodeKind::Leaf(v) => {
                for e in v {
                    e.encode(&mut w);
                }
            }
        }
    }

    /// Deserializes a node from a 4 KB page.
    pub fn decode(page: &Page) -> Self {
        let mut r = &page.bytes()[..];
        let level = r.get_u32_le();
        let kind_tag = r.get_u8();
        r.advance(3);
        let count = r.get_u32_le() as usize;
        r.advance(4);
        let kind = if kind_tag == 0 {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(DataEntry::decode(&mut r));
            }
            NodeKind::Leaf(v)
        } else {
            let mut v = Vec::with_capacity(count);
            for _ in 0..count {
                v.push(DirEntry::decode(&mut r));
            }
            NodeKind::Dir(v)
        };
        // The SoA view is left unbuilt: a loaded tree's join reads its
        // frame slab, and a decoded node builds the view on first sweep.
        Node {
            level,
            kind,
            soa: OnceLock::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::GeomRef;

    fn leaf_with(n: usize) -> Node {
        let mut node = Node::new_leaf();
        for i in 0..n {
            node.data_entries_mut().push(DataEntry {
                mbr: Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0),
                oid: i as u64,
                geom: GeomRef::UNSET,
            });
        }
        node
    }

    #[test]
    fn fanouts_match_paper() {
        assert_eq!(DIR_FANOUT, 102);
        assert_eq!(DATA_FANOUT, 26);
        assert_eq!(DIR_MIN_FILL, 40);
        assert_eq!(DATA_MIN_FILL, 10);
    }

    #[test]
    fn leaf_page_roundtrip() {
        let node = leaf_with(DATA_FANOUT);
        let mut page = Page::zeroed();
        node.encode(&mut page);
        assert_eq!(Node::decode(&page), node);
    }

    #[test]
    fn dir_page_roundtrip() {
        let mut node = Node::new_dir(2);
        for i in 0..DIR_FANOUT {
            node.dir_entries_mut().push(DirEntry {
                mbr: Rect::new(0.0, i as f64, 1.0, i as f64 + 2.0),
                child: i as u32,
            });
        }
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let back = Node::decode(&page);
        assert_eq!(back, node);
        assert_eq!(back.level, 2);
        assert!(!back.is_leaf());
    }

    #[test]
    fn empty_node_roundtrip() {
        let node = Node::new_leaf();
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let back = Node::decode(&page);
        assert!(back.is_empty());
        assert!(back.mbr().is_empty());
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn overflow_encode_panics() {
        let node = leaf_with(DATA_FANOUT + 1);
        let mut page = Page::zeroed();
        node.encode(&mut page);
    }

    #[test]
    fn mbr_is_union_of_entries() {
        let node = leaf_with(3);
        assert_eq!(node.mbr(), Rect::new(0.0, 0.0, 3.0, 1.0));
    }

    #[test]
    fn soa_view_tracks_entries_through_mutation() {
        let mut node = leaf_with(3);
        assert_eq!(node.soa_mbrs().len(), 3);
        assert_eq!(node.soa_mbrs().rect(1), node.mbr_of(1));
        // Mutation through the accessor invalidates the cached view.
        node.data_entries_mut().pop();
        assert_eq!(node.soa_mbrs().len(), 2);
        node.sort_entries_by_xl();
        for i in 0..node.len() {
            assert_eq!(node.soa_mbrs().rect(i), node.mbr_of(i));
        }
    }

    #[test]
    fn decode_primes_soa_and_roundtrip_equality_ignores_it() {
        let node = leaf_with(5);
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let back = Node::decode(&page);
        // Decode leaves the SoA view unbuilt; build it on `back` only, so
        // one node has the view and the other does not — they still compare
        // equal.
        let _ = back.soa_mbrs();
        assert_eq!(back, node);
        assert_eq!(back.soa_mbrs(), node.soa_mbrs());
    }

    #[test]
    fn sort_entries_by_xl_sorts() {
        let mut node = Node::new_leaf();
        for &x in &[5.0, 1.0, 3.0] {
            node.data_entries_mut().push(DataEntry {
                mbr: Rect::new(x, 0.0, x + 1.0, 1.0),
                oid: x as u64,
                geom: GeomRef::UNSET,
            });
        }
        node.sort_entries_by_xl();
        let xs: Vec<f64> = node.data_entries().iter().map(|e| e.mbr.xl).collect();
        assert_eq!(xs, vec![1.0, 3.0, 5.0]);
    }
}
