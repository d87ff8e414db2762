//! Tree nodes and their 4 KB page serialization.
//!
//! A page holds its node in the PSJT3 layout. A paged tree keeps each
//! page's used prefix after the header, word for word, in its
//! [`PrefixArena`], and a cached [`crate::NodeFrame`] holds the same words,
//! so a cache fill copies them instead of transcoding a page. All
//! multi-byte fields are little-endian:
//!
//! ```text
//! bytes 0..16   level u32, kind u8 (0 = leaf, 1 = directory), 3 pad,
//!               entry count n u32, 4 pad
//! then          xl[n] xh[n] yl[n] yh[n]   f64 lanes of the entry MBRs
//!               ids[n]                    u64: children or object ids
//!               geom[n]  (leaf only)      u64: page u32, slot u32
//! rest          zero
//! ```
//!
//! A full directory page is exactly 16 + 102 × 40 = 4,096 bytes and a full
//! leaf 16 + 26 × 48 = 1,264 bytes. The fanouts stay the paper's, derived
//! from its 40- and 156-byte entry sizes ([`DIR_ENTRY_BYTES`],
//! [`DATA_ENTRY_BYTES`]), so page counts match Table 1.

use crate::entry::{DataEntry, DirEntry, GeomRef, DATA_ENTRY_BYTES, DIR_ENTRY_BYTES};
use crate::frame::{FrameRef, JoinNode, PrefixArena};
use psj_geom::{Rect, SoaMbrs};
use psj_store::{Page, PageId, PAGE_SIZE};
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
    /// [`PrefixArena`] instead, so a frozen or loaded tree builds this
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

    /// Frozen struct-of-arrays view of the entry MBRs (in entry order),
    /// built on first use and cached for the node's lifetime. A join kernel
    /// sweeping `Node`s filters restriction windows over this view instead
    /// of copying `Rect`s per call.
    pub fn soa_mbrs(&self) -> &SoaMbrs {
        self.soa.get_or_init(|| match &self.kind {
            NodeKind::Dir(v) => SoaMbrs::from_iter(v.iter().map(|e| e.mbr)),
            NodeKind::Leaf(v) => SoaMbrs::from_iter(v.iter().map(|e| e.mbr)),
        })
    }

    /// Heap bytes the node holds: its entry vector and, once built, its SoA
    /// view.
    pub(crate) fn heap_bytes(&self) -> usize {
        let entries = match &self.kind {
            NodeKind::Dir(v) => v.capacity() * std::mem::size_of::<DirEntry>(),
            NodeKind::Leaf(v) => v.capacity() * std::mem::size_of::<DataEntry>(),
        };
        entries
            + self
                .soa
                .get()
                .map_or(0, |s| 4 * s.len() * std::mem::size_of::<f64>())
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

    /// Serializes the node into a 4 KB page in the PSJT3 layout: the
    /// header, the lanes `xl[n] xh[n] yl[n] yh[n]`, the children
    /// (directory) or object ids (leaf) as `u64` words, and for a leaf one
    /// geometry word per entry. The rest of the page is zero. This is the
    /// page a one-node [`PrefixArena`] writes.
    ///
    /// # Panics
    ///
    /// Panics if the node overflows its fanout (cannot happen for nodes
    /// produced by the insertion/split algorithms).
    pub fn encode(&self, page: &mut Page) {
        PrefixArena::from_nodes(std::slice::from_ref(self)).write_page(PageId(0), page);
    }

    /// The node an arena page holds ([`PrefixArena::read`],
    /// [`crate::PagedTree::frame`]), in its build-time form. The arena
    /// checked the page when it took it in, so this cannot fail.
    pub fn decode(frame: FrameRef<'_>) -> Self {
        let lanes = frame.lanes();
        let mbr = |i: usize| Rect {
            xl: lanes.xl[i],
            yl: lanes.yl[i],
            xu: lanes.xh[i],
            yu: lanes.yh[i],
        };
        let n = frame.len();
        let kind = if frame.is_leaf() {
            NodeKind::Leaf(
                (0..n)
                    .map(|i| DataEntry {
                        mbr: mbr(i),
                        oid: frame.oid(i),
                        geom: frame.geom(i),
                    })
                    .collect(),
            )
        } else {
            NodeKind::Dir(
                (0..n)
                    .map(|i| DirEntry {
                        mbr: mbr(i),
                        child: frame.child(i),
                    })
                    .collect(),
            )
        };
        // The SoA view is left unbuilt: a paged tree's join reads its
        // arena, and a decoded node builds the view on first sweep.
        Node::from_parts(frame.level(), kind)
    }
}

/// A leaf's geometry ref as one page word: the page in the low half, the
/// slot in the high half (bytes `page u32, slot u32`, little-endian).
pub(crate) fn geom_word(g: GeomRef) -> u64 {
    u64::from(g.page.0) | u64::from(g.slot) << 32
}

/// The geometry ref a leaf's page word holds; see [`geom_word`].
pub(crate) fn geom_of_word(w: u64) -> GeomRef {
    GeomRef {
        page: PageId(w as u32),
        slot: (w >> 32) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The node `page` holds, read through the arena's page reader.
    fn decoded(page: &Page) -> Result<Node, String> {
        let mut arena = PrefixArena::default();
        arena.push_page(page.bytes())?;
        Ok(Node::decode(arena.read(PageId(0))))
    }

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
        assert_eq!(decoded(&page).unwrap(), node);
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
        let back = decoded(&page).unwrap();
        assert_eq!(back, node);
        assert_eq!(back.level, 2);
        assert!(!back.is_leaf());
    }

    #[test]
    fn empty_node_roundtrip() {
        let node = Node::new_leaf();
        let mut page = Page::zeroed();
        node.encode(&mut page);
        let back = decoded(&page).unwrap();
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
    fn full_pages_fill_exactly_their_prefix() {
        let mut dir = Node::new_dir(1);
        for i in 0..DIR_FANOUT {
            dir.dir_entries_mut().push(DirEntry {
                mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
                child: u32::MAX - i as u32,
            });
        }
        let mut page = Page::zeroed();
        dir.encode(&mut page);
        assert_eq!(NODE_HEADER_BYTES + DIR_FANOUT * 40, PAGE_SIZE);
        // The last word on the page is the last child.
        let last = &page.bytes()[PAGE_SIZE - 8..];
        assert_eq!(last, u64::from(u32::MAX - 101).to_le_bytes());
        // A leaf's words end at 16 + 26 × 48 = 1,264 bytes, even over a
        // page that held something else.
        page.bytes_mut().fill(0xAB);
        leaf_with(DATA_FANOUT).encode(&mut page);
        assert!(page.bytes()[1264..].iter().all(|&b| b == 0));
        assert_ne!(page.bytes()[1256..1264], [0; 8]);
    }

    #[test]
    fn checked_decode_rejects_malformed_headers_and_children() {
        let mut page = Page::zeroed();
        leaf_with(3).encode(&mut page);
        let mut bad_kind = page.clone();
        bad_kind.bytes_mut()[4] = 2;
        assert!(decoded(&bad_kind).unwrap_err().contains("kind"));
        let mut overfull = page.clone();
        overfull.bytes_mut()[8..12].copy_from_slice(&200u32.to_le_bytes());
        assert!(decoded(&overfull).unwrap_err().contains("200"));

        let mut dir = Node::new_dir(1);
        dir.dir_entries_mut().push(DirEntry {
            mbr: Rect::new(0.0, 0.0, 1.0, 1.0),
            child: 7,
        });
        dir.encode(&mut page);
        // The child word follows the four lanes of the single entry.
        let at = NODE_HEADER_BYTES + 4 * 8 + 4;
        page.bytes_mut()[at] = 1;
        assert!(decoded(&page).unwrap_err().contains("child"));
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
        let back = decoded(&page).unwrap();
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
