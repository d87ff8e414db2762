//! Node views for the join: packed frames for the in-memory join, fixed-size
//! frames for the cached join.
//!
//! [`JoinNode`] is what the join kernel and the candidate resolution read
//! from a node: its level, its entry MBRs as SoA lanes (`xl/xh/yl/yh`, one
//! array per coordinate), and its children or object ids. Three types
//! implement it:
//!
//! * [`FrameRef`] — a node of a frozen or loaded [`crate::PagedTree`], read
//!   from the tree's [`FrameSlab`]. The slab packs every node's lanes back
//!   to back in one `f64` vector and its children or object ids in one
//!   `u64` vector, in page order, so a node read is two bounds-checked
//!   subslices of two contiguous vectors. The in-memory join, the
//!   sequential oracle, task creation, the morsel split pass and the
//!   estimator's tree profile read these.
//! * [`NodeFrame`] — one node as its page's words in a 4 KB slot. The
//!   page layout (PSJT3, [`crate::node`]) is the frame layout, so a page
//!   cache keeps frames in place in its slots and a miss copies the page's
//!   used prefix straight into a slot with [`NodeFrame::decode_into`]: a
//!   header check and one word copy, no per-entry work, no allocation.
//!   The cached (out-of-core) join reads these.
//! * [`Node`] — the build-time node, whose lanes are built lazily on first
//!   use. The simulator and the benchmark's kernel timing read these.

use crate::entry::GeomRef;
use crate::node::{geom_of_word, Node, NodeKind, DATA_FANOUT, DIR_FANOUT, NODE_HEADER_BYTES};
use psj_geom::{Rect, SoaRun};
use psj_store::{Page, PageId, PAGE_SIZE};
use std::mem::MaybeUninit;

/// The view of a node the join kernel and the candidate resolution read.
pub trait JoinNode {
    /// Level of the node (0 = leaf).
    fn level(&self) -> u32;

    /// The entry MBRs as SoA lanes, in entry (xl-sorted) order.
    fn lanes(&self) -> SoaRun<'_>;

    /// Child page of directory entry `i`.
    fn child(&self, i: usize) -> u32;

    /// Object id of data entry `i`.
    fn oid(&self, i: usize) -> u64;

    /// Geometry reference of data entry `i`.
    fn geom(&self, i: usize) -> GeomRef;

    /// Union of all entry MBRs ([`Rect::empty`] for an empty node).
    fn mbr(&self) -> Rect {
        let lanes = self.lanes();
        (0..lanes.len()).fold(Rect::empty(), |r, i| r.union(&lanes.rect(i)))
    }
}

/// Reads a page's node header: `(level, is_leaf, entry count)`, with the
/// kind byte checked to be 0 (leaf) or 1 (directory) and the count against
/// the kind's fanout, so an entry loop never runs off the page.
fn header(bytes: &[u8; PAGE_SIZE]) -> Result<(u32, bool, usize), String> {
    let level = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let leaf = match bytes[4] {
        0 => true,
        1 => false,
        kind => return Err(format!("node header has kind byte {kind}, not 0 or 1")),
    };
    let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes")) as usize;
    let fanout = if leaf { DATA_FANOUT } else { DIR_FANOUT };
    if len > fanout {
        return Err(format!(
            "node header claims {len} entries, fanout is {fanout}"
        ));
    }
    Ok((level, leaf, len))
}

impl JoinNode for Node {
    fn level(&self) -> u32 {
        self.level
    }

    #[inline]
    fn lanes(&self) -> SoaRun<'_> {
        self.soa_mbrs().run()
    }

    #[inline]
    fn child(&self, i: usize) -> u32 {
        self.dir_entries()[i].child
    }

    #[inline]
    fn oid(&self, i: usize) -> u64 {
        self.data_entries()[i].oid
    }

    #[inline]
    fn geom(&self, i: usize) -> GeomRef {
        self.data_entries()[i].geom
    }
}

/// The four lanes `xl[n] xh[n] yl[n] yh[n]` stored back to back in
/// `lanes`, the order both the slab and the page keep them in.
#[inline]
fn split_lanes(lanes: &[f64], n: usize) -> SoaRun<'_> {
    let (xl, rest) = lanes.split_at(n);
    let (xh, rest) = rest.split_at(n);
    let (yl, yh) = rest.split_at(n);
    SoaRun { xl, xh, yl, yh }
}

/// Where one node's frame lies in a [`FrameSlab`].
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Index of the node's first id; its lanes start at `4 * start`.
    start: u32,
    /// Number of entries.
    len: u32,
    /// Level of the node (0 = leaf).
    level: u32,
    /// Whether the ids are object ids (leaf) or children (directory).
    leaf: bool,
}

/// The packed, read-only join view of a tree's nodes, built once in page
/// order. `lanes` holds each node's `xl[n] xh[n] yl[n] yh[n]` back to
/// back, `ids` its children (directory) or object ids (leaf), and one span
/// per page says where they start. Both vectors are sized exactly. The
/// geometry refs stay in the nodes' data entries: only refinement reads
/// them, and the slab holds exactly what the filter step reads.
#[derive(Debug)]
pub struct FrameSlab {
    lanes: Vec<f64>,
    ids: Vec<u64>,
    spans: Vec<Span>,
}

impl FrameSlab {
    /// Packs `nodes`, one frame per node, in slice order. A node without
    /// entries (a poisoned page's placeholder) gets an empty frame.
    ///
    /// # Panics
    ///
    /// Panics if the nodes hold more than `u32::MAX` entries in total.
    pub fn new(nodes: &[Node]) -> Self {
        let entries: usize = nodes.iter().map(Node::len).sum();
        assert!(
            u32::try_from(entries).is_ok(),
            "{entries} entries overflow a frame slab"
        );
        let mut slab = FrameSlab {
            lanes: Vec::with_capacity(4 * entries),
            ids: Vec::with_capacity(entries),
            spans: Vec::with_capacity(nodes.len()),
        };
        let coords: [fn(&Rect) -> f64; 4] = [|r| r.xl, |r| r.xu, |r| r.yl, |r| r.yu];
        for node in nodes {
            let n = node.len();
            slab.spans.push(Span {
                start: slab.ids.len() as u32,
                len: n as u32,
                level: node.level,
                leaf: node.is_leaf(),
            });
            for coord in coords {
                slab.lanes.extend((0..n).map(|i| coord(&node.mbr_of(i))));
            }
            match &node.kind {
                NodeKind::Dir(v) => slab.ids.extend(v.iter().map(|e| u64::from(e.child))),
                NodeKind::Leaf(v) => slab.ids.extend(v.iter().map(|e| e.oid)),
            }
        }
        slab
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the slab holds no frames.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Heap bytes the slab holds: lanes, ids and spans.
    pub fn heap_bytes(&self) -> usize {
        self.lanes.capacity() * std::mem::size_of::<f64>()
            + self.ids.capacity() * std::mem::size_of::<u64>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// The frame of `page`, whose geometry refs are read from `nodes`, the
    /// nodes the slab was packed from.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[inline]
    pub fn frame<'s>(&'s self, nodes: &'s [Node], page: PageId) -> FrameRef<'s> {
        let span = self.spans[page.index()];
        let (start, len) = (span.start as usize, span.len as usize);
        FrameRef {
            level: span.level,
            leaf: span.leaf,
            lanes: &self.lanes[4 * start..4 * (start + len)],
            ids: &self.ids[start..start + len],
            node: &nodes[page.index()],
        }
    }
}

/// One node of a [`FrameSlab`]: its lanes and ids as subslices of the
/// slab's two vectors, plus the node whose data entries hold the geometry
/// refs (read only by refinement). `Copy`, and built with no lock and no
/// allocation.
#[derive(Clone, Copy)]
pub struct FrameRef<'s> {
    level: u32,
    leaf: bool,
    /// `xl`, `xh`, `yl`, `yh`, each `ids.len()` long.
    lanes: &'s [f64],
    ids: &'s [u64],
    node: &'s Node,
}

impl<'s> FrameRef<'s> {
    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Children (directory) or object ids (leaf), by entry.
    pub fn ids(&self) -> &'s [u64] {
        self.ids
    }
}

impl JoinNode for FrameRef<'_> {
    fn level(&self) -> u32 {
        self.level
    }

    #[inline]
    fn lanes(&self) -> SoaRun<'_> {
        split_lanes(self.lanes, self.ids.len())
    }

    #[inline]
    fn child(&self, i: usize) -> u32 {
        debug_assert!(!self.leaf, "child of a leaf");
        self.ids[i] as u32
    }

    #[inline]
    fn oid(&self, i: usize) -> u64 {
        debug_assert!(self.leaf, "oid of a directory node");
        self.ids[i]
    }

    #[inline]
    fn geom(&self, i: usize) -> GeomRef {
        self.node.data_entries()[i].geom
    }
}

impl std::fmt::Debug for FrameRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameRef")
            .field("level", &self.level)
            .field("leaf", &self.leaf)
            .field("lanes", &self.lanes())
            .field("ids", &self.ids)
            .finish()
    }
}

/// Words after the header in a [`NodeFrame`]: the rest of one page.
const BODY_WORDS: usize = (PAGE_SIZE - NODE_HEADER_BYTES) / 8;

/// Words per entry after the header: four lanes and an id, plus a geometry
/// word on a leaf.
fn entry_words(leaf: bool) -> usize {
    if leaf {
        6
    } else {
        5
    }
}

/// One node as its page's words: a 4 KB slot that holds the page's header,
/// checked and unpacked, and the used prefix of the words after it (lanes,
/// ids and, on a leaf, geometry words; see [`crate::node`]) as native
/// `u64`s, and reads every field in place. The words after that prefix are
/// never written or read.
///
/// `repr(C)` keeps the header in the slot's first 16 bytes, as on the
/// page, so a fill writes one contiguous run of cache lines (20 for a full
/// leaf) and a read of a leaf stays on one 4 KB memory page when the slot
/// starts near a page boundary.
#[repr(C)]
pub struct NodeFrame {
    level: u32,
    len: u32,
    leaf: bool,
    body: [MaybeUninit<u64>; BODY_WORDS],
}

const _: () = assert!(std::mem::size_of::<NodeFrame>() <= PAGE_SIZE);

/// The first `n` elements of `a`, which the caller guarantees are written.
#[inline]
fn written(a: &[MaybeUninit<u64>], n: usize) -> &[u64] {
    assert!(n <= a.len());
    // SAFETY: `MaybeUninit<u64>` has `u64`'s layout, and every frame
    // accessor passes a range inside the prefix `copy_body` wrote.
    unsafe { std::slice::from_raw_parts(a.as_ptr().cast(), n) }
}

// The lane cast below reinterprets `u64` words as `f64`s.
const _: () = assert!(
    std::mem::size_of::<f64>() == std::mem::size_of::<u64>()
        && std::mem::align_of::<f64>() <= std::mem::align_of::<u64>()
);

/// As [`written`], read as `f64`s: the frame's one `u64` → `f64` cast.
#[inline]
fn written_f64(a: &[MaybeUninit<u64>], n: usize) -> &[f64] {
    assert!(n <= a.len());
    // SAFETY: as in `written`; in addition `f64` has `u64`'s size and at
    // most its alignment (asserted above), and every bit pattern is a valid
    // `f64`, so the lane words the page stored as `to_bits` read back
    // bit for bit.
    unsafe { std::slice::from_raw_parts(a.as_ptr().cast(), n) }
}

impl NodeFrame {
    /// Whether this is a leaf.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Number of entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Children (directory) or object ids (leaf), by entry.
    #[inline]
    pub fn ids(&self) -> &[u64] {
        let n = self.len();
        written(&self.body[4 * n..], n)
    }

    /// Copies the used prefix of the words after `page`'s header into the
    /// body, `len × (5 | 6)` words for the header already unpacked here (a
    /// full leaf's page ends at byte 1,264).
    fn copy_body(&mut self, page: &Page) {
        let used = self.len() * entry_words(self.leaf);
        let words = page.bytes()[NODE_HEADER_BYTES..].chunks_exact(8);
        for (w, b) in self.body[..used].iter_mut().zip(words) {
            w.write(u64::from_le_bytes(b.try_into().expect("8 bytes")));
        }
    }

    /// Copies the node stored on `page` into `out` and returns it, as the
    /// reference `MaybeUninit::write` gives: the header checked and
    /// unpacked, then the page's used prefix copied word for word, with no
    /// per-entry work. On error `out` holds no value (a frame needs no
    /// drop).
    pub fn decode_into<'o>(
        page: &Page,
        out: &'o mut MaybeUninit<Self>,
    ) -> Result<&'o mut Self, String> {
        let (level, leaf, len) = header(page.bytes())?;
        let frame = out.as_mut_ptr();
        // SAFETY: the scalar fields are written through raw pointers, never
        // read before; the body is `MaybeUninit` words, valid in any state,
        // so once the scalars are written the frame is whole.
        let frame = unsafe {
            (&raw mut (*frame).level).write(level);
            (&raw mut (*frame).len).write(len as u32);
            (&raw mut (*frame).leaf).write(leaf);
            out.assume_init_mut()
        };
        frame.copy_body(page);
        Ok(frame)
    }

    /// [`NodeFrame::decode_into`] as an owned value.
    pub fn from_page(page: &Page) -> Result<Self, String> {
        let (level, leaf, len) = header(page.bytes())?;
        let mut frame = NodeFrame {
            level,
            len: len as u32,
            leaf,
            body: [MaybeUninit::uninit(); BODY_WORDS],
        };
        frame.copy_body(page);
        Ok(frame)
    }
}

impl JoinNode for NodeFrame {
    #[inline]
    fn level(&self) -> u32 {
        self.level
    }

    #[inline]
    fn lanes(&self) -> SoaRun<'_> {
        let n = self.len();
        split_lanes(written_f64(&self.body, 4 * n), n)
    }

    #[inline]
    fn child(&self, i: usize) -> u32 {
        debug_assert!(!self.leaf, "child of a leaf");
        self.ids()[i] as u32
    }

    #[inline]
    fn oid(&self, i: usize) -> u64 {
        debug_assert!(self.leaf, "oid of a directory node");
        self.ids()[i]
    }

    #[inline]
    fn geom(&self, i: usize) -> GeomRef {
        assert!(self.leaf, "geometry ref of a directory node");
        let n = self.len();
        geom_of_word(written(&self.body[5 * n..], n)[i])
    }
}

impl std::fmt::Debug for NodeFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let leaf_entries = if self.leaf { self.len() } else { 0 };
        let geoms: Vec<GeomRef> = (0..leaf_entries).map(|i| self.geom(i)).collect();
        f.debug_struct("NodeFrame")
            .field("level", &self.level)
            .field("leaf", &self.leaf)
            .field("lanes", &self.lanes())
            .field("ids", &self.ids())
            .field("geoms", &geoms)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::entry::{DataEntry, DirEntry};

    fn encoded(node: &Node) -> Page {
        let mut page = Page::zeroed();
        node.encode(&mut page);
        page
    }

    #[test]
    fn frame_mirrors_a_leaf() {
        let mut node = Node::new_leaf();
        for i in 0..DATA_FANOUT {
            node.data_entries_mut().push(DataEntry {
                mbr: Rect::new(i as f64, -1.0, i as f64 + 0.5, 2.0),
                oid: 1000 + i as u64,
                geom: GeomRef {
                    page: PageId(7),
                    slot: i as u32,
                },
            });
        }
        let frame = NodeFrame::from_page(&encoded(&node)).unwrap();
        assert_eq!(
            (frame.level(), frame.is_leaf(), frame.len()),
            (0, true, DATA_FANOUT)
        );
        assert_eq!(frame.lanes().xl, node.soa_mbrs().xl());
        assert_eq!(frame.lanes().yh, node.soa_mbrs().yh());
        for i in 0..DATA_FANOUT {
            assert_eq!(frame.oid(i), node.oid(i));
            assert_eq!(frame.geom(i), node.geom(i));
        }
        assert_eq!(JoinNode::mbr(&frame), node.mbr());
    }

    #[test]
    fn frame_mirrors_a_directory_node() {
        let mut node = Node::new_dir(3);
        for i in 0..DIR_FANOUT {
            node.dir_entries_mut().push(DirEntry {
                mbr: Rect::new(0.0, i as f64, 1.0, i as f64 + 2.0),
                child: 40 + i as u32,
            });
        }
        let frame = NodeFrame::from_page(&encoded(&node)).unwrap();
        assert_eq!(
            (frame.level(), frame.is_leaf(), frame.len()),
            (3, false, DIR_FANOUT)
        );
        assert_eq!(frame.lanes().yl, node.soa_mbrs().yl());
        assert_eq!(frame.lanes().xh, node.soa_mbrs().xh());
        let children: Vec<u64> = node.dir_entries().iter().map(|e| e.child.into()).collect();
        assert_eq!(frame.ids(), &children[..]);
    }

    #[test]
    fn an_overfull_header_is_an_error_not_an_overrun() {
        let mut page = encoded(&Node::new_leaf());
        page.bytes_mut()[8..12].copy_from_slice(&(DATA_FANOUT as u32 + 1).to_le_bytes());
        assert!(NodeFrame::from_page(&page).is_err());
    }

    #[test]
    fn an_unknown_kind_byte_is_an_error() {
        let mut page = encoded(&Node::new_dir(1));
        page.bytes_mut()[4] = 7;
        assert!(NodeFrame::from_page(&page).is_err());
    }
}
