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
//! * [`NodeFrame`] — one node with every field inline in one fixed-size
//!   value. A page cache keeps frames in place in its slots, and a miss
//!   transcodes the page's PSJT2 bytes straight into a slot with
//!   [`NodeFrame::decode_into`]: no allocation and no intermediate value.
//!   The cached (out-of-core) join reads these.
//! * [`Node`] — the build-time node, whose lanes are built lazily on first
//!   use. The simulator, the shared-nothing simulation, the cost estimate
//!   and the benchmark's kernel timing read these.

use crate::entry::{GeomRef, DATA_ENTRY_BYTES, DIR_ENTRY_BYTES};
use crate::node::{Node, NodeKind, DATA_FANOUT, DIR_FANOUT, NODE_HEADER_BYTES};
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
/// count checked against the kind's fanout so an entry loop never runs off
/// the page.
fn header(bytes: &[u8; PAGE_SIZE]) -> Result<(u32, bool, usize), String> {
    let level = u32::from_le_bytes(bytes[0..4].try_into().expect("4 bytes"));
    let leaf = bytes[4] == 0;
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
        let n = self.ids.len();
        let (xl, rest) = self.lanes.split_at(n);
        let (xh, rest) = rest.split_at(n);
        let (yl, yh) = rest.split_at(n);
        SoaRun { xl, xh, yl, yh }
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

/// One node with every field inline: no heap storage, a fixed size, and the
/// MBR lanes laid out for the sweep kernel. Only the first
/// [`NodeFrame::len`] elements of each array are initialised; the children
/// of a leaf and the object ids and geometry refs of a directory node are
/// never written.
pub struct NodeFrame {
    level: u32,
    leaf: bool,
    len: u32,
    xl: [MaybeUninit<f64>; DIR_FANOUT],
    xh: [MaybeUninit<f64>; DIR_FANOUT],
    yl: [MaybeUninit<f64>; DIR_FANOUT],
    yh: [MaybeUninit<f64>; DIR_FANOUT],
    children: [MaybeUninit<u32>; DIR_FANOUT],
    oids: [MaybeUninit<u64>; DATA_FANOUT],
    geoms: [MaybeUninit<GeomRef>; DATA_FANOUT],
}

/// The first `n` elements of `a`, which the caller guarantees are written.
#[inline]
fn written<T>(a: &[MaybeUninit<T>], n: usize) -> &[T] {
    assert!(n <= a.len());
    // SAFETY: `MaybeUninit<T>` has `T`'s layout, and every frame accessor
    // passes the count of elements `decode_into` wrote.
    unsafe { std::slice::from_raw_parts(a.as_ptr().cast(), n) }
}

impl NodeFrame {
    /// Whether this is a leaf.
    pub fn is_leaf(&self) -> bool {
        self.leaf
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the node has no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Child pages, by entry (empty for a leaf).
    pub fn children(&self) -> &[u32] {
        written(&self.children, if self.leaf { 0 } else { self.len() })
    }

    /// Object ids, by entry (empty for a directory node).
    pub fn oids(&self) -> &[u64] {
        written(&self.oids, if self.leaf { self.len() } else { 0 })
    }

    /// Geometry refs, by entry (empty for a directory node).
    pub fn geoms(&self) -> &[GeomRef] {
        written(&self.geoms, if self.leaf { self.len() } else { 0 })
    }

    /// Builds the node stored on `page` into `out` and returns it, as the
    /// reference `MaybeUninit::write` gives. One pass over the page's
    /// entries, each coordinate written straight into its lane: the same
    /// bytes [`Node::decode`] reads, transcoded instead of collected. On
    /// error `out` holds no value (a frame needs no drop).
    pub fn decode_into<'o>(
        page: &Page,
        out: &'o mut MaybeUninit<Self>,
    ) -> Result<&'o mut Self, String> {
        let bytes = page.bytes();
        let (level, leaf, len) = header(bytes)?;
        let f64_at = |e: &[u8], o: usize| f64::from_le_bytes(e[o..o + 8].try_into().expect("8"));
        let u32_at = |e: &[u8], o: usize| u32::from_le_bytes(e[o..o + 4].try_into().expect("4"));
        let frame = out.as_mut_ptr();
        // SAFETY: the scalar fields are written through raw pointers, never
        // read before; the arrays hold `MaybeUninit` elements, which are
        // valid in any state, so borrowing them mutably is sound. `len` is
        // within both fanouts' array bounds (checked by `header`).
        unsafe {
            (&raw mut (*frame).level).write(level);
            (&raw mut (*frame).leaf).write(leaf);
            (&raw mut (*frame).len).write(len as u32);
            let xl = &mut (*frame).xl;
            let xh = &mut (*frame).xh;
            let yl = &mut (*frame).yl;
            let yh = &mut (*frame).yh;
            // Every entry starts with its MBR as xl, yl, xu, yu.
            let mut mbr = |i: usize, e: &[u8]| {
                xl[i].write(f64_at(e, 0));
                yl[i].write(f64_at(e, 8));
                xh[i].write(f64_at(e, 16));
                yh[i].write(f64_at(e, 24));
            };
            let body = &bytes[NODE_HEADER_BYTES..];
            if leaf {
                let oids = &mut (*frame).oids;
                let geoms = &mut (*frame).geoms;
                for (i, e) in body.chunks_exact(DATA_ENTRY_BYTES).take(len).enumerate() {
                    mbr(i, e);
                    oids[i].write(u64::from_le_bytes(e[32..40].try_into().expect("8")));
                    geoms[i].write(GeomRef {
                        page: PageId(u32_at(e, 40)),
                        slot: u32_at(e, 44),
                    });
                }
            } else {
                let children = &mut (*frame).children;
                for (i, e) in body.chunks_exact(DIR_ENTRY_BYTES).take(len).enumerate() {
                    mbr(i, e);
                    children[i].write(u32_at(e, 32));
                }
            }
            // SAFETY: the three scalar fields are written above and every
            // other field is `MaybeUninit` arrays: the frame is whole.
            Ok(out.assume_init_mut())
        }
    }

    /// [`NodeFrame::decode_into`] as an owned value.
    pub fn from_page(page: &Page) -> Result<Self, String> {
        let mut out = MaybeUninit::uninit();
        Self::decode_into(page, &mut out)?;
        // SAFETY: `decode_into` returned `Ok`, so it wrote a whole frame.
        Ok(unsafe { out.assume_init() })
    }
}

impl JoinNode for NodeFrame {
    fn level(&self) -> u32 {
        self.level
    }

    #[inline]
    fn lanes(&self) -> SoaRun<'_> {
        let n = self.len();
        SoaRun {
            xl: written(&self.xl, n),
            xh: written(&self.xh, n),
            yl: written(&self.yl, n),
            yh: written(&self.yh, n),
        }
    }

    #[inline]
    fn child(&self, i: usize) -> u32 {
        self.children()[i]
    }

    #[inline]
    fn oid(&self, i: usize) -> u64 {
        self.oids()[i]
    }

    #[inline]
    fn geom(&self, i: usize) -> GeomRef {
        self.geoms()[i]
    }
}

impl std::fmt::Debug for NodeFrame {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeFrame")
            .field("level", &self.level)
            .field("leaf", &self.leaf)
            .field("lanes", &self.lanes())
            .field("children", &self.children())
            .field("oids", &self.oids())
            .field("geoms", &self.geoms())
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
        assert!(frame.children().is_empty());
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
        let children: Vec<u32> = node.dir_entries().iter().map(|e| e.child).collect();
        assert_eq!(frame.children(), &children[..]);
        assert!(frame.oids().is_empty() && frame.geoms().is_empty());
    }

    #[test]
    fn an_overfull_header_is_an_error_not_an_overrun() {
        let mut page = encoded(&Node::new_leaf());
        page.bytes_mut()[8..12].copy_from_slice(&(DATA_FANOUT as u32 + 1).to_le_bytes());
        assert!(NodeFrame::from_page(&page).is_err());
    }
}
