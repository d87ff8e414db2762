//! A tree's pages without their padding, and the node views the joins
//! read.
//!
//! A frozen or loaded [`crate::PagedTree`] keeps its pages in one
//! [`PrefixArena`]: every page's used PSJT3 body words (lanes
//! `xl/xh/yl/yh`, ids, and on a leaf the geometry words; see
//! [`crate::node`]) back to back in page order in one exact-capacity
//! `u64` vector, plus one 16-byte span per page holding its header (word
//! offset, entry count, level, kind). That is the 4 KB page minus its zero
//! padding, and nothing else: a page enters the arena through its one
//! reader, [`PrefixArena::push_page`], and leaves it, padded back to 4 KB,
//! through [`PrefixArena::write_page`].
//!
//! [`JoinNode`] is what the join kernel and the candidate resolution read
//! from a node: its level, its entry MBRs as SoA lanes (`xl/xh/yl/yh`, one
//! array per coordinate), its children or object ids, and a leaf's
//! geometry refs. Three types implement it:
//!
//! * [`FrameRef`] — one page of an arena, viewed in place: its span and a
//!   bounds-checked subslice of the arena's words. The in-memory join, the
//!   sequential oracle, task creation, the morsel split pass and the
//!   tree profile read these.
//! * [`NodeFrame`] — one node as its page's words in a 4 KB slot, so a page
//!   cache keeps frames in place in its slots. A miss copies the page's
//!   words from the arena straight into a slot with [`NodeFrame::fill`]:
//!   three header fields and one word copy, no per-entry work, no
//!   allocation. The cached (out-of-core) join reads these.
//! * [`Node`] — the build-time node, whose lanes are built lazily on first
//!   use. The simulator and the benchmark's kernel timing read these.
//!
//! Both frames read their lanes through one `u64` → `f64` cast.

use crate::entry::GeomRef;
use crate::node::{
    geom_of_word, geom_word, Node, NodeKind, DATA_FANOUT, DIR_FANOUT, NODE_HEADER_BYTES,
};
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
/// `lanes`, the order the page, the arena and the cached frame keep them
/// in.
#[inline]
fn split_lanes(lanes: &[f64], n: usize) -> SoaRun<'_> {
    let (xl, rest) = lanes.split_at(n);
    let (xh, rest) = rest.split_at(n);
    let (yl, yh) = rest.split_at(n);
    SoaRun { xl, xh, yl, yh }
}

// The lane cast below reinterprets `u64` words as `f64`s.
const _: () = assert!(
    std::mem::size_of::<f64>() == std::mem::size_of::<u64>()
        && std::mem::align_of::<f64>() <= std::mem::align_of::<u64>()
);

/// `words` read as `f64`s: the one `u64` → `f64` cast, through which both
/// [`FrameRef`] and [`NodeFrame`] read their lanes.
#[inline]
fn as_f64(words: &[u64]) -> &[f64] {
    // SAFETY: `f64` has `u64`'s size and at most its alignment (asserted
    // above), and every bit pattern is a valid `f64`, so the lane words
    // stored as `to_bits` read back bit for bit.
    unsafe { std::slice::from_raw_parts(words.as_ptr().cast(), words.len()) }
}

/// Words per entry after the header: four lanes and an id, plus a geometry
/// word on a leaf.
fn entry_words(leaf: bool) -> usize {
    if leaf {
        6
    } else {
        5
    }
}

/// One page of a [`PrefixArena`]: its header, and where its words start.
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Offset of the page's first word in the arena.
    start: u32,
    /// Number of entries.
    len: u32,
    /// Level of the node (0 = leaf).
    level: u32,
    /// Whether the ids are object ids followed by geometry words (leaf) or
    /// children (directory).
    leaf: bool,
}

// A span stands in for the page header it replaces, byte for byte in size,
// so an exact-capacity arena holds exactly its pages' used prefixes.
const _: () = assert!(std::mem::size_of::<Span>() == NODE_HEADER_BYTES);

/// A tree's pages without their zero padding: each page's used body words
/// back to back in page order in one `u64` vector, and one 16-byte span per
/// page that holds its header. See the [module docs](self).
#[derive(Debug, Default)]
pub struct PrefixArena {
    words: Vec<u64>,
    spans: Vec<Span>,
}

impl PrefixArena {
    /// Packs `nodes`, one page each, in slice order, into an arena of
    /// exactly the words they use.
    ///
    /// # Panics
    ///
    /// Panics if a node overflows its fanout, or if the words outgrow a
    /// `u32` offset.
    pub fn from_nodes(nodes: &[Node]) -> Self {
        let words = nodes
            .iter()
            .map(|n| n.len() * entry_words(n.is_leaf()))
            .sum();
        let mut arena = PrefixArena {
            words: Vec::with_capacity(words),
            spans: Vec::with_capacity(nodes.len()),
        };
        for node in nodes {
            arena.push_node(node);
        }
        arena
    }

    /// An empty arena with room for `pages` spans.
    pub(crate) fn with_pages(pages: usize) -> Self {
        PrefixArena {
            words: Vec::new(),
            spans: Vec::with_capacity(pages),
        }
    }

    fn push_span(&mut self, start: usize, level: u32, leaf: bool, len: usize) {
        let start = u32::try_from(start).expect("arena words overflow a u32 offset");
        self.spans.push(Span {
            start,
            len: len as u32,
            level,
            leaf,
        });
    }

    /// Appends `node`'s page: lanes `xl[n] xh[n] yl[n] yh[n]` as `f64`
    /// bits, then the children (directory) or object ids (leaf), then a
    /// leaf's geometry words.
    fn push_node(&mut self, node: &Node) {
        assert!(node.len() <= node.fanout(), "node overflows page");
        let n = node.len();
        self.push_span(self.words.len(), node.level, node.is_leaf(), n);
        let coords: [fn(&Rect) -> f64; 4] = [|r| r.xl, |r| r.xu, |r| r.yl, |r| r.yu];
        for coord in coords {
            let lane = (0..n).map(|i| coord(&node.mbr_of(i)).to_bits());
            self.words.extend(lane);
        }
        match &node.kind {
            NodeKind::Dir(v) => self.words.extend(v.iter().map(|e| u64::from(e.child))),
            NodeKind::Leaf(v) => {
                self.words.extend(v.iter().map(|e| e.oid));
                self.words.extend(v.iter().map(|e| geom_word(e.geom)));
            }
        }
    }

    /// Appends the node stored on the 4 KB `page`: checks its header (kind
    /// byte 0 or 1, count within the kind's fanout) and, on a directory
    /// page, that every child word fits a page number, then copies the used
    /// words after the header. A page can pass its CRC and still fail this
    /// (a writer bug, or a record re-encoded over damaged bytes), so every
    /// loader reads pages through it. On error the arena is unchanged.
    pub fn push_page(&mut self, page: &[u8; PAGE_SIZE]) -> Result<(), String> {
        let (level, leaf, len) = header(page)?;
        let start = self.words.len();
        let body = page[NODE_HEADER_BYTES..][..8 * len * entry_words(leaf)].chunks_exact(8);
        let words = body.map(|b| u64::from_le_bytes(b.try_into().expect("8 bytes")));
        self.words.extend(words);
        if !leaf {
            let mut children = self.words[start + 4 * len..].iter().enumerate();
            if let Some((i, id)) = children.find(|&(_, &id)| u32::try_from(id).is_err()) {
                let err = format!("entry {i}: child {id} is no page");
                self.words.truncate(start);
                return Err(err);
            }
        }
        self.push_span(start, level, leaf, len);
        Ok(())
    }

    /// Appends an empty leaf: what a lenient load keeps for a page whose
    /// bytes failed verification.
    pub(crate) fn push_placeholder(&mut self) {
        self.push_span(self.words.len(), 0, true, 0);
    }

    /// Drops spare capacity, so the arena holds exactly its pages' words.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.words.shrink_to_fit();
        self.spans.shrink_to_fit();
    }

    /// Number of pages.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Whether the arena holds no pages.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty()
    }

    /// Heap bytes the arena holds: words and spans. A span is the size of
    /// the page header it stands for, so an exact-capacity arena holds
    /// exactly the sum of its pages' used prefixes.
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
            + self.spans.capacity() * std::mem::size_of::<Span>()
    }

    /// The node stored on `page`, viewed in place.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    #[inline]
    pub fn read(&self, page: PageId) -> FrameRef<'_> {
        let span = self.spans[page.index()];
        let start = span.start as usize;
        let used = span.len as usize * entry_words(span.leaf);
        FrameRef {
            level: span.level,
            len: span.len,
            leaf: span.leaf,
            words: &self.words[start..start + used],
        }
    }

    /// Writes `page`'s 4 KB image into `out`: the header, the used words
    /// little-endian, then zeros — the page [`Node::encode`] writes for the
    /// same node.
    ///
    /// # Panics
    ///
    /// Panics if `page` is out of range.
    pub fn write_page(&self, page: PageId, out: &mut Page) {
        let frame = self.read(page);
        let buf = out.bytes_mut();
        buf.fill(0);
        buf[0..4].copy_from_slice(&frame.level.to_le_bytes());
        buf[4] = if frame.leaf { 0 } else { 1 };
        buf[8..12].copy_from_slice(&frame.len.to_le_bytes());
        let body = buf[NODE_HEADER_BYTES..].chunks_exact_mut(8);
        for (b, w) in body.zip(frame.words) {
            b.copy_from_slice(&w.to_le_bytes());
        }
    }
}

/// One page of a [`PrefixArena`], viewed in place: its header and its used
/// words. `Copy`, and built with no lock and no allocation.
#[derive(Clone, Copy)]
pub struct FrameRef<'s> {
    level: u32,
    len: u32,
    leaf: bool,
    /// `xl`, `xh`, `yl`, `yh` and the ids, then on a leaf the geometry
    /// words, each `len` long.
    words: &'s [u64],
}

impl<'s> FrameRef<'s> {
    /// Whether this is a leaf.
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
    pub fn ids(&self) -> &'s [u64] {
        let n = self.len();
        &self.words[4 * n..5 * n]
    }
}

impl JoinNode for FrameRef<'_> {
    fn level(&self) -> u32 {
        self.level
    }

    #[inline]
    fn lanes(&self) -> SoaRun<'_> {
        let n = self.len();
        split_lanes(as_f64(&self.words[..4 * n]), n)
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
        geom_of_word(self.words[5 * n..][i])
    }
}

impl std::fmt::Debug for FrameRef<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FrameRef")
            .field("level", &self.level)
            .field("leaf", &self.leaf)
            .field("lanes", &self.lanes())
            .field("ids", &self.ids())
            .finish()
    }
}

/// Words after the header in a [`NodeFrame`]: the rest of one page.
const BODY_WORDS: usize = (PAGE_SIZE - NODE_HEADER_BYTES) / 8;

/// One node as its page's words: a 4 KB slot that holds the page's header,
/// unpacked, and its used words (lanes, ids and, on a leaf, geometry
/// words; see [`crate::node`]), and reads every field in place. The words
/// after that prefix are never written or read.
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
    // accessor passes a range inside the prefix `copy_words` wrote.
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

    /// Copies `frame`'s words, `len × (5 | 6)` for the header already
    /// unpacked here (a full leaf's words end at page byte 1,264).
    fn copy_words(&mut self, frame: FrameRef<'_>) {
        for (w, &x) in self.body.iter_mut().zip(frame.words) {
            w.write(x);
        }
    }

    /// Copies the node `frame` views into `out` and returns it, as the
    /// reference `MaybeUninit::write` gives: the header's three fields,
    /// then the page's used words, with no per-entry work.
    pub fn fill<'o>(frame: FrameRef<'_>, out: &'o mut MaybeUninit<Self>) -> &'o mut Self {
        let this = out.as_mut_ptr();
        // SAFETY: the scalar fields are written through raw pointers, never
        // read before; the body is `MaybeUninit` words, valid in any state,
        // so once the scalars are written the frame is whole.
        let this = unsafe {
            (&raw mut (*this).level).write(frame.level);
            (&raw mut (*this).len).write(frame.len);
            (&raw mut (*this).leaf).write(frame.leaf);
            out.assume_init_mut()
        };
        this.copy_words(frame);
        this
    }

    /// [`NodeFrame::fill`] as an owned value.
    pub fn from_frame(frame: FrameRef<'_>) -> Self {
        let mut this = NodeFrame {
            level: frame.level,
            len: frame.len,
            leaf: frame.leaf,
            body: [MaybeUninit::uninit(); BODY_WORDS],
        };
        this.copy_words(frame);
        this
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
        split_lanes(as_f64(written(&self.body, 4 * n)), n)
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

    /// The cached frame of `node`, filled from a one-page arena.
    fn node_frame(node: &Node) -> NodeFrame {
        NodeFrame::from_frame(PrefixArena::from_nodes(std::slice::from_ref(node)).read(PageId(0)))
    }

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
        let frame = node_frame(&node);
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
        let frame = node_frame(&node);
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
        let mut arena = PrefixArena::default();
        assert!(arena.push_page(page.bytes()).is_err());
        assert!(arena.is_empty());
    }

    #[test]
    fn an_unknown_kind_byte_is_an_error() {
        let mut page = encoded(&Node::new_dir(1));
        page.bytes_mut()[4] = 7;
        let mut arena = PrefixArena::default();
        assert!(arena.push_page(page.bytes()).is_err());
        assert!(arena.is_empty());
    }
}
