//! Property-based tests for the R*-tree.

use proptest::prelude::*;
use psj_geom::{Point, Polyline, Rect};
use psj_rtree::bulk::bulk_load_str_with_fanout;
use psj_rtree::split::rstar_split;
use psj_rtree::{
    DataEntry, DirEntry, FrameRef, GeomRef, JoinNode, Node, NodeFrame, PagedTree, PrefixArena,
    RTree, DATA_FANOUT, DIR_FANOUT,
};
use psj_store::{encode_record, Page, PageId, PAGE_RECORD_SIZE};
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicUsize, Ordering};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..1000.0, 0.0f64..1000.0, 0.0f64..20.0, 0.0f64..20.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// A coordinate: mostly finite, with ±0.0, ±inf and NaNs (including a
/// negative one and one with a payload) mixed in.
fn arb_coord() -> impl Strategy<Value = f64> {
    (0u32..16, -1.0e6f64..1.0e6).prop_map(|(k, v)| match k {
        0 => 0.0,
        1 => -0.0,
        2 => f64::INFINITY,
        3 => f64::NEG_INFINITY,
        4 => f64::NAN,
        5 => -f64::NAN,
        6 => f64::from_bits(0x7ff8_0000_0000_1234),
        _ => v,
    })
}

/// Any four coordinates, built without `Rect::new`'s ordering check.
fn arb_raw_rect() -> impl Strategy<Value = Rect> {
    (arb_coord(), arb_coord(), arb_coord(), arb_coord()).prop_map(|(xl, yl, xu, yu)| Rect {
        xl,
        yl,
        xu,
        yu,
    })
}

fn bits(lane: &[f64]) -> Vec<u64> {
    lane.iter().map(|v| v.to_bits()).collect()
}

/// A leaf (`leaf`) or a directory node at `level` over `rects`, truncated to
/// the kind's fanout, with ids and geometry refs derived from `salt`.
fn raw_node(leaf: bool, level: u32, rects: &[Rect], salt: u64) -> Node {
    if leaf {
        let mut node = Node::new_leaf();
        for (i, &mbr) in rects
            .iter()
            .take(rects.len() % (DATA_FANOUT + 1))
            .enumerate()
        {
            node.data_entries_mut().push(DataEntry {
                mbr,
                oid: salt ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                geom: GeomRef {
                    page: PageId((salt as u32).wrapping_add(i as u32)),
                    slot: (salt >> 32) as u32 ^ i as u32,
                },
            });
        }
        node
    } else {
        let mut node = Node::new_dir(level);
        for (i, &mbr) in rects.iter().enumerate() {
            node.dir_entries_mut().push(DirEntry {
                mbr,
                child: (salt >> 16) as u32 ^ i as u32,
            });
        }
        node
    }
}

/// A node's fields as bits: level, kind, each entry's MBR as
/// `[xl, yl, xu, yu]` bit patterns, and its children, object ids and
/// geometry refs. Two nodes are the same node exactly when these match,
/// NaN payloads and signed zeros included.
type NodeBits = (u32, bool, Vec<[u64; 4]>, Vec<u64>, Vec<GeomRef>);

fn node_bits(node: &Node) -> NodeBits {
    let mbr = |r: &Rect| [r.xl, r.yl, r.xu, r.yu].map(f64::to_bits);
    let (mbrs, ids, geoms) = if node.is_leaf() {
        let v = node.data_entries();
        (
            v.iter().map(|e| mbr(&e.mbr)).collect(),
            v.iter().map(|e| e.oid).collect(),
            v.iter().map(|e| e.geom).collect(),
        )
    } else {
        let v = node.dir_entries();
        (
            v.iter().map(|e| mbr(&e.mbr)).collect(),
            v.iter().map(|e| u64::from(e.child)).collect(),
            Vec::new(),
        )
    };
    (node.level, node.is_leaf(), mbrs, ids, geoms)
}

/// A join view is its node: level, kind and length, lanes bit-identical
/// to the node's SoA view, and the same children, object ids and geometry
/// refs. `leaf`, `len` and `ids` are the view's own (inherent) readings.
fn view_is_node<J: JoinNode>(
    view: &J,
    leaf: bool,
    len: usize,
    ids: &[u64],
    node: &Node,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(view.level(), node.level);
    prop_assert_eq!(leaf, node.is_leaf());
    prop_assert_eq!(len, node.len());
    let (lanes, soa) = (view.lanes(), node.soa_mbrs());
    prop_assert_eq!(bits(lanes.xl), bits(soa.xl()));
    prop_assert_eq!(bits(lanes.xh), bits(soa.xh()));
    prop_assert_eq!(bits(lanes.yl), bits(soa.yl()));
    prop_assert_eq!(bits(lanes.yh), bits(soa.yh()));
    if node.is_leaf() {
        let oids: Vec<u64> = node.data_entries().iter().map(|e| e.oid).collect();
        let geoms: Vec<GeomRef> = node.data_entries().iter().map(|e| e.geom).collect();
        let view_oids: Vec<u64> = (0..len).map(|i| view.oid(i)).collect();
        let view_geoms: Vec<GeomRef> = (0..len).map(|i| view.geom(i)).collect();
        prop_assert_eq!(ids, &oids[..]);
        prop_assert_eq!(view_oids, oids);
        prop_assert_eq!(view_geoms, geoms);
    } else {
        let children: Vec<u32> = node.dir_entries().iter().map(|e| e.child).collect();
        let wide: Vec<u64> = children.iter().map(|&c| u64::from(c)).collect();
        let view_children: Vec<u32> = (0..len).map(|i| view.child(i)).collect();
        prop_assert_eq!(ids, &wide[..]);
        prop_assert_eq!(view_children, children);
    }
    Ok(())
}

/// An arena frame is its node.
fn frame_is_node(frame: &FrameRef<'_>, node: &Node) -> Result<(), TestCaseError> {
    view_is_node(frame, frame.is_leaf(), frame.len(), frame.ids(), node)
}

/// A cached frame is its node.
fn node_frame_is_node(frame: &NodeFrame, node: &Node) -> Result<(), TestCaseError> {
    view_is_node(frame, frame.is_leaf(), frame.len(), frame.ids(), node)
}

/// `node` encoded into a page that held other bytes before.
fn encoded(node: &Node) -> Page {
    let mut page = Page::zeroed();
    page.bytes_mut().fill(0x5A);
    node.encode(&mut page);
    page
}

/// Bytes of a page the node's header and words use: 16, plus 40 per
/// directory entry or 48 per data entry.
fn used_prefix(node: &Node) -> usize {
    16 + node.len() * if node.is_leaf() { 48 } else { 40 }
}

/// `rects` shaped to a fill: 0 = empty, 1 = full to the kind's fanout
/// (cycling `rects`, or a NaN-and-infinity rectangle if there are none),
/// anything else as drawn.
fn shaped(rects: Vec<Rect>, shape: u32, leaf: bool) -> Vec<Rect> {
    let fanout = if leaf { DATA_FANOUT } else { DIR_FANOUT };
    match shape {
        0 => Vec::new(),
        1 if rects.is_empty() => vec![
            Rect {
                xl: f64::NAN,
                yl: -0.0,
                xu: f64::INFINITY,
                yu: f64::NEG_INFINITY,
            };
            fanout
        ],
        1 => rects.iter().copied().cycle().take(fanout).collect(),
        _ => rects,
    }
}

/// Every page's arena frame is the page's node.
fn frames_are_nodes(tree: &PagedTree) -> Result<(), TestCaseError> {
    for p in 0..tree.num_pages() {
        let page = PageId(p as u32);
        frame_is_node(&tree.frame(page), tree.node(page))?;
    }
    Ok(())
}

/// `rects` indexed by insertion (or STR bulk loading at fanout 6) and
/// frozen, each object's geometry its MBR's diagonal.
fn paged_tree(rects: &[Rect], bulk: bool) -> PagedTree {
    let tree = if bulk {
        let items: Vec<(Rect, u64)> = rects
            .iter()
            .enumerate()
            .map(|(i, &r)| (r, i as u64))
            .collect();
        bulk_load_str_with_fanout(&items, 6, 6)
    } else {
        let mut t = RTree::new();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        t
    };
    PagedTree::freeze(&tree, |oid| {
        let r = &rects[oid as usize];
        Some(Polyline::new(vec![
            Point::new(r.xl, r.yl),
            Point::new(r.xu, r.yu),
        ]))
    })
}

/// A temporary file path unique to this process and call.
fn tmpfile(name: &str) -> std::path::PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("psj-prop-{}-{name}-{n}", std::process::id()))
}

/// Byte offset of page `n`'s record in a tree file: magic 6 + root 4 +
/// height 4 + items 8 + pages 4 + clusters 4, then the page records.
fn record_offset(n: usize) -> usize {
    30 + n * PAGE_RECORD_SIZE
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The page layout round-trips and every view of it is the node: for
    /// leaf and directory nodes, empty, full (102 / 26 entries) and of
    /// every fill between, with ±0.0, ±inf and NaN-payload coordinates
    /// compared bit for bit, the page read into an arena decodes to `n`,
    /// its arena frame and the cached frame filled from it read as `n`, and
    /// the arena writes the page back byte for byte. The bytes after the
    /// used prefix are zero.
    #[test]
    fn node_frame_matches_node(
        leaf in 0u32..2,
        level in 1u32..6,
        rects in prop::collection::vec(arb_raw_rect(), 0..DIR_FANOUT + 1),
        shape in 0u32..4,
        salt in 0u64..u64::MAX,
    ) {
        let node = raw_node(leaf == 1, level, &shaped(rects, shape, leaf == 1), salt);
        if shape == 1 {
            prop_assert_eq!(node.len(), node.fanout());
        }
        let page = encoded(&node);
        prop_assert!(page.bytes()[used_prefix(&node)..].iter().all(|&b| b == 0));
        let mut arena = PrefixArena::default();
        arena.push_page(page.bytes()).map_err(TestCaseError::fail)?;
        let view = arena.read(PageId(0));
        prop_assert_eq!(node_bits(&Node::decode(view)), node_bits(&node));
        frame_is_node(&view, &node)?;
        node_frame_is_node(&NodeFrame::from_frame(view), &node)?;
        let mut back = Page::zeroed();
        back.bytes_mut().fill(0xA5);
        arena.write_page(PageId(0), &mut back);
        prop_assert!(back.bytes() == page.bytes(), "the arena rewrote the page differently");
    }

    /// A node packed into an arena, as freezing packs it, reads back as the
    /// node three ways: its arena frame, the cached frame filled from that
    /// frame into a slot that held another node's words, and the node
    /// decoded from the frame. Leaf and directory nodes, empty, full and
    /// between, with ±0.0, ±inf and NaN-payload coordinates bit for bit.
    #[test]
    fn arena_frame_and_node_frame_match_decoded_node(
        leaf in 0u32..2,
        level in 1u32..6,
        rects in prop::collection::vec(arb_raw_rect(), 0..DIR_FANOUT + 1),
        shape in 0u32..4,
        salt in 0u64..u64::MAX,
    ) {
        let node = raw_node(leaf == 1, level, &shaped(rects.clone(), shape, leaf == 1), salt);
        let other = raw_node(leaf == 0, level, &shaped(rects, 1, leaf == 0), !salt);
        let arena = PrefixArena::from_nodes(&[other, node.clone()]);
        let view = arena.read(PageId(1));
        let decoded = Node::decode(view);
        prop_assert_eq!(node_bits(&decoded), node_bits(&node));
        frame_is_node(&view, &decoded)?;
        let mut slot = MaybeUninit::new(NodeFrame::from_frame(arena.read(PageId(0))));
        let filled = NodeFrame::fill(view, &mut slot);
        node_frame_is_node(filled, &decoded)?;
        node_frame_is_node(filled, &node)?;
    }

    /// The join's arena frames are the tree's nodes, page by page: for
    /// trees from insertion and from STR bulk loading, after a save / load
    /// round trip, and after a lenient load whose poisoned page holds an
    /// empty-leaf placeholder frame, which a cached frame copies as one.
    #[test]
    fn arena_frames_match_nodes(
        rects in prop::collection::vec(arb_rect(), 1..400),
        bulk in 0u32..2,
    ) {
        let paged = paged_tree(&rects, bulk == 1);
        frames_are_nodes(&paged)?;

        let path = tmpfile("arena");
        paged.save_to(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let loaded = PagedTree::load_from(&path);
        let victim = (1..paged.num_pages()).rev().find(|&n| paged.node(PageId(n as u32)).is_leaf());
        let lenient = victim.map(|victim| {
            let mut bytes = std::fs::read(&path).expect("saved file");
            bytes[record_offset(victim) + 100] ^= 0xFF;
            std::fs::write(&path, &bytes).expect("rewrite");
            (victim, PagedTree::load_from_lenient(&path))
        });
        std::fs::remove_file(&path).ok();
        frames_are_nodes(&loaded.map_err(|e| TestCaseError::fail(e.to_string()))?)?;
        if let Some((victim, lenient)) = lenient {
            let lenient = lenient.map_err(|e| TestCaseError::fail(e.to_string()))?;
            let page = PageId(victim as u32);
            prop_assert!(lenient.tree.is_poisoned(page));
            frames_are_nodes(&lenient.tree)?;
            let placeholder = lenient.tree.frame(page);
            prop_assert!(placeholder.is_leaf() && placeholder.is_empty());
            prop_assert_eq!(placeholder.level(), 0);
            let cached = NodeFrame::from_frame(placeholder);
            prop_assert!(cached.is_leaf() && cached.is_empty() && cached.level() == 0);
        }
    }

    /// Raw nodes with ±0.0, ±inf and NaN-payload coordinates, packed several
    /// to an arena, come back bit for bit from their arena frames and from
    /// the cached frames filled from them, and the arena holds exactly the
    /// nodes' used prefixes.
    #[test]
    fn arena_matches_raw_nodes(
        specs in prop::collection::vec(
            (0u32..2, 1u32..6, prop::collection::vec(arb_raw_rect(), 0..DIR_FANOUT + 1), 0u64..u64::MAX),
            1..5,
        ),
    ) {
        let nodes: Vec<Node> = specs.iter()
            .map(|(leaf, level, rects, salt)| raw_node(*leaf == 1, *level, rects, *salt))
            .collect();
        let arena = PrefixArena::from_nodes(&nodes);
        prop_assert_eq!(arena.len(), nodes.len());
        prop_assert_eq!(arena.heap_bytes(), nodes.iter().map(used_prefix).sum::<usize>());
        for (p, node) in nodes.iter().enumerate() {
            let view = arena.read(PageId(p as u32));
            frame_is_node(&view, node)?;
            node_frame_is_node(&NodeFrame::from_frame(view), node)?;
        }
    }

    /// The file format is the one a page store writes: every record a
    /// frozen tree's save writes is its node encoded into a zeroed 4 KB
    /// page, with that page's CRC footer, and save → load → save writes the
    /// same bytes.
    #[test]
    fn saved_records_are_encoded_nodes(
        rects in prop::collection::vec(arb_rect(), 1..300),
        bulk in 0u32..2,
    ) {
        let paged = paged_tree(&rects, bulk == 1);
        let path = tmpfile("records");
        paged.save_to(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let first = std::fs::read(&path).expect("saved file");
        let loaded = PagedTree::load_from(&path).map_err(|e| TestCaseError::fail(e.to_string()));
        std::fs::remove_file(&path).ok();
        for p in 0..paged.num_pages() {
            let id = PageId(p as u32);
            let mut page = Page::zeroed();
            paged.node(id).encode(&mut page);
            let at = record_offset(p);
            prop_assert!(
                first[at..at + PAGE_RECORD_SIZE] == encode_record(page.bytes(), id)[..],
                "record {} is not its encoded node", p
            );
        }
        loaded?.save_to(&path).map_err(|e| TestCaseError::fail(e.to_string()))?;
        let second = std::fs::read(&path).expect("saved file");
        std::fs::remove_file(&path).ok();
        prop_assert!(first == second, "save → load → save changed the file");
    }

    #[test]
    fn insert_preserves_invariants(rects in prop::collection::vec(arb_rect(), 1..400)) {
        let mut t = RTree::new();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        prop_assert_eq!(t.len(), rects.len() as u64);
        t.check_invariants().map_err(TestCaseError::fail)?;
    }

    #[test]
    fn window_query_equals_linear_scan(
        rects in prop::collection::vec(arb_rect(), 0..300),
        window in arb_rect(),
    ) {
        let mut t = RTree::new();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        let mut got: Vec<u64> = t.window_query(&window).iter().map(|e| e.oid).collect();
        got.sort_unstable();
        let want: Vec<u64> = rects.iter().enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn full_window_returns_everything(rects in prop::collection::vec(arb_rect(), 1..300)) {
        let mut t = RTree::new();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        let all = t.window_query(&t.mbr());
        prop_assert_eq!(all.len(), rects.len());
    }

    #[test]
    fn split_partitions_entries(rects in prop::collection::vec(arb_rect(), 20..60)) {
        let entries: Vec<DataEntry> = rects.iter().enumerate()
            .map(|(i, &mbr)| DataEntry { mbr, oid: i as u64, geom: GeomRef::UNSET })
            .collect();
        let min_fill = entries.len() / 3;
        let min_fill = min_fill.max(1);
        let (a, b) = rstar_split(entries.clone(), min_fill);
        prop_assert!(a.len() >= min_fill);
        prop_assert!(b.len() >= min_fill);
        let mut oids: Vec<u64> = a.iter().chain(b.iter()).map(|e| e.oid).collect();
        oids.sort_unstable();
        let want: Vec<u64> = (0..entries.len() as u64).collect();
        prop_assert_eq!(oids, want);
    }

    #[test]
    fn bulk_load_query_equals_scan(
        rects in prop::collection::vec(arb_rect(), 0..300),
        window in arb_rect(),
    ) {
        let items: Vec<(Rect, u64)> = rects.iter().enumerate()
            .map(|(i, &r)| (r, i as u64)).collect();
        let t = bulk_load_str_with_fanout(&items, 6, 6);
        t.check_invariants_bulk().map_err(TestCaseError::fail)?;
        let mut got: Vec<u64> = t.window_query(&window).iter().map(|e| e.oid).collect();
        got.sort_unstable();
        let want: Vec<u64> = rects.iter().enumerate()
            .filter(|(_, r)| r.intersects(&window))
            .map(|(i, _)| i as u64)
            .collect();
        prop_assert_eq!(got, want);
    }

    #[test]
    fn frozen_tree_round_trips(rects in prop::collection::vec(arb_rect(), 1..250)) {
        let mut t = RTree::new();
        for (i, r) in rects.iter().enumerate() {
            t.insert(*r, i as u64);
        }
        let p = PagedTree::freeze(&t, |oid| {
            let r = &rects[oid as usize];
            Some(Polyline::new(vec![
                Point::new(r.xl, r.yl),
                Point::new(r.xu, r.yu),
            ]))
        });
        p.verify().map_err(TestCaseError::fail)?;
        prop_assert_eq!(p.len(), rects.len() as u64);
        // Every object's geometry is reachable through its GeomRef.
        for e in p.window_query(&p.mbr()) {
            let g = p.clusters().geometry(e.geom.page, e.geom.slot);
            prop_assert!(g.is_some());
        }
    }
}

/// FNV-1a 64 over the encoded pages of a fixed, hand-built two-level tree.
/// The nodes are built directly, not by insertion, so only the page layout
/// moves this hash. A layout change must bump the file magic in
/// `persist.rs` (old files then get a version error instead of being
/// misread) and then update this golden.
#[test]
fn page_layout_golden() {
    let special = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN];
    let leaves: Vec<Node> = (0..3u32)
        .map(|l| {
            let mut node = Node::new_leaf();
            for i in 0..(5 + 7 * l as usize).min(DATA_FANOUT) {
                let x = f64::from(l) * 100.0 + i as f64;
                node.data_entries_mut().push(DataEntry {
                    mbr: Rect {
                        xl: x,
                        yl: special[i % special.len()],
                        xu: x + 0.5,
                        yu: f64::from_bits(0x7ff8_0000_0000_0000 | i as u64),
                    },
                    oid: 0x0123_4567_89ab_cdef ^ (u64::from(l) << 40 | i as u64),
                    geom: GeomRef {
                        page: PageId(1 + l),
                        slot: i as u32,
                    },
                });
            }
            node
        })
        .collect();
    let mut root = Node::new_dir(1);
    for (l, leaf) in leaves.iter().enumerate() {
        root.dir_entries_mut().push(DirEntry {
            mbr: leaf.mbr(),
            child: 1 + l as u32,
        });
    }
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for node in std::iter::once(&root).chain(&leaves) {
        let mut page = Page::zeroed();
        node.encode(&mut page);
        for &b in page.bytes() {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    assert_eq!(
        hash, 0x78fd_0c52_2325_a29a,
        "the page layout changed: bump the tree file magic, then this golden"
    );
}

/// The whole file of a fixed small tree: header, page records with their
/// CRC footers, geometry clusters and the FNV-1a trailer. The golden above
/// pins only the page payloads; this one also pins both checksums, so a
/// faster CRC or FNV that computed other values fails here. Loading the
/// file and saving it again writes the same bytes.
#[test]
fn tree_file_golden() {
    let mut t = RTree::new();
    for i in 0..300u64 {
        let (x, y) = ((i * 37 % 101) as f64, (i * 53 % 89) as f64);
        t.insert(Rect::new(x, y, x + 1.5, y + 0.75), i);
    }
    let tree = PagedTree::freeze_with_attrs(
        &t,
        |oid| {
            let (x, y) = ((oid * 37 % 101) as f64, (oid * 53 % 89) as f64);
            let mut pts = vec![Point::new(x, y), Point::new(x + 1.5, y + 0.75)];
            if oid % 3 == 0 {
                pts.insert(1, Point::new(x + 0.5, y));
            }
            (oid % 7 != 0).then(|| Polyline::new(pts))
        },
        48,
    );
    let path = tmpfile("golden-file");
    tree.save_to(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    PagedTree::load_from(&path).unwrap().save_to(&path).unwrap();
    let again = std::fs::read(&path).unwrap();
    std::fs::remove_file(&path).ok();
    assert!(bytes == again, "a load and save changed the file");
    assert_eq!(
        (bytes.len(), psj_store::crc32(&bytes)),
        (76_682, 0xbd07_c5cf),
        "the tree file changed: if the format moved on purpose, bump the \
         tree file magic, then this golden"
    );
}
