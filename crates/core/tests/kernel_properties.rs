//! The join kernel reads a cached [`NodeFrame`] and an arena frame
//! ([`PrefixArena`]) exactly as it reads the decoded [`Node`] both come from:
//! `expand_pair` over two frames of either kind yields the same child
//! pairs, candidates and work counts, in the same order, as over the two
//! nodes.

use proptest::prelude::*;
use psj_core::{expand_pair, KernelScratch, TaskPair};
use psj_geom::Rect;
use psj_rtree::{
    DataEntry, DirEntry, GeomRef, JoinNode, Node, NodeFrame, PrefixArena, DATA_FANOUT, DIR_FANOUT,
};
use psj_store::{Page, PageId};

fn arb_rect() -> impl Strategy<Value = Rect> {
    (0.0f64..100.0, 0.0f64..100.0, 0.0f64..30.0, 0.0f64..30.0)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// An xl-sorted node at `level` (a leaf at 0) over `rects`, truncated to
/// the kind's fanout.
fn node(level: u32, rects: &[Rect], salt: u32) -> Node {
    let mut node = if level == 0 {
        let mut node = Node::new_leaf();
        for (i, &mbr) in rects.iter().take(DATA_FANOUT).enumerate() {
            node.data_entries_mut().push(DataEntry {
                mbr,
                oid: u64::from(salt) << 32 | i as u64,
                geom: GeomRef::UNSET,
            });
        }
        node
    } else {
        let mut node = Node::new_dir(level);
        for (i, &mbr) in rects.iter().take(DIR_FANOUT).enumerate() {
            node.dir_entries_mut().push(DirEntry {
                mbr,
                child: salt.wrapping_mul(1000).wrapping_add(i as u32),
            });
        }
        node
    };
    node.sort_entries_by_xl();
    node
}

/// `node`'s cached frame, filled from its page read into an arena.
fn frame(node: &Node) -> NodeFrame {
    let mut page = Page::zeroed();
    node.encode(&mut page);
    let mut arena = PrefixArena::default();
    arena
        .push_page(page.bytes())
        .expect("an encoded node reads back");
    NodeFrame::from_frame(arena.read(PageId(0)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn expand_pair_over_frames_equals_expand_pair_over_nodes(
        levels in (0u32..3, 0u32..3),
        rects_a in prop::collection::vec(arb_rect(), 0..60),
        rects_b in prop::collection::vec(arb_rect(), 0..60),
        window in arb_rect(),
    ) {
        let (la, lb) = levels;
        let (na, nb) = (node(la, &rects_a, 1), node(lb, &rects_b, 2));
        let (fa, fb) = (frame(&na), frame(&nb));
        let pair = TaskPair {
            a: PageId(1),
            la: la as u8,
            b: PageId(2),
            lb: lb as u8,
            window,
        };
        let mut scratch = KernelScratch::default();
        let (mut children, mut candidates) = (Vec::new(), Vec::new());
        let from_nodes = expand_pair(&na, &nb, &pair, &mut scratch, &mut children, &mut candidates);
        let (mut frame_children, mut frame_candidates) = (Vec::new(), Vec::new());
        let from_frames = expand_pair(
            &fa,
            &fb,
            &pair,
            &mut scratch,
            &mut frame_children,
            &mut frame_candidates,
        );
        prop_assert_eq!(from_frames, from_nodes);
        prop_assert_eq!(&frame_children, &children);
        prop_assert_eq!(&frame_candidates, &candidates);
        prop_assert_eq!(JoinNode::mbr(&fa), na.mbr());

        let nodes = [na.clone(), nb.clone()];
        let arena = PrefixArena::from_nodes(&nodes);
        let (sa, sb) = (arena.read(PageId(0)), arena.read(PageId(1)));
        let (mut arena_children, mut arena_candidates) = (Vec::new(), Vec::new());
        let from_arena = expand_pair(
            &sa,
            &sb,
            &pair,
            &mut scratch,
            &mut arena_children,
            &mut arena_candidates,
        );
        prop_assert_eq!(from_arena, from_nodes);
        prop_assert_eq!(arena_children, children);
        prop_assert_eq!(arena_candidates, candidates);
        prop_assert_eq!(JoinNode::mbr(&sa), na.mbr());
    }
}
