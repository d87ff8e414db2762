//! Borrow-generic node access for paged-tree traversals.
//!
//! The window and nearest-neighbor descents only need to *look at* one node
//! at a time. [`NodeAccess`] abstracts where that look comes from: an
//! in-memory [`PagedTree`] hands out its pages viewed in place in its
//! arena ([`Frame`]), while a cache-backed reader (the serve executor)
//! hands out pin-guarded borrows from a shared page cache — same
//! traversal, zero Arc clones either way. The associated `Ref` type only
//! has to deref to a [`JoinNode`]; each borrow is dropped before the next
//! page is read, so guard-style accessors never hold more than one pin per
//! traversal step.

use crate::entry::DataEntry;
use crate::frame::{FrameRef, JoinNode};
use crate::paged::PagedTree;
use psj_geom::Rect;
use psj_store::{PageError, PageId};
use std::ops::Deref;

/// A source of read-only node borrows, keyed by page number.
///
/// `read` takes `&mut self` so implementations can carry per-traversal state
/// (an optimistic coupling token, per-worker statistics) without interior
/// mutability.
pub trait NodeAccess {
    /// The borrowed form a node read returns; dropped before the traversal
    /// reads its next page.
    type Ref<'a>: Deref<Target: JoinNode>
    where
        Self: 'a;

    /// Reads the node stored at `page`.
    fn read(&mut self, page: PageId) -> Result<Self::Ref<'_>, PageError>;
}

/// One page of a [`PagedTree`]'s arena as a [`NodeAccess::Ref`]: a
/// [`FrameRef`] behind the `Deref` the trait asks for.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'t>(pub FrameRef<'t>);

impl<'t> Deref for Frame<'t> {
    type Target = FrameRef<'t>;

    #[inline]
    fn deref(&self) -> &FrameRef<'t> {
        &self.0
    }
}

/// Direct in-memory access: infallible views of the tree's arena pages.
impl NodeAccess for &PagedTree {
    type Ref<'a>
        = Frame<'a>
    where
        Self: 'a;

    #[inline]
    fn read(&mut self, page: PageId) -> Result<Frame<'_>, PageError> {
        Ok(Frame(self.frame(page)))
    }
}

/// Window query over any [`NodeAccess`]: depth-first, children pushed in
/// entry order — byte-identical output to [`PagedTree::window_query`]
/// (which delegates here).
pub fn window_query_via<A: NodeAccess>(
    access: &mut A,
    root: PageId,
    window: &Rect,
) -> Result<Vec<DataEntry>, PageError> {
    let mut out = Vec::new();
    let mut stack = vec![root];
    while let Some(page) = stack.pop() {
        let node = access.read(page)?;
        let lanes = node.lanes();
        let hits = (0..lanes.len()).filter(|&i| lanes.rect(i).intersects(window));
        if node.is_leaf() {
            out.extend(hits.map(|i| DataEntry {
                mbr: lanes.rect(i),
                oid: node.oid(i),
                geom: node.geom(i),
            }));
        } else {
            stack.extend(hits.map(|i| PageId(node.child(i))));
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Node;
    use crate::tree::RTree;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn build(n: usize) -> PagedTree {
        let mut t = RTree::new();
        for i in 0..n {
            let x = (i % 25) as f64;
            let y = (i / 25) as f64;
            t.insert(Rect::new(x, y, x + 0.8, y + 0.8), i as u64);
        }
        PagedTree::freeze(&t, |_| None)
    }

    /// Counts reads and delegates to the tree, proving the traversal goes
    /// through the accessor — and that output order matches the direct path.
    struct Counting<'t> {
        tree: &'t PagedTree,
        reads: AtomicUsize,
    }

    impl NodeAccess for Counting<'_> {
        type Ref<'a>
            = Frame<'a>
        where
            Self: 'a;

        fn read(&mut self, page: PageId) -> Result<Frame<'_>, PageError> {
            self.reads.fetch_add(1, Ordering::Relaxed);
            Ok(Frame(self.tree.frame(page)))
        }
    }

    #[test]
    fn custom_access_matches_direct_window_query() {
        let p = build(300);
        let w = Rect::new(3.0, 2.0, 14.5, 9.5);
        let direct = p.window_query(&w);
        let mut acc = Counting {
            tree: &p,
            reads: AtomicUsize::new(0),
        };
        let via = window_query_via(&mut acc, p.root(), &w).unwrap();
        assert_eq!(via, direct, "accessor path must be byte-identical");
        assert!(acc.reads.load(Ordering::Relaxed) > 0, "reads went through");
    }

    /// Reads the decoded view, as a caller holding `Node`s does.
    struct Decoded<'t>(&'t PagedTree);

    impl NodeAccess for Decoded<'_> {
        type Ref<'a>
            = &'a Node
        where
            Self: 'a;

        fn read(&mut self, page: PageId) -> Result<&Node, PageError> {
            Ok(self.0.node(page))
        }
    }

    /// Both node forms a traversal can read, the arena's frames and
    /// decoded nodes, give the same entries in the same order.
    #[test]
    fn decoded_nodes_and_frames_give_the_same_answers() {
        let p = build(500);
        for w in [Rect::new(3.0, 2.0, 14.5, 9.5), p.mbr()] {
            let via = window_query_via(&mut Decoded(&p), p.root(), &w).unwrap();
            assert_eq!(via, p.window_query(&w));
        }
        let q = psj_geom::Point::new(7.3, 4.1);
        let via = crate::nearest_neighbors_via(&mut Decoded(&p), p.root(), &q, 12).unwrap();
        assert_eq!(via, p.nearest_neighbors(&q, 12));
    }

    #[test]
    fn error_from_access_propagates() {
        struct Failing;
        impl NodeAccess for Failing {
            type Ref<'a> = &'a Node;
            fn read(&mut self, page: PageId) -> Result<&'static Node, PageError> {
                Err(PageError::Corrupt {
                    page,
                    context: "test".into(),
                })
            }
        }
        let err = window_query_via(&mut Failing, PageId(7), &Rect::new(0.0, 0.0, 1.0, 1.0));
        assert!(matches!(err, Err(PageError::Corrupt { .. })));
    }
}
