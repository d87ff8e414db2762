//! An R\*-tree implementation with the page layout of the paper.
//!
//! The filter step of the spatial join operates on R\*-trees
//! (Beckmann/Kriegel/Schneider/Seeger, SIGMOD '90) over the objects' MBRs.
//! This crate provides:
//!
//! * [`RTree`] — the dynamic in-memory tree: ChooseSubtree, R\* split
//!   (axis + distribution selection by margin/overlap), and forced
//!   reinsertion;
//! * [`bulk::bulk_load_str`] — Sort-Tile-Recursive bulk loading, used as an
//!   ablation baseline against dynamic insertion;
//! * [`PagedTree`] — the frozen, paged form of a tree: nodes laid out as
//!   4 KB pages (fanouts from 40-byte directory and 156-byte data entries —
//!   the paper's Table 1 layout — stored column-wise), entries sorted by
//!   their lower x bound so join tasks can plane-sweep without re-sorting;
//! * [`PrefixArena`] / [`FrameRef`] — a paged tree's pages without their
//!   zero padding, one word vector in page order, and one page of it viewed
//!   in place, which the in-memory join reads; [`NodeFrame`] — a 4 KB,
//!   allocation-free node the out-of-core join caches, a copy of its page's
//!   used words; and [`JoinNode`], the view of a node the join kernel reads
//!   (implemented by both frames and by [`Node`]);
//! * window queries on both forms, and [`TreeStats`] which regenerates
//!   Table 1.
//!
//! Levels are counted from the leaves: level 0 = data (leaf) nodes. The
//! *height* is the number of levels including the root (the paper's trees
//! have height 3: root → directory → data).

#![warn(missing_docs)]

pub mod access;
pub mod bulk;
pub mod entry;
pub mod frame;
pub mod hilbert;
pub mod nn;
pub mod node;
pub mod paged;
pub mod persist;
pub mod split;
pub mod stats;
pub mod tree;

pub use access::{window_query_via, NodeAccess};
pub use entry::{DataEntry, DirEntry, GeomRef, DATA_ENTRY_BYTES, DIR_ENTRY_BYTES};
pub use frame::{FrameRef, JoinNode, NodeFrame, PrefixArena};
pub use nn::nearest_neighbors_via;
pub use node::{Node, NodeKind, DATA_FANOUT, DATA_MIN_FILL, DIR_FANOUT, DIR_MIN_FILL};
pub use paged::{HeapBytes, PagedTree};
pub use persist::{
    fsck_file, generation_path, manifest_path, FsckReport, LenientLoad, Manifest, PoisonedTree,
    UnsupportedFormat, MANIFEST_FORMAT,
};
pub use stats::TreeStats;
pub use tree::RTree;
