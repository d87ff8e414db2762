//! Partition-based in-memory spatial join — the second join engine.
//!
//! The R-tree join ([`crate::native`]) is index-first by necessity: the
//! paper's 1996 machines could not hold both relations in memory, so the
//! synchronized tree traversal doubles as the I/O schedule. When both
//! inputs *do* fit in memory, "Parallel In-Memory Evaluation of Spatial
//! Joins" (Tsitsigkos et al.) shows a flat uniform-grid partition with a
//! per-cell plane sweep beats the index join — no tree descent, no node
//! decoding, just one replication pass and dense sweeps. This module is
//! that engine, built from the pieces the repo already has:
//!
//! * the grid planner ([`grid`]) sizes a uniform grid over the join
//!   universe from input MBR statistics (the same quantities
//!   [`crate::cost::TreeProfile`] samples) and replicates each item into
//!   every cell its MBR overlaps (CSR cell index, each run sorted by
//!   `xl`) — on the join's own threads: a count pass, a prefix sum, a
//!   scatter into pre-sized runs and a sort per cell
//!   ([`grid::build_cells`]), with a plan identical at every thread
//!   count;
//! * each occupied cell runs the PR 5 SoA sweep kernel's filter-free
//!   entry ([`psj_geom::sweep_pairs_soa_runs`]) over its two coordinate
//!   runs;
//! * cross-cell duplicates are suppressed with the **reference-point
//!   test**: a pair is reported only by the cell that contains the
//!   bottom-left corner of its MBR intersection (see
//!   [`grid::GridPlan::owner_cell`]), so the deduplicated output needs no
//!   hash table and no post-pass;
//! * cells are packed into morsels and run the way the R-tree engine runs
//!   its morsels — one shared cursor hands them out in id order, and the
//!   same deterministic morsel-id-order merge concatenates their outputs —
//!   so the output sequence is identical at every thread count and
//!   schedule, and sorted output equals the sequential R-tree oracle
//!   exactly.
//!
//! Inputs are [`PartitionInput`]: a frozen [`PagedTree`] (its leaf entries
//! are streamed out, geometry refs intact so refinement still works) or a
//! raw [`RectItem`] slice — an *unindexed* relation can join against an
//! indexed one, which the R-tree engine cannot do at all.
//!
//! [`JoinEngine`] selects between the engines; [`try_run_join`] dispatches
//! on it.

pub mod grid;

mod exec;

pub use exec::{plan_partition, try_run_partition_join, CellMorsel, PartitionPlan};

use crate::native::{try_run_native_join, NativeConfig, NativeError, NativeResult, RunControl};
use psj_geom::Rect;
use psj_rtree::PagedTree;
use serde::{Deserialize, Serialize};

/// Which executor answers a join.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub enum JoinEngine {
    /// The paper's synchronized R-tree traversal ([`crate::native`]) —
    /// required out-of-core (it is the only engine that honors
    /// [`NativeConfig::buffer`], fault plans, and page caches).
    #[default]
    RTree,
    /// Uniform-grid partition + per-cell plane sweep (this module) —
    /// in-memory only. It pays off on raw, unindexed inputs; on trees
    /// that are already indexed the R-tree engine is faster.
    Partition,
}

impl JoinEngine {
    /// Short name used in CLI flags and experiment output.
    pub fn short(&self) -> &'static str {
        match self {
            JoinEngine::RTree => "rtree",
            JoinEngine::Partition => "partition",
        }
    }

    /// Parses a CLI spelling (`rtree`, `partition`/`grid`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rtree" => Some(JoinEngine::RTree),
            "partition" | "grid" => Some(JoinEngine::Partition),
            _ => None,
        }
    }
}

/// One rectangle of a raw (unindexed) join input.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RectItem {
    /// The item's MBR.
    pub mbr: Rect,
    /// Object id reported in result pairs.
    pub oid: u64,
}

/// One side of a partition join: an indexed relation (its leaf entries are
/// streamed out in page order, geometry refs intact) or a raw rectangle
/// stream (no stored geometry, so refinement keeps its candidates
/// conservatively — a candidate can only be refuted by exact geometry).
#[derive(Debug, Clone, Copy)]
pub enum PartitionInput<'t> {
    /// A frozen R\*-tree.
    Tree(&'t PagedTree),
    /// An unindexed rectangle stream.
    Rects(&'t [RectItem]),
}

/// Runs a tree × tree join through the engine [`NativeConfig::engine`]
/// names, under `ctl`: the entry point of the CLI, the serving layer and
/// the benchmark ([`try_run_partition_join`] also takes unindexed inputs).
/// A fired token returns [`NativeError::Cancelled`] and a panicked morsel
/// [`NativeError::WorkerPanic`]; fault plans, retries and
/// [`NativeError::Storage`] act on the R-tree engine's node reads, with or
/// without its page cache (see [`crate::native`]).
pub fn try_run_join(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> Result<NativeResult, NativeError> {
    match cfg.engine {
        JoinEngine::Partition => {
            try_run_partition_join(PartitionInput::Tree(a), PartitionInput::Tree(b), cfg, ctl)
        }
        JoinEngine::RTree => try_run_native_join(a, b, cfg, ctl),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_round_trips_through_parse() {
        for e in [JoinEngine::RTree, JoinEngine::Partition] {
            assert_eq!(JoinEngine::parse(e.short()), Some(e));
        }
        assert_eq!(JoinEngine::parse("grid"), Some(JoinEngine::Partition));
        assert_eq!(JoinEngine::parse("auto"), None);
        assert_eq!(JoinEngine::parse("bogus"), None);
        assert_eq!(JoinEngine::default(), JoinEngine::RTree);
    }
}
