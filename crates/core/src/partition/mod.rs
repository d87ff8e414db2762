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
//! [`JoinEngine`] selects between the engines; [`run_join`] /
//! [`try_run_join`] dispatch on it, with [`JoinEngine::Auto`] choosing by
//! estimated candidate count and cache budget (see [`select_engine`]).

pub mod grid;

mod exec;

pub use exec::{
    plan_partition, run_partition_join, try_run_partition_join, CellMorsel, PartitionPlan,
};

use crate::cost::CandidateEstimator;
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
    /// in-memory only, typically fastest when both inputs fit.
    Partition,
    /// Pick per run: [`select_engine`] chooses by estimated candidate
    /// count and cache budget.
    Auto,
}

impl JoinEngine {
    /// Short name used in CLI flags and experiment output.
    pub fn short(&self) -> &'static str {
        match self {
            JoinEngine::RTree => "rtree",
            JoinEngine::Partition => "partition",
            JoinEngine::Auto => "auto",
        }
    }

    /// Parses a CLI spelling (`rtree`, `partition`/`grid`, `auto`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "rtree" => Some(JoinEngine::RTree),
            "partition" | "grid" => Some(JoinEngine::Partition),
            "auto" => Some(JoinEngine::Auto),
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

impl PartitionInput<'_> {
    /// Number of items on this side.
    pub fn len(&self) -> usize {
        match self {
            PartitionInput::Tree(t) => t.len() as usize,
            PartitionInput::Rects(r) => r.len(),
        }
    }

    /// Whether this side is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Below this combined item count [`select_engine`] keeps the R-tree
/// engine: partition planning (stats pass + replication + per-cell sorts)
/// costs more than the whole tree join on small inputs.
pub const AUTO_MIN_ITEMS: usize = 4096;

/// Below this estimated candidate count [`select_engine`] keeps the R-tree
/// engine: a sparse join is exactly where the index's pruning wins and the
/// grid's replication overhead buys nothing.
pub const AUTO_MIN_CANDIDATES: f64 = 1024.0;

/// Resolves [`JoinEngine::Auto`] for a tree × tree join.
///
/// The partition engine runs everything in memory, so any configuration
/// that *must* go through the page cache keeps the R-tree engine: a
/// [`NativeConfig::buffer`] whose budget is smaller than the combined page
/// count (the run is genuinely out-of-core) or an active fault plan
/// (faults act on cache fills, which the partition engine never performs).
/// Otherwise the choice follows the cost signal: joins with few items
/// ([`AUTO_MIN_ITEMS`]) or few estimated candidates
/// ([`AUTO_MIN_CANDIDATES`], via [`CandidateEstimator`] on the root pair)
/// stay on the index, dense in-memory joins go to the grid.
pub fn select_engine(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> JoinEngine {
    if ctl.fault.as_ref().is_some_and(|p| !p.is_noop()) {
        return JoinEngine::RTree;
    }
    if let Some(buf) = &cfg.buffer {
        let total_pages = a.pages().len() + b.pages().len();
        if buf.capacity_pages < total_pages {
            return JoinEngine::RTree;
        }
    }
    let items = (a.len() + b.len()) as usize;
    if items < AUTO_MIN_ITEMS {
        return JoinEngine::RTree;
    }
    let (ma, mb) = (a.mbr(), b.mbr());
    if !ma.intersects(&mb) {
        return JoinEngine::RTree;
    }
    let window = Rect {
        xl: ma.xl.max(mb.xl),
        yl: ma.yl.max(mb.yl),
        xu: ma.xu.min(mb.xu),
        yu: ma.yu.min(mb.yu),
    };
    let est = CandidateEstimator::new(a, b);
    let (na, nb) = (a.node(a.root()), b.node(b.root()));
    let cands = est.estimate(
        na.len(),
        na.level as u8,
        &ma,
        nb.len(),
        nb.level as u8,
        &mb,
        &window,
    );
    if cands < AUTO_MIN_CANDIDATES {
        JoinEngine::RTree
    } else {
        JoinEngine::Partition
    }
}

/// Runs a tree × tree join through the engine [`NativeConfig::engine`]
/// names, resolving [`JoinEngine::Auto`] with [`select_engine`]. This is
/// the entry point the CLI and the serving layer use; the engine-specific
/// functions ([`crate::native::run_native_join`], [`run_partition_join`])
/// remain available for callers that have already decided.
///
/// # Panics
///
/// Panics on a storage error, exactly like
/// [`crate::native::run_native_join`]; fallible deployments use
/// [`try_run_join`].
pub fn run_join(a: &PagedTree, b: &PagedTree, cfg: &NativeConfig) -> NativeResult {
    match try_run_join(a, b, cfg, &RunControl::default()) {
        Ok(res) => res,
        Err(e) => unreachable!("in-memory join cannot fail: {e}"),
    }
}

/// Fallible engine-dispatching join with full runtime controls.
pub fn try_run_join(
    a: &PagedTree,
    b: &PagedTree,
    cfg: &NativeConfig,
    ctl: &RunControl<'_>,
) -> Result<NativeResult, NativeError> {
    let engine = match cfg.engine {
        JoinEngine::Auto => select_engine(a, b, cfg, ctl),
        e => e,
    };
    match engine {
        JoinEngine::Partition => {
            try_run_partition_join(PartitionInput::Tree(a), PartitionInput::Tree(b), cfg, ctl)
        }
        _ => try_run_native_join(a, b, cfg, ctl),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn engine_round_trips_through_parse() {
        for e in [JoinEngine::RTree, JoinEngine::Partition, JoinEngine::Auto] {
            assert_eq!(JoinEngine::parse(e.short()), Some(e));
        }
        assert_eq!(JoinEngine::parse("grid"), Some(JoinEngine::Partition));
        assert_eq!(JoinEngine::parse("bogus"), None);
        assert_eq!(JoinEngine::default(), JoinEngine::RTree);
    }
}
