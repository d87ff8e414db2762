//! Parallel processing of spatial joins using R\*-trees.
//!
//! This crate implements Brinkhoff/Kriegel/Seeger, *"Parallel Processing of
//! Spatial Joins Using R-trees"* (ICDE 1996): the three-phase parallel
//! filter step — **task creation** ([`task::create_tasks`]), **task
//! assignment** ([`assign`]) and **parallel task execution** — together with
//! the paper's design dimensions:
//!
//! * buffer organization: local vs. global LRU buffers ([`sim::BufferOrg`]),
//! * task assignment: static range / static round-robin / dynamic
//!   ([`assign::Assignment`]),
//! * load balancing by task reassignment ([`sim::Reassignment`],
//!   [`sim::VictimSelection`]).
//!
//! Two executors run the identical join kernel:
//!
//! * [`sim::run_sim_join`] — a deterministic discrete-event simulation of the
//!   KSR1-style platform with the paper's published cost model
//!   ([`cost::CostModel`]); this regenerates the paper's figures;
//! * [`try_run_join`] — real threads, real geometry refinement; this is the
//!   entry point an application uses.
//!
//! [`try_run_join`] runs the paper's R-tree traversal ([`native`]) over
//! two trees. [`try_run_partition_join`], the in-memory grid join of
//! [`partition`], is the engine for unindexed rectangle streams: it joins
//! without an index on either side. Both engines pack their morsels with
//! one planner step and run them on one runtime ([`morsel`]).
//!
//! The sequential [BKS 93] join ([`seq`]) serves as baseline and oracle.
//!
//! ```
//! use psj_core::{try_run_join, NativeConfig, RunControl};
//! use psj_rtree::{PagedTree, RTree};
//! use psj_geom::Rect;
//!
//! let mut ta = RTree::new();
//! let mut tb = RTree::new();
//! for i in 0..100u64 {
//!     let x = (i % 10) as f64;
//!     let y = (i / 10) as f64;
//!     ta.insert(Rect::new(x, y, x + 1.0, y + 1.0), i);
//!     tb.insert(Rect::new(x + 0.5, y + 0.5, x + 1.5, y + 1.5), i);
//! }
//! let a = PagedTree::freeze(&ta, |_| None);
//! let b = PagedTree::freeze(&tb, |_| None);
//! let mut cfg = NativeConfig::new(4);
//! cfg.refine = false; // no exact geometry stored in this toy example
//! let result = try_run_join(&a, &b, &cfg, &RunControl::default()).expect("in-memory join");
//! assert!(!result.pairs.is_empty());
//! ```

#![warn(missing_docs)]

pub mod assign;
pub mod cancel;
pub mod cost;
pub mod metrics;
pub mod morsel;
pub mod native;
pub mod partition;
pub mod seq;
pub mod sim;
pub mod task;

pub use assign::Assignment;
pub use cancel::{CancelToken, Cancelled};
pub use cost::{CandidateEstimator, CostModel, Platform, TreeProfile};
pub use metrics::{JoinMetrics, TaskTrace};
pub use morsel::{morselize, Morsel, MorselOptions, MorselPlan};
pub use native::{
    try_run_join, BufferConfig, JoinError, NativeConfig, NativeError, NativeResult, RunControl,
};
pub use partition::{
    plan_partition, try_run_partition_join, JoinEngine, PartitionInput, PartitionPlan, RectItem,
};
pub use seq::{join_candidates, join_refined, SeqJoinResult};
pub use sim::{run_sim_join, BufferOrg, Reassignment, SimConfig, SimResult, VictimSelection};
pub use task::{create_tasks, expand_pair, Candidate, KernelScratch, TaskPair};
