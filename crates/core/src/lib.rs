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
//! * [`native::run_native_join`] — real threads, real geometry refinement;
//!   this is the executor an application uses.
//!
//! A second real-thread engine, the in-memory grid join of [`partition`],
//! answers the same joins without descending the trees; callers pick it
//! with [`JoinEngine::Partition`].
//!
//! The sequential [BKS 93] join ([`seq`]) serves as baseline and oracle.
//!
//! ```
//! use psj_core::{native::{run_native_join, NativeConfig}};
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
//! let result = run_native_join(&a, &b, &cfg);
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
    run_native_join, run_native_join_cancellable, run_native_join_with_cache, try_run_native_join,
    try_run_native_join_with_cache, BufferConfig, JoinError, NativeConfig, NativeError,
    NativeResult, RunControl,
};
pub use partition::{
    plan_partition, run_join, run_partition_join, try_run_join, try_run_partition_join, JoinEngine,
    PartitionInput, PartitionPlan, RectItem,
};
pub use seq::{join_candidates, join_refined, SeqJoinResult};
pub use sim::{run_sim_join, BufferOrg, Reassignment, SimConfig, SimResult, VictimSelection};
pub use task::{create_tasks, expand_pair, Candidate, KernelScratch, TaskPair};
