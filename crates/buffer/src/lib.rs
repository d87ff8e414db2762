//! Buffer management for parallel spatial join processing (paper §3.2).
//!
//! Three buffer structures from the paper:
//!
//! * [`Lru`] — an O(1) least-recently-used page buffer, implemented with a
//!   hash table over an intrusive doubly-linked list as described in Gray &
//!   Reuter, *Transaction Processing* (the paper's [GR 93] reference).
//! * [`LocalBuffers`] — one private LRU buffer per processor
//!   (shared-nothing-style). A page may be buffered by several processors at
//!   once; processors do not see each other's buffers, so the same page can
//!   be read from disk repeatedly.
//! * [`GlobalBuffer`] — a single logical buffer realized as the union of the
//!   local buffers under shared virtual memory. A page resides in **at most
//!   one** processor's partition; a hit in another processor's partition is
//!   served over the interconnect (~10× slower than local memory, Table 2).
//! * [`PathBuffer`] — the per-tree buffer holding the nodes of the most
//!   recently accessed path. It belongs to the R\*-tree itself and lives in
//!   the processor's local memory, so path hits bypass the page buffer and
//!   the network entirely.
//! * [`SharedPageCache`] — the *concurrent* counterpart used by the native
//!   executor: a lock-sharded bounded cache over a [`PageSource`], serving
//!   real OS threads with the same local/remote/in-flight accounting the
//!   simulated buffers report.

#![warn(missing_docs)]

pub mod global;
pub mod local;
pub mod lru;
pub mod path;
pub mod policy;
pub mod shared;
pub mod stats;

pub use global::{GlobalAccess, GlobalBuffer};
pub use local::LocalBuffers;
pub use lru::Lru;
pub use path::PathBuffer;
pub use policy::{Clock, Fifo, PageBuffer, Policy};
pub use shared::{FaultSource, PageGuard, PageRef, PageSource, SharedAccess, SharedPageCache};
pub use stats::{BufferStats, OptStats};
