//! Page storage, the simulated disk array, and the geometry cluster store.
//!
//! The paper's evaluation (§4.2) does not use a physical disk array; it
//! *simulates* one: every R\*-tree page is assigned to a disk by
//! `page_number mod d`, and a page read costs an average seek (9 ms) plus
//! rotational latency (6 ms) plus transfer (1 ms per 4 KB) — 16 ms per page.
//! Data pages additionally drag in the geometry *cluster* of their entries
//! (one cluster per data page, 26 KB on average, [BK 94]), for 37.5 ms total.
//!
//! This crate provides exactly that model:
//!
//! * [`Page`], [`PageId`] — fixed-size 4 KB pages with real bytes,
//! * [`PageStore`] — the master copy of all pages ("what is on disk"),
//! * [`DiskModel`] — the timing model and `mod d` placement function,
//! * [`ClusterStore`] — one relation's exact geometry as one arena,
//!   grouped into per-data-page clusters with their sizes,
//! * [`timing`] — integer-nanosecond time arithmetic shared by the
//!   simulation crates.

#![warn(missing_docs)]

pub mod atomic;
pub mod checksum;
pub mod cluster;
pub mod disk;
pub mod error;
pub mod fault;
pub mod page;
pub mod pager;
pub mod retry;
pub mod sync;
pub mod timing;

pub use atomic::{atomic_write, tmp_path};
pub use checksum::{
    crc32, encode_record, page_footer, verify_record, PAGE_FOOTER_SIZE, PAGE_FORMAT_VERSION,
    PAGE_RECORD_SIZE,
};
pub use cluster::ClusterStore;
pub use disk::DiskModel;
pub use error::PageError;
pub use fault::FaultPlan;
pub use page::{Page, PageId, PageStore, PAGE_SIZE};
pub use pager::{FaultPager, FilePager};
pub use retry::RetryPolicy;
pub use sync::{lock_clean, wait_clean};
pub use timing::{Nanos, MICROS, MILLIS, SECS};
