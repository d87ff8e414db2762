//! Geometric primitives and algorithms underlying R-tree based spatial join
//! processing.
//!
//! This crate provides the building blocks used by the rest of the workspace:
//!
//! * [`Point`], [`Rect`] — points and axis-parallel rectangles (MBRs) with the
//!   metrics the R\*-tree needs (area, margin, enlargement, overlap),
//! * [`Segment`], [`Polyline`], [`Polygon`] — exact object geometry together
//!   with intersection predicates used in the refinement step,
//! * [`sweep`] — the restricted plane-sweep that computes all intersecting
//!   pairs between two x-sorted rectangle sequences in *local plane-sweep
//!   order* (Brinkhoff/Kriegel/Seeger, SIGMOD '93 / ICDE '96 §2.2).
//!
//! All coordinates are `f64`. The crate is deliberately free of I/O and
//! threading concerns.

#![warn(missing_docs)]

pub mod distance;
pub mod point;
pub mod polygon;
pub mod polyline;
pub mod rect;
pub mod segment;
pub mod soa;
pub mod sweep;

pub use distance::{polyline_distance, polylines_within, rect_distance, segment_distance};
pub use point::Point;
pub use polygon::Polygon;
pub use polyline::Polyline;
pub use rect::Rect;
pub use segment::Segment;
pub use soa::{SoaMbrs, SoaRun};
pub use sweep::{
    sweep_pairs, sweep_pairs_into, sweep_pairs_restricted, sweep_pairs_soa, sweep_pairs_soa_runs,
    SweepPair, SweepScratch,
};
