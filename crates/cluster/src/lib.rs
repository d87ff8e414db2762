//! psj-cluster: horizontal scale-out for the spatial query service.
//!
//! One `psj-serve` process holds one buffer pool on one machine; this
//! crate spreads a dataset across N such processes and puts a router in
//! front that speaks the same wire protocol on both sides:
//!
//! * [`plan`] — the shard planner: cuts the x-axis into slabs at
//!   plane-sweep positions chosen so the *estimated join work* (not the
//!   object count) balances across shards, reusing the morsel cost model
//!   from `psj-core`. Also the textual topology format that ties shard
//!   ids to addresses and owned intervals.
//! * [`health`] — a per-shard health state machine
//!   (healthy → suspect → down → probing) driven by observed successes,
//!   failures, and probe timing; pure and clock-explicit so every
//!   transition is unit-testable.
//! * [`router`] — the scatter-gather router: routes window/nearest
//!   queries to the owning shards, fans joins out with per-shard owned
//!   intervals (cross-shard pairs deduplicated by the reference-point
//!   test on the shards), gathers under a deadline budget that bounds
//!   every shard exchange, retries failures with bounded jitter, and
//!   degrades to `Response::Partial` instead of failing when shards are
//!   down.
//!
//! The router is itself a protocol server, so every existing client —
//! the CLI, the load generator, another router — can point at a cluster
//! without changes.

#![warn(missing_docs)]

pub mod health;
pub mod plan;
pub mod router;

pub use health::{Health, HealthPolicy, HealthState, RouteDecision, Transition};
pub use plan::{format_topology, parse_topology, plan_shards, ShardPlan, ShardSpec, TopoShard};
pub use router::{Router, RouterConfig, ShardAddr};
