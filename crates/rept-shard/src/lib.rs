//! **rept-shard** — the sharded distributed tier: a coordinator over
//! the v2 wire protocol, bit-identical to single-process serving.
//!
//! REPT's hash groups never communicate while the stream runs, so a
//! cluster that (1) gives each shard server a round-robin **slice of
//! the groups** ([`rept_core::GroupSlice`]), (2) broadcasts every edge
//! to every shard, and (3) recombines the shards' raw *integer*
//! counters ([`rept_core::GroupAggregate`], carried by the `AGGREGATE`
//! verb) through [`rept_core::Rept::finalize_groups`] computes **the
//! same bytes** as one big process — the shard-equivalence suite
//! (`tests/shard.rs`) asserts reply-line equality against a standalone
//! [`rept_serve::ServeCore`] for every engine and shard count.
//!
//! * [`coordinator::ShardCoordinator`] — owns N [`coordinator::ShardLink`]s
//!   (in-process [`rept_serve::ServeCore`] handles or TCP
//!   [`rept_serve::Client`]s — both speak the same protocol), fans
//!   ingest batches to all of them (each
//!   [`INGEST_CHUNK`](rept_serve::client::INGEST_CHUNK)-edge line in
//!   flight on every shard at once, one request per shard), publishes
//!   through the same [`rept_serve::snapshot::Publisher`] as a
//!   standalone core so `seq=`/`checkpoints=` counters match (a revival
//!   publishes at once and, like every publication, restarts the
//!   cadence count), and orchestrates cluster-wide checkpoints (the
//!   counter advances only when *every* shard's slice is durable).
//! * [`server::CoordinatorServer`] — the TCP front-end: the same
//!   line protocol upstream, so a v2 client cannot tell a 16-shard
//!   cluster from one server. Cluster-specific behavior is confined to
//!   `HEALTH` (`state=degraded shards=<k>/<n>`) and typed `ERR`s for
//!   the verbs that don't distribute (tenancy, journal introspection).
//! * **Degradation, not outage** — a dead shard removes its groups;
//!   the survivors still form a valid smaller REPT configuration, so
//!   queries keep answering with the honestly wider confidence
//!   interval. Buffered batches replay into a revived shard
//!   ([`coordinator::ShardCoordinator::revive_shard`]).
//!
//! ```
//! use std::sync::Arc;
//! use rept_core::{GroupSlice, ReptConfig};
//! use rept_graph::edge::Edge;
//! use rept_serve::{ServeConfig, ServeCore};
//! use rept_shard::{CoordinatorConfig, ShardCoordinator, ShardLink};
//!
//! // c=8, m=2 → 4 hash groups, sliced round-robin across 2 shards.
//! let cfg = ReptConfig::new(2, 8).with_seed(7);
//! let links = (0..2u32)
//!     .map(|i| {
//!         let slice = GroupSlice::new(i, 2);
//!         let core =
//!             ServeCore::start(ServeConfig::new(cfg).with_group_slice(slice)).unwrap();
//!         ShardLink::local(Arc::new(core))
//!     })
//!     .collect();
//! let mut coord = ShardCoordinator::start(CoordinatorConfig::new(cfg), links).unwrap();
//! coord.ingest(vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]).unwrap();
//! assert_eq!(coord.flush(), 3);
//! assert!(coord.snapshot().global >= 0.0);
//! assert!(!coord.health().degraded());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coordinator;
pub mod server;

pub use coordinator::{
    format_cluster_health, ClusterHealth, CoordinatorConfig, CoordinatorMetrics, ExchangeError,
    ShardCoordinator, ShardLink,
};
pub use server::CoordinatorServer;
