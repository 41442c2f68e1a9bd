//! **rept-serve** — a concurrent, multi-tenant triangle-count serving
//! subsystem.
//!
//! The paper's motivating scenarios (spam/fraud ranking, router-level
//! monitoring) are *online*: edges arrive continuously and estimates
//! are queried while the stream is still running. This crate turns the
//! REPT estimator into that service — std-only, `#![forbid(unsafe_code)]`:
//!
//! * [`core::ServeCore`] — the transport-free subsystem: one ingest
//!   thread drives the unified execution core
//!   ([`EngineCore`](rept_core::engine::EngineCore), wrapped by
//!   [`ResumableRun`](rept_core::resume::ResumableRun) for
//!   checkpointing — the *same* code the batch drivers run)
//!   incrementally in batches behind a queue **bounded in edges**
//!   (producers feel backpressure), periodically assembles an immutable
//!   [`snapshot::Snapshot`] (global `τ̂` with a plug-in 95% confidence
//!   interval, per-node `τ̂_v` with a top-k index, stream and memory
//!   stats) and publishes it through an `Arc` swap — **snapshot-isolated
//!   queries** that never block ingestion. A publication recombines
//!   only the nodes whose counters moved, into a locals map the
//!   snapshots share with [`snapshot::Publisher`], and derives the top-k
//!   index from the last one. Idle publication points (no edges since
//!   the last snapshot) reuse the published `Arc` body. A core that
//!   answers `AGGREGATE` exchanges — a shard behind a coordinator —
//!   publishes only at barriers.
//! * [`tenant::TenantRouter`] — the multi-tenant tier: N named
//!   `ServeCore`s (independent config/engine/seed per tenant;
//!   `interval=i` tenants derive their seed through
//!   [`IntervalEstimator`](rept_core::interval::IntervalEstimator), so
//!   sliding-window estimates are just tenants), per-tenant checkpoint
//!   directories with rotation, all-tenant resume-on-startup, and
//!   cross-tenant `STATS *` / `TOPK k *` aggregation.
//! * [`server::Server`] — a line-oriented TCP front-end over a thread
//!   pool; [`client::Client`] is the matching blocking client. Each
//!   connection is scoped to one *current tenant* (`USE`), starting at
//!   `default` — so v1 clients work unchanged. The transport underneath,
//!   [`server::LineServer`] (bounded lines, one write per reply,
//!   timeouts), is shared with the `rept-shard` coordinator.
//! * **Crash safety** — periodic / on-demand / at-shutdown checkpoints
//!   in the RPCK v4 format (write-then-rename; v1–v3 blobs still
//!   restore), resume-on-startup, and optional rotation keeping the
//!   last *k* checkpoint files ([`ServeConfig::checkpoint_keep`]).
//!   Kill-and-restart plus replay from the checkpointed position is
//!   **bit-identical** to an uninterrupted run, on every engine and for
//!   every tenant — the serve proptests pin this down.
//! * **Durability** — an optional per-tenant write-ahead
//!   [`journal`] ([`ServeConfig::with_journal`]): acked batches are
//!   CRC-guarded and fsynced *before* the ack, a checkpoint truncates
//!   the covered segments, and startup replays the journal tail — so
//!   recovery is **lossless**, not merely deterministic, with torn
//!   final records dropped rather than fatal. Rejected ingest lines
//!   are captured verbatim in a per-tenant dead-letter file ([`dlq`]).
//!   The fault-injection suite (`tests/fault.rs`) kills cores at
//!   arbitrary points and proves recovery equals the acked prefix;
//!   `docs/DURABILITY.md` specifies the format and contract.
//! * **Overload resilience** — per-tenant memory quotas
//!   ([`ServeConfig::with_memory_budget`]): under the default
//!   [`core::QuotaPolicy::Shed`] the tenant runs the bounded-memory
//!   reservoir engine ([`ReservoirRun`](rept_core::reservoir::ReservoirRun),
//!   stored bytes never exceed the budget, accuracy degrades
//!   gracefully); under `reject`/`degrade` the full engine runs and
//!   writes past the budget come back as typed **`ERR QUOTA`**
//!   rejections (dead-lettered, never retried by the client). A wire
//!   `INGEST` that finds no room in its tenant's queue is held for up
//!   to [`server::INGEST_HOLD`] (10 ms) for room; a queue that stays full
//!   surfaces as **`ERR BUSY`** backpressure instead of pinning the
//!   connection handler — transient, retried by the client with
//!   jittered exponential backoff. `HEALTH` reports the
//!   pressure gauges; `DLQ REPLAY` feeds the dead-letter file back
//!   through ingest. Under the per-record sync policy, concurrent
//!   producers' appends are **group-committed**: batches queued while
//!   an fsync would be in flight share one durability barrier.
//! * **Observability** — every core owns a [`metrics::ServeMetrics`]
//!   set of lock-free counters, gauges and log₂-bucket histograms
//!   (ingest hold, queue wait, apply, journal append/fsync, group-commit size,
//!   checkpoint, snapshot publication, per-verb query latency, typed
//!   error counts) plus a slow-op trace ring. `METRICS` serves
//!   Prometheus-style text with `tenant=` labels (`METRICS *` adds a
//!   cross-tenant `_all` aggregate); `TRACE TAIL n` drains the ring.
//!   Scrapes read the same atomics the hot path writes — they never
//!   block ingest. `docs/OBSERVABILITY.md` catalogs every series.
//!
//! # Wire protocol (v2)
//!
//! One request per line (ASCII, space-separated, `\n`-terminated), one
//! reply line per request. Replies start with `OK` or `ERR <message>`.
//! Floats use Rust's shortest-roundtrip formatting, so parsing a reply
//! recovers the bit-identical `f64` the server computed. The complete
//! reference — argument grammar, reply grammar, error lines — lives in
//! `docs/PROTOCOL.md` at the repository root.
//!
//! | Request                    | Reply                                                        |
//! |----------------------------|--------------------------------------------------------------|
//! | `INGEST u1 v1 [u2 v2 …]`   | `OK INGEST <n>` — n edges queued to the current tenant       |
//! | `INGEST <scope> u1 v1 …`   | `OK INGEST <n> tenants=<t>` — scope `*` or `a,b,…` fan-out   |
//! | `QUERY GLOBAL`             | `OK GLOBAL position=<p> tau=<τ̂> ci95=<lo>,<hi>` (`ci95=na` without η) |
//! | `QUERY LOCAL <v>`          | `OK LOCAL position=<p> node=<v> tau_v=<τ̂_v>`                |
//! | `TOPK <k>`                 | `OK TOPK position=<p> k=<n> <v1>=<τ̂1> … <vn>=<τ̂n>` (descending) |
//! | `TOPK <k> *`               | `OK TOPK ALL k=<n> <t1>/<v1>=<τ̂1> …` — merged across tenants |
//! | `STATS`                    | `OK STATS position= seq= checkpoints= engine= m= c= stored_edges= bytes= tracked_nodes= journal_bytes= journal_segments= replayed= dlq=` |
//! | `STATS *`                  | `OK STATS ALL tenants= position= stored_edges= bytes= checkpoints= tracked_nodes= journal_bytes= dlq=` |
//! | `JOURNAL STATS`            | `OK JOURNAL enabled= position= bytes= segments= replayed= dlq=` — current tenant's durability state |
//! | `FLUSH`                    | `OK FLUSH position=<p>` — barrier: everything queued is applied and republished |
//! | `AGGREGATE`                | `OK AGGREGATE position=<p> groups=<g> lines=<n>` + n lines of raw per-group counters — the shard tier's exchange verb |
//! | `AGGREGATE SINCE <p>`      | the same block with ` since=<p>` and only the nodes touched since the exchange at `p` — or the full block when `p` is not the last exchange |
//! | `CHECKPOINT`               | `OK CHECKPOINT position=<p>` — state durably on disk          |
//! | `TENANT CREATE <t> [k=v …]`| `OK TENANT CREATED <t>` — options: engine, m, c, seed, interval, memory_budget, quota |
//! | `TENANT LIST`              | `OK TENANTS n=<n> <t>=<pos>[:interval=<i>] …`                 |
//! | `TENANT DROP <t>`          | `OK TENANT DROPPED <t>` (`default` is protected)              |
//! | `USE <t>`                  | `OK USING <t>` — switches this connection's current tenant    |
//! | `HEALTH`                   | `OK HEALTH tenant= state=<ok\|degraded> queue= capacity= bytes= budget= journal_lag= dlq= sync= last_group=` — `queue`/`capacity` in edges, `last_group` in batches |
//! | `DLQ REPLAY`               | `OK DLQ REPLAYED n=<drained> failed=<rejected again>`         |
//! | `METRICS`                  | `OK METRICS lines=<n>` + n exposition lines for the current tenant |
//! | `METRICS *`                | `OK METRICS lines=<n>` + n lines for every tenant plus `tenant="_all"` aggregates |
//! | `TRACE TAIL <n>`           | `OK TRACE lines=<k>` + k slow-op events (drains the ring)     |
//! | `SHUTDOWN`                 | `OK BYE` — server stops accepting and drains                  |
//!
//! Two `ERR` classes carry retry semantics: `ERR BUSY …` (the ingest
//! queue had no room for the line within the hold bound — transient, retry with backoff;
//! the batch was not applied and is **not** dead-lettered) and `ERR QUOTA …` (memory budget refusal —
//! durable, never retry; the line **is** dead-lettered for `DLQ
//! REPLAY`). Every other `ERR` is a grammar or state error.
//!
//! Self-loops are rejected (`ERR self-loop …`); duplicate stream edges
//! are accepted and handled by the estimator exactly like the batch
//! drivers (first store wins). Queries answer from the **latest
//! published snapshot**: after plain `INGEST` the estimate may trail
//! the queued stream by up to `snapshot_every` edges (on a shard behind
//! a coordinator, until the next barrier) — send `FLUSH` first when
//! read-your-writes freshness is needed.
//!
//! # Quickstart
//!
//! ```
//! use rept_core::ReptConfig;
//! use rept_graph::edge::Edge;
//! use rept_serve::core::{ServeConfig, ServeCore};
//!
//! let cfg = ServeConfig::new(ReptConfig::new(2, 2).with_seed(7)).with_snapshot_every(2);
//! let core = ServeCore::start(cfg).unwrap();
//! core.ingest(vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)]).unwrap();
//! let position = core.flush();
//! assert_eq!(position, 3);
//! let snapshot = core.snapshot();
//! assert!(snapshot.global >= 0.0);
//! core.shutdown();
//! ```
//!
//! Multi-tenant, in process:
//!
//! ```
//! use rept_core::ReptConfig;
//! use rept_graph::edge::Edge;
//! use rept_serve::protocol::{Scope, TenantOptions};
//! use rept_serve::tenant::{RouterConfig, TenantRouter};
//! use rept_serve::ServeConfig;
//!
//! let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(7));
//! let router = TenantRouter::start(RouterConfig::new(base)).unwrap();
//! router.create("alpha", &TenantOptions { seed: Some(9), ..TenantOptions::default() }).unwrap();
//! let fed = router
//!     .ingest(&Scope::All, vec![Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)])
//!     .unwrap();
//! assert_eq!(fed, 2); // default + alpha
//! router.flush_all();
//! assert_eq!(router.tenant("alpha").unwrap().position(), 3);
//! router.shutdown();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod core;
pub mod dlq;
pub mod journal;
pub mod metrics;
pub mod protocol;
pub mod server;
pub mod snapshot;
pub mod tenant;

pub use crate::core::{
    Aggregates, Health, IngestError, LiveStats, QuotaPolicy, ServeConfig, ServeCore,
};
pub use client::{Client, ClientConfig, GlobalEstimate};
pub use dlq::DeadLetterQueue;
pub use journal::{Journal, SyncPolicy};
pub use metrics::{render_exposition, ServeMetrics, TenantScrape};
pub use server::Server;
pub use snapshot::{DurabilityStats, Published, Snapshot};
pub use tenant::{RouterConfig, RouterStats, TenantRouter};
