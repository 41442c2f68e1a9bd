//! # rept — parallel streaming triangle counting
//!
//! A Rust implementation of **REPT** (*Random Edge Partition and Triangle
//! counting*), the one-pass parallel streaming algorithm for approximating
//! global and local triangle counts from:
//!
//! > Pinghui Wang, Peng Jia, Yiyan Qi, Yu Sun, Jing Tao, Xiaohong Guan.
//! > "REPT: A Streaming Algorithm of Approximating Global and Local Triangle
//! > Counts in Parallel." ICDE 2019.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`graph`] — edge/stream/adjacency substrate ([`rept_graph`])
//! * [`hash`] — hashing & sampling primitives ([`rept_hash`])
//! * [`gen`] — synthetic graph generators & dataset registry ([`rept_gen`])
//! * [`exact`] — exact ground-truth counting incl. `η` ([`rept_exact`])
//! * [`core`] — the REPT estimator itself ([`rept_core`])
//! * [`baselines`] — MASCOT, TRIÈST, GPS and parallel averaging
//!   ([`rept_baselines`])
//! * [`metrics`] — NRMSE & Monte-Carlo experiment harness ([`rept_metrics`])
//! * [`serve`] — concurrent serving subsystem: streaming ingest,
//!   snapshot-isolated queries, crash-safe resume ([`rept_serve`])
//! * [`shard`] — sharded distributed tier: a coordinator over
//!   group-sliced shard servers, bit-identical to one server
//!   ([`rept_shard`])
//!
//! ## Architecture: one incremental execution core
//!
//! Every way of running the estimator drives the same type —
//! [`rept_core::engine::EngineCore`] — which owns the engine-specific
//! state of a run (per-worker workers, or the fused hybrid layout's one
//! shared structure) behind three operations:
//! `ingest_batch`, `snapshot_counters`, `finalize`.
//!
//! * **Batch** (`Rept::run*`, the figure binaries, the benches):
//!   construct a core, **ingest everything, then finalize**. Threaded
//!   runs construct one core per thread over a subset of hash groups
//!   and combine the finalized aggregates.
//! * **Resume** ([`rept_core::resume::ResumableRun`]): the same core
//!   fed batch by batch, plus the RPCK checkpoint codec (unsliced engine
//!   runs write v4, reservoir runs v5, group-sliced shards v6; every
//!   version from v1 still restores). Results are independent of batch
//!   boundaries, so kill-and-resume is bit-identical.
//! * **Serve** ([`rept_serve::ServeCore`]): an ingest thread around a
//!   resumable run, snapshot-isolated queries, checkpoint rotation.
//!
//! Because batch, resume and serve execute identical code, their
//! bit-identical agreement holds by construction; the proptests pin it
//! down across engines and duplicate-edge streams.
//!
//! On the fused engine every hash group the core owns stores its edges
//! in a single [`rept_graph::hybrid::HybridAdjacency`] of plain neighbor
//! ids: an edge's cell under a group is recomputed from the group's
//! hash at each common neighbor, so full groups, a *remainder* group
//! (`c mod m ≠ 0`) and a `c < m` group all share one structure walk
//! per edge.
//!
//! ## Quickstart: batch estimation
//!
//! ```
//! use rept::core::{Engine, Rept, ReptConfig};
//! use rept::gen::{GeneratorConfig, barabasi_albert};
//! use rept::exact::StreamingExact;
//!
//! // A small synthetic stream.
//! let stream = barabasi_albert(&GeneratorConfig::new(500, 42), 5);
//!
//! // Ground truth.
//! let mut exact = StreamingExact::new();
//! for &e in &stream { exact.process(e); }
//!
//! // REPT with m = 4 (sampling probability 1/4) and c = 4 processors.
//! let cfg = ReptConfig::new(4, 4).with_seed(7);
//! let est = Rept::new(cfg).run(Engine::PerWorker, &stream);
//!
//! let tau = exact.global() as f64;
//! let rel_err = (est.global - tau).abs() / tau;
//! assert!(rel_err < 0.5, "estimate {} vs exact {tau}", est.global);
//! ```
//!
//! ## Engine selection
//!
//! The two engines are interchangeable and **bit-identical**; they
//! differ only in cost (see `BENCH_throughput.json` for measurements).
//! `Engine::FusedHybrid` is the default; `Engine::PerWorker` is the
//! paper's cost model and the reference oracle:
//!
//! ```
//! use rept::core::{Engine, Rept, ReptConfig};
//! use rept::gen::{GeneratorConfig, barabasi_albert};
//!
//! let stream = barabasi_albert(&GeneratorConfig::new(300, 1), 4);
//! let rept = Rept::new(ReptConfig::new(4, 8).with_seed(3));
//!
//! let oracle = rept.run(Engine::PerWorker, &stream);
//! for engine in Engine::all() {
//!     let est = rept.run(engine, &stream);
//!     assert_eq!(est.global, oracle.global, "{}", engine.name());
//!     assert_eq!(est.locals, oracle.locals);
//! }
//! // The retired fused-layout names are aliases of the default.
//! assert_eq!(Engine::from_name("fused-sorted"), Some(Engine::default()));
//! ```
//!
//! ## A serve round-trip
//!
//! The serving subsystem answers queries while the stream is still
//! running, over TCP or in process; estimates cross the wire
//! bit-identically (shortest-roundtrip float formatting):
//!
//! ```
//! use rept::core::{Engine, Rept, ReptConfig};
//! use rept::graph::edge::Edge;
//! use rept::serve::{Client, ServeConfig, Server};
//!
//! let stream = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
//! let cfg = ReptConfig::new(2, 2).with_seed(7);
//! let oracle = Rept::new(cfg).run(Engine::PerWorker, &stream);
//!
//! let server = Server::start(
//!     ServeConfig::new(cfg).with_snapshot_every(1),
//!     "127.0.0.1:0",
//!     1,
//! ).unwrap();
//! let mut client = Client::connect(server.local_addr()).unwrap();
//! client.ingest(&stream).unwrap();
//! assert_eq!(client.flush().unwrap(), 3);
//! let global = client.query_global().unwrap();
//! assert_eq!(global.tau, oracle.global); // exact, through the wire
//! drop(client);
//! assert_eq!(server.shutdown().global, oracle.global);
//! ```

pub use rept_baselines as baselines;
pub use rept_core as core;
pub use rept_exact as exact;
pub use rept_gen as gen;
pub use rept_graph as graph;
pub use rept_hash as hash;
pub use rept_metrics as metrics;
pub use rept_serve as serve;
pub use rept_shard as shard;

// Compile-and-run the code blocks of the hand-written docs as doctests
// (`cargo test --doc`): `rust` fences must build against the public API,
// so the README can never drift from the code. Transcript/diagram fences
// are tagged `text`/`console` and are skipped.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
mod readme_doctests {}

#[cfg(doctest)]
#[doc = include_str!("../docs/ARCHITECTURE.md")]
mod architecture_doctests {}

#[cfg(doctest)]
#[doc = include_str!("../docs/PROTOCOL.md")]
mod protocol_doctests {}

#[cfg(doctest)]
#[doc = include_str!("../docs/DURABILITY.md")]
mod durability_doctests {}

#[cfg(doctest)]
#[doc = include_str!("../docs/OBSERVABILITY.md")]
mod observability_doctests {}
