//! **REPT** — Random Edge Partition and Triangle counting.
//!
//! The paper's contribution (Wang et al., ICDE 2019): a one-pass parallel
//! streaming estimator of global and local triangle counts whose processors
//! share *one random edge partition* instead of running independent
//! samples, which removes most (for `c = m`, all) of the covariance between
//! sampled triangles that dominates the error of parallelized MASCOT /
//! TRIÈST.
//!
//! * [`worker`] — `SemiTriangleWorker`, one
//!   logical processor: observes every stream edge, stores its partition
//!   cell, counts semi-triangles and (optionally) η-pairs. Implements the
//!   paper's `UpdateTriangleCNT` / `UpdateTrianglePairCNT`.
//! * [`config`] — [`ReptConfig`]: `m`, `c`, seeds,
//!   tracking switches, η bookkeeping mode.
//! * [`estimator`] — [`Rept`]: Algorithm 1 (`c ≤ m`) and
//!   Algorithm 2 (`c > m`, grouped hashes + Graybill–Deal combination),
//!   single-threaded and threaded drivers.
//! * [`engine`] — [`EngineCore`], the **unified incremental execution
//!   core**: one `ingest → snapshot/finalize` state machine
//!   behind every driver. Batch execution is "ingest everything, then
//!   finalize"; the resumable and serving layers feed the same core
//!   batch by batch, so all execution paths are bit-identical by
//!   construction.
//! * [`fused`] — the fused group execution machinery the core drives:
//!   every kept hash group's edges in one shared structure, plus each
//!   group's counters.
//!
//! ## Two execution engines
//!
//! The estimator can be driven by two [`Engine`]s that produce
//! **bit-identical** estimates, both through [`Rept::run`] and
//! [`Rept::run_threaded`]:
//!
//! * [`Engine::PerWorker`] gives every processor its own adjacency and
//!   intersection — the paper's cost model executed literally. Pick it as
//!   the reference oracle and for per-processor runtime accounting
//!   (Figs. 7/8 simulate wall-clock from *independent* processor work).
//! * [`Engine::FusedHybrid`] (the default) keeps one adjacency for all
//!   of a run's hash groups — full, remainder or `c < m` alike — and
//!   recovers all of the groups' counters from a single common-neighbor
//!   pass per edge, recomputing each group's cells from its hash.
//!   Low-degree nodes keep sorted neighbor vecs, high-degree nodes
//!   promote to blocked bitmaps. Pick it whenever you just want the
//!   estimate fast — accuracy experiments, production streams, and any
//!   `c ≫ 1` configuration, where it is orders of magnitude faster
//!   because it replaces `c` hash intersections per edge with one
//!   structure walk.
//! * [`combine`] — inverse-variance combination of the two sub-estimates
//!   with plug-in weights, exactly as §III-B prescribes.
//! * [`variance`] — closed-form variances (Theorem 3 and §III-B/C) for
//!   REPT and parallel MASCOT; used by tests and the figure binaries.
//! * [`estimate`] — result types (notably [`ReptEstimate`]).
//! * [`resume`] — [`resume::ResumableRun`], a thin checkpoint/restore
//!   adapter over [`EngineCore`]: serialises the complete state (RPCK
//!   — the union edge set stored once, a counted remainder section;
//!   every earlier version and the retired fused layouts' engine codes
//!   still restore), so any engine's deployment resumes bit-identically. The `rept-serve` crate builds its serving
//!   subsystem on it.
//! * [`reservoir`] — [`ReservoirRun`], the bounded-memory run mode:
//!   TRIÈST-IMPR reservoir sampling under a hard byte budget, behind
//!   the same push/checkpoint surface as the engines (RPCK v5), for
//!   tenants created with `memory_budget=<bytes>`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combine;
pub mod config;
pub mod engine;
pub mod estimate;
pub mod estimator;
pub mod fused;
pub mod interval;
pub mod planning;
pub mod reservoir;
pub mod resume;
pub mod variance;
pub mod worker;

pub use config::{EtaMode, ReptConfig};
pub use engine::{EngineCore, GroupSlice, Touched};
pub use estimate::ReptEstimate;
pub use estimator::{Engine, GroupAggregate, Rept};
pub use reservoir::ReservoirRun;
