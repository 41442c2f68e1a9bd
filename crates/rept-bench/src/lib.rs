//! Shared infrastructure for the experiment binaries.
//!
//! One binary per paper artifact lives in `src/bin/` (see DESIGN.md §5 for
//! the index). They share:
//!
//! * [`cli`] — a tiny flag parser (`--trials`, `--scale`, `--datasets`,
//!   `--full`, `--seed`, `--out`), kept dependency-free.
//! * [`runners`] — one function per method that evaluates a
//!   `(stream, ground truth, m, c)` cell over Monte-Carlo trials and
//!   returns global/local NRMSE.
//! * [`context`] — dataset materialisation + ground-truth computation with
//!   consistent console logging.
//! * [`reps`] — the interleaved-repetition harness and the measured host
//!   parallelism behind `bench_throughput` and `bench_serve`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cli;
pub mod context;
pub mod reps;
pub mod runners;
pub mod sweep;
pub mod timing;

pub use cli::Args;
pub use context::ExperimentContext;
