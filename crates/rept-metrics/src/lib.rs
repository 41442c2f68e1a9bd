//! Error metrics, Monte-Carlo harness and reporting for the REPT
//! evaluation.
//!
//! The paper's error metric (§IV-C) is the **normalized root mean square
//! error**: `NRMSE(µ̂) = √MSE(µ̂) / µ` with
//! `MSE = Var(µ̂) + (E[µ̂] − µ)²`. Expectations are estimated by repeated
//! independent trials (fresh seeds) against fixed ground truth.
//!
//! * [`welford`] — numerically stable streaming mean/variance.
//! * [`error`] — [`error::ErrorStats`]: bias, variance, MSE
//!   and NRMSE of a sample of estimates.
//! * [`local_error`] — per-node NRMSE aggregation over the nodes that
//!   participate in at least one triangle (the population Figs. 5/6
//!   average over), plus a heavy-node (`τ_v ≥ k`) view.
//! * [`ranking`] — precision@k and Kendall τ for local-count rankings
//!   (the spam-detection consumption pattern).
//! * [`latency`] — [`Spread`]: the minimum and quartiles of repeated
//!   timings, computed as `servebench/reps.py` computes them (the
//!   in-tree benches' rows).
//! * [`registry`] — lock-light always-on production metrics:
//!   [`registry::Counter`], [`registry::Gauge`] and a fixed-bucket
//!   log₂-scale [`registry::Histogram`] (bounded memory, mergeable,
//!   p50/p90/p99/max).
//! * [`trace`] — [`trace::TraceRing`]: bounded ring of structured slow-op
//!   events with monotonic timestamps and a configurable threshold.
//! * [`montecarlo`] — trial runners tying estimator closures to ground
//!   truth.
//! * [`timer`] — wall-clock helpers and the *simulated* parallel runtime
//!   model used on single-core hosts (documented in EXPERIMENTS.md).
//! * [`report`] — aligned text tables and CSV output (hand-rolled; no
//!   format dependency).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod latency;
pub mod local_error;
pub mod montecarlo;
pub mod ranking;
pub mod registry;
pub mod report;
pub mod timer;
pub mod trace;
pub mod welford;

pub use error::ErrorStats;
pub use latency::Spread;
pub use local_error::LocalErrorAccumulator;
pub use montecarlo::{run_global_trials, run_trials, TrialOutput};
pub use registry::{Counter, Gauge, Histogram};
pub use trace::{TraceEvent, TraceRing};
pub use welford::Welford;
