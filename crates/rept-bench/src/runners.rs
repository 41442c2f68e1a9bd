//! Per-method Monte-Carlo evaluation cells.
//!
//! Every figure binary loops over `(dataset, c)` grid points and calls one
//! of these runners. A runner evaluates `trials` independent runs of its
//! method on the fixed stream and returns the global [`ErrorStats`](rept_metrics::ErrorStats) plus
//! the mean local NRMSE (when locals are tracked).
//!
//! Seeding convention: trial `t` of any method uses seed
//! `base_seed + t` (forked internally per processor), so methods face the
//! same randomness schedule and columns are comparable.

use rept_baselines::parallel::ParallelAveraged;
use rept_baselines::traits::StreamingTriangleCounter;
use rept_baselines::{Gps, Mascot, TriestImpr};
use rept_core::{Engine, EngineCore, Rept, ReptConfig};
use rept_exact::GroundTruth;
use rept_graph::edge::Edge;
use rept_hash::rng::SplitMix64;
use rept_metrics::montecarlo::{run_trials, EvalResult, TrialOutput};

/// Which metrics a cell should produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellOptions {
    /// Track and aggregate local estimates (Figs. 5/6); costs memory and
    /// time, so the global-only figures switch it off.
    pub locals: bool,
    /// Monte-Carlo trials.
    pub trials: u64,
    /// Base seed.
    pub base_seed: u64,
}

/// Evaluates REPT at `(m, c)` with the default engine (fused-hybrid —
/// all engines are bit-identical, so accuracy cells just take the fast
/// one).
pub fn rept_cell(
    stream: &[Edge],
    gt: &GroundTruth,
    m: u64,
    c: u64,
    opts: CellOptions,
) -> EvalResult {
    rept_cell_with_engine(stream, gt, m, c, opts, Engine::default())
}

/// Evaluates REPT at `(m, c)` on an explicit [`Engine`] — lets figures
/// and throughput benches compare the per-worker and fused paths. Each
/// trial drives the unified execution core the way every other layer
/// does: batch execution is "ingest everything, then finalize".
pub fn rept_cell_with_engine(
    stream: &[Edge],
    gt: &GroundTruth,
    m: u64,
    c: u64,
    opts: CellOptions,
    engine: Engine,
) -> EvalResult {
    run_trials(opts.trials, opts.base_seed, gt, |seed| {
        let cfg = ReptConfig::new(m, c)
            .with_seed(seed)
            .with_locals(opts.locals);
        let mut core = EngineCore::with_engine(Rept::new(cfg), engine);
        core.ingest_batch(stream);
        let est = core.into_estimate();
        TrialOutput {
            global: est.global,
            locals: est.locals,
        }
    })
}

fn baseline_cell<A: StreamingTriangleCounter>(
    stream: &[Edge],
    gt: &GroundTruth,
    c: u64,
    opts: CellOptions,
    mut factory: impl FnMut(u64) -> A,
) -> EvalResult {
    run_trials(opts.trials, opts.base_seed, gt, |seed| {
        // Independent per-processor seeds forked from the trial seed.
        let root = SplitMix64::new(seed);
        let mut p = ParallelAveraged::new(c as usize, |i| factory(root.fork(i as u64).next_u64()));
        for &e in stream {
            p.process(e);
        }
        TrialOutput {
            global: p.global_estimate(),
            locals: if opts.locals {
                p.local_estimates()
            } else {
                Default::default()
            },
        }
    })
}

/// Evaluates parallel MASCOT (`c` independent instances at probability
/// `p`, averaged).
pub fn mascot_cell(
    stream: &[Edge],
    gt: &GroundTruth,
    p: f64,
    c: u64,
    opts: CellOptions,
) -> EvalResult {
    baseline_cell(stream, gt, c, opts, |seed| {
        let m = Mascot::new(p, seed);
        if opts.locals {
            m
        } else {
            m.without_locals()
        }
    })
}

/// Evaluates parallel TRIÈST-IMPR (budget `p·|E|` per instance, §IV-B).
pub fn triest_cell(
    stream: &[Edge],
    gt: &GroundTruth,
    p: f64,
    c: u64,
    opts: CellOptions,
) -> EvalResult {
    let budget = ((p * stream.len() as f64).round() as usize).max(3);
    baseline_cell(stream, gt, c, opts, |seed| {
        let t = TriestImpr::new(budget, seed);
        if opts.locals {
            t
        } else {
            t.without_locals()
        }
    })
}

/// Evaluates parallel GPS (budget `p·|E|/2` per instance — half, because
/// sampled weights cost the other half of memory, §IV-B).
pub fn gps_cell(
    stream: &[Edge],
    gt: &GroundTruth,
    p: f64,
    c: u64,
    opts: CellOptions,
) -> EvalResult {
    let budget = ((p * stream.len() as f64 / 2.0).round() as usize).max(3);
    baseline_cell(stream, gt, c, opts, |seed| {
        let g = Gps::new(budget, seed);
        if opts.locals {
            g
        } else {
            g.without_locals()
        }
    })
}

/// Evaluates a single-instance counter built by `factory(seed)` — used by
/// the Fig. 8 single-threaded comparisons.
pub fn single_cell<A: StreamingTriangleCounter>(
    stream: &[Edge],
    gt: &GroundTruth,
    opts: CellOptions,
    mut factory: impl FnMut(u64) -> A,
) -> EvalResult {
    run_trials(opts.trials, opts.base_seed, gt, |seed| {
        let mut inst = factory(seed);
        for &e in stream {
            inst.process(e);
        }
        TrialOutput {
            global: inst.global_estimate(),
            locals: if opts.locals {
                inst.local_estimates()
            } else {
                Default::default()
            },
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_gen::complete;

    fn opts(trials: u64, locals: bool) -> CellOptions {
        CellOptions {
            locals,
            trials,
            base_seed: 17,
        }
    }

    #[test]
    fn all_cells_run_and_report() {
        let stream = complete(12); // τ = 220
        let gt = GroundTruth::compute(&stream);
        let o = opts(8, true);
        for (name, result) in [
            ("rept", rept_cell(&stream, &gt, 3, 4, o)),
            ("mascot", mascot_cell(&stream, &gt, 1.0 / 3.0, 4, o)),
            ("triest", triest_cell(&stream, &gt, 1.0 / 3.0, 4, o)),
            ("gps", gps_cell(&stream, &gt, 1.0 / 3.0, 4, o)),
        ] {
            assert_eq!(result.global.trials, 8, "{name}");
            assert!(result.global.nrmse.is_finite(), "{name}");
            assert!(result.local_nrmse.is_some(), "{name} locals missing");
        }
    }

    #[test]
    fn engines_produce_identical_cells() {
        // Bit-identical estimators must yield bit-identical NRMSE cells.
        let stream = complete(12);
        let gt = GroundTruth::compute(&stream);
        let o = opts(6, true);
        for (m, c) in [(3u64, 4u64), (3, 3), (2, 5)] {
            let a = rept_cell_with_engine(&stream, &gt, m, c, o, Engine::PerWorker);
            for engine in Engine::all() {
                let b = rept_cell_with_engine(&stream, &gt, m, c, o, engine);
                assert_eq!(a.global.nrmse, b.global.nrmse, "m={m} c={c} {engine:?}");
                assert_eq!(a.local_nrmse, b.local_nrmse, "m={m} c={c} {engine:?}");
            }
        }
    }

    #[test]
    fn locals_off_suppresses_local_metric() {
        let stream = complete(10);
        let gt = GroundTruth::compute(&stream);
        let result = rept_cell(&stream, &gt, 3, 3, opts(4, false));
        assert!(result.local_nrmse.is_none());
    }

    #[test]
    fn cells_are_reproducible() {
        let stream = complete(10);
        let gt = GroundTruth::compute(&stream);
        let a = mascot_cell(&stream, &gt, 0.5, 3, opts(5, false));
        let b = mascot_cell(&stream, &gt, 0.5, 3, opts(5, false));
        assert_eq!(a.global.nrmse, b.global.nrmse);
    }

    #[test]
    fn rept_beats_mascot_on_shared_edge_heavy_stream() {
        // A clique-dense stream has η ≫ τ; with c = m the REPT variance
        // drops to τ(m−1) while MASCOT keeps the 2η(m−1) term. This is the
        // paper's headline claim in miniature.
        let cfg = rept_gen::GeneratorConfig::new(120, 5);
        let stream = rept_gen::stream_order(rept_gen::planted_cliques(&cfg, 3, 14, 100), 9);
        let gt = GroundTruth::compute(&stream);
        assert!(gt.eta > gt.tau, "need a covariance-dominated stream");
        let o = opts(40, false);
        let (m, c) = (4u64, 4u64);
        let rept = rept_cell(&stream, &gt, m, c, o);
        let mascot = mascot_cell(&stream, &gt, 0.25, c, o);
        assert!(
            rept.global.nrmse < mascot.global.nrmse,
            "REPT {} should beat MASCOT {}",
            rept.global.nrmse,
            mascot.global.nrmse
        );
    }

    #[test]
    fn single_cell_runs() {
        let stream = complete(10);
        let gt = GroundTruth::compute(&stream);
        let r = single_cell(&stream, &gt, opts(4, false), |seed| Mascot::new(0.5, seed));
        assert_eq!(r.global.trials, 4);
    }
}
