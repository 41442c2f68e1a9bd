//! Runtime measurement harness for Figures 7 and 8.
//!
//! All four methods run their processors independently (no communication
//! during the stream), so per-method runtime on an ideal `c`-core machine
//! is `max_i(work_i)`. We execute each processor *separately* on this
//! host, time it, and feed the durations into
//! [`RuntimeModel`] — see that module
//! and EXPERIMENTS.md for why this is the honest comparison on a
//! single-core CI box.

use std::time::Duration;

use rept_baselines::traits::StreamingTriangleCounter;
use rept_core::worker::SemiTriangleWorker;
use rept_core::{EtaMode, Rept, ReptConfig};
use rept_graph::edge::Edge;
use rept_hash::rng::SplitMix64;
use rept_metrics::timer::{time, RuntimeModel};

/// Times a full REPT run, one processor at a time, and returns the
/// runtime model (the estimate itself is discarded — accuracy cells are
/// measured separately with many trials).
pub fn rept_runtime(stream: &[Edge], m: u64, c: u64, seed: u64) -> RuntimeModel {
    let rept = Rept::new(ReptConfig::new(m, c).with_seed(seed).with_locals(true));
    let mut model = RuntimeModel::new();
    for (hasher, cell) in rept.processor_assignments() {
        let (_, elapsed) = time(|| {
            let mut w = SemiTriangleWorker::new(true, false, EtaMode::PaperInit);
            for &e in stream {
                let (u, v) = e.as_u64_pair();
                let closed = w.observe(e);
                if hasher.cell(u, v) == cell {
                    w.store(e, closed);
                }
            }
            w.tau()
        });
        model.record_processor(elapsed);
    }
    model
}

/// Times `c` independent instances of a baseline (parallel MASCOT /
/// TRIÈST / GPS): each instance is one processor.
pub fn baseline_runtime<A: StreamingTriangleCounter>(
    stream: &[Edge],
    c: u64,
    seed: u64,
    mut factory: impl FnMut(u64) -> A,
) -> RuntimeModel {
    let root = SplitMix64::new(seed);
    let mut model = RuntimeModel::new();
    for i in 0..c {
        let mut inst = factory(root.fork(i).next_u64());
        let (_, elapsed) = time(|| {
            for &e in stream {
                inst.process(e);
            }
            inst.global_estimate()
        });
        model.record_processor(elapsed);
    }
    model
}

/// Times one single-threaded instance (the `-S` variants of Fig. 8).
pub fn single_runtime<A: StreamingTriangleCounter>(
    stream: &[Edge],
    seed: u64,
    factory: impl FnOnce(u64) -> A,
) -> Duration {
    let mut inst = factory(seed);
    let (_, elapsed) = time(|| {
        for &e in stream {
            inst.process(e);
        }
        inst.global_estimate()
    });
    elapsed
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_baselines::Mascot;
    use rept_gen::complete;

    #[test]
    fn rept_runtime_counts_processors() {
        let stream = complete(12);
        let model = rept_runtime(&stream, 3, 7, 0);
        assert_eq!(model.processors(), 7);
        assert!(model.simulated_wall() > Duration::ZERO);
        assert!(model.total_cpu() >= model.simulated_wall());
    }

    #[test]
    fn baseline_runtime_counts_instances() {
        let stream = complete(12);
        let model = baseline_runtime(&stream, 4, 1, |s| Mascot::new(0.5, s));
        assert_eq!(model.processors(), 4);
    }

    #[test]
    fn single_runtime_is_positive() {
        let stream = complete(12);
        let d = single_runtime(&stream, 0, |s| Mascot::new(0.5, s));
        assert!(d > Duration::ZERO);
    }
}
