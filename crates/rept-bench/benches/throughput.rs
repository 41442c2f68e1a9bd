//! Per-edge throughput of every streaming method.
//!
//! Complements the figure binaries: Criterion-quality measurement of the
//! cost to process one stream edge, per method, on a fixed BA stream.
//! The expected ordering matches paper Fig. 7: MASCOT ≈ REPT-worker <
//! TRIÈST < GPS.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rept_baselines::traits::StreamingTriangleCounter;
use rept_baselines::{Gps, Mascot, TriestImpr};
use rept_core::worker::SemiTriangleWorker;
use rept_core::{Engine, EtaMode, Rept, ReptConfig};
use rept_gen::{barabasi_albert, GeneratorConfig};
use rept_graph::edge::Edge;
use rept_hash::{EdgeHashFamily, PartitionHasher};

fn stream() -> Vec<Edge> {
    barabasi_albert(&GeneratorConfig::new(3_000, 42), 5)
}

fn bench_methods(c: &mut Criterion) {
    let stream = stream();
    let edges = stream.len() as u64;
    let p = 0.1;
    let budget = (stream.len() as f64 * p) as usize;

    let mut group = c.benchmark_group("per-edge");
    group.throughput(Throughput::Elements(edges));

    group.bench_function("mascot", |b| {
        b.iter(|| {
            let mut m = Mascot::new(p, 7).without_locals();
            for &e in &stream {
                m.process(e);
            }
            m.global_estimate()
        })
    });

    group.bench_function("triest-impr", |b| {
        b.iter(|| {
            let mut t = TriestImpr::new(budget, 7).without_locals();
            for &e in &stream {
                t.process(e);
            }
            t.global_estimate()
        })
    });

    group.bench_function("gps", |b| {
        b.iter(|| {
            let mut g = Gps::new(budget / 2, 7).without_locals();
            for &e in &stream {
                g.process(e);
            }
            g.global_estimate()
        })
    });

    group.bench_function("rept-worker", |b| {
        // One REPT processor: observe everything, store its cell.
        let hasher = PartitionHasher::new(EdgeHashFamily::new(7).member(0), 10);
        b.iter(|| {
            let mut w = SemiTriangleWorker::new(false, false, EtaMode::PaperInit);
            for &e in &stream {
                let (u, v) = e.as_u64_pair();
                let closed = w.observe(e);
                if hasher.cell(u, v) == 0 {
                    w.store(e, closed);
                }
            }
            w.tau()
        })
    });

    group.finish();
}

fn bench_rept_scaling(c: &mut Criterion) {
    let stream = stream();
    let mut group = c.benchmark_group("rept-full-run");
    for &procs in &[1u64, 4, 10] {
        group.bench_with_input(BenchmarkId::from_parameter(procs), &procs, |b, &procs| {
            b.iter(|| {
                let cfg = ReptConfig::new(10, procs).with_seed(3).with_locals(false);
                Rept::new(cfg).run(Engine::PerWorker, &stream).global
            })
        });
    }
    group.finish();
}

/// Per-worker vs fused engine at growing processor counts — the cost of
/// `c` independent intersections per edge against one cell-tagged pass
/// per hash group (`⌈c/m⌉` passes). The gap should widen with `c`.
fn bench_engines(c: &mut Criterion) {
    let stream = stream();
    let edges = stream.len() as u64;
    let m = 10u64;
    let mut group = c.benchmark_group("engine");
    group.throughput(Throughput::Elements(edges));
    for &procs in &[4u64, 10, 40] {
        for engine in Engine::all() {
            let rept = Rept::new(ReptConfig::new(m, procs).with_seed(3).with_locals(false));
            group.bench_with_input(BenchmarkId::new(engine.name(), procs), &procs, |b, _| {
                b.iter(|| rept.run(engine, &stream).global)
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_methods, bench_rept_scaling, bench_engines);
criterion_main!(benches);
