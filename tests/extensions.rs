//! Integration tests for the library extensions beyond the paper's core:
//! planning/confidence intervals, duplicate-robust streaming, timed
//! intervals, tabulation hashing, and the DOULION baseline.

use rept::baselines::traits::StreamingTriangleCounter;
use rept::core::planning::{confidence_interval, plan, IntervalMethod};
use rept::core::worker::SemiTriangleWorker;
use rept::core::{Engine, EtaMode, Rept, ReptConfig};
use rept::exact::node_iterator::node_iterator_count;
use rept::exact::{forward_count, GroundTruth};
use rept::gen::{barabasi_albert, stream_order, GeneratorConfig};
use rept::graph::csr::CsrGraph;
use rept::graph::duplicates::{dedup_bloom, dedup_exact};
use rept::graph::edge::Edge;
use rept::graph::timed::{edges_of, time_intervals, with_uniform_times};
use rept::hash::tabulation::TabulationHasher;

fn stream() -> Vec<Edge> {
    stream_order(barabasi_albert(&GeneratorConfig::new(600, 5), 4), 11)
}

#[test]
fn three_exact_implementations_agree_on_registry_scale_input() {
    let stream = stream();
    let csr = CsrGraph::from_edges(&stream);
    let fwd = forward_count(&csr);
    let ni = node_iterator_count(&csr);
    assert_eq!(fwd, ni);
    let gt = GroundTruth::compute(&stream); // internally checks streaming vs forward
    assert_eq!(gt.tau, fwd.global);
}

#[test]
fn planner_output_is_achievable() {
    let stream = stream();
    let gt = GroundTruth::compute(&stream);
    let per_proc = stream.len() as u64 / 6;
    let plan = plan(
        stream.len() as u64,
        per_proc,
        0.5,
        64,
        gt.tau as f64,
        gt.eta as f64,
    )
    .expect("target reachable");
    assert!(plan.m >= 2 && plan.c >= 1);

    // Run the planned configuration; over trials the NRMSE should land
    // near (at most ~2× of) the prediction.
    let trials = 60u64;
    let mse: f64 = (0..trials)
        .map(|s| {
            let est = Rept::new(
                ReptConfig::new(plan.m, plan.c)
                    .with_seed(s)
                    .with_locals(false),
            )
            .run(Engine::PerWorker, &stream);
            (est.global - gt.tau as f64).powi(2)
        })
        .sum::<f64>()
        / trials as f64;
    let measured_nrmse = mse.sqrt() / gt.tau as f64;
    assert!(
        measured_nrmse < plan.predicted_nrmse * 2.0 + 0.05,
        "measured {measured_nrmse} vs predicted {}",
        plan.predicted_nrmse
    );
}

#[test]
fn confidence_intervals_have_reasonable_coverage_on_graph_streams() {
    let stream = stream();
    let gt = GroundTruth::compute(&stream);
    let trials: usize = 120;
    let covered = (0..trials as u64)
        .filter(|&s| {
            let est = Rept::new(ReptConfig::new(4, 4).with_seed(s).with_eta(true))
                .run(Engine::PerWorker, &stream);
            confidence_interval(&est, 0.95, IntervalMethod::Gaussian).contains(gt.tau as f64)
        })
        .count();
    assert!(
        covered * 100 >= trials * 75,
        "95% Gaussian CI covered only {covered}/{trials}"
    );
}

#[test]
fn duplicate_filters_restore_exact_counts() {
    let clean = stream();
    let gt = GroundTruth::compute(&clean);
    // Duplicate every edge 3×, shuffle.
    let dirty = stream_order(
        clean.iter().flat_map(|&e| [e, e, e]).collect::<Vec<_>>(),
        77,
    );
    // Exact dedup restores the multiset exactly (order differs; τ is
    // order-invariant).
    let filtered = dedup_exact(&dirty);
    assert_eq!(filtered.len(), clean.len());
    assert_eq!(GroundTruth::compute(&filtered).tau, gt.tau);
    // Bloom at 0.5% loses at most a sliver of edges and triangles.
    let bloomed = dedup_bloom(&dirty, 0.005, 3);
    assert!(bloomed.len() as f64 > clean.len() as f64 * 0.98);
    let bloom_tau = GroundTruth::compute(&bloomed).tau;
    assert!(
        bloom_tau as f64 > gt.tau as f64 * 0.9,
        "bloom dedup lost too many triangles: {bloom_tau} vs {}",
        gt.tau
    );
}

#[test]
fn timed_intervals_compose_with_rept() {
    // Two bursts separated by silence: interval counts reflect it.
    let burst = rept::gen::complete(12); // τ = 220 per burst
    let mut timed = with_uniform_times(&burst, 0, 1);
    timed.extend(with_uniform_times(&burst, 1_000, 1));
    let intervals: Vec<(u64, u64)> = time_intervals(&timed, 100)
        .map(|(k, edges)| {
            let gt = GroundTruth::compute(&edges_of(edges).collect::<Vec<_>>());
            (k, gt.tau)
        })
        .collect();
    assert_eq!(intervals.first(), Some(&(0, 220)));
    assert_eq!(intervals.last(), Some(&(10, 220)));
    assert!(intervals[1..10].iter().all(|&(_, tau)| tau == 0));
}

#[test]
fn tabulation_hash_rept_is_also_unbiased() {
    // Swap the partition hash for the provably-independent tabulation
    // family; the estimator math is hash-agnostic, so the estimate must
    // stay unbiased.
    let stream = rept::gen::complete(12); // τ = 220
    let m = 4u64;
    let trials = 400;
    let mean: f64 = (0..trials)
        .map(|seed| {
            let hasher = TabulationHasher::new(seed);
            let mut workers: Vec<SemiTriangleWorker> = (0..m)
                .map(|_| SemiTriangleWorker::new(false, false, EtaMode::PaperInit))
                .collect();
            for &e in &stream {
                let (u, v) = e.as_u64_pair();
                let cell = hasher.edge_cell(u, v, m) as usize;
                for (i, w) in workers.iter_mut().enumerate() {
                    let closed = w.observe(e);
                    if i == cell {
                        w.store(e, closed);
                    }
                }
            }
            m as f64 * workers.iter().map(|w| w.tau()).sum::<u64>() as f64
        })
        .sum::<f64>()
        / trials as f64;
    assert!((mean - 220.0).abs() < 220.0 * 0.1, "mean {mean}");
}

#[test]
fn doulion_tracks_exact_adapter_at_p_one() {
    let stream = stream();
    let mut d = rept::baselines::Doulion::new(1.0, 0);
    let mut e = rept::baselines::ExactAdapter::new();
    for &edge in &stream {
        d.process(edge);
        e.process(edge);
    }
    assert_eq!(d.finalize(), e.global_estimate());
}

#[test]
fn memory_accounting_is_comparable_across_methods() {
    // At equal sampling parameters, REPT's per-processor memory and one
    // MASCOT instance's memory should be within the same order — the
    // premise of the paper's "same memory" comparisons.
    let stream = stream();
    let p = 0.25;
    let mut mascot = rept::baselines::Mascot::new(p, 3);
    for &e in &stream {
        mascot.process(e);
    }
    let est = Rept::new(ReptConfig::new(4, 4).with_seed(3)).run(Engine::PerWorker, &stream);
    let rept_per_proc = est.diagnostics.total_bytes / 4;
    let ratio = rept_per_proc as f64 / mascot.memory_bytes() as f64;
    assert!(
        (0.2..5.0).contains(&ratio),
        "memory ratio {ratio} out of band: rept/proc {rept_per_proc}, mascot {}",
        mascot.memory_bytes()
    );
}
