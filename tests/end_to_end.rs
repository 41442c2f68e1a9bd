//! Cross-crate integration: generator → exact → estimators → metrics.

use rept::baselines::traits::StreamingTriangleCounter;
use rept::baselines::{Mascot, ParallelAveraged, TriestImpr};
use rept::core::{Engine, Rept, ReptConfig};
use rept::exact::GroundTruth;
use rept::gen::{DatasetId, GeneratorConfig};
use rept::metrics::montecarlo::{run_trials, TrialOutput};

/// A small but non-trivial stream shared by several tests.
fn test_stream() -> Vec<rept::graph::Edge> {
    let cfg = GeneratorConfig::new(400, 13);
    rept::gen::stream_order(rept::gen::planted_cliques(&cfg, 4, 12, 600), 3)
}

#[test]
fn full_pipeline_produces_consistent_estimates() {
    let stream = test_stream();
    let gt = GroundTruth::compute(&stream);
    assert!(gt.tau > 500, "fixture should have plenty of triangles");

    let result = run_trials(30, 0, &gt, |seed| {
        let cfg = ReptConfig::new(5, 5).with_seed(seed);
        let est = Rept::new(cfg).run(Engine::PerWorker, &stream);
        TrialOutput {
            global: est.global,
            locals: est.locals,
        }
    });
    // Unbiased estimator, 30 trials: the mean should be within a few
    // standard errors of τ.
    assert!(
        result.global.relative_bias() < 0.1,
        "relative bias {} too large",
        result.global.relative_bias()
    );
    assert!(result.global.nrmse < 0.5);
    let local = result.local_nrmse.expect("locals tracked");
    assert!(local.is_finite() && local > 0.0);
}

#[test]
fn all_drivers_agree_bit_for_bit() {
    let stream = test_stream();
    for (m, c) in [(4u64, 3u64), (4, 4), (3, 9), (3, 11)] {
        let rept = Rept::new(ReptConfig::new(m, c).with_seed(77));
        let seq = rept.run(Engine::PerWorker, &stream);
        let thr = rept.run_threaded(Engine::PerWorker, &stream, 4);
        assert_eq!(seq.global, thr.global, "threaded (m={m}, c={c})");
        assert_eq!(seq.locals, thr.locals);
    }
}

#[test]
fn registry_dataset_roundtrip_through_io() {
    // Dataset → binary file → back → same ground truth.
    let dataset = DatasetId::YoutubeSim.dataset_scaled(0.05);
    let dir = std::env::temp_dir().join("rept-e2e-io");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("youtube.bin");
    rept::graph::io::write_binary_file(&path, &dataset.stream).unwrap();
    let restored = rept::graph::io::read_binary_file(&path).unwrap();
    assert_eq!(restored, dataset.stream);
    let a = GroundTruth::compute(&dataset.stream);
    let b = GroundTruth::compute(&restored);
    assert_eq!(a.tau, b.tau);
    assert_eq!(a.eta, b.eta);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rept_and_baselines_are_all_roughly_unbiased_on_a_registry_stream() {
    let dataset = DatasetId::WebGoogleSim.dataset_scaled(0.08);
    let gt = GroundTruth::compute(&dataset.stream);
    let tau = gt.tau as f64;
    assert!(gt.tau > 100);
    let trials = 60u64;

    let mean_of = |f: &mut dyn FnMut(u64) -> f64| -> f64 {
        (0..trials).map(&mut *f).sum::<f64>() / trials as f64
    };

    let rept_mean = mean_of(&mut |s| {
        Rept::new(ReptConfig::new(4, 4).with_seed(s).with_locals(false))
            .run(Engine::PerWorker, &dataset.stream)
            .global
    });
    let mascot_mean = mean_of(&mut |s| {
        let mut p =
            ParallelAveraged::new(4, |i| Mascot::new(0.25, s * 31 + i as u64).without_locals());
        p.process_stream(dataset.stream.iter().copied());
        p.global_estimate()
    });
    let budget = dataset.stream.len() / 4;
    let triest_mean = mean_of(&mut |s| {
        let mut p = ParallelAveraged::new(4, |i| {
            TriestImpr::new(budget, s * 31 + i as u64).without_locals()
        });
        p.process_stream(dataset.stream.iter().copied());
        p.global_estimate()
    });

    for (name, mean) in [
        ("REPT", rept_mean),
        ("MASCOT", mascot_mean),
        ("TRIEST", triest_mean),
    ] {
        assert!(
            (mean - tau).abs() < tau * 0.15,
            "{name} mean {mean} vs τ {tau}"
        );
    }
}

#[test]
fn eta_hat_estimates_eta_on_real_streams() {
    // η̂ = m³/c Σ η⁽ⁱ⁾ should land near the exact η in StrictNonLast
    // mode (unbiased) — end-to-end across gen, exact and core.
    let stream = test_stream();
    let gt = GroundTruth::compute(&stream);
    assert!(gt.eta > 1000, "need a pair-rich stream, got η = {}", gt.eta);
    let trials = 80u64;
    let mean: f64 = (0..trials)
        .map(|s| {
            let cfg = ReptConfig::new(3, 3)
                .with_seed(s)
                .with_locals(false)
                .with_eta(true)
                .with_eta_mode(rept::core::EtaMode::StrictNonLast);
            Rept::new(cfg)
                .run(Engine::PerWorker, &stream)
                .eta_hat
                .expect("eta tracked")
        })
        .sum::<f64>()
        / trials as f64;
    let eta = gt.eta as f64;
    assert!(
        (mean - eta).abs() < eta * 0.25,
        "E[η̂] = {mean} too far from η = {eta}"
    );
}

#[test]
fn windowed_streams_compose_with_estimators() {
    // The anomaly-detection pattern: per-window estimates vs per-window
    // exact counts.
    let stream = test_stream();
    for (i, window) in rept::graph::stream::windows(&stream, 400).enumerate() {
        let gt = GroundTruth::compute(window);
        let est = Rept::new(ReptConfig::new(3, 3).with_seed(i as u64).with_locals(false))
            .run(Engine::PerWorker, window);
        if gt.tau > 200 {
            let rel = (est.global - gt.tau as f64).abs() / gt.tau as f64;
            assert!(
                rel < 1.0,
                "window {i}: estimate {} vs {}",
                est.global,
                gt.tau
            );
        }
    }
}

/// Skewed streams that take hubs well past the hybrid layout's
/// promotion threshold: per-worker and fused-hybrid agree bit for bit on
/// every combination path, through both drivers, and through a
/// checkpoint cut taken after promotion. At 6 000 edges (max degree
/// 557) hubs meet sparse nodes; at 20 000 edges several hubs share
/// neighbors, so bitmap∧bitmap intersections run too.
#[test]
fn hub_promotion_matches_the_oracle() {
    use rept::core::resume::ResumableRun;
    use rept::core::ReptEstimate;
    use rept::graph::hybrid_tagged::DEFAULT_DENSE_THRESHOLD;

    let same = |a: &ReptEstimate, b: &ReptEstimate, what: &str| {
        assert_eq!(a.global, b.global, "{what}: global");
        assert_eq!(a.locals, b.locals, "{what}: locals");
        assert_eq!(a.eta_hat, b.eta_hat, "{what}: eta");
        assert_eq!(
            a.diagnostics.per_processor_tau, b.diagnostics.per_processor_tau,
            "{what}: per-processor tau"
        );
        assert_eq!(
            a.diagnostics.stored_edges, b.diagnostics.stored_edges,
            "{what}: stored edges"
        );
    };
    for edges in [6000, 20_000] {
        let stream = rept::gen::chung_lu(&GeneratorConfig::new(2000, 5), edges, 2.1, 0.0);
        let cut = stream.len() * 3 / 4;
        let mut degree = std::collections::HashMap::new();
        for e in &stream[..cut] {
            *degree.entry(e.u()).or_insert(0usize) += 1;
            *degree.entry(e.v()).or_insert(0usize) += 1;
        }
        let hub = degree.values().copied().max().unwrap_or(0);
        // Even a group storing 3 of 4 cells holds > threshold hub edges
        // before the cut.
        assert!(hub >= 2 * DEFAULT_DENSE_THRESHOLD, "hub degree {hub}");

        // c ≤ m, c₂ = 0 and Graybill–Deal layouts.
        for (m, c) in [(4u64, 3u64), (4, 8), (4, 10)] {
            let rept = Rept::new(ReptConfig::new(m, c).with_seed(19).with_eta(true));
            let oracle = rept.run(Engine::PerWorker, &stream);
            let what = format!("{edges} edges m={m} c={c}");
            same(&oracle, &rept.run(Engine::FusedHybrid, &stream), &what);
            for engine in Engine::all() {
                let threaded = rept.run_threaded(engine, &stream, 2);
                same(
                    &oracle,
                    &threaded,
                    &format!("threaded {} {what}", engine.name()),
                );
            }
            let mut run = ResumableRun::with_engine(rept.clone(), Engine::FusedHybrid);
            run.process_batch(&stream[..cut]);
            let mut resumed = ResumableRun::from_checkpoint_bytes(&run.checkpoint_bytes())
                .expect("checkpoint restores");
            resumed.process_batch(&stream[cut..]);
            same(&oracle, &resumed.finalize(), &format!("resumed {what}"));
        }
    }
}
