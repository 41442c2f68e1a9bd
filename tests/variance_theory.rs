//! Empirical validation of the paper's variance theory (Theorem 3,
//! §III-B, §III-C) — the quantitative heart of the reproduction.

use rept::baselines::traits::StreamingTriangleCounter;
use rept::baselines::{Mascot, ParallelAveraged};
use rept::core::variance::{parallel_mascot_variance, rept_variance};
use rept::core::{Engine, Rept, ReptConfig};
use rept::exact::GroundTruth;
use rept::gen::{planted_cliques, stream_order, GeneratorConfig};
use rept::graph::Edge;
use rept::hash::SplitMix64;
use rept::metrics::Welford;

/// Fixture with a large η/τ ratio (covariance-dominated regime).
fn pair_rich_stream() -> (Vec<Edge>, GroundTruth) {
    let cfg = GeneratorConfig::new(300, 21);
    let stream = stream_order(planted_cliques(&cfg, 3, 16, 400), 5);
    let gt = GroundTruth::compute(&stream);
    assert!(
        gt.eta as f64 > 3.0 * gt.tau as f64,
        "fixture must be covariance-dominated: τ = {}, η = {}",
        gt.tau,
        gt.eta
    );
    (stream, gt)
}

fn empirical_variance(trials: u64, mut run: impl FnMut(u64) -> f64) -> (f64, f64) {
    let mut acc = Welford::new();
    for t in 0..trials {
        acc.push(run(t));
    }
    (acc.mean(), acc.variance().unwrap())
}

#[test]
fn theorem3_variance_c_less_than_m() {
    let (stream, gt) = pair_rich_stream();
    let (m, c) = (4u64, 2u64);
    let (mean, var) = empirical_variance(900, |s| {
        Rept::new(ReptConfig::new(m, c).with_seed(s).with_locals(false))
            .run(Engine::PerWorker, &stream)
            .global
    });
    let theory = rept_variance(gt.tau as f64, gt.eta as f64, m, c);
    assert!((mean - gt.tau as f64).abs() < gt.tau as f64 * 0.05);
    assert!(
        (var - theory).abs() < theory * 0.2,
        "empirical {var} vs theory {theory}"
    );
}

#[test]
fn theorem3_variance_c_equals_m_eliminates_covariance() {
    // The headline special case: Var = τ(m−1) — *independent of η*.
    let (stream, gt) = pair_rich_stream();
    let m = 4u64;
    let (mean, var) = empirical_variance(900, |s| {
        Rept::new(ReptConfig::new(m, m).with_seed(s).with_locals(false))
            .run(Engine::PerWorker, &stream)
            .global
    });
    let theory = gt.tau as f64 * (m as f64 - 1.0);
    let with_cov = parallel_mascot_variance(gt.tau as f64, gt.eta as f64, m, m);
    assert!((mean - gt.tau as f64).abs() < gt.tau as f64 * 0.05);
    assert!(
        (var - theory).abs() < theory * 0.2,
        "empirical {var} vs τ(m−1) = {theory}"
    );
    // And the η term really is gone: parallel MASCOT's variance at the
    // same (m, c) is far larger.
    assert!(
        with_cov > 3.0 * theory,
        "fixture not covariance-dominated enough: {with_cov} vs {theory}"
    );
    assert!(var < with_cov / 2.0);
}

#[test]
fn full_groups_variance_scales_as_one_over_c1() {
    let (stream, gt) = pair_rich_stream();
    let m = 3u64;
    let (_, var1) = empirical_variance(700, |s| {
        Rept::new(ReptConfig::new(m, m).with_seed(s).with_locals(false))
            .run(Engine::PerWorker, &stream)
            .global
    });
    let (_, var3) = empirical_variance(700, |s| {
        Rept::new(
            ReptConfig::new(m, 3 * m)
                .with_seed(s + 10_000)
                .with_locals(false),
        )
        .run(Engine::PerWorker, &stream)
        .global
    });
    let ratio = var1 / var3;
    assert!(
        (ratio - 3.0).abs() < 1.0,
        "c = 3m should cut variance ≈ 3×, got {ratio:.2}×"
    );
    let theory = rept_variance(gt.tau as f64, gt.eta as f64, m, 3 * m);
    assert!((var3 - theory).abs() < theory * 0.25);
}

#[test]
fn mixed_case_beats_its_components() {
    // c = c₁m + c₂ with the Graybill–Deal combination should produce
    // variance below the remainder group alone and near the theoretical
    // optimum (plug-in weights cost a little).
    let (stream, gt) = pair_rich_stream();
    let (m, c) = (4u64, 10u64); // c₁ = 2, c₂ = 2
    let (mean, var) = empirical_variance(900, |s| {
        Rept::new(ReptConfig::new(m, c).with_seed(s).with_locals(false))
            .run(Engine::PerWorker, &stream)
            .global
    });
    let theory_optimal = rept_variance(gt.tau as f64, gt.eta as f64, m, c);
    // Remainder group alone = REPT(m, c₂ = 2).
    let remainder_alone = rept_variance(gt.tau as f64, gt.eta as f64, m, 2);
    assert!((mean - gt.tau as f64).abs() < gt.tau as f64 * 0.1);
    assert!(var < remainder_alone / 2.0);
    assert!(
        var < theory_optimal * 2.0 && var > theory_optimal * 0.5,
        "empirical {var} should be near optimal {theory_optimal}"
    );
}

#[test]
fn parallel_mascot_variance_matches_section_iii_c() {
    let (stream, gt) = pair_rich_stream();
    let (m, c) = (4u64, 4u64);
    let p = 1.0 / m as f64;
    let (mean, var) = empirical_variance(700, |t| {
        let root = SplitMix64::new(t);
        let mut par = ParallelAveraged::new(c as usize, |i| {
            Mascot::new(p, root.fork(i as u64).next_u64()).without_locals()
        });
        par.process_stream(stream.iter().copied());
        par.global_estimate()
    });
    let theory = parallel_mascot_variance(gt.tau as f64, gt.eta as f64, m, c);
    assert!((mean - gt.tau as f64).abs() < gt.tau as f64 * 0.05);
    assert!(
        (var - theory).abs() < theory * 0.2,
        "empirical {var} vs theory {theory}"
    );
}

#[test]
fn rept_empirically_beats_parallel_mascot() {
    // The paper's headline comparison, measured rather than asserted from
    // formulas: same m, same c, same stream.
    let (stream, gt) = pair_rich_stream();
    let (m, c) = (4u64, 4u64);
    let trials = 500;
    let (_, rept_var) = empirical_variance(trials, |s| {
        Rept::new(ReptConfig::new(m, c).with_seed(s).with_locals(false))
            .run(Engine::PerWorker, &stream)
            .global
    });
    let (_, mascot_var) = empirical_variance(trials, |t| {
        let root = SplitMix64::new(t ^ 0xABCD);
        let mut par = ParallelAveraged::new(c as usize, |i| {
            Mascot::new(1.0 / m as f64, root.fork(i as u64).next_u64()).without_locals()
        });
        par.process_stream(stream.iter().copied());
        par.global_estimate()
    });
    let gain = mascot_var / rept_var;
    let theory_gain = parallel_mascot_variance(gt.tau as f64, gt.eta as f64, m, c)
        / rept_variance(gt.tau as f64, gt.eta as f64, m, c);
    assert!(
        gain > theory_gain * 0.5 && gain > 2.0,
        "measured gain {gain:.2}× vs theory {theory_gain:.2}×"
    );
}

#[test]
fn local_estimates_are_unbiased_too() {
    // Theorem 3 also covers τ̂_v; check the node with the largest τ_v.
    let (stream, gt) = pair_rich_stream();
    let (&star_node, &star_tau) = gt
        .tau_v
        .iter()
        .max_by_key(|(_, &t)| t)
        .expect("triangles exist");
    let trials = 600;
    let mut acc = Welford::new();
    for s in 0..trials {
        let est = Rept::new(ReptConfig::new(4, 4).with_seed(s)).run(Engine::PerWorker, &stream);
        acc.push(est.local(star_node));
    }
    let mean = acc.mean();
    assert!(
        (mean - star_tau as f64).abs() < star_tau as f64 * 0.1,
        "E[τ̂_v] = {mean} vs τ_v = {star_tau}"
    );
    // Var(τ̂_v) = τ_v(m−1) at c = m (η_v term eliminated).
    let var = acc.variance().unwrap();
    let theory = star_tau as f64 * 3.0;
    assert!(
        (var - theory).abs() < theory * 0.35,
        "Var(τ̂_v) = {var} vs τ_v(m−1) = {theory}"
    );
}
