//! Head-to-head: REPT vs parallel MASCOT / TRIÈST / GPS on one dataset.
//!
//! A miniature of the paper's Figures 3/4: same memory per processor,
//! same number of processors, NRMSE over repeated trials — plus the
//! closed-form theory columns from §III. REPT should win, and the margin
//! should be biggest exactly when `η/τ` is large.
//!
//! Run: `cargo run --release --example method_comparison`

use rept::baselines::parallel::ParallelAveraged;
use rept::baselines::traits::StreamingTriangleCounter;
use rept::baselines::{Gps, Mascot, TriestImpr};
use rept::core::variance::{nrmse_of_unbiased, parallel_mascot_variance, rept_variance};
use rept::core::{Engine, Rept, ReptConfig};
use rept::exact::GroundTruth;
use rept::gen::DatasetId;
use rept::hash::SplitMix64;

const TRIALS: u64 = 25;
const M: u64 = 10; // p = 0.1
const C: u64 = 10;

fn nrmse(estimates: &[f64], truth: f64) -> f64 {
    let mse = estimates
        .iter()
        .map(|e| (e - truth) * (e - truth))
        .sum::<f64>()
        / estimates.len() as f64;
    mse.sqrt() / truth
}

fn main() {
    let dataset = DatasetId::FlickrSim.dataset_scaled(0.2);
    let gt = GroundTruth::compute(&dataset.stream);
    let stream = &dataset.stream;
    println!(
        "dataset {}: {} edges, τ = {}, η = {} (η/τ = {:.0})",
        dataset.name(),
        stream.len(),
        gt.tau,
        gt.eta,
        gt.eta_tau_ratio().unwrap_or(f64::NAN)
    );
    let tau = gt.tau as f64;
    let p = 1.0 / M as f64;
    let budget = ((stream.len() as f64) * p).round() as usize;

    // REPT.
    let rept_est: Vec<f64> = (0..TRIALS)
        .map(|t| {
            let cfg = ReptConfig::new(M, C).with_seed(t).with_locals(false);
            Rept::new(cfg).run(Engine::PerWorker, stream).global
        })
        .collect();

    // Parallel baselines: c independent instances, averaged.
    let run_parallel = |factory: &dyn Fn(u64) -> Box<dyn StreamingTriangleCounter>| -> Vec<f64> {
        (0..TRIALS)
            .map(|t| {
                let root = SplitMix64::new(t);
                let mut instances: Vec<Box<dyn StreamingTriangleCounter>> =
                    (0..C).map(|i| factory(root.fork(i).next_u64())).collect();
                for &e in stream {
                    for inst in &mut instances {
                        inst.process(e);
                    }
                }
                instances.iter().map(|i| i.global_estimate()).sum::<f64>() / C as f64
            })
            .collect()
    };
    let mascot = run_parallel(&|s| Box::new(Mascot::new(p, s).without_locals()));
    let triest = run_parallel(&|s| Box::new(TriestImpr::new(budget, s).without_locals()));
    let gps = run_parallel(&|s| Box::new(Gps::new(budget / 2, s).without_locals()));

    let theory_mascot =
        nrmse_of_unbiased(parallel_mascot_variance(tau, gt.eta as f64, M, C), tau).unwrap();
    let theory_rept = nrmse_of_unbiased(rept_variance(tau, gt.eta as f64, M, C), tau).unwrap();

    println!("\nmethod    measured-NRMSE   theory-NRMSE");
    println!(
        "MASCOT    {:>14.4}   {theory_mascot:>12.4}",
        nrmse(&mascot, tau)
    );
    println!(
        "TRIEST    {:>14.4}   {theory_mascot:>12.4}",
        nrmse(&triest, tau)
    );
    println!("GPS       {:>14.4}   {:>12}", nrmse(&gps, tau), "n/a");
    println!(
        "REPT      {:>14.4}   {theory_rept:>12.4}",
        nrmse(&rept_est, tau)
    );
    println!(
        "\nREPT improvement over parallel MASCOT: {:.1}× (theory predicts {:.1}×)",
        nrmse(&mascot, tau) / nrmse(&rept_est, tau),
        theory_mascot / theory_rept
    );

    // Demonstrate the trait-object-free path too: ParallelAveraged is the
    // library type the experiment harness uses.
    let mut averaged = ParallelAveraged::new(C as usize, |i| Mascot::new(p, i as u64 + 1));
    for &e in stream {
        averaged.process(e);
    }
    println!(
        "(one ParallelAveraged<Mascot> run for reference: τ̂ = {:.0})",
        averaged.global_estimate()
    );
}
