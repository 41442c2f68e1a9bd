//! **Theory check** — empirical variance vs the closed forms of §III.
//!
//! For each `(m, c)` regime (Theorem 3's `c ≤ m`, the `c = c₁m` case, and
//! the mixed case) this binary runs many REPT trials on a stream with
//! known `τ` and `η` and compares the empirical variance of `τ̂` with
//! `rept_variance`; the same is done
//! for parallel MASCOT against `(τ(m²−1)+2η(m−1))/c`. The `ratio` column
//! should hover around 1 (the mixed REPT case uses *plug-in* weights, so
//! mild deviation from the optimal-combination variance is expected and
//! noted in EXPERIMENTS.md).
//!
//! Run: `cargo run --release -p rept-bench --bin variance_check [--trials N]`

use rept_bench::{Args, ExperimentContext};
use rept_core::variance::{parallel_mascot_variance, rept_variance};
use rept_core::{Engine, Rept, ReptConfig};
use rept_gen::DatasetId;
use rept_metrics::report::{fmt_num, Table};
use rept_metrics::Welford;

fn main() {
    let args = Args::from_env();
    let trials = args.trials_or(300);
    let ctx = ExperimentContext::load(
        args.datasets_or(&[DatasetId::FlickrSim])[0],
        args.scale_or(0.1),
    );
    let stream = &ctx.dataset.stream;
    let (tau, eta) = (ctx.gt.tau as f64, ctx.gt.eta as f64);

    let mut table = Table::new(vec![
        "method",
        "m",
        "c",
        "case",
        "empirical-var",
        "theory-var",
        "ratio",
        "mean",
        "tau",
    ]);

    // The three REPT regimes plus MASCOT, at modest m so that trials are
    // informative (large m ⇒ huge variance ⇒ slow Monte-Carlo
    // convergence for the ratio).
    let grid: [(u64, u64, &str); 5] = [
        (8, 4, "c<m"),
        (8, 8, "c=m"),
        (4, 12, "c=3m"),
        (4, 10, "mixed c=2m+2"),
        (8, 4, "parallel-mascot"),
    ];

    for (m, c, case) in grid {
        let mut acc = Welford::new();
        if case == "parallel-mascot" {
            use rept_baselines::traits::StreamingTriangleCounter;
            for t in 0..trials {
                let root = rept_hash::SplitMix64::new(args.seed + t);
                let mut par = rept_baselines::ParallelAveraged::new(c as usize, |i| {
                    rept_baselines::Mascot::new(1.0 / m as f64, root.fork(i as u64).next_u64())
                        .without_locals()
                });
                for &e in stream {
                    par.process(e);
                }
                acc.push(par.global_estimate());
            }
        } else {
            for t in 0..trials {
                let cfg = ReptConfig::new(m, c)
                    .with_seed(args.seed + t)
                    .with_locals(false);
                acc.push(Rept::new(cfg).run(Engine::PerWorker, stream).global);
            }
        }
        let empirical = acc.variance().unwrap_or(0.0);
        let theory = if case == "parallel-mascot" {
            parallel_mascot_variance(tau, eta, m, c)
        } else {
            rept_variance(tau, eta, m, c)
        };
        table.push_row(vec![
            if case == "parallel-mascot" {
                "MASCOT"
            } else {
                "REPT"
            }
            .to_string(),
            m.to_string(),
            c.to_string(),
            case.to_string(),
            fmt_num(empirical),
            fmt_num(theory),
            fmt_num(empirical / theory),
            fmt_num(acc.mean()),
            fmt_num(tau),
        ]);
        eprintln!(
            "  {case}: empirical/theory = {}",
            fmt_num(empirical / theory)
        );
    }

    println!(
        "Variance check — {} trials on {} (τ = {}, η = {})",
        trials,
        ctx.dataset.name(),
        ctx.gt.tau,
        ctx.gt.eta
    );
    println!("{}", table.render());
    let path = args.out.join("variance_check.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
