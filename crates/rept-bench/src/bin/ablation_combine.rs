//! **Ablation** — the Graybill–Deal combination vs a naive pooled
//! estimator in the mixed case `c = c₁m + c₂, c₂ ≠ 0`.
//!
//! §III-B's design choice: combine the full-group estimate `τ̂⁽¹⁾` and the
//! remainder-group estimate `τ̂⁽²⁾` with inverse-variance weights instead
//! of simply pooling all processors (`m²/c Σ τ⁽ⁱ⁾`). The pooled estimator
//! is also unbiased but overweights the noisy remainder group. This
//! binary measures both from the *same* trials (the pooled value is
//! recoverable from the per-processor diagnostics), so the comparison is
//! noise-free.
//!
//! Run: `cargo run --release -p rept-bench --bin ablation_combine`

use rept_bench::{Args, ExperimentContext};
use rept_core::{Engine, Rept, ReptConfig};
use rept_gen::DatasetId;
use rept_metrics::report::{fmt_num, Table};
use rept_metrics::ErrorStats;

fn main() {
    let args = Args::from_env();
    let trials = args.trials_or(200);
    let ctx = ExperimentContext::load(
        args.datasets_or(&[DatasetId::FlickrSim])[0],
        args.scale_or(0.1),
    );
    let stream = &ctx.dataset.stream;
    let tau = ctx.gt.tau as f64;

    let mut table = Table::new(vec![
        "m",
        "c",
        "c1",
        "c2",
        "nrmse-graybill-deal",
        "nrmse-pooled",
        "improvement",
    ]);

    for (m, c) in [(4u64, 6u64), (4, 10), (8, 12), (8, 20), (10, 25)] {
        let cfg_probe = ReptConfig::new(m, c);
        assert!(cfg_probe.c2() != 0, "grid must hit the mixed case");
        let mut gd = Vec::with_capacity(trials as usize);
        let mut pooled = Vec::with_capacity(trials as usize);
        for t in 0..trials {
            let cfg = ReptConfig::new(m, c)
                .with_seed(args.seed + t)
                .with_locals(false);
            let est = Rept::new(cfg).run(Engine::PerWorker, stream);
            gd.push(est.global);
            // Pooled from the same run's raw counters.
            let sum: u64 = est.diagnostics.per_processor_tau.iter().sum();
            pooled.push((m * m) as f64 / c as f64 * sum as f64);
        }
        let gd_stats = ErrorStats::from_samples(&gd, tau);
        let pooled_stats = ErrorStats::from_samples(&pooled, tau);
        table.push_row(vec![
            m.to_string(),
            c.to_string(),
            cfg_probe.c1().to_string(),
            cfg_probe.c2().to_string(),
            fmt_num(gd_stats.nrmse),
            fmt_num(pooled_stats.nrmse),
            fmt_num(pooled_stats.nrmse / gd_stats.nrmse),
        ]);
        eprintln!(
            "  m={m} c={c}: GD {} vs pooled {}",
            fmt_num(gd_stats.nrmse),
            fmt_num(pooled_stats.nrmse)
        );
    }

    println!(
        "Ablation: Graybill–Deal vs pooled estimator on {} ({} trials); improvement > 1 favors GD",
        ctx.dataset.name(),
        trials
    );
    println!("{}", table.render());
    let path = args.out.join("ablation_combine.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
