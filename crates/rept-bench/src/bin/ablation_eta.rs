//! **Ablation** — the η bookkeeping subtlety of Algorithm 2.
//!
//! The paper initialises the per-edge counter `τ⁽ⁱ⁾_(u,v)` to
//! `|N⁽ⁱ⁾_{u,v}|` when an edge is stored. That makes `η̂` also count
//! triangle pairs whose shared edge is the *last* edge of the earlier
//! triangle — pairs that the definition of `η` (Table I) excludes (see
//! `rept_core::config::EtaMode`). This binary quantifies the effect:
//!
//! 1. `E[η̂]` under both modes against the exact `η`;
//! 2. the NRMSE of the final `τ̂` in the mixed case, where `η̂` enters the
//!    combination weights.
//!
//! Expected outcome: `StrictNonLast` is unbiased for η; `PaperInit` has a
//! small positive bias (~1/m relative); the effect on `τ̂`'s NRMSE is
//! negligible — which is *why* the paper's bookkeeping is fine in
//! practice.
//!
//! Run: `cargo run --release -p rept-bench --bin ablation_eta`

use rept_bench::{Args, ExperimentContext};
use rept_core::{Engine, EtaMode, Rept, ReptConfig};
use rept_gen::DatasetId;
use rept_metrics::report::{fmt_num, Table};
use rept_metrics::{ErrorStats, Welford};

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
        "mode",
        "m",
        "c",
        "mean-eta-hat",
        "true-eta",
        "eta-rel-bias",
        "tau-nrmse",
    ]);

    for (m, c) in [(4u64, 10u64), (8, 20)] {
        for (mode, label) in [
            (EtaMode::PaperInit, "paper-init"),
            (EtaMode::StrictNonLast, "strict-non-last"),
        ] {
            let mut eta_acc = Welford::new();
            let mut taus = Vec::with_capacity(trials as usize);
            for t in 0..trials {
                let cfg = ReptConfig::new(m, c)
                    .with_seed(args.seed + t)
                    .with_locals(false)
                    .with_eta(true)
                    .with_eta_mode(mode);
                let est = Rept::new(cfg).run(Engine::PerWorker, stream);
                eta_acc.push(est.eta_hat.expect("η tracking enabled"));
                taus.push(est.global);
            }
            let tau_stats = ErrorStats::from_samples(&taus, tau);
            table.push_row(vec![
                label.to_string(),
                m.to_string(),
                c.to_string(),
                fmt_num(eta_acc.mean()),
                fmt_num(eta),
                fmt_num((eta_acc.mean() - eta) / eta),
                fmt_num(tau_stats.nrmse),
            ]);
            eprintln!(
                "  m={m} c={c} {label}: E[η̂] = {} (true {}), τ̂ NRMSE = {}",
                fmt_num(eta_acc.mean()),
                fmt_num(eta),
                fmt_num(tau_stats.nrmse)
            );
        }
    }

    println!(
        "Ablation: η bookkeeping mode on {} ({} trials, τ = {}, η = {})",
        ctx.dataset.name(),
        trials,
        ctx.gt.tau,
        ctx.gt.eta
    );
    println!("{}", table.render());
    let path = args.out.join("ablation_eta.csv");
    table.write_csv(&path).expect("write CSV");
    eprintln!("wrote {}", path.display());
}
