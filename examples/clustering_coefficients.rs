//! Streaming estimation of the global clustering coefficient.
//!
//! Clustering `C = 3τ / #wedges` is the classic consumer of triangle
//! counts (the paper's intro cites topic mining and community detection).
//! Wedge counts only need degrees — one cheap exact pass — while `τ`
//! comes from REPT, so the coefficient of a huge stream can be estimated
//! with sampling error on the numerator only.
//!
//! Run: `cargo run --release --example clustering_coefficients`

use rept::core::planning::{confidence_interval, IntervalMethod};
use rept::core::{Engine, Rept, ReptConfig};
use rept::exact::clustering::global_clustering;
use rept::gen::{watts_strogatz, GeneratorConfig};
use rept::graph::csr::CsrGraph;
use rept::graph::stats::GraphStats;

fn main() {
    // A small-world graph — high clustering by construction.
    let cfg = GeneratorConfig::new(4_000, 3);
    let stream = rept::gen::stream_order(watts_strogatz(&cfg, 10, 0.05), 17);
    println!("stream: {} edges", stream.len());

    // Pass 1 (exact, cheap): degree statistics → wedge count.
    let csr = CsrGraph::from_edges(&stream);
    let stats = GraphStats::of(&csr);
    println!("wedges: {}", stats.wedges);

    // Pass 2 (sampled): τ̂ from REPT, with a confidence interval.
    let rept = Rept::new(
        ReptConfig::new(8, 8)
            .with_seed(5)
            .with_locals(false)
            .with_eta(true),
    );
    let est = rept.run(Engine::PerWorker, &stream);
    let ci = confidence_interval(&est, 0.95, IntervalMethod::Gaussian);

    let c_hat = 3.0 * est.global / stats.wedges as f64;
    let c_low = 3.0 * ci.lower / stats.wedges as f64;
    let c_high = 3.0 * ci.upper / stats.wedges as f64;

    // Reference: fully exact coefficient.
    let c_exact = global_clustering(&csr).expect("wedges exist");

    println!("\nglobal clustering coefficient:");
    println!("  exact      C  = {c_exact:.4}");
    println!("  estimated  Ĉ  = {c_hat:.4}   (95% CI [{c_low:.4}, {c_high:.4}])");
    let rel = (c_hat - c_exact).abs() / c_exact;
    println!("  relative error {:.2}%", rel * 100.0);
    assert!(
        c_exact > 0.4,
        "Watts–Strogatz at β = 0.05 should be strongly clustered"
    );
    assert!(rel < 0.2, "estimate should land near the exact coefficient");
}
