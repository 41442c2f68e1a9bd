//! Quickstart: estimate global and local triangle counts of a stream.
//!
//! Generates a small power-law stream ([`rept::gen::barabasi_albert`]),
//! computes exact ground truth ([`rept::exact::GroundTruth`] — one pass,
//! also computes the pair count `η`), then runs REPT with `m = 10`
//! (sampling probability `p = 1/m = 0.1`) on `c = 10` simulated
//! processors — the covariance-free `c = m` sweet spot — and compares:
//! global estimate `τ̂` vs exact `τ`, the five busiest nodes' local
//! estimates `τ̂_v` vs exact `τ_v`, and the per-processor memory
//! footprint (each processor stores ~`1/m` of the stream).
//!
//! Run: `cargo run --release --example quickstart`
//!
//! The equivalent code, kept compiling as doctests, lives in the crate
//! docs ([`rept`]) and the repository `README.md`; see
//! `examples/live_serving.rs` and `examples/multi_tenant.rs` for the
//! online-serving versions of the same loop.

use rept::core::{Engine, Rept, ReptConfig};
use rept::exact::GroundTruth;
use rept::gen::{barabasi_albert, stream_order, GeneratorConfig};

fn main() {
    // 1. A synthetic stream: preferential-attachment graph, shuffled into
    //    a random arrival order.
    let cfg = GeneratorConfig::new(3_000, 7);
    let stream = stream_order(barabasi_albert(&cfg, 6), 99);
    println!("stream: {} edges", stream.len());

    // 2. Exact ground truth (one pass; also computes η).
    let gt = GroundTruth::compute(&stream);
    println!(
        "exact:  τ = {}, η = {} (η/τ = {:.1})",
        gt.tau,
        gt.eta,
        gt.eta_tau_ratio().unwrap_or(f64::NAN)
    );

    // 3. REPT: p = 1/10, c = 10 processors (the covariance-free c = m
    //    sweet spot), sequential driver.
    let rept = Rept::new(ReptConfig::new(10, 10).with_seed(42));
    let est = rept.run(Engine::PerWorker, &stream);
    let rel = (est.global - gt.tau as f64).abs() / gt.tau as f64;
    println!(
        "REPT:   τ̂ = {:.0} (relative error {:.2}%)",
        est.global,
        rel * 100.0
    );

    // 4. Local counts for the five busiest nodes.
    let mut top: Vec<_> = gt.tau_v.iter().map(|(&v, &t)| (t, v)).collect();
    top.sort_unstable_by(|a, b| b.cmp(a));
    println!("\nnode   τ_v(exact)   τ̂_v(REPT)");
    for &(tau_v, v) in top.iter().take(5) {
        println!("{v:>4}   {tau_v:>10}   {:>10.1}", est.local(v));
    }

    // 5. Storage: each processor held ~1/m of the edges.
    let max_stored = est.diagnostics.max_stored_edges();
    println!(
        "\nmemory: max edges stored by one processor = {} ({:.1}% of stream)",
        max_stored,
        100.0 * max_stored as f64 / stream.len() as f64
    );
}
