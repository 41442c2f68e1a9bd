//! Handling streams with duplicate edges.
//!
//! The REPT/MASCOT/TRIÈST analysis assumes each edge appears once; real
//! packet streams repeat edges relentlessly. This example shows (1) the
//! estimate blowing up on a dirty stream, (2) exact dedup fixing it at
//! `O(distinct)` memory, and (3) Bloom dedup fixing it at fixed memory
//! with a small, predictable downward bias — the PartitionCT problem
//! setting ([43] in the paper), solved here with the library's filter
//! substrate.
//!
//! Run: `cargo run --release --example dirty_stream`

use rept::core::{Engine, Rept, ReptConfig};
use rept::exact::GroundTruth;
use rept::gen::{barabasi_albert, stream_order, GeneratorConfig};
use rept::graph::duplicates::{BloomDedup, ExactDedup};
use rept::graph::edge::Edge;
use rept::hash::SplitMix64;

fn main() {
    // Clean stream + ground truth.
    let cfg = GeneratorConfig::new(2_500, 4);
    let clean = stream_order(barabasi_albert(&cfg, 5), 8);
    let gt = GroundTruth::compute(&clean);
    println!("clean stream: {} edges, τ = {}", clean.len(), gt.tau);

    // Dirty stream: every edge re-appears 1–4 times, shuffled.
    let mut rng = SplitMix64::new(99);
    let mut dirty: Vec<Edge> = Vec::new();
    for &e in &clean {
        for _ in 0..(1 + rng.next_below(4)) {
            dirty.push(e);
        }
    }
    let dirty = stream_order(dirty, 123);
    println!(
        "dirty stream: {} arrivals ({:.1}× duplication)",
        dirty.len(),
        dirty.len() as f64 / clean.len() as f64
    );

    let run = |stream: &[Edge], seed: u64| {
        Rept::new(ReptConfig::new(6, 6).with_seed(seed).with_locals(false))
            .run(Engine::PerWorker, stream)
            .global
    };

    // 1. Naive: duplicates corrupt the estimate.
    let naive = run(&dirty, 1);

    // 2. Exact dedup front.
    let mut exact_filter = ExactDedup::new();
    let exact_clean: Vec<Edge> = dirty
        .iter()
        .copied()
        .filter(|&e| exact_filter.admit(e))
        .collect();
    let with_exact = run(&exact_clean, 1);

    // 3. Bloom dedup front (1% false positives, fixed memory).
    let mut bloom_filter = BloomDedup::new(clean.len() as u64, 0.01, 7);
    let bloom_clean: Vec<Edge> = dirty
        .iter()
        .copied()
        .filter(|&e| bloom_filter.admit(e))
        .collect();
    let with_bloom = run(&bloom_clean, 1);

    let rel = |x: f64| (x - gt.tau as f64) / gt.tau as f64 * 100.0;
    println!("\nestimates (τ = {}):", gt.tau);
    println!(
        "  naive on dirty stream : {naive:>10.0}  ({:+.1}%)",
        rel(naive)
    );
    println!(
        "  exact dedup           : {with_exact:>10.0}  ({:+.1}%)  [{} dupes dropped]",
        rel(with_exact),
        exact_filter.duplicates()
    );
    println!(
        "  bloom dedup (1% fp)   : {with_bloom:>10.0}  ({:+.1}%)  [{} KiB filter]",
        rel(with_bloom),
        bloom_filter.bytes() / 1024
    );

    assert!(
        naive > gt.tau as f64 * 1.5,
        "duplicates should inflate the naive estimate substantially"
    );
    assert!(rel(with_exact).abs() < 40.0);
    assert!(rel(with_bloom).abs() < 40.0);
    println!("\nduplicate handling restores sane estimates; Bloom trades ~3·fp downward bias for fixed memory.");
}
