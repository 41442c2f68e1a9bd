//! Machine-readable engine-throughput benchmark.
//!
//! Measures end-to-end edges/second of both execution engines (the
//! per-worker reference and the fused hybrid inline / sorted-vec /
//! blocked-bitmap engine) on a fixed Barabási–Albert stream at
//! `c ∈ {8, 64, 200, 256}` processors with `m = 64`, and writes the
//! results as JSON so the performance trajectory stays comparable
//! across PRs. `c = 8`
//! exercises the single-group `c ≤ m` path, `c = 64` the full-partition
//! `c = m` point where REPT's variance is lowest, `c = 200` three full
//! groups plus a `c mod m = 8` remainder group (the masked-remainder
//! sharing path), and `c = 256` four full groups (Algorithm 2).
//!
//! A `batch_split` section feeds the same stream to the fused-hybrid
//! engine at `c ∈ {64, 256}` in [`INGEST_CHUNK`]-edge
//! [`EngineCore::ingest_batch`] calls — the size of one serving-tier
//! `INGEST` line — beside the whole-stream rate, so any per-batch fixed
//! cost shows as a gap between the two.
//!
//! A third section sweeps the hybrid layout's dense-promotion degree
//! threshold on the fused engine's one structure (`HybridAdjacency`):
//! every edge of the BA stream, and of a skewed Chung–Lu stream
//! (γ = 2.1 on `5·nodes` nodes, `20·nodes` edges — servebench's
//! `chunglu-hubs` stream at the default size), replayed through
//! `match_then_insert` at several thresholds, each row with the
//! structure's `approx_bytes` after the stream and its `parts`: rows by
//! form (inline, vec, bitmap) and bytes by part (rows with their inline
//! ids, vecs, bitmaps). The `never` row (`usize::MAX`, inline rows and
//! sorted vecs only) is the no-bitmap baseline.
//!
//! Every section runs its variants through
//! [`rept_bench::reps::interleaved`]: rows carry the minimum and
//! quartiles of seconds over its interleaved rounds, and rates from the
//! median, beside the host's measured parallelism.
//!
//! Run: `cargo run --release --bin bench_throughput [-- --out FILE]`
//! (default output: `BENCH_throughput.json`). `--nodes N` scales the
//! stream.

use std::hint::black_box;
use std::time::Instant;

use rept_bench::reps::{host_parallelism, interleaved, seconds_json, REPS};
use rept_core::{Engine, EngineCore, Rept, ReptConfig};
use rept_gen::{barabasi_albert, chung_lu, GeneratorConfig};
use rept_graph::hybrid::Parts;
use rept_graph::HybridAdjacency;
use rept_metrics::Spread;
use rept_serve::client::INGEST_CHUNK;

const M: u64 = 64;
const PROCESSOR_COUNTS: [u64; 4] = [8, 64, 200, 256];
/// Processor counts of the batch-split section.
const SPLIT_COUNTS: [u64; 2] = [64, 256];
/// Dense-promotion thresholds of the sweep; `usize::MAX` never promotes.
const THRESHOLDS: [usize; 5] = [32, 64, 128, 512, usize::MAX];

fn main() {
    let mut out_path = String::from("BENCH_throughput.json");
    let mut nodes = 20_000u32;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--nodes" => {
                nodes = args
                    .next()
                    .expect("--nodes needs a value")
                    .parse()
                    .expect("--nodes must be an integer")
            }
            other => panic!("unknown flag {other} (supported: --out, --nodes)"),
        }
    }

    let gen_cfg = GeneratorConfig::new(nodes, 42);
    let stream = barabasi_albert(&gen_cfg, 5);
    let parallelism = host_parallelism();
    eprintln!(
        "stream: barabasi_albert(n = {nodes}, attach = 5) → {} edges; m = {M}; \
         {REPS} interleaved rounds; host parallelism = {parallelism:.2}",
        stream.len()
    );
    let rate = |s: &Spread| stream.len() as f64 / s.median;

    // Engine matrix: per processor count, the engines interleaved.
    let engines = Engine::all(); // [per-worker, fused-hybrid]
    let (mut results, mut speedups) = (Vec::new(), Vec::new());
    eprintln!("\n      c     per-worker   fused-hybrid      y/w   (median rates)");
    for c in PROCESSOR_COUNTS {
        let rept = Rept::new(ReptConfig::new(M, c).with_seed(7).with_locals(false));
        let spreads = interleaved(engines.len(), |k| {
            let start = Instant::now();
            black_box(rept.run(engines[k], &stream));
            start.elapsed()
        });
        for (engine, s) in engines.iter().zip(&spreads) {
            results.push(format!(
                "{{\"engine\": \"{}\", \"c\": {c}, \"seconds\": {}, \"edges_per_sec\": {:.1}}}",
                engine.name(),
                seconds_json(s),
                rate(s)
            ));
        }
        let (w, y) = (rate(&spreads[0]), rate(&spreads[1]));
        eprintln!("  {c:>5} {w:>12.3e}/s {y:>12.3e}/s {:>7.2}x", y / w);
        speedups.push(format!("\"{c}\": {:.3}", y / w));
    }

    // Batch split: the fused-hybrid engine on the whole stream (variant
    // 0) and in serving-tier-sized batches (variant 1).
    let mut split = Vec::new();
    eprintln!("\n  fused-hybrid, whole stream vs {INGEST_CHUNK}-edge ingest_batch calls:");
    for c in SPLIT_COUNTS {
        let rept = Rept::new(ReptConfig::new(M, c).with_seed(7).with_locals(false));
        let s = interleaved(2, |k| {
            let start = Instant::now();
            if k == 0 {
                black_box(rept.run(Engine::FusedHybrid, &stream));
            } else {
                let mut core = EngineCore::with_engine(rept.clone(), Engine::FusedHybrid);
                for batch in stream.chunks(INGEST_CHUNK) {
                    core.ingest_batch(batch);
                }
                black_box(core.into_estimate());
            }
            start.elapsed()
        });
        let (whole, batched) = (rate(&s[0]), rate(&s[1]));
        eprintln!(
            "  {c:>5} {whole:>12.3e}/s {batched:>12.3e}/s {:>7.2}x",
            batched / whole
        );
        split.push(format!(
            "{{\"c\": {c}, \"whole_stream_seconds\": {}, \"whole_stream_edges_per_sec\": {whole:.1}, \
             \"batch_seconds\": {}, \"batch_edges_per_sec\": {batched:.1}, \"batch_over_whole\": {:.3}}}",
            seconds_json(&s[0]),
            seconds_json(&s[1]),
            batched / whole
        ));
    }

    // Dense-promotion threshold sweep: the shared hybrid structure, every
    // edge of each stream replayed through match_then_insert.
    let skewed_nodes = 5 * nodes;
    let skewed = chung_lu(
        &GeneratorConfig::new(skewed_nodes, 42),
        20 * nodes as usize,
        2.1,
        1.0,
    );
    let mut sweep = Vec::new();
    for (generator, n, edges) in [
        ("barabasi_albert", nodes, &stream),
        ("chung_lu", skewed_nodes, &skewed),
    ] {
        let mut parts = [Parts::default(); THRESHOLDS.len()];
        let spreads = interleaved(THRESHOLDS.len(), |k| {
            let start = Instant::now();
            let mut adj = HybridAdjacency::with_threshold(THRESHOLDS[k]);
            let mut matches = 0u64;
            for &e in edges {
                adj.match_then_insert(e, true, |_| matches += 1);
            }
            let elapsed = start.elapsed();
            black_box(matches);
            parts[k] = adj.parts();
            elapsed
        });
        eprintln!("\n  hybrid dense-promotion threshold on {generator} (median):");
        let mut rows = Vec::new();
        for ((threshold, s), p) in THRESHOLDS.iter().zip(&spreads).zip(parts) {
            let label = match *threshold {
                usize::MAX => "\"never\"".to_string(),
                t => t.to_string(),
            };
            let eps = edges.len() as f64 / s.median;
            let bytes = p.bytes();
            eprintln!(
                "    {label:>7} {eps:>12.3e}/s {bytes:>12} B (rows {}, vecs {}, bitmaps {})",
                p.row_bytes, p.vec_bytes, p.bitmap_bytes
            );
            rows.push(format!(
                "{{\"threshold\": {label}, \"seconds\": {}, \"edges_per_sec\": {eps:.1}, \
                 \"approx_bytes\": {bytes}, \"parts\": {{\"inline_rows\": {}, \"vec_rows\": {}, \
                 \"bitmap_rows\": {}, \"row_bytes\": {}, \"vec_bytes\": {}, \"bitmap_bytes\": {}}}}}",
                seconds_json(s),
                p.inline_rows,
                p.vec_rows,
                p.bitmap_rows,
                p.row_bytes,
                p.vec_bytes,
                p.bitmap_bytes
            ));
        }
        sweep.push(format!(
            "      {{\"generator\": \"{generator}\", \"nodes\": {n}, \"edges\": {}, \"results\": [\n        {}\n      ]}}",
            edges.len(),
            rows.join(",\n        ")
        ));
    }

    // Hand-rolled JSON, matching the workspace's no-serde convention.
    let json = [
        "{".to_string(),
        "  \"bench\": \"engine_throughput\",".into(),
        format!(
            "  \"stream\": {{\"generator\": \"barabasi_albert\", \"nodes\": {nodes}, \"attach\": 5, \
             \"seed\": 42, \"edges\": {}}},",
            stream.len()
        ),
        format!("  \"m\": {M},"),
        "  \"track_locals\": false,".into(),
        format!("  \"reps\": {REPS},"),
        format!("  \"host_parallelism\": {parallelism:.2},"),
        format!("  \"results\": [\n    {}\n  ],", results.join(",\n    ")),
        format!(
            "  \"speedup_fused_hybrid_over_per_worker\": {{{}}},",
            speedups.join(", ")
        ),
        format!(
            "  \"batch_split\": {{\"engine\": \"fused-hybrid\", \"batch\": {INGEST_CHUNK}, \"results\": [\n    {}\n  ]}},",
            split.join(",\n    ")
        ),
        "  \"hybrid_threshold_sweep\": {".into(),
        "    \"structure\": \"HybridAdjacency\",".into(),
        format!("    \"streams\": [\n{}\n    ]", sweep.join(",\n")),
        "  }".into(),
        "}\n".into(),
    ]
    .join("\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
