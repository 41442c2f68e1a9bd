//! Machine-readable engine-throughput benchmark.
//!
//! Measures end-to-end edges/second of both execution engines (the
//! per-worker reference and the fused hybrid sorted-vec/blocked-bitmap
//! engine) on a fixed Barabási–Albert stream at `c ∈ {8, 64, 200, 256}`
//! processors with `m = 64`, and writes the results as JSON so the
//! performance trajectory stays comparable across PRs. `c = 8`
//! exercises the single-group `c ≤ m` path, `c = 64` the full-partition
//! `c = m` point where REPT's variance is lowest, `c = 200` three full
//! groups plus a `c mod m = 8` remainder group (the masked-remainder
//! sharing path), and `c = 256` four full groups (Algorithm 2).
//!
//! A `batch_split` section feeds the same stream to the fused-hybrid
//! engine at `c ∈ {64, 256}` in 256-edge [`EngineCore::ingest_batch`]
//! calls — the size of one serving-tier `INGEST` line — beside the
//! whole-stream rate, so any per-batch fixed cost shows as a gap
//! between the two.
//!
//! A third section sweeps the hybrid layout's dense-promotion degree
//! threshold on the fused engine's one structure (`HybridAdjacency`):
//! every edge of the BA stream, and of a skewed Chung–Lu stream
//! (γ = 2.1 on `5·nodes` nodes, `20·nodes` edges — servebench's
//! `chunglu-hubs` stream at the default size), replayed through
//! `match_then_insert` at several thresholds, each row with the
//! structure's `approx_bytes` after the stream. The `never` row
//! (`usize::MAX`, all sorted vecs) is the no-bitmap baseline.
//!
//! Run: `cargo run --release --bin bench_throughput [-- --out FILE]`
//! (default output: `BENCH_throughput.json`). `--nodes N` scales the
//! stream; measurements keep the best of three repetitions to strip
//! scheduler noise, and the engine-matrix repetitions are interleaved
//! round-robin across engines so monotone host drift biases no engine.

use std::io::Write as _;
use std::time::Instant;

use rept_core::{Engine, EngineCore, Rept, ReptConfig};
use rept_gen::{barabasi_albert, chung_lu, GeneratorConfig};
use rept_graph::HybridAdjacency;

const M: u64 = 64;
const PROCESSOR_COUNTS: [u64; 4] = [8, 64, 200, 256];
const REPS: usize = 3;
/// Processor counts of the batch-split section.
const SPLIT_COUNTS: [u64; 2] = [64, 256];
/// Edges per `ingest_batch` call in the batch-split section (the
/// serving tier's `INGEST` line size).
const SPLIT_BATCH: usize = 256;

struct Measurement {
    engine: Engine,
    c: u64,
    seconds: f64,
    edges_per_sec: f64,
}

fn best_of<R: FnMut() -> f64>(mut run: R) -> f64 {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for _ in 0..REPS {
        let start = Instant::now();
        sink += run();
        best = best.min(start.elapsed().as_secs_f64());
    }
    // Consume the estimates so the optimiser cannot elide the runs.
    assert!(sink.is_finite());
    best
}

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
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "stream: barabasi_albert(n = {nodes}, attach = 5) → {} edges; m = {M}; host cores = {host_cores}",
        stream.len()
    );

    let mut results: Vec<Measurement> = Vec::new();
    for &c in &PROCESSOR_COUNTS {
        let rept = Rept::new(ReptConfig::new(M, c).with_seed(7).with_locals(false));
        // Round-robin the repetitions across engines (rather than
        // repeating each engine back-to-back) so slow ambient drift on
        // shared hosts biases no engine; each engine keeps its best rep.
        let engines = Engine::all();
        let mut best = vec![f64::INFINITY; engines.len()];
        let mut sink = 0.0;
        for _ in 0..REPS {
            for (k, &engine) in engines.iter().enumerate() {
                let start = Instant::now();
                sink += rept.run(engine, &stream).global;
                best[k] = best[k].min(start.elapsed().as_secs_f64());
            }
        }
        assert!(sink.is_finite());
        for (k, &engine) in engines.iter().enumerate() {
            results.push(Measurement {
                engine,
                c,
                seconds: best[k],
                edges_per_sec: stream.len() as f64 / best[k],
            });
        }
    }
    let rate = |c: u64, e: Engine| {
        results
            .iter()
            .find(|r| r.c == c && r.engine == e)
            .expect("measured above")
            .edges_per_sec
    };

    // Per-engine comparison table (stderr, human-readable).
    eprintln!(
        "\n  {:>5} {:>14} {:>14} {:>8}",
        "c", "per-worker", "fused-hybrid", "y/w"
    );
    for &c in &PROCESSOR_COUNTS {
        let (w, y) = (rate(c, Engine::PerWorker), rate(c, Engine::FusedHybrid));
        eprintln!("  {c:>5} {w:>12.3e}/s {y:>12.3e}/s {:>7.2}x", y / w);
    }

    // Batch split: the fused-hybrid engine fed in serving-tier-sized
    // batches beside the whole-stream rate, repetitions interleaved.
    let mut split: Vec<(u64, f64, f64)> = Vec::new();
    for &c in &SPLIT_COUNTS {
        let rept = Rept::new(ReptConfig::new(M, c).with_seed(7).with_locals(false));
        let (mut whole, mut batched) = (f64::INFINITY, f64::INFINITY);
        let mut sink = 0.0;
        for _ in 0..REPS {
            let start = Instant::now();
            sink += rept.run(Engine::FusedHybrid, &stream).global;
            whole = whole.min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let mut core = EngineCore::with_engine(rept.clone(), Engine::FusedHybrid);
            for batch in stream.chunks(SPLIT_BATCH) {
                core.ingest_batch(batch);
            }
            sink += core.into_estimate().global;
            batched = batched.min(start.elapsed().as_secs_f64());
        }
        assert!(sink.is_finite());
        let n = stream.len() as f64;
        split.push((c, n / whole, n / batched));
    }
    eprintln!("\n  fused-hybrid, whole stream vs {SPLIT_BATCH}-edge ingest_batch calls:");
    for &(c, whole, batched) in &split {
        eprintln!(
            "  {c:>5} {whole:>12.3e}/s {batched:>12.3e}/s {:>7.2}x",
            batched / whole
        );
    }

    // Dense-promotion threshold sweep: the shared hybrid structure, every
    // edge of each stream replayed through match_then_insert.
    // usize::MAX never promotes, so it is the no-bitmap baseline the
    // other thresholds are read against.
    let skewed_nodes = 5 * nodes;
    let skewed = chung_lu(
        &GeneratorConfig::new(skewed_nodes, 42),
        20 * nodes as usize,
        2.1,
        1.0,
    );
    let sweep_streams = [
        ("barabasi_albert", nodes, &stream),
        ("chung_lu", skewed_nodes, &skewed),
    ];
    let thresholds: [usize; 6] = [16, 32, 64, 128, 512, usize::MAX];
    // Per stream: (threshold, seconds, edges/s, approx_bytes) rows.
    let mut sweep: Vec<Vec<(usize, f64, f64, usize)>> = Vec::new();
    for &(generator, _, edges) in &sweep_streams {
        eprintln!("\n  hybrid dense-promotion threshold on {generator}:");
        let mut rows = Vec::new();
        for &threshold in &thresholds {
            let mut bytes = 0;
            let seconds = best_of(|| {
                let mut adj = HybridAdjacency::with_threshold(threshold);
                let mut matches = 0u64;
                for &e in edges {
                    adj.match_then_insert(e, true, |_| matches += 1);
                }
                bytes = adj.approx_bytes();
                matches as f64
            });
            let eps = edges.len() as f64 / seconds;
            let label = if threshold == usize::MAX {
                "never (no bitmaps)".to_string()
            } else {
                threshold.to_string()
            };
            eprintln!("    {label:>18} {seconds:>9.3} s {eps:>12.3e}/s {bytes:>12} B");
            rows.push((threshold, seconds, eps, bytes));
        }
        sweep.push(rows);
    }

    // Hand-rolled JSON, matching the workspace's no-serde convention.
    let mut json = String::new();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"engine_throughput\",\n");
    json.push_str(&format!(
        "  \"stream\": {{\"generator\": \"barabasi_albert\", \"nodes\": {nodes}, \"attach\": 5, \"seed\": 42, \"edges\": {}}},\n",
        stream.len()
    ));
    json.push_str(&format!("  \"m\": {M},\n"));
    json.push_str("  \"track_locals\": false,\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"c\": {}, \"seconds\": {:.6}, \"edges_per_sec\": {:.1}}}{}\n",
            r.engine.name(),
            r.c,
            r.seconds,
            r.edges_per_sec,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"speedup_fused_hybrid_over_per_worker\": {");
    for (i, &c) in PROCESSOR_COUNTS.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        json.push_str(&format!(
            "{sep}\"{c}\": {:.3}",
            rate(c, Engine::FusedHybrid) / rate(c, Engine::PerWorker)
        ));
    }
    json.push_str("},\n");
    json.push_str(&format!(
        "  \"batch_split\": {{\"engine\": \"fused-hybrid\", \"batch\": {SPLIT_BATCH}, \"results\": [\n"
    ));
    for (i, &(c, whole, batched)) in split.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"c\": {c}, \"whole_stream_edges_per_sec\": {whole:.1}, \
             \"batch_edges_per_sec\": {batched:.1}, \"batch_over_whole\": {:.3}}}{}\n",
            batched / whole,
            if i + 1 < split.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str("  \"hybrid_threshold_sweep\": {\n");
    json.push_str("    \"structure\": \"HybridAdjacency\",\n");
    json.push_str("    \"streams\": [\n");
    for (k, (&(generator, n, edges), rows)) in sweep_streams.iter().zip(&sweep).enumerate() {
        json.push_str(&format!(
            "      {{\"generator\": \"{generator}\", \"nodes\": {n}, \"edges\": {}, \"results\": [\n",
            edges.len()
        ));
        for (i, &(threshold, seconds, eps, bytes)) in rows.iter().enumerate() {
            let label = if threshold == usize::MAX {
                "\"never\"".to_string()
            } else {
                threshold.to_string()
            };
            json.push_str(&format!(
                "        {{\"threshold\": {label}, \"seconds\": {seconds:.6}, \
                 \"edges_per_sec\": {eps:.1}, \"approx_bytes\": {bytes}}}{}\n",
                if i + 1 < rows.len() { "," } else { "" }
            ));
        }
        json.push_str(&format!(
            "      ]}}{}\n",
            if k + 1 < sweep.len() { "," } else { "" }
        ));
    }
    json.push_str("    ]\n");
    json.push_str("  }\n");
    json.push_str("}\n");

    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write failed");
    eprintln!("wrote {out_path}");
}
