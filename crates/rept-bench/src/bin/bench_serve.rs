//! Machine-readable serving-subsystem benchmark.
//!
//! Measures, per execution engine, the two numbers a deployment cares
//! about — each under load from the *other* side of the system:
//!
//! * **sustained ingest throughput** (edges/second) of a producer
//!   streaming a fixed Barabási–Albert graph over TCP while a second
//!   client hammers queries the whole time;
//! * **query latency** (p50/p99) of `QUERY GLOBAL` / `TOPK` round
//!   trips issued over TCP while ingestion is running, plus the
//!   in-process snapshot-load latency (the pointer-swap path the
//!   queries resolve against).
//!
//! Layouts: `m = 64` at `c = 64` (full partition — REPT's
//! lowest-variance point, one hash group) and `c = 256` (four full
//! groups — the fused engine's shared-structure path), locals tracked,
//! snapshots published every 4096 edges.
//!
//! A third section measures **tenant scaling**: sustained `INGEST * …`
//! fan-out throughput of the multi-tenant router at 1/2/4 tenants
//! (default engine, `m = 64, c = 64`) — each stream edge is applied once
//! *per tenant*, so the per-tenant rate divided into the single-tenant
//! rate shows the fan-out cost.
//!
//! A fourth section measures **journal overhead**: the same in-process
//! ingest with the write-ahead journal off, fsync-per-record (every ack
//! durable) and fsync-batched (acks durable at the next flush) — the
//! price of losslessness, isolated from the TCP stack. The per-record
//! policy is measured both from one producer (every batch pays its own
//! fsync) and from four concurrent producers (queued batches share one
//! group-commit barrier).
//!
//! A fifth section measures **quota enforcement**: each
//! [`QuotaPolicy`] run against a budget of half the stream's
//! unpressured footprint (~2× pressure) — how many edges each policy
//! accepts, where stored bytes end up relative to the budget, and the
//! ingest rate with admission checks on.
//!
//! A sixth section measures **metrics overhead**: the same in-process
//! ingest with the timing instrumentation disabled
//! (`with_metrics(false)`, the baseline — counters stay live either
//! way) and fully enabled (queue-wait/apply histograms + slow-op
//! tracing, the default). Each variant takes the best of three runs;
//! the committed ratio must stay ≥ 0.95.
//!
//! A seventh section measures **shard scaling**: the TCP ingest
//! workload pushed through a `rept-shard` coordinator over 1/2/4
//! group-sliced shard servers (`m = 64, c = 256` — four full groups).
//! Every shard sees every edge but runs only its slice of the groups,
//! so the rows price the coordinator's broadcast fan-out against the
//! per-shard estimator-work reduction on this host (`host_cores` is
//! recorded — loopback sharding only pays off with cores to spare).
//!
//! Run: `cargo run --release --bin bench_serve [-- --out FILE --nodes N]`
//! (default output: `BENCH_serve.json`).

use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

use rept_core::reservoir::MIN_MEMORY_BUDGET;
use rept_core::{Engine, GroupSlice, ReptConfig};
use rept_gen::{barabasi_albert, GeneratorConfig};
use rept_metrics::LatencyRecorder;
use rept_serve::{Client, QuotaPolicy, RouterConfig, ServeConfig, ServeCore, Server, SyncPolicy};
use rept_shard::{CoordinatorConfig, CoordinatorServer, ShardCoordinator, ShardLink};

const M: u64 = 64;
const PROCESSOR_COUNTS: [u64; 2] = [64, 256];
const TENANT_COUNTS: [usize; 3] = [1, 2, 4];
const SNAPSHOT_EVERY: u64 = 4096;
const INGEST_CHUNK: usize = 1024;
/// Batch size for the journal-overhead section: small enough that the
/// per-record fsync cost is visible, large enough to stay realistic.
const JOURNAL_CHUNK: usize = 256;

struct Measurement {
    engine: Engine,
    c: u64,
    ingest_secs: f64,
    edges_per_sec: f64,
    queries: usize,
    query_p50_us: f64,
    query_p99_us: f64,
    snapshot_load_p50_us: f64,
}

fn micros(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn main() {
    let mut out_path = String::from("BENCH_serve.json");
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

    let stream = barabasi_albert(&GeneratorConfig::new(nodes, 42), 5);
    let host_cores = std::thread::available_parallelism().map_or(1, usize::from);
    eprintln!(
        "stream: barabasi_albert(n = {nodes}, attach = 5) → {} edges; m = {M}, \
         c ∈ {PROCESSOR_COUNTS:?}; host cores = {host_cores}",
        stream.len()
    );

    let mut results = Vec::new();
    for (c, engine) in PROCESSOR_COUNTS
        .into_iter()
        .flat_map(|c| Engine::all().map(|e| (c, e)))
    {
        let cfg = ReptConfig::new(M, c).with_seed(7);
        let serve_cfg = ServeConfig::new(cfg)
            .with_engine(engine)
            .with_snapshot_every(SNAPSHOT_EVERY)
            .with_top_k(10);
        let server = Server::start(serve_cfg, "127.0.0.1:0", 2).expect("bind server");
        let addr = server.local_addr();

        let done = AtomicBool::new(false);
        let (ingest_secs, mut queries) = std::thread::scope(|scope| {
            let done = &done;
            let stream = &stream;
            let producer = scope.spawn(move || {
                let mut client = Client::connect(addr).expect("producer connect");
                let start = Instant::now();
                for chunk in stream.chunks(INGEST_CHUNK) {
                    client.ingest(chunk).expect("ingest");
                }
                client.flush().expect("flush");
                let secs = start.elapsed().as_secs_f64();
                done.store(true, Ordering::SeqCst);
                secs
            });
            let querier = scope.spawn(move || {
                let mut client = Client::connect(addr).expect("query connect");
                let mut rec = LatencyRecorder::new();
                let mut alternate = false;
                while !done.load(Ordering::SeqCst) {
                    let t = Instant::now();
                    if alternate {
                        client.top_k(10).expect("topk");
                    } else {
                        client.query_global().expect("query");
                    }
                    rec.record(t.elapsed());
                    alternate = !alternate;
                }
                rec
            });
            (
                producer.join().expect("producer"),
                querier.join().expect("querier"),
            )
        });

        // In-process snapshot-load latency on the final state.
        let mut loads = LatencyRecorder::new();
        for _ in 0..10_000 {
            let t = Instant::now();
            let snap = server.core().snapshot();
            std::hint::black_box(snap.global);
            loads.record(t.elapsed());
        }

        let est = server.shutdown();
        // Guard against dead-code elimination of the whole run.
        assert!(est.global.is_finite());
        if queries.count() == 0 {
            // Extremely fast ingest can finish before the first query
            // lands; measure the unloaded round trip instead so the
            // JSON never holds nulls.
            let server = Server::start(
                ServeConfig::new(ReptConfig::new(M, c).with_seed(7)).with_engine(engine),
                "127.0.0.1:0",
                1,
            )
            .expect("bind fallback server");
            let mut client = Client::connect(server.local_addr()).expect("connect");
            for _ in 0..100 {
                let t = Instant::now();
                client.query_global().expect("query");
                queries.record(t.elapsed());
            }
            drop(client);
            server.shutdown();
        }

        let m = Measurement {
            engine,
            c,
            ingest_secs,
            edges_per_sec: stream.len() as f64 / ingest_secs,
            queries: queries.count(),
            query_p50_us: micros(queries.p50().expect("measured above")),
            query_p99_us: micros(queries.p99().expect("measured above")),
            snapshot_load_p50_us: micros(loads.p50().expect("measured above")),
        };
        eprintln!(
            "  {:>12} c={:<3}: ingest {:>10.0} edges/s ({:.2} s), {} queries, \
             p50 {:.0} µs, p99 {:.0} µs, snapshot load p50 {:.2} µs",
            m.engine.name(),
            m.c,
            m.edges_per_sec,
            m.ingest_secs,
            m.queries,
            m.query_p50_us,
            m.query_p99_us,
            m.snapshot_load_p50_us
        );
        results.push(m);
    }

    // Tenant scaling: fan-out ingest over the multi-tenant router.
    // One producer streams `INGEST * …` lines; every tenant applies
    // every edge, so total estimator work scales with the tenant count.
    let mut tenant_rows = Vec::new();
    for tenants in TENANT_COUNTS {
        let cfg = ReptConfig::new(M, M).with_seed(7); // c = m, one group
        let router_cfg = RouterConfig::new(
            ServeConfig::new(cfg)
                .with_snapshot_every(SNAPSHOT_EVERY)
                .with_top_k(10),
        );
        let server = Server::start_router(router_cfg, "127.0.0.1:0", 2).expect("bind server");
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for i in 1..tenants {
            // Independent seeds per tenant, like real per-customer
            // estimators (`default` keeps the base seed).
            client
                .tenant_create(&format!("t{i}"), &format!("seed={}", 100 + i))
                .expect("create tenant");
        }
        let start = Instant::now();
        for chunk in stream.chunks(INGEST_CHUNK) {
            client.ingest_to("*", chunk).expect("fan-out ingest");
        }
        for i in 0..tenants {
            if i > 0 {
                client.use_tenant(&format!("t{i}")).expect("use");
            }
            client.flush().expect("flush");
        }
        let secs = start.elapsed().as_secs_f64();
        drop(client);
        server.shutdown_all();
        let stream_rate = stream.len() as f64 / secs;
        eprintln!(
            "  fan-out {tenants} tenant(s): {stream_rate:>10.0} stream edges/s \
             ({:.0} applied edges/s, {secs:.2} s)",
            stream_rate * tenants as f64
        );
        tenant_rows.push((tenants, secs, stream_rate));
    }

    // Journal overhead: the identical in-process ingest with the
    // write-ahead journal off / fsync-per-record / fsync-batched.
    // In-process (no TCP) so the rows isolate the durability cost.
    // Per-record is measured again from four concurrent producers:
    // batches queued while one fsync runs share the next group-commit
    // barrier, so the aggregate rate recovers most of the penalty.
    let mut journal_rows = Vec::new();
    for (journal, producers) in [
        ("off", 1),
        ("per-record", 1),
        ("per-record", 4),
        ("batched", 1),
    ] {
        let dir = std::env::temp_dir().join(format!("rept-bench-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mk journal dir");
        let cfg = ReptConfig::new(M, M).with_seed(7);
        let mut serve_cfg = ServeConfig::new(cfg)
            .with_snapshot_every(SNAPSHOT_EVERY)
            .with_checkpoint(dir.join("serve.rpck"), None);
        serve_cfg = match journal {
            "off" => serve_cfg,
            "per-record" => serve_cfg.with_journal_sync(SyncPolicy::PerRecord),
            _ => serve_cfg.with_journal_sync(SyncPolicy::Batched),
        };
        let core = Arc::new(ServeCore::start(serve_cfg).expect("start core"));
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..producers {
                let core = Arc::clone(&core);
                let stream = &stream;
                scope.spawn(move || {
                    for chunk in stream.chunks(JOURNAL_CHUNK).skip(t).step_by(producers) {
                        core.ingest(chunk.to_vec()).expect("ingest");
                    }
                });
            }
        });
        core.flush();
        let secs = start.elapsed().as_secs_f64();
        let journal_bytes = core.snapshot().durability.journal_bytes;
        Arc::try_unwrap(core)
            .unwrap_or_else(|_| unreachable!("producers joined"))
            .shutdown();
        std::fs::remove_dir_all(&dir).ok();
        let rate = stream.len() as f64 / secs;
        eprintln!(
            "  journal {journal:>10} ×{producers}: {rate:>10.0} edges/s ({secs:.2} s), \
             {journal_bytes} journal bytes"
        );
        journal_rows.push((journal, producers, secs, rate, journal_bytes));
    }

    // Quota enforcement: each policy run against a budget of half the
    // unpressured footprint, so the stream presses at roughly 2×. The
    // unlimited row doubles as the admission-check-free baseline.
    let mut quota_rows = Vec::new();
    {
        let cfg = ReptConfig::new(M, M).with_seed(7);
        let core = ServeCore::start(ServeConfig::new(cfg).with_snapshot_every(SNAPSHOT_EVERY))
            .expect("start core");
        let start = Instant::now();
        for chunk in stream.chunks(INGEST_CHUNK) {
            core.ingest(chunk.to_vec()).expect("ingest");
        }
        let accepted = core.flush();
        let secs = start.elapsed().as_secs_f64();
        let full = core.health().stored_bytes;
        core.shutdown();
        quota_rows.push(("none", 0u64, accepted, full, accepted as f64 / secs));
        let budget = (full / 2).max(MIN_MEMORY_BUDGET);
        for policy in [QuotaPolicy::Shed, QuotaPolicy::Reject, QuotaPolicy::Degrade] {
            let cfg = ReptConfig::new(M, M).with_seed(7);
            let core = ServeCore::start(
                ServeConfig::new(cfg)
                    .with_snapshot_every(SNAPSHOT_EVERY)
                    .with_memory_budget(budget)
                    .with_quota_policy(policy),
            )
            .expect("start core");
            let start = Instant::now();
            for chunk in stream.chunks(INGEST_CHUNK) {
                if core.ingest(chunk.to_vec()).is_err() {
                    // Reject/Degrade refuse at the ceiling; the row
                    // records how far the policy let the stream run.
                    break;
                }
            }
            let accepted = core.flush();
            let secs = start.elapsed().as_secs_f64();
            let stored = core.health().stored_bytes;
            core.shutdown();
            quota_rows.push((
                policy.name(),
                budget,
                accepted,
                stored,
                accepted as f64 / secs,
            ));
        }
        for (policy, budget, accepted, stored, rate) in &quota_rows {
            eprintln!(
                "  quota {policy:>7}: {rate:>10.0} edges/s, accepted {accepted}/{} \
                 edges, stored {stored} B (budget {budget} B)",
                stream.len()
            );
        }
    }

    // Metrics overhead: the identical in-process ingest with timing
    // instrumentation off (baseline) and on (default). Counters and
    // gauges record in both runs — the flag only gates clock reads,
    // histograms and the trace ring — so the pair isolates exactly the
    // cost the observability layer adds to the hot path. Best of three
    // runs per variant, to keep the committed ratio out of scheduler
    // noise.
    let mut metrics_rows = Vec::new();
    for metrics in [false, true] {
        let mut best_rate = 0.0f64;
        let mut best_secs = f64::INFINITY;
        for _ in 0..3 {
            let cfg = ReptConfig::new(M, M).with_seed(7);
            let core = ServeCore::start(
                ServeConfig::new(cfg)
                    .with_snapshot_every(SNAPSHOT_EVERY)
                    .with_metrics(metrics),
            )
            .expect("start core");
            let start = Instant::now();
            for chunk in stream.chunks(INGEST_CHUNK) {
                core.ingest(chunk.to_vec()).expect("ingest");
            }
            core.flush();
            let secs = start.elapsed().as_secs_f64();
            core.shutdown();
            let rate = stream.len() as f64 / secs;
            if rate > best_rate {
                best_rate = rate;
                best_secs = secs;
            }
        }
        let label = if metrics { "on" } else { "off" };
        eprintln!("  metrics {label:>3}: {best_rate:>10.0} edges/s ({best_secs:.2} s, best of 3)");
        metrics_rows.push((label, best_secs, best_rate));
    }
    let metrics_ratio = metrics_rows[1].2 / metrics_rows[0].2;
    eprintln!("  metrics overhead: instrumented/baseline = {metrics_ratio:.3}");

    // Shard scaling: the same TCP ingest pushed through the rept-shard
    // coordinator at 1/2/4 group-sliced shard servers. Unlike tenant
    // fan-out, the total estimator group-work is constant across shard
    // counts — every shard sees every edge but applies only its slice
    // of the four groups — so the rows isolate the coordinator's
    // broadcast/ack overhead against the per-shard work reduction.
    let shard_c = PROCESSOR_COUNTS[1]; // 256 → four full hash groups
    let mut shard_rows = Vec::new();
    for shards in [1u32, 2, 4] {
        let cfg = ReptConfig::new(M, shard_c).with_seed(7);
        let servers: Vec<Server> = (0..shards)
            .map(|i| {
                Server::start(
                    ServeConfig::new(cfg)
                        .with_snapshot_every(SNAPSHOT_EVERY)
                        .with_group_slice(GroupSlice::new(i, shards)),
                    "127.0.0.1:0",
                    2,
                )
                .expect("start shard server")
            })
            .collect();
        let links = servers
            .iter()
            .map(|s| ShardLink::connect(s.local_addr()).expect("link"))
            .collect();
        let coordinator = ShardCoordinator::start(
            CoordinatorConfig::new(cfg)
                .with_snapshot_every(SNAPSHOT_EVERY)
                .with_top_k(10),
            links,
        )
        .expect("start coordinator");
        let front = CoordinatorServer::start(coordinator, "127.0.0.1:0", 2).expect("front-end");
        let mut client = Client::connect(front.local_addr()).expect("connect");
        let start = Instant::now();
        for chunk in stream.chunks(INGEST_CHUNK) {
            client.ingest(chunk).expect("ingest");
        }
        client.flush().expect("flush");
        let secs = start.elapsed().as_secs_f64();
        drop(client);
        let coordinator = front.shutdown();
        assert_eq!(coordinator.position(), stream.len() as u64);
        for server in servers {
            server.shutdown();
        }
        let stream_rate = stream.len() as f64 / secs;
        eprintln!("  shards {shards}: {stream_rate:>10.0} stream edges/s ({secs:.2} s)");
        shard_rows.push((shards, secs, stream_rate));
    }

    // Hand-rolled JSON, matching the workspace's no-serde convention.
    let mut json = String::new();
    // The tenant, journal, metrics and shard sections run the default
    // engine (their configs never set one).
    let default_engine = Engine::default().name();
    json.push_str("{\n");
    json.push_str("  \"bench\": \"serve\",\n");
    json.push_str(&format!(
        "  \"stream\": {{\"generator\": \"barabasi_albert\", \"nodes\": {nodes}, \"attach\": 5, \"seed\": 42, \"edges\": {}}},\n",
        stream.len()
    ));
    json.push_str(&format!("  \"m\": {M},\n"));
    json.push_str(&format!("  \"snapshot_every\": {SNAPSHOT_EVERY},\n"));
    json.push_str(&format!("  \"ingest_chunk\": {INGEST_CHUNK},\n"));
    json.push_str("  \"transport\": \"tcp-loopback\",\n");
    json.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    json.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"engine\": \"{}\", \"c\": {}, \"ingest_edges_per_sec\": {:.1}, \
             \"ingest_seconds\": {:.6}, \
             \"queries\": {}, \"query_p50_us\": {:.1}, \"query_p99_us\": {:.1}, \
             \"snapshot_load_p50_us\": {:.3}}}{}\n",
            r.engine.name(),
            r.c,
            r.edges_per_sec,
            r.ingest_secs,
            r.queries,
            r.query_p50_us,
            r.query_p99_us,
            r.snapshot_load_p50_us,
            if i + 1 < results.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"tenant_scaling\": {{\"engine\": \"{default_engine}\", \"m\": {M}, \"c\": {M}, \
         \"transport\": \"tcp-loopback\", \"host_cores\": {host_cores}, \"rows\": [\n"
    ));
    for (i, (tenants, secs, stream_rate)) in tenant_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"tenants\": {tenants}, \"ingest_seconds\": {secs:.6}, \
             \"stream_edges_per_sec\": {stream_rate:.1}, \
             \"applied_edges_per_sec\": {:.1}}}{}\n",
            stream_rate * *tenants as f64,
            if i + 1 < tenant_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"journal_overhead\": {{\"engine\": \"{default_engine}\", \"m\": {M}, \"c\": {M}, \
         \"batch_edges\": {JOURNAL_CHUNK}, \"transport\": \"in-process\", \"rows\": [\n"
    ));
    for (i, (journal, producers, secs, rate, journal_bytes)) in journal_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"journal\": \"{journal}\", \"producers\": {producers}, \
             \"ingest_seconds\": {secs:.6}, \
             \"ingest_edges_per_sec\": {rate:.1}, \"journal_bytes\": {journal_bytes}}}{}\n",
            if i + 1 < journal_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"quota_enforcement\": {{\"m\": {M}, \"c\": {M}, \
         \"batch_edges\": {INGEST_CHUNK}, \"transport\": \"in-process\", \"rows\": [\n"
    ));
    for (i, (policy, budget, accepted, stored, rate)) in quota_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{policy}\", \"memory_budget_bytes\": {budget}, \
             \"accepted_edges\": {accepted}, \"stream_edges\": {}, \
             \"stored_bytes\": {stored}, \"ingest_edges_per_sec\": {rate:.1}}}{}\n",
            stream.len(),
            if i + 1 < quota_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]},\n");
    json.push_str(&format!(
        "  \"metrics_overhead\": {{\"engine\": \"{default_engine}\", \"m\": {M}, \"c\": {M}, \
         \"batch_edges\": {INGEST_CHUNK}, \"transport\": \"in-process\", \"rows\": [\n"
    ));
    for (i, (label, secs, rate)) in metrics_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"metrics\": \"{label}\", \"ingest_seconds\": {secs:.6}, \
             \"ingest_edges_per_sec\": {rate:.1}}}{}\n",
            if i + 1 < metrics_rows.len() { "," } else { "" }
        ));
    }
    json.push_str(&format!(
        "  ], \"instrumented_over_baseline\": {metrics_ratio:.4}}},\n"
    ));
    json.push_str(&format!(
        "  \"shard_scaling\": {{\"engine\": \"{default_engine}\", \"m\": {M}, \"c\": {shard_c}, \
         \"transport\": \"tcp-loopback\", \"host_cores\": {host_cores}, \"rows\": [\n"
    ));
    for (i, (shards, secs, stream_rate)) in shard_rows.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {shards}, \"ingest_seconds\": {secs:.6}, \
             \"stream_edges_per_sec\": {stream_rate:.1}}}{}\n",
            if i + 1 < shard_rows.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]}\n}\n");

    let mut f = std::fs::File::create(&out_path)
        .unwrap_or_else(|e| panic!("cannot create {out_path}: {e}"));
    f.write_all(json.as_bytes()).expect("write failed");
    eprintln!("wrote {out_path}");
}
