//! Machine-readable serving-subsystem benchmark: the costs of the
//! serving tier's options, each against its own baseline on one fixed
//! Barabási–Albert stream (`m = c = 64`, snapshots every 4 096 edges,
//! batches of [`INGEST_CHUNK`] edges — one `INGEST` line each).
//!
//! * **Tenant scaling**: sustained `INGEST * …` fan-out throughput of the
//!   multi-tenant router at 1/2/4 tenants over TCP — each stream edge is
//!   applied once *per tenant*, so the per-tenant rate divided into the
//!   single-tenant rate shows the fan-out cost.
//! * **Journal overhead**: the same in-process ingest with the
//!   write-ahead journal off, fsync-per-record (every ack durable) and
//!   fsync-batched (acks durable at the next flush) — the price of
//!   losslessness, isolated from the TCP stack. The per-record policy is
//!   measured both from one producer (every batch pays its own fsync)
//!   and from four concurrent producers (queued batches share one
//!   group-commit barrier).
//! * **Quota enforcement**: each [`QuotaPolicy`] run against a budget of
//!   half the stream's unpressured footprint (~2× pressure) — how many
//!   edges each policy accepts, where stored bytes end up relative to
//!   the budget, and the ingest rate with admission checks on. The
//!   footprint probe that sets the budget is not timed.
//! * **Metrics overhead**: the same in-process ingest with the timing
//!   instrumentation disabled (`with_metrics(false)`, the baseline —
//!   counters stay live either way) and fully enabled (queue-wait/apply
//!   histograms + slow-op tracing, the default). The ratio of the median
//!   rates must stay ≥ 0.95.
//!
//! Every section runs its variants through
//! [`rept_bench::reps::interleaved`]: rows carry the minimum and
//! quartiles of seconds over its interleaved rounds, and rates from the
//! median, beside the host's measured parallelism. Sustained TCP ingest
//! under queries and the sharded tier are measured end to end, with
//! their spread, by `servebench` (`ba-wire`, `chunglu-hubs` and
//! `ws-durable-shards` in `BENCHMARK.json`; `servebench/reps.py`).
//!
//! Run: `cargo run --release --bin bench_serve [-- --out FILE --nodes N]`
//! (default output: `BENCH_serve.json`).

use std::time::Instant;

use rept_bench::reps::{host_parallelism, interleaved, seconds_json, REPS};
use rept_core::reservoir::MIN_MEMORY_BUDGET;
use rept_core::{Engine, ReptConfig};
use rept_gen::{barabasi_albert, GeneratorConfig};
use rept_graph::edge::Edge;
use rept_metrics::Spread;
use rept_serve::client::INGEST_CHUNK;
use rept_serve::{Client, QuotaPolicy, RouterConfig, ServeConfig, ServeCore, Server, SyncPolicy};

const M: u64 = 64;
const TENANT_COUNTS: [usize; 3] = [1, 2, 4];
const SNAPSHOT_EVERY: u64 = 4096;
/// Journal variants: (fsync policy, or `None` for no journal;
/// concurrent producers).
const JOURNALS: [(Option<SyncPolicy>, usize); 4] = [
    (None, 1),
    (Some(SyncPolicy::PerRecord), 1),
    (Some(SyncPolicy::PerRecord), 4),
    (Some(SyncPolicy::Batched), 1),
];
/// Quota variants; `None` is the unlimited, admission-check-free row.
const POLICIES: [Option<QuotaPolicy>; 4] = [
    None,
    Some(QuotaPolicy::Shed),
    Some(QuotaPolicy::Reject),
    Some(QuotaPolicy::Degrade),
];

/// The serving configuration every section starts from (`c = m`, one
/// hash group).
fn base() -> ServeConfig {
    ServeConfig::new(ReptConfig::new(M, M).with_seed(7)).with_snapshot_every(SNAPSHOT_EVERY)
}

/// Queues `stream` to `core` in [`INGEST_CHUNK`]-edge batches until one
/// is refused, then flushes; returns the position, i.e. the edges
/// accepted.
fn feed(core: &ServeCore, stream: &[Edge]) -> u64 {
    for chunk in stream.chunks(INGEST_CHUNK) {
        if core.ingest(chunk.to_vec()).is_err() {
            break;
        }
    }
    core.flush()
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
    let edges = stream.len() as u64;
    let parallelism = host_parallelism();
    eprintln!(
        "stream: barabasi_albert(n = {nodes}, attach = 5) → {edges} edges; m = c = {M}; \
         {REPS} interleaved rounds; host parallelism = {parallelism:.2}"
    );
    let rate = |s: &Spread| edges as f64 / s.median;

    // Tenant scaling: fan-out ingest over the multi-tenant router. One
    // producer streams `INGEST * …` lines; every tenant applies every
    // edge, so total estimator work scales with the tenant count.
    let tenant_spreads = interleaved(TENANT_COUNTS.len(), |k| {
        let tenants = TENANT_COUNTS[k];
        let router_cfg = RouterConfig::new(base().with_top_k(10));
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
        client.ingest_to("*", &stream).expect("fan-out ingest");
        for i in 0..tenants {
            if i > 0 {
                client.use_tenant(&format!("t{i}")).expect("use");
            }
            assert_eq!(client.flush().expect("flush"), edges);
        }
        let elapsed = start.elapsed();
        drop(client);
        server.shutdown_all();
        elapsed
    });
    let mut tenant_rows = Vec::new();
    for (tenants, s) in TENANT_COUNTS.iter().zip(&tenant_spreads) {
        let (eps, applied) = (rate(s), rate(s) * *tenants as f64);
        eprintln!("  fan-out {tenants} tenant(s): {eps:>10.0} stream edges/s");
        tenant_rows.push(format!(
            "{{\"tenants\": {tenants}, \"seconds\": {}, \"stream_edges_per_sec\": {eps:.1}, \
             \"applied_edges_per_sec\": {applied:.1}}}",
            seconds_json(s)
        ));
    }

    // Journal overhead: the identical in-process ingest with the
    // write-ahead journal off / fsync-per-record / fsync-batched.
    // In-process (no TCP) so the rows isolate the durability cost.
    // Per-record is measured again from four concurrent producers:
    // batches queued while one fsync runs share the next group-commit
    // barrier, so the aggregate rate recovers most of the penalty.
    let mut journal_bytes = [0u64; JOURNALS.len()];
    let journal_spreads = interleaved(JOURNALS.len(), |k| {
        let (journal, producers) = JOURNALS[k];
        let dir = std::env::temp_dir().join(format!("rept-bench-journal-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).expect("mk journal dir");
        let cfg = base().with_checkpoint(dir.join("serve.rpck"), None);
        let cfg = match journal {
            Some(sync) => cfg.with_journal_sync(sync),
            None => cfg,
        };
        let core = ServeCore::start(cfg).expect("start core");
        let start = Instant::now();
        std::thread::scope(|scope| {
            for t in 0..producers {
                let (core, stream) = (&core, &stream);
                scope.spawn(move || {
                    for chunk in stream.chunks(INGEST_CHUNK).skip(t).step_by(producers) {
                        core.ingest(chunk.to_vec()).expect("ingest");
                    }
                });
            }
        });
        assert_eq!(core.flush(), edges);
        let elapsed = start.elapsed();
        journal_bytes[k] = core.live_stats().journal_bytes;
        core.shutdown();
        std::fs::remove_dir_all(&dir).ok();
        elapsed
    });
    let mut journal_rows = Vec::new();
    for (((journal, producers), s), bytes) in
        JOURNALS.iter().zip(&journal_spreads).zip(journal_bytes)
    {
        let (name, eps) = (journal.map_or("off", SyncPolicy::name), rate(s));
        eprintln!("  journal {name:>10} ×{producers}: {eps:>10.0} edges/s, {bytes} journal bytes");
        journal_rows.push(format!(
            "{{\"journal\": \"{name}\", \"producers\": {producers}, \"seconds\": {}, \
             \"ingest_edges_per_sec\": {eps:.1}, \"journal_bytes\": {bytes}}}",
            seconds_json(s)
        ));
    }

    // Quota enforcement: each policy run against a budget of half the
    // unpressured footprint, so the stream presses at roughly 2×.
    let full = {
        let core = ServeCore::start(base()).expect("start core");
        assert_eq!(feed(&core, &stream), edges);
        let full = core.health().stored_bytes;
        core.shutdown();
        full
    };
    let budget = (full / 2).max(MIN_MEMORY_BUDGET);
    // Per policy: (edges accepted, stored bytes at the end).
    let mut quota_rows = [(0u64, 0u64); POLICIES.len()];
    let quota_spreads = interleaved(POLICIES.len(), |k| {
        let cfg = match POLICIES[k] {
            Some(policy) => base().with_memory_budget(budget).with_quota_policy(policy),
            None => base(),
        };
        let core = ServeCore::start(cfg).expect("start core");
        let start = Instant::now();
        // Reject/Degrade refuse at the ceiling; the row records how far
        // the policy let the stream run.
        let accepted = feed(&core, &stream);
        let elapsed = start.elapsed();
        quota_rows[k] = (accepted, core.health().stored_bytes);
        core.shutdown();
        elapsed
    });
    let mut policy_rows = Vec::new();
    for ((policy, s), (accepted, stored)) in POLICIES.iter().zip(&quota_spreads).zip(quota_rows) {
        let name = policy.map_or("none", QuotaPolicy::name);
        let budget = if policy.is_some() { budget } else { 0 };
        let eps = accepted as f64 / s.median;
        eprintln!(
            "  quota {name:>7}: {eps:>10.0} edges/s, accepted {accepted}/{edges} edges, \
             stored {stored} B (budget {budget} B)"
        );
        policy_rows.push(format!(
            "{{\"policy\": \"{name}\", \"memory_budget_bytes\": {budget}, \
             \"accepted_edges\": {accepted}, \"stream_edges\": {edges}, \"stored_bytes\": {stored}, \
             \"seconds\": {}, \"ingest_edges_per_sec\": {eps:.1}}}",
            seconds_json(s)
        ));
    }

    // Metrics overhead: the identical in-process ingest with timing
    // instrumentation off (variant 0, the baseline) and on (variant 1,
    // the default). Counters and gauges record in both runs — the flag
    // only gates clock reads, histograms and the trace ring — so the
    // pair isolates exactly the cost the observability layer adds to
    // the hot path.
    let metrics_spreads = interleaved(2, |k| {
        let core = ServeCore::start(base().with_metrics(k == 1)).expect("start core");
        let start = Instant::now();
        assert_eq!(feed(&core, &stream), edges);
        let elapsed = start.elapsed();
        core.shutdown();
        elapsed
    });
    let mut metrics_rows = Vec::new();
    for (label, s) in ["off", "on"].iter().zip(&metrics_spreads) {
        eprintln!("  metrics {label:>3}: {:>10.0} edges/s", rate(s));
        metrics_rows.push(format!(
            "{{\"metrics\": \"{label}\", \"seconds\": {}, \"ingest_edges_per_sec\": {:.1}}}",
            seconds_json(s),
            rate(s)
        ));
    }
    let metrics_ratio = rate(&metrics_spreads[1]) / rate(&metrics_spreads[0]);
    eprintln!("  metrics overhead: instrumented/baseline = {metrics_ratio:.3}");

    // Hand-rolled JSON, matching the workspace's no-serde convention.
    // Every section runs the default engine (no config sets one), but a
    // shed quota swaps in the reservoir, so that section names none.
    let section = |name: &str, header: String, rows: &[String]| {
        format!(
            "  \"{name}\": {{\"m\": {M}, \"c\": {M}, \"batch_edges\": {INGEST_CHUNK}, {header}, \
             \"rows\": [\n    {}\n  ]",
            rows.join(",\n    ")
        )
    };
    let engine = format!("\"engine\": \"{}\"", Engine::default().name());
    let json = [
        "{".to_string(),
        "  \"bench\": \"serve\",".into(),
        format!(
            "  \"stream\": {{\"generator\": \"barabasi_albert\", \"nodes\": {nodes}, \"attach\": 5, \
             \"seed\": 42, \"edges\": {edges}}},"
        ),
        format!("  \"m\": {M},"),
        format!("  \"snapshot_every\": {SNAPSHOT_EVERY},"),
        format!("  \"reps\": {REPS},"),
        format!("  \"host_parallelism\": {parallelism:.2},"),
        section(
            "tenant_scaling",
            format!(
                "{engine}, \"transport\": \"tcp-loopback\", \"host_parallelism\": {parallelism:.2}"
            ),
            &tenant_rows,
        ) + "},",
        section(
            "journal_overhead",
            format!("{engine}, \"transport\": \"in-process\""),
            &journal_rows,
        ) + "},",
        section(
            "quota_enforcement",
            "\"transport\": \"in-process\"".into(),
            &policy_rows,
        ) + "},",
        section(
            "metrics_overhead",
            format!("{engine}, \"transport\": \"in-process\""),
            &metrics_rows,
        ) + &format!(", \"instrumented_over_baseline\": {metrics_ratio:.4}}}"),
        "}\n".into(),
    ]
    .join("\n");
    std::fs::write(&out_path, json).unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
    eprintln!("wrote {out_path}");
}
