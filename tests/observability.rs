//! Observability acceptance suite: the `METRICS` exposition covers the
//! required series per tenant, `METRICS *` aggregates correctly into
//! `tenant="_all"` rows, `TRACE TAIL` drains slow-op events over the
//! wire, grammar errors come back as `ERR` lines, scraping never blocks
//! ingest, every scrape (a shard coordinator's included) is a valid
//! Prometheus exposition, a coordinator's own exchange families count
//! full and delta exchanges, and histogram merging is exactly
//! equivalent to recording into a single histogram.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use rept::core::{GroupSlice, ReptConfig};
use rept::graph::edge::Edge;
use rept::metrics::registry::Histogram;
use rept::serve::{Client, RouterConfig, ServeConfig, ServeCore, Server};
use rept::shard::{CoordinatorConfig, CoordinatorServer, ShardCoordinator, ShardLink};

/// A per-test unique scratch directory.
fn unique_root(tag: &str) -> std::path::PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rept-obs-{tag}-{}-{n}", std::process::id()))
}

/// Extracts the value of a counter/gauge sample carrying exactly a
/// `tenant` label from exposition text.
fn sample(text: &str, name: &str, tenant: &str) -> Option<u64> {
    let prefix = format!("{name}{{tenant=\"{tenant}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map(|v| v.parse().expect("integer sample"))
}

/// A small Prometheus text-exposition checker: every `# TYPE` line
/// names a new family, every sample follows its own family's `# TYPE`
/// (a summary's `_sum`/`_count` included) with no other family in
/// between, no name plus label set repeats, and every value parses.
fn check_exposition(text: &str) -> Result<(), String> {
    let mut families = HashSet::new();
    let mut series = HashSet::new();
    let mut current: Option<&str> = None;
    for line in text.lines() {
        if let Some(typed) = line.strip_prefix("# TYPE ") {
            let name = typed.split(' ').next().unwrap_or(typed);
            if !families.insert(name) {
                return Err(format!("repeated # TYPE for {name}"));
            }
            current = Some(name);
            continue;
        }
        if line.starts_with('#') {
            continue;
        }
        let (key, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("sample without a value: {line:?}"))?;
        value
            .parse::<f64>()
            .map_err(|_| format!("bad value in {line:?}"))?;
        let (name, labels) = key.split_once('{').unwrap_or((key, "}"));
        let family = [
            name,
            name.strip_suffix("_sum").unwrap_or(name),
            name.strip_suffix("_count").unwrap_or(name),
        ];
        if !current.is_some_and(|c| family.contains(&c)) {
            return Err(format!("sample {line:?} outside its family's # TYPE block"));
        }
        let mut label_set: Vec<&str> = labels
            .strip_suffix('}')
            .ok_or_else(|| format!("unclosed labels in {line:?}"))?
            .split(',')
            .filter(|l| !l.is_empty())
            .collect();
        label_set.sort_unstable();
        if !series.insert((name.to_string(), label_set.join(","))) {
            return Err(format!("repeated series {key}"));
        }
    }
    Ok(())
}

#[test]
fn exposition_checker_rejects_what_prometheus_would() {
    let ok = "# TYPE a counter\na{x=\"1\"} 1\na{x=\"2\"} 2\n# TYPE b summary\nb{q=\"1\"} 3\nb_sum 4\nb_count 1";
    assert_eq!(check_exposition(ok), Ok(()));
    for bad in [
        // Two shard bodies joined under comments: the old coordinator scrape.
        "# shard=0\n# TYPE a counter\na{t=\"d\"} 1\n# shard=1\n# TYPE a counter\na{t=\"d\"} 1",
        "# TYPE a counter\na{t=\"d\"} 1\na{t=\"d\"} 2",
        "# TYPE a counter\na{x=\"1\",y=\"2\"} 1\na{y=\"2\",x=\"1\"} 2",
        "a 1\n# TYPE a counter",
        "# TYPE a counter\n# TYPE b counter\na 1",
        "# TYPE a counter\na x",
    ] {
        assert!(check_exposition(bad).is_err(), "{bad:?} must be rejected");
    }
}

/// `METRICS` from a standalone server, `METRICS *` from a two-tenant
/// router and `METRICS` from a 3-shard coordinator are all valid
/// expositions; the coordinator's carries every shard's samples under a
/// `shard` label.
#[test]
fn every_scrape_is_a_valid_exposition() {
    let root = unique_root("valid");
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(23)).with_snapshot_every(1);
    let server = Server::start_router(
        RouterConfig::new(base).with_root_dir(root.clone()),
        "127.0.0.1:0",
        1,
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let triangle = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
    client.ingest(&triangle).expect("ingest");
    client.query_global().expect("query");
    check_exposition(&client.metrics().expect("scrape")).expect("standalone METRICS");
    client.tenant_create("alpha", "").expect("create");
    check_exposition(&client.metrics_all().expect("scrape all")).expect("METRICS *");
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();

    let cfg = ReptConfig::new(2, 6).with_seed(29); // 3 hash groups
    let shards: Vec<Server> = (0..3)
        .map(|i| {
            let sc = ServeConfig::new(cfg).with_group_slice(GroupSlice::new(i, 3));
            Server::start(sc, "127.0.0.1:0", 1).expect("shard server")
        })
        .collect();
    let links = shards
        .iter()
        .map(|s| ShardLink::connect(s.local_addr()).expect("link"))
        .collect();
    let coordinator =
        ShardCoordinator::start(CoordinatorConfig::new(cfg), links).expect("coordinator");
    let front = CoordinatorServer::start(coordinator, "127.0.0.1:0", 1).expect("front end");
    let mut client = Client::connect(front.local_addr()).expect("connect");
    client.ingest(&triangle).expect("ingest");
    client.flush().expect("flush");
    for text in [client.metrics(), client.metrics_all()] {
        let text = text.expect("coordinator scrape");
        check_exposition(&text).expect("coordinator METRICS");
        for shard in 0..3 {
            let edges =
                format!("rept_ingest_edges_total{{shard=\"{shard}\",tenant=\"default\"}} 3");
            assert!(text.contains(&edges), "shard {shard} missing:\n{text}");
        }
        // The coordinator's own families, apart from the shards'.
        assert!(
            sample(&text, "rept_coordinator_aggregate_bytes_total", "default")
                .is_some_and(|b| b > 0),
            "{text}"
        );
        assert!(text.contains("rept_coordinator_publish_micros_count{tenant=\"default\"} "));
        assert!(
            sample(&text, "rept_coordinator_publish_nodes_count", "default").is_some_and(|n| n > 0),
            "{text}"
        );
        assert!(
            sample(&text, "rept_coordinator_publish_full_total", "default").is_some(),
            "{text}"
        );
        assert!(
            !text.contains("rept_publish_micros{tenant="),
            "no coordinator sample under a shard family"
        );
    }
    drop(client);
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
}

/// One `rept_coordinator_exchanges_total` sample of a scrape.
fn exchanges(text: &str, kind: &str) -> u64 {
    let prefix = format!("rept_coordinator_exchanges_total{{tenant=\"default\",kind=\"{kind}\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or_else(
            || panic!("no {kind} exchanges in:\n{text}"),
            |v| v.parse().expect("integer sample"),
        )
}

/// A 3-shard cluster exchanges deltas in steady state: its `METRICS`
/// count one full exchange per shard at start, one more at a revival,
/// and deltas for every publication in between and after.
#[test]
fn coordinator_exchanges_deltas_between_start_and_revive() {
    let cfg = ReptConfig::new(2, 6).with_seed(31); // 3 hash groups
    let cores: Vec<Arc<ServeCore>> = (0..3)
        .map(|i| {
            let sc = ServeConfig::new(cfg).with_group_slice(GroupSlice::new(i, 3));
            Arc::new(ServeCore::start(sc).expect("shard core"))
        })
        .collect();
    let links = cores
        .iter()
        .map(|c| ShardLink::local(Arc::clone(c)))
        .collect();
    let coordinator =
        ShardCoordinator::start(CoordinatorConfig::new(cfg).with_snapshot_every(4), links)
            .expect("coordinator");
    let front = CoordinatorServer::start(coordinator, "127.0.0.1:0", 1).expect("front end");
    let mut client = Client::connect(front.local_addr()).expect("connect");
    let edges: Vec<Edge> = (0..40u32)
        .map(|i| Edge::new(i % 9, (i * 4 + 1) % 9 + 9))
        .collect();
    client.ingest(&edges[..20]).expect("ingest");
    client.flush().expect("flush");
    let text = client.metrics().expect("scrape");
    check_exposition(&text).expect("coordinator METRICS");
    assert_eq!(exchanges(&text, "full"), 3, "one per shard, at start");
    let steady = exchanges(&text, "delta");
    assert!(steady >= 3, "deltas in steady state: {steady}");

    front.coordinator().lock().expect("lock").kill_shard(1);
    client.ingest(&edges[20..30]).expect("degraded ingest");
    front
        .coordinator()
        .lock()
        .expect("lock")
        .revive_shard(1, ShardLink::local(Arc::clone(&cores[1])))
        .expect("revive");
    client.ingest(&edges[30..]).expect("ingest");
    client.flush().expect("flush");
    let text = client.metrics().expect("scrape");
    assert_eq!(exchanges(&text, "full"), 4, "one more, at the revival");
    assert!(exchanges(&text, "delta") > steady);
    drop(client);
    front.shutdown();
}

/// On a `c = m` stream every local only grows, so once the publisher
/// holds both of its locals maps, no publication copies or rescans
/// every local: `rept_publish_full_total` stops growing while
/// publications go on, each recombining only the nodes that moved.
#[test]
fn publication_stays_incremental_in_steady_state() {
    let stream: Vec<Edge> = (0..4_000u32)
        .map(|i| Edge::new(i % 97, 97 + (i * 31 + 7) % 89))
        .collect();
    let cfg = ServeConfig::new(ReptConfig::new(4, 4).with_seed(3))
        .with_snapshot_every(128)
        .with_top_k(5);
    let server = Server::start(cfg, "127.0.0.1:0", 1).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let scrape = |client: &mut Client| {
        let text = client.metrics().expect("scrape");
        let get = |name: &str| sample(&text, name, "default").expect(name);
        (
            get("rept_snapshots_published_total"),
            get("rept_publish_full_total"),
        )
    };
    let (warm, rest) = stream.split_at(1_000);
    client.ingest(warm).expect("ingest");
    client.flush().expect("flush");
    let (published, full) = scrape(&mut client);
    assert!(full >= 1, "the first publication has no spare map yet");
    for chunk in rest.chunks(256) {
        client.ingest(chunk).expect("ingest");
    }
    client.flush().expect("flush");
    let (later, full_later) = scrape(&mut client);
    // A cadence point per 256-edge batch, each past 128 edges.
    assert!(later >= published + 10, "{published} → {later}");
    assert_eq!(full_later, full, "no O(locals) step in steady state");
    drop(client);
    server.shutdown();
}

#[test]
fn metrics_scrape_covers_required_series() {
    let root = unique_root("scrape");
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(9))
        .with_snapshot_every(1)
        .with_journal();
    let server = Server::start_router(
        RouterConfig::new(base).with_root_dir(root.clone()),
        "127.0.0.1:0",
        2,
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client
        .ingest(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)])
        .expect("ingest");
    client.flush().expect("flush");
    client.query_global().expect("query");
    let health = client.health().expect("health");
    assert!(
        health.contains("sync=per-record") && health.contains("last_group="),
        "HEALTH must report the sync policy and group-commit size: {health}"
    );

    let text = client.metrics().expect("scrape");

    // Ingest, journal, snapshot, typed-error and trace series — all
    // labelled with the current tenant.
    assert_eq!(sample(&text, "rept_ingest_edges_total", "default"), Some(3));
    assert_eq!(
        sample(&text, "rept_ingest_batches_total", "default"),
        Some(1)
    );
    for series in [
        "rept_journal_appends_total",
        "rept_journal_fsyncs_total",
        "rept_snapshots_published_total",
    ] {
        let v = sample(&text, series, "default").unwrap_or_else(|| panic!("{series} missing"));
        assert!(v >= 1, "{series} should have fired: {v}");
    }
    for series in [
        "rept_busy_rejections_total",
        "rept_quota_rejections_total",
        "rept_rejected_batches_total",
        "rept_dead_letters_total",
        "rept_trace_events_total",
        "rept_trace_dropped_total",
        "rept_queue_depth",
        "rept_stored_bytes",
        "rept_journal_lag_bytes",
        "rept_dlq_depth",
        "rept_degraded",
        "rept_last_group_commit",
        "rept_ingest_held",
        "rept_ingest_hold_micros_count",
        "rept_publish_nodes_count",
        "rept_publish_full_total",
        "rept_publish_skipped_total",
    ] {
        assert!(
            sample(&text, series, "default").is_some(),
            "{series} missing from exposition:\n{text}"
        );
    }

    // Latency summaries: fsync + apply histograms and the per-verb
    // query latency with its extra label.
    assert!(text.contains("# TYPE rept_fsync_micros summary"));
    assert!(text.contains("rept_apply_micros_count{tenant=\"default\"} 1"));
    assert!(text.contains("rept_query_micros_count{tenant=\"default\",verb=\"global\"} 1"));

    // A single-tenant scrape carries no aggregate rows.
    assert!(!text.contains("tenant=\"_all\""));

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn metrics_all_aggregates_counters_not_gauges() {
    let root = unique_root("all");
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(11)).with_snapshot_every(1);
    let server = Server::start_router(
        RouterConfig::new(base).with_root_dir(root.clone()),
        "127.0.0.1:0",
        2,
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.tenant_create("alpha", "").expect("create");
    client
        .ingest(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)])
        .expect("ingest default");
    client.use_tenant("alpha").expect("use");
    client
        .ingest(&[Edge::new(3, 4), Edge::new(4, 5)])
        .expect("ingest alpha");
    client.flush().expect("flush alpha");
    client.use_tenant("default").expect("back");
    client.flush().expect("flush default");

    let text = client.metrics_all().expect("scrape all");
    let default = sample(&text, "rept_ingest_edges_total", "default").expect("default row");
    let alpha = sample(&text, "rept_ingest_edges_total", "alpha").expect("alpha row");
    let all = sample(&text, "rept_ingest_edges_total", "_all").expect("_all row");
    assert_eq!((default, alpha), (3, 2));
    assert_eq!(all, default + alpha, "_all must be the cross-tenant sum");

    // Histogram aggregates merge counts; gauges are never aggregated.
    let applies = sample(&text, "rept_apply_micros_count", "_all").expect("_all summary");
    assert_eq!(applies, 2, "one apply per tenant");
    assert!(
        sample(&text, "rept_queue_depth", "_all").is_none(),
        "gauges must not grow _all rows"
    );

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn trace_tail_drains_slow_ops_over_the_wire() {
    let root = unique_root("trace");
    // Threshold zero: every instrumented op is "slow".
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(13))
        .with_snapshot_every(1)
        .with_slow_op_threshold(Duration::ZERO);
    let server = Server::start_router(
        RouterConfig::new(base).with_root_dir(root.clone()),
        "127.0.0.1:0",
        2,
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client
        .ingest(&[Edge::new(0, 1), Edge::new(1, 2)])
        .expect("ingest");
    client.flush().expect("flush");

    let events = client.trace_tail(64).expect("trace");
    assert!(!events.is_empty(), "zero threshold must capture events");
    for line in &events {
        assert!(
            line.starts_with("at_us=") && line.contains(" op=") && line.contains(" micros="),
            "malformed trace line: {line}"
        );
    }
    assert!(
        events.iter().any(|l| l.contains("op=apply"))
            && events.iter().any(|l| l.contains("op=publish")),
        "apply and publish should both cross a zero threshold: {events:?}"
    );

    // The ring drains on read: an immediate second tail is empty.
    assert!(client.trace_tail(64).expect("second tail").is_empty());

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn observability_grammar_errors_keep_the_connection_open() {
    let root = unique_root("grammar");
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(17));
    let server = Server::start_router(
        RouterConfig::new(base).with_root_dir(root.clone()),
        "127.0.0.1:0",
        1,
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    for bad in [
        "METRICS junk",
        "METRICS * extra",
        "TRACE",
        "TRACE TAIL",
        "TRACE TAIL x",
    ] {
        assert!(client.request(bad).is_err(), "{bad:?} must be an ERR line");
    }
    // The same connection still serves well-formed requests.
    assert!(client
        .metrics()
        .expect("scrape")
        .contains("rept_ingest_edges_total"));
    assert_eq!(client.trace_tail(4).expect("tail"), Vec::<String>::new());

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn scraping_never_blocks_ingest() {
    let root = unique_root("concurrent");
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(19)).with_snapshot_every(4);
    let server = Server::start_router(
        RouterConfig::new(base).with_root_dir(root.clone()),
        "127.0.0.1:0",
        3,
    )
    .expect("bind");
    let addr = server.local_addr();

    // A scraper hammers METRICS * from its own connection while the
    // main thread drives ingest; both must make progress to completion.
    let stop = Arc::new(AtomicBool::new(false));
    let scrapes = Arc::new(AtomicU64::new(0));
    let scraper = {
        let stop = Arc::clone(&stop);
        let scrapes = Arc::clone(&scrapes);
        std::thread::spawn(move || {
            let mut client = Client::connect(addr).expect("scraper connect");
            while !stop.load(Ordering::Relaxed) {
                let text = client.metrics_all().expect("scrape");
                assert!(text.contains("rept_ingest_edges_total"));
                scrapes.fetch_add(1, Ordering::Relaxed);
            }
        })
    };

    let mut client = Client::connect(addr).expect("ingest connect");
    let mut sent = 0u64;
    for i in 0..200u32 {
        let batch: Vec<Edge> = (0..8).filter_map(|j| Edge::try_new(i, i + j + 1)).collect();
        sent += client.ingest(&batch).expect("ingest") as u64;
    }
    client.flush().expect("flush");
    stop.store(true, Ordering::Relaxed);
    scraper.join().expect("scraper thread");

    let text = client.metrics().expect("final scrape");
    assert_eq!(
        sample(&text, "rept_ingest_edges_total", "default"),
        Some(sent),
        "every queued edge must be applied despite concurrent scraping"
    );
    assert!(
        scrapes.load(Ordering::Relaxed) > 0,
        "the scraper must have completed at least one scrape"
    );

    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Recording a value set split across two histograms and merging is
    /// exactly equivalent to recording everything into one histogram:
    /// same buckets, count, sum, max, and therefore same quantiles.
    #[test]
    fn histogram_merge_equals_single_recording(
        values in vec(0u64..1 << 40, 1..200),
        split in 0usize..200,
    ) {
        let split = split.min(values.len());
        let (left, right) = values.split_at(split);

        let merged = Histogram::new();
        let other = Histogram::new();
        for &v in left {
            merged.record(v);
        }
        for &v in right {
            other.record(v);
        }
        merged.merge_from(&other);

        let single = Histogram::new();
        for &v in &values {
            single.record(v);
        }

        prop_assert_eq!(merged.bucket_counts(), single.bucket_counts());
        prop_assert_eq!(merged.count(), single.count());
        prop_assert_eq!(merged.sum(), single.sum());
        prop_assert_eq!(merged.max(), single.max());
        for q in [0.5, 0.9, 0.99] {
            prop_assert_eq!(merged.quantile(q), single.quantile(q));
        }
    }
}
