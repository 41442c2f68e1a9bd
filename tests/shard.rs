//! Shard-equivalence suite: the `rept-shard` coordinator over sliced
//! shard cores is **bit-identical** to a standalone `ServeCore` — the
//! same query reply lines, byte for byte — across all engines, shard
//! counts {1, 2, 3, 5}, duplicate-edge streams, and through
//! coordinator-orchestrated checkpoints, whole-cluster kills and
//! all-shard journal-replay resume. Plus the degradation contract: a
//! killed shard turns `HEALTH` into `state=degraded shards=<k>/<n>`
//! while queries keep answering from the survivors, and a revived
//! shard replays the buffered tail and restores bit-identicality. The
//! concurrent exchange is pinned over TCP too: multi-line batches over
//! real shard servers, and scripted shards that answer `ERR BUSY` or
//! close their connection while the other shard's line is in flight.
//! The aggregate exchange runs as deltas (`AGGREGATE SINCE`) after each
//! shard's first, full one; the cases at the end pin where it falls
//! back to full replies — a restarted shard, per-worker shards, a second
//! requester — with the answers unchanged.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use rept::core::{Engine, EngineCore, GroupAggregate, GroupSlice, Rept, ReptConfig};
use rept::graph::edge::Edge;
use rept::serve::client::INGEST_CHUNK;
use rept::serve::protocol;
use rept::serve::{Client, ClientConfig, LiveStats, ServeConfig, ServeCore, Server, Snapshot};
use rept::shard::{
    format_cluster_health, CoordinatorConfig, CoordinatorServer, ShardCoordinator, ShardLink,
};

/// Every shard count the equivalence contract is proven for (1 is the
/// degenerate cluster a client must also not be able to distinguish).
const SHARD_COUNTS: [u32; 4] = [1, 2, 3, 5];

/// Strategy: a raw stream that KEEPS duplicate edges (only self-loops
/// are dropped) — duplicate handling must shard exactly too.
fn arb_stream_with_dups(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    arb_long_stream_with_dups(n, 1..max_edges)
}

/// [`arb_stream_with_dups`] with a floor on the length too.
fn arb_long_stream_with_dups(
    n: u32,
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<Edge>> {
    vec((0..n, 0..n), len).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(u, v)| Edge::try_new(u, v))
            .collect()
    })
}

/// A per-test-case unique cluster root directory.
fn unique_root(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rept-shard-{tag}-{}-{n}", std::process::id()))
}

/// Recursively snapshots every file under `root` — twin of the helper
/// in `tests/fault.rs`; keep their crash semantics in sync. (Valid for
/// acked writes because journaled ingest fsyncs before the ack.)
fn freeze_dir(root: &Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut files = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.filter_map(|e| e.ok()) {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let bytes = std::fs::read(&path).expect("freeze file");
                files.push((path, bytes));
            }
        }
    }
    files
}

/// Restores a frozen directory image, discarding whatever was written
/// after the freeze.
fn restore_dir(root: &Path, frozen: &[(PathBuf, Vec<u8>)]) {
    std::fs::remove_dir_all(root).ok();
    std::fs::create_dir_all(root).expect("recreate root");
    for (path, bytes) in frozen {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("recreate dir");
        }
        std::fs::write(path, bytes).expect("restore frozen file");
    }
}

/// One sliced shard core per shard, round-robin over the groups. With
/// a root, each shard gets its own checkpoint file + journal under it.
fn sliced_cores(
    cfg: ReptConfig,
    engine: Engine,
    shards: u32,
    snapshot_every: u64,
    root: Option<&Path>,
) -> Vec<Arc<ServeCore>> {
    (0..shards)
        .map(|i| {
            let mut sc = ServeConfig::new(cfg)
                .with_engine(engine)
                .with_snapshot_every(snapshot_every)
                .with_group_slice(GroupSlice::new(i, shards));
            if let Some(root) = root {
                sc = sc
                    .with_checkpoint(root.join(format!("shard{i}.rpck")), None)
                    .with_journal();
            }
            Arc::new(ServeCore::start(sc).expect("shard core"))
        })
        .collect()
}

fn coordinator_over(
    cores: &[Arc<ServeCore>],
    cfg: ReptConfig,
    engine: Engine,
    snapshot_every: u64,
) -> ShardCoordinator {
    let links = cores
        .iter()
        .map(|c| ShardLink::local(Arc::clone(c)))
        .collect();
    let ccfg = CoordinatorConfig::new(cfg)
        .with_engine(engine)
        .with_snapshot_every(snapshot_every);
    ShardCoordinator::start(ccfg, links).expect("coordinator")
}

/// The query surface whose reply lines must match byte for byte.
fn query_replies(snap: &Snapshot, nodes: &[u32]) -> Vec<String> {
    let mut out = vec![
        protocol::format_global(snap),
        protocol::format_top_k(snap, 8),
    ];
    for &v in nodes {
        out.push(protocol::format_local(snap, v));
    }
    out
}

/// `STATS` with the *physical* fields stripped: `bytes=` differs
/// because fused shared structures split across shard processes, and
/// the journal/DLQ gauges are per-node state the coordinator does not
/// own. Everything logical (position, seq, checkpoints, engine, m, c,
/// stored_edges, tracked_nodes) must still match byte for byte — with
/// `strip_counters` the seq/checkpoints fields go too (used after a
/// cluster restart, which legitimately resets the coordinator's
/// publication counters).
fn canonical_stats(reply: &str, strip_counters: bool) -> String {
    reply
        .split(' ')
        .filter(|tok| {
            let physical = tok.starts_with("bytes=")
                || tok.starts_with("journal_bytes=")
                || tok.starts_with("journal_segments=")
                || tok.starts_with("replayed=")
                || tok.starts_with("dlq=");
            let counter = tok.starts_with("seq=") || tok.starts_with("checkpoints=");
            !(physical || (strip_counters && counter))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

fn stats_reply(snap: &Snapshot) -> String {
    let live = LiveStats {
        stored_bytes: 0,
        journal_bytes: 0,
        journal_segments: 0,
        dlq: 0,
    };
    protocol::format_stats(snap, &live)
}

const QUERY_NODES: [u32; 4] = [0, 3, 7, 23];

/// How the coordinator reaches its shards in an equivalence run.
#[derive(Debug, Clone, Copy)]
enum Links {
    /// In-process `ServeCore` handles.
    Local,
    /// TCP shard servers.
    Tcp,
}

/// The tentpole equivalence for one stream: for every engine and shard
/// count, a cluster fed the same batches as a standalone core produces
/// byte-identical `QUERY GLOBAL` / `QUERY LOCAL` / `TOPK` replies,
/// byte-identical canonicalized `STATS` (including the `seq=` cadence
/// counter — the coordinator and the standalone core publish through
/// the one `Publisher`), and the same merged raw aggregates. Returns
/// the semi-triangles the standalone core counted over its processors.
fn assert_cluster_matches_standalone(
    stream: &[Edge],
    cfg: ReptConfig,
    batch: usize,
    every: u64,
    links: Links,
) -> Result<u64, TestCaseError> {
    let mut semi_triangles = 0;
    for engine in Engine::all() {
        let standalone = ServeCore::start(
            ServeConfig::new(cfg)
                .with_engine(engine)
                .with_snapshot_every(every),
        )
        .expect("standalone");
        for chunk in stream.chunks(batch) {
            standalone.ingest(chunk.to_vec()).expect("ingest");
        }
        standalone.flush();
        let want_snap = standalone.snapshot();
        let want = query_replies(&want_snap, &QUERY_NODES);
        let want_stats = canonical_stats(&stats_reply(&want_snap), false);
        let (want_pos, want_aggs) = standalone.aggregates().expect("aggregates");
        standalone.shutdown();
        semi_triangles = want_aggs.iter().flat_map(|g| &g.tau).sum();

        for &shards in &SHARD_COUNTS {
            let cores = sliced_cores(cfg, engine, shards, every, None);
            let mut servers = Vec::new();
            let mut coord = match links {
                Links::Local => coordinator_over(&cores, cfg, engine, every),
                Links::Tcp => {
                    servers = sliced_servers(cfg, engine, shards, every);
                    let links = servers
                        .iter()
                        .map(|s| ShardLink::connect(s.local_addr()).expect("link"))
                        .collect();
                    let ccfg = CoordinatorConfig::new(cfg)
                        .with_engine(engine)
                        .with_snapshot_every(every);
                    ShardCoordinator::start(ccfg, links).expect("coordinator")
                }
            };
            for chunk in stream.chunks(batch) {
                coord.ingest(chunk.to_vec()).expect("ingest");
            }
            prop_assert_eq!(coord.flush(), stream.len() as u64);
            prop_assert_eq!(coord.alive_count(), shards as usize);
            let snap = coord.snapshot();
            prop_assert_eq!(
                &query_replies(&snap, &QUERY_NODES),
                &want,
                "engine {} shards {} {:?}",
                engine.name(),
                shards,
                links
            );
            prop_assert_eq!(
                canonical_stats(&stats_reply(&snap), false),
                want_stats.clone(),
                "engine {} shards {} {:?}",
                engine.name(),
                shards,
                links
            );
            // The merged aggregate exchange equals the standalone one
            // field-for-field (bytes excluded: physical layout).
            let (pos, aggs) = coord.aggregates().expect("merged aggregates");
            prop_assert_eq!(pos, want_pos);
            prop_assert_eq!(aggs.len(), want_aggs.len());
            for (got, want) in aggs.iter().zip(&want_aggs) {
                prop_assert_eq!(got.start, want.start);
                prop_assert_eq!(&got.tau, &want.tau);
                prop_assert_eq!(&got.stored, &want.stored);
                prop_assert_eq!(got.eta_total, want.eta_total);
                prop_assert_eq!(&got.tau_v, &want.tau_v);
                prop_assert_eq!(&got.eta_v, &want.eta_v);
            }
            drop(coord);
            for server in servers {
                server.shutdown();
            }
        }
    }
    Ok(semi_triangles)
}

/// One sliced shard server per shard, round-robin over the groups.
fn sliced_servers(cfg: ReptConfig, engine: Engine, shards: u32, every: u64) -> Vec<Server> {
    (0..shards)
        .map(|i| {
            let sc = ServeConfig::new(cfg)
                .with_engine(engine)
                .with_snapshot_every(every)
                .with_group_slice(GroupSlice::new(i, shards));
            Server::start(sc, "127.0.0.1:0", 1).expect("shard server")
        })
        .collect()
}

/// A layout with ≥ 5 hash groups, so every shard count in
/// `SHARD_COUNTS` has work; `rem_sel` adds a remainder group (the
/// c₂ = c mod m layout).
fn equivalence_config(m: u64, rem_sel: u64, seed: u64) -> ReptConfig {
    ReptConfig::new(m, m * 5 + (rem_sel % m))
        .with_seed(seed)
        .with_eta(true)
        .with_locals(true)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The equivalence over in-process shards with small batches.
    #[test]
    fn coordinator_replies_are_byte_identical_to_standalone(
        stream in arb_stream_with_dups(24, 100),
        m in 2u64..4,
        rem_sel in 0u64..4,
        seed in any::<u64>(),
        batch_sel in any::<u64>(),
    ) {
        let cfg = equivalence_config(m, rem_sel, seed);
        let batch = 1 + (batch_sel % 23) as usize;
        assert_cluster_matches_standalone(&stream, cfg, batch, 16, Links::Local)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The equivalence over TCP shard servers as well as in-process
    /// ones, with batches of up to 2.75 lines: the coordinator cuts a
    /// batch into [`INGEST_CHUNK`]-edge lines and has each line in
    /// flight on every shard at once. The streams are drawn over 1 000
    /// nodes: a few thousand edges over a few dozen would make the graph
    /// nearly complete, and its triangles would dominate the suite's
    /// time. Each case still counts some semi-triangles.
    #[test]
    fn multi_line_batches_over_tcp_shards_are_byte_identical_to_standalone(
        stream in arb_long_stream_with_dups(1000, INGEST_CHUNK * 5 / 4..INGEST_CHUNK * 7 / 2),
        m in 2u64..4,
        rem_sel in 0u64..4,
        seed in any::<u64>(),
        batch_sel in 0usize..INGEST_CHUNK * 11 / 4,
    ) {
        let cfg = equivalence_config(m, rem_sel, seed);
        let batch = 1 + batch_sel.max(INGEST_CHUNK * 3 / 4);
        for links in [Links::Tcp, Links::Local] {
            let semi_triangles = assert_cluster_matches_standalone(&stream, cfg, batch, 64, links)?;
            prop_assert!(semi_triangles > 0, "the case must count something");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Orchestrated durability: checkpoint the whole cluster mid-stream,
    /// keep ingesting, kill **every** shard at once (freeze each shard's
    /// acked disk image, drop the cluster, restore), resume all shards —
    /// journal replay recovers each slice losslessly — and restart the
    /// coordinator over them. The resumed cluster's query replies are
    /// byte-identical to an uninterrupted standalone run.
    #[test]
    fn cluster_kill_and_all_shard_resume_is_bit_identical(
        stream in arb_stream_with_dups(20, 80),
        seed in any::<u64>(),
        ckpt_sel in any::<u64>(),
        batch_sel in any::<u64>(),
    ) {
        let cfg = ReptConfig::new(2, 11) // 5 full groups + remainder = 6
            .with_seed(seed)
            .with_eta(true)
            .with_locals(true);
        let batch = 1 + (batch_sel % 13) as usize;
        let ckpt_at = (ckpt_sel as usize) % (stream.len() + 1);

        for engine in Engine::all() {
            for &shards in &[2u32, 3, 5] {
                let root = unique_root(&format!("kill-{}-{shards}", engine.name()));
                std::fs::remove_dir_all(&root).ok();
                std::fs::create_dir_all(&root).expect("mk root");

                let cores = sliced_cores(cfg, engine, shards, 16, Some(&root));
                let mut coord = coordinator_over(&cores, cfg, engine, 16);
                for chunk in stream[..ckpt_at].chunks(batch) {
                    coord.ingest(chunk.to_vec()).expect("ingest");
                }
                let pos = coord.checkpoint().expect("orchestrated checkpoint");
                prop_assert_eq!(pos, ckpt_at as u64);
                for chunk in stream[ckpt_at..].chunks(batch) {
                    coord.ingest(chunk.to_vec()).expect("ingest");
                }
                // Whole-cluster kill: the shutdown checkpoints the drop
                // would write are part of what the crash destroys.
                let frozen = freeze_dir(&root);
                drop(coord);
                drop(cores);
                restore_dir(&root, &frozen);

                // All-shard resume: per-shard checkpoint + journal tail.
                let cores = sliced_cores(cfg, engine, shards, 16, Some(&root));
                for core in &cores {
                    prop_assert_eq!(
                        core.position(),
                        stream.len() as u64,
                        "journaled slice recovered losslessly ({} shards={shards})",
                        engine.name()
                    );
                }
                let mut coord = coordinator_over(&cores, cfg, engine, 16);
                prop_assert_eq!(coord.flush(), stream.len() as u64);
                let snap = coord.snapshot();

                let standalone = ServeCore::start(
                    ServeConfig::new(cfg).with_engine(engine).with_snapshot_every(16),
                )
                .expect("standalone");
                for chunk in stream.chunks(batch) {
                    standalone.ingest(chunk.to_vec()).expect("ingest");
                }
                standalone.flush();
                let want_snap = standalone.snapshot();
                standalone.shutdown();

                prop_assert_eq!(
                    &query_replies(&snap, &QUERY_NODES),
                    &query_replies(&want_snap, &QUERY_NODES),
                    "engine {} shards {}",
                    engine.name(),
                    shards
                );
                // Position and config survive; the publication counters
                // legitimately restarted with the coordinator.
                prop_assert_eq!(
                    canonical_stats(&stats_reply(&snap), true),
                    canonical_stats(&stats_reply(&want_snap), true)
                );
                std::fs::remove_dir_all(&root).ok();
            }
        }
    }
}

/// A fixed deterministic stream with triangles and duplicates.
fn fixed_stream(len: u32) -> Vec<Edge> {
    (0..len)
        .flat_map(|i| {
            [
                Edge::try_new(i % 17, (i * 3 + 1) % 17),
                Edge::try_new((i * 3 + 1) % 17, (i * 5 + 2) % 17),
                Edge::try_new(i % 17, (i * 5 + 2) % 17),
            ]
        })
        .flatten()
        .collect()
}

/// The degradation contract end to end: killing a shard mid-stream
/// flips `HEALTH` to `state=degraded shards=2/3` while queries keep
/// answering from the survivors (as the smaller, still-valid REPT
/// configuration), and reviving the shard replays the buffered tail
/// and restores bit-identical equality with a standalone core.
#[test]
fn killed_shard_degrades_health_and_rejoins_bit_identically() {
    let cfg = ReptConfig::new(2, 11)
        .with_seed(42)
        .with_eta(true)
        .with_locals(true);
    let engine = Engine::default();
    let stream = fixed_stream(120);
    let split = stream.len() / 2;

    let cores = sliced_cores(cfg, engine, 3, 16, None);
    let mut coord = coordinator_over(&cores, cfg, engine, 16);
    for chunk in stream[..split].chunks(7) {
        coord.ingest(chunk.to_vec()).expect("ingest");
    }
    coord.flush();
    assert!(!coord.health().degraded());

    // Kill shard 1: the coordinator stops fanning to it and buffers.
    coord.kill_shard(1);
    for chunk in stream[split..].chunks(7) {
        coord
            .ingest(chunk.to_vec())
            .expect("degraded ingest still acks");
    }
    let position = coord.flush();
    assert_eq!(position, stream.len() as u64);
    let health = coord.health();
    assert!(health.degraded());
    assert_eq!((health.alive, health.total), (2, 3));
    assert_eq!(
        format_cluster_health(&health),
        format!("OK HEALTH tenant=default state=degraded shards=2/3 position={position}")
    );
    // Queries answer from the survivors: a valid smaller configuration
    // (shard 1 owned 2 of the 6 groups → 4 of the 11 processors).
    let degraded = coord.snapshot();
    assert_eq!(degraded.position, position);
    assert_eq!(degraded.c, 7);
    assert!(degraded.global >= 0.0);
    // An independent reference: a standalone per-worker core's counters
    // for the surviving groups, renumbered onto the configuration they
    // form on their own (c' = 7) and combined. Shard 1 owned the full
    // groups at starts 2 and 8, so the survivor at start 6 sits past
    // that smaller layout's full groups.
    let mut oracle = EngineCore::with_engine(Rept::new(cfg), Engine::PerWorker);
    oracle.ingest_batch(&stream);
    let mut next = 0;
    let survivors: Vec<GroupAggregate> = oracle
        .snapshot_counters()
        .into_iter()
        .filter(|g| ![2, 8].contains(&g.start))
        .map(|g| {
            let start = next;
            next += g.tau.len();
            GroupAggregate { start, ..g }
        })
        .collect();
    assert_eq!(next, 7);
    let reference = Rept::new(ReptConfig { c: 7, ..cfg }).finalize_groups(survivors);
    assert_eq!(degraded.global.to_bits(), reference.global.to_bits());
    assert_eq!(*degraded.locals, reference.locals);

    // Revive: shard 1's core never saw the buffered second half; the
    // replay buffer starts exactly at its position and closes the gap.
    coord
        .revive_shard(1, ShardLink::local(Arc::clone(&cores[1])))
        .expect("rejoin");
    assert!(!coord.health().degraded());
    assert_eq!(coord.flush(), stream.len() as u64);
    let rejoined = coord.snapshot();
    assert_eq!(rejoined.c, 11);

    let standalone = ServeCore::start(
        ServeConfig::new(cfg)
            .with_engine(engine)
            .with_snapshot_every(16),
    )
    .expect("standalone");
    for chunk in stream.chunks(7) {
        standalone.ingest(chunk.to_vec()).expect("ingest");
    }
    standalone.flush();
    let want = standalone.snapshot();
    standalone.shutdown();
    assert_eq!(
        query_replies(&rejoined, &QUERY_NODES),
        query_replies(&want, &QUERY_NODES)
    );
}

/// A revived shard that is too far behind the replay buffer is refused
/// with a typed error instead of silently serving a gap.
#[test]
fn revive_refuses_a_shard_behind_the_replay_buffer() {
    let cfg = ReptConfig::new(2, 8).with_seed(5);
    let engine = Engine::default();
    let cores = sliced_cores(cfg, engine, 2, 16, None);
    let mut coord = coordinator_over(&cores, cfg, engine, 16);
    coord
        .ingest(fixed_stream(20))
        .expect("pre-kill ingest reaches both shards");
    coord.kill_shard(1);
    coord.ingest(fixed_stream(10)).expect("buffered");

    // A fresh empty shard (position 0) predates the buffer entirely.
    let fresh = ServeCore::start(
        ServeConfig::new(cfg)
            .with_engine(engine)
            .with_group_slice(GroupSlice::new(1, 2)),
    )
    .expect("fresh shard");
    let err = coord
        .revive_shard(1, ShardLink::local(Arc::new(fresh)))
        .expect_err("gap below the buffer");
    assert!(err.contains("replay buffer"), "{err}");
    // The cluster stays degraded-but-answering.
    assert!(coord.health().degraded());
    assert!(coord.snapshot().global >= 0.0);
}

/// One raw line-protocol connection (no client-side retries or
/// parsing — the point is byte comparison of reply lines).
struct RawConn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl RawConn {
    fn connect(addr: std::net::SocketAddr) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        let writer = stream.try_clone().expect("clone");
        Self {
            reader: BufReader::new(stream),
            writer,
        }
    }

    fn send(&mut self, line: &str) -> String {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("reply");
        reply.trim_end_matches('\n').to_string()
    }
}

/// The front-end proof over real TCP: a v2 client speaking raw lines to
/// the coordinator server gets byte-identical replies to a standalone
/// `rept-serve` server, for every distributed verb — including shared
/// grammar errors. Cluster-specific surface (`HEALTH`) is asserted in
/// its own format.
#[test]
fn tcp_front_end_is_indistinguishable_from_a_standalone_server() {
    let cfg = ReptConfig::new(2, 8)
        .with_seed(7)
        .with_eta(true)
        .with_locals(true);
    let every = 8u64;

    let shard_servers: Vec<Server> = (0..2u32)
        .map(|i| {
            Server::start(
                ServeConfig::new(cfg)
                    .with_snapshot_every(every)
                    .with_group_slice(GroupSlice::new(i, 2)),
                "127.0.0.1:0",
                1,
            )
            .expect("shard server")
        })
        .collect();
    let links = shard_servers
        .iter()
        .map(|s| ShardLink::connect(s.local_addr()).expect("link"))
        .collect();
    let coord = ShardCoordinator::start(
        CoordinatorConfig::new(cfg).with_snapshot_every(every),
        links,
    )
    .expect("coordinator");
    let front = CoordinatorServer::start(coord, "127.0.0.1:0", 2).expect("front-end");
    let standalone = Server::start(
        ServeConfig::new(cfg).with_snapshot_every(every),
        "127.0.0.1:0",
        1,
    )
    .expect("standalone server");

    let mut to_cluster = RawConn::connect(front.local_addr());
    let mut to_single = RawConn::connect(standalone.local_addr());

    let stream = fixed_stream(40);
    let mut ingest_lines: Vec<String> = Vec::new();
    for chunk in stream.chunks(9) {
        let mut line = "INGEST".to_string();
        for e in chunk {
            line.push_str(&format!(" {} {}", e.u(), e.v()));
        }
        ingest_lines.push(line);
    }
    let probes: Vec<&str> = ingest_lines
        .iter()
        .map(String::as_str)
        .chain([
            "FLUSH",
            "QUERY GLOBAL",
            "QUERY LOCAL 1",
            "QUERY LOCAL 5",
            "TOPK 4",
            "USE default",
            // Shared grammar errors come from the same parser.
            "QUERY LOCAL x",
            "INGEST 1 2 3",
            "NONSENSE",
        ])
        .collect();
    for line in probes {
        assert_eq!(
            to_cluster.send(line),
            to_single.send(line),
            "diverged on {line:?}"
        );
    }
    // The one intentionally cluster-specific reply.
    let health = to_cluster.send("HEALTH");
    assert!(
        health.starts_with("OK HEALTH tenant=default state=ok shards=2/2"),
        "{health}"
    );

    drop(to_cluster);
    drop(to_single);
    let coord = front.shutdown();
    assert_eq!(coord.position(), stream.len() as u64);
    standalone.shutdown();
    for server in shard_servers {
        server.shutdown();
    }
}

/// What a scripted shard does with one request line.
enum Act {
    /// Relay the line to the real shard server and its reply back.
    Forward,
    /// Answer `ERR BUSY` without relaying (the line is not applied).
    Busy,
    /// Close the connection without a reply.
    Close,
}

/// A scripted shard: accepts one connection and relays each request
/// line, and its reply block, to a real shard server at `target`,
/// except where `script` says otherwise. Signals `closed` once it has
/// closed the connection. Returns every line it received.
fn scripted_shard(
    target: std::net::SocketAddr,
    mut script: impl FnMut(&str) -> Act + Send + 'static,
    closed: Option<mpsc::Sender<()>>,
) -> (std::net::SocketAddr, std::thread::JoinHandle<Vec<String>>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let relay = std::thread::spawn(move || {
        let (conn, _) = listener.accept().expect("accept");
        let mut down = conn.try_clone().expect("clone");
        let mut from_coordinator = BufReader::new(conn);
        let upstream = TcpStream::connect(target).expect("connect upstream");
        let mut up = upstream.try_clone().expect("clone");
        let mut from_shard = BufReader::new(upstream);
        let mut seen = Vec::new();
        loop {
            let mut line = String::new();
            if from_coordinator.read_line(&mut line).expect("request") == 0 {
                return seen;
            }
            seen.push(line.trim_end().to_string());
            match script(line.trim_end()) {
                Act::Forward => {
                    up.write_all(line.as_bytes()).expect("relay request");
                    let mut reply = String::new();
                    from_shard.read_line(&mut reply).expect("reply");
                    let body = protocol::reply_field(reply.trim_end(), "lines")
                        .map_or(0, |n| n.parse().expect("lines="));
                    for _ in 0..body {
                        from_shard.read_line(&mut reply).expect("body line");
                    }
                    down.write_all(reply.as_bytes()).expect("relay reply");
                }
                Act::Busy => down.write_all(b"ERR BUSY scripted\n").expect("busy reply"),
                Act::Close => {
                    drop(down);
                    drop(from_coordinator);
                    if let Some(closed) = closed {
                        closed.send(()).expect("closed signal");
                    }
                    return seen;
                }
            }
        }
    });
    (addr, relay)
}

/// How long a scripted shard waits for the other shard's side of an
/// interleaving before it gives up (and the test fails).
const INTERLEAVE_WAIT: Duration = Duration::from_secs(20);

/// The real shard servers behind two scripted shards, and the batches
/// the coordinator feeds through them.
struct Scripted {
    cfg: ReptConfig,
    servers: Vec<Server>,
    batches: Vec<Vec<Edge>>,
}

impl Scripted {
    /// Two real shard servers and a stream of three-line batches.
    fn new() -> Self {
        let cfg = ReptConfig::new(2, 8)
            .with_seed(11)
            .with_eta(true)
            .with_locals(true);
        let servers = sliced_servers(cfg, Engine::default(), 2, 64);
        let batch = 3 * INGEST_CHUNK - INGEST_CHUNK / 4;
        let stream = fixed_stream(batch as u32);
        let batches: Vec<Vec<Edge>> = stream.chunks(batch).map(<[Edge]>::to_vec).collect();
        assert!(batches.len() > 1, "lines follow the first batch");
        assert_eq!(batches[0].len().div_ceil(INGEST_CHUNK), 3);
        Self {
            cfg,
            servers,
            batches,
        }
    }

    fn coordinator(&self, links: Vec<ShardLink>) -> ShardCoordinator {
        ShardCoordinator::start(
            CoordinatorConfig::new(self.cfg).with_snapshot_every(64),
            links,
        )
        .expect("coordinator")
    }

    /// The request lines a shard should receive for the whole stream.
    fn ingest_lines(&self) -> Vec<String> {
        let mut lines = Vec::new();
        for batch in &self.batches {
            for line in batch.chunks(INGEST_CHUNK) {
                let mut text = "INGEST".to_string();
                for e in line {
                    text.push_str(&format!(" {} {}", e.u(), e.v()));
                }
                lines.push(text);
            }
        }
        lines
    }
}

/// A shard that answers one `INGEST` line with `ERR BUSY` while the
/// other shard has the same line in flight: only that shard gets the
/// line again, no shard is marked dead, and the replies still match a
/// standalone core's.
#[test]
fn busy_shard_gets_only_its_line_again_and_no_shard_dies() {
    let cluster = Scripted::new();
    const REFUSED: usize = 2; // the third INGEST line: the first batch's last
    let (in_flight, on_shard_one) = mpsc::channel::<()>();
    let mut lines_seen = 0;
    let (zero, zero_relay) = scripted_shard(
        cluster.servers[0].local_addr(),
        move |line| {
            if !line.starts_with("INGEST") {
                return Act::Forward;
            }
            lines_seen += 1;
            if lines_seen - 1 != REFUSED {
                return Act::Forward;
            }
            // Refuse only once the other shard has this line too.
            on_shard_one
                .recv_timeout(INTERLEAVE_WAIT)
                .expect("the line was not in flight on both shards");
            Act::Busy
        },
        None,
    );
    let mut lines_seen_one = 0;
    let (one, one_relay) = scripted_shard(
        cluster.servers[1].local_addr(),
        move |line| {
            if line.starts_with("INGEST") {
                if lines_seen_one == REFUSED {
                    in_flight.send(()).expect("signal shard 0");
                }
                lines_seen_one += 1;
            }
            Act::Forward
        },
        None,
    );
    let links = [zero, one]
        .iter()
        .map(|&a| ShardLink::connect(a).expect("link"))
        .collect();
    let mut coord = cluster.coordinator(links);
    for batch in &cluster.batches {
        coord.ingest(batch.clone()).expect("ingest");
    }
    coord.flush();
    assert_eq!(coord.alive_count(), 2, "a busy shard is not a dead one");
    let snap = coord.snapshot();
    drop(coord);

    let want = cluster.ingest_lines();
    let zero_lines: Vec<String> = zero_relay.join().expect("shard 0 relay");
    let one_lines: Vec<String> = one_relay.join().expect("shard 1 relay");
    let ingests = |seen: &[String]| -> Vec<String> {
        seen.iter()
            .filter(|l| l.starts_with("INGEST"))
            .cloned()
            .collect()
    };
    let mut retried = want.clone();
    retried.insert(REFUSED, want[REFUSED].clone());
    assert_eq!(
        ingests(&zero_lines),
        retried,
        "shard 0 gets the refused line twice, in place"
    );
    assert_eq!(ingests(&one_lines), want, "shard 1 gets every line once");

    let standalone = ServeCore::start(ServeConfig::new(cluster.cfg).with_snapshot_every(64))
        .expect("standalone");
    for batch in &cluster.batches {
        standalone.ingest(batch.clone()).expect("ingest");
    }
    standalone.flush();
    let want_snap = standalone.snapshot();
    standalone.shutdown();
    assert_eq!(
        query_replies(&snap, &QUERY_NODES),
        query_replies(&want_snap, &QUERY_NODES)
    );
    assert_eq!(
        canonical_stats(&stats_reply(&snap), false),
        canonical_stats(&stats_reply(&want_snap), false)
    );
    for server in cluster.servers {
        server.shutdown();
    }
}

/// A shard that closes its connection while the other shard's line is
/// in flight is marked dead (`shards=1/2`); the survivor's reply to that
/// line is still read, so its next request gets its own reply, and the
/// degraded answers are exactly those of a cluster that lost the shard
/// outright.
#[test]
fn shard_closing_mid_line_is_marked_dead_and_the_survivor_stays_in_step() {
    let cluster = Scripted::new();
    const DIES_AT: usize = 1; // the second INGEST line, mid-batch
    let (in_flight, on_shard_one) = mpsc::channel::<()>();
    let (closed, on_close) = mpsc::channel::<()>();
    let mut lines_seen = 0;
    let (zero, zero_relay) = scripted_shard(
        cluster.servers[0].local_addr(),
        move |line| {
            if !line.starts_with("INGEST") {
                return Act::Forward;
            }
            lines_seen += 1;
            if lines_seen - 1 != DIES_AT {
                return Act::Forward;
            }
            // Die only once the other shard has this line too.
            on_shard_one
                .recv_timeout(INTERLEAVE_WAIT)
                .expect("the line was not in flight on both shards");
            Act::Close
        },
        Some(closed),
    );
    let mut lines_seen_one = 0;
    let (one, one_relay) = scripted_shard(
        cluster.servers[1].local_addr(),
        move |line| {
            if line.starts_with("INGEST") {
                if lines_seen_one == DIES_AT {
                    // Hold the survivor's reply until shard 0 is gone.
                    in_flight.send(()).expect("signal shard 0");
                    on_close
                        .recv_timeout(INTERLEAVE_WAIT)
                        .expect("shard 0 closed its connection");
                }
                lines_seen_one += 1;
            }
            Act::Forward
        },
        None,
    );
    let links = [zero, one]
        .iter()
        .map(|&a| ShardLink::connect(a).expect("link"))
        .collect();
    let mut coord = cluster.coordinator(links);
    let mut position = 0;
    for batch in &cluster.batches {
        position += coord
            .ingest(batch.clone())
            .expect("a survivor keeps ingest up") as u64;
    }
    // The survivor's next request after the death is this barrier's
    // AGGREGATE: a stale INGEST reply here would fail its parse and
    // take the last shard down too.
    assert_eq!(coord.flush(), position);
    let health = format_cluster_health(&coord.health());
    assert!(health.contains("state=degraded shards=1/2"), "{health}");
    let degraded = coord.snapshot();
    assert_eq!(degraded.position, position);
    drop(coord);
    zero_relay.join().expect("shard 0 relay");
    let one_lines = one_relay.join().expect("shard 1 relay");
    assert_eq!(
        one_lines.iter().filter(|l| l.starts_with("INGEST")).count(),
        cluster.ingest_lines().len(),
        "the survivor got every line once"
    );

    // The same cluster losing shard 0 before the stream starts.
    let cores = sliced_cores(cluster.cfg, Engine::default(), 2, 64, None);
    let mut reference = coordinator_over(&cores, cluster.cfg, Engine::default(), 64);
    reference.kill_shard(0);
    for batch in &cluster.batches {
        reference.ingest(batch.clone()).expect("ingest");
    }
    reference.flush();
    let want = reference.snapshot();
    assert_eq!(
        query_replies(&degraded, &QUERY_NODES),
        query_replies(&want, &QUERY_NODES)
    );
    assert_eq!(degraded.c, want.c);
    for server in cluster.servers {
        server.shutdown();
    }
}

/// One shard's sample of a counter family in a coordinator `METRICS`
/// scrape.
fn shard_sample(text: &str, name: &str, shard: u32) -> u64 {
    let prefix = format!("{name}{{shard=\"{shard}\",tenant=\"default\"}} ");
    text.lines()
        .find_map(|l| l.strip_prefix(&prefix))
        .map_or_else(
            || panic!("no {name} for shard {shard} in:\n{text}"),
            |v| v.parse().expect("integer sample"),
        )
}

/// One fsync per line, end to end: a producer's `Client::ingest`
/// through a `CoordinatorServer` to two journaled TCP shards (the shape
/// of servebench's `ws-durable-shards`) costs each shard exactly one
/// applied batch and one fsync per [`INGEST_CHUNK`]-edge line.
#[test]
fn each_shard_pays_one_fsync_per_ingest_line_through_the_coordinator() {
    const EDGES: u32 = 6145;
    let cfg = ReptConfig::new(2, 4).with_seed(13).with_eta(true);
    let root = unique_root("fsync-per-line");
    std::fs::create_dir_all(&root).expect("mk root");
    let shards: Vec<Server> = (0..2u32)
        .map(|i| {
            let sc = ServeConfig::new(cfg)
                .with_group_slice(GroupSlice::new(i, 2))
                .with_checkpoint(root.join(format!("shard{i}.rpck")), None)
                .with_journal();
            Server::start(sc, "127.0.0.1:0", 1).expect("shard server")
        })
        .collect();
    let links = shards
        .iter()
        .map(|s| ShardLink::connect(s.local_addr()).expect("link"))
        .collect();
    let coord = ShardCoordinator::start(CoordinatorConfig::new(cfg), links).expect("coordinator");
    let front = CoordinatorServer::start(coord, "127.0.0.1:0", 1).expect("front end");
    let mut client = Client::connect(front.local_addr()).expect("connect");
    let counts = |client: &mut Client| -> Vec<[u64; 2]> {
        let text = client.metrics().expect("scrape");
        (0..2)
            .map(|i| {
                [
                    shard_sample(&text, "rept_journal_fsyncs_total", i),
                    shard_sample(&text, "rept_ingest_batches_total", i),
                ]
            })
            .collect()
    };

    let before = counts(&mut client);
    let edges: Vec<Edge> = (0..EDGES).map(|i| Edge::new(i % 300, 300 + i)).collect();
    assert_eq!(client.ingest(&edges).expect("ingest"), EDGES as usize);
    // A shard acks a line before it applies it. The flush waits for the
    // apply, and adds no fsync: everything it covers is synced already.
    assert_eq!(client.flush().expect("flush"), EDGES as u64);
    let after = counts(&mut client);
    let lines = EDGES.div_ceil(INGEST_CHUNK as u32) as u64;
    for shard in 0..2 {
        let [fsyncs, batches] = [0, 1].map(|k| after[shard][k] - before[shard][k]);
        assert_eq!(fsyncs, lines, "shard {shard}: one fsync per line");
        assert_eq!(batches, lines, "shard {shard}: one batch per line");
    }
    drop(client);
    front.shutdown();
    for shard in shards {
        shard.shutdown();
    }
    std::fs::remove_dir_all(&root).ok();
}

/// The standalone core's snapshot after `stream`, fed in `batch`-edge
/// chunks and flushed — what a cluster's replies must equal.
fn standalone_snapshot(
    cfg: ReptConfig,
    engine: Engine,
    stream: &[Edge],
    batch: usize,
    every: u64,
) -> Arc<Snapshot> {
    let standalone = ServeCore::start(
        ServeConfig::new(cfg)
            .with_engine(engine)
            .with_snapshot_every(every),
    )
    .expect("standalone");
    for chunk in stream.chunks(batch) {
        standalone.ingest(chunk.to_vec()).expect("ingest");
    }
    standalone.flush();
    let snap = standalone.snapshot();
    standalone.shutdown();
    snap
}

/// A cluster snapshot answers exactly like the standalone one: query
/// replies and `STATS` byte for byte, physical fields aside, and the
/// publication counters too — the cluster published at its own flushes.
fn assert_same_answers(got: &Snapshot, want: &Snapshot) {
    assert_eq!(
        query_replies(got, &QUERY_NODES),
        query_replies(want, &QUERY_NODES)
    );
    assert_eq!(
        canonical_stats(&stats_reply(got), true),
        canonical_stats(&stats_reply(want), true)
    );
}

/// A shard checkpoint does not move its exchange base: the exchanges
/// after an orchestrated checkpoint are still deltas, and the cluster
/// still answers like a standalone core.
#[test]
fn deltas_run_across_an_orchestrated_checkpoint() {
    let cfg = ReptConfig::new(2, 11)
        .with_seed(3)
        .with_eta(true)
        .with_locals(true);
    let engine = Engine::default();
    let stream = fixed_stream(120);
    let (head, tail) = stream.split_at(stream.len() / 2);
    let root = unique_root("delta-ckpt");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mk root");

    let cores = sliced_cores(cfg, engine, 3, 16, Some(&root));
    let mut coord = coordinator_over(&cores, cfg, engine, 16);
    for chunk in head.chunks(7) {
        coord.ingest(chunk.to_vec()).expect("ingest");
    }
    assert_eq!(coord.checkpoint(), Ok(head.len() as u64));
    let before = coord.metrics().delta_exchanges.get();
    for chunk in tail.chunks(7) {
        coord.ingest(chunk.to_vec()).expect("ingest");
    }
    coord.flush();
    let metrics = coord.metrics();
    assert_eq!(metrics.full_exchanges.get(), 3, "full only at start");
    assert!(
        metrics.delta_exchanges.get() > before,
        "deltas after the checkpoint"
    );
    assert_same_answers(
        &coord.snapshot(),
        &standalone_snapshot(cfg, engine, &stream, 7, 16),
    );
    drop(coord);
    drop(cores);
    std::fs::remove_dir_all(&root).ok();
}

/// A relay in front of a shard server that opens a fresh upstream
/// connection per request, to whatever address `upstream` holds at the
/// time: the coordinator keeps its one connection while the shard
/// process behind it is replaced.
fn switchable_shard(upstream: Arc<Mutex<SocketAddr>>) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let relay = std::thread::spawn(move || {
        let (conn, _) = listener.accept().expect("accept");
        let mut down = conn.try_clone().expect("clone");
        let mut from_coordinator = BufReader::new(conn);
        loop {
            let mut line = String::new();
            if from_coordinator.read_line(&mut line).expect("request") == 0 {
                return;
            }
            let target = *upstream.lock().expect("upstream");
            let mut up = TcpStream::connect(target).expect("connect upstream");
            up.write_all(line.as_bytes()).expect("relay request");
            let mut from_shard = BufReader::new(up);
            let mut reply = String::new();
            from_shard.read_line(&mut reply).expect("reply");
            let body = protocol::reply_field(reply.trim_end(), "lines")
                .map_or(0, |n| n.parse().expect("lines="));
            for _ in 0..body {
                from_shard.read_line(&mut reply).expect("body line");
            }
            down.write_all(reply.as_bytes()).expect("relay reply");
        }
    });
    (addr, relay)
}

/// A shard restarted behind the coordinator — from its own checkpoint
/// and journal, at the same position, with the coordinator none the
/// wiser — has no exchange base: it answers the next `AGGREGATE SINCE`
/// in full, once, and the cluster still answers like a standalone core.
#[test]
fn a_shard_restarted_behind_the_coordinator_answers_in_full() {
    let cfg = ReptConfig::new(2, 8)
        .with_seed(13)
        .with_eta(true)
        .with_locals(true);
    let stream = fixed_stream(300);
    let (head, tail) = stream.split_at(stream.len() / 2);
    let root = unique_root("restart");
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mk root");
    let shard_cfg = |i: u32| {
        ServeConfig::new(cfg)
            .with_snapshot_every(64)
            .with_group_slice(GroupSlice::new(i, 2))
            .with_checkpoint(root.join(format!("shard{i}.rpck")), None)
            .with_journal()
    };
    let zero = Server::start(shard_cfg(0), "127.0.0.1:0", 1).expect("shard 0");
    let one = Server::start(shard_cfg(1), "127.0.0.1:0", 1).expect("shard 1");
    let upstream = Arc::new(Mutex::new(one.local_addr()));
    let (relay_addr, relay) = switchable_shard(Arc::clone(&upstream));
    let links = vec![
        ShardLink::connect(zero.local_addr()).expect("link 0"),
        ShardLink::connect(relay_addr).expect("link 1"),
    ];
    let mut coord =
        ShardCoordinator::start(CoordinatorConfig::new(cfg).with_snapshot_every(64), links)
            .expect("coordinator");
    for chunk in head.chunks(50) {
        coord.ingest(chunk.to_vec()).expect("ingest");
    }
    coord.flush();
    let full = coord.metrics().full_exchanges.get();
    assert_eq!(full, 2, "full only at start so far");

    one.shutdown();
    let one = Server::start(shard_cfg(1), "127.0.0.1:0", 1).expect("restarted shard 1");
    assert_eq!(
        one.core().position(),
        head.len() as u64,
        "resumed losslessly"
    );
    *upstream.lock().expect("upstream") = one.local_addr();
    for chunk in tail.chunks(50) {
        coord.ingest(chunk.to_vec()).expect("ingest");
    }
    coord.flush();
    assert_eq!(coord.alive_count(), 2, "a lost base is not a dead shard");
    assert_eq!(
        coord.metrics().full_exchanges.get(),
        full + 1,
        "one full reply from the restarted shard"
    );
    assert_same_answers(
        &coord.snapshot(),
        &standalone_snapshot(cfg, Engine::default(), &stream, 50, 64),
    );
    drop(coord);
    relay.join().expect("relay");
    zero.shutdown();
    one.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

/// Per-worker shards do not track touched nodes, so every exchange is a
/// full reply — and the answers are the standalone core's.
#[test]
fn per_worker_shards_send_full_replies() {
    let cfg = ReptConfig::new(2, 11)
        .with_seed(17)
        .with_eta(true)
        .with_locals(true);
    let stream = fixed_stream(80);
    let cores = sliced_cores(cfg, Engine::PerWorker, 2, 16, None);
    let mut coord = coordinator_over(&cores, cfg, Engine::PerWorker, 16);
    for chunk in stream.chunks(9) {
        coord.ingest(chunk.to_vec()).expect("ingest");
    }
    coord.flush();
    let metrics = coord.metrics();
    assert_eq!(metrics.delta_exchanges.get(), 0);
    assert!(
        metrics.full_exchanges.get() > 2,
        "every publication exchanged"
    );
    assert_same_answers(
        &coord.snapshot(),
        &standalone_snapshot(cfg, Engine::PerWorker, &stream, 9, 16),
    );
}

/// A second requester's `AGGREGATE` between two of the coordinator's
/// exchanges moves that shard's base, so the coordinator's next
/// `AGGREGATE SINCE` to it gets a full reply; the other shard keeps
/// answering deltas, and the answers stay the standalone core's.
#[test]
fn a_second_requester_forces_full_replies_with_the_same_answers() {
    let cfg = ReptConfig::new(2, 11)
        .with_seed(19)
        .with_eta(true)
        .with_locals(true);
    let engine = Engine::default();
    let stream = fixed_stream(120);
    let every = 10_000; // publish on the explicit flushes only
    let cores = sliced_cores(cfg, engine, 2, every, None);
    let mut coord = coordinator_over(&cores, cfg, engine, every);
    let batches: Vec<&[Edge]> = stream.chunks(30).collect();
    let mut interleaved = 0;
    for (k, batch) in batches.iter().enumerate() {
        coord.ingest(batch.to_vec()).expect("ingest");
        if k % 2 == 0 {
            let (position, _) = cores[0].aggregates().expect("second requester");
            assert_eq!(position, coord.position());
            interleaved += 1;
        }
        coord.flush();
    }
    let metrics = coord.metrics();
    assert_eq!(metrics.full_exchanges.get(), 2 + interleaved);
    assert_eq!(
        metrics.delta_exchanges.get(),
        2 * batches.len() as u64 - interleaved
    );
    assert_same_answers(
        &coord.snapshot(),
        &standalone_snapshot(cfg, engine, &stream, 30, every),
    );
}

/// Queries on the coordinator's front end read its published snapshot,
/// not the coordinator: a `QUERY GLOBAL` answers while another thread
/// holds the coordinator's lock (as a long `INGEST` line would).
#[test]
fn front_end_queries_answer_while_the_coordinator_is_locked() {
    let cfg = ReptConfig::new(2, 8).with_seed(23).with_locals(true);
    let cores = sliced_cores(cfg, Engine::default(), 2, 8, None);
    let mut coord = coordinator_over(&cores, cfg, Engine::default(), 8);
    coord.ingest(fixed_stream(20)).expect("ingest");
    coord.flush();
    let want = protocol::format_global(&coord.snapshot());
    let front = CoordinatorServer::start(coord, "127.0.0.1:0", 2).expect("front end");
    let (locked, on_locked) = mpsc::channel();
    let (release, on_release) = mpsc::channel::<()>();
    std::thread::scope(|scope| {
        let front = &front;
        let holder = scope.spawn(move || {
            let guard = front.coordinator().lock().expect("coordinator lock");
            locked.send(()).expect("signal locked");
            on_release.recv().expect("release");
            drop(guard);
        });
        on_locked.recv().expect("the lock is held");
        let config = ClientConfig::default().with_read_timeout(Duration::from_secs(20));
        let mut client = Client::connect_with(front.local_addr(), config).expect("connect");
        let reply = client.request("QUERY GLOBAL");
        release.send(()).expect("release the lock");
        holder.join().expect("holder");
        assert_eq!(reply.expect("answered under the lock"), want);
    });
    front.shutdown();
}

/// A request that panics while it holds the coordinator poisons its
/// lock: queries still answer from the published snapshot, and the
/// verbs that need the coordinator get an `ERR` instead of killing
/// their handler thread.
#[test]
fn a_poisoned_coordinator_answers_err_not_a_dead_server() {
    let cfg = ReptConfig::new(2, 8).with_seed(23).with_locals(true);
    let cores = sliced_cores(cfg, Engine::default(), 2, 8, None);
    let mut coord = coordinator_over(&cores, cfg, Engine::default(), 8);
    coord.ingest(fixed_stream(20)).expect("ingest");
    coord.flush();
    let want = protocol::format_global(&coord.snapshot());
    let front = CoordinatorServer::start(coord, "127.0.0.1:0", 1).expect("front end");
    std::thread::scope(|scope| {
        let poisoner = scope.spawn(|| {
            let _guard = front.coordinator().lock().expect("coordinator lock");
            panic!("a request panics while it holds the coordinator");
        });
        assert!(poisoner.join().is_err());
    });
    assert!(front.coordinator().is_poisoned());
    let config = ClientConfig::default().with_read_timeout(Duration::from_secs(20));
    let mut client = Client::connect_with(front.local_addr(), config).expect("connect");
    for _ in 0..2 {
        let refused = client.flush().expect_err("FLUSH answers ERR");
        assert!(
            refused.to_string().contains("coordinator unavailable"),
            "{refused}"
        );
    }
    assert_eq!(client.request("QUERY GLOBAL").expect("answered"), want);
}

/// A shard behind a coordinator publishes only at barriers: its
/// coordinator reads its counters over `AGGREGATE SINCE`, so each of its
/// cadence points after an exchange passes without a publication. Over
/// N cadence intervals the coordinator's `seq` advances by N and each
/// shard's stays put; `FLUSH` on a shard publishes at its exact
/// position; and once the coordinator stops exchanging, the shard
/// publishes at the first cadence point whose interval held no
/// exchange.
#[test]
fn shards_behind_a_coordinator_publish_only_at_barriers() {
    const EVERY: usize = 64;
    const N: u64 = 5;
    let cfg = ReptConfig::new(2, 8).with_seed(17).with_locals(true); // 4 hash groups
    let engine = Engine::default();
    let stream: Vec<Edge> = (0..(N as u32 + 2) * EVERY as u32 + 10)
        .map(|i| Edge::new(i % 53, 53 + (i * 7 + 3) % 59))
        .collect();
    let (clustered, direct) = stream.split_at(N as usize * EVERY);
    let cores = sliced_cores(cfg, engine, 2, EVERY as u64, None);
    let published = |core: &ServeCore| core.metrics().snapshots_published.get();
    let skipped = |core: &ServeCore| core.metrics().publish_skipped.get();

    let mut coord = coordinator_over(&cores, cfg, engine, EVERY as u64);
    let seq = coord.snapshot().seq;
    for chunk in clustered.chunks(EVERY) {
        coord.ingest(chunk.to_vec()).expect("ingest");
    }
    // Each cadence publication exchanged with every shard after the
    // shard had applied the batch, so the shards stand where it does.
    assert_eq!(coord.snapshot().seq, seq + N);
    for core in &cores {
        assert_eq!(
            core.snapshot().seq,
            0,
            "no shard publication between barriers"
        );
        assert_eq!((published(core), skipped(core)), (0, N));
    }

    let position = clustered.len() as u64;
    assert_eq!(cores[0].flush(), position);
    let snap = cores[0].snapshot();
    assert_eq!(
        (snap.position, snap.seq),
        (position, 1),
        "FLUSH publishes at once"
    );
    drop(coord);

    // Without a coordinator: the interval that held its last exchange
    // ends in a skip, the next one in a publication; the FLUSH then
    // publishes the 10 edges past it.
    for core in &cores {
        let before = (published(core), skipped(core));
        for chunk in direct.chunks(EVERY) {
            core.ingest(chunk.to_vec()).expect("direct ingest");
        }
        core.flush();
        assert_eq!(core.position(), stream.len() as u64);
        assert_eq!(
            (published(core), skipped(core)),
            (before.0 + 2, before.1 + 1),
            "one skip, then a cadence publication and the FLUSH"
        );
    }
}
