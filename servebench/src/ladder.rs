//! The traced run: each workload's exact stream and batch boundaries
//! replayed up a ladder of rungs, each adding one layer of the ingest
//! path, with a span around every call into a layer's public functions.
//! No code below the socket can be spanned from outside, so the layers
//! are separated by what each rung adds:
//!
//! | rung | spanned calls | batches |
//! |---|---|---|
//! | 1 client | `Client::ingest` against a null line server that replies `OK INGEST n` and records the wire lines | producer (4096) |
//! | 2 protocol | `protocol::parse` over the recorded lines | wire line (256) |
//! | 3 engine | `EngineCore::ingest_batch` (and at producer batches, for comparison) | wire line |
//! | 4 snapshot | `ResumableRun::process_batch`, `Snapshot::from_estimate` every 4096 edges | wire line |
//! | 5 journal, resume | `Journal::append_deferred`/`sync`, `checkpoint_to_file` at the checkpoint cadence | wire line |
//! | 6 core | `ServeCore::ingest`/`flush` | wire line |
//! | 7 server | `Client::ingest` against an in-process TCP `Server` | producer |
//! | 8 shard | `ShardCoordinator::ingest`/`flush` over `ShardLink::local`, then a TCP `CoordinatorServer` | wire line, producer |
//!
//! Rungs 5 and 8 run on the durable workload only; its rungs start from
//! the frozen state, applied untimed. A layer's self time is its rung
//! minus the rung below; the journal and resume layers, whose calls are
//! separable, take their own spans. The ledger prints each layer's ns per
//! edge and share of the untraced wall time beside the live run's own
//! `METRICS` histograms, and the tracing overhead. Self times are work,
//! not wall: the server's threads overlap, so the shares can sum past
//! 100%, and a layer whose rung overlaps the one below (the server rung
//! on an engine-bound stream) can read negative.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use rept_core::resume::ResumableRun;
use rept_core::{EngineCore, Rept};
use rept_graph::edge::Edge;
use rept_serve::journal::Journal;
use rept_serve::protocol::{self, Command};
use rept_serve::{LiveStats, Published, ServeCore, Server, Snapshot};
use rept_shard::{CoordinatorServer, ShardCoordinator, ShardLink};

use crate::live::{connect, repeat_for, Inputs, Live, Pass};
use crate::stats::{mean, median, percentile, us, windowed_percentile};
use crate::workload::{
    fresh_dir, shard_dir, Frozen, Kind, Oracle, Workload, CHECKPOINT_EVERY, ENGINE, PRODUCER_BATCH,
    SHARDS, SNAPSHOT_EVERY, TOP_K, WIRE_LINE,
};
use crate::Outcome;

/// Share of `--seconds` the ladder gets; the live comparison the rest.
const LADDER_SHARE: f64 = 0.6;

/// One traced call: start and end in ns since the run's epoch, the
/// enclosing span, and the producer batch it served.
pub struct Span {
    name: &'static str,
    start: u64,
    end: u64,
    parent: Option<usize>,
    batch: u64,
}

/// The spans of one ladder repetition or live pass, kept in memory and
/// written out when the run ends.
pub struct Spans {
    epoch: Instant,
    label: String,
    /// In the order they were opened.
    pub spans: Vec<Span>,
}

impl Spans {
    /// An empty recorder on the run's clock.
    pub fn new(epoch: Instant, label: impl Into<String>) -> Self {
        Self {
            epoch,
            label: label.into(),
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for another thread.
    pub fn fork(&self, label: &str) -> Self {
        Self::new(self.epoch, format!("{}.{label}", self.label))
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; [`Self::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, batch: u64) -> usize {
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            batch,
        });
        self.spans.len() - 1
    }

    /// Ends span `id`.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        batch: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, batch);
        let out = f();
        self.close(id);
        out
    }

    /// Total ns of every span named `name`.
    fn total(&self, name: &str) -> u64 {
        self.named(name).map(|s| s.end - s.start).sum()
    }

    /// Durations in µs of every span named `name`.
    fn durations_us(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| (s.end - s.start) as f64 / 1e3)
            .collect()
    }

    fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Summed self time of every span that has children: what the
    /// benchmark's own loops cost between the layer calls.
    fn harness_ns(&self) -> u64 {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .filter(|(_, c)| !c.is_empty())
            .map(|(s, c)| self_time((s.start, s.end), c))
            .sum()
    }
}

/// A span's duration minus the part of its interval that its child
/// spans cover; overlapping children count once, and a child's part
/// outside the span does not count.
pub fn self_time(span: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (start, end) = span;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(a, b)| (a.max(start), b.min(end)))
        .filter(|(a, b)| a < b)
        .collect();
    clipped.sort_unstable();
    let (mut covered, mut reach) = (0, start);
    for (a, b) in clipped {
        let a = a.max(reach);
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    (end - start).saturating_sub(covered)
}

/// A layer on the ingest path, in ledger order: its module, the
/// end-to-end metrics a change to it should move (and on which
/// workloads), and its ledger metrics.
struct Layer {
    name: &'static str,
    module: &'static str,
    moves: &'static str,
    self_ns: &'static str,
    share: &'static str,
}

const LAYERS: [Layer; 9] = [
    Layer {
        name: "client",
        module: "rept_serve::client",
        moves: "ingest_eps, ingest_ack_p50_us on ba-wire",
        self_ns: "ledger.client.self_ns_per_edge",
        share: "ledger.client.wall_share",
    },
    Layer {
        name: "protocol",
        module: "rept_serve::protocol",
        moves: "ingest_eps on ba-wire; query_p50_us on chunglu-hubs",
        self_ns: "ledger.protocol.self_ns_per_edge",
        share: "ledger.protocol.wall_share",
    },
    Layer {
        name: "server",
        module: "rept_serve::server",
        moves: "ingest_eps, ingest_ack_p50_us on ba-wire; no change predicted on chunglu-hubs",
        self_ns: "ledger.server.self_ns_per_edge",
        share: "ledger.server.wall_share",
    },
    Layer {
        name: "core",
        module: "rept_serve::core",
        moves: "ingest_ack_p99_us, ingest_eps on chunglu-hubs, ba-wire",
        self_ns: "ledger.core.self_ns_per_edge",
        share: "ledger.core.wall_share",
    },
    Layer {
        name: "engine",
        module: "rept_core::engine",
        moves: "ingest_eps, stored_mb on chunglu-hubs, ws-durable-shards; no change predicted on ba-wire",
        self_ns: "ledger.engine.self_ns_per_edge",
        share: "ledger.engine.wall_share",
    },
    Layer {
        name: "snapshot",
        module: "rept_serve::snapshot, ResumableRun::estimate",
        moves: "freshness_p99_ms, ingest_eps on ws-durable-shards; query_p50_us on chunglu-hubs",
        self_ns: "ledger.snapshot.self_ns_per_edge",
        share: "ledger.snapshot.wall_share",
    },
    Layer {
        name: "journal",
        module: "rept_serve::journal",
        moves: "ingest_ack_p50_us, setup_s on ws-durable-shards",
        self_ns: "ledger.journal.self_ns_per_edge",
        share: "ledger.journal.wall_share",
    },
    Layer {
        name: "resume",
        module: "rept_core::resume",
        moves: "setup_s on ws-durable-shards",
        self_ns: "ledger.resume.self_ns_per_edge",
        share: "ledger.resume.wall_share",
    },
    Layer {
        name: "shard",
        module: "rept_shard",
        moves: "ingest_eps, ingest_ack_p99_us on ws-durable-shards",
        self_ns: "ledger.shard.self_ns_per_edge",
        share: "ledger.shard.wall_share",
    },
];

/// Every per-layer metric of the traced run's result line, with its
/// unit, in `BENCHMARK.json` order. A layer that is not on a workload's
/// ingest path (journal, resume and shard outside `ws-durable-shards`)
/// reads 0 there.
const PER_LAYER: [(&str, &str); 57] = [
    ("client.ns_per_edge", "ns"),
    ("protocol.parse_ns_per_edge", "ns"),
    ("protocol.bytes_per_edge", "B"),
    ("protocol.reply_us", "us"),
    ("server.ns_per_edge", "ns"),
    ("server.self_ns_per_edge", "ns"),
    ("server.request_rtt_us", "us"),
    ("core.ns_per_edge", "ns"),
    ("core.queue_wait_us_p50", "us"),
    ("core.apply_us_p50", "us"),
    ("core.apply_busy_frac", "ratio"),
    ("core.busy_rejections", "count"),
    ("engine.ns_per_edge", "ns"),
    ("engine.ns_per_edge_4096", "ns"),
    ("engine.batch_overhead_us", "us"),
    ("engine.stored_bytes", "B"),
    ("snapshot.publish_us_p50", "us"),
    ("snapshot.publish_us_p99", "us"),
    ("snapshot.live_publish_us_p50", "us"),
    ("snapshot.publishes", "count"),
    ("snapshot.locals", "count"),
    ("snapshot.load_ns", "ns"),
    ("journal.append_us_p50", "us"),
    ("journal.fsync_us_p50", "us"),
    ("journal.live_append_us_p50", "us"),
    ("journal.live_fsync_us_p50", "us"),
    ("journal.bytes_per_edge", "B"),
    ("journal.recover_ms", "ms"),
    ("resume.checkpoint_bytes", "B"),
    ("resume.encode_ms", "ms"),
    ("resume.decode_ms", "ms"),
    ("shard.ns_per_edge", "ns"),
    ("shard.self_ns_per_edge", "ns"),
    ("shard.aggregate_us_p50", "us"),
    ("shard.aggregate_bytes", "B"),
    ("ledger.client.self_ns_per_edge", "ns"),
    ("ledger.protocol.self_ns_per_edge", "ns"),
    ("ledger.server.self_ns_per_edge", "ns"),
    ("ledger.core.self_ns_per_edge", "ns"),
    ("ledger.engine.self_ns_per_edge", "ns"),
    ("ledger.snapshot.self_ns_per_edge", "ns"),
    ("ledger.journal.self_ns_per_edge", "ns"),
    ("ledger.resume.self_ns_per_edge", "ns"),
    ("ledger.shard.self_ns_per_edge", "ns"),
    ("ledger.client.wall_share", "ratio"),
    ("ledger.protocol.wall_share", "ratio"),
    ("ledger.server.wall_share", "ratio"),
    ("ledger.core.wall_share", "ratio"),
    ("ledger.engine.wall_share", "ratio"),
    ("ledger.snapshot.wall_share", "ratio"),
    ("ledger.journal.wall_share", "ratio"),
    ("ledger.resume.wall_share", "ratio"),
    ("ledger.shard.wall_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.harness_ns_per_edge", "ns"),
    ("host.parallelism", "ratio"),
    ("loadgen.query_late_p99_us", "us"),
];

/// What the rungs replay: the live pass's part of the stream, after the
/// durable workload's frozen prefix.
struct Cx<'a> {
    w: Workload,
    prefix: &'a [Edge],
    tail: &'a [Edge],
    oracle: &'a Oracle,
    frozen: Option<&'a Frozen>,
    dir: PathBuf,
}

impl Cx<'_> {
    fn per_edge(&self, ns: u64) -> f64 {
        ns as f64 / self.tail.len() as f64
    }
}

/// One ladder repetition's values and oracle checks.
#[derive(Default)]
struct Rep {
    values: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
}

impl Rep {
    /// Counts one comparison of a rung's final `QUERY GLOBAL` line with
    /// the oracle's.
    fn check(&mut self, rung: &str, got: Option<String>, want: &str) {
        self.attempted += 1;
        if got.as_deref() != Some(want) {
            self.failed += 1;
            eprintln!("oracle mismatch in the {rung} rung: {got:?}, expected {want:?}");
        }
    }
}

/// Replays `tail` in producer batches split into wire lines, calling
/// `f(spans, parent, batch, line)` for each line under a `rung` span per
/// producer batch.
fn per_line(
    sp: &mut Spans,
    rung: &'static str,
    tail: &[Edge],
    mut f: impl FnMut(&mut Spans, usize, u64, &[Edge]),
) {
    for (b, batch) in tail.chunks(PRODUCER_BATCH).enumerate() {
        let parent = sp.open(rung, None, b as u64);
        for line in batch.chunks(WIRE_LINE) {
            f(sp, parent, b as u64, line);
        }
        sp.close(parent);
    }
}

/// Applies the frozen prefix untimed (one batch), so a rung starts from
/// the state the live passes resume.
fn warm(core: &ServeCore, prefix: &[Edge]) -> Result<(), String> {
    if !prefix.is_empty() {
        core.ingest(prefix.to_vec())
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    core.flush();
    Ok(())
}

fn snapshot_of(run: &ResumableRun, w: &Workload, seq: u64) -> Snapshot {
    Snapshot::from_estimate(
        &run.estimate(),
        &w.rept(),
        ENGINE,
        run.position(),
        seq,
        0,
        TOP_K,
    )
}

/// Median µs to format one reply of the workload's query mix from `snap`.
fn reply_us(w: &Workload, snap: &Snapshot) -> f64 {
    let live = LiveStats {
        stored_bytes: 0,
        journal_bytes: 0,
        journal_segments: 0,
        dlq: 0,
    };
    let times: Vec<f64> = (0..400)
        .map(|k| {
            let cmd = protocol::parse(&w.query_line(k)).expect("the query mix parses");
            let t = Instant::now();
            let reply = match cmd {
                Command::QueryGlobal => protocol::format_global(snap),
                Command::QueryLocal(v) => protocol::format_local(snap, v),
                Command::TopK(k) => protocol::format_top_k(snap, k),
                _ => protocol::format_stats(snap, &live),
            };
            let took = us(t.elapsed());
            black_box(reply);
            took
        })
        .collect();
    median(&times)
}

/// Rung 1: `Client::ingest` against a null line server; returns the
/// exact wire lines it received.
fn client_rung(cx: &Cx, sp: &mut Spans) -> Result<Vec<String>, String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("null server: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let server = s.spawn(move || -> std::io::Result<Vec<String>> {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            let mut writer = stream.try_clone()?;
            let mut reader = BufReader::new(stream);
            let mut lines = Vec::new();
            loop {
                let mut line = String::new();
                if reader.read_line(&mut line)? == 0 {
                    return Ok(lines);
                }
                let edges = line.split_ascii_whitespace().count().saturating_sub(1) / 2;
                writer.write_all(format!("OK INGEST {edges}\n").as_bytes())?;
                lines.push(line);
            }
        });
        let mut client = connect(addr)?;
        for (b, batch) in cx.tail.chunks(PRODUCER_BATCH).enumerate() {
            sp.time("client.ingest", None, b as u64, || client.ingest(batch))
                .map_err(|e| format!("null server ingest: {e}"))?;
        }
        drop(client);
        server
            .join()
            .expect("null server thread")
            .map_err(|e| format!("null server: {e}"))
    })
}

/// Rung 5 (durable workload): per wire line, the journal record and its
/// fsync, and at the checkpoint cadence a checkpoint plus journal
/// truncation; then the resume layer's own calls on the frozen state.
/// Returns the journal and resume ns per edge.
fn durable_rung(cx: &Cx, sp: &mut Spans, rep: &mut Rep) -> Result<(f64, f64), String> {
    let dir = cx.dir.join("journal");
    fresh_dir(&dir)?;
    let cfg = cx.w.serve_config(Some(&dir));
    let path = cfg
        .checkpoint_path
        .clone()
        .expect("durable configs checkpoint");
    let mut run = ResumableRun::with_engine(Rept::new(cfg.rept), ENGINE);
    run.process_batch(cx.prefix);
    let failed = |e: std::io::Error| format!("journal rung: {e}");
    let mut journal = Journal::recover(
        &path,
        cfg.journal_segment_bytes,
        cfg.journal_sync,
        run.position(),
    )
    .map_err(failed)?
    .journal;
    let (mut since, mut appended, mut error) = (0u64, 0u64, None);
    per_line(sp, "durable.batch", cx.tail, |sp, p, b, line| {
        let before = journal.bytes();
        let at = run.position();
        let written = sp
            .time("journal.append", Some(p), b, || {
                journal.append_deferred(at, line)
            })
            .and_then(|()| sp.time("journal.sync", Some(p), b, || journal.sync()));
        appended += journal.bytes().saturating_sub(before);
        sp.time("durable.process_batch", Some(p), b, || {
            run.process_batch(line)
        });
        since += line.len() as u64;
        let written = written.and_then(|()| {
            if since < CHECKPOINT_EVERY {
                return Ok(());
            }
            since = 0;
            sp.time("resume.checkpoint", Some(p), b, || {
                let written = run.checkpoint_to_file(&path);
                journal.truncate_to(run.position());
                written
            })
        });
        if let Err(e) = written {
            error.get_or_insert(e);
        }
    });
    if let Some(e) = error {
        return Err(failed(e));
    }
    let v = &mut rep.values;
    v.insert(
        "journal.append_us_p50",
        percentile(&sp.durations_us("journal.append"), 0.5),
    );
    v.insert(
        "journal.fsync_us_p50",
        percentile(&sp.durations_us("journal.sync"), 0.5),
    );
    v.insert(
        "journal.bytes_per_edge",
        appended as f64 / cx.tail.len() as f64,
    );

    // What a resuming shard pays at set-up: decode its checkpoint and
    // recover its journal tail; and what each checkpoint encodes.
    let frozen = cx.frozen.expect("the durable workload has a frozen state");
    let mut checkpoint_bytes = 0;
    for run in &frozen.runs {
        let blob = sp.time("resume.encode", None, 0, || run.checkpoint_bytes());
        sp.time("resume.decode", None, 0, || {
            ResumableRun::from_checkpoint_bytes(&blob)
        })
        .map_err(|e| format!("resume rung: {e}"))?;
        checkpoint_bytes += blob.len();
    }
    let copy = cx.dir.join("recover");
    frozen.copy_to(&copy)?;
    for i in 0..SHARDS {
        let cfg = cx.w.shard_config(i, &shard_dir(&copy, i));
        let path = cfg.checkpoint_path.expect("durable configs checkpoint");
        sp.time("journal.recover", None, 0, || {
            Journal::recover(
                &path,
                cfg.journal_segment_bytes,
                cfg.journal_sync,
                frozen.checkpoint_at as u64,
            )
        })
        .map_err(failed)?;
    }
    let ms = |name| sp.total(name) as f64 / 1e6;
    v.insert("resume.checkpoint_bytes", checkpoint_bytes as f64);
    v.insert("resume.encode_ms", ms("resume.encode"));
    v.insert("resume.decode_ms", ms("resume.decode"));
    v.insert("journal.recover_ms", ms("journal.recover"));
    Ok((
        cx.per_edge(sp.total("journal.append") + sp.total("journal.sync")),
        cx.per_edge(sp.total("resume.checkpoint")),
    ))
}

/// Rung 8 (durable workload): the coordinator over in-process sliced
/// cores, then over TCP shard servers behind its TCP front end. Returns
/// the TCP rung's ns per edge.
fn shard_rungs(cx: &Cx, sp: &mut Spans, rep: &mut Rep) -> Result<f64, String> {
    let w = &cx.w;
    let dir = cx.dir.join("shard-local");
    let mut cores = Vec::new();
    for i in 0..SHARDS {
        let shard = shard_dir(&dir, i);
        fresh_dir(&shard)?;
        let core =
            ServeCore::start(w.shard_config(i, &shard)).map_err(|e| format!("shard core: {e}"))?;
        warm(&core, cx.prefix)?;
        cores.push(Arc::new(core));
    }
    let links = cores
        .iter()
        .map(|c| ShardLink::local(Arc::clone(c)))
        .collect();
    // Publication only on the explicit flush after each producer batch:
    // the positions the 4096-edge cadence picks, with the aggregate
    // exchange in a span of its own.
    let mut coordinator =
        ShardCoordinator::start(w.coordinator_config().with_snapshot_every(u64::MAX), links)?;
    for (b, batch) in cx.tail.chunks(PRODUCER_BATCH).enumerate() {
        let b = b as u64;
        let p = sp.open("shard.batch", None, b);
        for line in batch.chunks(WIRE_LINE) {
            sp.time("shard.ingest", Some(p), b, || {
                coordinator.ingest(line.to_vec())
            })?;
        }
        sp.time("shard.flush", Some(p), b, || coordinator.flush());
        sp.close(p);
    }
    let local = cx.per_edge(sp.total("shard.ingest") + sp.total("shard.flush"));
    rep.check(
        "local coordinator",
        Some(protocol::format_global(&coordinator.snapshot())),
        &cx.oracle.global,
    );
    let (position, groups) = coordinator.aggregates()?;
    let v = &mut rep.values;
    v.insert("shard.ns_per_edge", local);
    v.insert(
        "shard.aggregate_us_p50",
        percentile(&sp.durations_us("shard.flush"), 0.5),
    );
    v.insert(
        "shard.aggregate_bytes",
        protocol::format_aggregate(position, &groups).len() as f64,
    );
    drop(coordinator);
    drop(cores);

    let dir = cx.dir.join("shard-tcp");
    let mut shards = Vec::new();
    for i in 0..SHARDS {
        let shard = shard_dir(&dir, i);
        fresh_dir(&shard)?;
        let server = Server::start(w.shard_config(i, &shard), "127.0.0.1:0", 2)
            .map_err(|e| format!("shard server: {e}"))?;
        warm(server.core(), cx.prefix)?;
        shards.push(server);
    }
    let links = shards
        .iter()
        .map(|s| ShardLink::connect(s.local_addr()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("shard link: {e}"))?;
    let coordinator = ShardCoordinator::start(w.coordinator_config(), links)?;
    let front = CoordinatorServer::start(coordinator, "127.0.0.1:0", 2)
        .map_err(|e| format!("coordinator server: {e}"))?;
    let mut client = connect(front.local_addr())?;
    for (b, batch) in cx.tail.chunks(PRODUCER_BATCH).enumerate() {
        sp.time("shard.tcp_ingest", None, b as u64, || client.ingest(batch))
            .map_err(|e| format!("coordinator ingest: {e}"))?;
    }
    sp.time("shard.tcp_flush", None, 0, || client.flush())
        .map_err(|e| format!("coordinator flush: {e}"))?;
    rep.check(
        "TCP coordinator",
        client.request("QUERY GLOBAL").ok(),
        &cx.oracle.global,
    );
    drop(client);
    drop(front.shutdown());
    drop(shards);
    Ok(cx.per_edge(sp.total("shard.tcp_ingest") + sp.total("shard.tcp_flush")))
}

/// One repetition of the ladder.
fn ladder(cx: &Cx, sp: &mut Spans) -> Result<Rep, String> {
    let w = &cx.w;
    let rept = w.rept();
    let mut rep = Rep::default();
    fresh_dir(&cx.dir)?;

    // 1. client.
    let lines = client_rung(cx, sp)?;
    let r_client = cx.per_edge(sp.total("client.ingest"));
    let wire_bytes: usize = lines.iter().map(String::len).sum();

    // 2. protocol.
    let lines_per_batch = PRODUCER_BATCH / WIRE_LINE;
    for (i, line) in lines.iter().enumerate() {
        let b = (i / lines_per_batch) as u64;
        match sp.time("protocol.parse", None, b, || {
            protocol::parse(black_box(line))
        }) {
            Ok(Command::Ingest(_, edges)) => {
                black_box(edges);
            }
            other => return Err(format!("unparsable wire line {line:?}: {other:?}")),
        }
    }
    let r_parse = cx.per_edge(sp.total("protocol.parse"));

    // 3. engine, at the server's batch boundaries and at the producer's.
    let mut engine = EngineCore::with_engine(Rept::new(rept), ENGINE);
    engine.ingest_batch(cx.prefix);
    per_line(sp, "engine.batch", cx.tail, |sp, p, b, line| {
        sp.time("engine.ingest_batch", Some(p), b, || {
            engine.ingest_batch(line)
        });
    });
    let stored_bytes = engine.stored_bytes();
    drop(engine);
    let mut engine = EngineCore::with_engine(Rept::new(rept), ENGINE);
    engine.ingest_batch(cx.prefix);
    for (b, batch) in cx.tail.chunks(PRODUCER_BATCH).enumerate() {
        sp.time("engine.ingest_batch_4096", None, b as u64, || {
            engine.ingest_batch(batch)
        });
    }
    drop(engine);
    let r_engine = cx.per_edge(sp.total("engine.ingest_batch"));
    let r_engine_4096 = cx.per_edge(sp.total("engine.ingest_batch_4096"));

    // 4. snapshot: the resumable run, publishing at the core's cadence.
    let mut run = ResumableRun::with_engine(Rept::new(rept), ENGINE);
    run.process_batch(cx.prefix);
    let published = Published::new(snapshot_of(&run, w, 0));
    let (mut since, mut seq) = (0u64, 0u64);
    per_line(sp, "run.batch", cx.tail, |sp, p, b, line| {
        sp.time("run.process_batch", Some(p), b, || run.process_batch(line));
        since += line.len() as u64;
        if since >= SNAPSHOT_EVERY {
            since = 0;
            seq += 1;
            sp.time("snapshot.publish", Some(p), b, || {
                published.store(snapshot_of(&run, w, seq))
            });
        }
    });
    drop(run);
    let r_run = cx.per_edge(sp.total("run.process_batch") + sp.total("snapshot.publish"));
    let snapshot = published.load();

    // 5. journal and resume (durable workload).
    let (r_journal, r_resume) = if w.durable() {
        durable_rung(cx, sp, &mut rep)?
    } else {
        (0.0, 0.0)
    };

    // 6. core.
    let dir = cx.dir.join("core");
    fresh_dir(&dir)?;
    let core = ServeCore::start(w.serve_config(Some(&dir))).map_err(|e| format!("core: {e}"))?;
    warm(&core, cx.prefix)?;
    let mut error = None;
    per_line(sp, "core.batch", cx.tail, |sp, p, b, line| {
        if let Err(e) = sp.time("core.ingest", Some(p), b, || core.ingest(line.to_vec())) {
            error.get_or_insert(e);
        }
    });
    sp.time("core.flush", None, 0, || core.flush());
    if let Some(e) = error {
        return Err(format!("core ingest: {e}"));
    }
    let r_core = cx.per_edge(sp.total("core.ingest") + sp.total("core.flush"));
    rep.check(
        "core",
        Some(protocol::format_global(&core.snapshot())),
        &cx.oracle.global,
    );
    const LOADS: u32 = 20_000;
    let t = Instant::now();
    for _ in 0..LOADS {
        black_box(core.snapshot());
    }
    let load_ns = t.elapsed().as_nanos() as f64 / f64::from(LOADS);
    core.shutdown();

    // 7. server: the TCP front door, in process, without a querier.
    let dir = cx.dir.join("server");
    fresh_dir(&dir)?;
    let server = Server::start(w.serve_config(Some(&dir)), "127.0.0.1:0", 2)
        .map_err(|e| format!("server: {e}"))?;
    warm(server.core(), cx.prefix)?;
    let mut client = connect(server.local_addr())?;
    for (b, batch) in cx.tail.chunks(PRODUCER_BATCH).enumerate() {
        sp.time("server.ingest", None, b as u64, || client.ingest(batch))
            .map_err(|e| format!("server ingest: {e}"))?;
    }
    sp.time("server.flush", None, 0, || client.flush())
        .map_err(|e| format!("server flush: {e}"))?;
    let r_server = cx.per_edge(sp.total("server.ingest") + sp.total("server.flush"));
    rep.check(
        "server",
        client.request("QUERY GLOBAL").ok(),
        &cx.oracle.global,
    );
    let mut rtt = Vec::new();
    for _ in 0..200 {
        let t = Instant::now();
        client.health().map_err(|e| format!("server HEALTH: {e}"))?;
        rtt.push(us(t.elapsed()));
    }
    drop(client);
    server.shutdown();

    // 8. shard tier (durable workload): its self time is the TCP
    // coordinator rung minus the standalone server rung.
    let shard_self = if w.durable() {
        shard_rungs(cx, sp, &mut rep)? - r_server
    } else {
        0.0
    };

    let edges = cx.tail.len() as f64;
    let v = &mut rep.values;
    v.insert("client.ns_per_edge", r_client);
    v.insert("protocol.parse_ns_per_edge", r_parse);
    v.insert("protocol.bytes_per_edge", wire_bytes as f64 / edges);
    v.insert("protocol.reply_us", reply_us(w, &snapshot));
    v.insert("server.ns_per_edge", r_server);
    v.insert("server.self_ns_per_edge", r_server - r_core);
    v.insert("server.request_rtt_us", median(&rtt));
    v.insert("core.ns_per_edge", r_core);
    v.insert("engine.ns_per_edge", r_engine);
    v.insert("engine.ns_per_edge_4096", r_engine_4096);
    v.insert(
        "engine.batch_overhead_us",
        (r_engine - r_engine_4096) * WIRE_LINE as f64 / 1e3,
    );
    v.insert("engine.stored_bytes", stored_bytes as f64);
    let publishes = sp.durations_us("snapshot.publish");
    v.insert("snapshot.publish_us_p50", percentile(&publishes, 0.5));
    v.insert("snapshot.publish_us_p99", percentile(&publishes, 0.99));
    v.insert("snapshot.publishes", publishes.len() as f64);
    v.insert("snapshot.locals", snapshot.locals.len() as f64);
    v.insert("snapshot.load_ns", load_ns);
    v.insert("shard.self_ns_per_edge", shard_self);
    // Self times: each rung minus the rung below. The server rung also
    // carries the client and protocol work, so those come off it too.
    let ledger = [
        r_client,
        r_parse,
        r_server - r_core - r_client - r_parse,
        r_core - r_run - r_journal - r_resume,
        r_engine,
        r_run - r_engine,
        r_journal,
        r_resume,
        shard_self,
    ];
    for (layer, self_ns) in LAYERS.iter().zip(ledger) {
        v.insert(layer.self_ns, self_ns);
    }
    v.insert("trace.harness_ns_per_edge", cx.per_edge(sp.harness_ns()));
    Ok(rep)
}

/// Values of every sample of `series` (all shards' bodies) whose labels
/// contain `label`.
fn samples(exposition: &str, series: &str, label: &str) -> Vec<f64> {
    exposition
        .lines()
        .filter_map(|line| {
            let (labels, value) = line.strip_prefix(series)?.split_once(' ')?;
            (labels.starts_with('{') && labels.contains(label))
                .then(|| value.trim().parse().ok())?
        })
        .collect()
}

/// The traced run: ladder repetitions for most of `seconds`, then live
/// passes alternating untraced and traced; prints the ledger and
/// returns the per-layer metrics.
pub fn traced_run(
    w: &Workload,
    seed: u64,
    seconds: f64,
    work: &Path,
    out: &Path,
    parallelism: f64,
) -> Result<Outcome, String> {
    let inputs = Inputs::build(w, seed, work)?;
    let base = inputs.base();
    let cx = Cx {
        w: *w,
        prefix: &inputs.stream[..base],
        tail: &inputs.stream[base..],
        oracle: &inputs.oracle,
        frozen: inputs.frozen.as_ref(),
        dir: work.join("ladder"),
    };
    let epoch = Instant::now();
    let mut traces: Vec<Spans> = Vec::new();
    let reps = repeat_for(LADDER_SHARE * seconds, 1, |n| {
        let mut sp = Spans::new(epoch, format!("ladder{n}"));
        let rep = ladder(&cx, &mut sp);
        traces.push(sp);
        rep
    })?;
    let live = Live {
        w: *w,
        inputs: &inputs,
        work,
    };
    let left = seconds - epoch.elapsed().as_secs_f64();
    let passes = repeat_for(left, 2, |n| {
        if n % 2 == 0 {
            return live.pass(n, None, true);
        }
        let mut sp = Spans::new(epoch, format!("live{n}"));
        let pass = live.pass(n, Some(&mut sp), true);
        traces.push(sp);
        pass
    })?;

    let mut values: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, _) in PER_LAYER {
        let across: Vec<f64> = reps
            .iter()
            .filter_map(|r| r.values.get(name).copied())
            .collect();
        if !across.is_empty() {
            values.insert(name, median(&across));
        }
    }
    // The live run's own histograms: per pass, the mean over shards.
    let per_pass =
        |f: &dyn Fn(&Pass) -> f64| -> f64 { median(&passes.iter().map(f).collect::<Vec<_>>()) };
    let live_p50 =
        |series: &str| per_pass(&|p| mean(&samples(&p.exposition, series, "quantile=\"0.5\"")));
    values.insert("core.queue_wait_us_p50", live_p50("rept_queue_wait_micros"));
    values.insert("core.apply_us_p50", live_p50("rept_apply_micros"));
    values.insert(
        "journal.live_append_us_p50",
        live_p50("rept_journal_append_micros"),
    );
    values.insert("journal.live_fsync_us_p50", live_p50("rept_fsync_micros"));
    values.insert(
        "snapshot.live_publish_us_p50",
        live_p50("rept_publish_micros"),
    );
    values.insert(
        "core.apply_busy_frac",
        per_pass(&|p| {
            mean(&samples(&p.exposition, "rept_apply_micros_sum", "")) / (p.ingest_s * 1e6)
        }),
    );
    values.insert(
        "core.busy_rejections",
        per_pass(&|p| {
            samples(&p.exposition, "rept_busy_rejections_total", "")
                .iter()
                .sum()
        }),
    );
    let eps = |traced: usize| -> f64 {
        median(
            &passes
                .iter()
                .enumerate()
                .filter(|(n, _)| n % 2 == traced)
                .map(|(_, p)| p.eps())
                .collect::<Vec<_>>(),
        )
    };
    let untraced_eps = eps(0);
    values.insert("trace.overhead_ratio", eps(1) / untraced_eps);
    values.insert("host.parallelism", parallelism);
    let late: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.late_us.iter().copied())
        .collect();
    values.insert(
        "loadgen.query_late_p99_us",
        windowed_percentile(&late, 0.99).0,
    );
    let wall_ns = 1e9 / untraced_eps;
    for layer in &LAYERS {
        let self_ns = values.get(layer.self_ns).copied().unwrap_or(0.0);
        values.insert(layer.share, self_ns / wall_ns);
    }

    print_ledger(w, &values, untraced_eps, reps.len(), passes.len());
    write_spans(
        &out.join(format!("spans-{}-seed{seed}.tsv", w.name())),
        &traces,
    )?;
    let attempted = reps.iter().map(|r| r.attempted).sum::<u64>()
        + passes.iter().map(|p| p.attempted).sum::<u64>();
    let failed =
        reps.iter().map(|r| r.failed).sum::<u64>() + passes.iter().map(|p| p.failed).sum::<u64>();
    Ok(Outcome {
        attempted,
        failed,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, values.get(name).copied().unwrap_or(0.0), unit))
            .collect(),
    })
}

fn print_ledger(
    w: &Workload,
    values: &BTreeMap<&str, f64>,
    untraced_eps: f64,
    reps: usize,
    passes: usize,
) {
    let get = |name: &str| values.get(name).copied().unwrap_or(0.0);
    eprintln!(
        "ledger {}: {reps} ladder repetition(s), {passes} live passes; untraced ingest \
         {untraced_eps:.0} edges/s = {:.0} ns/edge",
        w.name(),
        1e9 / untraced_eps
    );
    eprintln!(
        "  {:<9} {:<44} {:>13} {:>7}  should move",
        "layer", "module", "self ns/edge", "share"
    );
    for l in &LAYERS {
        eprintln!(
            "  {:<9} {:<44} {:>13.1} {:>6.1}%  {}",
            l.name,
            l.module,
            get(l.self_ns),
            100.0 * get(l.share),
            l.moves
        );
    }
    eprintln!(
        "  live METRICS p50 (us): queue_wait {} apply {} journal_append {} fsync {} publish {}",
        get("core.queue_wait_us_p50"),
        get("core.apply_us_p50"),
        get("journal.live_append_us_p50"),
        get("journal.live_fsync_us_p50"),
        get("snapshot.live_publish_us_p50"),
    );
    eprintln!(
        "  tracing overhead: traced/untraced ingest_eps = {:.3}; harness loops {:.1} ns/edge",
        get("trace.overhead_ratio"),
        get("trace.harness_ns_per_edge")
    );
    let self_ns = |layer: &str| get(&format!("ledger.{layer}.self_ns_per_edge"));
    let (purpose, holds) = match w.kind {
        Kind::ChungLuHubs => (
            "the engine has the largest self time",
            LAYERS
                .iter()
                .all(|l| l.name == "engine" || self_ns(l.name) <= self_ns("engine")),
        ),
        Kind::BaWire => (
            "client, protocol and server together outweigh the engine",
            self_ns("client") + self_ns("protocol") + self_ns("server") > self_ns("engine"),
        ),
        Kind::WsDurableShards => (
            "journal, resume and shard time show",
            ["journal", "resume", "shard"]
                .into_iter()
                .all(|l| self_ns(l) > 0.0),
        ),
    };
    eprintln!(
        "  purpose ({purpose}): {}",
        if holds { "confirmed" } else { "NOT confirmed" }
    );
}

/// Writes every span as a tab-separated line: trace, id, name, start and
/// end (ns since the run's epoch), parent id, producer batch.
fn write_spans(path: &Path, traces: &[Spans]) -> Result<(), String> {
    let mut text = String::from("trace\tid\tname\tstart_ns\tend_ns\tparent\tbatch\n");
    for t in traces {
        for (id, s) in t.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{}\t{id}\t{}\t{}\t{}\t{parent}\t{}\n",
                t.label, s.name, s.start, s.end, s.batch
            ));
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_covered_part_of_the_span() {
        // No children: the whole span.
        assert_eq!(self_time((10, 50), &[]), 40);
        // Disjoint children.
        assert_eq!(self_time((10, 50), &[(12, 20), (30, 35)]), 27);
        // Overlapping children count once.
        assert_eq!(self_time((10, 50), &[(12, 20), (15, 25)]), 27);
        // A child reaching outside the span counts only inside it.
        assert_eq!(self_time((10, 50), &[(0, 20), (45, 90)]), 25);
        // Fully covered.
        assert_eq!(self_time((10, 50), &[(10, 30), (30, 50)]), 0);
        // Nested children inside another child.
        assert_eq!(self_time((0, 100), &[(10, 60), (20, 30)]), 50);
    }

    #[test]
    fn harness_time_is_the_self_time_of_parent_spans() {
        let mut sp = Spans::new(Instant::now(), "t");
        let p = sp.open("rung", None, 0);
        sp.time("layer", Some(p), 0, || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        sp.close(p);
        let parent = &sp.spans[p];
        let child = &sp.spans[p + 1];
        assert_eq!(
            sp.harness_ns(),
            (parent.end - parent.start) - (child.end - child.start)
        );
        assert_eq!(sp.total("layer"), child.end - child.start);
    }

    #[test]
    fn exposition_samples_match_series_and_label() {
        let text = "# shard=0\n\
                    rept_apply_micros{tenant=\"default\",quantile=\"0.5\"} 64\n\
                    rept_apply_micros_sum{tenant=\"default\"} 900\n\
                    # shard=1\n\
                    rept_apply_micros{tenant=\"default\",quantile=\"0.5\"} 32\n\
                    rept_apply_micros{tenant=\"default\",quantile=\"0.99\"} 512";
        assert_eq!(
            samples(text, "rept_apply_micros", "quantile=\"0.5\""),
            vec![64.0, 32.0]
        );
        assert_eq!(samples(text, "rept_apply_micros_sum", ""), vec![900.0]);
    }
}
