//! Overload-resilience acceptance suite: per-tenant memory quotas
//! (bounded-memory reservoir shedding, typed `QUOTA` rejections,
//! degrade-to-read-only), co-tenant isolation under pressure, lossless
//! reservoir kill/resume, dead-letter capture + `DLQ REPLAY` over the
//! wire, and the client's retry discipline against a flaky server
//! (`ERR BUSY` retried with backoff, `ERR QUOTA` never retried,
//! transport failures reconnected only when asked, block-reply line
//! counts never trusted as allocation sizes).

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use proptest::collection::vec;
use proptest::prelude::*;
use rept::core::reservoir::MIN_MEMORY_BUDGET;
use rept::core::ReptConfig;
use rept::gen::{barabasi_albert, GeneratorConfig};
use rept::graph::edge::Edge;
use rept::serve::protocol::{self, Scope, TenantOptions};
use rept::serve::{
    Client, ClientConfig, QuotaPolicy, RouterConfig, ServeConfig, ServeCore, Server, TenantRouter,
};

/// Strategy: a raw stream that keeps duplicate edges (only self-loops
/// are dropped) — the reservoir's multiplicity handling must hold up
/// under pressure too.
fn arb_stream_with_dups(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    vec((0..n, 0..n), 256..max_edges).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(u, v)| Edge::try_new(u, v))
            .collect()
    })
}

/// A per-test-case unique scratch directory.
fn unique_root(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rept-overload-{tag}-{}-{n}", std::process::id()))
}

/// Recursively snapshots every file under `root` — freezing the disk
/// image at "crash time". Twin of the helper in `tests/serve.rs`.
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

/// Restores a frozen directory image, discarding whatever a graceful
/// drop wrote after the freeze.
fn restore_dir(root: &Path, frozen: &[(PathBuf, Vec<u8>)]) {
    std::fs::remove_dir_all(root).ok();
    for (path, bytes) in frozen {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("recreate dir");
        }
        std::fs::write(path, bytes).expect("restore frozen file");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Sustained ingest far past the budget (the budget is set to half
    /// the stream's unpressured footprint, i.e. ~2× pressure): a
    /// shedding tenant's stored bytes never exceed the budget at any
    /// observation point, every edge is still consumed, and an
    /// unpressured co-tenant behind the same router answers
    /// bit-identically to a standalone core — pressure on one tenant
    /// leaks into no other.
    #[test]
    fn shed_tenant_stays_in_budget_and_co_tenant_is_bit_identical(
        stream in arb_stream_with_dups(128, 1500),
        m in 2u64..4,
        c in 1u64..8,
        seed in any::<u64>(),
    ) {
        let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(true);
        // Measure the unpressured footprint, then budget half of it.
        let probe = ServeCore::start(ServeConfig::new(cfg)).expect("probe");
        probe.ingest(stream.clone()).expect("probe ingest");
        probe.flush();
        let full = probe.health().stored_bytes;
        probe.shutdown();
        let budget = (full / 2).max(MIN_MEMORY_BUDGET);

        let router = TenantRouter::start(RouterConfig::new(
            ServeConfig::new(cfg).with_snapshot_every(32),
        ))
        .expect("router");
        router
            .create(
                "pressed",
                &TenantOptions {
                    memory_budget: Some(budget),
                    ..TenantOptions::default()
                },
            )
            .expect("create pressed");
        let oracle =
            ServeCore::start(ServeConfig::new(cfg).with_snapshot_every(32)).expect("oracle");
        let pressed = router.tenant("pressed").expect("pressed");
        for chunk in stream.chunks(37) {
            router.ingest(&Scope::All, chunk.to_vec()).expect("fan-out");
            oracle.ingest(chunk.to_vec()).expect("oracle ingest");
            pressed.flush();
            let h = pressed.health();
            prop_assert!(
                h.stored_bytes <= budget,
                "stored {} B > budget {} B",
                h.stored_bytes,
                budget
            );
        }
        router.flush_all();
        oracle.flush();
        prop_assert_eq!(pressed.position(), stream.len() as u64, "shed never refuses");
        prop_assert!(pressed.snapshot().confidence95.is_none(), "no REPT interval on a reservoir");
        let want = oracle.snapshot();
        let got = router.tenant("default").expect("default").snapshot();
        prop_assert_eq!(
            protocol::format_global(&got),
            protocol::format_global(&want),
            "co-tenant unaffected"
        );
        prop_assert_eq!(&got.locals, &want.locals);
        drop(pressed);
        oracle.shutdown();
        router.shutdown();
    }
}

#[test]
fn reservoir_kill_resume_is_lossless() {
    // A journaled reservoir tenant killed mid-stream resumes with its
    // complete sampler state (reservoir content, multiplicities, RNG) —
    // finishing the stream afterwards is bit-identical to never having
    // been killed.
    let stream = barabasi_albert(&GeneratorConfig::new(600, 6), 13);
    let cfg = ReptConfig::new(3, 5).with_seed(17);
    let budget = 8 * 1024;

    let oracle =
        ServeCore::start(ServeConfig::new(cfg).with_memory_budget(budget)).expect("oracle");
    oracle.ingest(stream.clone()).expect("oracle ingest");
    oracle.flush();

    let dir = unique_root("reservoir-kill");
    std::fs::create_dir_all(&dir).expect("mkdir");
    let serve_cfg = ServeConfig::new(cfg)
        .with_memory_budget(budget)
        .with_checkpoint(dir.join("serve.rpck"), None)
        .with_journal();
    let core = ServeCore::start(serve_cfg.clone()).expect("start");
    let split = 2 * stream.len() / 3;
    for chunk in stream[..split].chunks(55) {
        core.ingest(chunk.to_vec()).expect("acked");
    }
    // Every acked batch is journaled and fsynced: freeze the disk now,
    // then let the graceful drop lose against the frozen image.
    let frozen = freeze_dir(&dir);
    drop(core);
    restore_dir(&dir, &frozen);

    let resumed = ServeCore::start(serve_cfg).expect("resume");
    assert_eq!(
        resumed.position(),
        split as u64,
        "the acked prefix survives the kill losslessly"
    );
    assert!(resumed.health().stored_bytes <= budget);
    for chunk in stream[split..].chunks(77) {
        resumed.ingest(chunk.to_vec()).expect("replay tail");
    }
    resumed.flush();
    let got = resumed.snapshot();
    let want = oracle.snapshot();
    assert_eq!(got.position, want.position);
    assert_eq!(
        got.global, want.global,
        "reservoir state (incl. RNG) restored bit-identically"
    );
    assert_eq!(got.locals, want.locals);
    oracle.shutdown();
    resumed.shutdown();
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn quota_rejections_are_typed_dead_lettered_and_replayable() {
    // The wire path end to end: a reject-quota tenant answers `ERR
    // QUOTA`, the refused line lands verbatim in the tenant's
    // dead-letter file, HEALTH reports the pressure, DLQ REPLAY feeds
    // the file back through ingest (and re-captures what still fails),
    // and a degrade-quota tenant latches read-only.
    let root = unique_root("quota-wire");
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(5)).with_journal();
    let server = Server::start_router(
        RouterConfig::new(base).with_root_dir(root.clone()),
        "127.0.0.1:0",
        2,
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    assert!(
        client.tenant_create("bad", "quota=reject").is_err(),
        "quota without a budget is refused"
    );
    client
        .tenant_create(
            "cap",
            &format!("memory_budget={MIN_MEMORY_BUDGET} quota=reject"),
        )
        .expect("create cap");
    client.use_tenant("cap").expect("use cap");

    let stream = barabasi_albert(&GeneratorConfig::new(300, 4), 7);
    let mut quota_err = None;
    for chunk in stream.chunks(16) {
        match client.ingest(chunk) {
            Ok(_) => {}
            Err(e) => {
                quota_err = Some(e);
                break;
            }
        }
    }
    let e = quota_err.expect("a minimum budget must be breached by this stream");
    assert!(e.to_string().starts_with("QUOTA"), "typed rejection: {e}");

    let health = client.health().expect("health");
    assert!(
        health.contains("state=ok"),
        "reject does not degrade: {health}"
    );
    assert!(
        health.contains(&format!("budget={MIN_MEMORY_BUDGET}")),
        "{health}"
    );
    let dlq: u64 = protocol::reply_field(&health, "dlq")
        .expect("dlq field")
        .parse()
        .expect("dlq number");
    assert!(dlq >= 1, "every rejected line is captured: {health}");

    let dlq_file = root.join("cap").join("serve.dlq");
    let text = std::fs::read_to_string(&dlq_file).expect("dlq file on disk");
    assert_eq!(text.lines().count() as u64, dlq);
    let entry = text.lines().next().expect("first entry");
    let (reason, line) = entry.split_once('\t').expect("reason\\tline");
    assert!(reason.starts_with("QUOTA"), "reason recorded: {reason}");
    assert!(line.starts_with("INGEST "), "verbatim line: {line}");

    // Replay: the tenant is still over budget, so every drained line
    // fails again and is re-captured — nothing is silently dropped.
    let (n, failed) = client.dlq_replay().expect("replay");
    assert_eq!(n, dlq, "everything captured was drained");
    assert_eq!(failed, dlq, "still over budget: all re-captured");
    let health = client.health().expect("health after replay");
    let dlq_after: u64 = protocol::reply_field(&health, "dlq")
        .expect("dlq field")
        .parse()
        .expect("dlq number");
    assert_eq!(dlq_after, dlq, "re-captured entries are back in the file");

    // Degrade: the first breach latches the tenant read-only.
    client
        .tenant_create(
            "frail",
            &format!("memory_budget={MIN_MEMORY_BUDGET} quota=degrade"),
        )
        .expect("create frail");
    client.use_tenant("frail").expect("use frail");
    for chunk in stream.chunks(16) {
        if client.ingest(chunk).is_err() {
            break;
        }
    }
    let health = client.health().expect("frail health");
    assert!(health.contains("state=degraded"), "{health}");
    let refused = client.ingest(&stream[..2]).expect_err("read-only now");
    assert!(refused.to_string().starts_with("QUOTA"), "{refused}");

    drop(client);
    server.shutdown_all();
    std::fs::remove_dir_all(&root).ok();
}

/// One scripted action per request, in request order; the last action
/// repeats for any further requests.
#[derive(Clone, Copy)]
enum Act {
    /// Reply with this line.
    Reply(&'static str),
    /// Reply with this line, then close the connection.
    ReplyThenHangup(&'static str),
    /// Close the connection without replying (transport failure).
    Hangup,
}

/// A hand-rolled fake server that follows a reply script and counts
/// requests — the flaky harness the client's retry policy is tested
/// against.
struct ScriptedServer {
    addr: std::net::SocketAddr,
    requests: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ScriptedServer {
    fn start(script: Vec<Act>) -> Self {
        assert!(!script.is_empty());
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let requests = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let handle = {
            let requests = Arc::clone(&requests);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || loop {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                let Ok((stream, _)) = listener.accept() else {
                    continue;
                };
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                stream.set_nodelay(true).ok();
                let mut writer = stream.try_clone().expect("clone");
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => break,
                        Ok(_) => {
                            let i = requests.fetch_add(1, Ordering::SeqCst) as usize;
                            let (reply, hangup) = match script[i.min(script.len() - 1)] {
                                Act::Reply(reply) => (reply, false),
                                Act::ReplyThenHangup(reply) => (reply, true),
                                Act::Hangup => break,
                            };
                            if writer.write_all(reply.as_bytes()).is_err()
                                || writer.write_all(b"\n").is_err()
                                || hangup
                            {
                                break;
                            }
                        }
                    }
                }
            })
        };
        Self {
            addr,
            requests,
            stop,
            handle: Some(handle),
        }
    }

    fn requests(&self) -> u64 {
        self.requests.load(Ordering::SeqCst)
    }
}

impl Drop for ScriptedServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        let _ = TcpStream::connect(self.addr); // wake the acceptor
        if let Some(h) = self.handle.take() {
            h.join().expect("scripted server thread");
        }
    }
}

/// Fast backoff so the retry tests run in milliseconds.
fn fast_retry() -> ClientConfig {
    ClientConfig::default().with_backoff(Duration::from_millis(1), Duration::from_millis(4))
}

#[test]
fn client_retries_busy_with_backoff_until_the_server_recovers() {
    let server = ScriptedServer::start(vec![
        Act::Reply("ERR BUSY ingest queue full"),
        Act::Reply("ERR BUSY ingest queue full"),
        Act::Reply("ERR BUSY ingest queue full"),
        Act::Reply("OK INGEST 1"),
    ]);
    let mut client =
        Client::connect_with(server.addr, fast_retry().with_busy_retries(8)).expect("connect");
    client.ingest(&[Edge::new(1, 2)]).expect("converges");
    assert_eq!(server.requests(), 4, "three busy replies, then success");
}

#[test]
fn client_gives_up_on_busy_after_the_retry_budget() {
    let server = ScriptedServer::start(vec![Act::Reply("ERR BUSY ingest queue full")]);
    let mut client =
        Client::connect_with(server.addr, fast_retry().with_busy_retries(2)).expect("connect");
    let e = client.ingest(&[Edge::new(1, 2)]).expect_err("budget spent");
    assert!(e.to_string().starts_with("BUSY"), "{e}");
    assert_eq!(server.requests(), 3, "initial attempt + 2 retries");
}

#[test]
fn client_never_retries_quota_rejections() {
    let server = ScriptedServer::start(vec![Act::Reply("ERR QUOTA memory budget reached")]);
    let mut client = Client::connect_with(
        server.addr,
        fast_retry().with_busy_retries(16).with_io_retries(4),
    )
    .expect("connect");
    let e = client
        .ingest(&[Edge::new(1, 2)])
        .expect_err("durable refusal");
    assert!(e.to_string().starts_with("QUOTA"), "{e}");
    assert_eq!(
        server.requests(),
        1,
        "a quota rejection must be attempted exactly once"
    );
}

#[test]
fn client_reconnects_through_transport_failures_only_when_asked() {
    // Default config: no transport retry — at-least-once resends are
    // opt-in.
    let server = ScriptedServer::start(vec![Act::Hangup, Act::Reply("OK INGEST 1")]);
    let mut client = Client::connect_with(server.addr, fast_retry()).expect("connect");
    let e = client.ingest(&[Edge::new(1, 2)]).expect_err("no io retry");
    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
    assert_eq!(server.requests(), 1);
    drop(client);

    // Opted in: the client reconnects and resends.
    let server = ScriptedServer::start(vec![Act::Hangup, Act::Reply("OK INGEST 1")]);
    let mut client =
        Client::connect_with(server.addr, fast_retry().with_io_retries(2)).expect("connect");
    client.ingest(&[Edge::new(1, 2)]).expect("reconnected");
    assert_eq!(server.requests(), 2, "one hangup, one success");
}

/// A block reply's `lines=` count is the peer's claim, not an
/// allocation size: a server (or, behind the coordinator, a shard)
/// announcing 2^40 or `u64::MAX` body lines and then hanging up costs
/// the client a typed I/O error — not an aborted process.
#[test]
fn block_reply_line_counts_are_not_allocation_sizes() {
    for (aggregate, metrics) in [
        (
            "OK AGGREGATE position=0 lines=1099511627776",
            "OK METRICS lines=1099511627776",
        ),
        (
            "OK AGGREGATE position=0 lines=18446744073709551615",
            "OK METRICS lines=18446744073709551615",
        ),
    ] {
        let server = ScriptedServer::start(vec![Act::ReplyThenHangup(aggregate)]);
        let mut client = Client::connect(server.addr).expect("connect");
        let e = client.aggregates().expect_err("no body follows");
        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
        drop(client);

        let server = ScriptedServer::start(vec![Act::ReplyThenHangup(metrics)]);
        let mut client = Client::connect(server.addr).expect("connect");
        let e = client.metrics().expect_err("no body follows");
        assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "{e}");
    }
}

#[test]
fn busy_surfaces_on_the_wire_from_a_real_overloaded_server() {
    // A real server with a tiny ingest queue and a slow first batch:
    // non-blocking wire ingest must answer ERR BUSY (transient, not
    // dead-lettered) while the queue is full, and the default client
    // must ride it out with backoff.
    let root = unique_root("busy-wire");
    let mut base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(3));
    base.channel_capacity = 1;
    let server = Server::start_router(
        RouterConfig::new(base).with_root_dir(root.clone()),
        "127.0.0.1:0",
        2,
    )
    .expect("bind");

    // Occupy the ingest thread directly with a long batch, then hammer
    // the wire: some requests must see BUSY, yet the retrying client
    // lands every batch.
    let big: Vec<Edge> = (0..200_000).map(|i| Edge::new(i, i + 1)).collect();
    server.core().ingest(big).expect("queued");
    let mut client = Client::connect_with(
        server.local_addr(),
        ClientConfig::default()
            .with_busy_retries(400)
            .with_backoff(Duration::from_millis(1), Duration::from_millis(25)),
    )
    .expect("connect");
    for i in 0..50u32 {
        client
            .ingest(&[Edge::new(i + 1, i + 2)])
            .expect("backoff rides out the full queue");
    }
    client.flush().expect("flush");
    assert_eq!(
        server.core().position(),
        200_000 + 50,
        "every retried batch landed exactly once"
    );
    assert_eq!(server.core().dlq_count(), 0, "BUSY is never dead-lettered");
    drop(client);
    server.shutdown_all();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn quota_policies_parse_and_round_trip_through_manifests() {
    // TENANT CREATE options survive a router restart: a quota'd tenant
    // resumes with the same budget and policy from its manifest.
    let root = unique_root("manifest");
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(11));
    let cfg = RouterConfig::new(base).with_root_dir(root.clone());
    let router = TenantRouter::start(cfg.clone()).expect("start");
    router
        .create(
            "capped",
            &TenantOptions {
                memory_budget: Some(MIN_MEMORY_BUDGET),
                quota: Some(QuotaPolicy::Reject),
                ..TenantOptions::default()
            },
        )
        .expect("create");
    let stream = barabasi_albert(&GeneratorConfig::new(200, 3), 7);
    let capped = router.tenant("capped").expect("capped");
    let mut refused = false;
    for chunk in stream.chunks(16) {
        if capped.ingest(chunk.to_vec()).is_err() {
            refused = true;
            break;
        }
    }
    assert!(refused, "the minimum budget must refuse this stream");
    drop(capped);
    router.shutdown();

    let resumed = TenantRouter::start(cfg).expect("resume");
    let capped = resumed.tenant("capped").expect("resumed tenant");
    let h = capped.health();
    assert_eq!(h.memory_budget, MIN_MEMORY_BUDGET, "budget resumed");
    // Enforcement is re-armed from measurement: the restored adjacency
    // is still at/over budget, so writes are refused again.
    let e = capped
        .ingest(stream[..4].to_vec())
        .expect_err("policy resumed");
    assert!(e.to_string().starts_with("QUOTA"), "{e}");
    drop(capped);
    resumed.shutdown();
    std::fs::remove_dir_all(&root).ok();
}
