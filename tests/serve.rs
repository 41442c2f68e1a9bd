//! Integration tests of the serving subsystem: kill/resume
//! bit-identicality under the serve driver (proptest, all engines,
//! duplicate-edge streams), multi-tenant routing (every tenant
//! bit-identical to a standalone core, across router-wide kill/resume),
//! v1 protocol compatibility against the router, and the TCP front-end
//! end to end.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use proptest::collection::vec;
use proptest::prelude::*;
use rept::core::resume::ResumableRun;
use rept::core::{Engine, EngineCore, Rept, ReptConfig};
use rept::gen::{barabasi_albert, GeneratorConfig};
use rept::graph::edge::Edge;
use rept::serve::client::INGEST_CHUNK;
use rept::serve::protocol::{self, Scope, TenantOptions};
use rept::serve::{Client, RouterConfig, ServeConfig, ServeCore, Server, TenantRouter};

/// Strategy: a raw stream that KEEPS duplicate edges (only self-loops
/// are dropped) — duplicate handling must survive checkpoint/resume.
fn arb_stream_with_dups(n: u32, max_edges: usize) -> impl Strategy<Value = Vec<Edge>> {
    vec((0..n, 0..n), 1..max_edges).prop_map(|pairs| {
        pairs
            .into_iter()
            .filter_map(|(u, v)| Edge::try_new(u, v))
            .collect()
    })
}

/// A per-test-case unique checkpoint path.
fn unique_ckpt(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!(
        "rept-serve-test-{tag}-{}-{n}.rpck",
        std::process::id()
    ))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill-and-resume at an arbitrary batch boundary under the serve
    /// driver is bit-identical to an uninterrupted run, across both
    /// engines and duplicate-edge streams. The kill is simulated
    /// faithfully: the checkpoint file is frozen at its mid-stream
    /// state, edges ingested after it are *lost* with the process, and
    /// the restarted producer replays from the resumed position.
    #[test]
    fn serve_kill_resume_is_bit_identical(
        stream in arb_stream_with_dups(24, 120),
        m in 2u64..6,
        c in 1u64..14,
        seed in any::<u64>(),
        split_sel in any::<u64>(),
        batch_sel in any::<u64>(),
    ) {
        let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(true);
        let oracle = Rept::new(cfg).run(Engine::PerWorker, &stream);
        let batch = 1 + (batch_sel % 37) as usize;
        let split = (split_sel as usize) % (stream.len() + 1);

        for engine in Engine::all() {
            let path = unique_ckpt(engine.name());
            let serve_cfg = ServeConfig::new(cfg)
                .with_engine(engine)
                .with_checkpoint(path.clone(), None)
                .with_snapshot_every(64);

            let core = ServeCore::start(serve_cfg.clone()).expect("start");
            for chunk in stream[..split].chunks(batch) {
                core.ingest(chunk.to_vec()).expect("ingest");
            }
            let pos = core.checkpoint().expect("checkpoint");
            prop_assert_eq!(pos, split as u64);
            // Edges arriving between the checkpoint and the crash are
            // lost with the process.
            for chunk in stream[split..].chunks(batch * 2) {
                core.ingest(chunk.to_vec()).expect("ingest");
            }
            let frozen = std::fs::read(&path).expect("checkpoint on disk");
            drop(core); // "crash" (drop would otherwise also checkpoint)
            std::fs::write(&path, &frozen).expect("restore crash-time file");

            let resumed = ServeCore::start(serve_cfg).expect("resume");
            let replay_from = resumed.position() as usize;
            prop_assert_eq!(replay_from, split, "replay point = checkpoint position");
            for chunk in stream[replay_from..].chunks(batch) {
                resumed.ingest(chunk.to_vec()).expect("ingest");
            }
            let end = resumed.flush();
            prop_assert_eq!(end, stream.len() as u64);
            let snap = resumed.snapshot();
            prop_assert_eq!(snap.global, oracle.global, "{}", engine.name());
            prop_assert_eq!(snap.eta_hat, oracle.eta_hat);
            prop_assert_eq!(&*snap.locals, &oracle.locals);
            let final_est = resumed.shutdown();
            prop_assert_eq!(final_est.global, oracle.global);
            prop_assert_eq!(
                &final_est.diagnostics.per_processor_tau,
                &oracle.diagnostics.per_processor_tau
            );
            std::fs::remove_file(&path).ok();
        }
    }
}

/// A per-test-case unique tenant-root directory.
fn unique_root(tag: &str) -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("rept-serve-root-{tag}-{}-{n}", std::process::id()))
}

/// Recursively snapshots every file under `root` — the multi-tenant
/// analogue of freezing one checkpoint file to emulate a crash. Twin
/// of the helper in `examples/multi_tenant.rs`; keep their crash
/// semantics in sync.
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
    for (path, bytes) in frozen {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("recreate tenant dir");
        }
        std::fs::write(path, bytes).expect("restore frozen file");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Multi-tenant routing is pure fan-out: for random streams and
    /// 1–4 tenants (mixed engines, one interval-derived), every
    /// tenant's `QUERY GLOBAL` / `QUERY LOCAL` / `TOPK` answers — the
    /// actual protocol reply lines — are bit-identical to a standalone
    /// [`ServeCore`] under the same resolved config fed the same
    /// edges. Both before and after a router-wide kill: the entire
    /// tenant root is frozen at its mid-stream state, edges ingested
    /// after the all-tenant checkpoint are lost with the process, and
    /// the restarted router resumes every tenant from its own
    /// checkpoint directory.
    #[test]
    fn tenants_are_bit_identical_to_standalone_cores(
        stream in arb_stream_with_dups(20, 90),
        m in 2u64..5,
        c in 1u64..10,
        seed in any::<u64>(),
        extra in 0usize..4,
        split_sel in any::<u64>(),
    ) {
        let root = unique_root("tenants");
        let base = ReptConfig::new(m, c).with_seed(seed).with_eta(true);
        let cfg = RouterConfig::new(
            ServeConfig::new(base).with_snapshot_every(32).with_top_k(8),
        )
        .with_root_dir(root.clone());
        let split = (split_sel as usize) % (stream.len() + 1);

        // Tenant specs: `default` plus up to three extras — a
        // per-worker tenant on another seed, an interval-derived
        // tenant, and a tenant on a different layout.
        let extras: Vec<(&str, TenantOptions)> = [
            ("pw", TenantOptions {
                engine: Some(Engine::PerWorker),
                seed: Some(seed ^ 0x9e37_79b9),
                ..TenantOptions::default()
            }),
            ("win2", TenantOptions { interval: Some(2), ..TenantOptions::default() }),
            ("wide", TenantOptions {
                c: Some(c + 1),
                ..TenantOptions::default()
            }),
        ]
        .into_iter()
        .take(extra)
        .collect();

        let router = TenantRouter::start(cfg.clone()).expect("start router");
        for (name, opts) in &extras {
            router.create(name, opts).expect("create tenant");
        }
        // Standalone oracles: one ServeCore per tenant under the
        // identical resolved config, fed the identical edges.
        let mut oracles: Vec<(String, ServeCore)> =
            vec![(protocol::DEFAULT_TENANT.to_string(), {
                ServeCore::start(ServeConfig::new(base).with_snapshot_every(32).with_top_k(8))
                    .expect("standalone default")
            })];
        for (name, opts) in &extras {
            let (rept, engine, _, _) = router.resolve_options(opts).expect("resolve");
            let standalone = ServeCore::start(
                ServeConfig::new(rept)
                    .with_engine(engine)
                    .with_snapshot_every(32)
                    .with_top_k(8),
            )
            .expect("standalone tenant");
            oracles.push((name.to_string(), standalone));
        }

        // Phase 1: fan out the first part, checkpoint all, then lose
        // post-checkpoint edges with the "crash".
        for chunk in stream[..split].chunks(29) {
            router.ingest(&Scope::All, chunk.to_vec()).expect("ingest");
        }
        let ckpts = router.checkpoint_all().expect("checkpoint all");
        prop_assert!(ckpts.iter().all(|(_, p)| *p == split as u64));
        for chunk in stream[split..].chunks(41) {
            router.ingest(&Scope::All, chunk.to_vec()).expect("ingest");
        }
        let frozen = freeze_dir(&root);
        drop(router.shutdown()); // the real kill: frozen state wins below
        restore_dir(&root, &frozen);

        // Phase 2: resume the whole router, replay from the
        // checkpointed position, compare every tenant's answers.
        let resumed = TenantRouter::start(cfg).expect("resume router");
        prop_assert_eq!(resumed.len(), 1 + extras.len(), "all tenants resumed");
        for (name, _) in &oracles {
            let core = resumed.tenant(name).expect("tenant resumed");
            prop_assert_eq!(core.position(), split as u64, "{}", name);
        }
        for chunk in stream[split..].chunks(17) {
            resumed.ingest(&Scope::All, chunk.to_vec()).expect("replay");
        }
        resumed.flush_all();
        for (name, standalone) in &oracles {
            standalone.ingest(stream.clone()).expect("ingest");
            standalone.flush();
            let want = standalone.snapshot();
            let got = resumed.tenant(name).expect("tenant").snapshot();
            // The wire answers themselves: QUERY GLOBAL, TOPK, and a
            // QUERY LOCAL per top node.
            prop_assert_eq!(
                protocol::format_global(&got),
                protocol::format_global(&want),
                "{}", name
            );
            prop_assert_eq!(
                protocol::format_top_k(&got, 8),
                protocol::format_top_k(&want, 8),
                "{}", name
            );
            for &(v, _) in want.top_k.iter() {
                prop_assert_eq!(
                    protocol::format_local(&got, v),
                    protocol::format_local(&want, v)
                );
            }
            prop_assert_eq!(&got.locals, &want.locals, "{}", name);
            prop_assert_eq!(got.eta_hat, want.eta_hat);
        }
        resumed.shutdown();
        std::fs::remove_dir_all(&root).ok();
    }
}

#[test]
fn v1_clients_work_unchanged_against_the_router_default_tenant() {
    // A v1 client — no USE, no TENANT — must behave exactly as it did
    // against the single-core server, even while other tenants exist
    // and receive different data.
    let stream = barabasi_albert(&GeneratorConfig::new(400, 9), 4);
    let base = ReptConfig::new(3, 5).with_seed(21).with_eta(true);
    let oracle = Rept::new(base).run(Engine::PerWorker, &stream);

    let server = Server::start_router(
        RouterConfig::new(
            ServeConfig::new(base)
                .with_snapshot_every(128)
                .with_top_k(10),
        ),
        "127.0.0.1:0",
        2,
    )
    .expect("bind");
    let addr = server.local_addr();

    // A v2 sidecar creates a tenant and feeds it *different* edges —
    // none of which the v1 client may observe.
    let mut admin = Client::connect(addr).expect("admin connect");
    admin.tenant_create("other", "seed=5").expect("create");
    admin
        .ingest_to("other", &stream[..200])
        .expect("scoped ingest");
    admin.use_tenant("other").expect("use");
    admin.flush().expect("flush other");

    // The v1 session: only v1 verbs, implicit default tenant.
    let mut v1 = Client::connect(addr).expect("v1 connect");
    assert_eq!(v1.ingest(&stream).expect("ingest"), stream.len());
    assert_eq!(v1.flush().expect("flush"), stream.len() as u64);
    let global = v1.query_global().expect("query global");
    assert_eq!(global.position, stream.len() as u64);
    assert_eq!(global.tau, oracle.global);
    let top = v1.top_k(5).expect("top-k");
    let (best_node, best_tau) = top[0];
    assert_eq!(best_tau, oracle.local(best_node));
    assert_eq!(
        v1.query_local(best_node).expect("query local"),
        oracle.local(best_node)
    );
    let stats = v1.stats().expect("stats");
    assert!(
        stats.contains(&format!("position={}", stream.len())),
        "{stats}"
    );
    assert!(v1.request("SHUTDOWN now").is_err(), "v1 grammar intact");

    drop(v1);
    drop(admin);
    let final_est = server.shutdown(); // the default tenant's estimate
    assert_eq!(final_est.global, oracle.global);
    assert_eq!(final_est.locals, oracle.locals);
}

#[test]
fn tcp_tenant_commands_round_trip() {
    // The v2 surface over a real socket: create/list/use/drop, scoped
    // fan-out ingest, cross-tenant STATS and merged TOPK.
    let stream = barabasi_albert(&GeneratorConfig::new(300, 5), 4);
    let base = ReptConfig::new(3, 3).with_seed(8);
    let server = Server::start_router(
        RouterConfig::new(ServeConfig::new(base).with_snapshot_every(64).with_top_k(5)),
        "127.0.0.1:0",
        2,
    )
    .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client.tenant_create("alpha", "").expect("create alpha");
    client
        .tenant_create_interval("win0", 0)
        .expect("create win0");
    assert!(client.tenant_create("alpha", "").is_err(), "duplicate");
    assert!(
        client.tenant_create("bad", "seed=1 interval=2").is_err(),
        "exclusive options"
    );

    // Fan out to everyone, then a named subset.
    client.ingest_to("*", &stream[..150]).expect("fan-out");
    client
        .ingest_to("alpha,win0", &stream[150..])
        .expect("subset");
    assert!(client.ingest_to("ghost", &stream[..2]).is_err());

    // Per-tenant positions via LIST (flush each through USE first).
    for t in ["default", "alpha", "win0"] {
        client.use_tenant(t).expect("use");
        client.flush().expect("flush");
    }
    let tenants = client.tenant_list().expect("list");
    let pos: Vec<(String, u64)> = tenants.clone();
    assert_eq!(
        pos,
        vec![
            ("alpha".to_string(), stream.len() as u64),
            ("default".to_string(), 150),
            ("win0".to_string(), stream.len() as u64),
        ]
    );

    // USE routes the v1 verbs to the selected tenant.
    client.use_tenant("alpha").expect("use alpha");
    let alpha_cfg = base; // alpha inherited the base config
    let alpha_oracle = Rept::new(alpha_cfg).run(Engine::PerWorker, &stream);
    assert_eq!(
        client.query_global().expect("global").tau,
        alpha_oracle.global
    );
    assert!(client.use_tenant("ghost").is_err(), "unknown tenant");

    // Cross-tenant aggregation.
    let stats =
        protocol::reply_field(&client.stats_all().expect("stats *"), "tenants").map(str::to_owned);
    assert_eq!(stats.as_deref(), Some("3"));
    let merged = client.top_k_all(10).expect("topk *");
    for pair in merged.windows(2) {
        assert!(pair[0].2 >= pair[1].2, "descending: {merged:?}");
    }
    assert!(
        merged
            .iter()
            .all(|(t, _, _)| ["default", "alpha", "win0"].contains(&t.as_str())),
        "{merged:?}"
    );

    // DROP: tenant disappears; the connection using it gets ERR.
    client.use_tenant("win0").expect("use win0");
    client.tenant_drop("win0").expect("drop win0");
    assert!(client.query_global().is_err(), "dropped tenant is gone");
    assert!(client.tenant_drop("default").is_err(), "default protected");
    client.use_tenant("default").expect("back to default");
    assert_eq!(client.query_global().expect("global").position, 150);

    // A tenant literally named `n` must not be swallowed by the
    // `n=<count>` reply header (positional parsing regression test).
    client.tenant_create("n", "").expect("create n");
    let with_n = client.tenant_list().expect("list with n");
    assert!(
        with_n.iter().any(|(name, pos)| name == "n" && *pos == 0),
        "{with_n:?}"
    );

    drop(client);
    server.shutdown_all();
}

/// A `TENANT CREATE` naming more processors than the ceiling is a
/// typed `ERR` for that line alone: the server keeps answering and no
/// tenant is created. (Before the ceiling, `Rept::new` sized the layout
/// by `c` and the failed allocation aborted the whole process.)
#[test]
fn tenant_create_past_the_processor_ceiling_is_refused() {
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(3));
    let server = Server::start_router(RouterConfig::new(base), "127.0.0.1:0", 1).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client
        .tenant_create("big", "m=2 c=17179869184")
        .expect_err("c past the ceiling");
    assert!(err.to_string().contains("c must be"), "{err}");
    let health = client.health().expect("HEALTH still answers");
    assert!(health.starts_with("OK HEALTH"), "{health}");
    let tenants = client.tenant_list().expect("TENANT LIST");
    assert!(tenants.iter().all(|(name, _)| name != "big"), "{tenants:?}");
    drop(client);
    server.shutdown_all();
}

#[test]
fn tenant_create_with_the_largest_memory_budget_reserves_nothing() {
    // A shed tenant's budget sizes no allocation up front: the largest
    // one gets a reply instead of aborting the server, and the tenant
    // then ingests like any other.
    let base = ServeConfig::new(ReptConfig::new(2, 2).with_seed(3));
    let server = Server::start_router(RouterConfig::new(base), "127.0.0.1:0", 1).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let options = format!("memory_budget={}", u64::MAX);
    client.tenant_create("huge", &options).expect("created");
    let health = client.health().expect("HEALTH still answers");
    assert!(health.starts_with("OK HEALTH"), "{health}");
    client.use_tenant("huge").expect("USE");
    let triangle = [Edge::new(1, 2), Edge::new(2, 3), Edge::new(1, 3)];
    assert_eq!(client.ingest(&triangle).expect("ingest"), 3);
    assert_eq!(client.flush().expect("flush"), 3);
    assert_eq!(client.query_global().expect("query").tau, 1.0);
    drop(client);
    server.shutdown_all();
}

/// A `TENANT CREATE` the core refuses (a budget below the reservoir
/// minimum) leaves nothing under the root: the router restarts on the
/// same root without the tenant, instead of resuming its manifest and
/// failing the same way.
#[test]
fn a_refused_tenant_create_leaves_the_next_restart_whole() {
    let root = unique_root("refused-create");
    std::fs::remove_dir_all(&root).ok();
    let cfg = RouterConfig::new(ServeConfig::new(ReptConfig::new(2, 2).with_seed(3)))
        .with_root_dir(root.clone());
    let server = Server::start_router(cfg.clone(), "127.0.0.1:0", 1).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let err = client
        .tenant_create("bad", "memory_budget=10")
        .expect_err("below the reservoir minimum");
    assert!(err.to_string().contains("reservoir minimum"), "{err}");
    assert!(!root.join("bad").exists(), "no manifest left behind");
    drop(client);
    server.shutdown_all();

    let server = Server::start_router(cfg, "127.0.0.1:0", 1).expect("restart on the same root");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let tenants = client.tenant_list().expect("TENANT LIST");
    assert!(tenants.iter().all(|(name, _)| name != "bad"), "{tenants:?}");
    drop(client);
    server.shutdown_all();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn tcp_server_end_to_end() {
    let stream = barabasi_albert(&GeneratorConfig::new(500, 7), 4);
    let cfg = ReptConfig::new(4, 6).with_seed(11).with_eta(true);
    let oracle = Rept::new(cfg).run(Engine::PerWorker, &stream);

    let serve_cfg = ServeConfig::new(cfg)
        .with_snapshot_every(256)
        .with_top_k(10);
    let server = Server::start(serve_cfg, "127.0.0.1:0", 2).expect("bind");
    let addr = server.local_addr();

    let mut client = Client::connect(addr).expect("connect");
    assert_eq!(client.ingest(&stream).expect("ingest"), stream.len());
    let pos = client.flush().expect("flush");
    assert_eq!(pos, stream.len() as u64);

    // Global estimate crosses the wire bit-identically.
    let global = client.query_global().expect("query global");
    assert_eq!(global.position, stream.len() as u64);
    assert_eq!(global.tau, oracle.global);
    let (lo, hi) = global.ci95.expect("η tracked ⇒ interval");
    assert!(lo <= global.tau && global.tau <= hi);

    // Local estimates and the top-k index agree with the oracle.
    let top = client.top_k(5).expect("top-k");
    assert!(!top.is_empty());
    for pair in top.windows(2) {
        assert!(pair[0].1 >= pair[1].1, "descending: {top:?}");
    }
    let (best_node, best_tau) = top[0];
    assert_eq!(best_tau, oracle.local(best_node));
    assert_eq!(
        client.query_local(best_node).expect("query local"),
        oracle.local(best_node)
    );
    assert_eq!(client.query_local(4_000_000).expect("unseen node"), 0.0);

    // Stats carry the layout.
    let stats = client.stats().expect("stats");
    assert!(stats.contains("engine=fused-hybrid"), "{stats}");
    assert!(stats.contains("checkpoints=0"), "{stats}");
    assert!(stats.contains("m=4"), "{stats}");
    assert!(stats.contains("c=6"), "{stats}");

    // Protocol errors are ERR replies, and the connection survives them
    // — including a malformed shutdown-like line, which must neither
    // stop the server nor close the connection.
    assert!(client.request("BOGUS").is_err());
    assert!(client.request("INGEST 5 5").is_err(), "self-loop");
    assert!(client.request("SHUTDOWN now").is_err(), "trailing token");
    assert!(
        client.checkpoint().is_err(),
        "no checkpoint path configured"
    );
    assert_eq!(client.flush().expect("still alive"), stream.len() as u64);

    // A second concurrent client reads the same snapshot.
    let mut other = Client::connect(addr).expect("second client");
    assert_eq!(
        other.query_global().expect("concurrent query").tau,
        oracle.global
    );

    drop(client);
    drop(other);
    let final_est = server.shutdown();
    assert_eq!(final_est.global, oracle.global);
    assert_eq!(final_est.locals, oracle.locals);
}

/// The `bytes=` field of a `HEALTH` reply.
fn health_bytes(client: &mut Client) -> usize {
    let health = client.health().expect("health");
    protocol::reply_field(&health, "bytes")
        .and_then(|b| b.parse().ok())
        .unwrap_or_else(|| panic!("no bytes= in {health:?}"))
}

/// `HEALTH bytes=` is the engine's own account, refreshed after every
/// batch: after `FLUSH` it equals `EngineCore::stored_bytes()` of an
/// in-process core fed the same [`INGEST_CHUNK`]-edge `INGEST` lines. It does so
/// again after a kill and a checkpoint + journal resume, against a
/// core restored from the same checkpoint that replays the same
/// journal tail (recovery applies the tail as one batch).
#[test]
fn health_bytes_equal_the_engine_account_across_kill_and_resume() {
    let stream = rept::gen::chung_lu(&GeneratorConfig::new(2000, 3), 12_000, 2.1, 0.0);
    let cfg = ReptConfig::new(4, 9).with_seed(3);
    let root = unique_root("health-bytes");
    std::fs::create_dir_all(&root).expect("mk root");
    let ckpt = root.join("serve.rpck");
    let serve_cfg = ServeConfig::new(cfg)
        .with_checkpoint(ckpt.clone(), None)
        .with_journal();
    let (head, rest) = stream.split_at(5000);
    let (tail, after) = rest.split_at(3000);

    let server = Server::start(serve_cfg.clone(), "127.0.0.1:0", 2).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut fresh = EngineCore::with_engine(Rept::new(cfg), Engine::FusedHybrid);
    client.ingest(head).expect("ingest");
    for line in head.chunks(INGEST_CHUNK) {
        fresh.ingest_batch(line);
    }
    client.flush().expect("flush");
    assert_eq!(health_bytes(&mut client), fresh.stored_bytes(), "fresh");

    // Checkpoint, journal a tail, then kill: the disk image is frozen
    // and the shutdown checkpoint is lost with the process.
    client.checkpoint().expect("checkpoint");
    let checkpoint = std::fs::read(&ckpt).expect("checkpoint on disk");
    client.ingest(tail).expect("ingest tail");
    client.flush().expect("flush");
    let frozen = freeze_dir(&root);
    drop(client);
    drop(server);
    restore_dir(&root, &frozen);

    let server = Server::start(serve_cfg, "127.0.0.1:0", 2).expect("resume");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let mut resumed = ResumableRun::from_checkpoint_bytes(&checkpoint).expect("valid blob");
    resumed.process_batch(tail);
    client.flush().expect("flush");
    assert_eq!(health_bytes(&mut client), resumed.stored_bytes(), "resumed");

    client.ingest(after).expect("ingest after resume");
    for line in after.chunks(INGEST_CHUNK) {
        resumed.process_batch(line);
    }
    client.flush().expect("flush");
    assert_eq!(
        health_bytes(&mut client),
        resumed.stored_bytes(),
        "after resume"
    );
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn queries_proceed_while_ingest_is_running() {
    // Snapshot isolation under concurrency: a reader hammering the
    // query path while a writer streams edges always sees a consistent
    // snapshot with monotone positions, and ingestion finishes
    // unimpeded.
    let stream = barabasi_albert(&GeneratorConfig::new(800, 3), 4);
    let cfg = ReptConfig::new(4, 4).with_seed(3);
    let serve_cfg = ServeConfig::new(cfg).with_snapshot_every(64);
    let core = ServeCore::start(serve_cfg).expect("start");

    std::thread::scope(|scope| {
        let core = &core;
        let writer = scope.spawn(move || {
            for chunk in stream.chunks(50) {
                core.ingest(chunk.to_vec()).expect("ingest");
            }
            core.flush()
        });
        let reader = scope.spawn(move || {
            let mut last_pos = 0;
            let mut last_seq = 0;
            for _ in 0..500 {
                let snap = core.snapshot();
                assert!(snap.position >= last_pos, "positions are monotone");
                assert!(snap.seq >= last_seq, "sequence numbers are monotone");
                assert!(snap.global >= 0.0);
                last_pos = snap.position;
                last_seq = snap.seq;
            }
        });
        let end = writer.join().expect("writer");
        reader.join().expect("reader");
        assert_eq!(end, core.flush());
    });
    core.shutdown();
}

#[test]
fn dropping_a_server_stops_everything_and_checkpoints() {
    // A plain drop (error path, early return) must not leak acceptor
    // threads or the ingest thread — and the core's drop still writes
    // the final checkpoint.
    let path = unique_ckpt("drop");
    std::fs::remove_file(&path).ok();
    let cfg = ReptConfig::new(3, 3).with_seed(2);
    let serve_cfg = ServeConfig::new(cfg).with_checkpoint(path.clone(), None);
    let server = Server::start(serve_cfg, "127.0.0.1:0", 2).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .ingest(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)])
        .expect("ingest");
    client.flush().expect("flush");
    drop(client);
    drop(server); // must return promptly, not hang in accept()
    assert!(path.exists(), "final checkpoint written on drop");
    std::fs::remove_file(&path).ok();
}

#[test]
fn tcp_shutdown_command_stops_the_acceptors() {
    let cfg = ReptConfig::new(3, 3).with_seed(1);
    let server = Server::start(ServeConfig::new(cfg), "127.0.0.1:0", 1).expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client
        .ingest(&[Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)])
        .expect("ingest");
    client.shutdown_server().expect("shutdown command");
    drop(client);
    let est = server.shutdown();
    assert!(est.global >= 0.0);
}

/// An `INGEST` line carries at most `MAX_INGEST_EDGES` edges: a line of
/// exactly the cap is applied, one edge more is a typed grammar `ERR`
/// that the server dead-letters, and `Client::ingest` of a longer batch
/// still lands, since it cuts [`INGEST_CHUNK`]-edge lines.
#[test]
fn ingest_lines_past_the_edge_cap_are_refused_and_dead_lettered() {
    use rept::serve::protocol::MAX_INGEST_EDGES;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let root = unique_root("edge-cap");
    std::fs::create_dir_all(&root).expect("mk root");
    let cfg = ServeConfig::new(ReptConfig::new(2, 2).with_seed(5))
        .with_checkpoint(root.join("serve.rpck"), None)
        .with_journal();
    // Two handlers: the raw connection stays open beside the client's.
    let server = Server::start(cfg, "127.0.0.1:0", 2).expect("bind");
    let mut writer = TcpStream::connect(server.local_addr()).expect("connect");
    let mut reader = BufReader::new(writer.try_clone().expect("clone"));
    let mut send = |pairs: usize| {
        let mut line = String::from("INGEST");
        for i in 0..pairs {
            line.push_str(&format!(" {i} {}", i + 1));
        }
        line.push('\n');
        writer.write_all(line.as_bytes()).expect("send");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("reply");
        reply
    };
    assert_eq!(
        send(MAX_INGEST_EDGES),
        format!("OK INGEST {MAX_INGEST_EDGES}\n")
    );
    assert_eq!(
        send(MAX_INGEST_EDGES + 1),
        format!("ERR INGEST carries more than {MAX_INGEST_EDGES} edges\n")
    );
    assert_eq!(
        server.core().dlq_count(),
        1,
        "the refused line is dead-lettered"
    );

    let batch: Vec<Edge> = (0..3 * INGEST_CHUNK as u32 + 1)
        .map(|i| Edge::new(i, i + 2))
        .collect();
    let mut client = Client::connect(server.local_addr()).expect("connect");
    assert_eq!(client.ingest(&batch).expect("ingest"), batch.len());
    assert_eq!(
        client.flush().expect("flush"),
        (MAX_INGEST_EDGES + batch.len()) as u64
    );
    drop(client);
    server.shutdown();
    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn over_long_lines_are_refused_and_their_connection_closed() {
    use rept::serve::server::MAX_LINE_BYTES;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use std::time::Duration;

    let cfg = ReptConfig::new(2, 2).with_seed(5);
    let server = Server::start(ServeConfig::new(cfg), "127.0.0.1:0", 1).expect("bind");
    let connect = || {
        let conn = TcpStream::connect(server.local_addr()).expect("connect");
        conn.set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        (conn.try_clone().expect("clone"), BufReader::new(conn))
    };

    // A line of exactly the cap is still a request.
    let (mut writer, mut reader) = connect();
    let mut at_cap = b"QUERY GLOBAL".to_vec();
    at_cap.resize(MAX_LINE_BYTES, b' ');
    at_cap.push(b'\n');
    writer.write_all(&at_cap).expect("send");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("reply");
    assert!(reply.starts_with("OK GLOBAL"), "{reply}");

    // One byte more, with no newline in sight: a typed error, then the
    // server hangs up, since the rest of that line cannot be resynced.
    writer
        .write_all(&vec![b'7'; MAX_LINE_BYTES + 1])
        .expect("send");
    reply.clear();
    reader.read_line(&mut reply).expect("reply");
    assert_eq!(
        reply,
        format!("ERR line longer than {MAX_LINE_BYTES} bytes\n")
    );
    reply.clear();
    assert_eq!(reader.read_line(&mut reply).expect("EOF"), 0, "closed");

    // The handler is free for the next connection.
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client.ingest(&[Edge::new(1, 2)]).expect("served");
    assert_eq!(client.flush().expect("flush"), 1);
    drop(client);
    server.shutdown();
}
