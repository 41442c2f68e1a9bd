//! Multi-tenant serving smoke test: one router, many estimators, one
//! kill/resume cycle.
//!
//! Starts the serving subsystem with a tenant root directory, creates
//! two standalone tenants (different engines/seeds) plus one
//! interval-derived tenant over TCP, fans the first half of a generated
//! stream out to all of them (`INGEST * …`), queries per-tenant and
//! cross-tenant (`TOPK k *`, `STATS *`), checkpoints every tenant,
//! kills the whole router (faithfully: the tenant root is frozen at
//! its checkpoint-time state, so edges ingested after the checkpoints
//! are lost with the process), restarts it — **all tenants resume from
//! their own checkpoint directories** — replays the remainder, and
//! asserts every tenant's final estimate is **bit-identical** to an
//! uninterrupted batch run under the tenant's resolved configuration.
//!
//! Run: `cargo run --release --example multi_tenant`

use std::path::{Path, PathBuf};

use rept::core::interval::IntervalEstimator;
use rept::core::{Engine, Rept, ReptConfig};
use rept::gen::{barabasi_albert, GeneratorConfig};
use rept::serve::{Client, RouterConfig, ServeConfig, Server};

/// Recursively snapshots every file under `root` — freezing the tenant
/// root at checkpoint time to emulate a crash. Twin of the helper in
/// `tests/serve.rs`; keep their crash semantics in sync.
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

/// Restores the frozen image, discarding everything written after it.
fn restore_dir(root: &Path, frozen: &[(PathBuf, Vec<u8>)]) {
    std::fs::remove_dir_all(root).ok();
    for (path, bytes) in frozen {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).expect("recreate tenant dir");
        }
        std::fs::write(path, bytes).expect("restore frozen file");
    }
}

fn main() {
    let stream = barabasi_albert(&GeneratorConfig::new(3000, 17), 4);
    let base = ReptConfig::new(8, 12).with_seed(5).with_eta(true);
    println!(
        "stream: {} edges; base m = {}, c = {}, engine = {}",
        stream.len(),
        base.m,
        base.c,
        Engine::default().name()
    );

    let root = std::env::temp_dir().join(format!("rept-multi-tenant-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    let router_cfg = RouterConfig::new(
        ServeConfig::new(base)
            .with_snapshot_every(512)
            .with_top_k(5),
    )
    .with_root_dir(root.clone());

    // The tenants this deployment serves, with their expected batch
    // oracles: `default` (the base config), `spam` (an independent
    // per-worker estimator on its own seed), and `win3` (window 3 of
    // the interval sequence — sliding-window estimates are just
    // tenants).
    let spam_cfg = ReptConfig { seed: 99, ..base };
    let win3_cfg = IntervalEstimator::new(base).config_for(3);
    let oracles = [
        ("default", Rept::new(base).run(Engine::PerWorker, &stream)),
        ("spam", Rept::new(spam_cfg).run(Engine::PerWorker, &stream)),
        ("win3", Rept::new(win3_cfg).run(Engine::PerWorker, &stream)),
    ];

    // ---- phase 1: create tenants, fan out, query, checkpoint.
    let server = Server::start_router(router_cfg.clone(), "127.0.0.1:0", 2).expect("bind server");
    let addr = server.local_addr();
    println!("serving on {addr}");

    let mut client = Client::connect(addr).expect("connect");
    client
        .tenant_create("spam", "engine=per-worker seed=99")
        .expect("create spam");
    client
        .tenant_create_interval("win3", 3)
        .expect("create win3");
    println!("tenants: {:?}", client.tenant_list().expect("list"));

    let half = stream.len() / 2;
    client
        .ingest_to("*", &stream[..half])
        .expect("fan-out ingest");
    for t in ["default", "spam", "win3"] {
        client.use_tenant(t).expect("use");
        let pos = client.flush().expect("flush");
        assert_eq!(pos, half as u64);
        let mid = client.query_global().expect("mid-stream query");
        println!("  {t:>7} @ {pos}: τ̂ = {:.1}", mid.tau);
    }
    let merged = client.top_k_all(5).expect("cross-tenant top-k");
    println!("cross-tenant top-5: {merged:?}");
    println!("aggregate: {}", client.stats_all().expect("stats *"));

    for t in ["default", "spam", "win3"] {
        client.use_tenant(t).expect("use");
        let pos = client.checkpoint().expect("checkpoint");
        assert_eq!(pos, half as u64);
    }
    println!("all tenants checkpointed at position {half}");

    // ---- kill the whole router. The crash is emulated faithfully:
    // edges ingested *after* the checkpoints are lost with the process
    // (the tenant root is frozen at its checkpoint-time state and
    // restored over whatever the shutdown drain wrote), and the
    // restarted producer must replay from the resumed positions.
    client
        .ingest_to("*", &stream[half..half + 500])
        .expect("post-checkpoint edges (to be lost)");
    let frozen = freeze_dir(&root);
    drop(client);
    server.shutdown_all();
    restore_dir(&root, &frozen);
    println!(
        "router killed ({} files frozen at the checkpoint state; 500 post-checkpoint edges lost)",
        frozen.len()
    );

    // ---- phase 2: restart; every tenant resumes from its directory.
    let server = Server::start_router(router_cfg, "127.0.0.1:0", 2).expect("restart server");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("reconnect");
    let tenants = client.tenant_list().expect("list after resume");
    assert_eq!(tenants.len(), 3, "all tenants resumed: {tenants:?}");
    for (name, pos) in &tenants {
        assert_eq!(*pos, half as u64, "tenant {name} resumed at the checkpoint");
    }
    println!("restarted on {addr}; tenants resumed: {tenants:?}");

    client.ingest_to("*", &stream[half..]).expect("replay");
    for (name, oracle) in &oracles {
        client.use_tenant(name).expect("use");
        let end = client.flush().expect("final flush");
        assert_eq!(end, stream.len() as u64);
        let est = client.query_global().expect("final query");
        assert_eq!(
            est.tau, oracle.global,
            "tenant {name}: resumed estimate must be bit-identical"
        );
        for (v, t) in client.top_k(5).expect("final top-k") {
            assert_eq!(t, oracle.local(v), "tenant {name}, node {v}");
        }
        println!("  {name:>7}: τ̂ = {:.1} — bit-identical ✓", est.tau);
    }

    // Tenants are droppable at runtime; the directory goes with them.
    client.use_tenant("default").expect("use default");
    client.tenant_drop("spam").expect("drop spam");
    assert!(!root.join("spam").exists(), "spam's checkpoint dir removed");
    println!("dropped tenant spam (checkpoint directory removed)");

    drop(client);
    server.shutdown_all();
    std::fs::remove_dir_all(&root).ok();
    println!("multi-tenant serving smoke test passed");
}
