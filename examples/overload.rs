//! Overload-resilience smoke test over the multi-tenant TCP server.
//!
//! Exercises the quota tier end to end: a `quota=reject` tenant is
//! pressed past its memory budget and must refuse with a typed
//! `ERR QUOTA` (captured in its dead-letter file, replayable via
//! `DLQ REPLAY`); a `shed` tenant under the same budget must accept the
//! whole stream while its stored bytes stay under the ceiling (the
//! bounded-memory reservoir engine); and the unquota'd default tenant
//! must stay bit-identical to a standalone oracle — co-tenant pressure
//! leaks nothing. A restart from the same root then proves the quota
//! configuration survives in the tenant manifest: the capped tenant
//! still refuses, the default tenant still answers bit-identically.
//! CI runs this as the overload smoke step.
//!
//! Run: `cargo run --release --example overload`

use rept::core::{Engine, Rept, ReptConfig};
use rept::gen::{barabasi_albert, GeneratorConfig};
use rept::serve::{Client, RouterConfig, ServeConfig, Server};

const BUDGET: u64 = 8192;

fn health_field(health: &str, key: &str) -> u64 {
    health
        .split_whitespace()
        .find_map(|tok| tok.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in {health:?}"))
        .parse()
        .unwrap_or_else(|e| panic!("bad {key} in {health:?}: {e}"))
}

fn main() {
    let stream = barabasi_albert(&GeneratorConfig::new(3000, 33), 5);
    let cfg = ReptConfig::new(16, 16).with_seed(9);
    let oracle = Rept::new(cfg).run(Engine::PerWorker, &stream);

    let root = std::env::temp_dir().join(format!("rept-overload-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mk root");
    let base = ServeConfig::new(cfg).with_journal();
    let router_cfg = RouterConfig::new(base).with_root_dir(root.clone());
    let server = Server::start_router(router_cfg.clone(), "127.0.0.1:0", 2).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect");

    client
        .tenant_create("capped", &format!("memory_budget={BUDGET} quota=reject"))
        .expect("create capped");
    client
        .tenant_create("spark", &format!("memory_budget={BUDGET}"))
        .expect("create spark"); // quota defaults to shed

    // The default tenant takes the whole stream, unquota'd.
    client.ingest(&stream).expect("default ingest");
    client.flush().expect("flush");

    // The shed tenant takes the whole stream too: the reservoir engine
    // never refuses, it evicts — stored bytes stay under the budget.
    client.use_tenant("spark").expect("use spark");
    client.ingest(&stream).expect("shed ingest never refuses");
    client.flush().expect("flush");
    let health = client.health().expect("health");
    let stored = health_field(&health, "bytes=");
    assert!(
        stored <= BUDGET,
        "shed tenant over budget: {stored} B > {BUDGET} B ({health})"
    );
    assert!(health.contains("state=ok"), "shed never degrades: {health}");

    // The reject tenant refuses mid-stream with a typed quota error.
    client.use_tenant("capped").expect("use capped");
    let mut refused = 0usize;
    for chunk in stream.chunks(64) {
        if let Err(e) = client.ingest(chunk) {
            let msg = e.to_string();
            assert!(
                msg.starts_with("QUOTA "),
                "refusal must be typed QUOTA, got {msg:?}"
            );
            refused += 1;
        }
    }
    assert!(refused > 0, "budget {BUDGET} B never pressed");
    let health = client.health().expect("health");
    let dlq = health_field(&health, "dlq=");
    assert_eq!(
        dlq as usize, refused,
        "every refusal dead-lettered ({health})"
    );
    // Replaying without raising the budget just rotates the refusals.
    let (replayed, failed) = client.dlq_replay().expect("replay");
    assert_eq!((replayed, failed), (dlq, dlq), "still over budget");

    let default_tau = {
        client.use_tenant("default").expect("use default");
        let est = client.query_global().expect("query");
        assert_eq!(est.position, stream.len() as u64);
        assert_eq!(est.tau, oracle.global, "co-tenant pressure leaked");
        est.tau
    };

    // Restart from the same root: the manifest must bring the quota
    // configuration back, and the journaled default tenant must answer
    // bit-identically.
    drop(client);
    server.shutdown_all();
    let server = Server::start_router(router_cfg, "127.0.0.1:0", 2).expect("re-bind");
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    let est = client.query_global().expect("query after resume");
    assert_eq!(est.position, stream.len() as u64, "lossless resume");
    assert_eq!(est.tau, default_tau, "resume is bit-identical");
    client.use_tenant("capped").expect("use capped");
    let msg = client
        .ingest(&stream[..64])
        .expect_err("quota survives restart")
        .to_string();
    assert!(msg.starts_with("QUOTA "), "typed after restart: {msg:?}");

    println!(
        "overload OK: shed stored {stored} B ≤ {BUDGET} B, reject refused \
         {refused} batches (all dead-lettered), default τ̂ = {default_tau} \
         bit-identical across co-tenant pressure and restart"
    );
    drop(client);
    server.shutdown_all();
    std::fs::remove_dir_all(&root).ok();
}
