//! The shard tier end to end over real TCP: 3 journaled shard servers
//! behind a `rept-shard` coordinator front-end, one v2 client talking
//! to the cluster exactly as it would to a single server.
//!
//! Walks the whole distributed contract: ingest through the
//! coordinator, queries bit-identical to a standalone server, a
//! coordinator-orchestrated `CHECKPOINT`, a shard killed mid-stream
//! (HEALTH degrades to `shards=2/3`, queries keep answering from the
//! survivors' smaller-but-valid configuration), shard restart from its
//! own checkpoint + journal, rejoin via the coordinator's replay
//! buffer, and final bit-identical equality with an uninterrupted
//! standalone run.
//!
//! Run: `cargo run --release --example sharded_cluster`

use rept::core::{GroupSlice, ReptConfig};
use rept::gen::{barabasi_albert, GeneratorConfig};
use rept::graph::edge::Edge;
use rept::serve::{Client, ServeConfig, Server};
use rept::shard::{CoordinatorConfig, CoordinatorServer, ShardCoordinator, ShardLink};

const SHARDS: u32 = 3;
const SNAPSHOT_EVERY: u64 = 256;

fn shard_server(cfg: ReptConfig, i: u32, root: &std::path::Path) -> Server {
    Server::start(
        ServeConfig::new(cfg)
            .with_snapshot_every(SNAPSHOT_EVERY)
            .with_group_slice(GroupSlice::new(i, SHARDS))
            .with_checkpoint(root.join(format!("shard{i}.rpck")), None)
            .with_journal(),
        "127.0.0.1:0",
        2,
    )
    .expect("start shard server")
}

fn main() {
    // c=11, m=2 → 5 full hash groups + a remainder group, sliced
    // round-robin over 3 shard servers.
    let cfg = ReptConfig::new(2, 11)
        .with_seed(9)
        .with_eta(true)
        .with_locals(true);
    let stream = barabasi_albert(&GeneratorConfig::new(1500, 77), 6);
    let (first, second) = stream.split_at(stream.len() / 2);
    let root = std::env::temp_dir().join(format!("rept-sharded-cluster-{}", std::process::id()));
    std::fs::remove_dir_all(&root).ok();
    std::fs::create_dir_all(&root).expect("mk root");
    println!(
        "stream: {} edges, cluster root: {}",
        stream.len(),
        root.display()
    );

    // The cluster: 3 journaled shard servers + the coordinator front-end.
    let mut shard_servers: Vec<Option<Server>> = (0..SHARDS)
        .map(|i| Some(shard_server(cfg, i, &root)))
        .collect();
    let links = shard_servers
        .iter()
        .map(|s| ShardLink::connect(s.as_ref().expect("live").local_addr()).expect("link"))
        .collect();
    let coordinator = ShardCoordinator::start(
        CoordinatorConfig::new(cfg).with_snapshot_every(SNAPSHOT_EVERY),
        links,
    )
    .expect("start coordinator");
    let front = CoordinatorServer::start(coordinator, "127.0.0.1:0", 2).expect("front-end");

    // The comparator: one standalone server, same config and cadence.
    let standalone = Server::start(
        ServeConfig::new(cfg).with_snapshot_every(SNAPSHOT_EVERY),
        "127.0.0.1:0",
        2,
    )
    .expect("standalone server");

    let mut to_cluster = Client::connect(front.local_addr()).expect("connect cluster");
    let mut to_single = Client::connect(standalone.local_addr()).expect("connect standalone");

    // Phase 1: first half through both, orchestrated checkpoint, query.
    feed(&mut to_cluster, first);
    feed(&mut to_single, first);
    let pos = to_cluster.checkpoint().expect("orchestrated checkpoint");
    assert_eq!(pos, first.len() as u64, "all three shard slices durable");
    println!("\ncheckpointed whole cluster at position {pos}");
    assert_equal_views(&mut to_cluster, &mut to_single, "after checkpoint");

    // Phase 2: kill shard 2 mid-stream. The coordinator discovers the
    // loss on the next fan-out, keeps acking, and degrades HEALTH.
    shard_servers[2].take().expect("not yet killed").shutdown();
    println!("killed shard 2");
    feed(&mut to_cluster, second);
    feed(&mut to_single, second);
    let health = to_cluster.health().expect("health");
    assert!(
        health.contains("state=degraded") && health.contains("shards=2/3"),
        "typed degraded health, got: {health}"
    );
    println!("cluster health: {health}");
    let degraded = to_cluster.query_global().expect("degraded query answers");
    println!(
        "degraded estimate from survivors: τ̂ = {:.0} (wider CI, c' = 7 of 11)",
        degraded.tau
    );

    // Phase 3: restart shard 2 from its checkpoint + journal, rejoin.
    // The restarted server recovers exactly what it acked; the
    // coordinator replays its buffered batches above that position.
    let revived = shard_server(cfg, 2, &root);
    front
        .coordinator()
        .lock()
        .expect("coordinator lock")
        .revive_shard(2, ShardLink::connect(revived.local_addr()).expect("link"))
        .expect("rejoin");
    shard_servers[2] = Some(revived);
    let health = to_cluster.health().expect("health");
    assert!(
        health.contains("state=ok") && health.contains("shards=3/3"),
        "{health}"
    );
    println!("shard 2 rejoined: {health}");

    // Full equality again: the cluster is bit-identical to the
    // uninterrupted standalone server, through kill and rejoin.
    assert_equal_views(&mut to_cluster, &mut to_single, "after rejoin");
    println!("\nall cluster replies bit-identical to the standalone server");

    drop(to_cluster);
    drop(to_single);
    front.shutdown();
    standalone.shutdown();
    for server in shard_servers.into_iter().flatten() {
        server.shutdown();
    }
    std::fs::remove_dir_all(&root).ok();
    println!("done");
}

/// Feeds a stream half through a client in batches and barriers.
fn feed(client: &mut Client, edges: &[Edge]) {
    for chunk in edges.chunks(128) {
        client.ingest(chunk).expect("ingest");
    }
    client.flush().expect("flush");
}

/// Asserts the cluster's and the standalone server's query replies are
/// byte-identical (parsed values re-compared via the clients' typed
/// accessors — both sides travel the same wire format).
fn assert_equal_views(cluster: &mut Client, single: &mut Client, when: &str) {
    let a = cluster.query_global().expect("cluster global");
    let b = single.query_global().expect("standalone global");
    assert_eq!(a.position, b.position, "{when}: position");
    assert_eq!(a.tau, b.tau, "{when}: global estimate bits");
    assert_eq!(a.ci95, b.ci95, "{when}: confidence interval bits");
    for v in [1u32, 7, 42] {
        let a = cluster.query_local(v).expect("cluster local");
        let b = single.query_local(v).expect("standalone local");
        assert_eq!(a, b, "{when}: local estimate for node {v}");
    }
    let top_a = cluster.top_k(10).expect("cluster topk");
    let top_b = single.top_k(10).expect("standalone topk");
    assert_eq!(top_a, top_b, "{when}: top-k ranking");
    println!(
        "  bit-identical {when}: τ̂ = {:.0} at position {}",
        a.tau, a.position
    );
}
