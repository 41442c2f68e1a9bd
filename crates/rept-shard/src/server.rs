//! The coordinator's TCP front-end: the same line protocol the shard
//! servers speak, served *above* them — a client cannot tell a cluster
//! from a single [`rept_serve::Server`] on the distributed verbs.
//!
//! The transport is the serve tier's own [`LineServer`]: the same
//! thread pool, line cap, timeouts and one-write replies, so this module
//! holds only what the coordinator does with a line. Requests lock the
//! one [`ShardCoordinator`] — the coordinator's work per verb is a
//! handful of line-protocol exchanges with the shards, which is the
//! serialization point by design (the shards do the heavy lifting
//! concurrently in their own processes).
//!
//! Verbs that don't distribute reply with typed errors instead of
//! pretending: tenancy (`TENANT *`, `USE` of anything but `default`,
//! scoped `INGEST`, `STATS *`, `TOPK k *`) because the coordinator is
//! single-tenant by design (run one cluster per tenant), and per-node
//! durability/observability introspection (`JOURNAL STATS`,
//! `DLQ REPLAY`, `TRACE TAIL`) because that state lives on the shards —
//! ask a shard server directly. `METRICS` *is* distributed: the reply
//! concatenates every live shard's exposition body under `# shard=<i>`
//! comment markers.

use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};

use rept_serve::protocol::{self, Command, Scope, DEFAULT_TENANT};
use rept_serve::server::{LineHandler, LineServer};
use rept_serve::LiveStats;

use crate::coordinator::{format_cluster_health, ShardCoordinator};

/// A running coordinator front-end. [`Self::shutdown`] stops accepting
/// and returns the coordinator (so the caller can drain or inspect the
/// cluster); a plain drop stops the acceptors too.
#[derive(Debug)]
pub struct CoordinatorServer {
    lines: LineServer,
    front: Arc<Front>,
}

/// The coordinator as a [`LineHandler`]; connections carry no state.
#[derive(Debug)]
struct Front(Mutex<ShardCoordinator>);

impl LineHandler for Front {
    type Session = ();

    fn session(&self) {}

    fn execute(&self, line: &str, _: &mut ()) -> (String, bool) {
        execute(line, &self.0)
    }
}

impl CoordinatorServer {
    /// Binds `addr` (use port 0 for an ephemeral port) and serves the
    /// coordinator with `handlers` connection threads.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn start(
        coordinator: ShardCoordinator,
        addr: impl ToSocketAddrs,
        handlers: usize,
    ) -> std::io::Result<Self> {
        let front = Arc::new(Front(Mutex::new(coordinator)));
        let lines = LineServer::start(Arc::clone(&front), addr, handlers, "rept-shard-handler")?;
        Ok(Self { lines, front })
    }

    /// The bound address (the port clients connect to).
    pub fn local_addr(&self) -> SocketAddr {
        self.lines.local_addr()
    }

    /// In-process access to the coordinator (tests drive `kill_shard` /
    /// `revive_shard` through this while clients talk TCP).
    pub fn coordinator(&self) -> &Mutex<ShardCoordinator> {
        &self.front.0
    }

    /// Stops accepting, joins the handler threads, and hands the
    /// coordinator back (the shards keep running — shut them down
    /// through their own servers/cores).
    pub fn shutdown(self) -> ShardCoordinator {
        let Self { mut lines, front } = self;
        lines.stop();
        let front = Arc::try_unwrap(front).expect("handlers dropped their coordinator handles");
        front.0.into_inner().expect("coordinator lock poisoned")
    }
}

fn lock(coordinator: &Mutex<ShardCoordinator>) -> MutexGuard<'_, ShardCoordinator> {
    coordinator.lock().expect("coordinator lock poisoned")
}

/// Parses and executes one request line against the coordinator. The
/// distributed verbs produce the same reply bytes a standalone server
/// would (shared format functions over the recombined snapshot); the
/// rest are typed errors documented in the module docs.
fn execute(line: &str, coordinator: &Mutex<ShardCoordinator>) -> (String, bool) {
    let reply = match protocol::parse(line) {
        Ok(Command::Ingest(Scope::Current, edges)) => {
            let n = edges.len();
            match lock(coordinator).ingest(edges) {
                Ok(_) => format!("OK INGEST {n}"),
                Err(e) => format!("ERR {e}"),
            }
        }
        Ok(Command::Ingest(_, _)) => {
            "ERR scoped ingest is not distributed: the coordinator is single-tenant; \
             run one cluster per tenant"
                .into()
        }
        Ok(Command::QueryGlobal) => protocol::format_global(&lock(coordinator).snapshot()),
        Ok(Command::QueryLocal(v)) => protocol::format_local(&lock(coordinator).snapshot(), v),
        Ok(Command::TopK(k)) => protocol::format_top_k(&lock(coordinator).snapshot(), k),
        Ok(Command::Stats) => {
            // The coordinator keeps no journal/DLQ of its own — those
            // gauges are genuinely zero here, not unknown; durable state
            // lives on the shards (see `JOURNAL STATS` below).
            let live = LiveStats {
                stored_bytes: 0,
                journal_bytes: 0,
                journal_segments: 0,
                dlq: 0,
            };
            protocol::format_stats(&lock(coordinator).snapshot(), &live)
        }
        Ok(Command::Flush) => format!("OK FLUSH position={}", lock(coordinator).flush()),
        Ok(Command::Aggregate) => match lock(coordinator).aggregates() {
            Ok((position, groups)) => protocol::format_aggregate(position, &groups),
            Err(e) => format!("ERR {e}"),
        },
        Ok(Command::Checkpoint) => match lock(coordinator).checkpoint() {
            Ok(position) => format!("OK CHECKPOINT position={position}"),
            Err(e) => format!("ERR {e}"),
        },
        Ok(Command::Health) => format_cluster_health(&lock(coordinator).health()),
        Ok(Command::Use(name)) if name == DEFAULT_TENANT => "OK USING default".into(),
        Ok(Command::Use(name)) => format!(
            "ERR unknown tenant {name:?}: the coordinator serves only \"default\"; \
             run one cluster per tenant"
        ),
        Ok(Command::Metrics | Command::MetricsAll) => {
            let mut body = String::new();
            for (shard, exposition) in lock(coordinator).metrics_bodies() {
                body.push_str(&format!("# shard={shard}\n"));
                body.push_str(&exposition);
                body.push('\n');
            }
            protocol::format_metrics(body.trim_end_matches('\n'))
        }
        Ok(Command::TenantCreate(..) | Command::TenantList | Command::TenantDrop(_)) => {
            "ERR tenancy is not distributed: the coordinator is single-tenant; \
             run one cluster per tenant"
                .into()
        }
        Ok(Command::StatsAll | Command::TopKAll(_)) => {
            "ERR cross-tenant queries are not distributed: the coordinator is \
             single-tenant; run one cluster per tenant"
                .into()
        }
        Ok(Command::JournalStats) => {
            "ERR journal state lives on the shards; send JOURNAL STATS to a shard server".into()
        }
        Ok(Command::DlqReplay) => {
            "ERR dead-letter state lives on the shards; send DLQ REPLAY to a shard server".into()
        }
        Ok(Command::TraceTail(_)) => {
            "ERR trace rings live on the shards; send TRACE TAIL to a shard server".into()
        }
        Ok(Command::Shutdown) => return ("OK BYE".into(), true),
        Err(e) => format!("ERR {e}"),
    };
    (reply, false)
}
