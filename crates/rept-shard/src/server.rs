//! The coordinator's TCP front-end: the same line protocol the shard
//! servers speak, served *above* them — a client cannot tell a cluster
//! from a single [`rept_serve::Server`] on the distributed verbs.
//!
//! The transport is the serve tier's own [`LineServer`]: the same
//! thread pool, line cap, timeouts and one-write replies, so this module
//! holds only what the coordinator does with a line. Requests that move
//! the cluster lock the one [`ShardCoordinator`] — the coordinator's
//! work per verb is a handful of line-protocol exchanges with the
//! shards, which is the serialization point by design (the shards do
//! the heavy lifting concurrently in their own processes). Queries
//! (`QUERY GLOBAL|LOCAL`, `TOPK`, `STATS`) read the coordinator's
//! published snapshot cell instead, so they never wait out an `INGEST`
//! line or a publication.
//!
//! Verbs that don't distribute reply with typed errors instead of
//! pretending: tenancy (`TENANT *`, `USE` of anything but `default`,
//! scoped `INGEST`, `STATS *`, `TOPK k *`) because the coordinator is
//! single-tenant by design (run one cluster per tenant), and per-node
//! durability/observability introspection (`JOURNAL STATS`,
//! `DLQ REPLAY`, `TRACE TAIL`) because that state lives on the shards —
//! ask a shard server directly. `METRICS` *is* distributed: the reply
//! is one valid exposition of every live shard's series — each family's
//! `# TYPE` line once, followed by every shard's samples of it with a
//! `shard="<i>"` label added — then the coordinator's own
//! `rept_coordinator_*` families ([`crate::CoordinatorMetrics`]).
//! `AGGREGATE` answers the merged counters in full, `SINCE` or not.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};

use rept_serve::metrics::write_summary;
use rept_serve::protocol::{self, Command, Scope, DEFAULT_TENANT};
use rept_serve::server::{LineHandler, LineServer};
use rept_serve::snapshot::{Published, Snapshot};
use rept_serve::LiveStats;

use crate::coordinator::{format_cluster_health, CoordinatorMetrics, ShardCoordinator};

/// A running coordinator front-end. [`Self::shutdown`] stops accepting
/// and returns the coordinator (so the caller can drain or inspect the
/// cluster); a plain drop stops the acceptors too.
#[derive(Debug)]
pub struct CoordinatorServer {
    lines: LineServer,
    front: Arc<Front>,
}

/// The coordinator as a [`LineHandler`], with the cell it publishes
/// its snapshots into; connections carry no state.
#[derive(Debug)]
struct Front {
    coordinator: Mutex<ShardCoordinator>,
    published: Arc<Published<Snapshot>>,
}

impl LineHandler for Front {
    type Session = ();

    fn session(&self) {}

    fn execute(&self, line: &str, _: &mut ()) -> (String, bool) {
        execute(line, self)
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
        let front = Arc::new(Front {
            published: coordinator.published(),
            coordinator: Mutex::new(coordinator),
        });
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
        &self.front.coordinator
    }

    /// Stops accepting, joins the handler threads, and hands the
    /// coordinator back (the shards keep running — shut them down
    /// through their own servers/cores).
    pub fn shutdown(self) -> ShardCoordinator {
        let Self { mut lines, front } = self;
        lines.stop();
        let front = Arc::try_unwrap(front).expect("handlers dropped their coordinator handles");
        front
            .coordinator
            .into_inner()
            .expect("coordinator lock poisoned")
    }
}

/// Locks the coordinator for one request. A request that panicked
/// while holding it may have left the cluster half-updated, so every
/// later one panics too — which the line server answers with an `ERR`.
/// Not recovered: a panic mid-fan-out can leave shards ahead of `position`.
fn lock(coordinator: &Mutex<ShardCoordinator>) -> MutexGuard<'_, ShardCoordinator> {
    coordinator
        .lock()
        .unwrap_or_else(|_| panic!("coordinator unavailable: a request panicked while holding it"))
}

/// Parses and executes one request line against the coordinator. The
/// distributed verbs produce the same reply bytes a standalone server
/// would (shared format functions over the recombined snapshot); the
/// rest are typed errors documented in the module docs.
fn execute(line: &str, front: &Front) -> (String, bool) {
    let coordinator = &front.coordinator;
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
        Ok(Command::QueryGlobal) => protocol::format_global(&front.published.load()),
        Ok(Command::QueryLocal(v)) => protocol::format_local(&front.published.load(), v),
        Ok(Command::TopK(k)) => protocol::format_top_k(&front.published.load(), k),
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
            protocol::format_stats(&front.published.load(), &live)
        }
        Ok(Command::Flush) => format!("OK FLUSH position={}", lock(coordinator).flush()),
        Ok(Command::Aggregate | Command::AggregateSince(_)) => match lock(coordinator).aggregates()
        {
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
            let mut coordinator = lock(coordinator);
            let mut text = merge_expositions(&coordinator.metrics_bodies());
            render_coordinator_metrics(&mut text, coordinator.metrics());
            protocol::format_metrics(&text)
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

/// Joins the shards' exposition bodies, keyed by shard index, into one
/// valid exposition: each family's `# TYPE` line once (families in the
/// order first met), followed by every shard's samples of that family
/// with `shard="<i>"` as their first label. Other comment lines are
/// dropped; samples met before any `# TYPE` keep their untyped place at
/// the top.
fn merge_expositions(bodies: &[(usize, String)]) -> String {
    // (the family's `# TYPE` line, its relabelled samples)
    let mut families: Vec<(&str, String)> = vec![("", String::new())];
    let mut index: HashMap<&str, usize> = HashMap::new();
    for (shard, body) in bodies {
        let mut family = 0;
        for line in body.lines() {
            if let Some(typed) = line.strip_prefix("# TYPE ") {
                let name = typed.split(' ').next().unwrap_or(typed);
                family = *index.entry(name).or_insert_with(|| {
                    families.push((line, String::new()));
                    families.len() - 1
                });
            } else if !line.starts_with('#') && !line.is_empty() {
                let samples = &mut families[family].1;
                let name_end = line.find(['{', ' ']).unwrap_or(line.len());
                let (name, rest) = line.split_at(name_end);
                samples.push_str(name);
                let _ = match rest.strip_prefix('{') {
                    Some(labels) => writeln!(samples, "{{shard=\"{shard}\",{labels}"),
                    None => writeln!(samples, "{{shard=\"{shard}\"}}{rest}"),
                };
            }
        }
    }
    let mut out = String::new();
    for (typed, samples) in &families {
        if !typed.is_empty() {
            out.push_str(typed);
            out.push('\n');
        }
        out.push_str(samples);
    }
    out.truncate(out.trim_end_matches('\n').len());
    out
}

/// Appends the coordinator's own families to an exposition: its
/// publication-time and recombined-nodes summaries, its publications
/// that took an `O(locals)` step, the `AGGREGATE` reply bytes it read,
/// and its exchanges by `kind="full"|"delta"`.
fn render_coordinator_metrics(out: &mut String, m: &CoordinatorMetrics) {
    const LABELS: &str = "tenant=\"default\"";
    let mut block = String::new();
    for (name, h) in [
        ("rept_coordinator_publish_micros", &m.publish_micros),
        ("rept_coordinator_publish_nodes", &m.publish_nodes),
    ] {
        let _ = writeln!(block, "# TYPE {name} summary");
        write_summary(&mut block, name, LABELS, h);
    }
    let _ = writeln!(block, "# TYPE rept_coordinator_publish_full_total counter");
    let _ = writeln!(
        block,
        "rept_coordinator_publish_full_total{{{LABELS}}} {}",
        m.publish_full.get()
    );
    let _ = writeln!(
        block,
        "# TYPE rept_coordinator_aggregate_bytes_total counter"
    );
    let _ = writeln!(
        block,
        "rept_coordinator_aggregate_bytes_total{{{LABELS}}} {}",
        m.aggregate_bytes.get()
    );
    let _ = writeln!(block, "# TYPE rept_coordinator_exchanges_total counter");
    for (kind, n) in [("full", &m.full_exchanges), ("delta", &m.delta_exchanges)] {
        let _ = writeln!(
            block,
            "rept_coordinator_exchanges_total{{{LABELS},kind=\"{kind}\"}} {}",
            n.get()
        );
    }
    if !out.is_empty() {
        out.push('\n');
    }
    out.push_str(block.trim_end_matches('\n'));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merged_exposition_types_each_family_once_and_labels_every_shard() {
        let shard = |ingested: u64, p50: u64| {
            format!(
                "# TYPE rept_ingest_edges_total counter\n\
                 rept_ingest_edges_total{{tenant=\"default\"}} {ingested}\n\
                 # TYPE rept_apply_micros summary\n\
                 rept_apply_micros{{tenant=\"default\",quantile=\"0.5\"}} {p50}\n\
                 rept_apply_micros_count{{tenant=\"default\"}} 3"
            )
        };
        let merged = merge_expositions(&[(0, shard(10, 64)), (2, shard(10, 32))]);
        assert_eq!(
            merged,
            "# TYPE rept_ingest_edges_total counter\n\
             rept_ingest_edges_total{shard=\"0\",tenant=\"default\"} 10\n\
             rept_ingest_edges_total{shard=\"2\",tenant=\"default\"} 10\n\
             # TYPE rept_apply_micros summary\n\
             rept_apply_micros{shard=\"0\",tenant=\"default\",quantile=\"0.5\"} 64\n\
             rept_apply_micros_count{shard=\"0\",tenant=\"default\"} 3\n\
             rept_apply_micros{shard=\"2\",tenant=\"default\",quantile=\"0.5\"} 32\n\
             rept_apply_micros_count{shard=\"2\",tenant=\"default\"} 3"
        );
        // An unlabelled sample gains a label set; no body, no lines.
        assert_eq!(
            merge_expositions(&[(1, "# TYPE up gauge\nup 1".into())]),
            "# TYPE up gauge\nup{shard=\"1\"} 1"
        );
        assert_eq!(merge_expositions(&[]), "");
    }
}
