//! The line-oriented wire protocol (v2): command parsing and reply
//! formatting.
//!
//! Pure functions over strings — the TCP server and the client both go
//! through this module, and the unit tests exercise the grammar without
//! a socket. The full specification lives in `docs/PROTOCOL.md` at the
//! repository root (kept honest by a test that asserts every
//! [`Command`] variant is documented there) with a summary table in the
//! crate-level docs ([`crate`]).
//!
//! ## Versions
//!
//! * **v1** — single-estimator commands: `INGEST u v …`,
//!   `QUERY GLOBAL`, `QUERY LOCAL`, `TOPK`, `STATS`, `FLUSH`,
//!   `CHECKPOINT`, `SHUTDOWN`.
//! * **v2** (current) — adds tenant scoping on top, fully
//!   backwards-compatible: every v1 line parses exactly as before and
//!   acts on the connection's *current* tenant, which starts as
//!   `default`. New commands: `TENANT CREATE/LIST/DROP`, `USE <t>`, the
//!   scoped ingest form `INGEST <scope> u v …` (scope = `*` or a
//!   comma-separated tenant list — unambiguous because tenant names
//!   must start with a letter while node ids are numeric), the
//!   cross-tenant query forms `STATS *` and `TOPK <k> *`, and the
//!   durability introspection verb `JOURNAL STATS`.
//!
//! Floats are formatted with Rust's shortest-roundtrip `Display`, so a
//! client parsing a reply recovers the **bit-identical** `f64` the
//! server computed — the serve smoke test's exactness assertions go
//! through the wire and still compare with `==`.

use rept_core::GroupAggregate;
use rept_graph::edge::{Edge, NodeId};
use rept_hash::fx::FxHashMap;

use crate::client::{push_decimal, INGEST_CHUNK};
use crate::core::{Aggregates, Health, LiveStats, QuotaPolicy};
use crate::snapshot::Snapshot;
use rept_metrics::trace::TraceEvent;

/// Maximum tenant name length accepted by [`validate_tenant_name`].
pub const MAX_TENANT_NAME: usize = 64;

/// The most edges one `INGEST` line may carry: four
/// [`INGEST_CHUNK`] lines' worth. [`parse`] refuses a longer line with a
/// grammar error, which the server dead-letters, so a line costs at most
/// this many edges of allocation however long it is, and the ingest
/// queue's edge budget stays within a small factor of its bound.
pub const MAX_INGEST_EDGES: usize = 4 * INGEST_CHUNK;

/// The tenant every connection starts scoped to, and the one a v1
/// client (which never sends `USE`) talks to for its whole session.
pub const DEFAULT_TENANT: &str = "default";

/// Which tenants an `INGEST` line feeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Scope {
    /// v1 form (`INGEST u v …`): the connection's current tenant.
    Current,
    /// `INGEST * u v …`: every tenant of the router.
    All,
    /// `INGEST a,b u v …`: the named tenants.
    Named(Vec<String>),
}

/// Per-tenant configuration overrides carried by `TENANT CREATE`.
/// Unset fields inherit the router's base configuration.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantOptions {
    /// `engine=<per-worker|fused-hybrid>` (the retired names `fused`,
    /// `fused-hash` and `fused-sorted` are aliases of `fused-hybrid`).
    pub engine: Option<rept_core::Engine>,
    /// `m=<partition size>`.
    pub m: Option<u64>,
    /// `c=<processor count>`.
    pub c: Option<u64>,
    /// `seed=<hash seed>` — mutually exclusive with `interval`.
    pub seed: Option<u64>,
    /// `interval=<index>` — derive the tenant's seed from the router's
    /// base seed through the `IntervalEstimator` sequence, making the
    /// tenant an independent sliding-window estimator.
    pub interval: Option<u64>,
    /// `memory_budget=<bytes>` — cap the tenant's adjacency bytes.
    /// Under the default [`QuotaPolicy::Shed`] the tenant runs the
    /// bounded-memory reservoir engine; under `reject`/`degrade` the
    /// full engine runs and writes past the budget are refused.
    pub memory_budget: Option<u64>,
    /// `quota=<shed|reject|degrade>` — what happens at the budget.
    /// Requires `memory_budget`.
    pub quota: Option<QuotaPolicy>,
}

/// A parsed client command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `INGEST [scope] u1 v1 [u2 v2 …]` — queue edges for ingestion.
    Ingest(Scope, Vec<Edge>),
    /// `QUERY GLOBAL` — the current tenant's global estimate with
    /// confidence interval.
    QueryGlobal,
    /// `QUERY LOCAL v` — one node's local estimate.
    QueryLocal(NodeId),
    /// `TOPK k` — the k largest local estimates of the current tenant.
    TopK(usize),
    /// `TOPK k *` — the k largest local estimates across all tenants,
    /// merged descending, entries labelled `tenant/node=value`.
    TopKAll(usize),
    /// `STATS` — current-tenant server statistics.
    Stats,
    /// `STATS *` — statistics aggregated over all tenants.
    StatsAll,
    /// `JOURNAL STATS` — the current tenant's durability state:
    /// journal enabled flag, bytes, segments, replayed edges, DLQ count.
    JournalStats,
    /// `FLUSH` — barrier: apply everything queued to the current
    /// tenant, republish, reply.
    Flush,
    /// `CHECKPOINT` — checkpoint the current tenant, reply with its
    /// position.
    Checkpoint,
    /// `SHUTDOWN` — stop accepting connections and drain.
    Shutdown,
    /// `TENANT CREATE name [key=value …]` — create a tenant.
    TenantCreate(String, TenantOptions),
    /// `TENANT LIST` — list tenants and their stream positions.
    TenantList,
    /// `TENANT DROP name` — shut a tenant down and remove it.
    TenantDrop(String),
    /// `USE name` — switch the connection's current tenant.
    Use(String),
    /// `HEALTH` — the current tenant's pressure gauges: degradation
    /// state, ingest-queue depth, stored bytes vs. budget, journal lag,
    /// DLQ depth.
    Health,
    /// `DLQ REPLAY` — drain the current tenant's dead-letter file and
    /// feed each captured line back through the ingest parser; lines
    /// that fail again are re-dead-lettered.
    DlqReplay,
    /// `METRICS` — Prometheus-style text exposition for the current
    /// tenant. The reply is multi-line, framed by `OK METRICS lines=<n>`
    /// followed by exactly `n` exposition lines.
    Metrics,
    /// `METRICS *` — exposition for every tenant, plus `tenant="_all"`
    /// rows aggregating counters (summed) and histograms (bucket-merged)
    /// across tenants.
    MetricsAll,
    /// `TRACE TAIL n` — drain the current tenant's slow-op trace ring:
    /// the newest `n` events, oldest first, framed like `METRICS`.
    TraceTail(usize),
    /// `AGGREGATE` — the aggregate-exchange verb the shard tier is
    /// built on: a barrier (everything queued is applied first), then
    /// the current tenant's raw per-group counters
    /// ([`rept_core::GroupAggregate`]) over the wire, framed like
    /// `METRICS` by `OK AGGREGATE position=<p> groups=<g> lines=<n>`.
    /// All counters are integers, so the exchange is exact — a
    /// coordinator recombines shard replies through
    /// `Rept::finalize_groups` into the bit-identical single-process
    /// estimate.
    Aggregate,
    /// `AGGREGATE SINCE <p>` — [`Self::Aggregate`] as a delta: when `p`
    /// is the position of the tenant's last answered exchange, the
    /// header gains ` since=<p>` and the `TV`/`EV` lines carry only the
    /// nodes whose counters moved since then (absolute values, sorted by
    /// node id); the `G` lines stay complete. Otherwise the reply is the
    /// full one, without `since=`.
    AggregateSince(u64),
}

/// One documented wire form per [`Command`] variant, in declaration
/// order: `(variant name, canonical wire form)`. `docs/PROTOCOL.md` is
/// kept honest by a test asserting every entry here appears in the doc,
/// and that this table covers every enum variant in the source.
pub const COMMAND_FORMS: &[(&str, &str)] = &[
    ("Ingest", "INGEST"),
    ("QueryGlobal", "QUERY GLOBAL"),
    ("QueryLocal", "QUERY LOCAL"),
    ("TopK", "TOPK"),
    ("TopKAll", "TOPK <k> *"),
    ("Stats", "STATS"),
    ("StatsAll", "STATS *"),
    ("JournalStats", "JOURNAL STATS"),
    ("Flush", "FLUSH"),
    ("Checkpoint", "CHECKPOINT"),
    ("Shutdown", "SHUTDOWN"),
    ("TenantCreate", "TENANT CREATE"),
    ("TenantList", "TENANT LIST"),
    ("TenantDrop", "TENANT DROP"),
    ("Use", "USE"),
    ("Health", "HEALTH"),
    ("DlqReplay", "DLQ REPLAY"),
    ("Metrics", "METRICS"),
    ("MetricsAll", "METRICS *"),
    ("TraceTail", "TRACE TAIL"),
    ("Aggregate", "AGGREGATE"),
    ("AggregateSince", "AGGREGATE SINCE"),
];

/// Checks a tenant name: starts with an ASCII letter, continues with
/// letters, digits, `_` or `-`, at most [`MAX_TENANT_NAME`] bytes. The
/// leading letter is what disambiguates the scoped `INGEST` form from
/// v1's numeric node ids, and the character set keeps names safe as
/// checkpoint directory names.
///
/// # Errors
///
/// A description of the violation.
pub fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("tenant name must not be empty".into());
    }
    if name.len() > MAX_TENANT_NAME {
        return Err(format!("tenant name longer than {MAX_TENANT_NAME} bytes"));
    }
    let mut chars = name.chars();
    if !chars.next().is_some_and(|c| c.is_ascii_alphabetic()) {
        return Err(format!("tenant name {name:?} must start with a letter"));
    }
    if !chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '-') {
        return Err(format!(
            "tenant name {name:?} may only contain letters, digits, '_' and '-'"
        ));
    }
    Ok(())
}

/// Parses one request line.
///
/// # Errors
///
/// A human-readable description of the grammar violation (sent back as
/// an `ERR` reply).
pub fn parse(line: &str) -> Result<Command, String> {
    let mut tokens = line.split_ascii_whitespace();
    let verb = tokens.next().ok_or("empty command")?;
    match verb {
        // The first token starts the trimmed line, so the arguments are
        // what follows it.
        "INGEST" => parse_ingest(&line.trim_ascii_start()[verb.len()..]),
        "QUERY" => match tokens.next() {
            Some("GLOBAL") => expect_end(tokens, Command::QueryGlobal),
            Some("LOCAL") => {
                let v = tokens.next().ok_or("QUERY LOCAL needs a node id")?;
                let v: NodeId = v.parse().map_err(|_| format!("bad node id {v:?}"))?;
                expect_end(tokens, Command::QueryLocal(v))
            }
            _ => Err("QUERY needs GLOBAL or LOCAL".into()),
        },
        "TOPK" => {
            let k = tokens.next().ok_or("TOPK needs a count")?;
            let k: usize = k.parse().map_err(|_| format!("bad count {k:?}"))?;
            match tokens.next() {
                None => Ok(Command::TopK(k)),
                Some("*") => expect_end(tokens, Command::TopKAll(k)),
                Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
            }
        }
        "STATS" => match tokens.next() {
            None => Ok(Command::Stats),
            Some("*") => expect_end(tokens, Command::StatsAll),
            Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
        },
        "JOURNAL" => match tokens.next() {
            Some("STATS") => expect_end(tokens, Command::JournalStats),
            _ => Err("JOURNAL needs STATS".into()),
        },
        "FLUSH" => expect_end(tokens, Command::Flush),
        "CHECKPOINT" => expect_end(tokens, Command::Checkpoint),
        "SHUTDOWN" => expect_end(tokens, Command::Shutdown),
        "TENANT" => match tokens.next() {
            Some("CREATE") => {
                let name = tokens.next().ok_or("TENANT CREATE needs a name")?;
                validate_tenant_name(name)?;
                let opts = parse_tenant_options(tokens)?;
                Ok(Command::TenantCreate(name.to_string(), opts))
            }
            Some("LIST") => expect_end(tokens, Command::TenantList),
            Some("DROP") => {
                let name = tokens.next().ok_or("TENANT DROP needs a name")?;
                validate_tenant_name(name)?;
                expect_end(tokens, Command::TenantDrop(name.to_string()))
            }
            _ => Err("TENANT needs CREATE, LIST or DROP".into()),
        },
        "USE" => {
            let name = tokens.next().ok_or("USE needs a tenant name")?;
            validate_tenant_name(name)?;
            expect_end(tokens, Command::Use(name.to_string()))
        }
        "HEALTH" => expect_end(tokens, Command::Health),
        "DLQ" => match tokens.next() {
            Some("REPLAY") => expect_end(tokens, Command::DlqReplay),
            _ => Err("DLQ needs REPLAY".into()),
        },
        "METRICS" => match tokens.next() {
            None => Ok(Command::Metrics),
            Some("*") => expect_end(tokens, Command::MetricsAll),
            Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
        },
        "TRACE" => match tokens.next() {
            Some("TAIL") => {
                let n = tokens.next().ok_or("TRACE TAIL needs a count")?;
                let n: usize = n.parse().map_err(|_| format!("bad count {n:?}"))?;
                expect_end(tokens, Command::TraceTail(n))
            }
            _ => Err("TRACE needs TAIL <n>".into()),
        },
        "AGGREGATE" => match tokens.next() {
            None => Ok(Command::Aggregate),
            Some("SINCE") => {
                let p = tokens.next().ok_or("AGGREGATE SINCE needs a position")?;
                let p: u64 = p.parse().map_err(|_| format!("bad position {p:?}"))?;
                expect_end(tokens, Command::AggregateSince(p))
            }
            Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
        },
        other => Err(format!("unknown command {other:?}")),
    }
}

/// Parses the arguments of an `INGEST` line, `[scope] u1 v1 [u2 v2 …]`,
/// in one pass over the bytes and without collecting the tokens.
///
/// The errors, and which one wins, are those of a parse that splits the
/// whole line first: no edge, then a bad scope, then more than
/// [`MAX_INGEST_EDGES`] pairs, then an odd id count, then, for the first
/// pair that fails, a bad `u`, a bad `v` or a self-loop. So the scan
/// notes the first failing pair and keeps counting tokens, and builds
/// the message only if it returns it; it stops at the first pair past
/// the cap.
fn parse_ingest(args: &str) -> Result<Command, String> {
    /// The first failure of the pair scan, formatted only when returned.
    enum Bad<'a> {
        Id(&'a str),
        SelfLoop(NodeId, NodeId),
    }
    let mut at = 0;
    let mut next = || next_token(args, &mut at);
    let mut first = next().ok_or("INGEST needs at least one edge")?;
    // v2 scoped form: the leading token is a scope only when it *could*
    // be one — `*` or something starting with a letter (tenant names
    // must). Anything else (digits, and oddities like `+1` that u32
    // parsing accepts) flows through the v1 node-id path unchanged,
    // preserving exact v1 behaviour.
    let scope = if first.0 == "*" || first.0.as_bytes()[0].is_ascii_alphabetic() {
        let scope = parse_scope(first.0)?;
        first = next().ok_or("INGEST needs at least one edge")?;
        scope
    } else {
        Scope::Current
    };
    let mut edges = Vec::new();
    let mut bad = None;
    let mut pairs = 0;
    let mut u = first;
    loop {
        let Some(v) = next() else {
            return Err("INGEST needs an even number of node ids".into());
        };
        pairs += 1;
        if pairs > MAX_INGEST_EDGES {
            return Err(format!("INGEST carries more than {MAX_INGEST_EDGES} edges"));
        }
        if bad.is_none() {
            let id = |(tok, plain): (&str, Option<NodeId>)| plain.or_else(|| tok.parse().ok());
            bad = match (id(u), id(v)) {
                (None, _) => Some(Bad::Id(u.0)),
                (_, None) => Some(Bad::Id(v.0)),
                (Some(u), Some(v)) => match Edge::try_new(u, v) {
                    Some(e) => {
                        edges.push(e);
                        None
                    }
                    None => Some(Bad::SelfLoop(u, v)),
                },
            };
        }
        match next() {
            Some(tok) => u = tok,
            None => break,
        }
    }
    match bad {
        None => Ok(Command::Ingest(scope, edges)),
        Some(Bad::Id(tok)) => Err(format!("bad node id {tok:?}")),
        Some(Bad::SelfLoop(u, v)) => Err(format!("self-loop {u}-{v} rejected")),
    }
}

/// The next ASCII-whitespace-separated token of `text` at or after
/// byte `*at`, with its value when it is a plain run of
/// 1–9 ASCII digits — short enough that it cannot overflow a
/// [`NodeId`]. Other tokens are left to `str::parse`, which decides
/// what `+5`, ten-digit values or overflow mean.
fn next_token<'a>(text: &'a str, at: &mut usize) -> Option<(&'a str, Option<NodeId>)> {
    let bytes = text.as_bytes();
    let mut i = *at;
    while i < bytes.len() && bytes[i].is_ascii_whitespace() {
        i += 1;
    }
    if i == bytes.len() {
        *at = i;
        return None;
    }
    let start = i;
    let mut value: NodeId = 0;
    let mut plain = true;
    while i < bytes.len() && !bytes[i].is_ascii_whitespace() {
        let digit = bytes[i].wrapping_sub(b'0');
        plain &= digit < 10 && i - start < 9;
        value = value.wrapping_mul(10).wrapping_add(NodeId::from(digit));
        i += 1;
    }
    *at = i;
    Some((&text[start..i], plain.then_some(value)))
}

/// Parses an ingest scope token: `*` or a comma-separated tenant list.
/// Repeated names are rejected — a duplicate would silently apply every
/// edge twice to that tenant, permanently diverging its estimate.
fn parse_scope(tok: &str) -> Result<Scope, String> {
    if tok == "*" {
        return Ok(Scope::All);
    }
    let mut names: Vec<String> = Vec::new();
    for name in tok.split(',') {
        validate_tenant_name(name)?;
        if names.iter().any(|n| n == name) {
            return Err(format!("duplicate tenant {name:?} in scope"));
        }
        names.push(name.to_string());
    }
    Ok(Scope::Named(names))
}

/// Parses `key=value` tenant-creation options.
fn parse_tenant_options<'a>(
    tokens: impl Iterator<Item = &'a str>,
) -> Result<TenantOptions, String> {
    let mut opts = TenantOptions::default();
    for tok in tokens {
        let (key, value) = tok
            .split_once('=')
            .ok_or_else(|| format!("expected key=value, got {tok:?}"))?;
        match key {
            "engine" => {
                opts.engine = Some(
                    rept_core::Engine::from_name(value)
                        .ok_or_else(|| format!("unknown engine {value:?}"))?,
                );
            }
            "m" => opts.m = Some(parse_num(key, value)?),
            "c" => opts.c = Some(parse_num(key, value)?),
            "seed" => opts.seed = Some(parse_num(key, value)?),
            "interval" => opts.interval = Some(parse_num(key, value)?),
            "memory_budget" => opts.memory_budget = Some(parse_num(key, value)?),
            "quota" => {
                opts.quota = Some(
                    QuotaPolicy::from_name(value)
                        .ok_or_else(|| format!("unknown quota policy {value:?}"))?,
                );
            }
            other => return Err(format!("unknown tenant option {other:?}")),
        }
    }
    if opts.seed.is_some() && opts.interval.is_some() {
        return Err("seed and interval are mutually exclusive (interval derives the seed)".into());
    }
    if opts.quota.is_some() && opts.memory_budget.is_none() {
        return Err("quota policy requires a memory_budget to enforce".into());
    }
    Ok(opts)
}

fn parse_num(key: &str, value: &str) -> Result<u64, String> {
    value
        .parse()
        .map_err(|_| format!("bad value for {key}: {value:?}"))
}

fn expect_end<'a>(
    mut tokens: impl Iterator<Item = &'a str>,
    cmd: Command,
) -> Result<Command, String> {
    match tokens.next() {
        None => Ok(cmd),
        Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
    }
}

/// `OK GLOBAL …` reply for `QUERY GLOBAL`.
pub fn format_global(snap: &Snapshot) -> String {
    let ci = match snap.confidence95 {
        Some((lo, hi)) => format!("{lo},{hi}"),
        None => "na".into(),
    };
    format!(
        "OK GLOBAL position={} tau={} ci95={ci}",
        snap.position, snap.global
    )
}

/// `OK LOCAL …` reply for `QUERY LOCAL`.
pub fn format_local(snap: &Snapshot, v: NodeId) -> String {
    format!(
        "OK LOCAL position={} node={v} tau_v={}",
        snap.position,
        snap.local(v)
    )
}

/// `OK TOPK …` reply for `TOPK`.
pub fn format_top_k(snap: &Snapshot, k: usize) -> String {
    let mut out = format!(
        "OK TOPK position={} k={}",
        snap.position,
        snap.top_k.len().min(k)
    );
    for &(v, t) in snap.top_k.iter().take(k) {
        out.push_str(&format!(" {v}={t}"));
    }
    out
}

/// `OK TOPK ALL …` reply for `TOPK <k> *`: entries are
/// `tenant/node=value`, merged across tenants, descending.
pub fn format_top_k_all(entries: &[(String, NodeId, f64)], k: usize) -> String {
    let mut out = format!("OK TOPK ALL k={}", entries.len().min(k));
    for (tenant, v, t) in entries.iter().take(k) {
        out.push_str(&format!(" {tenant}/{v}={t}"));
    }
    out
}

/// `OK STATS ALL …` reply for `STATS *`.
pub fn format_stats_all(stats: &crate::tenant::RouterStats) -> String {
    format!(
        "OK STATS ALL tenants={} position={} stored_edges={} bytes={} checkpoints={} \
         tracked_nodes={} journal_bytes={} dlq={}",
        stats.tenants,
        stats.position,
        stats.stored_edges,
        stats.bytes,
        stats.checkpoints,
        stats.tracked_nodes,
        stats.journal_bytes,
        stats.dlq,
    )
}

/// `OK STATS …` reply for `STATS`. Estimator fields (position, counts,
/// bytes) come from the published snapshot; the journal and DLQ fields
/// come from `live` — gauge-backed readings, so an idle tenant reports
/// its current durability state rather than the last publication's.
pub fn format_stats(snap: &Snapshot, live: &LiveStats) -> String {
    format!(
        "OK STATS position={} seq={} checkpoints={} engine={} m={} c={} stored_edges={} \
         bytes={} tracked_nodes={} journal_bytes={} journal_segments={} replayed={} dlq={}",
        snap.position,
        snap.seq,
        snap.checkpoints,
        snap.engine.name(),
        snap.m,
        snap.c,
        snap.stored_edges,
        snap.total_bytes,
        snap.locals.len(),
        live.journal_bytes,
        live.journal_segments,
        snap.durability.replayed,
        live.dlq,
    )
}

/// `OK JOURNAL …` reply for `JOURNAL STATS` — the durability state of
/// the current tenant. Bytes, segments and the DLQ count are live
/// gauge readings (see [`format_stats`]).
pub fn format_journal_stats(snap: &Snapshot, live: &LiveStats) -> String {
    format!(
        "OK JOURNAL enabled={} position={} bytes={} segments={} replayed={} dlq={}",
        u8::from(snap.durability.enabled),
        snap.position,
        live.journal_bytes,
        live.journal_segments,
        snap.durability.replayed,
        live.dlq,
    )
}

/// `OK HEALTH …` reply for `HEALTH` — the current tenant's pressure
/// gauges. `budget=0` means unlimited; `state` is `ok` or `degraded`;
/// `sync` is the journal fsync policy (`none` without a journal) and
/// `last_group` the size of the most recent group commit in batches.
pub fn format_health(tenant: &str, h: &Health) -> String {
    format!(
        "OK HEALTH tenant={tenant} state={} queue={} capacity={} bytes={} budget={} \
         journal_lag={} dlq={} sync={} last_group={}",
        if h.degraded { "degraded" } else { "ok" },
        h.queue_depth,
        h.queue_capacity,
        h.stored_bytes,
        h.memory_budget,
        h.journal_lag_bytes,
        h.dlq,
        h.sync,
        h.last_group,
    )
}

/// `OK METRICS lines=<n>` framing for a `METRICS` reply: the header
/// line followed by the exposition `body` verbatim. `n` counts the
/// body's lines so a client knows exactly how many lines to read after
/// the header (0 for an empty body).
pub fn format_metrics(body: &str) -> String {
    if body.is_empty() {
        return "OK METRICS lines=0".to_string();
    }
    let lines = body.lines().count();
    format!("OK METRICS lines={lines}\n{body}")
}

/// `OK TRACE lines=<n>` reply for `TRACE TAIL`: the header followed by
/// one line per drained slow-op event, oldest first —
/// `at_us=<t> op=<name> micros=<d> [detail]`.
pub fn format_trace(events: &[TraceEvent]) -> String {
    let mut out = format!("OK TRACE lines={}", events.len());
    for e in events {
        out.push_str(&format!(
            "\nat_us={} op={} micros={}",
            e.at_micros, e.op, e.micros
        ));
        if !e.detail.is_empty() {
            out.push(' ');
            out.push_str(&e.detail);
        }
    }
    out
}

/// `OK DLQ REPLAYED …` reply for `DLQ REPLAY`: `n` lines drained from
/// the dead-letter file, of which `failed` were rejected again (and
/// re-captured).
pub fn format_dlq_replayed(n: u64, failed: u64) -> String {
    format!("OK DLQ REPLAYED n={n} failed={failed}")
}

/// `OK AGGREGATE position=<p> groups=<g> lines=<n>` reply for
/// `AGGREGATE`: the header followed by exactly three lines per group —
///
/// ```text
/// G start=<s> bytes=<b> eta=<e> tau=<t0,t1,…> stored=<s0,s1,…>
/// TV none | TV <node>:<count> …
/// EV none | EV <node>:<count> …
/// ```
///
/// Every field is an integer, so parsing a reply recovers the exact
/// [`GroupAggregate`]s the server held. The per-node maps are emitted
/// sorted by node id, making the reply deterministic (the maps
/// themselves iterate in hash order).
///
/// The reply is written into one buffer with a digit routine, so it
/// costs its bytes plus one sort per map — nothing per counter.
pub fn format_aggregate(position: u64, groups: &[GroupAggregate]) -> String {
    encode_aggregate(position, None, groups)
}

/// The reply to `AGGREGATE` or `AGGREGATE SINCE <p>`: the
/// [`format_aggregate`] block, whose header ends in ` since=<p>` when
/// the exchange is a delta.
pub fn format_aggregates(reply: &Aggregates) -> String {
    encode_aggregate(reply.position, reply.since, &reply.groups)
}

/// The one `AGGREGATE` encoder behind [`format_aggregate`] and
/// [`format_aggregates`].
fn encode_aggregate(position: u64, since: Option<u64>, groups: &[GroupAggregate]) -> String {
    fn csv(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
        for (i, x) in values.enumerate() {
            if i > 0 {
                out.push(b',');
            }
            push_decimal(out, x);
        }
    }
    let mut out = Vec::new();
    out.extend_from_slice(b"OK AGGREGATE position=");
    push_decimal(&mut out, position);
    out.extend_from_slice(b" groups=");
    push_decimal(&mut out, groups.len() as u64);
    out.extend_from_slice(b" lines=");
    push_decimal(&mut out, groups.len() as u64 * 3);
    if let Some(since) = since {
        out.extend_from_slice(b" since=");
        push_decimal(&mut out, since);
    }
    let mut entries: Vec<(NodeId, u64)> = Vec::new();
    for g in groups {
        out.extend_from_slice(b"\nG start=");
        push_decimal(&mut out, g.start as u64);
        out.extend_from_slice(b" bytes=");
        push_decimal(&mut out, g.bytes as u64);
        out.extend_from_slice(b" eta=");
        push_decimal(&mut out, g.eta_total);
        out.extend_from_slice(b" tau=");
        csv(&mut out, g.tau.iter().copied());
        out.extend_from_slice(b" stored=");
        csv(&mut out, g.stored.iter().map(|&s| s as u64));
        for (tag, map) in [(&b"\nTV"[..], &g.tau_v), (&b"\nEV"[..], &g.eta_v)] {
            out.extend_from_slice(tag);
            let Some(map) = map else {
                out.extend_from_slice(b" none");
                continue;
            };
            entries.clear();
            entries.extend(map.iter().map(|(&v, &t)| (v, t)));
            entries.sort_unstable();
            for &(v, t) in &entries {
                out.push(b' ');
                push_decimal(&mut out, u64::from(v));
                out.push(b':');
                push_decimal(&mut out, t);
            }
        }
    }
    String::from_utf8(out).expect("the AGGREGATE reply is ASCII")
}

/// Parses an `AGGREGATE` reply — the client half of
/// [`format_aggregate`]. `header` is the `OK AGGREGATE …` line, `body`
/// the `lines=<n>` lines that followed it.
///
/// # Errors
///
/// A description of the framing or field violation.
pub fn parse_aggregate_reply(
    header: &str,
    body: &[String],
) -> Result<(u64, Vec<GroupAggregate>), String> {
    let field = |key: &str| -> Result<u64, String> {
        reply_field(header, key)
            .ok_or_else(|| format!("AGGREGATE header missing {key}="))?
            .parse::<u64>()
            .map_err(|_| format!("bad {key} in AGGREGATE header"))
    };
    let position = field("position")?;
    let n_groups = field("groups")? as usize;
    let expected = n_groups.saturating_mul(3);
    if body.len() != expected {
        return Err(format!(
            "AGGREGATE body has {} lines, expected {expected}",
            body.len(),
        ));
    }
    let parse_csv = |s: &str| -> Result<Vec<u64>, String> {
        if s.is_empty() {
            return Ok(Vec::new());
        }
        s.split(',')
            .map(|t| t.parse::<u64>().map_err(|_| format!("bad counter {t:?}")))
            .collect()
    };
    let mut groups = Vec::with_capacity(n_groups);
    for chunk in body.chunks(3) {
        let g = &chunk[0];
        if !g.starts_with("G ") {
            return Err(format!("expected G line, got {g:?}"));
        }
        let gfield = |key: &str| -> Result<u64, String> {
            reply_field(g, key)
                .ok_or_else(|| format!("G line missing {key}="))?
                .parse::<u64>()
                .map_err(|_| format!("bad {key} in G line"))
        };
        let tau = parse_csv(reply_field(g, "tau").ok_or("G line missing tau=")?)?;
        let stored = parse_csv(reply_field(g, "stored").ok_or("G line missing stored=")?)?;
        if tau.len() != stored.len() {
            return Err("tau and stored lengths differ".into());
        }
        groups.push(GroupAggregate {
            start: gfield("start")? as usize,
            tau,
            stored: stored.into_iter().map(|s| s as usize).collect(),
            bytes: gfield("bytes")? as usize,
            eta_total: gfield("eta")?,
            tau_v: parse_counter_map(&chunk[1], "TV")?,
            eta_v: parse_counter_map(&chunk[2], "EV")?,
        });
    }
    Ok((position, groups))
}

/// Parses the reply to `AGGREGATE` or `AGGREGATE SINCE <p>` — the
/// client half of [`format_aggregates`]: [`parse_aggregate_reply`] plus
/// the optional `since=` base, which must be a position no later than
/// the reply's own.
///
/// # Errors
///
/// As [`parse_aggregate_reply`], and for a malformed `since=`.
pub fn parse_aggregates(header: &str, body: &[String]) -> Result<Aggregates, String> {
    let (position, groups) = parse_aggregate_reply(header, body)?;
    let since = match reply_field(header, "since") {
        None => None,
        Some(p) => match p.parse::<u64>() {
            Ok(p) if p <= position => Some(p),
            _ => return Err(format!("bad since={p:?} in AGGREGATE header")),
        },
    };
    Ok(Aggregates {
        position,
        since,
        groups,
    })
}

/// Parses a `TV`/`EV` line of an `AGGREGATE` reply (`<tag> none` or
/// `<tag> <node>:<count> …`) in one pass over its bytes. A token of
/// plain digits is read inline; any other token takes the `str::parse`
/// path, which fixes what it accepts (`+5`, leading zeros) and every
/// error text. The map's capacity comes from the line's length — an
/// entry takes at least 4 bytes (` v:t`) — so it stays bounded by the
/// input.
fn parse_counter_map(line: &str, tag: &str) -> Result<Option<FxHashMap<NodeId, u64>>, String> {
    let rest = line
        .strip_prefix(tag)
        .ok_or_else(|| format!("expected {tag} line, got {line:?}"))?
        .trim_start();
    if rest == "none" {
        return Ok(None);
    }
    let mut map = FxHashMap::with_capacity_and_hasher(rest.len().div_ceil(4), Default::default());
    let bytes = rest.as_bytes();
    let mut at = 0;
    loop {
        while bytes.get(at).is_some_and(u8::is_ascii_whitespace) {
            at += 1;
        }
        if at == bytes.len() {
            return Ok(Some(map));
        }
        let start = at;
        // Plain digits, a ':' and plain digits, ending the token: at most
        // 10 digits for the id and 19 for the count cannot have wrapped.
        let (v, v_digits) = digit_run(bytes, &mut at);
        let colon = bytes.get(at) == Some(&b':');
        at += usize::from(colon);
        let (t, t_digits) = digit_run(bytes, &mut at);
        let ends = bytes.get(at).is_none_or(u8::is_ascii_whitespace);
        if let (true, 1..=10, 1..=19, true, Ok(v)) =
            (colon, v_digits, t_digits, ends, NodeId::try_from(v))
        {
            map.insert(v, t);
            continue;
        }
        while bytes.get(at).is_some_and(|b| !b.is_ascii_whitespace()) {
            at += 1;
        }
        // ASCII whitespace and the line's ends are char boundaries.
        let tok = &rest[start..at];
        let (v, t) = tok
            .split_once(':')
            .ok_or_else(|| format!("bad {tag} entry {tok:?}"))?;
        let v: NodeId = v.parse().map_err(|_| format!("bad node id {v:?}"))?;
        let t: u64 = t.parse().map_err(|_| format!("bad count {t:?}"))?;
        map.insert(v, t);
    }
}

/// Reads the run of ASCII digits at `*at`, advancing past it: the value
/// (wrapped past 19 digits) and the run's length.
fn digit_run(bytes: &[u8], at: &mut usize) -> (u64, usize) {
    let from = *at;
    let mut x = 0u64;
    while let Some(d) = bytes.get(*at).filter(|b| b.is_ascii_digit()) {
        x = x.wrapping_mul(10).wrapping_add(u64::from(d - b'0'));
        *at += 1;
    }
    (x, *at - from)
}

/// Extracts the value of a `key=value` token from a reply line — the
/// client-side accessor for every `OK` payload.
pub fn reply_field<'a>(reply: &'a str, key: &str) -> Option<&'a str> {
    reply
        .split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_core::Engine;
    use rept_hash::SplitMix64;

    #[test]
    fn parses_every_v1_verb() {
        assert_eq!(
            parse("INGEST 1 2 3 4"),
            Ok(Command::Ingest(
                Scope::Current,
                vec![Edge::new(1, 2), Edge::new(3, 4)]
            ))
        );
        assert_eq!(parse("QUERY GLOBAL"), Ok(Command::QueryGlobal));
        assert_eq!(parse("QUERY LOCAL 17"), Ok(Command::QueryLocal(17)));
        assert_eq!(parse("TOPK 5"), Ok(Command::TopK(5)));
        assert_eq!(parse("STATS"), Ok(Command::Stats));
        assert_eq!(parse("FLUSH"), Ok(Command::Flush));
        assert_eq!(parse("CHECKPOINT"), Ok(Command::Checkpoint));
        assert_eq!(parse("SHUTDOWN"), Ok(Command::Shutdown));
        assert_eq!(parse("  QUERY   GLOBAL  "), Ok(Command::QueryGlobal));
    }

    #[test]
    fn parses_tenant_verbs() {
        assert_eq!(
            parse("TENANT CREATE alpha"),
            Ok(Command::TenantCreate(
                "alpha".into(),
                TenantOptions::default()
            ))
        );
        assert_eq!(
            parse("TENANT CREATE w7 engine=per-worker m=8 c=16 seed=3"),
            Ok(Command::TenantCreate(
                "w7".into(),
                TenantOptions {
                    engine: Some(Engine::PerWorker),
                    m: Some(8),
                    c: Some(16),
                    seed: Some(3),
                    ..TenantOptions::default()
                }
            ))
        );
        assert_eq!(
            parse("TENANT CREATE win interval=4"),
            Ok(Command::TenantCreate(
                "win".into(),
                TenantOptions {
                    interval: Some(4),
                    ..TenantOptions::default()
                }
            ))
        );
        assert_eq!(parse("TENANT LIST"), Ok(Command::TenantList));
        assert_eq!(
            parse("TENANT DROP alpha"),
            Ok(Command::TenantDrop("alpha".into()))
        );
        assert_eq!(parse("USE alpha"), Ok(Command::Use("alpha".into())));
    }

    #[test]
    fn parses_scoped_ingest_and_cross_tenant_queries() {
        assert_eq!(
            parse("INGEST * 1 2"),
            Ok(Command::Ingest(Scope::All, vec![Edge::new(1, 2)]))
        );
        assert_eq!(
            parse("INGEST alpha,beta 1 2"),
            Ok(Command::Ingest(
                Scope::Named(vec!["alpha".into(), "beta".into()]),
                vec![Edge::new(1, 2)]
            ))
        );
        // v1 node-id oddities that u32 parsing accepts must not be
        // mistaken for scopes.
        assert_eq!(
            parse("INGEST +1 2"),
            Ok(Command::Ingest(Scope::Current, vec![Edge::new(1, 2)]))
        );
        assert!(
            parse("INGEST alpha,alpha 1 2").is_err(),
            "duplicate scope names double-apply edges"
        );
        assert_eq!(parse("TOPK 5 *"), Ok(Command::TopKAll(5)));
        assert_eq!(parse("STATS *"), Ok(Command::StatsAll));
    }

    #[test]
    fn rejects_bad_grammar() {
        assert!(parse("").is_err());
        assert!(parse("NOPE").is_err());
        assert!(parse("INGEST").is_err());
        assert!(parse("INGEST 1").is_err(), "odd id count");
        assert!(parse("INGEST 1 x").is_err(), "non-numeric id");
        assert!(parse("INGEST 3 3").is_err(), "self-loop");
        assert!(parse("INGEST *").is_err(), "scope without edges");
        assert!(parse("INGEST alpha 1").is_err(), "scoped odd id count");
        assert!(parse("QUERY").is_err());
        assert!(parse("QUERY LOCAL").is_err());
        assert!(parse("QUERY LOCAL 1 2").is_err(), "trailing token");
        assert!(parse("TOPK").is_err());
        assert!(parse("TOPK -3").is_err());
        assert!(parse("TOPK 3 * x").is_err(), "trailing token after *");
        assert!(parse("STATS now").is_err());
        assert!(parse("TENANT").is_err());
        assert!(parse("TENANT CREATE").is_err());
        assert!(parse("TENANT CREATE 9lives").is_err(), "leading digit");
        assert!(parse("TENANT CREATE a/b").is_err(), "bad character");
        assert!(
            parse("TENANT CREATE a seed=1 interval=2").is_err(),
            "seed and interval are exclusive"
        );
        assert!(parse("TENANT CREATE a engine=warp").is_err());
        assert!(parse("TENANT CREATE a m=").is_err());
        assert!(parse("TENANT CREATE a novalue").is_err());
        assert!(parse("TENANT DROP").is_err());
        assert!(parse("USE").is_err());
        assert!(parse("USE two words").is_err());
    }

    #[test]
    fn tenant_name_validation() {
        assert!(validate_tenant_name("alpha").is_ok());
        assert!(validate_tenant_name("a1_b-2").is_ok());
        assert!(validate_tenant_name("").is_err());
        assert!(validate_tenant_name("1abc").is_err());
        assert!(validate_tenant_name("*").is_err());
        assert!(validate_tenant_name("a,b").is_err());
        assert!(validate_tenant_name(&"x".repeat(MAX_TENANT_NAME + 1)).is_err());
    }

    #[test]
    fn command_forms_cover_every_variant() {
        // One entry per variant, in declaration order — the docs test
        // leans on this table, so it must stay complete.
        let variants = [
            "Ingest",
            "QueryGlobal",
            "QueryLocal",
            "TopK",
            "TopKAll",
            "Stats",
            "StatsAll",
            "JournalStats",
            "Flush",
            "Checkpoint",
            "Shutdown",
            "TenantCreate",
            "TenantList",
            "TenantDrop",
            "Use",
            "Health",
            "DlqReplay",
            "Metrics",
            "MetricsAll",
            "TraceTail",
            "Aggregate",
            "AggregateSince",
        ];
        assert_eq!(
            COMMAND_FORMS.iter().map(|(v, _)| *v).collect::<Vec<_>>(),
            variants
        );
    }

    #[test]
    fn reply_fields_roundtrip() {
        let reply = "OK GLOBAL position=12 tau=3.5 ci95=1.25,5.75";
        assert_eq!(reply_field(reply, "position"), Some("12"));
        assert_eq!(reply_field(reply, "tau"), Some("3.5"));
        assert_eq!(reply_field(reply, "ci95"), Some("1.25,5.75"));
        assert_eq!(reply_field(reply, "missing"), None);
    }

    #[test]
    fn stats_all_formatting() {
        let stats = crate::tenant::RouterStats {
            tenants: 2,
            position: 30,
            stored_edges: 12,
            bytes: 512,
            checkpoints: 3,
            tracked_nodes: 7,
            journal_bytes: 96,
            dlq: 1,
        };
        assert_eq!(
            format_stats_all(&stats),
            "OK STATS ALL tenants=2 position=30 stored_edges=12 bytes=512 checkpoints=3 \
             tracked_nodes=7 journal_bytes=96 dlq=1"
        );
    }

    #[test]
    fn parses_journal_stats() {
        assert_eq!(parse("JOURNAL STATS"), Ok(Command::JournalStats));
        assert!(parse("JOURNAL").is_err());
        assert!(parse("JOURNAL STATS x").is_err(), "trailing token");
    }

    #[test]
    fn parses_overload_verbs_and_options() {
        assert_eq!(parse("HEALTH"), Ok(Command::Health));
        assert!(parse("HEALTH x").is_err(), "trailing token");
        assert_eq!(parse("DLQ REPLAY"), Ok(Command::DlqReplay));
        assert!(parse("DLQ").is_err());
        assert!(parse("DLQ REPLAY now").is_err(), "trailing token");
        assert_eq!(
            parse("TENANT CREATE tiny memory_budget=4096 quota=reject"),
            Ok(Command::TenantCreate(
                "tiny".into(),
                TenantOptions {
                    memory_budget: Some(4096),
                    quota: Some(QuotaPolicy::Reject),
                    ..TenantOptions::default()
                }
            ))
        );
        assert_eq!(
            parse("TENANT CREATE tiny memory_budget=4096"),
            Ok(Command::TenantCreate(
                "tiny".into(),
                TenantOptions {
                    memory_budget: Some(4096),
                    ..TenantOptions::default()
                }
            )),
            "budget without quota defaults to shed"
        );
        assert!(
            parse("TENANT CREATE tiny quota=reject").is_err(),
            "quota without a budget enforces nothing"
        );
        assert!(parse("TENANT CREATE tiny memory_budget=4096 quota=panic").is_err());
        assert!(parse("TENANT CREATE tiny memory_budget=lots").is_err());
    }

    #[test]
    fn health_formatting() {
        let h = Health {
            degraded: false,
            queue_depth: 2048,
            queue_capacity: 4096,
            stored_bytes: 1024,
            memory_budget: 4096,
            journal_lag_bytes: 88,
            dlq: 2,
            sync: "per-record",
            last_group: 4,
        };
        assert_eq!(
            format_health("alpha", &h),
            "OK HEALTH tenant=alpha state=ok queue=2048 capacity=4096 bytes=1024 budget=4096 \
             journal_lag=88 dlq=2 sync=per-record last_group=4"
        );
        let degraded = Health {
            degraded: true,
            ..h
        };
        assert!(format_health("alpha", &degraded).contains("state=degraded"));
        assert_eq!(format_dlq_replayed(5, 2), "OK DLQ REPLAYED n=5 failed=2");
    }

    #[test]
    fn parses_observability_verbs() {
        assert_eq!(parse("METRICS"), Ok(Command::Metrics));
        assert_eq!(parse("METRICS *"), Ok(Command::MetricsAll));
        assert!(parse("METRICS alpha").is_err(), "no tenant argument form");
        assert!(parse("METRICS * x").is_err(), "trailing token");
        assert_eq!(parse("TRACE TAIL 10"), Ok(Command::TraceTail(10)));
        assert_eq!(parse("TRACE TAIL 0"), Ok(Command::TraceTail(0)));
        assert!(parse("TRACE").is_err(), "TAIL required");
        assert!(parse("TRACE TAIL").is_err(), "count required");
        assert!(parse("TRACE TAIL many").is_err(), "numeric count");
        assert!(parse("TRACE TAIL 5 x").is_err(), "trailing token");
    }

    #[test]
    fn metrics_and_trace_framing() {
        assert_eq!(format_metrics(""), "OK METRICS lines=0");
        assert_eq!(format_metrics("a 1\nb 2"), "OK METRICS lines=2\na 1\nb 2");
        assert_eq!(format_trace(&[]), "OK TRACE lines=0");
        let events = vec![
            TraceEvent {
                at_micros: 10,
                op: "fsync",
                micros: 900,
                detail: String::new(),
            },
            TraceEvent {
                at_micros: 25,
                op: "checkpoint",
                micros: 1500,
                detail: "position=64 bytes=2048".into(),
            },
        ];
        assert_eq!(
            format_trace(&events),
            "OK TRACE lines=2\nat_us=10 op=fsync micros=900\n\
             at_us=25 op=checkpoint micros=1500 position=64 bytes=2048"
        );
    }

    #[test]
    fn stats_formatting_uses_live_durability() {
        let cfg = rept_core::ReptConfig::new(2, 2).with_seed(3);
        let est = rept_core::Rept::new(cfg).run(Engine::PerWorker, &[]);
        let snap = Snapshot::from_estimate(&est, &cfg, Engine::FusedHybrid, 0, 0, 0, 5);
        let live = LiveStats {
            stored_bytes: 0,
            journal_bytes: 123,
            journal_segments: 2,
            dlq: 7,
        };
        let stats = format_stats(&snap, &live);
        assert!(stats.contains("journal_bytes=123"));
        assert!(stats.contains("journal_segments=2"));
        assert!(stats.ends_with("dlq=7"));
        let journal = format_journal_stats(&snap, &live);
        assert!(journal.contains("bytes=123 segments=2"));
        assert!(journal.ends_with("dlq=7"));
    }

    #[test]
    fn top_k_all_formatting() {
        let entries = vec![
            ("alpha".to_string(), 3u32, 5.5f64),
            ("beta".to_string(), 1u32, 2.25f64),
        ];
        assert_eq!(
            format_top_k_all(&entries, 5),
            "OK TOPK ALL k=2 alpha/3=5.5 beta/1=2.25"
        );
        assert_eq!(format_top_k_all(&entries, 1), "OK TOPK ALL k=1 alpha/3=5.5");
    }

    #[test]
    fn parses_aggregate() {
        assert_eq!(parse("AGGREGATE"), Ok(Command::Aggregate));
        assert!(parse("AGGREGATE now").is_err(), "trailing token");
    }

    #[test]
    fn parses_aggregate_since() {
        assert_eq!(parse("AGGREGATE SINCE 42"), Ok(Command::AggregateSince(42)));
        assert!(parse("AGGREGATE SINCE").is_err(), "no position");
        assert!(parse("AGGREGATE SINCE x").is_err(), "bad position");
        assert!(parse("AGGREGATE SINCE 1 2").is_err(), "trailing token");
    }

    /// A delta reply is the full framing plus ` since=<p>` on the header;
    /// a `since=` that is not a position at or below the reply's own is
    /// refused.
    #[test]
    fn aggregate_delta_reply_frames_its_base() {
        let mut tau_v = FxHashMap::default();
        tau_v.insert(5u32, 2u64);
        let groups = vec![GroupAggregate {
            start: 3,
            tau: vec![1, 2],
            stored: vec![7, 8],
            bytes: 64,
            eta_total: 0,
            tau_v: Some(tau_v),
            eta_v: None,
        }];
        let delta = Aggregates {
            position: 90,
            since: Some(60),
            groups,
        };
        let reply = format_aggregates(&delta);
        let mut lines = reply.lines();
        let header = lines.next().unwrap().to_string();
        assert_eq!(header, "OK AGGREGATE position=90 groups=1 lines=3 since=60");
        let body: Vec<String> = lines.map(str::to_string).collect();
        assert_eq!(parse_aggregates(&header, &body), Ok(delta.clone()));
        let full = Aggregates {
            since: None,
            ..delta.clone()
        };
        assert_eq!(
            format_aggregates(&full),
            format_aggregate(full.position, &full.groups)
        );
        for hostile in ["since=91", "since=-1", "since=x", "since=", "since=6O"] {
            let header = format!("OK AGGREGATE position=90 groups=1 lines=3 {hostile}");
            assert!(parse_aggregates(&header, &body).is_err(), "{hostile}");
        }
    }

    #[test]
    fn aggregate_reply_roundtrips_exactly() {
        let mut tau_v = FxHashMap::default();
        tau_v.insert(7u32, 3u64);
        tau_v.insert(2u32, 9u64);
        let groups = vec![
            GroupAggregate {
                start: 0,
                tau: vec![4, 0, 11],
                stored: vec![120, 98, 130],
                bytes: 4096,
                eta_total: 17,
                tau_v: Some(tau_v),
                eta_v: None,
            },
            GroupAggregate {
                start: 6,
                tau: vec![2],
                stored: vec![40],
                bytes: 512,
                eta_total: 0,
                tau_v: None,
                eta_v: Some(FxHashMap::default()),
            },
        ];
        let reply = format_aggregate(314, &groups);
        let mut lines = reply.lines();
        let header = lines.next().unwrap();
        assert_eq!(header, "OK AGGREGATE position=314 groups=2 lines=6");
        // Sorted-by-node map serialisation keeps the wire deterministic.
        let body: Vec<String> = lines.map(str::to_string).collect();
        assert_eq!(body[1], "TV 2:9 7:3");
        assert_eq!(body[5], "EV");
        let (position, parsed) = parse_aggregate_reply(header, &body).unwrap();
        assert_eq!(position, 314);
        assert_eq!(parsed, groups);

        // Framing violations are rejected, not mis-parsed.
        assert!(parse_aggregate_reply(header, &body[..3]).is_err());
        assert!(parse_aggregate_reply("OK AGGREGATE position=1", &[]).is_err());
        let mut bad = body.clone();
        bad[0] = "G start=0 bytes=1 eta=0 tau=1,2 stored=3".into();
        assert!(
            parse_aggregate_reply(header, &bad).is_err(),
            "tau/stored length mismatch"
        );
    }

    /// [`format_aggregate`] as it stood before the one-buffer encoder:
    /// `format!` per line and per map entry, `to_string` per counter.
    fn reference_format_aggregate(position: u64, groups: &[GroupAggregate]) -> String {
        let csv = |it: &mut dyn Iterator<Item = u64>| {
            let mut s = String::new();
            for (i, x) in it.enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&x.to_string());
            }
            s
        };
        let map_line = |tag: &str, map: Option<&FxHashMap<NodeId, u64>>| match map {
            None => format!("\n{tag} none"),
            Some(m) => {
                let mut entries: Vec<(NodeId, u64)> = m.iter().map(|(&v, &t)| (v, t)).collect();
                entries.sort_unstable();
                let mut line = format!("\n{tag}");
                for (v, t) in entries {
                    line.push_str(&format!(" {v}:{t}"));
                }
                line
            }
        };
        let mut out = format!(
            "OK AGGREGATE position={position} groups={} lines={}",
            groups.len(),
            groups.len() * 3
        );
        for g in groups {
            out.push_str(&format!(
                "\nG start={} bytes={} eta={} tau={} stored={}",
                g.start,
                g.bytes,
                g.eta_total,
                csv(&mut g.tau.iter().copied()),
                csv(&mut g.stored.iter().map(|&s| s as u64)),
            ));
            out.push_str(&map_line("TV", g.tau_v.as_ref()));
            out.push_str(&map_line("EV", g.eta_v.as_ref()));
        }
        out
    }

    /// [`parse_aggregate_reply`] as it stood before the one-pass map
    /// reader: split every map line into tokens and grow the map from
    /// empty. The oracle the lean parser must agree with, error texts
    /// included.
    fn reference_parse_aggregate_reply(
        header: &str,
        body: &[String],
    ) -> Result<(u64, Vec<GroupAggregate>), String> {
        let field = |key: &str| -> Result<u64, String> {
            reply_field(header, key)
                .ok_or_else(|| format!("AGGREGATE header missing {key}="))?
                .parse::<u64>()
                .map_err(|_| format!("bad {key} in AGGREGATE header"))
        };
        let position = field("position")?;
        let n_groups = field("groups")? as usize;
        if body.len() != n_groups * 3 {
            return Err(format!(
                "AGGREGATE body has {} lines, expected {}",
                body.len(),
                n_groups * 3
            ));
        }
        let parse_csv = |s: &str| -> Result<Vec<u64>, String> {
            if s.is_empty() {
                return Ok(Vec::new());
            }
            s.split(',')
                .map(|t| t.parse::<u64>().map_err(|_| format!("bad counter {t:?}")))
                .collect()
        };
        let parse_map = |line: &str, tag: &str| -> Result<Option<FxHashMap<NodeId, u64>>, String> {
            let rest = line
                .strip_prefix(tag)
                .ok_or_else(|| format!("expected {tag} line, got {line:?}"))?;
            let rest = rest.trim_start();
            if rest == "none" {
                return Ok(None);
            }
            let mut map = FxHashMap::default();
            for tok in rest.split_ascii_whitespace() {
                let (v, t) = tok
                    .split_once(':')
                    .ok_or_else(|| format!("bad {tag} entry {tok:?}"))?;
                let v: NodeId = v.parse().map_err(|_| format!("bad node id {v:?}"))?;
                let t: u64 = t.parse().map_err(|_| format!("bad count {t:?}"))?;
                map.insert(v, t);
            }
            Ok(Some(map))
        };
        let mut groups = Vec::with_capacity(n_groups);
        for chunk in body.chunks(3) {
            let g = &chunk[0];
            if !g.starts_with("G ") {
                return Err(format!("expected G line, got {g:?}"));
            }
            let gfield = |key: &str| -> Result<u64, String> {
                reply_field(g, key)
                    .ok_or_else(|| format!("G line missing {key}="))?
                    .parse::<u64>()
                    .map_err(|_| format!("bad {key} in G line"))
            };
            let tau = parse_csv(reply_field(g, "tau").ok_or("G line missing tau=")?)?;
            let stored = parse_csv(reply_field(g, "stored").ok_or("G line missing stored=")?)?;
            if tau.len() != stored.len() {
                return Err("tau and stored lengths differ".into());
            }
            groups.push(GroupAggregate {
                start: gfield("start")? as usize,
                tau,
                stored: stored.into_iter().map(|s| s as usize).collect(),
                bytes: gfield("bytes")? as usize,
                eta_total: gfield("eta")?,
                tau_v: parse_map(&chunk[1], "TV")?,
                eta_v: parse_map(&chunk[2], "EV")?,
            });
        }
        Ok((position, groups))
    }

    /// A counter: 0, `u64::MAX`, small or any.
    fn arb_count(rng: &mut SplitMix64) -> u64 {
        match rng.next_below(4) {
            0 => 0,
            1 => u64::MAX,
            2 => rng.next_below(100),
            _ => rng.next_u64(),
        }
    }

    /// A node map: `None`, empty, or entries with node 0 and `u32::MAX`
    /// among small and random ids.
    fn arb_counter_map(rng: &mut SplitMix64) -> Option<FxHashMap<NodeId, u64>> {
        let entries = match rng.next_below(4) {
            0 => return None,
            1 => 0,
            _ => rng.next_below(12),
        };
        let mut map = FxHashMap::default();
        for _ in 0..entries {
            let v = match rng.next_below(4) {
                0 => 0,
                1 => NodeId::MAX,
                2 => rng.next_below(50) as NodeId,
                _ => rng.next_u64() as NodeId,
            };
            map.insert(v, arb_count(rng));
        }
        Some(map)
    }

    fn arb_aggregates(rng: &mut SplitMix64) -> Vec<GroupAggregate> {
        (0..rng.next_below(4))
            .map(|_| {
                // 0 processors gives the empty `tau=`/`stored=` lists.
                let size = rng.next_below(4);
                GroupAggregate {
                    start: arb_count(rng) as usize,
                    tau: (0..size).map(|_| arb_count(rng)).collect(),
                    stored: (0..size).map(|_| arb_count(rng) as usize).collect(),
                    bytes: arb_count(rng) as usize,
                    eta_total: arb_count(rng),
                    tau_v: arb_counter_map(rng),
                    eta_v: arb_counter_map(rng),
                }
            })
            .collect()
    }

    /// Text spliced into a body line: signs, 20- and 21-digit counts, ids
    /// past `u32::MAX`, ASCII separators (and `\x0B`, which is not one),
    /// stray colons and `none`s, a non-ASCII digit.
    const SPLICES: &[&str] = &[
        "+5",
        "-1",
        "18446744073709551615",
        "18446744073709551616",
        "00000000000000000001",
        "000000000000000000001",
        "100000000000000000000",
        "4294967295",
        "4294967296",
        "99999999999",
        "0000000000",
        " ",
        "  ",
        "\t",
        "\r",
        "\x0C",
        "\x0B",
        ":",
        "none",
        " none",
        "\u{663}",
        "\u{a0}",
    ];

    /// Whole `TV`/`EV` lines around `none` and the empty map.
    const NONE_LINES: &[&str] = &[
        " none",
        "  none",
        "none",
        " none ",
        " None",
        "\tnone",
        " none 1:2",
        "",
        " ",
        "\x0Bnone",
        "\u{a0}none",
        "1:2",
        " 1:2 ",
    ];

    /// A char boundary of `line` near byte `at`.
    fn boundary(line: &str, mut at: usize) -> usize {
        at = at.min(line.len());
        while !line.is_char_boundary(at) {
            at -= 1;
        }
        at
    }

    /// One mutation of a reply line, of the first `kinds` kinds (the
    /// first two — truncation and a byte flip — also suit the header).
    fn mutate_line(line: &mut String, rng: &mut SplitMix64, kinds: u64) {
        let at = boundary(line, rng.next_below(line.len() as u64 + 1) as usize);
        match rng.next_below(kinds) {
            0 => line.truncate(at),
            1 => {
                // Flip one ASCII byte.
                const BYTES: &[u8] = b"0123456789: \t\r\x0C\x0B+-x,=N";
                if line.as_bytes().get(at).is_some_and(u8::is_ascii) {
                    let b = BYTES[rng.next_below(BYTES.len() as u64) as usize];
                    line.replace_range(at..at + 1, &char::from(b).to_string());
                }
            }
            2 => line.insert_str(at, SPLICES[rng.next_below(SPLICES.len() as u64) as usize]),
            3 => {
                // Replace the id or the count of one entry.
                if let Some(colon) = line
                    .match_indices(':')
                    .map(|(i, _)| i)
                    .nth(rng.next_below(4) as usize)
                {
                    let splice = SPLICES[rng.next_below(11) as usize];
                    let (from, to) = if rng.next_below(2) == 0 {
                        let from = line[..colon].rfind(' ').map_or(0, |s| s + 1);
                        (from, colon)
                    } else {
                        let to = line[colon..].find(' ').map_or(line.len(), |s| colon + s);
                        (colon + 1, to)
                    };
                    line.replace_range(from..to, splice);
                }
            }
            4 => {
                // Drop a colon.
                if let Some(colon) = line[at..].find(':') {
                    line.remove(at + colon);
                }
            }
            5 => {
                // Another separator in place of a space.
                const SEPARATORS: &[&str] = &["\t", "\r", "\x0C", "\x0B", "  ", "\t\r"];
                if let Some(space) = line[at..].find(' ') {
                    let sep = SEPARATORS[rng.next_below(SEPARATORS.len() as u64) as usize];
                    line.replace_range(at + space..at + space + 1, sep);
                }
            }
            _ => {
                let tag = if line.starts_with("EV") { "EV" } else { "TV" };
                *line = format!(
                    "{tag}{}",
                    NONE_LINES[rng.next_below(NONE_LINES.len() as u64) as usize]
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(1500))]

        #[test]
        fn lean_aggregate_codec_equals_the_reference(seed in proptest::prelude::any::<u64>()) {
            let mut rng = SplitMix64::new(seed);
            let groups = arb_aggregates(&mut rng);
            let position = arb_count(&mut rng);
            let reply = format_aggregate(position, &groups);
            proptest::prop_assert_eq!(&reply, &reference_format_aggregate(position, &groups));
            let mut lines = reply.split('\n').map(str::to_string);
            let header = lines.next().expect("header line");
            let body: Vec<String> = lines.collect();
            proptest::prop_assert_eq!(
                parse_aggregate_reply(&header, &body),
                Ok((position, groups.clone()))
            );
            for _ in 0..12 {
                let mut header = header.clone();
                let mut body = body.clone();
                for _ in 0..=rng.next_below(3) {
                    let lines = body.len();
                    let pick = rng.next_below(lines as u64 + 2) as usize;
                    match body.get_mut(pick) {
                        Some(line) => mutate_line(line, &mut rng, 7),
                        // No splices into the header: a long `groups=`
                        // would overflow the reference's `× 3`.
                        None if pick == lines => mutate_line(&mut header, &mut rng, 2),
                        None => {
                            if body.pop().is_none() {
                                body.push("TV none".into());
                            }
                        }
                    }
                }
                proptest::prop_assert_eq!(
                    parse_aggregate_reply(&header, &body),
                    reference_parse_aggregate_reply(&header, &body),
                    "header {:?} body {:?}",
                    header,
                    body
                );
            }
        }
    }

    /// The `INGEST` arm as it stood before the one-pass scanner: split
    /// the whole line into a token vector, then parse pair by pair. The
    /// oracle [`parse`] must agree with, error text included (it
    /// becomes the dead-letter reason).
    fn reference_ingest(line: &str) -> Result<Command, String> {
        let mut tokens = line.split_ascii_whitespace();
        assert_eq!(
            tokens.next(),
            Some("INGEST"),
            "reference covers INGEST only"
        );
        let mut rest: Vec<&str> = tokens.collect();
        if rest.is_empty() {
            return Err("INGEST needs at least one edge".into());
        }
        let scope = if rest[0] == "*" || rest[0].as_bytes()[0].is_ascii_alphabetic() {
            let scope_tok = rest.remove(0);
            parse_scope(scope_tok)?
        } else {
            Scope::Current
        };
        if rest.is_empty() {
            return Err("INGEST needs at least one edge".into());
        }
        if rest.len() / 2 > MAX_INGEST_EDGES {
            return Err(format!("INGEST carries more than {MAX_INGEST_EDGES} edges"));
        }
        if !rest.len().is_multiple_of(2) {
            return Err("INGEST needs an even number of node ids".into());
        }
        let mut edges = Vec::with_capacity(rest.len() / 2);
        for pair in rest.chunks(2) {
            let u: NodeId = pair[0]
                .parse()
                .map_err(|_| format!("bad node id {:?}", pair[0]))?;
            let v: NodeId = pair[1]
                .parse()
                .map_err(|_| format!("bad node id {:?}", pair[1]))?;
            let e = Edge::try_new(u, v).ok_or(format!("self-loop {u}-{v} rejected"))?;
            edges.push(e);
        }
        Ok(Command::Ingest(scope, edges))
    }

    /// Runs of ASCII whitespace in every form `split_ascii_whitespace`
    /// accepts.
    const SEPARATORS: &[&str] = &[" ", "\t", "\r", "\x0C", "\n", "  ", " \t\r\n"];

    /// One `INGEST` argument of kind `kind` (mod 20) drawn with `x`.
    fn ingest_token(kind: usize, x: u32) -> String {
        let near_max = u64::from(u32::MAX) - 3 + u64::from(x % 8);
        match kind % 20 {
            // Small ids, so repeats and self-loops are common.
            0..=7 => (x % 5).to_string(),
            8 => x.to_string(),
            9 => format!("00{}", x % 1000),
            10 => format!("+{}", x % 100),
            11 => format!("-{}", x % 100),
            // 9, 10 and 11 digits around the plain-digit fast path and
            // u32::MAX.
            12 => (100_000_000 + x % 900_000_000).to_string(),
            13 => near_max.to_string(),
            14 => format!("0{}", 100_000_000 + x % 900_000_000),
            15 => (10_000_000_000 + u64::from(x)).to_string(),
            16 => ["١٢", "５", "²", "7\u{663}", "٣"][x as usize % 5].to_string(),
            17 => SCOPES[x as usize % SCOPES.len()].to_string(),
            18 => [
                "1x",
                "x",
                "0x10",
                "1.0",
                "1\x0B2",
                "é",
                "4294967295",
                "4294967296",
            ][x as usize % 8]
                .to_string(),
            _ => ["999999999", "1000000000", "0000000000", "000000000"][x as usize % 4].to_string(),
        }
    }

    /// Scope tokens: all tenants, names, and bad or duplicate names.
    const SCOPES: &[&str] = &[
        "*",
        "alpha",
        "alpha,beta",
        "alpha,alpha",
        "b-1_x",
        "a/b",
        "a,",
        "alpha,9b",
        "**",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(3000))]

        #[test]
        fn one_pass_ingest_parse_equals_the_split_reference(
            scope in 0..27usize,
            pairs in proptest::collection::vec(
                (
                    (0..20usize, proptest::prelude::any::<u32>(), 0..7usize),
                    (0..20usize, proptest::prelude::any::<u32>(), 0..7usize),
                ),
                0..6,
            ),
            odd in (0..20usize, proptest::prelude::any::<u32>(), 0..28usize),
            ends in (0..3usize, 0..3usize),
        ) {
            let mut line = ["", " ", "\t "][ends.0].to_string();
            line.push_str("INGEST");
            if let Some(tok) = SCOPES.get(scope) {
                line.push(' ');
                line.push_str(tok);
            }
            let mut tokens: Vec<_> = pairs.iter().flat_map(|&(a, b)| [a, b]).collect();
            if odd.2 < SEPARATORS.len() {
                tokens.push(odd);
            }
            for (kind, x, sep) in tokens {
                line.push_str(SEPARATORS[sep]);
                line.push_str(&ingest_token(kind, x));
            }
            line.push_str(["", "\n", " \r\n"][ends.1]);
            proptest::prop_assert_eq!(parse(&line), reference_ingest(&line), "line {:?}", line);
        }
    }

    #[test]
    fn ingest_lines_are_capped_at_max_ingest_edges() {
        let line = |pairs: usize, tail: &str| {
            let mut line = String::from("INGEST *");
            for i in 0..pairs {
                line.push_str(&format!(" {i} {}", i + 1));
            }
            line + tail
        };
        let at_cap = line(MAX_INGEST_EDGES, "");
        assert!(
            matches!(parse(&at_cap), Ok(Command::Ingest(Scope::All, e)) if e.len() == MAX_INGEST_EDGES)
        );
        let over = Err(format!("INGEST carries more than {MAX_INGEST_EDGES} edges"));
        assert_eq!(parse(&line(MAX_INGEST_EDGES + 1, "")), over);
        // The cap is checked before the ids past it; an odd id at the
        // cap is the odd-count error.
        assert_eq!(parse(&line(MAX_INGEST_EDGES + 1, " x 7")), over);
        assert_eq!(
            parse(&line(MAX_INGEST_EDGES, " 1")),
            Err("INGEST needs an even number of node ids".into())
        );
        for tail in ["", " 1", " 1 1", " x 7 8"] {
            for pairs in [MAX_INGEST_EDGES - 1, MAX_INGEST_EDGES] {
                let line = line(pairs, tail);
                assert_eq!(
                    parse(&line),
                    reference_ingest(&line),
                    "{pairs} pairs + {tail:?}"
                );
            }
        }
    }

    #[test]
    fn float_formatting_roundtrips_exactly() {
        // The protocol's exactness guarantee: Display → parse is the
        // identity on f64 (shortest-roundtrip formatting).
        for x in [0.1f64, 1.0 / 3.0, 123456.789e-3, f64::MIN_POSITIVE] {
            let printed = format!("{x}");
            assert_eq!(printed.parse::<f64>().unwrap(), x);
        }
    }
}
