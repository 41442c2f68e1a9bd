//! The shard coordinator: fans the stream to group-sliced shard
//! servers and recombines their raw counters into the bit-identical
//! single-process estimate.
//!
//! ## Why group-wise sharding is exact
//!
//! REPT's processors are partitioned into hash groups that never
//! communicate while the stream runs — every group sees the whole
//! stream and maintains its own counters; only [`Rept::finalize_groups`]
//! combines them. So a cluster that gives each shard a round-robin
//! slice of the groups ([`rept_core::GroupSlice`]), broadcasts every
//! edge to every
//! shard, and exchanges the finished *integer* counters
//! ([`GroupAggregate`]) performs exactly the computation of one big
//! process — no approximation, no float summation-order drift. The
//! shard-equivalence suite (`tests/shard.rs`) asserts the reply bytes.
//!
//! ## Degradation contract
//!
//! A dead shard removes its groups, not the service: the survivors
//! still form a *valid* REPT configuration with fewer processors
//! (`c' = Σ surviving group sizes`, same `m`, same per-group counters),
//! so the coordinator combines them as held, at their layout starts,
//! under that smaller configuration and keeps answering — with the
//! honestly wider confidence interval of the smaller `c'`. The
//! combination tells the remainder group by its size (fewer than `m`
//! processors), so no group is renumbered. `HEALTH` reports
//! `state=degraded shards=<k>/<n>` instead of erroring. Batches fanned
//! while degraded are buffered; a revived shard (restored from its own
//! checkpoint + journal) replays the buffered tail and rejoins.
//!
//! ## Delta exchange
//!
//! The coordinator keeps the cluster's per-group counters between
//! publications. After its one full exchange at start (or revive), each
//! shard is asked `AGGREGATE SINCE <p>`, `p` being its last exchange:
//! its reply carries complete `G` lines but `TV`/`EV` entries only for
//! the nodes touched since, which overwrite the held ones, and only
//! those nodes' locals are recombined ([`Rept::refresh_estimate`]). A
//! shard that lost its base (a restart, another requester in between)
//! answers in full, and the coordinator recombines in full once. A
//! change in the set of live groups — a shard dying, a revival —
//! rebuilds the combination once from the counters already held.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use rept_core::{Engine, GroupAggregate, Rept, ReptConfig, Touched};
use rept_graph::edge::Edge;
use rept_serve::client::INGEST_CHUNK;
use rept_serve::metrics::{Counter, Histogram};
use rept_serve::protocol;
use rept_serve::snapshot::{Published, Publisher, Snapshot};
use rept_serve::{Aggregates, Client, ServeCore};

/// One downstream shard endpoint, speaking the v2 protocol either
/// in-process (tests, single-binary deployments) or over TCP.
#[derive(Debug)]
pub enum ShardLink {
    /// An in-process [`ServeCore`] handle — the transport-free link the
    /// equivalence tests drive.
    Local(Arc<ServeCore>),
    /// A TCP connection to a shard server ([`rept_serve::Server`]).
    Tcp(Box<Client>),
}

impl ShardLink {
    /// Wraps an in-process serving core.
    pub fn local(core: Arc<ServeCore>) -> Self {
        Self::Local(core)
    }

    /// Connects to a shard server over TCP.
    ///
    /// # Errors
    ///
    /// Socket errors.
    pub fn connect(addr: impl std::net::ToSocketAddrs) -> std::io::Result<Self> {
        Ok(Self::Tcp(Box::new(Client::connect(addr)?)))
    }

    /// Sends a batch of edges to the shard (blocking, with the link's
    /// backpressure semantics), one [`INGEST_CHUNK`]-edge line at a
    /// time: the two halves the coordinator overlaps across shards, back
    /// to back.
    ///
    /// # Errors
    ///
    /// A description of the refusal or transport failure.
    pub fn ingest(&mut self, edges: &[Edge]) -> Result<(), String> {
        for line in edges.chunks(INGEST_CHUNK) {
            let sent = self.start_ingest(line);
            self.finish_ingest(line, sent)?;
        }
        Ok(())
    }

    /// The first half of ingesting one line: a TCP link writes it and
    /// returns the write's outcome; a local link waits for the second
    /// half.
    fn start_ingest(&mut self, line: &[Edge]) -> std::io::Result<()> {
        match self {
            Self::Local(_) => Ok(()),
            Self::Tcp(client) => client.start_ingest(line),
        }
    }

    /// The second half: the shard's verdict on `line`, whose first half
    /// returned `sent`. A local link makes its whole call here.
    fn finish_ingest(&mut self, line: &[Edge], sent: std::io::Result<()>) -> Result<(), String> {
        match self {
            Self::Local(core) => core.ingest(line.to_vec()).map_err(|e| e.to_string()),
            Self::Tcp(client) => client.finish(sent).map(drop).map_err(|e| e.to_string()),
        }
    }

    /// The first half of an aggregate exchange: `AGGREGATE`, or
    /// `AGGREGATE SINCE <p>` against the shard's last exchange at `p`.
    fn start_aggregates(&mut self, since: Option<u64>) -> std::io::Result<()> {
        match (self, since) {
            (Self::Local(_), _) => Ok(()),
            (Self::Tcp(client), None) => client.start_request("AGGREGATE"),
            (Self::Tcp(client), Some(p)) => client.start_request(&format!("AGGREGATE SINCE {p}")),
        }
    }

    /// The second half: the shard's counters — a delta when it could
    /// answer one — and the reply's bytes on the wire (0 in process).
    fn finish_aggregates(
        &mut self,
        since: Option<u64>,
        sent: std::io::Result<()>,
    ) -> Result<(Aggregates, usize), String> {
        match self {
            Self::Local(core) => core.aggregates_since(since).map(|reply| (reply, 0)),
            Self::Tcp(client) => {
                let (header, body) = client.finish_block(sent).map_err(|e| e.to_string())?;
                let bytes = header.len() + 1 + body.iter().map(|l| l.len() + 1).sum::<usize>();
                protocol::parse_aggregates(&header, &body).map(|reply| (reply, bytes))
            }
        }
    }

    /// Checkpoints the shard; returns the checkpointed position.
    ///
    /// # Errors
    ///
    /// A description of the failure.
    pub fn checkpoint(&mut self) -> Result<u64, String> {
        match self {
            Self::Local(core) => core.checkpoint(),
            Self::Tcp(client) => client.checkpoint().map_err(|e| e.to_string()),
        }
    }

    /// The shard's Prometheus-style metrics exposition body.
    ///
    /// # Errors
    ///
    /// A description of the failure.
    pub fn metrics_body(&mut self) -> Result<String, String> {
        match self {
            Self::Local(core) => Ok(rept_serve::render_exposition(
                &[core.scrape(protocol::DEFAULT_TENANT.into())],
                false,
            )),
            Self::Tcp(client) => client.metrics().map_err(|e| e.to_string()),
        }
    }
}

/// Coordinator configuration. The `rept`/`engine`/`snapshot_every`/
/// `top_k` values must match what a standalone [`ServeCore`] would use
/// for the coordinator's replies to be byte-identical to it.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// The *full* estimator configuration (the shards each run a slice
    /// of it).
    pub rept: ReptConfig,
    /// The engine label advertised in snapshots (the shards do the
    /// actual executing).
    pub engine: Engine,
    /// Edges between automatic snapshot publications — the same cadence
    /// knob as [`rept_serve::ServeConfig::snapshot_every`], driving the
    /// same [`Publisher`] a standalone core publishes through, so `seq=`
    /// counters match. A revival publishes at once and, like every
    /// publication, restarts the count.
    pub snapshot_every: u64,
    /// Size of the top-k index kept in each snapshot.
    pub top_k: usize,
}

impl CoordinatorConfig {
    /// Defaults mirroring [`rept_serve::ServeConfig::new`]: snapshot
    /// every 8192 edges, top-100 index, default engine.
    pub fn new(rept: ReptConfig) -> Self {
        Self {
            rept,
            engine: Engine::default(),
            snapshot_every: 8192,
            top_k: 100,
        }
    }

    /// Selects the advertised engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the snapshot publication interval (edges).
    pub fn with_snapshot_every(mut self, edges: u64) -> Self {
        self.snapshot_every = edges.max(1);
        self
    }

    /// Sets the top-k index size.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }
}

/// Cluster pressure readings — the coordinator's `HEALTH` payload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ClusterHealth {
    /// Shards currently answering.
    pub alive: usize,
    /// Shards the cluster was started with.
    pub total: usize,
    /// The coordinator's stream position.
    pub position: u64,
}

impl ClusterHealth {
    /// Whether any shard is down (queries answer from the survivors).
    pub fn degraded(&self) -> bool {
        self.alive < self.total
    }
}

/// `OK HEALTH …` reply for the coordinator's `HEALTH` verb — the typed
/// degradation contract: `state=degraded shards=<k>/<n>` while any
/// shard is down, never an error.
pub fn format_cluster_health(h: &ClusterHealth) -> String {
    format!(
        "OK HEALTH tenant=default state={} shards={}/{} position={}",
        if h.degraded() { "degraded" } else { "ok" },
        h.alive,
        h.total,
        h.position,
    )
}

/// The coordinator's own exchange metrics — the `rept_coordinator_*`
/// families of its `METRICS`, named apart from the shards' `rept_*`
/// families it relays.
#[derive(Debug, Default)]
pub struct CoordinatorMetrics {
    /// Snapshot publication time: the exchange with every live shard,
    /// the recombination and the snapshot (µs).
    pub publish_micros: Histogram,
    /// Nodes recombined per publication.
    pub publish_nodes: Histogram,
    /// Publications that took an `O(locals)` step (see
    /// [`rept_serve::snapshot::Publication::full`]).
    pub publish_full: Counter,
    /// Bytes of `AGGREGATE` replies read from TCP shards.
    pub aggregate_bytes: Counter,
    /// Shard replies that carried the full counters.
    pub full_exchanges: Counter,
    /// Shard replies that carried a delta.
    pub delta_exchanges: Counter,
}

/// Why a shard's aggregate exchange could not be applied. Each is
/// answered like a position mismatch: the shard is marked dead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExchangeError {
    /// The request or the reply failed on the link, or did not parse.
    Link(String),
    /// The shard stands at another position than the cluster.
    Position {
        /// The cluster's position.
        expected: u64,
        /// The shard's.
        got: u64,
    },
    /// A delta against another base than the one asked for.
    Since {
        /// The base asked for (`None`: a full exchange).
        asked: Option<u64>,
        /// The base the reply names.
        got: u64,
    },
    /// The reply names a group the coordinator does not hold for this
    /// shard.
    UnknownGroup(usize),
    /// The reply's groups differ from the shard's: a group missing or
    /// repeated, of another size, or with per-node maps where the held
    /// counters have none (or the reverse).
    Shape(usize),
}

impl std::fmt::Display for ExchangeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Link(e) => write!(f, "aggregate exchange failed ({e})"),
            Self::Position { expected, got } => {
                write!(f, "shard is at position {got}, expected {expected}")
            }
            Self::Since { asked, got } => {
                write!(f, "delta since {got} answers a request since {asked:?}")
            }
            Self::UnknownGroup(start) => write!(f, "reply names unknown group start {start}"),
            Self::Shape(start) => write!(f, "reply's group {start} does not match the held one"),
        }
    }
}

impl std::error::Error for ExchangeError {}

/// Overwrites the held counters `held` — sorted by layout start — with
/// a shard's exchange `reply` for the groups it owns, `owned`. A full
/// reply replaces the per-node maps; a delta overwrites the entries it
/// carries. Returns the nodes whose entries changed
/// ([`Touched::All`] for a full reply), or a typed error — checked
/// before anything is written.
///
/// # Errors
///
/// [`ExchangeError::Since`] for a delta nobody asked for, and
/// [`ExchangeError::UnknownGroup`] / [`ExchangeError::Shape`] when the
/// reply's groups are not exactly `owned`, shaped as held.
pub fn apply_exchange(
    held: &mut [GroupAggregate],
    owned: &[usize],
    asked: Option<u64>,
    reply: Aggregates,
) -> Result<Touched, ExchangeError> {
    if let Some(got) = reply.since {
        if asked != Some(got) {
            return Err(ExchangeError::Since { asked, got });
        }
    }
    let mut slots = Vec::with_capacity(reply.groups.len());
    for (k, g) in reply.groups.iter().enumerate() {
        if !owned.contains(&g.start) {
            return Err(ExchangeError::UnknownGroup(g.start));
        }
        let slot = held
            .binary_search_by_key(&g.start, |h| h.start)
            .map_err(|_| ExchangeError::UnknownGroup(g.start))?;
        let mine = &held[slot];
        let fits = owned.get(k) == Some(&g.start)
            && g.tau.len() == mine.tau.len()
            && g.stored.len() == mine.tau.len()
            && g.tau_v.is_some() == mine.tau_v.is_some()
            && g.eta_v.is_some() == mine.eta_v.is_some();
        if !fits {
            return Err(ExchangeError::Shape(g.start));
        }
        slots.push(slot);
    }
    if slots.len() < owned.len() {
        return Err(ExchangeError::Shape(owned[slots.len()]));
    }
    let delta = reply.since.is_some();
    let mut touched = if delta { Touched::none() } else { Touched::All };
    for (slot, g) in slots.into_iter().zip(reply.groups) {
        let mine = &mut held[slot];
        mine.tau = g.tau;
        mine.stored = g.stored;
        mine.bytes = g.bytes;
        mine.eta_total = g.eta_total;
        if !delta {
            mine.tau_v = g.tau_v;
            mine.eta_v = g.eta_v;
            continue;
        }
        let Touched::Nodes(nodes) = &mut touched else {
            unreachable!("a delta collects its nodes");
        };
        for (mine, theirs) in [(&mut mine.tau_v, g.tau_v), (&mut mine.eta_v, g.eta_v)] {
            if let (Some(mine), Some(theirs)) = (mine, theirs) {
                nodes.extend(theirs.keys());
                mine.extend(theirs);
            }
        }
    }
    Ok(touched)
}

#[derive(Debug)]
struct ShardHandle {
    link: ShardLink,
    alive: bool,
    /// The group starts this shard owns — a revived replacement must
    /// own the same ones.
    starts: Vec<usize>,
    /// The position of the shard's last answered exchange — the base
    /// its next `AGGREGATE SINCE` names.
    since: u64,
}

/// The coordinator: owns N shard links, fans every ingest batch to all
/// of them, and answers the v2 query surface by recombining their
/// aggregate exchanges. Single-tenant by design — each shard runs one
/// sliced core; multi-tenancy composes *above* this tier, not below.
#[derive(Debug)]
pub struct ShardCoordinator {
    cfg: CoordinatorConfig,
    shards: Vec<ShardHandle>,
    position: u64,
    /// The publication loop, with the estimate it keeps from `held`.
    publisher: Publisher,
    /// Batches fanned while any shard was dead, with their start
    /// positions — the replay source for [`Self::revive_shard`].
    replay: Vec<(u64, Vec<Edge>)>,
    /// The live shards' counters as last exchanged, at their layout
    /// starts (the names their shards' replies use), sorted by start.
    held: Vec<GroupAggregate>,
    /// The configuration the held groups form: the same `m` and
    /// `c' = Σ` their sizes — the full configuration, or the survivors'
    /// smaller one.
    layout: Rept,
    metrics: CoordinatorMetrics,
}

/// The group starts of a configuration's layout, in layout order: every
/// group but the last remainder one holds `m` processors.
fn expected_starts(cfg: &ReptConfig) -> Vec<usize> {
    (0..cfg.group_count() as usize)
        .map(|g| g * cfg.m as usize)
        .collect()
}

impl ShardCoordinator {
    /// Starts the coordinator over the given shard links.
    ///
    /// Interrogates every shard (a full `AGGREGATE` barrier each) and
    /// validates the deployment: at most one shard per hash group, the
    /// shards' slices together cover the configuration's layout exactly
    /// once, and every shard stands at the same stream position (resume
    /// each shard from its checkpoint + journal first). Publishes the
    /// initial snapshot (`seq=0`), exactly like a standalone core.
    ///
    /// # Errors
    ///
    /// A description of the deployment violation or shard failure.
    pub fn start(cfg: CoordinatorConfig, links: Vec<ShardLink>) -> Result<Self, String> {
        if links.is_empty() {
            return Err("a cluster needs at least one shard".into());
        }
        let group_count = cfg.rept.group_count();
        if links.len() as u64 > group_count {
            return Err(format!(
                "{} shards but the configuration has only {group_count} hash group(s); \
                 extra shards would own nothing",
                links.len()
            ));
        }
        let metrics = CoordinatorMetrics::default();
        let mut shards = Vec::with_capacity(links.len());
        let mut position: Option<u64> = None;
        let mut owned = BTreeSet::new();
        let mut held: Vec<GroupAggregate> = Vec::new();
        for (i, mut link) in links.into_iter().enumerate() {
            let reply = exchange(&mut link, &metrics).map_err(|e| format!("shard {i}: {e}"))?;
            match position {
                None => position = Some(reply.position),
                Some(p) if p == reply.position => {}
                Some(p) => {
                    return Err(format!(
                        "shard {i} is at position {} but earlier shards are at {p}; \
                         restore every shard to a common position before starting",
                        reply.position
                    ));
                }
            }
            let starts: Vec<usize> = reply.groups.iter().map(|g| g.start).collect();
            for &s in &starts {
                if !owned.insert(s) {
                    return Err(format!("group start {s} is owned by two shards"));
                }
            }
            held.extend(reply.groups);
            shards.push(ShardHandle {
                link,
                alive: true,
                starts,
                since: reply.position,
            });
        }
        let expected: BTreeSet<usize> = expected_starts(&cfg.rept).into_iter().collect();
        if owned != expected {
            return Err(format!(
                "shard slices cover group starts {owned:?} but the configuration's layout \
                 is {expected:?}"
            ));
        }
        let position = position.expect("at least one shard");
        held.sort_unstable_by_key(|g| g.start);
        let layout = Rept::new(cfg.rept);
        let estimate = layout.combine(&held);
        Ok(Self {
            held,
            layout,
            publisher: Publisher::new(
                &cfg.rept,
                cfg.engine,
                cfg.top_k,
                cfg.snapshot_every,
                estimate,
                position,
                |_| {},
            ),
            metrics,
            cfg,
            shards,
            position,
            replay: Vec::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.cfg
    }

    /// Shards currently answering.
    pub fn alive_count(&self) -> usize {
        self.shards.iter().filter(|s| s.alive).count()
    }

    /// Cluster pressure readings — the `HEALTH` payload.
    pub fn health(&self) -> ClusterHealth {
        ClusterHealth {
            alive: self.alive_count(),
            total: self.shards.len(),
            position: self.position,
        }
    }

    /// The latest published snapshot — the query path for
    /// `QUERY GLOBAL` / `QUERY LOCAL` / `TOPK` / `STATS`.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.publisher.published().load()
    }

    /// The cell every publication is stored into: a front end holding it
    /// answers queries from the latest snapshot without waiting for the
    /// coordinator itself.
    pub fn published(&self) -> Arc<Published<Snapshot>> {
        Arc::clone(self.publisher.published())
    }

    /// The coordinator's own exchange metrics.
    pub fn metrics(&self) -> &CoordinatorMetrics {
        &self.metrics
    }

    /// The coordinator's stream position (edges fanned out).
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Fans a batch to every live shard and advances the publication
    /// cadence — the same [`Publisher`] as a standalone core's ingest
    /// thread, so `seq=` counters stay identical. The batch
    /// goes out in [`INGEST_CHUNK`]-edge lines, each started on every
    /// live shard before any shard's reply is read. A shard that refuses
    /// a line is marked dead (degradation, not outage);
    /// batches are buffered for its revival from the moment any shard
    /// is down. Returns the number of edges accepted.
    ///
    /// # Errors
    ///
    /// Only when *no* shard is alive to accept the batch.
    pub fn ingest(&mut self, edges: Vec<Edge>) -> Result<usize, String> {
        if edges.is_empty() {
            return Ok(0);
        }
        if self.alive_count() == 0 {
            return Err(format!(
                "all {} shards are down; batch refused",
                self.shards.len()
            ));
        }
        let n = edges.len();
        let start = self.position;
        let mut buffered = self.shards.iter().any(|s| !s.alive);
        if buffered {
            self.replay.push((start, edges.clone()));
        }
        let mut sent = Vec::with_capacity(self.shards.len());
        let mut died = false;
        for line in edges.chunks(INGEST_CHUNK) {
            // Every live shard gets the line before any reply is read, so
            // a line costs the slowest shard's ack, not the sum of them.
            // Each shard still has one request in flight at a time, so a
            // retried ERR BUSY cannot reorder its stream.
            sent.clear();
            sent.extend(
                self.shards
                    .iter_mut()
                    .map(|s| s.alive.then(|| s.link.start_ingest(line))),
            );
            for (i, (shard, sent)) in self.shards.iter_mut().zip(sent.drain(..)).enumerate() {
                let Some(sent) = sent else {
                    continue;
                };
                if let Err(e) = shard.link.finish_ingest(line, sent) {
                    // The shard may have applied a prefix of the batch;
                    // its own journal knows exactly how much. Buffer from
                    // this batch on so a revival can replay the
                    // difference. The other shards' replies are still
                    // read, so their connections stay in step.
                    shard.alive = false;
                    died = true;
                    eprintln!("rept-shard: shard {i} refused ingest ({e}); marked dead");
                    if !buffered {
                        self.replay.push((start, edges.clone()));
                        buffered = true;
                    }
                }
            }
        }
        if died {
            self.rebase();
        }
        self.position += n as u64;
        self.publisher.advance(n as u64);
        if self.publisher.due() {
            self.publish();
        }
        Ok(n)
    }

    /// Barrier: collects a fresh aggregate exchange, publishes, returns
    /// the position — the coordinator's `FLUSH`.
    pub fn flush(&mut self) -> u64 {
        self.publish();
        self.position
    }

    /// Orchestrated checkpoint: every live shard checkpoints its own
    /// slice (write-then-rename on its own disk), and the cluster
    /// counter advances only when all of them succeed — so a reported
    /// checkpoint means the *whole* cluster state at this position is
    /// durable and an all-shard restart resumes bit-identically.
    ///
    /// # Errors
    ///
    /// The first shard failure (the cluster counter does not advance).
    pub fn checkpoint(&mut self) -> Result<u64, String> {
        let expect = self.position;
        let mut result = Ok(expect);
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if !shard.alive {
                continue;
            }
            match shard.link.checkpoint() {
                Ok(pos) if pos == expect => {}
                Ok(pos) => {
                    result = Err(format!(
                        "shard {i} checkpointed position {pos}, expected {expect}"
                    ));
                    break;
                }
                Err(e) => {
                    result = Err(format!("shard {i}: {e}"));
                    break;
                }
            }
        }
        if result.is_ok() {
            self.publisher.checkpointed();
        }
        self.publish();
        result
    }

    /// Barrier + merged aggregate exchange: the union of every live
    /// shard's kept-group counters in layout order, with the
    /// coordinator's position — the same full payload a standalone
    /// core's `AGGREGATE` returns, which makes coordinators composable.
    ///
    /// # Errors
    ///
    /// Only when no shard answers.
    pub fn aggregates(&mut self) -> Result<(u64, Vec<GroupAggregate>), String> {
        self.collect()?;
        Ok((self.position, self.held.clone()))
    }

    /// Test/operations hook: marks a shard dead without waiting for an
    /// I/O failure — the coordinator stops fanning to it and starts
    /// buffering for its revival.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kill_shard(&mut self, index: usize) {
        if std::mem::replace(&mut self.shards[index].alive, false) {
            self.rebase();
        }
    }

    /// Rejoins a restarted shard: validates it owns the same groups it
    /// did before, replays the buffered batches above the shard's own
    /// (checkpoint + journal restored) position, and marks it alive.
    /// Once every shard is back, the replay buffer is dropped.
    ///
    /// # Errors
    ///
    /// When the shard owns different groups, stands ahead of the
    /// coordinator, or is too far behind for the buffer to cover (its
    /// journal must close that gap first).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn revive_shard(&mut self, index: usize, mut link: ShardLink) -> Result<(), String> {
        let reply = exchange(&mut link, &self.metrics).map_err(|e| format!("revive: {e}"))?;
        let pos = reply.position;
        let starts: Vec<usize> = reply.groups.iter().map(|g| g.start).collect();
        if starts != self.shards[index].starts {
            return Err(format!(
                "revived shard owns group starts {starts:?}, expected {:?}",
                self.shards[index].starts
            ));
        }
        if pos > self.position {
            return Err(format!(
                "revived shard is at position {pos}, ahead of the cluster at {}",
                self.position
            ));
        }
        if pos < self.position {
            let covered_from = self.replay.first().map_or(self.position, |(s, _)| *s);
            if pos < covered_from {
                return Err(format!(
                    "revived shard is at position {pos} but the replay buffer starts at \
                     {covered_from}; restore the shard from its journal first"
                ));
            }
            for (start, batch) in &self.replay {
                let end = start + batch.len() as u64;
                if end <= pos {
                    continue;
                }
                let skip = pos.saturating_sub(*start) as usize;
                link.ingest(&batch[skip..])
                    .map_err(|e| format!("revive replay: {e}"))?;
            }
        }
        // A live shard's replacement takes its groups over.
        if std::mem::replace(&mut self.shards[index].alive, false) {
            self.rebase();
        }
        // The counters of the revival's exchange rejoin the held set; the
        // replayed tail arrives as the next exchange's delta against it.
        let shard = &mut self.shards[index];
        shard.link = link;
        shard.alive = true;
        shard.since = pos;
        for g in reply.groups {
            let at = self.held.partition_point(|h| h.start < g.start);
            self.held.insert(at, g);
        }
        self.rebase();
        if self.shards.iter().all(|s| s.alive) {
            self.replay.clear();
        }
        // Republish immediately: the restored groups (and the narrower
        // confidence interval they bring back) should be visible without
        // waiting out the cadence — the seq-guard would otherwise keep
        // the degraded snapshot current until the next position change.
        // Like every publication, this one restarts the cadence count.
        self.publisher.force();
        self.publish();
        Ok(())
    }

    /// Brings the held counters up to the cluster's position: one
    /// aggregate exchange with every live shard, in flight on all of them
    /// at once, each a delta against the shard's previous exchange. A
    /// shard whose reply fails or cannot be applied is marked dead and
    /// its groups leave the combination — degradation, not outage.
    fn collect(&mut self) -> Result<(), String> {
        let expect = self.position;
        // Every shard encodes its reply while the others do theirs.
        let sent: Vec<_> = self
            .shards
            .iter_mut()
            .map(|s| s.alive.then(|| s.link.start_aggregates(Some(s.since))))
            .collect();
        let mut died = false;
        for (i, (shard, sent)) in self.shards.iter_mut().zip(sent).enumerate() {
            let Some(sent) = sent else {
                continue;
            };
            let applied = finish_exchange(&mut shard.link, Some(shard.since), sent, &self.metrics)
                .and_then(|reply| {
                    if reply.position != expect {
                        return Err(ExchangeError::Position {
                            expected: expect,
                            got: reply.position,
                        });
                    }
                    apply_exchange(&mut self.held, &shard.starts, Some(shard.since), reply)
                });
            match applied {
                Ok(touched) => {
                    shard.since = expect;
                    self.publisher.touch(&touched);
                }
                Err(e) => {
                    shard.alive = false;
                    died = true;
                    eprintln!("rept-shard: shard {i}: {e}; marked dead");
                }
            }
        }
        if died {
            self.rebase();
        }
        if self.held.is_empty() {
            return Err(format!(
                "all {} shards are down; no aggregates to answer from",
                self.shards.len()
            ));
        }
        Ok(())
    }

    /// Re-derives the combination after the set of live groups changed:
    /// drops dead shards' groups and rebuilds `layout` as the
    /// configuration the rest form where they stand — the full one, or
    /// the survivors' smaller but still exactly valid one, with its
    /// honestly wider interval — and has the next publication recombine
    /// every node once from the counters already held.
    fn rebase(&mut self) {
        let dead: Vec<usize> = self
            .shards
            .iter()
            .filter(|s| !s.alive)
            .flat_map(|s| s.starts.iter().copied())
            .collect();
        self.held.retain(|g| !dead.contains(&g.start));
        if self.held.is_empty() {
            return;
        }
        let c = self.held.iter().map(|g| g.tau.len() as u64).sum();
        self.layout = Rept::new(ReptConfig { c, ..self.cfg.rept });
        self.publisher.touch(&Touched::All);
    }

    /// Publishes a fresh snapshot from an aggregate exchange, unless the
    /// publisher's guard finds the position and checkpoint count
    /// unchanged (then `seq` stays put). When every shard is down the
    /// previous snapshot simply stays current.
    fn publish(&mut self) {
        if !self.publisher.begin(self.position) {
            return;
        }
        let started = Instant::now();
        if self.collect().is_err() {
            return;
        }
        let (layout, held) = (&self.layout, &self.held);
        let publication = self.publisher.publish(
            self.position,
            layout.config(),
            |est, touched| layout.refresh_estimate(est, held, touched),
            |_| {},
        );
        let metrics = &self.metrics;
        metrics.publish_micros.record_duration(started.elapsed());
        metrics.publish_nodes.record(publication.nodes);
        if publication.full {
            metrics.publish_full.inc();
        }
    }

    /// Every live shard's metrics exposition body, keyed by shard
    /// index. A shard that fails the scrape is skipped (scrapes must
    /// not change cluster state, so it is *not* marked dead here).
    pub fn metrics_bodies(&mut self) -> Vec<(usize, String)> {
        let mut out = Vec::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if !shard.alive {
                continue;
            }
            if let Ok(body) = shard.link.metrics_body() {
                out.push((i, body));
            }
        }
        out
    }
}

/// One full aggregate exchange on `link` — a shard's first, at start or
/// revival — counted in `metrics`.
fn exchange(
    link: &mut ShardLink,
    metrics: &CoordinatorMetrics,
) -> Result<Aggregates, ExchangeError> {
    let sent = link.start_aggregates(None);
    let reply = finish_exchange(link, None, sent, metrics)?;
    match reply.since {
        Some(got) => Err(ExchangeError::Since { asked: None, got }),
        None => Ok(reply),
    }
}

/// The second half of an aggregate exchange started on `link`, counted
/// in `metrics` by kind and bytes.
fn finish_exchange(
    link: &mut ShardLink,
    since: Option<u64>,
    sent: std::io::Result<()>,
    metrics: &CoordinatorMetrics,
) -> Result<Aggregates, ExchangeError> {
    let (reply, bytes) = link
        .finish_aggregates(since, sent)
        .map_err(ExchangeError::Link)?;
    metrics.aggregate_bytes.add(bytes as u64);
    match reply.since {
        Some(_) => metrics.delta_exchanges.inc(),
        None => metrics.full_exchanges.inc(),
    }
    Ok(reply)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rept_core::{EtaMode, GroupSlice};
    use rept_serve::{ServeConfig, ServeCore};

    /// A reply as the wire carries it: formatted, split into header and
    /// body, parsed back.
    fn over_the_wire(reply: &Aggregates) -> Result<Aggregates, String> {
        let text = protocol::format_aggregates(reply);
        let mut lines = text.lines();
        let header = lines.next().expect("a header");
        let body: Vec<String> = lines.map(str::to_string).collect();
        protocol::parse_aggregates(header, &body)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// `parse(format(delta))` applied to the counters of the previous
        /// exchange gives the current counters — on every layout, η mode
        /// and slice, over duplicate-edge streams — and a reply naming
        /// another base, or a group the shard does not own, is a typed
        /// error that writes nothing.
        #[test]
        fn wire_deltas_rebuild_the_full_counters(
            pairs in vec((0u32..30, 0u32..30), 1..240),
            layout in 0usize..4,
            strict in any::<bool>(),
            seed in any::<u64>(),
            cuts in vec(0usize..240, 1..5),
            sliced in any::<bool>(),
        ) {
            let stream: Vec<Edge> = pairs
                .into_iter()
                .filter_map(|(u, v)| Edge::try_new(u, v))
                .collect();
            let (m, c) = [(4u64, 3u64), (4, 4), (3, 9), (3, 11)][layout];
            let mode = if strict { EtaMode::StrictNonLast } else { EtaMode::PaperInit };
            let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(true).with_eta_mode(mode);
            let slice = if sliced && cfg.group_count() > 1 {
                GroupSlice::new(1, 2)
            } else {
                GroupSlice::FULL
            };
            let core = ServeCore::start(ServeConfig::new(cfg).with_group_slice(slice))
                .expect("core");
            let first = core.aggregates_since(None).expect("full exchange");
            let owned: Vec<usize> = first.groups.iter().map(|g| g.start).collect();
            let mut held = over_the_wire(&first).expect("a full reply parses").groups;
            let mut since = first.position;
            let mut cuts: Vec<usize> = cuts.into_iter().map(|k| k % (stream.len() + 1)).collect();
            cuts.sort_unstable();
            let mut at = 0;
            for cut in cuts {
                core.ingest(stream[at..cut].to_vec()).expect("ingest");
                at = cut;
                let delta = core.aggregates_since(Some(since)).expect("delta exchange");
                prop_assert_eq!(delta.since, Some(since));
                let parsed = over_the_wire(&delta).expect("a delta parses");
                prop_assert_eq!(&parsed, &delta);

                // Hostile replies are refused before anything is written.
                let before = held.clone();
                let wrong_base = Aggregates { since: Some(since + 1), ..parsed.clone() };
                prop_assert_eq!(
                    apply_exchange(&mut held, &owned, Some(since), wrong_base),
                    Err(ExchangeError::Since { asked: Some(since), got: since + 1 })
                );
                prop_assert_eq!(
                    apply_exchange(&mut held, &owned, None, parsed.clone()),
                    Err(ExchangeError::Since { asked: None, got: since })
                );
                let mut stranger = parsed.clone();
                stranger.groups[0].start = c as usize + 1;
                prop_assert_eq!(
                    apply_exchange(&mut held, &owned, Some(since), stranger),
                    Err(ExchangeError::UnknownGroup(c as usize + 1))
                );
                prop_assert_eq!(&held, &before);

                let moved = apply_exchange(&mut held, &owned, Some(since), parsed)
                    .expect("the delta applies");
                prop_assert!(matches!(moved, Touched::Nodes(_)));

                // A base the core never answered gets the full counters,
                // which replace the stale ones outright; an exchange at
                // the same position keeps the base for the next delta.
                since = delta.position;
                let full = core.aggregates_since(Some(u64::MAX)).expect("full exchange");
                prop_assert_eq!(full.since, None);
                let mut replaced = before;
                prop_assert_eq!(
                    apply_exchange(&mut replaced, &owned, Some(u64::MAX), full.clone()),
                    Ok(Touched::All)
                );
                prop_assert_eq!(&replaced, &full.groups);
                prop_assert_eq!(&held, &full.groups);
            }
        }
    }

    /// A reply missing one of the shard's groups, or carrying one of
    /// another size, is refused.
    #[test]
    fn misshapen_replies_are_typed_errors() {
        let g = |start: usize, size: usize| GroupAggregate {
            start,
            tau: vec![0; size],
            stored: vec![0; size],
            bytes: 0,
            eta_total: 0,
            tau_v: None,
            eta_v: None,
        };
        let mut held = vec![g(0, 3), g(3, 3)];
        let starts = [0, 3];
        let reply = |groups| Aggregates {
            position: 5,
            since: Some(2),
            groups,
        };
        assert_eq!(
            apply_exchange(&mut held, &starts, Some(2), reply(vec![g(0, 3)])),
            Err(ExchangeError::Shape(3))
        );
        assert_eq!(
            apply_exchange(&mut held, &starts, Some(2), reply(vec![g(0, 3), g(3, 2)])),
            Err(ExchangeError::Shape(3))
        );
        assert_eq!(
            apply_exchange(&mut held, &[0], Some(2), reply(vec![g(0, 3), g(3, 3)])),
            Err(ExchangeError::UnknownGroup(3))
        );
        assert_eq!(
            apply_exchange(&mut held, &starts, Some(2), reply(vec![g(0, 3), g(3, 3)])),
            Ok(Touched::none())
        );
    }

    fn local_links(cfg: ReptConfig, shards: u32) -> Vec<ShardLink> {
        (0..shards)
            .map(|i| {
                let slice = GroupSlice::new(i, shards);
                let core = ServeCore::start(ServeConfig::new(cfg).with_group_slice(slice))
                    .expect("shard core");
                ShardLink::local(Arc::new(core))
            })
            .collect()
    }

    #[test]
    fn layout_starts_match_config_arithmetic() {
        assert_eq!(expected_starts(&ReptConfig::new(10, 7)), vec![0]);
        assert_eq!(expected_starts(&ReptConfig::new(10, 30)), vec![0, 10, 20]);
        assert_eq!(
            expected_starts(&ReptConfig::new(10, 32)),
            vec![0, 10, 20, 30]
        );
    }

    #[test]
    fn start_rejects_bad_deployments() {
        let cfg = ReptConfig::new(2, 8).with_seed(1); // 4 groups
        let err = ShardCoordinator::start(CoordinatorConfig::new(cfg), Vec::new());
        assert!(err.is_err());
        // More shards than groups (the count guard fires before any
        // shard is interrogated, so unsliced cores suffice here).
        let five = (0..5)
            .map(|_| {
                let core = ServeCore::start(ServeConfig::new(cfg)).expect("core");
                ShardLink::local(Arc::new(core))
            })
            .collect();
        let err = ShardCoordinator::start(CoordinatorConfig::new(cfg), five)
            .expect_err("5 shards over 4 groups");
        assert!(err.contains("hash group"), "{err}");
        // Overlapping slices: two shards both claiming the full layout.
        let overlapping = (0..2)
            .map(|_| {
                let core = ServeCore::start(ServeConfig::new(cfg)).expect("core");
                ShardLink::local(Arc::new(core))
            })
            .collect();
        let err = ShardCoordinator::start(CoordinatorConfig::new(cfg), overlapping)
            .expect_err("overlapping slices");
        assert!(err.contains("owned by two shards"), "{err}");
        // A gap: one sliced shard alone does not cover the layout.
        let one_of_two = vec![local_links(cfg, 2).remove(0)];
        let err = ShardCoordinator::start(CoordinatorConfig::new(cfg), one_of_two)
            .expect_err("gap in coverage");
        assert!(err.contains("layout"), "{err}");
    }

    /// A revival publishes at once and, like every publication, restarts
    /// the cadence count: the next cadence publication comes
    /// `snapshot_every` edges after the revival's, as on a core.
    #[test]
    fn revival_restarts_the_publication_cadence() {
        let cfg = ReptConfig::new(2, 8).with_seed(3);
        let cores: Vec<Arc<ServeCore>> = (0..2)
            .map(|i| {
                let sc = ServeConfig::new(cfg).with_group_slice(GroupSlice::new(i, 2));
                Arc::new(ServeCore::start(sc).expect("shard core"))
            })
            .collect();
        let links = cores
            .iter()
            .map(|c| ShardLink::local(Arc::clone(c)))
            .collect();
        let ccfg = CoordinatorConfig::new(cfg).with_snapshot_every(100);
        let mut coord = ShardCoordinator::start(ccfg, links).expect("start");
        let edges: Vec<Edge> = (0..160u32)
            .map(|i| Edge::new(i % 17, (i * 7 + 3) % 17 + 17))
            .collect();
        let mut seqs = Vec::new();
        coord.ingest(edges[..60].to_vec()).expect("ingest");
        seqs.push(coord.snapshot().seq);
        coord.kill_shard(1);
        coord
            .revive_shard(1, ShardLink::local(Arc::clone(&cores[1])))
            .expect("revive");
        seqs.push(coord.snapshot().seq);
        for batch in [&edges[60..110], &edges[110..159], &edges[159..]] {
            coord.ingest(batch.to_vec()).expect("ingest");
            seqs.push(coord.snapshot().seq);
        }
        // After 60, 60 (revived), 110, 159 and 160 edges.
        assert_eq!(seqs, [0, 1, 1, 1, 2]);
        assert_eq!(coord.snapshot().position, 160);
    }

    #[test]
    fn degraded_cluster_answers_and_reports() {
        let cfg = ReptConfig::new(2, 8).with_seed(7).with_locals(true);
        let mut coord = ShardCoordinator::start(CoordinatorConfig::new(cfg), local_links(cfg, 2))
            .expect("start");
        let edges: Vec<Edge> = (0..40u32)
            .flat_map(|i| {
                [
                    Edge::new(i % 7, (i + 1) % 7),
                    Edge::new((i + 1) % 7, (i + 2) % 7),
                    Edge::new(i % 7, (i + 2) % 7),
                ]
            })
            .collect();
        coord.ingest(edges.clone()).expect("ingest");
        coord.flush();
        assert!(!coord.health().degraded());
        let full = coord.snapshot();
        assert_eq!(full.c, 8);

        coord.kill_shard(1);
        coord.ingest(edges).expect("degraded ingest still accepted");
        let position = coord.flush();
        let health = coord.health();
        assert!(health.degraded());
        assert_eq!((health.alive, health.total), (1, 2));
        assert_eq!(
            format_cluster_health(&health),
            format!("OK HEALTH tenant=default state=degraded shards=1/2 position={position}")
        );
        // The surviving half answers as a smaller, valid configuration.
        let degraded = coord.snapshot();
        assert_eq!(degraded.c, 4);
        assert_eq!(degraded.position, position);
    }
}
