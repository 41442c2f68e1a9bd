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
//! so the coordinator re-bases the surviving aggregates onto that
//! smaller layout and keeps answering — with the honestly wider
//! confidence interval of the smaller `c'`. `HEALTH` reports
//! `state=degraded shards=<k>/<n>` instead of erroring. Batches fanned
//! while degraded are buffered; a revived shard (restored from its own
//! checkpoint + journal) replays the buffered tail and rejoins.

use std::collections::BTreeSet;
use std::sync::Arc;

use rept_core::{Engine, GroupAggregate, Rept, ReptConfig};
use rept_graph::edge::Edge;
use rept_serve::client::INGEST_CHUNK;
use rept_serve::snapshot::Snapshot;
use rept_serve::{Client, ServeCore};

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

    /// Barrier + aggregate exchange: applies everything queued on the
    /// shard, then returns its position and kept-group counters.
    ///
    /// # Errors
    ///
    /// A description of the failure.
    pub fn aggregates(&mut self) -> Result<(u64, Vec<GroupAggregate>), String> {
        let sent = self.start_aggregates();
        self.finish_aggregates(sent)
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

    /// The first half of an `AGGREGATE` exchange.
    fn start_aggregates(&mut self) -> std::io::Result<()> {
        match self {
            Self::Local(_) => Ok(()),
            Self::Tcp(client) => client.start_request("AGGREGATE"),
        }
    }

    /// The second half: the shard's position and counters.
    fn finish_aggregates(
        &mut self,
        sent: std::io::Result<()>,
    ) -> Result<(u64, Vec<GroupAggregate>), String> {
        match self {
            Self::Local(core) => core.aggregates(),
            Self::Tcp(client) => client.finish_aggregates(sent).map_err(|e| e.to_string()),
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
            Self::Local(core) => {
                let scrape = rept_serve::TenantScrape {
                    tenant: "default".into(),
                    engine: core.config().engine.name(),
                    health: core.health(),
                    metrics: Arc::clone(core.metrics()),
                };
                Ok(rept_serve::render_exposition(&[scrape], false))
            }
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
    /// knob as [`rept_serve::ServeConfig::snapshot_every`], replicated
    /// here so `seq=` counters match a standalone core's.
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

#[derive(Debug)]
struct ShardHandle {
    link: ShardLink,
    alive: bool,
    /// The group starts this shard owns — a revived replacement must
    /// own the same ones.
    starts: Vec<usize>,
}

/// The coordinator: owns N shard links, fans every ingest batch to all
/// of them, and answers the v2 query surface by recombining their
/// aggregate exchanges. Single-tenant by design — each shard runs one
/// sliced core; multi-tenancy composes *above* this tier, not below.
#[derive(Debug)]
pub struct ShardCoordinator {
    cfg: CoordinatorConfig,
    rept: Rept,
    group_count: usize,
    shards: Vec<ShardHandle>,
    position: u64,
    seq: u64,
    checkpoints: u64,
    since_snapshot: u64,
    last_published: Option<(u64, u64)>,
    published: Arc<Snapshot>,
    /// Batches fanned while any shard was dead, with their start
    /// positions — the replay source for [`Self::revive_shard`].
    replay: Vec<(u64, Vec<Edge>)>,
}

/// The group starts of a configuration's layout, in layout order.
fn expected_starts(cfg: &ReptConfig) -> Vec<usize> {
    let m = cfg.m as usize;
    let c = cfg.c as usize;
    if c <= m {
        return vec![0];
    }
    let c1 = c / m;
    let mut starts: Vec<usize> = (0..c1).map(|g| g * m).collect();
    if !c.is_multiple_of(m) {
        starts.push(c1 * m);
    }
    starts
}

/// Renumbers a *partial* set of group aggregates onto the smaller
/// configuration they form on their own: same `m`, `c' = Σ sizes`,
/// full groups packed before the remainder (their original start order
/// already guarantees that). The result is a complete aggregate set
/// for the returned config, so `finalize_groups` applies unchanged.
fn rebase_survivors(
    base: &ReptConfig,
    mut aggregates: Vec<GroupAggregate>,
) -> (ReptConfig, Vec<GroupAggregate>) {
    aggregates.sort_unstable_by_key(|g| g.start);
    let c: u64 = aggregates.iter().map(|g| g.tau.len() as u64).sum();
    let mut next = 0usize;
    for g in &mut aggregates {
        let size = g.tau.len();
        g.start = next;
        next += size;
    }
    let cfg = ReptConfig {
        m: base.m,
        c,
        seed: base.seed,
        track_locals: base.track_locals,
        track_eta: base.track_eta,
        eta_mode: base.eta_mode,
    };
    (cfg, aggregates)
}

impl ShardCoordinator {
    /// Starts the coordinator over the given shard links.
    ///
    /// Interrogates every shard (an `AGGREGATE` barrier each) and
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
        let mut shards = Vec::with_capacity(links.len());
        let mut position: Option<u64> = None;
        let mut owned = BTreeSet::new();
        let mut initial: Vec<GroupAggregate> = Vec::new();
        for (i, mut link) in links.into_iter().enumerate() {
            let (pos, aggregates) = link.aggregates().map_err(|e| format!("shard {i}: {e}"))?;
            match position {
                None => position = Some(pos),
                Some(p) if p == pos => {}
                Some(p) => {
                    return Err(format!(
                        "shard {i} is at position {pos} but earlier shards are at {p}; \
                         restore every shard to a common position before starting"
                    ));
                }
            }
            let starts: Vec<usize> = aggregates.iter().map(|g| g.start).collect();
            for &s in &starts {
                if !owned.insert(s) {
                    return Err(format!("group start {s} is owned by two shards"));
                }
            }
            initial.extend(aggregates);
            shards.push(ShardHandle {
                link,
                alive: true,
                starts,
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
        let rept = Rept::new(cfg.rept);
        initial.sort_unstable_by_key(|g| g.start);
        let snapshot = Self::assemble(&cfg, &rept, initial, position, 0, 0);
        Ok(Self {
            cfg,
            rept,
            group_count: group_count as usize,
            shards,
            position,
            seq: 0,
            checkpoints: 0,
            since_snapshot: 0,
            last_published: Some((position, 0)),
            published: Arc::new(snapshot),
            replay: Vec::new(),
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &CoordinatorConfig {
        &self.cfg
    }

    /// Shards the cluster was started with.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
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
        Arc::clone(&self.published)
    }

    /// The coordinator's stream position (edges fanned out).
    pub fn position(&self) -> u64 {
        self.position
    }

    /// Fans a batch to every live shard and advances the publication
    /// cadence — the same `snapshot_every` arithmetic as a standalone
    /// core's ingest loop, so `seq=` counters stay identical. The batch
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
                    eprintln!("rept-shard: shard {i} refused ingest ({e}); marked dead");
                    if !buffered {
                        self.replay.push((start, edges.clone()));
                        buffered = true;
                    }
                }
            }
        }
        self.position += n as u64;
        self.since_snapshot += n as u64;
        if self.since_snapshot >= self.cfg.snapshot_every {
            self.publish();
            self.since_snapshot = 0;
        }
        Ok(n)
    }

    /// Barrier: collects a fresh aggregate exchange, publishes, returns
    /// the position — the coordinator's `FLUSH`.
    pub fn flush(&mut self) -> u64 {
        self.publish();
        self.since_snapshot = 0;
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
        self.checkpoints += u64::from(result.is_ok());
        self.publish();
        self.since_snapshot = 0;
        result
    }

    /// Barrier + merged aggregate exchange: the union of every live
    /// shard's kept-group counters in layout order, with the
    /// coordinator's position — the same payload a standalone core's
    /// `AGGREGATE` returns, which makes coordinators composable.
    ///
    /// # Errors
    ///
    /// Only when no shard answers.
    pub fn aggregates(&mut self) -> Result<(u64, Vec<GroupAggregate>), String> {
        let aggregates = self.collect()?;
        Ok((self.position, aggregates))
    }

    /// Test/operations hook: marks a shard dead without waiting for an
    /// I/O failure — the coordinator stops fanning to it and starts
    /// buffering for its revival.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn kill_shard(&mut self, index: usize) {
        self.shards[index].alive = false;
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
        let (pos, aggregates) = link.aggregates().map_err(|e| format!("revive: {e}"))?;
        let starts: Vec<usize> = aggregates.iter().map(|g| g.start).collect();
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
        self.shards[index].link = link;
        self.shards[index].alive = true;
        if self.shards.iter().all(|s| s.alive) {
            self.replay.clear();
        }
        // Republish immediately: the restored groups (and the narrower
        // confidence interval they bring back) should be visible without
        // waiting out the cadence — the seq-guard would otherwise keep
        // the degraded snapshot current until the next position change.
        self.last_published = None;
        self.publish();
        Ok(())
    }

    /// Collects the aggregate exchange from every live shard, in layout
    /// order, with the `AGGREGATE` in flight on every shard at once. A
    /// shard that fails mid-collection is marked dead and skipped —
    /// degradation, not outage.
    fn collect(&mut self) -> Result<Vec<GroupAggregate>, String> {
        let expect = self.position;
        let mut all: Vec<GroupAggregate> = Vec::new();
        let mut any = false;
        // Every shard encodes its reply while the others do theirs.
        let sent: Vec<_> = self
            .shards
            .iter_mut()
            .map(|s| s.alive.then(|| s.link.start_aggregates()))
            .collect();
        for (i, (shard, sent)) in self.shards.iter_mut().zip(sent).enumerate() {
            let Some(sent) = sent else {
                continue;
            };
            match shard.link.finish_aggregates(sent) {
                Ok((pos, aggregates)) if pos == expect => {
                    all.extend(aggregates);
                    any = true;
                }
                Ok((pos, _)) => {
                    shard.alive = false;
                    eprintln!(
                        "rept-shard: shard {i} is at position {pos}, expected {expect}; \
                         marked dead"
                    );
                }
                Err(e) => {
                    shard.alive = false;
                    eprintln!("rept-shard: shard {i} aggregate exchange failed ({e}); marked dead");
                }
            }
        }
        if !any {
            return Err(format!(
                "all {} shards are down; no aggregates to answer from",
                self.shards.len()
            ));
        }
        all.sort_unstable_by_key(|g| g.start);
        Ok(all)
    }

    /// Publishes a fresh snapshot from a full aggregate exchange, with
    /// the standalone core's seq-guard: an unchanged (position,
    /// checkpoints) pair republishes nothing and `seq` stays put. When
    /// every shard is down the previous snapshot simply stays current.
    fn publish(&mut self) {
        if self.last_published == Some((self.position, self.checkpoints)) {
            return;
        }
        let Ok(aggregates) = self.collect() else {
            return;
        };
        self.seq += 1;
        let snapshot = Self::assemble(
            &self.cfg,
            &self.rept,
            aggregates,
            self.position,
            self.seq,
            self.checkpoints,
        );
        self.published = Arc::new(snapshot);
        self.last_published = Some((self.position, self.checkpoints));
    }

    /// Combines one full or partial aggregate exchange into a snapshot.
    /// A complete set goes through the full configuration's
    /// `finalize_groups` — bit-identical to the standalone core. A
    /// partial (degraded) set is re-based onto the surviving smaller
    /// configuration first, whose estimate is still exactly valid REPT
    /// — just with the wider interval of fewer processors.
    fn assemble(
        cfg: &CoordinatorConfig,
        rept: &Rept,
        aggregates: Vec<GroupAggregate>,
        position: u64,
        seq: u64,
        checkpoints: u64,
    ) -> Snapshot {
        let full = aggregates.len() == cfg.rept.group_count() as usize;
        let (effective, estimate) = if full {
            (cfg.rept, rept.finalize_groups(aggregates))
        } else {
            let (survivor_cfg, rebased) = rebase_survivors(&cfg.rept, aggregates);
            let estimate = Rept::new(survivor_cfg).finalize_groups(rebased);
            (survivor_cfg, estimate)
        };
        Snapshot::from_estimate(
            &estimate,
            &effective,
            cfg.engine,
            position,
            seq,
            checkpoints,
            cfg.top_k,
        )
    }

    /// Number of hash groups in the full configuration.
    pub fn group_count(&self) -> usize {
        self.group_count
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

#[cfg(test)]
mod tests {
    use super::*;
    use rept_core::GroupSlice;
    use rept_serve::{ServeConfig, ServeCore};

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
    fn rebase_packs_survivors_contiguously() {
        let base = ReptConfig::new(3, 11).with_seed(9); // groups: 0..3, 3..6, 9..11(r)
        let g = |start: usize, size: usize| GroupAggregate {
            start,
            tau: vec![0; size],
            stored: vec![0; size],
            bytes: 0,
            eta_total: 0,
            tau_v: None,
            eta_v: None,
        };
        // Survivors arrive out of order; the remainder keeps last place.
        let (cfg, rebased) = rebase_survivors(&base, vec![g(9, 2), g(0, 3)]);
        assert_eq!(cfg.c, 5);
        assert_eq!(cfg.m, 3);
        assert_eq!(cfg.seed, 9);
        assert_eq!(
            rebased.iter().map(|a| a.start).collect::<Vec<_>>(),
            vec![0, 3]
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
