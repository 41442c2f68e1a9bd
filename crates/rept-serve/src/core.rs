//! The serving core: one ingest thread driving an engine-aware
//! [`ResumableRun`], snapshot publication, and crash-safe checkpoints.
//!
//! [`ServeCore`] is the transport-free heart of the subsystem — the TCP
//! front-end ([`crate::server`]), the multi-tenant router
//! ([`crate::tenant::TenantRouter`], which owns one `ServeCore` per
//! tenant), the benches and the tests all drive this same type. Producers push edge batches into a **bounded**
//! channel (backpressure, like the cluster simulation's network links);
//! the single ingest thread applies them in arrival order, which keeps
//! the estimator state — and therefore every checkpoint — a pure
//! function of the edge sequence, the config and the engine. Queries
//! read the last published [`Snapshot`] and never touch the ingest
//! thread at all.
//!
//! ## Crash safety
//!
//! With a checkpoint path configured, the core checkpoints the complete
//! estimator state (RPCK v4, write-then-rename) every
//! `checkpoint_every` edges, on demand, and at shutdown; with
//! [`ServeConfig::checkpoint_keep`] `> 1` the previous checkpoints are
//! rotated to position-stamped siblings and pruned to the last `k`. On
//! startup, an existing checkpoint is loaded and the run resumes from
//! its recorded position; the producer replays the stream from
//! [`ServeCore::position`]. Because the driver is deterministic and
//! batch-split-insensitive, a kill-and-restart cycle is bit-identical
//! to an uninterrupted run — the serve proptests assert this for every
//! engine.
//!
//! ## Lossless ingest (write-ahead journal)
//!
//! Checkpoints alone make resume deterministic but lossy: a kill
//! forfeits every edge accepted after the last checkpoint. With
//! [`ServeConfig::with_journal`] the ingest thread appends each
//! accepted batch to a segmented, CRC-guarded journal
//! ([`crate::journal`]) *before* applying it and — under the default
//! [`SyncPolicy::PerRecord`] — fsyncs before the ack, so an acked edge
//! is durable. A checkpoint truncates the journal prefix it covers;
//! startup replays the journal tail above the restored checkpoint.
//! Recovery then yields exactly the acked prefix with no producer-side
//! replay, and a torn final record is dropped, not fatal. Rejected
//! ingest lines land in a dead-letter file ([`crate::dlq`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rept_core::reservoir::MIN_MEMORY_BUDGET;
use rept_core::resume::{ResumableRun, SnapshotError};
use rept_core::{Engine, GroupAggregate, GroupSlice, Rept, ReptConfig, ReptEstimate};
use rept_graph::edge::Edge;

use crate::dlq::DeadLetterQueue;
use crate::journal::{Journal, SyncPolicy};
use crate::metrics::ServeMetrics;
use crate::snapshot::{DurabilityStats, Published, Snapshot};

/// Slow-op trace ring capacity per tenant (events, not bytes).
const TRACE_CAPACITY: usize = 256;

/// What happens to ingest once a tenant with a
/// [`ServeConfig::memory_budget`] reaches it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QuotaPolicy {
    /// Run the bounded-memory reservoir engine: stored bytes *never*
    /// exceed the budget because old edges are evicted (TRIÈST-style
    /// unbiased sampling) — ingest is never refused, estimates become
    /// approximate once the stream outgrows the budget. The default:
    /// `memory_budget=<bytes>` alone gives graceful degradation.
    #[default]
    Shed,
    /// Keep the exact engine; once stored bytes reach the budget every
    /// further batch is refused with a typed quota error (`ERR QUOTA`
    /// on the wire, routed to the dead-letter file). The tenant keeps
    /// serving reads and accepts writes again if its footprint shrinks
    /// (it does not — adjacency only grows — so in practice this is a
    /// hard stop the operator resolves by dropping or re-budgeting).
    Reject,
    /// Like [`Self::Reject`], but the first breach permanently degrades
    /// the tenant: writes are refused from then on and reads serve the
    /// frozen snapshot, even if a restart would measure fewer bytes.
    /// The flag survives as long as the core runs (it is not
    /// checkpointed — a restart re-arms enforcement from measurement).
    Degrade,
}

impl QuotaPolicy {
    /// Stable lowercase name (wire options, manifests, docs).
    pub fn name(self) -> &'static str {
        match self {
            QuotaPolicy::Shed => "shed",
            QuotaPolicy::Reject => "reject",
            QuotaPolicy::Degrade => "degrade",
        }
    }

    /// Parses [`Self::name`] output.
    pub fn from_name(name: &str) -> Option<Self> {
        match name {
            "shed" => Some(QuotaPolicy::Shed),
            "reject" => Some(QuotaPolicy::Reject),
            "degrade" => Some(QuotaPolicy::Degrade),
            _ => None,
        }
    }
}

/// Why an ingest batch was not accepted. The distinction matters to
/// clients: [`Self::Busy`] is transient (the bounded channel was full —
/// back off and retry), while [`Self::Quota`] is not (retrying without
/// operator action will fail again, and clients must *not* retry it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The bounded ingest channel was full ([`ServeCore::try_ingest`]
    /// only — the blocking [`ServeCore::ingest`] waits instead).
    Busy,
    /// The tenant's memory budget refused the batch
    /// ([`QuotaPolicy::Reject`] / [`QuotaPolicy::Degrade`]).
    Quota(String),
    /// The batch was refused for another reason (journal write failure).
    Rejected(String),
}

impl std::fmt::Display for IngestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // The leading token doubles as the wire discriminator: the
        // server prefixes `ERR `, so clients see `ERR BUSY …` (retry)
        // vs `ERR QUOTA …` (do not retry).
        match self {
            IngestError::Busy => write!(f, "BUSY ingest queue full; retry"),
            IngestError::Quota(msg) => write!(f, "QUOTA {msg}"),
            IngestError::Rejected(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for IngestError {}

/// Per-tenant pressure readings — the `HEALTH` payload. Assembled by
/// [`ServeCore::health`] from live gauges, not from the (possibly
/// stale) published snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Health {
    /// The tenant refuses writes permanently ([`QuotaPolicy::Degrade`]
    /// after its first breach).
    pub degraded: bool,
    /// Ingest batches currently queued (bounded by `queue_capacity`).
    pub queue_depth: u64,
    /// The bounded channel's capacity in batches.
    pub queue_capacity: u64,
    /// Bytes the estimator currently stores for edges (adjacency +
    /// reservoir bookkeeping; counters excluded — see
    /// [`rept_core::engine::EngineCore::stored_bytes`]).
    pub stored_bytes: u64,
    /// The configured budget those bytes are measured against
    /// (0 = unlimited).
    pub memory_budget: u64,
    /// Journal bytes on disk not yet retired by a checkpoint — how far
    /// recovery would have to replay (0 without a journal).
    pub journal_lag_bytes: u64,
    /// Rejected lines captured in the dead-letter file.
    pub dlq: u64,
    /// Active journal fsync policy ([`SyncPolicy::name`]), or `"none"`
    /// when the journal is off — operators confirm the durability mode
    /// from `HEALTH` without reading the manifest.
    pub sync: &'static str,
    /// Size, in batches, of the most recent group commit (0 before the
    /// first ingest).
    pub last_group: u64,
}

/// Live pressure gauges shared between the ingest thread (writer) and
/// [`ServeCore::health`] (reader). All loads/stores are relaxed — each
/// gauge is an independent monotone-ish reading, not a consistent cut.
#[derive(Debug, Default)]
struct Gauges {
    queue_depth: AtomicU64,
    stored_bytes: AtomicU64,
    journal_bytes: AtomicU64,
    journal_segments: AtomicU64,
    degraded: AtomicBool,
}

/// Point-in-time durability readings backed by the same live gauges as
/// [`ServeCore::health`] — what `STATS` / `JOURNAL STATS` report for the
/// fields that move between snapshot publications.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LiveStats {
    /// Bytes the estimator currently stores for edges.
    pub stored_bytes: u64,
    /// Journal bytes on disk not yet retired by a checkpoint.
    pub journal_bytes: u64,
    /// Journal segment files currently on disk.
    pub journal_segments: u64,
    /// Rejected ingest lines captured in the dead-letter file.
    pub dlq: u64,
}

/// Configuration of a [`ServeCore`].
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The estimator configuration. Enable η tracking
    /// ([`ReptConfig::with_eta`]) if global queries should always carry
    /// a confidence interval.
    pub rept: ReptConfig,
    /// Execution engine (default: [`Engine::FusedHybrid`]).
    pub engine: Engine,
    /// Edges between automatic snapshot publications. Snapshot assembly
    /// clones the counter state, so this trades query freshness against
    /// ingest throughput.
    pub snapshot_every: u64,
    /// Edges between automatic checkpoints (`None` = only on demand and
    /// at shutdown). Ignored without a checkpoint path.
    pub checkpoint_every: Option<u64>,
    /// Checkpoint file; also the resume source at startup.
    pub checkpoint_path: Option<PathBuf>,
    /// How many checkpoint files to retain (≥ 1). The newest checkpoint
    /// always lives at [`Self::checkpoint_path`]; with `keep > 1`, each
    /// write first preserves the previous file as a position-stamped
    /// sibling (`<stem>.<position>.rpck`, hard link or copy — the
    /// primary is never moved away, so a failed write cannot lose the
    /// last good checkpoint) and a successful write then prunes rotated
    /// files beyond `keep - 1` — so a checkpoint that turns out
    /// corrupted (e.g. a bad disk) still leaves older restore points on
    /// disk.
    pub checkpoint_keep: usize,
    /// Size of the top-k local-count index kept in each snapshot.
    pub top_k: usize,
    /// Ingest channel capacity in batches (bounded ⇒ producers feel
    /// backpressure instead of growing an unbounded queue).
    pub channel_capacity: usize,
    /// Journal every acked batch to a write-ahead log next to the
    /// checkpoint before applying it (requires [`Self::checkpoint_path`])
    /// so recovery is lossless — see [`crate::journal`]. Default off.
    pub journal: bool,
    /// Journal segment rotation threshold in bytes (default 1 MiB).
    pub journal_segment_bytes: u64,
    /// When the journal fsyncs relative to the ingest ack (default
    /// [`SyncPolicy::PerRecord`] — acked ⇒ durable).
    pub journal_sync: SyncPolicy,
    /// Hard ceiling on the bytes the estimator may store for edges
    /// (`None` = unlimited). Must be at least
    /// [`rept_core::reservoir::MIN_MEMORY_BUDGET`]. What happens at the
    /// ceiling is decided by [`Self::quota`].
    pub memory_budget: Option<u64>,
    /// Enforcement mode for [`Self::memory_budget`] (default
    /// [`QuotaPolicy::Shed`] — the bounded-memory reservoir engine).
    /// Ignored without a budget.
    pub quota: QuotaPolicy,
    /// Record timing histograms and slow-op traces on the hot paths
    /// (default on). Counters and gauges stay live either way — they
    /// back `HEALTH`/`STATS`; turning this off only removes the
    /// clock reads and histogram updates (the bench's uninstrumented
    /// baseline).
    pub metrics: bool,
    /// Operations at or above this duration land in the slow-op trace
    /// ring drained by `TRACE TAIL` (default 50 ms).
    pub slow_op_threshold: Duration,
    /// Run only this round-robin slice of the configuration's hash
    /// groups (`None` = all of them) — the shard-server mode the
    /// `rept-shard` coordinator deploys. A sliced core ingests the full
    /// stream but maintains counters only for its kept groups; its
    /// `AGGREGATE` reply carries those groups' raw counters for the
    /// coordinator to recombine. Incompatible with a reservoir budget
    /// ([`QuotaPolicy::Shed`] + [`Self::memory_budget`]): the reservoir
    /// has no group structure to slice.
    pub group_slice: Option<GroupSlice>,
}

impl ServeConfig {
    /// Defaults: fused-hybrid engine, snapshot every 8192 edges, top-100
    /// index, 16-batch channel, no checkpointing, keep 1 checkpoint, no
    /// journal.
    pub fn new(rept: ReptConfig) -> Self {
        Self {
            rept,
            engine: Engine::default(),
            snapshot_every: 8192,
            checkpoint_every: None,
            checkpoint_path: None,
            checkpoint_keep: 1,
            top_k: 100,
            channel_capacity: 16,
            journal: false,
            journal_segment_bytes: 1 << 20,
            journal_sync: SyncPolicy::PerRecord,
            memory_budget: None,
            quota: QuotaPolicy::default(),
            metrics: true,
            slow_op_threshold: Duration::from_millis(50),
            group_slice: None,
        }
    }

    /// Restricts the core to one round-robin group slice (see
    /// [`Self::group_slice`]). A full slice is normalised to `None`.
    pub fn with_group_slice(mut self, slice: GroupSlice) -> Self {
        self.group_slice = (!slice.is_full()).then_some(slice);
        self
    }

    /// Enables or disables timing instrumentation (see [`Self::metrics`]).
    pub fn with_metrics(mut self, enabled: bool) -> Self {
        self.metrics = enabled;
        self
    }

    /// Sets the slow-op trace threshold (see [`Self::slow_op_threshold`]).
    pub fn with_slow_op_threshold(mut self, threshold: Duration) -> Self {
        self.slow_op_threshold = threshold;
        self
    }

    /// Bounds the tenant's stored-edge bytes (see
    /// [`Self::memory_budget`] and [`Self::quota`]).
    pub fn with_memory_budget(mut self, bytes: u64) -> Self {
        self.memory_budget = Some(bytes);
        self
    }

    /// Selects what happens when the memory budget is reached.
    pub fn with_quota_policy(mut self, quota: QuotaPolicy) -> Self {
        self.quota = quota;
        self
    }

    /// The reservoir budget when this config runs the bounded-memory
    /// engine: a budget under [`QuotaPolicy::Shed`].
    fn reservoir_budget(&self) -> Option<u64> {
        match self.quota {
            QuotaPolicy::Shed => self.memory_budget,
            _ => None,
        }
    }

    /// Whether the ingest thread can refuse batches over quota — in
    /// which case every ingest needs an ack channel to carry the
    /// refusal back, journal or not.
    fn enforces_quota(&self) -> bool {
        self.memory_budget.is_some() && self.quota != QuotaPolicy::Shed
    }

    /// Selects the execution engine.
    pub fn with_engine(mut self, engine: Engine) -> Self {
        self.engine = engine;
        self
    }

    /// Sets the snapshot publication interval (edges).
    pub fn with_snapshot_every(mut self, edges: u64) -> Self {
        self.snapshot_every = edges.max(1);
        self
    }

    /// Enables checkpointing to `path`, with an optional automatic
    /// interval in edges.
    pub fn with_checkpoint(mut self, path: PathBuf, every: Option<u64>) -> Self {
        self.checkpoint_path = Some(path);
        self.checkpoint_every = every;
        self
    }

    /// Sets how many checkpoint files to retain (clamped to ≥ 1; see
    /// [`Self::checkpoint_keep`]).
    pub fn with_checkpoint_keep(mut self, keep: usize) -> Self {
        self.checkpoint_keep = keep.max(1);
        self
    }

    /// Sets the top-k index size.
    pub fn with_top_k(mut self, k: usize) -> Self {
        self.top_k = k;
        self
    }

    /// Enables the write-ahead journal (requires a checkpoint path at
    /// [`ServeCore::start`]): acked batches become durable before the
    /// ack and recovery replays the journal tail losslessly.
    pub fn with_journal(mut self) -> Self {
        self.journal = true;
        self
    }

    /// Enables the journal and selects its fsync policy.
    pub fn with_journal_sync(mut self, sync: SyncPolicy) -> Self {
        self.journal = true;
        self.journal_sync = sync;
        self
    }

    /// Sets the journal segment rotation threshold in bytes (clamped to
    /// ≥ 64 so rotation always makes progress).
    pub fn with_journal_segment_bytes(mut self, bytes: u64) -> Self {
        self.journal_segment_bytes = bytes.max(64);
        self
    }
}

/// Ack channel carried by an [`Control::Ingest`] message, when the
/// producer waits for an admission/durability verdict.
type IngestAck = Option<SyncSender<Result<(), IngestError>>>;

/// Control messages the ingest thread consumes, in arrival order.
enum Control {
    /// Apply a batch of stream edges. The sender, when present, is
    /// acked once the batch is admitted and journaled (and, per policy,
    /// fsynced) — `Err` means the batch was refused and not applied.
    /// The `Instant` is the enqueue time, for the queue-wait histogram.
    Ingest(Vec<Edge>, IngestAck, Instant),
    /// Publish a fresh snapshot, then reply with the position — a
    /// barrier: everything queued before it is applied first.
    Flush(SyncSender<u64>),
    /// Write a checkpoint (and publish), then reply with the position.
    Checkpoint(SyncSender<Result<u64, String>>),
    /// Barrier like [`Self::Flush`], then reply with the position and
    /// the run's raw per-group counters — the shard tier's
    /// aggregate-exchange payload. `Err` for reservoir runs, which have
    /// no group structure.
    Aggregate(AggregateReply),
    /// Drain and exit the ingest loop.
    Shutdown,
}

/// Reply channel of [`Control::Aggregate`].
type AggregateReply = SyncSender<Result<(u64, Vec<GroupAggregate>), String>>;

/// The running serving core. Dropping it (or calling
/// [`Self::shutdown`]) stops the ingest thread, writing a final
/// checkpoint when a path is configured.
#[derive(Debug)]
pub struct ServeCore {
    tx: SyncSender<Control>,
    published: Arc<Published<Snapshot>>,
    ingest: Option<JoinHandle<ResumableRun>>,
    cfg: ServeConfig,
    /// See [`Self::disable_checkpoints`].
    ckpt_disabled: Arc<AtomicBool>,
    /// Dead-letter capture for rejected ingest lines (journal mode).
    dlq: Option<Arc<DeadLetterQueue>>,
    /// Live pressure gauges backing [`Self::health`].
    gauges: Arc<Gauges>,
    /// Per-tenant counters/histograms/trace — the `METRICS` payload.
    metrics: Arc<ServeMetrics>,
}

impl ServeCore {
    /// Starts the core: resumes from the configured checkpoint if one
    /// exists on disk, otherwise starts a fresh run; then spawns the
    /// ingest thread and publishes the initial snapshot.
    ///
    /// # Errors
    ///
    /// [`SnapshotError`] when an existing checkpoint cannot be decoded
    /// or disagrees with the requested config/engine — resuming under a
    /// different configuration would silently produce garbage, so it is
    /// refused. Also when the journal is enabled without a checkpoint
    /// path, or the journal on disk has a gap above the checkpoint
    /// (acked edges are missing — starting would silently lose them).
    pub fn start(cfg: ServeConfig) -> Result<Self, SnapshotError> {
        if cfg.journal && cfg.checkpoint_path.is_none() {
            return Err(SnapshotError::Invalid("journal requires a checkpoint path"));
        }
        if cfg.memory_budget.is_some_and(|b| b < MIN_MEMORY_BUDGET) {
            return Err(SnapshotError::Invalid(
                "memory budget below the reservoir minimum",
            ));
        }
        let slice = cfg.group_slice.unwrap_or(GroupSlice::FULL);
        if !slice.is_full() {
            if cfg.reservoir_budget().is_some() {
                return Err(SnapshotError::Invalid(
                    "group slice is incompatible with a reservoir budget",
                ));
            }
            if u64::from(slice.index()) >= cfg.rept.group_count() {
                return Err(SnapshotError::Invalid("group slice keeps no groups"));
            }
        }
        let mut run = match &cfg.checkpoint_path {
            Some(path) if path.exists() => {
                let run = ResumableRun::from_checkpoint_file(path)?;
                if run.config() != &cfg.rept {
                    return Err(SnapshotError::Invalid("checkpoint/config mismatch"));
                }
                // Reservoir checkpoints carry their budget instead of a
                // meaningful engine; an engine checkpoint carries no
                // budget. Either direction of disagreement would resume
                // under different semantics, so it is refused.
                match (run.memory_budget(), cfg.reservoir_budget()) {
                    (Some(have), Some(want)) if have == want => {}
                    (Some(_), Some(_)) | (Some(_), None) | (None, Some(_)) => {
                        return Err(SnapshotError::Invalid("checkpoint/budget mismatch"));
                    }
                    (None, None) => {
                        if run.engine() != cfg.engine {
                            return Err(SnapshotError::Invalid("checkpoint/engine mismatch"));
                        }
                    }
                }
                // A sliced core resuming a differently-sliced blob (or a
                // full blob, or vice versa) would silently count the
                // wrong groups — refused like any other config drift.
                if run.group_slice() != slice {
                    return Err(SnapshotError::Invalid("checkpoint/slice mismatch"));
                }
                run
            }
            _ => match cfg.reservoir_budget() {
                Some(budget) => ResumableRun::with_reservoir(cfg.rept, budget),
                None if slice.is_full() => {
                    ResumableRun::with_engine(Rept::new(cfg.rept), cfg.engine)
                }
                None => ResumableRun::with_sliced_engine(Rept::new(cfg.rept), cfg.engine, slice),
            },
        };

        // Journal recovery: replay the durable tail above the restored
        // checkpoint, making the resume lossless instead of relying on
        // producer-side replay.
        let mut journal = None;
        let mut dlq = None;
        let mut replayed = 0u64;
        if cfg.journal {
            let path = cfg.checkpoint_path.as_ref().expect("checked above");
            let recovery = Journal::recover(
                path,
                cfg.journal_segment_bytes,
                cfg.journal_sync,
                run.position(),
            )
            .map_err(|e| SnapshotError::Io(format!("journal recovery: {e}")))?;
            if !recovery.replay.is_empty() {
                run.process_batch(&recovery.replay);
                replayed = recovery.replay.len() as u64;
            }
            journal = Some(recovery.journal);
            dlq = Some(Arc::new(
                DeadLetterQueue::open(DeadLetterQueue::path_for(path))
                    .map_err(|e| SnapshotError::Io(format!("dead-letter open: {e}")))?,
            ));
        }

        let mut initial = Snapshot::from_estimate(
            &run.estimate(),
            &cfg.rept,
            cfg.engine,
            run.position(),
            0,
            0,
            cfg.top_k,
        );
        initial.durability = durability_stats(journal.as_ref(), cfg.journal, replayed);
        if run.memory_budget().is_some() {
            // Reservoir estimates are TRIÈST-unbiased, not REPT
            // partition estimates: the plug-in variance formula does
            // not apply, so no interval is advertised.
            initial.confidence95 = None;
        }
        let published = Arc::new(Published::new(initial));
        let (tx, rx) = sync_channel::<Control>(cfg.channel_capacity.max(1));

        let gauges = Arc::new(Gauges::default());
        gauges
            .stored_bytes
            .store(run.stored_bytes() as u64, Ordering::Relaxed);
        gauges.journal_bytes.store(
            journal.as_ref().map_or(0, Journal::bytes),
            Ordering::Relaxed,
        );
        gauges.journal_segments.store(
            journal.as_ref().map_or(0, Journal::segments),
            Ordering::Relaxed,
        );
        let metrics = Arc::new(ServeMetrics::new(TRACE_CAPACITY, cfg.slow_op_threshold));
        if cfg.metrics {
            if let Some(j) = journal.as_mut() {
                j.instrument(Arc::clone(&metrics));
            }
        }
        let ckpt_disabled = Arc::new(AtomicBool::new(false));
        let thread_published = Arc::clone(&published);
        let thread_cfg = cfg.clone();
        let thread_disabled = Arc::clone(&ckpt_disabled);
        let thread_gauges = Arc::clone(&gauges);
        let thread_metrics = Arc::clone(&metrics);
        let ingest = std::thread::Builder::new()
            .name("rept-serve-ingest".into())
            .spawn(move || {
                ingest_loop(
                    run,
                    journal,
                    replayed,
                    rx,
                    thread_published,
                    thread_cfg,
                    thread_disabled,
                    thread_gauges,
                    thread_metrics,
                )
            })
            .expect("spawn ingest thread");

        Ok(Self {
            tx,
            published,
            ingest: Some(ingest),
            cfg,
            ckpt_disabled,
            dlq,
            gauges,
            metrics,
        })
    }

    /// The configuration in use.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Permanently disables checkpoint writes (periodic, on-demand and
    /// the final one at shutdown). The tenant router sets this when a
    /// tenant is dropped: its checkpoint directory is deleted, and a
    /// late final checkpoint from a still-draining core must not land
    /// in a *recreated* directory of the same name (a subsequent
    /// `TENANT CREATE`), where the stale-config blob would poison the
    /// next restart.
    pub(crate) fn disable_checkpoints(&self) {
        self.ckpt_disabled
            .store(true, std::sync::atomic::Ordering::SeqCst);
    }

    /// Whether this ingest path needs an ack channel: the journal must
    /// report write failures, and quota enforcement must report
    /// refusals — both travel back through the ack.
    fn needs_ack(&self) -> bool {
        self.cfg.journal || self.cfg.enforces_quota()
    }

    /// Queues a batch of edges for ingestion. Blocks when the bounded
    /// channel is full (backpressure) — use [`Self::try_ingest`] to
    /// turn a full queue into [`IngestError::Busy`] instead. With the
    /// journal enabled it also blocks until the batch is journaled —
    /// and, under the default [`SyncPolicy::PerRecord`], fsynced — so
    /// `Ok` means the edges survive a kill. Without the journal, `Ok`
    /// only means queued (or, with a quota, queued *and* admitted).
    ///
    /// # Errors
    ///
    /// [`IngestError::Quota`] when the memory budget refused the batch,
    /// [`IngestError::Rejected`] when the journal write failed; either
    /// way the batch was not applied. Never [`IngestError::Busy`].
    pub fn ingest(&self, edges: Vec<Edge>) -> Result<(), IngestError> {
        if edges.is_empty() {
            return Ok(());
        }
        if !self.needs_ack() {
            self.tx
                .send(Control::Ingest(edges, None, Instant::now()))
                .expect("ingest thread alive");
            self.gauges.queue_depth.fetch_add(1, Ordering::Relaxed);
            return Ok(());
        }
        let (ack_tx, ack_rx) = sync_channel(1);
        self.tx
            .send(Control::Ingest(edges, Some(ack_tx), Instant::now()))
            .expect("ingest thread alive");
        self.gauges.queue_depth.fetch_add(1, Ordering::Relaxed);
        ack_rx.recv().expect("ingest thread acks")
    }

    /// Like [`Self::ingest`], but a full channel returns
    /// [`IngestError::Busy`] immediately instead of blocking — the
    /// server's backpressure path (`ERR BUSY` tells the client to back
    /// off and retry, in contrast to `ERR QUOTA` which it must not).
    ///
    /// # Errors
    ///
    /// [`IngestError::Busy`] (queue full), plus everything
    /// [`Self::ingest`] can return.
    pub fn try_ingest(&self, edges: Vec<Edge>) -> Result<(), IngestError> {
        if edges.is_empty() {
            return Ok(());
        }
        if !self.needs_ack() {
            return match self
                .tx
                .try_send(Control::Ingest(edges, None, Instant::now()))
            {
                Ok(()) => {
                    self.gauges.queue_depth.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                }
                Err(TrySendError::Full(_)) => {
                    self.metrics.busy_rejections.inc();
                    Err(IngestError::Busy)
                }
                Err(TrySendError::Disconnected(_)) => panic!("ingest thread alive"),
            };
        }
        let (ack_tx, ack_rx) = sync_channel(1);
        match self
            .tx
            .try_send(Control::Ingest(edges, Some(ack_tx), Instant::now()))
        {
            Ok(()) => {
                self.gauges.queue_depth.fetch_add(1, Ordering::Relaxed);
                ack_rx.recv().expect("ingest thread acks")
            }
            Err(TrySendError::Full(_)) => {
                self.metrics.busy_rejections.inc();
                Err(IngestError::Busy)
            }
            Err(TrySendError::Disconnected(_)) => panic!("ingest thread alive"),
        }
    }

    /// Live pressure readings — the `HEALTH` payload. Gauge-backed, so
    /// it reflects the ingest thread's current state rather than the
    /// last published snapshot.
    pub fn health(&self) -> Health {
        Health {
            degraded: self.gauges.degraded.load(Ordering::Relaxed),
            queue_depth: self.gauges.queue_depth.load(Ordering::Relaxed),
            queue_capacity: self.cfg.channel_capacity.max(1) as u64,
            stored_bytes: self.gauges.stored_bytes.load(Ordering::Relaxed),
            memory_budget: self.cfg.memory_budget.unwrap_or(0),
            journal_lag_bytes: self.gauges.journal_bytes.load(Ordering::Relaxed),
            dlq: self.dlq_count(),
            sync: if self.cfg.journal {
                self.cfg.journal_sync.name()
            } else {
                "none"
            },
            last_group: self.metrics.last_group_commit.get(),
        }
    }

    /// Live durability readings for `STATS` / `JOURNAL STATS` — backed
    /// by the same gauges as [`Self::health`], so an idle tenant reports
    /// current journal/DLQ state instead of the last snapshot's.
    pub fn live_stats(&self) -> LiveStats {
        LiveStats {
            stored_bytes: self.gauges.stored_bytes.load(Ordering::Relaxed),
            journal_bytes: self.gauges.journal_bytes.load(Ordering::Relaxed),
            journal_segments: self.gauges.journal_segments.load(Ordering::Relaxed),
            dlq: self.dlq_count(),
        }
    }

    /// The tenant's metric set (counters, histograms, slow-op trace).
    pub fn metrics(&self) -> &Arc<ServeMetrics> {
        &self.metrics
    }

    /// Drains the dead-letter file for replay: returns every captured
    /// `(reason, original line)` pair and truncates the file, so lines
    /// that fail again can be re-captured without duplication. Empty
    /// without a journal (the DLQ lives next to the checkpoint).
    pub fn dlq_drain(&self) -> Vec<(String, String)> {
        self.dlq.as_ref().map_or_else(Vec::new, |d| d.drain())
    }

    /// Captures a rejected ingest line in the dead-letter file (no-op
    /// without a journal — the DLQ lives next to the checkpoint).
    pub fn dead_letter(&self, line: &str, reason: &str) {
        if let Some(dlq) = &self.dlq {
            dlq.record(line, reason);
            self.metrics.dead_letters.inc();
        }
    }

    /// Rejected ingest lines captured in the dead-letter file so far
    /// (carried across restarts; 0 without a journal).
    pub fn dlq_count(&self) -> u64 {
        self.dlq.as_ref().map_or(0, |d| d.count())
    }

    /// The latest published snapshot — the query path. Lock-free apart
    /// from one pointer clone; never blocks ingestion.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.published.load()
    }

    /// Barrier: waits until everything queued so far is applied and a
    /// fresh snapshot is published; returns the stream position.
    pub fn flush(&self) -> u64 {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx
            .send(Control::Flush(reply_tx))
            .expect("ingest thread alive");
        reply_rx.recv().expect("ingest thread replies")
    }

    /// Writes a checkpoint now (after draining everything queued so
    /// far); returns the checkpointed position.
    ///
    /// # Errors
    ///
    /// A description when no checkpoint path is configured or the write
    /// fails.
    pub fn checkpoint(&self) -> Result<u64, String> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx
            .send(Control::Checkpoint(reply_tx))
            .expect("ingest thread alive");
        reply_rx.recv().expect("ingest thread replies")
    }

    /// Barrier: waits until everything queued so far is applied, then
    /// returns the stream position and the run's raw per-group counters
    /// ([`GroupAggregate`]) — for a full core all of them, for a sliced
    /// core exactly the kept groups. This is the shard tier's exchange
    /// payload: a coordinator collects every shard's reply and
    /// recombines through [`Rept::finalize_groups`] into the
    /// bit-identical single-process estimate (all counters are
    /// integers, so the wire loses nothing).
    ///
    /// # Errors
    ///
    /// A description for reservoir (memory-budget) runs, whose samples
    /// have no group structure to exchange.
    pub fn aggregates(&self) -> Result<(u64, Vec<GroupAggregate>), String> {
        let (reply_tx, reply_rx) = sync_channel(1);
        self.tx
            .send(Control::Aggregate(reply_tx))
            .expect("ingest thread alive");
        reply_rx.recv().expect("ingest thread replies")
    }

    /// The group slice this core maintains ([`GroupSlice::FULL`] unless
    /// configured as a shard server).
    pub fn group_slice(&self) -> GroupSlice {
        self.cfg.group_slice.unwrap_or(GroupSlice::FULL)
    }

    /// The position of the last published snapshot. After
    /// [`Self::flush`] this is the exact number of edges applied —
    /// the replay point a restarted producer resumes from.
    pub fn position(&self) -> u64 {
        self.snapshot().position
    }

    /// Stops the ingest thread (draining queued work, writing the final
    /// checkpoint when configured) and returns the final estimate.
    pub fn shutdown(mut self) -> ReptEstimate {
        self.tx
            .send(Control::Shutdown)
            .expect("ingest thread alive");
        let run = self
            .ingest
            .take()
            .expect("shutdown runs once")
            .join()
            .expect("ingest thread panicked");
        run.finalize()
    }
}

impl Drop for ServeCore {
    fn drop(&mut self) {
        if let Some(handle) = self.ingest.take() {
            // Best effort: the thread may already be gone.
            let _ = self.tx.send(Control::Shutdown);
            let _ = handle.join();
        }
    }
}

/// The rotated sibling of a checkpoint path at a given stream position:
/// `<stem>.<position zero-padded>.rpck`, in the same directory. The
/// zero padding makes lexicographic name order equal numeric position
/// order, which is what [`prune_rotated`] sorts by.
fn rotated_checkpoint_path(path: &Path, position: u64) -> PathBuf {
    let stem = path
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "checkpoint".to_string());
    path.with_file_name(format!("{stem}.{position:020}.rpck"))
}

/// Removes the oldest rotated checkpoints of `path` until at most
/// `keep_rotated` remain. Best-effort: filesystem errors leave extra
/// files behind rather than disturbing ingest.
fn prune_rotated(path: &Path, keep_rotated: usize) {
    let (Some(dir), Some(stem)) = (path.parent(), path.file_stem()) else {
        return;
    };
    let prefix = format!("{}.", stem.to_string_lossy());
    let Ok(entries) = std::fs::read_dir(if dir.as_os_str().is_empty() {
        Path::new(".")
    } else {
        dir
    }) else {
        return;
    };
    let mut rotated: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| {
            let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
                return false;
            };
            name.strip_prefix(&prefix)
                .and_then(|rest| rest.strip_suffix(".rpck"))
                .is_some_and(|mid| !mid.is_empty() && mid.bytes().all(|b| b.is_ascii_digit()))
        })
        .collect();
    if rotated.len() <= keep_rotated {
        return;
    }
    rotated.sort();
    let excess = rotated.len() - keep_rotated;
    for old in &rotated[..excess] {
        let _ = std::fs::remove_file(old);
    }
}

/// Assembles the durability block published with every snapshot.
fn durability_stats(journal: Option<&Journal>, enabled: bool, replayed: u64) -> DurabilityStats {
    DurabilityStats {
        enabled,
        journal_bytes: journal.map_or(0, |j| j.bytes()),
        journal_segments: journal.map_or(0, |j| j.segments()),
        replayed,
    }
}

/// The ingest thread body.
#[allow(clippy::too_many_arguments)]
fn ingest_loop(
    mut run: ResumableRun,
    mut journal: Option<Journal>,
    replayed: u64,
    rx: std::sync::mpsc::Receiver<Control>,
    published: Arc<Published<Snapshot>>,
    cfg: ServeConfig,
    ckpt_disabled: Arc<AtomicBool>,
    gauges: Arc<Gauges>,
    metrics: Arc<ServeMetrics>,
) -> ResumableRun {
    // Gates clock reads and histogram/trace recording (counters and the
    // health gauges stay live regardless — see `ServeConfig::metrics`).
    let timed = cfg.metrics;
    let mut seq = 0u64;
    let mut checkpoints = 0u64;
    let mut since_snapshot = 0u64;
    let mut since_checkpoint = 0u64;
    // `start` already published the initial snapshot for this state.
    let mut last_published: Option<(u64, u64)> = Some((run.position(), checkpoints));
    // Position of the checkpoint currently at `checkpoint_path`, for
    // rotation. A file found at startup holds the resumed position.
    let mut last_ckpt_pos: Option<u64> = cfg
        .checkpoint_path
        .as_ref()
        .filter(|p| p.exists())
        .map(|_| run.position());

    let publish = |run: &ResumableRun,
                   seq: &mut u64,
                   last: &mut Option<(u64, u64)>,
                   checkpoints: u64,
                   durability: DurabilityStats| {
        // Snapshot assembly clones the per-node counter maps; when
        // nothing changed since the last publication, the published
        // `Arc` body is already exact — keep it (seq-guarded reuse).
        // Durability state only moves with the position (appends) or
        // the checkpoint count (truncation), so the guard covers it.
        if *last == Some((run.position(), checkpoints)) {
            return;
        }
        let started = timed.then(Instant::now);
        *seq += 1;
        let mut snap = Snapshot::from_estimate(
            &run.estimate(),
            &cfg.rept,
            cfg.engine,
            run.position(),
            *seq,
            checkpoints,
            cfg.top_k,
        );
        snap.durability = durability;
        if run.memory_budget().is_some() {
            // Reservoir estimates are TRIÈST-IMPR global counts, not
            // REPT partition estimates — the closed-form REPT interval
            // does not apply to them.
            snap.confidence95 = None;
        }
        published.store(snap);
        *last = Some((run.position(), checkpoints));
        metrics.snapshots_published.inc();
        if let Some(started) = started {
            let took = started.elapsed();
            metrics.publish_micros.record_duration(took);
            metrics
                .trace
                .record("publish", took, || format!("position={}", run.position()));
        }
    };
    let write_checkpoint = |run: &ResumableRun,
                            last_pos: &mut Option<u64>,
                            journal: &mut Option<Journal>|
     -> Result<u64, String> {
        if ckpt_disabled.load(std::sync::atomic::Ordering::SeqCst) {
            return Err("checkpointing disabled (tenant dropped)".to_string());
        }
        let path = cfg
            .checkpoint_path
            .as_ref()
            .ok_or_else(|| "no checkpoint path configured".to_string())?;
        // Rotation: preserve the previous checkpoint under a
        // position-stamped name via a hard link (copy fallback) —
        // never by moving it away, so a failed write below still
        // leaves the primary checkpoint intact for the next restart.
        // The write-then-rename replaces the primary's directory
        // entry; the rotated name keeps pointing at the old inode.
        // Same-position rewrites produce the identical blob, so
        // rotating them would only duplicate the file.
        if cfg.checkpoint_keep > 1 {
            if let Some(prev) = *last_pos {
                if prev != run.position() && path.exists() {
                    let rotated = rotated_checkpoint_path(path, prev);
                    let _ = std::fs::remove_file(&rotated);
                    if std::fs::hard_link(path, &rotated).is_err() {
                        let _ = std::fs::copy(path, &rotated);
                    }
                }
            }
        }
        let started = timed.then(Instant::now);
        run.checkpoint_to_file(path)
            .map_err(|e| format!("checkpoint write failed: {e}"))?;
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        metrics.checkpoints_written.inc();
        metrics.checkpoint_bytes.add(bytes);
        if let Some(started) = started {
            let took = started.elapsed();
            metrics.checkpoint_micros.record_duration(took);
            metrics.trace.record("checkpoint", took, || {
                format!("position={} bytes={bytes}", run.position())
            });
        }
        *last_pos = Some(run.position());
        // Unconditional: lowering `checkpoint_keep` on a redeploy
        // must also clean up rotated files a higher setting left.
        // Saturating: the field is pub, so a struct-literal config
        // can bypass the builder's ≥ 1 clamp with `keep = 0`.
        prune_rotated(path, cfg.checkpoint_keep.saturating_sub(1));
        // The durable checkpoint covers every applied edge: retire the
        // journal prefix it made redundant. (A kill right here leaves
        // stale segments; recovery skips records below the restored
        // position, so the window is harmless.)
        if let Some(j) = journal.as_mut() {
            j.truncate_to(run.position());
        }
        Ok(run.position())
    };

    // Quota admission: decides whether a batch may enter the run.
    // Reservoir runs never refuse (the reservoir sheds internally and
    // keeps `stored_bytes ≤ budget` by construction), so this only
    // fires for `Reject`/`Degrade` tenants backed by a full engine.
    // The check is a high-water mark — stored bytes are compared
    // *before* admission, so the overshoot is bounded by one batch.
    let admit = |run: &ResumableRun| -> Result<(), String> {
        let Some(budget) = cfg.memory_budget else {
            return Ok(());
        };
        if run.memory_budget().is_some() {
            return Ok(());
        }
        if cfg.quota == QuotaPolicy::Degrade && gauges.degraded.load(Ordering::Relaxed) {
            return Err(format!(
                "tenant degraded: memory budget {budget} B was reached; writes are frozen"
            ));
        }
        let stored = run.stored_bytes() as u64;
        if stored < budget {
            return Ok(());
        }
        match cfg.quota {
            QuotaPolicy::Shed => Ok(()),
            QuotaPolicy::Reject => Err(format!(
                "memory budget reached: stored {stored} B >= budget {budget} B; batch rejected"
            )),
            QuotaPolicy::Degrade => {
                gauges.degraded.store(true, Ordering::Relaxed);
                Err(format!(
                    "memory budget reached: stored {stored} B >= budget {budget} B; \
                     tenant degraded to read-only"
                ))
            }
        }
    };

    // A non-Ingest message drained while assembling a group commit is
    // parked here and handled on the next iteration.
    let mut pending: Option<Control> = None;
    loop {
        let msg = match pending.take() {
            Some(msg) => msg,
            None => match rx.recv() {
                Ok(msg) => msg,
                Err(_) => break,
            },
        };
        match msg {
            Control::Ingest(batch, ack, queued_at) => {
                // Group commit: while this batch's fsync would be in
                // flight, later batches may already be queued — fold
                // them into one durability barrier so N concurrent
                // producers share a single fsync instead of paying one
                // each. Only worth it when appends fsync individually.
                let mut group = vec![(batch, ack, queued_at)];
                if journal.is_some() && cfg.journal_sync == SyncPolicy::PerRecord {
                    while group.len() < cfg.channel_capacity.max(1) {
                        match rx.try_recv() {
                            Ok(Control::Ingest(b, a, q)) => group.push((b, a, q)),
                            Ok(other) => {
                                pending = Some(other);
                                break;
                            }
                            Err(_) => break,
                        }
                    }
                }
                let grouped = group.len() > 1;
                metrics.last_group_commit.set(group.len() as u64);
                metrics.group_commit_batches.record(group.len() as u64);
                // Phase 1 — admit and journal each member (deferring
                // the fsync when grouped). `next_pos` tracks the
                // journal position ahead of the deferred applies.
                let mut accepted: Vec<(Vec<Edge>, IngestAck)> = Vec::new();
                let mut next_pos = run.position();
                for (batch, ack, queued_at) in group {
                    gauges.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    if timed {
                        metrics
                            .queue_wait_micros
                            .record_duration(queued_at.elapsed());
                    }
                    if let Err(reason) = admit(&run) {
                        metrics.quota_rejections.inc();
                        match &ack {
                            Some(ack) => drop(ack.send(Err(IngestError::Quota(reason)))),
                            None => eprintln!("rept-serve: QUOTA {reason}; batch dropped"),
                        }
                        continue;
                    }
                    if let Some(j) = journal.as_mut() {
                        // Journal-before-apply: under `PerRecord` the
                        // (non-deferred) append fsyncs, so the ack
                        // below promises durability.
                        let res = if grouped {
                            j.append_deferred(next_pos, &batch)
                        } else {
                            j.append(next_pos, &batch)
                        };
                        if let Err(e) = res {
                            metrics.rejected_batches.inc();
                            let msg = format!("journal append failed: {e}");
                            match &ack {
                                Some(ack) => drop(ack.send(Err(IngestError::Rejected(msg)))),
                                None => eprintln!("rept-serve: {msg}; batch refused"),
                            }
                            continue;
                        }
                    }
                    next_pos += batch.len() as u64;
                    accepted.push((batch, ack));
                }
                // Phase 2 — one barrier fsync covers the whole group.
                // On failure nothing was promised yet: refuse every
                // member and apply none, keeping the acked set equal
                // to the durable set.
                if grouped {
                    if let Some(j) = journal.as_mut() {
                        if let Err(e) = j.sync() {
                            metrics.rejected_batches.add(accepted.len() as u64);
                            let msg = format!("journal sync failed: {e}");
                            for (_, ack) in &accepted {
                                match ack {
                                    Some(ack) => {
                                        drop(ack.send(Err(IngestError::Rejected(msg.clone()))));
                                    }
                                    None => eprintln!("rept-serve: {msg}; batch refused"),
                                }
                            }
                            accepted.clear();
                        }
                    }
                }
                // Phase 3 — ack and apply in arrival order.
                for (batch, ack) in accepted {
                    if let Some(ack) = &ack {
                        let _ = ack.send(Ok(()));
                    }
                    let n = batch.len() as u64;
                    let started = timed.then(Instant::now);
                    run.process_batch(&batch);
                    metrics.ingest_batches.inc();
                    metrics.ingest_edges.add(n);
                    if let Some(started) = started {
                        let took = started.elapsed();
                        metrics.apply_micros.record_duration(took);
                        metrics.trace.record("apply", took, || format!("edges={n}"));
                    }
                    since_snapshot += n;
                    since_checkpoint += n;
                }
                if since_snapshot >= cfg.snapshot_every {
                    publish(
                        &run,
                        &mut seq,
                        &mut last_published,
                        checkpoints,
                        durability_stats(journal.as_ref(), cfg.journal, replayed),
                    );
                    since_snapshot = 0;
                }
                if let Some(every) = cfg.checkpoint_every {
                    if cfg.checkpoint_path.is_some() && since_checkpoint >= every {
                        // Periodic checkpoints are best-effort; an
                        // unwritable path surfaces on the explicit
                        // `Checkpoint` request instead of killing ingest.
                        checkpoints +=
                            write_checkpoint(&run, &mut last_ckpt_pos, &mut journal).is_ok() as u64;
                        since_checkpoint = 0;
                    }
                }
                gauges
                    .stored_bytes
                    .store(run.stored_bytes() as u64, Ordering::Relaxed);
                gauges.journal_bytes.store(
                    journal.as_ref().map_or(0, Journal::bytes),
                    Ordering::Relaxed,
                );
                gauges.journal_segments.store(
                    journal.as_ref().map_or(0, Journal::segments),
                    Ordering::Relaxed,
                );
            }
            Control::Flush(reply) => {
                if let Some(j) = journal.as_mut() {
                    // Flush doubles as a durability barrier under the
                    // batched sync policy.
                    let _ = j.sync();
                }
                gauges.journal_bytes.store(
                    journal.as_ref().map_or(0, Journal::bytes),
                    Ordering::Relaxed,
                );
                gauges.journal_segments.store(
                    journal.as_ref().map_or(0, Journal::segments),
                    Ordering::Relaxed,
                );
                publish(
                    &run,
                    &mut seq,
                    &mut last_published,
                    checkpoints,
                    durability_stats(journal.as_ref(), cfg.journal, replayed),
                );
                since_snapshot = 0;
                let _ = reply.send(run.position());
            }
            Control::Checkpoint(reply) => {
                let result = write_checkpoint(&run, &mut last_ckpt_pos, &mut journal);
                checkpoints += result.is_ok() as u64;
                gauges.journal_bytes.store(
                    journal.as_ref().map_or(0, Journal::bytes),
                    Ordering::Relaxed,
                );
                gauges.journal_segments.store(
                    journal.as_ref().map_or(0, Journal::segments),
                    Ordering::Relaxed,
                );
                publish(
                    &run,
                    &mut seq,
                    &mut last_published,
                    checkpoints,
                    durability_stats(journal.as_ref(), cfg.journal, replayed),
                );
                since_snapshot = 0;
                since_checkpoint = 0;
                let _ = reply.send(result);
            }
            Control::Aggregate(reply) => {
                let result = match run.group_aggregates() {
                    Some(aggregates) => Ok((run.position(), aggregates)),
                    None => Err("reservoir runs have no group aggregates".to_string()),
                };
                let _ = reply.send(result);
            }
            Control::Shutdown => break,
        }
    }
    // Final checkpoint + snapshot so a restart resumes from the exact
    // shutdown position (and the last snapshot reflects the write).
    if cfg.checkpoint_path.is_some() {
        checkpoints += write_checkpoint(&run, &mut last_ckpt_pos, &mut journal).is_ok() as u64;
    }
    if let Some(j) = journal.as_mut() {
        // Normally the final checkpoint truncated everything; when it
        // failed (or checkpointing is disabled), leave the tail durable.
        let _ = j.sync();
    }
    publish(
        &run,
        &mut seq,
        &mut last_published,
        checkpoints,
        durability_stats(journal.as_ref(), cfg.journal, replayed),
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_gen::{barabasi_albert, GeneratorConfig};

    fn stream() -> Vec<Edge> {
        barabasi_albert(&GeneratorConfig::new(400, 5), 4)
    }

    fn base_cfg() -> ReptConfig {
        ReptConfig::new(3, 7).with_seed(9).with_eta(true)
    }

    fn temp_ckpt(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("rept-serve-{tag}-{}.rpck", std::process::id()))
    }

    #[test]
    fn ingest_then_flush_matches_batch_run() {
        let stream = stream();
        let oracle = Rept::new(base_cfg()).run(Engine::PerWorker, &stream);
        let core = ServeCore::start(ServeConfig::new(base_cfg())).expect("start");
        for chunk in stream.chunks(97) {
            core.ingest(chunk.to_vec()).expect("ingest");
        }
        let pos = core.flush();
        assert_eq!(pos, stream.len() as u64);
        let snap = core.snapshot();
        assert_eq!(snap.position, pos);
        assert_eq!(snap.global, oracle.global);
        assert_eq!(snap.eta_hat, oracle.eta_hat);
        assert!(snap.confidence95.is_some(), "η tracked ⇒ interval");
        let final_est = core.shutdown();
        assert_eq!(final_est.global, oracle.global);
        assert_eq!(final_est.locals, oracle.locals);
    }

    #[test]
    fn snapshots_are_isolated_from_ingest() {
        let stream = stream();
        let core = ServeCore::start(ServeConfig::new(base_cfg())).expect("start");
        core.ingest(stream[..200].to_vec()).expect("ingest");
        core.flush();
        let early = core.snapshot();
        core.ingest(stream[200..].to_vec()).expect("ingest");
        core.flush();
        let late = core.snapshot();
        // The early Arc is untouched by later ingestion.
        assert_eq!(early.position, 200);
        assert_eq!(late.position, stream.len() as u64);
        assert!(late.seq > early.seq);
        core.shutdown();
    }

    #[test]
    fn checkpoint_restart_resumes_bit_identically() {
        let stream = stream();
        let oracle = Rept::new(base_cfg()).run(Engine::PerWorker, &stream);
        let path = temp_ckpt("core-resume");
        std::fs::remove_file(&path).ok();

        let cfg = ServeConfig::new(base_cfg()).with_checkpoint(path.clone(), None);
        let core = ServeCore::start(cfg.clone()).expect("start");
        let split = stream.len() / 3;
        core.ingest(stream[..split].to_vec()).expect("ingest");
        let pos = core.checkpoint().expect("checkpoint");
        assert_eq!(pos, split as u64);
        drop(core); // simulate a crash after the checkpoint

        let resumed = ServeCore::start(cfg).expect("resume");
        assert_eq!(resumed.position(), split as u64, "replay point");
        resumed.ingest(stream[split..].to_vec()).expect("ingest");
        resumed.flush();
        let snap = resumed.snapshot();
        assert_eq!(snap.global, oracle.global);
        assert_eq!(snap.eta_hat, oracle.eta_hat);
        assert_eq!(snap.locals, oracle.locals);
        resumed.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn mismatched_resume_is_refused() {
        let path = temp_ckpt("core-mismatch");
        std::fs::remove_file(&path).ok();
        let cfg = ServeConfig::new(base_cfg()).with_checkpoint(path.clone(), None);
        ServeCore::start(cfg).expect("start").shutdown();
        assert!(path.exists(), "shutdown wrote the final checkpoint");

        let other = ServeConfig::new(ReptConfig::new(4, 4).with_seed(9))
            .with_checkpoint(path.clone(), None);
        assert!(matches!(
            ServeCore::start(other).err(),
            Some(SnapshotError::Invalid("checkpoint/config mismatch"))
        ));
        let other_engine = ServeConfig::new(base_cfg())
            .with_engine(Engine::PerWorker)
            .with_checkpoint(path.clone(), None);
        assert!(matches!(
            ServeCore::start(other_engine).err(),
            Some(SnapshotError::Invalid("checkpoint/engine mismatch"))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn idle_flushes_reuse_the_published_snapshot() {
        let stream = stream();
        let core = ServeCore::start(ServeConfig::new(base_cfg())).expect("start");
        core.ingest(stream[..300].to_vec()).expect("ingest");
        core.flush();
        let first = core.snapshot();
        // No edges since the last publication: the snapshot body must be
        // reused (same Arc), not re-assembled from a counter clone.
        core.flush();
        core.flush();
        let reused = core.snapshot();
        assert!(Arc::ptr_eq(&first, &reused), "idle flush re-clones state");
        assert_eq!(reused.seq, first.seq);
        // New edges end the reuse window.
        core.ingest(stream[300..].to_vec()).expect("ingest");
        core.flush();
        let fresh = core.snapshot();
        assert!(!Arc::ptr_eq(&first, &fresh));
        assert!(fresh.seq > first.seq);
        assert_eq!(fresh.position, stream.len() as u64);
        core.shutdown();
    }

    #[test]
    fn checkpoint_rotation_keeps_the_last_k() {
        let stream = stream();
        let dir = std::env::temp_dir().join(format!("rept-rotate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.rpck");
        let cfg = ServeConfig::new(base_cfg())
            .with_checkpoint(path.clone(), None)
            .with_checkpoint_keep(2);
        assert_eq!(cfg.checkpoint_keep, 2);
        let core = ServeCore::start(cfg).expect("start");
        let mut positions = Vec::new();
        for chunk in stream.chunks(150).take(4) {
            core.ingest(chunk.to_vec()).expect("ingest");
            positions.push(core.checkpoint().expect("checkpoint"));
        }
        core.shutdown(); // final checkpoint at the last position: no-op rotation

        let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".rpck"))
            .collect();
        on_disk.sort();
        assert_eq!(
            on_disk.len(),
            2,
            "keep = 2 ⇒ primary + one rotated, got {on_disk:?}"
        );
        // The primary holds the newest position, the rotated sibling the
        // one before it — and both restore.
        let newest = ResumableRun::from_checkpoint_file(&path).expect("primary readable");
        assert_eq!(newest.position(), *positions.last().unwrap());
        let rotated = dir.join(on_disk.iter().find(|n| *n != "serve.rpck").unwrap());
        let older = ResumableRun::from_checkpoint_file(&rotated).expect("rotated readable");
        assert_eq!(older.position(), positions[positions.len() - 2]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_with_rotation_never_loses_the_primary_checkpoint() {
        // Rotation must preserve (hard link / copy), never move, the
        // primary: if the next write fails, the last good checkpoint
        // still sits at `checkpoint_path` for the restart to resume
        // from.
        let stream = stream();
        let dir = std::env::temp_dir().join(format!("rept-rot-fail-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.rpck");
        let cfg = ServeConfig::new(base_cfg())
            .with_checkpoint(path.clone(), None)
            .with_checkpoint_keep(3);
        let core = ServeCore::start(cfg).expect("start");
        core.ingest(stream[..100].to_vec()).expect("ingest");
        let pos = core.checkpoint().expect("first checkpoint");
        // Sabotage every further write: a directory squats on the
        // write-then-rename temp path.
        std::fs::create_dir(dir.join("serve.rpck.tmp")).expect("squat tmp path");
        core.ingest(stream[100..200].to_vec()).expect("ingest");
        assert!(core.checkpoint().is_err(), "sabotaged write must fail");
        drop(core); // final best-effort checkpoint also fails — fine
        let back = ResumableRun::from_checkpoint_file(&path).expect("primary intact");
        assert_eq!(back.position(), pos, "last good checkpoint survives");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn default_keep_leaves_a_single_checkpoint_file() {
        let stream = stream();
        let dir = std::env::temp_dir().join(format!("rept-keep1-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.rpck");
        let core =
            ServeCore::start(ServeConfig::new(base_cfg()).with_checkpoint(path.clone(), None))
                .expect("start");
        for chunk in stream.chunks(120).take(3) {
            core.ingest(chunk.to_vec()).expect("ingest");
            core.checkpoint().expect("checkpoint");
        }
        core.shutdown();
        let count = std::fs::read_dir(&dir)
            .expect("read dir")
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".rpck"))
            .count();
        assert_eq!(count, 1, "keep = 1 must not accumulate rotated files");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_without_path_reports_error() {
        let core = ServeCore::start(ServeConfig::new(base_cfg())).expect("start");
        assert!(core.checkpoint().is_err());
        core.shutdown();
    }

    #[test]
    fn periodic_checkpoints_fire() {
        let stream = stream();
        let path = temp_ckpt("core-periodic");
        std::fs::remove_file(&path).ok();
        let cfg = ServeConfig::new(base_cfg())
            .with_checkpoint(path.clone(), Some(100))
            .with_snapshot_every(50);
        let core = ServeCore::start(cfg).expect("start");
        core.ingest(stream[..250].to_vec()).expect("ingest");
        core.flush();
        assert!(path.exists(), "≥ 100 edges ingested ⇒ checkpoint on disk");
        let on_disk = ResumableRun::from_checkpoint_file(&path).expect("readable");
        assert!(on_disk.position() >= 100);
        assert!(
            core.snapshot().checkpoints >= 1,
            "snapshot surfaces the checkpoint count"
        );
        core.shutdown();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn journal_requires_a_checkpoint_path() {
        let err = ServeCore::start(ServeConfig::new(base_cfg()).with_journal()).err();
        assert!(matches!(
            err,
            Some(SnapshotError::Invalid("journal requires a checkpoint path"))
        ));
    }

    #[test]
    fn journal_grows_with_ingest_and_checkpoints_truncate_it() {
        let stream = stream();
        let dir = std::env::temp_dir().join(format!("rept-jnl-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.rpck");
        let cfg = ServeConfig::new(base_cfg())
            .with_checkpoint(path.clone(), None)
            .with_journal();
        let core = ServeCore::start(cfg).expect("start");
        core.ingest(stream[..200].to_vec()).expect("durable ingest");
        core.flush();
        let snap = core.snapshot();
        assert!(snap.durability.enabled);
        assert!(snap.durability.journal_bytes > 0, "acked batch journaled");
        assert!(snap.durability.journal_segments >= 1);
        assert_eq!(snap.durability.replayed, 0, "fresh start replays nothing");
        // A checkpoint covers the journal: it gets truncated away.
        core.checkpoint().expect("checkpoint");
        let snap = core.snapshot();
        assert_eq!(snap.durability.journal_bytes, 0, "fully checkpointed");
        assert_eq!(core.dlq_count(), 0);
        core.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn startup_replays_the_journal_tail_losslessly() {
        // Hand-write a journal with no checkpoint next to it — the
        // state a kill leaves when no checkpoint ever fired — and let
        // the core recover: every journaled edge must be replayed.
        let stream = stream();
        let oracle = Rept::new(base_cfg()).run(Engine::PerWorker, &stream);
        let dir = std::env::temp_dir().join(format!("rept-jnl-replay-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.rpck");
        let mut j = Journal::recover(&path, 1 << 20, SyncPolicy::PerRecord, 0)
            .expect("fresh journal")
            .journal;
        let mut pos = 0u64;
        for chunk in stream.chunks(111) {
            j.append(pos, chunk).expect("append");
            pos += chunk.len() as u64;
        }
        drop(j);

        let cfg = ServeConfig::new(base_cfg())
            .with_checkpoint(path.clone(), None)
            .with_journal();
        let core = ServeCore::start(cfg).expect("recover");
        assert_eq!(core.position(), stream.len() as u64, "lossless");
        let snap = core.snapshot();
        assert_eq!(snap.durability.replayed, stream.len() as u64);
        assert_eq!(snap.global, oracle.global, "bit-identical to oracle");
        assert_eq!(snap.locals, oracle.locals);
        core.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_letters_are_captured_and_counted() {
        let dir = std::env::temp_dir().join(format!("rept-dlq-core-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cfg = ServeConfig::new(base_cfg())
            .with_checkpoint(dir.join("serve.rpck"), None)
            .with_journal();
        let core = ServeCore::start(cfg).expect("start");
        core.dead_letter("INGEST 1-2 3x4", "expected NxN edge");
        assert_eq!(core.dlq_count(), 1);
        let text = std::fs::read_to_string(dir.join("serve.dlq")).expect("dlq file");
        assert!(text.contains("INGEST 1-2 3x4"), "verbatim line: {text}");
        core.shutdown();
        // Without a journal the DLQ is inert.
        let plain = ServeCore::start(ServeConfig::new(base_cfg())).expect("start");
        plain.dead_letter("INGEST x", "nope");
        assert_eq!(plain.dlq_count(), 0);
        plain.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn shed_budget_keeps_stored_bytes_within_budget() {
        // Default quota policy (Shed) ⇒ reservoir engine: sustained
        // ingest far past the budget never grows the footprint past it
        // and never refuses a batch.
        let stream = stream();
        let budget = 4096u64;
        let cfg = ServeConfig::new(base_cfg())
            .with_memory_budget(budget)
            .with_snapshot_every(64);
        let core = ServeCore::start(cfg).expect("start");
        for chunk in stream.chunks(64) {
            core.ingest(chunk.to_vec()).expect("shed never refuses");
            core.flush();
            let h = core.health();
            assert!(
                h.stored_bytes <= budget,
                "stored {} B > budget {budget} B",
                h.stored_bytes
            );
        }
        let snap = core.snapshot();
        assert_eq!(snap.position, stream.len() as u64, "every edge consumed");
        assert!(
            snap.confidence95.is_none(),
            "reservoir estimates carry no REPT interval"
        );
        assert!(snap.global.is_finite() && snap.global >= 0.0);
        let h = core.health();
        assert_eq!(h.memory_budget, budget);
        assert!(!h.degraded, "shedding is not degradation");
        core.shutdown();
    }

    #[test]
    fn reservoir_checkpoint_resumes_bit_identically() {
        let stream = stream();
        let budget = 4096u64;
        let path = temp_ckpt("reservoir-resume");
        std::fs::remove_file(&path).ok();
        let cfg = ServeConfig::new(base_cfg())
            .with_memory_budget(budget)
            .with_checkpoint(path.clone(), None);
        let core = ServeCore::start(cfg.clone()).expect("start");
        core.ingest(stream[..1200].to_vec()).expect("ingest");
        core.flush();
        let before = core.snapshot();
        core.shutdown();

        let resumed = ServeCore::start(cfg).expect("resume");
        assert_eq!(resumed.position(), 1200);
        resumed.flush();
        let after = resumed.snapshot();
        assert_eq!(after.global, before.global, "reservoir state restored");

        // Resuming under a different budget — or none at all — would
        // change the sampling semantics mid-stream, so it is refused.
        resumed.shutdown();
        let other_budget = ServeConfig::new(base_cfg())
            .with_memory_budget(budget * 2)
            .with_checkpoint(path.clone(), None);
        assert!(matches!(
            ServeCore::start(other_budget).err(),
            Some(SnapshotError::Invalid("checkpoint/budget mismatch"))
        ));
        let no_budget = ServeConfig::new(base_cfg()).with_checkpoint(path.clone(), None);
        assert!(matches!(
            ServeCore::start(no_budget).err(),
            Some(SnapshotError::Invalid("checkpoint/budget mismatch"))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn undersized_budget_is_refused_at_start() {
        let cfg = ServeConfig::new(base_cfg()).with_memory_budget(MIN_MEMORY_BUDGET - 1);
        assert!(matches!(
            ServeCore::start(cfg).err(),
            Some(SnapshotError::Invalid(
                "memory budget below the reservoir minimum"
            ))
        ));
    }

    #[test]
    fn quota_reject_refuses_past_budget_without_latching() {
        let stream = stream();
        let budget = 4096u64;
        let cfg = ServeConfig::new(base_cfg())
            .with_memory_budget(budget)
            .with_quota_policy(QuotaPolicy::Reject);
        let core = ServeCore::start(cfg).expect("start");
        let mut refusal = None;
        for chunk in stream.chunks(64) {
            if let Err(e) = core.ingest(chunk.to_vec()) {
                refusal = Some(e);
                break;
            }
        }
        let e = refusal.expect("a 4 KiB budget must refuse this stream");
        assert!(matches!(&e, IngestError::Quota(_)), "typed: {e:?}");
        assert!(e.to_string().starts_with("QUOTA "), "wire form: {e}");
        let pos = core.flush();
        assert!(pos > 0 && pos < stream.len() as u64, "accepted prefix only");
        assert_eq!(core.snapshot().position, pos);
        let h = core.health();
        assert!(h.stored_bytes >= budget, "refused only past the budget");
        assert!(!h.degraded, "Reject does not latch");
        // Adjacency never shrinks, so further writes stay refused —
        // but reads keep serving the frozen estimate.
        assert!(matches!(
            core.ingest(stream[..8].to_vec()),
            Err(IngestError::Quota(_))
        ));
        assert!(core.snapshot().global >= 0.0);
        core.shutdown();
    }

    #[test]
    fn quota_degrade_latches_the_tenant_read_only() {
        let stream = stream();
        let cfg = ServeConfig::new(base_cfg())
            .with_memory_budget(4096)
            .with_quota_policy(QuotaPolicy::Degrade);
        let core = ServeCore::start(cfg).expect("start");
        let mut refused = false;
        for chunk in stream.chunks(64) {
            if core.ingest(chunk.to_vec()).is_err() {
                refused = true;
                break;
            }
        }
        assert!(refused, "the budget must be breached");
        assert!(core.health().degraded, "first breach latches the flag");
        let pos = core.flush();
        // Even a tiny batch is refused now, with the degraded reason.
        match core.ingest(vec![Edge::new(1, 2)]) {
            Err(IngestError::Quota(reason)) => {
                assert!(reason.contains("degraded"), "reason: {reason}")
            }
            other => panic!("expected a quota refusal, got {other:?}"),
        }
        assert_eq!(core.flush(), pos, "no write moved the position");
        core.shutdown();
    }

    #[test]
    fn try_ingest_reports_busy_when_the_queue_is_full() {
        let mut cfg = ServeConfig::new(base_cfg());
        cfg.channel_capacity = 1;
        let core = ServeCore::start(cfg).expect("start");
        // Occupy the ingest thread with a long batch; with a 1-slot
        // queue behind it, non-blocking sends must surface Busy instead
        // of stalling the caller.
        let big: Vec<Edge> = (0..400_000).map(|i| Edge::new(i, i + 1)).collect();
        core.ingest(big).expect("queued");
        let mut saw_busy = false;
        for _ in 0..1024 {
            match core.try_ingest(vec![Edge::new(1, 2)]) {
                Ok(()) => {}
                Err(IngestError::Busy) => {
                    saw_busy = true;
                    break;
                }
                Err(e) => panic!("unexpected refusal: {e:?}"),
            }
        }
        assert!(saw_busy, "a full bounded queue must refuse, not block");
        core.flush();
        core.shutdown();
    }

    #[test]
    fn concurrent_producers_group_commit_losslessly() {
        // Four producers share one per-record-synced journal: appends
        // queued together share a single fsync barrier (group commit),
        // and every *acked* batch must survive a restart.
        let stream = stream();
        let dir = std::env::temp_dir().join(format!("rept-group-commit-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let path = dir.join("serve.rpck");
        std::fs::remove_file(&path).ok();
        let cfg = ServeConfig::new(base_cfg())
            .with_checkpoint(path.clone(), None)
            .with_journal_sync(SyncPolicy::PerRecord);
        let core = Arc::new(ServeCore::start(cfg.clone()).expect("start"));
        let mut producers = Vec::new();
        for t in 0..4usize {
            let core = Arc::clone(&core);
            let chunks: Vec<Vec<Edge>> = stream
                .chunks(32)
                .skip(t)
                .step_by(4)
                .map(<[Edge]>::to_vec)
                .collect();
            producers.push(std::thread::spawn(move || {
                for chunk in chunks {
                    core.ingest(chunk).expect("acked");
                }
            }));
        }
        for p in producers {
            p.join().expect("producer");
        }
        let core = Arc::try_unwrap(core).expect("sole owner");
        assert_eq!(
            core.flush(),
            stream.len() as u64,
            "every acked batch applied"
        );
        core.shutdown();
        let resumed = ServeCore::start(cfg).expect("resume");
        assert_eq!(resumed.position(), stream.len() as u64, "lossless");
        resumed.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn health_reports_live_gauges() {
        let stream = stream();
        let dir = std::env::temp_dir().join(format!("rept-health-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("mkdir");
        let cfg = ServeConfig::new(base_cfg())
            .with_checkpoint(dir.join("serve.rpck"), None)
            .with_journal();
        let core = ServeCore::start(cfg).expect("start");
        core.ingest(stream[..300].to_vec()).expect("ingest");
        core.flush();
        let h = core.health();
        assert_eq!(h.queue_capacity, 16, "default channel capacity");
        assert_eq!(h.memory_budget, 0, "0 = unlimited");
        assert!(h.stored_bytes > 0);
        assert!(h.journal_lag_bytes > 0, "journal ahead of the checkpoint");
        assert!(!h.degraded);
        core.dead_letter("INGEST bogus", "unparsable");
        assert_eq!(core.health().dlq, 1);
        core.checkpoint().expect("checkpoint");
        assert_eq!(
            core.health().journal_lag_bytes,
            0,
            "checkpoint retired the journal"
        );
        core.shutdown();
        std::fs::remove_dir_all(&dir).ok();
    }
}
