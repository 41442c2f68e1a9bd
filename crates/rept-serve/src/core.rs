//! The serving core: one ingest thread driving an engine-aware
//! [`ResumableRun`], snapshot publication, and crash-safe checkpoints.
//!
//! [`ServeCore`] is the transport-free heart of the subsystem — the TCP
//! front-end ([`crate::server`]), the multi-tenant router
//! ([`crate::tenant::TenantRouter`], which owns one `ServeCore` per
//! tenant), the benches and the tests all drive this same type. Producers push edge batches into a queue
//! **bounded in edges** (backpressure, like the cluster simulation's network links);
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

use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use rept_core::reservoir::MIN_MEMORY_BUDGET;
use rept_core::resume::{ResumableRun, SnapshotError};
use rept_core::{Engine, GroupAggregate, GroupSlice, Rept, ReptConfig, ReptEstimate, Touched};
use rept_graph::edge::Edge;

use crate::client::INGEST_CHUNK;
use crate::dlq::DeadLetterQueue;
use crate::journal::{numbered_siblings, sibling, Journal, SyncPolicy};
use crate::metrics::ServeMetrics;
use crate::snapshot::{DurabilityStats, Published, Publisher, Snapshot};

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
/// clients: [`Self::Busy`] is transient (the bounded queue was full —
/// back off and retry), while [`Self::Quota`] is not (retrying without
/// operator action will fail again, and clients must *not* retry it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IngestError {
    /// The ingest queue had no room for the batch within the hold bound
    /// of [`ServeCore::try_ingest_within`] — the blocking
    /// [`ServeCore::ingest`] waits instead.
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
    /// Edges in the batches currently queued: at most `queue_capacity`,
    /// or one larger batch queued alone.
    pub queue_depth: u64,
    /// The ingest queue's budget in edges
    /// ([`ServeConfig::queue_edges`]).
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
    stored_bytes: AtomicU64,
    journal_bytes: AtomicU64,
    journal_segments: AtomicU64,
    degraded: AtomicBool,
}

/// One answered aggregate exchange — the `AGGREGATE` and
/// `AGGREGATE SINCE <p>` payload: every kept group's counters at
/// `position`. With `since`, the per-node maps hold only the nodes
/// touched since the exchange answered at that position (a delta:
/// overwriting that exchange's counters with it, entry by entry, gives
/// these); without it they are complete.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Aggregates {
    /// The stream position the counters cover.
    pub position: u64,
    /// The base position of a delta; `None` for a full reply.
    pub since: Option<u64>,
    /// The kept groups' counters, in layout order.
    pub groups: Vec<GroupAggregate>,
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
    /// The ingest queue's budget in edges (bounded ⇒ producers feel
    /// backpressure instead of growing an unbounded queue). A batch
    /// enters when the queue holds no edges or when it fits under the
    /// budget, so a batch larger than the budget still goes in, alone;
    /// barriers take no room.
    pub queue_edges: usize,
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
    /// index, a 4 096-edge ingest queue (two [`INGEST_CHUNK`] lines), no
    /// checkpointing, keep 1 checkpoint, no journal.
    pub fn new(rept: ReptConfig) -> Self {
        Self {
            rept,
            engine: Engine::default(),
            snapshot_every: 8192,
            checkpoint_every: None,
            checkpoint_path: None,
            checkpoint_keep: 1,
            top_k: 100,
            queue_edges: 2 * INGEST_CHUNK,
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

/// A queued batch of stream edges, its ack sender, and the time it
/// entered the queue (for the queue-wait histogram).
type Batch = (Vec<Edge>, IngestAck, Instant);

/// Control messages the ingest thread consumes, in arrival order.
#[derive(Debug)]
enum Control {
    /// Apply a batch of stream edges. The sender, when present, is
    /// acked once the batch is admitted and journaled (and, per policy,
    /// fsynced) — `Err` means the batch was refused and not applied.
    Ingest(Batch),
    /// Publish a fresh snapshot, then reply with the position — a
    /// barrier: everything queued before it is applied first.
    Flush(SyncSender<u64>),
    /// Write a checkpoint (and publish), then reply with the position.
    Checkpoint(SyncSender<Result<u64, String>>),
    /// Barrier like [`Self::Flush`], then reply with the run's raw
    /// per-group counters — the shard tier's aggregate-exchange payload,
    /// a delta when the base position given matches the last exchange.
    /// `Err` for reservoir runs, which have no group structure.
    Aggregate(Option<u64>, SyncSender<Result<Aggregates, String>>),
    /// Drain, checkpoint and stop the ingest thread.
    Shutdown,
}

/// The ingest queue: control messages in arrival order, bounded in
/// edges. A batch enters when the queue holds no edges or when it fits
/// under the budget, so a batch larger than the budget still goes in,
/// alone. Barriers and shutdown take no room. A batch counts against
/// the budget from admission until the ingest thread takes it, and the
/// depth is read under the same lock, so it is always exact.
#[derive(Debug)]
struct Queue {
    state: Mutex<Queued>,
    /// Signalled when a message arrives; the ingest thread waits on it.
    arrived: Condvar,
    /// Signalled when room frees or the queue closes; producers that
    /// wait for room wait on it.
    room: Condvar,
    /// The edge budget (≥ 1).
    budget: u64,
}

/// What the queue's lock guards.
#[derive(Debug, Default)]
struct Queued {
    messages: VecDeque<Control>,
    /// Edges in the queued batches.
    edges: u64,
    /// The ingest thread is gone: every push fails.
    closed: bool,
}

impl Queue {
    fn new(budget: usize) -> Self {
        Self {
            state: Mutex::default(),
            arrived: Condvar::new(),
            room: Condvar::new(),
            budget: budget.max(1) as u64,
        }
    }

    /// Only a producer's `held` callback can panic under the lock, and
    /// it runs before any update, so a poisoned lock still guards a
    /// consistent queue.
    fn lock(&self) -> MutexGuard<'_, Queued> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Queues a message that takes no room; `false` once the queue is
    /// closed.
    fn push(&self, msg: Control) -> bool {
        let mut q = self.lock();
        if q.closed {
            return false;
        }
        q.messages.push_back(msg);
        self.arrived.notify_one();
        true
    }

    /// Queues a batch once it fits: at once, or after waiting for room
    /// — without limit for a `hold` of `None`, up to `hold` otherwise
    /// (not at all for a zero one). `held` runs, under the lock, just
    /// before a bounded wait. Returns whether the batch went in.
    ///
    /// # Panics
    ///
    /// When the queue is closed: the ingest thread is gone.
    fn push_batch(
        &self,
        edges: Vec<Edge>,
        ack: IngestAck,
        hold: Option<Duration>,
        held: impl FnOnce(),
    ) -> bool {
        let n = edges.len() as u64;
        let blocked = |q: &mut Queued| !q.closed && q.edges != 0 && q.edges + n > self.budget;
        let mut q = self.lock();
        if blocked(&mut q) {
            q = match hold {
                None => self
                    .room
                    .wait_while(q, blocked)
                    .unwrap_or_else(PoisonError::into_inner),
                Some(hold) if hold.is_zero() => return false,
                Some(hold) => {
                    held();
                    let (q, waited) = self
                        .room
                        .wait_timeout_while(q, hold, blocked)
                        .unwrap_or_else(PoisonError::into_inner);
                    if waited.timed_out() {
                        return false;
                    }
                    q
                }
            };
        }
        if q.closed {
            drop(q);
            panic!("ingest thread alive");
        }
        q.edges += n;
        q.messages
            .push_back(Control::Ingest((edges, ack, Instant::now())));
        self.arrived.notify_one();
        true
    }

    /// The next message, waiting for one. A batch leaves the budget
    /// here.
    fn pop(&self) -> Control {
        let mut q = self
            .arrived
            .wait_while(self.lock(), |q| q.messages.is_empty())
            .unwrap_or_else(PoisonError::into_inner);
        let msg = q.messages.pop_front().expect("waited for a message");
        if let Control::Ingest((edges, ..)) = &msg {
            q.edges -= edges.len() as u64;
            self.room.notify_all();
        }
        msg
    }

    /// Takes every batch queued ahead of the next control message.
    fn take_batches(&self, into: &mut Vec<Batch>) {
        let mut q = self.lock();
        let edges = q.edges;
        while matches!(q.messages.front(), Some(Control::Ingest(_))) {
            if let Some(Control::Ingest(batch)) = q.messages.pop_front() {
                q.edges -= batch.0.len() as u64;
                into.push(batch);
            }
        }
        if q.edges != edges {
            self.room.notify_all();
        }
    }

    /// Edges in the queued batches.
    fn depth(&self) -> u64 {
        self.lock().edges
    }

    /// Closes the queue: later pushes fail, waiting producers wake, and
    /// the messages still queued are dropped, so whoever waits on their
    /// replies wakes too.
    fn close(&self) {
        let orphans = {
            let mut q = self.lock();
            q.closed = true;
            q.edges = 0;
            std::mem::take(&mut q.messages)
        };
        self.room.notify_all();
        drop(orphans);
    }
}

/// The ingest thread's end of the queue: dropping it — the thread
/// returns or unwinds — closes the queue, so no producer waits for
/// ever on a thread that is gone.
struct Consumer(Arc<Queue>);

impl Drop for Consumer {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// The running serving core. Dropping it (or calling
/// [`Self::shutdown`]) stops the ingest thread, writing a final
/// checkpoint when a path is configured.
#[derive(Debug)]
pub struct ServeCore {
    queue: Arc<Queue>,
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
    /// (acked edges are missing — starting would silently lose them),
    /// and when the ingest thread cannot be spawned.
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

        let metrics = Arc::new(ServeMetrics::new(TRACE_CAPACITY, cfg.slow_op_threshold));
        if cfg.metrics {
            if let Some(j) = journal.as_mut() {
                j.instrument(Arc::clone(&metrics));
            }
        }
        let ingest = Ingest::new(run, journal, replayed, cfg.clone(), Arc::clone(&metrics));
        let published = Arc::clone(ingest.publisher.published());
        let ckpt_disabled = Arc::clone(&ingest.ckpt_disabled);
        let gauges = Arc::clone(&ingest.gauges);
        let queue = Arc::new(Queue::new(cfg.queue_edges));
        let consumer = Consumer(Arc::clone(&queue));
        let ingest = std::thread::Builder::new()
            .name("rept-serve-ingest".into())
            .spawn(move || ingest.serve(consumer))
            .map_err(|e| SnapshotError::Io(format!("spawn ingest thread: {e}")))?;

        Ok(Self {
            queue,
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

    /// Queues a batch of edges for ingestion. Blocks until the queue has
    /// room for it (backpressure; see [`ServeConfig::queue_edges`]) —
    /// use [`Self::try_ingest_within`] to turn a full queue into
    /// [`IngestError::Busy`] instead. With the
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
        self.enqueue(edges, None)
    }

    /// Like [`Self::ingest`], but a batch that finds no room waits for
    /// up to `hold` (not at all for a zero `hold`), goes in as soon as
    /// room frees, and is otherwise refused with [`IngestError::Busy`]
    /// instead of blocking — the
    /// backpressure path (`ERR BUSY` tells the client to back off and
    /// retry, in contrast to `ERR QUOTA` which it must not). The wire's
    /// `INGEST` holds a line for the moment a busy ingest thread needs
    /// to free room instead of bouncing it back to a client that
    /// would sleep far longer. A held batch records
    /// its wait in [`ServeMetrics::ingest_hold_micros`] and counts in
    /// [`ServeMetrics::ingest_held`] while it waits; an unheld one
    /// reads no extra clock.
    ///
    /// # Errors
    ///
    /// [`IngestError::Busy`] (queue still full after `hold`), plus
    /// everything [`Self::ingest`] can return.
    pub fn try_ingest_within(&self, edges: Vec<Edge>, hold: Duration) -> Result<(), IngestError> {
        self.enqueue(edges, Some(hold))
    }

    /// The one enqueue behind [`Self::ingest`] (`hold` of `None`: wait
    /// for room) and [`Self::try_ingest_within`]: queues the batch,
    /// then waits for its verdict when the ingest thread owes one.
    fn enqueue(&self, edges: Vec<Edge>, hold: Option<Duration>) -> Result<(), IngestError> {
        if edges.is_empty() {
            return Ok(());
        }
        let (ack, verdict) = if self.needs_ack() {
            let (tx, rx) = sync_channel(1);
            (Some(tx), Some(rx))
        } else {
            (None, None)
        };
        let mut held = None;
        let sent = self.queue.push_batch(edges, ack, hold, || {
            self.metrics.ingest_held.add(1);
            held = Some(Instant::now());
        });
        if let Some(since) = held {
            self.metrics.ingest_held.sub(1);
            if self.cfg.metrics {
                self.metrics
                    .ingest_hold_micros
                    .record_duration(since.elapsed());
            }
        }
        if !sent {
            self.metrics.busy_rejections.inc();
            return Err(IngestError::Busy);
        }
        match verdict {
            Some(rx) => rx.recv().expect("ingest thread acks"),
            None => Ok(()),
        }
    }

    /// Live pressure readings — the `HEALTH` payload. Gauge-backed, so
    /// it reflects the ingest thread's current state rather than the
    /// last published snapshot.
    pub fn health(&self) -> Health {
        Health {
            degraded: self.gauges.degraded.load(Ordering::Relaxed),
            queue_depth: self.queue.depth(),
            queue_capacity: self.queue.budget,
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
        self.request(Control::Flush)
    }

    /// Writes a checkpoint now (after draining everything queued so
    /// far); returns the checkpointed position.
    ///
    /// # Errors
    ///
    /// A description when no checkpoint path is configured or the write
    /// fails.
    pub fn checkpoint(&self) -> Result<u64, String> {
        self.request(Control::Checkpoint)
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
        self.aggregates_since(None)
            .map(|reply| (reply.position, reply.groups))
    }

    /// [`Self::aggregates`] as a delta: with `since` equal to the
    /// position of the last answered exchange (plain or delta, from any
    /// requester), the per-node maps carry only the nodes touched since
    /// then. Any other `since` — no exchange yet, a restart, another
    /// requester in between, a per-worker engine that does not track
    /// touched nodes — gets the full counters, `since` unset. Either
    /// way this exchange becomes the base of the next.
    ///
    /// # Errors
    ///
    /// As [`Self::aggregates`].
    pub fn aggregates_since(&self, since: Option<u64>) -> Result<Aggregates, String> {
        self.request(|reply| Control::Aggregate(since, reply))
    }

    /// Sends the ingest thread a control message carrying a reply
    /// channel — handled after everything queued before it — and waits
    /// for the reply.
    fn request<T>(&self, msg: impl FnOnce(SyncSender<T>) -> Control) -> T {
        let (reply_tx, reply_rx) = sync_channel(1);
        assert!(self.queue.push(msg(reply_tx)), "ingest thread alive");
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
        assert!(self.queue.push(Control::Shutdown), "ingest thread alive");
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
            self.queue.push(Control::Shutdown);
            let _ = handle.join();
        }
    }
}

/// The core's own fields of a snapshot: the journal's state, and no
/// interval when the run `shed`s edges — a reservoir run's estimates are
/// TRIÈST-IMPR global counts, not REPT partition estimates, so the
/// closed-form REPT interval does not apply to them.
fn additions(journal: Option<&Journal>, replayed: u64, shed: bool) -> impl FnOnce(&mut Snapshot) {
    let durability = DurabilityStats {
        enabled: journal.is_some(),
        replayed,
    };
    move |snap| {
        snap.durability = durability;
        if shed {
            snap.confidence95 = None;
        }
    }
}

/// A barrier's reply, sent once the snapshot it promises is published.
enum Answer {
    Flush(SyncSender<u64>),
    Checkpoint(SyncSender<Result<u64, String>>, Result<u64, String>),
    Shutdown,
}

/// The ingest thread: the one owner of the run and its journal, and the
/// only copy of every step a batch goes through after
/// [`ServeCore::enqueue`] — commit, publish, checkpoint, refuse and the
/// gauge refresh.
struct Ingest {
    run: ResumableRun,
    /// The publication loop, with the estimate it keeps by recombining
    /// only the nodes the engine touched since the last publication.
    publisher: Publisher,
    /// The position of the last answered exchange, and the nodes
    /// touched since; `None` until one is answered.
    exchanged: Option<(u64, Touched)>,
    journal: Option<Journal>,
    /// Edges replayed from the journal at startup.
    replayed: u64,
    cfg: ServeConfig,
    since_checkpoint: u64,
    /// Position of the checkpoint currently at `checkpoint_path`, for
    /// rotation.
    last_checkpoint: Option<u64>,
    /// See [`ServeCore::disable_checkpoints`].
    ckpt_disabled: Arc<AtomicBool>,
    gauges: Arc<Gauges>,
    metrics: Arc<ServeMetrics>,
}

impl Ingest {
    fn new(
        mut run: ResumableRun,
        journal: Option<Journal>,
        replayed: u64,
        cfg: ServeConfig,
        metrics: Arc<ServeMetrics>,
    ) -> Self {
        // A checkpoint file found at startup holds the resumed position.
        let last_checkpoint = cfg
            .checkpoint_path
            .as_ref()
            .filter(|p| p.exists())
            .map(|_| run.position());
        // The first drain starts the engine's touched-node tracking (the
        // journal replay ran without it); everything before is in the
        // estimate of snapshot 0 already.
        let publisher = Publisher::new(
            &cfg.rept,
            cfg.engine,
            cfg.top_k,
            cfg.snapshot_every,
            run.estimate(),
            run.position(),
            additions(journal.as_ref(), replayed, run.memory_budget().is_some()),
        );
        run.take_touched();
        let ingest = Self {
            run,
            publisher,
            exchanged: None,
            journal,
            replayed,
            cfg,
            since_checkpoint: 0,
            last_checkpoint,
            ckpt_disabled: Arc::new(AtomicBool::new(false)),
            gauges: Arc::new(Gauges::default()),
            metrics,
        };
        ingest.refresh_gauges();
        ingest
    }

    /// The thread body: handles control messages in arrival order until
    /// shutdown, then hands the run back.
    fn serve(mut self, queue: Consumer) -> ResumableRun {
        loop {
            let answer = match queue.0.pop() {
                Control::Ingest(batch) => {
                    self.commit(batch, &queue.0);
                    None
                }
                Control::Aggregate(since, reply) => {
                    let _ = reply.send(self.exchange(since));
                    continue;
                }
                // Flush doubles as a durability barrier under the
                // batched sync policy.
                Control::Flush(reply) => {
                    let _ = self.sync();
                    Some(Answer::Flush(reply))
                }
                Control::Checkpoint(reply) => {
                    let result = self.checkpoint();
                    Some(Answer::Checkpoint(reply, result))
                }
                // A final checkpoint so a restart resumes from the exact
                // shutdown position. It normally retires the whole
                // journal; when it fails (or checkpointing is disabled),
                // the sync leaves the tail durable.
                Control::Shutdown => {
                    let _ = self.checkpoint();
                    let _ = self.sync();
                    Some(Answer::Shutdown)
                }
            };
            if answer.is_some() || self.publisher.due() {
                self.publish();
            }
            // Periodic checkpoints are best-effort; an unwritable path
            // surfaces on the explicit `Checkpoint` request instead of
            // killing ingest.
            if answer.is_none()
                && self
                    .cfg
                    .checkpoint_every
                    .is_some_and(|every| self.since_checkpoint >= every)
            {
                let _ = self.checkpoint();
            }
            self.refresh_gauges();
            match answer {
                Some(Answer::Flush(reply)) => drop(reply.send(self.run.position())),
                Some(Answer::Checkpoint(reply, result)) => drop(reply.send(result)),
                Some(Answer::Shutdown) => return self.run,
                None => {}
            }
        }
    }

    /// Commits one group: the batch just taken plus, under a
    /// [`SyncPolicy::PerRecord`] journal, every batch queued behind it
    /// up to the next control message. Every admitted member is
    /// journaled with its fsync deferred, and one barrier then covers
    /// the whole group — a group of one included — so N concurrent
    /// producers share a single fsync. Only then is each member acked
    /// and applied, in arrival order.
    fn commit(&mut self, first: Batch, queue: &Queue) {
        let per_record = self.journal.is_some() && self.cfg.journal_sync == SyncPolicy::PerRecord;
        let mut group = vec![first];
        if per_record {
            queue.take_batches(&mut group);
        }
        self.metrics.last_group_commit.set(group.len() as u64);
        self.metrics.group_commit_batches.record(group.len() as u64);
        // Admit and journal each member; `next` runs ahead of the run's
        // position by the members journaled so far.
        let mut next = self.run.position();
        let mut members = Vec::with_capacity(group.len());
        for (batch, ack, queued_at) in group {
            if self.cfg.metrics {
                self.metrics
                    .queue_wait_micros
                    .record_duration(queued_at.elapsed());
            }
            let verdict = self.admit().and_then(|()| match &mut self.journal {
                Some(j) => j
                    .append_deferred(next, &batch)
                    .map_err(|e| IngestError::Rejected(format!("journal append failed: {e}"))),
                None => Ok(()),
            });
            if verdict.is_ok() {
                next += batch.len() as u64;
            }
            members.push((batch, ack, verdict));
        }
        // Nothing is promised before the barrier, so a failed one
        // refuses every member and applies none.
        if per_record {
            if let Err(e) = self.sync() {
                let msg = format!("journal sync failed: {e}");
                for (_, _, verdict) in &mut members {
                    if verdict.is_ok() {
                        *verdict = Err(IngestError::Rejected(msg.clone()));
                    }
                }
            }
        }
        for (batch, ack, verdict) in members {
            if let Err(e) = verdict {
                self.refuse(ack, e);
                continue;
            }
            if let Some(ack) = &ack {
                let _ = ack.send(Ok(()));
            }
            let n = batch.len() as u64;
            let started = self.cfg.metrics.then(Instant::now);
            self.run.process_batch(&batch);
            self.metrics.ingest_batches.inc();
            self.metrics.ingest_edges.add(n);
            if let Some(started) = started {
                let took = started.elapsed();
                self.metrics.apply_micros.record_duration(took);
                self.metrics
                    .trace
                    .record("apply", took, || format!("edges={n}"));
            }
            self.publisher.advance(n);
            self.since_checkpoint += n;
        }
    }

    /// Quota admission: whether a batch may enter the run. Reservoir
    /// runs never refuse (the reservoir sheds internally and keeps
    /// `stored_bytes ≤ budget` by construction), so this only fires for
    /// `Reject`/`Degrade` tenants backed by a full engine. The check is
    /// a high-water mark — stored bytes are compared *before*
    /// admission, so the overshoot is bounded by one batch.
    fn admit(&self) -> Result<(), IngestError> {
        let Some(budget) = self.cfg.memory_budget else {
            return Ok(());
        };
        if self.run.memory_budget().is_some() {
            return Ok(());
        }
        let degrade = self.cfg.quota == QuotaPolicy::Degrade;
        if degrade && self.gauges.degraded.load(Ordering::Relaxed) {
            return Err(IngestError::Quota(format!(
                "tenant degraded: memory budget {budget} B was reached; writes are frozen"
            )));
        }
        let stored = self.run.stored_bytes() as u64;
        if stored < budget || self.cfg.quota == QuotaPolicy::Shed {
            return Ok(());
        }
        let outcome = if degrade {
            self.gauges.degraded.store(true, Ordering::Relaxed);
            "tenant degraded to read-only"
        } else {
            "batch rejected"
        };
        Err(IngestError::Quota(format!(
            "memory budget reached: stored {stored} B >= budget {budget} B; {outcome}"
        )))
    }

    /// Refuses one batch: counts it and carries the error back to its
    /// producer.
    fn refuse(&self, ack: IngestAck, error: IngestError) {
        match error {
            IngestError::Quota(_) => self.metrics.quota_rejections.inc(),
            _ => self.metrics.rejected_batches.inc(),
        }
        match ack {
            Some(ack) => drop(ack.send(Err(error))),
            None => eprintln!("rept-serve: {error}; batch refused"),
        }
    }

    /// Fsyncs what the journal buffered (nothing to do without one).
    fn sync(&mut self) -> std::io::Result<()> {
        self.journal.as_mut().map_or(Ok(()), Journal::sync)
    }

    /// Hands the engine's touched nodes to both consumers: the next
    /// publication and the next delta exchange.
    fn collect_touched(&mut self) {
        let fresh = self.run.take_touched();
        if let Some((_, touched)) = &mut self.exchanged {
            touched.extend(&fresh);
        }
        self.publisher.touch(&fresh);
    }

    /// Publishes a fresh snapshot, its estimate recombining only the
    /// nodes touched since the last one, unless the publisher's guard
    /// keeps the last one. Durability state only moves with the position
    /// (appends) or the checkpoint count (truncation), so the guard
    /// covers it.
    fn publish(&mut self) {
        let position = self.run.position();
        if !self.publisher.begin(position) {
            return;
        }
        let started = self.cfg.metrics.then(Instant::now);
        self.collect_touched();
        let (run, shed) = (&self.run, self.run.memory_budget().is_some());
        self.publisher.publish(
            position,
            &self.cfg.rept,
            |est, touched| run.refresh_estimate(est, touched),
            additions(self.journal.as_ref(), self.replayed, shed),
        );
        self.metrics.snapshots_published.inc();
        if let Some(started) = started {
            let took = started.elapsed();
            self.metrics.publish_micros.record_duration(took);
            self.metrics
                .trace
                .record("publish", took, || format!("position={position}"));
        }
    }

    /// Writes a checkpoint of the run, rotating and pruning the older
    /// ones, and retires the journal prefix it covers.
    fn checkpoint(&mut self) -> Result<u64, String> {
        self.since_checkpoint = 0;
        if self.ckpt_disabled.load(Ordering::SeqCst) {
            return Err("checkpointing disabled (tenant dropped)".to_string());
        }
        let path = self
            .cfg
            .checkpoint_path
            .as_ref()
            .ok_or_else(|| "no checkpoint path configured".to_string())?;
        let position = self.run.position();
        // Rotation: preserve the previous checkpoint under a
        // position-stamped name via a hard link (copy fallback) — never
        // by moving it away, so a failed write below still leaves the
        // primary checkpoint intact for the next restart. The
        // write-then-rename replaces the primary's directory entry; the
        // rotated name keeps pointing at the old inode. Same-position
        // rewrites produce the identical blob, so rotating them would
        // only duplicate the file.
        if self.cfg.checkpoint_keep > 1 {
            if let Some(prev) = self.last_checkpoint {
                if prev != position && path.exists() {
                    let rotated = sibling(path, &format!("{prev:020}.rpck"));
                    let _ = std::fs::remove_file(&rotated);
                    if std::fs::hard_link(path, &rotated).is_err() {
                        let _ = std::fs::copy(path, &rotated);
                    }
                }
            }
        }
        let started = self.cfg.metrics.then(Instant::now);
        self.run
            .checkpoint_to_file(path)
            .map_err(|e| format!("checkpoint write failed: {e}"))?;
        let bytes = std::fs::metadata(path).map_or(0, |m| m.len());
        self.metrics.checkpoints_written.inc();
        self.metrics.checkpoint_bytes.add(bytes);
        if let Some(started) = started {
            let took = started.elapsed();
            self.metrics.checkpoint_micros.record_duration(took);
            self.metrics.trace.record("checkpoint", took, || {
                format!("position={position} bytes={bytes}")
            });
        }
        self.last_checkpoint = Some(position);
        self.publisher.checkpointed();
        // Unconditional: lowering `checkpoint_keep` on a redeploy must
        // also clean up rotated files a higher setting left.
        // Saturating: the field is pub, so a struct-literal config can
        // bypass the builder's ≥ 1 clamp with `keep = 0`. Best-effort:
        // filesystem errors leave extra files behind rather than
        // disturbing ingest. Zero padding makes position order name
        // order, so the oldest go first.
        let rotated = numbered_siblings(path, "", ".rpck").unwrap_or_default();
        let excess = rotated
            .len()
            .saturating_sub(self.cfg.checkpoint_keep.saturating_sub(1));
        for (_, old) in &rotated[..excess] {
            let _ = std::fs::remove_file(old);
        }
        // The durable checkpoint covers every applied edge: retire the
        // journal prefix it made redundant. (A kill right here leaves
        // stale segments; recovery skips records below the restored
        // position, so the window is harmless.)
        if let Some(j) = self.journal.as_mut() {
            j.truncate_to(position);
        }
        Ok(position)
    }

    /// Answers an aggregate exchange asked relative to `since` — a delta
    /// when that is this run's last exchange — and makes it the base of
    /// the next.
    fn exchange(&mut self, since: Option<u64>) -> Result<Aggregates, String> {
        self.collect_touched();
        let base = match self.exchanged.take() {
            Some((at, touched @ Touched::Nodes(_))) if since == Some(at) => Some((at, touched)),
            _ => None,
        };
        let touched = base.as_ref().map_or(&Touched::All, |(_, t)| t);
        let groups = self
            .run
            .counters_for(touched)
            .ok_or("reservoir runs have no group aggregates")?;
        self.exchanged = Some((self.run.position(), Touched::none()));
        Ok(Aggregates {
            position: self.run.position(),
            since: base.map(|(at, _)| at),
            groups,
        })
    }

    /// Stores the live readings [`ServeCore::health`] and
    /// [`ServeCore::live_stats`] serve between publications.
    fn refresh_gauges(&self) {
        let journal = self.journal.as_ref();
        let gauges = &self.gauges;
        gauges
            .stored_bytes
            .store(self.run.stored_bytes() as u64, Ordering::Relaxed);
        gauges
            .journal_bytes
            .store(journal.map_or(0, Journal::bytes), Ordering::Relaxed);
        gauges
            .journal_segments
            .store(journal.map_or(0, Journal::segments), Ordering::Relaxed);
    }
}

#[cfg(test)]
impl ServeCore {
    /// Parks the ingest thread on a flush barrier whose reply waits
    /// until the returned receiver is read or dropped — a test's handle
    /// on "the ingest thread is busy" that no clock decides.
    pub(crate) fn park(&self) -> std::sync::mpsc::Receiver<u64> {
        let (tx, rx) = sync_channel(0);
        assert!(self.queue.push(Control::Flush(tx)), "ingest thread alive");
        rx
    }
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
        assert_eq!(snap.durability.replayed, 0, "fresh start replays nothing");
        let live = core.live_stats();
        assert!(live.journal_bytes > 0, "acked batch journaled");
        assert!(live.journal_segments >= 1);
        // A checkpoint covers the journal: it gets truncated away.
        core.checkpoint().expect("checkpoint");
        assert_eq!(core.live_stats().journal_bytes, 0, "fully checkpointed");
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
        cfg.queue_edges = 1;
        let core = ServeCore::start(cfg).expect("start");
        // Occupy the ingest thread with a long batch, larger than the
        // budget, so it went in alone; with a one-edge queue behind it,
        // non-blocking sends must surface Busy instead of stalling the
        // caller.
        let big: Vec<Edge> = (0..400_000).map(|i| Edge::new(i, i + 1)).collect();
        core.ingest(big).expect("queued");
        let mut saw_busy = false;
        for _ in 0..1024 {
            match core.try_ingest_within(vec![Edge::new(1, 2)], Duration::ZERO) {
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
        assert_eq!(
            core.health().queue_depth,
            0,
            "a refused batch is never counted"
        );
        core.shutdown();
    }

    fn edges(n: u32) -> Vec<Edge> {
        (0..n).map(|i| Edge::new(i, i + 1)).collect()
    }

    /// The queue's rule, step by step: a batch counts from admission
    /// until it is taken, a batch larger than the budget goes in alone,
    /// barriers take no room, and a group drain stops at the next
    /// barrier. The depth is the exact sum of the queued batches at
    /// every step, so it never wraps.
    #[test]
    fn queue_depth_counts_edges_from_admission_until_taken() {
        let queue = Queue::new(4);
        let push = |n: u32| queue.push_batch(edges(n), None, Some(Duration::ZERO), || {});
        assert!(push(6), "an empty queue takes a batch over the budget");
        assert_eq!(queue.depth(), 6);
        assert!(!push(1), "nothing joins it");
        assert!(matches!(queue.pop(), Control::Ingest((e, ..)) if e.len() == 6));
        assert_eq!(queue.depth(), 0, "taken, not applied");
        assert!(push(3));
        assert!(push(1), "fits exactly");
        assert!(!push(1), "one edge over the budget");
        let (tx, _rx) = sync_channel(1);
        assert!(queue.push(Control::Flush(tx)), "a barrier takes no room");
        assert_eq!(queue.depth(), 4);
        let mut group = Vec::new();
        match queue.pop() {
            Control::Ingest(first) => group.push(first),
            _ => panic!("batches first"),
        }
        assert_eq!(queue.depth(), 1);
        queue.take_batches(&mut group);
        let sizes: Vec<usize> = group.iter().map(|(e, ..)| e.len()).collect();
        assert_eq!(sizes, [3, 1]);
        assert_eq!(queue.depth(), 0);
        queue.take_batches(&mut group);
        assert_eq!(group.len(), 2, "the drain stops at the barrier");
        assert!(matches!(queue.pop(), Control::Flush(_)));
        assert_eq!(queue.depth(), 0);
    }

    /// A producer waiting for room when the ingest thread goes panics
    /// instead of waiting for ever, a later push fails, and a message
    /// still queued is dropped, so its requester's reply fails too.
    #[test]
    fn a_closed_queue_releases_its_waiters() {
        let queue = Arc::new(Queue::new(1));
        assert!(queue.push_batch(edges(1), None, None, || {}));
        let (reply, answer) = sync_channel::<u64>(1);
        assert!(queue.push(Control::Flush(reply)));
        // `held` runs under the lock just before the wait, so the close
        // below comes after the waiter is waiting.
        let (waiting, is_waiting) = sync_channel(1);
        let waiter = {
            let queue = Arc::clone(&queue);
            let hold = Some(Duration::from_secs(120));
            std::thread::spawn(move || {
                queue.push_batch(edges(1), None, hold, || waiting.send(()).expect("signal"))
            })
        };
        is_waiting.recv().expect("the waiter waits for room");
        drop(Consumer(Arc::clone(&queue)));
        assert!(waiter.join().is_err(), "the waiter panicked");
        assert!(answer.recv().is_err(), "the queued barrier was dropped");
        assert!(!queue.push(Control::Shutdown));
        assert_eq!(queue.depth(), 0);
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
    fn one_producer_pays_one_fsync_per_acked_batch() {
        // A single producer waits for each ack, so every group holds one
        // batch: a per-record journal fsyncs exactly once per batch, a
        // batched one not at all until the flush barrier.
        let stream = stream();
        let dir = std::env::temp_dir().join(format!("rept-fsyncs-{}", std::process::id()));
        for (policy, before_flush, after_flush) in
            [(SyncPolicy::PerRecord, 6, 6), (SyncPolicy::Batched, 0, 1)]
        {
            std::fs::remove_dir_all(&dir).ok();
            std::fs::create_dir_all(&dir).expect("mkdir");
            let cfg = ServeConfig::new(base_cfg())
                .with_checkpoint(dir.join("serve.rpck"), None)
                .with_journal_sync(policy);
            let core = ServeCore::start(cfg).expect("start");
            for chunk in stream.chunks(50).take(6) {
                core.ingest(chunk.to_vec()).expect("acked");
            }
            let fsyncs = &core.metrics().journal_fsyncs;
            assert_eq!(fsyncs.get(), before_flush, "{} before flush", policy.name());
            assert_eq!(core.metrics().last_group_commit.get(), 1);
            core.flush();
            assert_eq!(fsyncs.get(), after_flush, "{} after flush", policy.name());
            core.shutdown();
        }
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
        assert_eq!(h.queue_capacity, 4096, "default queue budget in edges");
        assert_eq!(h.queue_depth, 0, "flushed");
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
