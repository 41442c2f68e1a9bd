//! Resumable runs: a thin checkpoint/restore adapter over the unified
//! execution core.
//!
//! The batch drivers ([`Rept::run`], [`Rept::run_threaded`]) consume a whole
//! stream; an operational deployment (the paper's router scenario)
//! instead receives edges *as they arrive* and must survive restarts.
//! [`ResumableRun`] wraps an [`EngineCore`] — the same core every batch
//! driver runs — and adds exactly one concern: serialising the complete
//! estimator state to a self-describing binary blob and restoring it.
//!
//! * Push-style driving is the core's own API surfaced:
//!   [`ResumableRun::process`] / [`ResumableRun::process_batch`] as
//!   edges arrive, [`ResumableRun::estimate`] whenever an estimate is
//!   needed (anytime, non-consuming), [`ResumableRun::finalize`] at end
//!   of stream. Results are independent of how the stream is split into
//!   batches, which is what makes checkpoint/resume at any batch
//!   boundary **bit-identical** to an uninterrupted run — the property
//!   the tests pin down for every engine.
//! * Checkpointing — [`ResumableRun::checkpoint_bytes`] /
//!   [`ResumableRun::from_checkpoint_bytes`], with
//!   [`ResumableRun::checkpoint_to_file`] /
//!   [`ResumableRun::from_checkpoint_file`] adding crash-safe
//!   (write-then-rename) persistence.
//!
//! The format is hand-rolled little-endian (no serde-format
//! dependency): magic, version, config, engine, position, journal
//! truncation position (version 4), group slice (version 6), then the
//! engine-core state section. Since version 3 the fused engine's state
//! opens with a layout tag picked from the kept groups: a single group
//! writes its edge list and counters; full groups write the union edge
//! set **once** (v2 repeated it per group) plus a counter block each;
//! and a remainder adds its counter block and stored-edge count — its
//! edges are the union edges the remainder hash owns. Cells and
//! representation are never stored anywhere: a stored edge's cell under
//! any group is `hasher.cell(e)`, so restore inserts the union of every
//! listed edge set into the one structure and checks the count of edges
//! each group owns, by those cells, against that group's stored
//! counters. That is also why the engine codes of the
//! retired fused layouts still decode: a code-1 (fused-hash) section
//! list and a v2 code-2 (fused-sorted) one are the same per-group
//! sections, and a v3+ code-2 blob has exactly the hybrid layout, so
//! all of them restore into the fused hybrid core.
//! Version 1 blobs (per-worker only, predating engine awareness) are
//! still read too. It is a snapshot format, not an archival one — the
//! version field guards against reading snapshots across incompatible
//! releases.
//!
//! Everything above the core builds on this type: the serving
//! subsystem's `ServeCore` wraps one `ResumableRun` per instance, and
//! its multi-tenant router keeps one checkpoint *directory* per tenant
//! (primary blob plus position-stamped rotated siblings) — all in this
//! same format, so a tenant checkpoint is readable by
//! [`ResumableRun::from_checkpoint_file`] like any other. The full
//! lineage (v1 → v6, with sizes and compatibility guarantees) is
//! documented in `docs/ARCHITECTURE.md` at the repository root.

use std::path::{Path, PathBuf};

use rept_graph::edge::{Edge, NodeId};
use rept_hash::reservoir::ReservoirSampler;

use crate::config::{EtaMode, ReptConfig, MAX_PROCESSORS};
use crate::engine::{CoreState, EngineCore, GroupSlice, Touched};
use crate::estimate::ReptEstimate;
use crate::estimator::{Engine, GroupAggregate, GroupSpec, Rept};
use crate::fused::{FusedEtaCounters, FusedGroups, GroupCounters};
use crate::reservoir::{edge_budget, ReservoirRun, MIN_MEMORY_BUDGET};
use crate::worker::SemiTriangleWorker;

/// Magic bytes of the checkpoint format.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"RPCK";
/// Newest checkpoint format version this codec reads and writes.
/// Version 6 adds the group-slice fields (slice index and count, after
/// the journal truncation) — only *sliced* engine runs, the shards of
/// a distributed deployment, write it; full-slice engine runs keep
/// writing version 4 and reservoir runs version 5, so their blobs stay
/// readable by earlier releases. Version 5 adds the bounded-memory
/// reservoir section (engine code 3). Version 4 adds the journal
/// truncation position to the header — the stream position up to which
/// a write-ahead edge journal (if the deployment keeps one) has been
/// made redundant by this checkpoint, so recovery knows which journal
/// records are stale. Version 3 stores the fused engine's shared
/// full-group edge set once and the masked remainder section; versions
/// 1 (per-worker only) and 2 (per-group fused sections) are still
/// readable, and restore with a truncation position equal to their
/// stream position.
pub const CHECKPOINT_VERSION: u32 = 6;
/// The header version full-slice engine-state checkpoints are written
/// at (see [`CHECKPOINT_VERSION`]: the v5/v6 additions don't apply to
/// them).
const ENGINE_CHECKPOINT_VERSION: u32 = 4;
/// The header version reservoir checkpoints are written at — pinned,
/// not [`CHECKPOINT_VERSION`]: the v6 slice fields never apply to
/// reservoir runs (bounded-memory mode has no group layout to slice).
const RESERVOIR_CHECKPOINT_VERSION: u32 = 5;
/// The header version group-sliced engine checkpoints are written at.
const SLICED_ENGINE_CHECKPOINT_VERSION: u32 = 6;
/// On-disk engine code of the reservoir run mode (format field, must
/// never change). Codes 0–2 belonged to the engines when it was
/// introduced; reservoir mode is not an `Engine` — `Engine::all()`
/// sweeps must not see it — so it claimed the next code outside that
/// range.
const RESERVOIR_ENGINE_CODE: u8 = 3;

/// Errors from checkpoint decoding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// Blob too short / cut off mid-field.
    Truncated,
    /// Wrong magic bytes.
    BadMagic,
    /// Unsupported version.
    BadVersion(u32),
    /// A decoded value violated an invariant (description).
    Invalid(&'static str),
    /// Filesystem error while reading a checkpoint file.
    Io(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "checkpoint truncated"),
            SnapshotError::BadMagic => write!(f, "not a REPT checkpoint"),
            SnapshotError::BadVersion(v) => write!(f, "unsupported checkpoint version {v}"),
            SnapshotError::Invalid(what) => write!(f, "invalid checkpoint field: {what}"),
            SnapshotError::Io(err) => write!(f, "checkpoint i/o: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// Little-endian reader over a byte slice.
pub(crate) struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        if self.0.len() < n {
            return Err(SnapshotError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn done(&self) -> bool {
        self.0.is_empty()
    }

    /// Bytes left — bounds pre-allocations so a corrupted length field
    /// yields [`SnapshotError::Truncated`] instead of an OOM abort.
    fn remaining(&self) -> usize {
        self.0.len()
    }

    /// A sane `Vec` pre-allocation for `len` entries of `entry_bytes`
    /// each: never more than the blob could still hold.
    fn capacity_for(&self, len: u64, entry_bytes: usize) -> usize {
        (len as usize).min(self.remaining() / entry_bytes)
    }
}

// ---- shared map section encoding ----------------------------------------

/// Writes an optional node→count map: `u64::MAX` sentinel for `None`,
/// else entry count followed by `(node, count)` pairs.
fn write_opt_node_map(out: &mut Vec<u8>, map: Option<Vec<(NodeId, u64)>>) {
    match map {
        Some(entries) => {
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (n, v) in entries {
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
    }
}

/// Counterpart of [`write_opt_node_map`].
fn read_opt_node_map(r: &mut Reader<'_>) -> Result<Option<Vec<(NodeId, u64)>>, SnapshotError> {
    let len = r.u64()?;
    if len == u64::MAX {
        return Ok(None);
    }
    let mut entries = Vec::with_capacity(r.capacity_for(len, 12));
    for _ in 0..len {
        let n = r.u32()?;
        let v = r.u64()?;
        entries.push((n, v));
    }
    Ok(Some(entries))
}

/// Writes an optional edge→count map, sentinel convention as above.
fn write_opt_edge_map(out: &mut Vec<u8>, map: Option<Vec<(Edge, u64)>>) {
    match map {
        Some(entries) => {
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (e, v) in entries {
                out.extend_from_slice(&e.u().to_le_bytes());
                out.extend_from_slice(&e.v().to_le_bytes());
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
    }
}

/// Counterpart of [`write_opt_edge_map`].
fn read_opt_edge_map(r: &mut Reader<'_>) -> Result<Option<Vec<(Edge, u64)>>, SnapshotError> {
    let len = r.u64()?;
    if len == u64::MAX {
        return Ok(None);
    }
    let mut entries = Vec::with_capacity(r.capacity_for(len, 16));
    for _ in 0..len {
        let u = r.u32()?;
        let v = r.u32()?;
        let cnt = r.u64()?;
        let e = Edge::try_new(u, v).ok_or(SnapshotError::Invalid("self-loop key"))?;
        entries.push((e, cnt));
    }
    Ok(Some(entries))
}

fn sorted_node_entries(map: &rept_hash::fx::FxHashMap<NodeId, u64>) -> Vec<(NodeId, u64)> {
    let mut v: Vec<(NodeId, u64)> = map.iter().map(|(&n, &c)| (n, c)).collect();
    v.sort_unstable();
    v
}

fn sorted_edge_entries(map: &rept_hash::fx::FxHashMap<Edge, u64>) -> Vec<(Edge, u64)> {
    let mut v: Vec<(Edge, u64)> = map.iter().map(|(&e, &c)| (e, c)).collect();
    v.sort_unstable();
    v
}

/// Stable on-disk code of an engine (format field, must never change).
/// Writers emit 0, 4 and the reservoir mode's 3
/// ([`RESERVOIR_ENGINE_CODE`]). Codes 1 (fused-hash) and 2
/// (fused-sorted) were written by the retired fused layouts; readers
/// decode both into the fused hybrid core.
fn engine_code(engine: Engine) -> u8 {
    match engine {
        Engine::PerWorker => 0,
        Engine::FusedHybrid => 4,
    }
}

fn engine_from_code(code: u8) -> Result<Engine, SnapshotError> {
    match code {
        0 => Ok(Engine::PerWorker),
        1 | 2 | 4 => Ok(Engine::FusedHybrid),
        _ => Err(SnapshotError::Invalid("engine code")),
    }
}

/// Stable on-disk codes of the v3 fused-engine layout tag.
mod layout_tag {
    /// Per-group sections only (written for a single kept group).
    pub const INDEPENDENT: u8 = 0;
    /// Full groups (union edge set once), then per-group sections for
    /// any other group (written for full groups only).
    pub const SHARED_FULL: u8 = 1;
    /// Full groups plus the counted remainder section.
    pub const MASKED: u8 = 2;
}

/// The run-mode half of a [`ResumableRun`]: a full engine core, or the
/// bounded-memory reservoir estimator.
#[derive(Debug, Clone)]
enum RunState {
    Engine(EngineCore),
    Reservoir(ReservoirRun),
}

/// A push-style REPT driver whose state can be checkpointed — an
/// [`EngineCore`] (any execution [`Engine`]) or a bounded-memory
/// [`ReservoirRun`], plus the RPCK codec.
#[derive(Debug, Clone)]
pub struct ResumableRun {
    state: RunState,
}

impl ResumableRun {
    /// Starts a fresh run on the default engine
    /// ([`Engine::FusedHybrid`]).
    pub fn new(rept: Rept) -> Self {
        Self::with_engine(rept, Engine::default())
    }

    /// Starts a fresh run on the given engine.
    pub fn with_engine(rept: Rept, engine: Engine) -> Self {
        Self {
            state: RunState::Engine(EngineCore::with_engine(rept, engine)),
        }
    }

    /// Starts a fresh run owning only one [`GroupSlice`] of the
    /// layout's hash groups — a shard of a distributed deployment.
    /// Checkpoints of a sliced run record the slice (format version 6)
    /// and restore refuses a blob whose slice disagrees with the
    /// deployment resuming it.
    ///
    /// # Panics
    ///
    /// Panics if the slice keeps none of the layout's groups.
    pub fn with_sliced_engine(rept: Rept, engine: Engine, slice: GroupSlice) -> Self {
        Self {
            state: RunState::Engine(EngineCore::with_slice(rept, engine, slice)),
        }
    }

    /// Starts a fresh bounded-memory run: the reservoir mode never
    /// stores more than `memory_budget` bytes of edge state (see
    /// [`crate::reservoir`]).
    ///
    /// # Panics
    ///
    /// Panics if `memory_budget` is below
    /// [`crate::reservoir::MIN_MEMORY_BUDGET`].
    pub fn with_reservoir(cfg: ReptConfig, memory_budget: u64) -> Self {
        Self {
            state: RunState::Reservoir(ReservoirRun::new(cfg, memory_budget)),
        }
    }

    /// The engine driving this run. Reservoir-mode runs are
    /// engine-independent (no partitioned state exists to execute) and
    /// report the default engine; check [`Self::memory_budget`] first
    /// to distinguish them.
    pub fn engine(&self) -> Engine {
        match &self.state {
            RunState::Engine(core) => core.engine(),
            RunState::Reservoir(_) => Engine::default(),
        }
    }

    /// The byte budget of a bounded-memory run; `None` for engine runs
    /// (whose storage grows with the stream).
    pub fn memory_budget(&self) -> Option<u64> {
        match &self.state {
            RunState::Engine(_) => None,
            RunState::Reservoir(run) => Some(run.memory_budget()),
        }
    }

    /// The group slice this run owns ([`GroupSlice::FULL`] for
    /// standalone engine runs and for reservoir runs, which have no
    /// group layout to slice).
    pub fn group_slice(&self) -> GroupSlice {
        match &self.state {
            RunState::Engine(core) => core.group_slice(),
            RunState::Reservoir(_) => GroupSlice::FULL,
        }
    }

    /// The per-group aggregates of the stream seen so far — the kept
    /// groups only, for a sliced run — with the per-node entries of the
    /// `touched` nodes ([`Touched::All`]: every node); see
    /// [`EngineCore::counters_for`]. This is the aggregate-exchange
    /// payload of a distributed deployment: collect every shard's
    /// aggregates and combine them with [`Rept::finalize_groups`].
    /// `None` for reservoir runs, whose subsampled state admits no
    /// exact cross-shard combination.
    pub fn counters_for(&self, touched: &Touched) -> Option<Vec<GroupAggregate>> {
        match &self.state {
            RunState::Engine(core) => Some(core.counters_for(touched)),
            RunState::Reservoir(_) => None,
        }
    }

    /// The nodes whose counters moved since the last call — see
    /// [`EngineCore::take_touched`]; [`Touched::All`] for reservoir
    /// runs, which have no per-group counters to track.
    pub fn take_touched(&mut self) -> Touched {
        match &mut self.state {
            RunState::Engine(core) => core.take_touched(),
            RunState::Reservoir(_) => Touched::All,
        }
    }

    /// Brings `est`, this run's [`Self::estimate`] at an earlier
    /// position, up to date given the nodes `touched` since — see
    /// [`EngineCore::refresh_estimate`]. Reservoir runs re-estimate in
    /// full.
    pub fn refresh_estimate(&self, est: &mut ReptEstimate, touched: &Touched) {
        match &self.state {
            RunState::Engine(core) => core.refresh_estimate(est, touched),
            RunState::Reservoir(run) => *est = run.estimate(),
        }
    }

    /// Bytes of edge storage currently held — adjacency structures for
    /// engine runs ([`EngineCore::stored_bytes`]), reservoir state for
    /// bounded-memory runs. The quantity a per-tenant memory quota
    /// governs.
    pub fn stored_bytes(&self) -> usize {
        match &self.state {
            RunState::Engine(core) => core.stored_bytes(),
            RunState::Reservoir(run) => run.stored_bytes(),
        }
    }

    /// The engine core of an engine-mode run — checkpoint-codec tests
    /// only.
    #[cfg(test)]
    pub(crate) fn engine_core(&self) -> &EngineCore {
        match &self.state {
            RunState::Engine(core) => core,
            RunState::Reservoir(_) => panic!("reservoir runs hold no engine core"),
        }
    }

    /// Processes one arriving edge on all processors.
    pub fn process(&mut self, e: Edge) {
        match &mut self.state {
            RunState::Engine(core) => core.ingest(e),
            RunState::Reservoir(run) => run.process(e),
        }
    }

    /// Processes a batch of arriving edges (see
    /// [`EngineCore::ingest_batch`]). Results are independent of how the
    /// stream is split into batches, which is what makes
    /// checkpoint/resume at any batch boundary bit-identical.
    pub fn process_batch(&mut self, batch: &[Edge]) {
        match &mut self.state {
            RunState::Engine(core) => core.ingest_batch(batch),
            RunState::Reservoir(run) => run.process_batch(batch),
        }
    }

    /// Number of edges processed so far.
    pub fn position(&self) -> u64 {
        match &self.state {
            RunState::Engine(core) => core.position(),
            RunState::Reservoir(run) => run.position(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReptConfig {
        match &self.state {
            RunState::Engine(core) => core.config(),
            RunState::Reservoir(run) => run.config(),
        }
    }

    /// Produces the estimate for the stream seen so far (non-consuming —
    /// all estimators here are anytime). Every engine funnels into the
    /// same per-group aggregate combination, so the estimate is
    /// identical across engines.
    pub fn estimate(&self) -> ReptEstimate {
        match &self.state {
            RunState::Engine(core) => core.estimate(),
            RunState::Reservoir(run) => run.estimate(),
        }
    }

    /// Consumes the run and produces the final estimate.
    pub fn finalize(self) -> ReptEstimate {
        match self.state {
            RunState::Engine(core) => core.into_estimate(),
            RunState::Reservoir(run) => run.estimate(),
        }
    }

    /// Serialises the complete state (format version 4 for full-slice
    /// engine runs, 5 for reservoir runs, 6 for sliced engine runs —
    /// see [`CHECKPOINT_VERSION`]).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        match &self.state {
            RunState::Engine(core) => {
                let slice = core.group_slice();
                let version = if slice.is_full() {
                    ENGINE_CHECKPOINT_VERSION
                } else {
                    SLICED_ENGINE_CHECKPOINT_VERSION
                };
                write_header(
                    &mut out,
                    core.config(),
                    version,
                    engine_code(core.engine()),
                    core.position(),
                );
                if !slice.is_full() {
                    out.extend_from_slice(&u64::from(slice.index()).to_le_bytes());
                    out.extend_from_slice(&u64::from(slice.count()).to_le_bytes());
                }
                match &core.state {
                    CoreState::PerWorker { workers } => {
                        for w in workers {
                            w.write_snapshot(&mut out);
                        }
                    }
                    CoreState::Fused(groups) => write_fused_state(groups, &mut out),
                }
            }
            RunState::Reservoir(run) => {
                write_header(
                    &mut out,
                    run.config(),
                    RESERVOIR_CHECKPOINT_VERSION,
                    RESERVOIR_ENGINE_CODE,
                    run.position(),
                );
                write_reservoir_section(&mut out, run);
            }
        }
        out
    }

    /// Reconstructs a run from [`Self::checkpoint_bytes`] output (or a
    /// legacy blob: version 1 resumes on the per-worker engine, as those
    /// blobs predate engine awareness, and engine codes 1 and 2 of the
    /// retired fused layouts resume on the fused hybrid engine).
    ///
    /// # Errors
    ///
    /// Returns a [`SnapshotError`] on malformed input.
    pub fn from_checkpoint_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = Reader(bytes);
        if r.take(4)? != CHECKPOINT_MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let version = r.u32()?;
        if !(1..=CHECKPOINT_VERSION).contains(&version) {
            return Err(SnapshotError::BadVersion(version));
        }
        let m = r.u64()?;
        let c = r.u64()?;
        let seed = r.u64()?;
        if m < 2 || c < 1 {
            return Err(SnapshotError::Invalid("config out of range"));
        }
        let track_locals = r.u8()? != 0;
        let track_eta = r.u8()? != 0;
        let eta_mode = match r.u8()? {
            0 => EtaMode::PaperInit,
            1 => EtaMode::StrictNonLast,
            _ => return Err(SnapshotError::Invalid("eta mode")),
        };
        // Version 1 predates the engine byte: always per-worker.
        let code = if version == 1 { 0 } else { r.u8()? };
        let position = r.u64()?;
        // Version 4 added the journal truncation position. Writers record
        // the stream position there, and recovery replays the journal
        // from `position()`, so the field is only validated.
        if version >= 4 && r.u64()? > position {
            return Err(SnapshotError::Invalid("journal truncation beyond position"));
        }
        let cfg = ReptConfig {
            m,
            c,
            seed,
            track_locals,
            track_eta,
            eta_mode,
        };
        if code == RESERVOIR_ENGINE_CODE {
            // The reservoir section exists only at version 5 — an older
            // blob carrying code 3 is corrupt, not early, and a newer
            // (sliced, v6) one is impossible: bounded-memory mode has
            // no group layout to slice.
            if version != RESERVOIR_CHECKPOINT_VERSION {
                return Err(SnapshotError::Invalid("engine code"));
            }
            let run = read_reservoir_section(&mut r, &cfg, position)?;
            if !r.done() {
                return Err(SnapshotError::Invalid("trailing bytes"));
            }
            return Ok(Self {
                state: RunState::Reservoir(run),
            });
        }
        // Version 6 records the group slice this blob's core owned;
        // everything older is a full-slice run.
        let slice = if version >= 6 {
            let index = r.u64()?;
            let count = r.u64()?;
            if count == 0 || count > u64::from(u32::MAX) || index >= count {
                return Err(SnapshotError::Invalid("group slice"));
            }
            GroupSlice::new(index as u32, count as u32)
        } else {
            GroupSlice::FULL
        };
        let engine = engine_from_code(code)?;
        // A per-worker blob serialises every processor (48 bytes at
        // least) and an unsliced fused one a τ and a stored counter per
        // processor, so a header naming more processors than the rest of
        // the blob can hold is corrupt: refuse it before sizing anything
        // by `c`. A sliced fused blob holds only its kept groups, so the
        // bound cannot cover it: every header meets a fixed ceiling too.
        if (engine == Engine::PerWorker || slice.is_full())
            && c.saturating_mul(16) > r.remaining() as u64
        {
            return Err(SnapshotError::Invalid("processor count beyond the blob"));
        }
        if c > MAX_PROCESSORS {
            return Err(SnapshotError::Invalid("processor count above the ceiling"));
        }
        let rept = Rept::new(cfg);
        let kept: Vec<GroupSpec> = rept
            .groups()
            .iter()
            .enumerate()
            .filter(|(gi, _)| slice.keeps(*gi))
            .map(|(_, g)| *g)
            .collect();
        if kept.is_empty() {
            return Err(SnapshotError::Invalid("slice keeps no groups"));
        }
        let state = match engine {
            Engine::PerWorker => {
                // The per-worker engine always serialises its full
                // worker vector — a sliced run's unkept workers are
                // simply never driven, so they round-trip as empty.
                let mut workers = Vec::with_capacity(c as usize);
                for _ in 0..c {
                    workers.push(SemiTriangleWorker::read_snapshot(
                        &mut r,
                        cfg.track_locals,
                        cfg.needs_eta(),
                        cfg.eta_mode,
                    )?);
                }
                CoreState::PerWorker { workers }
            }
            // Fused-hash blobs (code 1, any version) and v2 blobs hold
            // one section per kept group; v3+ blobs of codes 2 and 4
            // hold the shared layout.
            Engine::FusedHybrid => CoreState::Fused(Box::new(read_fused_state(
                &mut r,
                &cfg,
                &kept,
                code == 1 || version == 2,
            )?)),
        };
        if !r.done() {
            return Err(SnapshotError::Invalid("trailing bytes"));
        }
        Ok(Self {
            state: RunState::Engine(EngineCore::from_parts(rept, engine, state, position, slice)),
        })
    }

    /// Writes a checkpoint to `path` crash-safely via
    /// [`durable_write_rename`], so neither a crash mid-write nor a
    /// power loss shortly after the rename can corrupt an existing
    /// checkpoint.
    pub fn checkpoint_to_file(&self, path: &Path) -> std::io::Result<()> {
        durable_write_rename(path, &self.checkpoint_bytes())
    }

    /// Reads a checkpoint written by [`Self::checkpoint_to_file`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::Io`] when the file cannot be read, otherwise the
    /// decoding errors of [`Self::from_checkpoint_bytes`].
    pub fn from_checkpoint_file(path: &Path) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(|e| SnapshotError::Io(e.to_string()))?;
        Self::from_checkpoint_bytes(&bytes)
    }
}

/// Writes `bytes` to `path` with full crash durability: the data lands
/// in a sibling `<path>.tmp` file first, is fsynced, is atomically
/// renamed into place, and the parent directory is synced (best-effort)
/// so the rename itself survives power loss. Without the file sync
/// before the rename, a power loss can persist the rename while the
/// data blocks are still in the page cache — replacing a good file with
/// a truncated one; without the directory sync, the rename itself can
/// be lost. Used for checkpoints and every other small metadata file
/// whose readers assume rename atomicity (tenant manifests).
pub fn durable_write_rename(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut tmp_name = path.as_os_str().to_owned();
    tmp_name.push(".tmp");
    let tmp = PathBuf::from(tmp_name);
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(bytes)?;
    file.sync_all()?;
    drop(file);
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

// ---- section plumbing -----------------------------------------------------

/// Writes one edge list: count, then `(u, v)` pairs.
fn write_edge_list(out: &mut Vec<u8>, edges: &[Edge]) {
    out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
    for e in edges {
        out.extend_from_slice(&e.u().to_le_bytes());
        out.extend_from_slice(&e.v().to_le_bytes());
    }
}

/// Writes the common RPCK header: magic, version, config, engine code,
/// position, and the journal truncation position (always the position —
/// the checkpoint folds in every edge up to it, so a journal kept
/// alongside may truncate everything below it).
fn write_header(out: &mut Vec<u8>, cfg: &ReptConfig, version: u32, code: u8, position: u64) {
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&cfg.m.to_le_bytes());
    out.extend_from_slice(&cfg.c.to_le_bytes());
    out.extend_from_slice(&cfg.seed.to_le_bytes());
    out.push(cfg.track_locals as u8);
    out.push(cfg.track_eta as u8);
    out.push(match cfg.eta_mode {
        EtaMode::PaperInit => 0,
        EtaMode::StrictNonLast => 1,
    });
    out.push(code);
    out.extend_from_slice(&position.to_le_bytes());
    out.extend_from_slice(&position.to_le_bytes());
}

/// Writes an optional node→f64 map in node order, sentinel convention
/// as the u64 maps; values travel as raw IEEE-754 bits.
fn write_opt_f64_node_map(out: &mut Vec<u8>, map: Option<&rept_hash::fx::FxHashMap<NodeId, f64>>) {
    match map {
        Some(map) => {
            let mut entries: Vec<(NodeId, f64)> = map.iter().map(|(&n, &v)| (n, v)).collect();
            entries.sort_unstable_by_key(|&(n, _)| n);
            out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
            for (n, v) in entries {
                out.extend_from_slice(&n.to_le_bytes());
                out.extend_from_slice(&v.to_bits().to_le_bytes());
            }
        }
        None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
    }
}

/// Counterpart of [`write_opt_f64_node_map`].
fn read_opt_f64_node_map(r: &mut Reader<'_>) -> Result<Option<Vec<(NodeId, f64)>>, SnapshotError> {
    let len = r.u64()?;
    if len == u64::MAX {
        return Ok(None);
    }
    let mut entries = Vec::with_capacity(r.capacity_for(len, 12));
    for _ in 0..len {
        let n = r.u32()?;
        let v = f64::from_bits(r.u64()?);
        if !v.is_finite() {
            return Err(SnapshotError::Invalid("non-finite counter"));
        }
        entries.push((n, v));
    }
    Ok(Some(entries))
}

/// The version-5 reservoir section: byte budget, edge budget, RNG
/// state, `τ̂`, the reservoir slots **in slot order** (future
/// replacement decisions index into it), then the optional locals map.
/// The stream clock is the header's position; the adjacency is derived
/// state, rebuilt from the slots on restore.
fn write_reservoir_section(out: &mut Vec<u8>, run: &ReservoirRun) {
    out.extend_from_slice(&run.memory_budget().to_le_bytes());
    out.extend_from_slice(&(run.edge_budget() as u64).to_le_bytes());
    out.extend_from_slice(&run.rng_state().to_le_bytes());
    out.extend_from_slice(&run.tau().to_bits().to_le_bytes());
    write_edge_list(out, run.sampled());
    write_opt_f64_node_map(out, run.locals());
}

/// Counterpart of [`write_reservoir_section`].
fn read_reservoir_section(
    r: &mut Reader<'_>,
    cfg: &ReptConfig,
    position: u64,
) -> Result<ReservoirRun, SnapshotError> {
    let memory_budget = r.u64()?;
    if memory_budget < MIN_MEMORY_BUDGET {
        return Err(SnapshotError::Invalid("memory budget out of range"));
    }
    // The edge budget is derived state, so a blob that disagrees with
    // its byte budget is corrupt — refused before anything is sized by
    // it.
    let budget = r.u64()?;
    if budget != edge_budget(memory_budget) as u64 {
        return Err(SnapshotError::Invalid("edge budget out of range"));
    }
    let budget = budget as usize;
    let rng_state = r.u64()?;
    let tau = f64::from_bits(r.u64()?);
    if !tau.is_finite() || tau < 0.0 {
        return Err(SnapshotError::Invalid("non-finite counter"));
    }
    let n_items = r.u64()?;
    if n_items > budget as u64 || n_items > position {
        return Err(SnapshotError::Invalid("reservoir fuller than its clock"));
    }
    let mut items = Vec::with_capacity(r.capacity_for(n_items, 8));
    for _ in 0..n_items {
        let u = r.u32()?;
        let v = r.u32()?;
        items.push(Edge::try_new(u, v).ok_or(SnapshotError::Invalid("self-loop edge"))?);
    }
    // A reservoir only stays below capacity while it still holds every
    // offered edge.
    if (items.len() as u64) < position.min(budget as u64) {
        return Err(SnapshotError::Invalid("reservoir fuller than its clock"));
    }
    let locals = read_opt_f64_node_map(r)?;
    if cfg.track_locals != locals.is_some() {
        return Err(SnapshotError::Invalid("locals section/config mismatch"));
    }
    let reservoir = ReservoirSampler::from_parts(budget, items, position, rng_state);
    let locals = locals.map(|entries| entries.into_iter().collect());
    Ok(ReservoirRun::from_parts(
        *cfg,
        memory_budget,
        reservoir,
        tau,
        locals,
    ))
}

/// Writes one group's counter block (everything but the edge list).
fn write_counter_block(out: &mut Vec<u8>, counters: &GroupCounters) {
    for &t in &counters.tau {
        out.extend_from_slice(&t.to_le_bytes());
    }
    for &s in &counters.stored {
        out.extend_from_slice(&(s as u64).to_le_bytes());
    }
    write_opt_node_map(out, counters.tau_v.as_ref().map(sorted_node_entries));
    match &counters.eta {
        Some(eta) => {
            out.extend_from_slice(&eta.total.to_le_bytes());
            write_opt_node_map(out, Some(sorted_node_entries(&eta.per_node)));
            write_opt_edge_map(out, Some(sorted_edge_entries(&eta.per_edge)));
        }
        None => {
            out.extend_from_slice(&0u64.to_le_bytes());
            write_opt_node_map(out, None);
            write_opt_edge_map(out, None);
        }
    }
}

/// Serialises the fused engine's state (format version 3 and later)
/// under the layout tag its kept groups call for: a single group writes
/// its section (edge list, then counter block); full groups write the
/// union edge set **once** and a counter block each; a remainder after
/// them adds its counter block and stored-edge count — its edges are
/// the union edges its hash owns, recomputed on restore. The
/// representation is rebuilt on restore.
fn write_fused_state(groups: &FusedGroups, out: &mut Vec<u8>) {
    let mut union = Vec::with_capacity(groups.adj.edge_count());
    groups.adj.for_each_edge(|e| union.push(e));
    union.sort_unstable();
    let counters = &groups.counters;
    if let [only] = &counters[..] {
        out.push(layout_tag::INDEPENDENT);
        out.extend_from_slice(&1u64.to_le_bytes());
        write_edge_list(out, &union);
        write_counter_block(out, only);
        return;
    }
    // Full groups own every cell and precede the remainder.
    let full = groups
        .specs
        .iter()
        .take_while(|g| g.size as u64 == g.hasher.cells())
        .count();
    let (full_counters, rem) = counters.split_at(full);
    out.push(if rem.is_empty() {
        layout_tag::SHARED_FULL
    } else {
        layout_tag::MASKED
    });
    out.extend_from_slice(&(full as u64).to_le_bytes());
    write_edge_list(out, &union);
    for c in full_counters {
        write_counter_block(out, c);
    }
    if let [rem] = rem {
        let stored: usize = rem.stored.iter().sum();
        out.extend_from_slice(&(stored as u64).to_le_bytes());
        write_counter_block(out, rem);
    }
    // No per-group sections follow.
    out.extend_from_slice(&0u64.to_le_bytes());
}

/// Reads one group's edge list in canonical order, validating that each
/// edge lands in a cell the group owns and appears once.
fn read_group_edges(r: &mut Reader<'_>, spec: &GroupSpec) -> Result<Vec<Edge>, SnapshotError> {
    let edge_count = r.u64()?;
    let mut edges = Vec::with_capacity(r.capacity_for(edge_count, 8));
    for _ in 0..edge_count {
        let u = r.u32()?;
        let v = r.u32()?;
        let e = Edge::try_new(u, v).ok_or(SnapshotError::Invalid("self-loop edge"))?;
        let (uu, vv) = e.as_u64_pair();
        if spec.hasher.cell(uu, vv) as usize >= spec.size {
            return Err(SnapshotError::Invalid("edge outside owned cells"));
        }
        edges.push(e);
    }
    edges.sort_unstable();
    if edges.windows(2).any(|w| w[0] == w[1]) {
        return Err(SnapshotError::Invalid("duplicate edge in group"));
    }
    Ok(edges)
}

/// Reads one group's counter block, with the same section/config
/// consistency checks the worker decoder applies.
fn read_group_counters(
    r: &mut Reader<'_>,
    cfg: &ReptConfig,
    size: usize,
    edge_count: usize,
) -> Result<GroupCounters, SnapshotError> {
    let mut counters = GroupCounters::new(size, cfg);
    for t in counters.tau.iter_mut() {
        *t = r.u64()?;
    }
    let mut stored_total = 0usize;
    for s in counters.stored.iter_mut() {
        *s = r.u64()? as usize;
        stored_total = stored_total
            .checked_add(*s)
            .ok_or(SnapshotError::Invalid("stored counts overflow"))?;
    }
    if stored_total != edge_count {
        return Err(SnapshotError::Invalid("stored counts/edge set mismatch"));
    }
    let tau_v = read_opt_node_map(r)?;
    if cfg.track_locals != tau_v.is_some() {
        return Err(SnapshotError::Invalid("locals section/config mismatch"));
    }
    counters.tau_v = tau_v.map(|entries| entries.into_iter().collect());
    let eta_total = r.u64()?;
    let eta_v = read_opt_node_map(r)?;
    let per_edge = read_opt_edge_map(r)?;
    counters.eta = match (cfg.needs_eta(), eta_v, per_edge) {
        (true, Some(per_node), Some(per_edge)) => Some(FusedEtaCounters {
            total: eta_total,
            per_node: per_node.into_iter().collect(),
            per_edge: per_edge.into_iter().collect(),
        }),
        (false, None, None) => None,
        _ => return Err(SnapshotError::Invalid("eta section/config mismatch")),
    };
    Ok(counters)
}

/// Reads the fused engine's sections back into the one layout:
/// `per_group` section lists (every v2 blob, and code-1 blobs at any
/// version) hold an edge list and a counter block per kept group, and
/// shared-layout blobs (v3+, see [`write_fused_state`]) the union edge
/// set once. Restore inserts the union of every listed edge set, then
/// checks the count of union edges each group owns against its group's
/// stored counters — so a listed group edge set must be exactly the
/// union edges its hash owns, whatever format version or engine code
/// wrote it.
fn read_fused_state(
    r: &mut Reader<'_>,
    cfg: &ReptConfig,
    kept: &[GroupSpec],
    per_group: bool,
) -> Result<FusedGroups, SnapshotError> {
    let full = kept.iter().take_while(|g| g.size as u64 == cfg.m).count();
    let mut edges = Vec::new();
    let mut counters = Vec::with_capacity(kept.len());
    // The groups whose own section (edge list, counter block) follows.
    let mut listed = kept;
    let tag = if per_group {
        layout_tag::INDEPENDENT
    } else {
        r.u8()?
    };
    match tag {
        layout_tag::INDEPENDENT => {
            if r.u64()? != kept.len() as u64 {
                return Err(SnapshotError::Invalid("group count/config mismatch"));
            }
        }
        layout_tag::SHARED_FULL | layout_tag::MASKED => {
            if full == 0 || r.u64()? != full as u64 {
                return Err(SnapshotError::Invalid("full group count/config mismatch"));
            }
            edges = read_group_edges(r, &kept[0])?;
            for spec in &kept[..full] {
                counters.push(read_group_counters(r, cfg, spec.size, edges.len())?);
            }
            listed = &kept[full..];
            if tag == layout_tag::MASKED {
                let [rem] = listed else {
                    return Err(SnapshotError::Invalid("masked section without remainder"));
                };
                let count = r.u64()? as usize;
                counters.push(read_group_counters(r, cfg, rem.size, count)?);
                listed = &[];
            }
            if r.u64()? != listed.len() as u64 {
                return Err(SnapshotError::Invalid("rest count/config mismatch"));
            }
        }
        _ => return Err(SnapshotError::Invalid("sorted layout tag")),
    }
    for spec in listed {
        let list = read_group_edges(r, spec)?;
        counters.push(read_group_counters(r, cfg, spec.size, list.len())?);
        edges.extend(list);
    }
    edges.sort_unstable();
    edges.dedup();
    let mut groups = FusedGroups::new(kept, cfg);
    let kept_counts = groups
        .restore_edges(&edges)
        .ok_or(SnapshotError::Invalid("edge outside owned cells"))?;
    for (count, c) in kept_counts.into_iter().zip(&counters) {
        if count != c.stored.iter().sum::<usize>() {
            return Err(SnapshotError::Invalid("stored counts/edge set mismatch"));
        }
    }
    groups.counters = counters;
    Ok(groups)
}

// ---- worker snapshot plumbing -------------------------------------------

impl SemiTriangleWorker {
    /// Appends this worker's full state to `out` (format documented in
    /// [`crate::resume`]).
    pub fn write_snapshot(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.tau().to_le_bytes());
        // Stored edges.
        let edges: Vec<Edge> = self.stored_edge_list();
        out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        for e in &edges {
            out.extend_from_slice(&e.u().to_le_bytes());
            out.extend_from_slice(&e.v().to_le_bytes());
        }
        // Local counters.
        write_opt_node_map(out, self.tau_v_entries());
        out.extend_from_slice(&self.eta().to_le_bytes());
        write_opt_node_map(out, self.eta_v_entries());
        write_opt_edge_map(out, self.edge_counter_entries());
    }

    /// Reads a worker back (counterpart of [`Self::write_snapshot`]).
    pub(crate) fn read_snapshot(
        r: &mut Reader<'_>,
        track_locals: bool,
        track_eta: bool,
        eta_mode: EtaMode,
    ) -> Result<Self, SnapshotError> {
        let tau = r.u64()?;
        let edge_count = r.u64()?;
        let mut edges = Vec::with_capacity(r.capacity_for(edge_count, 8));
        for _ in 0..edge_count {
            let u = r.u32()?;
            let v = r.u32()?;
            let e = Edge::try_new(u, v).ok_or(SnapshotError::Invalid("self-loop edge"))?;
            edges.push(e);
        }
        let tau_v = read_opt_node_map(r)?;
        let eta = r.u64()?;
        let eta_v = read_opt_node_map(r)?;
        let per_edge = read_opt_edge_map(r)?;
        // Consistency: a tracked-eta worker must have eta sections and
        // vice versa; mismatches mean the config bytes were corrupted.
        if track_eta != per_edge.is_some() {
            return Err(SnapshotError::Invalid("eta section/config mismatch"));
        }
        if track_locals != tau_v.is_some() {
            return Err(SnapshotError::Invalid("locals section/config mismatch"));
        }
        Ok(SemiTriangleWorker::from_snapshot_parts(
            track_locals,
            track_eta,
            eta_mode,
            tau,
            edges,
            tau_v,
            eta,
            eta_v,
            per_edge,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec as prop_vec;
    use proptest::prelude::*;
    use rept_gen::{barabasi_albert, stream_order, GeneratorConfig};

    fn stream() -> Vec<Edge> {
        stream_order(barabasi_albert(&GeneratorConfig::new(300, 3), 4), 2)
    }

    fn cfg() -> ReptConfig {
        ReptConfig::new(3, 7).with_seed(11).with_eta(true)
    }

    fn assert_estimates_equal(a: &ReptEstimate, b: &ReptEstimate, what: &str) {
        assert_eq!(a.global, b.global, "{what}: global");
        assert_eq!(a.locals, b.locals, "{what}: locals");
        assert_eq!(a.eta_hat, b.eta_hat, "{what}: eta");
        assert_eq!(
            a.diagnostics.per_processor_tau, b.diagnostics.per_processor_tau,
            "{what}: per-processor tau"
        );
        assert_eq!(
            a.diagnostics.stored_edges, b.diagnostics.stored_edges,
            "{what}: stored edges"
        );
    }

    // ---- frozen legacy encoders ------------------------------------------
    //
    // Byte-for-byte copies of the writers as they shipped — version 1,
    // version 2, and the retired fused-hash (code 1) and fused-sorted
    // (code 2) engine writers of versions 3, 4 and 6 — emitting from the
    // *current* core state (per-worker, or the fused hybrid core). They
    // must never call the live writer — their whole point is to certify
    // that blobs produced by the old releases still restore through the
    // current reader. Do not "refactor" them to share code with the
    // codec above.

    /// Emits the v1 header + per-worker sections (v1 has no engine
    /// byte and only ever held per-worker state).
    fn frozen_v1_blob(run: &ResumableRun) -> Vec<u8> {
        let cfg = run.config();
        let CoreState::PerWorker { workers } = &run.engine_core().state else {
            panic!("v1 only encodes per-worker state");
        };
        let mut out = Vec::new();
        out.extend_from_slice(b"RPCK");
        out.extend_from_slice(&1u32.to_le_bytes());
        out.extend_from_slice(&cfg.m.to_le_bytes());
        out.extend_from_slice(&cfg.c.to_le_bytes());
        out.extend_from_slice(&cfg.seed.to_le_bytes());
        out.push(cfg.track_locals as u8);
        out.push(cfg.track_eta as u8);
        out.push(match cfg.eta_mode {
            EtaMode::PaperInit => 0,
            EtaMode::StrictNonLast => 1,
        });
        out.extend_from_slice(&run.position().to_le_bytes());
        for w in workers {
            frozen_worker_section(w, &mut out);
        }
        out
    }

    /// The v1/v2 worker section (identical to the current one, spelled
    /// out so the frozen encoders cannot drift with the live code).
    fn frozen_worker_section(w: &SemiTriangleWorker, out: &mut Vec<u8>) {
        out.extend_from_slice(&w.tau().to_le_bytes());
        let edges: Vec<Edge> = w.stored_edge_list();
        out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        for e in &edges {
            out.extend_from_slice(&e.u().to_le_bytes());
            out.extend_from_slice(&e.v().to_le_bytes());
        }
        frozen_opt_node_map(out, w.tau_v_entries());
        out.extend_from_slice(&w.eta().to_le_bytes());
        frozen_opt_node_map(out, w.eta_v_entries());
        frozen_opt_edge_map(out, w.edge_counter_entries());
    }

    fn frozen_opt_node_map(out: &mut Vec<u8>, map: Option<Vec<(NodeId, u64)>>) {
        match map {
            Some(entries) => {
                out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
                for (n, v) in entries {
                    out.extend_from_slice(&n.to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
        }
    }

    fn frozen_opt_edge_map(out: &mut Vec<u8>, map: Option<Vec<(Edge, u64)>>) {
        match map {
            Some(entries) => {
                out.extend_from_slice(&(entries.len() as u64).to_le_bytes());
                for (e, v) in entries {
                    out.extend_from_slice(&e.u().to_le_bytes());
                    out.extend_from_slice(&e.v().to_le_bytes());
                    out.extend_from_slice(&v.to_le_bytes());
                }
            }
            None => out.extend_from_slice(&u64::MAX.to_le_bytes()),
        }
    }

    fn frozen_sorted_entries(map: &rept_hash::fx::FxHashMap<NodeId, u64>) -> Vec<(NodeId, u64)> {
        let mut v: Vec<(NodeId, u64)> = map.iter().map(|(&n, &c)| (n, c)).collect();
        v.sort_unstable();
        v
    }

    fn frozen_sorted_edge_entries(map: &rept_hash::fx::FxHashMap<Edge, u64>) -> Vec<(Edge, u64)> {
        let mut v: Vec<(Edge, u64)> = map.iter().map(|(&e, &c)| (e, c)).collect();
        v.sort_unstable();
        v
    }

    /// The v2 per-group section: edge list (canonical order) followed
    /// by every counter.
    fn frozen_v2_group_section(out: &mut Vec<u8>, edges: &[Edge], counters: &GroupCounters) {
        out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
        for e in edges {
            out.extend_from_slice(&e.u().to_le_bytes());
            out.extend_from_slice(&e.v().to_le_bytes());
        }
        for &t in &counters.tau {
            out.extend_from_slice(&t.to_le_bytes());
        }
        for &s in &counters.stored {
            out.extend_from_slice(&(s as u64).to_le_bytes());
        }
        frozen_opt_node_map(out, counters.tau_v.as_ref().map(frozen_sorted_entries));
        match &counters.eta {
            Some(eta) => {
                out.extend_from_slice(&eta.total.to_le_bytes());
                frozen_opt_node_map(out, Some(frozen_sorted_entries(&eta.per_node)));
                frozen_opt_edge_map(out, Some(frozen_sorted_edge_entries(&eta.per_edge)));
            }
            None => {
                out.extend_from_slice(&0u64.to_le_bytes());
                frozen_opt_node_map(out, None);
                frozen_opt_edge_map(out, None);
            }
        }
    }

    /// The fused core's groups, its union edge set and each kept
    /// group's own edge set (the union edges its hash owns), in
    /// canonical order.
    fn frozen_fused_edges(run: &ResumableRun) -> (&FusedGroups, Vec<Edge>, Vec<Vec<Edge>>) {
        let CoreState::Fused(groups) = &run.engine_core().state else {
            panic!("fused sections need the fused core");
        };
        let mut union = Vec::new();
        groups.adj.for_each_edge(|e| union.push(e));
        union.sort_unstable();
        let per_group = groups
            .specs
            .iter()
            .map(|spec| {
                let owns = |e: &&Edge| {
                    let (u, v) = e.as_u64_pair();
                    (spec.hasher.cell(u, v) as usize) < spec.size
                };
                union.iter().filter(owns).copied().collect()
            })
            .collect();
        (groups, union, per_group)
    }

    /// The per-group section list of v2 blobs and of fused-hash (code 1)
    /// blobs at every version: group count, then one section per kept
    /// group in layout order — full groups each repeating the shared
    /// edge set, the remainder listing its own stored edges.
    fn frozen_group_sections(run: &ResumableRun, out: &mut Vec<u8>) {
        let (groups, _, per_group) = frozen_fused_edges(run);
        out.extend_from_slice(&(groups.counters.len() as u64).to_le_bytes());
        for (edges, counters) in per_group.iter().zip(&groups.counters) {
            frozen_v2_group_section(out, edges, counters);
        }
    }

    /// The v3+ fused-sorted (code 2) shared-layout sections: layout tag
    /// (0 for one kept group, 1 for full groups only, 2 for full groups
    /// and the remainder), then the single group's section, or the union
    /// edge set once, one counter block per full group, the remainder's
    /// stored-edge count and counter block, and an empty section list.
    fn frozen_v3_shared_sections(run: &ResumableRun, out: &mut Vec<u8>) {
        let (groups, union, per_group) = frozen_fused_edges(run);
        let write_edges = |out: &mut Vec<u8>, edges: &[Edge]| {
            out.extend_from_slice(&(edges.len() as u64).to_le_bytes());
            for e in edges {
                out.extend_from_slice(&e.u().to_le_bytes());
                out.extend_from_slice(&e.v().to_le_bytes());
            }
        };
        // A v2 group section minus its edge list is the counter block.
        let counter_block = |out: &mut Vec<u8>, counters: &GroupCounters| {
            let mut section = Vec::new();
            frozen_v2_group_section(&mut section, &[], counters);
            out.extend_from_slice(&section[8..]);
        };
        let n = groups.counters.len();
        if n == 1 {
            out.push(0);
            out.extend_from_slice(&1u64.to_le_bytes());
            write_edges(out, &per_group[0]);
            counter_block(out, &groups.counters[0]);
            return;
        }
        let m = run.config().m;
        let full = groups.specs.iter().filter(|g| g.size as u64 == m).count();
        out.push(if full == n { 1 } else { 2 });
        out.extend_from_slice(&(full as u64).to_le_bytes());
        write_edges(out, &union);
        for counters in &groups.counters[..full] {
            counter_block(out, counters);
        }
        if full < n {
            out.extend_from_slice(&(per_group[full].len() as u64).to_le_bytes());
            counter_block(out, &groups.counters[full]);
        }
        out.extend_from_slice(&0u64.to_le_bytes());
    }

    /// Emits a blob as the releases with engine codes 0–2 wrote it:
    /// the version's header (engine byte `code`; the journal truncation
    /// from v4, the group slice from v6), then per-worker sections
    /// (code 0), the per-group section list (code 1, and code 2 at v2),
    /// or the shared-layout sections (code 2 from v3).
    fn frozen_blob(run: &ResumableRun, version: u32, code: u8) -> Vec<u8> {
        let cfg = run.config();
        let mut out = Vec::new();
        out.extend_from_slice(b"RPCK");
        out.extend_from_slice(&version.to_le_bytes());
        out.extend_from_slice(&cfg.m.to_le_bytes());
        out.extend_from_slice(&cfg.c.to_le_bytes());
        out.extend_from_slice(&cfg.seed.to_le_bytes());
        out.push(cfg.track_locals as u8);
        out.push(cfg.track_eta as u8);
        out.push(match cfg.eta_mode {
            EtaMode::PaperInit => 0,
            EtaMode::StrictNonLast => 1,
        });
        out.push(code);
        out.extend_from_slice(&run.position().to_le_bytes());
        if version >= 4 {
            out.extend_from_slice(&run.position().to_le_bytes());
        }
        if version >= 6 {
            let slice = run.group_slice();
            out.extend_from_slice(&u64::from(slice.index()).to_le_bytes());
            out.extend_from_slice(&u64::from(slice.count()).to_le_bytes());
        }
        match (code, &run.engine_core().state) {
            (0, CoreState::PerWorker { workers }) => {
                for w in workers {
                    frozen_worker_section(w, &mut out);
                }
            }
            (1, _) => frozen_group_sections(run, &mut out),
            (2, _) if version == 2 => frozen_group_sections(run, &mut out),
            (2, _) => frozen_v3_shared_sections(run, &mut out),
            _ => panic!("code {code} does not match the run's engine"),
        }
        out
    }

    /// The v2 blob of the current core state, under the code the
    /// releases of that version wrote for it (fused state as fused-sorted).
    fn frozen_v2_blob(run: &ResumableRun) -> Vec<u8> {
        let code = match run.engine() {
            Engine::PerWorker => 0,
            Engine::FusedHybrid => 2,
        };
        frozen_blob(run, 2, code)
    }

    /// Restores `blob`, finishes `rest` of the stream on it, and checks
    /// the result against the uninterrupted oracle.
    fn assert_blob_finishes(
        blob: &[u8],
        engine: Engine,
        position: usize,
        rest: &[Edge],
        oracle: &ReptEstimate,
        what: &str,
    ) {
        let mut resumed = ResumableRun::from_checkpoint_bytes(blob)
            .unwrap_or_else(|e| panic!("{what} blob must restore: {e}"));
        assert_eq!(resumed.position(), position as u64, "{what}");
        assert_eq!(resumed.engine(), engine, "{what}");
        resumed.process_batch(rest);
        assert_estimates_equal(&resumed.finalize(), oracle, what);
    }

    // ---- tests ------------------------------------------------------------

    #[test]
    fn push_driver_matches_batch_driver_on_every_engine() {
        let stream = stream();
        let rept = Rept::new(cfg());
        let batch = rept.run(Engine::PerWorker, &stream);
        for engine in Engine::all() {
            let mut run = ResumableRun::with_engine(rept.clone(), engine);
            assert_eq!(run.engine(), engine);
            for &e in &stream {
                run.process(e);
            }
            assert_eq!(run.position(), stream.len() as u64);
            let push = run.finalize();
            assert_estimates_equal(&push, &batch, engine.name());
        }
    }

    #[test]
    fn batched_ingest_matches_edge_by_edge() {
        let stream = stream();
        let rept = Rept::new(cfg());
        let oracle = rept.run(Engine::PerWorker, &stream);
        for engine in Engine::all() {
            for batch_len in [1usize, 17, 1000, stream.len()] {
                let mut run = ResumableRun::with_engine(rept.clone(), engine);
                for chunk in stream.chunks(batch_len) {
                    run.process_batch(chunk);
                }
                assert_eq!(run.position(), stream.len() as u64);
                let est = run.estimate();
                assert_estimates_equal(
                    &est,
                    &oracle,
                    &format!("{} batch={batch_len}", engine.name()),
                );
            }
        }
    }

    #[test]
    fn checkpoint_resume_is_bit_identical_on_every_engine() {
        let stream = stream();
        let rept = Rept::new(cfg());
        let uninterrupted = rept.run(Engine::PerWorker, &stream);

        for engine in Engine::all() {
            let mut first = ResumableRun::with_engine(rept.clone(), engine);
            let split = stream.len() / 2;
            first.process_batch(&stream[..split]);
            let blob = first.checkpoint_bytes();
            drop(first);

            let mut resumed = ResumableRun::from_checkpoint_bytes(&blob).expect("valid blob");
            assert_eq!(resumed.position(), split as u64);
            assert_eq!(resumed.config(), &cfg());
            assert_eq!(resumed.engine(), engine, "engine survives the roundtrip");
            resumed.process_batch(&stream[split..]);
            let final_est = resumed.finalize();
            assert_estimates_equal(&final_est, &uninterrupted, engine.name());
        }
    }

    /// An RPCK restore rebuilds the fused structures edge by edge, and
    /// `stored_bytes` stays the O(1) running count through it — debug
    /// builds check that count against the full walk on every call —
    /// and through later batches and a clone, on the independent,
    /// full-group and masked layouts, with hubs past the promotion
    /// threshold. Two restores of one blob account identically.
    #[test]
    fn restore_keeps_the_running_byte_count_exact() {
        let stream = rept_gen::chung_lu(&GeneratorConfig::new(1000, 5), 6000, 2.1, 0.0);
        let split = stream.len() / 2;
        let hub_degree = stream[..split]
            .iter()
            .filter(|e| e.u() == 0 || e.v() == 0)
            .count();
        assert!(
            hub_degree > 2 * 128,
            "node 0 is a hub before the cut: {hub_degree}"
        );
        for c in [2u64, 3, 6, 7] {
            let rept = Rept::new(ReptConfig::new(3, c).with_seed(5));
            let mut first = ResumableRun::with_engine(rept, Engine::FusedHybrid);
            first.process_batch(&stream[..split]);
            let blob = first.checkpoint_bytes();
            let mut a = ResumableRun::from_checkpoint_bytes(&blob).expect("valid blob");
            let mut b = ResumableRun::from_checkpoint_bytes(&blob).expect("valid blob");
            assert_eq!(a.stored_bytes(), b.stored_bytes(), "c={c} restored");
            for batch in stream[split..].chunks(256) {
                a.process_batch(batch);
                b.process_batch(batch);
                assert_eq!(a.stored_bytes(), b.stored_bytes(), "c={c} resumed");
            }
            assert!(a.clone().stored_bytes() <= a.stored_bytes(), "c={c} clone");
        }
    }

    #[test]
    fn sliced_checkpoint_resume_is_bit_identical_on_every_engine() {
        // The distributed contract end to end inside one process: each
        // slice runs, checkpoints (format v6), restores, finishes — and
        // the recombined shards are bit-identical to the single
        // full-slice oracle. Exercised on every engine and on both an
        // exact (c = c₁m) and a mixed (c₂ ≠ 0) layout.
        let stream = stream();
        for c in [6u64, 7] {
            let cfg = ReptConfig::new(3, c).with_seed(11).with_eta(true);
            let rept = Rept::new(cfg);
            let uninterrupted = rept.run(Engine::PerWorker, &stream);
            let split = stream.len() / 2;
            for engine in Engine::all() {
                let mut aggregates = Vec::new();
                for index in 0..2u32 {
                    let slice = GroupSlice::new(index, 2);
                    let mut shard = ResumableRun::with_sliced_engine(rept.clone(), engine, slice);
                    shard.process_batch(&stream[..split]);
                    let blob = shard.checkpoint_bytes();
                    drop(shard);
                    let mut resumed =
                        ResumableRun::from_checkpoint_bytes(&blob).expect("valid sliced blob");
                    assert_eq!(resumed.group_slice(), slice, "slice survives the roundtrip");
                    assert_eq!(resumed.position(), split as u64);
                    assert_eq!(resumed.engine(), engine);
                    // The shard's own estimate (the padded local view)
                    // must be defined right after restore.
                    assert!(resumed.estimate().global.is_finite());
                    resumed.process_batch(&stream[split..]);
                    aggregates.extend(
                        resumed
                            .counters_for(&Touched::All)
                            .expect("engine runs have aggregates"),
                    );
                }
                let est = rept.finalize_groups(aggregates);
                assert_estimates_equal(
                    &est,
                    &uninterrupted,
                    &format!("{} c={c} sharded resume", engine.name()),
                );
            }
        }
    }

    #[test]
    fn sliced_blob_slice_fields_are_validated() {
        let rept = Rept::new(cfg());
        let run =
            ResumableRun::with_sliced_engine(rept, Engine::FusedHybrid, GroupSlice::new(1, 2));
        let blob = run.checkpoint_bytes();
        // The slice fields sit right after the 46-byte header (magic 4 +
        // version 4 + m/c/seed 24 + flags 3 + engine 1 + position 8 +
        // truncation 8): index u64, count u64.
        let slice_at = 4 + 4 + 24 + 3 + 1 + 8 + 8;
        let mut bad = blob.clone();
        bad[slice_at + 8..slice_at + 16].copy_from_slice(&0u64.to_le_bytes());
        assert!(matches!(
            ResumableRun::from_checkpoint_bytes(&bad),
            Err(SnapshotError::Invalid("group slice"))
        ));
        let mut swapped = blob;
        swapped[slice_at..slice_at + 8].copy_from_slice(&7u64.to_le_bytes());
        assert!(matches!(
            ResumableRun::from_checkpoint_bytes(&swapped),
            Err(SnapshotError::Invalid("group slice"))
        ));
    }

    #[test]
    fn file_checkpoint_roundtrip() {
        let stream = stream();
        let mut run = ResumableRun::new(Rept::new(cfg()));
        run.process_batch(&stream[..150]);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rept-ckpt-{}.rpck", std::process::id()));
        run.checkpoint_to_file(&path).expect("write checkpoint");
        let back = ResumableRun::from_checkpoint_file(&path).expect("read checkpoint");
        assert_eq!(back.position(), 150);
        assert_eq!(back.engine(), run.engine());
        assert_estimates_equal(&back.estimate(), &run.estimate(), "file roundtrip");
        std::fs::remove_file(&path).ok();
        assert!(matches!(
            ResumableRun::from_checkpoint_file(&path),
            Err(SnapshotError::Io(_))
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Legacy RPCK blobs — v1 (per-worker), v2 with engine codes 0,
        /// 1 and 2, and v3 / v4 / sliced v6 with codes 1 and 2 (all from
        /// the frozen encoders) — restore through the current reader and
        /// finish bit-identical to an uninterrupted run, on
        /// duplicate-edge streams across all combination paths. Codes 1
        /// and 2 restore into the fused hybrid core.
        #[test]
        fn legacy_blobs_restore_bit_identical(
            pairs in prop_vec((0u32..24, 0u32..24), 1..120),
            m in 2u64..6,
            c in 1u64..14,
            seed in any::<u64>(),
            split_sel in any::<u64>(),
        ) {
            let stream: Vec<Edge> = pairs
                .into_iter()
                .filter_map(|(u, v)| Edge::try_new(u, v))
                .collect();
            let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(true);
            let rept = Rept::new(cfg);
            let uninterrupted = rept.run(Engine::PerWorker, &stream);
            let split = (split_sel as usize) % (stream.len() + 1);
            let (head, tail) = stream.split_at(split);

            let mut workers = ResumableRun::with_engine(rept.clone(), Engine::PerWorker);
            workers.process_batch(head);
            let mut fused = ResumableRun::with_engine(rept.clone(), Engine::FusedHybrid);
            fused.process_batch(head);
            let mut blobs = vec![
                ("v1 code 0", Engine::PerWorker, frozen_v1_blob(&workers)),
                ("v2 code 0", Engine::PerWorker, frozen_blob(&workers, 2, 0)),
            ];
            for (what, version, code) in [
                ("v2 code 1", 2, 1),
                ("v2 code 2", 2, 2),
                ("v3 code 1", 3, 1),
                ("v3 code 2", 3, 2),
                ("v4 code 1", 4, 1),
                ("v4 code 2", 4, 2),
            ] {
                blobs.push((what, Engine::FusedHybrid, frozen_blob(&fused, version, code)));
            }
            for (what, engine, blob) in blobs {
                let what = format!("{what} m={m} c={c}");
                assert_blob_finishes(&blob, engine, split, tail, &uninterrupted, &what);
            }

            // Sliced v6 blobs: each shard restores, finishes, and the
            // shards recombine to the oracle.
            if rept.groups().len() >= 2 {
                for code in [1u8, 2] {
                    let mut aggregates = Vec::new();
                    for index in 0..2u32 {
                        let slice = GroupSlice::new(index, 2);
                        let mut shard = ResumableRun::with_sliced_engine(
                            rept.clone(),
                            Engine::FusedHybrid,
                            slice,
                        );
                        shard.process_batch(head);
                        let mut resumed =
                            ResumableRun::from_checkpoint_bytes(&frozen_blob(&shard, 6, code))
                                .unwrap_or_else(|e| panic!("v6 code {code} must restore: {e}"));
                        prop_assert_eq!(resumed.group_slice(), slice);
                        prop_assert_eq!(resumed.engine(), Engine::FusedHybrid);
                        resumed.process_batch(tail);
                        aggregates.extend(resumed.counters_for(&Touched::All).expect("engine run"));
                    }
                    let est = rept.finalize_groups(aggregates);
                    assert_estimates_equal(
                        &est,
                        &uninterrupted,
                        &format!("v6 code {code} m={m} c={c}"),
                    );
                }
            }
        }

        /// The live fused writer emits, byte for byte, what the frozen
        /// fused-sorted (code 2) encoder of the shared layout emits once
        /// its engine byte reads 4 — at `c < m`, `c = m`, `c = k·m` and
        /// `c = k·m + r`, unsliced (v4) and in every 2-way group slice
        /// (v6). A round trip alone would pass a writer that moved the
        /// on-disk layout.
        #[test]
        fn fused_blobs_keep_the_shared_layout_bytes(
            pairs in prop_vec((0u32..24, 0u32..24), 1..120),
            m in 2u64..6,
            k in 1u64..4,
            r_sel in any::<u64>(),
            seed in any::<u64>(),
            split_sel in any::<u64>(),
        ) {
            let stream: Vec<Edge> = pairs
                .into_iter()
                .filter_map(|(u, v)| Edge::try_new(u, v))
                .collect();
            let split = (split_sel as usize) % (stream.len() + 1);
            let r = 1 + r_sel % (m - 1);
            for c in [r, m, (k + 1) * m, k * m + r] {
                let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(true);
                let rept = Rept::new(cfg);
                let mut slices = vec![GroupSlice::FULL];
                if rept.groups().len() >= 2 {
                    slices.extend([GroupSlice::new(0, 2), GroupSlice::new(1, 2)]);
                }
                for slice in slices {
                    let mut run =
                        ResumableRun::with_sliced_engine(rept.clone(), Engine::FusedHybrid, slice);
                    run.process_batch(&stream[..split]);
                    let version = if slice.is_full() { 4 } else { 6 };
                    let mut want = frozen_blob(&run, version, 2);
                    want[35] = 4;
                    prop_assert!(
                        run.checkpoint_bytes() == want,
                        "m={} c={} slice {}/{}",
                        m,
                        c,
                        slice.index(),
                        slice.count()
                    );
                }
            }
        }

        /// The current writer/reader round-trips mid-stream state on
        /// every engine, and the resumed run finishes bit-identical.
        #[test]
        fn current_format_roundtrip_is_bit_identical(
            pairs in prop_vec((0u32..20, 0u32..20), 1..100),
            m in 2u64..6,
            c in 1u64..14,
            seed in any::<u64>(),
            split_sel in any::<u64>(),
        ) {
            let stream: Vec<Edge> = pairs
                .into_iter()
                .filter_map(|(u, v)| Edge::try_new(u, v))
                .collect();
            let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(true);
            let rept = Rept::new(cfg);
            let uninterrupted = rept.run(Engine::PerWorker, &stream);
            let split = (split_sel as usize) % (stream.len() + 1);
            for engine in Engine::all() {
                let mut run = ResumableRun::with_engine(rept.clone(), engine);
                run.process_batch(&stream[..split]);
                let blob = run.checkpoint_bytes();
                let mut resumed = ResumableRun::from_checkpoint_bytes(&blob).expect("v3 blob");
                resumed.process_batch(&stream[split..]);
                let est = resumed.finalize();
                prop_assert_eq!(est.global, uninterrupted.global, "{}", engine.name());
                prop_assert_eq!(&est.locals, &uninterrupted.locals);
                prop_assert_eq!(est.eta_hat, uninterrupted.eta_hat);
            }
        }
    }

    #[test]
    fn v3_shared_layouts_store_the_union_once() {
        // At c = 3m + 2 the v2 format repeated the shared edge set once
        // per full group and listed the remainder's subset; v3 stores
        // the union once plus a counted remainder section, so the blob
        // must be substantially smaller.
        let stream = stream();
        let rept = Rept::new(ReptConfig::new(3, 11).with_seed(4).with_eta(true));
        let mut run = ResumableRun::new(rept);
        run.process_batch(&stream);
        let v3 = run.checkpoint_bytes();
        let v2 = frozen_v2_blob(&run);
        assert!(
            v3.len() < v2.len(),
            "v3 ({}) should undercut v2 ({})",
            v3.len(),
            v2.len()
        );
        let resumed = ResumableRun::from_checkpoint_bytes(&v3).expect("v3 blob");
        assert_estimates_equal(&resumed.estimate(), &run.estimate(), "v3 roundtrip");
    }

    #[test]
    fn anytime_estimate_is_available_mid_stream() {
        let stream = stream();
        let mut run = ResumableRun::new(Rept::new(cfg()));
        for &e in &stream[..stream.len() / 3] {
            run.process(e);
        }
        let early = run.estimate();
        assert!(early.global >= 0.0);
        for &e in &stream[stream.len() / 3..] {
            run.process(e);
        }
        // The run is still usable after the interim estimate.
        assert_eq!(run.position(), stream.len() as u64);
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(b"nop").err(),
            Some(SnapshotError::Truncated),
            "3 bytes cannot even hold the magic"
        );
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(b"nope").err(),
            Some(SnapshotError::BadMagic)
        );
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(b"XXXX\x01\x00\x00\x00").err(),
            Some(SnapshotError::BadMagic),
        );
        let mut blob = ResumableRun::new(Rept::new(cfg())).checkpoint_bytes();
        // Corrupt the version.
        blob[4] = 99;
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&blob).err(),
            Some(SnapshotError::BadVersion(99))
        );
        // Corrupt the engine byte (offset: magic 4 + version 4 + config 27).
        let mut blob = ResumableRun::new(Rept::new(cfg())).checkpoint_bytes();
        blob[35] = 7;
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&blob).err(),
            Some(SnapshotError::Invalid("engine code"))
        );
        // Corrupt the sorted layout tag (directly after the position and
        // journal truncation fields: 36 + 8 + 8).
        let mut blob = ResumableRun::new(Rept::new(cfg())).checkpoint_bytes();
        blob[52] = 9;
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&blob).err(),
            Some(SnapshotError::Invalid("sorted layout tag"))
        );
        // A journal truncation ahead of the position is impossible: no
        // checkpoint can have retired journal records it never applied.
        let mut blob = ResumableRun::new(Rept::new(cfg())).checkpoint_bytes();
        blob[44] = 1;
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&blob).err(),
            Some(SnapshotError::Invalid("journal truncation beyond position"))
        );
    }

    #[test]
    fn rejects_overflowing_stored_counts() {
        // Stored counts [u64::MAX, E + 1] wrap to exactly E when summed
        // unchecked, so the edge-set check alone would accept them (and
        // a debug build panicked on the overflow instead).
        let rept = Rept::new(ReptConfig::new(4, 2).with_seed(3));
        let mut run = ResumableRun::with_engine(rept, Engine::FusedHybrid);
        run.process_batch(&stream()[..200]);
        let edges: usize = run.estimate().diagnostics.stored_edges.iter().sum();
        let mut blob = run.checkpoint_bytes();
        // Header 52, layout tag 1, group count 8, edge count 8, the
        // edges, then τ per worker before the stored counts.
        let at = 52 + 1 + 8 + 8 + 8 * edges + 2 * 8;
        let field = |b: &[u8], i: usize| u64::from_le_bytes(b[i..i + 8].try_into().unwrap());
        assert_eq!(field(&blob, at) + field(&blob, at + 8), edges as u64);
        blob[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        blob[at + 8..at + 16].copy_from_slice(&(edges as u64 + 1).to_le_bytes());
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&blob).err(),
            Some(SnapshotError::Invalid("stored counts overflow"))
        );
    }

    #[test]
    fn rejects_processor_counts_the_blob_cannot_hold() {
        // A bare 52-byte v4 header naming m = 2, c = 2^34: restore used
        // to size the layout by `c` before reading any state, and
        // aborted on the allocation. Every engine blob holds 16 bytes
        // per processor at least.
        let bound = Some(SnapshotError::Invalid("processor count beyond the blob"));
        for code in [0u8, 4] {
            let mut blob = Vec::new();
            blob.extend_from_slice(b"RPCK");
            blob.extend_from_slice(&4u32.to_le_bytes());
            blob.extend_from_slice(&2u64.to_le_bytes());
            blob.extend_from_slice(&(1u64 << 34).to_le_bytes());
            blob.extend_from_slice(&0u64.to_le_bytes());
            blob.extend_from_slice(&[0, 0, 0, code]);
            blob.extend_from_slice(&[0; 16]);
            assert_eq!(blob.len(), 52);
            assert_eq!(
                ResumableRun::from_checkpoint_bytes(&blob).err(),
                bound,
                "code {code}"
            );
        }
        // A real blob whose processor count was raised past what its
        // state can hold (the count field sits after magic, version, m).
        for engine in Engine::all() {
            let mut run = ResumableRun::with_engine(Rept::new(cfg()), engine);
            run.process_batch(&stream()[..100]);
            let blob = run.checkpoint_bytes();
            for c in [(blob.len() as u64 - 52) / 16 + 1, 1 << 40, u64::MAX] {
                let mut raised = blob.clone();
                raised[16..24].copy_from_slice(&c.to_le_bytes());
                assert_eq!(
                    ResumableRun::from_checkpoint_bytes(&raised).err(),
                    bound,
                    "{} c={c}",
                    engine.name()
                );
            }
        }
        // A sliced v6 fused header holds only its kept groups' state, so
        // the blob bound does not apply: the fixed ceiling refuses it.
        let mut blob = Vec::new();
        blob.extend_from_slice(b"RPCK");
        blob.extend_from_slice(&6u32.to_le_bytes());
        blob.extend_from_slice(&2u64.to_le_bytes());
        blob.extend_from_slice(&(1u64 << 34).to_le_bytes());
        blob.extend_from_slice(&0u64.to_le_bytes());
        blob.extend_from_slice(&[0, 0, 0, 4]);
        blob.extend_from_slice(&[0; 16]);
        blob.extend_from_slice(&0u64.to_le_bytes());
        blob.extend_from_slice(&2u64.to_le_bytes());
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&blob).err(),
            Some(SnapshotError::Invalid("processor count above the ceiling"))
        );
    }

    #[test]
    fn rejects_truncation_and_trailing_bytes() {
        let stream = stream();
        for engine in Engine::all() {
            let mut run = ResumableRun::with_engine(Rept::new(cfg()), engine);
            run.process_batch(&stream[..100]);
            let blob = run.checkpoint_bytes();
            assert_eq!(
                ResumableRun::from_checkpoint_bytes(&blob[..blob.len() - 1]).err(),
                Some(SnapshotError::Truncated),
                "{}",
                engine.name()
            );
            let mut extended = blob.clone();
            extended.push(0);
            assert_eq!(
                ResumableRun::from_checkpoint_bytes(&extended).err(),
                Some(SnapshotError::Invalid("trailing bytes")),
                "{}",
                engine.name()
            );
        }
    }

    #[test]
    fn reservoir_checkpoint_roundtrip_is_bit_identical() {
        use crate::reservoir::EDGE_COST_BYTES;
        let stream = stream();
        let rcfg = ReptConfig::new(2, 1).with_seed(21).with_locals(true);
        let mem = (40 * EDGE_COST_BYTES) as u64;
        let mut live = ResumableRun::with_reservoir(rcfg, mem);
        assert_eq!(live.memory_budget(), Some(mem));
        live.process_batch(&stream[..stream.len() / 2]);
        let blob = live.checkpoint_bytes();
        // Reservoir blobs carry the v5 version and engine code 3.
        assert_eq!(u32::from_le_bytes(blob[4..8].try_into().unwrap()), 5);
        assert_eq!(blob[35], 3);
        let mut resumed = ResumableRun::from_checkpoint_bytes(&blob).expect("v5 blob");
        assert_eq!(resumed.position(), live.position());
        assert_eq!(resumed.memory_budget(), Some(mem));
        for &e in &stream[stream.len() / 2..] {
            live.process(e);
            resumed.process(e);
        }
        let (a, b) = (live.finalize(), resumed.finalize());
        assert_eq!(a.global, b.global);
        assert_eq!(a.locals, b.locals);
        assert_eq!(a.diagnostics.stored_edges, b.diagnostics.stored_edges);
    }

    #[test]
    fn reservoir_file_roundtrip_without_locals() {
        use crate::reservoir::MIN_MEMORY_BUDGET;
        let stream = stream();
        let rcfg = ReptConfig::new(3, 5).with_seed(2);
        let mut run = ResumableRun::with_reservoir(rcfg, MIN_MEMORY_BUDGET * 10);
        run.process_batch(&stream[..200]);
        let dir = std::env::temp_dir();
        let path = dir.join(format!("rept-resv-{}.rpck", std::process::id()));
        run.checkpoint_to_file(&path).expect("write checkpoint");
        let back = ResumableRun::from_checkpoint_file(&path).expect("read checkpoint");
        std::fs::remove_file(&path).ok();
        assert_eq!(back.position(), 200);
        assert_eq!(back.config(), run.config());
        assert_eq!(back.estimate().global, run.estimate().global);
        assert!(back.estimate().locals.is_empty(), "locals were off");
        // Capacities may differ (the restored tables are rebuilt without
        // the live run's churn), but both stay under the byte budget.
        for stored in [run.stored_bytes(), back.stored_bytes()] {
            assert!(stored > 0 && stored as u64 <= run.memory_budget().unwrap());
        }
    }

    #[test]
    fn reservoir_blob_rejects_corruption() {
        use crate::reservoir::EDGE_COST_BYTES;
        let stream = stream();
        let rcfg = ReptConfig::new(2, 1).with_seed(5).with_locals(true);
        let mut run = ResumableRun::with_reservoir(rcfg, (16 * EDGE_COST_BYTES) as u64);
        run.process_batch(&stream[..100]);
        let blob = run.checkpoint_bytes();
        // Truncation anywhere inside the section is caught.
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&blob[..blob.len() - 1]).err(),
            Some(SnapshotError::Truncated)
        );
        // Trailing garbage is caught.
        let mut extended = blob.clone();
        extended.push(0);
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&extended).err(),
            Some(SnapshotError::Invalid("trailing bytes"))
        );
        // The reservoir code on a pre-v5 header is corruption, not an
        // early version of the mode.
        let mut v4 = ResumableRun::new(Rept::new(cfg())).checkpoint_bytes();
        v4[35] = 3;
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&v4).err(),
            Some(SnapshotError::Invalid("engine code"))
        );
        // A clock behind the sample is impossible.
        let mut short = blob.clone();
        short[36..44].copy_from_slice(&3u64.to_le_bytes());
        short[44..52].copy_from_slice(&3u64.to_le_bytes());
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&short).err(),
            Some(SnapshotError::Invalid("reservoir fuller than its clock"))
        );
        // An edge budget other than the one the byte budget affords is
        // refused before anything is sized by it: 2^40 slots would
        // abort on the allocation.
        let mut young = ResumableRun::with_reservoir(rcfg, (16 * EDGE_COST_BYTES) as u64);
        young.process_batch(&stream[..2]);
        let mut huge = young.checkpoint_bytes();
        huge[60..68].copy_from_slice(&(1u64 << 40).to_le_bytes());
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&huge).err(),
            Some(SnapshotError::Invalid("edge budget out of range"))
        );
    }

    /// Real v5 blobs: locals on and off, each with a reservoir below and
    /// at its capacity.
    fn reservoir_blobs() -> &'static [Vec<u8>] {
        use crate::reservoir::EDGE_COST_BYTES;
        static BLOBS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        BLOBS.get_or_init(|| {
            let stream = stream();
            let mut blobs = Vec::new();
            for locals in [true, false] {
                let rcfg = ReptConfig::new(2, 1).with_seed(13).with_locals(locals);
                for (slots, edges) in [(40, 25), (16, 120)] {
                    let mut run =
                        ResumableRun::with_reservoir(rcfg, slots * EDGE_COST_BYTES as u64);
                    run.process_batch(&stream[..edges]);
                    blobs.push(run.checkpoint_bytes());
                }
            }
            blobs
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// A v5 blob under bit flips, a truncation, or a splice of two
        /// real blobs decodes to a typed error or to a run whose own
        /// checkpoint decodes back to identical bytes — never a panic or
        /// an abort.
        #[test]
        fn mutated_reservoir_blobs_are_errors_or_fixed_points(
            picks in (0usize..4, 0usize..4),
            flips in prop_vec((any::<usize>(), 0u8..8), 1..6),
            cuts in (any::<usize>(), any::<usize>()),
        ) {
            let blobs = reservoir_blobs();
            let (a, b) = (&blobs[picks.0], &blobs[picks.1]);
            let mut flipped = a.clone();
            for &(at, bit) in &flips {
                flipped[at % a.len()] ^= 1 << bit;
            }
            let cut = cuts.0 % (a.len() + 1);
            let truncated = a[..cut.min(a.len() - 1)].to_vec();
            let spliced = [&a[..cut], &b[cuts.1 % (b.len() + 1)..]].concat();
            // The same cut in both: header and prefix of one, rest of the
            // other.
            let aligned = [&a[..cut], &b[cut.min(b.len())..]].concat();
            let mutations = [
                ("flip", flipped),
                ("truncation", truncated),
                ("splice", spliced),
                ("aligned splice", aligned),
            ];
            for (what, mutated) in mutations {
                let Ok(run) = ResumableRun::from_checkpoint_bytes(&mutated) else {
                    continue;
                };
                let bytes = run.checkpoint_bytes();
                let again = ResumableRun::from_checkpoint_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{what}: a decoded run's own blob fails: {e}"));
                prop_assert_eq!(again.checkpoint_bytes(), bytes, "{}", what);
            }
        }
    }

    /// Real engine blobs: fused and per-worker, v4 full and v6 sliced,
    /// over one group (`c < m`), full groups (`c = 2m`) and full groups
    /// plus a remainder (`c = 2m + 1`), with locals and η each on and
    /// off.
    fn engine_blobs() -> &'static [Vec<u8>] {
        static BLOBS: std::sync::OnceLock<Vec<Vec<u8>>> = std::sync::OnceLock::new();
        BLOBS.get_or_init(|| {
            let stream = stream();
            let mut blobs = Vec::new();
            for engine in Engine::all() {
                for c in [2u64, 6, 7] {
                    for (locals, eta) in
                        [(true, true), (true, false), (false, true), (false, false)]
                    {
                        let cfg = ReptConfig::new(3, c)
                            .with_seed(17)
                            .with_locals(locals)
                            .with_eta(eta);
                        let rept = Rept::new(cfg);
                        let mut slices = vec![GroupSlice::FULL];
                        if rept.groups().len() >= 2 {
                            slices.push(GroupSlice::new(1, 2));
                        }
                        for slice in slices {
                            let mut run =
                                ResumableRun::with_sliced_engine(rept.clone(), engine, slice);
                            run.process_batch(&stream[..120]);
                            blobs.push(run.checkpoint_bytes());
                        }
                    }
                }
            }
            blobs
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        /// An engine blob under bit flips, a truncation, or a splice of
        /// two real blobs decodes to a typed error or to a run whose own
        /// checkpoint decodes back to identical bytes — never a panic or
        /// an abort. A fused restore rebuilds the structure insert by
        /// insert from whatever edges the blob holds.
        #[test]
        fn mutated_engine_blobs_are_errors_or_fixed_points(
            picks in (any::<usize>(), any::<usize>()),
            flips in prop_vec((any::<usize>(), 0u8..8), 1..6),
            cuts in (any::<usize>(), any::<usize>()),
        ) {
            let blobs = engine_blobs();
            let (a, b) = (&blobs[picks.0 % blobs.len()], &blobs[picks.1 % blobs.len()]);
            let mut flipped = a.clone();
            for &(at, bit) in &flips {
                flipped[at % a.len()] ^= 1 << bit;
            }
            let cut = cuts.0 % (a.len() + 1);
            let truncated = a[..cut.min(a.len() - 1)].to_vec();
            let spliced = [&a[..cut], &b[cuts.1 % (b.len() + 1)..]].concat();
            let aligned = [&a[..cut], &b[cut.min(b.len())..]].concat();
            let mutations = [
                ("flip", flipped),
                ("truncation", truncated),
                ("splice", spliced),
                ("aligned splice", aligned),
            ];
            for (what, mutated) in mutations {
                let Ok(run) = ResumableRun::from_checkpoint_bytes(&mutated) else {
                    continue;
                };
                let bytes = run.checkpoint_bytes();
                let again = ResumableRun::from_checkpoint_bytes(&bytes)
                    .unwrap_or_else(|e| panic!("{what}: a decoded run's own blob fails: {e}"));
                prop_assert_eq!(again.checkpoint_bytes(), bytes, "{}", what);
            }
        }
    }

    #[test]
    fn engine_blobs_still_write_version_four() {
        let mut run = ResumableRun::new(Rept::new(cfg()));
        run.process_batch(&stream()[..50]);
        let blob = run.checkpoint_bytes();
        assert_eq!(u32::from_le_bytes(blob[4..8].try_into().unwrap()), 4);
        assert_eq!(run.memory_budget(), None);
        assert!(run.stored_bytes() > 0);
        // Writers emit engine codes 0 and 4 only (3 is the reservoir).
        assert_eq!(blob[35], 4, "fused hybrid");
        let workers = ResumableRun::with_engine(Rept::new(cfg()), Engine::PerWorker);
        assert_eq!(workers.checkpoint_bytes()[35], 0, "per-worker");
    }

    #[test]
    fn journal_truncation_defaults() {
        let stream = stream();
        let mut run = ResumableRun::new(Rept::new(cfg()));
        run.process_batch(&stream[..120]);
        // A v4 checkpoint retires journal records up to its position:
        // the header's truncation field (bytes 44..52, after the
        // position) repeats it.
        let blob = run.checkpoint_bytes();
        let field = |at: usize| u64::from_le_bytes(blob[at..at + 8].try_into().unwrap());
        assert_eq!((field(36), field(44)), (120, 120));
        let restored = ResumableRun::from_checkpoint_bytes(&blob).unwrap();
        assert_eq!(restored.position(), 120);
        // The field is still validated: a truncation past the position
        // is corrupt.
        let mut past = blob.clone();
        past[44..52].copy_from_slice(&121u64.to_le_bytes());
        assert_eq!(
            ResumableRun::from_checkpoint_bytes(&past).err(),
            Some(SnapshotError::Invalid("journal truncation beyond position"))
        );
        // Pre-v4 blobs predate journals and carry no such field.
        let mut v2run = ResumableRun::new(Rept::new(cfg()));
        v2run.process_batch(&stream[..80]);
        let restored = ResumableRun::from_checkpoint_bytes(&frozen_v2_blob(&v2run)).unwrap();
        assert_eq!(restored.position(), 80);
    }

    #[test]
    fn durable_write_rename_replaces_atomically() {
        let path = std::env::temp_dir().join(format!("rept-dwr-{}.bin", std::process::id()));
        durable_write_rename(&path, b"first").expect("write");
        assert_eq!(std::fs::read(&path).unwrap(), b"first");
        durable_write_rename(&path, b"second").expect("replace");
        assert_eq!(std::fs::read(&path).unwrap(), b"second");
        // The staging file never outlives the call.
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn error_display() {
        assert!(SnapshotError::BadVersion(7).to_string().contains('7'));
        assert!(SnapshotError::Truncated.to_string().contains("truncated"));
        assert!(SnapshotError::Io("nope".into())
            .to_string()
            .contains("nope"));
    }
}
