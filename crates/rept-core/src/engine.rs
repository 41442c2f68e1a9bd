//! The unified incremental execution core.
//!
//! Every way of running REPT is the same algorithm over the same
//! counters; what used to differ was the *driver*: the batch methods on
//! [`Rept`] owned one copy of the group build/drain/finalize logic, the
//! incremental `ResumableRun` a second, and the serving subsystem a
//! third on top of that. This module collapses them into one type:
//!
//! * [`EngineCore`] owns the engine-specific state of a run — per-worker
//!   workers, or the fused layout with its shared full-group /
//!   masked-remainder structures — behind four
//!   operations: [`EngineCore::ingest_batch`] (apply stream edges),
//!   [`EngineCore::compact`] (fold pending insertions into
//!   query-optimal form), [`EngineCore::snapshot_counters`] (anytime,
//!   non-consuming per-group aggregates) and [`EngineCore::finalize`]
//!   (consume the run).
//! * **Batch execution is "ingest everything, then finalize"**: the
//!   whole-stream drivers on [`Rept`] construct a core, feed it the
//!   stream, and combine the aggregates — nothing else.
//! * The incremental layers (`ResumableRun`, `rept-serve` — including
//!   every tenant of its multi-tenant router, which is one core per
//!   tenant) hold a core and feed it batches as they arrive;
//!   checkpoints serialise the core's state. Because every driver runs
//!   the identical code, batch, resume and serve are bit-identical by
//!   construction rather than by proptest alone.
//!
//! The full layer diagram — who constructs a core, who wraps whom, and
//! where the checkpoint codec sits — is drawn in `docs/ARCHITECTURE.md`
//! at the repository root.
//!
//! Results are independent of how the stream is split into
//! `ingest_batch` calls (batch boundaries only influence *when*
//! compaction runs, a pure representation change), which is what makes
//! checkpoint/resume at any batch boundary exact.
//!
//! ## The fused engine's shared structures
//!
//! A fused core picks the strongest sharing the layout admits:
//!
//! * `c₂ = 0`, ≥ 2 full groups — one `FusedFullGroups` walk serves
//!   every full group ([`MultiHybridTaggedAdjacency`]).
//! * `c₂ ≠ 0`, ≥ 1 full group — one `FusedMaskedGroups` walk serves
//!   the full groups **and** the remainder group
//!   ([`MaskedHybridTaggedAdjacency`]'s masked tag column marks the
//!   remainder's stored subset), so the remainder pays no second
//!   structure walk.
//! * otherwise — one independent `FusedGroup` per group.
//!
//! [`MultiHybridTaggedAdjacency`]: rept_graph::hybrid_tagged::MultiHybridTaggedAdjacency
//! [`MaskedHybridTaggedAdjacency`]: rept_graph::hybrid_tagged::MaskedHybridTaggedAdjacency

use rept_graph::edge::Edge;

use crate::config::ReptConfig;
use crate::estimate::ReptEstimate;
use crate::estimator::{Engine, GroupAggregate, GroupSpec, Rept};
use crate::fused::{FusedFullGroups, FusedGroup, FusedMaskedGroups};
use crate::worker::SemiTriangleWorker;

/// Edges per batch in the group-major fused drivers: small enough to
/// keep a batch L1/L2-resident, large enough to amortise the per-batch
/// group-loop overhead. [`EngineCore::ingest_batch`] re-chunks larger
/// batches internally, so callers may pass streams of any size.
pub(crate) const FUSED_BATCH: usize = 4096;

/// The fused engine's shared state: all full groups over one multi-tag
/// structure, or full groups *plus* the remainder over one masked
/// structure.
#[derive(Debug, Clone)]
pub(crate) enum SharedState {
    /// ≥ 2 full groups, no remainder folded in.
    Full(Box<FusedFullGroups>),
    /// ≥ 1 full group and the remainder group.
    Masked(Box<FusedMaskedGroups>),
}

impl SharedState {
    #[inline]
    fn process(&mut self, e: Edge) {
        match self {
            SharedState::Full(s) => s.process(e),
            SharedState::Masked(s) => s.process(e),
        }
    }

    fn compact(&mut self) {
        match self {
            SharedState::Full(s) => s.compact(),
            SharedState::Masked(s) => s.compact(),
        }
    }

    fn snapshot_aggregates(&self) -> Vec<GroupAggregate> {
        match self {
            SharedState::Full(s) => s.snapshot_aggregates(),
            SharedState::Masked(s) => s.snapshot_aggregates(),
        }
    }

    fn stored_bytes(&self) -> usize {
        match self {
            SharedState::Full(s) => s.adj.approx_bytes(),
            SharedState::Masked(s) => s.adj.approx_bytes(),
        }
    }

    fn into_aggregates(self) -> Vec<GroupAggregate> {
        match self {
            SharedState::Full(s) => s.into_aggregates(),
            SharedState::Masked(s) => s.into_aggregates(),
        }
    }
}

/// The engine-specific half of a core: what [`EngineCore`] mutates per
/// edge. `pub(crate)` so the checkpoint codec in [`crate::resume`] can
/// serialise and restore it.
#[derive(Debug, Clone)]
pub(crate) enum CoreState {
    /// One [`SemiTriangleWorker`] per processor — the paper's cost
    /// model executed literally; the reference oracle.
    PerWorker { workers: Vec<SemiTriangleWorker> },
    /// The fused hybrid layout: optional shared structure plus
    /// independent groups for whatever the sharing cannot cover.
    Fused {
        shared: Option<SharedState>,
        rest: Vec<FusedGroup>,
    },
}

/// A round-robin slice of a layout's hash groups — which groups a core
/// owns. `GroupSlice::new(i, n)` keeps every group whose layout index
/// is congruent to `i` modulo `n`: the rule the threaded batch driver
/// has always used to spread groups over threads, public so a sharded
/// deployment can split one configuration's processors across
/// processes the same way. REPT groups never communicate mid-stream,
/// so cores over disjoint slices of the same layout reproduce the
/// single-core run exactly — collect every slice's
/// [`EngineCore::snapshot_counters`] and combine them with
/// [`Rept::finalize_groups`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupSlice {
    index: u32,
    count: u32,
}

impl GroupSlice {
    /// The full slice: every group — a standalone, unsharded core.
    pub const FULL: Self = Self { index: 0, count: 1 };

    /// Slice `index` of `count`: keeps groups `index, index + count, …`.
    ///
    /// # Panics
    ///
    /// Panics if `count == 0` or `index >= count`.
    pub fn new(index: u32, count: u32) -> Self {
        assert!(count > 0, "a slice needs at least one part");
        assert!(
            index < count,
            "slice index {index} out of range for count {count}"
        );
        Self { index, count }
    }

    /// Whether this slice owns layout group `gi`.
    pub fn keeps(&self, gi: usize) -> bool {
        gi % (self.count as usize) == self.index as usize
    }

    /// Whether this is the full (unsliced) view.
    pub fn is_full(&self) -> bool {
        self.count == 1
    }

    /// This slice's index in `0..count`.
    pub fn index(&self) -> u32 {
        self.index
    }

    /// How many slices the layout is split into.
    pub fn count(&self) -> u32 {
        self.count
    }
}

/// One run of the REPT estimator on one execution [`Engine`] — the
/// single driver behind the batch methods on [`Rept`], the resumable
/// incremental runs, and the serving subsystem.
///
/// Feed it edges with [`Self::ingest`] / [`Self::ingest_batch`], read
/// an anytime estimate with [`Self::estimate`], and finish with
/// [`Self::into_estimate`]. Batch execution is literally
/// `ingest_batch(stream)` followed by `into_estimate()`.
///
/// ```
/// use rept_core::{Engine, EngineCore, Rept, ReptConfig};
/// use rept_graph::Edge;
///
/// let stream = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
/// let rept = Rept::new(ReptConfig::new(2, 2).with_seed(1));
/// let mut core = EngineCore::with_engine(rept.clone(), Engine::FusedHybrid);
/// core.ingest_batch(&stream);
/// let est = core.into_estimate();
/// // … which is exactly what the whole-stream driver does:
/// assert_eq!(est.global, rept.run(Engine::FusedHybrid, &stream).global);
/// ```
#[derive(Debug, Clone)]
pub struct EngineCore {
    rept: Rept,
    engine: Engine,
    pub(crate) state: CoreState,
    position: u64,
    slice: GroupSlice,
}

impl EngineCore {
    /// Creates a core over every group of the layout, on the default
    /// engine ([`Engine::FusedHybrid`]).
    pub fn new(rept: Rept) -> Self {
        Self::with_engine(rept, Engine::default())
    }

    /// Creates a core over every group of the layout on the given
    /// engine.
    pub fn with_engine(rept: Rept, engine: Engine) -> Self {
        Self::with_slice(rept, engine, GroupSlice::FULL)
    }

    /// Assembles a core from restored parts — the checkpoint decoder's
    /// constructor ([`crate::resume`]).
    pub(crate) fn from_parts(
        rept: Rept,
        engine: Engine,
        state: CoreState,
        position: u64,
        slice: GroupSlice,
    ) -> Self {
        Self {
            rept,
            engine,
            state,
            position,
            slice,
        }
    }

    /// Creates a core owning only the groups its [`GroupSlice`] keeps —
    /// the construction the threaded batch driver uses to spread groups
    /// over threads, and a sharded deployment uses to split one
    /// configuration's processors across processes. Both engines slice
    /// (the per-worker engine allocates its full worker vector but only
    /// drives the kept groups' workers).
    ///
    /// A sliced core's own [`Self::estimate`] is a *local view*: groups
    /// it does not own contribute zero, so the value is biased low.
    /// The true estimate combines every slice's
    /// [`Self::snapshot_counters`] through [`Rept::finalize_groups`].
    ///
    /// # Panics
    ///
    /// Panics if the slice keeps none of the layout's groups (more
    /// slices than groups at this index).
    pub fn with_slice(rept: Rept, engine: Engine, slice: GroupSlice) -> Self {
        let cfg = *rept.config();
        let kept: Vec<GroupSpec> = rept
            .groups()
            .iter()
            .enumerate()
            .filter(|(gi, _)| slice.keeps(*gi))
            .map(|(_, g)| *g)
            .collect();
        assert!(
            !kept.is_empty(),
            "slice {}/{} keeps none of the {} groups",
            slice.index(),
            slice.count(),
            rept.groups().len()
        );
        let state = match engine {
            Engine::PerWorker => CoreState::PerWorker {
                workers: make_workers(&cfg),
            },
            Engine::FusedHybrid => {
                let (shared, rest) = build_shared_state(&cfg, &kept);
                CoreState::Fused { shared, rest }
            }
        };
        Self {
            rept,
            engine,
            state,
            position: 0,
            slice,
        }
    }

    /// The engine driving this core.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReptConfig {
        self.rept.config()
    }

    /// The estimator layout this core runs.
    pub fn rept(&self) -> &Rept {
        &self.rept
    }

    /// Number of edges ingested so far.
    pub fn position(&self) -> u64 {
        self.position
    }

    /// The group slice this core owns ([`GroupSlice::FULL`] for a
    /// standalone, unsharded run).
    pub fn group_slice(&self) -> GroupSlice {
        self.slice
    }

    /// Processes one arriving edge on every group (no compaction — call
    /// [`Self::compact`] or use [`Self::ingest_batch`] for batched
    /// streams).
    pub fn ingest(&mut self, e: Edge) {
        self.position += 1;
        let Self {
            rept, state, slice, ..
        } = self;
        match state {
            CoreState::PerWorker { workers } => {
                let (u, v) = e.as_u64_pair();
                for (gi, g) in rept.groups().iter().enumerate() {
                    if !slice.keeps(gi) {
                        continue;
                    }
                    // Every processor in the group observes the edge …
                    let cell = g.hasher.cell(u, v) as usize;
                    for (off, w) in workers[g.start..g.start + g.size].iter_mut().enumerate() {
                        let closed = w.observe(e);
                        // … and the one owning the edge's cell stores it.
                        if off == cell {
                            w.store(e, closed);
                        }
                    }
                }
            }
            CoreState::Fused { shared, rest } => {
                if let Some(shared) = shared {
                    shared.process(e);
                }
                for g in rest.iter_mut() {
                    g.process(e);
                }
            }
        }
    }

    /// Processes a batch of arriving edges. The fused engine re-chunks
    /// into `FUSED_BATCH`-edge sub-batches and runs group-major within
    /// each (one group's adjacency stays cache-hot while the sub-batch
    /// drains against it), compacting at every boundary. Results are
    /// independent of how the stream is split into batches.
    pub fn ingest_batch(&mut self, batch: &[Edge]) {
        match &mut self.state {
            CoreState::PerWorker { .. } => {
                for &e in batch {
                    self.ingest(e);
                }
                return;
            }
            CoreState::Fused { shared, rest } => {
                for chunk in batch.chunks(FUSED_BATCH) {
                    if let Some(shared) = shared.as_mut() {
                        for &e in chunk {
                            shared.process(e);
                        }
                        shared.compact();
                    }
                    drive_groups(rest, chunk);
                }
            }
        }
        self.position += batch.len() as u64;
    }

    /// Folds every group's pending insertions into query-optimal form —
    /// a pure representation change; estimates are identical before and
    /// after. [`Self::ingest_batch`] already compacts at its internal
    /// batch boundaries.
    pub fn compact(&mut self) {
        match &mut self.state {
            CoreState::PerWorker { .. } => {}
            CoreState::Fused { shared, rest } => {
                if let Some(shared) = shared {
                    shared.compact();
                }
                for g in rest.iter_mut() {
                    g.compact();
                }
            }
        }
    }

    /// The per-group aggregates of the stream seen so far, without
    /// consuming the core (counter state is cloned) — the anytime query
    /// path. Combine them with [`Rept::finalize_groups`], or use
    /// [`Self::estimate`] which does exactly that.
    pub fn snapshot_counters(&self) -> Vec<GroupAggregate> {
        match &self.state {
            CoreState::PerWorker { workers } => self
                .rept
                .aggregate_workers_for(workers, |gi| self.slice.keeps(gi)),
            CoreState::Fused { shared, rest } => {
                let mut aggregates = shared
                    .as_ref()
                    .map(SharedState::snapshot_aggregates)
                    .unwrap_or_default();
                aggregates.extend(rest.iter().map(FusedGroup::snapshot_aggregate));
                aggregates
            }
        }
    }

    /// Consumes the core, yielding the final per-group aggregates (the
    /// kept groups only, for a sliced core).
    pub fn finalize(self) -> Vec<GroupAggregate> {
        let Self {
            rept, state, slice, ..
        } = self;
        Self::finalize_state(&rept, state, slice)
    }

    fn finalize_state(rept: &Rept, state: CoreState, slice: GroupSlice) -> Vec<GroupAggregate> {
        match state {
            CoreState::PerWorker { workers } => {
                rept.aggregate_workers_for(&workers, |gi| slice.keeps(gi))
            }
            CoreState::Fused { shared, rest } => {
                let mut aggregates = shared.map(SharedState::into_aggregates).unwrap_or_default();
                aggregates.extend(rest.into_iter().map(FusedGroup::into_aggregate));
                aggregates
            }
        }
    }

    /// Bytes of adjacency storage currently held by this core, summed
    /// over every structure the engine maintains — the quantity a
    /// serving-tier memory quota governs. Each structure reports its
    /// own `approx_bytes`, and shared structures are counted once,
    /// matching what is actually resident. On the fused-hybrid engine
    /// this is O(1) per structure (a running total), so the serving
    /// tier reads it after every batch; the per-worker oracle walks
    /// every worker's hash sets, which no served workload runs.
    ///
    /// Counter maps (`τ̂_v`, η) are *not* included: their size is
    /// governed by `track_locals` / η tracking, not by admission
    /// control, and [`ReptEstimate::diagnostics`]' `total_bytes`
    /// already reports the counter-inclusive figure.
    pub fn stored_bytes(&self) -> usize {
        match &self.state {
            CoreState::PerWorker { workers } => {
                workers.iter().map(SemiTriangleWorker::stored_bytes).sum()
            }
            CoreState::Fused { shared, rest } => {
                let shared_bytes = shared.as_ref().map_or(0, SharedState::stored_bytes);
                shared_bytes + rest.iter().map(|g| g.adj.approx_bytes()).sum::<usize>()
            }
        }
    }

    /// The estimate for the stream seen so far (anytime,
    /// non-consuming). On a sliced core this is the *local view*:
    /// unowned groups contribute zero aggregates, so the value is
    /// biased low — combine every slice's [`Self::snapshot_counters`]
    /// for the true estimate.
    pub fn estimate(&self) -> ReptEstimate {
        let aggregates = pad_unkept(&self.rept, self.slice, self.snapshot_counters());
        self.rept.finalize_groups(aggregates)
    }

    /// Consumes the core and produces the final estimate (the local
    /// view, for a sliced core — see [`Self::estimate`]).
    pub fn into_estimate(self) -> ReptEstimate {
        let Self {
            rept, state, slice, ..
        } = self;
        let aggregates = pad_unkept(&rept, slice, Self::finalize_state(&rept, state, slice));
        rept.finalize_groups(aggregates)
    }
}

/// Pads a sliced core's kept-group aggregates with zero aggregates for
/// the groups it does not own, so [`Rept::finalize_groups`] — whose
/// combination arithmetic indexes the *full* processor layout — sees a
/// complete set. The padded groups' counter maps stay `None`; the
/// combination only reads maps that are present.
fn pad_unkept(
    rept: &Rept,
    slice: GroupSlice,
    mut aggregates: Vec<GroupAggregate>,
) -> Vec<GroupAggregate> {
    if slice.is_full() {
        return aggregates;
    }
    for (gi, g) in rept.groups().iter().enumerate() {
        if !slice.keeps(gi) {
            aggregates.push(GroupAggregate {
                start: g.start,
                tau: vec![0; g.size],
                stored: vec![0; g.size],
                bytes: 0,
                eta_total: 0,
                tau_v: None,
                eta_v: None,
            });
        }
    }
    aggregates
}

/// Fresh per-processor workers for a configuration.
pub(crate) fn make_workers(cfg: &ReptConfig) -> Vec<SemiTriangleWorker> {
    let track_eta = cfg.needs_eta();
    (0..cfg.c)
        .map(|_| SemiTriangleWorker::new(cfg.track_locals, track_eta, cfg.eta_mode))
        .collect()
}

/// Splits specs into full groups (size = `m`) and the rest, preserving
/// order (full groups always precede any remainder group in
/// [`Rept::groups`] order) — the one classification every fused-layout
/// decision builds on, shared with the checkpoint codec.
pub(crate) fn split_full_partial(m: u64, specs: &[GroupSpec]) -> (Vec<GroupSpec>, Vec<GroupSpec>) {
    specs.iter().copied().partition(|g| g.size as u64 == m)
}

/// The structure sharing the fused engine picks for a set of groups. Construction ([`build_shared_state`]) and checkpoint restore
/// ([`crate::resume`]) both consult this single rule, so a resumed run
/// always lands in the same layout a fresh run would build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum SortedLayout {
    /// Full groups and the remainder share one masked structure.
    Masked,
    /// Full groups share one multi-tag structure; the rest (if any)
    /// runs independently.
    SharedFull,
    /// Every group runs its own structure.
    Independent,
}

/// Picks the strongest sharing `full_count` full groups and
/// `partial_count` partial groups admit.
pub(crate) fn sorted_layout(full_count: usize, partial_count: usize) -> SortedLayout {
    if partial_count == 1 && full_count >= 1 {
        SortedLayout::Masked
    } else if full_count >= 2 {
        SortedLayout::SharedFull
    } else {
        SortedLayout::Independent
    }
}

/// Builds the fused engine's state for the kept groups, picking the
/// strongest sharing the subset admits (see the module docs).
fn build_shared_state(
    cfg: &ReptConfig,
    kept: &[GroupSpec],
) -> (Option<SharedState>, Vec<FusedGroup>) {
    let (full, partial) = split_full_partial(cfg.m, kept);
    match sorted_layout(full.len(), partial.len()) {
        SortedLayout::Masked => (
            Some(SharedState::Masked(Box::new(FusedMaskedGroups::new(
                &full, partial[0], cfg,
            )))),
            Vec::new(),
        ),
        SortedLayout::SharedFull => (
            Some(SharedState::Full(Box::new(FusedFullGroups::new(
                &full, cfg,
            )))),
            partial.iter().map(|g| FusedGroup::new(*g, cfg)).collect(),
        ),
        SortedLayout::Independent => (
            None,
            kept.iter().map(|g| FusedGroup::new(*g, cfg)).collect(),
        ),
    }
}

/// Drains one sub-batch against a set of independent fused groups,
/// group-major, compacting each group at the boundary.
fn drive_groups(groups: &mut [FusedGroup], batch: &[Edge]) {
    for g in groups.iter_mut() {
        for &e in batch {
            g.process(e);
        }
        g.compact();
    }
}

/// The whole-stream batch driver behind [`Rept::run`] and the fused
/// half of [`Rept::run_threaded`]: construct core(s), ingest the
/// stream, combine the aggregates.
///
/// * One thread or one group — a single core over every group.
/// * Several threads, several groups — groups spread round-robin over
///   `min(threads, groups)` cores, one per thread; each thread ingests
///   the whole stream against its groups only (REPT groups never
///   communicate mid-stream). Threads may finish in any interleaving;
///   [`Rept::finalize_groups`] re-orders aggregates by group start.
///
/// # Panics
///
/// Panics if `threads == 0`.
pub(crate) fn drive(rept: &Rept, engine: Engine, stream: &[Edge], threads: usize) -> ReptEstimate {
    assert!(threads > 0, "need at least one thread");
    let n_threads = threads.min(rept.groups().len());
    if n_threads == 1 {
        // Run inline — a thread scope would be pure overhead for the
        // Monte-Carlo callers running one trial per seed.
        let mut core = EngineCore::with_engine(rept.clone(), engine);
        core.ingest_batch(stream);
        return core.into_estimate();
    }
    let aggregates: Vec<GroupAggregate> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n_threads);
        for t in 0..n_threads {
            let mut core = EngineCore::with_slice(
                rept.clone(),
                engine,
                GroupSlice::new(t as u32, n_threads as u32),
            );
            handles.push(scope.spawn(move || {
                core.ingest_batch(stream);
                core.finalize()
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("REPT fused thread panicked"))
            .collect()
    });
    rept.finalize_groups(aggregates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_gen::{barabasi_albert, GeneratorConfig};

    #[test]
    fn batch_split_is_irrelevant_to_the_result() {
        let stream = barabasi_albert(&GeneratorConfig::new(250, 7), 4);
        for (m, c) in [(4u64, 3u64), (3, 7), (4, 11)] {
            let cfg = ReptConfig::new(m, c).with_seed(5).with_eta(true);
            let rept = Rept::new(cfg);
            for engine in Engine::all() {
                let mut whole = EngineCore::with_engine(rept.clone(), engine);
                whole.ingest_batch(&stream);
                let oracle = whole.into_estimate();
                for batch_len in [1usize, 13, 1000] {
                    let mut chunked = EngineCore::with_engine(rept.clone(), engine);
                    for chunk in stream.chunks(batch_len) {
                        chunked.ingest_batch(chunk);
                    }
                    assert_eq!(chunked.position(), stream.len() as u64);
                    let est = chunked.estimate();
                    assert_eq!(oracle.global, est.global, "{} b={batch_len}", engine.name());
                    assert_eq!(oracle.locals, est.locals);
                    assert_eq!(oracle.eta_hat, est.eta_hat);
                    assert_eq!(
                        oracle.diagnostics.per_processor_tau,
                        est.diagnostics.per_processor_tau
                    );
                }
            }
        }
    }

    #[test]
    fn masked_sharing_is_bit_identical_to_per_worker() {
        // Layouts with a remainder group take the masked shared path;
        // its estimate equals the per-worker oracle's field for field.
        let stream = barabasi_albert(&GeneratorConfig::new(300, 2), 4);
        for (m, c) in [(4u64, 11u64), (3, 4), (4, 9)] {
            let cfg = ReptConfig::new(m, c).with_seed(9).with_eta(true);
            let rept = Rept::new(cfg);
            let mut fused = EngineCore::with_engine(rept.clone(), Engine::FusedHybrid);
            let mut oracle = EngineCore::with_engine(rept.clone(), Engine::PerWorker);
            assert!(
                matches!(
                    fused.state,
                    CoreState::Fused {
                        shared: Some(SharedState::Masked(_)),
                        ..
                    }
                ),
                "remainder layouts take the masked path, m={m} c={c}"
            );
            fused.ingest_batch(&stream);
            oracle.ingest_batch(&stream);
            let (a, b) = (fused.into_estimate(), oracle.into_estimate());
            assert_eq!(a.global, b.global, "m={m} c={c}");
            assert_eq!(a.locals, b.locals);
            assert_eq!(a.eta_hat, b.eta_hat);
            assert_eq!(
                a.diagnostics.per_processor_tau,
                b.diagnostics.per_processor_tau
            );
            assert_eq!(a.diagnostics.stored_edges, b.diagnostics.stored_edges);
        }
    }

    #[test]
    fn disjoint_slices_recombine_to_the_full_run() {
        // The sharding contract: cores over disjoint slices of one
        // layout, each fed the whole stream, recombine bit-identically
        // to the single full-slice core — on every engine, including
        // per-worker (whose unkept workers stay inert).
        let stream = barabasi_albert(&GeneratorConfig::new(250, 5), 4);
        for (m, c) in [(3u64, 7u64), (2, 11), (4, 12)] {
            let cfg = ReptConfig::new(m, c).with_seed(5).with_eta(true);
            let rept = Rept::new(cfg);
            let n_groups = rept.groups().len();
            for engine in Engine::all() {
                let mut whole = EngineCore::with_engine(rept.clone(), engine);
                whole.ingest_batch(&stream);
                let oracle = whole.into_estimate();
                for count in [2u32, 3] {
                    assert!((count as usize) <= n_groups, "m={m} c={c}");
                    let mut aggregates = Vec::new();
                    for index in 0..count {
                        let mut shard = EngineCore::with_slice(
                            rept.clone(),
                            engine,
                            GroupSlice::new(index, count),
                        );
                        shard.ingest_batch(&stream);
                        // The shard's own estimate is the padded local
                        // view — it must be *defined* (no panic) on
                        // every layout, full, exact, and mixed.
                        let local = shard.estimate();
                        assert!(local.global.is_finite());
                        aggregates.extend(shard.finalize());
                    }
                    let est = rept.finalize_groups(aggregates);
                    assert_eq!(oracle.global, est.global, "{} n={count}", engine.name());
                    assert_eq!(oracle.locals, est.locals);
                    assert_eq!(oracle.eta_hat, est.eta_hat);
                    assert_eq!(
                        oracle.diagnostics.per_processor_tau,
                        est.diagnostics.per_processor_tau
                    );
                }
            }
        }
    }

    #[test]
    fn stored_bytes_grows_and_stays_under_diagnostics_total() {
        let stream = barabasi_albert(&GeneratorConfig::new(200, 4), 6);
        for (m, c) in [(4u64, 8u64), (3, 7)] {
            let cfg = ReptConfig::new(m, c).with_seed(3).with_locals(true);
            let rept = Rept::new(cfg);
            for engine in Engine::all() {
                let mut core = EngineCore::with_engine(rept.clone(), engine);
                let empty = core.stored_bytes();
                core.ingest_batch(&stream);
                core.compact();
                let full = core.stored_bytes();
                assert!(
                    full > empty,
                    "{} m={m} c={c}: {empty} !< {full}",
                    engine.name()
                );
                // Adjacency-only accounting is a lower bound on the
                // counter-inclusive diagnostics figure.
                let est = core.estimate();
                assert!(
                    full <= est.diagnostics.total_bytes,
                    "{} m={m} c={c}: stored {full} > total {}",
                    engine.name(),
                    est.diagnostics.total_bytes
                );
            }
        }
    }

    #[test]
    fn snapshot_counters_do_not_consume() {
        let stream = barabasi_albert(&GeneratorConfig::new(150, 3), 3);
        let rept = Rept::new(ReptConfig::new(3, 7).with_seed(2).with_eta(true));
        let mut core = EngineCore::new(rept);
        core.ingest_batch(&stream[..200]);
        let early = core.estimate();
        assert!(early.global >= 0.0);
        core.ingest_batch(&stream[200..]);
        core.compact();
        assert_eq!(core.position(), stream.len() as u64);
        assert_eq!(core.config().c, 7);
        assert_eq!(core.engine(), Engine::FusedHybrid);
        let aggregates = core.snapshot_counters();
        assert_eq!(aggregates.len(), core.rept().groups().len());
        let est = core.into_estimate();
        assert!(est.global >= 0.0);
    }
}
