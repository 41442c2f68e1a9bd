//! The unified incremental execution core.
//!
//! Every way of running REPT is the same algorithm over the same
//! counters; what used to differ was the *driver*: the batch methods on
//! [`Rept`] owned one copy of the group build/drain/finalize logic, the
//! incremental `ResumableRun` a second, and the serving subsystem a
//! third on top of that. This module collapses them into one type:
//!
//! * [`EngineCore`] owns the engine-specific state of a run — per-worker
//!   workers, or the fused layout's one shared structure — behind three
//!   operations: [`EngineCore::ingest_batch`] (apply stream edges),
//!   [`EngineCore::snapshot_counters`] (anytime, non-consuming per-group
//!   aggregates) and [`EngineCore::finalize`] (consume the run).
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
//! A batch is nothing but its edges in order: `ingest_batch` is
//! `ingest` on each, and no state waits for a batch boundary. So
//! results are independent of how the stream is split into batches,
//! which is what makes checkpoint/resume at any batch boundary exact.
//!
//! ## The fused engine's one structure
//!
//! A fused core keeps the union of every group it owns in a single
//! [`HybridAdjacency`] of plain neighbor ids. An edge's cell under a
//! group is a pure function of the edge, so the core recomputes it from
//! the group's hash at each common neighbor instead of storing it: a
//! `c ≤ m` group, `k` full groups, `k` full groups plus the remainder,
//! and any [`GroupSlice`] of these all run one structure walk per edge
//! through the same code path.
//!
//! [`HybridAdjacency`]: rept_graph::hybrid::HybridAdjacency

use rept_graph::edge::{Edge, NodeId};
use rept_hash::fx::FxHashSet;

use crate::config::ReptConfig;
use crate::estimate::ReptEstimate;
use crate::estimator::{Engine, GroupAggregate, GroupSpec, Rept};
use crate::fused::FusedGroups;
use crate::worker::SemiTriangleWorker;

/// The engine-specific half of a core: what [`EngineCore`] mutates per
/// edge. `pub(crate)` so the checkpoint codec in [`crate::resume`] can
/// serialise and restore it.
#[derive(Debug, Clone)]
pub(crate) enum CoreState {
    /// One [`SemiTriangleWorker`] per processor — the paper's cost
    /// model executed literally; the reference oracle.
    PerWorker { workers: Vec<SemiTriangleWorker> },
    /// The fused hybrid layout: every kept group's edges in one
    /// structure.
    Fused(Box<FusedGroups>),
}

/// The nodes whose per-group counters (`τ⁽ⁱ⁾_v`, `η⁽ⁱ⁾_v`) may have
/// moved since a consumer last looked — what lets a publication or an
/// aggregate exchange revisit only those nodes. A node's local
/// estimate depends on its own counters alone, so recombining the
/// touched nodes (plus the `O(c)` global terms) brings a whole
/// estimate up to date.
///
/// "Touched" is an over-approximation by construction: a fused core
/// records the three nodes of every counted semi-triangle, which can
/// create an `η_v` entry at 0 without changing any value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Touched {
    /// Every node: the source does not track (the per-worker oracle,
    /// reservoir runs) or has only just started to, or the consumer has
    /// no earlier state to update.
    All,
    /// At most these nodes moved (deduplicated, so bounded by the
    /// tracked nodes however many edges arrived).
    Nodes(FxHashSet<NodeId>),
}

impl Touched {
    /// Nothing touched yet.
    pub fn none() -> Self {
        Self::Nodes(FxHashSet::default())
    }

    /// Adds what `other` touched.
    pub fn extend(&mut self, other: &Touched) {
        match (&mut *self, other) {
            (Self::All, _) => {}
            (_, Self::All) => *self = Self::All,
            (Self::Nodes(mine), Self::Nodes(theirs)) => mine.extend(theirs),
        }
    }

    /// Returns what was touched and starts over with nothing.
    pub fn take(&mut self) -> Touched {
        std::mem::replace(self, Self::none())
    }
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
            Engine::FusedHybrid => CoreState::Fused(Box::new(FusedGroups::new(&kept, &cfg))),
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

    /// Processes one arriving edge on every group.
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
            CoreState::Fused(groups) => groups.process(e),
        }
    }

    /// Processes a batch of arriving edges: [`Self::ingest`] on each in
    /// turn, so results are independent of how the stream is split
    /// into batches.
    pub fn ingest_batch(&mut self, batch: &[Edge]) {
        for &e in batch {
            self.ingest(e);
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
            CoreState::Fused(groups) => groups.snapshot_aggregates(None),
        }
    }

    /// The nodes whose counters moved since the last call, starting over
    /// with none. The first call returns [`Touched::All`] and starts the
    /// tracking — a core nobody reads them from pays nothing for it, and
    /// the set is derived state, never checkpointed. Always
    /// [`Touched::All`] on the per-worker oracle, which does not track.
    pub fn take_touched(&mut self) -> Touched {
        match &mut self.state {
            CoreState::PerWorker { .. } => Touched::All,
            CoreState::Fused(groups) => groups.take_touched(),
        }
    }

    /// [`Self::snapshot_counters`] restricted to `touched`: every kept
    /// group's `O(c)` counters in full, but `τ_v`/`η_v` entries only for
    /// the touched nodes the group holds — the delta form of the
    /// aggregate exchange. Overwriting the counters of an earlier
    /// exchange with it, entry by entry, gives the current ones, as long
    /// as `touched` covers everything since that exchange.
    /// [`Touched::All`], and the per-worker oracle, give the full
    /// counters.
    pub fn counters_for(&self, touched: &Touched) -> Vec<GroupAggregate> {
        match (&self.state, touched) {
            (CoreState::Fused(groups), Touched::Nodes(nodes)) => {
                groups.snapshot_aggregates(Some(nodes))
            }
            _ => self.snapshot_counters(),
        }
    }

    /// Brings `est` — this core's [`Self::estimate`] at an earlier
    /// position — up to the stream seen so far, given the nodes
    /// `touched` since: the result equals [`Self::estimate`] bit for
    /// bit, at `O(touched + c)` instead of `O(every local)`. The
    /// per-worker oracle, and [`Touched::All`], take the full path.
    pub fn refresh_estimate(&self, est: &mut ReptEstimate, touched: &Touched) {
        match (&self.state, touched) {
            (CoreState::Fused(_), Touched::Nodes(_)) => {
                let mut groups = pad_unkept(&self.rept, self.slice, self.counters_for(touched));
                groups.sort_unstable_by_key(|g| g.start);
                self.rept.refresh_estimate(est, &groups, touched);
            }
            _ => *est = self.estimate(),
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
            CoreState::Fused(groups) => groups.into_aggregates(),
        }
    }

    /// Bytes of adjacency storage currently held by this core — the
    /// quantity a serving-tier memory quota governs. The fused engine's
    /// one structure is counted once, matching what is actually
    /// resident, in O(1) (a running total), so the serving tier reads
    /// it after every batch; the per-worker oracle walks every worker's
    /// hash sets, which no served workload runs.
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
            CoreState::Fused(groups) => groups.adj.approx_bytes(),
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
/// combination scales by the configuration's `c` and whose diagnostics
/// list every processor — sees a complete set. The padded groups'
/// counter maps stay `None`; the combination only reads maps that are
/// present.
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

/// The whole-stream batch driver behind [`Rept::run`] and
/// [`Rept::run_threaded`], for either engine: construct core(s), ingest
/// the stream, combine the aggregates.
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
            .flat_map(|h| h.join().expect("REPT group thread panicked"))
            .collect()
    });
    rept.finalize_groups(aggregates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EtaMode;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rept_gen::{barabasi_albert, complete, GeneratorConfig};

    /// Field-for-field, bit-for-bit equality of two estimates.
    fn same_bits(a: &ReptEstimate, b: &ReptEstimate) -> bool {
        fn bits(x: &ReptEstimate) -> impl PartialEq + '_ {
            let mut locals: Vec<(NodeId, u64)> =
                x.locals.iter().map(|(&v, t)| (v, t.to_bits())).collect();
            locals.sort_unstable();
            let d = &x.diagnostics;
            (
                x.global.to_bits(),
                x.eta_hat.map(f64::to_bits),
                locals,
                (
                    d.m,
                    d.c,
                    &d.per_processor_tau,
                    &d.stored_edges,
                    d.total_bytes,
                ),
                d.combination,
                d.sub_estimates.map(|(s, t)| (s.to_bits(), t.to_bits())),
            )
        }
        bits(a) == bits(b)
    }

    /// Overwrites `held` (full counters, layout order) with a delta of
    /// them, as an aggregate-exchange receiver does.
    fn apply_delta(held: &mut [GroupAggregate], delta: Vec<GroupAggregate>) {
        for d in delta {
            let g = held
                .iter_mut()
                .find(|g| g.start == d.start)
                .expect("a held group");
            g.tau = d.tau;
            g.stored = d.stored;
            g.bytes = d.bytes;
            g.eta_total = d.eta_total;
            for (mine, theirs) in [(&mut g.tau_v, d.tau_v), (&mut g.eta_v, d.eta_v)] {
                if let (Some(mine), Some(theirs)) = (mine.as_mut(), theirs) {
                    mine.extend(theirs);
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The incremental combination equals `finalize_groups` over the
        /// same counters, bit for bit, at random publication points of a
        /// duplicate-edge stream: on every layout (`c < m`, `c = m`, full
        /// groups, full groups plus a remainder), both η modes, sliced
        /// and unsliced, both engines. Two consumers drain the touched
        /// nodes at different cadences (a core's own publication and its
        /// exchange), and the exchange's deltas, applied to the counters
        /// of the previous exchange, rebuild the current counters.
        #[test]
        fn incremental_estimate_equals_finalize_groups(
            pairs in vec((0u32..30, 0u32..30), 1..300),
            layout in 0usize..4,
            strict in any::<bool>(),
            eta in any::<bool>(),
            seed in any::<u64>(),
            cuts in vec(0usize..300, 1..6),
            sliced in any::<bool>(),
        ) {
            let stream: Vec<Edge> = pairs
                .into_iter()
                .filter_map(|(u, v)| Edge::try_new(u, v))
                .collect();
            let (m, c) = [(4u64, 3u64), (4, 4), (3, 9), (3, 11)][layout];
            let mode = if strict { EtaMode::StrictNonLast } else { EtaMode::PaperInit };
            let cfg = ReptConfig::new(m, c)
                .with_seed(seed)
                .with_eta(eta)
                .with_eta_mode(mode);
            let rept = Rept::new(cfg);
            let slice = if sliced && rept.groups().len() > 1 {
                GroupSlice::new(1, 2)
            } else {
                GroupSlice::FULL
            };
            let mut cuts: Vec<usize> = cuts.into_iter().map(|k| k % (stream.len() + 1)).collect();
            cuts.push(stream.len());
            cuts.sort_unstable();
            for engine in Engine::all() {
                let mut core = EngineCore::with_slice(rept.clone(), engine, slice);
                // The first drain starts the tracking and reports all.
                prop_assert_eq!(core.take_touched(), Touched::All);
                let mut live = core.estimate();
                // What an exchange receiver holds, and its combination.
                let mut held = core.snapshot_counters();
                let mut received = core.estimate();
                let (mut publish, mut exchange) = (Touched::none(), Touched::none());
                let mut at = 0;
                for (k, &cut) in cuts.iter().enumerate() {
                    core.ingest_batch(&stream[at..cut]);
                    at = cut;
                    let fresh = core.take_touched();
                    publish.extend(&fresh);
                    exchange.extend(&fresh);
                    core.refresh_estimate(&mut live, &publish.take());
                    prop_assert!(
                        same_bits(&live, &core.estimate()),
                        "{} m={} c={} {:?} at {}", engine.name(), m, c, slice, cut
                    );
                    if k % 2 == 1 {
                        let delta = core.counters_for(&exchange.take());
                        let mut nodes = FxHashSet::default();
                        for g in &delta {
                            for map in g.tau_v.iter().chain(&g.eta_v) {
                                nodes.extend(map.keys());
                            }
                        }
                        let moved = if engine == Engine::PerWorker {
                            Touched::All
                        } else {
                            Touched::Nodes(nodes)
                        };
                        apply_delta(&mut held, delta);
                        prop_assert_eq!(&held, &core.snapshot_counters());
                        if slice.is_full() {
                            rept.refresh_estimate(&mut received, &held, &moved);
                            prop_assert!(same_bits(&received, &rept.finalize_groups(held.clone())));
                        }
                    }
                }
            }
        }
    }

    /// `groups` (layout order) renumbered onto contiguous starts: the
    /// layout of the configuration they form on their own, with the
    /// remainder last where a positional split finds it — the reference
    /// a subset combined at its own starts must equal.
    fn renumbered(groups: &[GroupAggregate]) -> Vec<GroupAggregate> {
        let mut next = 0;
        groups
            .iter()
            .map(|g| {
                let start = next;
                next += g.tau.len();
                GroupAggregate { start, ..g.clone() }
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        /// A non-empty subset of a layout's groups, kept at its layout
        /// starts and combined under the same `m` and `c' = Σ` its sizes,
        /// equals the same subset renumbered onto contiguous starts, bit
        /// for bit: through `finalize_groups`, and through
        /// `refresh_estimate` from the subset's earlier counters on a
        /// random touched set. Layouts with a remainder and one without,
        /// η on and off, over duplicate-edge streams; the subsets include
        /// the remainder alone and a single full group.
        #[test]
        fn survivors_combine_as_held(
            pairs in vec((0u32..30, 0u32..30), 1..300),
            layout in 0usize..4,
            eta in any::<bool>(),
            seed in any::<u64>(),
            mask in any::<u32>(),
            cut in 0usize..300,
            touched in vec(0u32..32, 0..16),
        ) {
            let stream: Vec<Edge> = pairs
                .into_iter()
                .filter_map(|(u, v)| Edge::try_new(u, v))
                .collect();
            let (m, c) = [(3u64, 7u64), (3, 11), (4, 9), (4, 12)][layout];
            let cfg = ReptConfig::new(m, c).with_seed(seed).with_eta(eta);
            let mut core = EngineCore::with_engine(Rept::new(cfg), Engine::PerWorker);
            let groups = core.rept().groups().len() as u32;
            let keep = mask % ((1 << groups) - 1) + 1;
            let subset = |all: Vec<GroupAggregate>| -> Vec<GroupAggregate> {
                all.into_iter()
                    .enumerate()
                    .filter(|(gi, _)| keep >> gi & 1 == 1)
                    .map(|(_, g)| g)
                    .collect()
            };
            let cut = cut % (stream.len() + 1);
            core.ingest_batch(&stream[..cut]);
            let early = subset(core.snapshot_counters());
            core.ingest_batch(&stream[cut..]);
            let held = subset(core.snapshot_counters());
            let c_survivors = held.iter().map(|g| g.tau.len() as u64).sum();
            let survivors = Rept::new(ReptConfig { c: c_survivors, ..cfg });
            prop_assert!(
                same_bits(
                    &survivors.finalize_groups(held.clone()),
                    &survivors.finalize_groups(renumbered(&held))
                ),
                "m={} c={} keep={:#b}", m, c, keep
            );
            let touched = Touched::Nodes(touched.into_iter().collect());
            let mut subject = survivors.finalize_groups(early.clone());
            survivors.refresh_estimate(&mut subject, &held, &touched);
            let mut reference = survivors.finalize_groups(renumbered(&early));
            survivors.refresh_estimate(&mut reference, &renumbered(&held), &touched);
            prop_assert!(same_bits(&subject, &reference), "m={} c={} keep={:#b}", m, c, keep);
        }
    }

    /// The stored-edge count a fused core over `slice` must hold: the
    /// union of the kept groups' stored edge sets in a per-worker core
    /// fed the same stream. An edge no kept group owns never matches, so
    /// storing one would pass every counter check.
    fn kept_union_len(oracle: &EngineCore, slice: GroupSlice) -> usize {
        let CoreState::PerWorker { workers } = &oracle.state else {
            panic!("the oracle runs per worker");
        };
        let mut union = std::collections::BTreeSet::new();
        for (gi, g) in oracle.rept().groups().iter().enumerate() {
            if slice.keeps(gi) {
                for w in &workers[g.start..g.start + g.size] {
                    union.extend(w.stored_edge_list());
                }
            }
        }
        union.len()
    }

    /// The number of edges a core stores: its one structure's on the
    /// fused engine, `None` on the per-worker one.
    fn fused_edge_count(core: &EngineCore) -> Option<usize> {
        match &core.state {
            CoreState::Fused(groups) => Some(groups.adj.edge_count()),
            CoreState::PerWorker { .. } => None,
        }
    }

    #[test]
    fn batch_split_is_irrelevant_to_the_result() {
        let stream = barabasi_albert(&GeneratorConfig::new(250, 7), 4);
        for (m, c) in [(4u64, 3u64), (4, 4), (3, 7), (4, 11)] {
            let cfg = ReptConfig::new(m, c).with_seed(5).with_eta(true);
            let rept = Rept::new(cfg);
            let mut workers = EngineCore::with_engine(rept.clone(), Engine::PerWorker);
            workers.ingest_batch(&stream);
            let kept_union = kept_union_len(&workers, GroupSlice::FULL);
            for engine in Engine::all() {
                let mut whole = EngineCore::with_engine(rept.clone(), engine);
                whole.ingest_batch(&stream);
                if let Some(stored) = fused_edge_count(&whole) {
                    assert_eq!(stored, kept_union, "stored edges m={m} c={c}");
                }
                let oracle = whole.into_estimate();
                for batch_len in [1usize, 13, 1000] {
                    let mut chunked = EngineCore::with_engine(rept.clone(), engine);
                    for chunk in stream.chunks(batch_len) {
                        chunked.ingest_batch(chunk);
                    }
                    assert_eq!(chunked.position(), stream.len() as u64);
                    if let Some(stored) = fused_edge_count(&chunked) {
                        assert_eq!(stored, kept_union, "stored edges b={batch_len}");
                    }
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
        // Layouts with a remainder group keep it in the full groups' one
        // structure; the estimate equals the per-worker oracle's field
        // for field. `(300, 700)` is two full groups and a 100-processor
        // remainder, with cells past one byte; a `K₆₀` on fresh ids after
        // the BA stream makes some of them match.
        let mut stream = barabasi_albert(&GeneratorConfig::new(300, 2), 4);
        stream.extend(
            complete(60)
                .iter()
                .map(|e| Edge::new(e.u() + 1000, e.v() + 1000)),
        );
        for (m, c) in [(4u64, 11u64), (3, 4), (4, 9), (300, 700)] {
            let cfg = ReptConfig::new(m, c).with_seed(9).with_eta(true);
            let rept = Rept::new(cfg);
            let mut fused = EngineCore::with_engine(rept.clone(), Engine::FusedHybrid);
            let mut oracle = EngineCore::with_engine(rept.clone(), Engine::PerWorker);
            let CoreState::Fused(groups) = &fused.state else {
                panic!("a fused core");
            };
            assert!(
                groups.specs.len() == rept.groups().len()
                    && (groups.specs[groups.specs.len() - 1].size as u64) < m,
                "the remainder shares the one structure, m={m} c={c}"
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
            let mut cells = a.diagnostics.per_processor_tau.as_slice();
            let mut past_one_byte = 0;
            for spec in rept.groups() {
                let (group, rest) = cells.split_at(spec.size);
                past_one_byte += group.iter().skip(256).filter(|&&t| t > 0).count();
                cells = rest;
            }
            if m > 256 {
                assert!(
                    past_one_byte > 0,
                    "no match in a cell past one byte, m={m} c={c}"
                );
            }
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
            let mut workers = EngineCore::with_engine(rept.clone(), Engine::PerWorker);
            workers.ingest_batch(&stream);
            for engine in Engine::all() {
                let mut whole = EngineCore::with_engine(rept.clone(), engine);
                whole.ingest_batch(&stream);
                if let Some(stored) = fused_edge_count(&whole) {
                    let kept_union = kept_union_len(&workers, GroupSlice::FULL);
                    assert_eq!(stored, kept_union, "stored edges m={m} c={c}");
                }
                let oracle = whole.into_estimate();
                for count in [2u32, 3] {
                    assert!((count as usize) <= n_groups, "m={m} c={c}");
                    let mut aggregates = Vec::new();
                    for index in 0..count {
                        let slice = GroupSlice::new(index, count);
                        let mut shard = EngineCore::with_slice(rept.clone(), engine, slice);
                        shard.ingest_batch(&stream);
                        // A shard stores exactly its kept groups' edges.
                        if let Some(stored) = fused_edge_count(&shard) {
                            let kept_union = kept_union_len(&workers, slice);
                            assert_eq!(stored, kept_union, "m={m} c={c} slice {index}/{count}");
                        }
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
        assert_eq!(core.position(), stream.len() as u64);
        assert_eq!(core.config().c, 7);
        assert_eq!(core.engine(), Engine::FusedHybrid);
        let aggregates = core.snapshot_counters();
        assert_eq!(aggregates.len(), core.rept().groups().len());
        let est = core.into_estimate();
        assert!(est.global >= 0.0);
    }
}
