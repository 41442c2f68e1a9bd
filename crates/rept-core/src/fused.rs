//! The fused group execution engine.
//!
//! The per-worker engine ([`crate::worker::SemiTriangleWorker`]) realises
//! the paper's cost model literally: every processor of a hash group keeps
//! its own adjacency over its partition cell and runs its own
//! `N_u ∩ N_v` intersection per stream edge, so a group of `size` workers
//! performs `size` hash-probing passes over what is collectively **one**
//! partitioned edge set. This module fuses those passes: a
//! `FusedGroup` stores the group's sampled edges once in a
//! [`HybridTaggedAdjacency`] (each neighbor entry tagged with its edge's
//! partition cell) and recovers *every* worker's counters from a single
//! common-neighbor pass — a common neighbor `w` of an arriving edge
//! `(u, v)` closes a semi-triangle for worker `i` iff
//! `cell(u, w) == cell(v, w) == i`.
//!
//! Sharing goes further across groups. Every *full* group (size = `m`)
//! stores every stream edge, so `FusedFullGroups` keeps all of them
//! over one [`MultiHybridTaggedAdjacency`] with a tag column per group,
//! and `FusedMaskedGroups` folds the remainder group into the same walk
//! through the masked column of a [`MaskedHybridTaggedAdjacency`].
//!
//! Per edge the cost drops from
//! `O(Σᵢ |N⁽ⁱ⁾_u ∩ N⁽ⁱ⁾_v| probes)` — `size` lookups of (mostly tiny)
//! per-worker neighbor sets plus `size` intersections — to **one**
//! intersection over the union adjacency. The counters
//! (`τ⁽ⁱ⁾`, group-summed `τ⁽ⁱ⁾_v`, `η⁽ⁱ⁾`, `η⁽ⁱ⁾_v`,
//! per-edge `τ⁽ⁱ⁾_(u,v)`) are **bit-identical** to the per-worker
//! engine's: every counter is an exact `u64` sum over the same multiset
//! of increments (match *order* differs from the per-worker engine, but
//! within one arriving edge distinct common neighbors touch disjoint
//! per-edge counters, so every fold commutes), and duplicate-edge and
//! η-initialisation rules mirror
//! [`SemiTriangleWorker::store`](crate::worker::SemiTriangleWorker::store)
//! statement for statement. The integration proptests assert this across
//! all three combination paths.

use rept_graph::edge::{Edge, NodeId};
use rept_graph::hybrid_tagged::{
    CellTag, HybridTaggedAdjacency, MaskedHybridTaggedAdjacency, MultiHybridTaggedAdjacency,
};
use rept_hash::fx::{table_bytes, FxHashMap};

use crate::config::{EtaMode, ReptConfig};
use crate::estimator::{GroupAggregate, GroupSpec};
use crate::worker::update_eta_pair;

/// One hash group's shared state under the fused engine: the cell-tagged
/// union adjacency plus all `size` workers' counters.
///
/// Fields are `pub(crate)` so [`crate::resume`] can serialise and restore
/// the full group state for engine-aware checkpoints.
#[derive(Debug, Clone)]
pub(crate) struct FusedGroup {
    pub(crate) spec: GroupSpec,
    /// The union of all workers' `E⁽ⁱ⁾`, tagged by cell.
    pub(crate) adj: HybridTaggedAdjacency,
    /// All counter state, split out so the matching pass can read `adj`
    /// while folding into the counters.
    pub(crate) counters: GroupCounters,
}

/// The counter half of a fused group (everything `process` mutates
/// besides the adjacency itself).
#[derive(Debug, Clone)]
pub(crate) struct GroupCounters {
    /// `τ⁽ⁱ⁾` per worker (indexed by cell offset).
    pub(crate) tau: Vec<u64>,
    /// Edges stored per worker.
    pub(crate) stored: Vec<usize>,
    /// Group-summed `Σᵢ τ⁽ⁱ⁾_v` (`None` if locals untracked). The
    /// estimator only ever consumes per-group sums (split by group for the
    /// Graybill–Deal path), so per-worker maps would be pure overhead.
    pub(crate) tau_v: Option<FxHashMap<NodeId, u64>>,
    /// η counters (`None` if untracked).
    pub(crate) eta: Option<FusedEtaCounters>,
    pub(crate) eta_mode: EtaMode,
}

/// Group-level η bookkeeping. `per_edge` can be one map for the whole
/// group because each stored edge belongs to exactly one cell: worker
/// `i`'s `τ⁽ⁱ⁾_(u,v)` entries are precisely the entries whose edge is
/// tagged `i`, so the union of the per-worker maps is disjoint.
#[derive(Debug, Clone, Default)]
pub(crate) struct FusedEtaCounters {
    /// `Σᵢ η⁽ⁱ⁾`.
    pub(crate) total: u64,
    /// `Σᵢ η⁽ⁱ⁾_v`.
    pub(crate) per_node: FxHashMap<NodeId, u64>,
    /// `τ⁽ⁱ⁾_(u,v)` for every stored edge (owning worker implied by tag).
    pub(crate) per_edge: FxHashMap<Edge, u64>,
}

impl GroupCounters {
    /// Fresh counters for one group of `size` workers.
    pub(crate) fn new(size: usize, cfg: &ReptConfig) -> Self {
        Self {
            tau: vec![0; size],
            stored: vec![0; size],
            tau_v: cfg.track_locals.then(FxHashMap::default),
            eta: cfg.needs_eta().then(FusedEtaCounters::default),
            eta_mode: cfg.eta_mode,
        }
    }

    /// Finishes this group's counters into the aggregate the estimator
    /// combines. `bytes` starts at the counter maps' own footprint; the
    /// caller adds its adjacency share.
    fn into_aggregate(self, start: usize) -> GroupAggregate {
        let mut bytes = 0;
        if let Some(tv) = &self.tau_v {
            bytes += table_bytes::<NodeId, u64>(tv.capacity());
        }
        if let Some(eta) = &self.eta {
            bytes += table_bytes::<NodeId, u64>(eta.per_node.capacity());
            bytes += table_bytes::<Edge, u64>(eta.per_edge.capacity());
        }
        GroupAggregate {
            start,
            tau: self.tau,
            stored: self.stored,
            bytes,
            eta_total: self.eta.as_ref().map_or(0, |e| e.total),
            tau_v: self.tau_v,
            eta_v: self.eta.map(|e| e.per_node),
        }
    }

    /// Folds one matched common neighbor `w` of the arriving edge
    /// `(u, v)` into every counter — the single statement sequence every
    /// fused layout funnels through, so the bit-identical invariant
    /// cannot drift between them. `closed_owner` accumulates `|N⁽ᵒʷⁿᵉʳ⁾_{u,v}|` for the
    /// paper-faithful η initialisation of the stored edge.
    #[inline]
    fn fold_match(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: NodeId,
        cell: CellTag,
        owner: u64,
        closed_owner: &mut u64,
    ) {
        if u64::from(cell) == owner {
            *closed_owner += 1;
        }
        self.tau[cell as usize] += 1;
        if let Some(tv) = &mut self.tau_v {
            *tv.entry(u).or_insert(0) += 1;
            *tv.entry(v).or_insert(0) += 1;
            *tv.entry(w).or_insert(0) += 1;
        }
        if let Some(eta) = &mut self.eta {
            update_eta_pair(
                &mut eta.total,
                &mut eta.per_node,
                &mut eta.per_edge,
                u,
                v,
                w,
            );
        }
    }

    /// Counter bookkeeping for a freshly stored edge: bumps the owning
    /// worker's stored count and initialises the per-edge η counter
    /// (`|N⁽ᵒʷⁿᵉʳ⁾_{u,v}|` under the paper-faithful mode, 0 under the
    /// strict mode) — mirroring `SemiTriangleWorker::store`.
    #[inline]
    fn record_store(&mut self, e: Edge, owner: usize, closed_owner: u64) {
        self.stored[owner] += 1;
        if let Some(eta) = &mut self.eta {
            let init = match self.eta_mode {
                EtaMode::PaperInit => closed_owner,
                EtaMode::StrictNonLast => 0,
            };
            eta.per_edge.insert(e, init);
        }
    }
}

impl FusedGroup {
    /// Creates the fused state for one group of `spec.size` workers.
    pub(crate) fn new(spec: GroupSpec, cfg: &ReptConfig) -> Self {
        assert!(
            spec.size <= CellTag::MAX as usize,
            "group size {} exceeds cell-tag range",
            spec.size
        );
        Self {
            spec,
            adj: HybridTaggedAdjacency::new(),
            counters: GroupCounters::new(spec.size, cfg),
        }
    }

    /// The edge's partition cell under this group's hash.
    #[inline]
    fn owner_of(&self, e: Edge) -> u64 {
        let (u, v) = e.as_u64_pair();
        self.spec.hasher.cell(u, v)
    }

    /// Processes one stream edge: counts every worker's semi-triangle
    /// closures in a single matching-common-neighbor pass, then stores the
    /// edge if its cell is owned (`cell < size` — cells `size..m` are
    /// REPT's subsampling and belong to no worker). Matching and store
    /// run through the layout's fused
    /// [`HybridTaggedAdjacency::match_then_insert`], which resolves
    /// per-endpoint state once; a duplicate stream edge fails the insert
    /// and is ignored, exactly like `SemiTriangleWorker::store`.
    #[inline]
    pub(crate) fn process(&mut self, e: Edge) {
        let (u, v) = e.endpoints();
        let owner = self.owner_of(e);
        let store = ((owner as usize) < self.spec.size).then_some(owner as CellTag);
        let mut closed_owner = 0u64;
        let counters = &mut self.counters;
        let stored = self.adj.match_then_insert(e, store, |w, cell| {
            counters.fold_match(u, v, w, cell, owner, &mut closed_owner);
        });
        if stored {
            self.counters.record_store(e, owner as usize, closed_owner);
        }
    }

    /// Folds the adjacency's pending insertions into query-optimal form
    /// (see [`HybridTaggedAdjacency::compact`]) — called by the batch drivers
    /// at batch boundaries so steady-state matching runs on compacted
    /// state. A pure representation change; never affects counters.
    #[inline]
    pub(crate) fn compact(&mut self) {
        self.adj.compact();
    }

    /// Finishes the group, yielding the aggregate the estimator combines.
    pub(crate) fn into_aggregate(self) -> GroupAggregate {
        let adj_bytes = self.adj.approx_bytes();
        let mut agg = self.counters.into_aggregate(self.spec.start);
        agg.bytes += adj_bytes;
        agg
    }

    /// Non-consuming version of [`Self::into_aggregate`] — clones the
    /// counter state so an *anytime* estimate can be produced mid-stream
    /// without stopping ingestion (the serving subsystem's query path).
    pub(crate) fn snapshot_aggregate(&self) -> GroupAggregate {
        let adj_bytes = self.adj.approx_bytes();
        let mut agg = self.counters.clone().into_aggregate(self.spec.start);
        agg.bytes += adj_bytes;
        agg
    }
}

/// All of a layout's **full** hash groups (size = `m`) fused over one
/// shared neighbor structure. A full group owns every cell of its hash,
/// so it stores every stream edge — all full groups therefore hold the
/// identical edge set and differ only in tags, which the shared
/// [`MultiHybridTaggedAdjacency`] exploits: one
/// structure walk per edge discovers the common neighbors for every
/// group at once, and only the per-group tag comparisons and counter
/// folds remain per group. The counters are maintained per group
/// exactly as `FusedGroup` would, so the result is bit-identical to
/// running the groups independently.
#[derive(Debug, Clone)]
pub(crate) struct FusedFullGroups {
    pub(crate) specs: Vec<GroupSpec>,
    pub(crate) adj: MultiHybridTaggedAdjacency,
    pub(crate) counters: Vec<GroupCounters>,
    /// Per-edge scratch: each group's owner cell (always owned — a full
    /// group owns all `m` cells) …
    owners: Vec<CellTag>,
    /// … and each group's `|N⁽ᵒʷⁿᵉʳ⁾_{u,v}|` for η initialisation.
    closed: Vec<u64>,
}

impl FusedFullGroups {
    /// Creates the shared state for the given full groups.
    ///
    /// # Panics
    ///
    /// Panics if any group does not own all `m` cells of its hasher —
    /// the sharing argument only holds for full groups.
    pub(crate) fn new(specs: &[GroupSpec], cfg: &ReptConfig) -> Self {
        assert!(!specs.is_empty());
        for g in specs {
            assert_eq!(
                g.size as u64,
                g.hasher.cells(),
                "shared full-group state requires every cell to be owned"
            );
        }
        Self {
            adj: MultiHybridTaggedAdjacency::new(specs.len()),
            counters: specs
                .iter()
                .map(|g| GroupCounters::new(g.size, cfg))
                .collect(),
            owners: vec![0; specs.len()],
            closed: vec![0; specs.len()],
            specs: specs.to_vec(),
        }
    }

    /// Processes one stream edge for every full group in a single
    /// structural matching pass; the edge is always stored (every cell
    /// is owned) unless it is a duplicate.
    #[inline]
    pub(crate) fn process(&mut self, e: Edge) {
        let (u, v) = e.endpoints();
        let (uu, vv) = e.as_u64_pair();
        for (owner, spec) in self.owners.iter_mut().zip(&self.specs) {
            *owner = spec.hasher.cell(uu, vv) as CellTag;
        }
        self.closed.fill(0);
        let counters = &mut self.counters;
        let closed = &mut self.closed;
        let owners = &self.owners;
        let stored = self.adj.match_then_insert(e, Some(owners), |g, w, cell| {
            counters[g].fold_match(u, v, w, cell, u64::from(owners[g]), &mut closed[g]);
        });
        if stored {
            for g in 0..self.specs.len() {
                self.counters[g].record_store(e, self.owners[g] as usize, self.closed[g]);
            }
        }
    }

    /// Batch-boundary compaction (see [`FusedGroup::compact`]).
    #[inline]
    pub(crate) fn compact(&mut self) {
        self.adj.compact();
    }

    /// Finishes all groups. The shared structure's bytes are split
    /// evenly across the groups so layout-wide totals stay meaningful.
    pub(crate) fn into_aggregates(self) -> Vec<GroupAggregate> {
        let shared_bytes = self.adj.approx_bytes() / self.specs.len();
        self.specs
            .iter()
            .zip(self.counters)
            .map(|(spec, counters)| {
                let mut agg = counters.into_aggregate(spec.start);
                agg.bytes += shared_bytes;
                agg
            })
            .collect()
    }

    /// Non-consuming version of [`Self::into_aggregates`] — anytime
    /// estimates for the incremental driver.
    pub(crate) fn snapshot_aggregates(&self) -> Vec<GroupAggregate> {
        let shared_bytes = self.adj.approx_bytes() / self.specs.len();
        self.specs
            .iter()
            .zip(&self.counters)
            .map(|(spec, counters)| {
                let mut agg = counters.clone().into_aggregate(spec.start);
                agg.bytes += shared_bytes;
                agg
            })
            .collect()
    }

    /// Restores one stored edge during checkpoint decode: recomputes
    /// every group's tag from its hasher and inserts **without
    /// counting** (the counters are restored separately). Returns
    /// `false` on a duplicate.
    pub(crate) fn insert_restored(&mut self, e: Edge) -> bool {
        let (uu, vv) = e.as_u64_pair();
        for (owner, spec) in self.owners.iter_mut().zip(&self.specs) {
            *owner = spec.hasher.cell(uu, vv) as CellTag;
        }
        self.adj.insert(e, &self.owners)
    }
}

/// All full hash groups **and** the remainder group fused over one
/// masked shared structure. The full groups store every stream edge,
/// so the union set is theirs; the remainder group's sampled edges are
/// the subset whose remainder-hash cell is owned (`cell < c₂`), marked
/// by the masked tag column of the shared
/// [`MaskedHybridTaggedAdjacency`]. One structure walk per arriving
/// edge yields every group's matches — including the remainder's,
/// which would otherwise pay a second walk over its own adjacency.
/// Counters are maintained per group exactly as
/// `FusedGroup` would, so the result is bit-identical to running the
/// full groups shared and the remainder independently.
#[derive(Debug, Clone)]
pub(crate) struct FusedMaskedGroups {
    /// The full groups' specs, in layout order.
    pub(crate) full_specs: Vec<GroupSpec>,
    /// The remainder group's spec (`size < m`).
    pub(crate) rem_spec: GroupSpec,
    pub(crate) adj: MaskedHybridTaggedAdjacency,
    /// Per-group counters: full groups first, remainder **last** —
    /// matching the masked structure's group indexing, where group
    /// `full_specs.len()` is the masked group.
    pub(crate) counters: Vec<GroupCounters>,
    /// Per-edge scratch: each full group's owner cell …
    full_owners: Vec<CellTag>,
    /// … and each group's `|N⁽ᵒʷⁿᵉʳ⁾_{u,v}|` for η initialisation
    /// (remainder last).
    closed: Vec<u64>,
}

impl FusedMaskedGroups {
    /// Creates the shared state for the given full groups plus the
    /// remainder group.
    ///
    /// # Panics
    ///
    /// Panics if `full_specs` is empty, a full group does not own all
    /// `m` cells, or the remainder group does (a full remainder is a
    /// full group and belongs in `full_specs`).
    pub(crate) fn new(full_specs: &[GroupSpec], rem_spec: GroupSpec, cfg: &ReptConfig) -> Self {
        assert!(!full_specs.is_empty(), "masked sharing needs a full group");
        for g in full_specs {
            assert_eq!(
                g.size as u64,
                g.hasher.cells(),
                "shared full-group state requires every cell to be owned"
            );
        }
        assert!(
            (rem_spec.size as u64) < rem_spec.hasher.cells(),
            "a remainder group must leave cells unowned"
        );
        let n = full_specs.len();
        Self {
            adj: MaskedHybridTaggedAdjacency::new(n),
            counters: full_specs
                .iter()
                .chain(std::iter::once(&rem_spec))
                .map(|g| GroupCounters::new(g.size, cfg))
                .collect(),
            full_owners: vec![0; n],
            closed: vec![0; n + 1],
            full_specs: full_specs.to_vec(),
            rem_spec,
        }
    }

    /// Processes one stream edge for every group in a single structural
    /// matching pass. The edge always enters the union set (each full
    /// group owns every cell) unless it is a duplicate; its masked tag
    /// is set iff the remainder group owns its remainder cell.
    #[inline]
    pub(crate) fn process(&mut self, e: Edge) {
        let (u, v) = e.endpoints();
        let (uu, vv) = e.as_u64_pair();
        for (owner, spec) in self.full_owners.iter_mut().zip(&self.full_specs) {
            *owner = spec.hasher.cell(uu, vv) as CellTag;
        }
        let rem_owner = self.rem_spec.hasher.cell(uu, vv);
        let masked = ((rem_owner as usize) < self.rem_spec.size).then_some(rem_owner as CellTag);
        self.closed.fill(0);
        let n = self.full_specs.len();
        let counters = &mut self.counters;
        let closed = &mut self.closed;
        let owners = &self.full_owners;
        let stored = self
            .adj
            .match_then_insert(e, Some((owners, masked)), |g, w, cell| {
                let owner = if g < n {
                    u64::from(owners[g])
                } else {
                    rem_owner
                };
                counters[g].fold_match(u, v, w, cell, owner, &mut closed[g]);
            });
        if stored {
            for g in 0..n {
                self.counters[g].record_store(e, self.full_owners[g] as usize, self.closed[g]);
            }
            if masked.is_some() {
                self.counters[n].record_store(e, rem_owner as usize, self.closed[n]);
            }
        }
    }

    /// Batch-boundary compaction (see [`FusedGroup::compact`]).
    #[inline]
    pub(crate) fn compact(&mut self) {
        self.adj.compact();
    }

    /// Every spec in counter order (full groups, then the remainder).
    fn specs(&self) -> impl Iterator<Item = &GroupSpec> {
        self.full_specs
            .iter()
            .chain(std::iter::once(&self.rem_spec))
    }

    /// Finishes all groups. The shared structure's bytes are split
    /// evenly across the groups so layout-wide totals stay meaningful.
    pub(crate) fn into_aggregates(self) -> Vec<GroupAggregate> {
        let shared_bytes = self.adj.approx_bytes() / self.counters.len();
        let starts: Vec<usize> = self.specs().map(|s| s.start).collect();
        starts
            .into_iter()
            .zip(self.counters)
            .map(|(start, counters)| {
                let mut agg = counters.into_aggregate(start);
                agg.bytes += shared_bytes;
                agg
            })
            .collect()
    }

    /// Non-consuming version of [`Self::into_aggregates`] — anytime
    /// estimates for the incremental driver.
    pub(crate) fn snapshot_aggregates(&self) -> Vec<GroupAggregate> {
        let shared_bytes = self.adj.approx_bytes() / self.counters.len();
        self.specs()
            .zip(&self.counters)
            .map(|(spec, counters)| {
                let mut agg = counters.clone().into_aggregate(spec.start);
                agg.bytes += shared_bytes;
                agg
            })
            .collect()
    }

    /// Restores one union-set edge during checkpoint decode: recomputes
    /// every group's tag (masked tag included) from the hashers and
    /// inserts **without counting**. Returns `false` on a duplicate.
    pub(crate) fn insert_restored(&mut self, e: Edge) -> bool {
        let (uu, vv) = e.as_u64_pair();
        for (owner, spec) in self.full_owners.iter_mut().zip(&self.full_specs) {
            *owner = spec.hasher.cell(uu, vv) as CellTag;
        }
        let rem_owner = self.rem_spec.hasher.cell(uu, vv);
        let masked = ((rem_owner as usize) < self.rem_spec.size).then_some(rem_owner as CellTag);
        self.adj.insert(e, &self.full_owners, masked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Rept;
    use crate::worker::SemiTriangleWorker;
    use rept_gen::{barabasi_albert, GeneratorConfig};
    use rept_graph::hybrid_tagged::DEFAULT_DENSE_THRESHOLD;

    /// The fused group's counters equal the per-worker counters on the
    /// same group, field by field — including the per-edge η counters the
    /// estimate never exposes directly. `threshold` is the adjacency's
    /// promotion threshold, so one body covers every row representation.
    fn counters_match_workers_exactly(threshold: usize) {
        let stream = barabasi_albert(&GeneratorConfig::new(250, 7), 5);
        for (m, c) in [(4u64, 4u64), (6, 3), (5, 2)] {
            for mode in [EtaMode::PaperInit, EtaMode::StrictNonLast] {
                let cfg = ReptConfig::new(m, c)
                    .with_seed(11)
                    .with_eta(true)
                    .with_eta_mode(mode);
                let rept = Rept::new(cfg);
                let spec = rept.groups()[0];

                let mut fused = FusedGroup::new(spec, &cfg);
                fused.adj = HybridTaggedAdjacency::with_threshold(threshold);
                let mut workers: Vec<SemiTriangleWorker> = (0..spec.size)
                    .map(|_| SemiTriangleWorker::new(true, true, mode))
                    .collect();
                for &e in &stream {
                    fused.process(e);
                    let (u, v) = e.as_u64_pair();
                    let cell = spec.hasher.cell(u, v) as usize;
                    for (off, w) in workers.iter_mut().enumerate() {
                        let closed = w.observe(e);
                        if off == cell {
                            w.store(e, closed);
                        }
                    }
                }

                // Per-worker τ and stored-edge counts.
                for (i, w) in workers.iter().enumerate() {
                    assert_eq!(fused.counters.tau[i], w.tau(), "τ({i}) m={m} c={c}");
                    assert_eq!(fused.counters.stored[i], w.stored_edges(), "stored({i})");
                }
                // Group sums of the per-node and per-edge maps.
                let mut tau_v: FxHashMap<NodeId, u64> = FxHashMap::default();
                let mut eta_v: FxHashMap<NodeId, u64> = FxHashMap::default();
                let mut per_edge: FxHashMap<Edge, u64> = FxHashMap::default();
                let mut eta_total = 0u64;
                for w in &workers {
                    eta_total += w.eta();
                    for (&n, &x) in w.tau_v().unwrap() {
                        *tau_v.entry(n).or_insert(0) += x;
                    }
                    for (&n, &x) in w.eta_v().unwrap() {
                        *eta_v.entry(n).or_insert(0) += x;
                    }
                    for (e, x) in w.edge_counter_entries().unwrap() {
                        *per_edge.entry(e).or_insert(0) += x;
                    }
                }
                let eta = fused.counters.eta.as_ref().unwrap();
                assert_eq!(eta.total, eta_total, "η m={m} c={c} {mode:?}");
                assert_eq!(fused.counters.tau_v.as_ref().unwrap(), &tau_v);
                assert_eq!(&eta.per_node, &eta_v);
                assert_eq!(&eta.per_edge, &per_edge);
            }
        }
    }

    /// The engine's own layout: at the default threshold no node of this
    /// stream is promoted, so every row stays a sorted list.
    #[test]
    fn hybrid_backend_counters_match_workers_exactly() {
        counters_match_workers_exactly(DEFAULT_DENSE_THRESHOLD);
    }

    /// Every row promoted to a bitmap from its first edge: the
    /// dense×dense kernel carries all matching.
    #[test]
    fn dense_rows_counters_match_workers_exactly() {
        counters_match_workers_exactly(0);
    }

    /// Hubs cross the promotion boundary mid-stream while leaves stay
    /// sparse: the dense×sparse kernel and promotion itself run.
    #[test]
    fn mixed_rows_counters_match_workers_exactly() {
        counters_match_workers_exactly(24);
    }

    /// The masked fusion equals the split layout — shared full groups
    /// plus an independent remainder group — counter for counter, on
    /// duplicate-edge streams, both η modes, with every structure built
    /// at promotion threshold `threshold`.
    fn masked_groups_equal_split_layout(threshold: usize) {
        let mut stream = barabasi_albert(&GeneratorConfig::new(200, 5), 4);
        let dup: Vec<Edge> = stream[20..60].to_vec();
        stream.splice(90..90, dup);
        for (m, c) in [(4u64, 9u64), (4, 11), (3, 4), (5, 23)] {
            for mode in [EtaMode::PaperInit, EtaMode::StrictNonLast] {
                let cfg = ReptConfig::new(m, c)
                    .with_seed(7)
                    .with_eta(true)
                    .with_eta_mode(mode);
                let rept = Rept::new(cfg);
                let (full, rem): (Vec<GroupSpec>, Vec<GroupSpec>) = rept
                    .groups()
                    .iter()
                    .copied()
                    .partition(|g| g.size as u64 == m);
                assert_eq!(rem.len(), 1, "layouts chosen to have a remainder");

                let mut masked = FusedMaskedGroups::new(&full, rem[0], &cfg);
                masked.adj = MaskedHybridTaggedAdjacency::with_threshold(full.len(), threshold);
                let mut shared = FusedFullGroups::new(&full, &cfg);
                shared.adj = MultiHybridTaggedAdjacency::with_threshold(full.len(), threshold);
                let mut independent = FusedGroup::new(rem[0], &cfg);
                independent.adj = HybridTaggedAdjacency::with_threshold(threshold);
                for (i, &e) in stream.iter().enumerate() {
                    masked.process(e);
                    shared.process(e);
                    independent.process(e);
                    if i % 173 == 0 {
                        masked.compact();
                        shared.compact();
                        independent.compact();
                    }
                }
                assert_eq!(masked.adj.edge_count(), shared.adj.edge_count());
                assert_eq!(
                    masked.adj.masked_edge_count(),
                    independent.adj.edge_count(),
                    "m={m} c={c}"
                );
                let got = masked.into_aggregates();
                let mut want = shared.into_aggregates();
                want.push(independent.into_aggregate());
                assert_eq!(got.len(), want.len());
                for (g, w) in got.iter().zip(&want) {
                    assert_eq!(g.start, w.start, "m={m} c={c}");
                    assert_eq!(g.tau, w.tau, "τ start={} m={m} c={c}", g.start);
                    assert_eq!(g.stored, w.stored, "stored start={}", g.start);
                    assert_eq!(g.eta_total, w.eta_total, "η start={} {mode:?}", g.start);
                    assert_eq!(g.tau_v, w.tau_v, "τ_v start={}", g.start);
                    assert_eq!(g.eta_v, w.eta_v, "η_v start={}", g.start);
                }
            }
        }
    }

    /// At the default threshold, as the engine builds it.
    #[test]
    fn masked_groups_equal_full_groups_plus_independent_remainder() {
        masked_groups_equal_split_layout(DEFAULT_DENSE_THRESHOLD);
    }

    /// At a threshold low enough that this stream's hubs are promoted
    /// mid-stream, so both row representations and the promotion step
    /// are held to the split layout.
    #[test]
    fn hybrid_masked_groups_equal_full_groups_plus_independent_remainder() {
        masked_groups_equal_split_layout(8);
    }

    /// Unowned cells (`cell ≥ size`) must drop the edge.
    #[test]
    fn unowned_cells_store_nothing() {
        let cfg = ReptConfig::new(8, 2).with_seed(3); // 6 of 8 cells unowned
        let rept = Rept::new(cfg);
        let spec = rept.groups()[0];
        let stream = barabasi_albert(&GeneratorConfig::new(100, 1), 3);
        let mut fused = FusedGroup::new(spec, &cfg);
        for &e in &stream {
            fused.process(e);
        }
        let expected: usize = stream
            .iter()
            .filter(|e| spec.hasher.cell(u64::from(e.u()), u64::from(e.v())) < 2)
            .count();
        assert_eq!(fused.adj.edge_count(), expected);
        assert_eq!(fused.counters.stored.iter().sum::<usize>(), expected);
    }
}
