//! The fused group execution engine.
//!
//! The per-worker engine ([`crate::worker::SemiTriangleWorker`]) realises
//! the paper's cost model literally: every processor of a hash group keeps
//! its own adjacency over its partition cell and runs its own
//! `N_u ∩ N_v` intersection per stream edge, so a group of `size` workers
//! performs `size` hash-probing passes over what is collectively **one**
//! partitioned edge set. This module fuses those passes: `FusedGroups`
//! stores every kept group's sampled edges once in a [`HybridAdjacency`]
//! and recovers *every* worker's counters from a single common-neighbor
//! pass. An edge's cell is a pure function of the edge (processor `i` of
//! a group stores exactly the edges its group's hash sends to cell `i`),
//! so nothing but neighbor ids is stored: at each structural common
//! neighbor `w` of an arriving edge `(u, v)`, group `g` matches — closing
//! a semi-triangle for its worker `i` — iff
//! `cell_g(u, w) == cell_g(v, w) == i < size_g`, both cells recomputed
//! from the group's hash.
//!
//! One layout serves every shape: a `c ≤ m` group, `k` full groups, `k`
//! full groups plus the remainder, and any shard's slice of these. Cells
//! `size..m` belong to no worker (REPT's subsampling), so a full group
//! owns every stored edge and a remainder or `c < m` group owns the
//! subset its hash sends below its size. An edge is stored iff some
//! group owns it.
//!
//! Per edge the cost drops from
//! `O(Σᵢ |N⁽ⁱ⁾_u ∩ N⁽ⁱ⁾_v| probes)` — `size` lookups of (mostly tiny)
//! per-worker neighbor sets plus `size` intersections, per group — to
//! **one** intersection over the union adjacency plus two cell hashes
//! per group at each common neighbor. The counters
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
use rept_graph::hybrid::HybridAdjacency;
use rept_hash::fx::{table_bytes, FxHashMap, FxHashSet};

use crate::config::{EtaMode, ReptConfig};
use crate::engine::Touched;
use crate::estimator::{GroupAggregate, GroupSpec};
use crate::worker::update_eta_pair;

/// The counters of one hash group's `size` workers under the fused
/// engine (everything `process` mutates besides the adjacency itself).
///
/// Fields are `pub(crate)` so [`crate::resume`] can serialise and restore
/// the full group state for engine-aware checkpoints.
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
/// `i`'s `τ⁽ⁱ⁾_(u,v)` entries are precisely the entries whose edge
/// hashes to cell `i`, so the union of the per-worker maps is disjoint.
#[derive(Debug, Clone, Default)]
pub(crate) struct FusedEtaCounters {
    /// `Σᵢ η⁽ⁱ⁾`.
    pub(crate) total: u64,
    /// `Σᵢ η⁽ⁱ⁾_v`.
    pub(crate) per_node: FxHashMap<NodeId, u64>,
    /// `τ⁽ⁱ⁾_(u,v)` for every stored edge (owning worker implied by its
    /// cell).
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

    /// The counter maps' own heap footprint.
    fn map_bytes(&self) -> usize {
        let mut bytes = 0;
        if let Some(tv) = &self.tau_v {
            bytes += table_bytes::<NodeId, u64>(tv.capacity());
        }
        if let Some(eta) = &self.eta {
            bytes += table_bytes::<NodeId, u64>(eta.per_node.capacity());
            bytes += table_bytes::<Edge, u64>(eta.per_edge.capacity());
        }
        bytes
    }

    /// Finishes this group's counters into the aggregate the estimator
    /// combines. `bytes` starts at the counter maps' own footprint; the
    /// caller adds its adjacency share.
    fn into_aggregate(self, start: usize) -> GroupAggregate {
        GroupAggregate {
            start,
            bytes: self.map_bytes(),
            tau: self.tau,
            stored: self.stored,
            eta_total: self.eta.as_ref().map_or(0, |e| e.total),
            tau_v: self.tau_v,
            eta_v: self.eta.map(|e| e.per_node),
        }
    }

    /// [`Self::into_aggregate`] without consuming: the per-node maps
    /// copied whole, or only the entries of the `only` nodes.
    fn aggregate(&self, start: usize, only: Option<&FxHashSet<NodeId>>) -> GroupAggregate {
        let pick = |map: &FxHashMap<NodeId, u64>| match only {
            None => map.clone(),
            Some(nodes) => nodes
                .iter()
                .filter_map(|v| map.get(v).map(|&x| (*v, x)))
                .collect(),
        };
        GroupAggregate {
            start,
            tau: self.tau.clone(),
            stored: self.stored.clone(),
            bytes: self.map_bytes(),
            eta_total: self.eta.as_ref().map_or(0, |e| e.total),
            tau_v: self.tau_v.as_ref().map(pick),
            eta_v: self.eta.as_ref().map(|e| pick(&e.per_node)),
        }
    }

    /// Folds one common neighbor `w` of the arriving edge `(u, v)`,
    /// matched in `cell`, into every counter — the single statement
    /// sequence every match funnels through, so the bit-identical
    /// invariant cannot drift between layouts. `closed_owner`
    /// accumulates `|N⁽ᵒʷⁿᵉʳ⁾_{u,v}|` for the paper-faithful η
    /// initialisation of the stored edge.
    #[inline]
    fn fold_match(
        &mut self,
        u: NodeId,
        v: NodeId,
        w: NodeId,
        cell: u64,
        owner: u64,
        closed_owner: &mut u64,
    ) {
        if cell == owner {
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

/// Adds a node to a touched set — out of line, so the intersection
/// loops that call back per common neighbor stay as small as they were
/// without the tracking.
#[cold]
#[inline(never)]
fn touch(set: &mut FxHashSet<NodeId>, v: NodeId) {
    set.insert(v);
}

/// Every kept hash group of a fused core over one shared neighbor
/// structure: [`Self::adj`] holds the union of the groups' stored edge
/// sets. One structure walk per arriving edge discovers the common
/// neighbors for every group at once; only the per-group cell tests and
/// counter folds remain per group, and the counters are maintained per
/// group exactly as each group run alone would keep them.
#[derive(Debug, Clone)]
pub(crate) struct FusedGroups {
    /// The kept groups, in layout order.
    pub(crate) specs: Vec<GroupSpec>,
    /// The union of every kept group's stored edges.
    pub(crate) adj: HybridAdjacency,
    /// Per-group counters, in layout order.
    pub(crate) counters: Vec<GroupCounters>,
    /// Every node of a counted semi-triangle since the last
    /// [`Self::take_touched`] — `None` until the first call starts the
    /// tracking, so a run nobody reads it from (a batch driver, a
    /// journal replay) pays nothing for it.
    touched: Option<FxHashSet<NodeId>>,
    /// Per-edge scratch: each group's cell of the arriving edge …
    cells: Vec<u64>,
    /// … and each group's `|N⁽ᵒʷⁿᵉʳ⁾_{u,v}|` for η initialisation
    /// (zero between edges).
    closed: Vec<u64>,
}

impl FusedGroups {
    /// Creates the fused state for the given groups.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty.
    pub(crate) fn new(specs: &[GroupSpec], cfg: &ReptConfig) -> Self {
        assert!(!specs.is_empty(), "a fused core keeps at least one group");
        Self {
            adj: HybridAdjacency::new(),
            counters: specs
                .iter()
                .map(|g| GroupCounters::new(g.size, cfg))
                .collect(),
            touched: None,
            cells: vec![0; specs.len()],
            closed: vec![0; specs.len()],
            specs: specs.to_vec(),
        }
    }

    /// Hashes the edge under every group into the scratch cells; returns
    /// whether some group owns it (`cell < size` — cells `size..m` are
    /// REPT's subsampling and belong to no worker).
    #[inline]
    fn fill_cells(&mut self, e: Edge) -> bool {
        let (uu, vv) = e.as_u64_pair();
        let mut owned = false;
        for (spec, cell) in self.specs.iter().zip(&mut self.cells) {
            *cell = spec.hasher.cell(uu, vv);
            owned |= (*cell as usize) < spec.size;
        }
        owned
    }

    /// Processes one stream edge: counts every worker's semi-triangle
    /// closures in a single common-neighbor pass, then stores the edge if
    /// some group owns it, through the structure's fused
    /// [`HybridAdjacency::match_then_insert`], which resolves
    /// per-endpoint state once. At each common neighbor `w`, group `g`
    /// matches iff `cell_g(u, w) == cell_g(v, w)` and the group owns
    /// that cell. A duplicate stream edge fails the insert and is
    /// ignored, exactly like `SemiTriangleWorker::store`. The nodes of
    /// every match join the touched set: a common neighbor once per
    /// edge, the endpoints once if anything matched.
    #[inline]
    pub(crate) fn process(&mut self, e: Edge) {
        let (u, v) = e.endpoints();
        let owned = self.fill_cells(e);
        let specs = &self.specs;
        let counters = &mut self.counters;
        let closed = &mut self.closed;
        let cells = &self.cells;
        let mut touched = self.touched.as_mut();
        let mut matched = false;
        let stored = self.adj.match_then_insert(e, owned, |w| {
            let (uu, vv, ww) = (u64::from(u), u64::from(v), u64::from(w));
            let mut hit = false;
            for (g, spec) in specs.iter().enumerate() {
                let cell = spec.hasher.cell(uu, ww);
                if (cell as usize) < spec.size && cell == spec.hasher.cell(vv, ww) {
                    counters[g].fold_match(u, v, w, cell, cells[g], &mut closed[g]);
                    hit = true;
                }
            }
            if hit {
                matched = true;
                if let Some(t) = touched.as_deref_mut() {
                    touch(t, w);
                }
            }
        });
        if let (true, Some(t)) = (matched, touched) {
            touch(t, u);
            touch(t, v);
        }
        // Only an owning group's count can have moved (a matched cell is
        // always owned), so settling those groups leaves `closed` zero
        // for the next edge.
        if owned {
            for (g, spec) in self.specs.iter().enumerate() {
                let cell = self.cells[g] as usize;
                if cell < spec.size {
                    if stored {
                        self.counters[g].record_store(e, cell, self.closed[g]);
                    }
                    self.closed[g] = 0;
                }
            }
        }
    }

    /// Finishes all groups, yielding the aggregates the estimator
    /// combines. The shared structure's bytes are split evenly across the
    /// groups so layout-wide totals stay meaningful.
    pub(crate) fn into_aggregates(self) -> Vec<GroupAggregate> {
        let shared = self.adj.approx_bytes() / self.specs.len();
        self.specs
            .iter()
            .zip(self.counters)
            .map(|(spec, counters)| {
                let mut agg = counters.into_aggregate(spec.start);
                agg.bytes += shared;
                agg
            })
            .collect()
    }

    /// Non-consuming version of [`Self::into_aggregates`] — copies the
    /// counter state so an *anytime* estimate can be produced mid-stream
    /// without stopping ingestion (the serving subsystem's query path).
    /// With `only`, the per-node maps carry just those nodes' entries:
    /// the delta form of the aggregate exchange.
    pub(crate) fn snapshot_aggregates(
        &self,
        only: Option<&FxHashSet<NodeId>>,
    ) -> Vec<GroupAggregate> {
        let shared = self.adj.approx_bytes() / self.specs.len();
        self.specs
            .iter()
            .zip(&self.counters)
            .map(|(spec, counters)| {
                let mut agg = counters.aggregate(spec.start, only);
                agg.bytes += shared;
                agg
            })
            .collect()
    }

    /// The nodes touched since the last call, starting over with none —
    /// [`Touched::All`] on the first call, which starts the tracking.
    /// Nothing per node moves when no per-node map is tracked.
    pub(crate) fn take_touched(&mut self) -> Touched {
        let per_node = &self.counters[0];
        if per_node.tau_v.is_none() && per_node.eta.is_none() {
            return Touched::none();
        }
        self.touched
            .replace(FxHashSet::default())
            .map_or(Touched::All, Touched::Nodes)
    }

    /// Restores the stored edges during checkpoint decode: inserts each
    /// edge **without counting** (the counters are restored separately)
    /// and returns how many edges each group owns, by the cells its hash
    /// gives them — `None` on a duplicate or an edge no group owns.
    pub(crate) fn restore_edges(&mut self, edges: &[Edge]) -> Option<Vec<usize>> {
        let mut kept = vec![0; self.specs.len()];
        for &e in edges {
            if !(self.fill_cells(e) && self.adj.insert(e)) {
                return None;
            }
            for ((k, &cell), spec) in kept.iter_mut().zip(&self.cells).zip(&self.specs) {
                *k += usize::from((cell as usize) < spec.size);
            }
        }
        Some(kept)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::estimator::Rept;
    use crate::worker::SemiTriangleWorker;
    use rept_gen::{barabasi_albert, complete, GeneratorConfig};
    use rept_graph::hybrid::DEFAULT_DENSE_THRESHOLD;

    /// The fused group's counters equal the per-worker counters on the
    /// same group, field by field — including the per-edge η counters the
    /// estimate never exposes directly. `threshold` is the adjacency's
    /// promotion threshold, so one body covers every row representation.
    /// `(300, 280)` owns cells past one byte; a `K₆₀` on fresh ids after
    /// the BA stream makes some of them match.
    fn counters_match_workers_exactly(threshold: usize) {
        let mut stream = barabasi_albert(&GeneratorConfig::new(250, 7), 5);
        stream.extend(
            complete(60)
                .iter()
                .map(|e| Edge::new(e.u() + 1000, e.v() + 1000)),
        );
        for (m, c) in [(4u64, 4u64), (6, 3), (5, 2), (300, 280)] {
            for mode in [EtaMode::PaperInit, EtaMode::StrictNonLast] {
                let cfg = ReptConfig::new(m, c)
                    .with_seed(11)
                    .with_eta(true)
                    .with_eta_mode(mode);
                let rept = Rept::new(cfg);
                let spec = rept.groups()[0];

                let mut fused = FusedGroups::new(&[spec], &cfg);
                fused.adj = HybridAdjacency::with_threshold(threshold);
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
                    assert_eq!(fused.counters[0].tau[i], w.tau(), "τ({i}) m={m} c={c}");
                    assert_eq!(fused.counters[0].stored[i], w.stored_edges(), "stored({i})");
                }
                if spec.size > 256 {
                    assert!(
                        fused.counters[0].tau[256..].iter().any(|&t| t > 0),
                        "no match in a cell past one byte, m={m} c={c}"
                    );
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
                let eta = fused.counters[0].eta.as_ref().unwrap();
                assert_eq!(eta.total, eta_total, "η m={m} c={c} {mode:?}");
                assert_eq!(fused.counters[0].tau_v.as_ref().unwrap(), &tau_v);
                assert_eq!(&eta.per_node, &eta_v);
                assert_eq!(&eta.per_edge, &per_edge);
            }
        }
    }

    /// The engine's own layout: at the default threshold no node of this
    /// stream is promoted, so every row stays inline or in a sorted vec.
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

    /// A threshold below the inline capacity: rows promote straight
    /// from the inline form, with no vec in between, so the dense×sorted
    /// kernel meets inline rows.
    #[test]
    fn inline_promoted_rows_counters_match_workers_exactly() {
        counters_match_workers_exactly(3);
    }

    /// The remainder sharing the full groups' structure equals the split
    /// layout — the full groups alone plus the remainder group
    /// alone — counter for counter, on duplicate-edge streams, both η
    /// modes, with every structure built at promotion threshold
    /// `threshold`.
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

                let mut masked = FusedGroups::new(rept.groups(), &cfg);
                masked.adj = HybridAdjacency::with_threshold(threshold);
                let mut shared = FusedGroups::new(&full, &cfg);
                shared.adj = HybridAdjacency::with_threshold(threshold);
                let mut independent = FusedGroups::new(&rem, &cfg);
                independent.adj = HybridAdjacency::with_threshold(threshold);
                for &e in &stream {
                    masked.process(e);
                    shared.process(e);
                    independent.process(e);
                }
                assert_eq!(masked.adj.edge_count(), shared.adj.edge_count());
                let mut remainder_kept = 0;
                masked.adj.for_each_edge(|e| {
                    let (u, v) = e.as_u64_pair();
                    remainder_kept +=
                        usize::from((rem[0].hasher.cell(u, v) as usize) < rem[0].size);
                });
                assert_eq!(remainder_kept, independent.adj.edge_count(), "m={m} c={c}");
                let got = masked.into_aggregates();
                let mut want = shared.into_aggregates();
                want.extend(independent.into_aggregates());
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
    /// mid-stream, so every row form, the spill and the promotion step
    /// are held to the split layout.
    #[test]
    fn hybrid_masked_groups_equal_full_groups_plus_independent_remainder() {
        masked_groups_equal_split_layout(8);
    }

    /// Below the inline capacity: every row past three neighbors is a
    /// bitmap promoted straight from the inline form.
    #[test]
    fn inline_promoted_masked_groups_equal_full_groups_plus_independent_remainder() {
        masked_groups_equal_split_layout(3);
    }

    /// Unowned cells (`cell ≥ size`) must drop the edge.
    #[test]
    fn unowned_cells_store_nothing() {
        let cfg = ReptConfig::new(8, 2).with_seed(3); // 6 of 8 cells unowned
        let rept = Rept::new(cfg);
        let spec = rept.groups()[0];
        let stream = barabasi_albert(&GeneratorConfig::new(100, 1), 3);
        let mut fused = FusedGroups::new(&[spec], &cfg);
        for &e in &stream {
            fused.process(e);
        }
        let expected: usize = stream
            .iter()
            .filter(|e| spec.hasher.cell(u64::from(e.u()), u64::from(e.v())) < 2)
            .count();
        assert_eq!(fused.adj.edge_count(), expected);
        assert_eq!(fused.counters[0].stored.iter().sum::<usize>(), expected);
    }
}
