//! One REPT processor: semi-triangle and η-pair bookkeeping.
//!
//! A worker models processor `i` of the paper: it *observes* every edge of
//! the stream (running `UpdateTriangleCNT` / `UpdateTrianglePairCNT`
//! against its stored edge set `E⁽ⁱ⁾`) and *stores* only the edges the
//! partition hash assigns to it. The estimator layer owns the hash and
//! calls [`SemiTriangleWorker::observe`] / [`SemiTriangleWorker::store`].
//!
//! The same type powers the exactness tests (`store` on every edge makes it
//! an exact counter) and the MASCOT baseline (store decided by a coin).

use rept_graph::adjacency::DynamicAdjacency;
use rept_graph::edge::{Edge, NodeId};
use rept_hash::fx::FxHashMap;

use crate::config::EtaMode;

/// Per-processor counters (paper notation in comments).
#[derive(Debug, Clone)]
pub struct SemiTriangleWorker {
    /// `E⁽ⁱ⁾` — sampled edges, as an adjacency structure.
    adj: DynamicAdjacency,
    /// `τ⁽ⁱ⁾` — semi-triangles whose first two edges landed here.
    tau: u64,
    /// `τ⁽ⁱ⁾_v` — per-node semi-triangle counts (`None` if not tracked).
    tau_v: Option<FxHashMap<NodeId, u64>>,
    /// `η⁽ⁱ⁾` and friends (`None` if not tracked).
    eta: Option<EtaCounters>,
    eta_mode: EtaMode,
    /// Scratch buffer for common neighbors (avoids a per-edge allocation).
    scratch: Vec<NodeId>,
}

#[derive(Debug, Clone, Default)]
struct EtaCounters {
    /// `η⁽ⁱ⁾`.
    global: u64,
    /// `η⁽ⁱ⁾_v`.
    per_node: FxHashMap<NodeId, u64>,
    /// `τ⁽ⁱ⁾_(u,v)` — semi-triangles containing each stored edge.
    per_edge: FxHashMap<Edge, u64>,
}

/// One η-pair update for common neighbor `w` of the arriving edge
/// `(u, v)` — the inner statement sequence of `UpdateTrianglePairCNT`.
/// Shared by the per-worker and fused engines so their bit-identical
/// invariant cannot drift: both must read the two per-edge counters, bump
/// the pair totals, and only then increment the counters.
pub(crate) fn update_eta_pair(
    total: &mut u64,
    per_node: &mut FxHashMap<NodeId, u64>,
    per_edge: &mut FxHashMap<Edge, u64>,
    u: NodeId,
    v: NodeId,
    w: NodeId,
) {
    // Stored edges (u,w) and (v,w) always have counters: they were
    // created when the edges entered the sampled set.
    let e_uw = Edge::new(u, w);
    let e_vw = Edge::new(v, w);
    let t_uw = *per_edge.entry(e_uw).or_insert(0);
    let t_vw = *per_edge.entry(e_vw).or_insert(0);
    *total += t_uw + t_vw;
    *per_node.entry(w).or_insert(0) += t_uw + t_vw;
    *per_node.entry(u).or_insert(0) += t_uw;
    *per_node.entry(v).or_insert(0) += t_vw;
    *per_edge.get_mut(&e_uw).expect("entry created above") += 1;
    *per_edge.get_mut(&e_vw).expect("entry created above") += 1;
}

impl SemiTriangleWorker {
    /// Creates a worker. `track_locals` enables `τ⁽ⁱ⁾_v`; `track_eta`
    /// enables `η⁽ⁱ⁾`, `η⁽ⁱ⁾_v` and the per-edge counters.
    pub fn new(track_locals: bool, track_eta: bool, eta_mode: EtaMode) -> Self {
        Self {
            adj: DynamicAdjacency::new(),
            tau: 0,
            tau_v: track_locals.then(FxHashMap::default),
            eta: track_eta.then(EtaCounters::default),
            eta_mode,
            scratch: Vec::new(),
        }
    }

    /// Processes an arriving stream edge *without* storing it — the
    /// counting half of `UpdateTrianglePairCNT`. Every worker sees every
    /// edge. Returns `|N⁽ⁱ⁾_{u,v}|`, the number of semi-triangles closed.
    pub fn observe(&mut self, e: Edge) -> u64 {
        let (u, v) = e.endpoints();
        // Count-only fast path: when neither locals nor η are tracked, the
        // identities of the common neighbors are never consumed — only the
        // intersection size is. Skip the scratch buffer entirely.
        if self.tau_v.is_none() && self.eta.is_none() {
            let closed = self.adj.for_each_common_neighbor(u, v, |_| {}) as u64;
            self.tau += closed;
            return closed;
        }
        // Collect the common neighbors first; counter updates need &mut.
        self.scratch.clear();
        let scratch = &mut self.scratch;
        self.adj.for_each_common_neighbor(u, v, |w| scratch.push(w));
        let closed = self.scratch.len() as u64;
        if closed == 0 {
            return 0;
        }

        self.tau += closed;
        if let Some(tau_v) = &mut self.tau_v {
            *tau_v.entry(u).or_insert(0) += closed;
            *tau_v.entry(v).or_insert(0) += closed;
            for w in &self.scratch {
                *tau_v.entry(*w).or_insert(0) += 1;
            }
        }
        if let Some(eta) = &mut self.eta {
            for &w in &self.scratch {
                update_eta_pair(
                    &mut eta.global,
                    &mut eta.per_node,
                    &mut eta.per_edge,
                    u,
                    v,
                    w,
                );
            }
        }
        closed
    }

    /// Stores the edge into `E⁽ⁱ⁾` (the partition hash matched this
    /// worker). Must be called *after* [`Self::observe`] for the same edge,
    /// mirroring Algorithm 1/2's statement order. `closed` is the value
    /// `observe` returned — Algorithm 2 initialises the per-edge counter
    /// with it under [`EtaMode::PaperInit`].
    pub fn store(&mut self, e: Edge, closed: u64) {
        if !self.adj.insert(e) {
            // Duplicate stream edge; the paper assumes simple streams, and
            // re-storing would corrupt the per-edge counters.
            return;
        }
        if let Some(eta) = &mut self.eta {
            let init = match self.eta_mode {
                EtaMode::PaperInit => closed,
                EtaMode::StrictNonLast => 0,
            };
            eta.per_edge.insert(e, init);
        }
    }

    /// `τ⁽ⁱ⁾`.
    pub fn tau(&self) -> u64 {
        self.tau
    }

    /// `τ⁽ⁱ⁾_v` for one node (0 when untracked or absent).
    pub fn tau_of(&self, v: NodeId) -> u64 {
        self.tau_v
            .as_ref()
            .and_then(|m| m.get(&v))
            .copied()
            .unwrap_or(0)
    }

    /// The whole `τ⁽ⁱ⁾_v` map, if tracked.
    pub fn tau_v(&self) -> Option<&FxHashMap<NodeId, u64>> {
        self.tau_v.as_ref()
    }

    /// `η⁽ⁱ⁾` (0 when untracked).
    pub fn eta(&self) -> u64 {
        self.eta.as_ref().map_or(0, |e| e.global)
    }

    /// The whole `η⁽ⁱ⁾_v` map, if tracked.
    pub fn eta_v(&self) -> Option<&FxHashMap<NodeId, u64>> {
        self.eta.as_ref().map(|e| &e.per_node)
    }

    /// Number of edges currently stored in `E⁽ⁱ⁾`.
    pub fn stored_edges(&self) -> usize {
        self.adj.edge_count()
    }

    /// Stored edges in canonical sorted order (checkpoint format needs a
    /// deterministic serialisation).
    pub fn stored_edge_list(&self) -> Vec<Edge> {
        let mut edges: Vec<Edge> = self.adj.edges().collect();
        edges.sort_unstable();
        edges
    }

    /// `τ⁽ⁱ⁾_v` entries sorted by node (`None` if locals untracked).
    pub fn tau_v_entries(&self) -> Option<Vec<(NodeId, u64)>> {
        self.tau_v.as_ref().map(|m| {
            let mut v: Vec<(NodeId, u64)> = m.iter().map(|(&n, &c)| (n, c)).collect();
            v.sort_unstable();
            v
        })
    }

    /// `η⁽ⁱ⁾_v` entries sorted by node (`None` if η untracked).
    pub fn eta_v_entries(&self) -> Option<Vec<(NodeId, u64)>> {
        self.eta.as_ref().map(|e| {
            let mut v: Vec<(NodeId, u64)> = e.per_node.iter().map(|(&n, &c)| (n, c)).collect();
            v.sort_unstable();
            v
        })
    }

    /// Per-edge counter entries sorted by edge (`None` if η untracked).
    pub fn edge_counter_entries(&self) -> Option<Vec<(Edge, u64)>> {
        self.eta.as_ref().map(|e| {
            let mut v: Vec<(Edge, u64)> = e.per_edge.iter().map(|(&k, &c)| (k, c)).collect();
            v.sort_unstable();
            v
        })
    }

    /// Rebuilds a worker from snapshot fields (see `crate::resume` for
    /// the format; invariants are the caller's responsibility beyond the
    /// basic edge validity already enforced during decoding).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_snapshot_parts(
        track_locals: bool,
        track_eta: bool,
        eta_mode: EtaMode,
        tau: u64,
        edges: Vec<Edge>,
        tau_v: Option<Vec<(NodeId, u64)>>,
        eta: u64,
        eta_v: Option<Vec<(NodeId, u64)>>,
        per_edge: Option<Vec<(Edge, u64)>>,
    ) -> Self {
        let mut w = SemiTriangleWorker::new(track_locals, track_eta, eta_mode);
        for e in edges {
            w.adj.insert(e);
        }
        w.tau = tau;
        if track_locals {
            w.tau_v = Some(tau_v.unwrap_or_default().into_iter().collect());
        }
        if track_eta {
            w.eta = Some(EtaCounters {
                global: eta,
                per_node: eta_v.unwrap_or_default().into_iter().collect(),
                per_edge: per_edge.unwrap_or_default().into_iter().collect(),
            });
        }
        w
    }

    /// Approximate heap use of this worker in bytes (adjacency plus
    /// counter maps) — each paper processor needs `O(p·|E|)` memory and
    /// the memory-equalised experiments check this.
    pub fn approx_bytes(&self) -> usize {
        use rept_hash::fx::table_bytes;
        let mut total = self.adj.approx_bytes();
        if let Some(m) = &self.tau_v {
            total += table_bytes::<NodeId, u64>(m.capacity());
        }
        if let Some(e) = &self.eta {
            total += table_bytes::<NodeId, u64>(e.per_node.capacity());
            total += table_bytes::<Edge, u64>(e.per_edge.capacity());
        }
        total
    }

    /// Bytes of adjacency storage alone (no counter maps) — the
    /// admission-controlled share of [`Self::approx_bytes`]. Walks every
    /// neighbor set: the per-worker engine is the reference oracle, and
    /// no served workload runs it.
    pub fn stored_bytes(&self) -> usize {
        self.adj.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A worker that stores everything is an exact counter.
    fn exact_worker(stream: &[(NodeId, NodeId)], mode: EtaMode) -> SemiTriangleWorker {
        let mut w = SemiTriangleWorker::new(true, true, mode);
        for &(u, v) in stream {
            let e = Edge::new(u, v);
            let closed = w.observe(e);
            w.store(e, closed);
        }
        w
    }

    #[test]
    fn full_storage_counts_exactly() {
        let w = exact_worker(
            &[(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)],
            EtaMode::StrictNonLast,
        );
        assert_eq!(w.tau(), 2);
        assert_eq!(w.tau_of(0), 2);
        assert_eq!(w.tau_of(1), 2);
        assert_eq!(w.tau_of(2), 1);
        assert_eq!(w.tau_of(3), 1);
        // Strict η matches the exact counter: the two triangles share
        // non-last edge (0,1) → η = 1.
        assert_eq!(w.eta(), 1);
    }

    #[test]
    fn strict_eta_matches_exact_counter_on_dense_stream() {
        let mut stream = Vec::new();
        for u in 0..8 {
            for v in (u + 1)..8 {
                stream.push((u, v));
            }
        }
        let w = exact_worker(&stream, EtaMode::StrictNonLast);
        let mut exact = rept_exact::StreamingExact::new();
        for &(u, v) in &stream {
            exact.process(Edge::new(u, v));
        }
        assert_eq!(w.tau(), exact.global());
        assert_eq!(w.eta(), exact.eta());
        for v in 0..8 {
            assert_eq!(w.tau_of(v), exact.local(v), "τ_{v}");
            assert_eq!(
                w.eta_v().unwrap().get(&v).copied().unwrap_or(0),
                exact.eta_local(v),
                "η_{v}"
            );
        }
    }

    #[test]
    fn paper_init_overcounts_eta_by_last_edge_pairs() {
        // Stream closing σ* at (0,1)'s arrival [(0,2),(1,2) first], then σ
        // sharing edge (0,1) as a non-last edge.
        let stream = [(0, 2), (1, 2), (0, 1), (0, 3), (1, 3)];
        let strict = exact_worker(&stream, EtaMode::StrictNonLast);
        let paper = exact_worker(&stream, EtaMode::PaperInit);
        assert_eq!(strict.eta(), 0, "shared edge is last in σ*");
        assert_eq!(
            paper.eta(),
            1,
            "paper init counts the pair through (0,1)'s init value"
        );
        // τ is identical either way — η mode affects weights only.
        assert_eq!(strict.tau(), paper.tau());
    }

    #[test]
    fn observe_without_store_counts_semi_triangles() {
        // Store the first two edges of a triangle, only observe the third:
        // the semi-triangle must be counted even though its last edge is
        // never stored (the defining property of semi-triangles).
        let mut w = SemiTriangleWorker::new(true, false, EtaMode::PaperInit);
        for e in [Edge::new(0, 1), Edge::new(1, 2)] {
            let closed = w.observe(e);
            w.store(e, closed);
        }
        let closed = w.observe(Edge::new(0, 2));
        assert_eq!(closed, 1);
        assert_eq!(w.tau(), 1);
        assert_eq!(w.stored_edges(), 2);
    }

    #[test]
    fn unsampled_first_edges_close_nothing() {
        // Observe (never store) the first two edges; the closing edge
        // finds no common neighbor.
        let mut w = SemiTriangleWorker::new(false, false, EtaMode::PaperInit);
        w.observe(Edge::new(0, 1));
        w.observe(Edge::new(1, 2));
        assert_eq!(w.observe(Edge::new(0, 2)), 0);
        assert_eq!(w.tau(), 0);
    }

    #[test]
    fn duplicate_store_is_ignored() {
        let mut w = SemiTriangleWorker::new(false, true, EtaMode::PaperInit);
        let e = Edge::new(0, 1);
        let c = w.observe(e);
        w.store(e, c);
        w.store(e, 5); // bogus duplicate
        assert_eq!(w.stored_edges(), 1);
    }

    #[test]
    fn untracked_locals_report_zero() {
        let mut w = SemiTriangleWorker::new(false, false, EtaMode::PaperInit);
        for e in [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)] {
            let c = w.observe(e);
            w.store(e, c);
        }
        assert_eq!(w.tau(), 1);
        assert_eq!(w.tau_of(0), 0, "locals not tracked");
        assert!(w.tau_v().is_none());
        assert_eq!(w.eta(), 0);
    }

    #[test]
    fn memory_grows_with_stored_edges() {
        let mut w = SemiTriangleWorker::new(true, true, EtaMode::PaperInit);
        let before = w.approx_bytes();
        for i in 0..500u32 {
            let e = Edge::new(i, i + 1);
            let c = w.observe(e);
            w.store(e, c);
        }
        assert!(w.approx_bytes() > before);
    }
}
