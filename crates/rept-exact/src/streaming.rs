//! One-pass exact counting of `τ`, `τ_v`, `η` and `η_v`.
//!
//! This is paper Algorithm 2's `UpdateTrianglePairCNT` specialised to
//! sampling probability 1 — every edge is stored, so "semi-triangle"
//! coincides with "triangle" and the counters are exact.
//!
//! ## How `η` is tracked online
//!
//! For every stored edge `g` keep `t_g` = the number of triangles closed so
//! far in which `g` is **not** the last edge. When the arriving edge
//! `(u, v)` closes a triangle with common neighbor `w`, the new triangle's
//! non-last edges are `(u, w)` and `(v, w)`. It forms an η-pair with every
//! earlier triangle that also has `(u, w)` (resp. `(v, w)`) as a non-last
//! edge — there are exactly `t_(u,w)` (resp. `t_(v,w)`) of those. Hence
//!
//! ```text
//! η    += t_(u,w) + t_(v,w)        (then t_(u,w) += 1, t_(v,w) += 1)
//! η_u  += t_(u,w)                  (pairs sharing (u,w) all contain u)
//! η_v  += t_(v,w)
//! η_w  += t_(u,w) + t_(v,w)        (w is on both shared edges)
//! ```
//!
//! Summed over the stream this yields `η = Σ_g C(t_g, 2)` — an identity the
//! tests verify directly. Note that only edges *incident to a node x* can be
//! shared by two distinct triangles of `Δ_x`, which is why the local rules
//! above are complete.

use rept_graph::adjacency::DynamicAdjacency;
use rept_graph::edge::{Edge, NodeId};
use rept_hash::fx::FxHashMap;

/// Exact one-pass counter for global/local triangle and η statistics.
#[derive(Debug, Clone, Default)]
pub struct StreamingExact {
    adj: DynamicAdjacency,
    tau: u64,
    tau_v: FxHashMap<NodeId, u64>,
    eta: u64,
    eta_v: FxHashMap<NodeId, u64>,
    /// `t_g`: per-edge count of triangles where `g` is not the last edge.
    nonlast: FxHashMap<Edge, u64>,
    edges_processed: u64,
}

impl StreamingExact {
    /// Creates an empty counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Processes the next stream edge.
    ///
    /// Duplicate edges are ignored (the paper's streams are simple; callers
    /// with dirty data should clean via `rept-graph::builder` first, but
    /// ignoring repeats keeps the exact counts correct either way).
    pub fn process(&mut self, e: Edge) {
        if self.adj.contains(e) {
            return;
        }
        self.edges_processed += 1;
        let (u, v) = e.endpoints();
        // Borrow-splitting: collect common neighbors first (the adjacency
        // is borrowed immutably), then update counters.
        let mut commons: Vec<NodeId> = Vec::new();
        self.adj.for_each_common_neighbor(u, v, |w| commons.push(w));
        for &w in &commons {
            self.tau += 1;
            *self.tau_v.entry(u).or_insert(0) += 1;
            *self.tau_v.entry(v).or_insert(0) += 1;
            *self.tau_v.entry(w).or_insert(0) += 1;

            let t_uw = *self.nonlast.entry(Edge::new(u, w)).or_insert(0);
            let t_vw = *self.nonlast.entry(Edge::new(v, w)).or_insert(0);
            self.eta += t_uw + t_vw;
            *self.eta_v.entry(u).or_insert(0) += t_uw;
            *self.eta_v.entry(v).or_insert(0) += t_vw;
            *self.eta_v.entry(w).or_insert(0) += t_uw + t_vw;
            *self
                .nonlast
                .get_mut(&Edge::new(u, w))
                .expect("just inserted") += 1;
            *self
                .nonlast
                .get_mut(&Edge::new(v, w))
                .expect("just inserted") += 1;
        }
        self.adj.insert(e);
    }

    /// Processes a whole stream in order.
    pub fn process_stream<I: IntoIterator<Item = Edge>>(&mut self, stream: I) {
        for e in stream {
            self.process(e);
        }
    }

    /// Exact global triangle count `τ`.
    pub fn global(&self) -> u64 {
        self.tau
    }

    /// Exact local triangle count `τ_v` (0 for nodes in no triangle).
    pub fn local(&self, v: NodeId) -> u64 {
        self.tau_v.get(&v).copied().unwrap_or(0)
    }

    /// All nonzero local counts.
    pub fn locals(&self) -> &FxHashMap<NodeId, u64> {
        &self.tau_v
    }

    /// Exact global pair count `η`.
    pub fn eta(&self) -> u64 {
        self.eta
    }

    /// Exact local pair count `η_v`.
    pub fn eta_local(&self, v: NodeId) -> u64 {
        self.eta_v.get(&v).copied().unwrap_or(0)
    }

    /// All nonzero local η counts.
    pub fn eta_locals(&self) -> &FxHashMap<NodeId, u64> {
        &self.eta_v
    }

    /// Number of distinct edges processed.
    pub fn edges_processed(&self) -> u64 {
        self.edges_processed
    }

    /// The aggregate graph built so far.
    pub fn graph(&self) -> &DynamicAdjacency {
        &self.adj
    }

    /// Recomputes `η` from the identity `η = Σ_g C(t_g, 2)` — an O(m)
    /// consistency check used by tests and the `variance_check` binary.
    pub fn eta_from_identity(&self) -> u64 {
        self.nonlast
            .values()
            .map(|&t| t * t.saturating_sub(1) / 2)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(stream: &[(NodeId, NodeId)]) -> StreamingExact {
        let mut c = StreamingExact::new();
        for &(u, v) in stream {
            c.process(Edge::new(u, v));
        }
        c
    }

    #[test]
    fn single_triangle() {
        let c = run(&[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(c.global(), 1);
        assert_eq!(c.local(0), 1);
        assert_eq!(c.local(1), 1);
        assert_eq!(c.local(2), 1);
        assert_eq!(c.local(3), 0);
        assert_eq!(c.eta(), 0, "one triangle has no pairs");
    }

    #[test]
    fn two_triangles_sharing_a_nonlast_edge() {
        // Stream: (0,1), (0,2), (1,2)  -> triangle A closes, non-last {01,02}
        //         (0,3), (1,3)         -> triangle B = {0,1,3} closes,
        //                                 non-last {01,03}
        // Shared edge (0,1) is non-last in both => η = 1.
        let c = run(&[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]);
        assert_eq!(c.global(), 2);
        assert_eq!(c.eta(), 1);
        // The pair shares edge (0,1): both triangles contain 0 and 1.
        assert_eq!(c.eta_local(0), 1);
        assert_eq!(c.eta_local(1), 1);
        assert_eq!(c.eta_local(2), 0);
        assert_eq!(c.eta_local(3), 0);
    }

    #[test]
    fn shared_edge_last_in_one_triangle_does_not_count() {
        // Stream: (0,2), (1,2), (0,1)  -> triangle A closes at (0,1);
        //                                 non-last edges {02,12}
        //         (0,3), (1,3)         -> triangle B = {0,1,3}; non-last
        //                                 {01,03}
        // Shared edge (0,1) IS the last edge of A -> η = 0 (first case of
        // the paper's Figure 2).
        let c = run(&[(0, 2), (1, 2), (0, 1), (0, 3), (1, 3)]);
        assert_eq!(c.global(), 2);
        assert_eq!(c.eta(), 0);
        assert_eq!(c.eta_local(0), 0);
    }

    #[test]
    fn k4_counts() {
        // K4 has 4 triangles; each node in 3 of them.
        let c = run(&[(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]);
        assert_eq!(c.global(), 4);
        for v in 0..4 {
            assert_eq!(c.local(v), 3, "node {v}");
        }
        assert_eq!(c.eta(), c.eta_from_identity());
    }

    #[test]
    fn eta_identity_on_dense_graph() {
        // K7 in a fixed stream order.
        let mut stream = Vec::new();
        for u in 0..7 {
            for v in (u + 1)..7 {
                stream.push((u, v));
            }
        }
        let c = run(&stream);
        assert_eq!(c.global(), 35); // C(7,3)
        assert_eq!(c.eta(), c.eta_from_identity());
        assert!(c.eta() > 0);
    }

    #[test]
    fn duplicates_are_ignored() {
        let c = run(&[(0, 1), (1, 2), (0, 2), (0, 1), (2, 0)]);
        assert_eq!(c.global(), 1);
        assert_eq!(c.edges_processed(), 3);
    }

    #[test]
    fn eta_depends_on_stream_order() {
        // Same graph (two triangles sharing edge (0,1)), two orders.
        let shared_nonlast = run(&[(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]);
        let shared_last = run(&[(0, 2), (1, 2), (0, 1), (3, 0), (3, 1)]);
        // Wait: in the second stream, (0,1) closes A; then (3,0),(3,1)
        // close B with last edge (3,1), non-last {30, 01}; (0,1) is last
        // of A but non-last of B -> still η = 0.
        assert_eq!(shared_nonlast.eta(), 1);
        assert_eq!(shared_last.eta(), 0);
        assert_eq!(shared_nonlast.global(), shared_last.global());
    }

    #[test]
    fn local_sum_is_three_tau() {
        let c = run(&[
            (0, 1),
            (0, 2),
            (0, 3),
            (1, 2),
            (1, 3),
            (2, 3),
            (4, 0),
            (4, 1),
        ]);
        let sum: u64 = c.locals().values().sum();
        assert_eq!(sum, 3 * c.global());
    }

    #[test]
    fn empty_and_triangle_free() {
        let c = run(&[]);
        assert_eq!(c.global(), 0);
        assert_eq!(c.eta(), 0);
        let path = run(&[(0, 1), (1, 2), (2, 3)]);
        assert_eq!(path.global(), 0);
        assert_eq!(path.eta(), 0);
        assert!(path.locals().is_empty());
    }

    #[test]
    fn process_stream_matches_process() {
        let edges = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2)];
        let mut a = StreamingExact::new();
        a.process_stream(edges.iter().copied());
        let b = run(&[(0, 1), (1, 2), (0, 2)]);
        assert_eq!(a.global(), b.global());
        assert_eq!(a.eta(), b.eta());
    }
}
