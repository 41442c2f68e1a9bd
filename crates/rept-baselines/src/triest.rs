//! TRIÈST — reservoir-sampled triangle counting with a fixed edge budget
//! (De Stefani, Epasto, Riondato & Upfal, KDD 2016).
//!
//! * [`TriestBase`]: keep a uniform reservoir of `M` edges; count the
//!   triangles *inside the reservoir* as edges enter/leave, and rescale by
//!   `ξ(t) = max(1, t(t−1)(t−2) / (M(M−1)(M−2)))` — the inverse
//!   probability that all three triangle edges are resident at time `t`.
//! * [`TriestImpr`]: the improved variant the REPT paper benchmarks.
//!   On *every* arriving edge (before the reservoir decision) add
//!   `w(t) = max(1, (t−1)(t−2) / (M(M−1)))` for each closed wedge, and
//!   never decrement on eviction. Unbiased with strictly lower variance
//!   than base; at budget `p·|E|` its accuracy matches MASCOT with
//!   probability `p` at end of stream (REPT §III-C quotes this match).
//!   It runs rept-core's [`ReservoirRun`] — the loop behind the serving
//!   tier's memory-budgeted tenants — so the baseline and those tenants
//!   cannot drift apart. On a stream that repeats an edge, the edge
//!   stays in the adjacency until its last copy leaves the reservoir.
//!
//! The REPT paper parallelizes TRIÈST by averaging `c` independent
//! reservoirs, each with budget `p·|E|` (§IV-B).

use rept_core::reservoir::{ReservoirRun, EDGE_COST_BYTES};
use rept_core::ReptConfig;
use rept_graph::adjacency::DynamicAdjacency;
use rept_graph::edge::{Edge, NodeId};
use rept_hash::fx::FxHashMap;
use rept_hash::reservoir::{ReservoirDecision, ReservoirSampler};

use crate::traits::StreamingTriangleCounter;

/// TRIÈST-IMPR: weighted counting before the reservoir decision.
#[derive(Debug, Clone)]
pub struct TriestImpr {
    run: ReservoirRun,
}

impl TriestImpr {
    /// Creates an instance with edge budget `budget` and RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `budget < 3` (no triangle fits in the reservoir).
    pub fn new(budget: usize, seed: u64) -> Self {
        assert!(budget >= 3, "TRIÈST needs a budget of at least 3 edges");
        // The byte budget that affords exactly `budget` reservoir edges.
        let bytes = budget as u64 * EDGE_COST_BYTES as u64;
        Self {
            run: ReservoirRun::new(ReptConfig::new(2, 1).with_seed(seed), bytes),
        }
    }

    /// Disables local tracking (a builder step, before the first edge).
    pub fn without_locals(self) -> Self {
        let cfg = self.run.config().with_locals(false);
        Self {
            run: ReservoirRun::new(cfg, self.run.memory_budget()),
        }
    }

    /// Number of edges currently in the reservoir.
    pub fn sampled_edges(&self) -> usize {
        self.run.sampled().len()
    }
}

impl StreamingTriangleCounter for TriestImpr {
    fn process(&mut self, e: Edge) {
        self.run.process(e);
    }

    fn global_estimate(&self) -> f64 {
        self.run.tau()
    }

    fn local_estimate(&self, v: NodeId) -> f64 {
        self.run
            .locals()
            .map_or(0.0, |m| m.get(&v).copied().unwrap_or(0.0))
    }

    fn local_estimates(&self) -> FxHashMap<NodeId, f64> {
        self.run.locals().cloned().unwrap_or_default()
    }

    fn name(&self) -> &'static str {
        "TRIEST-IMPR"
    }

    fn memory_bytes(&self) -> usize {
        self.run.estimate().diagnostics.total_bytes
    }
}

/// TRIÈST-base: unweighted in-reservoir counting with global rescaling.
#[derive(Debug, Clone)]
pub struct TriestBase {
    reservoir: ReservoirSampler<Edge>,
    adj: DynamicAdjacency,
    t: u64,
    raw_tau: i64,
    raw_tau_v: FxHashMap<NodeId, i64>,
    scratch: Vec<NodeId>,
}

impl TriestBase {
    /// Creates an instance with edge budget `budget` and RNG `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `budget < 3`.
    pub fn new(budget: usize, seed: u64) -> Self {
        assert!(budget >= 3, "TRIÈST needs a budget of at least 3 edges");
        Self {
            reservoir: ReservoirSampler::new(budget, seed),
            adj: DynamicAdjacency::new(),
            t: 0,
            raw_tau: 0,
            raw_tau_v: FxHashMap::default(),
            scratch: Vec::new(),
        }
    }

    /// `ξ(t) = max(1, t(t−1)(t−2) / (M(M−1)(M−2)))`.
    fn xi(&self) -> f64 {
        let m = self.reservoir.budget() as f64;
        let t = self.t as f64;
        ((t * (t - 1.0) * (t - 2.0)) / (m * (m - 1.0) * (m - 2.0))).max(1.0)
    }

    fn bump(&mut self, e: Edge, delta: i64) {
        let (u, v) = e.endpoints();
        self.scratch.clear();
        let scratch = &mut self.scratch;
        self.adj.for_each_common_neighbor(u, v, |w| scratch.push(w));
        let closed = self.scratch.len() as i64;
        if closed != 0 {
            self.raw_tau += closed * delta;
            *self.raw_tau_v.entry(u).or_insert(0) += closed * delta;
            *self.raw_tau_v.entry(v).or_insert(0) += closed * delta;
            for &w in &self.scratch {
                *self.raw_tau_v.entry(w).or_insert(0) += delta;
            }
        }
    }
}

impl StreamingTriangleCounter for TriestBase {
    fn process(&mut self, e: Edge) {
        self.t += 1;
        match self.reservoir.offer(e) {
            ReservoirDecision::Inserted => {
                self.bump(e, 1);
                self.adj.insert(e);
            }
            ReservoirDecision::Replaced(old) => {
                self.adj.remove(old);
                self.bump(old, -1);
                self.bump(e, 1);
                self.adj.insert(e);
            }
            ReservoirDecision::Rejected => {}
        }
    }

    fn global_estimate(&self) -> f64 {
        (self.raw_tau.max(0)) as f64 * self.xi()
    }

    fn local_estimate(&self, v: NodeId) -> f64 {
        (self.raw_tau_v.get(&v).copied().unwrap_or(0).max(0)) as f64 * self.xi()
    }

    fn local_estimates(&self) -> FxHashMap<NodeId, f64> {
        let xi = self.xi();
        self.raw_tau_v
            .iter()
            .filter(|(_, &c)| c > 0)
            .map(|(&v, &c)| (v, c as f64 * xi))
            .collect()
    }

    fn name(&self) -> &'static str {
        "TRIEST-BASE"
    }

    fn memory_bytes(&self) -> usize {
        use std::mem::size_of;
        self.adj.approx_bytes()
            + self.reservoir.budget() * size_of::<Edge>()
            + self.raw_tau_v.capacity() * (size_of::<NodeId>() + size_of::<i64>() + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_gen::{barabasi_albert, chung_lu, complete, stream_order, GeneratorConfig};
    use rept_hash::rng::SplitMix64;

    /// TRIÈST-IMPR as this crate ran it before it shared rept-core's
    /// loop, frozen as the reference: its own reservoir, adjacency and
    /// weight formula. An eviction drops the edge from the adjacency
    /// even while a repeated copy stays resident.
    struct FrozenImpr {
        reservoir: ReservoirSampler<Edge>,
        adj: DynamicAdjacency,
        t: u64,
        tau: f64,
        tau_v: FxHashMap<NodeId, f64>,
        track_locals: bool,
        scratch: Vec<NodeId>,
    }

    impl FrozenImpr {
        fn new(budget: usize, seed: u64, track_locals: bool) -> Self {
            Self {
                reservoir: ReservoirSampler::new(budget, seed),
                adj: DynamicAdjacency::new(),
                t: 0,
                tau: 0.0,
                tau_v: FxHashMap::default(),
                track_locals,
                scratch: Vec::new(),
            }
        }

        fn process(&mut self, e: Edge) {
            self.t += 1;
            let m = self.reservoir.budget() as f64;
            let t = self.t as f64;
            let w_t = (((t - 1.0) * (t - 2.0)) / (m * (m - 1.0))).max(1.0);
            let (u, v) = e.endpoints();
            self.scratch.clear();
            let scratch = &mut self.scratch;
            self.adj.for_each_common_neighbor(u, v, |w| scratch.push(w));
            if !self.scratch.is_empty() {
                let closed = self.scratch.len() as f64;
                self.tau += closed * w_t;
                if self.track_locals {
                    *self.tau_v.entry(u).or_insert(0.0) += closed * w_t;
                    *self.tau_v.entry(v).or_insert(0.0) += closed * w_t;
                    for &w in &self.scratch {
                        *self.tau_v.entry(w).or_insert(0.0) += w_t;
                    }
                }
            }
            match self.reservoir.offer(e) {
                ReservoirDecision::Inserted => {
                    self.adj.insert(e);
                }
                ReservoirDecision::Replaced(old) => {
                    self.adj.remove(old);
                    self.adj.insert(e);
                }
                ReservoirDecision::Rejected => {}
            }
        }
    }

    /// Every local as `(node, bits)`, sorted — equality means bit for bit.
    fn bits(locals: &FxHashMap<NodeId, f64>) -> Vec<(NodeId, u64)> {
        let mut out: Vec<(NodeId, u64)> = locals.iter().map(|(&v, t)| (v, t.to_bits())).collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn impr_equals_the_frozen_loop_on_simple_streams() {
        let ba = stream_order(barabasi_albert(&GeneratorConfig::new(300, 1), 4), 2);
        let cl = chung_lu(&GeneratorConfig::new(500, 3), 1200, 2.1, 1.0);
        let mut configurations = 0;
        for stream in [&ba, &cl] {
            let n = stream.len();
            for budget in [3, 4, 10, 57, 300, n - 1, n, n + 25] {
                for (seed, locals) in [(0, true), (1, false), (7, true), (9, false)] {
                    let mut frozen = FrozenImpr::new(budget, seed, locals);
                    let mut shared = TriestImpr::new(budget, seed);
                    if !locals {
                        shared = shared.without_locals();
                    }
                    for &e in stream.iter() {
                        frozen.process(e);
                        shared.process(e);
                    }
                    let at = format!("budget {budget}, seed {seed}, locals {locals}");
                    assert_eq!(
                        shared.global_estimate().to_bits(),
                        frozen.tau.to_bits(),
                        "{at}"
                    );
                    assert_eq!(bits(&shared.local_estimates()), bits(&frozen.tau_v), "{at}");
                    for (&v, t) in &frozen.tau_v {
                        assert_eq!(shared.local_estimate(v).to_bits(), t.to_bits(), "{at}");
                    }
                    assert_eq!(shared.sampled_edges(), frozen.reservoir.items().len());
                    configurations += 1;
                }
            }
        }
        assert_eq!(configurations, 64);
    }

    /// Streams that repeat edges, interleaved with the rest: the baseline
    /// is the serving tier's reservoir run, which keeps a repeated edge
    /// in its adjacency until the last copy leaves the reservoir.
    #[test]
    fn impr_equals_the_reservoir_run_on_repeated_edges() {
        let pool = barabasi_albert(&GeneratorConfig::new(120, 5), 3);
        for k in 0..40u64 {
            let mut rng = SplitMix64::new(k);
            let stream: Vec<Edge> = (0..600)
                .map(|_| pool[rng.next_below(pool.len() as u64) as usize])
                .collect();
            let budget = 20 + 5 * k as usize;
            let cfg = ReptConfig::new(2, 1).with_seed(k);
            let mut run = ReservoirRun::new(cfg, (budget * EDGE_COST_BYTES) as u64);
            let mut impr = TriestImpr::new(budget, k);
            for &e in &stream {
                run.process(e);
                impr.process(e);
            }
            assert_eq!(
                impr.global_estimate().to_bits(),
                run.tau().to_bits(),
                "stream {k}"
            );
            let want = run.locals().expect("locals tracked");
            assert_eq!(bits(&impr.local_estimates()), bits(want), "stream {k}");
        }
    }

    #[test]
    fn budget_above_stream_is_exact_impr() {
        // Budget ≥ stream length keeps every edge and all weights at 1.
        let stream = complete(9); // 36 edges, τ = 84
        let mut t = TriestImpr::new(100, 0);
        t.process_stream(stream);
        assert_eq!(t.global_estimate(), 84.0);
        assert_eq!(t.local_estimate(0), 28.0); // C(8,2)
    }

    #[test]
    fn budget_above_stream_is_exact_base() {
        let stream = complete(9);
        let mut t = TriestBase::new(100, 0);
        t.process_stream(stream);
        assert_eq!(t.global_estimate(), 84.0);
        assert_eq!(t.local_estimate(4), 28.0);
    }

    #[test]
    fn impr_is_unbiased_under_eviction() {
        let stream = complete(12); // 66 edges, τ = 220
        let trials = 1200;
        let mean: f64 = (0..trials)
            .map(|s| {
                let mut t = TriestImpr::new(30, s);
                t.process_stream(stream.iter().copied());
                t.global_estimate()
            })
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 220.0).abs() < 220.0 * 0.1, "mean {mean}");
    }

    #[test]
    fn base_is_approximately_unbiased() {
        let stream = complete(12);
        let trials = 1500;
        let mean: f64 = (0..trials)
            .map(|s| {
                let mut t = TriestBase::new(30, s);
                t.process_stream(stream.iter().copied());
                t.global_estimate()
            })
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 220.0).abs() < 220.0 * 0.15, "mean {mean}");
    }

    #[test]
    fn impr_variance_beats_base() {
        let stream = complete(12);
        let trials = 800;
        let var = |make: &dyn Fn(u64) -> f64| {
            let est: Vec<f64> = (0..trials).map(make).collect();
            let mean = est.iter().sum::<f64>() / trials as f64;
            est.iter().map(|e| (e - mean).powi(2)).sum::<f64>() / (trials - 1) as f64
        };
        let v_impr = var(&|s| {
            let mut t = TriestImpr::new(30, s);
            t.process_stream(stream.iter().copied());
            t.global_estimate()
        });
        let v_base = var(&|s| {
            let mut t = TriestBase::new(30, s);
            t.process_stream(stream.iter().copied());
            t.global_estimate()
        });
        assert!(
            v_impr < v_base,
            "IMPR variance {v_impr} should beat base {v_base}"
        );
    }

    #[test]
    fn reservoir_never_exceeds_budget() {
        let mut t = TriestImpr::new(20, 3);
        t.process_stream(complete(30));
        assert!(t.sampled_edges() <= 20);
    }

    #[test]
    fn locals_sum_to_three_tau_impr() {
        let mut t = TriestImpr::new(25, 9);
        t.process_stream(complete(14));
        let sum: f64 = t.local_estimates().values().sum();
        assert!((sum - 3.0 * t.global_estimate()).abs() < 1e-6);
    }

    #[test]
    fn triangle_free_is_zero() {
        let mut t = TriestImpr::new(10, 0);
        t.process_stream(rept_gen::star(40));
        assert_eq!(t.global_estimate(), 0.0);
    }

    #[test]
    #[should_panic(expected = "at least 3")]
    fn tiny_budget_panics() {
        TriestImpr::new(2, 0);
    }
}
