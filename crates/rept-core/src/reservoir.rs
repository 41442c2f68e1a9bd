//! Bounded-memory reservoir mode: triangle counting under a hard byte
//! budget.
//!
//! The REPT engines store every stream edge at least once, so a tenant's
//! memory grows with its stream. When an operator instead wants a *hard
//! ceiling* — "this tenant never holds more than `B` bytes" — the
//! estimator has to shed edges, and the right way to shed without
//! biasing the estimate is TRIÈST-IMPR-style reservoir sampling
//! (De Stefani, Epasto, Riondato & Upfal, KDD 2016; the variant the
//! REPT paper benchmarks in §III-C): keep a uniform reservoir of `M`
//! edges, and on *every* arriving edge — before the keep/evict decision
//! — add the unbiasing weight `w(t) = max(1, (t−1)(t−2)/(M(M−1)))` per
//! closed wedge found in the reservoir adjacency. Never decrement on
//! eviction. The running `τ̂` is unbiased for the true triangle count,
//! exact while the stream still fits the reservoir, and its error
//! shrinks as the budget grows.
//!
//! [`ReservoirRun`] packages that estimator behind the same push-style
//! surface as an engine run (`process` / `process_batch` / `estimate`)
//! so the serving tier can treat `memory_budget=<bytes>` tenants as
//! just another run mode — checkpointed through the same RPCK codec
//! (format version 5, see [`crate::resume`]) and resumed
//! bit-identically: the reservoir's slot order, clock and RNG state are
//! all part of the snapshot.
//!
//! ## From bytes to edges
//!
//! The budget arrives in *bytes* (that is what an operator can reason
//! about), while the reservoir needs an *edge* capacity. The conversion
//! uses a deliberately conservative per-edge cost,
//! [`EDGE_COST_BYTES`], that upper-bounds the worst-case accounting of
//! one resident edge across every structure the run maintains
//! (adjacency sets + map overhead at maximal load-factor slack,
//! reservoir slot, multiplicity entry, scratch share). Consequently
//! [`ReservoirRun::stored_bytes`] — the same `table_bytes`-based
//! accounting the engines report — stays below the configured budget
//! for any stream, which is the invariant the serving tier's quota
//! tests pin down. Local counters (`τ̂_v`) are governed by
//! `track_locals`, not by the budget, exactly as in the engine runs.

use rept_graph::adjacency::DynamicAdjacency;
use rept_graph::edge::{Edge, NodeId};
use rept_hash::fx::FxHashMap;
use rept_hash::reservoir::{ReservoirDecision, ReservoirSampler};

use crate::config::ReptConfig;
use crate::estimate::{CombinationPath, Diagnostics, ReptEstimate};

/// Conservative bytes-per-resident-edge used to turn a byte budget into
/// a reservoir edge capacity. Upper-bounds the worst-case (`table_bytes`
/// accounting, maximal hash-table slack, every node at degree 1) cost of
/// one reservoir edge: two adjacency set entries plus set structs
/// (~126 B), two adjacency map slots at growth slack (~212 B), the
/// reservoir slot (8 B), a multiplicity entry (~26 B) and scratch
/// (~8 B) — ≈ 380 B, rounded up to the next power of two for headroom.
pub const EDGE_COST_BYTES: usize = 512;

/// Smallest usable reservoir: no triangle fits in fewer than 3 edges.
pub const MIN_EDGE_BUDGET: usize = 3;

/// Smallest accepted `memory_budget`: anything below cannot hold
/// [`MIN_EDGE_BUDGET`] edges at [`EDGE_COST_BYTES`] each, so the
/// stored-bytes-under-budget guarantee would be vacuous. The serving
/// tier rejects smaller budgets at `TENANT CREATE`.
pub const MIN_MEMORY_BUDGET: u64 = (MIN_EDGE_BUDGET * EDGE_COST_BYTES) as u64;

/// The reservoir edge capacity a byte budget affords (floored at
/// [`MIN_EDGE_BUDGET`]).
pub fn edge_budget(memory_budget: u64) -> usize {
    ((memory_budget as usize) / EDGE_COST_BYTES).max(MIN_EDGE_BUDGET)
}

/// A bounded-memory triangle-count run: TRIÈST-IMPR over a byte budget,
/// behind the same push surface as an engine run.
#[derive(Debug, Clone)]
pub struct ReservoirRun {
    cfg: ReptConfig,
    memory_budget: u64,
    reservoir: ReservoirSampler<Edge>,
    /// Adjacency over the *distinct* edges resident in the reservoir.
    adj: DynamicAdjacency,
    /// Copies of each distinct edge among the reservoir slots. A stream
    /// with duplicate edges can hold the same edge in several slots;
    /// the adjacency entry must only disappear when the *last* copy is
    /// evicted, or restore-from-slots would diverge from the live run.
    multiplicity: FxHashMap<Edge, u32>,
    /// `τ̂` — running weighted triangle estimate.
    tau: f64,
    /// `τ̂_v` — per-node estimates when `cfg.track_locals`.
    tau_v: Option<FxHashMap<NodeId, f64>>,
    scratch: Vec<NodeId>,
}

impl ReservoirRun {
    /// Creates a run that never stores more than `memory_budget` bytes
    /// of edge state. `cfg` supplies the seed (all reservoir decisions)
    /// and `track_locals`; `m`/`c` ride along for diagnostics only —
    /// reservoir mode does not partition.
    ///
    /// # Panics
    ///
    /// Panics if `memory_budget < MIN_MEMORY_BUDGET` — callers that
    /// accept budgets from users (the serving tier) validate first.
    pub fn new(cfg: ReptConfig, memory_budget: u64) -> Self {
        assert!(
            memory_budget >= MIN_MEMORY_BUDGET,
            "memory budget below {MIN_MEMORY_BUDGET} bytes"
        );
        let reservoir = ReservoirSampler::new(edge_budget(memory_budget), cfg.seed);
        let tau_v = cfg.track_locals.then(FxHashMap::default);
        Self::from_parts(cfg, memory_budget, reservoir, 0.0, tau_v)
    }

    /// Builds a run around a reservoir and its counters — also the RPCK
    /// v5 decoder's constructor. The adjacency and multiplicity table are
    /// derived state, recomputed from the slot contents; the slot *order*
    /// is the reservoir's (future replacement decisions index into it).
    pub(crate) fn from_parts(
        cfg: ReptConfig,
        memory_budget: u64,
        reservoir: ReservoirSampler<Edge>,
        tau: f64,
        tau_v: Option<FxHashMap<NodeId, f64>>,
    ) -> Self {
        let mut adj = DynamicAdjacency::new();
        let mut multiplicity: FxHashMap<Edge, u32> = FxHashMap::default();
        for &e in reservoir.items() {
            adj.insert(e);
            *multiplicity.entry(e).or_insert(0) += 1;
        }
        Self {
            reservoir,
            adj,
            multiplicity,
            tau,
            tau_v,
            scratch: Vec::new(),
            cfg,
            memory_budget,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReptConfig {
        &self.cfg
    }

    /// The configured byte budget.
    pub fn memory_budget(&self) -> u64 {
        self.memory_budget
    }

    /// The reservoir's edge capacity `M` (derived from the byte budget
    /// at construction; carried verbatim through checkpoints).
    pub fn edge_budget(&self) -> usize {
        self.reservoir.budget()
    }

    /// Number of edges processed so far (the stream clock `t`).
    pub fn position(&self) -> u64 {
        self.reservoir.seen()
    }

    /// The reservoir slots in slot order — checkpoint state, not a set:
    /// restore must preserve the order exactly.
    pub fn sampled(&self) -> &[Edge] {
        self.reservoir.items()
    }

    /// The reservoir RNG's raw state, for checkpointing.
    pub(crate) fn rng_state(&self) -> u64 {
        self.reservoir.rng_state()
    }

    /// `τ̂` so far.
    pub fn tau(&self) -> f64 {
        self.tau
    }

    /// `τ̂_v` per node, when tracked.
    pub fn locals(&self) -> Option<&FxHashMap<NodeId, f64>> {
        self.tau_v.as_ref()
    }

    /// Bytes of edge state currently held — the quantity the byte
    /// budget governs, computed with the workspace's `table_bytes`
    /// accounting (same idiom as [`crate::engine::EngineCore::stored_bytes`]).
    /// Guaranteed `≤ memory_budget` for any stream, by construction of
    /// [`EDGE_COST_BYTES`]. Local counters are excluded (governed by
    /// `track_locals`, like the engines' counter maps).
    pub fn stored_bytes(&self) -> usize {
        use rept_hash::fx::table_bytes;
        use std::mem::size_of;
        self.adj.approx_bytes()
            + self.reservoir.budget() * size_of::<Edge>()
            + table_bytes::<Edge, u32>(self.multiplicity.capacity())
            + self.scratch.capacity() * size_of::<NodeId>()
    }

    /// The IMPR per-wedge weight `max(1, (t−1)(t−2)/(M(M−1)))` at clock
    /// `t`.
    fn weight(&self, t: u64) -> f64 {
        let m = self.reservoir.budget() as f64;
        let t = t as f64;
        (((t - 1.0) * (t - 2.0)) / (m * (m - 1.0))).max(1.0)
    }

    /// Processes one arriving edge: weighted counting first, reservoir
    /// decision second (the IMPR order — the arriving edge is counted
    /// whether or not it is kept).
    pub fn process(&mut self, e: Edge) {
        let t = self.reservoir.seen() + 1;
        let w_t = self.weight(t);
        let (u, v) = e.endpoints();
        self.scratch.clear();
        let scratch = &mut self.scratch;
        self.adj.for_each_common_neighbor(u, v, |w| scratch.push(w));
        if !self.scratch.is_empty() {
            let closed = self.scratch.len() as f64;
            self.tau += closed * w_t;
            if let Some(tau_v) = &mut self.tau_v {
                *tau_v.entry(u).or_insert(0.0) += closed * w_t;
                *tau_v.entry(v).or_insert(0.0) += closed * w_t;
                for &w in &self.scratch {
                    *tau_v.entry(w).or_insert(0.0) += w_t;
                }
            }
        }
        match self.reservoir.offer(e) {
            ReservoirDecision::Inserted => self.admit(e),
            ReservoirDecision::Replaced(old) => {
                self.evict(old);
                self.admit(e);
            }
            ReservoirDecision::Rejected => {}
        }
    }

    /// Processes a batch of arriving edges.
    pub fn process_batch(&mut self, batch: &[Edge]) {
        for &e in batch {
            self.process(e);
        }
    }

    fn admit(&mut self, e: Edge) {
        let copies = self.multiplicity.entry(e).or_insert(0);
        *copies += 1;
        if *copies == 1 {
            self.adj.insert(e);
        }
    }

    fn evict(&mut self, e: Edge) {
        let copies = self
            .multiplicity
            .get_mut(&e)
            .expect("evicted edge must be resident");
        *copies -= 1;
        if *copies == 0 {
            self.multiplicity.remove(&e);
            self.adj.remove(e);
        }
    }

    /// The estimate for the stream seen so far (anytime,
    /// non-consuming). `η̂` is never produced — reservoir mode has no
    /// pair counters — and the diagnostics describe the single
    /// reservoir rather than per-processor state.
    pub fn estimate(&self) -> ReptEstimate {
        use rept_hash::fx::table_bytes;
        let locals_bytes = self
            .tau_v
            .as_ref()
            .map_or(0, |m| table_bytes::<NodeId, f64>(m.capacity()));
        ReptEstimate {
            global: self.tau,
            locals: self.tau_v.clone().unwrap_or_default(),
            eta_hat: None,
            diagnostics: Diagnostics {
                m: self.cfg.m,
                c: self.cfg.c,
                per_processor_tau: Vec::new(),
                stored_edges: vec![self.reservoir.items().len()],
                total_bytes: self.stored_bytes() + locals_bytes,
                combination: CombinationPath::SingleGroup,
                sub_estimates: None,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_gen::complete;

    fn cfg(seed: u64) -> ReptConfig {
        ReptConfig::new(2, 1).with_seed(seed).with_locals(true)
    }

    /// Budget comfortably above the stream: every edge kept, all
    /// weights 1 — the run is an exact oracle.
    #[test]
    fn budget_above_stream_is_exact() {
        let stream = complete(9); // 36 edges, τ = 84
        let mut run = ReservoirRun::new(cfg(0), (100 * EDGE_COST_BYTES) as u64);
        run.process_batch(&stream);
        let est = run.estimate();
        assert_eq!(est.global, 84.0);
        assert_eq!(est.local(0), 28.0); // C(8,2)
        assert_eq!(run.position(), 36);
        assert_eq!(est.diagnostics.stored_edges, vec![36]);
        assert_eq!(est.eta_hat, None);
    }

    #[test]
    fn unbiased_under_eviction() {
        let stream = complete(12); // 66 edges, τ = 220
        let trials = 1200;
        let mem = (30 * EDGE_COST_BYTES) as u64; // M = 30 ⪡ 66 edges
        let mean: f64 = (0..trials)
            .map(|s| {
                let mut run = ReservoirRun::new(cfg(s), mem);
                assert_eq!(run.edge_budget(), 30);
                run.process_batch(&stream);
                run.tau()
            })
            .sum::<f64>()
            / trials as f64;
        assert!((mean - 220.0).abs() < 220.0 * 0.1, "mean {mean}");
    }

    #[test]
    fn stored_bytes_never_exceed_budget() {
        // Worst-ish shapes for the per-edge accounting: disjoint edges
        // (every node degree 1) and a dense clique, at several budgets.
        let disjoint: Vec<Edge> = (0..4000u32).map(|i| Edge::new(2 * i, 2 * i + 1)).collect();
        let clique = complete(40);
        for budget in [MIN_MEMORY_BUDGET, 16 * 1024, 64 * 1024] {
            for stream in [&disjoint, &clique] {
                let mut run = ReservoirRun::new(cfg(7), budget);
                for &e in stream.iter() {
                    run.process(e);
                    assert!(
                        run.stored_bytes() as u64 <= budget,
                        "budget {budget}: stored {} after edge {}",
                        run.stored_bytes(),
                        run.position()
                    );
                }
                assert!(run.sampled().len() <= run.edge_budget());
            }
        }
    }

    /// Duplicate stream edges may occupy several reservoir slots; the
    /// adjacency entry must survive until the *last* copy is evicted.
    #[test]
    fn duplicate_edges_keep_adjacency_consistent_with_slots() {
        let mut stream = Vec::new();
        for _round in 0..40 {
            for i in 0..10u32 {
                stream.push(Edge::new(i, (i + 1) % 10));
            }
        }
        let mut run = ReservoirRun::new(cfg(3), (5 * EDGE_COST_BYTES) as u64);
        for &e in &stream {
            run.process(e);
            let mut distinct: Vec<Edge> = run.sampled().to_vec();
            distinct.sort_unstable();
            distinct.dedup();
            assert_eq!(run.adj.edge_count(), distinct.len());
            for &d in &distinct {
                assert!(run.adj.contains(d));
            }
        }
    }

    #[test]
    fn restore_is_bit_identical() {
        let stream = complete(12);
        let mut live = ReservoirRun::new(cfg(11), (20 * EDGE_COST_BYTES) as u64);
        live.process_batch(&stream[..40]);
        let reservoir = ReservoirSampler::from_parts(
            live.edge_budget(),
            live.sampled().to_vec(),
            live.position(),
            live.rng_state(),
        );
        let mut resumed = ReservoirRun::from_parts(
            *live.config(),
            live.memory_budget(),
            reservoir,
            live.tau(),
            live.locals().cloned(),
        );
        for &e in &stream[40..] {
            live.process(e);
            resumed.process(e);
            assert_eq!(live.sampled(), resumed.sampled());
            assert_eq!(live.tau(), resumed.tau());
        }
        assert_eq!(live.estimate().locals, resumed.estimate().locals);
    }

    #[test]
    fn triangle_free_is_zero() {
        let mut run = ReservoirRun::new(cfg(0), MIN_MEMORY_BUDGET);
        run.process_batch(&rept_gen::star(40));
        assert_eq!(run.tau(), 0.0);
    }

    #[test]
    #[should_panic(expected = "memory budget below")]
    fn tiny_budget_panics() {
        ReservoirRun::new(cfg(0), MIN_MEMORY_BUDGET - 1);
    }

    #[test]
    fn edge_budget_floors_at_three() {
        assert_eq!(edge_budget(MIN_MEMORY_BUDGET), 3);
        assert_eq!(edge_budget(10 * EDGE_COST_BYTES as u64), 10);
    }
}
