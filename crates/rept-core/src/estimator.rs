//! The REPT estimator: Algorithm 1 (`c ≤ m`) and Algorithm 2 (`c > m`).
//!
//! Structure: processors are grouped. For `c ≤ m` there is a single group
//! of `c` processors sharing one partition hash over `m` cells — processor
//! `i` stores the edges hashed to cell `i` (cells `c..m` are unowned, which
//! is precisely how REPT subsamples). For `c > m` there are `c₁ = ⌊c/m⌋`
//! full groups of `m` processors plus, when `c₂ = c mod m ≠ 0`, one
//! remainder group of `c₂` processors; each group has an independent hash
//! from the same seeded family, so group estimates are independent and the
//! paper's Graybill–Deal combination applies.
//!
//! Two execution [`Engine`]s produce **bit-identical** results:
//!
//! * **Per-worker** — every processor is a
//!   [`SemiTriangleWorker`] with its own adjacency; each stream edge costs
//!   one intersection *per processor*. This is the paper's cost model
//!   executed literally and serves as the reference oracle.
//! * **Fused hybrid** — every hash group's edges are stored once in a
//!   shared adjacency ([`crate::fused`]), and a single common-neighbor
//!   pass per edge, with each group's cells recomputed from its hash at
//!   each common neighbor, recovers all of the groups' workers'
//!   counters. Low-degree nodes keep sorted neighbor vecs, high-degree
//!   nodes promote to blocked bitmaps ([`rept_graph::hybrid`]). The
//!   default and fast engine.
//!
//! Both run through [`Rept::run`] (one thread) and
//! [`Rept::run_threaded`], which spreads either engine's hash groups
//! over the threads (clamped to the group count, so a single-group
//! layout — every `c ≤ m` configuration — runs on one thread).
//!
//! Every driver here is a thin adapter over the unified incremental
//! execution core ([`crate::engine::EngineCore`]): batch execution is
//! "construct a core, ingest the stream, finalize" — the same code the
//! resumable and serving layers run incrementally, which is what makes
//! batch, resume and serve bit-identical by construction. The group
//! build/drain machinery lives entirely in [`crate::engine`] and
//! [`crate::fused`]; what remains *here* is the configuration-derived
//! group layout ([`Rept::new`] caches it) and the combination
//! arithmetic ([`Rept::finalize_groups`] turns any engine's
//! [`GroupAggregate`]s into a [`ReptEstimate`] via the paper's
//! Graybill–Deal weights). One step over integer sums combines the
//! global estimate and every local alike. It tells the remainder group
//! by its size (fewer than `m` processors), not by its position, so any
//! subset of a layout's groups, kept at their own starts, combines as
//! the configuration `c' = Σ` their sizes — how a shard coordinator
//! answers from the survivors of a lost shard.
//!
//! All drivers are deterministic given the hash seed, so scheduling cannot
//! affect the output — a property the integration tests assert.

use rept_graph::edge::{Edge, NodeId};
use rept_hash::edge_hash::{EdgeHashFamily, PartitionHasher};
use rept_hash::fx::FxHashMap;

use crate::combine::{graybill_deal, Combined};
use crate::config::ReptConfig;
use crate::engine::{self, Touched};
use crate::estimate::{CombinationPath, Diagnostics, ReptEstimate};
use crate::worker::SemiTriangleWorker;

/// A group of processors sharing one partition hash.
#[derive(Debug, Clone, Copy)]
pub(crate) struct GroupSpec {
    /// Index of the group's first worker.
    pub start: usize,
    /// Number of workers in the group (`≤ m`).
    pub size: usize,
    /// The group's hash (member `group_index` of the family).
    pub hasher: PartitionHasher,
}

/// Finished counters of one hash group, produced by any engine and
/// consumed by [`Rept::finalize_groups`]. The estimator only ever needs
/// per-*group* sums of the per-node maps (split by group for the
/// Graybill–Deal locals), so this is the natural combination boundary —
/// and the exchange format between an
/// [`EngineCore`](crate::engine::EngineCore) and the combination
/// arithmetic.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupAggregate {
    /// Index of the group's first worker (orders groups in diagnostics).
    pub start: usize,
    /// `τ⁽ⁱ⁾` per worker of the group.
    pub tau: Vec<u64>,
    /// Edges stored per worker of the group.
    pub stored: Vec<usize>,
    /// Approximate heap bytes held by the group's state.
    pub bytes: usize,
    /// `Σᵢ η⁽ⁱ⁾` over the group's workers.
    pub eta_total: u64,
    /// `Σᵢ τ⁽ⁱ⁾_v` over the group's workers (`None` if untracked).
    pub tau_v: Option<FxHashMap<NodeId, u64>>,
    /// `Σᵢ η⁽ⁱ⁾_v` over the group's workers (`None` if untracked).
    pub eta_v: Option<FxHashMap<NodeId, u64>>,
}

/// Which execution engine drives a run. Both produce bit-identical
/// estimates; they differ only in cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// One adjacency and one intersection per processor per edge — the
    /// paper's cost model executed literally. Reference oracle.
    PerWorker,
    /// One shared adjacency and one intersection per edge for all hash
    /// groups (see [`crate::fused`]), over the hybrid inline /
    /// sorted-vec / blocked-bitmap layout ([`rept_graph::hybrid`]):
    /// a node's first 7 neighbors live sorted in its row, more spill to
    /// a sorted vec, and high-degree nodes promote to `u64` bitmaps so
    /// hub intersections run bit-parallel. The fast default.
    #[default]
    FusedHybrid,
}

impl Engine {
    /// Short stable name (used by benches and result files).
    pub fn name(self) -> &'static str {
        match self {
            Engine::PerWorker => "per-worker",
            Engine::FusedHybrid => "fused-hybrid",
        }
    }

    /// Every engine, reference oracle first (benchmark iteration order).
    pub fn all() -> [Engine; 2] {
        [Engine::PerWorker, Engine::FusedHybrid]
    }

    /// Parses a [`Self::name`] back to an engine. The names of the
    /// retired fused layouts — `"fused"`, `"fused-hash"` and
    /// `"fused-sorted"` — are aliases of the fused engine, so older
    /// scripts, tenant manifests and wire commands keep working.
    pub fn from_name(name: &str) -> Option<Engine> {
        match name {
            "per-worker" => Some(Engine::PerWorker),
            "fused-hybrid" | "fused" | "fused-hash" | "fused-sorted" => Some(Engine::FusedHybrid),
            _ => None,
        }
    }
}

/// The REPT estimator.
///
/// ```
/// use rept_core::{Engine, Rept, ReptConfig};
/// use rept_graph::Edge;
///
/// // A triangle plus a dangling edge.
/// let stream = [Edge::new(0, 1), Edge::new(1, 2), Edge::new(0, 2), Edge::new(2, 3)];
/// // m = 2 (p = 1/2), c = 2 processors: every edge is stored by exactly
/// // one processor, and over many seeds the estimate averages to τ = 1.
/// let mean: f64 = (0..200)
///     .map(|seed| {
///         Rept::new(ReptConfig::new(2, 2).with_seed(seed))
///             .run(Engine::PerWorker, &stream)
///             .global
///     })
///     .sum::<f64>() / 200.0;
/// assert!((mean - 1.0).abs() < 0.3, "unbiased: mean {mean}");
/// ```
#[derive(Debug, Clone)]
pub struct Rept {
    cfg: ReptConfig,
    /// Group layout, built once at construction — the `run` drivers and
    /// `processor_assignments` are called per trial in Monte-Carlo loops,
    /// so rebuilding the hash family each time was measurable waste.
    groups: Vec<GroupSpec>,
}

impl Rept {
    /// Creates an estimator from a validated config.
    pub fn new(cfg: ReptConfig) -> Self {
        let family = EdgeHashFamily::new(cfg.seed);
        let m = cfg.m;
        let mut groups = Vec::new();
        let mut start = 0usize;
        if cfg.c <= m {
            groups.push(GroupSpec {
                start,
                size: cfg.c as usize,
                hasher: PartitionHasher::new(family.member(0), m),
            });
        } else {
            let (c1, c2) = (cfg.c1(), cfg.c2());
            for k in 0..c1 {
                groups.push(GroupSpec {
                    start,
                    size: m as usize,
                    hasher: PartitionHasher::new(family.member(k), m),
                });
                start += m as usize;
            }
            if c2 != 0 {
                groups.push(GroupSpec {
                    start,
                    size: c2 as usize,
                    hasher: PartitionHasher::new(family.member(c1), m),
                });
            }
        }
        Self { cfg, groups }
    }

    /// The configuration in use.
    pub fn config(&self) -> &ReptConfig {
        &self.cfg
    }

    /// Per-processor `(partition hash, owned cell)` assignments.
    ///
    /// Runtime harnesses use this to execute processors *independently*
    /// (processor `i` = "observe every edge; store when
    /// `hasher.cell(e) = cell`"), which is how per-processor work is timed
    /// for the simulated-wall-clock model (Figs. 7/8).
    pub fn processor_assignments(&self) -> Vec<(PartitionHasher, u64)> {
        self.groups
            .iter()
            .flat_map(|g| (0..g.size as u64).map(|cell| (g.hasher, cell)))
            .collect()
    }

    pub(crate) fn groups(&self) -> &[GroupSpec] {
        &self.groups
    }

    /// Runs the selected engine single-threaded over a stream. Batch
    /// execution on the unified core: ingest everything, then finalize
    /// (see [`crate::engine::EngineCore::ingest_batch`]). Deterministic
    /// given `cfg.seed`.
    pub fn run(&self, engine: Engine, stream: &[Edge]) -> ReptEstimate {
        engine::drive(self, engine, stream, 1)
    }

    /// Runs the selected engine over `threads` OS threads, producing
    /// exactly the same estimate as [`Self::run`]. Either engine spreads
    /// its hash groups round-robin over `min(threads, groups)` threads
    /// (see [`crate::engine`]), so a single-group layout runs on one.
    ///
    /// # Panics
    ///
    /// Panics if `threads == 0`.
    pub fn run_threaded(&self, engine: Engine, stream: &[Edge], threads: usize) -> ReptEstimate {
        engine::drive(self, engine, stream, threads)
    }

    /// Sums the per-worker state of the groups `keep` selects (by group
    /// index) into one [`GroupAggregate`] each — the per-worker engine's
    /// half of finalization, non-consuming so anytime snapshots can
    /// reuse it. A group-sliced core keeps only its own groups: its
    /// untouched workers would contribute misleading zero aggregates
    /// otherwise.
    pub(crate) fn aggregate_workers_for(
        &self,
        workers: &[SemiTriangleWorker],
        keep: impl Fn(usize) -> bool,
    ) -> Vec<GroupAggregate> {
        self.groups
            .iter()
            .enumerate()
            .filter(|(gi, _)| keep(*gi))
            .map(|(_, g)| {
                let members = &workers[g.start..g.start + g.size];
                let merge = |maps: Vec<&FxHashMap<NodeId, u64>>| {
                    let mut acc: FxHashMap<NodeId, u64> = FxHashMap::default();
                    for m in maps {
                        for (&n, &x) in m {
                            *acc.entry(n).or_insert(0) += x;
                        }
                    }
                    acc
                };
                let tau_v = members
                    .iter()
                    .map(|w| w.tau_v())
                    .collect::<Option<Vec<_>>>()
                    .map(merge);
                let eta_v = members
                    .iter()
                    .map(|w| w.eta_v())
                    .collect::<Option<Vec<_>>>()
                    .map(merge);
                GroupAggregate {
                    start: g.start,
                    tau: members.iter().map(|w| w.tau()).collect(),
                    stored: members.iter().map(|w| w.stored_edges()).collect(),
                    bytes: members.iter().map(|w| w.approx_bytes()).sum(),
                    eta_total: members.iter().map(|w| w.eta()).sum(),
                    tau_v,
                    eta_v,
                }
            })
            .collect()
    }

    /// Assembles the final estimate from per-group aggregates (paper
    /// Algorithm 1's and Algorithm 2's tail sections). Every engine —
    /// and every driver, batch or incremental — ends here, which is what
    /// makes them bit-identical by construction: the combination
    /// arithmetic runs on exactly the same integer sums. Public so
    /// aggregates gathered elsewhere (e.g. from a distributed fleet of
    /// [`EngineCore`](crate::engine::EngineCore)s) can be combined the
    /// same way. Every node counts as touched: the locals come from
    /// the same per-node combination [`Self::refresh_estimate`] runs.
    pub fn finalize_groups(&self, mut groups: Vec<GroupAggregate>) -> ReptEstimate {
        groups.sort_by_key(|g| g.start);
        self.combine(&groups)
    }

    /// [`Self::finalize_groups`] over borrowed aggregates already in
    /// layout order — for a caller that keeps the counters, as the shard
    /// coordinator does between exchanges. The groups may be a subset of
    /// a larger layout's, at their own starts, when this configuration
    /// has the same `m` and `c` = the sum of their sizes: the remainder
    /// is the group with fewer than `m` processors, wherever it sits.
    pub fn combine(&self, groups: &[GroupAggregate]) -> ReptEstimate {
        let mut est = self.combine_counts(groups);
        self.refresh_locals(&mut est.locals, groups, &Touched::All);
        est
    }

    /// Brings `est`, an earlier combination of this layout, up to date
    /// with `groups` — the current per-group counters in layout order —
    /// given the nodes `touched` since: the global estimate, `η̂` and the
    /// diagnostics are recomputed (`O(c)`), and only the touched nodes'
    /// locals, each from its exact integer counters. The result equals
    /// [`Self::finalize_groups`] over the same counters bit for bit, so
    /// a publication costs the nodes that moved instead of every local.
    ///
    /// `groups` must hold every touched node's entries: the full
    /// counters, or a delta of them ([`EngineCore::counters_for`](crate::engine::EngineCore::counters_for)).
    pub fn refresh_estimate(
        &self,
        est: &mut ReptEstimate,
        groups: &[GroupAggregate],
        touched: &Touched,
    ) {
        debug_assert!(groups.windows(2).all(|w| w[0].start <= w[1].start));
        let locals = std::mem::take(&mut est.locals);
        *est = self.combine_counts(groups);
        est.locals = locals;
        self.refresh_locals(&mut est.locals, groups, touched);
    }

    /// Everything of the estimate but the locals (left empty): the
    /// global estimate, `η̂` and the diagnostics, all `O(c)`. `groups`
    /// are in layout order. The global is the combination of the whole
    /// layout's integer sums, the step every local takes over its own.
    fn combine_counts(&self, groups: &[GroupAggregate]) -> ReptEstimate {
        let m = self.cfg.m as f64;
        let c = self.cfg.c as f64;
        let mixed = self.mixed();
        let mut sums = NodeSums::default();
        for g in groups {
            sums.add_tau(self.full(mixed, g), g.tau.iter().sum());
            sums.eta += g.eta_total;
        }
        let eta_hat = self
            .cfg
            .needs_eta()
            .then(|| m * m * m * sums.eta as f64 / c);
        let (global, combination, sub_estimates) = self.combine_sums(sums);
        ReptEstimate {
            global,
            locals: FxHashMap::default(),
            eta_hat,
            diagnostics: Diagnostics {
                m: self.cfg.m,
                c: self.cfg.c,
                per_processor_tau: groups.iter().flat_map(|g| g.tau.iter().copied()).collect(),
                stored_edges: groups
                    .iter()
                    .flat_map(|g| g.stored.iter().copied())
                    .collect(),
                total_bytes: groups.iter().map(|g| g.bytes).sum(),
                combination,
                sub_estimates,
            },
        }
    }

    /// Whether this layout takes the mixed-group path (`c > m`,
    /// `c₂ ≠ 0`): Graybill–Deal over the full groups and the remainder,
    /// which reads `η`, rather than a single scale.
    fn mixed(&self) -> bool {
        self.cfg.c > self.cfg.m && self.cfg.c2() != 0
    }

    /// Whether `g`'s counts go to the full groups' sum: every group's on
    /// the single-scale paths; on the mixed path, every group's but the
    /// remainder's — the one group with fewer than `m` processors,
    /// wherever it sits, so any subset of a layout's groups combines as
    /// held under `c' = Σ` their sizes.
    fn full(&self, mixed: bool, g: &GroupAggregate) -> bool {
        !mixed || g.tau.len() >= self.cfg.m as usize
    }

    /// Recomputes `locals` for the `touched` nodes of `groups` (layout
    /// order): every node through the per-group map merge for
    /// [`Touched::All`], else each touched node from its own entries. A
    /// node no map holds has no local.
    fn refresh_locals(
        &self,
        locals: &mut FxHashMap<NodeId, f64>,
        groups: &[GroupAggregate],
        touched: &Touched,
    ) {
        if !self.cfg.track_locals {
            locals.clear();
            return;
        }
        let mixed = self.mixed();
        let Touched::Nodes(nodes) = touched else {
            *locals = self.all_locals(groups, mixed);
            return;
        };
        for &v in nodes {
            let mut sums = NodeSums::default();
            let mut held = false;
            for g in groups {
                if let Some(&count) = g.tau_v.as_ref().and_then(|tv| tv.get(&v)) {
                    held = true;
                    sums.add_tau(self.full(mixed, g), count);
                }
                if mixed {
                    if let Some(&count) = g.eta_v.as_ref().and_then(|ev| ev.get(&v)) {
                        held = true;
                        sums.eta += count;
                    }
                }
            }
            if held {
                locals.insert(v, self.combine_sums(sums).0);
            } else {
                locals.remove(&v);
            }
        }
    }

    /// Every node's local, merging the per-group maps in one pass each.
    fn all_locals(&self, groups: &[GroupAggregate], mixed: bool) -> FxHashMap<NodeId, f64> {
        // The largest merged map bounds the node count from below:
        // reserving it up front saves the map's regrowth.
        let largest = groups
            .iter()
            .flat_map(|g| g.tau_v.iter().chain(g.eta_v.iter().filter(|_| mixed)))
            .map(FxHashMap::len)
            .max()
            .unwrap_or(0);
        if !mixed {
            // One sum per node: a plain count map merges fastest.
            let mut acc: FxHashMap<NodeId, u64> =
                FxHashMap::with_capacity_and_hasher(largest, Default::default());
            for tv in groups.iter().filter_map(|g| g.tau_v.as_ref()) {
                for (&v, &count) in tv {
                    *acc.entry(v).or_insert(0) += count;
                }
            }
            return acc
                .into_iter()
                .map(|(v, sum1)| {
                    let sums = NodeSums {
                        sum1,
                        ..NodeSums::default()
                    };
                    (v, self.combine_sums(sums).0)
                })
                .collect();
        }
        let mut acc: FxHashMap<NodeId, NodeSums> =
            FxHashMap::with_capacity_and_hasher(largest, Default::default());
        for g in groups {
            let full = self.full(mixed, g);
            if let Some(tv) = &g.tau_v {
                for (&v, &count) in tv {
                    acc.entry(v).or_default().add_tau(full, count);
                }
            }
            if let Some(ev) = &g.eta_v {
                for (&v, &count) in ev {
                    acc.entry(v).or_default().eta += count;
                }
            }
        }
        acc.into_iter()
            .map(|(v, sums)| (v, self.combine_sums(sums).0))
            .collect()
    }

    /// The combination of one set of integer sums — a node's for its
    /// local, the whole layout's for the global — with the path that
    /// produced it and, on the mixed path, the sub-estimates
    /// `(τ̂⁽¹⁾, τ̂⁽²⁾)`. Single-scale paths: `m²/c · Σ τ⁽ⁱ⁾` for `c ≤ m`
    /// (Algorithm 1), `m/c₁ · Σ τ⁽ⁱ⁾` for `c = c₁m`. Mixed path:
    /// Graybill–Deal with plug-in weights (§III-B: `τ ← τ̂⁽¹⁾`,
    /// `η ← m³/c · Σ η⁽ⁱ⁾`), and when that degenerates the pooled
    /// unbiased `m²/c · Σ τ⁽ⁱ⁾`, under which every triangle is counted
    /// with expectation `c/m²` across all processors.
    fn combine_sums(&self, sums: NodeSums) -> (f64, CombinationPath, Option<(f64, f64)>) {
        let m = self.cfg.m as f64;
        let c = self.cfg.c as f64;
        if self.cfg.c <= self.cfg.m {
            return (
                m * m / c * sums.sum1 as f64,
                CombinationPath::SingleGroup,
                None,
            );
        }
        let c1 = self.cfg.c1() as f64;
        if self.cfg.c2() == 0 {
            return (m / c1 * sums.sum1 as f64, CombinationPath::FullGroups, None);
        }
        let c2 = self.cfg.c2() as f64;
        let t1 = m / c1 * sums.sum1 as f64;
        let t2 = m * m / c2 * sums.sum2 as f64;
        let eta = m * m * m * sums.eta as f64 / c;
        let w1 = t1 * (m - 1.0) / c1;
        let w2 = (t1 * (m * m - c2) + 2.0 * eta * (m - c2)) / c2;
        let (value, path) = match graybill_deal(t1, w1, t2, w2) {
            Combined::Weighted(x) => (x, CombinationPath::GraybillDeal),
            Combined::Degenerate => (
                m * m / c * (sums.sum1 + sums.sum2) as f64,
                CombinationPath::PooledFallback,
            ),
        };
        (value, path, Some((t1, t2)))
    }
}

/// Integer counters summed across groups the way a combination reads
/// them — one node's `τ_v` and `η_v`, or the whole layout's `τ⁽ⁱ⁾` and
/// `η⁽ⁱ⁾`: the full groups' `τ` (every group's, on the single-scale
/// paths), the remainder's `τ`, and `η`.
#[derive(Debug, Default, Clone, Copy)]
struct NodeSums {
    sum1: u64,
    sum2: u64,
    eta: u64,
}

impl NodeSums {
    /// Adds one group's `τ` to the full-group or the remainder sum.
    fn add_tau(&mut self, full: bool, count: u64) {
        if full {
            self.sum1 += count;
        } else {
            self.sum2 += count;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReptConfig;
    use rept_gen::{complete, GeneratorConfig};

    #[test]
    fn groups_layout_c_le_m() {
        let r = Rept::new(ReptConfig::new(10, 4));
        let g = r.groups();
        assert_eq!(g.len(), 1);
        assert_eq!(g[0].size, 4);
        assert_eq!(g[0].hasher.cells(), 10);
    }

    #[test]
    fn groups_layout_c_gt_m() {
        let r = Rept::new(ReptConfig::new(4, 11)); // c1 = 2, c2 = 3
        let g = r.groups();
        assert_eq!(g.len(), 3);
        assert_eq!((g[0].start, g[0].size), (0, 4));
        assert_eq!((g[1].start, g[1].size), (4, 4));
        assert_eq!((g[2].start, g[2].size), (8, 3));
    }

    #[test]
    fn full_partition_c_equals_m_is_exact_within_partition() {
        // With c = m every edge is stored by exactly one processor; the
        // estimate is m²/m Σ τ⁽ⁱ⁾ = m·Σ. Semi-triangles only close when
        // their first two edges share a cell — randomness remains, but the
        // estimate must be unbiased: check with many seeds.
        let stream = complete(10);
        let tau = 120.0; // C(10,3)
        let (m, c) = (3u64, 3u64);
        let trials = 400;
        let mean: f64 = (0..trials)
            .map(|s| {
                Rept::new(ReptConfig::new(m, c).with_seed(s))
                    .run(Engine::PerWorker, &stream)
                    .global
            })
            .sum::<f64>()
            / trials as f64;
        assert!(
            (mean - tau).abs() < tau * 0.1,
            "mean {mean} too far from τ = {tau}"
        );
    }

    #[test]
    fn unbiased_for_c_less_than_m() {
        let stream = complete(12); // τ = 220
        let tau = 220.0;
        let trials = 600;
        let mean: f64 = (0..trials)
            .map(|s| {
                Rept::new(ReptConfig::new(4, 2).with_seed(s))
                    .run(Engine::PerWorker, &stream)
                    .global
            })
            .sum::<f64>()
            / trials as f64;
        assert!((mean - tau).abs() < tau * 0.15, "mean {mean} vs τ = {tau}");
    }

    #[test]
    fn unbiased_for_full_groups() {
        let stream = complete(12);
        let tau = 220.0;
        let trials = 300;
        let mean: f64 = (0..trials)
            .map(|s| {
                Rept::new(ReptConfig::new(3, 6).with_seed(s)) // c = 2m
                    .run(Engine::PerWorker, &stream)
                    .global
            })
            .sum::<f64>()
            / trials as f64;
        assert!((mean - tau).abs() < tau * 0.1, "mean {mean}");
    }

    #[test]
    fn mixed_groups_estimate_is_reasonable() {
        let stream = complete(14); // τ = 364
        let tau = 364.0;
        let trials = 300;
        let mean: f64 = (0..trials)
            .map(|s| {
                Rept::new(ReptConfig::new(3, 7).with_seed(s)) // c1=2, c2=1
                    .run(Engine::PerWorker, &stream)
                    .global
            })
            .sum::<f64>()
            / trials as f64;
        // Plug-in weights make this slightly biased; allow a loose band.
        assert!((mean - tau).abs() < tau * 0.2, "mean {mean} vs τ = {tau}");
    }

    #[test]
    fn locals_sum_tracks_three_tau() {
        // Σ_v τ̂_v should be ≈ 3τ̂ for the single-group path (each
        // semi-triangle contributes to exactly 3 nodes with equal scaling).
        let stream = complete(10);
        let est = Rept::new(ReptConfig::new(3, 3).with_seed(5)).run(Engine::PerWorker, &stream);
        let local_sum: f64 = est.locals.values().sum();
        assert!(
            (local_sum - 3.0 * est.global).abs() < 1e-6,
            "Σ τ̂_v = {local_sum} vs 3τ̂ = {}",
            3.0 * est.global
        );
    }

    #[test]
    fn threaded_matches_sequential() {
        let cfg = GeneratorConfig::new(300, 11);
        let stream = rept_gen::barabasi_albert(&cfg, 4);
        for (m, c) in [(4u64, 3u64), (3, 3), (3, 7), (2, 8)] {
            let r = Rept::new(ReptConfig::new(m, c).with_seed(42).with_eta(true));
            let seq = r.run(Engine::PerWorker, &stream);
            for threads in [1, 2, 5] {
                let thr = r.run_threaded(Engine::PerWorker, &stream, threads);
                assert_eq!(seq.global, thr.global, "m={m} c={c} threads={threads}");
                assert_eq!(seq.eta_hat, thr.eta_hat);
                assert_eq!(seq.locals, thr.locals);
            }
        }
    }

    #[test]
    fn fused_matches_sequential_bit_for_bit() {
        // The fused engine against the per-worker oracle on every
        // combination path, with η and locals on, through both drivers.
        // Thread counts above the group count are clamped (every layout
        // here has ≤ 4 groups).
        let cfg = GeneratorConfig::new(300, 11);
        let stream = rept_gen::barabasi_albert(&cfg, 4);
        for (m, c) in [(4u64, 3u64), (3, 3), (3, 7), (2, 8), (6, 1)] {
            let r = Rept::new(ReptConfig::new(m, c).with_seed(42).with_eta(true));
            let seq = r.run(Engine::PerWorker, &stream);
            let fused = r.run(Engine::FusedHybrid, &stream);
            assert_eq!(seq.global, fused.global, "m={m} c={c}");
            assert_eq!(seq.eta_hat, fused.eta_hat, "m={m} c={c}");
            assert_eq!(seq.locals, fused.locals, "m={m} c={c}");
            assert_eq!(
                seq.diagnostics.per_processor_tau, fused.diagnostics.per_processor_tau,
                "per-processor τ must agree, m={m} c={c}"
            );
            assert_eq!(seq.diagnostics.stored_edges, fused.diagnostics.stored_edges);
            for threads in [1, 2, 5] {
                let thr = r.run_threaded(Engine::FusedHybrid, &stream, threads);
                assert_eq!(seq.global, thr.global, "m={m} c={c} threads={threads}");
                assert_eq!(seq.eta_hat, thr.eta_hat);
                assert_eq!(seq.locals, thr.locals);
                assert_eq!(
                    seq.diagnostics.per_processor_tau,
                    thr.diagnostics.per_processor_tau
                );
            }
        }
    }

    #[test]
    fn within_group_threads_match_on_single_group_layout() {
        // c ≤ m ⇒ one hash group; the threaded driver clamps to one
        // thread, and every thread count must stay bit-identical.
        let stream = rept_gen::barabasi_albert(&GeneratorConfig::new(400, 9), 5);
        let r = Rept::new(ReptConfig::new(8, 6).with_seed(13).with_eta(true));
        assert_eq!(r.groups().len(), 1);
        let one = r.run_threaded(Engine::FusedHybrid, &stream, 1);
        for threads in [2usize, 3, 8] {
            let par = r.run_threaded(Engine::FusedHybrid, &stream, threads);
            assert_eq!(one.global, par.global, "threads={threads}");
            assert_eq!(one.eta_hat, par.eta_hat);
            assert_eq!(one.locals, par.locals);
            assert_eq!(
                one.diagnostics.per_processor_tau,
                par.diagnostics.per_processor_tau
            );
            assert_eq!(one.diagnostics.stored_edges, par.diagnostics.stored_edges);
        }
    }

    #[test]
    fn engine_selector_dispatches() {
        let stream = complete(10);
        let r = Rept::new(ReptConfig::new(3, 3).with_seed(5));
        let a = r.run(Engine::PerWorker, &stream);
        for engine in Engine::all() {
            let b = r.run(engine, &stream);
            let c = r.run_threaded(engine, &stream, 2);
            assert_eq!(a.global, b.global, "{}", engine.name());
            assert_eq!(a.global, c.global, "{}", engine.name());
        }
        assert_eq!(Engine::default(), Engine::FusedHybrid);
        assert_eq!(Engine::FusedHybrid.name(), "fused-hybrid");
        assert_eq!(Engine::PerWorker.name(), "per-worker");
        for engine in Engine::all() {
            assert_eq!(Engine::from_name(engine.name()), Some(engine));
        }
        for alias in ["fused", "fused-hash", "fused-sorted"] {
            assert_eq!(
                Engine::from_name(alias),
                Some(Engine::FusedHybrid),
                "{alias}"
            );
        }
        assert_eq!(Engine::from_name("bogus"), None);
    }

    #[test]
    fn groups_are_cached_and_stable() {
        // `groups()` must return the same layout object every call — it is
        // built exactly once in `new` (the hash family derivation is pure,
        // so equality of hashers certifies equality of layout).
        let r = Rept::new(ReptConfig::new(4, 11).with_seed(9));
        let first: Vec<_> = r
            .groups()
            .iter()
            .map(|g| (g.start, g.size, g.hasher))
            .collect();
        let again: Vec<_> = r
            .groups()
            .iter()
            .map(|g| (g.start, g.size, g.hasher))
            .collect();
        assert_eq!(first, again);
        assert_eq!(r.processor_assignments().len(), 11);
    }

    #[test]
    fn empty_stream_estimates_zero() {
        let est = Rept::new(ReptConfig::new(5, 13).with_seed(0)).run(Engine::PerWorker, &[]);
        assert_eq!(est.global, 0.0);
        assert!(est.locals.is_empty());
    }

    #[test]
    fn empty_stream_fused_estimates_zero() {
        let r = Rept::new(ReptConfig::new(5, 13).with_seed(0));
        let est = r.run(Engine::FusedHybrid, &[]);
        assert_eq!(est.global, 0.0);
        assert!(est.locals.is_empty());
        let est = r.run_threaded(Engine::FusedHybrid, &[], 4);
        assert_eq!(est.global, 0.0);
    }

    #[test]
    fn triangle_free_stream_estimates_zero() {
        let stream = rept_gen::star(50);
        let est = Rept::new(ReptConfig::new(4, 4).with_seed(3)).run(Engine::PerWorker, &stream);
        assert_eq!(est.global, 0.0);
    }

    #[test]
    fn locals_disabled_yields_empty_map() {
        let stream = complete(8);
        let est = Rept::new(ReptConfig::new(3, 3).with_seed(1).with_locals(false))
            .run(Engine::PerWorker, &stream);
        assert!(est.locals.is_empty());
        assert!(est.global > 0.0);
    }

    #[test]
    fn stored_edges_partition_the_sampled_stream() {
        // Across one full group (c = m) every edge is stored exactly once.
        let stream = complete(20); // 190 edges
        let est = Rept::new(ReptConfig::new(5, 5).with_seed(9)).run(Engine::PerWorker, &stream);
        let total: usize = est.diagnostics.stored_edges.iter().sum();
        assert_eq!(total, 190);
    }

    #[test]
    fn c_le_m_stores_c_over_m_fraction() {
        let stream = complete(40); // 780 edges
        let est = Rept::new(ReptConfig::new(10, 3).with_seed(2)).run(Engine::PerWorker, &stream);
        let total: usize = est.diagnostics.stored_edges.iter().sum();
        let expected = 780.0 * 3.0 / 10.0;
        assert!(
            (total as f64 - expected).abs() < expected * 0.25,
            "stored {total}, expected ≈ {expected}"
        );
    }
}
