//! Published estimate snapshots, the reader/writer handoff cell, and
//! the publication loop.
//!
//! The ingest thread owns the estimator; queries must never make it
//! wait. The subsystem therefore splits the work: the ingest thread
//! periodically *assembles* an immutable [`Snapshot`] (the expensive
//! part — cloning counters and running the combination arithmetic) and
//! then *publishes* it through [`Published`], whose critical section is
//! a single `Arc` pointer swap. Readers clone the `Arc` and work on a
//! consistent, immutable view for as long as they like — snapshot
//! isolation without ever blocking ingestion on a query.
//!
//! [`Publisher`] is the loop around that, kept once: a standalone
//! [`crate::ServeCore`] and the `rept-shard` coordinator both publish
//! through it, so their `seq=` counters agree by construction.

use std::sync::{Arc, Mutex};

use rept_core::variance::plugin_confidence_interval;
use rept_core::{Engine, ReptConfig, ReptEstimate, Touched};
use rept_graph::edge::NodeId;
use rept_hash::fx::FxHashMap;

/// Write-ahead-journal state carried by a [`Snapshot`] — the
/// durability side of `STATS` and `JOURNAL STATS`. All zeros (and
/// `enabled == false`) when the core runs without a journal.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Whether the core journals acked batches before applying them.
    pub enabled: bool,
    /// Journal bytes currently on disk (all live segments).
    pub journal_bytes: u64,
    /// Live journal segment files.
    pub journal_segments: u64,
    /// Edges replayed from the journal tail at the last startup.
    pub replayed: u64,
}

/// An immutable view of the estimator at one stream position — what
/// every query reads. Assembled by the ingest thread, shared by `Arc`.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Stream position (edges ingested) when this snapshot was taken.
    pub position: u64,
    /// Monotone snapshot sequence number (0 = the pre-stream snapshot).
    pub seq: u64,
    /// Checkpoints written by this process so far.
    pub checkpoints: u64,
    /// `τ̂` — the global estimate.
    pub global: f64,
    /// Plug-in ~95% confidence interval for `τ̂` (see
    /// [`plugin_confidence_interval`]). `None` when the variance formula
    /// needs `η̂` but η tracking is off.
    pub confidence95: Option<(f64, f64)>,
    /// `η̂` when tracked.
    pub eta_hat: Option<f64>,
    /// `τ̂_v` for every node with a non-zero estimate.
    pub locals: FxHashMap<NodeId, f64>,
    /// The `k` largest local estimates, descending (ties broken by
    /// smaller node id) — the spam/fraud-ranking consumption pattern
    /// without a full-map scan per query.
    pub top_k: Vec<(NodeId, f64)>,
    /// Edges currently stored across all processors.
    pub stored_edges: usize,
    /// Approximate estimator heap use in bytes.
    pub total_bytes: usize,
    /// Partition size `m`.
    pub m: u64,
    /// Processor count `c`.
    pub c: u64,
    /// The engine driving the run.
    pub engine: Engine,
    /// Write-ahead-journal state (zeros when journaling is off). Set by
    /// the core after [`Self::from_estimate`] assembles the rest.
    pub durability: DurabilityStats,
}

impl Snapshot {
    /// Builds a snapshot from a finished estimate — what [`Publisher`]
    /// assembles each publication from.
    #[allow(clippy::too_many_arguments)]
    pub fn from_estimate(
        est: &ReptEstimate,
        cfg: &ReptConfig,
        engine: Engine,
        position: u64,
        seq: u64,
        checkpoints: u64,
        k: usize,
    ) -> Self {
        // The variance of the `c = m` and `c = c₁m` layouts is η-free,
        // so those always get an interval; everything else needs η̂.
        let eta_free = cfg.c == cfg.m || (cfg.c > cfg.m && cfg.c.is_multiple_of(cfg.m));
        let confidence95 = (eta_free || est.eta_hat.is_some()).then(|| {
            plugin_confidence_interval(est.global, est.eta_hat.unwrap_or(0.0), cfg.m, cfg.c, 1.96)
        });
        // Select the k largest, then sort only those: O(n + k log k)
        // rather than a sort of every local on every publication.
        let order = |a: &(NodeId, f64), b: &(NodeId, f64)| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0));
        let mut top_k: Vec<(NodeId, f64)> = est.locals.iter().map(|(&v, &t)| (v, t)).collect();
        if k == 0 {
            top_k.clear();
        } else if k < top_k.len() {
            top_k.select_nth_unstable_by(k - 1, order);
            top_k.truncate(k);
        }
        top_k.sort_unstable_by(order);
        Self {
            position,
            seq,
            checkpoints,
            global: est.global,
            confidence95,
            eta_hat: est.eta_hat,
            locals: est.locals.clone(),
            top_k,
            stored_edges: est.diagnostics.stored_edges.iter().sum(),
            total_bytes: est.diagnostics.total_bytes,
            m: cfg.m,
            c: cfg.c,
            engine,
            durability: DurabilityStats::default(),
        }
    }

    /// The local estimate for `v` (0 for unseen nodes).
    pub fn local(&self, v: NodeId) -> f64 {
        self.locals.get(&v).copied().unwrap_or(0.0)
    }
}

/// Merges the top-k indices of several labelled snapshots into one
/// descending list of `(label, node, τ̂_v)` — the cross-tenant `TOPK`
/// aggregation. Each snapshot's own index is already sorted and
/// truncated, so the merge reads at most `k` entries per snapshot; ties
/// break by label, then smaller node id, keeping the result
/// deterministic.
pub fn merge_top_k<'a>(
    snapshots: impl Iterator<Item = (&'a str, &'a Snapshot)>,
    k: usize,
) -> Vec<(String, NodeId, f64)> {
    let mut merged: Vec<(String, NodeId, f64)> = snapshots
        .flat_map(|(label, snap)| {
            snap.top_k
                .iter()
                .take(k)
                .map(move |&(v, t)| (label.to_string(), v, t))
        })
        .collect();
    merged.sort_unstable_by(|a, b| {
        b.2.total_cmp(&a.2)
            .then_with(|| a.0.cmp(&b.0))
            .then(a.1.cmp(&b.1))
    });
    merged.truncate(k);
    merged
}

/// A swap cell handing immutable values from one writer to many readers.
///
/// std-only stand-in for an RCU/`arc-swap` pointer: the mutex guards
/// nothing but the `Arc` itself, so both [`Self::store`] and
/// [`Self::load`] hold it for a pointer copy — readers can never stall
/// the writer for longer than that, and a reader holding a loaded
/// snapshot holds no lock at all.
#[derive(Debug)]
pub struct Published<T> {
    slot: Mutex<Arc<T>>,
}

impl<T> Published<T> {
    /// Creates the cell with its initial value.
    pub fn new(value: T) -> Self {
        Self {
            slot: Mutex::new(Arc::new(value)),
        }
    }

    /// Publishes a new value (pointer swap under the lock).
    pub fn store(&self, value: T) {
        let next = Arc::new(value);
        let prev = {
            let mut slot = self.slot.lock().expect("publish lock poisoned");
            std::mem::replace(&mut *slot, next)
        };
        // When no reader holds the previous snapshot, this frees it —
        // potentially a large per-node map. Outside the lock, so the
        // critical section stays a pure pointer swap.
        drop(prev);
    }

    /// Loads the current value (pointer clone under the lock).
    pub fn load(&self) -> Arc<T> {
        self.slot.lock().expect("publish lock poisoned").clone()
    }
}

/// The publication loop, the one owner of a publication's state: the
/// [`Published`] cell, the estimate of the last publication and the
/// nodes touched since, `seq`, the checkpoint count, the edges since the
/// last publication and the `(position, checkpoints)` guard. Its driver
/// decides when to publish, how the kept estimate catches up (`refresh`)
/// and what it adds to a snapshot (`extend`). Every publication, forced
/// ones included, restarts the cadence count.
#[derive(Debug)]
pub struct Publisher {
    cell: Arc<Published<Snapshot>>,
    engine: Engine,
    top_k: usize,
    every: u64,
    estimate: ReptEstimate,
    /// The nodes whose counters moved since `estimate`.
    touched: Touched,
    seq: u64,
    checkpoints: u64,
    since: u64,
    /// `(position, checkpoints)` of the last publication; `None` forces
    /// the next.
    last: Option<(u64, u64)>,
}

impl Publisher {
    /// Publishes `estimate`, combined under `cfg`, as snapshot 0 at
    /// `position`; later ones come every `every` edges.
    pub fn new(
        cfg: &ReptConfig,
        engine: Engine,
        top_k: usize,
        every: u64,
        estimate: ReptEstimate,
        position: u64,
        extend: impl FnOnce(&mut Snapshot),
    ) -> Self {
        let mut snap = Snapshot::from_estimate(&estimate, cfg, engine, position, 0, 0, top_k);
        extend(&mut snap);
        Self {
            cell: Arc::new(Published::new(snap)),
            engine,
            top_k,
            every,
            estimate,
            touched: Touched::none(),
            seq: 0,
            checkpoints: 0,
            since: 0,
            last: Some((position, 0)),
        }
    }

    /// The cell every publication is stored into.
    pub fn published(&self) -> &Arc<Published<Snapshot>> {
        &self.cell
    }

    /// Counts `edges` toward the next cadence publication.
    pub fn advance(&mut self, edges: u64) {
        self.since += edges;
    }

    /// Whether the cadence asks for a publication.
    pub fn due(&self) -> bool {
        self.since >= self.every
    }

    /// Records nodes whose counters moved since the kept estimate
    /// ([`Touched::All`] when it must be recombined in full).
    pub fn touch(&mut self, nodes: &Touched) {
        self.touched.extend(nodes);
    }

    /// Counts a checkpoint; the next snapshot reports it.
    pub fn checkpointed(&mut self) {
        self.checkpoints += 1;
    }

    /// Lets the next publication go ahead at an unchanged guard.
    pub fn force(&mut self) {
        self.last = None;
    }

    /// Starts a publication at `position`: restarts the cadence count and
    /// says whether the guard lets it go ahead. Assembly copies every
    /// local, so `false` keeps the last snapshot, and its `seq`, current.
    pub fn begin(&mut self, position: u64) -> bool {
        self.since = 0;
        self.last != Some((position, self.checkpoints))
    }

    /// Publishes the next snapshot at `position`, after a `true` from
    /// [`Self::begin`]: `refresh` folds the touched nodes into the kept
    /// estimate, combined under `cfg`, and `extend` adds the driver's
    /// fields.
    pub fn publish(
        &mut self,
        position: u64,
        cfg: &ReptConfig,
        refresh: impl FnOnce(&mut ReptEstimate, &Touched),
        extend: impl FnOnce(&mut Snapshot),
    ) {
        self.seq += 1;
        refresh(&mut self.estimate, &self.touched.take());
        let mut snap = Snapshot::from_estimate(
            &self.estimate,
            cfg,
            self.engine,
            position,
            self.seq,
            self.checkpoints,
            self.top_k,
        );
        extend(&mut snap);
        self.cell.store(snap);
        self.last = Some((position, self.checkpoints));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_core::Rept;
    use rept_graph::edge::Edge;

    #[test]
    fn published_hands_out_consistent_views() {
        let cell = Published::new(1u64);
        let before = cell.load();
        cell.store(2);
        assert_eq!(*before, 1, "a held snapshot never changes");
        assert_eq!(*cell.load(), 2);
    }

    #[test]
    fn snapshot_top_k_is_sorted_and_truncated() {
        // Two triangles sharing node 0 → node 0 has the largest local.
        let stream = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(3, 4),
            Edge::new(0, 4),
        ];
        let cfg = ReptConfig::new(2, 2).with_seed(3).with_eta(true);
        let est = Rept::new(cfg).run(Engine::PerWorker, &stream);
        let snap = Snapshot::from_estimate(&est, &cfg, Engine::FusedHybrid, 6, 1, 0, 2);
        assert_eq!(snap.position, 6);
        assert!(snap.top_k.len() <= 2);
        for pair in snap.top_k.windows(2) {
            assert!(
                pair[0].1 > pair[1].1 || (pair[0].1 == pair[1].1 && pair[0].0 < pair[1].0),
                "descending with id tie-break: {:?}",
                snap.top_k
            );
        }
        if let Some(&(v, t)) = snap.top_k.first() {
            assert_eq!(snap.local(v), t);
        }
        assert_eq!(snap.local(999), 0.0);
    }

    /// The top-k index as a full sort of every local built it.
    fn reference_top_k(locals: &FxHashMap<NodeId, f64>, k: usize) -> Vec<(NodeId, u64)> {
        let mut all: Vec<(NodeId, f64)> = locals.iter().map(|(&v, &t)| (v, t)).collect();
        all.sort_unstable_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
        all.truncate(k);
        all.into_iter().map(|(v, t)| (v, t.to_bits())).collect()
    }

    /// Local values drawn from a few, so ties break by node id; zeros of
    /// both signs and a NaN pin the total order at its edges.
    const VALUES: [f64; 8] = [0.0, -0.0, 0.5, 1.0, 1.0, 2.5, 1e12, f64::NAN];

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(400))]

        #[test]
        fn top_k_selection_equals_the_full_sort(
            locals in proptest::collection::vec((0..400u32, 0..8usize), 0..300),
            pick in 0..5usize,
        ) {
            let cfg = ReptConfig::new(2, 2).with_seed(1);
            let mut est = Rept::new(cfg).run(Engine::PerWorker, &[]);
            est.locals = locals.iter().map(|&(v, t)| (v, VALUES[t])).collect();
            let len = est.locals.len();
            let k = [0, 1, len.saturating_sub(1), len, len + 3][pick];
            let snap = Snapshot::from_estimate(&est, &cfg, Engine::PerWorker, 0, 0, 0, k);
            let got: Vec<(NodeId, u64)> =
                snap.top_k.iter().map(|&(v, t)| (v, t.to_bits())).collect();
            proptest::prop_assert_eq!(got, reference_top_k(&est.locals, k), "k = {}", k);
        }
    }

    #[test]
    fn merge_top_k_is_descending_and_labelled() {
        let stream = [
            Edge::new(0, 1),
            Edge::new(1, 2),
            Edge::new(0, 2),
            Edge::new(0, 3),
            Edge::new(3, 4),
            Edge::new(0, 4),
        ];
        let cfg = ReptConfig::new(2, 2).with_seed(3);
        let est = Rept::new(cfg).run(Engine::PerWorker, &stream);
        let a = Snapshot::from_estimate(&est, &cfg, Engine::FusedHybrid, 6, 1, 0, 3);
        let cfg_b = ReptConfig::new(2, 2).with_seed(9);
        let est_b = Rept::new(cfg_b).run(Engine::PerWorker, &stream);
        let b = Snapshot::from_estimate(&est_b, &cfg_b, Engine::FusedHybrid, 6, 1, 0, 3);

        let merged = merge_top_k([("a", &a), ("b", &b)].into_iter(), 4);
        assert!(merged.len() <= 4);
        for pair in merged.windows(2) {
            assert!(pair[0].2 >= pair[1].2, "descending: {merged:?}");
        }
        // Every entry traces back to its labelled snapshot.
        for (label, v, t) in &merged {
            let src = if label == "a" { &a } else { &b };
            assert!(src.top_k.contains(&(*v, *t)), "{label}/{v}={t}");
        }
        assert!(merge_top_k(std::iter::empty(), 5).is_empty());
    }

    #[test]
    fn confidence_interval_presence_follows_eta() {
        let est_no_eta = Rept::new(ReptConfig::new(4, 2).with_seed(1)).run(Engine::PerWorker, &[]);
        // c < m without η: variance needs η̂ → no interval.
        let cfg = ReptConfig::new(4, 2).with_seed(1);
        let snap = Snapshot::from_estimate(&est_no_eta, &cfg, Engine::PerWorker, 0, 0, 0, 5);
        assert!(snap.confidence95.is_none());
        // c = m: η-free variance → interval always present.
        let cfg = ReptConfig::new(2, 2).with_seed(1);
        let est = Rept::new(cfg).run(Engine::PerWorker, &[]);
        let snap = Snapshot::from_estimate(&est, &cfg, Engine::PerWorker, 0, 0, 0, 5);
        let (lo, hi) = snap.confidence95.expect("eta-free layout");
        assert!(lo <= est.global && est.global <= hi);
    }
}
