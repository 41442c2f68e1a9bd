//! Published estimate snapshots, the reader/writer handoff cell, and
//! the publication loop.
//!
//! The ingest thread owns the estimator; queries must never make it
//! wait. The subsystem therefore splits the work: the ingest thread
//! periodically *assembles* an immutable [`Snapshot`] (recombining the
//! nodes whose counters moved) and then *publishes* it through
//! [`Published`], whose critical section is a single `Arc` pointer
//! swap. Readers clone the `Arc` and work on a consistent, immutable
//! view for as long as they like — snapshot isolation without ever
//! blocking ingestion on a query.
//!
//! [`Publisher`] is the loop around that, kept once: a standalone
//! [`crate::ServeCore`] and the `rept-shard` coordinator both publish
//! through it, so their `seq=` counters agree by construction. A
//! publication costs the nodes that moved plus `k log k`: consecutive
//! snapshots share the publisher's two locals maps, and each top-k
//! index is derived from the last one.

use std::cmp::Ordering;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use rept_core::variance::plugin_confidence_interval;
use rept_core::{Engine, ReptConfig, ReptEstimate, Touched};
use rept_graph::edge::NodeId;
use rept_hash::fx::{FxHashMap, FxHashSet};

/// Every node's local estimate — what a [`Snapshot`] shares with the
/// [`Publisher`] that assembled it.
pub type Locals = FxHashMap<NodeId, f64>;

/// Write-ahead-journal state carried by a [`Snapshot`] — the fields of
/// `STATS` and `JOURNAL STATS` that are fixed at startup. All zeros
/// (and `enabled == false`) when the core runs without a journal. The
/// journal's bytes and segments move between publications, so they are
/// read live ([`crate::LiveStats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DurabilityStats {
    /// Whether the core journals acked batches before applying them.
    pub enabled: bool,
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
    /// `τ̂_v` for every node with a non-zero estimate. The [`Publisher`]
    /// reuses the map once no reader holds this snapshot.
    pub locals: Arc<Locals>,
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
    /// Builds a snapshot from a finished estimate in full: a copy of
    /// every local and a top-k selection over them. The reference
    /// assembly — a [`Publisher`]'s snapshots equal it bit for bit.
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
        let top_k = top_k_of(&est.locals, k);
        Self {
            position,
            seq,
            checkpoints,
            ..Self::assemble(est, cfg, engine, Arc::new(est.locals.clone()), top_k)
        }
    }

    /// A snapshot of `est` at position, `seq` and checkpoint count 0,
    /// with its locals and top-k index already built.
    fn assemble(
        est: &ReptEstimate,
        cfg: &ReptConfig,
        engine: Engine,
        locals: Arc<Locals>,
        top_k: Vec<(NodeId, f64)>,
    ) -> Self {
        // The variance of the `c = m` and `c = c₁m` layouts is η-free,
        // so those always get an interval; everything else needs η̂.
        let eta_free = cfg.c == cfg.m || (cfg.c > cfg.m && cfg.c.is_multiple_of(cfg.m));
        let confidence95 = (eta_free || est.eta_hat.is_some()).then(|| {
            plugin_confidence_interval(est.global, est.eta_hat.unwrap_or(0.0), cfg.m, cfg.c, 1.96)
        });
        Self {
            position: 0,
            seq: 0,
            checkpoints: 0,
            global: est.global,
            confidence95,
            eta_hat: est.eta_hat,
            locals,
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

/// The top-k order: value descending under `total_cmp`, then smaller
/// node id — a strict total order over distinct nodes, so every top-k
/// index is unique.
fn rank(a: &(NodeId, f64), b: &(NodeId, f64)) -> Ordering {
    b.1.total_cmp(&a.1).then(a.0.cmp(&b.0))
}

/// Keeps the `k` first of `entries` under [`rank`], sorted: selected,
/// then only those sorted — `O(n + k log k)`.
fn select_top(entries: &mut Vec<(NodeId, f64)>, k: usize) {
    if k == 0 {
        entries.clear();
    } else if k < entries.len() {
        entries.select_nth_unstable_by(k - 1, rank);
        entries.truncate(k);
    }
    entries.sort_unstable_by(rank);
}

/// The top-k index over every local.
fn top_k_of(locals: &Locals, k: usize) -> Vec<(NodeId, f64)> {
    let mut all: Vec<(NodeId, f64)> = locals.iter().map(|(&v, &t)| (v, t)).collect();
    select_top(&mut all, k);
    all
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
        let prev = std::mem::replace(&mut *self.slot(), next);
        // When no reader holds the previous value, this frees it.
        // Outside the lock, so the critical section stays a pure
        // pointer swap.
        drop(prev);
    }

    /// Loads the current value (pointer clone under the lock).
    pub fn load(&self) -> Arc<T> {
        self.slot().clone()
    }

    /// The slot. Every critical section is one `Arc` swap or clone, so
    /// the slot holds a whole value at every step: a guard poisoned by a
    /// panicking holder is recovered, not passed on to every later
    /// reader.
    fn slot(&self) -> MutexGuard<'_, Arc<T>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// What one publication cost, for its driver's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Publication {
    /// Nodes recombined: the touched ones, or every local after
    /// [`Touched::All`].
    pub nodes: u64,
    /// Whether it took an `O(locals)` step: [`Touched::All`], a copy of
    /// the last locals (a reader still held the snapshot before last, or
    /// the last publication changed every node), or a top-k rescan.
    pub full: bool,
}

/// The publication loop, the one owner of a publication's state: the
/// [`Published`] cell, the estimate of the last publication and the
/// nodes touched since, `seq`, the checkpoint count, the edges since the
/// last publication and the `(position, checkpoints)` guard. Its driver
/// decides when to publish, how the kept estimate catches up (`refresh`)
/// and what it adds to a snapshot (`extend`). Every publication, forced
/// ones included, restarts the cadence count.
///
/// The locals live in two maps shared with the snapshots: the last
/// snapshot's, and the spare — the snapshot before last's, which lacks
/// only the nodes the last publication changed. A publication takes the
/// spare back once no reader holds it, copies those nodes in, has
/// `refresh` recombine the nodes touched since, and publishes it; the
/// kept estimate holds no third copy. The new top-k index comes from
/// the last one plus the touched nodes, so a publication costs
/// `O(touched + k log k)` and copies or rescans every local only when
/// [`Publication::full`] says so.
#[derive(Debug)]
pub struct Publisher {
    cell: Arc<Published<Snapshot>>,
    engine: Engine,
    top_k: usize,
    every: u64,
    /// The last publication's estimate, its locals lent to `current`.
    estimate: ReptEstimate,
    /// The last snapshot's locals and top-k index.
    current: Arc<Locals>,
    top: Vec<(NodeId, f64)>,
    /// The snapshot before last's locals (`None` before the second
    /// publication), and the nodes in which they differ from `current`.
    spare: Option<Arc<Locals>>,
    changed: Touched,
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
        mut estimate: ReptEstimate,
        position: u64,
        extend: impl FnOnce(&mut Snapshot),
    ) -> Self {
        let current = Arc::new(std::mem::take(&mut estimate.locals));
        let top = top_k_of(&current, top_k);
        let mut snap = Snapshot {
            position,
            ..Snapshot::assemble(&estimate, cfg, engine, Arc::clone(&current), top.clone())
        };
        extend(&mut snap);
        Self {
            cell: Arc::new(Published::new(snap)),
            engine,
            top_k,
            every,
            estimate,
            current,
            top,
            spare: None,
            changed: Touched::All,
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

    /// Passes a cadence point without publishing: restarts the count.
    pub fn skip(&mut self) {
        self.since = 0;
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
    /// says whether the guard lets it go ahead. `false` keeps the last
    /// snapshot, and its `seq`, current.
    pub fn begin(&mut self, position: u64) -> bool {
        self.since = 0;
        self.last != Some((position, self.checkpoints))
    }

    /// Publishes the next snapshot at `position`, after a `true` from
    /// [`Self::begin`]: `refresh` folds the touched nodes into the kept
    /// estimate, combined under `cfg` — recombining only those nodes'
    /// locals, or every local for [`Touched::All`] — and `extend` adds
    /// the driver's fields.
    pub fn publish(
        &mut self,
        position: u64,
        cfg: &ReptConfig,
        refresh: impl FnOnce(&mut ReptEstimate, &Touched),
        extend: impl FnOnce(&mut Snapshot),
    ) -> Publication {
        self.seq += 1;
        let touched = self.touched.take();
        // `Touched::All` rebuilds every local, so it needs no spare.
        let (locals, copied) = match touched {
            Touched::All => (Locals::default(), false),
            Touched::Nodes(_) => self.take_spare(),
        };
        self.estimate.locals = locals;
        refresh(&mut self.estimate, &touched);
        let locals = Arc::new(std::mem::take(&mut self.estimate.locals));
        let (nodes, top) = match &touched {
            Touched::All => (locals.len(), None),
            Touched::Nodes(nodes) => (nodes.len(), self.next_top(&locals, nodes)),
        };
        let full = copied || top.is_none();
        let top = top.unwrap_or_else(|| top_k_of(&locals, self.top_k));
        let mut snap = Snapshot {
            position,
            seq: self.seq,
            checkpoints: self.checkpoints,
            ..Snapshot::assemble(
                &self.estimate,
                cfg,
                self.engine,
                Arc::clone(&locals),
                top.clone(),
            )
        };
        extend(&mut snap);
        self.cell.store(snap);
        self.spare = Some(std::mem::replace(&mut self.current, locals));
        self.top = top;
        self.changed = touched;
        self.last = Some((position, self.checkpoints));
        Publication {
            nodes: nodes as u64,
            full,
        }
    }

    /// The spare locals brought up to the last snapshot's: the nodes the
    /// last publication changed are copied in, unless a reader still
    /// holds the spare or every node changed — then the last snapshot's
    /// locals are copied whole, and the flag says so.
    fn take_spare(&mut self) -> (Locals, bool) {
        match (self.spare.take().map(Arc::try_unwrap), &self.changed) {
            (Some(Ok(mut spare)), Touched::Nodes(changed)) => {
                for v in changed {
                    match self.current.get(v) {
                        Some(&t) => spare.insert(*v, t),
                        None => spare.remove(v),
                    };
                }
                (spare, false)
            }
            (Some(Ok(mut spare)), Touched::All) => {
                spare.clone_from(&self.current);
                (spare, true)
            }
            _ => (Locals::clone(&self.current), true),
        }
    }

    /// The top-k index of `locals` from the last one: its untouched
    /// entries plus every touched node, selected under [`rank`]. Every
    /// other node is untouched and ranked below the last k-th entry, so
    /// the selection is exact when the last index held every local or
    /// its k-th candidate ranks no lower than the last k-th entry;
    /// otherwise `None` asks for a rescan.
    fn next_top(&self, locals: &Locals, touched: &FxHashSet<NodeId>) -> Option<Vec<(NodeId, f64)>> {
        let k = self.top_k;
        let mut top: Vec<(NodeId, f64)> = self
            .top
            .iter()
            .filter(|(v, _)| !touched.contains(v))
            .copied()
            .chain(touched.iter().filter_map(|v| Some((*v, *locals.get(v)?))))
            .collect();
        select_top(&mut top, k);
        let exact = match (self.top.len() < k, top.last(), self.top.last()) {
            (true, _, _) | (_, None, None) => true,
            (false, Some(kth), Some(last)) => top.len() == k && rank(kth, last).is_le(),
            _ => false,
        };
        exact.then_some(top)
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
    fn a_poisoned_publish_lock_is_recovered() {
        let cell = Arc::new(Published::new(1u64));
        let holder = Arc::clone(&cell);
        let panicked = std::thread::spawn(move || {
            let _slot = holder.slot.lock().expect("not yet poisoned");
            panic!("a holder panics mid critical section");
        })
        .join();
        assert!(panicked.is_err() && cell.slot.is_poisoned());
        assert_eq!(*cell.load(), 1);
        cell.store(2);
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

        /// A publisher driven through random publications — touched
        /// nodes raised, lowered, tied, zeroed, NaN or removed,
        /// `Touched::All` now and then, a reader holding the snapshot
        /// before last on some steps — publishes at every step what
        /// `from_estimate` assembles from the same estimate in full.
        #[test]
        fn publisher_snapshots_equal_the_full_assembly(
            start in proptest::collection::vec((0..60u32, 0..8usize), 0..40),
            pick in 0..5usize,
            steps in proptest::collection::vec(
                (
                    proptest::collection::vec((0..60u32, 0..9usize), 0..12),
                    0..8usize,
                    0..3usize,
                ),
                1..12,
            ),
        ) {
            let cfg = ReptConfig::new(2, 2).with_seed(1);
            let mut model = Rept::new(cfg).run(Engine::PerWorker, &[]);
            model.locals = start.iter().map(|&(v, t)| (v, VALUES[t])).collect();
            let n = model.locals.len();
            let k = [0, 1, n.saturating_sub(1), n, n + 3][pick];
            let mut publisher =
                Publisher::new(&cfg, Engine::PerWorker, k, 1, model.clone(), 0, |_| {});
            let mut held = None;
            for (i, (changes, all, hold)) in steps.into_iter().enumerate() {
                match hold {
                    0 => held = Some(publisher.published().load()),
                    1 => held = None,
                    _ => {}
                }
                let mut touched = Touched::none();
                for (v, t) in changes {
                    match VALUES.get(t) {
                        Some(&t) => model.locals.insert(v, t),
                        None => model.locals.remove(&v),
                    };
                    touched.extend(&Touched::Nodes([v].into_iter().collect()));
                }
                if all == 0 {
                    touched = Touched::All;
                }
                model.global = i as f64;
                let position = i as u64 + 1;
                publisher.touch(&touched);
                proptest::prop_assert!(publisher.begin(position));
                let report = publisher.publish(
                    position,
                    &cfg,
                    |est, touched| {
                        est.global = model.global;
                        match touched {
                            Touched::All => est.locals = model.locals.clone(),
                            Touched::Nodes(nodes) => {
                                for v in nodes {
                                    match model.locals.get(v) {
                                        Some(&t) => est.locals.insert(*v, t),
                                        None => est.locals.remove(v),
                                    };
                                }
                            }
                        }
                    },
                    |_| {},
                );
                let want = Snapshot::from_estimate(
                    &model, &cfg, Engine::PerWorker, position, position, 0, k,
                );
                let got = publisher.published().load();
                let bits = |s: &Snapshot| {
                    let mut locals: Vec<(NodeId, u64)> =
                        s.locals.iter().map(|(&v, t)| (v, t.to_bits())).collect();
                    locals.sort_unstable();
                    let top: Vec<(NodeId, u64)> =
                        s.top_k.iter().map(|&(v, t)| (v, t.to_bits())).collect();
                    (s.position, s.seq, s.global.to_bits(), locals, top)
                };
                proptest::prop_assert_eq!(bits(&got), bits(&want), "step {} k = {}", i, k);
                let nodes = match &touched {
                    Touched::All => model.locals.len(),
                    Touched::Nodes(nodes) => nodes.len(),
                };
                proptest::prop_assert_eq!(report.nodes, nodes as u64);
            }
            drop(held);
        }
    }

    /// Locals that only grow, read by nobody between publications: after
    /// the first publication (which has no spare yet) no publication
    /// copies or rescans every local.
    #[test]
    fn growing_locals_publish_without_a_full_step() {
        let cfg = ReptConfig::new(2, 2).with_seed(1);
        let mut model = Rept::new(cfg).run(Engine::PerWorker, &[]);
        model.locals = (0..100u32).map(|v| (v, f64::from(v))).collect();
        let mut publisher =
            Publisher::new(&cfg, Engine::PerWorker, 10, 1, model.clone(), 0, |_| {});
        for step in 1..=20u32 {
            let nodes: FxHashSet<NodeId> = [step * 7 % 100, step * 13 % 100, 100 + step]
                .into_iter()
                .collect();
            for v in &nodes {
                *model.locals.entry(*v).or_default() += 50.0;
            }
            publisher.touch(&Touched::Nodes(nodes));
            assert!(publisher.begin(u64::from(step)));
            let report = publisher.publish(
                u64::from(step),
                &cfg,
                |est, touched| {
                    let Touched::Nodes(nodes) = touched else {
                        unreachable!("only nodes are touched")
                    };
                    for v in nodes {
                        est.locals.insert(*v, model.locals[v]);
                    }
                },
                |_| {},
            );
            assert_eq!(report.full, step == 1, "step {step}");
        }
        let want = Snapshot::from_estimate(&model, &cfg, Engine::PerWorker, 20, 20, 0, 10);
        assert_eq!(publisher.published().load().top_k, want.top_k);
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
