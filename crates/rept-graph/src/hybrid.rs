//! Adjacency in a hybrid sorted-vec / blocked-bitmap layout — the
//! storage of the fused execution engine.
//!
//! A hash group of `size` processors partitions the stream by one edge
//! hash: processor `i` stores exactly the edges in cell `i`, so an
//! edge's cell is a pure function of the edge. The fused engine
//! therefore stores the union of every kept group's edges once, as
//! plain neighbor ids, and recomputes cells only where a match needs
//! them: a common neighbor `w` of an arriving edge `(u, v)` closes a
//! semi-triangle for processor `i` of a group iff
//! `cell(u, w) == cell(v, w) == i` under that group's hash. This
//! structure answers the structural half of that test —
//! [`HybridAdjacency::match_then_insert`] reports every common neighbor
//! of `u` and `v` once, from one intersection pass — and the engine
//! applies the cell half per group.
//!
//! Each node's neighbor set lives in one of two representations:
//!
//! * **sparse** (low degree): a neighbor vec kept sorted at all times.
//!   Small pairs intersect by an all-pairs scan, larger ones by a
//!   branchless merge, or by galloping when the degrees differ by more
//!   than `GALLOP_RATIO`;
//! * **dense** (degree > threshold): a *blocked bitmap* — `u64`
//!   membership words keyed by `neighbor_id / 64`, reached through a
//!   paged direct-index block directory, so hub∩hub intersection is
//!   `AND` over words (64 candidates per instruction, zero `unsafe`)
//!   and a membership probe is two loads plus a bit test — no binary
//!   search, no rank arithmetic. An insert into an existing block sets
//!   one bit, so promoted nodes never shift and never rebuild.
//!
//! Promotion is automatic and one-way: a node crossing
//! `dense_threshold` neighbors converts its sorted vec into a blocked
//! bitmap (demotion never happens — degrees only grow in an insert-only
//! stream). This is the heavy/light degree split: a light list holds at
//! most `dense_threshold` entries, so a sparse insert appends when the
//! new neighbor is the largest (every insert of a restore, which replays
//! sorted edges) and otherwise binary-searches and shifts at most that
//! many entries. Either way every list is query-ready after every
//! insert: there is no pending state to fold in at batch boundaries.
//!
//! Byte accounting is O(1) as well: the structure keeps a running total
//! of its lists' heap bytes, updated only where a capacity can change (a
//! new list, a sparse push that reallocates, a new dense block, a
//! promotion) and recounted once when a clone rebuilds the arena, so
//! `approx_bytes` — read after every serving-tier batch — never walks
//! the graph.
//!
//! Every call keeps one contract: a duplicate insert returns `false`,
//! and a query reports each structural common neighbor exactly once, in
//! unspecified order (every consumer folds matches into commutative
//! integer sums). The tests below hold the structure to a naive model —
//! a set of edges with brute-force common-neighbor enumeration — at
//! several thresholds, including the all-dense and all-sparse extremes.

use std::mem::size_of;

use crate::edge::{Edge, NodeId};

/// Degree skew at which the sorted–sorted intersection switches from a
/// linear merge to galloping: gallop when `max/min ≥ GALLOP_RATIO`.
/// Below that ratio the merge's branchless linear walk wins.
const GALLOP_RATIO: usize = 8;

/// Comparison budget below which a sparse×sparse intersection uses the
/// vectorizable all-pairs scan instead of the sorted merge kernel.
const BRUTE_LIMIT: usize = 2048;

/// Default degree at which a node's neighbor set is promoted from the
/// sorted-vec to the blocked-bitmap representation. Two cache lines of
/// sorted `u32` neighbors intersect about as fast as the bitmap probes
/// that would replace them; beyond that the bitmap's word-parallel
/// `AND` and in-place inserts win. Tunable per structure via
/// [`HybridAdjacency::with_threshold`] (the bench sweeps it).
pub const DEFAULT_DENSE_THRESHOLD: usize = 128;

/// The blocked-bitmap core of a promoted (dense) node.
///
/// Blocks live in **arrival order**: `keys[b]` is a block id
/// (`neighbor_id >> 6`), `words[b]` its 64-neighbor membership word,
/// and `dir` maps block id → `b` in O(1), so a membership probe is two
/// loads plus a bit test.
#[derive(Debug, Clone, Default)]
struct DenseCore {
    keys: Vec<NodeId>,
    words: Vec<u64>,
    dir: BlockDir,
}

impl DenseCore {
    /// True if neighbor `w` is stored.
    #[inline]
    fn contains(&self, w: NodeId) -> bool {
        self.dir
            .get(w >> 6)
            .is_some_and(|b| self.words[b as usize] >> (w & 63) & 1 == 1)
    }

    /// Sets neighbor `w` (caller has verified it absent), appending its
    /// block on first touch. Returns the heap bytes the insert added —
    /// non-zero only when a new block grew the vecs or the directory.
    fn insert(&mut self, w: NodeId) -> usize {
        let mut grown = 0;
        let b = match self.dir.get(w >> 6) {
            Some(b) => b as usize,
            None => {
                let before = self.heap_bytes();
                let b = self.keys.len();
                *self.dir.entry(w >> 6) = b as u32;
                self.keys.push(w >> 6);
                self.words.push(0);
                grown = self.heap_bytes() - before;
                b
            }
        };
        self.words[b] |= 1u64 << (w & 63);
        grown
    }

    /// Heap footprint of the boxed core in bytes, in O(1).
    fn heap_bytes(&self) -> usize {
        size_of::<Self>()
            + self.keys.capacity() * size_of::<NodeId>()
            + self.words.capacity() * size_of::<u64>()
            + self.dir.approx_bytes()
    }
}

/// One node's neighbor set in either representation.
///
/// Sparse (`dense == None`): `nbrs` is strictly increasing. Dense: the
/// whole set lives in `dense` (inserts land in the bitmap directly) and
/// `nbrs` stays empty.
#[derive(Debug, Clone)]
struct NodeList {
    nbrs: Vec<NodeId>,
    dense: Option<Box<DenseCore>>,
}

impl NodeList {
    /// True if `w` is a neighbor.
    #[inline]
    fn contains(&self, w: NodeId) -> bool {
        match &self.dense {
            Some(d) => d.contains(w),
            None => self.nbrs.binary_search(&w).is_ok(),
        }
    }

    /// Heap bytes this list owns (its vec and, once promoted, its dense
    /// core), in O(1).
    #[inline]
    fn heap_bytes(&self) -> usize {
        self.nbrs.capacity() * size_of::<NodeId>()
            + self.dense.as_ref().map_or(0, |d| d.heap_bytes())
    }
}

/// Sentinel marking an index key with no assigned value.
const NO_SLOT: u32 = u32::MAX;

/// A paged direct-index map from a `u32` key space to `u32` values: two
/// dependent loads per probe instead of a hash computation plus an
/// open-addressing walk, with pages of `1 << PAGE_BITS` entries
/// allocated lazily so sparse key spaces cost one pointer per untouched
/// range. Used for the node-id → arena-slot table (the ingest hot path:
/// two probes per inserted edge, two more per matched edge) and for
/// each dense core's block-id → block-index directory.
#[derive(Debug, Clone, Default)]
struct PagedIndex<const PAGE_BITS: u32> {
    pages: Vec<Option<Box<[u32]>>>,
    /// Allocated pages, counted so [`Self::approx_bytes`] need not scan
    /// `pages` (whose length follows the largest key, not the key
    /// count).
    allocated: usize,
}

impl<const PAGE_BITS: u32> PagedIndex<PAGE_BITS> {
    const PAGE: usize = 1 << PAGE_BITS;

    /// The value at `n`, if assigned.
    #[inline]
    fn get(&self, n: NodeId) -> Option<u32> {
        let page = self.pages.get((n >> PAGE_BITS) as usize)?.as_ref()?;
        let s = page[(n & (Self::PAGE as u32 - 1)) as usize];
        (s != NO_SLOT).then_some(s)
    }

    /// Mutable access to `n`'s entry, allocating its page on demand
    /// (`NO_SLOT` when unassigned).
    #[inline]
    fn entry(&mut self, n: NodeId) -> &mut u32 {
        let pi = (n >> PAGE_BITS) as usize;
        if pi >= self.pages.len() {
            self.pages.resize(pi + 1, None);
        }
        let allocated = &mut self.allocated;
        let page = self.pages[pi].get_or_insert_with(|| {
            *allocated += 1;
            vec![NO_SLOT; Self::PAGE].into_boxed_slice()
        });
        &mut page[(n & (Self::PAGE as u32 - 1)) as usize]
    }

    /// Heap footprint in bytes, in O(1).
    fn approx_bytes(&self) -> usize {
        self.pages.capacity() * size_of::<Option<Box<[u32]>>>()
            + self.allocated * Self::PAGE * size_of::<u32>()
    }

    /// [`Self::approx_bytes`] by scanning the page vector — the
    /// reference the page count is checked against.
    #[cfg(any(test, debug_assertions))]
    fn recount_bytes(&self) -> usize {
        self.pages.capacity() * size_of::<Option<Box<[u32]>>>()
            + self.pages.iter().flatten().count() * Self::PAGE * size_of::<u32>()
    }
}

/// Node id → arena slot (4096-id pages).
type SlotTable = PagedIndex<12>;
/// Block id → block index within one dense core (512-block pages — a
/// block id is already `neighbor_id / 64`, so one page spans 32768
/// neighbor ids).
type BlockDir = PagedIndex<9>;

/// A mutable undirected graph with duplicate-free edge insertion and
/// exactly-once common-neighbor enumeration: a node arena of sorted
/// vecs and blocked bitmaps. The fused engine holds the union of every
/// kept group's stored edges in one.
#[derive(Debug)]
pub struct HybridAdjacency {
    /// Degree above which a node is promoted to the dense core.
    threshold: usize,
    /// Node id → arena slot.
    slots: SlotTable,
    /// Slot → node id (the table's inverse, for edge enumeration).
    nodes: Vec<NodeId>,
    /// Per-node lists, indexed by slot.
    lists: Vec<NodeList>,
    /// Running sum of [`NodeList::heap_bytes`] over `lists`, updated
    /// wherever a list's capacity can change, so [`Self::approx_bytes`]
    /// never walks the arena.
    list_bytes: usize,
    edge_count: usize,
}

/// Cloning shrinks every cloned `Vec` to its length, so the clone
/// recounts its list bytes once instead of copying the running total.
impl Clone for HybridAdjacency {
    fn clone(&self) -> Self {
        let lists = self.lists.clone();
        Self {
            threshold: self.threshold,
            slots: self.slots.clone(),
            nodes: self.nodes.clone(),
            list_bytes: lists.iter().map(NodeList::heap_bytes).sum(),
            lists,
            edge_count: self.edge_count,
        }
    }
}

impl Default for HybridAdjacency {
    fn default() -> Self {
        Self::new()
    }
}

impl HybridAdjacency {
    /// Creates an empty structure at [`DEFAULT_DENSE_THRESHOLD`].
    pub fn new() -> Self {
        Self::with_threshold(DEFAULT_DENSE_THRESHOLD)
    }

    /// Creates an empty structure promoting nodes whose degree exceeds
    /// `threshold` (0 = everything dense, `usize::MAX` = never promote).
    pub fn with_threshold(threshold: usize) -> Self {
        Self {
            threshold,
            slots: SlotTable::default(),
            nodes: Vec::new(),
            lists: Vec::new(),
            list_bytes: 0,
            edge_count: 0,
        }
    }

    /// Number of stored edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Inserts the edge; returns `false` if it was already present.
    pub fn insert(&mut self, e: Edge) -> bool {
        let (u, v) = e.endpoints();
        let (su, sv) = (self.ensure_slot(u), self.ensure_slot(v));
        self.store(su, sv, u, v)
    }

    /// Processes one stream edge in a single call: calls `f(w)` once for
    /// every common neighbor `w` of its endpoints (against the state
    /// *before* any insertion), then — when `store` is set — inserts the
    /// edge, resolving each endpoint's slot once. Returns whether the
    /// edge was freshly stored (`false` without `store` and for
    /// duplicates). Without `store` no endpoint gains a slot.
    pub fn match_then_insert<F: FnMut(NodeId)>(&mut self, e: Edge, store: bool, mut f: F) -> bool {
        let (u, v) = e.endpoints();
        if !store {
            if let (Some(su), Some(sv)) = (self.slots.get(u), self.slots.get(v)) {
                self.match_slots(su as usize, sv as usize, &mut f);
            }
            return false;
        }
        // A fresh slot is an empty list, so it contributes no matches.
        let (su, sv) = (self.ensure_slot(u), self.ensure_slot(v));
        self.match_slots(su, sv, &mut f);
        self.store(su, sv, u, v)
    }

    /// Calls `f(e)` for every stored edge (arbitrary order).
    pub fn for_each_edge<F: FnMut(Edge)>(&self, mut f: F) {
        for (&u, list) in self.nodes.iter().zip(&self.lists) {
            let mut emit = |w: NodeId| {
                if u < w {
                    f(Edge::new(u, w));
                }
            };
            if let Some(d) = &list.dense {
                for (&key, &word) in d.keys.iter().zip(&d.words) {
                    for_each_bit(word, |bit| emit((key << 6) | bit));
                }
            }
            list.nbrs.iter().for_each(|&w| emit(w));
        }
    }

    /// Heap footprint in bytes — every allocation the structure owns
    /// (lists, dense cores, arena, id table). O(1): the lists' share is
    /// the running `list_bytes`.
    pub fn approx_bytes(&self) -> usize {
        let bytes = self.list_bytes + self.slots.approx_bytes() + self.vec_bytes();
        #[cfg(debug_assertions)]
        assert_eq!(bytes, self.recount_bytes(), "running byte count drifted");
        bytes
    }

    #[inline]
    fn ensure_slot(&mut self, n: NodeId) -> usize {
        // Fast path: most probes hit existing nodes, and the read-only
        // lookup skips the mutable path's page-allocation branches.
        if let Some(s) = self.slots.get(n) {
            return s as usize;
        }
        let next = self.lists.len() as u32;
        *self.slots.entry(n) = next;
        self.nodes.push(n);
        let list = NodeList {
            nbrs: Vec::with_capacity(8),
            dense: None,
        };
        self.list_bytes += list.heap_bytes();
        self.lists.push(list);
        next as usize
    }

    /// Inserts the edge `(u, v)` between its endpoints' slots unless it
    /// is already stored; returns whether it was.
    fn store(&mut self, su: usize, sv: usize, u: NodeId, v: NodeId) -> bool {
        if self.is_duplicate(su, sv, u, v) {
            return false;
        }
        self.push_entry(su, v);
        self.push_entry(sv, u);
        self.edge_count += 1;
        true
    }

    /// True if the edge `(u, v)` is already stored. A dense endpoint
    /// answers in O(1) directory probes, so prefer one when available;
    /// otherwise probe through the lower-degree endpoint — on skewed
    /// streams one side is usually the larger list, and probing the
    /// short one costs a near-trivial binary search.
    #[inline]
    fn is_duplicate(&self, su: usize, sv: usize, u: NodeId, v: NodeId) -> bool {
        let (la, lb) = (&self.lists[su], &self.lists[sv]);
        if la.dense.is_some() {
            la.contains(v)
        } else if lb.dense.is_some() || lb.nbrs.len() < la.nbrs.len() {
            lb.contains(u)
        } else {
            la.contains(v)
        }
    }

    /// Adds `w` to the slot's list, `w` being absent. Dense lists take
    /// it in place; sparse lists append it when `w` is their largest
    /// neighbor, otherwise shift it into sorted position, and promote
    /// past the threshold.
    #[inline]
    fn push_entry(&mut self, slot: usize, w: NodeId) {
        let list = &mut self.lists[slot];
        if let Some(d) = list.dense.as_deref_mut() {
            self.list_bytes += d.insert(w);
            return;
        }
        let before = list.heap_bytes();
        if list.nbrs.last().is_none_or(|&last| last < w) {
            list.nbrs.push(w);
        } else {
            let pos = list.nbrs.partition_point(|&x| x < w);
            list.nbrs.insert(pos, w);
        }
        self.list_bytes += list.heap_bytes() - before;
        if list.nbrs.len() > self.threshold {
            self.promote(slot);
        }
    }

    /// Converts a sparse slot into the dense representation.
    fn promote(&mut self, slot: usize) {
        let list = &mut self.lists[slot];
        let sparse_bytes = list.heap_bytes();
        let mut d = DenseCore::default();
        for &w in &list.nbrs {
            d.insert(w);
        }
        list.nbrs = Vec::new();
        list.dense = Some(Box::new(d));
        self.list_bytes = self.list_bytes - sparse_bytes + list.heap_bytes();
    }

    /// The structural intersection of two slots, dispatched by
    /// representation: an all-pairs equality scan (small sparse×sparse,
    /// under the [`BRUTE_LIMIT`] comparison budget) or the sorted
    /// merge/gallop kernel (larger sparse×sparse), bitmap∧bitmap
    /// (dense×dense), or a directory probe per sparse entry
    /// (dense×sparse). Each pairing covers the intersection exactly
    /// once on its own — there are no cross-representation fixup legs.
    #[inline]
    fn match_slots<F: FnMut(NodeId)>(&self, sa: usize, sb: usize, f: &mut F) {
        let (la, lb) = (&self.lists[sa], &self.lists[sb]);
        match (&la.dense, &lb.dense) {
            (None, None) => {
                let (small, large) = if la.nbrs.len() <= lb.nbrs.len() {
                    (&la.nbrs[..], &lb.nbrs[..])
                } else {
                    (&lb.nbrs[..], &la.nbrs[..])
                };
                if small.len() * large.len() <= BRUTE_LIMIT {
                    // Small×small pairs — the bulk of a skewed stream —
                    // skip the merge machinery: the inner pass is a pure
                    // `|=`-reduction over one short slice, branch-free
                    // and auto-vectorized.
                    for &w in small {
                        let mut hit = false;
                        for &x in large {
                            hit |= x == w;
                        }
                        if hit {
                            f(w);
                        }
                    }
                } else {
                    for_each_common(small, large, f);
                }
            }
            (Some(da), Some(db)) => dense_dense(da, db, f),
            (Some(d), None) => dense_sparse(d, &lb.nbrs, f),
            (None, Some(d)) => dense_sparse(d, &la.nbrs, f),
        }
    }

    /// The arena — capacity reads.
    fn vec_bytes(&self) -> usize {
        self.lists.capacity() * size_of::<NodeList>() + self.nodes.capacity() * size_of::<NodeId>()
    }

    /// [`Self::approx_bytes`] by walking every list, dense core and id
    /// page — the reference the running count is checked against.
    #[cfg(any(test, debug_assertions))]
    fn recount_bytes(&self) -> usize {
        let lists: usize = self
            .lists
            .iter()
            .map(|l| {
                l.nbrs.capacity() * size_of::<NodeId>()
                    + l.dense.as_ref().map_or(0, |d| {
                        size_of::<DenseCore>()
                            + d.keys.capacity() * size_of::<NodeId>()
                            + d.words.capacity() * size_of::<u64>()
                            + d.dir.recount_bytes()
                    })
            })
            .sum();
        lists + self.slots.recount_bytes() + self.vec_bytes()
    }
}

/// Calls `f(bit)` for every set bit of `word`, ascending.
#[inline]
fn for_each_bit(mut word: u64, mut f: impl FnMut(u32)) {
    while word != 0 {
        f(word.trailing_zeros());
        word &= word - 1;
    }
}

/// First index `≥ start` in sorted `arr` whose value is `≥ target`,
/// found by exponential probing then binary search within the bracketed
/// run — `O(log gap)` where `gap` is the distance advanced, which is
/// what makes repeated searches with a moving `start` total
/// `O(min·log(max/min))` over an intersection.
#[inline]
fn gallop_lower_bound(arr: &[NodeId], target: NodeId, start: usize) -> usize {
    if start >= arr.len() {
        return arr.len();
    }
    let mut step = 1usize;
    let mut lo = start;
    let mut probe = start;
    while probe < arr.len() && arr[probe] < target {
        lo = probe + 1;
        probe += step;
        step *= 2;
    }
    let hi = probe.min(arr.len());
    lo + arr[lo..hi].partition_point(|&x| x < target)
}

/// Calls `f(w)` for every common element of two sorted lists (`small`
/// no longer than `large`), by merge or — when the lengths differ by
/// more than [`GALLOP_RATIO`] — by galloping through the longer one.
#[inline]
fn for_each_common<F: FnMut(NodeId)>(small: &[NodeId], large: &[NodeId], f: &mut F) {
    if small.len() * GALLOP_RATIO < large.len() {
        let mut from = 0usize;
        for &w in small {
            from = gallop_lower_bound(large, w, from);
            if from == large.len() {
                break;
            }
            if large[from] == w {
                f(w);
                from += 1;
            }
        }
    } else {
        // Linear merge with *branchless* pointer advance: the
        // `x < y` / `y < x` steps compile to setcc/add instead of a
        // data-dependent jump, which matters because the comparison
        // outcome is essentially random (one branch mispredict per
        // element otherwise). Only the rare equality case takes a
        // real branch.
        let (mut i, mut j) = (0usize, 0usize);
        while i < small.len() && j < large.len() {
            let (x, y) = (small[i], large[j]);
            if x == y {
                f(x);
                i += 1;
                j += 1;
            } else {
                i += usize::from(x < y);
                j += usize::from(y < x);
            }
        }
    }
}

/// Bitmap ∧ bitmap intersection: each block of the core with fewer
/// blocks probes the other's directory, and the `AND` of the two words
/// holds the common neighbors.
#[inline]
fn dense_dense<F: FnMut(NodeId)>(da: &DenseCore, db: &DenseCore, f: &mut F) {
    let (small, big) = if da.keys.len() <= db.keys.len() {
        (da, db)
    } else {
        (db, da)
    };
    for (&key, &word) in small.keys.iter().zip(&small.words) {
        if let Some(b) = big.dir.get(key) {
            for_each_bit(word & big.words[b as usize], |bit| f((key << 6) | bit));
        }
    }
}

/// Bitmap × sparse-list intersection: one O(1) directory probe and bit
/// test per sparse entry.
#[inline]
fn dense_sparse<F: FnMut(NodeId)>(d: &DenseCore, sparse: &[NodeId], f: &mut F) {
    for &w in sparse {
        if d.contains(w) {
            f(w);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rept_hash::rng::SplitMix64;
    use std::collections::BTreeSet;

    /// Thresholds covering all-dense, mixed and all-sparse operation.
    const THRESHOLDS: [usize; 3] = [0, 24, usize::MAX];

    fn edge(u: NodeId, v: NodeId) -> Edge {
        Edge::new(u, v)
    }

    /// Spreads a compact id over the whole `u32` range: multiplying by
    /// an odd constant is a bijection of `u32`, and swapping the images
    /// of 1 (the constant) and of `u32::MAX` keeps it one while sending
    /// id 1 to `u32::MAX` (id 0 stays 0).
    fn spread(id: NodeId) -> NodeId {
        const K: u32 = 0x9E37_79B1;
        match id.wrapping_mul(K) {
            K => u32::MAX,
            u32::MAX => K,
            x => x,
        }
    }

    /// Queries the engine never makes, answered from the arena.
    impl HybridAdjacency {
        fn contains(&self, e: Edge) -> bool {
            self.slots
                .get(e.u())
                .is_some_and(|s| self.lists[s as usize].contains(e.v()))
        }

        fn degree(&self, n: NodeId) -> usize {
            self.slots.get(n).map_or(0, |s| {
                let l = &self.lists[s as usize];
                l.nbrs.len()
                    + l.dense
                        .as_ref()
                        .map_or(0, |d| d.words.iter().map(|w| w.count_ones() as usize).sum())
            })
        }

        fn node_count(&self) -> usize {
            self.lists.len()
        }

        fn dense_threshold(&self) -> usize {
            self.threshold
        }

        /// Every common neighbor of `u` and `v`, sorted, each as often as
        /// the intersection reported it.
        fn common_neighbors(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
            let mut out = Vec::new();
            if let (Some(su), Some(sv)) = (self.slots.get(u), self.slots.get(v)) {
                self.match_slots(su as usize, sv as usize, &mut |w| out.push(w));
            }
            out.sort_unstable();
            out
        }

        /// Every sparse list strictly increasing, every dense list's
        /// vec empty.
        fn sparse_lists_sorted(&self) -> bool {
            self.lists.iter().all(|l| {
                l.nbrs.windows(2).all(|p| p[0] < p[1]) && (l.dense.is_none() || l.nbrs.is_empty())
            })
        }

        /// Every stored edge, in edge order.
        fn edges(&self) -> Vec<Edge> {
            let mut edges = Vec::new();
            self.for_each_edge(|e| edges.push(e));
            edges.sort_unstable();
            edges
        }

        /// The running byte count next to the full walk it replaces.
        fn byte_counts(&self) -> (usize, usize) {
            (self.approx_bytes(), self.recount_bytes())
        }
    }

    /// The naive reference the structure is held to: the set of stored
    /// edges, queries answered by brute force over all of it.
    #[derive(Default)]
    struct Model {
        edges: BTreeSet<Edge>,
    }

    impl Model {
        fn insert(&mut self, e: Edge) -> bool {
            self.edges.insert(e)
        }

        fn neighbors(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
            self.edges.iter().filter_map(move |e| {
                if e.u() == n {
                    Some(e.v())
                } else if e.v() == n {
                    Some(e.u())
                } else {
                    None
                }
            })
        }

        fn degree(&self, n: NodeId) -> usize {
            self.neighbors(n).count()
        }

        fn node_count(&self) -> usize {
            let nodes: BTreeSet<NodeId> = self.edges.iter().flat_map(|e| [e.u(), e.v()]).collect();
            nodes.len()
        }

        /// Every common neighbor of `u` and `v`, sorted.
        fn common(&self, u: NodeId, v: NodeId) -> Vec<NodeId> {
            self.neighbors(u)
                .filter(|&w| Edge::try_new(v, w).is_some_and(|e| self.edges.contains(&e)))
                .collect()
        }

        fn edges(&self) -> Vec<Edge> {
            self.edges.iter().copied().collect()
        }
    }

    /// The defining property: at any threshold, on any insert sequence,
    /// the structure answers every query exactly like the edge-set
    /// model — including hub nodes that crossed the promotion boundary,
    /// sparse inserts below a list's largest neighbor, and (in the
    /// spread run) ids across the whole `u32` range, 0 and `u32::MAX`
    /// among them.
    #[test]
    fn single_equivalent_to_sorted_on_random_streams() {
        for spread_ids in [false, true] {
            // Every dense directory grows with its largest neighbor id,
            // to about 2 MB at the top of the range, so the spread run
            // keeps the node count small.
            let (hubs, leaves) = if spread_ids { (12, 40) } else { (60, 400) };
            let id = |n: NodeId| if spread_ids { spread(n) } else { n };
            for threshold in THRESHOLDS {
                let rng = SplitMix64::new(0xB17B17);
                let mut hybrid = HybridAdjacency::with_threshold(threshold);
                let mut model = Model::default();
                // Hub-heavy stream: node 0 collects a large degree so
                // hub–leaf probes exercise the dense×sparse kernel and
                // the gallop path.
                let mut edges = Vec::new();
                for i in 0..1500u64 {
                    let r = rng.fork(i).next_u64();
                    let (u, v) = if r.is_multiple_of(3) {
                        (0u32, 1 + (r >> 8) as u32 % leaves)
                    } else {
                        (1 + (r >> 8) as u32 % hubs, 1 + (r >> 40) as u32 % leaves)
                    };
                    edges.extend(Edge::try_new(id(u), id(v)));
                }
                let what = format!("threshold {threshold} spread {spread_ids}");
                let (stored, queries) = edges.split_at(edges.len() * 2 / 3);
                for &e in stored {
                    assert_eq!(hybrid.insert(e), model.insert(e), "{e} {what}");
                }
                assert_eq!(hybrid.edge_count(), model.edges.len());
                assert_eq!(hybrid.node_count(), model.node_count());
                if spread_ids {
                    assert!(
                        hybrid.degree(0) > 0 && hybrid.degree(u32::MAX) > 0,
                        "ids 0 and u32::MAX are in the stream"
                    );
                }
                for &q in queries.iter().chain(stored) {
                    assert_eq!(hybrid.contains(q), model.edges.contains(&q), "{q} {what}");
                    assert_eq!(
                        hybrid.common_neighbors(q.u(), q.v()),
                        model.common(q.u(), q.v()),
                        "common neighbors of {q} {what}"
                    );
                    assert_eq!(hybrid.degree(q.u()), model.degree(q.u()));
                }
                assert_eq!(hybrid.edges(), model.edges(), "edge enumeration {what}");
            }
        }
    }

    // The small checks below each run twice: on `new()`, which keeps
    // these tiny graphs in sorted rows, and on threshold 0, which
    // promotes every row to a bitmap from its first edge.

    fn check_insert_and_duplicates(mut a: HybridAdjacency) {
        assert!(a.insert(edge(1, 2)));
        assert!(!a.insert(edge(2, 1)), "duplicate in reverse order");
        assert!(a.contains(edge(1, 2)));
        assert_eq!(a.edge_count(), 1);
        assert_eq!(a.node_count(), 2);
        assert_eq!(a.degree(1), 1);
        assert!(!a.contains(edge(1, 3)));
    }

    #[test]
    fn insert_and_duplicates() {
        check_insert_and_duplicates(HybridAdjacency::new());
    }

    #[test]
    fn dense_rows_insert_and_duplicates() {
        check_insert_and_duplicates(HybridAdjacency::with_threshold(0));
    }

    fn check_matching_of_unknown_nodes_is_empty(mut a: HybridAdjacency) {
        assert!(!a.match_then_insert(edge(5, 6), false, |_| panic!("no node yet")));
        // One known endpoint is not enough either.
        a.insert(edge(1, 2));
        a.insert(edge(1, 3));
        for (u, v) in [(5, 6), (2, 7), (7, 2), (1, 7)] {
            assert!(
                !a.match_then_insert(edge(u, v), false, |_| panic!("({u}, {v})")),
                "({u}, {v})"
            );
        }
        assert_eq!(a.node_count(), 3, "a match-only call adds no node");
    }

    #[test]
    fn matching_of_unknown_nodes_is_empty() {
        check_matching_of_unknown_nodes_is_empty(HybridAdjacency::new());
    }

    #[test]
    fn dense_rows_matching_of_unknown_nodes_is_empty() {
        check_matching_of_unknown_nodes_is_empty(HybridAdjacency::with_threshold(0));
    }

    /// The fused engine's match rule over the shared structure: the
    /// common neighbors `w` with `cell(u, w) == cell(v, w) == i`, cells
    /// recomputed from the hash, are exactly the common neighbors in the
    /// cell-`i`-only adjacency, on every representation.
    #[test]
    fn matches_per_cell_equal_split_adjacencies() {
        use crate::adjacency::DynamicAdjacency;
        use rept_hash::{EdgeHashFamily, PartitionHasher};
        let cells = 4u64;
        let ph = PartitionHasher::new(EdgeHashFamily::new(5).member(0), cells);
        let cell = |a: NodeId, b: NodeId| ph.cell(u64::from(a), u64::from(b)) as usize;
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                edges.push(edge(u, v));
            }
        }
        // Store the first half, query with the second half.
        let (stored, queries) = edges.split_at(edges.len() / 2);
        for threshold in THRESHOLDS {
            let mut fused = HybridAdjacency::with_threshold(threshold);
            let mut split: Vec<DynamicAdjacency> =
                (0..cells).map(|_| DynamicAdjacency::new()).collect();
            for &e in stored {
                fused.insert(e);
                split[cell(e.u(), e.v())].insert(e);
            }
            for &q in queries {
                let mut per_cell = vec![0usize; cells as usize];
                for w in fused.common_neighbors(q.u(), q.v()) {
                    if cell(q.u(), w) == cell(q.v(), w) {
                        per_cell[cell(q.u(), w)] += 1;
                    }
                }
                for (i, s) in split.iter().enumerate() {
                    assert_eq!(
                        per_cell[i],
                        s.for_each_common_neighbor(q.u(), q.v(), |_| {}),
                        "cell {i} query {q:?} threshold {threshold}"
                    );
                }
            }
        }
    }

    fn check_edges_roundtrip(mut a: HybridAdjacency) {
        a.insert(edge(1, 2));
        a.insert(edge(2, 3));
        a.insert(edge(4, 5));
        assert_eq!(a.edges(), vec![edge(1, 2), edge(2, 3), edge(4, 5)]);
    }

    #[test]
    fn edges_roundtrip() {
        check_edges_roundtrip(HybridAdjacency::new());
    }

    #[test]
    fn dense_rows_edges_roundtrip() {
        check_edges_roundtrip(HybridAdjacency::with_threshold(0));
    }

    fn check_bytes_grow_with_inserts(mut a: HybridAdjacency) {
        let empty = a.approx_bytes();
        for i in 0..500u32 {
            a.insert(edge(i, i + 1));
        }
        assert!(a.approx_bytes() > empty);
        assert_eq!(a.edge_count(), 500);
        assert_eq!(a.node_count(), 501);
    }

    #[test]
    fn bytes_grow_with_inserts() {
        check_bytes_grow_with_inserts(HybridAdjacency::new());
    }

    #[test]
    fn dense_rows_bytes_grow_with_inserts() {
        check_bytes_grow_with_inserts(HybridAdjacency::with_threshold(0));
    }

    /// The two row representations are interchangeable: on any insert
    /// sequence a never-promoting structure (sorted rows only) answers
    /// every query exactly like an always-promoting one (bitmap rows
    /// only) — including skewed degrees (galloping path).
    #[test]
    fn sparse_rows_equivalent_to_dense_rows_on_random_streams() {
        let rng = SplitMix64::new(0xC0FFEE);
        let mut sparse = HybridAdjacency::with_threshold(usize::MAX);
        let mut dense = HybridAdjacency::with_threshold(0);
        // Hub-heavy edge distribution: node 0 collects a large degree so
        // hub–leaf intersections exercise the gallop path.
        let mut edges = Vec::new();
        for i in 0..1500u64 {
            let r = rng.fork(i).next_u64();
            let (u, v) = if r.is_multiple_of(3) {
                (0u32, 1 + (r >> 8) as u32 % 400)
            } else {
                (1 + (r >> 8) as u32 % 60, 1 + (r >> 40) as u32 % 400)
            };
            edges.extend(Edge::try_new(u, v));
        }
        let (stored, queries) = edges.split_at(edges.len() * 2 / 3);
        for &e in stored {
            assert_eq!(sparse.insert(e), dense.insert(e), "{e}");
        }
        assert_eq!(sparse.edge_count(), dense.edge_count());
        assert_eq!(sparse.node_count(), dense.node_count());
        for &q in queries.iter().chain(stored) {
            assert_eq!(sparse.contains(q), dense.contains(q), "contains {q}");
            assert_eq!(
                sparse.common_neighbors(q.u(), q.v()),
                dense.common_neighbors(q.u(), q.v()),
                "common neighbors of {q}"
            );
        }
        dense.for_each_edge(|e| {
            assert_eq!(sparse.degree(e.u()), dense.degree(e.u()));
        });
        assert_eq!(sparse.edges(), dense.edges());
    }

    #[test]
    fn gallop_lower_bound_agrees_with_partition_point() {
        let arr: Vec<NodeId> = (0..200).map(|i| i * 3).collect();
        for target in 0..620 {
            for start in [0usize, 5, 150, 199, 200] {
                let got = gallop_lower_bound(&arr, target, start);
                let want = start + arr[start.min(arr.len())..].partition_point(|&x| x < target);
                assert_eq!(got, want, "target {target} start {start}");
            }
        }
    }

    /// `match_then_insert` ≡ the common neighbors followed by `insert`
    /// (when storing), for stored, match-only and duplicate edges alike,
    /// at every threshold.
    #[test]
    fn single_match_then_insert_equals_split_calls() {
        for threshold in THRESHOLDS {
            let rng = SplitMix64::new(7);
            let mut fused = HybridAdjacency::with_threshold(threshold);
            let mut split = HybridAdjacency::with_threshold(threshold);
            for i in 0..800u64 {
                let r = rng.fork(i).next_u64();
                let Some(e) = Edge::try_new((r % 50) as u32, ((r >> 16) % 50) as u32) else {
                    continue;
                };
                let store = !r.is_multiple_of(3);
                let mut a = Vec::new();
                let stored_a = fused.match_then_insert(e, store, |w| a.push(w));
                let b = split.common_neighbors(e.u(), e.v());
                let stored_b = store && split.insert(e);
                a.sort_unstable();
                assert_eq!(a, b, "matches at step {i} threshold {threshold}");
                assert_eq!(stored_a, stored_b, "store outcome at step {i}");
            }
            assert_eq!(fused.edge_count(), split.edge_count());
            assert_eq!(fused.node_count(), split.node_count());
        }
    }

    /// `match_then_insert` storing every edge equals the common
    /// neighbors followed by `insert`, including duplicate edges, on a
    /// denser stream whose nodes cross the promotion boundary at 16.
    #[test]
    fn match_then_insert_equals_split_calls() {
        for threshold in [16, 0, 24, usize::MAX] {
            let rng = SplitMix64::new(5);
            let mut fused = HybridAdjacency::with_threshold(threshold);
            let mut split = HybridAdjacency::with_threshold(threshold);
            for i in 0..700u64 {
                let r = rng.fork(i).next_u64();
                let Some(e) = Edge::try_new((r % 40) as u32, ((r >> 16) % 40) as u32) else {
                    continue;
                };
                let mut a = Vec::new();
                let sa = fused.match_then_insert(e, true, |w| a.push(w));
                let b = split.common_neighbors(e.u(), e.v());
                let sb = split.insert(e);
                a.sort_unstable();
                assert_eq!(a, b, "step {i} threshold {threshold}");
                assert_eq!(sa, sb, "store outcome, step {i}");
            }
            assert_eq!(fused.edges(), split.edges());
        }
    }

    /// Sorted sparse inserts: a hundred neighbors of one never-promoted
    /// node in descending order (every insert shifts the whole list),
    /// with duplicates sprinkled in.
    #[test]
    fn tail_merge_keeps_prefix_sorted_and_lookups_exact() {
        let mut a = HybridAdjacency::with_threshold(usize::MAX);
        let mut inserted = 0;
        for v in (1..100u32).rev() {
            assert!(a.insert(edge(0, v)));
            inserted += 1;
            if v % 7 == 0 {
                assert!(!a.insert(edge(0, v)), "duplicate {v}");
            }
        }
        assert_eq!(a.degree(0), inserted);
        assert!(a.sparse_lists_sorted());
        for v in 1..100u32 {
            assert!(a.contains(edge(0, v)), "lookup {v}");
        }
        assert!(!a.contains(edge(0, 100)));
    }

    /// Dense-core maintenance: one hub receives hundreds of neighbors in
    /// descending order (each one shifted into its sparse list until the
    /// promotion) with duplicates sprinkled in; every lookup must stay
    /// exact.
    #[test]
    fn dense_merges_keep_lookups_exact() {
        let mut a = HybridAdjacency::with_threshold(10);
        let mut inserted = 0;
        for v in (1..600u32).rev() {
            assert!(a.insert(Edge::new(0, v)));
            inserted += 1;
            if v % 7 == 0 {
                assert!(!a.insert(Edge::new(0, v)), "duplicate {v}");
            }
        }
        assert_eq!(a.degree(0), inserted);
        for v in 1..600u32 {
            assert!(a.contains(Edge::new(0, v)), "lookup {v}");
        }
        assert!(!a.contains(Edge::new(0, 600)));
        assert_eq!(a.common_neighbors(1, 2), vec![0]);
    }

    #[test]
    fn bytes_grow_and_parameters_reported() {
        let mut a = HybridAdjacency::with_threshold(8);
        let empty = a.approx_bytes();
        for i in 0..200u32 {
            a.insert(Edge::new(0, i + 1));
        }
        assert!(a.approx_bytes() > empty);
        assert_eq!(a.degree(0), 200);
        assert_eq!(a.dense_threshold(), 8);
        assert_eq!(
            HybridAdjacency::new().dense_threshold(),
            DEFAULT_DENSE_THRESHOLD
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `approx_bytes` is O(1) yet equals the walk over every list,
        /// dense core and id page after every insert and match-only
        /// call — at every threshold, through promotions, `clone()`
        /// (whose vecs shrink to their lengths), a clone grown further
        /// and a rebuild from the edge enumeration (what an RPCK
        /// restore does).
        #[test]
        fn running_byte_count_equals_recount(
            pairs in vec((0u32..12, 0u32..160), 1..500),
            seed in any::<u64>(),
        ) {
            let rng = SplitMix64::new(seed);
            for threshold in THRESHOLDS {
                let mut adj = HybridAdjacency::with_threshold(threshold);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    let Some(e) = Edge::try_new(u, v) else {
                        continue;
                    };
                    match rng.fork(i as u64).next_u64() % 3 {
                        0 => {
                            adj.insert(e);
                        }
                        k => {
                            adj.match_then_insert(e, k == 1, |_| {});
                        }
                    }
                    let (running, walked) = adj.byte_counts();
                    prop_assert_eq!(running, walked, "edge {} threshold {}", i, threshold);
                }
                let copy = adj.clone();
                let (running, walked) = copy.byte_counts();
                prop_assert_eq!(running, walked, "clone at threshold {}", threshold);
                prop_assert!(running <= adj.approx_bytes(), "a clone never grows");
                let mut copy = adj.clone();
                for &(u, v) in &pairs {
                    if let Some(e) = Edge::try_new(v + 200, u) {
                        copy.insert(e);
                    }
                }
                let (running, walked) = copy.byte_counts();
                prop_assert_eq!(running, walked, "clone grown at threshold {}", threshold);
                let mut rebuilt = HybridAdjacency::with_threshold(threshold);
                adj.for_each_edge(|e| {
                    rebuilt.insert(e);
                });
                let (running, walked) = rebuilt.byte_counts();
                prop_assert_eq!(running, walked, "rebuild at threshold {}", threshold);
                prop_assert_eq!(rebuilt.edges(), adj.edges());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Sparse lists stay sorted whatever order the edges arrive in:
        /// ascending (every sparse insert appends), descending (every one
        /// shifts) and random, at every threshold. After every insert
        /// each sparse list is strictly increasing, the insert matched
        /// what the model matches, the structure holds exactly the
        /// model's edges, and the running byte count equals the recount.
        #[test]
        fn sparse_lists_stay_sorted_in_any_insert_order(
            pairs in vec((0u32..10, 0u32..90), 1..160),
        ) {
            let random: Vec<Edge> = pairs
                .iter()
                .filter_map(|&(u, v)| Edge::try_new(u, v))
                .collect();
            let mut ascending = random.clone();
            ascending.sort_unstable();
            let descending: Vec<Edge> = ascending.iter().rev().copied().collect();
            for (order, stream) in [("ascending", ascending), ("descending", descending), ("random", random)] {
                for threshold in THRESHOLDS {
                    let mut adj = HybridAdjacency::with_threshold(threshold);
                    let mut model = Model::default();
                    for (i, &e) in stream.iter().enumerate() {
                        let what = format!("{order} threshold {threshold} edge {i}");
                        let want = model.common(e.u(), e.v());
                        let mut got = Vec::new();
                        let fresh = adj.match_then_insert(e, true, |w| got.push(w));
                        got.sort_unstable();
                        prop_assert_eq!(fresh, model.insert(e), "{}", what);
                        prop_assert_eq!(got, want, "{}", what);
                        prop_assert!(adj.sparse_lists_sorted(), "{}", what);
                        prop_assert_eq!(adj.edges(), model.edges(), "{}", what);
                        prop_assert_eq!(adj.node_count(), model.node_count(), "{}", what);
                        let (running, walked) = adj.byte_counts();
                        prop_assert_eq!(running, walked, "{}", what);
                    }
                }
            }
        }
    }
}
