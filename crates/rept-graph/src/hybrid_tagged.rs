//! Cell-tagged adjacency in a hybrid sorted-vec / blocked-bitmap
//! layout — the storage of the fused execution engine.
//!
//! A hash group of `size` processors partitions the stream by one edge
//! hash: processor `i` stores exactly the edges in cell `i`. Instead of
//! `size` separate adjacencies, the fused engine stores that partitioned
//! edge set once and tags each neighbor entry with its edge's cell: a
//! common neighbor `w` of an arriving edge `(u, v)` closes a
//! semi-triangle for processor `i` iff `cell(u, w) == cell(v, w) == i`,
//! so **one** intersection pass yields every processor's closures. All
//! *full* hash groups (size = `m`) store the identical edge set, so one
//! structure carries one tag column per full group; the remainder group
//! joins the same walk through a masked column whose [`MASKED_NONE`]
//! sentinel marks the edges its subsampling dropped.
//!
//! Each node's neighbor set lives in one of two representations:
//!
//! * **sparse** (low degree): a sorted neighbor vec with strided tag
//!   runs plus a bounded unsorted tail (`TAIL_LIMIT`). Small pairs
//!   intersect by an all-pairs scan, larger ones by a branchless merge,
//!   or by galloping when the degrees differ by more than
//!   `GALLOP_RATIO`;
//! * **dense** (degree > threshold): a *blocked bitmap* — `u64`
//!   membership words keyed by `neighbor_id / 64`, reached through a
//!   paged direct-index block directory, so hub∩hub intersection is
//!   `AND` + `count_ones` over words (64 candidates per instruction,
//!   zero `unsafe`) and a membership probe is two loads plus a bit
//!   test — no binary search, no rank arithmetic.
//!
//! Tags are stored **packed**: a partition cell is an index below `m`,
//! which in any realistic configuration fits one byte, so the store
//! keeps `u8` elements (the [`MASKED_NONE`] sentinel maps to `0xFF`)
//! and the whole structure transparently *widens* to `u32` storage the
//! first time an unrepresentable tag arrives. Packing is what makes
//! the layout cheap to *maintain*, not just to query: ingest cost is
//! dominated by tail-merge traffic moving 4-byte neighbor + stride tag
//! entries, and packing shrinks the tag share of that traffic 4×.
//! Dense cores store tag runs *direct-addressed*: bit
//! `i` of block `b` owns `tags[(b·64 + i)·stride ..][..stride]`, so a
//! probe reaches its tags with no rank computation and an insert into
//! an existing block writes one bit plus `stride` tag bytes in place
//! — promoted nodes never buffer a tail and never rebuild. The price
//! is `64·stride` tag bytes per touched block whether or not every
//! bit is set; dense nodes trade memory for constant-time maintenance
//! (the sparse majority still stores tags contiguously).
//!
//! Promotion is automatic and one-way: a node crossing
//! `dense_threshold` neighbors converts its sorted vec into a blocked
//! bitmap (demotion never happens — degrees only grow in an insert-only
//! stream). Sparse nodes buffer new neighbors in the bounded unsorted
//! tail, back-merged on overflow, while dense nodes insert in place, so
//! queries never need `&mut self`. Batch-boundary `compact` is lazy:
//! only tails already at the overflow bound are merged (see `compact`
//! for why), and the inserts register exactly those slots as they
//! fill, so a boundary costs O(batch), not O(nodes).
//!
//! Byte accounting is O(1) as well: every structure keeps a running
//! total of its lists' heap bytes, updated only where a capacity can
//! change (a new list, a sparse push that reallocates, a new dense
//! block, a promotion) and recounted once when a clone or the packed →
//! wide switch rebuilds the arena, so `approx_bytes` — read after
//! every serving-tier batch — never walks the graph.
//!
//! Three wrappers share one core: [`HybridTaggedAdjacency`] (a single
//! tag column — one independent hash group), [`MultiHybridTaggedAdjacency`]
//! (one column per full hash group) and [`MaskedHybridTaggedAdjacency`]
//! (full columns plus the masked remainder column). Every wrapper keeps
//! the same contract: a duplicate insert returns `false` and leaves the
//! first tags in place, and a query reports each structural common
//! neighbor exactly once per agreeing tag column, in unspecified order
//! (every consumer folds matches into commutative integer sums). The
//! tests below hold each wrapper to a naive model — a map from edge to
//! tag run with brute-force common-neighbor enumeration — at several
//! thresholds, including the all-dense and all-sparse extremes.

use crate::edge::{Edge, NodeId};

/// The partition cell an edge was hashed to, as stored in neighbor lists.
///
/// `u32` bounds the number of processors per group at ~4.3 billion —
/// far beyond any deployment.
pub type CellTag = u32;

/// Sentinel tag of the masked column: "not stored by the masked group".
/// Real remainder tags are cell indices (`< m ≤ u32::MAX`), so the
/// sentinel can never collide with a stored tag.
pub const MASKED_NONE: CellTag = CellTag::MAX;

/// Maximum unsorted-tail length per sparse node before the tail is
/// merged into the sorted prefix. Small enough that tail scans stay in
/// one or two cache lines; large enough that a node inserted into `k`
/// times costs `O(k·deg/TAIL_LIMIT)` total merge work instead of
/// `O(k·deg)`.
const TAIL_LIMIT: usize = 16;

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
/// `AND` + `count_ones` and index-only tail merges win. Tunable per
/// structure via the `with_threshold` constructors (the bench sweeps
/// it).
pub const DEFAULT_DENSE_THRESHOLD: usize = 128;

/// A tag-store element: either the packed single-byte form or the full
/// [`CellTag`]. The packing is injective over every representable tag,
/// so tag-equality filtering runs directly on packed values.
trait TagElem: Copy + Eq + Default + std::fmt::Debug {
    /// True if `tag` is representable by this element type.
    fn fits(tag: CellTag) -> bool;
    /// Packs a representable tag (callers check [`Self::fits`] first).
    fn pack(tag: CellTag) -> Self;
    /// Recovers the original tag.
    fn unpack(self) -> CellTag;
}

impl TagElem for CellTag {
    #[inline]
    fn fits(_tag: CellTag) -> bool {
        true
    }
    #[inline]
    fn pack(tag: CellTag) -> Self {
        tag
    }
    #[inline]
    fn unpack(self) -> CellTag {
        self
    }
}

/// The packed form: cells `< 0xFF` verbatim, [`MASKED_NONE`] ↦ `0xFF`.
impl TagElem for u8 {
    #[inline]
    fn fits(tag: CellTag) -> bool {
        tag < 0xFF || tag == MASKED_NONE
    }
    #[inline]
    fn pack(tag: CellTag) -> Self {
        if tag == MASKED_NONE {
            0xFF
        } else {
            tag as u8
        }
    }
    #[inline]
    fn unpack(self) -> CellTag {
        if self == 0xFF {
            MASKED_NONE
        } else {
            CellTag::from(self)
        }
    }
}

/// The blocked-bitmap core of a promoted (dense) node.
///
/// Blocks live in **arrival order**: `keys[b]` is a block id
/// (`neighbor_id >> 6`), `words[b]` its 64-neighbor membership word,
/// and `dir` maps block id → `b` in O(1), so a membership probe is two
/// loads plus a bit test. Tags are **direct-addressed**: bit `i` of
/// block `b` owns `tags[(b·64 + i)·stride ..][..stride]`, so an insert
/// into an existing block is one bit set plus `stride` tag bytes — no
/// tail buffering, no rank directory, no rebuilds. Slots of unset bits
/// hold `T::default()` filler and are never read (every access
/// bit-tests first).
#[derive(Debug, Clone, Default)]
struct DenseCore<T> {
    keys: Vec<NodeId>,
    words: Vec<u64>,
    tags: Vec<T>,
    dir: BlockDir,
    len: u32,
}

impl<T: TagElem> DenseCore<T> {
    /// Number of neighbors stored in the bitmap.
    #[inline]
    fn len(&self) -> usize {
        self.len as usize
    }

    /// True if neighbor `w` is stored.
    #[inline]
    fn contains(&self, w: NodeId) -> bool {
        self.dir
            .get(w >> 6)
            .is_some_and(|b| self.words[b as usize] >> (w & 63) & 1 == 1)
    }

    /// The tag run of neighbor `w`, if present.
    #[inline]
    fn tag_run_of(&self, w: NodeId, stride: usize) -> Option<&[T]> {
        let b = self.dir.get(w >> 6)? as usize;
        if self.words[b] >> (w & 63) & 1 == 0 {
            return None;
        }
        Some(self.tag_run(b, (w & 63) as usize, stride))
    }

    /// The tag run owned by bit `bit` of block `b` (whether set or not).
    #[inline]
    fn tag_run(&self, b: usize, bit: usize, stride: usize) -> &[T] {
        &self.tags[(b * 64 + bit) * stride..][..stride]
    }

    /// Sets neighbor `w` (caller has verified it absent) with an
    /// already-packed tag run, appending its block on first touch.
    /// Returns the heap bytes the insert added — non-zero only when a
    /// new block grew the vecs or the directory.
    fn insert_packed(&mut self, w: NodeId, run: &[T], stride: usize) -> usize {
        let mut grown = 0;
        let b = match self.dir.get(w >> 6) {
            Some(b) => b as usize,
            None => {
                let before = self.heap_bytes();
                let b = self.keys.len();
                *self.dir.entry(w >> 6) = b as u32;
                self.keys.push(w >> 6);
                self.words.push(0);
                self.tags.resize((b + 1) * 64 * stride, T::default());
                grown = self.heap_bytes() - before;
                b
            }
        };
        self.words[b] |= 1u64 << (w & 63);
        let base = (b * 64 + (w & 63) as usize) * stride;
        self.tags[base..base + stride].copy_from_slice(run);
        self.len += 1;
        grown
    }

    /// Heap footprint of the boxed core in bytes, in O(1).
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + self.keys.capacity() * size_of::<NodeId>()
            + self.words.capacity() * size_of::<u64>()
            + self.tags.capacity() * size_of::<T>()
            + self.dir.approx_bytes()
    }
}

/// One node's neighbor set in either representation.
///
/// Sparse (`dense == None`): `nbrs`/`tags` hold a sorted prefix
/// `[0, sorted_len)` plus an unsorted tail of at most `TAIL_LIMIT`
/// entries. Dense: the whole set lives in `dense` (inserts land in the
/// bitmap directly) and `nbrs`/`tags` stay empty.
#[derive(Debug, Clone, Default)]
struct HybridNodeList<T> {
    nbrs: Vec<NodeId>,
    /// `nbrs.len() * stride` tags; entry `pos`'s tags occupy
    /// `tags[pos*stride .. (pos+1)*stride]`.
    tags: Vec<T>,
    sorted_len: usize,
    dense: Option<Box<DenseCore<T>>>,
}

impl<T: TagElem> HybridNodeList<T> {
    /// Total neighbor count (sorted prefix + tail, or bitmap).
    #[inline]
    fn len(&self) -> usize {
        self.nbrs.len() + self.dense.as_ref().map_or(0, |d| d.len())
    }

    /// True if `w` is a neighbor — the tag-free presence probe the
    /// duplicate check uses (binary search of the sorted prefix, then
    /// a bounded tail scan).
    #[inline]
    fn contains(&self, w: NodeId) -> bool {
        if let Some(d) = &self.dense {
            return d.contains(w);
        }
        self.nbrs[..self.sorted_len].binary_search(&w).is_ok()
            || self.nbrs[self.sorted_len..].contains(&w)
    }

    /// Tag run of neighbor `w` anywhere in the list, if present.
    #[inline]
    fn tag_run_of(&self, w: NodeId, stride: usize) -> Option<&[T]> {
        if let Some(d) = &self.dense {
            return d.tag_run_of(w, stride);
        }
        let pos = position_in(&self.nbrs, self.sorted_len, w)?;
        Some(&self.tags[pos * stride..(pos + 1) * stride])
    }

    /// Heap bytes this list owns (its vecs and, once promoted, its
    /// dense core), in O(1).
    #[inline]
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nbrs.capacity() * size_of::<NodeId>()
            + self.tags.capacity() * size_of::<T>()
            + self.dense.as_ref().map_or(0, |d| d.heap_bytes())
    }
}

/// Sum of [`HybridNodeList::heap_bytes`] over an arena — the one-time
/// recount behind the running total when a whole arena is rebuilt.
fn list_bytes<T: TagElem>(lists: &[HybridNodeList<T>]) -> usize {
    lists.iter().map(HybridNodeList::heap_bytes).sum()
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
        use std::mem::size_of;
        self.pages.capacity() * size_of::<Option<Box<[u32]>>>()
            + self.allocated * Self::PAGE * size_of::<u32>()
    }

    /// [`Self::approx_bytes`] by scanning the page vector — the
    /// reference the page count is checked against.
    #[cfg(any(test, debug_assertions))]
    fn recount_bytes(&self) -> usize {
        use std::mem::size_of;
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

/// The shared engine of all three hybrid wrappers (monomorphized per
/// tag-store element): a node arena of [`HybridNodeList`]s with a
/// runtime tag `stride`, duplicate-free edge insertion, exactly-once
/// tag-filtered intersection and lazily compacted tails.
#[derive(Debug)]
struct HybridCoreImpl<T> {
    /// Tags per neighbor entry (1 / width / full_width + 1).
    stride: usize,
    /// Degree above which a node is promoted to the dense core.
    threshold: usize,
    /// Node id → arena slot.
    slots: SlotTable,
    /// Slot → node id (the table's inverse, for edge enumeration).
    nodes: Vec<NodeId>,
    /// Per-node lists, indexed by slot.
    lists: Vec<HybridNodeList<T>>,
    /// Running sum of [`HybridNodeList::heap_bytes`] over `lists`,
    /// updated wherever a list's capacity can change, so
    /// [`Self::approx_bytes`] never walks the arena.
    list_bytes: usize,
    edge_count: usize,
    /// Slots whose tail reached exactly `TAIL_LIMIT` since the last
    /// compaction — the only tails [`Self::compact`] merges, so its
    /// work follows the batch rather than the node count. At most one
    /// entry per push; a slot registered twice (it overflowed,
    /// self-merged and filled again) or promoted since is skipped.
    full_tails: Vec<u32>,
    /// Reusable sparse-merge scratch (`stride` is runtime-sized).
    scratch_nbrs: Vec<NodeId>,
    scratch_tags: Vec<T>,
}

/// Cloning shrinks every cloned `Vec` to its length, so the clone
/// recounts its list bytes once instead of copying the running total.
impl<T: TagElem> Clone for HybridCoreImpl<T> {
    fn clone(&self) -> Self {
        let lists = self.lists.clone();
        Self {
            stride: self.stride,
            threshold: self.threshold,
            slots: self.slots.clone(),
            nodes: self.nodes.clone(),
            list_bytes: list_bytes(&lists),
            lists,
            edge_count: self.edge_count,
            full_tails: self.full_tails.clone(),
            scratch_nbrs: self.scratch_nbrs.clone(),
            scratch_tags: self.scratch_tags.clone(),
        }
    }
}

impl<T: TagElem> HybridCoreImpl<T> {
    fn new(stride: usize, threshold: usize) -> Self {
        assert!(stride > 0, "need at least one tag column");
        Self {
            stride,
            threshold,
            slots: SlotTable::default(),
            nodes: Vec::new(),
            lists: Vec::new(),
            list_bytes: 0,
            edge_count: 0,
            full_tails: Vec::new(),
            scratch_nbrs: Vec::new(),
            scratch_tags: Vec::new(),
        }
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
        let list = HybridNodeList {
            nbrs: Vec::with_capacity(8),
            tags: Vec::with_capacity(8 * self.stride),
            sorted_len: 0,
            dense: None,
        };
        self.list_bytes += list.heap_bytes();
        self.lists.push(list);
        next as usize
    }

    #[inline]
    fn degree(&self, n: NodeId) -> usize {
        self.slots
            .get(n)
            .map_or(0, |s| self.lists[s as usize].len())
    }

    /// Tag run of an edge, if present.
    #[inline]
    fn tag_run_of_edge(&self, e: Edge) -> Option<&[T]> {
        let s = self.slots.get(e.u())? as usize;
        self.lists[s].tag_run_of(e.v(), self.stride)
    }

    /// Appends `(w, run)` to the slot's list (packing the tags). Dense
    /// lists take the entry in place; sparse lists buffer it in the
    /// tail, merging on overflow and promoting past the threshold.
    /// Returns `true` when the push filled the tail to exactly
    /// `TAIL_LIMIT` — the caller's cue to register the slot for
    /// [`Self::compact`].
    #[inline]
    fn push_entry(&mut self, slot: usize, w: NodeId, run: &[CellTag]) -> bool {
        let stride = self.stride;
        let threshold = self.threshold;
        let list = &mut self.lists[slot];
        if let Some(d) = list.dense.as_deref_mut() {
            let mut packed = [T::default(); 8];
            self.list_bytes += if stride <= packed.len() {
                for (pt, &t) in packed.iter_mut().zip(run) {
                    *pt = T::pack(t);
                }
                d.insert_packed(w, &packed[..stride], stride)
            } else {
                self.scratch_tags.clear();
                self.scratch_tags.extend(run.iter().map(|&t| T::pack(t)));
                d.insert_packed(w, &self.scratch_tags, stride)
            };
            return false;
        }
        let before = list.heap_bytes();
        list.nbrs.push(w);
        list.tags.extend(run.iter().map(|&t| T::pack(t)));
        self.list_bytes += list.heap_bytes() - before;
        let tail = list.nbrs.len() - list.sorted_len;
        if list.nbrs.len() > threshold {
            self.promote(slot);
            false
        } else if tail > TAIL_LIMIT {
            self.merge_sparse(slot);
            false
        } else {
            tail == TAIL_LIMIT
        }
    }

    /// Converts a sparse slot into the dense representation: walk the
    /// list once (tail included — insertion order within one node is
    /// irrelevant to a set), spreading each entry's already-packed tag
    /// run into its direct-addressed slot.
    fn promote(&mut self, slot: usize) {
        let stride = self.stride;
        let list = &mut self.lists[slot];
        let sparse_bytes = list.heap_bytes();
        let mut d = DenseCore::default();
        for (pos, &w) in list.nbrs.iter().enumerate() {
            d.insert_packed(w, &list.tags[pos * stride..(pos + 1) * stride], stride);
        }
        list.nbrs = Vec::new();
        list.tags = Vec::new();
        list.sorted_len = 0;
        list.dense = Some(Box::new(d));
        self.list_bytes = self.list_bytes - sparse_bytes + list.heap_bytes();
    }

    /// Merges a sparse slot's unsorted tail into its sorted prefix: the
    /// tail is sorted on a stack buffer and back-merged from the highest
    /// index down (no element is overwritten before it is read), strided
    /// tag runs moved alongside their neighbor entries via the reusable
    /// scratch.
    fn merge_sparse(&mut self, slot: usize) {
        let stride = self.stride;
        let list = &mut self.lists[slot];
        let s = list.sorted_len;
        let n = list.nbrs.len();
        if s == n {
            return;
        }
        let mut order: [(NodeId, usize); TAIL_LIMIT + 1] = [(0, 0); TAIL_LIMIT + 1];
        let order = &mut order[..n - s];
        for (k, entry) in order.iter_mut().enumerate() {
            *entry = (list.nbrs[s + k], s + k);
        }
        order.sort_unstable_by_key(|&(w, _)| w);
        self.scratch_nbrs.clear();
        self.scratch_tags.clear();
        for &(w, pos) in order.iter() {
            self.scratch_nbrs.push(w);
            self.scratch_tags
                .extend_from_slice(&list.tags[pos * stride..(pos + 1) * stride]);
        }

        let (mut a, mut t, mut write) = (s, order.len(), n);
        while t > 0 {
            let (src, from_tail) = if a > 0 && list.nbrs[a - 1] > self.scratch_nbrs[t - 1] {
                a -= 1;
                (a, false)
            } else {
                t -= 1;
                (t, true)
            };
            write -= 1;
            if from_tail {
                list.nbrs[write] = self.scratch_nbrs[src];
                list.tags[write * stride..(write + 1) * stride]
                    .copy_from_slice(&self.scratch_tags[src * stride..(src + 1) * stride]);
            } else {
                list.nbrs[write] = list.nbrs[src];
                list.tags
                    .copy_within(src * stride..(src + 1) * stride, write * stride);
            }
        }
        list.sorted_len = n;
    }

    /// Batch-boundary compaction (a pure representation change). Only
    /// tails that have already reached `TAIL_LIMIT` are merged: a
    /// back-merge costs O(list length) however short the tail, while
    /// probing a bounded tail costs a few comparisons per match — so
    /// eagerly merging 1–2 entry tails at every batch boundary was the
    /// single largest avoidable cost on ingest-bound streams (measured:
    /// ~15% of the ingest+match loop on the benchmark stream). Shorter
    /// tails stay bounded by the overflow merge in [`Self::push_entry`].
    ///
    /// The overflow merge also means a tail never *exceeds*
    /// `TAIL_LIMIT`, so the mergeable tails are exactly those that
    /// reached it during this batch — the slots `push_entry` registered
    /// in `full_tails`. Compaction visits those and nothing else: its
    /// cost is O(pushes in the batch), never O(nodes).
    fn compact(&mut self) {
        for i in 0..self.full_tails.len() {
            let slot = self.full_tails[i] as usize;
            let list = &self.lists[slot];
            // A registered slot may have overflowed (and self-merged)
            // or been promoted since; only a still-full tail merges.
            if list.dense.is_none() && list.nbrs.len() - list.sorted_len == TAIL_LIMIT {
                self.merge_sparse(slot);
            }
        }
        self.full_tails.clear();
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
        } else if lb.dense.is_some() || lb.len() < la.len() {
            lb.contains(u)
        } else {
            la.contains(v)
        }
    }

    /// Inserts the edge with its full tag run; returns `false` (leaving
    /// existing tags untouched) if the edge was already present.
    fn insert_run(&mut self, e: Edge, run: &[CellTag]) -> bool {
        debug_assert_eq!(run.len(), self.stride);
        let (u, v) = e.endpoints();
        let su = self.ensure_slot(u);
        let sv = self.ensure_slot(v);
        if self.is_duplicate(su, sv, u, v) {
            return false;
        }
        if self.push_entry(su, v, run) {
            self.full_tails.push(su as u32);
        }
        if self.push_entry(sv, u, run) {
            self.full_tails.push(sv as u32);
        }
        self.edge_count += 1;
        true
    }

    /// Read-only intersection: `f(run_u, run_v, w)` fires once per
    /// structural common neighbor `w` of `u` and `v` with both entries'
    /// full tag runs. Tag filtering is the wrapper's job.
    #[inline]
    fn match_runs<F: FnMut(&[T], &[T], NodeId)>(&self, u: NodeId, v: NodeId, f: &mut F) {
        let (Some(su), Some(sv)) = (self.slots.get(u), self.slots.get(v)) else {
            return;
        };
        self.match_slots(su as usize, sv as usize, f);
    }

    /// Matches (against the state before any insertion), then — when
    /// `store` carries the edge's tag run — inserts, resolving each
    /// endpoint's slot once. Returns whether the edge was freshly
    /// stored.
    fn match_then_insert_runs<F: FnMut(&[T], &[T], NodeId)>(
        &mut self,
        e: Edge,
        store: Option<&[CellTag]>,
        f: &mut F,
    ) -> bool {
        let (u, v) = e.endpoints();
        let (su, sv) = match store {
            // Fresh slots are empty lists: no matches contributed.
            Some(run) => {
                debug_assert_eq!(run.len(), self.stride);
                (self.ensure_slot(u), self.ensure_slot(v))
            }
            None => {
                let (Some(su), Some(sv)) = (self.slots.get(u), self.slots.get(v)) else {
                    return false;
                };
                (su as usize, sv as usize)
            }
        };
        self.match_slots(su, sv, f);
        let Some(run) = store else {
            return false;
        };
        if self.is_duplicate(su, sv, u, v) {
            return false;
        }
        if self.push_entry(su, v, run) {
            self.full_tails.push(su as u32);
        }
        if self.push_entry(sv, u, run) {
            self.full_tails.push(sv as u32);
        }
        self.edge_count += 1;
        true
    }

    /// The structural intersection of two slots, dispatched by
    /// representation: an all-pairs equality scan (small sparse×sparse,
    /// under the [`BRUTE_LIMIT`] comparison budget) or the sorted
    /// merge/gallop kernel (larger sparse×sparse — its
    /// tail legs cover both lists' pending tails), bitmap∧bitmap
    /// (dense×dense), or a directory probe per sparse entry
    /// (dense×sparse — dense lists have no tail and the O(1) probe
    /// needs no ordering from the sparse side, so the sparse list is
    /// walked whole, sorted prefix and tail alike). Each pairing
    /// covers the intersection exactly once on its own — there are no
    /// cross-representation fixup legs.
    #[inline]
    fn match_slots<F: FnMut(&[T], &[T], NodeId)>(&self, sa: usize, sb: usize, f: &mut F) {
        let stride = self.stride;
        let (la, lb) = (&self.lists[sa], &self.lists[sb]);
        match (&la.dense, &lb.dense) {
            (None, None) => {
                // Small×small pairs — the bulk of a skewed stream — skip
                // the merge machinery entirely: an all-pairs equality
                // scan is branch-free, auto-vectorizes (the inner pass
                // is a pure `|=`-reduction over one short u32 slice),
                // and needs no sorted order, so pending tails cost
                // nothing extra. The comparison budget is bounded by
                // `BRUTE_LIMIT`; bigger pairs take the sorted kernel
                // with its merge/gallop split.
                if la.nbrs.len() * lb.nbrs.len() <= BRUTE_LIMIT {
                    let (sm, lg, flip) = if la.nbrs.len() <= lb.nbrs.len() {
                        (la, lb, false)
                    } else {
                        (lb, la, true)
                    };
                    for (i, &w) in sm.nbrs.iter().enumerate() {
                        let mut hit = false;
                        for &x in &lg.nbrs {
                            hit |= x == w;
                        }
                        if hit {
                            let j = lg.nbrs.iter().position(|&x| x == w).unwrap();
                            let (pa, pb) = if flip { (j, i) } else { (i, j) };
                            f(
                                &la.tags[pa * stride..(pa + 1) * stride],
                                &lb.tags[pb * stride..(pb + 1) * stride],
                                w,
                            );
                        }
                    }
                    return;
                }
                for_each_common_position(
                    &la.nbrs,
                    la.sorted_len,
                    &lb.nbrs,
                    lb.sorted_len,
                    &mut |pa, pb, w| {
                        f(
                            &la.tags[pa * stride..(pa + 1) * stride],
                            &lb.tags[pb * stride..(pb + 1) * stride],
                            w,
                        );
                    },
                );
            }
            (Some(da), Some(db)) => dense_dense(da, db, stride, f),
            (Some(da), None) => dense_sparse(da, &lb.nbrs, &lb.tags, stride, false, f),
            (None, Some(db)) => dense_sparse(db, &la.nbrs, &la.tags, stride, true, f),
        }
    }

    /// Calls `f(u, w, run)` for every *directed* neighbor entry (each
    /// edge fires twice, once per endpoint); callers filter `u < w` for
    /// an edge enumeration.
    fn for_each_entry<F: FnMut(NodeId, NodeId, &[T])>(&self, mut f: F) {
        let stride = self.stride;
        for (slot, &u) in self.nodes.iter().enumerate() {
            let list = &self.lists[slot];
            if let Some(d) = &list.dense {
                for (bi, &key) in d.keys.iter().enumerate() {
                    let mut word = d.words[bi];
                    while word != 0 {
                        let bit = word.trailing_zeros();
                        word &= word - 1;
                        f(u, (key << 6) | bit, d.tag_run(bi, bit as usize, stride));
                    }
                }
            }
            for (pos, &w) in list.nbrs.iter().enumerate() {
                f(u, w, &list.tags[pos * stride..(pos + 1) * stride]);
            }
        }
    }

    /// Heap footprint in bytes — every allocation the structure owns
    /// (lists, dense cores, arena, id table, compaction work list,
    /// scratch). O(1): the lists' share is the running `list_bytes`.
    fn approx_bytes(&self) -> usize {
        let bytes = self.list_bytes + self.slots.approx_bytes() + self.vec_bytes();
        #[cfg(debug_assertions)]
        assert_eq!(bytes, self.recount_bytes(), "running byte count drifted");
        bytes
    }

    /// The arena, compaction work list and scratch — capacity reads.
    fn vec_bytes(&self) -> usize {
        use std::mem::size_of;
        let arena = self.lists.capacity() * size_of::<HybridNodeList<T>>()
            + self.nodes.capacity() * size_of::<NodeId>();
        let work = self.full_tails.capacity() * size_of::<u32>();
        let scratch = self.scratch_nbrs.capacity() * size_of::<NodeId>()
            + self.scratch_tags.capacity() * size_of::<T>();
        arena + work + scratch
    }

    /// [`Self::approx_bytes`] by walking every list, dense core and id
    /// page — the reference the running count is checked against.
    #[cfg(any(test, debug_assertions))]
    fn recount_bytes(&self) -> usize {
        use std::mem::size_of;
        let mut vecs = 0usize;
        for l in &self.lists {
            vecs += l.nbrs.capacity() * size_of::<NodeId>() + l.tags.capacity() * size_of::<T>();
            if let Some(d) = &l.dense {
                vecs += size_of::<DenseCore<T>>()
                    + d.keys.capacity() * size_of::<NodeId>()
                    + d.words.capacity() * size_of::<u64>()
                    + d.tags.capacity() * size_of::<T>()
                    + d.dir.recount_bytes();
            }
        }
        vecs + self.slots.recount_bytes() + self.vec_bytes()
    }
}

impl HybridCoreImpl<u8> {
    /// Converts the packed structure into wide `u32` tag storage,
    /// preserving every stored tag — the one-time escape hatch for
    /// configurations whose cells overflow a byte.
    fn widen(self) -> HybridCoreImpl<CellTag> {
        fn wide(tags: Vec<u8>) -> Vec<CellTag> {
            tags.into_iter().map(TagElem::unpack).collect()
        }
        let lists: Vec<HybridNodeList<CellTag>> = self
            .lists
            .into_iter()
            .map(|l| HybridNodeList {
                nbrs: l.nbrs,
                tags: wide(l.tags),
                sorted_len: l.sorted_len,
                dense: l.dense.map(|d| {
                    Box::new(DenseCore {
                        keys: d.keys,
                        words: d.words,
                        tags: wide(d.tags),
                        dir: d.dir,
                        len: d.len,
                    })
                }),
            })
            .collect();
        HybridCoreImpl {
            stride: self.stride,
            threshold: self.threshold,
            slots: self.slots,
            nodes: self.nodes,
            list_bytes: list_bytes(&lists),
            lists,
            edge_count: self.edge_count,
            full_tails: self.full_tails,
            scratch_nbrs: Vec::new(),
            scratch_tags: Vec::new(),
        }
    }
}

/// Runs `$body` against whichever monomorphization the core currently
/// is, binding it as `$c`.
macro_rules! on_core {
    ($core:expr, $c:ident => $body:expr) => {
        match $core {
            HybridCore::Packed($c) => $body,
            HybridCore::Wide($c) => $body,
        }
    };
}

/// The tag-width dispatcher every wrapper holds: packed single-byte tag
/// storage until a tag that cannot pack arrives, then widened `u32`
/// storage for the rest of the structure's life. Exactly one branch per
/// public call; the hot loops underneath are fully monomorphized.
#[derive(Debug, Clone)]
enum HybridCore {
    /// Packed storage (every tag so far fits a byte).
    Packed(HybridCoreImpl<u8>),
    /// Widened storage (some tag required the full `u32`).
    Wide(HybridCoreImpl<CellTag>),
}

impl HybridCore {
    fn new(stride: usize, threshold: usize) -> Self {
        HybridCore::Packed(HybridCoreImpl::new(stride, threshold))
    }

    /// Widens the structure in place if any tag of `run` cannot pack.
    #[inline]
    fn widen_for(&mut self, run: &[CellTag]) {
        if let HybridCore::Packed(c) = self {
            if !run.iter().all(|&t| <u8 as TagElem>::fits(t)) {
                let packed = std::mem::replace(c, HybridCoreImpl::new(1, 0));
                *self = HybridCore::Wide(packed.widen());
            }
        }
    }

    fn stride(&self) -> usize {
        on_core!(self, c => c.stride)
    }

    fn threshold(&self) -> usize {
        on_core!(self, c => c.threshold)
    }

    fn edge_count(&self) -> usize {
        on_core!(self, c => c.edge_count)
    }

    fn node_count(&self) -> usize {
        on_core!(self, c => c.lists.len())
    }

    fn degree(&self, n: NodeId) -> usize {
        on_core!(self, c => c.degree(n))
    }

    fn compact(&mut self) {
        on_core!(self, c => c.compact());
    }

    fn approx_bytes(&self) -> usize {
        on_core!(self, c => c.approx_bytes())
    }

    /// True if the edge is present (tag-free membership probe).
    fn contains_edge(&self, e: Edge) -> bool {
        on_core!(self, c => c
            .slots
            .get(e.u())
            .is_some_and(|s| c.lists[s as usize].contains(e.v())))
    }

    /// Tag column `col` of the edge, unpacked, if the edge is present.
    fn tag_col_of_edge(&self, e: Edge, col: usize) -> Option<CellTag> {
        on_core!(self, c => c.tag_run_of_edge(e).map(|run| run[col].unpack()))
    }

    /// The edge's full tag run, unpacked into an owned vec (the packed
    /// store has no contiguous `CellTag` run to borrow).
    fn tags_of_edge(&self, e: Edge) -> Option<Vec<CellTag>> {
        on_core!(self, c => c
            .tag_run_of_edge(e)
            .map(|run| run.iter().map(|&t| t.unpack()).collect()))
    }

    /// Inserts the edge with its full tag run; returns `false` (leaving
    /// existing tags untouched) if the edge was already present.
    fn insert_run(&mut self, e: Edge, run: &[CellTag]) -> bool {
        self.widen_for(run);
        on_core!(self, c => c.insert_run(e, run))
    }

    /// Calls `f(e)` for every stored edge.
    fn for_each_edge_plain<F: FnMut(Edge)>(&self, mut f: F) {
        on_core!(self, c => c.for_each_entry(|u, w, _| {
            if u < w {
                f(Edge::new(u, w));
            }
        }));
    }

    /// Calls `f(e, tag)` with column `col`'s unpacked tag for every
    /// stored edge.
    fn for_each_edge_col<F: FnMut(Edge, CellTag)>(&self, col: usize, mut f: F) {
        on_core!(self, c => c.for_each_entry(|u, w, run| {
            if u < w {
                f(Edge::new(u, w), run[col].unpack());
            }
        }));
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

/// Position of `w` in a `(neighbors, sorted_len)` list: binary search in
/// the sorted prefix, linear scan of the tail.
#[inline]
fn position_in(nbrs: &[NodeId], sorted_len: usize, w: NodeId) -> Option<usize> {
    if let Ok(pos) = nbrs[..sorted_len].binary_search(&w) {
        return Some(pos);
    }
    nbrs[sorted_len..]
        .iter()
        .position(|&x| x == w)
        .map(|off| sorted_len + off)
}

/// Calls `f(pos_a, pos_b, w)` for every **structural** common neighbor
/// of two sparse `(neighbors, sorted_len)` lists. Covers every
/// (prefix|tail) × (prefix|tail) pairing exactly once: sorted×sorted by
/// merge/gallop, `a`'s tail against all of `b`, `b`'s tail against `a`'s
/// sorted prefix only. Tag filtering is the caller's job, via the
/// emitted positions.
#[inline]
fn for_each_common_position<F: FnMut(usize, usize, NodeId)>(
    a_nbrs: &[NodeId],
    a_sorted: usize,
    b_nbrs: &[NodeId],
    b_sorted: usize,
    f: &mut F,
) {
    // Sorted prefix × sorted prefix: merge or gallop by skew.
    let (pa, pb) = (&a_nbrs[..a_sorted], &b_nbrs[..b_sorted]);
    let a_is_small = pa.len() <= pb.len();
    let (small, large) = if a_is_small { (pa, pb) } else { (pb, pa) };
    if !small.is_empty() {
        if small.len() * GALLOP_RATIO < large.len() {
            let mut from = 0usize;
            for (i, &w) in small.iter().enumerate() {
                let pos = gallop_lower_bound(large, w, from);
                if pos == large.len() {
                    break;
                }
                if large[pos] == w {
                    let (qa, qb) = if a_is_small { (i, pos) } else { (pos, i) };
                    f(qa, qb, w);
                    from = pos + 1;
                } else {
                    from = pos;
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
                    let (qa, qb) = if a_is_small { (i, j) } else { (j, i) };
                    f(qa, qb, x);
                    i += 1;
                    j += 1;
                } else {
                    i += usize::from(x < y);
                    j += usize::from(y < x);
                }
            }
        }
    }

    // a's tail × all of b, then b's tail × a's sorted prefix only.
    for (k, &w) in a_nbrs.iter().enumerate().skip(a_sorted) {
        if let Some(pos) = position_in(b_nbrs, b_sorted, w) {
            f(k, pos, w);
        }
    }
    for (k, &w) in b_nbrs.iter().enumerate().skip(b_sorted) {
        if let Ok(pos) = pa.binary_search(&w) {
            f(pos, k, w);
        }
    }
}

/// Bitmap ∧ bitmap intersection: linear merge over the 64×-compressed
/// block keys; on a shared key, `AND` the words and walk the surviving
/// bits ascending, recovering each side's rank with one masked popcount.
#[inline]
fn dense_dense<T: TagElem, F: FnMut(&[T], &[T], NodeId)>(
    da: &DenseCore<T>,
    db: &DenseCore<T>,
    stride: usize,
    f: &mut F,
) {
    let a_is_small = da.keys.len() <= db.keys.len();
    let (small, big) = if a_is_small { (da, db) } else { (db, da) };
    for (bi, &key) in small.keys.iter().enumerate() {
        let Some(bj) = big.dir.get(key) else { continue };
        let bj = bj as usize;
        let mut both = small.words[bi] & big.words[bj];
        while both != 0 {
            let bit = both.trailing_zeros();
            both &= both - 1;
            let rs = small.tag_run(bi, bit as usize, stride);
            let rb = big.tag_run(bj, bit as usize, stride);
            let w = (key << 6) | bit;
            if a_is_small {
                f(rs, rb, w);
            } else {
                f(rb, rs, w);
            }
        }
    }
}

/// Bitmap × sparse-list intersection: one O(1) directory probe, bit
/// test and direct tag load per sparse entry, so the sparse side needs
/// no ordering (its unsorted tail is welcome). `dense_is_b` flips the
/// argument order so `f` always receives `(run_a, run_b, w)`.
#[inline]
fn dense_sparse<T: TagElem, F: FnMut(&[T], &[T], NodeId)>(
    d: &DenseCore<T>,
    sp_nbrs: &[NodeId],
    sp_tags: &[T],
    stride: usize,
    dense_is_b: bool,
    f: &mut F,
) {
    for (pos, &w) in sp_nbrs.iter().enumerate() {
        let Some(b) = d.dir.get(w >> 6) else { continue };
        let b = b as usize;
        let bit = (w & 63) as usize;
        if d.words[b] >> bit & 1 == 0 {
            continue;
        }
        let run_d = d.tag_run(b, bit, stride);
        let run_s = &sp_tags[pos * stride..(pos + 1) * stride];
        if dense_is_b {
            f(run_s, run_d, w);
        } else {
            f(run_d, run_s, w);
        }
    }
}

/// Adapts a single-column wrapper callback to the core's packed-run
/// callback: fires on tag equality with the unpacked tag.
fn adapt_single<T: TagElem, F: FnMut(NodeId, CellTag)>(
    f: &mut F,
) -> impl FnMut(&[T], &[T], NodeId) + '_ {
    move |ta, tb, w| {
        if ta[0] == tb[0] {
            f(w, ta[0].unpack());
        }
    }
}

/// Adapts a per-group wrapper callback: fires per column on equality.
fn adapt_multi<T: TagElem, F: FnMut(usize, NodeId, CellTag)>(
    width: usize,
    f: &mut F,
) -> impl FnMut(&[T], &[T], NodeId) + '_ {
    move |ta, tb, w| {
        for g in 0..width {
            if ta[g] == tb[g] {
                f(g, w, ta[g].unpack());
            }
        }
    }
}

/// Adapts the masked wrapper callback: full columns on plain equality,
/// the masked column only when both sides are set (packing is
/// injective, so comparing packed sentinels is exact).
fn adapt_masked<'a, T: TagElem + 'a, F: FnMut(usize, NodeId, CellTag)>(
    fw: usize,
    f: &'a mut F,
) -> impl FnMut(&[T], &[T], NodeId) + 'a {
    let none = T::pack(MASKED_NONE);
    move |ta, tb, w| {
        for g in 0..fw {
            if ta[g] == tb[g] {
                f(g, w, ta[g].unpack());
            }
        }
        let (ma, mb) = (ta[fw], tb[fw]);
        if ma == mb && ma != none {
            f(fw, w, ma.unpack());
        }
    }
}

/// A mutable undirected graph whose edges carry their partition cell —
/// the shared sampled graph of one independent hash group.
#[derive(Debug, Clone)]
pub struct HybridTaggedAdjacency {
    core: HybridCore,
}

impl Default for HybridTaggedAdjacency {
    fn default() -> Self {
        Self::new()
    }
}

impl HybridTaggedAdjacency {
    /// Creates an empty structure with [`DEFAULT_DENSE_THRESHOLD`].
    pub fn new() -> Self {
        Self::with_threshold(DEFAULT_DENSE_THRESHOLD)
    }

    /// Creates an empty structure promoting nodes whose degree exceeds
    /// `threshold` (0 = everything dense, `usize::MAX` = never promote).
    pub fn with_threshold(threshold: usize) -> Self {
        Self {
            core: HybridCore::new(1, threshold),
        }
    }

    /// The promotion threshold this structure was built with.
    pub fn dense_threshold(&self) -> usize {
        self.core.threshold()
    }

    /// Number of nodes with at least one incident edge.
    pub fn node_count(&self) -> usize {
        self.core.node_count()
    }

    /// The degree of `n` (0 if unseen).
    pub fn degree(&self, n: NodeId) -> usize {
        self.core.degree(n)
    }

    /// Number of stored edges.
    pub fn edge_count(&self) -> usize {
        self.core.edge_count()
    }

    /// Inserts the edge tagged with `cell`; returns `false` (leaving the
    /// existing tag untouched) if the edge was already present.
    pub fn insert(&mut self, e: Edge, cell: CellTag) -> bool {
        self.core.insert_run(e, &[cell])
    }

    /// The cell tag of the edge, if present.
    pub fn cell_of(&self, e: Edge) -> Option<CellTag> {
        self.core.tag_col_of_edge(e, 0)
    }

    /// Calls `f(w, cell)` for every common neighbor `w` of `u` and `v`
    /// whose two incident edges carry the same tag; returns the match
    /// count.
    pub fn for_each_matching_common_neighbor<F: FnMut(NodeId, CellTag)>(
        &self,
        u: NodeId,
        v: NodeId,
        mut f: F,
    ) -> usize {
        let mut matches = 0usize;
        let mut count = |w, cell| {
            f(w, cell);
            matches += 1;
        };
        on_core!(&self.core, c => c.match_runs(u, v, &mut adapt_single(&mut count)));
        matches
    }

    /// Calls `f(e, cell)` for every stored edge (arbitrary order) —
    /// checkpointing enumerates the sampled set through this.
    pub fn for_each_edge<F: FnMut(Edge, CellTag)>(&self, f: F) {
        self.core.for_each_edge_col(0, f);
    }

    /// Approximate heap footprint in bytes.
    pub fn approx_bytes(&self) -> usize {
        self.core.approx_bytes()
    }

    /// Merges every tail already at the overflow bound (a pure
    /// representation change — answers are identical before and after)
    /// in time proportional to the inserts since the last call.
    pub fn compact(&mut self) {
        self.core.compact();
    }

    /// Processes one stream edge in a single call: matches common
    /// neighbors exactly like [`Self::for_each_matching_common_neighbor`]
    /// (against the state *before* any insertion), then — when `store`
    /// carries the edge's owned cell — inserts the edge, resolving each
    /// endpoint's slot once. Returns whether the edge was freshly stored
    /// (`false` for `store == None` and for duplicates).
    pub fn match_then_insert<F: FnMut(NodeId, CellTag)>(
        &mut self,
        e: Edge,
        store: Option<CellTag>,
        mut f: F,
    ) -> bool {
        if let Some(cell) = store {
            self.core.widen_for(&[cell]);
        }
        on_core!(&mut self.core, c => {
            let mut adapter = adapt_single(&mut f);
            match store {
                Some(cell) => c.match_then_insert_runs(e, Some(&[cell]), &mut adapter),
                None => c.match_then_insert_runs(e, None, &mut adapter),
            }
        })
    }
}

/// A mutable undirected graph whose edges carry one partition-cell tag
/// per full hash group, stored once and shared by all groups: a full
/// group owns every cell of its hash, so every full group stores every
/// stream edge and the groups differ only in tags.
#[derive(Debug, Clone)]
pub struct MultiHybridTaggedAdjacency {
    core: HybridCore,
}

impl MultiHybridTaggedAdjacency {
    /// Creates an empty structure carrying `width` tag columns with
    /// [`DEFAULT_DENSE_THRESHOLD`].
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn new(width: usize) -> Self {
        Self::with_threshold(width, DEFAULT_DENSE_THRESHOLD)
    }

    /// Creates an empty structure carrying `width` tag columns with an
    /// explicit promotion threshold.
    ///
    /// # Panics
    ///
    /// Panics if `width == 0`.
    pub fn with_threshold(width: usize, threshold: usize) -> Self {
        Self {
            core: HybridCore::new(width, threshold),
        }
    }

    /// Number of tag columns.
    pub fn width(&self) -> usize {
        self.core.stride()
    }

    /// Number of stored edges.
    pub fn edge_count(&self) -> usize {
        self.core.edge_count()
    }

    /// Number of nodes with at least one incident edge.
    pub fn node_count(&self) -> usize {
        self.core.node_count()
    }

    /// The degree of `n` (0 if unseen).
    pub fn degree(&self, n: NodeId) -> usize {
        self.core.degree(n)
    }

    /// The tag column of the edge under every group, if present —
    /// owned, because the packed tag store has no contiguous
    /// [`CellTag`] run to borrow.
    pub fn tags_of(&self, e: Edge) -> Option<Vec<CellTag>> {
        self.core.tags_of_edge(e)
    }

    /// True if the edge is present.
    pub fn contains(&self, e: Edge) -> bool {
        self.core.contains_edge(e)
    }

    /// Calls `f(e)` for every stored edge (arbitrary order, tags omitted
    /// — every group's tag is recomputable from its hasher).
    pub fn for_each_edge<F: FnMut(Edge)>(&self, f: F) {
        self.core.for_each_edge_plain(f);
    }

    /// Merges every tail already at the overflow bound (a pure
    /// representation change) in time proportional to the inserts
    /// since the last call.
    pub fn compact(&mut self) {
        self.core.compact();
    }

    /// Inserts the edge with one tag per group; returns `false` (leaving
    /// the existing tags untouched) if the edge was already present.
    ///
    /// # Panics
    ///
    /// Panics if `tags.len() != width()`.
    pub fn insert(&mut self, e: Edge, tags: &[CellTag]) -> bool {
        assert_eq!(tags.len(), self.core.stride(), "one tag per group required");
        self.core.insert_run(e, tags)
    }

    /// Matches, then (when `store` carries the per-group owner tags)
    /// inserts, in one call — `f(g, w, cell)` fires for every structural
    /// common neighbor `w` and every group `g` whose two tags agree,
    /// matched against the state *before* the insertion. Returns whether
    /// the edge was freshly stored (`false` for `store == None` and for
    /// duplicates).
    ///
    /// # Panics
    ///
    /// Panics if `store` carries a run with `len() != width()`.
    pub fn match_then_insert<F: FnMut(usize, NodeId, CellTag)>(
        &mut self,
        e: Edge,
        store: Option<&[CellTag]>,
        mut f: F,
    ) -> bool {
        if let Some(tags) = store {
            assert_eq!(tags.len(), self.core.stride(), "one tag per group required");
            self.core.widen_for(tags);
        }
        let width = self.core.stride();
        on_core!(&mut self.core, c => {
            c.match_then_insert_runs(e, store, &mut adapt_multi(width, &mut f))
        })
    }

    /// Heap footprint in bytes — the *shared* footprint across all
    /// groups.
    pub fn approx_bytes(&self) -> usize {
        self.core.approx_bytes()
    }
}

/// A mutable undirected graph storing the union edge set once in the
/// hybrid layout, with one tag per full hash group and a masked
/// remainder tag per edge ([`MASKED_NONE`] when the remainder group's
/// subsampling dropped the edge), so the remainder group joins the full
/// groups' single structure walk.
#[derive(Debug, Clone)]
pub struct MaskedHybridTaggedAdjacency {
    core: HybridCore,
    full_width: usize,
    /// Edges whose masked tag is set (the remainder group's stored set).
    masked_edge_count: usize,
    /// Reusable per-insert row buffer (`full_width + 1` tags), so
    /// building the strided run allocates nothing per edge.
    row: Vec<CellTag>,
}

impl MaskedHybridTaggedAdjacency {
    /// Creates an empty structure with `full_width` unconditional tag
    /// columns plus the masked column, at [`DEFAULT_DENSE_THRESHOLD`].
    ///
    /// # Panics
    ///
    /// Panics if `full_width == 0`: without a full group the union set
    /// is not stored by anyone, and the remainder alone is an
    /// independent group.
    pub fn new(full_width: usize) -> Self {
        Self::with_threshold(full_width, DEFAULT_DENSE_THRESHOLD)
    }

    /// Creates an empty structure with an explicit promotion threshold.
    ///
    /// # Panics
    ///
    /// Panics if `full_width == 0`.
    pub fn with_threshold(full_width: usize, threshold: usize) -> Self {
        assert!(full_width > 0, "need at least one full tag column");
        Self {
            core: HybridCore::new(full_width + 1, threshold),
            full_width,
            masked_edge_count: 0,
            row: Vec::with_capacity(full_width + 1),
        }
    }

    /// Number of unconditional tag columns.
    pub fn full_width(&self) -> usize {
        self.full_width
    }

    /// Number of stored edges (the union set).
    pub fn edge_count(&self) -> usize {
        self.core.edge_count()
    }

    /// Number of edges whose masked tag is set — the masked (remainder)
    /// group's stored subset.
    pub fn masked_edge_count(&self) -> usize {
        self.masked_edge_count
    }

    /// Number of nodes with at least one incident edge.
    pub fn node_count(&self) -> usize {
        self.core.node_count()
    }

    /// The degree of `n` in the union set (0 if unseen).
    pub fn degree(&self, n: NodeId) -> usize {
        self.core.degree(n)
    }

    /// The edge's full-group tag columns (owned — the packed tag store
    /// has no contiguous [`CellTag`] run to borrow) and masked tag, if
    /// present.
    pub fn tags_of(&self, e: Edge) -> Option<(Vec<CellTag>, Option<CellTag>)> {
        let mut run = self.core.tags_of_edge(e)?;
        let masked = run.pop().expect("stride = full_width + 1");
        Some((run, (masked != MASKED_NONE).then_some(masked)))
    }

    /// The edge's masked tag, if the edge is stored with one set — the
    /// allocation-free probe for the remainder group's subset.
    pub fn masked_tag_of(&self, e: Edge) -> Option<CellTag> {
        self.core
            .tag_col_of_edge(e, self.full_width)
            .filter(|&t| t != MASKED_NONE)
    }

    /// True if the edge is present in the union set.
    pub fn contains(&self, e: Edge) -> bool {
        self.core.contains_edge(e)
    }

    /// Calls `f(e)` for every stored edge of the union set (arbitrary
    /// order, tags omitted).
    pub fn for_each_edge<F: FnMut(Edge)>(&self, f: F) {
        self.core.for_each_edge_plain(f);
    }

    /// Calls `f(e, tag)` for every edge whose masked tag is set — the
    /// masked group's stored subset, in arbitrary order.
    pub fn for_each_masked_edge<F: FnMut(Edge, CellTag)>(&self, mut f: F) {
        self.core.for_each_edge_col(self.full_width, |e, tag| {
            if tag != MASKED_NONE {
                f(e, tag);
            }
        });
    }

    /// Merges every tail already at the overflow bound (a pure
    /// representation change) in time proportional to the inserts
    /// since the last call.
    pub fn compact(&mut self) {
        self.core.compact();
    }

    #[inline]
    fn encode_masked(masked: Option<CellTag>) -> CellTag {
        match masked {
            Some(tag) => {
                assert_ne!(tag, MASKED_NONE, "masked tag collides with sentinel");
                tag
            }
            None => MASKED_NONE,
        }
    }

    /// Fills the reusable row buffer with `full` plus the encoded masked
    /// tag.
    #[inline]
    fn build_row(&mut self, full: &[CellTag], masked: Option<CellTag>) {
        assert_eq!(full.len(), self.full_width, "one tag per full group");
        self.row.clear();
        self.row.extend_from_slice(full);
        self.row.push(Self::encode_masked(masked));
    }

    /// Inserts the edge with one tag per full group and an optional
    /// masked tag (`None` = the masked group dropped this edge); returns
    /// `false` (leaving all existing tags untouched) if the edge was
    /// already present.
    ///
    /// # Panics
    ///
    /// Panics if `full.len() != full_width()` or a masked tag equals
    /// [`MASKED_NONE`].
    pub fn insert(&mut self, e: Edge, full: &[CellTag], masked: Option<CellTag>) -> bool {
        self.build_row(full, masked);
        let fresh = self.core.insert_run(e, &self.row);
        self.masked_edge_count += usize::from(fresh && masked.is_some());
        fresh
    }

    /// Matches, then (when `store` carries the groups' owner tags)
    /// inserts, in one call — `f(g, w, cell)` fires per full group `g <
    /// full_width()` on plain tag equality and for `g == full_width()`
    /// (the masked group) iff **both** masked tags are set and equal (a
    /// [`MASKED_NONE`] on either side never matches). Returns whether
    /// the edge was freshly stored into the union set.
    ///
    /// # Panics
    ///
    /// Panics if `store`'s full run has `len() != full_width()` or its
    /// masked tag equals [`MASKED_NONE`].
    pub fn match_then_insert<F: FnMut(usize, NodeId, CellTag)>(
        &mut self,
        e: Edge,
        store: Option<(&[CellTag], Option<CellTag>)>,
        mut f: F,
    ) -> bool {
        let fw = self.full_width;
        if let Some((full, masked)) = store {
            self.build_row(full, masked);
            self.core.widen_for(&self.row);
        }
        let row = &self.row;
        let masked_count = &mut self.masked_edge_count;
        on_core!(&mut self.core, c => {
            let mut adapter = adapt_masked(fw, &mut f);
            match store {
                Some((_, masked)) => {
                    let fresh = c.match_then_insert_runs(e, Some(row), &mut adapter);
                    *masked_count += usize::from(fresh && masked.is_some());
                    fresh
                }
                None => c.match_then_insert_runs(e, None, &mut adapter),
            }
        })
    }

    /// Heap footprint in bytes — the *shared* footprint across all
    /// groups.
    pub fn approx_bytes(&self) -> usize {
        self.core.approx_bytes() + self.row.capacity() * std::mem::size_of::<CellTag>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;
    use rept_hash::rng::SplitMix64;
    use std::collections::{BTreeMap, BTreeSet};

    /// Thresholds covering all-dense, mixed and all-sparse operation.
    const THRESHOLDS: [usize; 3] = [0, 24, usize::MAX];

    fn edge(u: NodeId, v: NodeId) -> Edge {
        Edge::new(u, v)
    }

    /// The naive reference every wrapper is held to: a sorted map from
    /// each stored edge to its tag run (first insert wins), queries
    /// answered by brute force over the whole edge set.
    #[derive(Default)]
    struct Model {
        edges: BTreeMap<Edge, Vec<CellTag>>,
    }

    impl Model {
        fn insert(&mut self, e: Edge, run: &[CellTag]) -> bool {
            if self.edges.contains_key(&e) {
                return false;
            }
            self.edges.insert(e, run.to_vec());
            true
        }

        fn tags_of(&self, e: Edge) -> Option<&[CellTag]> {
            self.edges.get(&e).map(Vec::as_slice)
        }

        fn degree(&self, n: NodeId) -> usize {
            self.edges
                .keys()
                .filter(|e| e.u() == n || e.v() == n)
                .count()
        }

        fn node_count(&self) -> usize {
            let nodes: BTreeSet<NodeId> = self.edges.keys().flat_map(|e| [e.u(), e.v()]).collect();
            nodes.len()
        }

        /// `(w, run(u, w), run(v, w))` for every common neighbor `w`.
        fn common(&self, u: NodeId, v: NodeId) -> Vec<(NodeId, &[CellTag], &[CellTag])> {
            self.edges
                .iter()
                .filter_map(|(e, run_u)| {
                    let w = if e.u() == u {
                        e.v()
                    } else if e.v() == u {
                        e.u()
                    } else {
                        return None;
                    };
                    let run_v = self.tags_of(Edge::try_new(v, w)?)?;
                    Some((w, run_u.as_slice(), run_v))
                })
                .collect()
        }

        /// The per-column matches `(g, w, tag)` of a query: full
        /// columns on plain equality, column `masked` (if any) only when
        /// both tags are set.
        fn matches(&self, q: Edge, masked: Option<usize>) -> Vec<(usize, NodeId, CellTag)> {
            let mut out = Vec::new();
            for (w, ru, rv) in self.common(q.u(), q.v()) {
                for g in 0..ru.len() {
                    let set = Some(g) != masked || ru[g] != MASKED_NONE;
                    if ru[g] == rv[g] && set {
                        out.push((g, w, ru[g]));
                    }
                }
            }
            out.sort_unstable();
            out
        }
    }

    /// The defining property: at any threshold, on any insert sequence,
    /// the single-column layout answers every query exactly like the
    /// sorted-map model — including hub nodes that crossed the promotion
    /// boundary and unmerged tails on both representations.
    #[test]
    fn single_equivalent_to_sorted_on_random_streams() {
        for threshold in THRESHOLDS {
            let rng = SplitMix64::new(0xB17B17);
            let mut hybrid = HybridTaggedAdjacency::with_threshold(threshold);
            let mut model = Model::default();
            // Hub-heavy stream: node 0 collects a large degree so
            // hub–leaf probes exercise the dense×sparse kernel and the
            // gallop path.
            let mut edges = Vec::new();
            for i in 0..1500u64 {
                let r = rng.fork(i).next_u64();
                let (u, v) = if r.is_multiple_of(3) {
                    (0u32, 1 + (r >> 8) as u32 % 400)
                } else {
                    (1 + (r >> 8) as u32 % 60, 1 + (r >> 40) as u32 % 400)
                };
                if u != v {
                    edges.push((Edge::new(u, v), (r >> 16) as CellTag % 7));
                }
            }
            let (stored, queries) = edges.split_at(edges.len() * 2 / 3);
            for (k, &(e, cell)) in stored.iter().enumerate() {
                assert_eq!(
                    hybrid.insert(e, cell),
                    model.insert(e, &[cell]),
                    "{e} threshold {threshold}"
                );
                if k % 97 == 0 {
                    hybrid.compact();
                }
            }
            assert_eq!(hybrid.edge_count(), model.edges.len());
            assert_eq!(hybrid.node_count(), model.node_count());
            for &(q, _) in queries.iter().chain(stored) {
                assert_eq!(
                    hybrid.cell_of(q),
                    model.tags_of(q).map(|run| run[0]),
                    "cell_of {q} threshold {threshold}"
                );
                let mut mh = Vec::new();
                let nh = hybrid.for_each_matching_common_neighbor(q.u(), q.v(), |w, c| {
                    mh.push((0, w, c));
                });
                mh.sort_unstable();
                let ms = model.matches(q, None);
                assert_eq!(nh, ms.len(), "match count for {q} threshold {threshold}");
                assert_eq!(mh, ms, "match set for {q} threshold {threshold}");
                assert_eq!(hybrid.degree(q.u()), model.degree(q.u()));
            }
            let mut he: Vec<(Edge, CellTag)> = Vec::new();
            hybrid.for_each_edge(|e, c| he.push((e, c)));
            he.sort_unstable();
            let me: Vec<(Edge, CellTag)> = model.edges.iter().map(|(&e, r)| (e, r[0])).collect();
            assert_eq!(he, me, "edge enumeration at threshold {threshold}");
        }
    }

    /// A `width`-column hybrid answers exactly like the sorted-map model
    /// holding `width` tags per edge on identical inserts, at every
    /// threshold.
    #[test]
    fn multi_equivalent_to_multi_sorted() {
        for width in [1usize, 2, 4] {
            for threshold in THRESHOLDS {
                let rng = SplitMix64::new(99 + width as u64);
                let mut hybrid = MultiHybridTaggedAdjacency::with_threshold(width, threshold);
                let mut model = Model::default();
                let mut edges = Vec::new();
                for i in 0..900u64 {
                    let r = rng.fork(i).next_u64();
                    // Skew toward node 0 so it crosses mid thresholds.
                    let (u, v) = if r.is_multiple_of(4) {
                        (0u32, 1 + ((r >> 16) % 90) as u32)
                    } else {
                        ((r % 60) as u32, ((r >> 16) % 90) as u32)
                    };
                    if let Some(e) = Edge::try_new(u, v) {
                        let tags: Vec<CellTag> = (0..width)
                            .map(|g| ((r >> (8 * g)) % 5) as CellTag)
                            .collect();
                        edges.push((e, tags));
                    }
                }
                let (stored, queries) = edges.split_at(edges.len() / 2);
                for (k, (e, tags)) in stored.iter().enumerate() {
                    assert_eq!(
                        hybrid.insert(*e, tags),
                        model.insert(*e, tags),
                        "{e} width {width} threshold {threshold}"
                    );
                    if k % 111 == 0 {
                        hybrid.compact();
                    }
                }
                assert_eq!(hybrid.edge_count(), model.edges.len());
                assert_eq!(hybrid.node_count(), model.node_count());
                for (q, _) in queries.iter().chain(stored.iter()) {
                    assert_eq!(
                        hybrid.contains(*q),
                        model.tags_of(*q).is_some(),
                        "contains {q}"
                    );
                    assert_eq!(
                        hybrid.tags_of(*q).as_deref(),
                        model.tags_of(*q),
                        "tags_of {q}"
                    );
                    let mut a = Vec::new();
                    hybrid.match_then_insert(*q, None, |g, w, c| a.push((g, w, c)));
                    a.sort_unstable();
                    assert_eq!(
                        a,
                        model.matches(*q, None),
                        "matches of {q} width {width} threshold {threshold}"
                    );
                }
            }
        }
    }

    /// Column independence: a `width`-column structure answers exactly
    /// like `width` independent single-column structures fed the same
    /// edges with their respective tags, at every threshold.
    #[test]
    fn multi_equivalent_to_independent_single_group_structures() {
        for width in [1usize, 2, 4] {
            for threshold in THRESHOLDS {
                let rng = SplitMix64::new(99 + width as u64);
                let mut multi = MultiHybridTaggedAdjacency::with_threshold(width, threshold);
                let mut singles: Vec<HybridTaggedAdjacency> = (0..width)
                    .map(|_| HybridTaggedAdjacency::with_threshold(threshold))
                    .collect();
                let mut edges = Vec::new();
                for i in 0..900u64 {
                    let r = rng.fork(i).next_u64();
                    let (u, v) = ((r % 60) as u32, ((r >> 16) % 60) as u32);
                    if let Some(e) = Edge::try_new(u, v) {
                        let tags: Vec<CellTag> = (0..width)
                            .map(|g| ((r >> (8 * g)) % 5) as CellTag)
                            .collect();
                        edges.push((e, tags));
                    }
                }
                let (stored, queries) = edges.split_at(edges.len() / 2);
                for (k, (e, tags)) in stored.iter().enumerate() {
                    let fresh = multi.insert(*e, tags);
                    for (g, s) in singles.iter_mut().enumerate() {
                        assert_eq!(s.insert(*e, tags[g]), fresh, "{e} group {g}");
                    }
                    if k % 111 == 0 {
                        multi.compact();
                    }
                }
                assert_eq!(multi.edge_count(), singles[0].edge_count());
                assert_eq!(multi.node_count(), singles[0].node_count());
                for (q, _) in queries.iter().chain(stored.iter()) {
                    assert_eq!(
                        multi.contains(*q),
                        singles[0].cell_of(*q).is_some(),
                        "contains {q} width {width}"
                    );
                    if let Some(tags) = multi.tags_of(*q) {
                        for (g, s) in singles.iter().enumerate() {
                            assert_eq!(s.cell_of(*q), Some(tags[g]), "{q} group {g}");
                        }
                    }
                    let mut got: Vec<Vec<(NodeId, CellTag)>> = vec![Vec::new(); width];
                    multi.match_then_insert(*q, None, |g, w, c| got[g].push((w, c)));
                    for (g, s) in singles.iter().enumerate() {
                        let mut want = Vec::new();
                        s.for_each_matching_common_neighbor(q.u(), q.v(), |w, c| {
                            want.push((w, c));
                        });
                        got[g].sort_unstable();
                        want.sort_unstable();
                        assert_eq!(
                            got[g], want,
                            "matches of {q} group {g} width {width} threshold {threshold}"
                        );
                    }
                }
            }
        }
    }

    /// A masked structure answers exactly like a `full_width`-column
    /// structure fed every edge plus an independent single-column
    /// structure fed only the masked-stored edges with their masked
    /// tags, at every threshold.
    #[test]
    fn masked_equivalent_to_multi_plus_independent_masked_structure() {
        for full_width in [1usize, 2, 4] {
            for threshold in THRESHOLDS {
                let rng = SplitMix64::new(17 + full_width as u64);
                let mut masked_adj =
                    MaskedHybridTaggedAdjacency::with_threshold(full_width, threshold);
                let mut multi = MultiHybridTaggedAdjacency::with_threshold(full_width, threshold);
                let mut rem = HybridTaggedAdjacency::with_threshold(threshold);
                let mut edges = Vec::new();
                for i in 0..900u64 {
                    let r = rng.fork(i).next_u64();
                    let (u, v) = ((r % 60) as u32, ((r >> 16) % 60) as u32);
                    if let Some(e) = Edge::try_new(u, v) {
                        let full: Vec<CellTag> = (0..full_width)
                            .map(|g| ((r >> (8 * g)) % 5) as CellTag)
                            .collect();
                        // Deterministic per-edge masked decision (~1/3
                        // stored), mimicking a remainder hash with c₂ < m.
                        let cell = (r >> 48) % 6;
                        let masked = (cell < 2).then_some(cell as CellTag);
                        edges.push((e, full, masked));
                    }
                }
                let (stored, queries) = edges.split_at(edges.len() / 2);
                for (k, (e, full, m)) in stored.iter().enumerate() {
                    let fresh = masked_adj.insert(*e, full, *m);
                    assert_eq!(multi.insert(*e, full), fresh, "{e} union insert");
                    if fresh {
                        if let Some(tag) = m {
                            assert!(rem.insert(*e, *tag), "{e} masked insert");
                        }
                    }
                    if k % 97 == 0 {
                        masked_adj.compact();
                    }
                }
                assert_eq!(masked_adj.edge_count(), multi.edge_count());
                assert_eq!(masked_adj.masked_edge_count(), rem.edge_count());
                assert_eq!(masked_adj.node_count(), multi.node_count());
                for (q, _, _) in queries.iter().chain(stored.iter()) {
                    assert_eq!(masked_adj.contains(*q), multi.contains(*q), "contains {q}");
                    if let Some((full, m)) = masked_adj.tags_of(*q) {
                        assert_eq!(Some(full), multi.tags_of(*q), "full tags of {q}");
                        assert_eq!(m, rem.cell_of(*q), "masked tag of {q}");
                    }
                    let mut got: Vec<Vec<(NodeId, CellTag)>> = vec![Vec::new(); full_width + 1];
                    masked_adj.match_then_insert(*q, None, |g, w, c| got[g].push((w, c)));
                    for (g, got_g) in got.iter_mut().enumerate().take(full_width) {
                        let mut want = Vec::new();
                        multi.match_then_insert(*q, None, |gg, w, c| {
                            if gg == g {
                                want.push((w, c));
                            }
                        });
                        got_g.sort_unstable();
                        want.sort_unstable();
                        assert_eq!(*got_g, want, "full group {g} matches of {q}");
                    }
                    let mut want = Vec::new();
                    rem.for_each_matching_common_neighbor(q.u(), q.v(), |w, c| {
                        want.push((w, c));
                    });
                    got[full_width].sort_unstable();
                    want.sort_unstable();
                    assert_eq!(
                        got[full_width], want,
                        "masked matches of {q} threshold {threshold}"
                    );
                }
            }
        }
    }

    /// A masked hybrid answers exactly like the sorted-map model (the
    /// masked column carrying [`MASKED_NONE`] for dropped edges) on
    /// identical inserts, at every threshold.
    #[test]
    fn masked_equivalent_to_masked_sorted() {
        for full_width in [1usize, 2, 4] {
            for threshold in THRESHOLDS {
                let rng = SplitMix64::new(17 + full_width as u64);
                let mut hybrid = MaskedHybridTaggedAdjacency::with_threshold(full_width, threshold);
                let mut model = Model::default();
                let mut edges = Vec::new();
                for i in 0..900u64 {
                    let r = rng.fork(i).next_u64();
                    let (u, v) = if r.is_multiple_of(4) {
                        (0u32, 1 + ((r >> 16) % 90) as u32)
                    } else {
                        ((r % 60) as u32, ((r >> 16) % 90) as u32)
                    };
                    if let Some(e) = Edge::try_new(u, v) {
                        let full: Vec<CellTag> = (0..full_width)
                            .map(|g| ((r >> (8 * g)) % 5) as CellTag)
                            .collect();
                        let cell = (r >> 48) % 6;
                        let masked = (cell < 2).then_some(cell as CellTag);
                        edges.push((e, full, masked));
                    }
                }
                let (stored, queries) = edges.split_at(edges.len() / 2);
                for (k, (e, full, m)) in stored.iter().enumerate() {
                    let mut run = full.clone();
                    run.push(m.unwrap_or(MASKED_NONE));
                    assert_eq!(
                        hybrid.insert(*e, full, *m),
                        model.insert(*e, &run),
                        "{e} full_width {full_width} threshold {threshold}"
                    );
                    if k % 97 == 0 {
                        hybrid.compact();
                    }
                }
                let masked_of = |e: Edge| {
                    model
                        .tags_of(e)
                        .map(|run| run[full_width])
                        .filter(|&t| t != MASKED_NONE)
                };
                let mut sm: Vec<(Edge, CellTag)> = model
                    .edges
                    .keys()
                    .filter_map(|&e| Some((e, masked_of(e)?)))
                    .collect();
                assert_eq!(hybrid.edge_count(), model.edges.len());
                assert_eq!(hybrid.masked_edge_count(), sm.len());
                assert_eq!(hybrid.node_count(), model.node_count());
                for (q, _, _) in queries.iter().chain(stored.iter()) {
                    assert_eq!(hybrid.contains(*q), model.tags_of(*q).is_some());
                    assert_eq!(
                        hybrid.tags_of(*q),
                        model
                            .tags_of(*q)
                            .map(|run| (run[..full_width].to_vec(), masked_of(*q))),
                        "tags_of {q}"
                    );
                    assert_eq!(hybrid.masked_tag_of(*q), masked_of(*q), "masked_tag_of {q}");
                    let mut a = Vec::new();
                    hybrid.match_then_insert(*q, None, |g, w, c| a.push((g, w, c)));
                    a.sort_unstable();
                    assert_eq!(
                        a,
                        model.matches(*q, Some(full_width)),
                        "matches of {q} threshold {threshold}"
                    );
                }
                let mut hm = Vec::new();
                hybrid.for_each_masked_edge(|e, t| hm.push((e, t)));
                hm.sort_unstable();
                sm.sort_unstable();
                assert_eq!(hm, sm, "masked subset at threshold {threshold}");
            }
        }
    }

    // The small single-column checks below each run twice: on `new()`,
    // which keeps these tiny graphs in sorted rows, and on threshold 0,
    // which promotes every row to a bitmap from its first edge.

    fn check_insert_and_tags(mut a: HybridTaggedAdjacency) {
        assert!(a.insert(edge(1, 2), 3));
        assert!(!a.insert(edge(2, 1), 9), "duplicate in reverse order");
        assert_eq!(a.cell_of(edge(1, 2)), Some(3), "first tag wins");
        assert_eq!(a.edge_count(), 1);
        assert_eq!(a.node_count(), 2);
        assert_eq!(a.degree(1), 1);
        assert_eq!(a.cell_of(edge(1, 3)), None);
    }

    #[test]
    fn insert_and_tags() {
        check_insert_and_tags(HybridTaggedAdjacency::new());
    }

    #[test]
    fn dense_rows_insert_and_tags() {
        check_insert_and_tags(HybridTaggedAdjacency::with_threshold(0));
    }

    fn check_matching_requires_equal_tags(mut a: HybridTaggedAdjacency) {
        // Wedge 2–1–3 with both edges in cell 0, plus wedge 2–4–3 split
        // across cells: only node 1 matches for the arriving edge (2,3).
        a.insert(edge(1, 2), 0);
        a.insert(edge(1, 3), 0);
        a.insert(edge(4, 2), 0);
        a.insert(edge(4, 3), 1);
        let mut hits = Vec::new();
        let n = a.for_each_matching_common_neighbor(2, 3, |w, c| hits.push((w, c)));
        assert_eq!(n, 1);
        assert_eq!(hits, vec![(1, 0)]);
    }

    #[test]
    fn matching_requires_equal_tags() {
        check_matching_requires_equal_tags(HybridTaggedAdjacency::new());
    }

    #[test]
    fn dense_rows_matching_requires_equal_tags() {
        check_matching_requires_equal_tags(HybridTaggedAdjacency::with_threshold(0));
    }

    fn check_matching_of_unknown_nodes_is_empty(mut a: HybridTaggedAdjacency) {
        assert_eq!(
            a.for_each_matching_common_neighbor(5, 6, |_, _| panic!()),
            0
        );
        // One known endpoint is not enough either.
        a.insert(edge(1, 2), 0);
        a.insert(edge(1, 3), 0);
        for (u, v) in [(5, 6), (2, 7), (7, 2), (1, 7)] {
            assert_eq!(
                a.for_each_matching_common_neighbor(u, v, |_, _| panic!()),
                0,
                "({u}, {v})"
            );
        }
    }

    #[test]
    fn matching_of_unknown_nodes_is_empty() {
        check_matching_of_unknown_nodes_is_empty(HybridTaggedAdjacency::new());
    }

    #[test]
    fn dense_rows_matching_of_unknown_nodes_is_empty() {
        check_matching_of_unknown_nodes_is_empty(HybridTaggedAdjacency::with_threshold(0));
    }

    #[test]
    fn matches_per_cell_equal_split_adjacencies() {
        // Matches with tag i over the shared structure == common
        // neighbors in the cell-i-only adjacency, on every
        // representation.
        use crate::adjacency::DynamicAdjacency;
        use rept_hash::{EdgeHashFamily, PartitionHasher};
        let cells = 4u64;
        let ph = PartitionHasher::new(EdgeHashFamily::new(5).member(0), cells);
        let mut edges = Vec::new();
        for u in 0..12u32 {
            for v in (u + 1)..12 {
                edges.push(edge(u, v));
            }
        }
        // Store the first half, query with the second half.
        let (stored, queries) = edges.split_at(edges.len() / 2);
        for threshold in THRESHOLDS {
            let mut fused = HybridTaggedAdjacency::with_threshold(threshold);
            let mut split: Vec<DynamicAdjacency> =
                (0..cells).map(|_| DynamicAdjacency::new()).collect();
            for &e in stored {
                let cell = ph.cell(u64::from(e.u()), u64::from(e.v()));
                fused.insert(e, cell as CellTag);
                split[cell as usize].insert(e);
            }
            for &q in queries {
                let mut per_cell = vec![0usize; cells as usize];
                fused.for_each_matching_common_neighbor(q.u(), q.v(), |_, c| {
                    per_cell[c as usize] += 1;
                });
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

    fn check_edges_roundtrip_with_tags(mut a: HybridTaggedAdjacency) {
        a.insert(edge(1, 2), 0);
        a.insert(edge(2, 3), 1);
        a.insert(edge(4, 5), 2);
        let mut got: Vec<(Edge, CellTag)> = Vec::new();
        a.for_each_edge(|e, c| got.push((e, c)));
        got.sort();
        assert_eq!(got, vec![(edge(1, 2), 0), (edge(2, 3), 1), (edge(4, 5), 2)]);
        assert_eq!(got.iter().filter(|&&(_, c)| c == 1).count(), 1);
    }

    #[test]
    fn edges_roundtrip_with_tags() {
        check_edges_roundtrip_with_tags(HybridTaggedAdjacency::new());
    }

    #[test]
    fn dense_rows_edges_roundtrip_with_tags() {
        check_edges_roundtrip_with_tags(HybridTaggedAdjacency::with_threshold(0));
    }

    fn check_bytes_grow_with_inserts(mut a: HybridTaggedAdjacency) {
        let empty = a.approx_bytes();
        for i in 0..500u32 {
            a.insert(edge(i, i + 1), i % 7);
        }
        assert!(a.approx_bytes() > empty);
        assert_eq!(a.edge_count(), 500);
        assert_eq!(a.node_count(), 501);
    }

    #[test]
    fn bytes_grow_with_inserts() {
        check_bytes_grow_with_inserts(HybridTaggedAdjacency::new());
    }

    #[test]
    fn dense_rows_bytes_grow_with_inserts() {
        check_bytes_grow_with_inserts(HybridTaggedAdjacency::with_threshold(0));
    }

    /// The two row representations are interchangeable: on any insert
    /// sequence a never-promoting structure (sorted rows only) answers
    /// every query exactly like an always-promoting one (bitmap rows
    /// only) — including skewed degrees (galloping path) and unmerged
    /// tails.
    #[test]
    fn sparse_rows_equivalent_to_dense_rows_on_random_streams() {
        let rng = SplitMix64::new(0xC0FFEE);
        let mut sparse = HybridTaggedAdjacency::with_threshold(usize::MAX);
        let mut dense = HybridTaggedAdjacency::with_threshold(0);
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
            if u != v {
                edges.push((Edge::new(u, v), (r >> 16) as CellTag % 7));
            }
        }
        let (stored, queries) = edges.split_at(edges.len() * 2 / 3);
        for &(e, cell) in stored {
            assert_eq!(sparse.insert(e, cell), dense.insert(e, cell), "{e}");
        }
        assert_eq!(sparse.edge_count(), dense.edge_count());
        assert_eq!(sparse.node_count(), dense.node_count());
        for &(q, _) in queries.iter().chain(stored) {
            assert_eq!(sparse.cell_of(q), dense.cell_of(q), "cell_of {q}");
            let mut ms = Vec::new();
            let ns = sparse.for_each_matching_common_neighbor(q.u(), q.v(), |w, c| {
                ms.push((w, c));
            });
            let mut md = Vec::new();
            let nd = dense.for_each_matching_common_neighbor(q.u(), q.v(), |w, c| {
                md.push((w, c));
            });
            ms.sort_unstable();
            md.sort_unstable();
            assert_eq!(ns, nd, "match count for {q}");
            assert_eq!(ms, md, "match set for {q}");
        }
        dense.for_each_edge(|e, _| {
            assert_eq!(sparse.degree(e.u()), dense.degree(e.u()));
        });
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

    /// Single-column `match_then_insert` ≡
    /// `for_each_matching_common_neighbor` followed by `insert`, for
    /// owned, unowned, and duplicate edges alike, at every threshold.
    #[test]
    fn single_match_then_insert_equals_split_calls() {
        for threshold in THRESHOLDS {
            let rng = SplitMix64::new(7);
            let mut fused = HybridTaggedAdjacency::with_threshold(threshold);
            let mut split = HybridTaggedAdjacency::with_threshold(threshold);
            for i in 0..800u64 {
                let r = rng.fork(i).next_u64();
                let (u, v) = ((r % 50) as u32, ((r >> 16) % 50) as u32);
                let Some(e) = Edge::try_new(u, v) else {
                    continue;
                };
                let cell = ((r >> 32) % 5) as CellTag;
                let store = (!r.is_multiple_of(3)).then_some(cell);

                let mut a = Vec::new();
                let stored_a = fused.match_then_insert(e, store, |w, c| a.push((w, c)));
                let mut b = Vec::new();
                split.for_each_matching_common_neighbor(u, v, |w, c| b.push((w, c)));
                let stored_b = store.is_some_and(|c| split.insert(e, c));
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "matches at step {i} threshold {threshold}");
                assert_eq!(stored_a, stored_b, "store outcome at step {i}");
                if i % 97 == 0 {
                    fused.compact();
                    split.compact();
                }
            }
            assert_eq!(fused.edge_count(), split.edge_count());
        }
    }

    /// `match_then_insert` with store tags equals match-only followed by
    /// `insert`, including duplicate edges, across the promotion
    /// boundary.
    #[test]
    fn match_then_insert_equals_split_calls() {
        check_multi_match_then_insert(16);
    }

    /// The same on all-dense, mixed and all-sparse rows.
    #[test]
    fn multi_match_then_insert_equals_split_calls() {
        for threshold in THRESHOLDS {
            check_multi_match_then_insert(threshold);
        }
    }

    fn check_multi_match_then_insert(threshold: usize) {
        let width = 3;
        let rng = SplitMix64::new(5);
        let mut fused = MultiHybridTaggedAdjacency::with_threshold(width, threshold);
        let mut split = MultiHybridTaggedAdjacency::with_threshold(width, threshold);
        for i in 0..700u64 {
            let r = rng.fork(i).next_u64();
            let Some(e) = Edge::try_new((r % 40) as u32, ((r >> 16) % 40) as u32) else {
                continue;
            };
            let tags: Vec<CellTag> = (0..width)
                .map(|g| ((r >> (4 * g)) % 6) as CellTag)
                .collect();
            let mut a = Vec::new();
            let sa = fused.match_then_insert(e, Some(&tags), |g, w, c| a.push((g, w, c)));
            let mut b = Vec::new();
            split.match_then_insert(e, None, |g, w, c| b.push((g, w, c)));
            let sb = split.insert(e, &tags);
            a.sort_unstable();
            b.sort_unstable();
            assert_eq!(a, b, "step {i} threshold {threshold}");
            assert_eq!(sa, sb, "store outcome, step {i}");
            if i % 131 == 0 {
                fused.compact();
                split.compact();
            }
        }
        assert_eq!(fused.edge_count(), split.edge_count());
    }

    /// Masked `match_then_insert` with store tags equals match-only
    /// followed by `insert`, including duplicate edges (first tags win
    /// everywhere), at every threshold.
    #[test]
    fn masked_match_then_insert_equals_split_calls() {
        let full_width = 2;
        for threshold in THRESHOLDS {
            let rng = SplitMix64::new(3);
            let mut fused = MaskedHybridTaggedAdjacency::with_threshold(full_width, threshold);
            let mut split = MaskedHybridTaggedAdjacency::with_threshold(full_width, threshold);
            for i in 0..700u64 {
                let r = rng.fork(i).next_u64();
                let Some(e) = Edge::try_new((r % 40) as u32, ((r >> 16) % 40) as u32) else {
                    continue;
                };
                let full: Vec<CellTag> = (0..full_width)
                    .map(|g| ((r >> (4 * g)) % 6) as CellTag)
                    .collect();
                let cell = (r >> 40) % 7;
                let masked = (cell < 3).then_some(cell as CellTag);
                let mut a = Vec::new();
                let sa =
                    fused.match_then_insert(e, Some((&full, masked)), |g, w, c| a.push((g, w, c)));
                let mut b = Vec::new();
                split.match_then_insert(e, None, |g, w, c| b.push((g, w, c)));
                let sb = split.insert(e, &full, masked);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "step {i} threshold {threshold}");
                assert_eq!(sa, sb, "store outcome, step {i}");
                if i % 131 == 0 {
                    fused.compact();
                    split.compact();
                }
            }
            assert_eq!(fused.edge_count(), split.edge_count());
            assert_eq!(fused.masked_edge_count(), split.masked_edge_count());
        }
    }

    /// Sparse tail maintenance: far more than `TAIL_LIMIT` neighbors of
    /// one never-promoted node in descending order (worst case for the
    /// back-merge), with duplicates sprinkled in.
    #[test]
    fn tail_merge_keeps_prefix_sorted_and_lookups_exact() {
        let mut a = HybridTaggedAdjacency::with_threshold(usize::MAX);
        let mut inserted = 0;
        for v in (1..100u32).rev() {
            assert!(a.insert(edge(0, v), v % 5));
            inserted += 1;
            if v % 7 == 0 {
                assert!(!a.insert(edge(0, v), 9), "duplicate {v}");
            }
        }
        assert_eq!(a.degree(0), inserted);
        for v in 1..100u32 {
            assert_eq!(a.cell_of(edge(0, v)), Some(v % 5), "lookup {v}");
        }
        assert_eq!(a.cell_of(edge(0, 100)), None);
    }

    /// Dense-core maintenance across many tail merges: one hub receives
    /// hundreds of neighbors in descending order (worst case for the
    /// block merge) with duplicates sprinkled in; every lookup must stay
    /// exact and first tags must win.
    #[test]
    fn dense_merges_keep_lookups_exact() {
        let mut a = HybridTaggedAdjacency::with_threshold(10);
        let mut inserted = 0;
        for v in (1..600u32).rev() {
            assert!(a.insert(Edge::new(0, v), v % 5));
            inserted += 1;
            if v % 7 == 0 {
                assert!(!a.insert(Edge::new(0, v), 9), "duplicate {v}");
            }
        }
        assert_eq!(a.degree(0), inserted);
        for v in 1..600u32 {
            assert_eq!(a.cell_of(Edge::new(0, v)), Some(v % 5), "lookup {v}");
        }
        assert_eq!(a.cell_of(Edge::new(0, 600)), None);
        a.compact();
        for v in 1..600u32 {
            assert_eq!(a.cell_of(Edge::new(0, v)), Some(v % 5));
        }
    }

    /// Compaction is a pure representation change on both sides of the
    /// promotion boundary: eager vs lazy compaction answer identically.
    #[test]
    fn compact_is_a_pure_representation_change() {
        let mut eager = MultiHybridTaggedAdjacency::with_threshold(2, 20);
        let mut lazy = MultiHybridTaggedAdjacency::with_threshold(2, 20);
        let edges: Vec<(Edge, [CellTag; 2])> = (0..300u32)
            .map(|i| (Edge::new(i % 40, 40 + (i * 7) % 90), [i % 6, i % 4]))
            .collect();
        for (i, &(e, tags)) in edges.iter().enumerate() {
            assert_eq!(eager.insert(e, &tags), lazy.insert(e, &tags));
            if i % 23 == 0 {
                eager.compact();
            }
        }
        eager.compact();
        assert_eq!(eager.edge_count(), lazy.edge_count());
        for u in 0..40u32 {
            for v in 40..130u32 {
                let q = Edge::new(u, v);
                assert_eq!(eager.tags_of(q), lazy.tags_of(q), "{q}");
            }
            for w in (u + 1)..40 {
                let q = Edge::new(u, w);
                let mut a = Vec::new();
                let mut b = Vec::new();
                eager.match_then_insert(q, None, |g, x, c| a.push((g, x, c)));
                lazy.match_then_insert(q, None, |g, x, c| b.push((g, x, c)));
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "matches of ({u}, {w})");
            }
        }
        let before = eager.edge_count();
        eager.compact();
        assert_eq!(eager.edge_count(), before);
    }

    /// The same on the single-column structure with promotion off — the
    /// sorted-row layout alone: eager vs lazy compaction answer
    /// identically, and a compacted structure keeps every sparse tail
    /// below the overflow bound.
    #[test]
    fn single_compact_is_a_pure_representation_change() {
        let mut eager = HybridTaggedAdjacency::with_threshold(usize::MAX);
        let mut lazy = HybridTaggedAdjacency::with_threshold(usize::MAX);
        let edges: Vec<(Edge, CellTag)> = (0..300u32)
            .map(|i| (Edge::new(i % 40, 40 + (i * 7) % 90), i % 6))
            .collect();
        for (i, &(e, cell)) in edges.iter().enumerate() {
            assert_eq!(eager.insert(e, cell), lazy.insert(e, cell));
            if i % 23 == 0 {
                eager.compact();
            }
        }
        eager.compact();
        let tails_bounded = on_core!(&eager.core, c => c
            .lists
            .iter()
            .all(|l| l.dense.is_none() && l.nbrs.len() - l.sorted_len < TAIL_LIMIT));
        assert!(tails_bounded);
        assert_eq!(eager.edge_count(), lazy.edge_count());
        for u in 0..40u32 {
            for v in 40..130u32 {
                let q = Edge::new(u, v);
                assert_eq!(eager.cell_of(q), lazy.cell_of(q), "{q}");
            }
            for w in (u + 1)..40 {
                let mut a = Vec::new();
                let mut b = Vec::new();
                eager.for_each_matching_common_neighbor(u, w, |x, c| a.push((x, c)));
                lazy.for_each_matching_common_neighbor(u, w, |x, c| b.push((x, c)));
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b, "matches of ({u}, {w})");
            }
        }
        // compact on an already-clean structure is a no-op.
        let before = eager.edge_count();
        eager.compact();
        assert_eq!(eager.edge_count(), before);
    }

    #[test]
    fn rejects_bad_widths_sentinel_and_zero_width() {
        check_multi_rejections();
        check_masked_rejections();
    }

    #[test]
    fn multi_rejects_wrong_tag_width_and_zero_width() {
        check_multi_rejections();
    }

    #[test]
    fn masked_rejects_bad_widths_sentinel_and_zero_width() {
        check_masked_rejections();
    }

    fn check_multi_rejections() {
        let mut m = MultiHybridTaggedAdjacency::new(2);
        assert!(m.insert(Edge::new(1, 2), &[0, 1]));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            m.insert(Edge::new(2, 3), &[0]);
        }))
        .is_err());
        assert!(std::panic::catch_unwind(|| MultiHybridTaggedAdjacency::new(0)).is_err());
    }

    fn check_masked_rejections() {
        let mut k = MaskedHybridTaggedAdjacency::new(2);
        assert!(k.insert(Edge::new(1, 2), &[0, 1], None));
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.insert(Edge::new(2, 3), &[0], None);
        }))
        .is_err());
        assert!(std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.insert(Edge::new(2, 3), &[0, 1], Some(MASKED_NONE));
        }))
        .is_err());
        assert!(std::panic::catch_unwind(|| MaskedHybridTaggedAdjacency::new(0)).is_err());
    }

    /// A tag that cannot pack into the byte store arriving mid-stream
    /// widens the whole structure in place; every tag stored before and
    /// after keeps answering exactly like the naive model.
    #[test]
    fn widening_preserves_all_tags() {
        for threshold in THRESHOLDS {
            let rng = SplitMix64::new(0x81D);
            let mut hybrid = MultiHybridTaggedAdjacency::with_threshold(2, threshold);
            let mut multi = Model::default();
            let mut masked_h = MaskedHybridTaggedAdjacency::with_threshold(1, threshold);
            let mut masked_s = Model::default();
            for i in 0..800u64 {
                let r = rng.fork(i).next_u64();
                let Some(e) = Edge::try_new((r % 50) as u32, ((r >> 16) % 90) as u32) else {
                    continue;
                };
                // Packed tags for the first half, then cells far beyond
                // one byte — the widening point lands mid-stream.
                let tags: [CellTag; 2] = if i < 400 {
                    [(r % 6) as CellTag, ((r >> 8) % 5) as CellTag]
                } else {
                    [300 + (r % 500) as CellTag, ((r >> 8) % 5) as CellTag]
                };
                assert_eq!(hybrid.insert(e, &tags), multi.insert(e, &tags), "{e}");
                let m = (r >> 40).is_multiple_of(3).then_some(tags[0]);
                assert_eq!(
                    masked_h.insert(e, &tags[1..], m),
                    masked_s.insert(e, &[tags[1], m.unwrap_or(MASKED_NONE)]),
                    "{e} masked"
                );
                if i % 101 == 0 {
                    hybrid.compact();
                    masked_h.compact();
                }
            }
            for u in 0..50u32 {
                for v in 50..140u32 {
                    let q = Edge::new(u, v);
                    assert_eq!(
                        hybrid.tags_of(q).as_deref(),
                        multi.tags_of(q),
                        "{q} threshold {threshold}"
                    );
                    assert_eq!(
                        masked_h.tags_of(q),
                        masked_s.tags_of(q).map(|run| (
                            run[..1].to_vec(),
                            (run[1] != MASKED_NONE).then_some(run[1])
                        )),
                        "{q} masked threshold {threshold}"
                    );
                }
            }
            assert_eq!(hybrid.edge_count(), multi.edges.len());
            let masked_count = masked_s
                .edges
                .values()
                .filter(|run| run[1] != MASKED_NONE)
                .count();
            assert_eq!(masked_h.masked_edge_count(), masked_count);
        }
    }

    #[test]
    fn masked_edges_enumerate_exactly_the_stored_subset() {
        let mut a = MaskedHybridTaggedAdjacency::new(1);
        a.insert(Edge::new(1, 2), &[0], Some(1));
        a.insert(Edge::new(2, 3), &[1], None);
        a.insert(Edge::new(3, 4), &[2], Some(0));
        let mut got = Vec::new();
        a.for_each_masked_edge(|e, tag| got.push((e, tag)));
        got.sort_unstable();
        assert_eq!(got, vec![(Edge::new(1, 2), 1), (Edge::new(3, 4), 0)]);
        assert_eq!(a.masked_edge_count(), 2);
        let mut all = Vec::new();
        a.for_each_edge(|e| all.push(e));
        all.sort_unstable();
        assert_eq!(all, vec![Edge::new(1, 2), Edge::new(2, 3), Edge::new(3, 4)]);
    }

    #[test]
    fn bytes_grow_and_duplicates_keep_first_tags() {
        let mut a = MaskedHybridTaggedAdjacency::new(3);
        let empty = a.approx_bytes();
        for i in 0..200u32 {
            a.insert(Edge::new(i, i + 1), &[0, 1, 2], (i % 2 == 0).then_some(5));
        }
        assert!(a.approx_bytes() > empty);
        assert!(!a.insert(Edge::new(0, 1), &[9, 9, 9], Some(9)), "duplicate");
        assert_eq!(a.tags_of(Edge::new(0, 1)), Some((vec![0, 1, 2], Some(5))));
        assert_eq!(a.degree(1), 2);
        assert_eq!(a.full_width(), 3);
    }

    #[test]
    fn multi_bytes_grow_and_width_reported() {
        let mut a = MultiHybridTaggedAdjacency::new(4);
        let empty = a.approx_bytes();
        for i in 0..200u32 {
            a.insert(Edge::new(i, i + 1), &[0, 1, 2, 3]);
        }
        assert!(a.approx_bytes() > empty);
        assert_eq!(a.width(), 4);
        assert_eq!(a.degree(1), 2);
    }

    #[test]
    fn bytes_grow_and_parameters_reported() {
        let mut a = MultiHybridTaggedAdjacency::with_threshold(4, 8);
        let empty = a.approx_bytes();
        for i in 0..200u32 {
            a.insert(Edge::new(0, i + 1), &[0, 1, 2, 3]);
        }
        assert!(a.approx_bytes() > empty);
        assert_eq!(a.width(), 4);
        assert_eq!(a.degree(0), 200);
        let h = HybridTaggedAdjacency::new();
        assert_eq!(h.dense_threshold(), DEFAULT_DENSE_THRESHOLD);
    }

    /// The running byte count next to the full walk it replaces.
    fn byte_counts(core: &HybridCore) -> (usize, usize) {
        (core.approx_bytes(), on_core!(core, c => c.recount_bytes()))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// `approx_bytes` is O(1) yet equals the walk over every list,
        /// dense core and id page after every insert — on all three
        /// wrappers, at every threshold, through promotions, overflow
        /// merges, compactions, the packed → wide switch (cells past one
        /// byte from `wide_from` on), `clone()` (whose vecs shrink to
        /// their lengths) and a rebuild from the edge enumeration (what
        /// an RPCK restore does).
        #[test]
        fn running_byte_count_equals_recount(
            pairs in vec((0u32..12, 0u32..160), 1..500),
            seed in any::<u64>(),
            wide_from in 0usize..700,
        ) {
            let rng = SplitMix64::new(seed);
            for threshold in THRESHOLDS {
                let mut single = HybridTaggedAdjacency::with_threshold(threshold);
                let mut multi = MultiHybridTaggedAdjacency::with_threshold(3, threshold);
                let mut masked = MaskedHybridTaggedAdjacency::with_threshold(2, threshold);
                for (i, &(u, v)) in pairs.iter().enumerate() {
                    let Some(e) = Edge::try_new(u, v) else {
                        continue;
                    };
                    let r = rng.fork(i as u64).next_u64();
                    let wide = if i >= wide_from { 300 } else { 0 };
                    let cell = |k: u32| wide + ((r >> (8 * k)) % 7) as CellTag;
                    if r.is_multiple_of(2) {
                        single.insert(e, cell(0));
                        multi.insert(e, &[cell(0), cell(1), cell(2)]);
                    } else {
                        single.match_then_insert(e, Some(cell(0)), |_, _| {});
                        let run = [cell(0), cell(1), cell(2)];
                        multi.match_then_insert(e, Some(&run), |_, _, _| {});
                    }
                    masked.insert(e, &[cell(0), cell(1)], r.is_multiple_of(3).then(|| cell(3)));
                    for core in [&single.core, &multi.core, &masked.core] {
                        let (running, walked) = byte_counts(core);
                        prop_assert_eq!(running, walked, "edge {} threshold {}", i, threshold);
                    }
                    if r.is_multiple_of(29) {
                        single.compact();
                        multi.compact();
                        masked.compact();
                    }
                }
                for core in [&single.core, &multi.core, &masked.core] {
                    let copy = core.clone();
                    let (running, walked) = byte_counts(&copy);
                    prop_assert_eq!(running, walked, "clone at threshold {}", threshold);
                    prop_assert!(running <= core.approx_bytes(), "a clone never grows");
                }
                let mut copy = multi.clone();
                for &(u, v) in &pairs {
                    if let Some(e) = Edge::try_new(v + 200, u) {
                        copy.insert(e, &[0, 1, 2]);
                    }
                }
                let (running, walked) = byte_counts(&copy.core);
                prop_assert_eq!(running, walked, "clone grown at threshold {}", threshold);
                let mut rebuilt = MultiHybridTaggedAdjacency::with_threshold(3, threshold);
                multi.for_each_edge(|e| {
                    rebuilt.insert(e, &multi.tags_of(e).expect("enumerated edge"));
                });
                rebuilt.compact();
                let (running, walked) = byte_counts(&rebuilt.core);
                prop_assert_eq!(running, walked, "rebuild at threshold {}", threshold);
            }
        }
    }

    /// The reference compaction: scan every node and merge each sparse
    /// tail of at least `TAIL_LIMIT` entries.
    fn full_scan_compact<T: TagElem>(c: &mut HybridCoreImpl<T>) {
        for slot in 0..c.lists.len() {
            let l = &c.lists[slot];
            if l.dense.is_none() && l.nbrs.len() - l.sorted_len >= TAIL_LIMIT {
                c.merge_sparse(slot);
            }
        }
    }

    /// Every slot's `(nbrs, tags, sorted_len, promoted)`, tags unpacked.
    type SlotContents = Vec<(Vec<NodeId>, Vec<CellTag>, usize, bool)>;

    fn slot_contents(core: &HybridCore) -> SlotContents {
        on_core!(core, c => c
            .lists
            .iter()
            .map(|l| {
                let tags = l.tags.iter().map(|&t| t.unpack()).collect();
                (l.nbrs.clone(), tags, l.sorted_len, l.dense.is_some())
            })
            .collect())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Compaction work follows the batch, not the graph: before
        /// each `compact()` its work list holds at most two entries per
        /// edge the batch stored (one per endpoint push), after it the
        /// list is empty, and every slot equals what the full scan makes
        /// of a clone — so the representation after every batch, and
        /// with it every checkpoint blob, is the one a full scan yields.
        #[test]
        fn compaction_is_bounded_by_the_batch_and_merges_what_a_full_scan_merges(
            pairs in vec((0u32..10, 0u32..240), 1..700),
            batches in vec(1usize..90, 1..12),
            stride in 1usize..4,
        ) {
            let edges: Vec<Edge> = pairs
                .iter()
                .filter_map(|&(u, v)| Edge::try_new(u, v))
                .collect();
            for threshold in THRESHOLDS {
                let mut core = HybridCore::new(stride, threshold);
                let (mut at, mut k) = (0usize, 0usize);
                while at < edges.len() {
                    let n = batches[k % batches.len()].min(edges.len() - at);
                    let mut stored = 0usize;
                    for (i, &e) in edges[at..at + n].iter().enumerate() {
                        let run: Vec<CellTag> =
                            (0..stride).map(|g| ((i + g) % 5) as CellTag).collect();
                        stored += usize::from(core.insert_run(e, &run));
                    }
                    let pending = on_core!(&core, c => c.full_tails.len());
                    prop_assert!(
                        pending <= 2 * stored,
                        "{} pending for {} stored edges",
                        pending,
                        stored
                    );
                    let mut reference = core.clone();
                    on_core!(&mut reference, c => full_scan_compact(c));
                    core.compact();
                    prop_assert!(on_core!(&core, c => c.full_tails.is_empty()));
                    prop_assert_eq!(
                        slot_contents(&core),
                        slot_contents(&reference),
                        "batch {} threshold {}",
                        k,
                        threshold
                    );
                    at += n;
                    k += 1;
                }
            }
        }
    }
}
