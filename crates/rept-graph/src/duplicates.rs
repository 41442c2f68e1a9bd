//! Duplicate-robust stream filtering.
//!
//! The REPT analysis (like MASCOT's and TRIÈST's) assumes each edge
//! appears **once**; real streams (packet traces, call logs) repeat edges
//! constantly, and feeding repeats into a semi-triangle counter inflates
//! the estimate unboundedly. The paper's own group addressed this with
//! PartitionCT (Wang et al., PVLDB 2017, cited as \[43\]); here we provide
//! the streaming-filter building block:
//!
//! * [`ExactDedup`] — a hash-set filter: exact, `O(distinct edges)`
//!   memory. The right choice when the aggregate graph fits in memory
//!   (it does for every registry dataset).
//! * [`BloomDedup`] — a Bloom-filter front: fixed memory, never lets a
//!   duplicate through, but drops a tunable fraction of *genuine* new
//!   edges (false positives). The resulting triangle-count bias is
//!   roughly `-3·fp` relative (each lost edge kills its triangles; a
//!   triangle survives only if all three edges survive,
//!   `(1−fp)³ ≈ 1−3·fp`), which the integration tests confirm.

use rept_hash::bloom::BloomFilter;
use rept_hash::fx::FxHashSet;

use crate::edge::Edge;

/// Exact streaming deduplication filter.
#[derive(Debug, Clone, Default)]
pub struct ExactDedup {
    seen: FxHashSet<Edge>,
    duplicates: u64,
}

impl ExactDedup {
    /// Creates an empty filter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns `true` exactly when `e` has not been seen before.
    pub fn admit(&mut self, e: Edge) -> bool {
        let fresh = self.seen.insert(e);
        if !fresh {
            self.duplicates += 1;
        }
        fresh
    }

    /// Duplicates rejected so far.
    pub fn duplicates(&self) -> u64 {
        self.duplicates
    }

    /// Distinct edges admitted so far.
    pub fn distinct(&self) -> u64 {
        self.seen.len() as u64
    }
}

/// Fixed-memory approximate deduplication filter.
#[derive(Debug, Clone)]
pub struct BloomDedup {
    filter: BloomFilter,
    admitted: u64,
    rejected: u64,
}

impl BloomDedup {
    /// Sizes the filter for `expected_distinct` edges at `fp_rate`.
    ///
    /// # Panics
    ///
    /// Panics on invalid sizing parameters (see
    /// [`BloomFilter::with_rate`]).
    pub fn new(expected_distinct: u64, fp_rate: f64, seed: u64) -> Self {
        Self {
            filter: BloomFilter::with_rate(expected_distinct, fp_rate, seed),
            admitted: 0,
            rejected: 0,
        }
    }

    fn key(e: Edge) -> u64 {
        let (u, v) = e.as_u64_pair();
        u << 32 | v
    }

    /// Returns `true` when `e` is admitted (first sighting as far as the
    /// filter can tell). Duplicates are always rejected; new edges are
    /// rejected with the false-positive probability.
    pub fn admit(&mut self, e: Edge) -> bool {
        if self.filter.insert(Self::key(e)) {
            self.admitted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// Edges admitted so far.
    pub fn admitted(&self) -> u64 {
        self.admitted
    }

    /// Edges rejected so far (true duplicates + false positives).
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Memory footprint in bytes.
    pub fn bytes(&self) -> usize {
        self.filter.bytes()
    }
}

/// Convenience: filters a materialised stream through [`BloomDedup`]
/// sized at `fp_rate` for the stream's length.
pub fn dedup_bloom(stream: &[Edge], fp_rate: f64, seed: u64) -> Vec<Edge> {
    let mut filter = BloomDedup::new(stream.len().max(1) as u64, fp_rate, seed);
    stream
        .iter()
        .copied()
        .filter(|&e| filter.admit(e))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noisy_stream() -> Vec<Edge> {
        // Every edge appears 3 times.
        let mut s = Vec::new();
        for rep in 0..3 {
            for i in 0..200u32 {
                let _ = rep;
                s.push(Edge::new(i, i + 1));
            }
        }
        s
    }

    #[test]
    fn exact_dedup_keeps_one_copy() {
        let stream = noisy_stream();
        let clean = crate::stream::dedup_stream(&stream);
        assert_eq!(clean.len(), 200);
        let mut filter = ExactDedup::new();
        for &e in &stream {
            filter.admit(e);
        }
        assert_eq!(filter.distinct(), 200);
        assert_eq!(filter.duplicates(), 400);
    }

    #[test]
    fn bloom_dedup_never_passes_duplicates() {
        let stream = noisy_stream();
        let clean = dedup_bloom(&stream, 0.01, 7);
        let set: std::collections::HashSet<_> = clean.iter().collect();
        assert_eq!(set.len(), clean.len(), "no duplicate survived");
        // It may drop a few genuine edges, but not many at 1%.
        assert!(clean.len() >= 195, "kept only {}", clean.len());
    }

    #[test]
    fn bloom_loss_tracks_fp_rate() {
        // A large all-distinct stream: rejects ≈ fp_rate · n.
        let stream: Vec<Edge> = (0..20_000u32).map(|i| Edge::new(i, i + 1)).collect();
        let clean = dedup_bloom(&stream, 0.02, 3);
        let lost = stream.len() - clean.len();
        let rate = lost as f64 / stream.len() as f64;
        assert!(rate < 0.05, "lost {rate} of distinct edges at 2% target");
    }

    #[test]
    fn bloom_memory_is_fixed() {
        let filter = BloomDedup::new(100_000, 0.01, 0);
        // ~9.6 bits per expected item.
        assert!(filter.bytes() < 200_000);
    }

    #[test]
    fn counters_track_admissions() {
        let mut f = BloomDedup::new(100, 0.01, 1);
        assert!(f.admit(Edge::new(0, 1)));
        assert!(!f.admit(Edge::new(0, 1)));
        assert_eq!(f.admitted(), 1);
        assert_eq!(f.rejected(), 1);
    }
}
