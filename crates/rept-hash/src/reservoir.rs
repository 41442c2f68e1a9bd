//! Fixed-budget reservoir sampling (Vitter's Algorithm R).
//!
//! This is the sampling substrate of the TRIÈST baseline (De Stefani et al.,
//! KDD 2016): maintain a uniform sample of exactly `min(t, M)` of the first
//! `t` stream items using `M` slots. At time `t > M`, the arriving item is
//! kept with probability `M/t`, replacing a uniformly random resident.

use crate::rng::SplitMix64;

/// Decision returned by [`ReservoirSampler::offer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservoirDecision<T> {
    /// The item was appended; the reservoir was not yet full.
    Inserted,
    /// The item replaced the returned evicted item.
    Replaced(T),
    /// The item was rejected; the reservoir is unchanged.
    Rejected,
}

/// A uniform fixed-size reservoir over a stream of `T`.
#[derive(Debug, Clone)]
pub struct ReservoirSampler<T> {
    items: Vec<T>,
    budget: usize,
    /// Number of items offered so far (the stream clock `t`).
    seen: u64,
    rng: SplitMix64,
}

impl<T> ReservoirSampler<T> {
    /// Creates a reservoir with capacity `budget`, using the given seed for
    /// all replacement decisions. Nothing is reserved up front: the
    /// slots grow as items arrive, never past `budget`.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`.
    pub fn new(budget: usize, seed: u64) -> Self {
        assert!(budget > 0, "reservoir budget must be positive");
        Self {
            items: Vec::new(),
            budget,
            seen: 0,
            rng: SplitMix64::new(seed),
        }
    }

    /// Offers the next stream item; returns what happened to it.
    pub fn offer(&mut self, item: T) -> ReservoirDecision<T>
    where
        T: Copy,
    {
        self.seen += 1;
        let len = self.items.len();
        if len < self.budget {
            if len == self.items.capacity() {
                // Double, but never past the budget: the slots then
                // hold no more than the `budget` they are charged for.
                self.items.reserve_exact(len.clamp(1, self.budget - len));
            }
            self.items.push(item);
            return ReservoirDecision::Inserted;
        }
        // Keep with probability M/t.
        if self.rng.next_below(self.seen) < self.budget as u64 {
            let slot = self.rng.next_below(self.budget as u64) as usize;
            let evicted = std::mem::replace(&mut self.items[slot], item);
            ReservoirDecision::Replaced(evicted)
        } else {
            ReservoirDecision::Rejected
        }
    }

    /// Current sample contents (order is an implementation detail, but it
    /// is part of the checkpointed state: slot indices drawn by future
    /// replacements refer to it, so [`Self::from_parts`] must restore it
    /// exactly).
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// The raw RNG state, for checkpointing alongside [`Self::items`] and
    /// [`Self::seen`].
    pub fn rng_state(&self) -> u64 {
        self.rng.state()
    }

    /// Reconstructs a reservoir mid-stream from checkpointed parts — the
    /// inverse of reading `items()` / `seen()` / `rng_state()`. The
    /// restored sampler makes bit-identical decisions to one that was
    /// never interrupted.
    ///
    /// # Panics
    ///
    /// Panics if `budget == 0`, if more than `budget` items are supplied,
    /// or if `seen` is smaller than the number of items (the clock counts
    /// every offer, including the ones that filled the reservoir).
    pub fn from_parts(budget: usize, items: Vec<T>, seen: u64, rng_state: u64) -> Self {
        assert!(budget > 0, "reservoir budget must be positive");
        assert!(items.len() <= budget, "more items than budget");
        assert!(seen >= items.len() as u64, "clock behind the sample");
        Self {
            items,
            budget,
            seen,
            rng: SplitMix64::from_state(rng_state),
        }
    }

    /// The stream clock: number of items offered so far.
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// The configured capacity `M`.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// True once the reservoir holds `M` items.
    pub fn is_full(&self) -> bool {
        self.items.len() == self.budget
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_then_holds_budget() {
        let mut r = ReservoirSampler::new(10, 1);
        for i in 0..100u32 {
            r.offer(i);
            assert!(r.items().len() <= 10);
        }
        assert_eq!(r.items().len(), 10);
        assert_eq!(r.seen(), 100);
        assert!(r.is_full());
    }

    #[test]
    fn short_stream_keeps_everything() {
        let mut r = ReservoirSampler::new(10, 2);
        for i in 0..5u32 {
            assert!(matches!(r.offer(i), ReservoirDecision::Inserted));
        }
        let mut items = r.items().to_vec();
        items.sort_unstable();
        assert_eq!(items, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn inclusion_probability_is_uniform() {
        // Each of the first t items must be in the sample w.p. M/t.
        // Stream of 50 items, M = 10 → every item included w.p. 0.2.
        let trials = 20_000;
        let mut counts = [0u32; 50];
        for seed in 0..trials {
            let mut r = ReservoirSampler::new(10, seed);
            for i in 0..50u32 {
                r.offer(i);
            }
            for &it in r.items() {
                counts[it as usize] += 1;
            }
        }
        let expected = trials as f64 * 10.0 / 50.0;
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - expected).abs() < expected * 0.12,
                "item {i} count {c}, expected {expected}"
            );
        }
    }

    #[test]
    fn replacement_reports_evicted_item() {
        let mut r = ReservoirSampler::new(1, 3);
        assert!(matches!(r.offer(7u32), ReservoirDecision::Inserted));
        // Offer many items; every acceptance must evict the current one.
        let mut current = 7u32;
        for i in 100..200u32 {
            match r.offer(i) {
                ReservoirDecision::Replaced(old) => {
                    assert_eq!(old, current);
                    current = i;
                }
                ReservoirDecision::Rejected => {}
                ReservoirDecision::Inserted => panic!("reservoir was already full"),
            }
        }
        assert_eq!(r.items(), &[current]);
    }

    #[test]
    fn budget_reserves_nothing_up_front() {
        // A budget far beyond memory must cost nothing until items
        // arrive, and the slots never outgrow it.
        let mut huge = ReservoirSampler::new(1 << 40, 4);
        for i in 0..3u32 {
            assert!(matches!(huge.offer(i), ReservoirDecision::Inserted));
        }
        assert!(huge.items.capacity() < 1 << 10);
        let mut small = ReservoirSampler::new(5, 4);
        for i in 0..100u32 {
            small.offer(i);
        }
        assert!(small.items.capacity() <= 5, "{}", small.items.capacity());
        let restored = ReservoirSampler::from_parts(1 << 40, vec![1u32, 2], 2, 9);
        assert_eq!(restored.items(), &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_budget_rejected() {
        ReservoirSampler::<u32>::new(0, 0);
    }

    #[test]
    fn from_parts_resumes_bit_identically() {
        // Freeze a reservoir mid-stream, restore it, and require the
        // resumed copy to make the same decisions as the original.
        let mut live = ReservoirSampler::new(8, 17);
        for i in 0..50u32 {
            live.offer(i);
        }
        let mut resumed = ReservoirSampler::from_parts(
            live.budget(),
            live.items().to_vec(),
            live.seen(),
            live.rng_state(),
        );
        for i in 50..300u32 {
            assert_eq!(live.offer(i), resumed.offer(i), "offer {i}");
            assert_eq!(live.items(), resumed.items(), "after offer {i}");
        }
        assert_eq!(live.seen(), resumed.seen());
    }
}
