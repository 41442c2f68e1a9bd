//! Interval-based monitoring — the paper's §II deployment scenario as an
//! API.
//!
//! "Π is a network packet stream collected on a router in a time interval
//! (e.g., one hour in a day), and one wants to compute global and local
//! triangle counts for each interval." [`IntervalEstimator`] wraps
//! [`Rept`]: feed it edges tagged with interval boundaries (or use
//! [`IntervalEstimator::run_windows`] over count-based windows) and it
//! produces one [`ReptEstimate`] per interval, resetting processor state
//! at each boundary while reusing the same configuration and deriving a
//! fresh hash seed per interval (estimates across intervals stay
//! independent — important when differencing consecutive intervals for
//! anomaly scores).
//!
//! The per-interval seed derivation ([`IntervalEstimator::config_for`])
//! is also the contract the serving tier builds on: a `rept-serve`
//! tenant created with `interval=i` runs under exactly
//! `config_for(i)`, so a live sliding-window deployment and this batch
//! driver produce bit-identical per-window estimates from the same
//! edges.

use rept_graph::edge::Edge;
use rept_hash::rng::SplitMix64;

use crate::config::ReptConfig;
use crate::estimate::ReptEstimate;
use crate::estimator::{Engine, Rept};

/// Per-interval estimation driver.
#[derive(Debug, Clone, Copy)]
pub struct IntervalEstimator {
    base: ReptConfig,
}

/// One interval's result.
#[derive(Debug, Clone)]
pub struct IntervalResult {
    /// Zero-based interval index.
    pub index: u64,
    /// Number of edges the interval contained.
    pub edges: usize,
    /// The interval's estimate.
    pub estimate: ReptEstimate,
}

impl IntervalEstimator {
    /// Creates a driver; `base.seed` seeds the per-interval hash sequence.
    pub fn new(base: ReptConfig) -> Self {
        Self { base }
    }

    /// The base configuration the per-interval configs are derived from.
    pub fn base(&self) -> &ReptConfig {
        &self.base
    }

    /// The configuration an interval with this index runs under. This
    /// derivation is a stable contract: interval-derived serving
    /// tenants (`rept-serve`) and checkpointed deployments rely on
    /// `config_for(i)` producing the same seed across processes and
    /// releases.
    pub fn config_for(&self, interval: u64) -> ReptConfig {
        // Independent hash per interval, derived from the base seed.
        let seed = SplitMix64::new(self.base.seed).fork(interval).next_u64();
        ReptConfig { seed, ..self.base }
    }

    /// Estimates one interval's stream.
    pub fn run_interval(&self, index: u64, edges: &[Edge]) -> IntervalResult {
        let est = Rept::new(self.config_for(index)).run(Engine::PerWorker, edges);
        IntervalResult {
            index,
            edges: edges.len(),
            estimate: est,
        }
    }

    /// Splits `stream` into consecutive count-based windows of
    /// `window_len` edges and estimates each.
    ///
    /// # Panics
    ///
    /// Panics if `window_len == 0`.
    pub fn run_windows(&self, stream: &[Edge], window_len: usize) -> Vec<IntervalResult> {
        rept_graph::stream::windows(stream, window_len)
            .enumerate()
            .map(|(i, w)| self.run_interval(i as u64, w))
            .collect()
    }
}

/// A robust spike detector over an interval series: flags intervals whose
/// estimate exceeds `factor ×` the median of previously *unflagged*
/// intervals. Needs at least `warmup` clean intervals before it starts
/// flagging. This is the detection rule the `anomaly_detection` example
/// demonstrates, packaged for reuse.
#[derive(Debug, Clone)]
pub struct SpikeDetector {
    history: Vec<f64>,
    factor: f64,
    warmup: usize,
}

impl SpikeDetector {
    /// Creates a detector flagging `> factor × median` spikes after
    /// `warmup` clean intervals.
    ///
    /// # Panics
    ///
    /// Panics unless `factor > 1` and `warmup ≥ 1`.
    pub fn new(factor: f64, warmup: usize) -> Self {
        assert!(factor > 1.0, "factor must exceed 1");
        assert!(warmup >= 1, "need at least one warmup interval");
        Self {
            history: Vec::new(),
            factor,
            warmup,
        }
    }

    /// Feeds the next interval's estimate; returns `true` if it is
    /// flagged as a spike (flagged intervals do not enter the baseline).
    pub fn observe(&mut self, estimate: f64) -> bool {
        let spike = if self.history.len() >= self.warmup {
            let mut sorted = self.history.clone();
            sorted.sort_by(f64::total_cmp);
            let median = sorted[sorted.len() / 2];
            estimate > self.factor * median.max(1.0)
        } else {
            false
        };
        if !spike {
            self.history.push(estimate);
        }
        spike
    }

    /// Number of clean intervals in the baseline.
    pub fn baseline_len(&self) -> usize {
        self.history.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rept_gen::{complete, erdos_renyi, GeneratorConfig};

    #[test]
    fn windows_partition_and_estimate() {
        // 3 windows: triangle-free, dense, triangle-free.
        let quiet1 = erdos_renyi(&GeneratorConfig::new(500, 1), 300);
        let burst = complete(20); // τ = 1140, 190 edges padded below
        let quiet2 = erdos_renyi(&GeneratorConfig::new(500, 2), 300);
        let mut stream = Vec::new();
        stream.extend(&quiet1);
        stream.extend(&burst);
        stream.extend(burst.iter().rev().take(110)); // duplicates, ignored by τ
        stream.extend(&quiet2);

        let driver = IntervalEstimator::new(ReptConfig::new(3, 3).with_seed(9));
        let results = driver.run_windows(&stream, 300);
        assert_eq!(results.len(), stream.len().div_ceil(300));
        assert_eq!(results[0].edges, 300);
        // The burst window should carry a much larger estimate.
        let max = results
            .iter()
            .max_by(|a, b| a.estimate.global.total_cmp(&b.estimate.global))
            .unwrap();
        assert_eq!(max.index, 1, "burst lands in window 1");
        assert!(max.estimate.global > 10.0 * results[0].estimate.global.max(1.0));
    }

    #[test]
    fn per_interval_seeds_differ_but_are_stable() {
        let driver = IntervalEstimator::new(ReptConfig::new(4, 4).with_seed(5));
        assert_ne!(driver.config_for(0).seed, driver.config_for(1).seed);
        assert_eq!(driver.config_for(3).seed, driver.config_for(3).seed);
        // Other fields carried over.
        assert_eq!(driver.config_for(0).m, 4);
        assert_eq!(driver.config_for(0).c, 4);
    }

    #[test]
    fn spike_detector_flags_only_spikes() {
        let mut d = SpikeDetector::new(5.0, 2);
        assert!(!d.observe(10.0), "warmup");
        assert!(!d.observe(12.0), "warmup");
        assert!(!d.observe(11.0));
        assert!(d.observe(500.0), "spike must flag");
        // Spike did not poison the baseline.
        assert_eq!(d.baseline_len(), 3);
        assert!(!d.observe(13.0));
    }

    #[test]
    fn spike_detector_handles_zero_baseline() {
        let mut d = SpikeDetector::new(5.0, 1);
        assert!(!d.observe(0.0));
        assert!(!d.observe(0.0));
        // median 0 clamps to 1.0, so 6 > 5 flags.
        assert!(d.observe(6.0));
    }

    #[test]
    #[should_panic(expected = "factor")]
    fn bad_factor_panics() {
        SpikeDetector::new(1.0, 1);
    }
}
