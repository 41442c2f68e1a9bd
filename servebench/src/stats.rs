//! Order statistics over measured samples.

use std::time::Duration;

/// Samples per window of [`windowed_percentile`]: a window's p99 keeps
/// ten samples beyond it.
const WINDOW: usize = 1000;

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// Nearest-rank percentile of `values` (`q` in `0..=1`); 0 when empty.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Median (the mean of the middle two for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let sorted = sorted(values);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Percentile `q` of time-ordered `samples`: the median over consecutive
/// windows of about [`WINDOW`] samples each (pooled when there are fewer
/// than two windows), so that one disturbed stretch of a run moves it
/// little. Returns the value and the number of windows.
pub fn windowed_percentile(samples: &[f64], q: f64) -> (f64, usize) {
    let windows = samples.len() / WINDOW;
    if windows < 2 {
        return (percentile(samples, q), 1);
    }
    let per_window: Vec<f64> = samples
        .chunks(samples.len().div_ceil(windows))
        .map(|w| percentile(w, q))
        .collect();
    (median(&per_window), per_window.len())
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// A duration in microseconds.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_and_medians() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(percentile(&v, 0.5), 3.0);
        assert_eq!(percentile(&v, 0.99), 5.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn windowed_percentile_is_the_median_of_window_percentiles() {
        // Three windows of 1000: one disturbed (all 100), two calm.
        let mut samples = vec![1.0; 2000];
        samples.splice(1000..1000, vec![100.0; 1000]);
        assert_eq!(windowed_percentile(&samples, 0.99), (1.0, 3));
        // Fewer than two windows: pooled.
        assert_eq!(windowed_percentile(&samples[..1500], 0.99), (100.0, 1));
    }
}
