//! Order statistics of repeated timings.
//!
//! A bench row is not one run: the in-tree benches time every variant
//! several times and summarise those latencies as a [`Spread`] — the
//! minimum and the three quartiles — so a reader sees how far one run
//! strays from the next. The quartiles are those of Python's
//! `statistics.quantiles(data, n=4)` (its default, exclusive method),
//! which `servebench/reps.py` reports, so an in-tree row and a
//! benchmark summary read alike.

/// The minimum and the quartiles of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// The smallest sample.
    pub min: f64,
    /// The first quartile.
    pub q1: f64,
    /// The median.
    pub median: f64,
    /// The third quartile.
    pub q3: f64,
}

impl Spread {
    /// The spread of `samples`, or `None` when there are none. A single
    /// sample is every quartile, as in `reps.py`.
    pub fn of(samples: &[f64]) -> Option<Self> {
        let mut x = samples.to_vec();
        x.sort_by(f64::total_cmp);
        let n = x.len();
        let quartile = |i: usize| {
            if n == 1 {
                return x[0];
            }
            // `statistics.quantiles`' exclusive method: the i-th cut
            // lies at rank i·(n+1)/4, interpolated between the two
            // samples around it (and extrapolated past the ends when
            // n < 3, as Python does).
            let j = (i * (n + 1) / 4).clamp(1, n - 1);
            let delta = (i * (n + 1)) as f64 - (4 * j) as f64;
            (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
        };
        let min = *x.first()?;
        Some(Self {
            min,
            q1: quartile(1),
            median: quartile(2),
            q3: quartile(3),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spread(samples: impl IntoIterator<Item = u32>) -> Spread {
        let samples: Vec<f64> = samples.into_iter().map(f64::from).collect();
        Spread::of(&samples).expect("samples")
    }

    #[test]
    fn empty_recorder() {
        assert_eq!(Spread::of(&[]), None);
    }

    /// `statistics.quantiles(range(1, 6), n=4)` is `[1.5, 3.0, 4.5]`,
    /// and `range(1, 11)` gives `[2.75, 5.5, 8.25]`; `[1, 2]`
    /// extrapolates to `[0.75, 1.5, 2.25]`.
    #[test]
    fn quartiles_match_python_exclusive_quantiles() {
        let s = spread(1..=5);
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 1.5, 3.0, 4.5));
        let s = spread((1..=10).rev());
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 2.75, 5.5, 8.25));
        let s = spread([2, 1]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (1.0, 0.75, 1.5, 2.25));
        // The median is `statistics.median` for both parities.
        assert_eq!(spread([4, 1, 3, 2]).median, 2.5);
    }

    #[test]
    fn single_sample_is_every_percentile() {
        let s = spread([7]);
        assert_eq!((s.min, s.q1, s.median, s.q3), (7.0, 7.0, 7.0, 7.0));
    }
}
