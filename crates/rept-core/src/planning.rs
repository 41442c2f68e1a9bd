//! Deployment planning and confidence intervals.
//!
//! The paper says "one can set a proper value of parameter p … to achieve
//! desired time and space complexities" (§I) but leaves the choosing to
//! the reader. This module operationalises it using the closed-form
//! variances of [`crate::variance`]:
//!
//! * [`recommend_m`] — the smallest `m` whose expected per-processor
//!   storage `|E|/m` fits a memory budget;
//! * [`required_c`] — the smallest processor count that reaches a target
//!   NRMSE at a given `m` (needs `τ`/`η` guesses — from a previous
//!   interval, a pilot run, or [`crate::estimate::ReptEstimate::eta_hat`]);
//! * [`confidence_interval`] — a plug-in interval around `τ̂` using the
//!   estimated variance, with Gaussian or Chebyshev width (Gaussian is
//!   accurate for the many-processor regime where `τ̂` is an average of
//!   many weakly-dependent terms; Chebyshev is assumption-free).

use crate::estimate::ReptEstimate;
use crate::variance::rept_variance;

/// A two-sided interval around the estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Lower endpoint (clamped at 0 — counts are non-negative).
    pub lower: f64,
    /// Upper endpoint.
    pub upper: f64,
    /// Nominal coverage level in `(0, 1)`.
    pub level: f64,
}

impl ConfidenceInterval {
    /// True if the interval contains `x`.
    pub fn contains(&self, x: f64) -> bool {
        self.lower <= x && x <= self.upper
    }

    /// Interval half-width.
    pub fn half_width(&self) -> f64 {
        (self.upper - self.lower) / 2.0
    }
}

/// How interval width is derived from the variance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntervalMethod {
    /// `±z_{α/2}·σ` — accurate when `τ̂` is approximately normal.
    Gaussian,
    /// `±σ/√α` — valid for any distribution (Chebyshev), much wider.
    Chebyshev,
}

fn z_for(level: f64) -> f64 {
    // Abramowitz–Stegun rational approximation of the normal quantile
    // would be overkill; the harness only ever asks for standard levels,
    // and interpolating between them is fine for interval *guidance*.
    const TABLE: [(f64, f64); 5] = [
        (0.80, 1.2816),
        (0.90, 1.6449),
        (0.95, 1.9600),
        (0.99, 2.5758),
        (0.999, 3.2905),
    ];
    if level <= TABLE[0].0 {
        return TABLE[0].1;
    }
    for w in TABLE.windows(2) {
        let ((l0, z0), (l1, z1)) = (w[0], w[1]);
        if level <= l1 {
            let t = (level - l0) / (l1 - l0);
            return z0 + t * (z1 - z0);
        }
    }
    TABLE[4].1
}

/// Builds a plug-in confidence interval around `est.global`.
///
/// The variance is [`rept_variance`] with `τ ← τ̂` and `η ← η̂`; `η̂`
/// falls back to 0 when the run did not track η (then the interval is
/// exact for `c % m = 0`, where η does not enter, and *too narrow*
/// otherwise — enable `track_eta` for honest widths in the `c < m`
/// regimes).
///
/// # Panics
///
/// Panics unless `0 < level < 1`.
pub fn confidence_interval(
    est: &ReptEstimate,
    level: f64,
    method: IntervalMethod,
) -> ConfidenceInterval {
    assert!(level > 0.0 && level < 1.0, "level must be in (0,1)");
    let variance = rept_variance(
        est.global.max(0.0),
        est.eta_hat.unwrap_or(0.0).max(0.0),
        est.diagnostics.m,
        est.diagnostics.c,
    );
    let sigma = variance.max(0.0).sqrt();
    let width = match method {
        IntervalMethod::Gaussian => z_for(level) * sigma,
        IntervalMethod::Chebyshev => sigma / (1.0 - level).sqrt(),
    };
    ConfidenceInterval {
        lower: (est.global - width).max(0.0),
        upper: est.global + width,
        level,
    }
}

/// The smallest `m ≥ 2` whose expected per-processor storage
/// `stream_edges / m` fits within `per_processor_edges`.
///
/// # Panics
///
/// Panics if `per_processor_edges == 0`.
pub fn recommend_m(stream_edges: u64, per_processor_edges: u64) -> u64 {
    assert!(per_processor_edges > 0, "memory budget must be positive");
    stream_edges.div_ceil(per_processor_edges).max(2)
}

/// The smallest `c ≤ max_c` whose predicted NRMSE (via [`rept_variance`]
/// with the supplied `τ`/`η` guesses) reaches `target_nrmse`. `None` when
/// even `max_c` is insufficient or `τ = 0`.
///
/// # Panics
///
/// Panics unless `target_nrmse > 0`, `m ≥ 2` and `max_c ≥ 1`.
pub fn required_c(
    tau_guess: f64,
    eta_guess: f64,
    m: u64,
    target_nrmse: f64,
    max_c: u64,
) -> Option<u64> {
    assert!(target_nrmse > 0.0, "target must be positive");
    assert!(m >= 2 && max_c >= 1);
    if tau_guess <= 0.0 {
        return None;
    }
    // rept_variance is not perfectly monotone in c across the c ≤ m /
    // grouped boundary (the mixed case can beat c+1 slightly), so scan.
    (1..=max_c).find(|&c| {
        let nrmse = rept_variance(tau_guess, eta_guess, m, c).sqrt() / tau_guess;
        nrmse <= target_nrmse
    })
}

/// A complete deployment recommendation for a memory budget and an
/// accuracy target.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Partition size (sampling probability `1/m`).
    pub m: u64,
    /// Processor count.
    pub c: u64,
    /// NRMSE the plan predicts.
    pub predicted_nrmse: f64,
}

/// Plans `(m, c)` given the stream size, a per-processor edge budget, an
/// NRMSE target, a processor ceiling, and `τ`/`η` guesses. `None` when
/// the target is unreachable within `max_c`.
pub fn plan(
    stream_edges: u64,
    per_processor_edges: u64,
    target_nrmse: f64,
    max_c: u64,
    tau_guess: f64,
    eta_guess: f64,
) -> Option<Plan> {
    let m = recommend_m(stream_edges, per_processor_edges);
    let c = required_c(tau_guess, eta_guess, m, target_nrmse, max_c)?;
    let predicted_nrmse = rept_variance(tau_guess, eta_guess, m, c).sqrt() / tau_guess;
    Some(Plan {
        m,
        c,
        predicted_nrmse,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ReptConfig;
    use crate::estimator::{Engine, Rept};
    use rept_gen::complete;

    #[test]
    fn z_values_are_standard() {
        assert!((z_for(0.95) - 1.96).abs() < 1e-9);
        assert!((z_for(0.99) - 2.5758).abs() < 1e-9);
        assert!(z_for(0.5) > 1.0, "clamped at the table floor");
        assert!(z_for(0.9999) >= z_for(0.999));
        // Interpolation is monotone.
        assert!(z_for(0.93) > z_for(0.90) && z_for(0.93) < z_for(0.95));
    }

    #[test]
    fn recommend_m_fits_budget() {
        assert_eq!(recommend_m(100_000, 10_000), 10);
        assert_eq!(recommend_m(100_000, 100_000), 2, "floor at 2");
        assert_eq!(recommend_m(100_001, 10_000), 11);
    }

    #[test]
    fn required_c_is_minimal() {
        let (tau, eta, m) = (1e4, 1e6, 10u64);
        let target = 0.05;
        let c = required_c(tau, eta, m, target, 1000).expect("reachable");
        let nrmse_at = |c: u64| rept_variance(tau, eta, m, c).sqrt() / tau;
        assert!(nrmse_at(c) <= target);
        if c > 1 {
            assert!(nrmse_at(c - 1) > target, "c−1 must miss the target");
        }
    }

    #[test]
    fn required_c_unreachable() {
        assert_eq!(required_c(1e4, 1e8, 100, 1e-9, 10), None);
        assert_eq!(required_c(0.0, 0.0, 10, 0.1, 10), None);
    }

    #[test]
    fn plan_combines_both() {
        let plan = plan(1_000_000, 50_000, 0.1, 10_000, 1e5, 1e7).expect("feasible");
        assert_eq!(plan.m, 20);
        assert!(plan.predicted_nrmse <= 0.1);
        assert!(plan.c >= 1);
    }

    #[test]
    fn chebyshev_is_wider_than_gaussian() {
        let est = Rept::new(ReptConfig::new(4, 4).with_seed(1).with_eta(true))
            .run(Engine::PerWorker, &complete(14));
        let g = confidence_interval(&est, 0.95, IntervalMethod::Gaussian);
        let c = confidence_interval(&est, 0.95, IntervalMethod::Chebyshev);
        assert!(c.half_width() > g.half_width());
        assert!(g.contains(est.global));
        assert!(g.lower >= 0.0);
    }

    #[test]
    fn gaussian_interval_covers_truth_most_of_the_time() {
        // K14: τ = 364. 95% interval should cover ≥ ~80% of trials (the
        // plug-in variance is itself noisy, so demand less than nominal).
        let stream = complete(14);
        let tau = 364.0;
        let trials = 200;
        let covered = (0..trials)
            .filter(|&s| {
                let est = Rept::new(ReptConfig::new(3, 3).with_seed(s).with_eta(true))
                    .run(Engine::PerWorker, &stream);
                confidence_interval(&est, 0.95, IntervalMethod::Gaussian).contains(tau)
            })
            .count();
        assert!(
            covered as f64 / trials as f64 > 0.8,
            "coverage {covered}/{trials}"
        );
    }

    #[test]
    #[should_panic(expected = "level")]
    fn bad_level_panics() {
        let est = Rept::new(ReptConfig::new(2, 2)).run(Engine::PerWorker, &[]);
        confidence_interval(&est, 1.5, IntervalMethod::Gaussian);
    }
}
