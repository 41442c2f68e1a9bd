//! REPT configuration.

/// The largest processor count `c` accepted from outside input — a
/// tenant's options or manifest and a checkpoint header — checked
/// before anything is sized by `c`. Far above any deployment here (the
/// largest `c` any bench or workload runs is 256); a header or request
/// naming more is refused with a typed error instead of letting
/// [`crate::Rept::new`] allocate a group per `m` processors.
pub const MAX_PROCESSORS: u64 = 1 << 16;

/// How the per-edge triangle counters `τ⁽ⁱ⁾_(u,v)` used for η tracking are
/// initialised when an edge enters a partition cell.
///
/// The paper's Algorithm 2 sets `τ⁽ⁱ⁾_(u,v) ← |N⁽ⁱ⁾_{u,v}|` at insertion
/// time, which also counts the semi-triangles whose *last* edge is
/// `(u, v)`. Pairs formed through those triangles have the shared edge as
/// the last edge of one member, which the definition of `η` (Table I)
/// excludes — so the faithful bookkeeping carries a small positive bias of
/// order `1/m` relative to strict `η`. The bias only perturbs the
/// Graybill–Deal *weights* (never the unbiasedness of `τ̂`), so it is
/// harmless in practice; we implement both modes and quantify the
/// difference in the `ablation_eta` experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EtaMode {
    /// Initialise to `|N⁽ⁱ⁾_{u,v}|` exactly as printed in Algorithm 2.
    #[default]
    PaperInit,
    /// Initialise to zero, so `m³·η⁽ⁱ⁾` is an exactly unbiased estimate of
    /// the η defined in Table I (only non-last shared edges counted).
    StrictNonLast,
}

/// Configuration of a REPT run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReptConfig {
    /// Partition size `m ≥ 2`; the edge-sampling probability is `p = 1/m`.
    pub m: u64,
    /// Number of processors `c ≥ 1`. May exceed `m` (Algorithm 2).
    pub c: u64,
    /// Master seed for the hash family (`h` for `c ≤ m`; `h₁, h₂, …` for
    /// the groups of Algorithm 2).
    pub seed: u64,
    /// Track local (per-node) counts. Off saves the per-node maps when an
    /// experiment only needs `τ̂`.
    pub track_locals: bool,
    /// Track η counters. Forced on internally when the estimator needs
    /// `η̂` for combination weights (`c > m` with `c % m ≠ 0`).
    pub track_eta: bool,
    /// η bookkeeping mode (see [`EtaMode`]).
    pub eta_mode: EtaMode,
}

impl ReptConfig {
    /// Creates a config with locals tracked and paper-faithful η mode.
    ///
    /// # Panics
    ///
    /// Panics if `m < 2` (the paper requires `p = 1/m`, `m ∈ {2, 3, …}`)
    /// or `c < 1`.
    pub fn new(m: u64, c: u64) -> Self {
        assert!(m >= 2, "REPT requires m ≥ 2 (p = 1/m must be < 1)");
        assert!(c >= 1, "need at least one processor");
        Self {
            m,
            c,
            seed: 0,
            track_locals: true,
            track_eta: false,
            eta_mode: EtaMode::PaperInit,
        }
    }

    /// Sets the hash seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Enables/disables local tracking.
    pub fn with_locals(mut self, on: bool) -> Self {
        self.track_locals = on;
        self
    }

    /// Enables η tracking regardless of whether combination needs it.
    pub fn with_eta(mut self, on: bool) -> Self {
        self.track_eta = on;
        self
    }

    /// Selects the η bookkeeping mode.
    pub fn with_eta_mode(mut self, mode: EtaMode) -> Self {
        self.eta_mode = mode;
        self
    }

    /// Sampling probability `p = 1/m`.
    pub fn p(&self) -> f64 {
        1.0 / self.m as f64
    }

    /// Number of full groups `c₁ = ⌊c/m⌋` (Algorithm 2 notation).
    pub fn c1(&self) -> u64 {
        self.c / self.m
    }

    /// Remainder group size `c₂ = c mod m`.
    pub fn c2(&self) -> u64 {
        self.c % self.m
    }

    /// True when the run needs η̂ for Graybill–Deal weights.
    pub fn needs_eta(&self) -> bool {
        self.track_eta || (self.c > self.m && self.c2() != 0)
    }

    /// Number of hash groups the processors form: one for `c ≤ m`,
    /// otherwise `c₁` full groups plus a remainder group when `c₂ ≠ 0`.
    /// This is the unit of distribution — groups never communicate
    /// mid-stream, so a cluster can hold at most this many shards.
    pub fn group_count(&self) -> u64 {
        if self.c <= self.m {
            1
        } else {
            self.c1() + u64::from(self.c2() != 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_arithmetic() {
        let cfg = ReptConfig::new(10, 32);
        assert_eq!(cfg.c1(), 3);
        assert_eq!(cfg.c2(), 2);
        assert!(cfg.needs_eta());
        assert_eq!(cfg.group_count(), 4);

        let exact = ReptConfig::new(10, 30);
        assert_eq!(exact.c1(), 3);
        assert_eq!(exact.c2(), 0);
        assert!(!exact.needs_eta());
        assert_eq!(exact.group_count(), 3);

        let small = ReptConfig::new(10, 7);
        assert_eq!(small.c1(), 0);
        assert_eq!(small.c2(), 7);
        assert!(!small.needs_eta(), "c ≤ m needs no η for combining");
        assert_eq!(small.group_count(), 1);
    }

    #[test]
    fn p_is_reciprocal_m() {
        assert_eq!(ReptConfig::new(4, 1).p(), 0.25);
    }

    #[test]
    fn builder_flags() {
        let cfg = ReptConfig::new(5, 5)
            .with_seed(9)
            .with_locals(false)
            .with_eta(true)
            .with_eta_mode(EtaMode::StrictNonLast);
        assert_eq!(cfg.seed, 9);
        assert!(!cfg.track_locals);
        assert!(cfg.needs_eta());
        assert_eq!(cfg.eta_mode, EtaMode::StrictNonLast);
    }

    #[test]
    #[should_panic(expected = "m ≥ 2")]
    fn m_one_rejected() {
        ReptConfig::new(1, 1);
    }

    #[test]
    #[should_panic(expected = "at least one processor")]
    fn zero_processors_rejected() {
        ReptConfig::new(2, 0);
    }
}
