//! Protocol parameters and resilience bounds.

use std::fmt;

/// Parameters of one Turquois *k*-consensus instance.
///
/// The paper's constraints (§4, §5):
///
/// * `f < n/3` — Byzantine resilience;
/// * `(n + f)/2 < k ≤ n − f` — how many processes must decide.
///
/// # Example
///
/// ```
/// use turquois_core::config::Config;
/// let cfg = Config::new(10, 3, 7)?;
/// assert_eq!(cfg.quorum_min(), 7); // smallest count exceeding (n+f)/2
/// # Ok::<(), turquois_core::config::ConfigError>(())
/// ```
#[derive(Clone, Copy, Debug, Eq, PartialEq, Hash)]
pub struct Config {
    n: usize,
    f: usize,
    k: usize,
}

/// Errors constructing a [`Config`].
#[derive(Clone, Copy, Debug, Eq, PartialEq)]
pub enum ConfigError {
    /// `n` must be at least 1.
    ZeroProcesses,
    /// Violates `f < n/3`.
    TooManyByzantine {
        /// Total processes.
        n: usize,
        /// Requested Byzantine bound.
        f: usize,
    },
    /// Violates `(n + f)/2 < k ≤ n − f`.
    KOutOfRange {
        /// Total processes.
        n: usize,
        /// Byzantine bound.
        f: usize,
        /// Requested decision threshold.
        k: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, fm: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ZeroProcesses => write!(fm, "n must be at least 1"),
            ConfigError::TooManyByzantine { n, f } => {
                write!(fm, "f={f} violates f < n/3 for n={n}")
            }
            ConfigError::KOutOfRange { n, f, k } => {
                write!(fm, "k={k} violates (n+f)/2 < k <= n-f for n={n}, f={f}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

impl Config {
    /// Validates and constructs a configuration.
    ///
    /// # Errors
    ///
    /// See [`ConfigError`] for each violated constraint.
    pub fn new(n: usize, f: usize, k: usize) -> Result<Config, ConfigError> {
        if n == 0 {
            return Err(ConfigError::ZeroProcesses);
        }
        if 3 * f >= n {
            return Err(ConfigError::TooManyByzantine { n, f });
        }
        if 2 * k <= n + f || k > n - f {
            return Err(ConfigError::KOutOfRange { n, f, k });
        }
        Ok(Config { n, f, k })
    }

    /// The paper's evaluation configuration: `f = ⌊(n−1)/3⌋`,
    /// `k = n − f` (§7.2).
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] (only possible for `n = 0`).
    pub fn evaluation(n: usize) -> Result<Config, ConfigError> {
        if n == 0 {
            return Err(ConfigError::ZeroProcesses);
        }
        let f = (n - 1) / 3;
        Config::new(n, f, n - f)
    }

    /// Total number of processes.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of Byzantine processes tolerated.
    pub fn f(&self) -> usize {
        self.f
    }

    /// Number of processes required to decide.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `true` when `count` messages (from distinct senders) exceed the
    /// `(n + f)/2` quorum, computed in exact integer arithmetic.
    pub(crate) fn exceeds_quorum(&self, count: usize) -> bool {
        2 * count > self.n + self.f
    }

    /// `true` when `count` exceeds half a quorum, `((n + f)/2)/2`
    /// (used by the semantic validation of §6.2).
    pub(crate) fn exceeds_half_quorum(&self, count: usize) -> bool {
        4 * count > self.n + self.f
    }

    /// Smallest count that satisfies `Config::exceeds_quorum`.
    pub fn quorum_min(&self) -> usize {
        (self.n + self.f) / 2 + 1
    }

    /// Smallest count that satisfies `Config::exceeds_half_quorum`.
    pub fn half_quorum_min(&self) -> usize {
        (self.n + self.f) / 4 + 1
    }

    /// The omission-fault bound σ under which progress is guaranteed
    /// (§1, §5): `σ = ⌈(n − t)/2⌉ · (n − k − t) + k − 2`, where `t ≤ f`
    /// is the number of *actually* faulty processes.
    ///
    /// # Panics
    ///
    /// Panics if `t > f` or `k + t > n` (no such executions exist).
    pub fn sigma(&self, t: usize) -> usize {
        assert!(t <= self.f, "t={t} exceeds f={}", self.f);
        assert!(self.k + t <= self.n, "k + t exceeds n");
        let half_up = self.n - t; // ⌈(n - t)/2⌉
        let half_up = half_up / 2 + half_up % 2;
        // Saturating: degenerate configurations (n = 1, k = 1) would
        // otherwise underflow the `+ k − 2` term.
        (half_up * (self.n - self.k - t) + self.k).saturating_sub(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_configs() {
        assert!(Config::new(4, 1, 3).is_ok());
        assert!(Config::new(7, 2, 5).is_ok());
        assert!(Config::new(10, 3, 7).is_ok());
        assert!(Config::new(16, 5, 11).is_ok());
        assert!(Config::new(1, 0, 1).is_ok());
    }

    #[test]
    fn rejects_f_at_third() {
        assert_eq!(
            Config::new(3, 1, 2),
            Err(ConfigError::TooManyByzantine { n: 3, f: 1 })
        );
        assert_eq!(
            Config::new(9, 3, 6),
            Err(ConfigError::TooManyByzantine { n: 9, f: 3 })
        );
    }

    #[test]
    fn rejects_k_out_of_range() {
        // k too small: (n+f)/2 = 2.5 for n=4, f=1 → k must be ≥ 3.
        assert_eq!(
            Config::new(4, 1, 2),
            Err(ConfigError::KOutOfRange { n: 4, f: 1, k: 2 })
        );
        // k too large: k > n − f.
        assert_eq!(
            Config::new(4, 1, 4),
            Err(ConfigError::KOutOfRange { n: 4, f: 1, k: 4 })
        );
    }

    #[test]
    fn rejects_zero_processes() {
        assert_eq!(Config::new(0, 0, 0), Err(ConfigError::ZeroProcesses));
        assert_eq!(Config::evaluation(0), Err(ConfigError::ZeroProcesses));
    }

    #[test]
    fn evaluation_matches_paper() {
        for (n, f) in [(4, 1), (7, 2), (10, 3), (13, 4), (16, 5)] {
            let cfg = Config::evaluation(n).expect("paper sizes are valid");
            assert_eq!(cfg.f(), f, "n={n}");
            assert_eq!(cfg.k(), n - f, "n={n}");
        }
    }

    #[test]
    fn quorum_arithmetic_exact() {
        let cfg = Config::new(4, 1, 3).expect("valid");
        // (n+f)/2 = 2.5: quorum needs ≥ 3.
        assert!(!cfg.exceeds_quorum(2));
        assert!(cfg.exceeds_quorum(3));
        assert_eq!(cfg.quorum_min(), 3);
        // ((n+f)/2)/2 = 1.25: half-quorum needs ≥ 2.
        assert!(!cfg.exceeds_half_quorum(1));
        assert!(cfg.exceeds_half_quorum(2));
        assert_eq!(cfg.half_quorum_min(), 2);
    }

    #[test]
    fn quorum_min_consistent_with_predicate() {
        for n in 1..=40 {
            let Ok(cfg) = Config::evaluation(n) else {
                continue;
            };
            let q = cfg.quorum_min();
            assert!(cfg.exceeds_quorum(q));
            assert!(!cfg.exceeds_quorum(q - 1));
            let h = cfg.half_quorum_min();
            assert!(cfg.exceeds_half_quorum(h));
            assert!(!cfg.exceeds_half_quorum(h - 1));
        }
    }

    #[test]
    fn two_quorums_intersect_in_a_correct_process() {
        // The agreement lemma: any two quorums share more than f senders,
        // hence at least one correct one.
        for n in [4usize, 7, 10, 13, 16] {
            let cfg = Config::evaluation(n).expect("valid");
            let q = cfg.quorum_min();
            let overlap = 2 * q - n; // minimum overlap of two q-subsets of n
            assert!(
                overlap > cfg.f(),
                "n={n}: overlap {overlap} must exceed f={}",
                cfg.f()
            );
        }
    }

    #[test]
    fn sigma_formula() {
        // n=10, k=7, t=3: ⌈7/2⌉·(10−7−3) + 7 − 2 = 4·0 + 5 = 5.
        let cfg = Config::new(10, 3, 7).expect("valid");
        assert_eq!(cfg.sigma(3), 5);
        // t=0: ⌈10/2⌉·(10−7) + 5 = 5·3 + 5 = 20.
        assert_eq!(cfg.sigma(0), 20);
    }

    #[test]
    #[should_panic(expected = "exceeds f")]
    fn sigma_rejects_large_t() {
        let cfg = Config::new(10, 3, 7).expect("valid");
        let _ = cfg.sigma(4);
    }

    #[test]
    fn display_of_errors() {
        let e = Config::new(3, 1, 2).unwrap_err();
        assert!(e.to_string().contains("f < n/3"));
        let e = Config::new(4, 1, 4).unwrap_err();
        assert!(e.to_string().contains("k"));
    }
}
