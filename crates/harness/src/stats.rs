//! Latency statistics: mean and 95 % confidence interval, matching the
//! paper's methodology (§7.2: 50 repetitions, average over all
//! processes, 95 % confidence level).

/// Two-sided 97.5 % Student-t quantiles by degrees of freedom (for a
/// 95 % confidence interval).
const T_975: &[(usize, f64)] = &[
    (1, 12.706),
    (2, 4.303),
    (3, 3.182),
    (4, 2.776),
    (5, 2.571),
    (6, 2.447),
    (7, 2.365),
    (8, 2.306),
    (9, 2.262),
    (10, 2.228),
    (12, 2.179),
    (15, 2.131),
    (20, 2.086),
    (25, 2.060),
    (30, 2.042),
    (40, 2.021),
    (60, 2.000),
    (120, 1.980),
];

/// The 97.5 % Student-t quantile for `dof` degrees of freedom
/// (conservative interpolation: the next-lower tabulated entry).
///
/// # Panics
///
/// Panics for `dof == 0` (no confidence interval exists for a single
/// sample).
pub(crate) fn t_quantile_975(dof: usize) -> f64 {
    assert!(dof >= 1, "confidence interval needs at least 2 samples");
    let mut best = T_975[0].1;
    for &(d, t) in T_975 {
        if dof >= d {
            best = t;
        }
    }
    if dof > 120 {
        1.96
    } else {
        best
    }
}

/// Mean ± half-width of the 95 % confidence interval over a sample set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LatencyStats {
    /// Sample mean, in milliseconds.
    pub mean_ms: f64,
    /// Half-width of the 95 % confidence interval, in milliseconds
    /// (zero for a single sample).
    pub(crate) ci_ms: f64,
    /// Number of samples.
    pub samples: usize,
}

impl LatencyStats {
    /// Computes stats from raw samples (milliseconds).
    ///
    /// # Panics
    ///
    /// Panics on an empty sample set.
    pub(crate) fn from_samples(samples: &[f64]) -> LatencyStats {
        assert!(!samples.is_empty(), "no samples");
        let n = samples.len();
        let mean = samples.iter().sum::<f64>() / n as f64;
        if n == 1 {
            return LatencyStats {
                mean_ms: mean,
                ci_ms: 0.0,
                samples: 1,
            };
        }
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        let se = (var / n as f64).sqrt();
        LatencyStats {
            mean_ms: mean,
            ci_ms: t_quantile_975(n - 1) * se,
            samples: n,
        }
    }

    /// Formats as the paper's tables do: `mean ± ci`.
    pub fn display(&self) -> String {
        format!("{:.2} ± {:.2}", self.mean_ms, self.ci_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t_quantiles_monotone_decreasing() {
        let mut last = f64::INFINITY;
        for dof in 1..=200 {
            let t = t_quantile_975(dof);
            assert!(t <= last + 1e-12, "dof={dof}");
            last = t;
        }
        assert!((t_quantile_975(1) - 12.706).abs() < 1e-9);
        assert!((t_quantile_975(49) - 2.021).abs() < 1e-9, "49 dof → 40 row");
        assert!((t_quantile_975(1000) - 1.96).abs() < 1e-9);
    }

    #[test]
    fn latency_stats_known_values() {
        // Samples 1..=5: mean 3, sd sqrt(2.5), se sqrt(0.5), t(4)=2.776.
        let s = LatencyStats::from_samples(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert!((s.mean_ms - 3.0).abs() < 1e-12);
        assert!((s.ci_ms - 2.776 * (0.5f64).sqrt()).abs() < 1e-9);
        assert_eq!(s.samples, 5);
    }

    #[test]
    fn single_sample_has_zero_ci() {
        let s = LatencyStats::from_samples(&[42.0]);
        assert_eq!(s.mean_ms, 42.0);
        assert_eq!(s.ci_ms, 0.0);
    }

    #[test]
    fn identical_samples_zero_ci() {
        let s = LatencyStats::from_samples(&[7.0; 50]);
        assert_eq!(s.mean_ms, 7.0);
        assert_eq!(s.ci_ms, 0.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_samples_panic() {
        let _ = LatencyStats::from_samples(&[]);
    }

    #[test]
    fn display_format() {
        let s = LatencyStats {
            mean_ms: 14.9,
            ci_ms: 4.74,
            samples: 50,
        };
        assert_eq!(s.display(), "14.90 ± 4.74");
    }
}
