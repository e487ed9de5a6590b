//! Calibrated CPU cost model for cryptographic operations.
//!
//! The paper's evaluation ran on 600 MHz Pentium III nodes, where the
//! asymmetry between hashing and public-key cryptography is enormous —
//! that asymmetry is one of the two pillars of Turquois's win (the other
//! being the broadcast medium). The discrete-event simulator cannot
//! measure host CPU time (it must stay deterministic), so protocol
//! adapters charge each cryptographic operation to the node's virtual
//! clock through this model.
//!
//! Default calibration (`CostModel::pentium3_600`) uses published
//! Crypto++/OpenSSL-era figures for that hardware class:
//!
//! * SHA-256: ≈ 20 MB/s → ~50 ns per byte, plus per-call overhead;
//! * RSA-1024 sign (CRT): ≈ 7.9 ms; verify (e = 65537): ≈ 0.4 ms;
//! * threshold-RSA share operations cost about one RSA private-key
//!   exponentiation each, and combination costs roughly one per share.
//!
//! The three presets are the only models, and the *experiments record
//! which one they ran* so every table is reproducible.

use std::time::Duration;

/// Nanosecond costs for each operation class.
///
/// Only the presets build one: [`CostModel::pentium3_600`] (the
/// default), [`CostModel::modern`] and [`CostModel::free`].
///
/// # Example
///
/// ```
/// use turquois_crypto::cost::CostModel;
/// let m = CostModel::pentium3_600();
/// // Verifying a one-time signature is one hash of a 32-byte secret…
/// let otss = m.otss_verify(32);
/// // …while an RSA verify is three orders of magnitude heavier.
/// assert!(m.rsa_verify() > otss * 100);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Fixed overhead per hash invocation, in ns.
    hash_call_ns: u64,
    /// Hashing throughput cost, in ns per byte.
    hash_per_byte_ns: u64,
    /// RSA public-key operation (verify), in ns.
    rsa_verify_ns: u64,
    /// Threshold signature/coin share generation, in ns.
    threshold_share_ns: u64,
    /// Threshold share verification, in ns.
    threshold_share_verify_ns: u64,
    /// Threshold combination cost **per share combined**, in ns.
    threshold_combine_per_share_ns: u64,
}

impl CostModel {
    /// Calibration for the paper's 600 MHz Pentium III testbed.
    pub fn pentium3_600() -> Self {
        CostModel {
            hash_call_ns: 1_000,
            hash_per_byte_ns: 50,
            rsa_verify_ns: 400_000,
            threshold_share_ns: 7_900_000,
            threshold_share_verify_ns: 800_000,
            threshold_combine_per_share_ns: 500_000,
        }
    }

    /// A model where every operation is free.
    ///
    /// Useful for isolating network effects in ablation experiments.
    pub fn free() -> Self {
        CostModel {
            hash_call_ns: 0,
            hash_per_byte_ns: 0,
            rsa_verify_ns: 0,
            threshold_share_ns: 0,
            threshold_share_verify_ns: 0,
            threshold_combine_per_share_ns: 0,
        }
    }

    /// Calibration for modern commodity hardware (≈ 2 GB/s hashing,
    /// sub-millisecond RSA-2048); used by the ablation that asks whether
    /// Turquois's crypto advantage survives faster CPUs.
    pub fn modern() -> Self {
        CostModel {
            hash_call_ns: 100,
            hash_per_byte_ns: 1,
            rsa_verify_ns: 20_000,
            threshold_share_ns: 600_000,
            threshold_share_verify_ns: 40_000,
            threshold_combine_per_share_ns: 25_000,
        }
    }

    /// Cost of hashing `bytes` bytes.
    pub fn hash(&self, bytes: usize) -> Duration {
        Duration::from_nanos(self.hash_call_ns + self.hash_per_byte_ns * bytes as u64)
    }

    /// Cost of an HMAC over `bytes` bytes (two hash passes).
    pub fn hmac(&self, bytes: usize) -> Duration {
        Duration::from_nanos(2 * self.hash_call_ns + self.hash_per_byte_ns * (bytes as u64 + 96))
    }

    /// Cost of producing a one-time signature (a table lookup — charged as
    /// one hash-call overhead).
    pub fn otss_sign(&self) -> Duration {
        Duration::from_nanos(self.hash_call_ns)
    }

    /// Cost of verifying a one-time signature: one hash of the revealed
    /// `secret_len`-byte secret.
    pub fn otss_verify(&self, secret_len: usize) -> Duration {
        self.hash(secret_len)
    }

    /// Cost of an RSA verification.
    pub fn rsa_verify(&self) -> Duration {
        Duration::from_nanos(self.rsa_verify_ns)
    }

    /// Cost of generating one threshold (signature or coin) share.
    pub fn threshold_share(&self) -> Duration {
        Duration::from_nanos(self.threshold_share_ns)
    }

    /// Cost of verifying one threshold share.
    pub fn threshold_share_verify(&self) -> Duration {
        Duration::from_nanos(self.threshold_share_verify_ns)
    }

    /// Cost of combining `shares` threshold shares.
    pub fn threshold_combine(&self, shares: usize) -> Duration {
        Duration::from_nanos(self.threshold_combine_per_share_ns * shares as u64)
    }
}

impl Default for CostModel {
    /// Defaults to the paper's hardware calibration.
    fn default() -> Self {
        Self::pentium3_600()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_pentium3() {
        assert_eq!(CostModel::default(), CostModel::pentium3_600());
    }

    #[test]
    fn rsa_dwarfs_hashing_on_pentium3() {
        let m = CostModel::pentium3_600();
        // A 100-byte protocol message: hash-based auth verification…
        let otss = m.otss_verify(32);
        // …must be at least 3 orders of magnitude cheaper than an
        // RSA-class private-key operation (a threshold share).
        let share = m.threshold_share();
        assert!(share >= otss * 1000, "{share:?} vs {otss:?}");
    }

    #[test]
    fn free_model_is_zero() {
        let m = CostModel::free();
        assert_eq!(m.hash(1_000_000), Duration::ZERO);
        assert_eq!(m.rsa_verify(), Duration::ZERO);
        assert_eq!(m.threshold_combine(100), Duration::ZERO);
    }

    #[test]
    fn hash_cost_scales_with_length() {
        let m = CostModel::pentium3_600();
        assert!(m.hash(2000) > m.hash(100));
        assert_eq!(
            m.hash(100),
            Duration::from_nanos(m.hash_call_ns + 100 * m.hash_per_byte_ns)
        );
    }

    #[test]
    fn combine_scales_with_share_count() {
        let m = CostModel::pentium3_600();
        assert_eq!(m.threshold_combine(4) * 2, m.threshold_combine(8));
    }

    #[test]
    fn modern_still_asymmetric() {
        let m = CostModel::modern();
        assert!(m.rsa_verify() > m.otss_verify(32) * 100);
    }
}
