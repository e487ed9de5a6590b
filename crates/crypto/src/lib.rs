//! Cryptographic substrate for the Turquois reproduction.
//!
//! The Turquois protocol (Moniz, Neves, Correia — DSN 2010) deliberately
//! avoids public-key cryptography during normal operation. Its message
//! authentication is built from a one-time *hash-based* signature scheme
//! (paper §6.1): for every phase `φ` and proposal value `v ∈ {0, 1, ⊥}` a
//! process pre-generates a random secret key `SK[φ][v]` and publishes the
//! verification key `VK[φ][v] = H(SK[φ][v])`. Revealing `SK[φ][v]`
//! authenticates exactly the pair `(φ, v)` — nothing else — and costs one
//! hash to verify.
//!
//! This crate provides every primitive that scheme and the two baseline
//! protocols (Bracha, ABBA) need:
//!
//! * [`mod@sha256`] — SHA-256 implemented from scratch (the allowed dependency
//!   set contains no cryptography crate), validated against FIPS 180-4 test
//!   vectors.
//! * [`hmac`] — HMAC-SHA256, used to emulate the IPSec AH per-link
//!   authentication that the paper's Bracha implementation relies on.
//! * [`otss`] — the one-time signature scheme of paper §6.1.
//! * [`hashsig`] — a Lamport-style hash-based signature, substituting for
//!   the RSA signature the paper uses to sign verification-key arrays during
//!   key exchange (see `DESIGN.md` §4 for the substitution argument).
//! * [`threshold`] — dealer-based simulated threshold signatures and a
//!   shared coin with the interface and adversarial properties ABBA
//!   requires.
//! * [`cost`] — a calibrated CPU cost model so the discrete-event simulator
//!   can charge realistic time for cryptographic work (RSA on a 600 MHz
//!   Pentium III is *slow*; that asymmetry is a pillar of the paper's
//!   evaluation).
//! * [`memo`] — a bounded, deterministic memo cache so a broadcast's
//!   link tags are computed once, by the sender, in *host* time
//!   (simulated cost is still charged per logical verification), and
//!   [`memo::FixedMap`], the fixed-key hash map every crate uses.
//!
//! Two host-side accelerators live here — the SHA-256 engines under
//! every digest (the SHA-NI kernel where the CPU has the SHA extensions,
//! else the lane kernel of [`sha256::multilane`]), and [`memo`] — and
//! neither has an off-switch: the code they replaced survives only as
//! `#[cfg(test)]` oracles (the textbook scalar SHA-256, the textbook
//! HMAC) and as the memo's debug-build hit recheck.
//!
//! # Example
//!
//! ```
//! use turquois_crypto::otss::{KeyPairArray, Value};
//!
//! // A process pre-generates keys for 30 phases.
//! let keys = KeyPairArray::generate(7, 30, 42);
//! let sig = keys.sign(3, Value::One).expect("phase in range");
//! assert!(keys.verification_keys().verify(3, Value::One, &sig));
//! assert!(!keys.verification_keys().verify(3, Value::Zero, &sig));
//! ```

// `deny`, not `forbid`: the crate's sanctioned `unsafe` is calling a
// `#[target_feature]` kernel, whose body is safe code, right after
// `is_x86_feature_detected!` proves the host supports it. There are two
// such kernels: the SHA-NI one (`sha256::shani`, entered from the
// compression dispatch in `sha256`) and the AVX2 recompilation of the
// portable lane kernel (`sha256::multilane::compress_wide`). No runtime
// switch routes around them — the engine is chosen by CPU detection
// alone — so the engine differential tests (`sha256::oracle`), which
// run every engine the host has against the textbook specification,
// are what vouch for them. Everything else stays unsafe-free; new
// exceptions need the same justification and a scoped `allow`.
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod cost;
pub mod hashsig;
pub mod hmac;
pub mod memo;
pub mod otss;
pub mod sha256;
pub mod threshold;

pub use cost::CostModel;
pub use sha256::{sha256, Digest, Sha256};
