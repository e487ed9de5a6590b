//! # turquois-baselines — the comparison protocols of the DSN 2010
//! evaluation
//!
//! The Turquois paper benchmarks against two classic intrusion-tolerant
//! binary consensus protocols, both built for the standard asynchronous
//! model with *reliable point-to-point links* (TCP in the paper's
//! testbed):
//!
//! * [`bracha`] — Bracha's 1984 protocol: no public-key cryptography,
//!   but every logical message goes through [`rbc`] (reliable broadcast),
//!   giving O(n³) message complexity and O(2ⁿ) expected rounds in the
//!   worst case.
//! * [`abba`] — Cachin–Kursawe–Shoup's ABBA: O(n²) messages and a
//!   constant expected number of rounds, paid for with threshold
//!   (RSA-class) cryptography on every message.
//!
//! Both engines are sans-io, mirroring `turquois-core`: the caller feeds
//! `on_start` / `on_message` and transmits whatever comes back over its
//! reliable transport. Adapters binding them to the `wireless-net`
//! simulator (including per-link HMAC authentication emulating the
//! paper's IPSec AH setup for Bracha, and CPU cost charging for ABBA's
//! cryptography) live in `turquois-harness`. Every threshold the three
//! protocols compare against is declared once, in [`quorum`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abba;
pub mod bracha;
pub mod quorum;
pub mod rbc;

pub use abba::{Abba, AbbaKeys, AbbaMessage};
pub use bracha::Bracha;
pub use quorum::Quorums;
pub use rbc::RbcMessage;
