//! # turquois-harness — the DSN 2010 evaluation, reproduced
//!
//! Everything needed to regenerate the paper's evaluation section:
//!
//! * [`adapters`] — bind Turquois / Bracha / ABBA to the `wireless-net`
//!   simulator exactly as §7.1 deploys them (UDP broadcast vs. TCP,
//!   IPSec-AH-style HMAC for Bracha, RSA-calibrated CPU charging and
//!   RSA-sized messages for ABBA, 10 ms clock ticks).
//! * [`adversary`] — the §7.2 Byzantine strategies (value flipping for
//!   Turquois/Bracha, invalid-signature flooding for ABBA).
//! * [`scenario`] — one experiment cell: protocol × n × proposal
//!   distribution × fault load × loss model.
//! * [`experiment`] — 50-repetition measurement with mean ± 95 % CI and
//!   per-run safety assertions; paper-style table rendering.
//! * [`runner`] — deterministic parallel `(cell, rep)` fan-out with
//!   byte-identical output at any `TURQUOIS_THREADS` count.
//! * [`stats`] — Student-t confidence intervals.
//!
//! Binaries (`cargo run --release -p turquois-harness --bin …`):
//! `table1`, `table2`, `table3` regenerate the paper's three tables;
//! `phases`, `sigma_sweep`, `loss_sweep`, `msgcount` run the ablation
//! experiments indexed in `DESIGN.md`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod adversary;
pub mod env_guard;
pub mod experiment;
pub mod runner;
pub mod scenario;
pub mod simstress;
pub mod stats;

pub use scenario::{
    FaultLoad, LossSpec, Protocol, ProposalDistribution, RunOutcome, Scenario, ScenarioError,
};
pub use stats::LatencyStats;
