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
//! * [`group`] — the one place a run's processes are built: deals the
//!   group's keys once and turns each process's [`Role`] (correct,
//!   crashed, the §7.2 attack, an equivocator) into its application.
//! * [`scenario`] — one experiment cell: protocol × n × proposal
//!   distribution × fault load × loss model.
//! * [`grid`] — the one experiment driver (§7.2): seeded repetitions
//!   of every cell fanned out as `(cell, rep)` jobs, agreement +
//!   validity asserted on every run, stalls retried or sampled per the
//!   experiment's policy, a failing cell degraded to `FAILED(<reason>)`,
//!   timing and the optional JSON report on stderr / on request.
//! * [`experiment`] — the paper's table shape on that driver: mean
//!   ± 95 % CI aggregation and paper-style rendering.
//! * [`runner`] — the deterministic, panic-isolating worker pool under
//!   the driver: byte-identical output at any `TURQUOIS_THREADS` count.
//! * [`env_guard`] — every `TURQUOIS_*` knob is read through here; a
//!   misspelled name or malformed value warns instead of being ignored.
//! * [`stats`] — Student-t confidence intervals.
//! * [`calibrate`] — ablation A4: host ns per operation of every
//!   cryptographic primitive.
//!
//! Binaries (`cargo run --release -p turquois-harness --bin …`), each a
//! cell list, a scenario, a sample and a row renderer handed to the
//! driver: `table1`, `table2`, `table3` regenerate the paper's three
//! tables; `phases`, `sigma_sweep`, `loss_sweep`, `msgcount`,
//! `cost_ablation`, `tick_ablation` run the ablations indexed in
//! `DESIGN.md`; `fault_matrix`, `partition_matrix`, `table_scale` go
//! past the paper — composed faults, network splits, n up to 256;
//! `calibrate` prints the [`calibrate`] table.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adapters;
pub mod adversary;
pub mod calibrate;
pub mod env_guard;
pub mod experiment;
pub mod grid;
pub mod group;
pub mod runner;
pub mod scenario;
pub mod simstress;
pub mod stats;

pub use group::{Group, Role};
pub use scenario::{FaultLoad, LossSpec, Protocol, ProposalDistribution, RunOutcome, Scenario};
