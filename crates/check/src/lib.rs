//! Deterministic adversarial schedule explorer for the consensus
//! engines.
//!
//! The simulator (`wireless-net`) answers "does the protocol survive a
//! realistic lossy broadcast medium?"; this crate answers the
//! complementary question "does the protocol survive a *hostile
//! scheduler*?". It runs the nodes that ship — the harness's
//! `Application`s for Turquois, Bracha and ABBA, with their tick rule,
//! reliable transport and link authentication, Byzantine ones in
//! their adversary roles — through `NodeCtx` as the live runtime
//! does, with no radio model in between, under seeded
//! adversarial delivery schedules: per-(round, sender, receiver) drops,
//! delays, and duplicates, network splits, and Byzantine equivocation,
//! all inside a bounded adversarial window so eventual decision stays
//! checkable.
//!
//! - [`schedule`] — the schedule model and the seeded generator.
//! - [`drive`] — executes a schedule and checks agreement, validity,
//!   and (within the σ omission budget) eventual decision.
//! - `shrink` — greedy minimisation of failing schedules.
//! - [`replay`] — the `tests/fixtures/*.schedule` text format.
//! - [`mod@explore`] — parallel sweeps over thousands of schedules with a
//!   byte-identical report at any `TURQUOIS_THREADS`.
//!
//! The crate is test infrastructure: nothing here runs in the
//! experiment binaries, and its only parallelism is borrowed from
//! `turquois_harness::runner`, keeping the engines and the simulator
//! single-threaded as required.
//!
//! [`mutants`] parses the mutant catalogue (`mutants/catalogue.txt`)
//! that the `mutants` binary runs: planted bugs, the quorum
//! off-by-one the explorer must find and shrink among them
//! (`quorum-plant-n5`), each paired with the guard that must catch it.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod drive;
pub mod explore;
pub mod mutants;
pub mod replay;
pub mod schedule;
mod shrink;

pub use drive::{run_schedule, Violation};
pub use explore::{explore, ExploreConfig};
pub use replay::{parse, to_text, Expectation};
pub use schedule::{generate, Fault, Partition, Schedule};
