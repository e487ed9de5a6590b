//! # turquois-core — the Turquois Byzantine *k*-consensus protocol
//!
//! A faithful implementation of *Moniz, Neves, Correia — "Turquois:
//! Byzantine Consensus in Wireless Ad hoc Networks", DSN 2010*: a
//! randomized binary consensus protocol that tolerates `f < n/3`
//! Byzantine processes **and** unrestricted dynamic omission faults,
//! designed for the shared broadcast medium of wireless ad hoc networks.
//!
//! The protocol cycles through three phases — CONVERGE, LOCK, DECIDE —
//! driven only by local clock ticks and whatever messages happen to
//! arrive. Safety (agreement, validity) holds under any message loss;
//! progress is guaranteed in rounds where omissions stay under the bound
//! `σ = ⌈(n−t)/2⌉(n−k−t) + k − 2` ([`config::Config::sigma`]); and
//! termination has probability 1 via local coins.
//!
//! Authentication avoids public-key cryptography on the critical path:
//! each message reveals a pre-committed one-time hash key for its
//! `(phase, value)` pair (§6.1 — [`turquois_crypto::otss`]), and a
//! semantic validation layer (§6.2 — [`validation`]) forces every claim
//! to be backed by quorum evidence.
//!
//! Entry point: [`instance::Turquois`], a sans-io engine the caller
//! drives with `on_tick` / `on_message`. See the crate examples and the
//! `wireless-net` simulator adapters in `turquois-harness`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod instance;
pub mod keyring;
pub mod message;
pub mod state;
pub mod store;
pub mod validation;

pub use config::Config;
pub use instance::{MessageOutcome, Turquois};
pub use keyring::KeyRing;
pub use message::{Envelope, Message, Status};
pub use state::PhaseKind;
pub use turquois_crypto::otss::Value;
