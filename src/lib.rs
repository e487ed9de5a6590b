//! # Turquois — Byzantine consensus for wireless ad hoc networks
//!
//! Facade crate for the reproduction of *Moniz, Neves, Correia —
//! "Turquois: Byzantine Consensus in Wireless Ad hoc Networks", DSN 2010*.
//! Re-exports the workspace crates under stable module names:
//!
//! * [`core`] — the Turquois protocol itself (sans-io state machine).
//! * [`crypto`] — hash functions, one-time signatures, simulated
//!   threshold crypto, and the CPU cost model.
//! * [`net`] — the deterministic 802.11b wireless network simulator.
//! * [`baselines`] — Bracha's protocol and ABBA, the paper's comparison
//!   points.
//! * [`runtime`] — hosts the simulator's applications live: a thread
//!   and a real UDP socket per node.
//! * [`harness`] — the experiment harness regenerating the paper's
//!   evaluation.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete run; the short version:
//!
//! ```
//! use turquois::harness::{Scenario, FaultLoad, ProposalDistribution, Protocol};
//!
//! let scenario = Scenario::new(Protocol::Turquois, 4)
//!     .proposals(ProposalDistribution::Divergent)
//!     .fault_load(FaultLoad::FailureFree)
//!     .seed(7);
//! let outcome = scenario.run_once().expect("consensus terminates");
//! assert!(outcome.agreement_holds());
//! ```

pub use turquois_baselines as baselines;
pub use turquois_core as core;
pub use turquois_crypto as crypto;
pub use turquois_harness as harness;
pub use turquois_runtime as runtime;
pub use wireless_net as net;
