//! # wireless-net — a deterministic 802.11b ad hoc network simulator
//!
//! This crate is the network substrate of the Turquois reproduction
//! (Moniz, Neves, Correia — DSN 2010). The paper evaluated its protocols
//! on a physical 802.11b Emulab testbed; the reproduction replaces that
//! testbed with a discrete-event simulation that models the three
//! mechanisms the evaluation actually exercises:
//!
//! 1. **A shared broadcast medium** ([`medium`]) — CSMA/CA with binary
//!    exponential backoff, DIFS/SIFS/slot timing, per-frame airtime from
//!    the 802.11b rate set, collisions, and unicast ACK/retransmission.
//!    One broadcast frame reaches every node; a logical broadcast over
//!    TCP costs `n − 1` unicast exchanges.
//! 2. **Dynamic omission faults** ([`fault`]) — the Santoro–Widmayer
//!    communication failure model, as i.i.d. loss, Gilbert–Elliott
//!    bursts, jamming windows, and budget-constrained omission
//!    adversaries.
//! 3. **CPU cost accounting** ([`sim::NodeCtx::charge_cpu`]) — protocol
//!    adapters charge cryptographic work to per-node virtual clocks,
//!    reproducing the hash-vs-RSA asymmetry central to the paper.
//!
//! Applications implement [`sim::Application`] and are driven by the
//! [`sim::Simulator`]. The [`reliable`] module provides the TCP-like
//! ordered reliable channel the baseline protocols (Bracha, ABBA)
//! require.
//!
//! Everything is deterministic given `SimConfig::seed`.
//!
//! # Example
//!
//! ```
//! use wireless_net::sim::{Application, NodeCtx, SimConfig, Simulator};
//! use wireless_net::frame::ReceivedFrame;
//! use wireless_net::time::SimTime;
//! use bytes::Bytes;
//!
//! struct Hello;
//! impl Application for Hello {
//!     fn on_start(&mut self, ctx: &mut NodeCtx<'_>) {
//!         ctx.broadcast(Bytes::from_static(b"hi"), 36);
//!     }
//!     fn on_frame(&mut self, ctx: &mut NodeCtx<'_>, frame: ReceivedFrame) {
//!         if frame.src != ctx.node() {
//!             ctx.decide(true);
//!         }
//!     }
//!     fn on_timer(&mut self, _ctx: &mut NodeCtx<'_>, _timer: u64) {}
//! }
//!
//! let apps: Vec<Box<dyn Application>> = vec![Box::new(Hello), Box::new(Hello)];
//! let mut sim = Simulator::without_faults(SimConfig::default(), apps);
//! sim.run_until_k_decided(2, SimTime::from_millis(100));
//! assert_eq!(sim.decided_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod frame;
pub mod medium;
pub mod queue;
pub mod reliable;
pub mod sim;
pub mod stats;
pub mod supervise;
pub mod time;
pub mod topology;
pub mod trace;

pub use config::PhyConfig;
pub use fault::CrashSchedule;
pub use frame::{Addressing, Frame, NodeId, ReceivedFrame};
pub use sim::{Application, Command, Decision, Node, NodeCtx, RunStatus, SimConfig, Simulator};
pub use supervise::{AppProgress, StallReport};
pub use time::SimTime;
pub use topology::{PartitionSchedule, TopologySpec};
