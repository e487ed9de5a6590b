//! The one door into the code under test.
//!
//! Every symbol the benchmark uses from the repository's crates is
//! named here and nowhere else, so a rename or a deleted legacy gate
//! touches this file only. The benchmark measures layers **from
//! outside**: it times calls into these public items and never reaches
//! for the `set_legacy_*` / `*_enabled` switches or the telemetry
//! modules (ROADMAP items 2 and 5 delete those).
//!
//! The README's "symbols the benchmark calls" list is this file.

pub use bytes::Bytes;

// crypto
pub use turquois_crypto::cost::CostModel;
pub use turquois_crypto::hmac::HmacKey;
pub use turquois_crypto::otss::{KeyPairArray, OneTimeSignature, Value};
pub use turquois_crypto::sha256::multilane::sha256_many;
pub use turquois_crypto::sha256::sha256;

// net
pub use wireless_net::fault::{DeliveryCtx, FaultModel, IidLoss};
pub use wireless_net::frame::{Addressing, Frame, NodeId, ReceivedFrame};
pub use wireless_net::medium::{CompletedTx, Medium};
pub use wireless_net::queue::EventQueue;
pub use wireless_net::sim::{
    Application, CrashedApp, Decision, NodeCtx, RunStatus, SimConfig, Simulator,
};
pub use wireless_net::stats::NetStats;
pub use wireless_net::supervise::AppProgress;
pub use wireless_net::time::SimTime;
pub use wireless_net::topology::{PartitionSchedule, TopologySpec};
pub use wireless_net::PhyConfig;

/// Transport header bytes charged to a UDP broadcast frame.
pub const UDP_OVERHEAD: usize = wireless_net::config::overhead::UDP;

// core
pub use turquois_core::config::Config;
pub use turquois_core::instance::{MessageOutcome, Turquois};
pub use turquois_core::message::MessageView;
pub use turquois_core::store::MessageStore;
pub use turquois_core::KeyRing;

// baselines
pub use turquois_baselines::abba::{Abba, AbbaKeys};
pub use turquois_baselines::bracha::Bracha;

// harness
pub use turquois_harness::adapters::{
    new_link_tags, AbbaApp, BrachaApp, RunProbe, SharedProbe, TurquoisApp,
};
pub use turquois_harness::adversary::{
    byzantine_bracha_app, ByzantineAbbaApp, ByzantineTurquoisApp,
};
pub use turquois_harness::runner::run_indexed;
pub use turquois_harness::simstress::run_storm;
pub use turquois_harness::{
    FaultLoad, LossSpec, ProposalDistribution, Protocol, RunOutcome, Scenario,
};
