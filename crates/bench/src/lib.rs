//! Criterion benchmark crate for the Turquois reproduction: ablation A4's
//! cryptographic primitives (see `benches/crypto.rs`).
