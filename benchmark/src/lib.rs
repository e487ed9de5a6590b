//! The repository's benchmark: four workloads, end-to-end metrics, and
//! per-layer attribution measured from outside the code under test.
//! `README.md` beside this crate is the manual.
#![warn(missing_docs)]

pub mod alloc;
pub mod calibrate;
pub mod drive;
pub mod fixtures;
pub mod jobs;
pub mod json;
pub mod layers;
pub mod measure;
pub mod metrics;
pub mod probes;
pub mod radio;
pub mod replay;
pub mod report;
pub mod surface;
pub mod traced;
