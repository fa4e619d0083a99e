//! The repository's performance benchmark: six workloads that drive the
//! guard, the simulated deployment and the real-socket runtime from outside
//! through their public functions, check what comes back, and report
//! end-to-end and per-layer metrics. See `README.md` for the definitions
//! and `../BENCHMARK.json` for the contract the driver checks.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod classes;
pub mod compare;
pub mod json;
pub mod layers;
pub mod pin;
pub mod probe;
pub mod report;
pub mod ring;
pub mod rng;
pub mod run;
pub mod shadow;
pub mod spans;
pub mod stats;
pub mod workload;
pub mod world;
