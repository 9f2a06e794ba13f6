//! The COAXIAL benchmark: four seeded workloads driven through the public
//! APIs of `coaxial-system`, `coaxial-gateway` and the model crates, with
//! end-to-end metrics from an untraced run and a per-layer split from a
//! separate traced run. See `README.md` in this directory for the method.

pub mod client;
pub mod gw;
pub mod host;
pub mod layers;
pub mod out;
pub mod pass;
pub mod rebuild;
pub mod specs;
pub mod stats;
pub mod wrap;
