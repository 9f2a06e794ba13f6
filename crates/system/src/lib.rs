//! Full-system assembly of the COAXIAL reproduction.
//!
//! This crate is the paper's primary artifact: it wires the substrate
//! crates (cores, caches, NoC, DDR, CXL) into the server configurations of
//! Table II / Table III, runs them against the 36 workloads, and exposes a
//! runner for **every table and figure** of the paper's evaluation:
//!
//! | Paper element | Entry point |
//! |---|---|
//! | Fig. 1 (bandwidth/pin)        | [`pinout::bandwidth_per_pin_table`] |
//! | Fig. 2a (load-latency)        | [`experiments::fig2a_load_latency`] |
//! | Fig. 2b (baseline breakdown)  | [`experiments::baseline_characterization`] |
//! | Tables I & II (area)          | [`area`] |
//! | Table III (parameters)        | [`config::SystemConfig`] |
//! | Table IV (workloads)          | [`experiments::baseline_characterization`] |
//! | Fig. 5 (main results)         | [`experiments::fig5_main`] |
//! | Fig. 6 (mixes)                | [`experiments::fig6_mixes`] |
//! | Fig. 7 (CALM sensitivity)     | [`experiments::fig7_calm`] |
//! | Fig. 8 (COAXIAL variants)     | [`experiments::fig8_variants`] |
//! | Fig. 9 (R/W bandwidth)        | [`experiments::baseline_characterization`] |
//! | Fig. 10 (CXL latency)         | [`experiments::fig10_latency_sensitivity`] |
//! | Fig. 11 (core utilization)    | [`experiments::fig11_core_utilization`] |
//! | Table V (power/EDP)           | [`power::table5`] |
//! | §IV-E (capacity & cost)       | [`cost`] |

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

pub mod area;
pub mod config;
pub mod cost;
pub mod engine;
pub mod experiments;
pub mod pinout;
pub mod power;
pub mod runner;
pub mod sampling;
pub mod server;

pub use config::{ConfigError, MemorySystemKind, SystemConfig};
pub use engine::EngineKind;
pub use runner::{parallel_map, run_all, RunSpec};
pub use sampling::{SampledReport, SamplingConfig, SamplingSummary};
pub use server::{RunReport, Simulation};
