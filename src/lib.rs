//! COAXIAL — a CXL-centric memory system for scalable servers.
//!
//! This façade crate re-exports the whole reproduction of Cho, Saxena,
//! Qureshi & Daglis, *"COAXIAL: A CXL-Centric Memory System for Scalable
//! Servers"* (SC 2024):
//!
//! * [`sim`] — simulation substrate (clock, RNG, statistics),
//! * [`dram`] — cycle-level DDR5-4800 channel model (DRAMsim3 equivalent),
//! * [`cxl`] — CXL/PCIe link and Type-3 device models,
//! * [`cache`] — L1/L2/LLC hierarchy, NoC, and the CALM mechanisms,
//! * [`cpu`] — trace-driven out-of-order core model,
//! * [`workloads`] — the paper's 36 workloads as synthetic generators,
//! * [`system`] — full-system assembly, configurations, and every
//!   table/figure experiment from the paper's evaluation,
//! * [`gateway`] — simulation-as-a-service HTTP front end behind
//!   `coaxial serve` (result cache, in-flight dedup, bounded queue).
//!
//! # Quickstart
//!
//! ```
//! use coaxial::system::{SystemConfig, Simulation};
//! use coaxial::workloads::Workload;
//!
//! // Simulate STREAM-copy on the DDR baseline and on COAXIAL-4x.
//! let wl = Workload::by_name("stream-copy").unwrap();
//! let base = Simulation::new(SystemConfig::ddr_baseline(), &wl)
//!     .instructions_per_core(5_000)
//!     .run();
//! let coax = Simulation::new(SystemConfig::coaxial_4x(), &wl)
//!     .instructions_per_core(5_000)
//!     .run();
//! assert!(coax.ipc > 0.0 && base.ipc > 0.0);
//! ```

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

pub use coaxial_cache as cache;
pub use coaxial_cpu as cpu;
pub use coaxial_cxl as cxl;
pub use coaxial_dram as dram;
pub use coaxial_gateway as gateway;
pub use coaxial_sim as sim;
pub use coaxial_system as system;
pub use coaxial_telemetry as telemetry;
pub use coaxial_workloads as workloads;
