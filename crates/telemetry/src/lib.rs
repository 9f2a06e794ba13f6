//! `coaxial-telemetry` — the observability spine of the COAXIAL simulator.
//!
//! COAXIAL's argument rests on *where* a memory access's cycles go:
//! unloaded link latency vs. queuing at the controllers vs. DRAM service.
//! This crate provides the machinery to answer that question for every
//! simulated request, without costing the common (telemetry-off) path a
//! single instruction:
//!
//! * [`stats`] — running means and log-bucketed latency histograms. This is
//!   the canonical home of [`Histogram`]/[`MeanTracker`]; `coaxial-sim`
//!   re-exports them so the rest of the workspace keeps its import paths.
//! * [`attribution`] — the per-request latency ledger: each L2 miss carries
//!   timestamps stamped at the component boundaries (NoC, LLC, MSHR issue,
//!   controller queue, DRAM service, CXL link) and is folded into
//!   per-component histograms. Components sum *exactly* to the end-to-end
//!   miss latency (conservation is test-enforced).
//! * [`registry`] — a hierarchical metrics registry: counters, gauges, and
//!   histograms registered by dot-separated component path
//!   (`dram.ch0.row_hits`), mergeable and renderable as a table.
//! * [`trace`] — a bounded ring-buffer event tracer with Chrome-trace JSON
//!   export (loadable in `about://tracing` / Perfetto) over a configurable
//!   cycle window.
//! * [`sink`] — the [`TelemetrySink`] trait that model crates are generic
//!   over. [`NullTelemetry`] compiles every stamping site to nothing (the
//!   tier-1 path is bit-identical and within noise of the pre-telemetry
//!   engine); [`TelemetryRecorder`] records everything.
//!
//! This crate sits *below* `coaxial-sim` in the dependency graph, so it is
//! the home of the shared primitives `sim` re-exports: the stats types and
//! the system clock ([`Cycle`] and the [`time`] conversions).

// No unsafe anywhere in this crate; keep it that way.
#![forbid(unsafe_code)]

pub mod attribution;
pub mod registry;
pub mod sink;
pub mod stats;
pub mod time;
pub mod trace;

/// The cycle type and clock period; `coaxial_sim` re-exports both.
pub use time::{Cycle, NS_PER_CYCLE};

pub use attribution::{Component, LatencyAttribution, MissRecord, COMPONENTS};
pub use registry::{MetricValue, MetricsRegistry, SharedCounter, SharedHistogram};
pub use sink::{NullTelemetry, TelemetryRecorder, TelemetrySink};
pub use stats::{Histogram, MeanTracker};
pub use trace::{CounterEvent, EventTracer, TraceEvent};
