//! Batch passes over a workload's runs, timed per run from outside.

use std::time::Instant;

use coaxial_system::runner::parallel_map_jobs;
use coaxial_system::RunReport;
use coaxial_telemetry::{MetricsRegistry, NullTelemetry};

use crate::out::{epoch_us, Spans};
use crate::specs::Run;

/// One executed run, timed inside the job-pool closure.
pub struct RunRec {
    pub wall_ns: u64,
    pub start_us: u64,
    pub report: RunReport,
    /// `run_with_telemetry` registry; empty for plain `run()` passes.
    pub metrics: MetricsRegistry,
}

impl RunRec {
    pub fn counter(&self, path: &str) -> u64 {
        self.metrics.counter(path).unwrap_or(0)
    }

    /// Prefill (or restore) host time, from the run's own registry.
    pub fn prefill_ns(&self) -> u64 {
        self.counter("server.prefill.wall_ns")
    }

    /// Run-loop host time (everything after prefill), from the registry.
    pub fn loop_ns(&self) -> u64 {
        self.counter("server.prefill.loop_wall_ns")
    }

    pub fn restored(&self) -> bool {
        self.counter("server.prefill.restored") == 1
    }

    /// Every field of the report, all digits: the bit-identity witness.
    pub fn digest(&self) -> String {
        format!("{:?}", self.report)
    }
}

/// How a pass runs each spec.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// `RunSpec::run`, what users call.
    Plain,
    /// `run_with_telemetry(NullTelemetry)`: same report plus the registry.
    Telemetry,
    /// Telemetry with a one-cycle cap: the prefill plus a token loop, which
    /// populates the checkpoint store (set-up of the `loop-*` workloads).
    PrefillOnly,
}

/// A finished pass: per-run records in spec order plus the pass wall.
pub struct Pass {
    pub runs: Vec<RunRec>,
    pub wall_ns: u64,
    pub start_us: u64,
    pub jobs: usize,
}

impl Pass {
    /// Σ run wall ÷ (jobs × pass wall): how busy the job pool kept its
    /// workers.
    pub fn busy_ratio(&self) -> f64 {
        let busy: u64 = self.runs.iter().map(|r| r.wall_ns).sum();
        busy as f64 / (self.jobs as f64 * self.wall_ns.max(1) as f64)
    }

    /// Record pass → run → {prefill, loop} spans under `parent`.
    pub fn spans(&self, spans: &mut Spans, parent: u64, name: &str, runs: &[Run]) -> u64 {
        let end = self.start_us + self.wall_ns / 1000;
        let pass = spans.add(parent, name, self.start_us, end);
        for (rec, run) in self.runs.iter().zip(runs) {
            let run_end = rec.start_us + rec.wall_ns / 1000;
            let id = spans.add(pass, run.label(), rec.start_us, run_end);
            if !rec.metrics.is_empty() {
                let split = rec.start_us + rec.prefill_ns() / 1000;
                let what = if rec.restored() { "restore" } else { "prefill" };
                spans.add(id, what, rec.start_us, split);
                spans.add(id, "loop", split, run_end);
            }
        }
        pass
    }
}

/// Run every spec once through `runner::parallel_map_jobs` at `jobs`.
pub fn run_pass(runs: &[Run], jobs: usize, mode: Mode) -> Pass {
    let start_us = epoch_us();
    let t0 = Instant::now();
    let recs = parallel_map_jobs(runs, jobs, |run| {
        let start_us = epoch_us();
        let t = Instant::now();
        let (report, metrics) = match mode {
            Mode::Plain => (run.spec.run(), MetricsRegistry::new()),
            Mode::Telemetry => {
                let (report, _, m) = run.spec.simulation().run_with_telemetry(NullTelemetry);
                (report, m)
            }
            Mode::PrefillOnly => {
                let sim = run.spec.simulation().max_cycles(1);
                let (report, _, m) = sim.run_with_telemetry(NullTelemetry);
                (report, m)
            }
        };
        let wall_ns = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        RunRec { wall_ns, start_us, report, metrics }
    });
    let wall_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
    Pass { runs: recs, wall_ns, start_us, jobs }
}

/// Process-wide prefill-state store counters (`mem_hits`, `disk_hits`, …).
pub fn checkpoint_counters() -> MetricsRegistry {
    let mut reg = MetricsRegistry::new();
    coaxial_system::server::checkpoint_metrics(&mut reg);
    reg
}
