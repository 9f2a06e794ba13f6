//! Engine-throughput benchmark: wall-clock time for a dense multi-config
//! sweep, reported as runs/s and simulated instructions/s.
//!
//! The sweep is a 7-point CXL latency sensitivity study (a denser version
//! of Fig. 10) over all 36 workloads at the quick budget — 288 simulation
//! runs spanning both memory-system geometries. It exercises everything
//! the experiment engine does at scale: the job pool, the prefill
//! state/stream caches, and the per-run simulation loop.
//!
//! Honour `COAXIAL_JOBS` to pin the pool width (1 = serial); results are
//! bit-identical at any width. Wall-clock numbers for the seed-vs-current
//! comparison live in `BENCH_sim_throughput.json` at the repo root.

#![allow(
    clippy::disallowed_methods,
    reason = "a self-timed benchmark measures host wall-clock time"
)]

use std::time::Instant;

use coaxial_bench::banner;
use coaxial_system::experiments::{fig10_latency_sensitivity, geomean, Budget};
use coaxial_workloads::Workload;

/// The paper's 50/70 ns points and §VII's 10 ns projection, densified so
/// the sensitivity curve has no gaps coarser than 20 ns.
const LATENCIES: [f64; 7] = [10.0, 20.0, 30.0, 50.0, 60.0, 70.0, 90.0];

fn main() {
    banner("Engine throughput", "dense latency-sensitivity sweep, quick budget");
    let budget = Budget::quick();
    let workloads = Workload::all().len();
    let runs = workloads * (1 + LATENCIES.len());
    let cores = 12;

    let t0 = Instant::now();
    let rows = fig10_latency_sensitivity(&LATENCIES, budget);
    let wall = t0.elapsed().as_secs_f64();

    // Sanity: the sweep must have produced every row (and the work must not
    // have been elided).
    assert_eq!(rows.len(), workloads);
    let g50 = geomean(
        rows.iter().map(|r| r.speedups.iter().find(|(ns, _)| *ns == 50.0).expect("50 ns point").1),
    );

    let sim_instr = runs as u64 * (budget.instructions + budget.warmup) * cores;
    println!(
        "runs:               {runs} ({workloads} workloads x {} configs)",
        1 + LATENCIES.len()
    );
    println!("wall:               {wall:.2} s");
    println!("runs/s:             {:.2}", runs as f64 / wall);
    println!("sim instructions/s: {:.3} M", sim_instr as f64 / wall / 1e6);
    println!("geomean speedup @50ns (sanity): {g50:.3}");
}
