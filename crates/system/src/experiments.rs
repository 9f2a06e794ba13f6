//! Experiment runners — one per table/figure of the paper's evaluation —
//! and the [`registry`] that names them.
//!
//! Every runner regenerates the data behind a specific paper element;
//! each registry entry turns one or more runners into an [`Output`] of
//! tables, chart series, paper comparisons and checked [`Claim`]s, which
//! `coaxial exp <name>` prints and the `paper` bench also writes to
//! disk. All runners accept a [`Budget`] so callers can trade fidelity
//! for runtime (the defaults follow `COAXIAL_INSTR`/`COAXIAL_WARMUP` or
//! the built-in laptop-scale budget).
//!
//! Each runner builds a flat batch of [`RunSpec`]s and dispatches it
//! through [`crate::runner::run_all`], so independent simulations spread
//! across host cores (`COAXIAL_JOBS`). Reports come back keyed by spec
//! index, which keeps every row assembly below deterministic.

use std::fmt;

use coaxial_cache::{CalmPolicy, Hierarchy, HierarchyConfig, PrefetchPolicy};
use coaxial_cpu::{Core, CoreParams};
use coaxial_cxl::CxlMemory;
use coaxial_dram::config::PagePolicy;
use coaxial_dram::{Channel, DramConfig, MemoryBackend, MultiChannel};
use coaxial_sim::Cycle;
use coaxial_telemetry::TelemetryRecorder;
use coaxial_workloads::{mixes, PoissonTraffic, Workload};
use serde::Serialize;

use crate::area::{AreaModel, ServerDesign};
use crate::config::{MemorySystemKind, SystemConfig};
use crate::runner::{self, RunSpec};
use crate::server::{RunReport, Simulation};
use crate::table::{f1, f2, pct, Chart, Series, Table};
use crate::{pinout, power};

/// Instruction budget for one run.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    pub instructions: u64,
    pub warmup: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Self {
            instructions: coaxial_sim::env::instructions(crate::server::DEFAULT_INSTRUCTIONS),
            warmup: coaxial_sim::env::warmup(crate::server::DEFAULT_WARMUP),
        }
    }
}

impl Budget {
    pub fn quick() -> Self {
        Self { instructions: 6_000, warmup: 1_000 }
    }

    /// A [`RunSpec`] for one homogeneous run under this budget.
    pub fn spec(&self, config: SystemConfig, w: &'static Workload) -> RunSpec {
        RunSpec::homogeneous(config, w, self.instructions, self.warmup)
    }

    /// Execute a single homogeneous run inline (no job pool) — handy for
    /// tests and one-off probes; batch work should go through
    /// [`crate::runner::run_all`].
    pub fn run(&self, config: SystemConfig, w: &'static Workload) -> RunReport {
        Simulation::new(config, w)
            .instructions_per_core(self.instructions)
            .warmup(self.warmup)
            .run()
    }
}

// ───────────────────────── Fig. 2a ──────────────────────────

/// One point of the load-latency curve.
#[derive(Debug, Clone, Serialize)]
pub struct LoadLatencyPoint {
    pub target_utilization: f64,
    pub achieved_utilization: f64,
    pub avg_ns: f64,
    pub p90_ns: f64,
}

/// Fig. 2a: drive one DDR5-4800 channel with Poisson random traffic at
/// each target utilization and measure average and p90 latency.
pub fn fig2a_load_latency(utilizations: &[f64], horizon_cycles: Cycle) -> Vec<LoadLatencyPoint> {
    // Not a `Simulation`, so this uses the generic map rather than
    // `run_all`: each utilization point drives its own channel.
    runner::parallel_map(utilizations, |&u| {
        let mut ch = Channel::new(DramConfig::ddr5_4800());
        // 2:1 R:W as in the paper's framing of typical traffic.
        let mut gen = PoissonTraffic::new(u, 38.4, 0.33, 42);
        let mut backlog: std::collections::VecDeque<_> = Default::default();
        for now in 0..horizon_cycles {
            ch.tick(now);
            backlog.extend(gen.arrivals(now));
            while let Some(&req) = backlog.front() {
                match ch.try_enqueue(req) {
                    Ok(()) => {
                        backlog.pop_front();
                    }
                    Err(_) => break,
                }
            }
            while ch.pop_response(now).is_some() {}
        }
        let st = ch.stats();
        LoadLatencyPoint {
            target_utilization: u,
            achieved_utilization: st.bandwidth_gbs() / 38.4,
            avg_ns: coaxial_sim::cycles_f64_to_ns(ch.latency_hist.mean()),
            p90_ns: coaxial_sim::cycles_f64_to_ns(ch.latency_hist.percentile(90.0) as f64),
        }
    })
}

// ───────────────────────── Fig. 2b / Table IV / Fig. 9 ──────

/// One baseline workload characterization row (Figs. 2b, 9; Table IV).
#[derive(Debug, Clone, Serialize)]
pub struct BaselineRow {
    pub workload: String,
    pub ipc: f64,
    pub mpki: f64,
    /// (on-chip, queuing, DRAM service, CXL) in ns. CXL is 0 here.
    pub breakdown_ns: (f64, f64, f64, f64),
    pub utilization: f64,
    pub read_gbs: f64,
    pub write_gbs: f64,
    pub paper_ipc: f64,
    pub paper_mpki: u32,
}

/// Figs. 2b & 9 and Table IV all come from baseline runs of every workload.
pub fn baseline_characterization(budget: Budget) -> Vec<BaselineRow> {
    let specs: Vec<RunSpec> =
        Workload::all().iter().map(|w| budget.spec(SystemConfig::ddr_baseline(), w)).collect();
    Workload::all()
        .iter()
        .zip(runner::run_all(&specs))
        .map(|(w, r)| BaselineRow {
            workload: w.name.to_string(),
            ipc: r.ipc,
            mpki: r.mpki,
            breakdown_ns: r.breakdown_ns,
            utilization: r.utilization,
            read_gbs: r.read_gbs,
            write_gbs: r.write_gbs,
            paper_ipc: w.paper_ipc,
            paper_mpki: w.paper_mpki,
        })
        .collect()
}

// ───────────────────────── Fig. 5 ───────────────────────────

/// One per-workload comparison row (Fig. 5 and Table V).
#[derive(Debug, Clone, Serialize)]
pub struct CompareRow {
    pub workload: String,
    pub speedup: f64,
    pub base: RunReport,
    pub coax: RunReport,
}

/// Fig. 5: COAXIAL-4x vs. the DDR baseline across all 36 workloads.
pub fn fig5_main(budget: Budget) -> Vec<CompareRow> {
    let specs: Vec<RunSpec> = Workload::all()
        .iter()
        .flat_map(|w| {
            [
                budget.spec(SystemConfig::ddr_baseline(), w),
                budget.spec(SystemConfig::coaxial_4x(), w),
            ]
        })
        .collect();
    let mut reports = runner::run_all(&specs).into_iter();
    Workload::all()
        .iter()
        .map(|w| {
            let base = reports.next().expect("one baseline report per workload");
            let coax = reports.next().expect("one COAXIAL report per workload");
            CompareRow {
                workload: w.name.to_string(),
                speedup: coax.speedup_over(&base),
                base,
                coax,
            }
        })
        .collect()
}

pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u32);
    for v in values {
        if v > 0.0 {
            sum += v.ln();
            n += 1;
        }
    }
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

// ───────────────────────── Fig. 6 ───────────────────────────

/// One workload-mix result (Fig. 6).
#[derive(Debug, Clone, Serialize)]
pub struct MixRow {
    pub mix_id: u64,
    pub workloads: Vec<String>,
    /// IPC-ratio speedup (COAXIAL over baseline, mean per-core IPC).
    pub speedup: f64,
    /// Weighted-speedup ratio: Σ IPC_shared/IPC_alone on COAXIAL divided
    /// by the same sum on the baseline (the paper artifact's alternative
    /// multi-program metric; `None` unless requested).
    pub weighted_speedup_ratio: Option<f64>,
}

/// Fig. 6: ten random 12-workload mixes, COAXIAL-4x vs. baseline.
/// With `weighted`, also computes the weighted-speedup ratio, which needs
/// one isolated (single-active-core) run per distinct (workload, system)
/// pair — cached across mixes.
pub fn fig6_mixes_full(count: u64, budget: Budget, weighted: bool) -> Vec<MixRow> {
    use std::collections::{BTreeMap, BTreeSet};
    let mixes_v: Vec<Vec<&'static Workload>> = (0..count).map(|id| mixes::mix(id, 12)).collect();

    // Shared runs: baseline + COAXIAL per mix, one flat batch.
    let specs: Vec<RunSpec> = mixes_v
        .iter()
        .flat_map(|m| {
            [
                RunSpec::mix(SystemConfig::ddr_baseline(), m, budget.instructions, budget.warmup),
                RunSpec::mix(SystemConfig::coaxial_4x(), m, budget.instructions, budget.warmup),
            ]
        })
        .collect();
    let shared = runner::run_all(&specs);

    // Isolated runs for the weighted metric: one per distinct
    // (workload, system) pair across all mixes, also batched. Report rows
    // come from the ordered `mixes_v` walk, not from the map.
    let alone: BTreeMap<(&str, bool), f64> = if weighted {
        let mut seen = BTreeSet::new();
        let mut distinct: Vec<(&'static Workload, bool)> = Vec::new();
        for m in &mixes_v {
            for &w in m {
                for coax in [false, true] {
                    if seen.insert((w.name, coax)) {
                        distinct.push((w, coax));
                    }
                }
            }
        }
        let alone_specs: Vec<RunSpec> = distinct
            .iter()
            .map(|&(w, coax)| {
                let cfg =
                    if coax { SystemConfig::coaxial_4x() } else { SystemConfig::ddr_baseline() };
                budget.spec(cfg.with_active_cores(1), w)
            })
            .collect();
        distinct
            .iter()
            .zip(runner::run_all(&alone_specs))
            .map(|(&(w, coax), r)| ((w.name, coax), r.ipc))
            .collect()
    } else {
        BTreeMap::new()
    };

    mixes_v
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let (base, coax) = (&shared[2 * i], &shared[2 * i + 1]);
            let weighted_speedup_ratio = weighted.then(|| {
                let ws = |r: &RunReport, is_coax: bool| -> f64 {
                    r.per_core_ipc
                        .iter()
                        .zip(m.iter())
                        .map(|(&shared, w)| shared / alone[&(w.name, is_coax)].max(1e-9))
                        .sum::<f64>()
                };
                ws(coax, true) / ws(base, false).max(1e-9)
            });
            MixRow {
                mix_id: i as u64,
                workloads: m.iter().map(|w| w.name.to_string()).collect(),
                speedup: coax.speedup_over(base),
                weighted_speedup_ratio,
            }
        })
        .collect()
}

// ───────────────────────── Fig. 7 ───────────────────────────

/// CALM mechanisms evaluated in Fig. 7, in the paper's bar order.
pub fn calm_mechanisms() -> Vec<CalmPolicy> {
    vec![
        CalmPolicy::MapI,
        CalmPolicy::CalmR { r: 0.5 },
        CalmPolicy::CalmR { r: 0.6 },
        CalmPolicy::CalmR { r: 0.7 },
        CalmPolicy::Ideal,
    ]
}

/// One (system, mechanism) × workload cell of Fig. 7.
#[derive(Debug, Clone, Serialize)]
pub struct CalmRow {
    pub workload: String,
    pub system: String,
    pub mechanism: String,
    /// Speedup vs. the same system with serial LLC/memory access.
    pub speedup_vs_serial: f64,
    pub false_pos_per_mem_access: f64,
    pub false_neg_per_llc_miss: f64,
}

/// Fig. 7: evaluate every CALM mechanism on both systems for the given
/// workloads (the paper shows 4 named workloads + the all-36 average).
pub fn fig7_calm(workload_names: &[&str], budget: Budget) -> Vec<CalmRow> {
    type ConfigFn = fn() -> SystemConfig;
    let systems: [(&str, ConfigFn); 2] = [
        ("baseline", SystemConfig::ddr_baseline as ConfigFn),
        ("COAXIAL", SystemConfig::coaxial_4x as ConfigFn),
    ];
    let mechs = calm_mechanisms();

    // One serial anchor + every mechanism, per (workload, system) — all
    // independent, so the whole grid is one batch.
    let mut specs = Vec::new();
    for name in workload_names {
        let w = Workload::by_name(name).expect("workload exists");
        for (_, mk) in systems {
            specs.push(budget.spec(mk().with_calm(CalmPolicy::Serial), w));
            for &mech in &mechs {
                specs.push(budget.spec(mk().with_calm(mech), w));
            }
        }
    }
    let mut reports = runner::run_all(&specs).into_iter();

    let mut rows = Vec::new();
    for name in workload_names {
        let w = Workload::by_name(name).expect("workload exists");
        for (sys_name, _) in systems {
            let serial = reports.next().expect("serial anchor report");
            for &mech in &mechs {
                let r = reports.next().expect("mechanism report");
                rows.push(CalmRow {
                    workload: w.name.to_string(),
                    system: sys_name.to_string(),
                    mechanism: mech.label(),
                    speedup_vs_serial: r.speedup_over(&serial),
                    false_pos_per_mem_access: r.calm.false_pos_per_mem_access(),
                    false_neg_per_llc_miss: r.calm.false_neg_per_llc_miss(),
                });
            }
        }
    }
    rows
}

// ───────────────────────── Fig. 8 ───────────────────────────

/// One workload's speedups across COAXIAL variants (Fig. 8).
#[derive(Debug, Clone, Serialize)]
pub struct VariantRow {
    pub workload: String,
    pub coaxial_2x: f64,
    pub coaxial_4x: f64,
    pub coaxial_5x: f64,
    pub coaxial_asym: f64,
}

/// Fig. 8: COAXIAL-2x / -4x / -asym vs. the DDR baseline.
pub fn fig8_variants(budget: Budget) -> Vec<VariantRow> {
    let specs: Vec<RunSpec> = Workload::all()
        .iter()
        .flat_map(|w| {
            [
                budget.spec(SystemConfig::ddr_baseline(), w),
                budget.spec(SystemConfig::coaxial_2x(), w),
                budget.spec(SystemConfig::coaxial_4x(), w),
                budget.spec(SystemConfig::coaxial_5x(), w),
                budget.spec(SystemConfig::coaxial_asym(), w),
            ]
        })
        .collect();
    let reports = runner::run_all(&specs);
    Workload::all()
        .iter()
        .zip(reports.chunks_exact(5))
        .map(|(w, rs)| {
            let base = &rs[0];
            VariantRow {
                workload: w.name.to_string(),
                coaxial_2x: rs[1].speedup_over(base),
                coaxial_4x: rs[2].speedup_over(base),
                coaxial_5x: rs[3].speedup_over(base),
                coaxial_asym: rs[4].speedup_over(base),
            }
        })
        .collect()
}

// ───────────────────────── Fig. 10 ──────────────────────────

/// One workload's speedups for each CXL latency premium (Fig. 10 + §VII).
#[derive(Debug, Clone, Serialize)]
pub struct LatencyRow {
    pub workload: String,
    /// (latency_ns, speedup) in the order requested.
    pub speedups: Vec<(f64, f64)>,
}

/// Fig. 10: COAXIAL-4x speedup under different unloaded CXL latency
/// budgets (the paper's 50/70 ns, plus §VII's 10 ns OMI projection).
pub fn fig10_latency_sensitivity(latencies_ns: &[f64], budget: Budget) -> Vec<LatencyRow> {
    let per_wl = 1 + latencies_ns.len();
    let specs: Vec<RunSpec> = Workload::all()
        .iter()
        .flat_map(|w| {
            std::iter::once(budget.spec(SystemConfig::ddr_baseline(), w)).chain(
                latencies_ns.iter().map(move |&ns| {
                    budget.spec(SystemConfig::coaxial_4x().with_cxl_latency_ns(ns), w)
                }),
            )
        })
        .collect();
    let reports = runner::run_all(&specs);
    Workload::all()
        .iter()
        .zip(reports.chunks_exact(per_wl))
        .map(|(w, rs)| {
            let base = &rs[0];
            let speedups = latencies_ns
                .iter()
                .zip(&rs[1..])
                .map(|(&ns, r)| (ns, r.speedup_over(base)))
                .collect();
            LatencyRow { workload: w.name.to_string(), speedups }
        })
        .collect()
}

// ───────────────────────── Fig. 11 ──────────────────────────

/// One workload's speedups as a function of active cores (Fig. 11).
#[derive(Debug, Clone, Serialize)]
pub struct UtilizationRow {
    pub workload: String,
    /// (active_cores, speedup vs. baseline at same active cores).
    pub speedups: Vec<(usize, f64)>,
}

/// Fig. 11: vary the number of active cores; normalize COAXIAL to the
/// baseline *at the same utilization*.
pub fn fig11_core_utilization(active: &[usize], budget: Budget) -> Vec<UtilizationRow> {
    let specs: Vec<RunSpec> = Workload::all()
        .iter()
        .flat_map(|w| {
            active.iter().flat_map(move |&n| {
                [
                    budget.spec(SystemConfig::ddr_baseline().with_active_cores(n), w),
                    budget.spec(SystemConfig::coaxial_4x().with_active_cores(n), w),
                ]
            })
        })
        .collect();
    let reports = runner::run_all(&specs);
    Workload::all()
        .iter()
        .zip(reports.chunks_exact(2 * active.len()))
        .map(|(w, rs)| {
            let speedups = active
                .iter()
                .zip(rs.chunks_exact(2))
                .map(|(&n, pair)| (n, pair[1].speedup_over(&pair[0])))
                .collect();
            UtilizationRow { workload: w.name.to_string(), speedups }
        })
        .collect()
}

// ─────────────────── Telemetry latency breakdown ────────────────────

/// One system's fine-grained L2-miss latency attribution
/// (`coaxial breakdown`; the telemetry-subsystem refinement of the
/// paper's Fig. 2b four-way split).
#[derive(Debug, Clone, Serialize)]
pub struct BreakdownRow {
    pub config_name: String,
    pub workload: String,
    /// (component label, mean ns over *all* L2 misses in the measured
    /// window). Summing this column reproduces `total_ns` exactly — the
    /// conservation contract of [`coaxial_telemetry::MissRecord`].
    pub components_ns: Vec<(String, f64)>,
    /// Mean end-to-end L2-miss latency, ns.
    pub total_ns: f64,
    /// The same data folded into the paper's coarse categories:
    /// (on-chip, queuing, DRAM service, CXL interface), ns.
    pub paper_ns: (f64, f64, f64, f64),
    /// Attributed requests (primary L2 misses) in the measured window.
    pub requests: u64,
    pub llc_hits: u64,
    pub calm_requests: u64,
    /// The driver's own mean L2-miss latency, ns — reported alongside so
    /// tables can show the attribution matches the untelemetered number.
    pub report_total_ns: f64,
    pub ipc: f64,
}

/// Run each config on `workload` with a [`TelemetryRecorder`] attached and
/// return per-component latency breakdowns. Runs are independent, so the
/// batch spreads over `COAXIAL_JOBS` like every other sweep.
pub fn latency_breakdown(
    configs: &[SystemConfig],
    workload: &str,
    budget: Budget,
) -> Vec<BreakdownRow> {
    let w = Workload::by_name(workload).expect("workload exists");
    runner::parallel_map(configs, |cfg| {
        let (report, rec, _metrics) = Simulation::new(cfg.clone(), w)
            .instructions_per_core(budget.instructions)
            .warmup(budget.warmup)
            .run_with_telemetry(TelemetryRecorder::new());
        let att = &rec.attribution;
        BreakdownRow {
            config_name: cfg.name.clone(),
            workload: w.name.to_string(),
            components_ns: att
                .mean_ns_rows()
                .into_iter()
                .map(|(c, v)| (c.label().to_string(), v))
                .collect(),
            total_ns: coaxial_telemetry::time::cycles_f64_to_ns(att.total.mean()),
            paper_ns: att.paper_breakdown_ns(),
            requests: att.requests(),
            llc_hits: att.llc_hits,
            calm_requests: att.calm_requests,
            report_total_ns: report.l2_miss_latency_ns,
            ipc: report.ipc,
        }
    })
}

// ───────────────────────── Table V ──────────────────────────

/// Table V inputs: the measured average CPIs of both systems.
#[derive(Debug, Clone, Serialize)]
pub struct Table5Inputs {
    pub baseline_cpi: f64,
    pub coaxial_cpi: f64,
}

/// Compute average CPIs from a Fig. 5 comparison set.
pub fn table5_inputs(rows: &[CompareRow]) -> Table5Inputs {
    let n = rows.len() as f64;
    let base: f64 = rows.iter().map(|r| 1.0 / r.base.ipc.max(1e-9)).sum::<f64>() / n;
    let coax: f64 = rows.iter().map(|r| 1.0 / r.coax.ipc.max(1e-9)).sum::<f64>() / n;
    Table5Inputs { baseline_cpi: base, coaxial_cpi: coax }
}

// ─────────────── Knob-coverage / sensitivity sweeps ───────────────
//
// These sweeps exist so that *every* public fidelity knob in the config
// structs is exercised end to end by at least one experiment — the
// contract coaxial-lint's E02 rule enforces statically (a knob the model
// reads but no experiment varies is untested fidelity: nothing would
// notice if its wiring broke). They double as data sources for the
// `ablations` registry entry.

fn named_workloads(names: &[&str]) -> Vec<&'static Workload> {
    names.iter().map(|n| Workload::by_name(n).expect("workload exists")).collect()
}

/// One DRAM speed-grade sensitivity row: every [`coaxial_dram::DramTimings`]
/// parameter scaled together by `factor`.
#[derive(Debug, Clone, Serialize)]
pub struct TimingScaleRow {
    pub factor: f64,
    pub base_geomean_ipc: f64,
    pub coax_geomean_ipc: f64,
}

/// Scale every DDR5 timing parameter by each factor and re-run both
/// systems — the "are the datasheet timings actually load-bearing?"
/// sensitivity check that silicon-validated CXL simulators run against
/// hardware.
pub fn dram_timing_scale(
    factors: &[f64],
    workload_names: &[&str],
    budget: Budget,
) -> Vec<TimingScaleRow> {
    let ws = named_workloads(workload_names);
    let specs: Vec<RunSpec> = factors
        .iter()
        .flat_map(|&f| {
            let dram = DramConfig::ddr5_4800().with_timing_scale(f);
            ws.iter().copied().flat_map(move |w| {
                [
                    budget.spec(SystemConfig::ddr_baseline().with_dram(dram.clone()), w),
                    budget.spec(SystemConfig::coaxial_4x().with_dram(dram.clone()), w),
                ]
            })
        })
        .collect();
    let reports = runner::run_all(&specs);
    factors
        .iter()
        .zip(reports.chunks_exact(2 * ws.len()))
        .map(|(&factor, rs)| TimingScaleRow {
            factor,
            base_geomean_ipc: geomean(rs.chunks_exact(2).map(|p| p[0].ipc)),
            coax_geomean_ipc: geomean(rs.chunks_exact(2).map(|p| p[1].ipc)),
        })
        .collect()
}

/// One slice-size scaling row (beyond the paper's fixed 12-core slice).
#[derive(Debug, Clone, Serialize)]
pub struct CoreScalingRow {
    pub cores: usize,
    pub base_geomean_ipc: f64,
    pub coax_geomean_ipc: f64,
    /// Geomean per-workload COAXIAL speedup at this slice size.
    pub speedup: f64,
}

/// Resize the simulated slice (mesh, LLC banking, and workload sharding
/// all rebuild around the count) and compare both systems at each size.
pub fn core_scaling(
    cores: &[usize],
    workload_names: &[&str],
    budget: Budget,
) -> Vec<CoreScalingRow> {
    let ws = named_workloads(workload_names);
    let specs: Vec<RunSpec> = cores
        .iter()
        .flat_map(|&n| {
            ws.iter().copied().flat_map(move |w| {
                [
                    budget.spec(SystemConfig::ddr_baseline().with_cores(n), w),
                    budget.spec(SystemConfig::coaxial_4x().with_cores(n), w),
                ]
            })
        })
        .collect();
    let reports = runner::run_all(&specs);
    cores
        .iter()
        .zip(reports.chunks_exact(2 * ws.len()))
        .map(|(&n, rs)| CoreScalingRow {
            cores: n,
            base_geomean_ipc: geomean(rs.chunks_exact(2).map(|p| p[0].ipc)),
            coax_geomean_ipc: geomean(rs.chunks_exact(2).map(|p| p[1].ipc)),
            speedup: geomean(rs.chunks_exact(2).map(|p| p[1].speedup_over(&p[0]))),
        })
        .collect()
}

/// One prefetch-policy row, normalized to the no-prefetch run of the same
/// system (the bandwidth-funds-latency-tolerance asymmetry check).
#[derive(Debug, Clone, Serialize)]
pub struct PrefetchRow {
    pub policy: String,
    pub workload: String,
    /// Baseline-system IPC relative to baseline without prefetching.
    pub base_rel_ipc: f64,
    /// COAXIAL-4x IPC relative to COAXIAL-4x without prefetching.
    pub coax_rel_ipc: f64,
}

/// Run each prefetch policy on both systems across the workload set; rows
/// are IPC relative to the matching no-prefetch configuration.
pub fn prefetch_sweep(
    policies: &[PrefetchPolicy],
    workload_names: &[&str],
    budget: Budget,
) -> Vec<PrefetchRow> {
    let ws = named_workloads(workload_names);
    let specs: Vec<RunSpec> = ws
        .iter()
        .copied()
        .flat_map(|w| {
            let mut group = vec![
                budget.spec(SystemConfig::ddr_baseline(), w),
                budget.spec(SystemConfig::coaxial_4x(), w),
            ];
            for &p in policies {
                group.push(budget.spec(SystemConfig::ddr_baseline().with_prefetch(p), w));
                group.push(budget.spec(SystemConfig::coaxial_4x().with_prefetch(p), w));
            }
            group
        })
        .collect();
    let reports = runner::run_all(&specs);
    let group = 2 + 2 * policies.len();
    let mut rows = Vec::new();
    for (w, rs) in ws.iter().zip(reports.chunks_exact(group)) {
        let (base0, coax0) = (rs[0].ipc.max(1e-9), rs[1].ipc.max(1e-9));
        for (pi, p) in policies.iter().enumerate() {
            rows.push(PrefetchRow {
                policy: p.label(),
                workload: w.name.to_string(),
                base_rel_ipc: rs[2 + 2 * pi].ipc / base0,
                coax_rel_ipc: rs[3 + 2 * pi].ipc / coax0,
            });
        }
    }
    rows
}

/// One RNG-seed sensitivity row.
#[derive(Debug, Clone, Serialize)]
pub struct SeedStabilityRow {
    pub seed: u64,
    pub geomean_ipc: f64,
}

/// Re-run COAXIAL-4x under different workload-generation/CALM_R seeds.
/// Same-seed determinism is proven elsewhere (bit-identical sweeps); this
/// measures how much the headline number moves across *different* draws —
/// it should be small, or the figures are measuring the seed.
pub fn seed_stability(
    seeds: &[u64],
    workload_names: &[&str],
    budget: Budget,
) -> Vec<SeedStabilityRow> {
    let ws = named_workloads(workload_names);
    let specs: Vec<RunSpec> = seeds
        .iter()
        .flat_map(|&s| {
            ws.iter().copied().map(move |w| budget.spec(SystemConfig::coaxial_4x().with_seed(s), w))
        })
        .collect();
    let reports = runner::run_all(&specs);
    seeds
        .iter()
        .zip(reports.chunks_exact(ws.len()))
        .map(|(&seed, rs)| SeedStabilityRow {
            seed,
            geomean_ipc: geomean(rs.iter().map(|r| r.ipc)),
        })
        .collect()
}

// ───────────────────────── Interval sampling ─────────────────

/// One workload's full-detail vs interval-sampled comparison.
#[derive(Debug, Clone, Serialize)]
pub struct SamplingRow {
    pub workload: &'static str,
    /// IPC of the conventional full-detail run at the same budget.
    pub full_ipc: f64,
    /// Interval-sampled IPC estimate (mean of per-interval means).
    pub sampled_ipc: f64,
    /// 95 % confidence-interval half-width on `sampled_ipc`.
    pub ci_half: f64,
    pub intervals_run: u64,
    /// Share of the covered horizon executed on the timing model.
    pub detail_fraction: f64,
    /// Whether the full-detail IPC falls inside the sampled estimate's CI.
    pub within_ci: bool,
}

/// Run each workload twice over the same per-core horizon — once in full
/// detail, once interval-sampled (§DESIGN 5i) — and report how close the
/// sampled estimate lands. The differential test suite asserts on this;
/// the experiment exists so the comparison is reproducible from the CLI.
pub fn sampling_accuracy(
    workload_names: &[&str],
    budget: Budget,
    scfg: &crate::sampling::SamplingConfig,
) -> Vec<SamplingRow> {
    let ws = named_workloads(workload_names);
    let full = runner::run_all(
        &ws.iter().copied().map(|w| budget.spec(SystemConfig::coaxial_4x(), w)).collect::<Vec<_>>(),
    );
    ws.iter()
        .zip(full)
        .map(|(w, f)| {
            let sr = Simulation::new(SystemConfig::coaxial_4x(), w)
                .instructions_per_core(budget.instructions)
                .warmup(budget.warmup)
                .run_sampled(scfg);
            let s = sr.sampling;
            let covered = s.detail_instructions + s.fast_forward_instructions;
            SamplingRow {
                workload: w.name,
                full_ipc: f.ipc,
                sampled_ipc: s.ipc_mean,
                ci_half: s.ipc_ci_half,
                intervals_run: s.intervals_run,
                detail_fraction: if covered == 0 {
                    1.0
                } else {
                    #[allow(clippy::cast_precision_loss)]
                    {
                        s.detail_instructions as f64 / covered as f64
                    }
                },
                within_ci: (f.ipc - s.ipc_mean).abs() <= s.ipc_ci_half,
            }
        })
        .collect()
}

// ───────────────────────── Registry ─────────────────────────
//
// Every table, figure and study runs by name from here: `coaxial exp
// <name>` prints an entry's [`Output`], and the `paper` bench also
// writes its CSVs and SVGs under `target/paper-results/`. An experiment is
// not "done" until it has an entry (lint E05 requires every pub runner
// above to be reachable from the CLI).

/// One paper claim checked by a run: what the paper reports, what this
/// run measured, and the band or ordering the measurement must satisfy.
#[derive(Debug, Clone)]
pub struct Claim {
    pub what: &'static str,
    pub paper: &'static str,
    pub measured: String,
    /// The accepted band or ordering, as text.
    pub accept: String,
    pub holds: bool,
}

impl Claim {
    /// `measured` must lie in `[lo, hi]`.
    fn band(what: &'static str, paper: &'static str, measured: f64, (lo, hi): (f64, f64)) -> Self {
        Self {
            what,
            paper,
            measured: format!("{measured:.3}"),
            accept: format!("[{lo:.2}, {hi:.2}]"),
            holds: (lo..=hi).contains(&measured),
        }
    }
}

impl fmt::Display for Claim {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "claim {}: paper {}, measured {}, accepted {} — {}",
            self.what,
            self.paper,
            self.measured,
            self.accept,
            if self.holds { "holds" } else { "VIOLATED" }
        )
    }
}

/// Everything one experiment produces.
#[derive(Debug, Clone, Default)]
pub struct Output {
    pub tables: Vec<Table>,
    /// The figure data that the `paper` bench renders as SVG.
    pub charts: Vec<Chart>,
    /// Reproduction-vs-paper comparison lines.
    pub notes: Vec<String>,
    /// Paper claims with an acceptance band or ordering.
    pub claims: Vec<Claim>,
}

impl Output {
    fn tables(tables: Vec<Table>) -> Self {
        Self { tables, ..Self::default() }
    }

    fn note(mut self, line: impl Into<String>) -> Self {
        self.notes.push(line.into());
        self
    }
}

/// Each table followed by a blank line, then the notes and claims.
impl fmt::Display for Output {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tables {
            writeln!(f, "{t}")?;
        }
        for n in &self.notes {
            writeln!(f, "{n}")?;
        }
        for c in &self.claims {
            writeln!(f, "{c}")?;
        }
        Ok(())
    }
}

/// A registry entry: one table, figure or study, runnable by name.
#[derive(Debug, Clone, Copy)]
pub struct Experiment {
    pub name: &'static str,
    pub title: &'static str,
    pub run: fn(Budget) -> Output,
}

/// Every experiment, in paper order, then the extension studies.
///
/// Each producer is *called* inside a closure rather than named as a fn
/// pointer: coaxial-lint's call graph links `name(` call sites only, and
/// E05 must see every runner reachable from `coaxial exp`.
#[allow(
    clippy::redundant_closure,
    reason = "the closures give coaxial-lint's call graph a call site for each producer"
)]
pub fn registry() -> Vec<Experiment> {
    let e = |name, title, run: fn(Budget) -> Output| Experiment { name, title, run };
    vec![
        e("fig1", "Figure 1: bandwidth per pin, normalized to PCIe 1.0", |_| fig1()),
        e("fig2a", "Figure 2a: DDR5-4800 load-latency curve (avg, p90)", |_| fig2a()),
        e("fig2b", "Figure 2b: baseline L2-miss latency breakdown", |b| {
            fig2b(&baseline_characterization(b))
        }),
        e("table1-3", "Tables I-III: areas, server designs, parameters", |_| tables_1_to_3()),
        e("table4", "Table IV: workload IPC and LLC MPKI on the baseline", |b| {
            table4(&baseline_characterization(b))
        }),
        e("fig5", "Figure 5: COAXIAL-4x vs DDR baseline", |b| fig5(b)),
        e("fig6", "Figure 6: workload-mix speedups", |b| fig6(b, false)),
        e("fig6-weighted", "Figure 6 with the weighted-speedup metric", |b| fig6(b, true)),
        e("fig7", "Figure 7: CALM mechanism sensitivity and decision quality", |b| fig7(b)),
        e("fig8", "Figure 8: COAXIAL design variants vs DDR baseline", |b| fig8(b)),
        e("fig9", "Figure 9: read vs write bandwidth on the baseline", |b| {
            fig9(&baseline_characterization(b))
        }),
        e("fig10", "Figure 10 (+§VII): sensitivity to the CXL latency premium", |b| fig10(b)),
        e("fig11", "Figure 11: speedup vs active cores (1 / 4 / 8 / 12 of 12)", |b| fig11(b)),
        e("table5", "Table V: energy/power comparison for the 144-core server", |b| table5(b)),
        e("ablations", "Design-choice sensitivity (extension)", |b| ablations(b)),
        e("baseline", "Figs. 2b and 9 and Table IV from one baseline sweep", |b| baseline(b)),
        e("dram-timing", "DRAM speed grade: every DDR5 timing scaled", |b| {
            Output::tables(vec![dram_timing_table("dram_timing", &[0.75, 1.0, 1.5], SMOKE_SET, b)])
        }),
        e("core-scaling", "Slice size: geomean IPC and speedup per core count", |b| {
            Output::tables(vec![core_scaling_table("core_scaling", &[6, 12], &["mcf"], b)])
        }),
        e("prefetch", "L2 prefetching on both systems", |b| {
            Output::tables(vec![prefetch_table("prefetch", &["stream-add"], b)])
        }),
        e("seeds", "Seed stability of the COAXIAL-4x geomean IPC", |b| {
            Output::tables(vec![seed_table("seeds", &[1, 2, 3], &["mcf"], b)])
        }),
        e("sampling", "Interval-sampled vs full-detail IPC", |b| sampling(b)),
    ]
}

/// The registry entry called `name`, if any. (Not `find`: the lint's
/// call graph would link every iterator `.find(` call to it.)
pub fn experiment(name: &str) -> Option<Experiment> {
    registry().into_iter().find(|e| e.name == name)
}

/// Two contrasting workloads (bandwidth-bound and latency-bound) for the
/// laptop-scale standalone studies.
const SMOKE_SET: &[&str] = &["stream-add", "mcf"];

fn fig1() -> Output {
    let points = pinout::bandwidth_per_pin_table();
    let mut t = Table::new(
        "fig1_bw_per_pin",
        &["interface", "family", "year", "GB/s", "pins", "GB/s/pin", "norm"],
    );
    for (p, (_, n)) in points.iter().zip(pinout::normalized_to_pcie1()) {
        t.row(&[
            p.name.to_string(),
            p.family.to_string(),
            p.year.to_string(),
            f2(p.bandwidth_gbs),
            p.pins.to_string(),
            format!("{:.4}", p.bw_per_pin()),
            f2(n),
        ]);
    }
    // Fig. 1 as a per-family time series, log-y like the paper.
    let pcie1 = 0.0625;
    let charts = ["DDR", "PCIe"]
        .into_iter()
        .map(|family| {
            let fam: Vec<_> = points.iter().filter(|p| p.family == family).collect();
            Chart::log_lines(
                &format!("fig1_{}", family.to_lowercase()),
                &format!("Fig. 1: {family} bandwidth per pin (norm. to PCIe 1.0)"),
                "norm. GB/s per pin",
                fam.iter().map(|p| f64::from(p.year)).collect(),
                vec![Series::new(family, fam.iter().map(|p| p.bw_per_pin() / pcie1).collect())],
            )
        })
        .collect();
    Output { charts, ..Output::tables(vec![t]) }.note(format!(
        "PCIe 5.0 vs DDR5-4800 bandwidth/pin: {:.2}x (paper: ~4x)",
        pinout::pcie5_vs_ddr5_ratio()
    ))
}

/// Simulated cycles per Fig. 2a load point.
const FIG2A_HORIZON_CYCLES: Cycle = 600_000;

fn fig2a() -> Output {
    let utils: Vec<f64> = (1..=17).map(|i| f64::from(i) * 0.05).collect();
    let pts = fig2a_load_latency(&utils, FIG2A_HORIZON_CYCLES);
    let mut t =
        Table::new("fig2a_load_latency", &["target util", "achieved util", "avg ns", "p90 ns"]);
    for p in &pts {
        t.row(&[
            pct(p.target_utilization),
            pct(p.achieved_utilization),
            f1(p.avg_ns),
            f1(p.p90_ns),
        ]);
    }
    let chart = Chart::log_lines(
        "fig2a_load_latency",
        "Fig. 2a: DDR5-4800 load-latency curve",
        "latency (ns)",
        pts.iter().map(|p| p.target_utilization).collect(),
        vec![
            Series::new("avg ns", pts.iter().map(|p| p.avg_ns).collect()),
            Series::new("p90 ns", pts.iter().map(|p| p.p90_ns).collect()),
        ],
    );
    // Paper checkpoints: avg grows ~3x at 50% load; p90 grows faster.
    let (lo, mid) = (&pts[0], &pts[9]); // 5% and 50% load
    Output { charts: vec![chart], ..Output::tables(vec![t]) }.note(format!(
        "avg growth at 50% load: {:.1}x (paper ~3x); p90 growth: {:.1}x (paper ~4.7x)",
        mid.avg_ns / lo.avg_ns,
        mid.p90_ns / lo.p90_ns
    ))
}

/// Figs. 2b and 9 and Table IV tabulate one baseline sweep; the
/// `baseline` entry prints all three from a single run of it.
fn fig2b(rows: &[BaselineRow]) -> Output {
    let mut t = Table::new(
        "fig2b_latency_breakdown",
        &[
            "workload",
            "on-chip ns",
            "queuing ns",
            "DRAM ns",
            "L2-miss ns",
            "BW util",
            "queue share",
        ],
    );
    let mut q_share_sum = 0.0;
    for r in rows {
        let (on, q, s, _) = r.breakdown_ns;
        let total = on + q + s;
        let share = if total > 0.0 { q / total } else { 0.0 };
        q_share_sum += share;
        t.row(&[
            r.workload.clone(),
            f1(on),
            f1(q),
            f1(s),
            f1(total),
            pct(r.utilization),
            pct(share),
        ]);
    }
    Output::tables(vec![t]).note(format!(
        "average queuing share of L2-miss latency: {} (paper: ~60%)",
        pct(q_share_sum / rows.len() as f64)
    ))
}

fn tables_1_to_3() -> Output {
    let m = AreaModel::table_i();
    let mut t1 = Table::new("table1_area", &["component", "relative area"])
        .captioned("Table I — relative component area (units of 1 MB LLC)");
    t1.row(&["L3 cache (1 MB)".into(), f2(m.llc_1mb)]);
    t1.row(&["Zen 3 core (incl. 512 KB L2)".into(), f2(m.zen3_core)]);
    t1.row(&["x8 PCIe (PHY + ctrl)".into(), f2(m.pcie_x8)]);
    t1.row(&["DDR channel (PHY + ctrl)".into(), f2(m.ddr_channel)]);

    let mut t2 = Table::new(
        "table2_configs",
        &[
            "design",
            "cores",
            "LLC/core MB",
            "DDR ch",
            "CXL x8 ch",
            "rel. BW",
            "rel. area",
            "comment",
        ],
    )
    .captioned("Table II — DDR-based versus alternative COAXIAL server configurations");
    for d in ServerDesign::table_ii() {
        t2.row(&[
            d.name.to_string(),
            d.cores.to_string(),
            f2(d.llc_mb_per_core),
            d.ddr_channels.to_string(),
            d.cxl_x8_channels.to_string(),
            if d.relative_bandwidth.is_nan() {
                "asym R/W".into()
            } else {
                format!("{:.0}x", d.relative_bandwidth)
            },
            f2(d.relative_area(&m)),
            d.comment.to_string(),
        ]);
    }

    let mut t3 = Table::new(
        "table3_parameters",
        &["config", "DDR channels", "LLC MB/core", "peak GB/s", "CALM"],
    )
    .captioned("Table III — simulated system parameters (12-core slice)");
    for cfg in [
        SystemConfig::ddr_baseline(),
        SystemConfig::coaxial_2x(),
        SystemConfig::coaxial_4x(),
        SystemConfig::coaxial_5x(),
        SystemConfig::coaxial_asym(),
    ] {
        t3.row(&[
            cfg.name.clone(),
            cfg.ddr_channels().to_string(),
            f2(cfg.functional.llc_mb_per_core),
            f2(cfg.peak_bandwidth_gbs()),
            cfg.timing.calm.label(),
        ]);
    }
    Output::tables(vec![t1, t2, t3]).note(
        "CPU: 12 OoO cores, 2.4 GHz, 4-wide, 256-entry ROB; L1 32 KB/8-way/4-cycle; \
         L2 512 KB/8-way/8-cycle; LLC 16-way/20-cycle; NoC 2D mesh, 3 cycles/hop.",
    )
}

fn table4(rows: &[BaselineRow]) -> Output {
    let mut t =
        Table::new("table4_workloads", &["workload", "IPC", "MPKI", "paper IPC", "paper MPKI"]);
    for r in rows {
        t.row(&[
            r.workload.clone(),
            f2(r.ipc),
            format!("{:.0}", r.mpki),
            f2(r.paper_ipc),
            r.paper_mpki.to_string(),
        ]);
    }
    // Spearman rank correlation of measured vs paper MPKI (shape check).
    let ranks = |vals: Vec<f64>| {
        let mut order: Vec<usize> = (0..vals.len()).collect();
        order.sort_by(|&a, &b| vals[a].total_cmp(&vals[b]));
        let mut rank = vec![0usize; vals.len()];
        for (r, i) in order.into_iter().enumerate() {
            rank[i] = r;
        }
        rank
    };
    let rank_m = ranks(rows.iter().map(|r| r.mpki).collect());
    let rank_p = ranks(rows.iter().map(|r| f64::from(r.paper_mpki)).collect());
    let n = rows.len() as f64;
    let d2: f64 = rank_m.iter().zip(&rank_p).map(|(&m, &p)| (m as f64 - p as f64).powi(2)).sum();
    let rho = 1.0 - 6.0 * d2 / (n * (n * n - 1.0));
    Output::tables(vec![t]).note(format!(
        "Spearman rank correlation of MPKI vs paper: {rho:.2} (1.0 = identical ordering)"
    ))
}

/// Accepted band for the Fig. 5 geomean speedup. It holds the paper's
/// 1.39x and this model's 1.458 (quick budget) and 1.47 (default budget).
const FIG5_GEOMEAN_BAND: (f64, f64) = (1.30, 1.60);

fn fig5(budget: Budget) -> Output {
    let rows = fig5_main(budget);
    let mut t = Table::new(
        "fig5_main_results",
        &[
            "workload",
            "speedup",
            "base lat ns (on+q+dram)",
            "coax lat ns (on+q+dram+cxl)",
            "base GB/s",
            "coax GB/s",
            "base util",
            "coax util",
        ],
    );
    for r in &rows {
        let (ob, qb, sb, _) = r.base.breakdown_ns;
        let (oc, qc, sc, xc) = r.coax.breakdown_ns;
        t.row(&[
            r.workload.clone(),
            f2(r.speedup),
            format!("{} ({}+{}+{})", f1(ob + qb + sb), f1(ob), f1(qb), f1(sb)),
            format!("{} ({}+{}+{}+{})", f1(oc + qc + sc + xc), f1(oc), f1(qc), f1(sc), f1(xc)),
            f1(r.base.bandwidth_gbs),
            f1(r.coax.bandwidth_gbs),
            pct(r.base.utilization),
            pct(r.coax.utilization),
        ]);
    }
    let chart = Chart::speedup_bars(
        "fig5_speedup",
        "Fig. 5 (top): COAXIAL-4x speedup over DDR baseline",
        rows.iter().map(|r| r.workload.clone()).collect(),
        vec![Series::new("COAXIAL-4x speedup", rows.iter().map(|r| r.speedup).collect())],
    );

    let n = rows.len() as f64;
    let base_util: f64 = rows.iter().map(|r| r.base.utilization).sum::<f64>() / n;
    let coax_util: f64 = rows.iter().map(|r| r.coax.utilization).sum::<f64>() / n;
    let losers = rows.iter().filter(|r| r.speedup < 1.0).count();
    let max = rows.iter().max_by(|a, b| a.speedup.total_cmp(&b.speedup)).expect("36 workloads");
    let lat_reduction =
        1.0 - geomean(rows.iter().map(|r| r.coax.l2_miss_latency_ns / r.base.l2_miss_latency_ns));
    let gm = geomean(rows.iter().map(|r| r.speedup));
    Output {
        tables: vec![t],
        charts: vec![chart],
        notes: vec![
            format!("geomean speedup: {gm:.2}x   (paper: 1.39x, up to 3x)"),
            format!("max speedup:     {:.2}x on {}", max.speedup, max.workload),
            format!("workloads losing performance: {losers}   (paper: 7)"),
            format!(
                "avg bandwidth utilization: {} -> {}   (paper: 54% -> 34%)",
                pct(base_util),
                pct(coax_util)
            ),
            format!("geomean L2-miss latency reduction: {}   (paper: 29%)", pct(lat_reduction)),
        ],
        claims: vec![Claim::band("Fig. 5 geomean speedup", "1.39", gm, FIG5_GEOMEAN_BAND)],
    }
}

/// Fig. 6 runs the paper's ten mixes.
const FIG6_MIXES: u64 = 10;

fn fig6(budget: Budget, weighted: bool) -> Output {
    let rows = fig6_mixes_full(FIG6_MIXES, budget, weighted);
    let name = if weighted { "fig6_mixes_weighted" } else { "fig6_mixes" };
    let mut t = Table::new(name, &["mix", "speedup", "weighted-speedup", "workloads"]);
    for r in &rows {
        t.row(&[
            format!("mix-{}", r.mix_id),
            f2(r.speedup),
            r.weighted_speedup_ratio.map(f2).unwrap_or_else(|| "-".into()),
            r.workloads.join("+"),
        ]);
    }
    let min = rows.iter().map(|r| r.speedup).fold(f64::INFINITY, f64::min);
    let max = rows.iter().map(|r| r.speedup).fold(0.0, f64::max);
    let gm = geomean(rows.iter().map(|r| r.speedup));
    let out = Output::tables(vec![t]).note(format!(
        "min/max/geomean mix speedup: {min:.2}x / {max:.2}x / {gm:.2}x   (paper: 1.5x / 1.9x / 1.7x)"
    ));
    if weighted {
        out
    } else {
        out.note("(`fig6-weighted` fills the weighted-speedup column)")
    }
}

/// Fig. 7's per-workload panel: the four workloads the paper shows.
const FIG7_SHOWN: [&str; 4] = ["gcc", "stream-copy", "lbm", "PageRank"];
/// Fig. 7's "avg" cluster: the paper averages all 36 workloads; to bound
/// runtime this averages a fixed 12-workload sample (one per suite tier).
const FIG7_SAMPLE: [&str; 12] = [
    "lbm",
    "gcc",
    "mcf",
    "bwaves",
    "PageRank",
    "Components",
    "BFS",
    "stream-copy",
    "stream-triad",
    "streamcluster",
    "masstree",
    "kmeans",
];

fn fig7(budget: Budget) -> Output {
    let mut t = Table::new(
        "fig7_calm",
        &["workload", "system", "mechanism", "speedup vs serial", "FP/mem access", "FN/LLC miss"],
    );
    for r in fig7_calm(&FIG7_SHOWN, budget) {
        t.row(&[
            r.workload,
            r.system,
            r.mechanism,
            f2(r.speedup_vs_serial),
            pct(r.false_pos_per_mem_access),
            pct(r.false_neg_per_llc_miss),
        ]);
    }
    let avg_rows = fig7_calm(&FIG7_SAMPLE, budget);
    let mut avg =
        Table::new("fig7_calm_avg", &["system", "mechanism", "geomean speedup vs serial"])
            .captioned(format!("averages over {} workloads:", FIG7_SAMPLE.len()));
    for system in ["baseline", "COAXIAL"] {
        for mech in calm_mechanisms().iter().map(CalmPolicy::label) {
            let gm = geomean(
                avg_rows
                    .iter()
                    .filter(|r| r.system == system && r.mechanism == mech)
                    .map(|r| r.speedup_vs_serial),
            );
            avg.row(&[system.to_string(), mech, f2(gm)]);
        }
    }
    Output::tables(vec![t, avg]).note(
        "paper: CALM lifts COAXIAL from 1.28x to 1.39x over baseline; baseline's average \
         gain from CALM is negligible; CALM-70% FP ≈ 4% of memory accesses, FN ≈ 11% of LLC misses.",
    )
}

fn fig8(budget: Budget) -> Output {
    let rows = fig8_variants(budget);
    let mut t = Table::new(
        "fig8_variants",
        &["workload", "COAXIAL-2x", "COAXIAL-4x", "COAXIAL-5x", "COAXIAL-asym"],
    );
    for r in &rows {
        t.row(&[
            r.workload.clone(),
            f2(r.coaxial_2x),
            f2(r.coaxial_4x),
            f2(r.coaxial_5x),
            f2(r.coaxial_asym),
        ]);
    }
    let chart = Chart::speedup_bars(
        "fig8_variants",
        "Fig. 8: COAXIAL variants vs DDR baseline",
        rows.iter().map(|r| r.workload.clone()).collect(),
        vec![
            Series::new("2x", rows.iter().map(|r| r.coaxial_2x).collect()),
            Series::new("4x", rows.iter().map(|r| r.coaxial_4x).collect()),
            Series::new("asym", rows.iter().map(|r| r.coaxial_asym).collect()),
        ],
    );
    let gm2 = geomean(rows.iter().map(|r| r.coaxial_2x));
    let gm4 = geomean(rows.iter().map(|r| r.coaxial_4x));
    let gm5 = geomean(rows.iter().map(|r| r.coaxial_5x));
    let gma = geomean(rows.iter().map(|r| r.coaxial_asym));
    let regressed = rows.iter().filter(|r| r.coaxial_asym < r.coaxial_4x * 0.97).count();
    Output {
        tables: vec![t],
        charts: vec![chart],
        notes: vec![
            format!(
                "geomean speedups: 2x = {gm2:.2}, 4x = {gm4:.2}, 5x = {gm5:.2}, asym = {gma:.2}   \
                 (paper: 1.17 / 1.39 / — / 1.52; asym beats 4x by ~13%; 5x is the iso-pin\n\
                 Table II point the paper sizes but does not simulate)"
            ),
            format!("asym over 4x: {:.1}%", (gma / gm4 - 1.0) * 100.0),
            format!("workloads hurt by asym's reduced write bandwidth: {regressed}   (paper: 0)"),
        ],
        claims: vec![Claim {
            what: "Fig. 8 geomean order 2x < 4x <= asym",
            paper: "1.17 < 1.39 <= 1.52",
            measured: format!("{gm2:.3} < {gm4:.3} <= {gma:.3}"),
            accept: "2x < 4x <= asym".into(),
            holds: gm2 < gm4 && gm4 <= gma,
        }],
    }
}

fn fig9(rows: &[BaselineRow]) -> Output {
    let mut t = Table::new("fig9_rw_split", &["workload", "read GB/s", "write GB/s", "R:W ratio"]);
    let (mut rsum, mut wsum) = (0.0, 0.0);
    for r in rows {
        rsum += r.read_gbs;
        wsum += r.write_gbs;
        t.row(&[
            r.workload.clone(),
            f1(r.read_gbs),
            f1(r.write_gbs),
            f2(r.read_gbs / r.write_gbs.max(1e-6)),
        ]);
    }
    Output::tables(vec![t])
        .note(format!("average R:W ratio: {:.1}:1   (paper: 3.7:1)", rsum / wsum.max(1e-6)))
}

/// Fig. 10's CXL latency premiums: the paper's 50 and 70 ns, then §VII's
/// 10 ns OMI-like projection.
const FIG10_LATENCIES_NS: [f64; 3] = [50.0, 70.0, 10.0];

fn fig10(budget: Budget) -> Output {
    let rows = fig10_latency_sensitivity(&FIG10_LATENCIES_NS, budget);
    let (mut out, columns) = speedup_columns(
        "fig10_latency_sensitivity",
        "Fig. 10: sensitivity to the CXL latency premium",
        &["workload", "50 ns", "70 ns", "10 ns (OMI-like)"],
        &FIG10_LATENCIES_NS.map(|ns| format!("{ns:.0} ns")),
        rows.iter()
            .map(|r| (r.workload.clone(), r.speedups.iter().map(|s| s.1).collect()))
            .collect(),
    );
    for (ns, col) in FIG10_LATENCIES_NS.iter().zip(&columns) {
        let gm = geomean(col.iter().copied());
        let losers = col.iter().filter(|&&s| s < 1.0).count();
        out = out.note(format!("{ns:>5.0} ns: geomean {gm:.2}x, {losers} workloads lose"));
    }
    out.note(
        "paper: 50 ns -> 1.39x (7 losers); 70 ns -> 1.26x (10 losers); \
         10 ns -> 1.71x (no loser with CALM)",
    )
}

/// Fig. 11's active-core counts (8%, 33%, 66% and 100% of the slice).
const FIG11_ACTIVE: [usize; 4] = [1, 4, 8, 12];

fn fig11(budget: Budget) -> Output {
    let rows = fig11_core_utilization(&FIG11_ACTIVE, budget);
    let (mut out, columns) = speedup_columns(
        "fig11_core_utilization",
        "Fig. 11: speedup vs active cores",
        &["workload", "1 core", "4 cores", "8 cores", "12 cores"],
        &FIG11_ACTIVE.map(|n| format!("{n} cores")),
        rows.iter()
            .map(|r| (r.workload.clone(), r.speedups.iter().map(|s| s.1).collect()))
            .collect(),
    );
    for (n, col) in FIG11_ACTIVE.iter().zip(&columns) {
        let gm = geomean(col.iter().copied());
        out = out.note(format!("{n:>2} active cores: geomean speedup {gm:.2}x"));
    }
    out.note(
        "paper: 1 core -> 0.73x (27% slowdown); 8 cores (66% util, 8:1 core:MC) -> 1.17x; \
         12 cores -> 1.39x",
    )
}

/// A per-workload table with one speedup column per swept point, the
/// matching bar chart (one series per point, named by `labels`), and the
/// columns themselves for the caller's summary notes.
fn speedup_columns(
    name: &str,
    title: &str,
    headers: &[&str],
    labels: &[String],
    rows: Vec<(String, Vec<f64>)>,
) -> (Output, Vec<Vec<f64>>) {
    let mut t = Table::new(name, headers);
    for (w, speedups) in &rows {
        let mut cells = vec![w.clone()];
        cells.extend(speedups.iter().map(|&s| f2(s)));
        t.row(&cells);
    }
    let columns: Vec<Vec<f64>> =
        (0..labels.len()).map(|i| rows.iter().map(|r| r.1[i]).collect()).collect();
    let series = labels.iter().zip(&columns).map(|(l, c)| Series::new(l, c.clone())).collect();
    let chart = Chart::speedup_bars(name, title, rows.into_iter().map(|r| r.0).collect(), series);
    (Output { charts: vec![chart], ..Output::tables(vec![t]) }, columns)
}

fn table5(budget: Budget) -> Output {
    let inputs = table5_inputs(&fig5_main(budget));
    let (base, coax) = power::table5(inputs.baseline_cpi, inputs.coaxial_cpi);
    let mut t = Table::new("table5_power_edp", &["component", "Baseline", "COAXIAL"]);
    let w = |x: f64| format!("{x:.0} W");
    t.row(&["Cores + L1 + L2".into(), w(base.core_w), w(coax.core_w)]);
    t.row(&["DDR5 MC & PHY".into(), w(base.ddr_mc_w), w(coax.ddr_mc_w)]);
    t.row(&["LLC (leakage+access)".into(), w(base.llc_w), w(coax.llc_w)]);
    t.row(&["CXL interface".into(), w(base.cxl_w), w(coax.cxl_w)]);
    t.row(&["DDR5 DIMMs".into(), w(base.dimm_w), w(coax.dimm_w)]);
    t.row(&["Total system power".into(), w(base.total_w), w(coax.total_w)]);
    t.row(&["Average CPI (measured)".into(), f2(base.cpi), f2(coax.cpi)]);
    t.row(&["Relative perf/W".into(), "1.00".into(), f2(coax.perf_per_watt / base.perf_per_watt)]);
    t.row(&[
        "EDP (lower=better)".into(),
        format!("{:.0}", base.edp),
        format!("{:.0} ({:.2}x)", coax.edp, coax.edp / base.edp),
    ]);
    t.row(&[
        "ED2P (lower=better)".into(),
        format!("{:.0}", base.ed2p),
        format!("{:.0} ({:.2}x)", coax.ed2p, coax.ed2p / base.ed2p),
    ]);
    Output::tables(vec![t])
        .note("paper: 646 W vs 931 W; CPI 2.05 vs 1.48; perf/W 0.96; EDP 0.75x; ED2P 0.53x")
}

fn baseline(budget: Budget) -> Output {
    let rows = baseline_characterization(budget);
    [fig2b(&rows), table4(&rows), fig9(&rows)].into_iter().fold(Output::default(), |mut all, o| {
        all.tables.extend(o.tables);
        all.notes.extend(o.notes);
        all
    })
}

fn sampling(budget: Budget) -> Output {
    // Laptop-scale interval shape; warm == measure per the bias
    // calibration in the sampling module docs.
    let scfg = crate::sampling::SamplingConfig {
        intervals: 5,
        measure: 2_000,
        warm: 2_000,
        ci_target: 0.0,
    };
    let mut t = Table::new(
        "sampling",
        &["workload", "full IPC", "sampled IPC", "95% CI ±", "intervals", "detail share", "in CI"],
    );
    for r in sampling_accuracy(SMOKE_SET, budget, &scfg) {
        t.row(&[
            r.workload.to_string(),
            format!("{:.3}", r.full_ipc),
            format!("{:.3}", r.sampled_ipc),
            format!("{:.3}", r.ci_half),
            r.intervals_run.to_string(),
            pct(r.detail_fraction),
            if r.within_ci { "yes" } else { "no" }.into(),
        ]);
    }
    Output::tables(vec![t])
}

// ───────────────────────── Ablations ────────────────────────

/// The ablation studies' workload set: two bandwidth-bound, one graph,
/// one latency-bound, one key-value store and one clustering kernel.
const ABLATION_SET: &[&str] = &["stream-triad", "lbm", "PageRank", "mcf", "masstree", "kmeans"];

/// For each ablation workload, run `variants` and tabulate each one's IPC
/// relative to the first (which is printed as the fixed "1.00" column at
/// `anchor_col`).
fn relative_ipc_table(
    name: &str,
    headers: &[&str],
    anchor_col: usize,
    budget: Budget,
    variants: &[SystemConfig],
) -> Table {
    let ws = named_workloads(ABLATION_SET);
    let specs: Vec<RunSpec> =
        ws.iter().flat_map(|&w| variants.iter().map(move |c| budget.spec(c.clone(), w))).collect();
    let mut t = Table::new(name, headers);
    let ipc: Vec<f64> = runner::run_all(&specs).iter().map(|r| r.ipc).collect();
    for (w, ipc) in ws.iter().zip(ipc.chunks_exact(variants.len())) {
        let mut cells: Vec<String> = vec![w.name.into()];
        cells.extend(ipc[1..].iter().map(|v| f2(v / ipc[0])));
        cells.insert(anchor_col, "1.00".into());
        t.row(&cells);
    }
    t
}

fn ablations(budget: Budget) -> Output {
    let base = SystemConfig::ddr_baseline;
    let dram = DramConfig::ddr5_4800;
    let page = relative_ipc_table(
        "ablation_page_policy",
        &["workload", "open-adaptive", "open", "closed"],
        1,
        budget,
        &[
            base(),
            base().with_dram(dram().with_page_policy(PagePolicy::Open)),
            base().with_dram(dram().with_page_policy(PagePolicy::Closed)),
        ],
    )
    .captioned("1) DRAM page policy (baseline IPC, relative to open-adaptive)");
    let window = relative_ipc_table(
        "ablation_sched_window",
        &["workload", "w=1 (FCFS)", "w=4", "w=16", "w=48"],
        3,
        budget,
        &[
            base(),
            base().with_dram(dram().with_sched_window(1)),
            base().with_dram(dram().with_sched_window(4)),
            base().with_dram(dram().with_sched_window(48)),
        ],
    )
    .captioned("2) FR-FCFS scheduling window (baseline IPC relative to window=16)");
    let coax = SystemConfig::coaxial_4x;
    let epoch = relative_ipc_table(
        "ablation_calm_epoch",
        &["workload", "1k", "8k (default)", "64k"],
        2,
        budget,
        &[coax(), coax().with_calm_epoch(1024), coax().with_calm_epoch(65536)],
    )
    .captioned("3) CALM_R epoch (COAXIAL-4x IPC relative to the 8192-cycle default)");

    // MSHR count lives in HierarchyConfig, which SystemConfig does not
    // expose; these runs drive a hand-built hierarchy without warmup.
    let mshr_points: Vec<(&'static Workload, usize)> = named_workloads(ABLATION_SET)
        .into_iter()
        .flat_map(|w| [16, 4, 8, 32].map(|m| (w, m)))
        .collect();
    let mshr_ipc =
        runner::parallel_map(&mshr_points, |&(w, m)| mshr_run_ipc(m, w, budget.instructions));
    let mut mshrs = Table::new("ablation_mshrs", &["workload", "4", "8", "16 (default)", "32"])
        .captioned("4) L2 MSHRs (COAXIAL-4x IPC relative to 16; MLP ceiling)");
    for (w, ipc) in ABLATION_SET.iter().zip(mshr_ipc.chunks_exact(4)) {
        let rel = |i: usize| f2(ipc[i] / ipc[0]);
        mshrs.row(&[(*w).into(), rel(1), rel(2), "1.00".into(), rel(3)]);
    }

    // The knob-coverage sweeps run without warmup.
    let sweep = Budget { warmup: 0, ..budget };
    Output::tables(vec![
        page,
        window,
        epoch,
        mshrs,
        prefetch_table("ablation_prefetch", ABLATION_SET, sweep)
            .captioned("5) L2 prefetching (IPC relative to no-prefetch, per system)"),
        dram_timing_table("ablation_dram_speed_grade", &[0.75, 1.0, 1.5], ABLATION_SET, sweep)
            .captioned("6) DRAM speed grade (geomean IPC; every DDR5 timing scaled together)"),
        core_scaling_table("ablation_core_scaling", &[6, 12, 24], ABLATION_SET, sweep)
            .captioned("7) slice size (geomean IPC and COAXIAL speedup per core count)"),
        seed_table("ablation_seed_stability", &[0xC0A51A1, 1, 2, 3], ABLATION_SET, sweep)
            .captioned("8) seed stability (COAXIAL-4x geomean IPC per RNG seed)"),
    ])
    .note(
        "expectation: prefetch gains should be larger (or losses smaller) on COAXIAL than \
         on the bandwidth-starved baseline — the same asymmetry the paper shows for CALM.",
    )
}

/// Next-line and IP-stride prefetching on both systems, as IPC relative
/// to the same system without prefetching, with a geomean row.
fn prefetch_table(name: &str, workloads: &[&str], budget: Budget) -> Table {
    let policies = [PrefetchPolicy::NextLine { degree: 2 }, PrefetchPolicy::IpStride { degree: 4 }];
    let rows = prefetch_sweep(&policies, workloads, budget);
    let mut t = Table::new(
        name,
        &["workload", "base next-line", "base ip-stride", "coax next-line", "coax ip-stride"],
    );
    let mut gains: [Vec<f64>; 4] = Default::default();
    for (wl, pair) in workloads.iter().zip(rows.chunks_exact(policies.len())) {
        let vals = [
            pair[0].base_rel_ipc,
            pair[1].base_rel_ipc,
            pair[0].coax_rel_ipc,
            pair[1].coax_rel_ipc,
        ];
        for (v, g) in vals.iter().zip(gains.iter_mut()) {
            g.push(*v);
        }
        t.row(&[(*wl).into(), f2(vals[0]), f2(vals[1]), f2(vals[2]), f2(vals[3])]);
    }
    let mut geo = vec!["geomean".to_string()];
    geo.extend(gains.iter().map(|g| f2(geomean(g.iter().copied()))));
    t.row(&geo);
    t
}

fn dram_timing_table(name: &str, factors: &[f64], workloads: &[&str], budget: Budget) -> Table {
    let mut t = Table::new(name, &["timing scale", "baseline", "COAXIAL-4x"]);
    for r in dram_timing_scale(factors, workloads, budget) {
        t.row(&[format!("{:.2}x", r.factor), f2(r.base_geomean_ipc), f2(r.coax_geomean_ipc)]);
    }
    t
}

fn core_scaling_table(name: &str, cores: &[usize], workloads: &[&str], budget: Budget) -> Table {
    let mut t = Table::new(name, &["cores", "baseline", "COAXIAL-4x", "speedup"]);
    for r in core_scaling(cores, workloads, budget) {
        t.row(&[
            r.cores.to_string(),
            f2(r.base_geomean_ipc),
            f2(r.coax_geomean_ipc),
            f2(r.speedup),
        ]);
    }
    t
}

fn seed_table(name: &str, seeds: &[u64], workloads: &[&str], budget: Budget) -> Table {
    let mut t = Table::new(name, &["seed", "geomean IPC"]);
    for r in seed_stability(seeds, workloads, budget) {
        t.row(&[format!("{:#x}", r.seed), f2(r.geomean_ipc)]);
    }
    t
}

/// Mean per-core IPC of COAXIAL-4x with `mshrs` L2 MSHRs per core, driven
/// directly (no warmup, no prefill) for `instructions` per core.
fn mshr_run_ipc(mshrs: usize, w: &'static Workload, instructions: u64) -> f64 {
    fn drive<B: MemoryBackend>(
        cfg: &SystemConfig,
        hier_cfg: HierarchyConfig,
        backend: B,
        w: &'static Workload,
        instructions: u64,
    ) -> f64 {
        let mut h = Hierarchy::new(hier_cfg, backend);
        let mut cores: Vec<Core> = (0..cfg.functional.cores)
            .map(|i| {
                let id = coaxial_sim::small_u32(i);
                Core::new(id, CoreParams::default(), w.trace(id, cfg.functional.seed))
            })
            .collect();
        let mut now = 0u64;
        loop {
            h.tick(now);
            while let Some((core, id)) = h.pop_completion() {
                cores[core as usize].on_memory_complete(id);
            }
            for c in cores.iter_mut() {
                c.tick(now, &mut h);
            }
            now += 1;
            if cores.iter().all(|c| c.retired >= instructions) || now > instructions * 150 {
                break;
            }
        }
        cores.iter().map(Core::ipc).sum::<f64>() / cores.len() as f64
    }

    let cfg = SystemConfig::coaxial_4x();
    let mut hier = HierarchyConfig::table_iii(
        cfg.functional.cores,
        cfg.ddr_channels(),
        cfg.functional.llc_mb_per_core,
        cfg.peak_bandwidth_gbs(),
        cfg.timing.calm,
    );
    hier.l2_mshrs = mshrs;
    match &cfg.timing.memory {
        MemorySystemKind::DirectDdr { channels } => {
            let b = MultiChannel::new(&cfg.timing.dram, *channels);
            drive(&cfg, hier, b, w, instructions)
        }
        MemorySystemKind::Cxl { link, channels } => {
            let b = CxlMemory::new(link, &cfg.timing.dram, *channels);
            drive(&cfg, hier, b, w, instructions)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2a_latency_grows_with_load() {
        let pts = fig2a_load_latency(&[0.1, 0.5, 0.8], 300_000);
        assert_eq!(pts.len(), 3);
        assert!(pts[0].avg_ns < pts[1].avg_ns);
        assert!(pts[1].avg_ns < pts[2].avg_ns);
        // In the pre-saturation region, p90 grows faster than the mean
        // (paper Fig. 2a: queuing shows up in the tail first).
        let tail_growth = pts[1].p90_ns / pts[0].p90_ns;
        let mean_growth = pts[1].avg_ns / pts[0].avg_ns;
        assert!(tail_growth > mean_growth, "tail {tail_growth:.2}x vs mean {mean_growth:.2}x");
        // Unloaded latency is DRAM-like (tens of ns).
        assert!(pts[0].avg_ns > 15.0 && pts[0].avg_ns < 80.0, "{}", pts[0].avg_ns);
    }

    #[test]
    fn registry_names_are_unique_and_cover_the_old_exp_names() {
        assert!(experiment("not-an-experiment").is_none());
        let names: Vec<&str> = registry().iter().map(|e| e.name).collect();
        let unique: std::collections::BTreeSet<&str> = names.iter().copied().collect();
        assert_eq!(unique.len(), names.len(), "duplicate registry name in {names:?}");
        // Every name `coaxial exp` accepted before the registry existed.
        let old_names = "fig2a baseline fig5 fig6 fig6-weighted fig7 fig8 fig10 fig11 \
                         dram-timing core-scaling prefetch seeds sampling";
        for old in old_names.split_whitespace() {
            assert!(experiment(old).is_some(), "`coaxial exp {old}` no longer resolves");
        }
        // The analytic entries run instantly; their output is well formed.
        let out = (experiment("fig1").expect("fig1").run)(Budget::quick());
        assert_eq!(out.charts.len(), 2);
        assert!(out.to_string().contains("PCIe 5.0 vs DDR5-4800"), "{out}");
    }

    #[test]
    fn claims_report_their_band() {
        let inside = Claim::band("x", "1.39", 1.45, (1.3, 1.6));
        let outside = Claim::band("x", "1.39", 1.25, (1.3, 1.6));
        assert!(inside.holds && !outside.holds);
        assert_eq!(
            outside.to_string(),
            "claim x: paper 1.39, measured 1.250, accepted [1.30, 1.60] — VIOLATED"
        );
    }

    #[test]
    fn geomean_of_constants_is_constant() {
        assert!((geomean([2.0, 2.0, 2.0].into_iter()) - 2.0).abs() < 1e-12);
        assert!((geomean([1.0, 4.0].into_iter()) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn quick_fig5_subset_shows_bandwidth_wins() {
        // Only the stream workloads, tiny budget — shape check.
        let budget = Budget::quick();
        let w = Workload::by_name("stream-add").unwrap();
        let base = budget.run(SystemConfig::ddr_baseline(), w);
        let coax = budget.run(SystemConfig::coaxial_4x(), w);
        assert!(coax.speedup_over(&base) > 1.2);
    }

    #[test]
    fn slower_dram_timings_lower_ipc() {
        let rows = dram_timing_scale(&[1.0, 2.0], &["stream-add"], Budget::quick());
        assert_eq!(rows.len(), 2);
        assert!(
            rows[1].base_geomean_ipc < rows[0].base_geomean_ipc,
            "doubling every DDR5 timing must hurt a stream workload: {rows:#?}"
        );
    }

    #[test]
    fn core_scaling_and_seed_stability_shapes() {
        let rows = core_scaling(&[4, 12], &["mcf"], Budget::quick());
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().all(|r| r.speedup > 0.0 && r.coax_geomean_ipc > 0.0), "{rows:#?}");
        let seeds = seed_stability(&[1, 0xC0A51A1], &["mcf"], Budget::quick());
        assert_eq!(seeds.len(), 2);
        assert!(seeds.iter().all(|r| r.geomean_ipc > 0.0), "{seeds:#?}");
        // Different draws, same model: the headline number should not
        // swing wildly with the seed.
        let spread = seeds[0].geomean_ipc / seeds[1].geomean_ipc;
        assert!((0.5..2.0).contains(&spread), "seed-driven IPC spread {spread:.2}x");
    }

    #[test]
    fn prefetch_sweep_normalizes_to_no_prefetch() {
        let rows = prefetch_sweep(
            &[PrefetchPolicy::NextLine { degree: 2 }],
            &["stream-add"],
            Budget::quick(),
        );
        assert_eq!(rows.len(), 1);
        assert!(rows[0].base_rel_ipc > 0.0 && rows[0].coax_rel_ipc > 0.0, "{rows:#?}");
    }

    #[test]
    fn table5_inputs_average_cpis() {
        let budget = Budget::quick();
        let w = Workload::by_name("stream-copy").unwrap();
        let base = budget.run(SystemConfig::ddr_baseline(), w);
        let coax = budget.run(SystemConfig::coaxial_4x(), w);
        let rows = vec![CompareRow {
            workload: "stream-copy".into(),
            speedup: coax.speedup_over(&base),
            base,
            coax,
        }];
        let t5 = table5_inputs(&rows);
        assert!(t5.baseline_cpi > t5.coaxial_cpi, "COAXIAL must lower CPI here");
    }
}
