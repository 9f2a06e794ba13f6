//! Per-layer metrics: the names the traced run prints, and how each is
//! computed from a workload's reference runs.

use coaxial_gateway::report_to_json;
use coaxial_gateway::request::parse_run;
use coaxial_system::MemorySystemKind;
use std::time::Instant;

use crate::pass::{Pass, RunRec};
use crate::rebuild::Rebuilt;
use crate::specs::Run;
use crate::stats::median;
use crate::wrap::TimerCost;

/// Every per-layer metric, with its unit, in print order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("dram.self_ns", "ns"),
    ("dram.share", "ratio"),
    ("dram.calls.tick", "count"),
    ("dram.calls.enqueue", "count"),
    ("dram.enqueue_reject_ratio", "ratio"),
    ("dram.noop_tick_ratio", "ratio"),
    ("dram.reads", "count"),
    ("dram.writes", "count"),
    ("dram.queue_ns", "sim_ns"),
    ("dram.utilization", "ratio"),
    ("cxl.self_ns", "ns"),
    ("cxl.share", "ratio"),
    ("cxl.calls.tick", "count"),
    ("cxl.calls.enqueue", "count"),
    ("cxl.enqueue_reject_ratio", "ratio"),
    ("cxl.noop_tick_ratio", "ratio"),
    ("cxl.reads", "count"),
    ("cxl.writes", "count"),
    ("cxl.queue_ns", "sim_ns"),
    ("cxl.utilization", "ratio"),
    ("cxl.link_util_tx", "ratio"),
    ("cxl.link_util_rx", "ratio"),
    ("cxl.credit_wait_cycles", "cycles"),
    ("cxl.interface_ns", "sim_ns"),
    ("workloads.self_ns", "ns"),
    ("workloads.share", "ratio"),
    ("workloads.calls", "count"),
    ("cpu_cache.self_ns", "ns"),
    ("cpu_cache.share", "ratio"),
    ("cpu_cache.ns_per_instr", "ns"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.l2_misses", "count"),
    ("cache.llc_miss_ratio", "ratio"),
    ("cache.mem_reads", "count"),
    ("cache.mem_writes", "count"),
    ("cache.onchip_ns", "sim_ns"),
    ("cpu.issue_stall_ratio", "ratio"),
    ("cpu.rob_occupancy_mean", "entries"),
    ("system.engine.ns_per_cycle", "ns"),
    ("system.engine.skip_ratio", "ratio"),
    ("system.prefill.cold_ms", "ms"),
    ("system.prefill.restore_ms", "ms"),
    ("system.prefill.share_cold", "ratio"),
    ("system.prefill.share_warm", "ratio"),
    ("sim.checkpoint.mem_hits", "count"),
    ("sim.checkpoint.disk_hits", "count"),
    ("sim.checkpoint.misses", "count"),
    ("sim.checkpoint.inserts", "count"),
    ("sim.checkpoint.disk_errors", "count"),
    ("system.runner.busy_ratio", "ratio"),
    ("system.runner.run_p50_ms", "ms"),
    ("system.runner.run_max_ms", "ms"),
    ("gateway.hit_rtt_ms", "ms"),
    ("gateway.miss_overhead_ms", "ms"),
    ("gateway.parse_run_us", "us"),
    ("gateway.report_json_us", "us"),
    ("gateway.cache_hit_ratio", "ratio"),
    ("gateway.queue_rejected", "count"),
    ("gateway.dedup_joins", "count"),
    ("telemetry.metrics_scrape_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
];

/// Collected `(name, value)` pairs; the parent merges the children's.
pub type Metrics = Vec<(String, f64)>;

fn put(m: &mut Metrics, name: &str, v: f64) {
    m.push((name.to_string(), v));
}

fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

fn mean(v: impl Iterator<Item = f64>) -> f64 {
    let (s, n) = v.fold((0.0, 0u32), |(s, n), x| (s + x, n + 1));
    ratio(s, f64::from(n))
}

fn is_cxl(run: &Run) -> bool {
    matches!(run.spec.config.timing.memory, MemorySystemKind::Cxl { .. })
}

/// Simulation-stack layers over the reference runs: the untraced warm
/// pass (`warm`, with telemetry) and the traced rebuild of each run.
pub fn sim_layers(runs: &[Run], warm: &Pass, rebuilt: &[Rebuilt], timer: TimerCost) -> Metrics {
    let mut m = Metrics::new();
    let t_u = |r: &RunRec| r.loop_ns() as f64;
    let corrected = |ns: u64, calls: u64| (ns as f64 - calls as f64 * timer.bias_ns).max(0.0);

    for (prefix, cxl) in [("dram", false), ("cxl", true)] {
        let idx: Vec<usize> = (0..runs.len()).filter(|&i| is_cxl(&runs[i]) == cxl).collect();
        let self_ns: f64 = idx
            .iter()
            .map(|&i| corrected(rebuilt[i].backend.ns.get(), rebuilt[i].backend.timed_calls()))
            .sum();
        let loop_ns: f64 = idx.iter().map(|&i| t_u(&warm.runs[i])).sum();
        let sum = |f: &dyn Fn(usize) -> f64| idx.iter().map(|&i| f(i)).sum::<f64>();
        let ticks = sum(&|i| rebuilt[i].backend.ticks.get() as f64);
        let enq = sum(&|i| rebuilt[i].backend.enqueues.get() as f64);
        put(&mut m, &format!("{prefix}.self_ns"), self_ns);
        put(&mut m, &format!("{prefix}.share"), ratio(self_ns, loop_ns));
        put(&mut m, &format!("{prefix}.calls.tick"), ticks);
        put(&mut m, &format!("{prefix}.calls.enqueue"), enq);
        put(
            &mut m,
            &format!("{prefix}.enqueue_reject_ratio"),
            ratio(sum(&|i| rebuilt[i].backend.enqueue_rejects.get() as f64), enq),
        );
        put(
            &mut m,
            &format!("{prefix}.noop_tick_ratio"),
            ratio(sum(&|i| rebuilt[i].backend.noop_ticks.get() as f64), ticks),
        );
        let reports = || idx.iter().map(|&i| &warm.runs[i].report);
        put(&mut m, &format!("{prefix}.reads"), reports().map(|r| r.ddr.reads as f64).sum());
        put(&mut m, &format!("{prefix}.writes"), reports().map(|r| r.ddr.writes as f64).sum());
        put(&mut m, &format!("{prefix}.queue_ns"), mean(reports().map(|r| r.breakdown_ns.1)));
        put(&mut m, &format!("{prefix}.utilization"), mean(reports().map(|r| r.utilization)));
        if cxl {
            let link = |f: fn((f64, f64)) -> f64| {
                mean(reports().map(move |r| r.cxl_link_utilization.map_or(0.0, f)))
            };
            put(&mut m, "cxl.link_util_tx", link(|(tx, _)| tx));
            put(&mut m, "cxl.link_util_rx", link(|(_, rx)| rx));
            // Read through the wrapper's forwarded `export_metrics`.
            let wait = sum(&|i| {
                rebuilt[i].metrics.counter("cxl.port.credit_wait_cycles").unwrap_or(0) as f64
            });
            put(&mut m, "cxl.credit_wait_cycles", wait);
            put(&mut m, "cxl.interface_ns", mean(reports().map(|r| r.breakdown_ns.3)));
        }
    }

    let loop_total: f64 = warm.runs.iter().map(t_u).sum();
    let backend: f64 =
        rebuilt.iter().map(|r| corrected(r.backend.ns.get(), r.backend.timed_calls())).sum();
    let wl: f64 = rebuilt.iter().map(|r| corrected(r.trace.ns.get(), r.trace.calls.get())).sum();
    let wl_calls: f64 = rebuilt.iter().map(|r| r.trace.calls.get() as f64).sum();
    let cpu_cache = (loop_total - backend - wl).max(0.0);
    let instr: f64 = runs.iter().map(|r| r.sim_instr() as f64).sum();
    put(&mut m, "workloads.self_ns", wl);
    put(&mut m, "workloads.share", ratio(wl, loop_total));
    put(&mut m, "workloads.calls", wl_calls);
    put(&mut m, "cpu_cache.self_ns", cpu_cache);
    put(&mut m, "cpu_cache.share", ratio(cpu_cache, loop_total));
    put(&mut m, "cpu_cache.ns_per_instr", ratio(cpu_cache, instr));

    let reports = || warm.runs.iter().map(|r| &r.report);
    put(&mut m, "cache.l1_hit_ratio", mean(reports().map(|r| r.hier.l1_hit_ratio)));
    put(&mut m, "cache.l2_hit_ratio", mean(reports().map(|r| r.hier.l2_hit_ratio)));
    put(&mut m, "cache.l2_misses", reports().map(|r| r.hier.l2_misses as f64).sum());
    put(&mut m, "cache.llc_miss_ratio", mean(reports().map(|r| r.llc_miss_ratio)));
    put(&mut m, "cache.mem_reads", reports().map(|r| r.hier.mem_reads as f64).sum());
    put(&mut m, "cache.mem_writes", reports().map(|r| r.hier.mem_writes as f64).sum());
    put(&mut m, "cache.onchip_ns", mean(reports().map(|r| r.breakdown_ns.0)));

    let (mut stall, mut rob, mut core_cycles) = (0.0, 0.0, 0.0);
    for (run, rec) in runs.iter().zip(&warm.runs) {
        for c in 0..run.spec.config.functional.active_cores {
            stall += rec.counter(&format!("cpu.core{c}.issue_stall_cycles")) as f64;
            rob += rec.counter(&format!("cpu.core{c}.rob_occupancy_cum")) as f64;
            core_cycles += rec.report.cycles as f64;
        }
    }
    put(&mut m, "cpu.issue_stall_ratio", ratio(stall, core_cycles));
    put(&mut m, "cpu.rob_occupancy_mean", ratio(rob, core_cycles));

    let cycles: f64 = reports().map(|r| r.cycles as f64).sum();
    let skipped: f64 = warm.runs.iter().map(|r| r.counter("engine.skipped_cycles") as f64).sum();
    put(&mut m, "system.engine.ns_per_cycle", ratio(loop_total, cycles));
    put(&mut m, "system.engine.skip_ratio", ratio(skipped, cycles));

    let traced: f64 = rebuilt.iter().map(|r| r.loop_ns as f64).sum();
    put(&mut m, "trace.overhead_ratio", ratio(traced, loop_total));
    m
}

/// Prefill metrics of one pass: mean cold prefill or restore wall, and
/// its share of the pass's run walls. `cold` selects which runs count.
pub fn prefill_layers(pass: &Pass, cold: bool) -> Metrics {
    let picked: Vec<&RunRec> = pass.runs.iter().filter(|r| r.restored() != cold).collect();
    let ms = mean(picked.iter().map(|r| r.prefill_ns() as f64 / 1e6));
    let share = ratio(
        pass.runs.iter().map(|r| r.prefill_ns() as f64).sum(),
        pass.runs.iter().map(|r| r.wall_ns as f64).sum(),
    );
    let mut m = Metrics::new();
    if cold {
        put(&mut m, "system.prefill.cold_ms", ms);
        put(&mut m, "system.prefill.share_cold", share);
    } else {
        put(&mut m, "system.prefill.restore_ms", ms);
        put(&mut m, "system.prefill.share_warm", share);
    }
    m
}

/// Job-pool metrics of one batch pass.
pub fn runner_layers(pass: &Pass) -> Metrics {
    let walls: Vec<f64> = pass.runs.iter().map(|r| r.wall_ns as f64 / 1e6).collect();
    let mut m = Metrics::new();
    put(&mut m, "system.runner.busy_ratio", pass.busy_ratio());
    put(&mut m, "system.runner.run_p50_ms", median(&walls));
    put(&mut m, "system.runner.run_max_ms", walls.iter().copied().fold(0.0, f64::max));
    m
}

/// The prefill-state store's counters, as this process saw them.
pub fn checkpoint_layers() -> Metrics {
    let reg = crate::pass::checkpoint_counters();
    ["mem_hits", "disk_hits", "misses", "inserts", "disk_errors"]
        .iter()
        .map(|k| {
            let v = reg.counter(&format!("server.checkpoint.state.{k}")).unwrap_or(0);
            (format!("sim.checkpoint.{k}"), v as f64)
        })
        .collect()
}

/// `request::parse_run` and `report_to_json` per call, µs, over the bodies
/// and reports the workload produced (each timed over enough repetitions
/// to span at least ~20 ms).
pub fn serialization_layers(bodies: &[&str], reports: &[&coaxial_system::RunReport]) -> Metrics {
    fn per_call_us(n_items: usize, mut f: impl FnMut()) -> f64 {
        let mut calls = 0usize;
        let t0 = Instant::now();
        while calls == 0 || t0.elapsed().as_millis() < 20 {
            f();
            calls += n_items;
        }
        t0.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64
    }
    let mut sink = 0usize;
    let parse = per_call_us(bodies.len(), || {
        for b in bodies {
            sink += usize::from(parse_run(b.as_bytes()).is_ok());
        }
    });
    let json = per_call_us(reports.len(), || {
        for r in reports {
            sink += report_to_json(r).len();
        }
    });
    std::hint::black_box(sink);
    let mut m = Metrics::new();
    put(&mut m, "gateway.parse_run_us", parse);
    put(&mut m, "gateway.report_json_us", json);
    m
}
