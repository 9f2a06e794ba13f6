//! Differential test: the event-driven engine against the lockstep oracle.
//!
//! The event engine (`coaxial_system::engine::run_event`) claims *bit
//! identity* with the lockstep loop it replaced — not statistical
//! closeness. This harness holds that claim over the entire workload
//! registry: every workload runs twice, once per engine, under a
//! deterministically-seeded choice of system config and budget, and the
//! runs must agree on
//!
//! 1. the full serialized [`RunReport`] (every f64 bit, every counter),
//! 2. the harvested metrics registry — including the `engine.skipped_cycles`
//!    / `engine.blocked_iters` counters, which are engine-*independent* by
//!    the visited-cycle equivalence argument (engine.rs module docs) — and
//! 3. the raw per-request telemetry ledgers ([`MissRecord`]s), which pin
//!    the cycle-exact path of every L2 miss through the hierarchy.
//!
//! `server.prefill.*` and `server.checkpoint.*` metrics are excluded: the checkpoint stores are
//! process-wide and cumulative, so their hit counts depend on how many
//! runs this *process* has already done, not on the engine under test.
//!
//! Budgets are deliberately small (the registry is 36 workloads × 2
//! engines); the per-workload seed still varies config, active-core
//! count, and budget so the sweep covers DDR and CXL backends, partial
//! core occupancy, and warmup-boundary placement.

use coaxial_cache::{CalmPolicy, Hierarchy, HierarchyConfig, PrefetchPolicy};
use coaxial_cpu::{Core, CoreParams, TraceOp, VecTrace};
use coaxial_dram::{DramConfig, MultiChannel};
use coaxial_sim::SplitMix64;
use coaxial_system::engine::{self, RunParams};
use coaxial_system::{EngineKind, Simulation, SystemConfig};
use coaxial_telemetry::TelemetryRecorder;
use coaxial_workloads::Workload;

/// One engine's complete observable output, serialized for comparison.
/// `Debug`-formatted: Rust renders `f64` as the shortest string that parses
/// back to the same bits, so equality of the strings is equality of the bits.
struct Observed {
    report: String,
    metrics: Vec<String>,
    requests: String,
}

fn observe(
    kind: EngineKind,
    cfg: SystemConfig,
    w: &'static Workload,
    budget: (u64, u64),
) -> Observed {
    let (instr, warmup) = budget;
    let (report, rec, metrics) = Simulation::new(cfg, w)
        .instructions_per_core(instr)
        .warmup(warmup)
        .engine(kind)
        .run_with_telemetry(TelemetryRecorder::new().keep_requests(1 << 16));
    let metrics = metrics
        .iter()
        .filter(|(path, _)| {
            !path.starts_with("server.prefill.") && !path.starts_with("server.checkpoint.")
        })
        .map(|(path, v)| format!("{path} = {v:?}"))
        .collect();
    Observed { report: format!("{report:?}"), metrics, requests: format!("{:?}", rec.requests) }
}

/// Deterministic per-workload run parameters: the config/budget draw is
/// seeded by the workload's registry index, so failures reproduce exactly.
fn draw(rng: &mut SplitMix64) -> (SystemConfig, (u64, u64)) {
    let cfg = match rng.next_below(5) {
        0 => SystemConfig::ddr_baseline(),
        1 => SystemConfig::coaxial_2x(),
        2 => SystemConfig::coaxial_4x(),
        3 => SystemConfig::coaxial_5x(),
        _ => SystemConfig::coaxial_asym(),
    };
    // Occasionally leave cores idle: parked-core bookkeeping must stay
    // exact when some slots never block (or never run).
    let cfg = if rng.chance(0.25) {
        let cores = u64::try_from(cfg.functional.cores).unwrap();
        let active = 1 + coaxial_sim::idx(rng.next_below(cores - 1));
        cfg.with_active_cores(active)
    } else {
        cfg
    };
    let instr = 800 + rng.next_below(800);
    let warmup = rng.next_below(400);
    (cfg, (instr, warmup))
}

#[test]
fn event_engine_matches_lockstep_oracle_on_every_workload() {
    for (i, w) in Workload::all().iter().enumerate() {
        let mut rng = SplitMix64::new(0xD1FF ^ (u64::try_from(i).unwrap() << 8));
        let (cfg, budget) = draw(&mut rng);
        let label = format!("{} on {} (instr={}, warmup={})", w.name, cfg.name, budget.0, budget.1);
        let oracle = observe(EngineKind::Lockstep, cfg.clone(), w, budget);
        let event = observe(EngineKind::Event, cfg, w, budget);
        assert_eq!(event.report, oracle.report, "{label}: RunReport diverged");
        assert_eq!(event.metrics, oracle.metrics, "{label}: metrics registry diverged");
        assert_eq!(event.requests, oracle.requests, "{label}: telemetry ledgers diverged");
    }
}

/// Run `wl` on `cfg` at the default CLI budget; returns the serialized
/// report and the metrics registry (minus the process-cumulative
/// `server.*` entries).
fn default_budget(
    kind: EngineKind,
    skip: bool,
    cfg: SystemConfig,
    w: &'static Workload,
) -> (String, Vec<String>) {
    let (report, _, metrics) = Simulation::new(cfg, w)
        .instructions_per_core(120_000)
        .warmup(20_000)
        .engine(kind)
        .cycle_skip(skip)
        .run_with_telemetry(coaxial_telemetry::NullTelemetry);
    let metrics = metrics
        .iter()
        .filter(|(path, _)| !path.starts_with("server."))
        .map(|(path, v)| format!("{path} = {v:?}"));
    (format!("{report:?}"), metrics.collect())
}

/// Cores stalled on L2 MSHR back-pressure are parked, and woken by the
/// hierarchy when an MSHR entry frees or the refused line enters the LLC.
/// On an MSHR-bound run (stream-add on DDR) and a CXL run (mcf on 4x) at
/// the default budget — long enough for parked cores, dirty spills and
/// globally skipped spans to interleave — the event engine must match the
/// lockstep loop with skipping on and off. With skipping off nothing is
/// skipped, so only the `engine.*` skip counters may differ there.
#[test]
fn parking_is_exact_at_the_default_budget() {
    for (cfg, wl) in
        [(SystemConfig::ddr_baseline(), "stream-add"), (SystemConfig::coaxial_4x(), "mcf")]
    {
        let w = Workload::by_name(wl).expect("workload exists");
        let event = default_budget(EngineKind::Event, true, cfg.clone(), w);
        let lockstep = default_budget(EngineKind::Lockstep, true, cfg.clone(), w);
        let every_cycle = default_budget(EngineKind::Lockstep, false, cfg, w);
        assert_eq!(event.0, lockstep.0, "{wl}: RunReport diverged from lockstep");
        assert_eq!(event.1, lockstep.1, "{wl}: metrics diverged from lockstep");
        assert_eq!(event.0, every_cycle.0, "{wl}: RunReport diverged with skipping off");
        let model = |m: &[String]| -> Vec<String> {
            m.iter().filter(|l| !l.starts_with("engine.")).cloned().collect()
        };
        assert_eq!(model(&event.1), model(&every_cycle.1), "{wl}: metrics, skipping off");
    }
}

/// Everything a hand-built run exposes: exit cycle, finish IPCs, engine
/// counters, per-core counters and the hierarchy statistics.
fn shared_lines_run(kind: EngineKind, skip: bool, prefetch: PrefetchPolicy) -> (String, String) {
    let cores = 4;
    let cfg = HierarchyConfig {
        l1_bytes: 4 * 1024,
        l1_assoc: 4,
        l2_bytes: 16 * 1024,
        l2_assoc: 4,
        llc_bytes_per_core: 64 * 1024,
        llc_assoc: 8,
        // Few MSHRs: refusals are frequent. Prefetching needs headroom.
        l2_mshrs: if prefetch == PrefetchPolicy::None { 2 } else { 6 },
        prefetch,
        ..HierarchyConfig::table_iii(cores, 1, 1.0, 38.4, CalmPolicy::Serial)
    };
    let mut h = Hierarchy::new(cfg, MultiChannel::new(&DramConfig::ddr5_4800(), 1));
    let mut cores: Vec<Core> = (0..4u64)
        .map(|c| {
            let mut rng = SplitMix64::new(0x5A4E_D000 + c);
            let ops = (0..4096)
                .map(|i| {
                    // One pool shared by every core, larger than the LLC:
                    // lines move between cores' caches, dirty ones spill.
                    let line = if rng.chance(0.5) { rng.next_below(8192) } else { i * 3 };
                    let gap = coaxial_sim::small_u32_u64(rng.next_below(4));
                    let pc = coaxial_sim::small_u32_u64(i % 13);
                    let op = if rng.chance(0.4) {
                        TraceOp::store(gap, line, pc)
                    } else {
                        TraceOp::load(gap, line, pc)
                    };
                    if rng.chance(0.2) {
                        op.dependent()
                    } else {
                        op
                    }
                })
                .collect();
            Core::new(
                coaxial_sim::small_u32_u64(c),
                CoreParams::default(),
                Box::new(VecTrace::new(ops)),
            )
        })
        .collect();
    let p = RunParams { warmup: 2_000, instructions: 30_000, max_cycles: 20_000_000, skip };
    let out = match kind {
        EngineKind::Event => engine::run_event(&p, &mut cores, &mut h),
        EngineKind::Lockstep => engine::run_lockstep(&p, &mut cores, &mut h),
    };
    let per_core: Vec<_> = cores
        .iter()
        .map(|c| (c.retired, c.cycles, c.stall_cycles, c.rob_occupancy_cum, c.issue_stall_cycles))
        .collect();
    let model = format!("{} {:?} {per_core:?} {:?}", out.now, out.finish_ipc, h.stats());
    (model, format!("{:?}", out.stats))
}

/// The wake paths that in-tree workloads rarely reach, on a hand-built
/// machine whose cores share one pool of lines: a core refused on a line
/// wakes when another core's dirty spill or fill puts it in the LLC, and
/// (with a prefetcher) when a prefetch frees an MSHR without delivering a
/// completion. Event and lockstep engines must agree exactly.
#[test]
fn parked_cores_wake_on_shared_lines_and_prefetch_releases() {
    for prefetch in [PrefetchPolicy::None, PrefetchPolicy::NextLine { degree: 2 }] {
        let event = shared_lines_run(EngineKind::Event, true, prefetch);
        let lockstep = shared_lines_run(EngineKind::Lockstep, true, prefetch);
        let every_cycle = shared_lines_run(EngineKind::Lockstep, false, prefetch);
        assert_eq!(event, lockstep, "{prefetch:?}: event engine diverged from lockstep");
        assert_eq!(event.0, every_cycle.0, "{prefetch:?}: skipping changed the run");
    }
}

/// A scripted cross-core wake. Cores 0 and 2 are refused on line `X`
/// (their one MSHR holds a cold miss) and park with full ROBs; core 3
/// parks behind a cold miss too. Core 1 holds `X` dirty: three LLC hits
/// fill the rest of `X`'s L2 set at once, and a fourth, held back by a
/// chain of dependent L1 hits, evicts `X` inside core 1's tick some 80
/// cycles later, leaving core 1 blocked as well. Lockstep order: core 2
/// sees `X` in the LLC in that same cycle, core 0 in the next — the only
/// runnable core at that cycle boundary, so a missed wake would let the
/// engines skip.
fn scripted_spill_run(kind: EngineKind, skip: bool) -> (String, String) {
    const X: u64 = 0x40_0000;
    const HOT: u64 = 0x50_0001; // L1/L2-resident on core 1, another set
    let cfg = HierarchyConfig {
        l1_bytes: 4 * 1024,
        l1_assoc: 4,
        l2_bytes: 16 * 1024,
        l2_assoc: 4,
        llc_bytes_per_core: 64 * 1024,
        llc_assoc: 8,
        l2_mshrs: 1,
        ..HierarchyConfig::table_iii(4, 1, 1.0, 38.4, CalmPolicy::Serial)
    };
    let l2_sets = cfg.l2_bytes / 64 / cfg.l2_assoc as u64;
    let aliases: Vec<u64> = (1..=cfg.l2_assoc as u64).map(|k| X + k * l2_sets).collect();
    let mut h = Hierarchy::new(cfg, MultiChannel::new(&DramConfig::ddr5_4800(), 1));
    h.prefill_access(1, X, true);
    h.prefill_access(1, HOT, false);
    // Core 3 churns `X` out of the LLC, then leaves the aliases there.
    for line in 0x100_0000..0x101_0000 {
        h.prefill_access(3, line, false);
    }
    for &a in &aliases {
        h.prefill_access(3, a, false);
    }
    h.finish_prefill();
    assert!(!h.probe_on_chip(0, X) && h.probe_on_chip(1, X), "X is only in core 1's caches");

    let blocked_behind =
        |cold: u64| vec![TraceOp::load(0, cold, 1), TraceOp::load(1_000, cold + 1, 1)];
    let refused = |cold: u64| {
        vec![TraceOp::load(0, cold, 1), TraceOp::load(0, X, 2), TraceOp::load(1_000, cold + 1, 3)]
    };
    let mut spiller: Vec<TraceOp> = aliases[1..].iter().map(|&a| TraceOp::load(0, a, 4)).collect();
    spiller.push(TraceOp::load(0, HOT, 5));
    spiller.extend((0..19).map(|_| TraceOp::load(0, HOT, 5).dependent()));
    spiller.push(TraceOp::load(0, aliases[0], 6).dependent());
    spiller.push(TraceOp::load(1_000, 0x300_0000, 7));
    let traces = [refused(0x200_0000), spiller, refused(0x210_0000), blocked_behind(0x220_0000)];
    let mut cores: Vec<Core> = traces
        .into_iter()
        .zip(0u32..)
        .map(|(ops, c)| Core::new(c, CoreParams::default(), Box::new(VecTrace::new(ops))))
        .collect();
    let p = RunParams { warmup: 0, instructions: 3_000, max_cycles: 1_000_000, skip };
    let out = match kind {
        EngineKind::Event => engine::run_event(&p, &mut cores, &mut h),
        EngineKind::Lockstep => engine::run_lockstep(&p, &mut cores, &mut h),
    };
    let per_core: Vec<_> = cores
        .iter()
        .map(|c| (c.retired, c.cycles, c.stall_cycles, c.rob_occupancy_cum, c.issue_stall_cycles))
        .collect();
    let model = format!("{} {:?} {per_core:?} {:?}", out.now, out.finish_ipc, h.stats());
    (model, format!("{:?}", out.stats))
}

#[test]
fn dirty_spill_wakes_parked_cores_in_lockstep_order() {
    let event = scripted_spill_run(EngineKind::Event, true);
    let lockstep = scripted_spill_run(EngineKind::Lockstep, true);
    let every_cycle = scripted_spill_run(EngineKind::Lockstep, false);
    assert_eq!(event, lockstep, "event engine diverged from lockstep");
    assert_eq!(event.0, every_cycle.0, "skipping changed the run");
}

#[test]
fn engine_env_override_is_honoured_and_validated() {
    // from_env maps unset → Event, "lockstep"/"event" (any case) → the
    // engine, and anything else must refuse to run rather than silently
    // fall back. Exercised via the parse layer only: tests share one
    // process environment, so we never set the variable here.
    assert_eq!(EngineKind::from_env().name(), "event");
    assert_eq!(EngineKind::parse(Some("lockstep")).name(), "lockstep");
    assert_eq!(EngineKind::parse(Some("EVENT")).name(), "event");
    assert_eq!(EngineKind::parse(None).name(), "event");
    assert!(std::panic::catch_unwind(|| EngineKind::parse(Some("typo"))).is_err());
}
