//! Rebuild one simulation run through public API only, with the memory
//! backend and the trace generators wrapped in timers.
//!
//! The rebuild mirrors what `Simulation::run` assembles: the same
//! `HierarchyConfig`, the warmed prefill state decoded from the disk-tier
//! checkpoint the real run wrote, one `Core` per active core over the
//! workload's trace, and `engine::run_event`. Its exit cycle must equal the
//! real run's; the benchmark checks that before trusting any layer split.

use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::Instant;

use coaxial_cache::{Hierarchy, HierarchyConfig, PrefillState};
use coaxial_cpu::{Core, CoreParams};
use coaxial_cxl::CxlMemory;
use coaxial_dram::{ChannelStats, MemoryBackend, MultiChannel};
use coaxial_sim::{Cycle, KeyHasher, Snapshot};
use coaxial_system::engine::{self, RunParams};
use coaxial_system::{MemorySystemKind, RunSpec};
use coaxial_telemetry::{MetricsRegistry, NullTelemetry};

use crate::wrap::{BackendTally, TimedBackend, TimedTrace, TraceTally};

/// Header of a disk-tier checkpoint file: magic, then the 128-bit key.
const CKPT_MAGIC: &[u8; 8] = b"CXCKPT01";

/// Content address of a run's warmed prefill state. Mirrors the
/// simulator's `prefill_state_key`; a drift shows as a missing file or a
/// header key mismatch, never as a silently wrong state.
pub fn prefill_state_key(spec: &RunSpec) -> u128 {
    let func = &spec.config.functional;
    let mut h = KeyHasher::new("coaxial/prefill-state/v1");
    h.write_u64(spec.workloads.len() as u64);
    for w in &spec.workloads {
        h.write_str(w.name);
    }
    h.write_u64(func.seed);
    h.write_u64(func.cores as u64);
    h.write_u64(func.active_cores as u64);
    h.write_u64(func.llc_mb_per_core.to_bits());
    h.finish()
}

pub fn prefill_state_path(dir: &Path, spec: &RunSpec) -> PathBuf {
    dir.join(format!("prefill-state-{:032x}.ckpt", prefill_state_key(spec)))
}

/// Decode the prefill state the real run checkpointed under `dir`.
pub fn load_prefill_state(dir: &Path, spec: &RunSpec) -> Result<PrefillState, String> {
    let path = prefill_state_path(dir, spec);
    let raw = std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let rest = raw
        .strip_prefix(&CKPT_MAGIC[..])
        .ok_or_else(|| format!("{}: not a checkpoint file", path.display()))?;
    let (key, payload) =
        rest.split_at_checked(16).ok_or_else(|| format!("{}: truncated", path.display()))?;
    if key != prefill_state_key(spec).to_le_bytes() {
        return Err(format!("{}: header key does not match", path.display()));
    }
    PrefillState::decode(payload).ok_or_else(|| format!("{}: undecodable state", path.display()))
}

/// What one rebuilt run measured.
pub struct Rebuilt {
    pub exit_cycle: Cycle,
    /// Cycles the engine skipped; equal to the real run's only if the
    /// wrapper forwards `next_event`.
    pub skipped_cycles: u64,
    pub per_core_ipc: Vec<f64>,
    pub ddr: ChannelStats,
    pub link_utilization: Option<(f64, f64)>,
    /// Host ns of `engine::run_event`, wrappers included.
    pub loop_ns: u64,
    pub backend: BackendTally,
    pub trace: TraceTally,
    /// The backend's `export_metrics`, called through the wrapper.
    pub metrics: MetricsRegistry,
}

/// The `HierarchyConfig` `Simulation` builds for `spec`.
pub fn hierarchy_config(spec: &RunSpec) -> HierarchyConfig {
    let cfg = &spec.config;
    let func = &cfg.functional;
    HierarchyConfig {
        mem_channels: cfg.ddr_channels(),
        seed: func.seed ^ 0x11EC,
        calm_epoch: cfg.timing.calm_epoch,
        prefetch: cfg.timing.prefetch,
        ..HierarchyConfig::table_iii(
            func.cores,
            cfg.ddr_channels(),
            func.llc_mb_per_core,
            cfg.peak_bandwidth_gbs(),
            cfg.timing.calm,
        )
    }
}

/// Rebuild and run `spec` from `state` with timed wrappers.
pub fn rebuild(spec: &RunSpec, state: &PrefillState) -> Rebuilt {
    let timing = &spec.config.timing;
    match &timing.memory {
        MemorySystemKind::DirectDdr { channels } => {
            run(spec, state, TimedBackend::new(MultiChannel::new(&timing.dram, *channels)))
        }
        MemorySystemKind::Cxl { link, channels } => {
            run(spec, state, TimedBackend::new(CxlMemory::new(link, &timing.dram, *channels)))
        }
    }
}

fn run<B: MemoryBackend>(
    spec: &RunSpec,
    state: &PrefillState,
    backend: TimedBackend<B>,
) -> Rebuilt {
    let func = &spec.config.functional;
    let mut hierarchy = Hierarchy::with_telemetry(hierarchy_config(spec), backend, NullTelemetry);
    hierarchy.import_prefill_state(state);
    hierarchy.finish_prefill();

    let trace = Rc::new(TraceTally::default());
    let mut cores: Vec<Core> = (0..func.active_cores)
        .map(|i| {
            let id = coaxial_sim::small_u32(i);
            let inner = spec.workloads[i].trace(id, func.seed);
            Core::new(
                id,
                CoreParams::default(),
                Box::new(TimedTrace::new(inner, Rc::clone(&trace))),
            )
        })
        .collect();
    let params = RunParams {
        warmup: spec.warmup,
        instructions: spec.instructions,
        max_cycles: (spec.warmup + spec.instructions) * 120,
        skip: true,
    };

    let t0 = Instant::now();
    let outcome = engine::run_event(&params, &mut cores, &mut hierarchy);
    let loop_ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);

    let per_core_ipc = cores
        .iter()
        .enumerate()
        .map(|(i, c)| outcome.finish_ipc[i].unwrap_or_else(|| c.ipc()))
        .collect();
    let mut metrics = MetricsRegistry::new();
    hierarchy.backend().export_metrics(&mut metrics, "mem");
    let ddr = hierarchy.backend().ddr_stats();
    let link_utilization = hierarchy.backend().link_utilization();
    drop(cores);
    let backend = std::mem::take(&mut hierarchy.backend_mut().tally);
    let trace = Rc::try_unwrap(trace).unwrap_or_default();
    Rebuilt {
        exit_cycle: outcome.now,
        skipped_cycles: outcome.stats.skipped_cycles,
        per_core_ipc,
        ddr,
        link_utilization,
        loop_ns,
        backend,
        trace,
        metrics,
    }
}
