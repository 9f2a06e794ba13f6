//! The timing wrappers must be invisible to the simulation: a rebuilt run
//! over a wrapped backend and wrapped traces must exit on the real run's
//! cycle with the real run's per-core IPC, DDR statistics, skipped cycles
//! (which need the forwarded `next_event`), link utilization and backend
//! metrics (which need the forwarded `link_utilization` and
//! `export_metrics`).

use std::path::PathBuf;

use coaxial_perfbench::rebuild::{load_prefill_state, rebuild};
use coaxial_perfbench::specs::Run;
use coaxial_telemetry::{MetricsRegistry, NullTelemetry};

fn backend_metrics(reg: &MetricsRegistry) -> Vec<(String, String)> {
    reg.iter()
        .filter(|(k, _)| k.starts_with("mem.") || k.starts_with("cxl.port."))
        .map(|(k, v)| (k.to_string(), format!("{v:?}")))
        .collect()
}

#[test]
fn wrapped_runs_match_unwrapped_runs() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
        .join(format!("wrapper-fidelity-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // The checkpoint store reads its directory once per process; this is the
    // only test in this binary, so setting it first is race-free.
    std::env::set_var("COAXIAL_CHECKPOINT_DIR", &dir);
    let bodies = [
        r#"{"workload":"mcf","config":"ddr","instructions":6000,"warmup":1000}"#,
        r#"{"workload":"mcf","config":"4x","instructions":6000,"warmup":1000}"#,
        r#"{"workload":"stream-add","config":"4x","cxl_ns":30.0,"instructions":6000,"warmup":1000}"#,
    ];
    for body in bodies {
        let run_ = Run::parse(body.to_string());
        let (report, _, reg) = run_.spec.simulation().run_with_telemetry(NullTelemetry);
        let state =
            load_prefill_state(&dir, &run_.spec).expect("the real run wrote its checkpoint");
        let skipped = reg.counter("engine.skipped_cycles").expect("engine counter");
        let r = rebuild(&run_.spec, &state);
        let what = run_.label();
        assert_eq!(r.exit_cycle, report.cycles, "{what}: exit cycle");
        assert_eq!(r.per_core_ipc, report.per_core_ipc, "{what}: per-core IPC");
        assert_eq!(format!("{:?}", r.ddr), format!("{:?}", report.ddr), "{what}: DDR stats");
        assert_eq!(r.skipped_cycles, skipped, "{what}: skipped cycles (next_event)");
        assert_eq!(r.link_utilization, report.cxl_link_utilization, "{what}: link utilization");
        let want = backend_metrics(&reg);
        assert!(!want.is_empty(), "{what}: the real run exports backend metrics");
        assert_eq!(backend_metrics(&r.metrics), want, "{what}: export_metrics");
        assert!(r.backend.ticks.get() > 0 && r.trace.calls.get() > 0, "{what}: timed calls");
        if run_.spec.workloads[0].name == "mcf" {
            assert!(skipped > 0, "{}: mcf must exercise cycle skipping", run_.label());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
