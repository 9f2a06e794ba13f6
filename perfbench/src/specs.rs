//! The benchmark's workloads as request bodies.
//!
//! Every run is written as the `POST /v1/run` body a gateway client would
//! send and turned into a `RunSpec` by the gateway's own parser, so the
//! in-process runs and the served runs are the same specs by construction.

use std::sync::Arc;

use coaxial_gateway::request::parse_run;
use coaxial_sim::rng::SplitMix64;
use coaxial_system::RunSpec;
use coaxial_workloads::Workload;

/// The simulator's default seed: `sweep` at this seed reproduces the
/// committed Fig. 10 numbers.
pub const DEFAULT_SEED: u64 = 0x0C0A_51A1;

/// Quick budget (instructions, warmup) per core: `Budget::quick()`.
pub const QUICK: (u64, u64) = (6_000, 1_000);

/// Per-core measured instructions of `loop-cpu`: long enough that the run
/// loop, not the prefill, dominates on these low-MPKI workloads.
pub const LOOP_CPU_INSTR: u64 = 600_000;

/// CXL latency points of the dense Fig. 10 sweep, ns.
pub const FIG10_NS: [f64; 7] = [10.0, 20.0, 30.0, 50.0, 60.0, 70.0, 90.0];

/// The paper's Fig. 10 geomean speedups at 10/50/70 ns.
pub const FIG10_PAPER: [(f64, f64); 3] = [(10.0, 1.71), (50.0, 1.39), (70.0, 1.26)];

/// One run: its request body and the spec the gateway parses from it.
#[derive(Clone)]
pub struct Run {
    pub body: String,
    pub spec: RunSpec,
}

impl Run {
    pub fn parse(body: String) -> Self {
        let spec = match parse_run(body.as_bytes()) {
            Ok(req) => req.spec,
            Err(e) => panic!("benchmark body {body} does not parse: {e}"),
        };
        Self { body, spec }
    }

    /// Simulated instructions of the run: (warmup + measured) × cores.
    pub fn sim_instr(&self) -> u64 {
        (self.spec.warmup + self.spec.instructions)
            * self.spec.config.functional.active_cores as u64
    }

    pub fn label(&self) -> String {
        format!("{} @ {}", self.spec.workloads[0].name, self.spec.config.name)
    }
}

fn body(
    workload: &str,
    config: &str,
    cxl_ns: Option<f64>,
    budget: Option<(u64, u64)>,
    seed: u64,
) -> String {
    let mut b = format!("{{\"workload\":\"{workload}\",\"config\":\"{config}\"");
    if let Some(ns) = cxl_ns {
        b += &format!(",\"cxl_ns\":{ns:?}");
    }
    if let Some((instr, warm)) = budget {
        b += &format!(",\"instructions\":{instr},\"warmup\":{warm}");
    }
    b + &format!(",\"seed\":{seed}}}")
}

fn grid(workloads: &[&str], budget: Option<(u64, u64)>, seed: u64) -> Vec<Run> {
    workloads
        .iter()
        .flat_map(|w| ["ddr", "4x"].map(|c| Run::parse(body(w, c, None, budget, seed))))
        .collect()
}

/// `loop-mem`: bandwidth- and latency-bound runs at the default budget.
pub fn loop_mem(seed: u64) -> Vec<Run> {
    grid(&["stream-add", "mcf"], None, seed)
}

/// `loop-cpu`: low-MPKI runs at a long per-core horizon.
pub fn loop_cpu(seed: u64) -> Vec<Run> {
    grid(&["pop2", "raytrace"], Some((LOOP_CPU_INSTR, 20_000)), seed)
}

/// `sweep`: every workload on `ddr` plus `4x` at each Fig. 10 latency,
/// grouped per workload with the `ddr` baseline first.
pub fn sweep(seed: u64) -> Vec<Run> {
    Workload::all()
        .iter()
        .flat_map(|w| {
            std::iter::once(body(w.name, "ddr", None, Some(QUICK), seed)).chain(
                FIG10_NS.iter().map(move |&ns| body(w.name, "4x", Some(ns), Some(QUICK), seed)),
            )
        })
        .map(Run::parse)
        .collect()
}

/// Workloads the `serve` clients ask for.
pub const SERVE_POOL: [&str; 4] = ["mcf", "stream-add", "pop2", "raytrace"];

/// One request of the `serve` mix.
#[derive(Clone)]
pub enum Request {
    Run(Arc<Run>),
    Metrics,
}

/// `serve` set-up requests: every pool workload on both geometries, so the
/// timed window starts with every prefill state in the store.
pub fn serve_warmup(seed: u64) -> Vec<Run> {
    grid(&SERVE_POOL, Some(QUICK), seed)
}

/// The seeded `serve` request sequence: mostly distinct timing siblings
/// (misses), about a quarter repeats of earlier bodies (result-cache hits)
/// and an occasional `GET /metrics`. Misses on `4x` vary the CXL latency;
/// misses on `ddr` vary the measured budget slightly (DDR has no CXL
/// knob). Neither changes the functional slice, so every miss restores its
/// prefill from the store.
pub fn serve_mix(seed: u64, n: usize) -> Vec<Request> {
    let mut rng = SplitMix64::new(seed ^ 0x5E4E);
    let mut distinct: Vec<Arc<Run>> = Vec::new();
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let roll = rng.next_f64();
        if roll < 0.06 {
            out.push(Request::Metrics);
        } else if roll < 0.30 && distinct.len() > 8 {
            // Repeat a body issued at least 4 requests ago, so it has
            // normally completed and sits in the result cache.
            let k = rng.next_below((distinct.len() - 4) as u64) as usize;
            out.push(Request::Run(Arc::clone(&distinct[k])));
        } else {
            let w = SERVE_POOL[rng.next_below(SERVE_POOL.len() as u64) as usize];
            let i = distinct.len() as u64;
            let run = if rng.chance(0.25) {
                Run::parse(body(w, "ddr", None, Some((QUICK.0 + 16 * (i + 1), QUICK.1)), seed))
            } else {
                let ns = 12.0 + (i % 7800) as f64 * 0.01;
                Run::parse(body(w, "4x", Some(ns), Some(QUICK), seed))
            };
            let run = Arc::new(run);
            distinct.push(Arc::clone(&run));
            out.push(Request::Run(run));
        }
    }
    out
}
