//! `coaxial-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one benchmark workload and prints, as the last line of stdout, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — every
//! end-to-end metric with `--trace 0`, every per-layer metric with
//! `--trace 1`. Set-up and timed passes run in child processes of this
//! binary (`--child <phase>`), so every cold store is really cold, every
//! warm pass starts from the disk tier, and peak RSS belongs to the process
//! that ran the timed pass. All scratch files live under `.bench_work/`
//! in the working directory and are removed on exit; traced runs leave a
//! Perfetto trace and the per-layer table under `.bench_out/`.

use std::collections::BTreeMap;
use std::io::Read;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coaxial_gateway::json::{parse, Json};
use coaxial_gateway::report_to_json;
use coaxial_perfbench::gw::{session, Gateway, Session};
use coaxial_perfbench::host::HostSpeed;
use coaxial_perfbench::layers::{self, Metrics, PER_LAYER};
use coaxial_perfbench::out::{array, epoch_us, peak_rss_mb, Obj, Spans};
use coaxial_perfbench::pass::{run_pass, Mode, Pass};
use coaxial_perfbench::rebuild::{load_prefill_state, rebuild, Rebuilt};
use coaxial_perfbench::specs::{self, Request, Run};
use coaxial_perfbench::stats::{median, percentile, quantile_inclusive};
use coaxial_perfbench::wrap::{calibrate_timer, TimerCost};

/// Every end-to-end metric, with its unit, in print order.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_mips", "Minstr/s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ckpt_disk_mb", "MB"),
];

const WORKLOADS: [&str; 4] = ["loop-mem", "loop-cpu", "sweep", "serve"];

/// Set-ups per run of the workloads whose set-up is cheap; the reported
/// `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Host-speed probes before and after each `loop-*` set-up.
const SETUP_PROBES: usize = 3;

/// Job-pool width and gateway workers/clients: the benchmark host's
/// `nproc`.
const JOBS: usize = 2;

/// A child process that overruns this is killed and counted as failed.
const CHILD_DEADLINE: Duration = Duration::from_secs(150);

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    child: Option<String>,
    dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: specs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        child: None,
        dir: None,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut val = || it.next().cloned().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = val()?,
            "--seed" => {
                let v = val()?;
                a.seed = v
                    .strip_prefix("0x")
                    .map_or_else(|| v.parse(), |h| u64::from_str_radix(h, 16))
                    .map_err(|_| format!("bad --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = val()?;
                a.seconds = v.parse().map_err(|_| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                a.trace = match val()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--child" => a.child = Some(val()?),
            "--dir" => a.dir = Some(PathBuf::from(val()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    Ok(a)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if let Some(phase) = args.child.clone() {
        let out = child(&phase, &args);
        println!("{}", out.finish());
        return;
    }
    std::process::exit(parent(&args));
}

// ───────────────────────────── parent ─────────────────────────────

/// What one child process reported.
struct ChildOut {
    obj: BTreeMap<String, Json>,
    started_us: u64,
    ended_us: u64,
}

impl ChildOut {
    fn num(&self, k: &str) -> f64 {
        self.obj.get(k).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn nums(&self, k: &str) -> Vec<f64> {
        match self.obj.get(k) {
            Some(Json::Arr(v)) => v.iter().filter_map(Json::as_f64).collect(),
            _ => Vec::new(),
        }
    }

    /// A metric the child computed (its `m` object).
    fn metric(&self, k: &str) -> f64 {
        match self.obj.get("m") {
            Some(Json::Obj(m)) => m.get(k).and_then(Json::as_f64).unwrap_or(0.0),
            _ => 0.0,
        }
    }

    fn metrics(&self) -> Metrics {
        match self.obj.get("m") {
            Some(Json::Obj(m)) => {
                m.iter().filter_map(|(k, v)| Some((k.clone(), v.as_f64()?))).collect()
            }
            _ => Metrics::new(),
        }
    }
}

/// Tally of operations and failures across all children of one run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Vec<(u64, Json)>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        eprintln!("perfbench: FAIL {msg}");
        self.attempted += 1;
        self.failed += 1;
        self.errors.push(msg);
    }

    fn absorb(&mut self, c: &ChildOut, span_parent: u64) {
        self.attempted += c.num("attempted") as u64;
        self.failed += c.num("failed") as u64;
        if let Some(Json::Arr(errs)) = c.obj.get("errors") {
            for e in errs.iter().filter_map(Json::as_str) {
                eprintln!("perfbench: FAIL {e}");
                self.errors.push(e.to_string());
            }
        }
        if let Some(Json::Arr(spans)) = c.obj.get("spans") {
            self.spans.extend(spans.iter().map(|s| (span_parent, s.clone())));
        }
    }
}

/// Run `--child <phase>` of this binary with `dir` as its checkpoint
/// directory, under a deadline, and parse its last stdout line.
fn spawn(args: &Args, phase: &str, dir: &Path, tally: &mut Tally) -> Option<ChildOut> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = Command::new(exe);
    cmd.args(["--child", phase, "--workload", &args.workload])
        .args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--dir")
        .arg(dir)
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    // The simulator reads its knobs from COAXIAL_* variables; the benchmark
    // pins every one it depends on and clears the rest.
    for (k, _) in std::env::vars() {
        if k.starts_with("COAXIAL_") {
            cmd.env_remove(k);
        }
    }
    cmd.env("COAXIAL_CHECKPOINT_DIR", dir);
    let started_us = epoch_us();
    let mut proc = match cmd.spawn() {
        Ok(p) => p,
        Err(e) => {
            tally.fail(format!("{phase}: cannot start child: {e}"));
            return None;
        }
    };
    let mut stdout = proc.stdout.take()?;
    let reader = std::thread::spawn(move || {
        let mut s = String::new();
        let _ = stdout.read_to_string(&mut s);
        s
    });
    let end = Instant::now() + CHILD_DEADLINE;
    let status = loop {
        match proc.try_wait() {
            Ok(Some(st)) => break Some(st),
            Ok(None) if Instant::now() < end => std::thread::sleep(Duration::from_millis(5)),
            _ => {
                let _ = proc.kill();
                let _ = proc.wait();
                break None;
            }
        }
    };
    let text = reader.join().unwrap_or_default();
    let ended_us = epoch_us();
    match status {
        None => {
            tally.fail(format!("{phase}: child overran {CHILD_DEADLINE:?} and was killed"));
            return None;
        }
        Some(st) if !st.success() => {
            tally.fail(format!("{phase}: child exited with {st}"));
            return None;
        }
        Some(_) => {}
    }
    match text.lines().last().map(parse) {
        Some(Ok(Json::Obj(obj))) => Some(ChildOut { obj, started_us, ended_us }),
        _ => {
            tally.fail(format!("{phase}: child printed no result"));
            None
        }
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| rd.flatten().filter_map(|e| e.metadata().ok()).map(|m| m.len()).sum())
        .unwrap_or(0)
}

fn parent(args: &Args) -> i32 {
    let work =
        PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        return 2;
    }
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    eprintln!("perfbench: {} seed {} on a host with nproc = {nproc}", args.workload, args.seed);
    let started_us = epoch_us();
    let mut tally = Tally::default();
    let mut metrics: Metrics = Vec::new();
    let mut phases: Vec<(String, u64, u64)> = Vec::new();
    let mut run_child = |tally: &mut Tally, phase: &str, dir: &Path| {
        let out = spawn(args, phase, dir, tally);
        if let Some(c) = &out {
            phases.push((phase.to_string(), c.started_us, c.ended_us));
            tally.absorb(c, phases.len() as u64);
        }
        out
    };

    match (args.workload.as_str(), args.trace) {
        ("loop-mem" | "loop-cpu", false) => {
            let mut setups = Vec::new();
            let mut dir = work.clone();
            for k in 0..SETUP_REPEATS {
                dir = work.join(format!("setup{k}"));
                if let Some(c) = run_child(&mut tally, "loop-setup", &dir) {
                    setups.push(c.num("setup_s"));
                }
            }
            let ckpt = dir_bytes(&dir);
            if let Some(c) = run_child(&mut tally, "loop-timed", &dir) {
                metrics.extend(c.metrics());
            }
            metrics.push(("setup_s".into(), median(&setups)));
            metrics.push(("ckpt_disk_mb".into(), ckpt as f64 / 1e6));
        }
        ("sweep", trace) => {
            let dir = work.join("store");
            let cold = run_child(&mut tally, "sweep-cold", &dir);
            let ckpt = dir_bytes(&dir);
            if trace {
                // The cold pass's prefill split, then the warm child's layers.
                metrics.extend(cold.iter().flat_map(ChildOut::metrics));
                if let Some(c) = run_child(&mut tally, "sweep-warm", &dir) {
                    metrics.extend(c.metrics());
                }
            } else {
                // Warm passes, each in a fresh process so every restore
                // comes off the disk tier, until the window is spent.
                let t0 = Instant::now();
                let (mut runs, mut window_s, mut instr) = (0.0, 0.0, 0.0);
                let (mut walls, mut rss) = (vec![], vec![]);
                while cold.is_some() && (rss.len() < 2 || t0.elapsed().as_secs_f64() < args.seconds)
                {
                    let Some(c) = run_child(&mut tally, "sweep-warm", &dir) else { break };
                    runs += c.num("runs");
                    window_s += c.num("wall_s");
                    instr += c.num("sim_instr");
                    walls.extend(c.nums("run_ms"));
                    rss.push(c.metric("peak_rss_mb"));
                }
                metrics.extend([
                    ("setup_s".to_string(), cold.as_ref().map_or(0.0, |c| c.num("setup_s"))),
                    ("ops_per_s".to_string(), runs / window_s),
                    ("sim_mips".to_string(), instr / window_s / 1e6),
                    ("op_p50_ms".to_string(), reported_percentile(&walls, 50.0, "sweep run")),
                    ("op_p90_ms".to_string(), reported_percentile(&walls, 90.0, "sweep run")),
                    ("peak_rss_mb".to_string(), median(&rss)),
                    ("ckpt_disk_mb".to_string(), ckpt as f64 / 1e6),
                ]);
            }
        }
        ("serve", false) => {
            let mut setups = Vec::new();
            for k in 0..SETUP_REPEATS - 1 {
                if let Some(c) =
                    run_child(&mut tally, "serve-setup", &work.join(format!("setup{k}")))
                {
                    setups.push(c.num("setup_s"));
                }
            }
            let dir = work.join("timed");
            if let Some(c) = run_child(&mut tally, "serve-timed", &dir) {
                setups.push(c.num("setup_s"));
                metrics.extend(c.metrics());
            }
            metrics.push(("setup_s".into(), median(&setups)));
            metrics.push(("ckpt_disk_mb".into(), dir_bytes(&dir) as f64 / 1e6));
        }
        (wl, true) => {
            let phase = if wl == "serve" { "serve-trace" } else { "loop-trace" };
            if let Some(c) = run_child(&mut tally, phase, &work.join("trace")) {
                metrics.extend(c.metrics());
            }
        }
        _ => unreachable!("workload validated in parse_args"),
    }

    let ended_us = epoch_us();
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(".bench_work");

    // The declared metric set, each exactly once.
    let declared: &[(&str, &str)] = if args.trace { PER_LAYER } else { END_TO_END };
    let got: BTreeMap<String, f64> = metrics.into_iter().collect();
    let mut m = Obj::default();
    for (name, unit) in declared {
        let value = match got.get(*name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                tally.fail(format!("metric {name} was not measured"));
                0.0
            }
        };
        m = m.raw(name, &Obj::default().num("value", value).str("unit", unit).finish());
    }
    if args.trace {
        write_trace_outputs(args, &tally, &phases, started_us, ended_us, declared, &got);
    }
    let correct = tally.failed == 0;
    let result = Obj::default()
        .bool("correct", correct)
        .int("attempted", tally.attempted.max(1))
        .int("failed", tally.failed)
        .raw("metrics", &m.finish())
        .finish();
    println!("{result}");
    i32::from(!correct)
}

/// Print the per-layer table to stderr and write it, plus the Perfetto
/// trace of workload → phase → pass → run → {prefill, loop} (and one span
/// per served request), under `.bench_out/`.
fn write_trace_outputs(
    args: &Args,
    tally: &Tally,
    phases: &[(String, u64, u64)],
    started_us: u64,
    ended_us: u64,
    declared: &[(&str, &str)],
    got: &BTreeMap<String, f64>,
) {
    let mut table = format!("per-layer metrics: workload {} seed {}\n", args.workload, args.seed);
    for (name, unit) in declared {
        let v = got.get(*name).copied().unwrap_or(f64::NAN);
        table += &format!("  {name:<30} {v:>16.4} {unit}\n");
    }
    eprint!("{table}");

    let mut spans = Spans::new(0);
    let root = spans.add(0, format!("workload {}", args.workload), started_us, ended_us);
    let phase_ids: Vec<u64> =
        phases.iter().map(|(name, s, e)| spans.add(root, name.clone(), *s, *e)).collect();
    // Child span ids are local to their child: offset them per child.
    let field = |s: &Json, k: &str| match s {
        Json::Obj(o) => o.get(k).and_then(Json::as_u64).unwrap_or(0),
        _ => 0,
    };
    let name = |s: &Json| match s {
        Json::Obj(o) => o.get("name").and_then(Json::as_str).unwrap_or("?").to_string(),
        _ => "?".to_string(),
    };
    for (child, s) in &tally.spans {
        let base = 1_000_000 * child;
        let parent = field(s, "parent");
        let parent = if parent == 0 { phase_ids[*child as usize - 1] } else { base + parent };
        spans.spans.push(coaxial_perfbench::out::Span {
            id: base + field(s, "id"),
            parent,
            name: name(s),
            start_us: field(s, "start_us"),
            end_us: field(s, "end_us"),
        });
    }
    let dir = PathBuf::from(".bench_out");
    let stem = format!("{}-seed{}", args.workload, args.seed);
    let _ = std::fs::create_dir_all(&dir);
    let _ = std::fs::write(dir.join(format!("{stem}.perfetto.json")), spans.to_perfetto());
    let _ = std::fs::write(dir.join(format!("{stem}.layers.txt")), table);
}

// ───────────────────────────── children ─────────────────────────────

/// A child's running account: operations, failures, spans, metrics.
struct Acct {
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    spans: Spans,
    m: Metrics,
    extra: Obj,
}

impl Acct {
    fn new() -> Self {
        Self {
            attempted: 0,
            failed: 0,
            errors: vec![],
            spans: Spans::new(0),
            m: vec![],
            extra: Obj::default(),
        }
    }

    fn ok(&mut self, n: u64) {
        self.attempted += n;
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(what());
        }
    }

    fn put(&mut self, k: &str, v: f64) {
        self.m.push((k.to_string(), v));
    }

    fn finish(self) -> String {
        let mut m = Obj::default();
        for (k, v) in &self.m {
            m = m.num(k, *v);
        }
        let errors =
            self.errors.iter().map(|e| format!("\"{}\"", coaxial_gateway::json::escape(e)));
        Obj::default()
            .int("attempted", self.attempted)
            .int("failed", self.failed)
            .raw("errors", &array(errors))
            .raw("m", &m.finish())
            .raw("spans", &array(self.spans.spans.iter().map(|s| s.to_json())))
            .merge(self.extra)
            .finish()
    }
}

fn runs_for(workload: &str, seed: u64) -> Vec<Run> {
    match workload {
        "loop-mem" => specs::loop_mem(seed),
        "loop-cpu" => specs::loop_cpu(seed),
        "sweep" => specs::sweep(seed),
        _ => specs::serve_warmup(seed),
    }
}

fn child(phase: &str, args: &Args) -> Acct {
    let dir = args.dir.clone().expect("children get --dir");
    let _ = std::fs::create_dir_all(&dir);
    let mut a = Acct::new();
    let runs = runs_for(&args.workload, args.seed);
    match phase {
        "loop-setup" => {
            let mut host = HostSpeed::default();
            (0..SETUP_PROBES).for_each(|_| host.probe());
            let pass = run_pass(&runs, 1, Mode::PrefillOnly);
            (0..SETUP_PROBES).for_each(|_| host.probe());
            a.check(pass.runs.iter().all(|r| !r.restored()), || "set-up found a warm store".into());
            a.ok(runs.len() as u64);
            let setup_s = host.corrected_ns(pass.start_us, pass.wall_ns) / 1e9;
            a.extra = Obj::default().num("setup_s", setup_s);
        }
        "loop-timed" => loop_timed(&mut a, &runs, args.seconds),
        "loop-trace" => loop_trace(&mut a, &runs, &dir),
        "sweep-cold" => sweep_cold(&mut a, &runs, &dir, args.seed),
        "sweep-warm" => sweep_warm(&mut a, &runs, &dir, args.trace),
        "serve-setup" => {
            if let Some((gw, setup_s)) = serve_setup(&mut a, &runs, &dir) {
                a.extra = Obj::default().num("setup_s", setup_s);
                shutdown(&mut a, gw);
            }
        }
        "serve-timed" => serve_timed(&mut a, &runs, &dir, args),
        "serve-trace" => serve_trace(&mut a, &runs, &dir, args),
        other => a.check(false, || format!("unknown child phase {other}")),
    }
    a
}

/// `loop-*` timed window: whole passes until `seconds` pass (at least
/// two, so repetitions can be compared), store warm from the disk tier,
/// with a host-speed probe before the first pass and after each. Every
/// timing is corrected for the host's speed around it (see `host`).
fn loop_timed(a: &mut Acct, runs: &[Run], seconds: f64) {
    let t0 = Instant::now();
    let mut host = HostSpeed::default();
    host.probe();
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < 2 || t0.elapsed().as_secs_f64() < seconds {
        passes.push(run_pass(runs, 1, Mode::Plain));
        host.probe();
    }
    let first: Vec<String> = passes[0].runs.iter().map(|r| r.digest()).collect();
    for p in &passes[1..] {
        for (i, r) in p.runs.iter().enumerate() {
            a.check(r.digest() == first[i], || {
                format!("{} differs between passes", runs[i].label())
            });
        }
    }
    a.ok(passes[0].runs.len() as u64);
    // Corrected wall (ms) of run `i` in every pass.
    let per_run_ms = |i: usize| -> Vec<f64> {
        passes
            .iter()
            .map(|p| host.corrected_ns(p.runs[i].start_us, p.runs[i].wall_ns) / 1e6)
            .collect()
    };
    let window_s: f64 =
        (0..runs.len()).map(|i| per_run_ms(i).iter().sum::<f64>()).sum::<f64>() / 1e3;
    let raw_s: f64 = passes.iter().map(|p| p.wall_ns as f64 / 1e9).sum();
    let instr: f64 = runs.iter().map(|r| r.sim_instr() as f64).sum::<f64>() * passes.len() as f64;
    // Latency of "a run of this workload": the geometric mean over its four
    // runs of each run's median (p90) wall, so every run weighs the same.
    let geo = |q: f64| {
        let logs: f64 = (0..runs.len()).map(|i| quantile_inclusive(&per_run_ms(i), q).ln()).sum();
        (logs / runs.len() as f64).exp()
    };
    eprintln!(
        "perfbench: {} passes of {} runs in {raw_s:.2} s host time, {window_s:.2} s corrected \
         (mean host slowdown {:.3}; raw sim_mips {:.3})",
        passes.len(),
        runs.len(),
        host.mean_slowdown(),
        instr / raw_s / 1e6
    );
    a.put("sim_mips", instr / window_s / 1e6);
    a.put("ops_per_s", (passes.len() * runs.len()) as f64 / window_s);
    a.put("op_p50_ms", geo(50.0));
    a.put("op_p90_ms", geo(90.0));
    a.put("peak_rss_mb", peak_rss_mb());
}

/// Rebuild each reference run with timed wrappers and check that it exits
/// on the real run's cycle with the real run's per-core IPC.
fn traced_rebuild(a: &mut Acct, runs: &[Run], warm: &Pass, dir: &Path) -> Option<Vec<Rebuilt>> {
    let mut out = Vec::new();
    for (run, rec) in runs.iter().zip(&warm.runs) {
        let state = match load_prefill_state(dir, &run.spec) {
            Ok(s) => s,
            Err(e) => {
                a.check(false, || format!("traced rebuild of {}: {e}", run.label()));
                return None;
            }
        };
        let r = rebuild(&run.spec, &state);
        let same = r.exit_cycle == rec.report.cycles
            && r.per_core_ipc == rec.report.per_core_ipc
            && r.skipped_cycles == rec.counter("engine.skipped_cycles");
        a.check(same, || {
            format!(
                "traced rebuild of {} exited at cycle {} (real run: {}); per-layer numbers invalid",
                run.label(),
                r.exit_cycle,
                rec.report.cycles
            )
        });
        if !same {
            return None;
        }
        out.push(r);
    }
    Some(out)
}

/// The simulation-stack layer split, checked to account for the loop: the
/// corrected backend and workload self times must fit inside the untraced
/// loop wall, leaving a non-negative remainder for the cores and caches.
fn sim_layers(a: &mut Acct, runs: &[Run], warm: &Pass, rebuilt: &[Rebuilt], timer: TimerCost) {
    let m = layers::sim_layers(runs, warm, rebuilt, timer);
    let fits = m.iter().any(|(k, v)| k == "cpu_cache.share" && *v > 0.0);
    a.check(fits, || "per-layer self times exceed the untraced loop wall".into());
    a.m.extend(m);
}

/// Compare every run of `later` with `first` field for field.
fn same_reports(a: &mut Acct, runs: &[Run], first: &Pass, later: &Pass, what: &str) {
    for (i, (x, y)) in first.runs.iter().zip(&later.runs).enumerate() {
        a.check(x.digest() == y.digest(), || format!("{}: {what} report differs", runs[i].label()));
    }
}

/// Per-layer run of a `loop-*` workload: cold pass, two warm passes, the
/// traced rebuild, a gateway replay of the same runs, and serialization.
fn loop_trace(a: &mut Acct, runs: &[Run], dir: &Path) {
    let timer = calibrate_timer();
    let cold = run_pass(runs, 1, Mode::Telemetry);
    let root = 0;
    cold.spans(&mut a.spans, root, "cold pass", runs);
    let warm1 = run_pass(runs, 1, Mode::Telemetry);
    warm1.spans(&mut a.spans, root, "warm pass", runs);
    let warm = run_pass(runs, 1, Mode::Telemetry);
    warm.spans(&mut a.spans, root, "warm pass", runs);
    same_reports(a, runs, &cold, &warm1, "warm");
    same_reports(a, runs, &cold, &warm, "warm");
    let t = epoch_us();
    let rebuilt = traced_rebuild(a, runs, &warm, dir);
    a.spans.add(root, "traced rebuild", t, epoch_us());
    if let Some(rebuilt) = rebuilt {
        sim_layers(a, runs, &warm, &rebuilt, timer);
    }
    a.m.extend(layers::prefill_layers(&cold, true));
    a.m.extend(layers::prefill_layers(&warm, false));
    a.m.extend(layers::runner_layers(&warm));
    a.m.extend(layers::checkpoint_layers());
    gateway_replay(a, runs, &warm, dir, root);
    let bodies: Vec<&str> = runs.iter().map(|r| r.body.as_str()).collect();
    let reports: Vec<_> = warm.runs.iter().map(|r| &r.report).collect();
    a.m.extend(layers::serialization_layers(&bodies, &reports));
}

/// Serve `runs` through an in-process gateway once as misses and once as
/// result-cache hits, and scrape `/metrics`; check every body.
fn gateway_replay(a: &mut Acct, runs: &[Run], warm: &Pass, dir: &Path, root: u64) {
    let t = epoch_us();
    let gw = match Gateway::boot(JOBS, dir) {
        Ok(gw) => gw,
        Err(e) => return a.check(false, || e),
    };
    let (mut hit, mut over, mut scrape) = (vec![], vec![], vec![]);
    for (run, rec) in runs.iter().zip(&warm.runs) {
        let want = report_to_json(&rec.report) + "\n";
        // The in-process wall of the same run, taken right before its miss.
        let t0 = Instant::now();
        let inproc = report_to_json(&run.spec.run()) + "\n";
        let inproc_ms = t0.elapsed().as_secs_f64() * 1e3;
        a.check(inproc == want, || format!("{}: in-process rerun differs", run.label()));
        for miss in [true, false] {
            let t0 = Instant::now();
            let res = gw.call("POST", "/v1/run", run.body.as_bytes());
            let rtt = t0.elapsed().as_secs_f64() * 1e3;
            match res {
                Ok(r) if r.status == 200 && r.body == want.as_bytes() => {
                    a.ok(1);
                    if miss {
                        over.push(rtt - inproc_ms);
                    } else {
                        hit.push(rtt);
                    }
                }
                Ok(r) => a.check(false, || {
                    format!("{}: served {} or a different body", run.label(), r.status)
                }),
                Err(e) => a.check(false, || format!("{}: {e}", run.label())),
            }
        }
    }
    let mut last = None;
    for _ in 0..5 {
        match gw.metrics() {
            Ok((m, rtt)) => {
                scrape.push(rtt.as_secs_f64() * 1e3);
                last = Some(m);
                a.ok(1);
            }
            Err(e) => a.check(false, || e),
        }
    }
    gateway_layers(a, &hit, &over, &scrape, last.as_ref());
    shutdown(a, gw);
    a.spans.add(root, "gateway replay", t, epoch_us());
}

fn gateway_layers(
    a: &mut Acct,
    hit: &[f64],
    over: &[f64],
    scrape: &[f64],
    m: Option<&std::collections::HashMap<String, f64>>,
) {
    let g = |k: &str| m.and_then(|m| m.get(k).copied()).unwrap_or(0.0);
    let (hits, misses) = (g("gateway.cache.hits"), g("gateway.cache.misses"));
    a.put("gateway.hit_rtt_ms", median(hit));
    a.put("gateway.miss_overhead_ms", median(over));
    a.put(
        "gateway.cache_hit_ratio",
        if hits + misses > 0.0 { hits / (hits + misses) } else { 0.0 },
    );
    a.put("gateway.queue_rejected", g("gateway.queue.rejected"));
    a.put("gateway.dedup_joins", g("gateway.dedup.joins"));
    a.put("telemetry.metrics_scrape_ms", median(scrape));
}

fn shutdown(a: &mut Acct, gw: Gateway) {
    let r = gw.shutdown();
    a.check(r.is_ok(), || r.err().unwrap_or_default());
}

/// The checkpoint store must count no disk-tier error.
fn check_disk_errors(a: &mut Acct, ckpt: &Metrics, pass: &str) {
    let n = ckpt.iter().find(|(k, _)| k == "sim.checkpoint.disk_errors").map_or(0.0, |e| e.1);
    a.check(n == 0.0, || format!("{pass} pass counted {n} disk errors"));
}

/// `sweep` set-up: the cold pass that populates the disk tier. Writes the
/// report digests for the warm passes to compare against, and checks the
/// Fig. 10 geomeans.
fn sweep_cold(a: &mut Acct, runs: &[Run], dir: &Path, seed: u64) {
    let pass = run_pass(runs, JOBS, Mode::Telemetry);
    let root = a.spans.add(0, "sweep", pass.start_us, pass.start_us + pass.wall_ns / 1000);
    pass.spans(&mut a.spans, root, "cold pass", runs);
    a.ok(runs.len() as u64);
    let digests: Vec<String> = pass.runs.iter().map(|r| r.digest()).collect();
    let wrote = std::fs::write(dir.join("cold.digest"), digests.join("\n"));
    a.check(wrote.is_ok(), || "cannot write cold digests".into());
    check_disk_errors(a, &layers::checkpoint_layers(), "cold");

    // Fig. 10: geomean over workloads of 4x@ns IPC ÷ ddr IPC.
    let per_wl = 1 + specs::FIG10_NS.len();
    let geo: Vec<f64> = (0..specs::FIG10_NS.len())
        .map(|j| {
            let logs: f64 = pass
                .runs
                .chunks_exact(per_wl)
                .map(|rs| (rs[1 + j].report.ipc / rs[0].report.ipc).ln())
                .sum();
            (logs / (runs.len() / per_wl) as f64).exp()
        })
        .collect();
    a.check(geo.windows(2).all(|w| w[1] < w[0]), || {
        format!("Fig. 10 geomeans not falling: {geo:?}")
    });
    let at = |ns: f64| geo[specs::FIG10_NS.iter().position(|&x| x == ns).expect("latency point")];
    let err =
        specs::FIG10_PAPER.iter().map(|&(ns, paper)| (at(ns) / paper - 1.0).abs()).sum::<f64>()
            / specs::FIG10_PAPER.len() as f64;
    eprintln!(
        "perfbench: Fig. 10 geomean speedup {} (paper 1.71/1.39/1.26 at 10/50/70 ns); fig10_geomean_err {err:.4}",
        specs::FIG10_NS.iter().zip(&geo).map(|(ns, g)| format!("{ns}ns={g:.3}")).collect::<Vec<_>>().join(" ")
    );
    if seed == specs::DEFAULT_SEED {
        let g50 = format!("{:.3}", at(50.0));
        a.check(g50 == "1.458", || {
            format!("Fig. 10 geomean at 50 ns is {g50}, the tree gives 1.458")
        });
    }
    a.m.extend(layers::prefill_layers(&pass, true));
    a.extra = Obj::default().num("setup_s", pass.wall_ns as f64 / 1e9);
}

/// One `sweep` warm pass from the disk tier, checked against the cold
/// reports. With `trace`, also the per-layer split over a subset.
fn sweep_warm(a: &mut Acct, runs: &[Run], dir: &Path, trace: bool) {
    let cold = std::fs::read_to_string(dir.join("cold.digest")).unwrap_or_default();
    let cold: Vec<&str> = cold.split('\n').collect();
    let pass = run_pass(runs, JOBS, if trace { Mode::Telemetry } else { Mode::Plain });
    for (i, r) in pass.runs.iter().enumerate() {
        a.check(cold.get(i) == Some(&r.digest().as_str()), || {
            format!("{}: warm report differs from the cold one", runs[i].label())
        });
    }
    let ckpt = layers::checkpoint_layers();
    check_disk_errors(a, &ckpt, "warm");
    let instr: f64 = runs.iter().map(|r| r.sim_instr() as f64).sum();
    a.put("peak_rss_mb", peak_rss_mb());
    let run_ms = pass.runs.iter().map(|r| format!("{:?}", r.wall_ns as f64 / 1e6));
    a.extra = Obj::default()
        .num("runs", runs.len() as f64)
        .num("wall_s", pass.wall_ns as f64 / 1e9)
        .num("sim_instr", instr)
        .raw("run_ms", &array(run_ms));
    if !trace {
        return;
    }
    let root = a.spans.add(0, "sweep", pass.start_us, pass.start_us + pass.wall_ns / 1000);
    pass.spans(&mut a.spans, root, "warm pass", runs);
    a.m.extend(layers::prefill_layers(&pass, false));
    a.m.extend(layers::runner_layers(&pass));
    a.m.extend(ckpt);
    // The layer split over a subset: four workloads on both geometries
    // (the 50 ns point, the paper's headline CXL latency).
    let timer = calibrate_timer();
    let per_wl = 1 + specs::FIG10_NS.len();
    let pick: Vec<usize> = (0..runs.len())
        .filter(|&i| {
            let point = i % per_wl; // 0 is `ddr`, k is `4x` at FIG10_NS[k - 1]
            ["stream-add", "mcf", "pop2", "raytrace"].contains(&runs[i].spec.workloads[0].name)
                && (point == 0 || specs::FIG10_NS[point - 1] == 50.0)
        })
        .collect();
    let sub: Vec<Run> = pick.iter().map(|&i| runs[i].clone()).collect();
    // Untraced loop walls come from a serial pass, like the rebuild's.
    let sub_pass = run_pass(&sub, 1, Mode::Telemetry);
    for (k, &i) in pick.iter().enumerate() {
        let same = sub_pass.runs[k].digest() == pass.runs[i].digest();
        a.check(same, || format!("{}: serial report differs from the pooled one", runs[i].label()));
    }
    if let Some(rebuilt) = traced_rebuild(a, &sub, &sub_pass, dir) {
        sim_layers(a, &sub, &sub_pass, &rebuilt, timer);
    }
    gateway_replay(a, &sub, &sub_pass, dir, root);
    let bodies: Vec<&str> = runs.iter().map(|r| r.body.as_str()).collect();
    let reports: Vec<_> = pass.runs.iter().map(|r| &r.report).collect();
    a.m.extend(layers::serialization_layers(&bodies, &reports));
}

/// `serve` set-up: boot the gateway until `/healthz` answers, then send
/// the warm-up requests over two clients. Returns the running gateway.
fn serve_setup(a: &mut Acct, warmup: &[Run], dir: &Path) -> Option<(Gateway, f64)> {
    let t0 = Instant::now();
    let gw = match Gateway::boot(JOBS, dir) {
        Ok(gw) => gw,
        Err(e) => {
            a.check(false, || e);
            return None;
        }
    };
    let mix: Vec<Request> = warmup.iter().map(|r| Request::Run(Arc::new(r.clone()))).collect();
    let s = session(&gw, &mix, JOBS, f64::INFINITY);
    let setup_s = t0.elapsed().as_secs_f64();
    for smp in &s.samples {
        a.check(smp.error.is_none(), || smp.error.clone().unwrap_or_default());
    }
    a.check(s.samples.len() == warmup.len(), || "warm-up requests went missing".into());
    Some((gw, setup_s))
}

/// Account a session: failures, throughput, latency percentiles.
fn session_metrics(a: &mut Acct, s: &Session) {
    for smp in &s.samples {
        a.check(smp.error.is_none(), || smp.error.clone().unwrap_or_default());
    }
    let ok: Vec<_> = s.samples.iter().filter(|x| x.error.is_none()).collect();
    let wall = s.wall.as_secs_f64();
    let rtts: Vec<f64> = ok.iter().map(|x| x.rtt.as_secs_f64() * 1e3).collect();
    let instr: f64 = ok.iter().map(|x| x.sim_instr as f64).sum();
    a.put("ops_per_s", ok.len() as f64 / wall);
    a.put("sim_mips", instr / wall / 1e6);
    a.put("op_p50_ms", reported_percentile(&rtts, 50.0, "serve request"));
    a.put("op_p90_ms", reported_percentile(&rtts, 90.0, "serve request"));
}

/// [`percentile`], printed with the percentile it reached and its sample
/// count. NaN when there are too few samples, which the result line then
/// reports as a metric that was not measured.
fn reported_percentile(samples: &[f64], p: f64, what: &str) -> f64 {
    match percentile(samples, p) {
        Some(q) => {
            eprintln!(
                "perfbench: {what} latency p{p}: p{:.1} of {} samples = {:.3} ms",
                q.p, q.n, q.value
            );
            q.value
        }
        None => {
            eprintln!("perfbench: {what} latency p{p}: only {} samples", samples.len());
            f64::NAN
        }
    }
}

/// Re-run a sample of served misses in-process: each served body must
/// byte-equal `report_to_json(&spec.run())`. Returns miss RTT − run wall.
fn check_served(a: &mut Acct, s: &Session, sample: usize) -> Vec<f64> {
    let mut over = Vec::new();
    for smp in s.samples.iter().filter(|x| x.first && x.run_body.is_some()).take(sample) {
        let body = smp.run_body.as_deref().unwrap_or_default();
        let run = Run::parse(body.to_string());
        let t0 = Instant::now();
        let want = report_to_json(&run.spec.run()) + "\n";
        over.push(smp.rtt.as_secs_f64() * 1e3 - t0.elapsed().as_secs_f64() * 1e3);
        let got = s.served.get(body).map(Vec::as_slice);
        a.check(got == Some(want.as_bytes()), || {
            format!("served body for {body} differs from the in-process run")
        });
    }
    over
}

fn serve_timed(a: &mut Acct, warmup: &[Run], dir: &Path, args: &Args) {
    let Some((gw, setup_s)) = serve_setup(a, warmup, dir) else { return };
    let mix = specs::serve_mix(args.seed, 20_000);
    let s = session(&gw, &mix, JOBS, args.seconds);
    session_metrics(a, &s);
    a.put("peak_rss_mb", peak_rss_mb());
    check_served(a, &s, 4);
    shutdown(a, gw);
    a.extra = Obj::default().num("setup_s", setup_s);
}

/// Per-layer run of `serve`: the warm-up specs as reference runs (cold,
/// warm, traced rebuild), then a served session with one span per request.
fn serve_trace(a: &mut Acct, warmup: &[Run], dir: &Path, args: &Args) {
    let timer = calibrate_timer();
    let cold = run_pass(warmup, JOBS, Mode::Telemetry);
    let root = 0;
    cold.spans(&mut a.spans, root, "cold pass", warmup);
    let pooled = run_pass(warmup, JOBS, Mode::Telemetry);
    pooled.spans(&mut a.spans, root, "warm pass", warmup);
    // Untraced loop walls come from a serial pass, like the rebuild's.
    let warm = run_pass(warmup, 1, Mode::Telemetry);
    warm.spans(&mut a.spans, root, "serial warm pass", warmup);
    same_reports(a, warmup, &cold, &pooled, "warm");
    same_reports(a, warmup, &cold, &warm, "serial warm");
    if let Some(rebuilt) = traced_rebuild(a, warmup, &warm, dir) {
        sim_layers(a, warmup, &warm, &rebuilt, timer);
    }
    a.m.extend(layers::prefill_layers(&cold, true));
    a.m.extend(layers::prefill_layers(&pooled, false));
    a.m.extend(layers::runner_layers(&pooled));

    let Some((gw, _)) = serve_setup(a, warmup, dir) else { return };
    let mix = specs::serve_mix(args.seed, 20_000);
    let s = session(&gw, &mix, JOBS, args.seconds);
    let sess =
        a.spans.add(root, "session", s.samples.first().map_or(0, |x| x.start_us), epoch_us());
    for smp in &s.samples {
        let what = if smp.run_body.is_none() {
            "GET /metrics"
        } else if smp.first {
            "miss"
        } else {
            "hit"
        };
        let end = smp.start_us + u64::try_from(smp.rtt.as_micros()).unwrap_or(0);
        a.spans.add(sess, format!("request {} {what}", smp.id), smp.start_us, end);
    }
    session_metrics(a, &s);
    let over = check_served(a, &s, 4);
    let hit: Vec<f64> = s
        .samples
        .iter()
        .filter(|x| x.error.is_none() && x.run_body.is_some() && !x.first)
        .map(|x| x.rtt.as_secs_f64() * 1e3)
        .collect();
    let scrape: Vec<f64> = s
        .samples
        .iter()
        .filter(|x| x.error.is_none() && x.run_body.is_none())
        .map(|x| x.rtt.as_secs_f64() * 1e3)
        .collect();
    let last = gw.metrics();
    a.check(last.is_ok(), || "final GET /metrics failed".into());
    gateway_layers(a, &hit, &over, &scrape, last.as_ref().ok().map(|(m, _)| m));
    a.m.extend(layers::checkpoint_layers());
    let bodies: Vec<&str> = s.samples.iter().filter_map(|x| x.run_body.as_deref()).collect();
    let reports: Vec<_> = warm.runs.iter().map(|r| &r.report).collect();
    a.m.extend(layers::serialization_layers(&bodies, &reports));
    shutdown(a, gw);
}
