//! `coaxial` — command-line front end to the COAXIAL reproduction.
//!
//! ```text
//! coaxial list                            # the 36 workloads
//! coaxial configs                         # Table II / III configurations
//! coaxial run <workload> [opts]           # one simulation, full report
//! coaxial compare <workload> [opts]       # baseline vs every COAXIAL variant
//! coaxial sweep-latency <workload> [opts] # CXL latency premium sweep
//! coaxial breakdown <workload> [opts]     # per-component L2-miss latency
//! coaxial trace <workload> <out.json> [opts] # Perfetto/Chrome event trace
//! coaxial profile <workload> [--ops N]       # characterize a generator
//! coaxial capture <workload> <file> [--ops N]
//! coaxial replay <file> [opts]            # run a captured .cxtr trace
//! coaxial checkpoint-stats [workload] [opts] # prefill checkpoint hit rate over two runs
//! coaxial exp <name> [opts]               # one paper experiment by name
//! coaxial serve [serve options]           # HTTP gateway: POST /v1/run etc.
//! coaxial http <METHOD> <url> [body]      # tiny HTTP client for scripts
//!
//! common options:
//!   --config <name>   ddr | 2x | 4x | 5x | asym        (default: 4x)
//!   --instr <n>       measured instructions per core    (default: 120000)
//!   --warmup <n>      warmup instructions per core      (default: 20000)
//!   --cores <n>       active cores (1..12)              (default: 12)
//!   --cxl-ns <f>      CXL latency premium override in ns
//!   --json            run only: emit the report as one JSON line
//!   --sampled         run only: SMARTS interval sampling; --instr is the
//!                     total horizon, COAXIAL_SAMPLING* shape the intervals
//!   --trace-start <c> --trace-end <c>     trace window in cycles
//!   --trace-cap <n>   trace ring capacity in events     (default: 65536)
//!
//! serve options (defaults from COAXIAL_GATEWAY_* env, see coaxial-gateway):
//!   --addr <host:port>   listen address (":0" picks an ephemeral port)
//!   --workers <n>        simulation worker threads
//!   --queue-depth <n>    queued jobs admitted before 429
//!   --cache-mb <n>       result-cache byte budget, in MB
//!   --rate <n>           per-client requests/second, 0 disables
//!   --burst <n>          per-client token-bucket burst
//!   --port-file <path>   write the bound address here once listening
//! ```

use std::process::exit;

use coaxial::cpu::tracefile;
use coaxial::system::experiments::{latency_breakdown, run_named, Budget, EXPERIMENT_NAMES};
use coaxial::system::runner::{run_all, RunSpec};
use coaxial::system::{RunReport, SamplingConfig, SamplingSummary, Simulation, SystemConfig};
use coaxial::telemetry::TelemetryRecorder;
use coaxial::workloads::Workload;

struct Opts {
    config: String,
    instr: u64,
    warmup: u64,
    cores: usize,
    cxl_ns: Option<f64>,
    json: bool,
    sampled: bool,
    ops: usize,
    trace_start: u64,
    trace_end: u64,
    trace_cap: usize,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            config: "4x".into(),
            instr: coaxial::system::server::DEFAULT_INSTRUCTIONS,
            warmup: coaxial::system::server::DEFAULT_WARMUP,
            cores: 12,
            cxl_ns: None,
            json: false,
            // `--sampled` and COAXIAL_SAMPLING are equivalent opt-ins.
            sampled: coaxial::sim::env::sampling(),
            ops: 100_000,
            trace_start: 0,
            trace_end: u64::MAX,
            trace_cap: 1 << 16,
        }
    }
}

fn usage() -> ! {
    eprintln!(
        "{}",
        include_str!("coaxial.rs")
            .lines()
            .skip(2)
            .take(37)
            .map(|l| l.trim_start_matches("//! "))
            .collect::<Vec<_>>()
            .join("\n")
    );
    exit(2)
}

fn parse_opts(args: &[String]) -> Opts {
    let mut o = Opts::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut next = || {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {a}");
                exit(2)
            })
        };
        match a.as_str() {
            "--config" => o.config = next().clone(),
            "--instr" => o.instr = next().parse().expect("--instr wants a number"),
            "--warmup" => o.warmup = next().parse().expect("--warmup wants a number"),
            "--cores" => o.cores = next().parse().expect("--cores wants a number"),
            "--cxl-ns" => o.cxl_ns = Some(next().parse().expect("--cxl-ns wants a number")),
            "--json" => o.json = true,
            "--sampled" => o.sampled = true,
            "--ops" => o.ops = next().parse().expect("--ops wants a number"),
            "--trace-start" => o.trace_start = next().parse().expect("--trace-start wants a cycle"),
            "--trace-end" => o.trace_end = next().parse().expect("--trace-end wants a cycle"),
            "--trace-cap" => o.trace_cap = next().parse().expect("--trace-cap wants a number"),
            other => {
                eprintln!("unknown option {other}");
                exit(2)
            }
        }
    }
    o
}

fn or_exit<T>(r: Result<T, coaxial::system::ConfigError>) -> T {
    r.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

fn build_config(o: &Opts) -> SystemConfig {
    let mut cfg = or_exit(or_exit(SystemConfig::by_name(&o.config)).try_with_active_cores(o.cores));
    if let Some(ns) = o.cxl_ns {
        cfg = cfg.with_cxl_latency_ns(ns);
    }
    cfg
}

fn workload(name: &str) -> &'static Workload {
    Workload::by_name(name).unwrap_or_else(|| {
        eprintln!("unknown workload '{name}' — try `coaxial list`");
        exit(2)
    })
}

fn print_report(r: &RunReport) {
    let (on, q, s, x) = r.breakdown_ns;
    println!("config:      {}", r.config_name);
    println!("workloads:   {}", r.workload_names.join(", "));
    println!(
        "IPC:         {:.3} (per core: {})",
        r.ipc,
        r.per_core_ipc.iter().map(|i| format!("{i:.2}")).collect::<Vec<_>>().join(" ")
    );
    println!("MPKI:        {:.1}", r.mpki);
    println!(
        "L2-miss lat: {:.0} ns = on-chip {:.0} + queuing {:.0} + DRAM {:.0} + CXL {:.0}",
        r.l2_miss_latency_ns, on, q, s, x
    );
    println!(
        "bandwidth:   {:.1} GB/s ({:.1} rd + {:.1} wr), {:.0}% of peak",
        r.bandwidth_gbs,
        r.read_gbs,
        r.write_gbs,
        r.utilization * 100.0
    );
    println!("LLC miss ratio among L2 misses: {:.0}%", r.llc_miss_ratio * 100.0);
    if r.calm.decisions() > 0 {
        println!(
            "CALM:        FP {:.1}%/mem-access, FN {:.1}%/LLC-miss over {} decisions",
            r.calm.false_pos_per_mem_access() * 100.0,
            r.calm.false_neg_per_llc_miss() * 100.0,
            r.calm.decisions()
        );
    }
    println!("window:      {} cycles ({} instr/core)", r.cycles, r.instructions);
}

fn print_sampling(s: &SamplingSummary) {
    println!(
        "sampling:    IPC {:.3} ± {:.3} (95% CI) over {} of {} intervals{}",
        s.ipc_mean,
        s.ipc_ci_half,
        s.intervals_run,
        s.intervals_planned,
        if s.early_stopped { " — early stop" } else { "" }
    );
    println!(
        "             {} warm + {} measured instr per core per interval, {} per-core horizon; \
         totals: {} detailed vs {} fast-forwarded instr",
        s.warm_per_interval,
        s.measure_per_interval,
        s.horizon_instructions,
        s.detail_instructions,
        s.fast_forward_instructions
    );
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else { usage() };
    match cmd.as_str() {
        "list" => {
            println!("{:<15} {:<8} {:>9} {:>10}", "workload", "suite", "paper IPC", "paper MPKI");
            for w in Workload::all() {
                println!(
                    "{:<15} {:<8} {:>9.2} {:>10}",
                    w.name,
                    format!("{:?}", w.suite),
                    w.paper_ipc,
                    w.paper_mpki
                );
            }
        }
        "configs" => {
            for cfg in [
                SystemConfig::ddr_baseline(),
                SystemConfig::coaxial_2x(),
                SystemConfig::coaxial_4x(),
                SystemConfig::coaxial_5x(),
                SystemConfig::coaxial_asym(),
            ] {
                println!(
                    "{:<13} {:>2} DDR channels, {:>5.1} GB/s peak, LLC {:>3.1} MB/core, CALM {}",
                    cfg.name,
                    cfg.ddr_channels(),
                    cfg.peak_bandwidth_gbs(),
                    cfg.functional.llc_mb_per_core,
                    cfg.timing.calm.label()
                );
            }
        }
        "run" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(&args[2..]);
            let sim = Simulation::new(build_config(&o), workload(wl))
                .instructions_per_core(o.instr)
                .warmup(o.warmup);
            if o.sampled {
                let r = sim.run_sampled(&SamplingConfig::from_env());
                if o.json {
                    println!("{}", coaxial::gateway::sampled_report_to_json(&r));
                } else {
                    print_report(&r.report);
                    print_sampling(&r.sampling);
                }
            } else if o.json {
                // Same serializer as the gateway's /v1/run — the bodies
                // are byte-identical by construction (check.sh cmp's them).
                println!("{}", coaxial::gateway::report_to_json(&sim.run()));
            } else {
                print_report(&sim.run());
            }
        }
        "compare" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(&args[2..]);
            let w = workload(wl);
            // One batch across the job pool; reports come back in config order.
            let specs: Vec<RunSpec> = [
                SystemConfig::ddr_baseline(),
                SystemConfig::coaxial_2x(),
                SystemConfig::coaxial_4x(),
                SystemConfig::coaxial_5x(),
                SystemConfig::coaxial_asym(),
            ]
            .into_iter()
            .map(|cfg| RunSpec::homogeneous(cfg.with_active_cores(o.cores), w, o.instr, o.warmup))
            .collect();
            let reports = run_all(&specs);
            let base = &reports[0];
            println!(
                "{:<14} {:>7} {:>9} {:>11} {:>10}",
                "config", "IPC", "speedup", "L2-miss ns", "util"
            );
            for r in &reports {
                println!(
                    "{:<14} {:>7.3} {:>8.2}x {:>11.0} {:>9.0}%",
                    r.config_name,
                    r.ipc,
                    r.speedup_over(base),
                    r.l2_miss_latency_ns,
                    r.utilization * 100.0
                );
            }
        }
        "sweep-latency" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(&args[2..]);
            let w = workload(wl);
            let latencies = [10.0, 30.0, 50.0, 70.0, 90.0, 120.0];
            let specs: Vec<RunSpec> = std::iter::once(SystemConfig::ddr_baseline())
                .chain(
                    latencies.iter().map(|&ns| SystemConfig::coaxial_4x().with_cxl_latency_ns(ns)),
                )
                .map(|cfg| {
                    RunSpec::homogeneous(cfg.with_active_cores(o.cores), w, o.instr, o.warmup)
                })
                .collect();
            let reports = run_all(&specs);
            let base = &reports[0];
            println!("baseline IPC {:.3}", base.ipc);
            for (ns, r) in latencies.iter().zip(&reports[1..]) {
                println!(
                    "CXL {ns:>5.0} ns: IPC {:.3}  speedup {:.2}x",
                    r.ipc,
                    r.speedup_over(base)
                );
            }
        }
        "breakdown" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(&args[2..]);
            let budget = Budget { instructions: o.instr, warmup: o.warmup };
            let configs =
                [SystemConfig::ddr_baseline().with_active_cores(o.cores), build_config(&o)];
            let rows = latency_breakdown(&configs, wl, budget);
            println!("mean L2-miss latency attribution on {wl}, ns (measured window)");
            print!("{:<16}", "component");
            for r in &rows {
                print!(" {:>14}", r.config_name);
            }
            println!();
            for i in 0..rows[0].components_ns.len() {
                print!("{:<16}", rows[0].components_ns[i].0);
                for r in &rows {
                    print!(" {:>14.1}", r.components_ns[i].1);
                }
                println!();
            }
            type RowGet = fn(&coaxial::system::experiments::BreakdownRow) -> f64;
            let footers: [(&str, RowGet); 2] =
                [("total (sum)", |r| r.total_ns), ("driver total", |r| r.report_total_ns)];
            for (label, get) in footers {
                print!("{label:<16}");
                for r in &rows {
                    print!(" {:>14.1}", get(r));
                }
                println!();
            }
            print!("{:<16}", "requests");
            for r in &rows {
                print!(" {:>14}", r.requests);
            }
            println!();
            print!("{:<16}", "IPC");
            for r in &rows {
                print!(" {:>14.3}", r.ipc);
            }
            println!();
        }
        "trace" => {
            let (Some(wl), Some(out)) = (args.get(1), args.get(2)) else { usage() };
            let o = parse_opts(&args[3..]);
            let rec =
                TelemetryRecorder::new().with_trace_window(o.trace_cap, o.trace_start, o.trace_end);
            let (r, rec, _metrics) = Simulation::new(build_config(&o), workload(wl))
                .instructions_per_core(o.instr)
                .warmup(o.warmup)
                .run_with_telemetry(rec);
            std::fs::write(out, rec.tracer.export_chrome_json()).unwrap_or_else(|e| {
                eprintln!("cannot write {out}: {e}");
                exit(1)
            });
            println!(
                "wrote {} events ({} dropped) to {out} — load in https://ui.perfetto.dev or chrome://tracing",
                rec.tracer.len(),
                rec.tracer.dropped()
            );
            print_report(&r);
        }
        "profile" => {
            let Some(wl) = args.get(1) else { usage() };
            let o = parse_opts(&args[2..]);
            let p = coaxial::workloads::characterize(workload(wl), 0, 42, o.ops as u64);
            println!("workload:        {}", p.workload);
            println!("ops sampled:     {}", p.ops);
            println!("density:         {:.1} mem ops / kilo-instruction", p.density_per_ki);
            println!("write fraction:  {:.1}%", p.write_frac * 100.0);
            println!("dependent ops:   {:.1}%", p.dependent_frac * 100.0);
            println!("sequential ops:  {:.1}%", p.sequential_frac * 100.0);
            println!(
                "unique lines:    {} ({:.1} MB)",
                p.unique_lines,
                p.unique_lines as f64 * 64.0 / 1e6
            );
            println!("line reuse:      {:.1}%", p.reuse_frac * 100.0);
        }
        "capture" => {
            let (Some(wl), Some(path)) = (args.get(1), args.get(2)) else { usage() };
            let o = parse_opts(&args[3..]);
            let mut src = workload(wl).trace(0, 0xCAB);
            tracefile::capture(std::path::Path::new(path), src.as_mut(), o.ops).unwrap_or_else(
                |e| {
                    eprintln!("capture failed: {e}");
                    exit(1)
                },
            );
            println!("captured {} ops of {wl} to {path}", o.ops);
        }
        "checkpoint-stats" => {
            // Same config + workload twice: the first run populates the
            // prefill checkpoint stores, the second must restore. Exits
            // non-zero if it does not, so check.sh doubles as a smoke test
            // of the content-addressed store.
            let (wl, rest) = match args.get(1) {
                Some(a) if !a.starts_with("--") => (a.as_str(), &args[2..]),
                _ => ("mcf", &args[1..]),
            };
            let o = parse_opts(rest);
            let w = workload(wl);
            let run = || {
                #[allow(
                    clippy::disallowed_methods,
                    reason = "reports the host wall time of the cold and warm runs"
                )]
                let t = std::time::Instant::now();
                let (_, _, m) = Simulation::new(build_config(&o), w)
                    .instructions_per_core(o.instr)
                    .warmup(o.warmup)
                    .run_with_telemetry(TelemetryRecorder::new());
                (m, t.elapsed())
            };
            let (cold, cold_wall) = run();
            let (warm, warm_wall) = run();
            let ms = |m: &coaxial::telemetry::MetricsRegistry, p: &str| {
                m.counter(p).unwrap_or(0) as f64 / 1e6
            };
            println!("checkpoint stats: {wl} on {} (two identical runs)", build_config(&o).name);
            for (label, m, wall) in [("cold", &cold, cold_wall), ("warm", &warm, warm_wall)] {
                println!(
                    "{label}: wall {:>7.1} ms, prefill {:>7.1} ms (loop {:>7.1} ms), restored={}",
                    wall.as_secs_f64() * 1e3,
                    ms(m, "server.prefill.wall_ns"),
                    ms(m, "server.prefill.loop_wall_ns"),
                    m.counter("server.prefill.restored").unwrap_or(0)
                );
            }
            for store in ["state", "streams"] {
                let c = |name: &str| {
                    warm.counter(&format!("server.checkpoint.{store}.{name}")).unwrap_or(0)
                };
                let (mem, disk, miss) = (c("mem_hits"), c("disk_hits"), c("misses"));
                let lookups = mem + disk + miss;
                println!(
                    "{store:<7} store: {lookups} lookups — {mem} mem / {disk} disk hits, \
                     {miss} misses ({:.0}% hit), {} inserts, {} evictions, {} disk errors",
                    if lookups == 0 { 0.0 } else { (mem + disk) as f64 * 100.0 / lookups as f64 },
                    c("inserts"),
                    c("evictions"),
                    c("disk_errors")
                );
                println!(
                    "               {:.0} entries resident, {:.1} MB",
                    warm.gauge(&format!("server.checkpoint.{store}.entries")).unwrap_or(0.0),
                    warm.gauge(&format!("server.checkpoint.{store}.bytes")).unwrap_or(0.0) / 1e6
                );
            }
            if warm.counter("server.prefill.restored") != Some(1) {
                eprintln!("checkpoint-stats: second run did not restore from the store");
                exit(1);
            }
        }
        "replay" => {
            let Some(path) = args.get(1) else { usage() };
            let o = parse_opts(&args[2..]);
            let r = Simulation::from_trace_file(build_config(&o), path)
                .instructions_per_core(o.instr)
                .warmup(o.warmup)
                .run();
            print_report(&r);
        }
        "exp" => {
            let Some(name) = args.get(1) else { usage() };
            let o = parse_opts(&args[2..]);
            let budget = Budget { instructions: o.instr, warmup: o.warmup };
            match run_named(name, budget) {
                Some(out) => println!("{out}"),
                None => {
                    eprintln!(
                        "unknown experiment '{name}' — available: {}",
                        EXPERIMENT_NAMES.join(", ")
                    );
                    exit(2)
                }
            }
        }
        "serve" => {
            let mut cfg = coaxial::gateway::GatewayConfig::from_env();
            let mut it = args[1..].iter();
            while let Some(a) = it.next() {
                let mut next = || {
                    it.next().unwrap_or_else(|| {
                        eprintln!("missing value for {a}");
                        exit(2)
                    })
                };
                match a.as_str() {
                    "--addr" => cfg.addr = next().clone(),
                    "--workers" => {
                        cfg.workers = next().parse().expect("--workers wants a number");
                    }
                    "--queue-depth" => {
                        cfg.queue_depth = next().parse().expect("--queue-depth wants a number");
                    }
                    "--cache-mb" => {
                        cfg.cache_mb = next().parse().expect("--cache-mb wants a number");
                    }
                    "--rate" => cfg.rate_per_sec = next().parse().expect("--rate wants a number"),
                    "--burst" => cfg.burst = next().parse().expect("--burst wants a number"),
                    "--port-file" => cfg.port_file = Some(std::path::PathBuf::from(next())),
                    other => {
                        eprintln!("unknown option {other}");
                        exit(2)
                    }
                }
            }
            match coaxial::gateway::serve(cfg) {
                Ok(stats) => println!(
                    "gateway stopped: {} requests, {} jobs done ({} failed), \
                     {} dedup joins, {} queue rejections",
                    stats.requests_total,
                    stats.jobs_completed,
                    stats.jobs_failed,
                    stats.dedup_joins,
                    stats.queue_rejected
                ),
                Err(e) => {
                    eprintln!("serve failed: {e}");
                    exit(1)
                }
            }
        }
        "http" => {
            // Scripts use this where curl may not exist (offline images);
            // body to stdout, non-2xx/3xx statuses become a non-zero exit.
            let (Some(method), Some(url)) = (args.get(1), args.get(2)) else { usage() };
            let body = args.get(3).map(String::as_str).unwrap_or("");
            match coaxial::gateway::http::client_request(method, url, body.as_bytes()) {
                Ok(resp) => {
                    use std::io::Write as _;
                    std::io::stdout().write_all(&resp.body).expect("stdout");
                    if resp.status >= 400 {
                        eprintln!("HTTP {}", resp.status);
                        exit(1)
                    }
                }
                Err(e) => {
                    eprintln!("http request failed: {e}");
                    exit(1)
                }
            }
        }
        _ => usage(),
    }
}
