//! Loopback integration tests: a real gateway on 127.0.0.1 with real
//! TCP clients, covering the acceptance criteria of the serve subsystem:
//!
//! (a) `POST /v1/run` bodies are byte-identical to the CLI's `--json`
//!     serialization of the same configuration, on both engines;
//! (b) N identical concurrent requests execute exactly one simulation
//!     (dedup-join counter reads N−1);
//! (c) queue overflow answers 429 with `Retry-After` and never drops an
//!     accepted job;
//! (d) graceful shutdown drains in-flight work, and `/metrics` exposes
//!     queue depth, cache and dedup counters, and latency histograms.

#![allow(clippy::disallowed_methods, reason = "test deadlines are host wall-clock timeouts")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use coaxial_gateway::http::{client_request, ClientResponse};
use coaxial_gateway::{report_to_json, serve, GatewayConfig, GatewayStats};
use coaxial_system::runner::RunSpec;
use coaxial_system::{EngineKind, SystemConfig};
use coaxial_workloads::Workload;

/// Distinguishes the gateways started by one test process: the tests run
/// in parallel, and two gateways sharing a port-file directory would read
/// each other's ports.
static GATEWAY_SEQ: AtomicU64 = AtomicU64::new(0);

/// How long a drained gateway may take to exit after `POST /shutdown`.
const JOIN_DEADLINE: Duration = Duration::from_secs(60);

/// Start a gateway on an ephemeral port; returns the base URL and the
/// handle that yields [`GatewayStats`] after shutdown.
fn start(workers: usize, queue_depth: usize) -> (String, std::thread::JoinHandle<GatewayStats>) {
    let seq = GATEWAY_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("coaxial-gw-test-{}-{seq}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let port_file = dir.join("port");
    let cfg = GatewayConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        cache_mb: 8,
        rate_per_sec: 0,
        burst: 8,
        port_file: Some(port_file.clone()),
    };
    let handle = std::thread::spawn(move || serve(cfg).expect("gateway serve"));
    let deadline = Instant::now() + Duration::from_secs(10);
    let addr = loop {
        if let Ok(text) = std::fs::read_to_string(&port_file) {
            let text = text.trim().to_string();
            if !text.is_empty() {
                break text;
            }
        }
        assert!(Instant::now() < deadline, "gateway never wrote its port file");
        std::thread::sleep(Duration::from_millis(10));
    };
    let _ = std::fs::remove_dir_all(&dir);
    (format!("http://{addr}"), handle)
}

fn post(base: &str, path: &str, body: &str) -> ClientResponse {
    client_request("POST", &format!("{base}{path}"), body.as_bytes()).expect("request")
}

fn get(base: &str, path: &str) -> ClientResponse {
    client_request("GET", &format!("{base}{path}"), b"").expect("request")
}

/// Request a drain and join the gateway thread, failing after
/// [`JOIN_DEADLINE`] instead of hanging the suite.
fn shutdown(base: &str, handle: std::thread::JoinHandle<GatewayStats>) -> GatewayStats {
    let resp = post(base, "/shutdown", "");
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let deadline = Instant::now() + JOIN_DEADLINE;
    while !handle.is_finished() {
        assert!(Instant::now() < deadline, "gateway at {base} did not exit after draining");
        std::thread::sleep(Duration::from_millis(10));
    }
    handle.join().expect("gateway thread")
}

/// Poll the one-shot status endpoint until the job reports `state`.
/// (`GET /v1/jobs/{id}` without `/status` streams until the job is
/// terminal, which is exactly wrong for observing intermediate states.)
fn wait_for_state(base: &str, id: u64, state: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let resp = get(base, &format!("/v1/jobs/{id}/status"));
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        if resp.body_str().contains(&format!("\"state\":\"{state}\"")) {
            return;
        }
        assert!(Instant::now() < deadline, "job {id} never reached {state}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn served_run_is_byte_identical_to_cli_json_on_both_engines() {
    let (base, handle) = start(2, 16);
    let w = Workload::by_name("mcf").expect("mcf exists");
    for engine in ["event", "lockstep"] {
        let body = format!(
            "{{\"workload\":\"mcf\",\"config\":\"4x\",\"instructions\":4000,\
             \"warmup\":1000,\"engine\":\"{engine}\"}}"
        );
        let resp = post(&base, "/v1/run", &body);
        assert_eq!(resp.status, 200, "{}", resp.body_str());
        // The CLI's `run --json` path is `report_to_json(spec.run()) + "\n"`.
        let kind = if engine == "event" { EngineKind::Event } else { EngineKind::Lockstep };
        let spec =
            RunSpec::homogeneous(SystemConfig::coaxial_4x(), w, 4000, 1000).with_engine(kind);
        let local = report_to_json(&spec.run()) + "\n";
        assert_eq!(
            resp.body_str(),
            local,
            "served body must be byte-identical to the CLI serialization ({engine})"
        );
    }
    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn identical_concurrent_requests_run_exactly_one_simulation() {
    // One worker, pinned busy by a background job, so the N identical
    // requests all arrive while their shared job is still queued — the
    // join count is deterministic, not a race.
    let (base, handle) = start(1, 16);
    let blocker =
        r#"{"workload":"lbm","config":"2x","instructions":30000,"warmup":2000,"async":true}"#;
    let resp = post(&base, "/v1/run", blocker);
    assert_eq!(resp.status, 202, "{}", resp.body_str());
    wait_for_state(&base, 1, "running");

    const N: u64 = 6;
    let shared = r#"{"workload":"mcf","config":"4x","instructions":3000,"warmup":500}"#;
    let bodies: Vec<String> = {
        let base = &base;
        let done = Arc::new(AtomicU64::new(0));
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..N)
                .map(|_| {
                    let done = Arc::clone(&done);
                    scope.spawn(move || {
                        let resp = post(base, "/v1/run", shared);
                        assert_eq!(resp.status, 200, "{}", resp.body_str());
                        done.fetch_add(1, Ordering::Relaxed);
                        resp.body_str().into_owned()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("client thread")).collect()
        })
    };
    assert!(bodies.windows(2).all(|w| w[0] == w[1]), "all joiners get the same body");

    let metrics = get(&base, "/metrics");
    let text = metrics.body_str().into_owned();
    let stats = shutdown(&base, handle);
    // N identical requests → 1 enqueue + (N−1) joins → 2 jobs total
    // (blocker + shared).
    assert_eq!(stats.dedup_joins, N - 1, "metrics:\n{text}");
    assert_eq!(stats.jobs_completed, 2, "exactly one simulation for the N requests");
    assert!(text.contains("gateway.dedup.joins"), "{text}");
}

#[test]
fn queue_overflow_answers_429_and_accepted_jobs_all_finish() {
    // One worker, queue depth 1: job A runs, job B waits in the queue,
    // job C is refused with 429 + Retry-After.
    let (base, handle) = start(1, 1);
    let job_a =
        r#"{"workload":"lbm","config":"2x","instructions":30000,"warmup":2000,"async":true}"#;
    assert_eq!(post(&base, "/v1/run", job_a).status, 202);
    wait_for_state(&base, 1, "running");

    let job_b =
        r#"{"workload":"mcf","config":"ddr","instructions":2000,"warmup":500,"async":true}"#;
    assert_eq!(post(&base, "/v1/run", job_b).status, 202);

    let job_c =
        r#"{"workload":"omnetpp","config":"4x","instructions":2000,"warmup":500,"async":true}"#;
    let refused = post(&base, "/v1/run", job_c);
    assert_eq!(refused.status, 429, "{}", refused.body_str());
    assert!(refused.header("retry-after").is_some(), "429 must carry Retry-After");

    // Both accepted jobs still complete: nothing was dropped. Job 2 is
    // watched through the chunked streaming endpoint (it blocks until
    // the job is terminal and its last ndjson line carries the state).
    wait_for_state(&base, 1, "done");
    let watched = get(&base, "/v1/jobs/2");
    assert_eq!(watched.status, 200);
    assert_eq!(
        watched.header("transfer-encoding").map(str::to_ascii_lowercase).as_deref(),
        Some("chunked"),
        "progress endpoint must stream"
    );
    let last = watched.body_str().lines().last().map(str::to_string).unwrap_or_default();
    assert!(last.contains("\"state\":\"done\""), "{last}");
    let result_b = get(&base, "/v1/jobs/2/result");
    assert_eq!(result_b.status, 200);
    assert!(result_b.body_str().contains("\"config\":\"DDR-baseline\""));

    let stats = shutdown(&base, handle);
    assert_eq!(stats.queue_rejected, 1);
    assert_eq!(stats.jobs_completed, 2);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn shutdown_drains_inflight_work_and_metrics_expose_the_pipeline() {
    let (base, handle) = start(1, 16);
    // Queue work, then immediately request shutdown: the drain must wait
    // for both jobs, and the queued-then-drained job must still answer.
    let j1 = r#"{"workload":"lbm","config":"2x","instructions":20000,"warmup":2000,"async":true}"#;
    let j2 = r#"{"workload":"mcf","config":"4x","instructions":3000,"warmup":500,"async":true}"#;
    assert_eq!(post(&base, "/v1/run", j1).status, 202);
    assert_eq!(post(&base, "/v1/run", j2).status, 202);

    let metrics = get(&base, "/metrics").body_str().into_owned();
    for name in [
        "gateway.queue.depth",
        "gateway.queue.capacity",
        "gateway.queue.rejected",
        "gateway.cache.hits",
        "gateway.cache.misses",
        "gateway.dedup.joins",
        "gateway.requests.total",
        "gateway.request.latency_us",
        "gateway.jobs.running",
        "gateway.shutdown.draining",
    ] {
        assert!(metrics.contains(name), "/metrics must expose {name}:\n{metrics}");
    }

    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, 2, "drain must finish queued and running jobs");
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn error_paths_and_cache_hits() {
    let (base, handle) = start(1, 16);
    // Structured 400s.
    assert_eq!(post(&base, "/v1/run", r#"{"workload":"nope"}"#).status, 400);
    assert_eq!(post(&base, "/v1/run", "garbage").status, 400);
    assert_eq!(post(&base, "/v1/run", r#"{"workload":"mcf","engine":"warp"}"#).status, 400);
    // Unknown routes and methods.
    assert_eq!(get(&base, "/v1/nope").status, 404);
    assert_eq!(get(&base, "/v1/jobs/99").status, 404);
    assert_eq!(post(&base, "/metrics", "").status, 405);
    assert_eq!(get(&base, "/healthz").body_str(), "ok\n");

    // A repeated request is a cache hit: same body, no second simulation.
    let body = r#"{"workload":"mcf","config":"ddr","instructions":2000,"warmup":500}"#;
    let first = post(&base, "/v1/run", body);
    assert_eq!(first.status, 200);
    let second = post(&base, "/v1/run", body);
    assert_eq!(second.status, 200);
    assert_eq!(first.body_str(), second.body_str());
    let metrics = get(&base, "/metrics").body_str().into_owned();
    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, 1, "second request must be served from cache");
    assert!(metrics.contains("gateway.cache.hits"), "{metrics}");

    // Sweep responses are an array with one report per config.
    let (base, handle) = start(2, 16);
    let sweep = r#"{"workload":"mcf","configs":["ddr","4x"],"instructions":2000,"warmup":500}"#;
    let resp = post(&base, "/v1/sweep", sweep);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let text = resp.body_str();
    assert!(text.starts_with('[') && text.trim_end().ends_with(']'), "{text}");
    assert!(text.contains("\"config\":\"DDR-baseline\""), "{text}");
    assert!(text.contains("\"config\":\"COAXIAL-4x\""), "{text}");
    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, 1);
}

/// Parse one counter's value out of the rendered `/metrics` body.
fn metric_value(metrics: &str, name: &str) -> u64 {
    metrics
        .lines()
        .find_map(|l| {
            let mut it = l.split_whitespace();
            (it.next() == Some(name)).then(|| it.next().unwrap_or("0").parse().unwrap_or(0))
        })
        .unwrap_or_else(|| panic!("metric {name} missing:\n{metrics}"))
}

#[test]
fn job_table_stays_bounded_under_distinct_request_hammer() {
    // Every request is unique (distinct instruction budget), so each one
    // is a fresh job: without bounded retention the table would grow to
    // N entries and a long-lived gateway would leak.
    let (base, handle) = start(2, 128);
    const N: u64 = 80; // > RETAINED_JOBS (64)
    for i in 0..N {
        let body = format!(
            "{{\"workload\":\"mcf\",\"config\":\"4x\",\"instructions\":{},\"warmup\":100}}",
            500 + i
        );
        let resp = post(&base, "/v1/run", &body);
        assert_eq!(resp.status, 200, "{}", resp.body_str());
    }
    let metrics = get(&base, "/metrics").body_str().into_owned();
    let entries = metric_value(&metrics, "gateway.jobs.entries");
    assert!(entries <= 64, "job table must stay bounded, got {entries}");
    assert_eq!(metric_value(&metrics, "gateway.jobs.admitted"), N);
    let stats = shutdown(&base, handle);
    assert_eq!(stats.jobs_completed, N);
    assert_eq!(stats.jobs_failed, 0);
}

#[test]
fn trace_jobs_expose_perfetto_export() {
    let (base, handle) = start(1, 8);
    let body = r#"{"workload":"mcf","config":"4x","instructions":2000,"warmup":500,"trace":true}"#;
    let resp = post(&base, "/v1/run", body);
    assert_eq!(resp.status, 200, "{}", resp.body_str());
    let trace = get(&base, "/v1/jobs/1/trace");
    assert_eq!(trace.status, 200, "{}", trace.body_str());
    assert!(trace.body_str().contains("traceEvents"), "Perfetto/Chrome JSON envelope");
    // The same request without trace=true is a different key (different
    // job), and its trace endpoint answers 404.
    let plain = r#"{"workload":"mcf","config":"4x","instructions":2000,"warmup":500}"#;
    assert_eq!(post(&base, "/v1/run", plain).status, 200);
    assert_eq!(get(&base, "/v1/jobs/2/trace").status, 404);
    shutdown(&base, handle);
}
