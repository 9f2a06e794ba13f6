//! The gateway side: an in-process `coaxial_gateway::serve` on an
//! ephemeral loopback port, driven by closed-loop clients.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use coaxial_gateway::{GatewayConfig, GatewayStats};

use crate::client::{join_within, request, Response};
use crate::out::epoch_us;
use crate::specs::Request;

/// Deadline of one HTTP call. A miss is a ~20 ms quick run (a default
/// budget run is about a second), so this only trips on a stuck gateway.
pub const CALL_DEADLINE: Duration = Duration::from_secs(30);
/// Deadline for the gateway to come up, and to drain and exit.
const BOOT_DEADLINE: Duration = Duration::from_secs(20);

pub struct Gateway {
    pub addr: SocketAddr,
    handle: JoinHandle<std::io::Result<GatewayStats>>,
}

impl Gateway {
    /// Start a gateway with `workers` workers and wait until `/healthz`
    /// answers.
    pub fn boot(workers: usize, dir: &Path) -> Result<Self, String> {
        let port_file = dir.join("gateway.port");
        let _ = std::fs::remove_file(&port_file);
        let cfg = GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            workers,
            queue_depth: 64,
            cache_mb: 32,
            rate_per_sec: 0,
            burst: 8,
            port_file: Some(port_file.clone()),
        };
        let handle = std::thread::spawn(move || coaxial_gateway::serve(cfg));
        let end = Instant::now() + BOOT_DEADLINE;
        let addr = loop {
            if let Ok(text) = std::fs::read_to_string(&port_file) {
                if let Ok(addr) = text.trim().parse::<SocketAddr>() {
                    break addr;
                }
            }
            if Instant::now() >= end || handle.is_finished() {
                return Err("gateway did not publish its port".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        };
        loop {
            if let Ok(r) = request(addr, "GET", "/healthz", b"", CALL_DEADLINE) {
                if r.status == 200 {
                    return Ok(Self { addr, handle });
                }
            }
            if Instant::now() >= end {
                return Err("gateway /healthz never answered".to_string());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn call(&self, method: &str, path: &str, body: &[u8]) -> std::io::Result<Response> {
        request(self.addr, method, path, body, CALL_DEADLINE)
    }

    /// `GET /metrics` parsed into `name → value` (histogram rows skipped).
    pub fn metrics(&self) -> Result<(HashMap<String, f64>, Duration), String> {
        let t0 = Instant::now();
        let r = self.call("GET", "/metrics", b"").map_err(|e| format!("GET /metrics: {e}"))?;
        let rtt = t0.elapsed();
        if r.status != 200 {
            return Err(format!("GET /metrics answered {}", r.status));
        }
        let text = String::from_utf8_lossy(&r.body);
        let map = text
            .lines()
            .filter_map(|l| {
                let mut it = l.split_whitespace();
                Some((it.next()?.to_string(), it.next()?.parse().ok()?))
            })
            .collect();
        Ok((map, rtt))
    }

    /// `POST /shutdown`, then join the server thread within a deadline.
    pub fn shutdown(self) -> Result<(), String> {
        let r = self.call("POST", "/shutdown", b"").map_err(|e| format!("POST /shutdown: {e}"))?;
        if r.status != 200 {
            return Err(format!("POST /shutdown answered {}", r.status));
        }
        match join_within(self.handle, BOOT_DEADLINE) {
            Some(Ok(Ok(_))) => Ok(()),
            Some(Ok(Err(e))) => Err(format!("gateway failed: {e}")),
            Some(Err(_)) => Err("gateway thread panicked".to_string()),
            None => Err("gateway did not exit within its drain deadline".to_string()),
        }
    }
}

/// One answered (or failed) request of a session.
pub struct Sample {
    pub id: usize,
    pub start_us: u64,
    pub rtt: Duration,
    /// `Some(body)` for `POST /v1/run`, `None` for `GET /metrics`.
    pub run_body: Option<String>,
    pub sim_instr: u64,
    /// First time this body was answered (a miss) or a repeat (a hit).
    pub first: bool,
    pub error: Option<String>,
}

/// What a closed-loop session produced.
pub struct Session {
    pub samples: Vec<Sample>,
    pub wall: Duration,
    /// Served body per request body, from its first answer.
    pub served: HashMap<String, Vec<u8>>,
}

/// Drive `clients` closed-loop clients over `mix` until `seconds` pass
/// (or the mix runs out). Each client sends its next request only after
/// the previous answer arrived in full. Repeats must answer byte-equal
/// to the first answer for their body.
pub fn session(gw: &Gateway, mix: &[Request], clients: usize, seconds: f64) -> Session {
    let next = AtomicUsize::new(0);
    let served: Mutex<HashMap<String, Vec<u8>>> = Mutex::new(HashMap::new());
    let t0 = Instant::now();
    let stop = Duration::try_from_secs_f64(seconds).unwrap_or(Duration::MAX);
    let mut samples: Vec<Sample> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut out = Vec::new();
                    while t0.elapsed() < stop {
                        let id = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = mix.get(id) else { break };
                        out.push(one(gw, id, req, &served));
                    }
                    out
                })
            })
            .collect();
        workers.into_iter().flat_map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall = t0.elapsed();
    samples.sort_by_key(|s| s.id);
    Session { samples, wall, served: served.into_inner().unwrap_or_default() }
}

fn one(gw: &Gateway, id: usize, req: &Request, served: &Mutex<HashMap<String, Vec<u8>>>) -> Sample {
    let start_us = epoch_us();
    let t = Instant::now();
    let (method, path, body, sim_instr) = match req {
        Request::Run(run) => ("POST", "/v1/run", run.body.as_str(), run.sim_instr()),
        Request::Metrics => ("GET", "/metrics", "", 0),
    };
    let res = gw.call(method, path, body.as_bytes());
    let rtt = t.elapsed();
    let run_body = matches!(req, Request::Run(_)).then(|| body.to_string());
    let mut sample = Sample { id, start_us, rtt, run_body, sim_instr, first: false, error: None };
    match res {
        Err(e) => sample.error = Some(format!("{method} {path}: {e}")),
        Ok(r) if r.status != 200 => {
            sample.error = Some(format!("{method} {path} answered {}", r.status));
        }
        Ok(r) => {
            if let Request::Run(_) = req {
                let mut map = served.lock().expect("served map");
                match map.get(body) {
                    Some(prev) if *prev != r.body => {
                        sample.error = Some(format!("repeat of {body} answered a different body"));
                    }
                    Some(_) => {}
                    None => {
                        sample.first = true;
                        map.insert(body.to_string(), r.body);
                    }
                }
            }
        }
    }
    sample
}
