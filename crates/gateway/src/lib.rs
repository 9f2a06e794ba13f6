//! `coaxial-gateway` — simulation-as-a-service front end.
//!
//! Turns the simulator into long-running shared infrastructure: a
//! hand-rolled HTTP/1.1 server (`std::net` only — the container is
//! offline, so no tokio/axum/hyper) exposing the simulation driver to
//! concurrent clients. `coaxial serve` is the CLI entry point.
//!
//! # Request path
//!
//! Every `POST /v1/run` / `POST /v1/sweep` body is canonicalized and
//! keyed with the same FNV-1a-128 domain-tagged [`coaxial_sim::KeyHasher`]
//! that keys the prefill checkpoint store, then flows through three
//! layers (see DESIGN.md §5h):
//!
//! 1. **Result cache** — a byte-bounded LRU of completed report bodies;
//!    a repeat request is served without touching the simulator.
//! 2. **In-flight dedup** — identical concurrent requests attach to the
//!    one queued/running job and all receive its result.
//! 3. **Bounded job queue** — FIFO in front of the worker pool; overflow
//!    answers `429` with `Retry-After` instead of queueing unboundedly.
//!
//! Per-client token buckets rate-limit request admission, and shutdown
//! (SIGTERM or `POST /shutdown`) drains accepted work before exiting —
//! accepted jobs are never dropped.
//!
//! # Environment knobs
//!
//! Defaults here; the `coaxial serve` flags override the environment.
//!
//! | Variable                   | Meaning                                      |
//! |----------------------------|----------------------------------------------|
//! | `COAXIAL_GATEWAY_ADDR`     | listen address (default `127.0.0.1:8372`)    |
//! | `COAXIAL_GATEWAY_WORKERS`  | simulation worker threads (default 2)        |
//! | `COAXIAL_GATEWAY_QUEUE`    | job-queue depth before 429 (default 64)      |
//! | `COAXIAL_GATEWAY_CACHE_MB` | result-cache budget in MB (default 32)       |
//! | `COAXIAL_GATEWAY_RATE`     | per-client tokens/second, 0 = off (default 0)|
//! | `COAXIAL_GATEWAY_BURST`    | per-client token-bucket burst (default 8)    |

#![allow(
    clippy::disallowed_methods,
    reason = "the gateway times host-side request latency, rate limits and job ages on the wall clock; none of it reaches simulated state"
)]

pub mod http;
pub mod json;
pub mod report;
pub mod request;
pub mod server;
pub mod state;

pub use report::{report_to_json, sampled_report_to_json};
pub use server::{serve, GatewayStats};
pub use state::Gateway;

use coaxial_sim::env::env_u64;

/// Gateway runtime configuration; see the crate docs for the environment
/// table. Flags parsed by `coaxial serve` override [`Self::from_env`].
#[derive(Debug, Clone)]
pub struct GatewayConfig {
    /// Listen address, `host:port` (`:0` picks an ephemeral port).
    pub addr: String,
    /// Simulation worker threads draining the job queue.
    pub workers: usize,
    /// Queued (not yet running) jobs admitted before answering 429.
    pub queue_depth: usize,
    /// Byte budget of the completed-result cache, in MB.
    pub cache_mb: u64,
    /// Per-client admission rate, tokens/second; 0 disables limiting.
    pub rate_per_sec: u64,
    /// Per-client token-bucket capacity (burst size).
    pub burst: u64,
    /// When set, the bound address is written here after listen() — how
    /// scripts and tests discover an ephemeral port.
    pub port_file: Option<std::path::PathBuf>,
}

impl GatewayConfig {
    pub fn from_env() -> Self {
        Self {
            addr: std::env::var("COAXIAL_GATEWAY_ADDR")
                .unwrap_or_else(|_| "127.0.0.1:8372".to_string()),
            workers: coaxial_sim::idx(env_u64("COAXIAL_GATEWAY_WORKERS", 2).max(1)),
            queue_depth: coaxial_sim::idx(env_u64("COAXIAL_GATEWAY_QUEUE", 64).max(1)),
            cache_mb: env_u64("COAXIAL_GATEWAY_CACHE_MB", 32),
            rate_per_sec: env_u64("COAXIAL_GATEWAY_RATE", 0),
            burst: env_u64("COAXIAL_GATEWAY_BURST", 8).max(1),
            port_file: None,
        }
    }
}
