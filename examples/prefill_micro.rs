//! Microbenchmark for the prefill hot path (dev aid, not a paper figure):
//! times trace generation and functional cache warming separately.
//!
//! ```text
//! cargo run --release --example prefill_micro
//! ```

#![allow(
    clippy::disallowed_methods,
    reason = "a self-timed microbenchmark measures host wall-clock time"
)]

use std::time::Instant;

use coaxial::cache::{CalmPolicy, Hierarchy, HierarchyConfig};
use coaxial::cpu::TraceSource;
use coaxial::dram::{DramConfig, MultiChannel};
use coaxial::workloads::Workload;

fn main() {
    const OPS: usize = 3_000_000;
    let w = Workload::by_name("mcf").unwrap();

    // 1. Trace generation alone.
    let mut t = w.trace(0, 0xF111);
    let t0 = Instant::now();
    let mut acc = 0u64;
    for _ in 0..OPS {
        let (line, st) = t.next_access();
        acc = acc.wrapping_add(line).wrapping_add(st as u64);
    }
    let gen = t0.elapsed();
    println!(
        "next_access: {OPS} ops in {:.3}s ({:.1} ns/op, sink {acc})",
        gen.as_secs_f64(),
        gen.as_secs_f64() * 1e9 / OPS as f64
    );

    // 2. Generation + prefill into a 12-core hierarchy.
    let cfg = HierarchyConfig::table_iii(12, 2, 2.0, 38.4, CalmPolicy::Serial);
    let mut h = Hierarchy::new(cfg, MultiChannel::new(&DramConfig::ddr5_4800(), 2));
    let mut traces: Vec<_> = (0..12).map(|i| w.trace(i, 0xF111)).collect();
    let ahead: usize = std::env::var("AHEAD").ok().and_then(|v| v.parse().ok()).unwrap_or(8);
    let mut buf: Vec<(u64, bool)> = Vec::with_capacity(OPS / 8 / 12);
    let t0 = Instant::now();
    for round in 0..8 {
        for (i, t) in traces.iter_mut().enumerate() {
            buf.clear();
            buf.extend((0..OPS / 8 / 12).map(|_| t.next_access()));
            for j in 0..buf.len() {
                if let Some(&(a, _)) = buf.get(j + ahead) {
                    h.prefill_prefetch(coaxial_sim::small_u32(i), a);
                }
                let (line, st) = buf[j];
                h.prefill_access(coaxial_sim::small_u32(i), line, st);
            }
        }
        let _ = round;
    }
    let pre = t0.elapsed();
    println!(
        "prefill:     {OPS} ops in {:.3}s ({:.1} ns/op, gen share {:.0}%, ahead {ahead})",
        pre.as_secs_f64(),
        pre.as_secs_f64() * 1e9 / OPS as f64,
        100.0 * gen.as_secs_f64() / pre.as_secs_f64()
    );
}
