//! Microbenchmarks of the simulation substrates themselves: DRAM channel
//! scheduling throughput, cache-array lookups, CXL link transfer, and core
//! tick rate. These guard the simulator's own performance (one simulated
//! second of the 12-core system is millions of ticks) rather than
//! reproducing a paper figure.
//!
//! Self-timed with `std::time::Instant` (no external harness): each case
//! runs a warmup iteration, then `SAMPLES` timed iterations, and reports
//! min/mean wall-clock per iteration.

#![allow(
    clippy::disallowed_methods,
    reason = "a self-timed benchmark measures host wall-clock time"
)]

use std::hint::black_box;
use std::time::Instant;

use coaxial_cache::{CacheArray, CalmPolicy, Hierarchy, HierarchyConfig};
use coaxial_cpu::{Core, CoreParams, TraceOp, VecTrace};
use coaxial_cxl::{CxlChannel, CxlLinkConfig};
use coaxial_dram::{Channel, DramConfig, MemRequest, MemoryBackend, MultiChannel};
use coaxial_sim::SplitMix64;

const SAMPLES: u32 = 10;

fn bench<F: FnMut() -> u64>(name: &str, mut f: F) {
    black_box(f()); // warmup
    let mut total = 0.0f64;
    let mut best = f64::INFINITY;
    for _ in 0..SAMPLES {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_secs_f64();
        total += dt;
        best = best.min(dt);
    }
    let mean = total / SAMPLES as f64;
    println!("{name:<32} min {:>9.3} ms   mean {:>9.3} ms", best * 1e3, mean * 1e3);
}

fn bench_dram_channel() {
    bench("dram_channel_1k_random_reads", || {
        let mut ch = Channel::new(DramConfig::ddr5_4800());
        let mut rng = SplitMix64::new(1);
        let mut issued = 0u64;
        let mut done = 0u64;
        let mut now = 0u64;
        while done < 1000 {
            ch.tick(now);
            while issued < 1000 {
                let req = MemRequest::read(issued, rng.next_below(1 << 22), now);
                if ch.try_enqueue(req).is_err() {
                    break;
                }
                issued += 1;
            }
            while ch.pop_response(now).is_some() {
                done += 1;
            }
            now += 1;
        }
        now
    });
}

fn bench_cache_lookups() {
    let mut cache = CacheArray::new(2 * 1024 * 1024, 16);
    let mut rng = SplitMix64::new(2);
    for _ in 0..100_000 {
        cache.fill(rng.next_below(1 << 16), false);
    }
    bench("cache_array_100k_lookups", || {
        let mut rng = SplitMix64::new(3);
        let mut hits = 0u64;
        for _ in 0..100_000 {
            if cache.lookup(rng.next_below(1 << 16)) {
                hits += 1;
            }
        }
        hits
    });
}

fn bench_cxl_link() {
    bench("cxl_channel_500_reads", || {
        let mut ch = CxlChannel::new(CxlLinkConfig::x8_symmetric(), &DramConfig::ddr5_4800());
        let mut issued = 0u64;
        let mut done = 0;
        let mut now = 0u64;
        while done < 500 {
            ch.tick(now);
            while issued < 500 && ch.can_accept() {
                ch.try_enqueue(MemRequest::read(issued, issued * 577, now)).unwrap();
                issued += 1;
            }
            while ch.pop_response().is_some() {
                done += 1;
            }
            now += 1;
        }
        now
    });
}

fn bench_core_tick() {
    bench("core_20k_instructions", || {
        let ops: Vec<TraceOp> = (0..64).map(|i| TraceOp::load(15, i * 131, 1)).collect();
        let mut core = Core::new(0, CoreParams::default(), Box::new(VecTrace::new(ops)));
        let cfg = HierarchyConfig::table_iii(1, 1, 2.0, 38.4, CalmPolicy::Serial);
        let mut h = Hierarchy::new(cfg, MultiChannel::new(&DramConfig::ddr5_4800(), 1));
        let mut now = 0;
        while core.retired < 20_000 {
            h.tick(now);
            while let Some((_, id)) = h.pop_completion() {
                core.on_memory_complete(id);
            }
            core.tick(now, &mut h);
            now += 1;
        }
        now
    });
}

fn main() {
    coaxial_bench::banner("micro", "substrate microbenchmarks (self-timed)");
    bench_dram_channel();
    bench_cache_lookups();
    bench_cxl_link();
    bench_core_tick();
}
