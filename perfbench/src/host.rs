//! Host-speed correction for the `loop-*` timings.
//!
//! The benchmark host is a 2-vCPU share of a loaded machine. Its speed
//! drifts by ±25% and more in phases of tens of seconds to minutes, longer
//! than any window the time budget allows, so raw run walls of the same
//! code spread wider than a bound can tolerate. A fixed probe run between
//! passes tracks those phases. It has two parts, each a kind of work the
//! simulator does: four independent integer chains that keep several
//! execution ports busy, and a dependent walk over an L2-sized table that
//! waits on the cache hierarchy. Over 5-pass spans on the benchmark host
//! its wall correlated with the pass wall at r ≈ 0.8–0.86 on both
//! workloads; a pointer chase over 8–128 MiB or a memory-parallel walk
//! did not track as well. Each run wall is divided by the probe's
//! slowdown around it, which turns it into the wall the run would take on
//! a host where the probe takes [`REFERENCE_PROBE_MS`].
//!
//! The probe is benchmark code, not simulator code: a change to the
//! simulator moves the corrected figures exactly as it moves the raw ones.

use std::hint::black_box;
use std::time::Instant;

use crate::out::epoch_us;

/// Iterations of the probe's integer part (~15 ms on the reference host).
const ILP_ITERS: u64 = 10_000_000;

/// Dependent loads of the probe's cache part (~10 ms on the reference
/// host).
const LOAD_STEPS: u64 = 1_500_000;

/// Words in the cache part's table: 4 MiB, one core's L2 on the benchmark
/// host.
const TABLE_WORDS: usize = 1 << 19;

/// Probe wall, ms, that defines the reference host speed: about the probe's
/// wall on the benchmark host (2-vCPU Xeon VM) when it was quiet.
/// Corrected timings are in seconds of that host.
pub const REFERENCE_PROBE_MS: f64 = 25.0;

/// Probes within this distance of a run's midpoint set its correction.
const SPAN_US: u64 = 5_000_000;

/// Run the probe once over `table`; returns its wall in ms.
fn probe_ms(table: &[u64]) -> f64 {
    let t = Instant::now();
    let (mut a, mut b, mut c, mut d) = (1u64, 2u64, 3u64, 4u64);
    for i in 0..black_box(ILP_ITERS) {
        a = a.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
        b = b.rotate_left(7) ^ a;
        c = c.wrapping_add(b >> 3);
        d ^= c.wrapping_mul(31);
    }
    black_box((a, b, c, d));
    let mask = table.len() - 1;
    let (mut at, mut sum) = (7usize, 0u64);
    for _ in 0..black_box(LOAD_STEPS) {
        let v = table[at & mask];
        sum = sum.wrapping_add(v);
        at = at.wrapping_mul(2_654_435_761).wrapping_add(v as usize & 7);
    }
    black_box(sum);
    t.elapsed().as_secs_f64() * 1e3
}

/// Probe walls with the time each was taken, and the probe's table.
pub struct HostSpeed {
    probes: Vec<(u64, f64)>,
    table: Vec<u64>,
}

impl Default for HostSpeed {
    fn default() -> Self {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let table = (0..TABLE_WORDS)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        Self { probes: Vec::new(), table }
    }
}

impl HostSpeed {
    /// Run the probe now and keep its wall.
    pub fn probe(&mut self) {
        let ms = probe_ms(&self.table);
        self.record(epoch_us(), ms);
    }

    pub fn record(&mut self, at_us: u64, ms: f64) {
        self.probes.push((at_us, ms));
    }

    /// Host slowdown around `at_us`: the mean probe wall within
    /// [`SPAN_US`] of it (the nearest probe if none is that close), over
    /// [`REFERENCE_PROBE_MS`]. Above 1 when the host runs slow.
    pub fn slowdown_at(&self, at_us: u64) -> f64 {
        let near: Vec<f64> = self
            .probes
            .iter()
            .filter(|(t, _)| t.abs_diff(at_us) <= SPAN_US)
            .map(|(_, ms)| *ms)
            .collect();
        let ms = if near.is_empty() {
            self.probes
                .iter()
                .min_by_key(|(t, _)| t.abs_diff(at_us))
                .map_or(REFERENCE_PROBE_MS, |p| p.1)
        } else {
            near.iter().sum::<f64>() / near.len() as f64
        };
        ms / REFERENCE_PROBE_MS
    }

    /// `wall_ns` of an interval that started at `start_us`, in reference
    /// host time.
    pub fn corrected_ns(&self, start_us: u64, wall_ns: u64) -> f64 {
        wall_ns as f64 / self.slowdown_at(start_us + wall_ns / 2_000)
    }

    /// Mean slowdown over all probes, for the stderr summary.
    pub fn mean_slowdown(&self) -> f64 {
        let n = self.probes.len().max(1) as f64;
        self.probes.iter().map(|p| p.1).sum::<f64>() / n / REFERENCE_PROBE_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_averages_nearby_probes_only() {
        let mut h = HostSpeed::default();
        let r = REFERENCE_PROBE_MS;
        h.record(0, r);
        h.record(4_000_000, 3.0 * r);
        h.record(20_000_000, 2.0 * r);
        assert_eq!(h.slowdown_at(2_000_000), 2.0);
        // Nothing within the span: the nearest probe decides.
        assert_eq!(h.slowdown_at(13_000_000), 2.0);
        // A 2 s interval centred on 20 s on a host twice as slow.
        assert_eq!(h.corrected_ns(19_000_000, 2_000_000_000), 1e9);
    }

    #[test]
    fn probe_takes_measurable_time() {
        let mut h = HostSpeed::default();
        h.probe();
        assert!(h.mean_slowdown() > 0.0);
    }
}
