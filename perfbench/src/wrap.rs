//! Outside-in timing wrappers around the simulator's public traits.
//!
//! [`TimedBackend`] wraps a [`MemoryBackend`] (the DRAM or CXL layer) and
//! [`TimedTrace`] wraps a [`TraceSource`] (the workload generators). Each
//! forwards every trait method — including the defaulted ones, whose
//! silent loss would change behaviour (`next_event` drives cycle skipping,
//! `export_metrics` carries the backend counters) — and accumulates the
//! host time spent inside the wrapped calls. The wrappers time only the
//! forwarded call; their own bookkeeping shows up as tracing overhead.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use coaxial_cpu::{TraceOp, TraceSource};
use coaxial_dram::{ChannelStats, MemRequest, MemResponse, MemoryBackend};
use coaxial_sim::Cycle;
use coaxial_telemetry::MetricsRegistry;

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn bump(c: &Cell<u64>, by: u64) {
    c.set(c.get() + by);
}

/// Host time and call counts of one backend, as the engine drove it.
#[derive(Debug, Default)]
pub struct BackendTally {
    /// Host ns inside `tick`, `try_enqueue`, `pop_response`, `next_event`.
    pub ns: Cell<u64>,
    pub ticks: Cell<u64>,
    /// Ticks that the backend's own `next_event` bound showed were no-ops.
    pub noop_ticks: Cell<u64>,
    pub enqueues: Cell<u64>,
    pub enqueue_rejects: Cell<u64>,
    pub pops: Cell<u64>,
    pub next_events: Cell<u64>,
}

impl BackendTally {
    /// Number of timed calls (each carries one timer-read bias).
    pub fn timed_calls(&self) -> u64 {
        self.ticks.get() + self.enqueues.get() + self.pops.get() + self.next_events.get()
    }
}

/// A [`MemoryBackend`] that forwards to `inner` and times it.
pub struct TimedBackend<B> {
    inner: B,
    pub(crate) tally: BackendTally,
}

impl<B: MemoryBackend> TimedBackend<B> {
    pub fn new(inner: B) -> Self {
        Self { inner, tally: BackendTally::default() }
    }
}

impl<B: MemoryBackend> MemoryBackend for TimedBackend<B> {
    fn try_enqueue(&mut self, req: MemRequest) -> Result<(), MemRequest> {
        let t0 = Instant::now();
        let r = self.inner.try_enqueue(req);
        bump(&self.tally.ns, elapsed_ns(t0));
        bump(&self.tally.enqueues, 1);
        if r.is_err() {
            bump(&self.tally.enqueue_rejects, 1);
        }
        r
    }

    fn tick(&mut self, now: Cycle) {
        // `next_event(now - 1) > now` proves ticking at `now` does nothing
        // (see the trait contract). The probe is not timed.
        if now > 0 && self.inner.next_event(now - 1) > now {
            bump(&self.tally.noop_ticks, 1);
        }
        let t0 = Instant::now();
        self.inner.tick(now);
        bump(&self.tally.ns, elapsed_ns(t0));
        bump(&self.tally.ticks, 1);
    }

    fn pop_response(&mut self, now: Cycle) -> Option<MemResponse> {
        let t0 = Instant::now();
        let r = self.inner.pop_response(now);
        bump(&self.tally.ns, elapsed_ns(t0));
        bump(&self.tally.pops, 1);
        r
    }

    fn ddr_channel_count(&self) -> usize {
        self.inner.ddr_channel_count()
    }

    fn ddr_stats(&self) -> ChannelStats {
        self.inner.ddr_stats()
    }

    fn reset_stats(&mut self, now: Cycle) {
        self.inner.reset_stats(now);
    }

    fn peak_bandwidth_gbs(&self) -> f64 {
        self.inner.peak_bandwidth_gbs()
    }

    fn link_utilization(&self) -> Option<(f64, f64)> {
        self.inner.link_utilization()
    }

    fn next_event(&self, now: Cycle) -> Cycle {
        let t0 = Instant::now();
        let r = self.inner.next_event(now);
        bump(&self.tally.ns, elapsed_ns(t0));
        bump(&self.tally.next_events, 1);
        r
    }

    fn export_metrics(&self, reg: &mut MetricsRegistry, prefix: &str) {
        self.inner.export_metrics(reg, prefix);
    }
}

/// Host time and call count of the trace generators of one run.
#[derive(Debug, Default)]
pub struct TraceTally {
    pub ns: Cell<u64>,
    pub calls: Cell<u64>,
}

/// A [`TraceSource`] that forwards to `inner` and times it into a tally
/// shared by every core of the run.
pub struct TimedTrace {
    inner: Box<dyn TraceSource + Send>,
    tally: Rc<TraceTally>,
}

impl TimedTrace {
    pub fn new(inner: Box<dyn TraceSource + Send>, tally: Rc<TraceTally>) -> Self {
        Self { inner, tally }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn TraceSource) -> R) -> R {
        let t0 = Instant::now();
        let r = f(&mut *self.inner);
        bump(&self.tally.ns, elapsed_ns(t0));
        bump(&self.tally.calls, 1);
        r
    }
}

impl TraceSource for TimedTrace {
    fn next_op(&mut self) -> TraceOp {
        self.timed(|t| t.next_op())
    }

    fn next_access(&mut self) -> (u64, bool) {
        self.timed(|t| t.next_access())
    }

    fn save_state(&self) -> Option<Vec<u64>> {
        self.inner.save_state()
    }

    fn restore_state(&mut self, state: &[u64]) -> bool {
        self.inner.restore_state(state)
    }
}

/// Measured cost of the timer itself, used to correct wrapped self times.
#[derive(Debug, Clone, Copy)]
pub struct TimerCost {
    /// What an empty timed region reads, ns: subtracted per timed call.
    pub bias_ns: f64,
}

/// Calibrate [`TimerCost`] by timing empty regions (median of 5 batches).
pub fn calibrate_timer() -> TimerCost {
    const N: u32 = 200_000;
    let mut batches: Vec<f64> = (0..5)
        .map(|_| {
            let sink = Cell::new(0u64);
            for _ in 0..N {
                let t0 = Instant::now();
                bump(&sink, elapsed_ns(t0));
            }
            sink.get() as f64 / f64::from(N)
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    TimerCost { bias_ns: batches[2] }
}
