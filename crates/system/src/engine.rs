//! Run-loop engines: the per-core event-driven scheduler (default) and the
//! original global lockstep loop (kept as the differential-testing oracle).
//!
//! Both engines simulate the identical machine: the cycles at which the
//! hierarchy ticks, the completions it delivers, and every per-core counter
//! are bit-identical between them (the differential test in
//! `tests/engine_differential.rs` holds this over the full workload
//! registry). They differ only in how much host work a simulated cycle
//! costs:
//!
//! * **Lockstep** ticks every core every visited cycle and can only skip a
//!   span when *all* cores are simultaneously blocked — which the ROADMAP
//!   measured at <2 % of cycles on Table IV workloads, because twelve cores
//!   rarely stall in unison.
//! * **Event** parks each blocked core individually in a deterministic
//!   [`EventQueue`] (one slot per component, cycle ties broken by fixed
//!   component index) keyed on the exact wakeup bound from
//!   [`Core::next_event`], and replays the parked span in O(1) via
//!   [`Core::fast_forward`] when the core wakes — either at its own bound
//!   or when the hierarchy delivers it a completion. Globally-quiescent
//!   spans are jumped over exactly as in lockstep, with the hierarchy's
//!   `next_event` bound (which aggregates MSHR/NoC completion times, CXL
//!   credit returns, and DRAM refresh/tFAW windows) entering the same
//!   queue as one more component.
//!
//! The safety of parking a core rests on the [`Core::next_event`] contract:
//! a fully-blocked tick is exactly `cycles += 1; stall_cycles += 1`, it
//! changes nothing in the hierarchy (at most it re-presents an access the
//! hierarchy refuses again), and the blocked state can end only at the
//! reported bound, at a delivered completion, or at a hierarchy wake
//! (`Hierarchy::pop_wake`: the refused core's MSHR file freed an entry or
//! its line entered the LLC). Both engines deliver wakes in lockstep's
//! order, so their skip decisions agree. The event engine
//! debug-asserts the bound half of that contract on every bound-triggered
//! wakeup, so a stale bound fails loudly in tests instead of silently
//! degrading skipping.

use coaxial_cache::Hierarchy;
use coaxial_cpu::Core;
use coaxial_dram::MemoryBackend;
use coaxial_sim::{Cycle, EventQueue};
use coaxial_telemetry::TelemetrySink;

/// Which run-loop engine drives the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// Per-core event-driven scheduler (the default).
    Event,
    /// The original global tick loop, selectable via
    /// `COAXIAL_ENGINE=lockstep`; the differential-testing oracle.
    Lockstep,
}

impl EngineKind {
    /// Resolve from `COAXIAL_ENGINE` (default: `event`).
    pub fn from_env() -> Self {
        Self::parse(coaxial_sim::env::engine_name().as_deref())
    }

    /// Map an engine name (any case; `None` = unset) to an engine. Rejects
    /// unknown values loudly — a typo must not silently select an engine.
    pub fn parse(name: Option<&str>) -> Self {
        match name.map(str::to_ascii_lowercase).as_deref() {
            None | Some("event") => Self::Event,
            Some("lockstep") => Self::Lockstep,
            Some(other) => panic!("COAXIAL_ENGINE={other:?}: expected `event` or `lockstep`"),
        }
    }

    /// Stable lowercase name (diagnostics, bench labels).
    pub fn name(self) -> &'static str {
        match self {
            Self::Event => "event",
            Self::Lockstep => "lockstep",
        }
    }
}

/// Engine counters, exported by the driver as `engine.*` registry metrics.
///
/// Both engines report identical values for identical runs: globally
/// quiescent spans are a property of the simulated machine, not of the
/// engine walking it — the differential test relies on this.
#[derive(Debug, Default, Clone, Copy)]
pub struct EngineStats {
    /// Cycles jumped over in globally-quiescent spans.
    pub skipped_cycles: u64,
    /// Cycle boundaries at which every core was simultaneously blocked.
    pub blocked_iters: u64,
}

/// Inputs the run loop needs beyond the components themselves.
pub struct RunParams {
    pub warmup: u64,
    pub instructions: u64,
    pub max_cycles: Cycle,
    /// Hot-loop cycle skipping (`COAXIAL_SKIP` / `Simulation::cycle_skip`).
    /// With skipping off, both engines visit every cycle; the event engine
    /// still parks blocked cores individually.
    pub skip: bool,
}

/// What a run loop hands back to report assembly.
pub struct RunOutcome {
    /// Exit cycle (identical between engines for identical runs).
    pub now: Cycle,
    /// Per-core IPC frozen at each core's instruction-budget finish line;
    /// `None` when the run hit `max_cycles` before that core finished.
    pub finish_ipc: Vec<Option<f64>>,
    pub stats: EngineStats,
}

/// Warmup flip and per-core finish checks, evaluated at cycle boundary
/// `now`. Shared verbatim by both engines so the measurement-window
/// semantics cannot drift between them. Only retired-instruction counts are
/// observed, and those cannot change over a skipped (fully-blocked) span —
/// so evaluating at visited cycles only is exact. Returns `true` once every
/// core has hit its instruction budget.
fn window_checks<B: MemoryBackend, T: TelemetrySink>(
    warm: &mut bool,
    finish_ipc: &mut [Option<f64>],
    cores: &mut [Core],
    hierarchy: &mut Hierarchy<B, T>,
    p: &RunParams,
    now: Cycle,
) -> bool {
    if !*warm && cores.iter().all(|c| c.retired >= p.warmup) {
        *warm = true;
        hierarchy.reset_stats(now);
        for c in cores.iter_mut() {
            c.reset_stats();
        }
    }
    if !*warm {
        return false;
    }
    let mut all_done = true;
    for (i, c) in cores.iter().enumerate() {
        if finish_ipc[i].is_none() {
            if c.retired >= p.instructions {
                finish_ipc[i] = Some(c.ipc());
            } else {
                all_done = false;
            }
        }
    }
    all_done
}

/// The original global tick loop: every component ticks every visited
/// cycle; a span is skipped only when every core is blocked at once.
pub fn run_lockstep<B: MemoryBackend, T: TelemetrySink>(
    p: &RunParams,
    cores: &mut [Core],
    hierarchy: &mut Hierarchy<B, T>,
) -> RunOutcome {
    let mut now: Cycle = 0;
    let mut warm = p.warmup == 0;
    let mut finish_ipc: Vec<Option<f64>> = vec![None; cores.len()];
    let mut stats = EngineStats::default();

    while now < p.max_cycles {
        hierarchy.tick(now);
        while let Some((core, id)) = hierarchy.pop_completion() {
            if (core as usize) < cores.len() {
                cores[core as usize].on_memory_complete(id);
            }
        }
        deliver_wakes(cores, hierarchy);
        for i in 0..cores.len() {
            cores[i].tick(now, hierarchy);
            // A wake raised by core i's own accesses (a dirty spill into
            // the LLC) matters only to cores that already ticked: the
            // later ones re-present their access this cycle anyway.
            deliver_wakes(cores, hierarchy);
        }
        now += 1;

        if window_checks(&mut warm, &mut finish_ipc, cores, hierarchy, p, now) {
            break;
        }

        // Cycle skipping: when every core is fully blocked (ROB-head load
        // outstanding, ROB full, nothing issuable) and the hierarchy proves
        // it has no work before cycle T, every cycle in [now, T) would be a
        // pure stall tick — replay them in O(1) and jump. Clamped to
        // max_cycles-1 so the final simulated cycle (which pins backend
        // measurement windows) matches the unskipped loop exactly.
        if p.skip {
            // Probe the cores first: they veto most skip attempts and their
            // bound is O(issue window), while the hierarchy bound walks
            // every channel. Only consult the hierarchy once every core is
            // provably stalled.
            let mut all_blocked = true;
            let mut target = Cycle::MAX;
            for c in cores.iter() {
                match c.next_event() {
                    Some(e) => target = target.min(e),
                    None => {
                        all_blocked = false;
                        break;
                    }
                }
            }
            if all_blocked {
                // The hierarchy last ticked at now-1, so its next event may
                // be at `now` itself; probe from the last ticked cycle.
                // saturating_sub guards the now == 0 edge (skipping engaged
                // before the first tick must probe cycle 0, not wrap).
                target = target.min(hierarchy.next_event(now.saturating_sub(1)));
                stats.blocked_iters += 1;
                let target = target.min(p.max_cycles - 1);
                if target > now {
                    let skipped = target - now;
                    stats.skipped_cycles += skipped;
                    for c in cores.iter_mut() {
                        c.fast_forward(skipped);
                    }
                    now = target;
                }
            }
        }
    }
    RunOutcome { now, finish_ipc, stats }
}

/// Lockstep: hand every pending hierarchy wake to its core, so a refused
/// core no longer reports itself blocked to the skip probe.
fn deliver_wakes<B: MemoryBackend, T: TelemetrySink>(
    cores: &mut [Core],
    hierarchy: &mut Hierarchy<B, T>,
) {
    while let Some(j) = hierarchy.pop_wake() {
        if let Some(c) = cores.get_mut(j as usize) {
            c.on_retry_wake();
        }
    }
}

/// Per-core scheduling state for the event engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CoreState {
    /// Ticks every visited cycle.
    Runnable,
    /// Fully blocked; `idle_from` is its first un-ticked cycle. The parked
    /// span is replayed via `fast_forward` when the core wakes.
    Blocked { idle_from: Cycle },
}

/// Unpark core `j` so that it ticks again from cycle `from` on: replay its
/// pure-stall span `[idle_from, from)` and make it runnable. No-op for a
/// runnable core.
fn unpark(
    cores: &mut [Core],
    state: &mut [CoreState],
    queue: &mut EventQueue,
    runnable: &mut usize,
    j: usize,
    from: Cycle,
) {
    if let CoreState::Blocked { idle_from } = state[j] {
        if from > idle_from {
            cores[j].fast_forward(from - idle_from);
        }
        state[j] = CoreState::Runnable;
        *runnable += 1;
        queue.cancel(j);
    }
}

/// Bring a parked core's counters up to cycle boundary `upto` (exclusive):
/// replay the pure-stall span `[idle_from, upto)` and restart the span at
/// `upto`. Required before anything reads or resets the core's counters
/// (warmup flip, IPC freeze, loop exit).
fn materialize(cores: &mut [Core], state: &mut [CoreState], upto: Cycle) {
    for (c, s) in cores.iter_mut().zip(state.iter_mut()) {
        if let CoreState::Blocked { idle_from } = s {
            if upto > *idle_from {
                c.fast_forward(upto - *idle_from);
                *idle_from = upto;
            }
        }
    }
}

/// The per-core event-driven scheduler.
///
/// Component indices in the [`EventQueue`]: cores `0..n` by core index, the
/// memory hierarchy at `n`. Cores are parked on their exact
/// [`Core::next_event`] bound; the hierarchy's slot is (re)scheduled from
/// `Hierarchy::next_event` whenever a globally-quiescent jump is
/// considered. Visited cycles — and therefore every hierarchy tick and
/// completion delivery — are identical to the lockstep engine's.
pub fn run_event<B: MemoryBackend, T: TelemetrySink>(
    p: &RunParams,
    cores: &mut [Core],
    hierarchy: &mut Hierarchy<B, T>,
) -> RunOutcome {
    let n = cores.len();
    let hier_slot = n;
    let mut queue = EventQueue::new(n + 1);
    let mut state = vec![CoreState::Runnable; n];
    let mut runnable = n;
    let mut now: Cycle = 0;
    let mut warm = p.warmup == 0;
    let mut finish_ipc: Vec<Option<f64>> = vec![None; cores.len()];
    let mut stats = EngineStats::default();
    // Cores woken this cycle by their own queue bound (not by a delivered
    // completion); their wake-up tick must make progress (see below).
    let mut woke_at_bound: Vec<usize> = Vec::new();

    while now < p.max_cycles {
        // --- simulate visited cycle `now` ---
        hierarchy.tick(now);
        while let Some((core, id)) = hierarchy.pop_completion() {
            let i = core as usize;
            if i >= n {
                continue;
            }
            cores[i].on_memory_complete(id);
            if state[i] != CoreState::Runnable {
                // The completion may have unblocked the core. Re-probe: its
                // scheduled heap is frozen while blocked, so the bound can
                // only stay put or collapse to "runnable".
                match cores[i].next_event() {
                    None => unpark(cores, &mut state, &mut queue, &mut runnable, i, now),
                    Some(at) if at != Cycle::MAX => queue.schedule(i, at),
                    Some(_) => queue.cancel(i),
                }
            }
        }
        // Wakes raised by the hierarchy tick (MSHR releases, LLC fills):
        // every core ticks after it, so a woken core ticks this cycle.
        while let Some(j) = hierarchy.pop_wake() {
            let j = j as usize;
            if j < n {
                cores[j].on_retry_wake();
                unpark(cores, &mut state, &mut queue, &mut runnable, j, now);
            }
        }
        // Wake cores whose own bound is due this cycle.
        woke_at_bound.clear();
        while let Some((at, slot)) = queue.pop_due(now) {
            if slot == hier_slot {
                continue; // the hierarchy ticked above; its slot just expires
            }
            debug_assert_eq!(at, now, "core {slot}: bound in the past means a missed wake-up");
            if let CoreState::Blocked { idle_from } = state[slot] {
                if now > idle_from {
                    cores[slot].fast_forward(now - idle_from);
                }
                state[slot] = CoreState::Runnable;
                runnable += 1;
                woke_at_bound.push(slot);
            }
        }
        // Tick runnable cores in fixed core order (identical to lockstep's
        // iteration order); park the ones that come out fully blocked.
        for i in 0..n {
            if state[i] != CoreState::Runnable {
                continue;
            }
            let fp_before = if cfg!(debug_assertions) && woke_at_bound.contains(&i) {
                Some(cores[i].progress_fingerprint())
            } else {
                None
            };
            cores[i].tick(now, hierarchy);
            if let Some(before) = fp_before {
                // Stale-bound tripwire: `next_event` promised the core's
                // own state changes at this cycle (a due `scheduled` entry
                // pops), so a pure-stall wake-up tick means the bound was
                // conservative and skipping is silently degraded.
                assert_ne!(
                    before,
                    cores[i].progress_fingerprint(),
                    "core {i}: woken at its own next_event bound (cycle {now}) \
                     but the tick made no progress — stale bound"
                );
            }
            if let Some(at) = cores[i].next_event() {
                state[i] = CoreState::Blocked { idle_from: now + 1 };
                runnable -= 1;
                if at != Cycle::MAX {
                    queue.schedule(i, at);
                } else {
                    queue.cancel(i);
                }
            }
            // Wakes raised by core i's accesses (a dirty spill that puts a
            // refused line into the LLC), in lockstep's order: cores after
            // i still tick this cycle and see it now; cores up to i already
            // ticked and see it next cycle.
            while let Some(j) = hierarchy.pop_wake() {
                let j = j as usize;
                if j < n {
                    cores[j].on_retry_wake();
                    let from = if j > i { now } else { now + 1 };
                    unpark(cores, &mut state, &mut queue, &mut runnable, j, from);
                }
            }
        }
        now += 1;

        // The warmup flip zeroes every core's counters; parked spans must
        // be replayed into the pre-reset window first, exactly as lockstep
        // ticked them, or post-reset counters would inherit pre-reset
        // stalls. (The finish-IPC freeze needs no such care: a core is
        // frozen at the boundary right after the tick in which it crossed
        // its budget, so its counters are always current there.)
        if !warm && cores.iter().all(|c| c.retired >= p.warmup) {
            materialize(cores, &mut state, now);
        }
        if window_checks(&mut warm, &mut finish_ipc, cores, hierarchy, p, now) {
            break;
        }

        // --- choose the next visited cycle ---
        // While any core is runnable the next cycle is visited (lockstep
        // semantics); when all cores are parked, jump to the earliest event
        // in the queue — core wakeups and the hierarchy bound alike.
        if runnable == 0 && p.skip {
            stats.blocked_iters += 1;
            let hier_at = hierarchy.next_event(now.saturating_sub(1));
            if hier_at != Cycle::MAX {
                queue.schedule(hier_slot, hier_at);
            } else {
                queue.cancel(hier_slot);
            }
            let at = queue.peek().map_or(Cycle::MAX, |(at, _)| at);
            let target = at.min(p.max_cycles - 1);
            if target > now {
                stats.skipped_cycles += target - now;
                now = target;
            }
        }
    }
    materialize(cores, &mut state, now);
    RunOutcome { now, finish_ipc, stats }
}
