//! Differential test for the sub-channel's no-op horizon: a channel whose
//! sub-channels skip provably idle ticks (the memoized horizon, and the
//! `next_event` jumps a run loop takes over quiescent spans) must issue the
//! identical command stream and deliver the identical responses, cycle for
//! cycle, as the reference scheduler that runs both FR-FCFS passes every
//! cycle (`Channel::tick_uncached`, a test-only hook).
//!
//! Streams mix sequential runs, a hot region (row hits and conflicts),
//! same-bank row thrash and scattered lines, with bursts that fill the
//! queues and idle gaps long enough for refresh and speculative
//! precharge. Every page policy × address mapping × FR-FCFS window in
//! {1, 4, 16} runs each stream, on the default queue shape and on a
//! shallow one whose drain watermarks flip often.

use std::collections::VecDeque;

use proptest::prelude::*;

use coaxial_dram::audit::{audit, CmdRecord};
use coaxial_dram::config::{AddressMapping, PagePolicy};
use coaxial_dram::{Channel, DramConfig, MemRequest, MemResponse, MemoryBackend};
use coaxial_sim::Cycle;

/// One arrival: cycle, line address, direction.
type Arrival = (Cycle, u64, bool);

/// How a driver advances the channel between visited cycles.
#[derive(Clone, Copy, Debug)]
enum Drive {
    /// Every cycle, no-op cache bypassed (the reference).
    Uncached,
    /// Every cycle, no-op cache live (a run loop with skipping off).
    EveryCycle,
    /// Jump to the next arrival or `next_event` bound (skipping on).
    Jump,
}

/// Everything observable about one run: the responses with the cycle each
/// was popped at, and each sub-channel's command log.
type Observed = (Vec<(Cycle, MemResponse)>, Vec<Vec<CmdRecord>>);

fn run(cfg: &DramConfig, arrivals: &[Arrival], drive: Drive) -> Observed {
    let mut ch = Channel::new(cfg.clone());
    let mut pending: VecDeque<(u64, Arrival)> = (0u64..).zip(arrivals.iter().copied()).collect();
    let mut out = Vec::new();
    let mut now: Cycle = 0;
    while out.len() < arrivals.len() {
        assert!(now < 50_000_000, "{drive:?}: traffic did not drain");
        match drive {
            Drive::Uncached => ch.tick_uncached(now),
            Drive::EveryCycle | Drive::Jump => ch.tick(now),
        }
        while let Some(&(id, (at, line, is_write))) = pending.front() {
            if at > now {
                break;
            }
            let req = if is_write {
                MemRequest::write(id, line, now)
            } else {
                MemRequest::read(id, line, now)
            };
            if ch.try_enqueue(req).is_err() {
                break; // back-pressure: retry in a later visited cycle
            }
            pending.pop_front();
        }
        while let Some(r) = ch.pop_response(now) {
            out.push((now, r));
        }
        now = match drive {
            Drive::Uncached | Drive::EveryCycle => now + 1,
            Drive::Jump => {
                let arrival = pending.front().map_or(Cycle::MAX, |&(_, (at, _, _))| at);
                // A back-pressured arrival waits on queue space, which only
                // a tick at or after the bound can free.
                let arrival = if arrival <= now { Cycle::MAX } else { arrival };
                let next = ch.next_event(now).min(arrival);
                assert!(next > now, "next_event must lie in the future");
                next
            }
        };
    }
    (out, ch.take_command_logs())
}

/// A request stream: `(gap, kind, addr, is_write)` tuples turned into
/// arrivals. Gap codes 0–5 are back-to-back bursts or short gaps, 6 an
/// idle stretch that crosses refresh deadlines and precharge windows.
fn arb_stream() -> impl Strategy<Value = Vec<Arrival>> {
    proptest::collection::vec((0u64..7, 0u64..4, 0u64..(1 << 20), proptest::bool::ANY), 20..140)
        .prop_map(|ops| {
            let mut at: Cycle = 0;
            let mut cursor = 0u64;
            ops.into_iter()
                .map(|(gap, kind, addr, is_write)| {
                    at += match gap {
                        0..=2 => 0,
                        3 | 4 => addr % 16,
                        5 => addr % 300,
                        _ => 2_000 + addr % 12_000,
                    };
                    let line = match kind {
                        // Sequential run: row hits under RowBankColumn.
                        0 => {
                            cursor += 1;
                            cursor
                        }
                        // Hot 4 KiB-line region: hits and conflicts.
                        1 => addr % 4096,
                        // Same bank, many rows: conflict thrash.
                        2 => (addr % 8) << 14,
                        // Scattered.
                        _ => addr,
                    };
                    (at, line, is_write)
                })
                .collect()
        })
}

fn configs(shallow: bool) -> Vec<DramConfig> {
    let mut out = Vec::new();
    for policy in [PagePolicy::OpenAdaptive, PagePolicy::Open, PagePolicy::Closed] {
        for mapping in [AddressMapping::RowBankColumn, AddressMapping::RowColumnBank] {
            for window in [1, 4, 16] {
                let mut cfg = DramConfig { log_commands: true, ..DramConfig::ddr5_4800() }
                    .with_page_policy(policy)
                    .with_address_mapping(mapping)
                    .with_sched_window(window);
                if shallow {
                    cfg.read_queue_depth = 6;
                    cfg.write_queue_depth = 8;
                    cfg.write_drain_hi = 5;
                    cfg.write_drain_lo = 2;
                }
                out.push(cfg);
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The cached scheduler, ticked every cycle or driven by its
    /// `next_event` jumps, is indistinguishable from the every-cycle
    /// reference, and its command stream passes the JEDEC audit.
    #[test]
    fn horizon_matches_every_cycle_scheduler(arrivals in arb_stream(), shallow in proptest::bool::ANY) {
        for cfg in configs(shallow) {
            let label = format!(
                "{:?}/{:?}/window {}/shallow {shallow}",
                cfg.page_policy, cfg.address_mapping, cfg.sched_window
            );
            let reference = run(&cfg, &arrivals, Drive::Uncached);
            for drive in [Drive::EveryCycle, Drive::Jump] {
                let (resps, logs) = run(&cfg, &arrivals, drive);
                prop_assert_eq!(&resps, &reference.0, "{}: {:?} responses diverged", label, drive);
                prop_assert_eq!(&logs, &reference.1, "{}: {:?} command log diverged", label, drive);
            }
            for log in &reference.1 {
                let violations = audit(&cfg.timings, log, cfg.banks_per_subchannel());
                prop_assert!(violations.is_empty(), "{}: illegal commands {:?}", label, &violations[..violations.len().min(3)]);
            }
        }
    }
}
