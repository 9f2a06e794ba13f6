//! Double-entry verification: record every command the FR-FCFS scheduler
//! issues under assorted traffic, and re-validate the stream with the
//! independent JEDEC auditor. A scheduler bug that issues an illegal
//! command fails these tests even if it never corrupts a result.

use coaxial_dram::audit::{audit, CmdKind};
use coaxial_dram::config::PagePolicy;
use coaxial_dram::{Channel, DramConfig, MemRequest, MemoryBackend};
use coaxial_sim::SplitMix64;

fn logged_config() -> DramConfig {
    DramConfig { log_commands: true, ..DramConfig::ddr5_4800() }
}

/// Drive a channel with a generated stream; return per-sub-channel logs.
fn run_and_log(
    mut cfg: DramConfig,
    policy: PagePolicy,
    n: usize,
    mut gen: impl FnMut(u64, &mut SplitMix64) -> (u64, bool),
) -> Vec<Vec<coaxial_dram::audit::CmdRecord>> {
    cfg.page_policy = policy;
    let banks = cfg.banks_per_subchannel();
    let timings = cfg.timings;
    let mut ch = Channel::new(cfg);
    let mut rng = SplitMix64::new(0xA0D17);
    let mut issued = 0u64;
    let mut done = 0usize;
    for now in 0..20_000_000u64 {
        ch.tick(now);
        while coaxial_sim::idx(issued) < n {
            let (addr, is_write) = gen(issued, &mut rng);
            let req = if is_write {
                MemRequest::write(issued, addr, now)
            } else {
                MemRequest::read(issued, addr, now)
            };
            if ch.try_enqueue(req).is_err() {
                break;
            }
            issued += 1;
        }
        while ch.pop_response(now).is_some() {
            done += 1;
        }
        if done == n {
            break;
        }
    }
    assert_eq!(done, n, "traffic must complete");
    let logs = ch.take_command_logs();
    for log in &logs {
        let violations = audit(&timings, log, banks);
        assert!(
            violations.is_empty(),
            "scheduler issued illegal commands: {:#?} (showing up to 5 of {})",
            &violations[..violations.len().min(5)],
            violations.len()
        );
    }
    logs
}

#[test]
fn random_mixed_traffic_is_jedec_legal() {
    let logs = run_and_log(logged_config(), PagePolicy::OpenAdaptive, 2_000, |_, rng| {
        (rng.next_below(1 << 22), rng.chance(0.3))
    });
    let total: usize = logs.iter().map(|l| l.len()).sum();
    assert!(total >= 2_000, "every request needs at least a CAS, got {total}");
}

#[test]
fn sequential_stream_is_jedec_legal_and_row_hit_heavy() {
    let logs = run_and_log(logged_config(), PagePolicy::OpenAdaptive, 2_000, |i, _| (i, false));
    // Sequential streams should need far fewer ACTs than CASes.
    let (mut acts, mut cases) = (0, 0);
    for log in &logs {
        for r in log {
            match r.kind {
                CmdKind::Act => acts += 1,
                CmdKind::Rd | CmdKind::Wr => cases += 1,
                _ => {}
            }
        }
    }
    assert!(acts * 4 < cases, "streaming: {acts} ACTs vs {cases} CASes");
}

#[test]
fn same_bank_thrash_is_jedec_legal() {
    let cfg = logged_config();
    let stride = cfg.lines_per_row() * cfg.banks_per_subchannel() as u64 * 2;
    run_and_log(cfg, PagePolicy::OpenAdaptive, 1_000, move |i, _| ((i % 4) * stride, false));
}

#[test]
fn write_heavy_traffic_is_jedec_legal() {
    run_and_log(logged_config(), PagePolicy::OpenAdaptive, 1_500, |_, rng| {
        (rng.next_below(1 << 20), rng.chance(0.7))
    });
}

#[test]
fn closed_page_policy_is_jedec_legal() {
    run_and_log(logged_config(), PagePolicy::Closed, 1_500, |_, rng| {
        (rng.next_below(1 << 20), rng.chance(0.3))
    });
}

#[test]
fn open_page_policy_is_jedec_legal() {
    run_and_log(logged_config(), PagePolicy::Open, 1_500, |_, rng| {
        (rng.next_below(1 << 20), rng.chance(0.3))
    });
}

#[test]
fn traffic_spanning_many_refreshes_is_jedec_legal() {
    // Slow trickle so the run crosses several tREFI periods.
    let cfg = logged_config();
    let t_refi = cfg.timings.t_refi;
    let banks = cfg.banks_per_subchannel();
    let timings = cfg.timings;
    let mut ch = Channel::new(cfg);
    let mut rng = SplitMix64::new(7);
    let mut next_issue = 0u64;
    let mut id = 0u64;
    let horizon = t_refi * 6;
    for now in 0..horizon {
        ch.tick(now);
        if now >= next_issue {
            let req = MemRequest::read(id, rng.next_below(1 << 20), now);
            if ch.try_enqueue(req).is_ok() {
                id += 1;
                next_issue = now + 500;
            }
        }
        while ch.pop_response(now).is_some() {}
    }
    let logs = ch.take_command_logs();
    let mut refs = 0;
    for log in &logs {
        refs += log.iter().filter(|r| r.kind == CmdKind::RefAb).count();
        let violations = audit(&timings, log, banks);
        assert!(violations.is_empty(), "{violations:#?}");
    }
    assert!(refs >= 8, "expected several refreshes across {horizon} cycles, saw {refs}");
}

#[test]
fn fine_grained_bank_interleave_is_jedec_legal_but_row_hostile() {
    use coaxial_dram::config::AddressMapping;
    // Sequential stream under both mappings: the default keeps row
    // locality; the fine-grained interleave trades it for bank spread.
    let seq = |mapping: AddressMapping| {
        let cfg = logged_config().with_address_mapping(mapping);
        let banks = cfg.banks_per_subchannel();
        let timings = cfg.timings;
        let mut ch = Channel::new(cfg);
        let mut issued = 0u64;
        let mut done = 0usize;
        for now in 0..10_000_000u64 {
            ch.tick(now);
            while issued < 2_000 {
                if ch.try_enqueue(MemRequest::read(issued, issued, now)).is_err() {
                    break;
                }
                issued += 1;
            }
            while ch.pop_response(now).is_some() {
                done += 1;
            }
            if done == 2_000 {
                break;
            }
        }
        assert_eq!(done, 2_000);
        let logs = ch.take_command_logs();
        for log in &logs {
            let v = audit(&timings, log, banks);
            assert!(v.is_empty(), "{mapping:?}: {v:#?}");
        }
        logs
    };
    // Bank spread: distinct banks among the first 24 activations. A pure
    // sequential sweep keeps row locality under BOTH mappings (every bank
    // stays within one row), so the observable difference is how quickly
    // the stream fans out across banks.
    let spread = |logs: Vec<Vec<coaxial_dram::audit::CmdRecord>>| {
        let mut banks = std::collections::BTreeSet::new();
        for r in logs.iter().flatten().filter(|r| r.kind == CmdKind::Act).take(24) {
            banks.insert(r.bank);
        }
        banks.len()
    };
    let d = spread(seq(AddressMapping::RowBankColumn));
    let f = spread(seq(AddressMapping::RowColumnBank));
    assert!(f >= d, "fine-grained interleave must fan out at least as widely: {f} vs {d} banks");
    assert!(f >= 8, "fine-grained mapping should touch many banks early: {f}");
}
