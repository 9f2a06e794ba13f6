//! Independent JEDEC timing auditor.
//!
//! The FR-FCFS scheduler enforces timing constraints *while scheduling*;
//! this module re-validates a recorded command stream *after the fact*
//! with a completely separate implementation of the DDR5 rules. Any
//! scheduler bug that issues an illegal command shows up as an audit
//! violation — double-entry bookkeeping for the most safety-critical part
//! of the model. Enable logging with
//! [`DramConfig::log_commands`](crate::DramConfig) and fetch the stream
//! with [`SubChannel::take_command_log`](crate::subchannel::SubChannel).

use coaxial_sim::Cycle;
use serde::Serialize;

use crate::config::DramTimings;

/// A DRAM command kind, as recorded by the sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum CmdKind {
    Act,
    Pre,
    Rd,
    Wr,
    RefAb,
}

/// One recorded command.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct CmdRecord {
    pub cycle: Cycle,
    pub kind: CmdKind,
    /// Bank index within the sub-channel (ignored for RefAb).
    pub bank: usize,
    pub bank_group: usize,
    /// Row for Act; the open row for Rd/Wr (0 for Pre/RefAb).
    pub row: u64,
}

/// A detected timing violation.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    pub at: Cycle,
    pub rule: &'static str,
    pub detail: String,
}

#[derive(Debug, Clone, Copy, Default)]
struct BankState {
    open_row: Option<u64>,
    last_act: Option<Cycle>,
    last_pre: Option<Cycle>,
    last_rd: Option<Cycle>,
    last_wr: Option<Cycle>,
}

/// Validate a command stream against the timing parameters. Returns every
/// violation found (empty = legal stream).
pub fn audit(t: &DramTimings, log: &[CmdRecord], num_banks: usize) -> Vec<Violation> {
    let mut v = Vec::new();
    let mut banks = vec![BankState::default(); num_banks];
    let mut last_act_global: Option<(Cycle, usize)> = None;
    let mut last_cas: Option<(Cycle, usize, bool)> = None; // (cycle, bg, is_write)
    let mut refresh_busy_until: Cycle = 0;

    let mut fail = |at: Cycle, rule: &'static str, detail: String| {
        v.push(Violation { at, rule, detail });
    };

    for r in log {
        let now = r.cycle;
        if r.kind != CmdKind::RefAb && now < refresh_busy_until {
            fail(
                now,
                "tRFC",
                format!("{:?} during refresh (busy until {refresh_busy_until})", r.kind),
            );
        }
        match r.kind {
            CmdKind::Act => {
                let b = &banks[r.bank];
                if b.open_row.is_some() {
                    fail(now, "ACT-on-open", format!("bank {} already open", r.bank));
                }
                if let Some(pre) = b.last_pre {
                    if now < pre + t.t_rp {
                        fail(now, "tRP", format!("ACT {} < PRE {pre} + {}", now, t.t_rp));
                    }
                }
                if let Some(act) = b.last_act {
                    if now < act + t.t_rc {
                        fail(now, "tRC", format!("ACT {} < ACT {act} + {}", now, t.t_rc));
                    }
                }
                if let Some((at, bg)) = last_act_global {
                    let gap = if bg == r.bank_group { t.t_rrd_l } else { t.t_rrd_s };
                    if now < at + gap {
                        fail(now, "tRRD", format!("ACT {} < ACT {at} + {gap}", now));
                    }
                }
                last_act_global = Some((now, r.bank_group));
                let b = &mut banks[r.bank];
                b.open_row = Some(r.row);
                b.last_act = Some(now);
            }
            CmdKind::Pre => {
                let b = &banks[r.bank];
                if b.open_row.is_none() {
                    fail(now, "PRE-on-closed", format!("bank {} already closed", r.bank));
                }
                if let Some(act) = b.last_act {
                    if now < act + t.t_ras {
                        fail(now, "tRAS", format!("PRE {} < ACT {act} + {}", now, t.t_ras));
                    }
                }
                if let Some(rd) = b.last_rd {
                    if now < rd + t.t_rtp {
                        fail(now, "tRTP", format!("PRE {} < RD {rd} + {}", now, t.t_rtp));
                    }
                }
                if let Some(wr) = b.last_wr {
                    let min = wr + t.cwl + t.t_burst + t.t_wr;
                    if now < min {
                        fail(now, "tWR", format!("PRE {} < WR {wr} write-recovery end {min}", now));
                    }
                }
                let b = &mut banks[r.bank];
                b.open_row = None;
                b.last_pre = Some(now);
            }
            CmdKind::Rd | CmdKind::Wr => {
                let is_write = r.kind == CmdKind::Wr;
                let b = &banks[r.bank];
                match b.open_row {
                    None => fail(now, "CAS-on-closed", format!("bank {} closed", r.bank)),
                    Some(open) if open != r.row => fail(
                        now,
                        "CAS-wrong-row",
                        format!("bank {}: open {open}, CAS {}", r.bank, r.row),
                    ),
                    _ => {}
                }
                if let Some(act) = b.last_act {
                    if now < act + t.t_rcd {
                        fail(now, "tRCD", format!("CAS {} < ACT {act} + {}", now, t.t_rcd));
                    }
                }
                if let Some((at, bg, was_write)) = last_cas {
                    let ccd = if bg == r.bank_group { t.t_ccd_l } else { t.t_ccd_s };
                    if now < at + ccd {
                        fail(now, "tCCD", format!("CAS {} < CAS {at} + {ccd}", now));
                    }
                    if was_write && !is_write {
                        let wtr = if bg == r.bank_group { t.t_wtr_l } else { t.t_wtr_s };
                        let min = at + t.cwl + t.t_burst + wtr;
                        if now < min {
                            fail(now, "tWTR", format!("RD {} < WR {at} turnaround end {min}", now));
                        }
                    }
                    // Data-bus occupancy: a burst may not start before the
                    // previous one ends (plus a turnaround bubble when the
                    // direction reverses).
                    let my_start = now + if is_write { t.cwl } else { t.cl };
                    let their_end = at + if was_write { t.cwl } else { t.cl } + t.t_burst;
                    if was_write == is_write {
                        if my_start < their_end {
                            fail(
                                now,
                                "bus-overlap",
                                format!("burst at {my_start} overlaps {their_end}"),
                            );
                        }
                    } else if my_start < their_end + t.t_turnaround {
                        fail(
                            now,
                            "bus-turnaround",
                            format!("burst at {my_start} within turnaround of {their_end}"),
                        );
                    }
                }
                last_cas = Some((now, r.bank_group, is_write));
                let b = &mut banks[r.bank];
                if is_write {
                    b.last_wr = Some(now);
                } else {
                    b.last_rd = Some(now);
                }
            }
            CmdKind::RefAb => {
                for (i, b) in banks.iter().enumerate() {
                    if b.open_row.is_some() {
                        fail(now, "REF-on-open", format!("bank {i} open during REFab"));
                    }
                }
                refresh_busy_until = now + t.t_rfc;
                for b in banks.iter_mut() {
                    b.last_pre = Some(now + t.t_rfc - t.t_rp); // banks usable at +tRFC
                }
            }
        }
    }

    // tFAW as a pure sliding-window post-pass.
    let acts: Vec<Cycle> = log.iter().filter(|r| r.kind == CmdKind::Act).map(|r| r.cycle).collect();
    for w in acts.windows(5) {
        if w[4] < w[0] + t.t_faw {
            v.push(Violation {
                at: w[4],
                rule: "tFAW",
                detail: format!("5th ACT at {} within tFAW of ACT at {}", w[4], w[0]),
            });
        }
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t() -> DramTimings {
        DramTimings::ddr5_4800()
    }

    fn act(cycle: Cycle, bank: usize, row: u64) -> CmdRecord {
        CmdRecord { cycle, kind: CmdKind::Act, bank, bank_group: bank / 4, row }
    }

    fn rd(cycle: Cycle, bank: usize, row: u64) -> CmdRecord {
        CmdRecord { cycle, kind: CmdKind::Rd, bank, bank_group: bank / 4, row }
    }

    fn pre(cycle: Cycle, bank: usize) -> CmdRecord {
        CmdRecord { cycle, kind: CmdKind::Pre, bank, bank_group: bank / 4, row: 0 }
    }

    #[test]
    fn legal_sequence_passes() {
        let t = t();
        let log =
            vec![act(0, 0, 5), rd(t.t_rcd, 0, 5), pre(t.t_ras, 0), act(t.t_ras + t.t_rp, 0, 6)];
        assert!(audit(&t, &log, 32).is_empty());
    }

    #[test]
    fn early_cas_is_flagged() {
        let t = t();
        let log = vec![act(0, 0, 5), rd(t.t_rcd - 1, 0, 5)];
        let v = audit(&t, &log, 32);
        assert!(v.iter().any(|x| x.rule == "tRCD"), "{v:?}");
    }

    #[test]
    fn early_precharge_is_flagged() {
        let t = t();
        let log = vec![act(0, 0, 5), pre(t.t_ras - 1, 0)];
        let v = audit(&t, &log, 32);
        assert!(v.iter().any(|x| x.rule == "tRAS"), "{v:?}");
    }

    #[test]
    fn wrong_row_cas_is_flagged() {
        let t = t();
        let log = vec![act(0, 0, 5), rd(t.t_rcd, 0, 7)];
        let v = audit(&t, &log, 32);
        assert!(v.iter().any(|x| x.rule == "CAS-wrong-row"), "{v:?}");
    }

    #[test]
    fn faw_burst_is_flagged() {
        // With DDR5-4800, 4 × tRRD_S exactly equals tFAW, so the stream is
        // legal; tighten tFAW to expose the window check.
        let mut t = t();
        t.t_faw = 4 * t.t_rrd_s + 8;
        let log: Vec<CmdRecord> =
            (0..5).map(|i| act(i * t.t_rrd_s, coaxial_sim::idx(i) * 4 % 32, 1)).collect();
        let v = audit(&t, &log, 32);
        assert!(v.iter().any(|x| x.rule == "tFAW"), "{v:?}");
        // And the stock DDR5 stream at exactly 4 × tRRD_S is legal.
        let t2 = super::tests::t();
        let v2 = audit(&t2, &log, 32);
        assert!(!v2.iter().any(|x| x.rule == "tFAW"), "{v2:?}");
    }

    #[test]
    fn act_on_open_bank_is_flagged() {
        let t = t();
        let log = vec![act(0, 0, 5), act(t.t_rc, 0, 6)];
        let v = audit(&t, &log, 32);
        assert!(v.iter().any(|x| x.rule == "ACT-on-open"), "{v:?}");
    }
}
