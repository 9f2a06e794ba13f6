//! FR-FCFS scheduler for one 32-bit DDR5 sub-channel.
//!
//! The scheduler owns per-bank state, separate read/write queues with
//! write-drain hysteresis, channel-level CAS/ACT spacing constraints
//! (tCCD_L/S, tRRD_L/S, tFAW, write-to-read and read-to-write turnaround),
//! explicit data-bus occupancy, and all-bank refresh. One command may issue
//! per cycle.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use coaxial_sim::{Cycle, MeanTracker};

use crate::audit::{CmdKind, CmdRecord};
use crate::bank::Bank;
use crate::config::{AddressMapping, DramConfig, PagePolicy};
use crate::request::{MemRequest, MemResponse};

/// Physical coordinates of a line within a sub-channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodedAddr {
    pub bank_group: usize,
    pub bank: usize, // global bank index within the sub-channel
    pub row: u64,
}

/// Heap entry ordering completed responses by (data-end cycle, sequence).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Completion {
    done: Cycle,
    seq: u64,
    resp: MemResponse,
}

impl Ord for Completion {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.done, self.seq).cmp(&(other.done, other.seq))
    }
}

impl PartialOrd for Completion {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone)]
struct Entry {
    req: MemRequest,
    addr: DecodedAddr,
    /// Cycle the sub-channel accepted the request.
    enqueued_at: Cycle,
    /// First DRAM command issued on this request's behalf.
    first_cmd: Option<Cycle>,
    /// Whether this request needed its own ACT (row-buffer miss).
    had_act: bool,
}

/// Aggregate command/energy counters for one sub-channel.
#[derive(Debug, Clone, Copy, Default)]
pub struct CommandCounts {
    pub act: u64,
    pub pre: u64,
    pub rd: u64,
    pub wr: u64,
    pub refab: u64,
}

/// One 32-bit DDR5 sub-channel with its own rank of banks.
pub struct SubChannel {
    cfg: DramConfig,
    banks: Vec<Bank>,
    read_q: VecDeque<Entry>,
    write_q: VecDeque<Entry>,
    draining_writes: bool,

    // Channel-level command spacing state.
    last_cas_at: Option<(Cycle, usize)>, // (cycle, bank_group)
    last_read_cas: Option<Cycle>,
    last_write_cas: Option<(Cycle, usize)>, // (cycle, bank_group)
    last_act: Option<(Cycle, usize)>,
    act_window: VecDeque<Cycle>, // last 4 ACTs, for tFAW
    bus_free_at: Cycle,
    bus_dir_write: bool,

    // Refresh state.
    refresh_due: Cycle,
    refresh_pending: bool,
    refreshing_until: Cycle,
    last_pre_at: Cycle,

    // Completions ordered by data-end time.
    completions: BinaryHeap<Reverse<Completion>>,
    completion_seq: u64,

    pub counts: CommandCounts,
    /// Data-bus busy cycles (for utilization).
    pub bus_busy: u64,
    pub queue_delay: MeanTracker,
    pub service_time: MeanTracker,
    /// Issued-command log (only when `cfg.log_commands`).
    cmd_log: Vec<CmdRecord>,
    /// Cached no-op horizon: ticks strictly before this cycle are provably
    /// no-ops (the [`Self::next_event`] bound, memoized after a tick that
    /// did nothing). Enqueue — the only external mutation that can create
    /// work — lowers it to the new entry's own readiness threshold.
    idle_until: Cycle,
}

impl SubChannel {
    pub fn new(cfg: DramConfig) -> Self {
        let nbanks = cfg.banks_per_subchannel();
        Self {
            banks: (0..nbanks).map(|_| Bank::new()).collect(),
            read_q: VecDeque::with_capacity(cfg.read_queue_depth),
            write_q: VecDeque::with_capacity(cfg.write_queue_depth),
            draining_writes: false,
            last_cas_at: None,
            last_read_cas: None,
            last_write_cas: None,
            last_act: None,
            act_window: VecDeque::with_capacity(4),
            bus_free_at: 0,
            bus_dir_write: false,
            refresh_due: cfg.timings.t_refi,
            refresh_pending: false,
            refreshing_until: 0,
            last_pre_at: 0,
            completions: BinaryHeap::new(),
            completion_seq: 0,
            counts: CommandCounts::default(),
            bus_busy: 0,
            queue_delay: MeanTracker::new(),
            service_time: MeanTracker::new(),
            cmd_log: Vec::new(),
            idle_until: 0,
            cfg,
        }
    }

    #[inline]
    fn log_cmd(&mut self, cycle: Cycle, kind: CmdKind, bank: usize, row: u64) {
        if self.cfg.log_commands {
            self.cmd_log.push(CmdRecord {
                cycle,
                kind,
                bank,
                bank_group: bank / self.cfg.banks_per_group,
                row,
            });
        }
    }

    /// Drain the recorded command log (see [`crate::audit`]).
    pub fn take_command_log(&mut self) -> Vec<CmdRecord> {
        std::mem::take(&mut self.cmd_log)
    }

    /// Decode a sub-channel-local line address into bank/row coordinates
    /// according to the configured [`AddressMapping`].
    pub fn decode(&self, local_line: u64) -> DecodedAddr {
        let col_bits = self.cfg.lines_per_row().trailing_zeros();
        let bg_bits = (self.cfg.bank_groups as u64).trailing_zeros();
        let ba_bits = (self.cfg.banks_per_group as u64).trailing_zeros();
        let (bank_group, bank_in_group, row) = match self.cfg.address_mapping {
            // row | bank | bank-group | column: streams get row hits, then
            // hop to the next bank group.
            AddressMapping::RowBankColumn => {
                let mut a = local_line >> col_bits;
                let bg = coaxial_sim::idx(a & ((1 << bg_bits) - 1));
                a >>= bg_bits;
                let ba = coaxial_sim::idx(a & ((1 << ba_bits) - 1));
                a >>= ba_bits;
                (bg, ba, a % self.cfg.rows)
            }
            // row | column | bank | bank-group: consecutive lines alternate
            // banks before advancing the column.
            AddressMapping::RowColumnBank => {
                let mut a = local_line;
                let bg = coaxial_sim::idx(a & ((1 << bg_bits) - 1));
                a >>= bg_bits;
                let ba = coaxial_sim::idx(a & ((1 << ba_bits) - 1));
                a >>= ba_bits;
                a >>= col_bits;
                (bg, ba, a % self.cfg.rows)
            }
        };
        DecodedAddr { bank_group, bank: bank_group * self.cfg.banks_per_group + bank_in_group, row }
    }

    pub fn read_q_len(&self) -> usize {
        self.read_q.len()
    }

    pub fn write_q_len(&self) -> usize {
        self.write_q.len()
    }

    /// Whether a request of the given direction would be accepted now.
    pub fn can_accept(&self, is_write: bool) -> bool {
        if is_write {
            self.write_q.len() < self.cfg.write_queue_depth
        } else {
            self.read_q.len() < self.cfg.read_queue_depth
        }
    }

    /// Accept a request into the appropriate queue.
    pub fn enqueue(&mut self, req: MemRequest, now: Cycle) -> Result<(), MemRequest> {
        if !self.can_accept(req.is_write) {
            return Err(req);
        }
        let addr = self.decode(req.line_addr);
        let entry = Entry { req, addr, enqueued_at: now, first_cmd: None, had_act: false };
        // The cached no-op horizon must stay a lower bound. While the drain
        // direction holds, the new entry can only add its own readiness
        // threshold: lower the horizon to it (O(1); a full recompute here
        // would dominate the scheduler cost under load). An entry that
        // flips the direction (a read into an empty read queue while writes
        // are served, or a write reaching `write_drain_hi`) exposes the
        // other queue's entries, so the horizon is reset instead.
        let memo = (self.idle_until > now + 1)
            .then(|| (self.serves_writes(), self.entry_ready_at(&entry)));
        if req.is_write {
            self.write_q.push_back(entry);
        } else {
            self.read_q.push_back(entry);
        }
        if let Some((served_writes, ready)) = memo {
            self.idle_until = if self.serves_writes() == served_writes {
                self.idle_until.min(ready.max(now + 1))
            } else {
                now + 1
            };
        }
        Ok(())
    }

    /// Pop a response whose data transfer has finished by `now`.
    pub fn pop_response(&mut self, now: Cycle) -> Option<MemResponse> {
        if let Some(&Reverse(c)) = self.completions.peek() {
            if c.done <= now {
                self.completions.pop();
                return Some(c.resp);
            }
        }
        None
    }

    /// Advance one cycle: handle refresh, pick a command, issue it.
    ///
    /// A tick that does nothing memoizes the scheduler's exact no-op
    /// horizon (`horizon`): the first cycle at which any refresh
    /// step, FR-FCFS pick or speculative precharge becomes legal. Ticks
    /// before it return at once, so a loaded sub-channel waiting out tCCD,
    /// tRCD or a bank timer stops rescanning its queues every cycle.
    /// [`Self::enqueue`] lowers (or resets) the horizon; all other state
    /// evolution is driven by `tick` itself, so the cache cannot go stale.
    pub fn tick(&mut self, now: Cycle) {
        if now < self.idle_until {
            return; // provably a no-op (see `horizon`)
        }
        if !self.tick_inner(now) {
            self.idle_until = self.horizon(now);
        }
    }

    /// The reference scheduler the horizon is checked against: the same
    /// tick with the no-op cache bypassed, so every cycle runs the full
    /// FR-FCFS passes.
    #[cfg(feature = "test-hooks")]
    pub fn tick_uncached(&mut self, now: Cycle) {
        self.tick_inner(now);
    }

    /// Drain direction the next tick takes: the write-drain hysteresis
    /// applied to the current queue lengths. Writes are forced out above
    /// the high watermark and drained down to the low watermark in a
    /// batch, which amortizes bus turnarounds; reads otherwise have
    /// priority.
    fn draining_after_hysteresis(&self) -> bool {
        if self.write_q.len() >= self.cfg.write_drain_hi {
            true
        } else if self.write_q.len() <= self.cfg.write_drain_lo {
            false
        } else {
            self.draining_writes
        }
    }

    /// Whether the next tick serves the write queue.
    fn serves_writes(&self) -> bool {
        self.draining_after_hysteresis() || (self.read_q.is_empty() && !self.write_q.is_empty())
    }

    /// Whether the precharge policy may close an idle row this tick:
    /// * OpenAdaptive — with nothing queued, close a stale open row so the
    ///   next access pays tRCD+CL instead of a full row conflict;
    /// * Closed — close rows as soon as legal, regardless of queues;
    /// * Open — never close speculatively.
    fn may_close_rows(&self) -> bool {
        match self.cfg.page_policy {
            PagePolicy::Open => false,
            PagePolicy::OpenAdaptive => self.read_q.is_empty() && self.write_q.is_empty(),
            PagePolicy::Closed => true,
        }
    }

    /// Banks whose open row a visible queued request still wants (never
    /// closed speculatively), as a bitmask over ≤64 banks.
    fn wanted_banks(&self) -> u64 {
        self.read_q
            .iter()
            .chain(self.write_q.iter())
            .take(2 * self.cfg.sched_window)
            .filter(|e| self.banks[e.addr.bank].open_row == Some(e.addr.row))
            .fold(0, |m, e| m | 1u64 << e.addr.bank)
    }

    /// One cycle of real scheduler work. Returns whether any command
    /// issued or refresh state advanced (false = provable no-op).
    fn tick_inner(&mut self, now: Cycle) -> bool {
        if self.refreshing_until > now {
            return false; // rank busy with REFab
        }
        if self.refresh_pending {
            return self.progress_refresh(now);
        }
        if now >= self.refresh_due {
            self.refresh_pending = true;
            self.progress_refresh(now);
            return true;
        }

        self.draining_writes = self.draining_after_hysteresis();
        let serve_writes = self.serves_writes();

        if self.try_issue_cas(serve_writes, now) {
            return true;
        }
        if self.try_issue_act_or_pre(serve_writes, now) {
            return true;
        }
        // Speculative precharge (one command per cycle in any case).
        if self.may_close_rows() {
            let wanted = self.wanted_banks();
            let victim = self.banks.iter().enumerate().find_map(|(i, b)| {
                (b.can_precharge(now) && wanted & (1u64 << i) == 0).then_some(i)
            });
            if let Some(i) = victim {
                self.banks[i].precharge(now, &self.cfg.timings);
                self.log_cmd(now, CmdKind::Pre, i, 0);
                self.counts.pre += 1;
                self.last_pre_at = now;
                return true;
            }
        }
        false
    }

    /// During refresh-pending: precharge open banks, then issue REFab.
    /// Returns whether a command issued.
    fn progress_refresh(&mut self, now: Cycle) -> bool {
        // Close one open bank per cycle (single command bus).
        if let Some(i) = self.banks.iter().position(|b| b.open_row.is_some()) {
            if !self.banks[i].can_precharge(now) {
                return false;
            }
            self.banks[i].precharge(now, &self.cfg.timings);
            self.counts.pre += 1;
            self.last_pre_at = now;
            self.log_cmd(now, CmdKind::Pre, i, 0);
            return true;
        }
        // All banks closed; REFab needs tRP after the last PRE.
        let t = &self.cfg.timings;
        if now < self.last_pre_at + t.t_rp {
            return false;
        }
        self.refreshing_until = now + t.t_rfc;
        self.refresh_due += t.t_refi;
        for b in &mut self.banks {
            b.refresh_close(self.refreshing_until);
        }
        self.counts.refab += 1;
        self.log_cmd(now, CmdKind::RefAb, 0, 0);
        self.refresh_pending = false;
        true
    }

    /// Earliest cycle at which the *channel-level* CAS constraints allow a
    /// CAS for `bank_group`/`is_write`. All constraints are thresholds
    /// against fixed timestamps, so this is exact while no command issues.
    fn cas_legal_at(&self, bank_group: usize, is_write: bool) -> Cycle {
        let t = &self.cfg.timings;
        let mut at: Cycle = 0;
        // CAS-to-CAS spacing.
        if let Some((c, bg)) = self.last_cas_at {
            at = at.max(c + if bg == bank_group { t.t_ccd_l } else { t.t_ccd_s });
        }
        if is_write {
            // Read-to-write turnaround: the write burst must start after the
            // read burst clears the bus plus a turnaround bubble.
            if let Some(rd_at) = self.last_read_cas {
                at = at.max((rd_at + t.cl + t.t_burst + t.t_turnaround).saturating_sub(t.cwl));
            }
        } else if let Some((wr_at, wr_bg)) = self.last_write_cas {
            // Write-to-read: tWTR measured from end of write data.
            let wtr = if wr_bg == bank_group { t.t_wtr_l } else { t.t_wtr_s };
            at = at.max(wr_at + t.cwl + t.t_burst + wtr);
        }
        // Data bus occupancy (safety net; the spacing rules above normally
        // guarantee this): data_start = now + CL/CWL must not precede the
        // bus becoming free (plus a turnaround on direction change).
        let lat = if is_write { t.cwl } else { t.cl };
        let need = if self.bus_dir_write != is_write {
            self.bus_free_at + t.t_turnaround
        } else {
            self.bus_free_at
        };
        at.max(need.saturating_sub(lat))
    }

    /// Channel-level legality of a CAS at `now` for `bank_group`/`is_write`.
    fn cas_legal(&self, bank_group: usize, is_write: bool, now: Cycle) -> bool {
        now >= self.cas_legal_at(bank_group, is_write)
    }

    /// FR-FCFS first pass: issue a CAS for the oldest row-hit in the chosen
    /// queue. Returns true if a command issued.
    fn try_issue_cas(&mut self, serve_writes: bool, now: Cycle) -> bool {
        let q = if serve_writes { &self.write_q } else { &self.read_q };
        let mut chosen = None;
        for (i, e) in q.iter().take(self.cfg.sched_window).enumerate() {
            let bank = &self.banks[e.addr.bank];
            if bank.can_cas(e.addr.row, now)
                && self.cas_legal(e.addr.bank_group, e.req.is_write, now)
            {
                chosen = Some(i);
                break;
            }
        }
        let Some(i) = chosen else { return false };
        let mut e = if serve_writes {
            self.write_q.remove(i).expect("index valid")
        } else {
            self.read_q.remove(i).expect("index valid")
        };
        let is_write = e.req.is_write;
        self.banks[e.addr.bank].cas(is_write, now, &self.cfg.timings);
        self.log_cmd(
            now,
            if is_write { CmdKind::Wr } else { CmdKind::Rd },
            e.addr.bank,
            e.addr.row,
        );
        if e.first_cmd.is_none() {
            e.first_cmd = Some(now);
        }
        if e.had_act {
            self.banks[e.addr.bank].row_misses += 1;
        } else {
            self.banks[e.addr.bank].row_hits += 1;
        }
        // Bus + channel bookkeeping.
        let t = &self.cfg.timings;
        let data_start = now + if is_write { t.cwl } else { t.cl };
        let data_end = data_start + t.t_burst;
        self.bus_busy += t.t_burst;
        self.bus_free_at = data_end;
        self.bus_dir_write = is_write;
        self.last_cas_at = Some((now, e.addr.bank_group));
        if is_write {
            self.last_write_cas = Some((now, e.addr.bank_group));
            self.counts.wr += 1;
        } else {
            self.last_read_cas = Some(now);
            self.counts.rd += 1;
        }
        // Build the completion record.
        let first = e.first_cmd.expect("set above");
        let queue_cycles = first.saturating_sub(e.enqueued_at);
        let service_cycles = data_end - first;
        self.queue_delay.record(queue_cycles as f64);
        self.service_time.record(service_cycles as f64);
        let resp = MemResponse {
            id: e.req.id,
            line_addr: e.req.line_addr,
            is_write,
            issued_at: e.req.issued_at,
            completed_at: data_end,
            queue_cycles,
            service_cycles,
            cxl_cycles: 0,
        };
        let seq = self.completion_seq;
        self.completion_seq += 1;
        self.completions.push(Reverse(Completion { done: data_end, seq, resp }));
        true
    }

    /// FR-FCFS second pass: issue an ACT (closed bank) or PRE (row conflict)
    /// for the oldest request that needs one. Banks already claimed by an
    /// older queued request are not re-opened/closed for a younger one, which
    /// prevents row thrashing.
    fn try_issue_act_or_pre(&mut self, serve_writes: bool, now: Cycle) -> bool {
        let mut claimed: u64 = 0; // bitmask over ≤64 banks
        enum Cmd {
            Act(usize, u64),
            Pre(usize),
        }
        let mut cmd = None;
        {
            let q = if serve_writes { &self.write_q } else { &self.read_q };
            for (i, e) in q.iter().take(self.cfg.sched_window).enumerate() {
                let mask = 1u64 << e.addr.bank;
                if claimed & mask != 0 {
                    continue;
                }
                claimed |= mask;
                let bank = &self.banks[e.addr.bank];
                match bank.open_row {
                    Some(r) if r == e.addr.row => continue, // CAS pass handles it
                    Some(_) => {
                        if bank.can_precharge(now) {
                            cmd = Some((i, Cmd::Pre(e.addr.bank)));
                            break;
                        }
                    }
                    None => {
                        if bank.can_activate(now) && self.act_legal(e.addr.bank_group, now) {
                            cmd = Some((i, Cmd::Act(e.addr.bank, e.addr.row)));
                            break;
                        }
                    }
                }
            }
        }
        let Some((i, cmd)) = cmd else { return false };
        let q = if serve_writes { &mut self.write_q } else { &mut self.read_q };
        let e = &mut q[i];
        if e.first_cmd.is_none() {
            e.first_cmd = Some(now);
        }
        match cmd {
            Cmd::Act(bank, row) => {
                e.had_act = true;
                self.banks[bank].activate(row, now, &self.cfg.timings);
                self.log_cmd(now, CmdKind::Act, bank, row);
                self.counts.act += 1;
                self.last_act = Some((now, self.banks_bg(bank)));
                if self.act_window.len() == 4 {
                    self.act_window.pop_front();
                }
                self.act_window.push_back(now);
            }
            Cmd::Pre(bank) => {
                self.banks[bank].row_conflicts += 1;
                self.banks[bank].precharge(now, &self.cfg.timings);
                self.log_cmd(now, CmdKind::Pre, bank, 0);
                self.counts.pre += 1;
                self.last_pre_at = now;
            }
        }
        true
    }

    fn banks_bg(&self, bank: usize) -> usize {
        bank / self.cfg.banks_per_group
    }

    /// Earliest cycle at which rank-level ACT constraints (tRRD, tFAW)
    /// allow an ACT for `bank_group`.
    fn act_legal_at(&self, bank_group: usize) -> Cycle {
        let t = &self.cfg.timings;
        let mut at: Cycle = 0;
        if let Some((c, bg)) = self.last_act {
            at = at.max(c + if bg == bank_group { t.t_rrd_l } else { t.t_rrd_s });
        }
        if self.act_window.len() == 4 {
            at = at.max(self.act_window[0] + t.t_faw);
        }
        at
    }

    /// Rank-level ACT legality: tRRD and tFAW.
    fn act_legal(&self, bank_group: usize, now: Cycle) -> bool {
        now >= self.act_legal_at(bank_group)
    }

    /// Earliest cycle the next command on `e`'s behalf could become legal:
    /// CAS for a row hit, PRE for a row conflict, ACT for a closed bank —
    /// each gated by its bank timer and the channel/rank spacing rules.
    fn entry_ready_at(&self, e: &Entry) -> Cycle {
        let bank = &self.banks[e.addr.bank];
        match bank.open_row {
            Some(r) if r == e.addr.row => {
                bank.earliest_cas().max(self.cas_legal_at(e.addr.bank_group, e.req.is_write))
            }
            Some(_) => bank.earliest_pre(),
            None => bank.earliest_act().max(self.act_legal_at(e.addr.bank_group)),
        }
    }

    /// Earliest future cycle at which ticking this sub-channel could do
    /// observable work, assuming no new requests arrive and all completions
    /// due by `now` have been popped: the next completion or the
    /// scheduler's no-op `horizon` (served from the memoized
    /// horizon while it is live).
    pub fn next_event(&self, now: Cycle) -> Cycle {
        let sched = if self.idle_until > now { self.idle_until } else { self.horizon(now) };
        let done = self.completions.peek().map_or(Cycle::MAX, |&Reverse(c)| c.done);
        sched.min(done).max(now + 1)
    }

    /// First cycle after `now` at which [`Self::tick`] can issue a command
    /// or advance refresh; every tick in `(now, horizon)` is a no-op.
    ///
    /// While no command issues, every legality predicate in the scheduler
    /// is a threshold check against a fixed timestamp (bank timers,
    /// tCCD/tRRD/tFAW trackers, bus occupancy, refresh deadlines), so the
    /// horizon mirrors the tick's own pick: the refresh sequence if one is
    /// pending; else the next refresh deadline and, for the drain
    /// direction the next tick takes, every row hit's CAS threshold and
    /// each bank's first entry's PRE or ACT threshold in the served
    /// queue's FR-FCFS window, plus the precharge policy's speculative
    /// closes. The earliest threshold is the first cycle something
    /// issues, so the bound is exact.
    fn horizon(&self, now: Cycle) -> Cycle {
        if self.refresh_pending {
            // Mid-refresh precharge sequence: one PRE per cycle to the first
            // open bank (gated on its tRAS/tWR timer), then REFab tRP after
            // the last PRE.
            let at = match self.banks.iter().find(|b| b.open_row.is_some()) {
                Some(b) => b.earliest_pre(),
                None => self.last_pre_at + self.cfg.timings.t_rp,
            };
            return at.max(now + 1);
        }
        let mut next = self.refresh_due;
        let serve_writes = self.serves_writes();
        let q = if serve_writes { &self.write_q } else { &self.read_q };
        let mut claimed: u64 = 0; // banks whose first window entry was seen
        for e in q.iter().take(self.cfg.sched_window) {
            let bank = &self.banks[e.addr.bank];
            let mask = 1u64 << e.addr.bank;
            let first = claimed & mask == 0;
            claimed |= mask;
            let at = match bank.open_row {
                Some(r) if r == e.addr.row => {
                    bank.earliest_cas().max(self.cas_legal_at(e.addr.bank_group, e.req.is_write))
                }
                Some(_) if first => bank.earliest_pre(),
                None if first => bank.earliest_act().max(self.act_legal_at(e.addr.bank_group)),
                _ => continue, // a younger entry behind its bank's claim
            };
            next = next.min(at);
        }
        if self.may_close_rows() {
            let wanted = self.wanted_banks();
            for (i, b) in self.banks.iter().enumerate() {
                if b.open_row.is_some() && wanted & (1u64 << i) == 0 {
                    next = next.min(b.earliest_pre());
                }
            }
        }
        // A running REFab needs no term: it closed every bank until it
        // completes, so each threshold above already lies past it.
        next.max(now + 1)
    }

    /// Zero all statistics (end of warmup). Timing state is untouched.
    pub fn reset_stats(&mut self) {
        self.counts = CommandCounts::default();
        self.bus_busy = 0;
        self.queue_delay = MeanTracker::new();
        self.service_time = MeanTracker::new();
        for b in &mut self.banks {
            b.row_hits = 0;
            b.row_misses = 0;
            b.row_conflicts = 0;
        }
    }

    /// Total row-buffer outcomes across banks: (hits, misses, conflicts).
    pub fn row_outcomes(&self) -> (u64, u64, u64) {
        self.banks
            .iter()
            .fold((0, 0, 0), |(h, m, c), b| (h + b.row_hits, m + b.row_misses, c + b.row_conflicts))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DramConfig, PagePolicy};

    fn sub() -> SubChannel {
        SubChannel::new(DramConfig::ddr5_4800())
    }

    /// Drive the sub-channel until `n` responses are collected or `limit`
    /// cycles elapse.
    fn run_until(sc: &mut SubChannel, n: usize, limit: Cycle) -> Vec<MemResponse> {
        let mut out = Vec::new();
        for now in 0..limit {
            sc.tick(now);
            while let Some(r) = sc.pop_response(now) {
                out.push(r);
            }
            if out.len() >= n {
                break;
            }
        }
        out
    }

    #[test]
    fn single_read_completes_with_closed_bank_latency() {
        let mut sc = sub();
        sc.enqueue(MemRequest::read(1, 0, 0), 0).unwrap();
        let resps = run_until(&mut sc, 1, 10_000);
        assert_eq!(resps.len(), 1);
        let t = DramConfig::ddr5_4800().timings;
        // ACT at 0, CAS at tRCD, data end at tRCD+CL+burst.
        assert_eq!(resps[0].completed_at, t.t_rcd + t.cl + t.t_burst);
        assert_eq!(resps[0].queue_cycles, 0);
    }

    #[test]
    fn row_hit_is_faster_than_row_miss() {
        let mut sc = sub();
        // Two reads to the same row: the second should be a row hit.
        sc.enqueue(MemRequest::read(1, 0, 0), 0).unwrap();
        sc.enqueue(MemRequest::read(2, 1, 0), 0).unwrap();
        let resps = run_until(&mut sc, 2, 10_000);
        assert_eq!(resps.len(), 2);
        let (hits, misses, _) = sc.row_outcomes();
        assert_eq!(hits, 1);
        assert_eq!(misses, 1);
        let gap = resps[1].completed_at - resps[0].completed_at;
        // Row-hit CAS issues tCCD_L after the first — far less than tRC.
        assert!(gap <= DramConfig::ddr5_4800().timings.t_ccd_l + 2, "gap={gap}");
    }

    #[test]
    fn row_conflict_requires_precharge() {
        let mut sc = sub();
        let lines_per_row = DramConfig::ddr5_4800().lines_per_row();
        let banks = DramConfig::ddr5_4800().banks_per_subchannel() as u64;
        // Same bank, different rows: addr stride of one full bank rotation.
        let stride = lines_per_row * banks;
        sc.enqueue(MemRequest::read(1, 0, 0), 0).unwrap();
        sc.enqueue(MemRequest::read(2, stride, 0), 0).unwrap();
        let resps = run_until(&mut sc, 2, 10_000);
        assert_eq!(resps.len(), 2);
        let (_, _, conflicts) = sc.row_outcomes();
        assert_eq!(conflicts, 1);
        let t = DramConfig::ddr5_4800().timings;
        // Second access must wait ≥ tRAS+tRP from the first ACT.
        assert!(resps[1].completed_at >= t.t_ras + t.t_rp + t.t_rcd + t.cl);
    }

    #[test]
    fn back_pressure_when_queue_full() {
        let mut sc = sub();
        let depth = DramConfig::ddr5_4800().read_queue_depth;
        for i in 0..depth {
            sc.enqueue(MemRequest::read(i as u64, i as u64 * 1000, 0), 0).unwrap();
        }
        assert!(sc.enqueue(MemRequest::read(999, 0, 0), 0).is_err());
    }

    #[test]
    fn writes_eventually_drain() {
        let mut sc = sub();
        for i in 0..40u64 {
            sc.enqueue(MemRequest::write(i, i * 64, 0), 0).unwrap();
        }
        let resps = run_until(&mut sc, 40, 100_000);
        assert_eq!(resps.len(), 40);
        assert_eq!(sc.counts.wr, 40);
    }

    #[test]
    fn reads_prioritized_over_writes_below_watermark() {
        let mut sc = sub();
        // A few writes (below drain threshold), then a read.
        for i in 0..4u64 {
            sc.enqueue(MemRequest::write(i, i * 64, 0), 0).unwrap();
        }
        sc.enqueue(MemRequest::read(100, 64 * 1024, 0), 0).unwrap();
        let resps = run_until(&mut sc, 1, 10_000);
        assert!(!resps[0].is_write, "read must complete first");
    }

    #[test]
    fn refresh_blocks_the_rank() {
        let mut sc = sub();
        let t = DramConfig::ddr5_4800().timings;
        // Run quietly past the first refresh interval.
        for now in 0..t.t_refi + t.t_rfc + 10 {
            sc.tick(now);
        }
        assert_eq!(sc.counts.refab, 1);
        // A read right after refresh still completes.
        let start = t.t_refi + t.t_rfc + 10;
        sc.enqueue(MemRequest::read(1, 0, start), start).unwrap();
        let mut got = false;
        for now in start..start + 10_000 {
            sc.tick(now);
            if sc.pop_response(now).is_some() {
                got = true;
                break;
            }
        }
        assert!(got);
    }

    /// Line address of `bank` (bank-group-major) and `row` under the
    /// default `RowBankColumn` mapping.
    fn line_at(cfg: &DramConfig, bank: u64, row: u64) -> u64 {
        let bg = bank / cfg.banks_per_group as u64;
        let ba = bank % cfg.banks_per_group as u64;
        let per_row = cfg.banks_per_subchannel() as u64;
        ((row * per_row + ba * cfg.bank_groups as u64 + bg) * cfg.lines_per_row()) | 1
    }

    #[test]
    fn write_reaching_the_drain_mark_resets_the_horizon() {
        // Writes queue below the drain mark while a read is served; the
        // read's horizon is its CAS, tRCD out. The write that reaches the
        // mark flips the drain direction and itself waits on a row
        // conflict, but an older write's ACT is legal after tRRD: the
        // cached horizon must not hide that ACT.
        let cfg = DramConfig {
            write_queue_depth: 8,
            write_drain_hi: 5,
            write_drain_lo: 2,
            log_commands: true,
            ..DramConfig::ddr5_4800()
        };
        let mut fast = SubChannel::new(cfg.clone());
        let mut reference = SubChannel::new(cfg.clone());
        let mut arrivals = vec![(0, MemRequest::read(0, line_at(&cfg, 1, 0), 0))];
        arrivals.extend((0..4).map(|i| (0, MemRequest::write(1 + i, line_at(&cfg, 2, 0), 0))));
        arrivals.push((5, MemRequest::write(9, line_at(&cfg, 1, 7), 5)));
        for now in 0..2_000 {
            fast.tick(now);
            reference.tick_inner(now);
            for (_, req) in arrivals.iter().filter(|(at, _)| *at == now) {
                fast.enqueue(*req, now).unwrap();
                reference.enqueue(*req, now).unwrap();
            }
            while fast.pop_response(now).is_some() {}
            while reference.pop_response(now).is_some() {}
        }
        let log = reference.take_command_log();
        assert_eq!(log.iter().filter(|c| c.kind == CmdKind::Wr).count(), 5);
        assert_eq!(fast.take_command_log(), log);
    }

    #[test]
    fn horizon_is_tight_under_load() {
        // After a no-op tick the memoized horizon names exactly the next
        // cycle at which the scheduler acts (unless an enqueue moved it),
        // for every page policy under mixed traffic with refresh.
        for policy in [PagePolicy::OpenAdaptive, PagePolicy::Open, PagePolicy::Closed] {
            let cfg = DramConfig::ddr5_4800().with_page_policy(policy);
            let mut sc = SubChannel::new(cfg);
            let mut rng = coaxial_sim::SplitMix64::new(0x71647);
            let (mut id, mut memo_from_tick, mut tight) = (0u64, false, 0u64);
            for now in 0..60_000 {
                // Bursty mixed traffic with idle stretches.
                if (now / 4_000) % 3 != 2 && rng.chance(0.1) {
                    let line =
                        if rng.chance(0.5) { rng.next_below(1 << 12) } else { rng.next_u64() };
                    let req = if rng.chance(0.3) {
                        MemRequest::write(id, line, now)
                    } else {
                        MemRequest::read(id, line, now)
                    };
                    if sc.enqueue(req, now).is_ok() {
                        memo_from_tick = false;
                        id += 1;
                    }
                }
                while sc.pop_response(now).is_some() {}
                let next = now + 1;
                if next < sc.idle_until {
                    continue;
                }
                let boundary = memo_from_tick && next == sc.idle_until;
                let did = sc.tick_inner(next);
                assert!(!boundary || did, "{policy:?}: horizon {next} is not tight");
                tight += u64::from(boundary);
                memo_from_tick = !did;
                if !did {
                    sc.idle_until = sc.horizon(next);
                }
            }
            assert!(tight > 1_000, "{policy:?}: only {tight} horizons checked");
        }
    }

    #[test]
    fn distinct_banks_overlap_service() {
        let mut sc = sub();
        let lines_per_row = DramConfig::ddr5_4800().lines_per_row();
        // 8 reads to 8 different bank groups (stride = one row of lines).
        for i in 0..8u64 {
            sc.enqueue(MemRequest::read(i, i * lines_per_row, 0), 0).unwrap();
        }
        let resps = run_until(&mut sc, 8, 100_000);
        assert_eq!(resps.len(), 8);
        let t = DramConfig::ddr5_4800().timings;
        let last = resps.iter().map(|r| r.completed_at).max().unwrap();
        // Bank-parallel service: far faster than 8 serialized row cycles.
        assert!(last < 8 * t.unloaded_closed(), "last completion at {last}");
    }
}
