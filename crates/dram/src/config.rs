//! DDR5 device geometry and timing parameters.
//!
//! All timings are expressed in memory clocks. DDR5-4800 runs a 2400 MHz
//! command clock but transfers data on a 2.4 GHz I/O clock; because the
//! whole simulator ticks at 2.4 GHz (see `coaxial-sim::time`) we quote
//! every parameter in 2.4 GHz cycles (0.41667 ns each). Values follow the
//! Micron DDR5-4800 (CL40) datasheet the paper cites \[40\], \[41\].

use coaxial_sim::Cycle;
use serde::Serialize;

/// Cache-line (and DRAM access) granularity in bytes.
pub const LINE_BYTES: u64 = 64;

/// Physical address-mapping scheme: where the bank bits sit relative to
/// the column bits decides whether sequential traffic exploits row
/// buffers (bank bits above the column) or spreads across banks at line
/// granularity (bank bits below the column).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum AddressMapping {
    /// `row | bank | bank-group | column` (default): sequential lines walk
    /// a whole row buffer, then move to the next bank group.
    RowBankColumn,
    /// `row | column | bank | bank-group`: sequential lines round-robin
    /// across all banks first — maximum bank parallelism, minimum row
    /// locality (good for random, bad for streams).
    RowColumnBank,
}

/// Row-buffer management policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PagePolicy {
    /// Keep rows open; close them only when the controller idles
    /// (open-adaptive — the default, and what the main results use).
    OpenAdaptive,
    /// Keep rows open indefinitely (classic open-page).
    Open,
    /// Close the row as soon as its access completes (closed-page):
    /// uniform tRCD+CL latency, no row hits, no conflicts.
    Closed,
}

/// Timing parameters for one DDR5 sub-channel, in 2.4 GHz clocks.
#[derive(Debug, Clone, Copy, Serialize)]
pub struct DramTimings {
    /// CAS latency (READ command to first data).
    pub cl: Cycle,
    /// CAS write latency (WRITE command to first data).
    pub cwl: Cycle,
    /// ACT to internal READ/WRITE delay.
    pub t_rcd: Cycle,
    /// PRE to ACT delay (row precharge).
    pub t_rp: Cycle,
    /// ACT to PRE minimum (row active time).
    pub t_ras: Cycle,
    /// ACT to ACT, same bank (= tRAS + tRP).
    pub t_rc: Cycle,
    /// CAS-to-CAS, same bank group.
    pub t_ccd_l: Cycle,
    /// CAS-to-CAS, different bank group.
    pub t_ccd_s: Cycle,
    /// ACT to ACT, same bank group.
    pub t_rrd_l: Cycle,
    /// ACT to ACT, different bank group.
    pub t_rrd_s: Cycle,
    /// Four-activate window.
    pub t_faw: Cycle,
    /// Write recovery (last write data to PRE).
    pub t_wr: Cycle,
    /// READ to PRE delay.
    pub t_rtp: Cycle,
    /// Write-to-read turnaround, same bank group.
    pub t_wtr_l: Cycle,
    /// Write-to-read turnaround, different bank group.
    pub t_wtr_s: Cycle,
    /// Data burst duration for one 64 B line on a 32-bit sub-channel
    /// (BL16 = 16 beats = 8 I/O-clock cycles).
    pub t_burst: Cycle,
    /// Extra bus idle cycles when the data bus reverses direction.
    pub t_turnaround: Cycle,
    /// Average periodic refresh interval (per rank, all-bank).
    pub t_refi: Cycle,
    /// Refresh cycle time (rank busy per REFab).
    pub t_rfc: Cycle,
}

/// One scaled timing, rounded to the nearest 2.4 GHz clock and floored at
/// 1 cycle (a zero timing would let commands overlap unphysically).
fn scale_cycle(c: Cycle, factor: f64) -> Cycle {
    coaxial_sim::narrow::trunc_u64((c as f64 * factor).round()).max(1)
}

impl DramTimings {
    /// DDR5-4800, CL40 speed grade (JESD79-5 / Micron datasheet values,
    /// rounded to 0.41667 ns clocks).
    pub fn ddr5_4800() -> Self {
        Self {
            cl: 40,      // 16.67 ns
            cwl: 38,     // 15.83 ns
            t_rcd: 40,   // 16.67 ns
            t_rp: 40,    // 16.67 ns
            t_ras: 77,   // 32 ns
            t_rc: 117,   // 48.67 ns
            t_ccd_l: 12, // 5 ns
            t_ccd_s: 8,  // burst length
            t_rrd_l: 12, // 5 ns
            t_rrd_s: 8,
            t_faw: 32,   // 13.33 ns
            t_wr: 72,    // 30 ns
            t_rtp: 18,   // 7.5 ns
            t_wtr_l: 24, // 10 ns
            t_wtr_s: 6,  // 2.5 ns
            t_burst: 8,  // 64 B over 32-bit bus at 2 beats/clock
            t_turnaround: 2,
            t_refi: 9360, // 3.9 µs
            t_rfc: 708,   // 295 ns (16 Gb die, JESD79-5 tRFC1)
        }
    }

    /// Every timing parameter multiplied by `factor` (sensitivity sweeps:
    /// "how much do the headline numbers depend on the exact speed
    /// grade?"). Data-transfer and turnaround cycles scale with the rest.
    /// `t_rc` is rebuilt from the scaled `t_ras`/`t_rp` so the JEDEC
    /// identity `tRC = tRAS + tRP` survives rounding.
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor > 0.0, "timing scale factor must be positive");
        let s = |c: Cycle| scale_cycle(c, factor);
        Self {
            cl: s(self.cl),
            cwl: s(self.cwl),
            t_rcd: s(self.t_rcd),
            t_rp: s(self.t_rp),
            t_ras: s(self.t_ras),
            t_rc: s(self.t_ras) + s(self.t_rp),
            t_ccd_l: s(self.t_ccd_l),
            t_ccd_s: s(self.t_ccd_s),
            t_rrd_l: s(self.t_rrd_l),
            t_rrd_s: s(self.t_rrd_s),
            t_faw: s(self.t_faw),
            t_wr: s(self.t_wr),
            t_rtp: s(self.t_rtp),
            t_wtr_l: s(self.t_wtr_l),
            t_wtr_s: s(self.t_wtr_s),
            t_burst: s(self.t_burst),
            t_turnaround: s(self.t_turnaround),
            t_refi: s(self.t_refi),
            t_rfc: s(self.t_rfc),
        }
    }

    /// Unloaded row-buffer-hit read latency (READ → last data beat).
    pub fn unloaded_hit(&self) -> Cycle {
        self.cl + self.t_burst
    }

    /// Unloaded row-miss (closed bank) read latency (ACT → last data beat).
    pub fn unloaded_closed(&self) -> Cycle {
        self.t_rcd + self.cl + self.t_burst
    }

    /// Unloaded row-conflict read latency (PRE → ACT → READ → data).
    pub fn unloaded_conflict(&self) -> Cycle {
        self.t_rp + self.t_rcd + self.cl + self.t_burst
    }
}

/// Geometry and controller provisioning for one DDR channel.
#[derive(Debug, Clone, Serialize)]
pub struct DramConfig {
    pub timings: DramTimings,
    /// Independent 32-bit sub-channels per DDR5 channel.
    pub subchannels: usize,
    /// Ranks per sub-channel.
    pub ranks: usize,
    /// Bank groups per rank.
    pub bank_groups: usize,
    /// Banks per bank group.
    pub banks_per_group: usize,
    /// Rows per bank (sets row-buffer locality granularity).
    pub rows: u64,
    /// Row buffer (page) size in bytes.
    pub row_bytes: u64,
    /// Read queue depth per sub-channel.
    pub read_queue_depth: usize,
    /// Write queue depth per sub-channel.
    pub write_queue_depth: usize,
    /// Start draining writes when the write queue reaches this occupancy.
    pub write_drain_hi: usize,
    /// Stop draining when it falls to this occupancy.
    pub write_drain_lo: usize,
    /// FR-FCFS scheduling window: how many queue entries each scheduling
    /// pass may consider (real controllers have bounded pickers).
    pub sched_window: usize,
    /// Row-buffer management policy.
    pub page_policy: PagePolicy,
    /// Physical address-mapping scheme.
    pub address_mapping: AddressMapping,
    /// Record every issued command for post-hoc auditing
    /// (see [`crate::audit`]). Off by default: it allocates per command.
    pub log_commands: bool,
}

impl DramConfig {
    /// The paper's Table III memory configuration: DDR5-4800, 2 sub-channels
    /// per channel, 1 rank per sub-channel, 32 banks per rank.
    pub fn ddr5_4800() -> Self {
        Self {
            timings: DramTimings::ddr5_4800(),
            subchannels: 2,
            ranks: 1,
            bank_groups: 8,
            banks_per_group: 4,
            rows: 65536,
            row_bytes: 1024, // 1 KB page per 32-bit sub-channel (x4 devices)
            read_queue_depth: 48,
            write_queue_depth: 48,
            write_drain_hi: 32,
            write_drain_lo: 8,
            sched_window: 16,
            page_policy: PagePolicy::OpenAdaptive,
            address_mapping: AddressMapping::RowBankColumn,
            log_commands: false,
        }
    }

    /// Same geometry with a different address mapping (ablation studies).
    pub fn with_address_mapping(mut self, mapping: AddressMapping) -> Self {
        self.address_mapping = mapping;
        self
    }

    /// Same geometry with a different page policy (ablation studies).
    pub fn with_page_policy(mut self, policy: PagePolicy) -> Self {
        self.page_policy = policy;
        self
    }

    /// Same geometry with a different FR-FCFS window (ablation studies).
    pub fn with_sched_window(mut self, window: usize) -> Self {
        assert!(window >= 1);
        self.sched_window = window;
        self
    }

    /// Same geometry with every timing parameter scaled by `factor`
    /// (speed-grade sensitivity sweeps; see [`DramTimings::scaled`]).
    pub fn with_timing_scale(mut self, factor: f64) -> Self {
        self.timings = self.timings.scaled(factor);
        self
    }

    /// Total banks per sub-channel (across ranks).
    pub fn banks_per_subchannel(&self) -> usize {
        self.ranks * self.bank_groups * self.banks_per_group
    }

    /// Cache lines per row buffer.
    pub fn lines_per_row(&self) -> u64 {
        self.row_bytes / LINE_BYTES
    }

    /// Peak data bandwidth of the full channel in GB/s
    /// (both sub-channels; counts read+write combined, as DDR datasheets do).
    pub fn peak_bandwidth_gbs(&self) -> f64 {
        // Each sub-channel moves 64 B per t_burst cycles at 2.4 GHz.
        let per_sub = LINE_BYTES as f64 / coaxial_sim::cycles_to_ns(self.timings.t_burst);
        per_sub * self.subchannels as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ddr5_4800_peak_bandwidth_is_38_4_gbs() {
        let cfg = DramConfig::ddr5_4800();
        let bw = cfg.peak_bandwidth_gbs();
        assert!((bw - 38.4).abs() < 0.1, "peak bw = {bw} GB/s");
    }

    #[test]
    fn unloaded_latencies_are_ordered() {
        let t = DramTimings::ddr5_4800();
        assert!(t.unloaded_hit() < t.unloaded_closed());
        assert!(t.unloaded_closed() < t.unloaded_conflict());
        // Paper quotes ~40 ns unloaded DRAM access; closed-bank read is
        // 88 cycles = 36.7 ns, conflict is 128 cycles = 53.3 ns.
        let ns = coaxial_sim::cycles_to_ns(t.unloaded_closed());
        assert!((30.0..45.0).contains(&ns), "closed-bank read = {ns} ns");
    }

    #[test]
    fn geometry_matches_table_iii() {
        let cfg = DramConfig::ddr5_4800();
        assert_eq!(cfg.subchannels, 2);
        assert_eq!(cfg.banks_per_subchannel(), 32);
        assert_eq!(cfg.lines_per_row(), 16);
    }

    #[test]
    fn trc_is_tras_plus_trp() {
        let t = DramTimings::ddr5_4800();
        assert_eq!(t.t_rc, t.t_ras + t.t_rp);
    }

    #[test]
    fn scaled_timings_preserve_trc_identity_and_floor() {
        let t = DramTimings::ddr5_4800().scaled(1.5);
        assert_eq!(t.cl, 60);
        assert_eq!(t.t_rc, t.t_ras + t.t_rp, "JEDEC identity survives rounding");
        // Extreme down-scaling floors every timing at one cycle instead of
        // producing unphysical zero-cycle commands.
        let tiny = DramTimings::ddr5_4800().scaled(0.001);
        assert!(tiny.t_turnaround >= 1 && tiny.t_burst >= 1);
        assert_eq!(tiny.t_rc, tiny.t_ras + tiny.t_rp);
        // Unit scale is an exact no-op.
        let same = DramTimings::ddr5_4800().scaled(1.0);
        assert_eq!(same.t_rfc, DramTimings::ddr5_4800().t_rfc);
    }
}
