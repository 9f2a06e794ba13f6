//! Hardware prefetching at the L2 (an *extension* beyond the paper).
//!
//! The paper's thesis is that bandwidth abundance can be traded for
//! latency; CALM is one such trade, prefetching is the obvious second one.
//! A prefetcher converts bandwidth into latency tolerance — so, like CALM,
//! it should be cheap on COAXIAL and risky on the bandwidth-starved
//! baseline. The `ablations` experiment measures exactly that.
//!
//! Two classic designs are provided:
//!
//! * **next-line**: on a demand L2 miss to line X, fetch X+1..X+degree;
//! * **IP-stride**: a PC-indexed table learns per-instruction strides and
//!   issues `degree` prefetches along a confident stride.

use serde::Serialize;

/// Prefetch policy at the L2 (demand-miss triggered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum PrefetchPolicy {
    /// No prefetching (the paper's configuration; default).
    None,
    /// Fetch the next `degree` sequential lines.
    NextLine { degree: u32 },
    /// PC-indexed stride detection, `degree` prefetches deep.
    IpStride { degree: u32 },
}

impl PrefetchPolicy {
    pub fn label(&self) -> String {
        match self {
            PrefetchPolicy::None => "none".into(),
            PrefetchPolicy::NextLine { degree } => format!("next-line x{degree}"),
            PrefetchPolicy::IpStride { degree } => format!("ip-stride x{degree}"),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct StrideEntry {
    pc: u32,
    valid: bool,
    last_line: u64,
    stride: i64,
    /// 2-bit confidence; predict at >= 2.
    confidence: u8,
}

/// PC-indexed stride detector (one per core's L2).
#[derive(Debug, Clone)]
pub struct StrideTable {
    entries: Vec<StrideEntry>,
}

const STRIDE_ENTRIES: usize = 256;

impl Default for StrideTable {
    fn default() -> Self {
        Self::new()
    }
}

impl StrideTable {
    pub fn new() -> Self {
        Self { entries: vec![StrideEntry::default(); STRIDE_ENTRIES] }
    }

    #[inline]
    fn index(pc: u32) -> usize {
        // Low bits are distinct enough for PC-indexed tables.
        (pc as usize ^ (pc as usize >> 8)) & (STRIDE_ENTRIES - 1)
    }

    /// Observe a demand access; returns a confident stride if one exists.
    pub fn observe(&mut self, pc: u32, line: u64) -> Option<i64> {
        let e = &mut self.entries[Self::index(pc)];
        if !e.valid || e.pc != pc {
            *e = StrideEntry { pc, valid: true, last_line: line, stride: 0, confidence: 0 };
            return None;
        }
        let new_stride = line as i64 - e.last_line as i64;
        e.last_line = line;
        if new_stride == 0 {
            return None;
        }
        if new_stride == e.stride {
            e.confidence = (e.confidence + 1).min(3);
        } else {
            e.stride = new_stride;
            e.confidence = 0;
        }
        (e.confidence >= 2).then_some(e.stride)
    }
}

/// Compute the prefetch candidate lines for a demand miss.
pub fn candidates(policy: PrefetchPolicy, table: &mut StrideTable, pc: u32, line: u64) -> Vec<u64> {
    match policy {
        PrefetchPolicy::None => Vec::new(),
        PrefetchPolicy::NextLine { degree } => {
            (1..=degree as u64).map(|d| line.wrapping_add(d)).collect()
        }
        PrefetchPolicy::IpStride { degree } => match table.observe(pc, line) {
            Some(stride) => {
                (1..=degree as i64).map(|d| line.wrapping_add((stride * d) as u64)).collect()
            }
            None => Vec::new(),
        },
    }
}

/// Prefetch effectiveness counters.
#[derive(Debug, Clone, Copy, Default, Serialize)]
pub struct PrefetchStats {
    /// Prefetch fetches issued to memory.
    pub issued: u64,
    /// Prefetched lines later touched by a demand access (incl. merges
    /// with in-flight prefetches).
    pub useful: u64,
    /// Candidates dropped because the line was already on chip/in flight.
    pub redundant: u64,
    /// Candidates dropped due to MSHR pressure.
    pub throttled: u64,
}

impl PrefetchStats {
    /// Fraction of issued prefetches that were ever used.
    pub fn accuracy(&self) -> f64 {
        if self.issued == 0 {
            0.0
        } else {
            self.useful as f64 / self.issued as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn next_line_generates_sequential_candidates() {
        let mut t = StrideTable::new();
        let c = candidates(PrefetchPolicy::NextLine { degree: 3 }, &mut t, 1, 100);
        assert_eq!(c, vec![101, 102, 103]);
    }

    #[test]
    fn none_generates_nothing() {
        let mut t = StrideTable::new();
        assert!(candidates(PrefetchPolicy::None, &mut t, 1, 100).is_empty());
    }

    #[test]
    fn stride_detector_needs_confidence() {
        let mut t = StrideTable::new();
        let pc = 0x40;
        // First three observations establish the stride.
        assert_eq!(t.observe(pc, 100), None); // allocate
        assert_eq!(t.observe(pc, 104), None); // stride 4, conf 0
        assert_eq!(t.observe(pc, 108), None); // conf 1
        assert_eq!(t.observe(pc, 112), Some(4)); // conf 2: predict
        assert_eq!(t.observe(pc, 116), Some(4));
    }

    #[test]
    fn stride_change_resets_confidence() {
        let mut t = StrideTable::new();
        let pc = 0x41;
        for (i, l) in [100u64, 104, 108, 112].iter().enumerate() {
            let r = t.observe(pc, *l);
            assert_eq!(r.is_some(), i >= 3);
        }
        assert_eq!(t.observe(pc, 200), None, "stride break must reset");
        assert_eq!(t.observe(pc, 288), None);
    }

    #[test]
    fn negative_strides_work() {
        let mut t = StrideTable::new();
        let pc = 0x42;
        t.observe(pc, 1000);
        t.observe(pc, 992);
        t.observe(pc, 984);
        assert_eq!(t.observe(pc, 976), Some(-8));
        let c = candidates(PrefetchPolicy::IpStride { degree: 2 }, &mut t, pc, 968);
        assert_eq!(c, vec![960, 952]);
    }

    #[test]
    fn distinct_pcs_do_not_interfere() {
        let mut t = StrideTable::new();
        for i in 0..4 {
            t.observe(0x50, 100 + i * 4);
            t.observe(0x51, 9000 + i * 16);
        }
        assert_eq!(t.observe(0x50, 116), Some(4));
        assert_eq!(t.observe(0x51, 9064), Some(16));
    }

    #[test]
    fn accuracy_math() {
        let s = PrefetchStats { issued: 10, useful: 7, redundant: 3, throttled: 1 };
        assert!((s.accuracy() - 0.7).abs() < 1e-12);
        assert_eq!(PrefetchStats::default().accuracy(), 0.0);
    }
}
