//! The system clock — the workspace's one home for the cycle type and the
//! cycles→ns relationship.
//!
//! Everything in the simulator advances on a single 2.4 GHz clock. The
//! paper (Table III) clocks its 12 OoO cores at 2.4 GHz; DDR5-4800
//! transfers data on both edges of a 2.4 GHz I/O clock, so memory timing
//! parameters quoted in memory clocks translate 1:1 into system cycles.
//!
//! This crate sits *below* `coaxial-sim` in the dependency graph, so the
//! definitions live here and `coaxial_sim::time` re-exports them (adding
//! the rounding ns→cycles direction, which needs `coaxial_sim::narrow`).
//! Every cycles→ns crossing must route through these helpers —
//! `coaxial-lint` rule Q02 flags any hand-rolled conversion outside a
//! `time.rs`.

/// Simulation timestamp / duration, in system clock cycles (2.4 GHz).
pub type Cycle = u64;

/// System (CPU and DDR5-4800 I/O) clock frequency in GHz.
pub const CPU_FREQ_GHZ: f64 = 2.4;

/// Duration of one system clock cycle in nanoseconds (≈ 0.41667 ns).
pub const NS_PER_CYCLE: f64 = 1.0 / CPU_FREQ_GHZ;

/// Convert a cycle count back into nanoseconds.
#[inline]
pub fn cycles_to_ns(cycles: Cycle) -> f64 {
    cycles as f64 * NS_PER_CYCLE
}

/// Convert an already-fractional cycle quantity (a histogram mean or
/// percentile) into nanoseconds. Same arithmetic as [`cycles_to_ns`],
/// for callers whose cycle value left the integer domain upstream.
#[inline]
pub fn cycles_f64_to_ns(frac_cycles: f64) -> f64 {
    frac_cycles * NS_PER_CYCLE
}

/// Convert a cycle timestamp into microseconds (Chrome trace `ts`/`dur`
/// fields are µs).
#[inline]
pub fn cycles_to_us(cycles: Cycle) -> f64 {
    cycles as f64 * NS_PER_CYCLE / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_use_the_2_4_ghz_clock() {
        assert_eq!(cycles_to_ns(1), NS_PER_CYCLE);
        assert_eq!(cycles_to_ns(2400), 1000.0);
        assert_eq!(cycles_to_us(2_400_000), 1000.0);
        assert_eq!(cycles_f64_to_ns(2.4), 1.0);
    }
}
