//! System clock and time unit conversions.
//!
//! The clock itself — [`Cycle`], [`CPU_FREQ_GHZ`], [`NS_PER_CYCLE`] and the
//! cycles→ns helpers — is defined once, in `coaxial_telemetry::time`
//! (the crate below this one), and re-exported here. This module adds the
//! conversions that need this crate: ns→cycles rounding (through
//! [`crate::narrow`]) and bandwidth scaling.

pub use coaxial_telemetry::time::{
    cycles_f64_to_ns, cycles_to_ns, Cycle, CPU_FREQ_GHZ, NS_PER_CYCLE,
};

/// Convert a nanosecond latency into system cycles, rounding up so that a
/// quoted hardware latency is never under-modelled.
#[inline]
pub fn ns_to_cycles(ns: f64) -> Cycle {
    crate::narrow::trunc_u64((ns * CPU_FREQ_GHZ).ceil())
}

/// Convert a GB/s bandwidth figure into bytes per cycle. GB/s is
/// bytes/ns, so this is the same factor as [`cycles_to_ns`] — kept here
/// so rate math never re-derives the clock in place.
#[inline]
pub fn gbs_to_bytes_per_cycle(gbs: f64) -> f64 {
    gbs * NS_PER_CYCLE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_cycle_is_sub_nanosecond() {
        let ns = std::hint::black_box(NS_PER_CYCLE);
        assert!(ns > 0.41 && ns < 0.42);
    }

    #[test]
    fn ns_conversion_rounds_up() {
        // 12.5 ns (one CXL port crossing) = exactly 30 cycles.
        assert_eq!(ns_to_cycles(12.5), 30);
        // 1 ns does not fit in 2 cycles (0.833 ns); it needs 3.
        assert_eq!(ns_to_cycles(1.0), 3);
        assert_eq!(ns_to_cycles(0.0), 0);
    }

    #[test]
    fn round_trip_error_is_below_one_cycle() {
        for ns in [0.5, 1.0, 12.5, 50.0, 70.0, 123.456] {
            let c = ns_to_cycles(ns);
            let back = cycles_to_ns(c);
            assert!(back >= ns - 1e-9, "{back} < {ns}");
            assert!(back - ns < NS_PER_CYCLE + 1e-9);
        }
    }
}
