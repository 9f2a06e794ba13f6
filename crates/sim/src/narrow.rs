//! Typed narrowing helpers.
//!
//! The workspace gates `clippy::cast_possible_truncation`, which forbids
//! bare lossy `as` casts on cycle-carrying integers. Every intentional
//! narrowing goes through one of these helpers instead, so the
//! conversion's contract is named at the call site and the unchecked cast
//! lives in exactly one reviewed place per shape.
//!
//! All helpers compile to the same machine code as the `as` cast they
//! wrap; `idx`/`small_u32` additionally carry a `debug_assert` so a
//! violated bound fails loudly in test builds instead of wrapping.

/// Convert a simulated quantity (line number, address, count) to an array
/// index. The simulator targets 64-bit hosts, where `usize` is `u64`.
#[inline]
#[allow(clippy::cast_possible_truncation)]
pub fn idx(x: u64) -> usize {
    debug_assert!(u64::try_from(usize::MAX).map_or(true, |max| x <= max));
    x as usize
}

/// Convert a small structural index (core, channel, bank, lane) to `u32`.
/// Callers guarantee the value is bounded by machine geometry (at most a
/// few thousand), never by simulated time.
#[inline]
#[allow(clippy::cast_possible_truncation)]
pub fn small_u32(x: usize) -> u32 {
    debug_assert!(x <= u32::MAX as usize);
    x as u32
}

/// [`small_u32`] for values carried in `u64` (e.g. degrees or counts
/// derived from 64-bit RNG draws) that are structurally bounded well
/// below `2^32`.
#[inline]
#[allow(clippy::cast_possible_truncation)]
pub fn small_u32_u64(x: u64) -> u32 {
    debug_assert!(x <= u64::from(u32::MAX));
    x as u32
}

/// Truncate a non-negative float to `u64` with `as` semantics (toward
/// zero, saturating). For sizing/config math at the report or setup
/// boundary — never for accumulating simulated time (lint T02).
#[inline]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn trunc_u64(x: f64) -> u64 {
    x as u64
}

/// Truncate a non-negative float to `u32` with `as` semantics. See
/// [`trunc_u64`].
#[inline]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn trunc_u32(x: f64) -> u32 {
    x as u32
}

/// Truncate a non-negative float to `usize` with `as` semantics. See
/// [`trunc_u64`].
#[inline]
#[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
pub fn trunc_usize(x: f64) -> usize {
    x as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idx_roundtrips_and_small_u32_bounds() {
        assert_eq!(idx(12345), 12345usize);
        assert_eq!(small_u32(11), 11u32);
    }

    #[test]
    fn trunc_matches_as_semantics() {
        assert_eq!(trunc_u64(3.9), 3);
        assert_eq!(trunc_u32(2.0_f64.powi(40)), u32::MAX, "saturates like `as`");
        assert_eq!(trunc_usize(-0.5), 0, "negative saturates to zero like `as`");
    }
}
