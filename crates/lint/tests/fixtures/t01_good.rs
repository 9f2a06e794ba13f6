//! T01 good: widths preserved, or narrowing is explicit and checked.
fn pack(total_cycles: u64, latency: u64, core_id: u64) -> (u64, u32, u8) {
    let lat32: u32 = latency.try_into().expect("latency fits u32");
    let core8 = u8::try_from(core_id).expect("core id fits u8");
    (total_cycles, lat32, core8)
}
