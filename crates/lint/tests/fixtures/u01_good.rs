//! U01 good: SAFETY comments immediately above each unsafe.
fn read_first(v: &[u8]) -> u8 {
    assert!(!v.is_empty());
    // SAFETY: the assert above guarantees the slice is non-empty, so the
    // pointer read of element 0 is in bounds.
    unsafe { *v.as_ptr() }
}

fn read_second(v: &[u8]) -> u8 {
    assert!(v.len() > 1);
    // SAFETY: the assert above guarantees two elements, so the read of
    // element 1 is in bounds.
    #[allow(clippy::let_and_return)]
    let b = unsafe { *v.as_ptr().add(1) };
    b
}
