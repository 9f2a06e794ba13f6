//! D02 bad: wall clock and ambient entropy in a model crate.
use std::hash::{BuildHasher, DefaultHasher, Hasher, RandomState};
use std::time::{Instant, SystemTime};

fn stamp() -> u128 {
    let t0 = Instant::now();
    let _ = t0.elapsed();
    SystemTime::now().duration_since(std::time::UNIX_EPOCH).unwrap().as_nanos()
}

fn entropy() -> u64 {
    let mut h = DefaultHasher::new();
    h.write_u64(7);
    h.finish() ^ RandomState::new().hash_one(7u64)
}
