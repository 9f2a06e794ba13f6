//! Content-addressed checkpoint store for warmed functional state.
//!
//! Full-system simulators skip warmup by checkpointing: CXL-DMSim restores
//! gem5 checkpoints before the measured window, and CXLRAMSim separates
//! functional state from timing exploration so one warmed image serves an
//! entire parameter sweep. This module is the COAXIAL equivalent: a store
//! keyed by a canonical 128-bit hash of the *functional* config slice
//! (workloads, seed, core count, cache geometry — see
//! `coaxial-system::config::FunctionalConfig`), so every timing-only
//! sibling of a run (CXL latency, DRAM grade, prefetch distance, CALM
//! policy) restores the same snapshot instead of re-simulating prefill.
//!
//! Two tiers:
//!
//! * **memory** — a [`ByteBoundedLru`] of decoded `Arc<V>` values, bounded
//!   by the caller's byte budget (`COAXIAL_PREFILL_CACHE_MB`);
//! * **disk** (optional) — one file per key under `COAXIAL_CHECKPOINT_DIR`,
//!   written atomically (temp file + rename), so warmed state survives
//!   process restarts and is shared between concurrent processes.
//!
//! Values implement [`Snapshot`]: a hand-rolled little-endian codec (no
//! serde — the container is offline and the payloads are flat `u64`/`u8`
//! arrays that `chunks_exact` decodes at memcpy speed). Disk problems are
//! never fatal: every I/O error just counts in `disk_errors` and the store
//! degrades to memory-only behaviour.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::lru::ByteBoundedLru;

/// File magic for checkpoint files; bump the trailing version digit on any
/// encoding change so stale files from older builds miss instead of
/// decoding garbage.
const MAGIC: &[u8; 8] = b"CXCKPT01";

/// A value that can round-trip through the checkpoint store's disk tier.
pub trait Snapshot: Sized {
    /// Append the canonical little-endian encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decode a value previously produced by [`Snapshot::encode`].
    /// Returns `None` on any structural mismatch (truncation, bad counts);
    /// callers treat that as a cache miss, never an error.
    fn decode(bytes: &[u8]) -> Option<Self>;
}

/// Incremental FNV-1a (128-bit) over a canonical field encoding.
///
/// Used to derive the content address of a functional config slice. Each
/// write is length- or tag-prefixed by the caller conventions below, so
/// distinct field sequences cannot collide by concatenation (e.g. the
/// string split `"ab","c"` vs `"a","bc"` hashes differently because
/// [`KeyHasher::write_str`] prefixes the length).
#[derive(Debug, Clone)]
pub struct KeyHasher {
    state: u128,
}

const FNV128_OFFSET: u128 = 0x6c62_272e_07bb_0142_62b8_2175_6295_c58d;
const FNV128_PRIME: u128 = 0x0000_0000_0100_0000_0000_0000_0000_013b;

impl KeyHasher {
    /// Start a hash seeded with a domain tag, so the same field values
    /// hashed for different purposes (state vs stream keys) cannot alias.
    #[must_use]
    pub fn new(domain: &str) -> Self {
        let mut h = Self { state: FNV128_OFFSET };
        h.write_str(domain);
        h
    }

    pub fn write_bytes(&mut self, bytes: &[u8]) {
        let mut s = self.state;
        for &b in bytes {
            s ^= u128::from(b);
            s = s.wrapping_mul(FNV128_PRIME);
        }
        self.state = s;
    }

    pub fn write_u64(&mut self, v: u64) {
        self.write_bytes(&v.to_le_bytes());
    }

    /// Length-prefixed string write (prefix keeps concatenations distinct).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes());
    }

    #[must_use]
    pub fn finish(&self) -> u128 {
        self.state
    }
}

/// Little-endian encode/decode helpers shared by [`Snapshot`] impls.
///
/// The format is deliberately dumb: every integer is a `u64`, every array
/// is a `u64` count followed by raw little-endian words. `chunks_exact(8)`
/// plus `u64::from_le_bytes` decodes at close to memcpy speed and needs no
/// unsafe, no external crates, and no per-element branching.
pub mod codec {
    /// Append one `u64`.
    pub fn put_u64(out: &mut Vec<u8>, v: u64) {
        out.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a count-prefixed `u64` slice.
    pub fn put_u64s(out: &mut Vec<u8>, vs: &[u64]) {
        put_u64(out, vs.len() as u64);
        for &v in vs {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Append a count-prefixed byte slice (no padding; reader re-aligns).
    pub fn put_bytes(out: &mut Vec<u8>, bs: &[u8]) {
        put_u64(out, bs.len() as u64);
        out.extend_from_slice(bs);
    }

    /// Sequential reader over an encoded payload. Every accessor returns
    /// `None` past the end, so truncated input surfaces as a decode miss
    /// rather than a panic.
    #[derive(Debug)]
    pub struct Reader<'a> {
        buf: &'a [u8],
        pos: usize,
    }

    impl<'a> Reader<'a> {
        #[must_use]
        pub fn new(buf: &'a [u8]) -> Self {
            Self { buf, pos: 0 }
        }

        pub fn u64(&mut self) -> Option<u64> {
            let end = self.pos.checked_add(8)?;
            let chunk = self.buf.get(self.pos..end)?;
            self.pos = end;
            Some(u64::from_le_bytes(chunk.try_into().ok()?))
        }

        /// Count-prefixed `u64` array (see [`put_u64s`]).
        pub fn u64s(&mut self) -> Option<Vec<u64>> {
            let n = usize::try_from(self.u64()?).ok()?;
            let end = self.pos.checked_add(n.checked_mul(8)?)?;
            let raw = self.buf.get(self.pos..end)?;
            self.pos = end;
            let mut out = Vec::with_capacity(n);
            out.extend(
                raw.chunks_exact(8)
                    .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk"))),
            );
            Some(out)
        }

        /// Count-prefixed byte array (see [`put_bytes`]).
        pub fn bytes(&mut self) -> Option<&'a [u8]> {
            let n = usize::try_from(self.u64()?).ok()?;
            let end = self.pos.checked_add(n)?;
            let raw = self.buf.get(self.pos..end)?;
            self.pos = end;
            Some(raw)
        }

        /// True once the whole payload has been consumed; decoders check
        /// this last so trailing garbage is rejected.
        #[must_use]
        pub fn done(&self) -> bool {
            self.pos == self.buf.len()
        }
    }
}

/// Counters snapshot for metrics export (one struct so callers cannot
/// read the fields in an inconsistent interleaving).
#[derive(Debug, Clone, Copy, Default)]
pub struct CheckpointCounters {
    /// Hits served from the in-memory LRU.
    pub mem_hits: u64,
    /// Hits served by decoding a disk-tier file (then promoted to memory).
    pub disk_hits: u64,
    /// Lookups that found nothing in either tier.
    pub misses: u64,
    /// Successful `insert` calls.
    pub inserts: u64,
    /// Memory-tier evictions (the disk tier, when enabled, still holds
    /// evicted entries — see the eviction test).
    pub evictions: u64,
    /// Non-fatal disk-tier I/O or decode failures.
    pub disk_errors: u64,
    /// Entries currently resident in memory.
    pub entries: u64,
    /// Caller-accounted bytes currently resident in memory.
    pub bytes: u64,
}

/// Content-addressed store: byte-bounded memory tier over an optional
/// disk tier. Keys are canonical [`KeyHasher`] digests; values are shared
/// out as `Arc` so concurrent runs with the same functional slice alias
/// one decoded snapshot.
#[derive(Debug)]
pub struct CheckpointStore<V> {
    mem: ByteBoundedLru<u128, Arc<V>>,
    disk: Option<PathBuf>,
    /// File-name prefix; also distinguishes stores sharing one directory.
    prefix: &'static str,
    disk_hits: u64,
    disk_errors: u64,
    inserts: u64,
}

impl<V: Snapshot> CheckpointStore<V> {
    #[must_use]
    pub fn new(budget_bytes: u64, disk: Option<PathBuf>, prefix: &'static str) -> Self {
        Self {
            mem: ByteBoundedLru::new(budget_bytes),
            disk,
            prefix,
            disk_hits: 0,
            disk_errors: 0,
            inserts: 0,
        }
    }

    fn file_path(&self, key: u128) -> Option<PathBuf> {
        self.disk.as_ref().map(|d| d.join(format!("{}-{key:032x}.ckpt", self.prefix)))
    }

    /// Look up `key`: memory tier first, then disk (decoding promotes the
    /// entry back into memory, accounted at its encoded size).
    pub fn get(&mut self, key: u128) -> Option<Arc<V>> {
        if let Some(v) = self.mem.get(&key) {
            return Some(Arc::clone(v));
        }
        let path = self.file_path(key)?;
        let decoded = match fs::read(&path) {
            Ok(raw) => decode_file::<V>(&raw, key),
            // A missing file is the normal cold-store case, not an error.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return None,
            Err(_) => {
                self.disk_errors += 1;
                return None;
            }
        };
        let Some((value, encoded_len)) = decoded else {
            self.disk_errors += 1;
            return None;
        };
        self.disk_hits += 1;
        let value = Arc::new(value);
        self.mem.insert(key, Arc::clone(&value), encoded_len);
        Some(value)
    }

    /// Insert a snapshot under `key`. `bytes` is the caller's in-memory
    /// size estimate for LRU accounting. The disk tier is written only if
    /// the file does not already exist (content-addressed: same key ⇒
    /// same payload, so rewriting is wasted I/O).
    pub fn insert(&mut self, key: u128, value: Arc<V>, bytes: u64) {
        self.inserts += 1;
        if let Some(path) = self.file_path(key) {
            if !path.exists() {
                if let Err(_e) = self.write_file(&path, key, &value) {
                    self.disk_errors += 1;
                }
            }
        }
        self.mem.insert(key, value, bytes);
    }

    fn write_file(&self, path: &Path, key: u128, value: &V) -> std::io::Result<()> {
        let dir = path.parent().expect("checkpoint file path has a parent dir");
        fs::create_dir_all(dir)?;
        let mut payload = Vec::with_capacity(32);
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&key.to_le_bytes());
        value.encode(&mut payload);
        // Atomic publish: a concurrent reader sees either no file or the
        // complete file, never a torn write. The temp name carries the pid
        // plus a process-wide sequence number so concurrent writers of the
        // same key cannot collide — two threads in one process would
        // otherwise share a pid-only temp name and truncate each other
        // mid-write, renaming a torn payload into place.
        static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let seq = TMP_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{}-{seq}", std::process::id()));
        fs::write(&tmp, &payload)?;
        match fs::rename(&tmp, path) {
            Ok(()) => Ok(()),
            Err(e) => {
                let _ = fs::remove_file(&tmp);
                Err(e)
            }
        }
    }

    #[must_use]
    pub fn counters(&self) -> CheckpointCounters {
        CheckpointCounters {
            mem_hits: self.mem.hits(),
            disk_hits: self.disk_hits,
            // The LRU counts a miss whenever memory lacked the key; the
            // ones the disk tier then served are not store-level misses.
            misses: self.mem.misses().saturating_sub(self.disk_hits),
            inserts: self.inserts,
            evictions: self.mem.evictions(),
            disk_errors: self.disk_errors,
            entries: self.mem.len() as u64,
            bytes: self.mem.bytes(),
        }
    }

    /// Whether the disk tier is configured (for diagnostics only).
    #[must_use]
    pub fn has_disk(&self) -> bool {
        self.disk.is_some()
    }
}

/// Validate the header and decode the payload; returns the value and the
/// payload length (used for memory-tier accounting on promotion).
fn decode_file<V: Snapshot>(raw: &[u8], key: u128) -> Option<(V, u64)> {
    let rest = raw.strip_prefix(&MAGIC[..])?;
    let (key_bytes, payload) = rest.split_at_checked(16)?;
    if u128::from_le_bytes(key_bytes.try_into().ok()?) != key {
        return None;
    }
    Some((V::decode(payload)?, payload.len() as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Toy snapshot: a tagged word vector, enough to exercise the codec,
    /// the disk round-trip, and eviction behaviour.
    #[derive(Debug, PartialEq, Eq)]
    struct Blob {
        tag: u64,
        words: Vec<u64>,
    }

    impl Snapshot for Blob {
        fn encode(&self, out: &mut Vec<u8>) {
            codec::put_u64(out, self.tag);
            codec::put_u64s(out, &self.words);
        }

        fn decode(bytes: &[u8]) -> Option<Self> {
            let mut r = codec::Reader::new(bytes);
            let tag = r.u64()?;
            let words = r.u64s()?;
            r.done().then_some(Self { tag, words })
        }
    }

    fn blob(tag: u64, n: u64) -> Blob {
        Blob { tag, words: (0..n).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ tag).collect() }
    }

    /// Unique scratch dir per test without wall-clock or randomness
    /// (both banned by clippy.toml): pid + test label.
    fn scratch(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!("coaxial-ckpt-{}-{label}", std::process::id()))
    }

    #[test]
    fn key_hasher_is_order_and_length_sensitive() {
        let mut a = KeyHasher::new("t");
        a.write_str("ab");
        a.write_str("c");
        let mut b = KeyHasher::new("t");
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish(), "length prefix keeps splits distinct");

        let mut c = KeyHasher::new("t");
        c.write_u64(1);
        c.write_u64(2);
        let mut d = KeyHasher::new("t");
        d.write_u64(2);
        d.write_u64(1);
        assert_ne!(c.finish(), d.finish());

        assert_ne!(KeyHasher::new("x").finish(), KeyHasher::new("y").finish());
    }

    #[test]
    fn codec_round_trips_and_rejects_truncation() {
        let b = blob(7, 33);
        let mut out = Vec::new();
        b.encode(&mut out);
        assert_eq!(Blob::decode(&out).as_ref(), Some(&b));
        assert!(Blob::decode(&out[..out.len() - 1]).is_none(), "truncated payload rejected");
        let mut trailing = out.clone();
        trailing.push(0);
        assert!(Blob::decode(&trailing).is_none(), "trailing garbage rejected");
    }

    #[test]
    fn memory_tier_hit_and_miss_counting() {
        let mut s: CheckpointStore<Blob> = CheckpointStore::new(1 << 20, None, "t");
        assert!(s.get(1).is_none());
        s.insert(1, Arc::new(blob(1, 4)), 64);
        assert_eq!(s.get(1).unwrap().tag, 1);
        let c = s.counters();
        assert_eq!((c.mem_hits, c.misses, c.inserts, c.entries), (1, 1, 1, 1));
    }

    #[test]
    fn disk_round_trip_across_store_instances() {
        let dir = scratch("roundtrip");
        let _ = fs::remove_dir_all(&dir);
        let b = blob(42, 257);
        {
            let mut s: CheckpointStore<Blob> =
                CheckpointStore::new(1 << 20, Some(dir.clone()), "t");
            s.insert(99, Arc::new(blob(42, 257)), 4096);
            assert_eq!(s.counters().disk_errors, 0, "disk write must succeed");
        }
        // Fresh store, same dir: the entry must come back from disk,
        // byte-identical, and count as a disk hit.
        let mut s2: CheckpointStore<Blob> = CheckpointStore::new(1 << 20, Some(dir.clone()), "t");
        let got = s2.get(99).expect("disk tier serves the entry");
        assert_eq!(*got, b);
        let c = s2.counters();
        assert_eq!((c.disk_hits, c.misses), (1, 0));
        // Promoted to memory: second get is a pure memory hit.
        assert!(s2.get(99).is_some());
        assert_eq!(s2.counters().mem_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_under_budget_falls_back_to_disk() {
        let dir = scratch("evict");
        let _ = fs::remove_dir_all(&dir);
        // Budget fits two entries; the third insert evicts the LRU.
        let mut s: CheckpointStore<Blob> = CheckpointStore::new(200, Some(dir.clone()), "t");
        s.insert(1, Arc::new(blob(1, 8)), 100);
        s.insert(2, Arc::new(blob(2, 8)), 100);
        s.insert(3, Arc::new(blob(3, 8)), 100);
        let c = s.counters();
        assert_eq!(c.evictions, 1, "budget forced one eviction");
        assert_eq!(c.entries, 2);
        // Key 1 was evicted from memory but survives on disk.
        let got = s.get(1).expect("evicted entry restored from disk tier");
        assert_eq!(*got, blob(1, 8));
        assert_eq!(s.counters().disk_hits, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn eviction_without_disk_is_a_miss() {
        let mut s: CheckpointStore<Blob> = CheckpointStore::new(150, None, "t");
        s.insert(1, Arc::new(blob(1, 4)), 100);
        s.insert(2, Arc::new(blob(2, 4)), 100);
        assert!(s.get(1).is_none(), "memory-only store loses evicted entries");
        assert_eq!(s.counters().misses, 1);
    }

    #[test]
    fn corrupt_disk_entry_counts_error_and_misses() {
        let dir = scratch("corrupt");
        let _ = fs::remove_dir_all(&dir);
        let mut s: CheckpointStore<Blob> = CheckpointStore::new(1 << 20, Some(dir.clone()), "t");
        s.insert(5, Arc::new(blob(5, 4)), 64);
        // Truncate the file behind the store's back, then force a
        // memory miss with a fresh instance.
        let path = dir.join(format!("t-{:032x}.ckpt", 5u128));
        let raw = fs::read(&path).expect("checkpoint file written");
        fs::write(&path, &raw[..raw.len() / 2]).unwrap();
        let mut s2: CheckpointStore<Blob> = CheckpointStore::new(1 << 20, Some(dir.clone()), "t");
        assert!(s2.get(5).is_none());
        assert_eq!(s2.counters().disk_errors, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn wrong_key_in_file_is_rejected() {
        let b = blob(9, 3);
        let mut payload = Vec::new();
        payload.extend_from_slice(MAGIC);
        payload.extend_from_slice(&7u128.to_le_bytes());
        b.encode(&mut payload);
        assert!(decode_file::<Blob>(&payload, 8).is_none(), "key echo mismatch rejected");
        assert_eq!(decode_file::<Blob>(&payload, 7).map(|(v, _)| v), Some(b));
    }
}
