//! A keyed LRU cache bounded by (caller-accounted) bytes.
//!
//! Used for the prefill state/stream memos in `coaxial-system`: entries are
//! few but individually large (a warmed cache image per configuration), so
//! the cache evicts by total byte budget rather than entry count, and the
//! recency bookkeeping is a simple monotonic stamp with an O(n) eviction
//! scan — n is single digits in practice. The map is a `BTreeMap` so the
//! scan's iteration order (and therefore eviction under stamp ties) is
//! deterministic.
//!
//! The cache always retains the most recently inserted entry even if it
//! alone exceeds the budget; this preserves the memoization behaviour of
//! the one-entry caches it replaces (the current run can always reuse its
//! own warmup).

use std::collections::BTreeMap;

#[derive(Debug)]
struct Entry<V> {
    value: V,
    bytes: u64,
    stamp: u64,
}

/// Keyed LRU bounded by total bytes, with hit/miss/eviction counters.
///
/// Backed by a `BTreeMap` (hash collections are banned workspace-wide by
/// `clippy.toml`): the eviction scan iterates the map, and with ordered
/// keys stamp ties always evict the smallest key.
#[derive(Debug)]
pub struct ByteBoundedLru<K: Ord + Clone, V> {
    map: BTreeMap<K, Entry<V>>,
    max_bytes: u64,
    cur_bytes: u64,
    clock: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Clone, V> ByteBoundedLru<K, V> {
    pub fn new(max_bytes: u64) -> Self {
        Self {
            map: BTreeMap::new(),
            max_bytes,
            cur_bytes: 0,
            clock: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Look up `key`, bumping its recency. Counts a hit or a miss.
    pub fn get(&mut self, key: &K) -> Option<&V> {
        self.clock += 1;
        let clock = self.clock;
        match self.map.get_mut(key) {
            Some(e) => {
                e.stamp = clock;
                self.hits += 1;
                Some(&e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Remove and return `key`'s value (the take/re-insert pattern for
    /// entries that must be mutated exclusively). Counts a hit or a miss.
    pub fn take(&mut self, key: &K) -> Option<V> {
        match self.map.remove(key) {
            Some(e) => {
                self.cur_bytes -= e.bytes;
                self.hits += 1;
                Some(e.value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Insert `value` under `key` with the given byte cost, then evict
    /// least-recently-used entries until within budget. The entry just
    /// inserted is never evicted, so the cache always holds at least one.
    pub fn insert(&mut self, key: K, value: V, bytes: u64) {
        self.clock += 1;
        if let Some(old) = self.map.insert(key, Entry { value, bytes, stamp: self.clock }) {
            self.cur_bytes -= old.bytes;
        }
        self.cur_bytes += bytes;
        // Stamps are unique (the clock bumps on every touch), so the entry
        // just inserted holds the maximum stamp and `min_by_key` can never
        // select it while more than one entry remains.
        while self.cur_bytes > self.max_bytes && self.map.len() > 1 {
            let victim = self.map.iter().min_by_key(|(_, e)| e.stamp).map(|(k, _)| k.clone());
            match victim {
                Some(v) => {
                    let e = self.map.remove(&v).expect("victim present");
                    self.cur_bytes -= e.bytes;
                    self.evictions += 1;
                }
                None => break,
            }
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Total accounted bytes currently resident.
    pub fn bytes(&self) -> u64 {
        self.cur_bytes
    }

    pub fn max_bytes(&self) -> u64 {
        self.max_bytes
    }

    pub fn hits(&self) -> u64 {
        self.hits
    }

    pub fn misses(&self) -> u64 {
        self.misses
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_and_miss_counting() {
        let mut c: ByteBoundedLru<u32, &str> = ByteBoundedLru::new(100);
        assert!(c.get(&1).is_none());
        c.insert(1, "a", 10);
        assert_eq!(c.get(&1), Some(&"a"));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn evicts_least_recently_used_by_bytes() {
        let mut c: ByteBoundedLru<u32, u32> = ByteBoundedLru::new(30);
        c.insert(1, 100, 10);
        c.insert(2, 200, 10);
        c.insert(3, 300, 10);
        assert_eq!(c.len(), 3);
        c.get(&1); // 2 becomes LRU
        c.insert(4, 400, 10);
        assert_eq!(c.len(), 3);
        assert_eq!(c.evictions(), 1);
        assert!(c.get(&2).is_none(), "LRU entry evicted");
        assert!(c.get(&1).is_some());
        assert!(c.get(&4).is_some());
        assert_eq!(c.bytes(), 30);
    }

    #[test]
    fn oversized_entry_still_cached() {
        let mut c: ByteBoundedLru<u32, u32> = ByteBoundedLru::new(10);
        c.insert(1, 100, 50);
        assert_eq!(c.len(), 1, "most recent entry always retained");
        c.insert(2, 200, 60);
        assert_eq!(c.len(), 1, "old entry evicted for the new one");
        assert_eq!(c.evictions(), 1);
        assert_eq!(c.bytes(), 60);
    }

    #[test]
    fn take_removes_and_counts() {
        let mut c: ByteBoundedLru<u32, String> = ByteBoundedLru::new(100);
        c.insert(1, "x".into(), 40);
        assert_eq!(c.take(&1), Some("x".into()));
        assert_eq!(c.bytes(), 0);
        assert!(c.take(&1).is_none());
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
    }

    #[test]
    fn reinsert_same_key_replaces_bytes() {
        let mut c: ByteBoundedLru<u32, u32> = ByteBoundedLru::new(100);
        c.insert(1, 10, 40);
        c.insert(1, 20, 60);
        assert_eq!(c.len(), 1);
        assert_eq!(c.bytes(), 60);
        assert_eq!(c.get(&1), Some(&20));
    }
}
