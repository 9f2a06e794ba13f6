//! D01 good: ordered collections only, for keyed lookup and iteration
//! alike, including BTreeMaps that arrive through a function return.
use std::collections::BTreeMap;

struct Tracker {
    counts: BTreeMap<u64, u64>,
    ordered: BTreeMap<u64, u64>,
}

fn build_index() -> BTreeMap<u64, u64> {
    BTreeMap::new()
}

fn export(t: &Tracker) -> Vec<(u64, u64)> {
    let mut rows: Vec<(u64, u64)> = t.ordered.iter().map(|(k, v)| (*k, *v)).collect();
    if let Some(v) = t.counts.get(&7) {
        rows.push((7, *v));
    }
    let idx = build_index();
    for k in idx.keys() {
        rows.push((*k, 0));
    }
    rows
}
