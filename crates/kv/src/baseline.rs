//! Flat-store baselines for the LSM engine (and the `kv_store` example):
//! a sorted array with counted record moves, and the one shared
//! binary-search charging rule.
//!
//! The rule (`binary_search_reads`): searching `len` sorted records
//! costs `ilog2(len) + 1` reads — and **0 when `len == 0`**, because a
//! search that inspects nothing reads nothing. The old in-example store
//! charged `(len.max(1)).ilog2() + 1`, i.e. 1 read on an empty store,
//! inconsistently with the rb-tree dictionary (which descends zero nodes
//! and charges zero). Every probe path in this crate — this baseline and
//! the engine's block-granular run probes — now follows the
//! charge-what-you-touch rule.

use asym_model::MemCounter;

/// Reads charged for one binary search over `len` sorted records:
/// `ilog2(len) + 1` probes, except an empty store costs nothing.
fn binary_search_reads(len: usize) -> u64 {
    if len == 0 {
        0
    } else {
        u64::from(len.ilog2()) + 1
    }
}

/// Sorted-array store with counted record moves — the "just keep it
/// compact" strawman from §3's dictionary discussion: O(log n) read
/// probes but Θ(n) record moves per update, which an ω-weighted memory
/// punishes.
pub struct SortedArrayStore {
    data: Vec<(u64, u64)>,
    counter: MemCounter,
}

impl SortedArrayStore {
    /// An empty store charging to `counter`.
    pub fn new(counter: MemCounter) -> Self {
        Self {
            data: Vec::new(),
            counter,
        }
    }

    /// Records currently stored.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Insert or overwrite; an insert shifts the tail, one move per
    /// record.
    pub fn put(&mut self, k: u64, v: u64) {
        self.counter.add_reads(binary_search_reads(self.data.len()));
        let pos = self.data.partition_point(|&(dk, _)| dk < k);
        if pos < self.data.len() && self.data[pos].0 == k {
            self.counter.write();
            self.data[pos].1 = v;
        } else {
            let moved = (self.data.len() - pos) as u64;
            self.counter.add_reads(moved);
            self.counter.add_writes(moved + 1);
            self.data.insert(pos, (k, v));
        }
    }

    /// Point lookup.
    pub fn get(&self, k: u64) -> Option<u64> {
        self.counter.add_reads(binary_search_reads(self.data.len()));
        let pos = self.data.partition_point(|&(dk, _)| dk < k);
        (pos < self.data.len() && self.data[pos].0 == k).then(|| self.data[pos].1)
    }

    /// Remove; compacting the tail moves every later record once.
    pub fn delete(&mut self, k: u64) -> bool {
        self.counter.add_reads(binary_search_reads(self.data.len()));
        let pos = self.data.partition_point(|&(dk, _)| dk < k);
        if pos < self.data.len() && self.data[pos].0 == k {
            let moved = (self.data.len() - pos - 1) as u64;
            self.counter.add_reads(moved);
            self.counter.add_writes(moved);
            self.data.remove(pos);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_probes_cost_nothing() {
        assert_eq!(binary_search_reads(0), 0, "nothing inspected, nothing read");
        assert_eq!(binary_search_reads(1), 1);
        assert_eq!(binary_search_reads(2), 2);
        assert_eq!(binary_search_reads(1024), 11);

        let counter = MemCounter::new();
        let store = SortedArrayStore::new(counter.clone());
        assert_eq!(store.get(7), None);
        assert_eq!(
            (counter.reads(), counter.writes()),
            (0, 0),
            "the old example charged 1 read here"
        );
    }

    #[test]
    fn matches_a_btreemap_reference() {
        let counter = MemCounter::new();
        let mut store = SortedArrayStore::new(counter.clone());
        let mut reference = std::collections::BTreeMap::new();
        let mut x = 9_u64;
        for _ in 0..2_000 {
            // xorshift stream keeps the test dependency-free.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let k = x % 97;
            match x % 5 {
                0 => assert_eq!(store.delete(k), reference.remove(&k).is_some()),
                1 | 2 => {
                    store.put(k, x);
                    reference.insert(k, x);
                }
                _ => assert_eq!(store.get(k), reference.get(&k).copied()),
            }
        }
        assert_eq!(store.len(), reference.len());
        assert!(counter.reads() > 0 && counter.writes() > 0);
    }
}
