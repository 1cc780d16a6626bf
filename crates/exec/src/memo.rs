//! Unbounded concurrent memo table for compute-once-per-process
//! artifacts.
//!
//! Unlike [`crate::ResultCache`], a [`Memo`] never evicts and computes
//! **under the lock**, so a value is computed at most once per process
//! even when many threads race for the same key — exactly the contract
//! an operator behavioural table needs (a 65k-entry exhaustive netlist
//! simulation should never run twice for the same netlist).

#![expect(clippy::disallowed_types, reason = "keyed by any `K: Hash`, probed, never iterated")]

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Hit/miss counters of a [`Memo`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoStats {
    /// Lookups answered from the table.
    pub hits: u64,
    /// Lookups that had to compute the value.
    pub misses: u64,
    /// Entries currently stored.
    pub entries: usize,
}

/// A concurrent, unbounded, compute-once memo table.
///
/// # Examples
///
/// ```
/// use clapped_exec::Memo;
///
/// let memo: Memo<u32, Vec<u32>> = Memo::new();
/// let v = memo.get_or_insert_with(3, || vec![3; 4]);
/// let w = memo.get_or_insert_with(3, || unreachable!("computed once"));
/// assert_eq!(v, w);
/// assert_eq!(memo.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct Memo<K, V> {
    table: Mutex<HashMap<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> Default for Memo<K, V> {
    fn default() -> Self {
        Memo::new()
    }
}

impl<K: Eq + Hash + Clone, V: Clone> Memo<K, V> {
    /// An empty memo table.
    pub fn new() -> Memo<K, V> {
        Memo {
            table: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// Locks the table, recovering from poison: a `compute` closure that
    /// panicked did so *before* its `insert`, so the table a poisoned
    /// lock protects is still consistent (the failed key is simply
    /// absent). Memos are shared process-wide (the convolution plan
    /// cache serves every engine worker), so one panicking computation
    /// must not take the memo from the other threads.
    fn table(&self) -> MutexGuard<'_, HashMap<K, V>> {
        self.table.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the memoized value for `key`, computing and storing it on
    /// first use. The computation runs while holding the table lock:
    /// strict once-per-process semantics, at the cost of serializing
    /// concurrent *misses*. Hits only briefly take the lock to clone.
    pub fn get_or_insert_with(&self, key: K, compute: impl FnOnce() -> V) -> V {
        let mut table = self.table();
        if let Some(v) = table.get(&key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            clapped_obs::count("exec.memo.hit", 1);
            return v.clone();
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        clapped_obs::count("exec.memo.miss", 1);
        let v = compute();
        table.insert(key, v.clone());
        v
    }

    /// Stores `value` for `key` unless an entry already exists, and
    /// returns the entry that ends up in the table. Unlike
    /// [`Memo::get_or_insert_with`] this never touches the hit/miss
    /// counters — it is the write half of a fallible-compute pattern
    /// (probe with [`Memo::get`], compute outside the lock, publish
    /// here), where the probe already recorded the miss and a racing
    /// duplicate insert must not be miscounted.
    pub fn insert_if_absent(&self, key: K, value: V) -> V {
        let mut table = self.table();
        table.entry(key).or_insert(value).clone()
    }

    /// Returns the memoized value for `key` without computing.
    pub fn get(&self, key: &K) -> Option<V> {
        let table = self.table();
        let found = table.get(key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            clapped_obs::count("exec.memo.hit", 1);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            clapped_obs::count("exec.memo.miss", 1);
        }
        found
    }

    /// Current hit/miss/size counters.
    pub fn stats(&self) -> MemoStats {
        MemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.table().len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn computes_each_key_once() {
        let memo: Memo<u32, u64> = Memo::new();
        let computed = AtomicU64::new(0);
        for _ in 0..10 {
            for k in 0..3u32 {
                let v = memo.get_or_insert_with(k, || {
                    computed.fetch_add(1, Ordering::Relaxed);
                    u64::from(k) * 100
                });
                assert_eq!(v, u64::from(k) * 100);
            }
        }
        assert_eq!(computed.load(Ordering::Relaxed), 3);
        let stats = memo.stats();
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.hits, 27);
        assert_eq!(stats.entries, 3);
    }

    #[test]
    fn once_per_process_under_contention() {
        let memo: Memo<u8, u64> = Memo::new();
        let computed = AtomicU64::new(0);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..100 {
                        memo.get_or_insert_with(1, || {
                            computed.fetch_add(1, Ordering::Relaxed);
                            42
                        });
                    }
                });
            }
        });
        assert_eq!(computed.load(Ordering::Relaxed), 1, "strict once-per-process");
    }
}
