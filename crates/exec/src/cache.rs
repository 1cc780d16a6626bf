//! Two-tier content-addressed result cache.
//!
//! Tier 1 is a bounded in-memory LRU; tier 2 is an optional on-disk JSON
//! store (one `{key:016x}.json` file per entry, by convention under
//! `results/cache/`) that survives process restarts. Keys are the stable
//! content digests produced by [`crate::digest`], mixed with a cache
//! salt — callers fold [`crate::CODE_VERSION_SALT`] plus any
//! instance-level context (image size, noise seed, …) into the salt so
//! an entry can never be replayed into a build or context it doesn't
//! belong to.
//!
//! # Cross-process sharing
//!
//! The disk tier doubles as a coordination substrate between processes
//! sharing one cache directory (the `clapped-serve` daemon runs N
//! server processes against a single store). Every entry is written to
//! a hidden temp file of its own, `.{key:016x}.{pid}.{n}.tmp` with `n`
//! a process-wide write counter, and published with an atomic `rename`,
//! so a reader sees a complete JSON document or no file at all — never
//! a partial write. Writers take no file locks. Two writers of one key
//! (two processes, or two threads of one) each fill their own temp
//! file, and the later rename replaces the earlier file with the same
//! bytes: keys are content digests, so a concurrent duplicate write
//! costs one redundant file and changes nothing a reader can see. The
//! per-write name keeps that true inside one process: with a name
//! shared by its threads, one thread could publish a file that another
//! is still truncating and refilling.

use serde_json::Value;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::digest::mix64;

/// Disk writes this process has started, across every cache: the
/// suffix that gives each write's temp file a name of its own.
static DISK_WRITES: AtomicU64 = AtomicU64::new(0);

/// Conversion between a cached value and its on-disk JSON form.
///
/// `to_cache_json` returns `None` when a value cannot be represented
/// (e.g. a non-finite float — JSON has no encoding for it); such values
/// simply stay memory-only.
pub trait CacheCodec: Sized {
    /// Encodes the value for the disk tier, or `None` if unencodable.
    fn to_cache_json(&self) -> Option<Value>;
    /// Decodes a value previously written by `to_cache_json`; `None` on
    /// a malformed or foreign file (treated as a miss, never an error).
    fn from_cache_json(value: &Value) -> Option<Self>;
}

impl CacheCodec for f64 {
    fn to_cache_json(&self) -> Option<Value> {
        serde_json::Number::from_f64(*self).map(Value::Number)
    }

    fn from_cache_json(value: &Value) -> Option<Self> {
        value.as_f64()
    }
}

impl CacheCodec for Vec<f64> {
    fn to_cache_json(&self) -> Option<Value> {
        let items: Option<Vec<Value>> = self.iter().map(|v| v.to_cache_json()).collect();
        items.map(Value::Array)
    }

    fn from_cache_json(value: &Value) -> Option<Self> {
        value.as_array()?.iter().map(|v| v.as_f64()).collect()
    }
}

/// Counters of a [`ResultCache`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups answered from the disk tier (these also warm memory).
    pub disk_hits: u64,
    /// Lookups that found nothing in either tier.
    pub misses: u64,
    /// Values stored (via `insert` or `get_or_compute` misses).
    pub insertions: u64,
    /// Entries dropped from memory by the LRU bound.
    pub evictions: u64,
    /// Disk files that existed but failed to parse or decode (each is
    /// treated as a miss; the file is left for inspection).
    pub disk_corrupt: u64,
    /// Entries currently resident in memory.
    pub entries: usize,
}

/// Bounded LRU keyed by `u64` digests: the map holds the value and its
/// last-use tick; the tick index finds the coldest entry in O(log n).
#[derive(Debug)]
struct Lru<V> {
    #[expect(clippy::disallowed_types, reason = "probed by digest key only, never iterated")]
    map: std::collections::HashMap<u64, (V, u64)>,
    by_tick: BTreeMap<u64, u64>,
    tick: u64,
    capacity: usize,
}

impl<V> Lru<V> {
    #[expect(clippy::disallowed_types, reason = "probed by digest key only, never iterated")]
    fn new(capacity: usize) -> Lru<V> {
        Lru {
            map: std::collections::HashMap::new(),
            by_tick: BTreeMap::new(),
            tick: 0,
            capacity: capacity.max(1),
        }
    }

    fn touch(&mut self, key: u64) -> Option<&V> {
        self.tick += 1;
        let tick = self.tick;
        let (value, old_tick) = self.map.get_mut(&key)?;
        self.by_tick.remove(old_tick);
        *old_tick = tick;
        self.by_tick.insert(tick, key);
        Some(value)
    }

    /// Inserts and returns how many entries were evicted to stay in
    /// bounds.
    fn insert(&mut self, key: u64, value: V) -> u64 {
        self.tick += 1;
        if let Some((_, old_tick)) = self.map.insert(key, (value, self.tick)) {
            self.by_tick.remove(&old_tick);
        }
        self.by_tick.insert(self.tick, key);
        let mut evicted = 0;
        while self.map.len() > self.capacity {
            // by_tick mirrors map one-to-one, so it cannot run out while
            // map is over capacity; break defensively instead of panicking.
            let Some((&coldest_tick, &coldest_key)) = self.by_tick.iter().next() else {
                break;
            };
            self.by_tick.remove(&coldest_tick);
            self.map.remove(&coldest_key);
            evicted += 1;
        }
        evicted
    }
}

/// A two-tier (memory LRU + optional disk) content-addressed cache.
///
/// # Examples
///
/// ```
/// use clapped_exec::ResultCache;
///
/// let cache: ResultCache<Vec<f64>> = ResultCache::in_memory(128);
/// let v = cache.get_or_compute(1234, || vec![1.0, 2.0]);
/// let w = cache.get_or_compute(1234, || unreachable!("warm"));
/// assert_eq!(v, w);
/// assert_eq!(cache.stats().hits, 1);
/// ```
#[derive(Debug)]
pub struct ResultCache<V> {
    lru: Mutex<Lru<V>>,
    disk_dir: Option<PathBuf>,
    salt: u64,
    hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    disk_corrupt: AtomicU64,
}

impl<V: Clone + CacheCodec> ResultCache<V> {
    /// A memory-only cache holding at most `capacity` entries.
    pub fn in_memory(capacity: usize) -> ResultCache<V> {
        ResultCache {
            lru: Mutex::new(Lru::new(capacity)),
            disk_dir: None,
            salt: 0,
            hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            disk_corrupt: AtomicU64::new(0),
        }
    }

    /// A cache with a persistent disk tier under `dir` (created on first
    /// write). Disk I/O failures are silently treated as misses — the
    /// cache is an accelerator, never a correctness dependency.
    pub fn with_disk(capacity: usize, dir: impl AsRef<Path>) -> ResultCache<V> {
        let mut cache = ResultCache::in_memory(capacity);
        cache.disk_dir = Some(dir.as_ref().to_path_buf());
        cache
    }

    /// Folds `salt` into every key, partitioning this cache's entries
    /// from any other salt's (use for code version + instance context).
    #[must_use]
    pub fn salted(mut self, salt: u64) -> ResultCache<V> {
        self.salt = self.salt.wrapping_add(mix64(salt));
        self
    }

    /// Locks the LRU, recovering from poison: every mutation inside the
    /// critical sections below is panic-free plain-data bookkeeping, so a
    /// poisoned lock still protects a consistent structure. One cache
    /// serves every engine worker and every session of a framework, so a
    /// panic on one thread must not take the cache from the others.
    fn lru(&self) -> MutexGuard<'_, Lru<V>> {
        self.lru.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn mixed(&self, key: u64) -> u64 {
        mix64(key ^ self.salt)
    }

    fn disk_path(&self, mixed: u64) -> Option<PathBuf> {
        self.disk_dir.as_ref().map(|d| d.join(format!("{mixed:016x}.json")))
    }

    /// Reads the disk tier. A missing or unreadable file is an ordinary
    /// miss; a file that *reads* but fails to parse or decode (corrupt,
    /// truncated, foreign) is also a miss but additionally counted, so a
    /// damaged cache directory degrades performance — never correctness.
    fn disk_read(&self, mixed: u64) -> Option<V> {
        let text = std::fs::read_to_string(self.disk_path(mixed)?).ok()?;
        let decoded = serde_json::from_str(&text)
            .ok()
            .and_then(|value| V::from_cache_json(&value));
        if decoded.is_none() {
            self.disk_corrupt.fetch_add(1, Ordering::Relaxed);
            clapped_obs::count("exec.cache.disk_corrupt", 1);
        }
        decoded
    }

    /// Publishes `value` to the disk tier: a temp file of this write's
    /// own, then an atomic rename. Readers racing a writer see the
    /// complete old JSON, the complete new JSON, or no file — never a
    /// torn write.
    fn disk_write(&self, mixed: u64, value: &V) {
        let (Some(dir), Some(path)) = (self.disk_dir.as_ref(), self.disk_path(mixed)) else {
            return;
        };
        let Some(json) = value.to_cache_json() else {
            return; // unencodable (e.g. non-finite float): memory-only
        };
        let Ok(text) = serde_json::to_string(&json) else {
            return;
        };
        if std::fs::create_dir_all(dir).is_err() {
            return;
        }
        let write = DISK_WRITES.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(".{mixed:016x}.{}.{write}.tmp", std::process::id()));
        if std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, &path)).is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Looks `key` up in memory, then disk. A disk hit is promoted into
    /// the memory tier.
    pub fn get(&self, key: u64) -> Option<V> {
        let mixed = self.mixed(key);
        {
            let mut lru = self.lru();
            if let Some(v) = lru.touch(mixed) {
                self.hits.fetch_add(1, Ordering::Relaxed);
                clapped_obs::count("exec.cache.hit", 1);
                return Some(v.clone());
            }
        }
        if let Some(v) = self.disk_read(mixed) {
            self.disk_hits.fetch_add(1, Ordering::Relaxed);
            clapped_obs::count("exec.cache.disk_hit", 1);
            let evicted = self.lru().insert(mixed, v.clone());
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
            clapped_obs::count("exec.cache.evict", evicted);
            return Some(v);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        clapped_obs::count("exec.cache.miss", 1);
        None
    }

    /// Stores `value` under `key` in both tiers.
    pub fn insert(&self, key: u64, value: V) {
        let mixed = self.mixed(key);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        clapped_obs::count("exec.cache.insert", 1);
        self.disk_write(mixed, &value);
        let evicted = self.lru().insert(mixed, value);
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
        clapped_obs::count("exec.cache.evict", evicted);
    }

    /// Returns the cached value for `key`, computing and storing it on a
    /// miss. The computation runs **outside** the lock (evaluations are
    /// expensive and pure, so a racing duplicate computation is cheaper
    /// than serializing every evaluation behind one mutex — last write
    /// wins with an identical value).
    pub fn get_or_compute(&self, key: u64, compute: impl FnOnce() -> V) -> V {
        if let Some(v) = self.get(key) {
            return v;
        }
        let v = compute();
        self.insert(key, v.clone());
        v
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            disk_corrupt: self.disk_corrupt.load(Ordering::Relaxed),
            entries: self.lru().map.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_cache_skips_recompute() {
        let cache: ResultCache<f64> = ResultCache::in_memory(16);
        let mut computed = 0;
        let a = cache.get_or_compute(7, || {
            computed += 1;
            1.5
        });
        let b = cache.get_or_compute(7, || {
            computed += 1;
            unreachable!("warm entry must not recompute")
        });
        assert_eq!(a, b);
        assert_eq!(computed, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn lru_evicts_coldest_first() {
        let cache: ResultCache<f64> = ResultCache::in_memory(2);
        cache.insert(1, 1.0);
        cache.insert(2, 2.0);
        assert_eq!(cache.get(1), Some(1.0)); // 2 is now coldest
        cache.insert(3, 3.0);
        assert_eq!(cache.get(2), None, "coldest entry evicted");
        assert_eq!(cache.get(1), Some(1.0));
        assert_eq!(cache.get(3), Some(3.0));
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn salt_partitions_keys() {
        let plain: ResultCache<f64> = ResultCache::in_memory(8);
        let salted: ResultCache<f64> = ResultCache::in_memory(8).salted(99);
        plain.insert(5, 1.0);
        salted.insert(5, 2.0);
        // Same logical key, different salts → both caches keep their own value.
        assert_eq!(plain.get(5), Some(1.0));
        assert_eq!(salted.get(5), Some(2.0));
        assert_ne!(plain.mixed(5), salted.mixed(5));
    }

    #[test]
    fn disk_tier_survives_a_fresh_cache() {
        let dir = std::env::temp_dir().join(format!("clapped-exec-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
            cache.insert(42, vec![1.0, 2.5]);
        }
        let fresh: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
        assert_eq!(fresh.get(42), Some(vec![1.0, 2.5]));
        let stats = fresh.stats();
        assert_eq!((stats.disk_hits, stats.hits), (1, 0));
        // Promoted into memory: second read is a memory hit.
        assert_eq!(fresh.get(42), Some(vec![1.0, 2.5]));
        assert_eq!(fresh.stats().hits, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_finite_values_stay_memory_only() {
        let dir =
            std::env::temp_dir().join(format!("clapped-exec-test-nan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache: ResultCache<f64> = ResultCache::with_disk(8, &dir);
        cache.insert(1, f64::NAN);
        assert!(cache.get(1).map(f64::is_nan).unwrap_or(false));
        let fresh: ResultCache<f64> = ResultCache::with_disk(8, &dir);
        assert_eq!(fresh.get(1), None, "NaN must not round-trip through disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn foreign_disk_files_are_misses() {
        let dir =
            std::env::temp_dir().join(format!("clapped-exec-test-bad-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let cache: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
        let mixed = cache.mixed(9);
        std::fs::write(dir.join(format!("{mixed:016x}.json")), "not json at all").unwrap();
        assert_eq!(cache.get(9), None);
        assert_eq!(cache.stats().disk_corrupt, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_writes_leave_no_temp_or_lock_residue() {
        let dir = std::env::temp_dir()
            .join(format!("clapped-exec-test-atomic-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
        for k in 0..6 {
            cache.insert(k, vec![k as f64, 0.5]);
        }
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 6, "one published file per entry: {names:?}");
        assert!(
            names.iter().all(|n| n.ends_with(".json")),
            "no .tmp/.lock residue after writes: {names:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn leftover_lock_files_do_not_block_writes() {
        let dir = std::env::temp_dir()
            .join(format!("clapped-exec-test-lock-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let cache: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
        let mixed = cache.mixed(3);
        // A writer of a build that took advisory locks was killed
        // mid-write and left its lock file behind.
        std::fs::write(dir.join(format!("{mixed:016x}.lock")), "4242").unwrap();
        cache.insert(3, vec![9.0]);
        let fresh: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
        assert_eq!(fresh.get(3), Some(vec![9.0]), "the entry is published past the lock file");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_to_one_directory_never_tear_entries() {
        let dir = std::env::temp_dir()
            .join(format!("clapped-exec-test-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let value: Vec<f64> = (0..64).map(f64::from).collect();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let dir = &dir;
                let value = &value;
                scope.spawn(move || {
                    let cache: ResultCache<Vec<f64>> = ResultCache::with_disk(8, dir);
                    for round in 0..20 {
                        for key in 0..4 {
                            cache.insert(key, value.clone());
                            // A racing reader must see all-or-nothing.
                            let reader: ResultCache<Vec<f64>> =
                                ResultCache::with_disk(8, dir);
                            if let Some(v) = reader.get(key) {
                                assert_eq!(&v, value, "round {round}: torn read");
                            }
                            assert_eq!(
                                reader.stats().disk_corrupt,
                                0,
                                "round {round}: reader decoded a partial file"
                            );
                        }
                    }
                });
            }
        });
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_disk_entries_recover_via_recompute() {
        let dir = std::env::temp_dir()
            .join(format!("clapped-exec-test-corrupt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let writer: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
            writer.insert(11, vec![4.0, 5.0]);
        }
        // Truncate the one on-disk entry mid-token so it no longer parses.
        let files: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(files.len(), 1);
        std::fs::write(&files[0], "[4.0, 5.").unwrap();

        let fresh: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
        assert_eq!(fresh.get(11), None, "corrupt entry must read as a miss, not panic");
        let stats = fresh.stats();
        assert_eq!((stats.disk_corrupt, stats.disk_hits, stats.misses), (1, 0, 1));
        // get_or_compute recovers and rewrites a valid entry.
        assert_eq!(fresh.get_or_compute(11, || vec![4.0, 5.0]), vec![4.0, 5.0]);
        let reread: ResultCache<Vec<f64>> = ResultCache::with_disk(8, &dir);
        assert_eq!(reread.get(11), Some(vec![4.0, 5.0]));
        assert_eq!(reread.stats().disk_corrupt, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
