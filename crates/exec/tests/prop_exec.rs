//! Property tests for the execution substrate: digest stability and
//! field-order insensitivity, engine determinism across thread counts,
//! and LRU cache behaviour.

use clapped_exec::{digest_of, Engine, ExecConfig, Fnv64, ResultCache, StructDigest};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Digests are pure functions of content: recomputing in the same
    /// process (and, since the algorithm is fully pinned, in any other)
    /// yields the same key.
    #[test]
    fn digest_is_stable_across_runs(bytes in proptest::collection::vec(any::<u8>(), 0..64)) {
        let mut a = Fnv64::new();
        a.write(&bytes);
        let mut b = Fnv64::new();
        b.write(&bytes);
        prop_assert_eq!(a.finish(), b.finish());
        prop_assert_eq!(digest_of(&bytes), digest_of(&bytes.clone()));
    }

    /// Struct digests do not depend on the order fields are fed.
    #[test]
    fn struct_digest_is_field_order_insensitive(
        values in proptest::collection::vec(any::<u64>(), 1..8),
        rot in 0usize..8,
    ) {
        let fields: Vec<(String, u64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("f{i}"), v))
            .collect();
        let forward = fields
            .iter()
            .fold(StructDigest::new("cfg"), |d, (name, v)| d.field(name, v))
            .finish();
        let mut rotated = fields.clone();
        let r = rot % rotated.len();
        rotated.rotate_left(r);
        let permuted = rotated
            .iter()
            .fold(StructDigest::new("cfg"), |d, (name, v)| d.field(name, v))
            .finish();
        prop_assert_eq!(forward, permuted);
    }

    /// Changing any single field value changes the struct digest
    /// (collision-freedom on a one-bit neighbourhood, not in general).
    #[test]
    fn struct_digest_sees_value_changes(a in any::<u64>(), b in any::<u64>(), flip in 0u32..64) {
        let base = StructDigest::new("cfg").field("a", &a).field("b", &b).finish();
        let tweaked = StructDigest::new("cfg")
            .field("a", &(a ^ (1u64 << flip)))
            .field("b", &b)
            .finish();
        prop_assert_ne!(base, tweaked);
    }

    /// The engine returns results in input order at every thread count.
    #[test]
    fn engine_is_order_preserving(
        items in proptest::collection::vec(any::<u32>(), 0..80),
        jobs in 1usize..9,
    ) {
        let engine = Engine::new(ExecConfig::with_jobs(jobs));
        let expect: Vec<u64> = items.iter().map(|&x| u64::from(x) * 3 + 1).collect();
        let got = engine.evaluate_many(&items, |_, &x| u64::from(x) * 3 + 1);
        prop_assert_eq!(got, expect);
    }

    /// A warm cache always answers from storage: the second lookup of
    /// any key is a hit and never recomputes.
    #[test]
    fn warm_cache_never_recomputes(keys in proptest::collection::vec(any::<u64>(), 1..40)) {
        let cache: ResultCache<f64> = ResultCache::in_memory(64);
        for &k in &keys {
            cache.get_or_compute(k, || k as f64 * 0.5);
        }
        let computed = std::cell::Cell::new(0u32);
        for &k in &keys {
            let v = cache.get_or_compute(k, || {
                computed.set(computed.get() + 1);
                -1.0
            });
            prop_assert_eq!(v.to_bits(), (k as f64 * 0.5).to_bits());
        }
        prop_assert_eq!(computed.get(), 0, "warm lookups must not recompute");
    }

    /// The LRU never holds more than its capacity.
    #[test]
    fn lru_respects_capacity(keys in proptest::collection::vec(any::<u64>(), 1..120)) {
        let capacity = 8;
        let cache: ResultCache<f64> = ResultCache::in_memory(capacity);
        for &k in &keys {
            cache.insert(k, 1.0);
            prop_assert!(cache.stats().entries <= capacity);
        }
    }
}
