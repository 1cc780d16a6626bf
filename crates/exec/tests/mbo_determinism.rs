//! End-to-end determinism of MBO driven through the execution engine:
//! the Pareto front must be bit-identical whether candidate batches are
//! evaluated on one thread or eight, and a warm result cache must let a
//! repeat run skip every recomputation.

use std::sync::atomic::{AtomicUsize, Ordering};

use clapped_dse::{BatchOutcome, MboConfig, MboState, SearchResult};
use clapped_exec::{digest_of, Engine, ExecConfig, ResultCache};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn toy_objective(c: &[f64]) -> Vec<f64> {
    let x = (c[0] + c[1]) / 2.0;
    vec![x, (1.0 - x) * (1.0 - x) + 0.05 * (c[0] - c[1]).abs()]
}

fn toy_sample(rng: &mut ChaCha8Rng) -> Vec<f64> {
    vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]
}

fn config() -> MboConfig {
    MboConfig {
        initial_samples: 8,
        iterations: 4,
        batch: 4,
        candidates: 16,
        reference: vec![1.5, 1.5],
        kappa: 1.0,
        explore_fraction: 0.1,
        seed: 42,
    }
}

/// Runs a full MBO search with candidate batches fanned out on
/// `engine`, optionally answering from (and filling) `cache`.
fn run_with_engine(
    engine: &Engine,
    cache: Option<&ResultCache<Vec<f64>>>,
    computed: &AtomicUsize,
) -> SearchResult<Vec<f64>> {
    let mut state = MboState::new(&config()).unwrap();
    let mut sample = toy_sample;
    let encode = |c: &Vec<f64>| c.clone();
    let mut evaluate_batch = |cs: &[Vec<f64>]| -> Vec<BatchOutcome> {
        engine
            .evaluate_many(cs, |_, c| {
                let digest = digest_of(c);
                let objectives = match cache {
                    Some(cache) => cache.get_or_compute(digest, || {
                        computed.fetch_add(1, Ordering::Relaxed);
                        toy_objective(c)
                    }),
                    None => {
                        computed.fetch_add(1, Ordering::Relaxed);
                        toy_objective(c)
                    }
                };
                BatchOutcome { objectives, digest }
            })
    };
    while !state.is_complete() {
        state.step(&mut sample, &encode, &mut evaluate_batch).unwrap();
    }
    assert!(state.eval_digests().iter().all(|&d| d != 0));
    state.into_result()
}

#[test]
fn pareto_front_is_identical_at_any_thread_count() {
    let computed = AtomicUsize::new(0);
    let serial = run_with_engine(&Engine::serial(), None, &computed);
    let wide = run_with_engine(&Engine::new(ExecConfig::with_jobs(8)), None, &computed);

    assert_eq!(serial.evaluated.len(), wide.evaluated.len());
    for ((ca, oa), (cb, ob)) in serial.evaluated.iter().zip(&wide.evaluated) {
        assert_eq!(ca, cb, "candidate streams diverged");
        for (a, b) in oa.iter().zip(ob) {
            assert_eq!(a.to_bits(), b.to_bits(), "objectives not bit-identical");
        }
    }
    for (&(na, ha), &(nb, hb)) in serial.hv_trace.iter().zip(&wide.hv_trace) {
        assert_eq!(na, nb);
        assert_eq!(ha.to_bits(), hb.to_bits(), "hypervolume trace diverged");
    }
    assert_eq!(serial.pareto_indices(), wide.pareto_indices());
}

#[test]
fn warm_cache_skips_every_recompute() {
    let cache: ResultCache<Vec<f64>> = ResultCache::in_memory(4096);
    let engine = Engine::new(ExecConfig::with_jobs(4));
    let computed = AtomicUsize::new(0);

    let cold = run_with_engine(&engine, Some(&cache), &computed);
    let cold_computes = computed.load(Ordering::Relaxed);
    assert!(cold_computes > 0, "cold run must compute something");

    let warm = run_with_engine(&engine, Some(&cache), &computed);
    let warm_computes = computed.load(Ordering::Relaxed) - cold_computes;
    assert_eq!(warm_computes, 0, "warm run recomputed {warm_computes} results");
    assert!(
        cache.stats().hits as usize >= warm.evaluated.len(),
        "every warm evaluation should be a cache hit"
    );

    // The replayed run is still the same search.
    assert_eq!(cold.evaluated.len(), warm.evaluated.len());
    assert_eq!(cold.pareto_indices(), warm.pareto_indices());
    for (&(_, ha), &(_, hb)) in cold.hv_trace.iter().zip(&warm.hv_trace) {
        assert_eq!(ha.to_bits(), hb.to_bits());
    }
}
