//! Criterion benchmarks for the parallel evaluation engine: the serial
//! baseline versus the fanned-out fault-campaign sweep (the acceptance
//! target is ≥3× on a multi-core host), plus warm-versus-cold result
//! cache lookups.

use clapped_axops::Catalog;
use clapped_exec::{digest_of, Engine, ExecConfig, ResultCache};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn bench_fault_sweep(c: &mut Criterion) {
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_1KVL").expect("present");
    let netlist = m.netlist();
    let sites = netlist.fault_sites();
    let mut rng = ChaCha8Rng::seed_from_u64(0xFA17);
    let batches: Vec<Vec<u64>> = (0..4)
        .map(|_| (0..netlist.inputs().len()).map(|_| rng.next_u64()).collect())
        .collect();

    let mut group = c.benchmark_group("fault_sweep");
    group.sample_size(10);
    let serial = Engine::serial();
    group.bench_function("serial", |b| {
        b.iter(|| {
            netlist
                .stuck_at_campaign(black_box(&sites), &batches, 64, &serial)
                .expect("sweeps")
        })
    });
    let parallel = Engine::new(ExecConfig::default());
    let parallel_label = format!("parallel_{}_jobs", parallel.jobs());
    group.bench_function(&parallel_label, |b| {
        b.iter(|| {
            netlist
                .stuck_at_campaign(black_box(&sites), &batches, 64, &parallel)
                .expect("sweeps")
        })
    });
    group.finish();
}

fn bench_result_cache(c: &mut Criterion) {
    let keys: Vec<u64> = (0..256u64).map(|i| digest_of(&i)).collect();
    let mut group = c.benchmark_group("result_cache");

    // Cold path: every lookup misses and pays the compute closure.
    group.bench_function("cold_compute", |b| {
        b.iter(|| {
            let cache: ResultCache<Vec<f64>> = ResultCache::in_memory(512);
            for &k in &keys {
                black_box(cache.get_or_compute(k, || vec![k as f64; 8]));
            }
        })
    });

    // Warm path: every lookup replays from the in-memory tier.
    let warm: ResultCache<Vec<f64>> = ResultCache::in_memory(512);
    for &k in &keys {
        warm.insert(k, vec![k as f64; 8]);
    }
    group.bench_function("warm_hit", |b| {
        b.iter(|| {
            for &k in &keys {
                black_box(warm.get_or_compute(k, || unreachable!("warm cache")));
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fault_sweep, bench_result_cache);
criterion_main!(benches);
