//! Hot-path performance snapshot: compiled convolution plans vs the
//! naive reference across the cross-layer DoFs, and batched vs
//! per-point GP acquisition prediction. Emits machine-readable numbers
//! to `results/bench_conv.json` so perf regressions are diffable.
//!
//! Usage: `bench_conv [--quick]` — `--quick` shrinks images and
//! repetitions for CI smoke runs and writes `bench_conv.quick.json`
//! instead.

use clapped_axops::{Catalog, Mul8s};
use clapped_dse::Gp;
use clapped_imgproc::{ConvConfig, ConvEngine, ConvMode, Image, QuantKernel, SynthKind};
use clapped_bench::{print_table, save_snapshot, time_best};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::json;
use std::sync::Arc;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    let (size, reps) = if quick { (64, 3) } else { (256, 10) };
    let catalog = Catalog::standard();
    let op = catalog.get("mul8s_bam_v8_h3").expect("catalog operator");
    let img = Image::synthetic(SynthKind::Blobs, size, size, 7);

    let configs = [
        ("2d_w3_s1", ConvConfig::default()),
        (
            "2d_w3_s2_down",
            ConvConfig { stride: 2, downsample: true, ..ConvConfig::default() },
        ),
        (
            "2d_w3_s2_replicate",
            ConvConfig { stride: 2, downsample: false, ..ConvConfig::default() },
        ),
        (
            "2d_w5_s1",
            ConvConfig { window: 5, ..ConvConfig::default() },
        ),
        (
            "sep_w3_s1",
            ConvConfig { mode: ConvMode::Separable, ..ConvConfig::default() },
        ),
    ];
    let mut rows = Vec::new();
    let mut conv_json = Vec::new();
    for (name, cfg) in configs {
        let engine = ConvEngine::new(QuantKernel::gaussian(cfg.window, 0.85));
        let muls: Vec<Arc<dyn Mul8s>> =
            (0..cfg.taps()).map(|_| op.clone() as Arc<dyn Mul8s>).collect();
        let fast = engine.convolve(&img, &cfg, &muls).expect("valid config");
        let slow = engine.convolve_naive(&img, &cfg, &muls).expect("valid config");
        assert_eq!(fast, slow, "compiled path must stay bit-identical");
        let t_naive = time_best(reps, || engine.convolve_naive(&img, &cfg, &muls));
        let t_compiled = time_best(reps, || engine.convolve(&img, &cfg, &muls));
        let speedup = t_naive / t_compiled;
        rows.push(vec![
            name.to_string(),
            format!("{:.3}", t_naive * 1e3),
            format!("{:.3}", t_compiled * 1e3),
            format!("{speedup:.1}x"),
        ]);
        conv_json.push(json!({
            "config": name,
            "image_size": size,
            "naive_ms": t_naive * 1e3,
            "compiled_ms": t_compiled * 1e3,
            "speedup": speedup,
        }));
    }
    print_table(
        &format!("Compiled convolution plans vs naive ({size}x{size}, best of {reps})"),
        &["config", "naive ms", "compiled ms", "speedup"],
        &rows,
    );

    // GP acquisition: one surrogate fit, then the per-iteration shape of
    // the MBO acquisition loop — predict every candidate — per-point vs
    // batched.
    let (n_train, n_queries) = if quick { (60, 20) } else { (150, 50) };
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let xs: Vec<Vec<f64>> = (0..n_train)
        .map(|_| (0..10).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let ys: Vec<f64> = xs.iter().map(|x| x.iter().sum::<f64>()).collect();
    let gp = Gp::fit(&xs, &ys).expect("fits");
    let queries: Vec<Vec<f64>> = (0..n_queries)
        .map(|_| (0..10).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect();
    let per_point = gp
        .predict_batch(&queries)
        .expect("valid queries")
        .into_iter()
        .zip(queries.iter().map(|q| gp.predict(q)))
        .all(|(b, p)| b == p);
    assert!(per_point, "batched prediction must match per-point exactly");
    let t_point = time_best(reps.max(5), || {
        queries.iter().map(|q| gp.predict(q)).collect::<Vec<_>>()
    });
    let t_batch = time_best(reps.max(5), || gp.predict_batch(&queries).expect("valid"));
    let acq_speedup = t_point / t_batch;
    print_table(
        &format!("GP acquisition prediction ({n_train} train pts, {n_queries} candidates)"),
        &["method", "time us"],
        &[
            vec!["per-point".to_string(), format!("{:.1}", t_point * 1e6)],
            vec![
                format!("batched ({acq_speedup:.1}x)"),
                format!("{:.1}", t_batch * 1e6),
            ],
        ],
    );

    save_snapshot(
        "bench_conv",
        quick,
        &json!({
            "quick": quick,
            "convolution": conv_json,
            "acquisition": {
                "train_points": n_train,
                "candidates": n_queries,
                "per_point_us": t_point * 1e6,
                "batched_us": t_batch * 1e6,
                "speedup": acq_speedup,
            },
        }),
    );
}
