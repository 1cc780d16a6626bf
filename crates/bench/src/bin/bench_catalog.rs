//! Generative-catalog snapshot: the autoAx-scale operator library and
//! its learned pre-filter, measured end to end.
//!
//! 1. **Cold catalog build** — enumerate the generative space, derive +
//!    lint every netlist, simulate every behavioural table, synthesize
//!    features, dedup by behaviour digest, publish to a disk cache.
//! 2. **Warm catalog build** — a fresh cache instance over the same
//!    directory (a second process, in effect) must replay every record
//!    without simulating a single table.
//! 3. **autoAx pre-filter** — label a training subset, fit quality/cost
//!    surrogates, prune to an ε-Pareto band of survivors.
//! 4. **DSE at equal budget** — MBO with identical settings over the
//!    hand-picked 24-multiplier baseline catalog and over the
//!    pre-filtered survivors; compare true-objective hypervolume.
//!
//! Emits machine-readable numbers (including the pruning-plot data:
//! predicted quality/cost per entry + survivor flags) to
//! `results/bench_catalog.json`. Full runs enforce the acceptance
//! floors (≥1000 distinct operators, ≥10× warm rebuild, pre-filtered
//! hypervolume ≥ baseline); `--quick` shrinks the space for CI smoke
//! runs, skips the floors and writes `bench_catalog.quick.json`
//! instead. `--trace[=PATH]` captures an obs JSONL trace.

use clapped_axops::{gen_cache_with_disk, Catalog, GenSpace, GenerativeCatalog};
use clapped_bench::{print_table, save_snapshot};
use clapped_core::{
    explore, prefilter, Clapped, EstimationMode, ExploreOptions, ExploreResult, PrefilterConfig,
};
use clapped_dse::{hypervolume, MboConfig};
use clapped_mlp::TrainConfig;
use clapped_obs::Stopwatch;
use serde_json::json;

/// Common hypervolume reference covering both fronts (error %, LUTs).
const HV_REFERENCE: [f64; 2] = [50.0, 8000.0];

fn front_json(result: &ExploreResult) -> Vec<serde_json::Value> {
    result
        .pareto
        .iter()
        .map(|p| {
            let [e, l] = p.actual.unwrap_or(p.searched);
            json!({ "error_percent": e, "luts": l })
        })
        .collect()
}

fn front_hypervolume(result: &ExploreResult) -> f64 {
    let points: Vec<[f64; 2]> = result
        .pareto
        .iter()
        .map(|p| p.actual.unwrap_or(p.searched))
        .collect();
    hypervolume(&points, &HV_REFERENCE)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    clapped_obs::init_trace_from_args();

    // --- 1 + 2. Cold vs warm catalog build ----------------------------
    let space = if quick { GenSpace::quick() } else { GenSpace::standard() };
    let cache_dir = std::path::Path::new("results").join("bench_catalog_cache");
    if cache_dir.exists() {
        std::fs::remove_dir_all(&cache_dir).expect("reset catalog cache dir");
    }
    let engine = clapped_core::Engine::new(clapped_core::ExecConfig::default());

    let cold_cache = gen_cache_with_disk(space.len() + 1, &cache_dir);
    let t0 = Stopwatch::start();
    let gen = GenerativeCatalog::build(&space, &engine, &cold_cache);
    let t_cold = t0.elapsed().as_secs_f64();
    let cold_stats = *gen.stats();
    assert!(cold_stats.tables_built > 0, "cold build must simulate tables");
    assert_eq!(cold_stats.lint_rejects, 0, "generated netlists must lint clean");
    assert_eq!(cold_stats.synth_rejects, 0, "generated netlists must synthesize");

    // A fresh cache instance over the same directory: the disk tier is
    // the only carrier, as if a second process rebuilt the catalog.
    let warm_cache = gen_cache_with_disk(space.len() + 1, &cache_dir);
    let t1 = Stopwatch::start();
    let warm = GenerativeCatalog::build(&space, &engine, &warm_cache);
    let t_warm = t1.elapsed().as_secs_f64();
    assert_eq!(warm.stats().tables_built, 0, "warm build must replay the disk cache");
    assert_eq!(warm.len(), gen.len(), "warm build must reproduce the catalog");
    for (a, b) in gen.iter().zip(warm.iter()) {
        assert_eq!(a.behaviour_digest, b.behaviour_digest, "warm entry diverged: {}", a.name);
    }
    let warm_speedup = t_cold / t_warm;
    print_table(
        &format!(
            "Generative catalog build ({} raw specs -> {} distinct, {} duplicates)",
            cold_stats.raw_specs, cold_stats.distinct, cold_stats.duplicates
        ),
        &["path", "time s", "tables simulated", "speedup"],
        &[
            vec![
                "cold (empty cache)".to_string(),
                format!("{t_cold:.2}"),
                cold_stats.tables_built.to_string(),
                "1.0x".to_string(),
            ],
            vec![
                "warm (disk replay)".to_string(),
                format!("{t_warm:.3}"),
                "0".to_string(),
                format!("{warm_speedup:.0}x"),
            ],
        ],
    );

    // --- 3. autoAx pre-filter -----------------------------------------
    let pf_cfg = if quick {
        PrefilterConfig {
            train_count: 8,
            keep_max: 12,
            train: TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
        }
    } else {
        PrefilterConfig::default()
    };
    let t2 = Stopwatch::start();
    let pf = prefilter(&gen, &pf_cfg).expect("pre-filter runs");
    let t_prefilter = t2.elapsed().as_secs_f64();
    print_table(
        &format!("autoAx pre-filter ({:.2} s)", t_prefilter),
        &["stage", "operators"],
        &[
            vec!["generative catalog".to_string(), gen.len().to_string()],
            vec!["labelled for training".to_string(), pf.train_indices.len().to_string()],
            vec!["pruned (ε-Pareto)".to_string(), pf.pruned.to_string()],
            vec!["survivors".to_string(), pf.catalog.len().to_string()],
        ],
    );

    // --- 4. DSE at equal evaluation budget ----------------------------
    let mbo = if quick {
        MboConfig {
            initial_samples: 6,
            iterations: 2,
            batch: 3,
            candidates: 10,
            reference: HV_REFERENCE.to_vec(),
            ..MboConfig::default()
        }
    } else {
        MboConfig {
            reference: HV_REFERENCE.to_vec(),
            ..MboConfig::default()
        }
    };
    let opts = ExploreOptions {
        error_mode: EstimationMode::True,
        hw_mode: EstimationMode::True,
        mbo,
        actual_eval: true,
        ..ExploreOptions::default()
    };
    let image_size = if quick { 32 } else { 48 };
    let budget = opts.mbo.initial_samples + opts.mbo.iterations * opts.mbo.batch;

    let fw_base = Clapped::builder()
        .catalog(Catalog::standard())
        .image_size(image_size)
        .seed(7)
        .build()
        .expect("baseline framework");
    let t3 = Stopwatch::start();
    let res_base = explore(&fw_base, &opts).expect("baseline DSE");
    let t_dse_base = t3.elapsed().as_secs_f64();
    let hv_base = front_hypervolume(&res_base);

    let fw_pref = Clapped::builder()
        .catalog(pf.catalog.clone())
        .image_size(image_size)
        .seed(7)
        .build()
        .expect("pre-filtered framework");
    let t4 = Stopwatch::start();
    let res_pref = explore(&fw_pref, &opts).expect("pre-filtered DSE");
    let t_dse_pref = t4.elapsed().as_secs_f64();
    let hv_pref = front_hypervolume(&res_pref);

    print_table(
        &format!("DSE at equal budget ({budget} true evaluations, image {image_size})"),
        &["catalog", "operators", "pareto points", "hypervolume", "time s"],
        &[
            vec![
                "hand-picked baseline".to_string(),
                fw_base.catalog().len().to_string(),
                res_base.pareto.len().to_string(),
                format!("{hv_base:.0}"),
                format!("{t_dse_base:.1}"),
            ],
            vec![
                "generative + pre-filter".to_string(),
                fw_pref.catalog().len().to_string(),
                res_pref.pareto.len().to_string(),
                format!("{hv_pref:.0}"),
                format!("{t_dse_pref:.1}"),
            ],
        ],
    );

    // Pruning-plot data: every entry's predicted objectives plus
    // survivor membership (the autoAx scatter plot, machine-readable).
    let survivor_set: std::collections::BTreeSet<usize> = pf.survivors.iter().copied().collect();
    let pruning_plot: Vec<serde_json::Value> = (0..gen.len())
        .map(|i| {
            json!({
                "name": gen.entries()[i].name,
                "predicted_error_percent": pf.predicted_quality[i],
                "predicted_luts": pf.predicted_cost[i],
                "mae": gen.entries()[i].features.mae,
                "pdp_pj": gen.entries()[i].features.pdp_pj,
                "survivor": survivor_set.contains(&i),
            })
        })
        .collect();

    save_snapshot(
        "bench_catalog",
        quick,
        &json!({
            "quick": quick,
            "build": {
                "raw_specs": cold_stats.raw_specs,
                "distinct": cold_stats.distinct,
                "duplicates": cold_stats.duplicates,
                "lint_rejects": cold_stats.lint_rejects,
                "synth_rejects": cold_stats.synth_rejects,
                "cold_s": t_cold,
                "warm_s": t_warm,
                "warm_tables_built": 0,
                "warm_speedup": warm_speedup,
            },
            "prefilter": {
                "train_count": pf.train_indices.len(),
                "pruned": pf.pruned,
                "survivors": pf.catalog.len(),
                "time_s": t_prefilter,
            },
            "dse": {
                "budget_true_evals": budget,
                "image_size": image_size,
                "reference": HV_REFERENCE,
                "baseline": {
                    "operators": fw_base.catalog().len(),
                    "pareto_points": res_base.pareto.len(),
                    "hypervolume": hv_base,
                    "time_s": t_dse_base,
                    "front": front_json(&res_base),
                },
                "prefiltered": {
                    "operators": fw_pref.catalog().len(),
                    "pareto_points": res_pref.pareto.len(),
                    "hypervolume": hv_pref,
                    "time_s": t_dse_pref,
                    "front": front_json(&res_pref),
                },
            },
            "pruning_plot": pruning_plot,
        }),
    );

    if !quick {
        assert!(
            cold_stats.distinct >= 1000,
            "distinct-operator floor missed: {} < 1000",
            cold_stats.distinct
        );
        assert!(
            warm_speedup >= 10.0,
            "warm rebuild floor missed: {warm_speedup:.1}x < 10x"
        );
        assert!(
            hv_pref >= hv_base,
            "pre-filtered DSE hypervolume regressed: {hv_pref:.1} < {hv_base:.1}"
        );
    }
    if let Some(report) = clapped_obs::finish() {
        println!("{report}");
    }
}
