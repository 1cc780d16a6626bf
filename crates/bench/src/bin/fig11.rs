//! Fig. 11: accelerator performance estimation with MLP models —
//! prediction fidelity for PDP, LUTs, latency and power, comparing the
//! IDX multiplier representation against the expanded (EXP, Table-I)
//! feature sets. 1000 designs train the models, 200 test them.

use clapped_accel::{
    characterize, features, AcceleratorSpec, CharacterizeConfig, FeatureMode, OpLibrary,
    PerfMetric,
};
use clapped_axops::Catalog;
use clapped_bench::{print_table, save_json};
use clapped_mlp::{fidelity, Regressor, TrainConfig};
use clapped_obs::Stopwatch;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde_json::json;

fn random_spec(catalog: &Catalog, rng: &mut ChaCha8Rng) -> AcceleratorSpec {
    let image_size = [16usize, 32, 48, 64, 96, 128][rng.gen_range(0..6usize)];
    AcceleratorSpec {
        image_size,
        window: 3,
        stride: rng.gen_range(1..=3),
        downsample: rng.gen_bool(0.5),
        mode: clapped_imgproc::ConvMode::TwoD,
        muls: (0..9)
            .map(|_| catalog.at(rng.gen_range(0..catalog.len())).expect("valid index"))
            .collect(),
    }
}

fn metric_value(metric: PerfMetric, r: &clapped_accel::AccelReport) -> f64 {
    match metric {
        PerfMetric::Pdp => r.pdp_pj,
        PerfMetric::Luts => r.luts as f64,
        PerfMetric::Latency => r.latency_cycles as f64,
        PerfMetric::Power => r.total_power_mw,
    }
}

fn main() {
    let n_train: usize = std::env::args().nth(1).and_then(|a| a.parse().ok()).unwrap_or(1000);
    let n_test: usize = std::env::args().nth(2).and_then(|a| a.parse().ok()).unwrap_or(200);
    let catalog = Catalog::standard();
    let char_cfg = CharacterizeConfig::default();
    println!("characterizing the operator library ...");
    let lib = OpLibrary::characterize(&catalog, &char_cfg.synth).expect("library synthesis");

    println!("synthesizing {} accelerator design points (the 'Vivado' stage) ...", n_train + n_test);
    let mut rng = ChaCha8Rng::seed_from_u64(11);
    let start = Stopwatch::start();
    let mut specs = Vec::with_capacity(n_train + n_test);
    let mut reports = Vec::with_capacity(n_train + n_test);
    for i in 0..(n_train + n_test) {
        let spec = random_spec(&catalog, &mut rng);
        let report = characterize(&spec, &char_cfg).expect("datapath synthesis");
        specs.push(spec);
        reports.push(report);
        if (i + 1) % 200 == 0 {
            println!("  {}/{} designs ({:.1}s)", i + 1, n_train + n_test, start.elapsed().as_secs_f64());
        }
    }
    println!("true characterization took {:.1}s total", start.elapsed().as_secs_f64());

    let train_cfg = TrainConfig {
        epochs: 200,
        patience: 30,
        seed: 2,
        ..TrainConfig::default()
    };
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for metric in PerfMetric::ALL {
        let ys: Vec<f64> = reports.iter().map(|r| metric_value(metric, r)).collect();
        let (ytr, yte) = ys.split_at(n_train);
        let mut cells = vec![metric.name().to_string()];
        let mut jrow = json!({"metric": metric.name()});
        for mode in [FeatureMode::Idx, FeatureMode::Exp] {
            let xs: Vec<Vec<f64>> = specs
                .iter()
                .map(|s| features(s, metric, mode, &lib).expect("library covers catalog"))
                .collect();
            let (xtr, xte) = xs.split_at(n_train);
            let model = Regressor::fit(xtr, ytr, &[32, 16], &train_cfg).expect("training");
            let fid_tr = fidelity(ytr, &model.predict_batch(xtr));
            let fid_te = fidelity(yte, &model.predict_batch(xte));
            cells.push(format!("{fid_tr:.1}"));
            cells.push(format!("{fid_te:.1}"));
            let key = match mode {
                FeatureMode::Idx => "idx",
                FeatureMode::Exp => "exp",
            };
            jrow[format!("train_fidelity_{key}")] = json!(fid_tr);
            jrow[format!("test_fidelity_{key}")] = json!(fid_te);
            println!(
                "{:>8} {:?}: train fidelity {fid_tr:.1}%, test fidelity {fid_te:.1}%",
                metric.name(),
                mode
            );
        }
        rows.push(cells);
        json_rows.push(jrow);
    }
    print_table(
        "Fig 11: accelerator-metric MLP fidelity (%), IDX vs EXP",
        &["metric", "train IDX", "test IDX", "train EXP", "test EXP"],
        &rows,
    );
    println!("\nExpected shape (paper): EXP beats IDX for every metric on both");
    println!("splits; the latency model (image-size only) is the most accurate.");
    save_json(
        "fig11",
        &json!({ "train_designs": n_train, "test_designs": n_test, "rows": json_rows }),
    );
}
