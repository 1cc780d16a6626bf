//! Ablation of the MBO design choices DESIGN.md calls out: the
//! exploration factor (kappa), the acquisition candidate pool size, and
//! the batch size — each swept with the others held at their defaults,
//! on the ML-estimated error × LUT problem.

use clapped_bench::{print_table, save_json};
use clapped_core::{Clapped, MulRepr};
use clapped_dse::{mbo, MboConfig};
use clapped_mlp::TrainConfig;
use serde_json::json;

fn main() {
    let fw = Clapped::builder()
        .image_size(32)
        .noise_sigma(12.0)
        .seed(5)
        .build()
        .expect("framework construction");
    let repr = MulRepr::Coeffs(4);
    let (configs, xs, ys) = fw
        .make_error_dataset(120, repr, 808)
        .expect("behavioural evaluation");
    let train_cfg = TrainConfig {
        epochs: 120,
        ..TrainConfig::default()
    };
    let err_model = fw.train_error_model(&xs, &ys, &train_cfg).expect("trains");
    let lut_model = fw.train_lut_model(&configs, &train_cfg).expect("trains");
    let objective = |c: &clapped_dse::Configuration| -> Vec<f64> {
        vec![
            err_model.predict(&fw.encode(c, repr)).max(0.0),
            lut_model
                .predict(&fw.encode_hw(c).expect("characterized"))
                .max(0.0),
        ]
    };

    let base = MboConfig {
        initial_samples: 60,
        iterations: 14,
        batch: 10,
        candidates: 50,
        reference: vec![30.0, 4000.0],
        kappa: 1.0,
        explore_fraction: 0.1,
        seed: 77,
    };
    let surrogate_features = |c: &clapped_dse::Configuration| fw.surrogate_features(c, repr);
    let run = |cfg: &MboConfig| -> f64 {
        let space = fw.space().clone();
        mbo(cfg, |rng| space.sample(rng), surrogate_features, objective)
            .expect("mbo")
            .final_hypervolume()
    };

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for kappa in [0.0, 0.5, 1.0, 2.0] {
        let hv = run(&MboConfig { kappa, ..base.clone() });
        rows.push(vec![format!("kappa={kappa}"), format!("{hv:.0}")]);
        json_rows.push(json!({"knob": "kappa", "value": kappa, "hv": hv}));
        println!("kappa {kappa}: HV {hv:.0}");
    }
    for candidates in [10usize, 50, 150] {
        let hv = run(&MboConfig { candidates, ..base.clone() });
        rows.push(vec![format!("candidates={candidates}"), format!("{hv:.0}")]);
        json_rows.push(json!({"knob": "candidates", "value": candidates, "hv": hv}));
        println!("candidates {candidates}: HV {hv:.0}");
    }
    for batch in [5usize, 10, 20] {
        // Keep the total budget constant: batch × iterations = 140.
        let iterations = 140 / batch;
        let hv = run(&MboConfig { batch, iterations, ..base.clone() });
        rows.push(vec![format!("batch={batch}"), format!("{hv:.0}")]);
        json_rows.push(json!({"knob": "batch", "value": batch, "hv": hv}));
        println!("batch {batch} (x{iterations} iters): HV {hv:.0}");
    }
    print_table("MBO ablation (final hypervolume)", &["setting", "HV"], &rows);
    println!("\nLarger candidate pools and a non-zero exploration factor should");
    println!("help; smaller batches (more surrogate refits per budget) usually");
    println!("help too, at higher surrogate-fitting cost.");
    save_json("ablation_mbo", &json!({ "rows": json_rows }));
}
