//! Fig. 10(b): generalization to **unseen multipliers**. The training
//! set contains no configuration using the held-out operators; the test
//! set only contains configurations that use them. The paper reports
//! that PR-coefficient features (C4) let the MLP interpolate to the new
//! operators while the M4 statistical-metric representation transfers
//! worse; EXPERIMENTS.md records what this harness measures.
//!
//! The held-out operators are the LOA multipliers: their *unsigned*
//! statistical metrics (M4) are nearly indistinguishable from the
//! truncated multipliers seen in training, but their systematic error
//! has the opposite sign (OR-based lower parts overestimate, truncation
//! underestimates). Metric-based features cannot express that
//! direction; PR coefficients can.

use clapped_bench::{print_table, save_json};
use clapped_core::{Clapped, MulRepr};
use clapped_dse::Configuration;
use clapped_mlp::{fidelity, mae, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;

fn main() {
    let n_train: usize = 1200;
    let n_test: usize = 300;
    let fw = Clapped::builder()
        .image_size(32)
        .noise_sigma(12.0)
        .seed(8)
        .build()
        .expect("framework construction");
    let holdout1 = vec![fw.catalog().index_of("mul8s_loa8").expect("in catalog")];
    let holdout2 = vec![
        fw.catalog().index_of("mul8s_loa8").expect("in catalog"),
        fw.catalog().index_of("mul8s_loa6").expect("in catalog"),
    ];
    let train_cfg = TrainConfig {
        epochs: 150,
        patience: 25,
        seed: 3,
        ..TrainConfig::default()
    };

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for (exp_label, holdout) in [("one new multiplier", holdout1), ("two new multipliers", holdout2)] {
        // Training configurations avoid the held-out operators entirely;
        // test configurations are forced to use them in random taps.
        let mut rng = ChaCha8Rng::seed_from_u64(77);
        let space = fw.space().clone();
        let sample_excluding = |rng: &mut ChaCha8Rng| -> Configuration {
            loop {
                let mut c = space.sample(rng);
                for idx in &mut c.mul_indices {
                    if holdout.contains(idx) {
                        *idx = (*idx + 1) % space.catalog_size;
                    }
                }
                if !c.mul_indices.iter().any(|i| holdout.contains(i)) {
                    return c;
                }
            }
        };
        let mut train_configs = Vec::with_capacity(n_train);
        for _ in 0..n_train {
            train_configs.push(sample_excluding(&mut rng));
        }
        let mut test_configs = Vec::with_capacity(n_test);
        for k in 0..n_test {
            let mut c = space.sample(&mut rng);
            // Force the held-out operator(s) into a few taps.
            let ho = holdout[k % holdout.len()];
            let len = c.mul_indices.len();
            let slot = k % len;
            c.mul_indices[slot] = ho;
            c.mul_indices[(slot + 3) % len] = ho;
            test_configs.push(c);
        }
        let label = |configs: &[Configuration]| -> Vec<f64> {
            configs
                .iter()
                .map(|c| fw.evaluate_error(c).expect("evaluation").error_percent)
                .collect()
        };
        println!("[{exp_label}] evaluating {} train + {} test configurations ...", n_train, n_test);
        let ytr = label(&train_configs);
        let yte = label(&test_configs);

        for repr in [MulRepr::Index, MulRepr::M4, MulRepr::Coeffs(4)] {
            let xtr: Vec<Vec<f64>> = train_configs.iter().map(|c| fw.encode(c, repr)).collect();
            let xte: Vec<Vec<f64>> = test_configs.iter().map(|c| fw.encode(c, repr)).collect();
            let model = fw
                .train_error_model(&xtr, &ytr, &train_cfg)
                .expect("training succeeds");
            let ptr = model.predict_batch(&xtr);
            let pte = model.predict_batch(&xte);
            let (mae_tr, mae_te) = (mae(&ytr, &ptr), mae(&yte, &pte));
            let fid_te = fidelity(&yte, &pte);
            rows.push(vec![
                exp_label.to_string(),
                repr.label(),
                format!("{mae_tr:.3}"),
                format!("{mae_te:.3}"),
                format!("{fid_te:.1}"),
            ]);
            json_rows.push(json!({
                "experiment": exp_label, "repr": repr.label(),
                "train_mae": mae_tr, "test_mae": mae_te, "test_fidelity": fid_te,
            }));
        }
    }
    print_table(
        "Fig 10(b): generalization to unseen multipliers",
        &["experiment", "repr", "train MAE", "test MAE (unseen)", "test fid%"],
        &rows,
    );
    println!("\nExpected shape (paper): representations that *correlate* an");
    println!("operator with its impact (C4, and in our library also M4) keep the");
    println!("unseen-operator MAE close to the training MAE, while the arbitrary");
    println!("Index representation cannot generalize at all.");
    save_json("fig10b", &json!({ "rows": json_rows }));
}
