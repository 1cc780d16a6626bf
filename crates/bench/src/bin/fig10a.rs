//! Fig. 10(a): impact of the PR-coefficient count on the behavioural
//! MLP's test MAE and its inference time (1000 iterations over the test
//! set, as in the paper).

use clapped_bench::{print_table, save_json};
use clapped_core::{Clapped, MulRepr};
use clapped_mlp::{mae, TrainConfig};
use clapped_obs::Stopwatch;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::json;

fn main() {
    let n_configs: usize = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1200);
    let fw = Clapped::builder()
        .image_size(32)
        .noise_sigma(12.0)
        .seed(8)
        .build()
        .expect("framework construction");
    println!("evaluating {n_configs} random configurations ...");
    let (configs, _, ys) = fw
        .make_error_dataset(n_configs, MulRepr::M1, 300)
        .expect("behavioural evaluation");
    let mut order: Vec<usize> = (0..configs.len()).collect();
    order.shuffle(&mut ChaCha8Rng::seed_from_u64(4));
    let n_train = (configs.len() * 8) / 10;
    let (train_idx, test_idx) = order.split_at(n_train);
    let train_cfg = TrainConfig {
        epochs: 120,
        patience: 20,
        seed: 3,
        ..TrainConfig::default()
    };

    let mut reprs = vec![MulRepr::M1];
    reprs.extend((2..=10).map(MulRepr::Coeffs));
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for repr in reprs {
        let xs: Vec<Vec<f64>> = configs.iter().map(|c| fw.encode(c, repr)).collect();
        let xtr: Vec<Vec<f64>> = train_idx.iter().map(|&i| xs[i].clone()).collect();
        let ytr: Vec<f64> = train_idx.iter().map(|&i| ys[i]).collect();
        let xte: Vec<Vec<f64>> = test_idx.iter().map(|&i| xs[i].clone()).collect();
        let yte: Vec<f64> = test_idx.iter().map(|&i| ys[i]).collect();
        let model = fw
            .train_error_model(&xtr, &ytr, &train_cfg)
            .expect("training succeeds");
        let test_mae = mae(&yte, &model.predict_batch(&xte));
        // 1000 inference iterations over the full test set.
        let start = Stopwatch::start();
        let mut checksum = 0.0f64;
        for _ in 0..1000 {
            for x in &xte {
                checksum += model.predict(x);
            }
        }
        let secs = start.elapsed().as_secs_f64();
        std::hint::black_box(checksum);
        rows.push(vec![
            repr.label(),
            format!("{test_mae:.3}"),
            format!("{secs:.3}"),
        ]);
        json_rows.push(json!({
            "repr": repr.label(),
            "test_mae": test_mae,
            "inference_time_s_1000_iters": secs,
        }));
        println!("{:>4}: test MAE {test_mae:.3}, 1000-iter inference {secs:.3}s", repr.label());
    }
    print_table(
        "Fig 10(a): MAE vs inference time by coefficient count",
        &["repr", "test MAE", "time (s, 1000 iters)"],
        &rows,
    );
    println!("\nExpected shape (paper): MAE falls as coefficients are added while");
    println!("inference time rises; a small coefficient count (around C4) gives");
    println!("the best accuracy/latency balance.");
    save_json("fig10a", &json!({ "rows": json_rows }));
}
