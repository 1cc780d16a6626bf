//! Fig. 12(a): DSE quality over evaluation budget — hypervolume of the
//! application-error × LUT-utilization front for MBO vs random search.
//! Both methods use the ML-based estimation of error and LUTs, as in
//! the paper (10 new samples per iteration from 50 candidates).

use clapped_bench::{print_table, save_json};
use clapped_core::{Clapped, MulRepr};
use clapped_dse::{mbo, random_search, MboConfig};
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

    // Train the ML estimators once on a common dataset (error from the
    // behavioural model, LUTs from true synthesis).
    let n_train = 150;
    println!("building the ML estimators ({n_train} training configs) ...");
    let (configs, xs, ys) = fw
        .make_error_dataset(n_train, repr, 1234)
        .expect("behavioural evaluation");
    let train_cfg = TrainConfig {
        epochs: 150,
        patience: 25,
        ..TrainConfig::default()
    };
    let err_model = fw
        .train_error_model(&xs, &ys, &train_cfg)
        .expect("error model trains");
    let lut_model = fw
        .train_lut_model(&configs, &train_cfg)
        .expect("LUT model trains");

    let objective = |c: &clapped_dse::Configuration| -> Vec<f64> {
        let x = fw.encode(c, repr);
        let hx = fw.encode_hw(c).expect("library characterized");
        vec![
            err_model.predict(&x).max(0.0),
            lut_model.predict(&hx).max(0.0),
        ]
    };
    // Average the traces over several search seeds: a single seed's
    // comparison is dominated by which method gets lucky early.
    let seeds: Vec<u64> = vec![17, 23, 71, 101, 137];
    let mut mbo_traces: Vec<Vec<(usize, f64)>> = Vec::new();
    let mut rnd_traces: Vec<Vec<(usize, f64)>> = Vec::new();
    for &seed in &seeds {
        let mbo_cfg = MboConfig {
            initial_samples: 100,
            iterations: 40,
            batch: 10,
            candidates: 50,
            reference: vec![30.0, 4000.0],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed,
        };
        println!(
            "seed {seed}: MBO + random search ({} evaluations each) ...",
            mbo_cfg.initial_samples + mbo_cfg.iterations * mbo_cfg.batch
        );
        let space = fw.space().clone();
        let mbo_run = mbo(
            &mbo_cfg,
            |rng| space.sample(rng),
            |c| fw.surrogate_features(c, repr),
            objective,
        )
        .expect("MBO run");
        let space2 = fw.space().clone();
        let rnd_run = random_search(&mbo_cfg, |rng| space2.sample(rng), objective)
            .expect("random search run");
        mbo_traces.push(mbo_run.hv_trace);
        rnd_traces.push(rnd_run.hv_trace);
    }
    let mean_at = |traces: &[Vec<(usize, f64)>], idx: usize| -> f64 {
        traces.iter().map(|t| t[idx].1).sum::<f64>() / traces.len() as f64
    };
    let n_points = mbo_traces[0].len();
    let mut rows = Vec::new();
    let mut series = Vec::new();
    for i in 0..n_points {
        let evals = mbo_traces[0][i].0;
        let hm = mean_at(&mbo_traces, i);
        let hr = mean_at(&rnd_traces, i);
        if evals.is_multiple_of(50) {
            rows.push(vec![
                format!("{evals}"),
                format!("{hm:.0}"),
                format!("{hr:.0}"),
            ]);
        }
        series.push(json!({"evaluations": evals, "hv_mbo": hm, "hv_random": hr}));
    }
    print_table(
        &format!("Fig 12(a): mean hypervolume over {} seeds", seeds.len()),
        &["#evals", "HV_MBO", "HV_RANDOM"],
        &rows,
    );
    let final_mbo = mean_at(&mbo_traces, n_points - 1);
    let final_rnd = mean_at(&rnd_traces, n_points - 1);
    let wins = mbo_traces
        .iter()
        .zip(&rnd_traces)
        .filter(|(m, r)| m.last().expect("trace").1 >= r.last().expect("trace").1)
        .count();
    println!("\nmean final hypervolume: MBO {final_mbo:.0} vs random {final_rnd:.0}");
    println!("MBO wins {wins}/{} seeds", seeds.len());
    println!("Expected shape (paper): MBO reaches higher hypervolume with fewer");
    println!("evaluations than random search.");
    save_json(
        "fig12a",
        &json!({
            "seeds": seeds, "series": series,
            "final_mbo_mean": final_mbo, "final_random_mean": final_rnd,
            "mbo_wins": wins,
        }),
    );
}
