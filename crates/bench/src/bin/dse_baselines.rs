//! Section IV extension: the paper notes that any randomized optimizer
//! (genetic algorithms, simulated annealing) could drive the DSE but
//! argues for MBO. This harness runs all four methods with comparable
//! true-evaluation budgets on the error × LUT problem and compares the
//! hypervolume each reaches.

use clapped_bench::{print_table, save_json};
use clapped_core::{Clapped, MulRepr};
use clapped_dse::{
    mbo, nsga2, random_search, simulated_annealing, MboConfig, NsgaConfig, SaConfig,
};
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
    // Shared ML estimators (as in fig12a) so all methods pay the same
    // per-evaluation cost.
    let (configs, xs, ys) = fw
        .make_error_dataset(150, repr, 404)
        .expect("behavioural evaluation");
    let train_cfg = TrainConfig {
        epochs: 150,
        patience: 25,
        ..TrainConfig::default()
    };
    let err_model = fw.train_error_model(&xs, &ys, &train_cfg).expect("trains");
    let lut_model = fw.train_lut_model(&configs, &train_cfg).expect("trains");

    let objective = |c: &clapped_dse::Configuration| -> Vec<f64> {
        vec![
            err_model.predict(&fw.encode(c, repr)).max(0.0),
            lut_model
                .predict(&fw.encode_hw(c).expect("library characterized"))
                .max(0.0),
        ]
    };
    let reference = vec![30.0, 4000.0];
    let budget = 300usize;

    // MBO: 100 + 20×10 = 300 evaluations.
    let mbo_cfg = MboConfig {
        initial_samples: 100,
        iterations: 20,
        batch: 10,
        candidates: 50,
        reference: reference.clone(),
        kappa: 1.0,
        explore_fraction: 0.1,
        seed: 31,
    };
    let space = fw.space().clone();
    let surrogate_features = |c: &clapped_dse::Configuration| fw.surrogate_features(c, repr);
    println!("running MBO ...");
    let r_mbo = mbo(&mbo_cfg, |rng| space.sample(rng), surrogate_features, objective)
        .expect("mbo");

    println!("running random search ...");
    let space2 = fw.space().clone();
    let r_rnd = random_search(&mbo_cfg, |rng| space2.sample(rng), objective).expect("random");

    // NSGA-II: 20 population × (1 + 14 generations) = 300 evaluations.
    println!("running NSGA-II ...");
    let nsga_cfg = NsgaConfig {
        population: 20,
        generations: 14,
        mutation_rate: 0.6,
        reference: reference.clone(),
        seed: 31,
    };
    let s3 = fw.space().clone();
    let s3b = fw.space().clone();
    let s3c = fw.space().clone();
    let r_nsga = nsga2(
        &nsga_cfg,
        move |rng| s3.sample(rng),
        move |a, b, rng| s3b.crossover(a, b, rng),
        move |c, rng| s3c.mutate(c, rng),
        objective,
    )
    .expect("nsga2");

    // SA: 299 steps + initial = 300 evaluations.
    println!("running simulated annealing ...");
    let sa_cfg = SaConfig {
        steps: budget - 1,
        t0: 2.0,
        cooling: 0.985,
        weights: vec![1.0 / 30.0, 1.0 / 4000.0],
        reference: reference.clone(),
        seed: 31,
    };
    let s4 = fw.space().clone();
    let s4b = fw.space().clone();
    let r_sa = simulated_annealing(
        &sa_cfg,
        move |rng| s4.sample(rng),
        move |c, rng| s4b.mutate(c, rng),
        objective,
    )
    .expect("sa");

    let rows: Vec<Vec<String>> = [
        ("MBO", &r_mbo),
        ("Random", &r_rnd),
        ("NSGA-II", &r_nsga),
        ("SA", &r_sa),
    ]
    .iter()
    .map(|(name, r)| {
        vec![
            name.to_string(),
            format!("{}", r.evaluated.len()),
            format!("{:.0}", r.final_hypervolume()),
            format!("{}", r.pareto_indices().len()),
        ]
    })
    .collect();
    print_table(
        "DSE method comparison at ~300 ML-evaluated design points",
        &["method", "#evals", "final HV", "#Pareto"],
        &rows,
    );
    println!("\nExpected shape: MBO and NSGA-II lead; SA (scalarized) covers the");
    println!("front poorly; random search trails the directed methods.");
    save_json(
        "dse_baselines",
        &json!({
            "methods": [
                {"name": "MBO", "hv": r_mbo.final_hypervolume(), "evals": r_mbo.evaluated.len()},
                {"name": "Random", "hv": r_rnd.final_hypervolume(), "evals": r_rnd.evaluated.len()},
                {"name": "NSGA-II", "hv": r_nsga.final_hypervolume(), "evals": r_nsga.evaluated.len()},
                {"name": "SA", "hv": r_sa.final_hypervolume(), "evals": r_sa.evaluated.len()},
            ]
        }),
    );
}
