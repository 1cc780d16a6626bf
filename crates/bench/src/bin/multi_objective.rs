//! Extension: four-objective cross-layer DSE. The paper's MBO builds
//! "one [probabilistic model] for each design objective"; this harness
//! exercises that generality by jointly minimizing application error,
//! LUTs, power and latency with true evaluations and the general
//! (WFG) hypervolume.

use clapped_bench::{print_table, save_json};
use clapped_core::{Clapped, MulRepr};
use clapped_dse::{mbo, pareto_front, random_search, MboConfig};
use serde_json::json;

fn main() {
    let fw = Clapped::builder()
        .image_size(32)
        .noise_sigma(12.0)
        .seed(5)
        .build()
        .expect("framework construction");
    // Pre-characterize the operator library (hardware features).
    fw.op_library().expect("library characterizes");
    let repr = MulRepr::Coeffs(4);

    let objective = |c: &clapped_dse::Configuration| -> Vec<f64> {
        let err = fw.evaluate_error(c).expect("evaluation").error_percent;
        let hw = fw.characterize_hw(c).expect("synthesis");
        vec![
            err,
            hw.luts as f64,
            hw.total_power_mw,
            hw.latency_cycles as f64,
        ]
    };
    let reference = vec![30.0, 4000.0, 800.0, 3000.0];
    let cfg = MboConfig {
        initial_samples: 60,
        iterations: 9,
        batch: 10,
        candidates: 40,
        reference: reference.clone(),
        kappa: 1.0,
        explore_fraction: 0.1,
        seed: 41,
    };
    let space = fw.space().clone();
    let surrogate_features = |c: &clapped_dse::Configuration| fw.surrogate_features(c, repr);
    println!("running 4-objective MBO (150 true evaluations) ...");
    let run = mbo(&cfg, |rng| space.sample(rng), surrogate_features, objective)
        .expect("mbo");
    println!("running 4-objective random search ...");
    let space2 = fw.space().clone();
    let rnd = random_search(&cfg, |rng| space2.sample(rng), objective).expect("random");

    let objs: Vec<Vec<f64>> = run.evaluated.iter().map(|(_, o)| o.clone()).collect();
    let front = pareto_front(&objs);
    let mut rows = Vec::new();
    let mut points = Vec::new();
    for &i in front.iter().take(20) {
        let (c, o) = &run.evaluated[i];
        rows.push(vec![
            format!("{}", c.stride),
            format!("{}", u8::from(c.downsample)),
            format!("{}", c.scale),
            format!("{:?}", c.mode),
            format!("{:.2}", o[0]),
            format!("{:.0}", o[1]),
            format!("{:.0}", o[2]),
            format!("{:.0}", o[3]),
        ]);
        points.push(json!({
            "stride": c.stride, "downsample": c.downsample, "scale": c.scale,
            "mode": format!("{:?}", c.mode),
            "error_pct": o[0], "luts": o[1], "power_mw": o[2], "latency_cycles": o[3],
        }));
    }
    print_table(
        "4-objective Pareto points (first 20): error x LUTs x power x latency",
        &["stride", "ds", "scale", "mode", "err%", "LUTs", "mW", "cycles"],
        &rows,
    );
    println!(
        "\n4D hypervolume: MBO {:.3e} vs random {:.3e} ({} vs {} Pareto points)",
        run.final_hypervolume(),
        rnd.final_hypervolume(),
        front.len(),
        rnd.pareto_indices().len(),
    );
    save_json(
        "multi_objective",
        &json!({
            "hv_mbo": run.final_hypervolume(),
            "hv_random": rnd.final_hypervolume(),
            "pareto_mbo": front.len(),
            "pareto_random": rnd.pareto_indices().len(),
            "points": points,
        }),
    );
}
