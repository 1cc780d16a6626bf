//! Fig. 4: estimation-induced error distributions for a highly
//! approximate (mul8s_1KR3 analogue) and a highly accurate
//! (mul8s_1KVA analogue) multiplier, comparing the two best curve fits
//! against polynomial regression.

use clapped_axops::{Catalog, Mul8s};
use clapped_bench::{ascii_histogram, save_json};
use clapped_errmodel::curvefit::best_curve_fits;
use clapped_errmodel::PrModel;
use serde_json::json;

fn peaks(errors: &[f64]) -> (f64, f64) {
    let min = errors.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = errors.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    (min, max)
}

fn main() {
    let catalog = Catalog::standard();
    let mut results = Vec::new();
    for alias in ["mul8s_1KR3", "mul8s_1KVA"] {
        let m = catalog.get(alias).expect("alias resolves");
        println!("\n################ {alias} -> {} ################", m.name());
        let fits = best_curve_fits(m.as_ref(), 2).expect("LM converges");
        let mut methods = Vec::new();
        for fit in &fits {
            let errors = fit.estimation_errors(m.as_ref());
            let (lo, hi) = peaks(&errors);
            println!("\n-- curve fit ({}) -- peak errors: {:.0}, {:.0}", fit.kind().name(), lo, hi);
            println!("{}", ascii_histogram(&errors, 9, 40));
            methods.push(json!({
                "method": format!("cf_{}", fit.kind().name()),
                "peak_neg": lo, "peak_pos": hi,
                "mae": fit.estimation_mae(m.as_ref()),
            }));
        }
        let pr = PrModel::fit(m.as_ref(), 3);
        let errors = pr.estimation_errors(m.as_ref());
        let (lo, hi) = peaks(&errors);
        println!("\n-- polynomial regression (degree 3) -- peak errors: {:.0}, {:.0}", lo, hi);
        println!("{}", ascii_histogram(&errors, 9, 40));
        methods.push(json!({
            "method": "pr_d3",
            "peak_neg": lo, "peak_pos": hi,
            "mae": pr.estimation_mae(m.as_ref()),
        }));
        results.push(json!({"alias": alias, "operator": m.name(), "methods": methods}));
    }
    println!("\nExpected shape (paper): for both operators the PR model shows");
    println!("fewer and smaller estimation errors than the curve-fit models,");
    println!("with dramatically tighter peaks on the accurate multiplier.");
    save_json("fig4", &json!({ "operators": results }));
}
