//! Section II-A adder claim: on 8-bit approximate adders the PR models
//! estimate operator outputs with far smaller relative MAE than the
//! distribution-based curve-fitting technique (the paper reports ~18 %
//! vs ~84 % estimation error).

use clapped_axops::adders::{standard_adders, Add8s};
use clapped_bench::{print_table, save_json};
use clapped_errmodel::curvefit::fit_surface_fn;
use clapped_errmodel::dist::DistKind;
use clapped_errmodel::PrModel;
use serde_json::json;

fn main() {
    let adders = standard_adders();
    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    let mut pr_rels = Vec::new();
    let mut cf_rels = Vec::new();
    for adder in &adders {
        if adder.name() == "add8s_exact" {
            continue;
        }
        let f = |a: i8, b: i8| f64::from(adder.add(a, b));
        // Mean output magnitude to express estimation MAE relatively.
        let mean_mag: f64 = clapped_axops::exhaustive_pairs()
            .map(|(a, b)| f(a, b).abs())
            .sum::<f64>()
            / 65_536.0;
        let pr = PrModel::fit_fn(f, 3);
        let pr_mae = pr.estimation_mae_fn(f);
        let cf = [DistKind::Normal, DistKind::Logistic]
            .iter()
            .map(|&k| {
                fit_surface_fn(f, k)
                    .expect("LM converges")
                    .estimation_mae_fn(f)
            })
            .fold(f64::INFINITY, f64::min);
        let pr_rel = 100.0 * pr_mae / mean_mag;
        let cf_rel = 100.0 * cf / mean_mag;
        pr_rels.push(pr_rel);
        cf_rels.push(cf_rel);
        rows.push(vec![
            adder.name().to_string(),
            format!("{pr_mae:.2}"),
            format!("{pr_rel:.1}"),
            format!("{cf:.2}"),
            format!("{cf_rel:.1}"),
        ]);
        json_rows.push(json!({
            "adder": adder.name(),
            "pr_mae": pr_mae, "pr_rel_pct": pr_rel,
            "cf_mae": cf, "cf_rel_pct": cf_rel,
        }));
    }
    print_table(
        "Section II-A: PR vs curve fitting on approximate adders",
        &["adder", "PR MAE", "PR rel%", "CF MAE", "CF rel%"],
        &rows,
    );
    let pr_mean = pr_rels.iter().sum::<f64>() / pr_rels.len() as f64;
    let cf_mean = cf_rels.iter().sum::<f64>() / cf_rels.len() as f64;
    println!("\nmean relative estimation error: PR {pr_mean:.1}% vs curve fit {cf_mean:.1}%");
    println!("Expected shape (paper): PR around the tens-of-percent level at");
    println!("worst (paper: as low as 18%), curve fitting several times larger");
    println!("(paper: 84%).");
    save_json(
        "adders_pr",
        &json!({ "rows": json_rows, "pr_mean_rel_pct": pr_mean, "cf_mean_rel_pct": cf_mean }),
    );
}
