//! Fig. 3: behavioural error analysis of the mul8s_1KR3 analogue —
//! top-5 distribution fits (K-S ranked) and the mean-absolute-error of
//! curve-fitting vs polynomial-regression estimation.

use clapped_axops::Catalog;
use clapped_bench::{print_table, save_json};
use clapped_errmodel::curvefit::fit_multiplier_surface;
use clapped_errmodel::dist::rank_distributions;
use clapped_errmodel::{error_samples, PrModel};
use serde_json::json;

fn main() {
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_1KR3").expect("alias resolves");
    println!("operator: {} ({})", clapped_axops::Mul8s::name(m.as_ref()), m.arch().describe());

    // Distribution fitting of the error sample, K-S ranked.
    let errors = error_samples(m.as_ref());
    let ranked = rank_distributions(&errors);
    let mut dist_rows = Vec::new();
    for (d, ks) in ranked.iter().take(5) {
        dist_rows.push(vec![
            d.kind().name().to_string(),
            format!("{:.4}", ks),
            format!("{:.1}", d.mu()),
            format!("{:.1}", d.scale()),
        ]);
    }
    print_table(
        "Fig 3 (left): top-5 distribution fits of the error sample",
        &["distribution", "K-S", "mu", "scale"],
        &dist_rows,
    );

    // Curve fitting with the top-ranked families vs the PR model.
    let mut mae_rows = Vec::new();
    let mut json_fits = Vec::new();
    for (d, _) in ranked.iter().take(5) {
        let fit = fit_multiplier_surface(m.as_ref(), d.kind()).expect("LM converges");
        let mae = fit.estimation_mae(m.as_ref());
        mae_rows.push(vec![
            format!("curve fit ({})", d.kind().name()),
            format!("{:.1}", mae),
        ]);
        json_fits.push(json!({"method": format!("cf_{}", d.kind().name()), "mae": mae}));
    }
    for degree in [2usize, 3, 4] {
        let pr = PrModel::fit(m.as_ref(), degree);
        let mae = pr.estimation_mae(m.as_ref());
        mae_rows.push(vec![
            format!("polynomial regression (degree {degree})"),
            format!("{:.1}", mae),
        ]);
        json_fits.push(json!({"method": format!("pr_d{degree}"), "mae": mae, "r2": pr.r2()}));
    }
    print_table(
        "Fig 3 (right): estimation MAE, curve fitting vs PR",
        &["method", "MAE"],
        &mae_rows,
    );
    println!("\nExpected shape (paper): every distribution-based curve fit has a");
    println!("far larger estimation MAE than the PR models.");
    save_json(
        "fig3",
        &json!({
            "operator": clapped_axops::Mul8s::name(m.as_ref()),
            "distributions": ranked
                .iter()
                .take(5)
                .map(|(d, ks)| json!({"kind": d.kind().name(), "ks": ks}))
                .collect::<Vec<_>>(),
            "fits": json_fits,
        }),
    );
}
