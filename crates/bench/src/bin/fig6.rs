//! Fig. 6: actual vs PR-estimated average absolute relative error for
//! the five T_9..T_13 multipliers, with coefficient clipping
//! (Clipped_8 / Clipped_6 / Clipped_5).

use clapped_axops::{Catalog, Mul8s};
use clapped_bench::{print_table, save_json};
use clapped_errmodel::{rank_terms, ErrorStats, PrModel};
use serde_json::json;

/// Average absolute relative error of a PR model used as the operator.
fn est_rel(pr: &PrModel) -> f64 {
    ErrorStats::from_fns(
        |a, b| i32::from(pr.predict_i16(a, b)),
        |a, b| i32::from(a) * i32::from(b),
    )
    .mean_relative
}

fn main() {
    let catalog = Catalog::standard();
    // The paper's T_9..T_13 x-axis; operators chosen from the library's
    // accuracy middle band (see EXPERIMENTS.md for the class mapping).
    let aliases = ["mul8s_loa8", "mul8s_loa6", "mul8s_log", "mul8s_drum4", "mul8s_drum5"];
    let muls: Vec<_> = aliases
        .iter()
        .map(|a| catalog.get(a).expect("alias resolves"))
        .collect();
    let models = PrModel::fit_many(&muls, 3);
    let refs: Vec<&PrModel> = models.iter().collect();
    let ranking = rank_terms(&refs);

    let mut rows = Vec::new();
    let mut json_rows = Vec::new();
    for ((alias, m), pr) in aliases.iter().zip(&muls).zip(&models) {
        let actual = ErrorStats::of_multiplier(m.as_ref()).mean_relative;
        let estimated = est_rel(pr);
        let clipped8 = est_rel(&pr.clipped(&ranking, 8));
        let clipped6 = est_rel(&pr.clipped(&ranking, 6));
        let clipped5 = est_rel(&pr.clipped(&ranking, 5));
        rows.push(vec![
            format!("{alias} ({})", m.name()),
            format!("{actual:.4}"),
            format!("{estimated:.4}"),
            format!("{clipped8:.4}"),
            format!("{clipped6:.4}"),
            format!("{clipped5:.4}"),
        ]);
        json_rows.push(json!({
            "alias": alias, "operator": m.name(),
            "actual": actual, "estimated": estimated,
            "clipped8": clipped8, "clipped6": clipped6, "clipped5": clipped5,
        }));
    }
    print_table(
        "Fig 6: average absolute relative error, actual vs PR estimates",
        &["multiplier", "Actual", "Estimated", "Clipped_8", "Clipped_6", "Clipped_5"],
        &rows,
    );
    let mean_gap: f64 = json_rows
        .iter()
        .map(|r| {
            let a = r["actual"].as_f64().expect("actual");
            let e = r["estimated"].as_f64().expect("estimated");
            if a > 0.0 {
                (a - e).abs() / a
            } else {
                0.0
            }
        })
        .sum::<f64>()
        / json_rows.len() as f64;
    println!("\nmean |actual-estimated|/actual over the five multipliers: {:.1}%", 100.0 * mean_gap);
    println!("Expected shape (paper): estimates track the actual values closely");
    println!("and Clipped_5 degrades the estimates only marginally.");
    save_json("fig6", &json!({ "rows": json_rows, "mean_relative_gap": mean_gap }));
}
