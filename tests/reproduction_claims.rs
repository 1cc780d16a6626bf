//! Shape-level assertions of the paper's headline claims, at reduced
//! scale so they run inside the test suite. The full-size numbers live
//! in the `fig*` harnesses and EXPERIMENTS.md; these tests pin the
//! *direction* of every claim.

use clapped::axops::{Catalog, Mul8s};
use clapped::errmodel::curvefit::best_curve_fits;
use clapped::errmodel::{rank_terms, ErrorStats, PrModel};
use clapped::dse::{mbo, random_search, MboConfig};
use rand::Rng;

/// Section II: PR models estimate approximate multipliers better than
/// distribution-based curve fitting.
#[test]
fn pr_beats_curve_fitting_on_multipliers() {
    let catalog = Catalog::standard();
    for alias in ["mul8s_1KR3", "mul8s_1KVA", "mul8s_1L2D"] {
        let m = catalog.get(alias).expect("alias resolves");
        let pr_mae = PrModel::fit(m.as_ref(), 3).estimation_mae(m.as_ref());
        let cf = best_curve_fits(m.as_ref(), 1).expect("fit");
        let cf_mae = cf[0].estimation_mae(m.as_ref());
        assert!(
            pr_mae < cf_mae,
            "{alias}: PR {pr_mae} must beat curve fit {cf_mae}"
        );
    }
}

/// Section V-B: degree-3 PR models achieve near-unity R².
#[test]
fn degree3_pr_models_fit_the_whole_catalog() {
    let catalog = Catalog::standard();
    for m in catalog.iter() {
        let r2 = PrModel::fit(m.as_ref(), 3).r2();
        assert!(r2 > 0.97, "{}: R2 {r2}", m.name());
    }
}

/// Fig. 7: very small retrained coefficient subsets behave like an
/// accurate multiplier; enough coefficients recover the operator.
#[test]
fn coefficient_subsets_transition_from_exact_like_to_operator_like() {
    let catalog = Catalog::standard();
    let m = catalog.get("mul8s_1KR3").expect("alias resolves");
    let actual = ErrorStats::of_multiplier(m.as_ref()).mean_relative;
    let full = PrModel::fit(m.as_ref(), 3);
    let ranking = rank_terms(&[&full]);
    let rel_of = |pr: &PrModel| {
        ErrorStats::from_fns(
            |a, b| i32::from(pr.predict_i16(a, b)),
            |a, b| i32::from(a) * i32::from(b),
        )
        .mean_relative
    };
    let c2 = rel_of(&full.refit_top(m.as_ref(), &ranking, 2).expect("refit"));
    let c6 = rel_of(&full.refit_top(m.as_ref(), &ranking, 6).expect("refit"));
    // C2 misses most of the operator's error; C6 captures it.
    assert!(c2 < actual * 0.5, "C2 ({c2}) should look accurate vs actual {actual}");
    assert!(
        (c6 - actual).abs() / actual < 0.25,
        "C6 ({c6}) should approach the actual value {actual}"
    );
}

/// Fig. 12a (toy-scale): MBO finds at least the hypervolume of random
/// search on a deceptive bi-objective problem at the same budget.
#[test]
fn mbo_matches_or_beats_random_search() {
    let config = MboConfig {
        initial_samples: 20,
        iterations: 8,
        batch: 5,
        candidates: 40,
        reference: vec![1.5, 1.5],
        kappa: 1.0,
        explore_fraction: 0.1,
        seed: 6,
    };
    let objective = |x: &Vec<f64>| -> Vec<f64> {
        // A narrow valley: both objectives small only when the genes agree.
        let err = (x[0] - x[1]).abs() + 0.1 * x[0];
        let cost = 1.0 - x[0] * x[1] * 0.9;
        vec![err, cost]
    };
    let sample = |rng: &mut rand_chacha::ChaCha8Rng| -> Vec<f64> {
        vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]
    };
    let m = mbo(&config, sample, |x| x.clone(), objective).expect("mbo");
    let r = random_search(&config, sample, objective).expect("random");
    assert!(
        m.final_hypervolume() >= r.final_hypervolume() * 0.98,
        "MBO {} vs random {}",
        m.final_hypervolume(),
        r.final_hypervolume()
    );
}

/// Fig. 11 precondition: operator hardware cost correlates with
/// accuracy class — approximations buy LUTs.
#[test]
fn approximations_buy_hardware() {
    use clapped::netlist::{synthesize, SynthConfig};
    let catalog = Catalog::standard();
    let luts = |name: &str| -> usize {
        let m = catalog.get(name).expect("present");
        synthesize(m.netlist(), &SynthConfig::default())
            .expect("flow")
            .lut_count
    };
    let exact = luts("mul8s_exact");
    for cheap in ["mul8s_tr2", "mul8s_tr4", "mul8s_tr6", "mul8s_bam_v4_h1", "mul8s_bam_v6_h2"] {
        let l = luts(cheap);
        assert!(l <= exact, "{cheap}: {l} LUTs vs exact {exact}");
    }
    // Dynamic-range and LOA multipliers pay structural overhead (LODs,
    // shifters, dense carry-save rows) at 8 bits — a genuine effect the
    // cross-layer DSE has to weigh, not a bug.
    assert!(luts("mul8s_drum3") > 0);
}
