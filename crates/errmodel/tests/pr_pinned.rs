//! PR model fits, pinned digest for digest.
//!
//! Each digest covers the IEEE bits of every coefficient and the R² of a
//! set of fits: the 24 standard-catalog multipliers at degrees 1–6, the
//! ten non-exact standard adders (the `adders_pr` set) and retrained
//! `C_k` subsets ranked over the whole catalog. A change to the fitting
//! pass, the feature evaluation, the normal equations or the solve that
//! moves a single bit of a single fit fails here.

use clapped_axops::adders::{standard_adders, Add8s};
use clapped_axops::Catalog;
use clapped_errmodel::{rank_terms, PrModel};
use clapped_exec::Fnv64;

fn digest<'a>(models: impl IntoIterator<Item = &'a PrModel>) -> u64 {
    let mut h = Fnv64::new();
    for pr in models {
        for c in pr.coeffs() {
            h.write_u64(c.to_bits());
        }
        h.write_u64(pr.r2().to_bits());
    }
    h.finish()
}

/// Both the library fit and lone fits, one digest per degree.
#[test]
fn catalog_multiplier_fits_are_pinned() {
    let catalog = Catalog::standard();
    for (degree, pinned) in [
        (1, 0x0ef4_a4a6_305b_90e5),
        (2, 0x0c93_4d53_2300_5364),
        (3, 0x1a69_9132_09d0_16c7),
        (4, 0xbba3_c355_bc1b_dbc9),
        (5, 0x8d56_5121_d826_8408),
        (6, 0x512d_0a0e_146e_4c85),
    ] {
        let many = PrModel::fit_many(catalog.muls(), degree);
        assert_eq!(digest(&many), pinned, "fit_many, degree {degree}");
        let lone: Vec<PrModel> = catalog
            .iter()
            .map(|m| PrModel::fit(m.as_ref(), degree))
            .collect();
        assert_eq!(digest(&lone), pinned, "fit, degree {degree}");
    }
}

#[test]
fn adder_fits_are_pinned() {
    let models: Vec<PrModel> = standard_adders()
        .iter()
        .filter(|adder| adder.name() != "add8s_exact")
        .map(|adder| PrModel::fit_fn(|a, b| f64::from(adder.add(a, b)), 3))
        .collect();
    assert_eq!(models.len(), 10);
    assert_eq!(digest(&models), 0x2ab6_a10d_1a10_16bb);
}

#[test]
fn retrained_subset_fits_are_pinned() {
    let catalog = Catalog::standard();
    let models = PrModel::fit_many(catalog.muls(), 3);
    let refs: Vec<&PrModel> = models.iter().collect();
    let ranking = rank_terms(&refs);
    let mut refits = Vec::new();
    for name in ["mul8s_tr4", "mul8s_bam_v6_h2", "mul8s_drum4"] {
        let idx = catalog.index_of(name).expect("standard operator");
        for keep in [3, 5, 8] {
            let refit = models[idx]
                .refit_top(catalog.muls()[idx].as_ref(), &ranking, keep)
                .expect("subset basis is well conditioned");
            assert_eq!(refit.terms().len(), keep);
            refits.push(refit);
        }
    }
    assert_eq!(digest(&refits), 0x6269_2afb_e061_2fbf);
}
