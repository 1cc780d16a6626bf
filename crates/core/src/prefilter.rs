//! autoAx-style learned pre-filtering of the generative operator
//! catalog (Mrazek et al., arXiv 1902.10807).
//!
//! The generative catalog holds a thousand-plus distinct operators —
//! far too many to characterize exhaustively inside a DSE campaign,
//! since instantiating an operator into the framework costs error-model
//! fitting and per-configuration synthesis. autoAx's observation is
//! that cheap per-operator features predict application-level quality
//! and hardware cost well enough to prune the library down to a
//! Pareto-plausible subset *before* exploration:
//!
//! 1. label a small training subset of operators with their true
//!    application error (uniform-operator execution of the application
//!    model) and true accelerator cost (LUTs after synthesis),
//! 2. fit one quality and one cost surrogate
//!    ([`clapped_mlp::Regressor`]) from the catalog's cheap features
//!    to those labels,
//! 3. predict both objectives for every catalog entry and keep only
//!    operators within an ε band of the predicted Pareto front,
//! 4. materialize the survivors into a [`Catalog`] ready for
//!    [`Clapped::builder`](crate::Clapped::builder) and MBO.
//!
//! The pre-filter is deterministic: training-subset selection, model
//! seeds, and pruning are all pure functions of the catalog and the
//! [`PrefilterConfig`].
//!
//! Since the catalog grew statically *proved* error bounds
//! (`clapped-netlist`'s `errbound` interval analyzer), the feature
//! vector also carries `proved_wce` and `proved_error_rate` — sound
//! upper bounds computed without simulation. They reach both surrogates
//! for free through [`GenFeatures::to_vec`](clapped_axops::GenFeatures)
//! and give the quality model a second, independent error signal that
//! separates the proved-exact cluster (bound `0`) from near-exact
//! operators whose table MAE alone rounds to the same decade.

use crate::{Clapped, ClappedError, Result};
use clapped_axops::{Catalog, GenerativeCatalog};
use clapped_dse::Configuration;
use clapped_mlp::{Regressor, TrainConfig};

/// Pareto band width: an entry is pruned only when another entry's
/// *predictions* dominate it by at least this fraction of each
/// objective's predicted range. When the band holds fewer than
/// [`PrefilterConfig::keep_max`] entries, the pool is topped up with the
/// next-closest predicted Pareto fronts (NSGA-style peeling) — never
/// with the dominated interior.
const EPSILON: f64 = 0.05;
/// Hidden-layer sizes of both surrogate models.
const HIDDEN: [usize; 1] = [16];
/// Image size of the labelling application model (kept small — the
/// labels only feed the surrogates).
const LABEL_IMAGE_SIZE: usize = 32;
/// Convolution window of the uniform labelling configuration.
const LABEL_WINDOW: usize = 3;
/// Seed of the labelling framework.
const LABEL_SEED: u64 = 11;

/// Tuning knobs of the autoAx pre-filter.
#[derive(Debug, Clone)]
pub struct PrefilterConfig {
    /// Operators labelled with true quality/cost to train the
    /// surrogates (selected evenly across the catalog's error range;
    /// the exact operator is always included).
    pub train_count: usize,
    /// Upper bound on survivors (the exact operator always survives).
    pub keep_max: usize,
    /// Surrogate training configuration.
    pub train: TrainConfig,
}

impl Default for PrefilterConfig {
    fn default() -> Self {
        PrefilterConfig {
            train_count: 64,
            keep_max: 40,
            train: TrainConfig::default(),
        }
    }
}

/// The pre-filter's output: the survivor catalog plus everything needed
/// to audit the pruning decision.
#[derive(Debug)]
pub struct PrefilterReport {
    /// Materialized survivor operators, exact first — ready for
    /// [`Clapped::builder`](crate::Clapped::builder).
    pub catalog: Catalog,
    /// Indices of the survivors into the generative catalog's entries,
    /// in ascending order (always starts with 0, the exact operator).
    pub survivors: Vec<usize>,
    /// Indices of the entries labelled to train the surrogates.
    pub train_indices: Vec<usize>,
    /// Predicted application error (%) per generative-catalog entry —
    /// the pruning-plot x axis.
    pub predicted_quality: Vec<f64>,
    /// Predicted accelerator cost (LUTs) per generative-catalog entry —
    /// the pruning-plot y axis.
    pub predicted_cost: Vec<f64>,
    /// Entries pruned by the ε-Pareto band (before the `keep_max` cap).
    pub pruned: usize,
}

/// Runs the autoAx pre-filter over a built generative catalog.
///
/// # Errors
///
/// Returns [`ClappedError::BadConfiguration`] when the catalog is empty
/// or its first entry is not exact, and propagates labelling
/// (application evaluation, synthesis) and surrogate-training failures.
pub fn prefilter(gen: &GenerativeCatalog, cfg: &PrefilterConfig) -> Result<PrefilterReport> {
    let entries = gen.entries();
    if entries.is_empty() {
        return Err(ClappedError::BadConfiguration {
            reason: "cannot pre-filter an empty generative catalog".to_string(),
        });
    }
    if entries[0].features.mae != 0.0 {
        return Err(ClappedError::BadConfiguration {
            reason: "generative catalog entry 0 must be the exact operator".to_string(),
        });
    }
    let _span = clapped_obs::span("core.prefilter");

    // 1. Training subset: entries sorted by table MAE, sampled evenly
    // so the labels cover the whole error range; the exact operator
    // anchors the low end.
    let train_indices = select_train_indices(gen, cfg.train_count.max(2));

    // 2. True labels through a small labelling framework whose catalog
    // is exactly the training subset.
    let specs: Vec<(String, clapped_axops::MulArch)> = train_indices
        .iter()
        .map(|&i| (entries[i].name.clone(), entries[i].arch))
        .collect();
    let label_catalog = Catalog::from_specs(specs).map_err(|e| ClappedError::BadConfiguration {
        reason: format!("labelling catalog: {e}"),
    })?;
    let fw = Clapped::builder()
        .catalog(label_catalog)
        .image_size(LABEL_IMAGE_SIZE)
        .seed(LABEL_SEED)
        .build()?;
    let taps = LABEL_WINDOW * LABEL_WINDOW;
    let label_configs: Vec<Configuration> = (0..train_indices.len())
        .map(|j| {
            let mut c = Configuration::golden(LABEL_WINDOW);
            c.mul_indices = vec![j; taps];
            c
        })
        .collect();
    let labels: Vec<(f64, f64)> = fw.engine().try_evaluate_many(&label_configs, |_, c| {
        let quality = fw.evaluate_error(c)?.error_percent;
        let cost = fw.characterize_hw(c)?.luts as f64;
        Ok::<(f64, f64), ClappedError>((quality, cost))
    })?;

    // 3. Surrogates: catalog features → true quality / true cost.
    // Error-magnitude features and the quality target span four-plus
    // decades (table MAE 0.1 … 5 000, application error 0.01 % …
    // 60 %); both are log-compressed so MSE training resolves the
    // low-error region — the hypervolume-critical one — instead of
    // spending all its capacity on the junk tail. Predictions invert
    // the transform and clamp non-negative, so an extrapolating
    // surrogate cannot mint "better than exact" values that ε-dominate
    // the genuine front away.
    let xs: Vec<Vec<f64>> = train_indices
        .iter()
        .map(|&i| log_features(&entries[i].features.to_vec()))
        .collect();
    let ys_q: Vec<f64> = labels.iter().map(|&(q, _)| (1.0 + q.max(0.0)).ln()).collect();
    let ys_c: Vec<f64> = labels.iter().map(|&(_, c)| c).collect();
    let model_q = Regressor::fit(&xs, &ys_q, &HIDDEN, &cfg.train)?;
    let model_c = Regressor::fit(&xs, &ys_c, &HIDDEN, &cfg.train)?;

    let feats: Vec<Vec<f64>> = entries
        .iter()
        .map(|e| log_features(&e.features.to_vec()))
        .collect();
    let predicted_quality: Vec<f64> = feats
        .iter()
        .map(|x| model_q.predict(x).exp_m1().max(0.0))
        .collect();
    let predicted_cost: Vec<f64> = feats.iter().map(|x| model_c.predict(x).max(0.0)).collect();

    // 4. ε-band Pareto pruning over the predictions. A sparse band is
    // topped up by peeling successive predicted Pareto fronts — the
    // DSE pool must stay Pareto-plausible, so the dominated interior
    // never enters it. The cap then stratifies candidates by table-MAE
    // decade (a free *true* feature) and keeps the predicted-cheapest
    // operators of every stratum: the surrogate cannot resolve the
    // near-exact cluster (dozens of entries predict ≈0 error), yet the
    // DSE needs cheap *accurate* operators just as much as cheap noisy
    // ones, so quality strata get equal representation.
    let target = cfg.keep_max.max(1).min(entries.len());
    let mut survivors = epsilon_band_survivors(&predicted_quality, &predicted_cost, EPSILON);
    let pruned = entries.len() - survivors.len();
    top_up_with_next_fronts(&mut survivors, &predicted_quality, &predicted_cost, target);
    let mae_of: Vec<f64> = entries.iter().map(|e| e.features.mae).collect();
    survivors = stratified_cap(survivors, &mae_of, &predicted_cost, target);
    if survivors.first() != Some(&0) {
        survivors.insert(0, 0);
        survivors.truncate(target);
    }
    clapped_obs::observe("core.prefilter.survivors", survivors.len() as u64);

    let specs: Vec<(String, clapped_axops::MulArch)> = survivors
        .iter()
        .map(|&i| (entries[i].name.clone(), entries[i].arch))
        .collect();
    let catalog = Catalog::from_specs(specs).map_err(|e| ClappedError::BadConfiguration {
        reason: format!("survivor catalog: {e}"),
    })?;
    Ok(PrefilterReport {
        catalog,
        survivors,
        train_indices,
        predicted_quality,
        predicted_cost,
        pruned,
    })
}

/// Entry indices sampled evenly across the catalog's table-MAE range,
/// exact operator (index 0) first.
fn select_train_indices(gen: &GenerativeCatalog, count: usize) -> Vec<usize> {
    let entries = gen.entries();
    let mut by_mae: Vec<usize> = (1..entries.len()).collect();
    by_mae.sort_by(|&a, &b| {
        entries[a]
            .features
            .mae
            .total_cmp(&entries[b].features.mae)
            .then(a.cmp(&b))
    });
    let picks = count.min(entries.len()).saturating_sub(1);
    let mut train = vec![0usize];
    if picks > 0 && !by_mae.is_empty() {
        for k in 0..picks {
            // Even positions over the sorted-by-MAE list, endpoints
            // included.
            let pos = if picks == 1 {
                by_mae.len() - 1
            } else {
                k * (by_mae.len() - 1) / (picks - 1)
            };
            let idx = by_mae[pos];
            if !train.contains(&idx) {
                train.push(idx);
            }
        }
    }
    train
}

/// Indices (ascending) surviving ε-band Pareto pruning: index `p` is
/// pruned when some `q` beats it by at least `epsilon` of each
/// objective's range, in both objectives (minimization).
fn epsilon_band_survivors(quality: &[f64], cost: &[f64], epsilon: f64) -> Vec<usize> {
    let n = quality.len();
    let range = |v: &[f64]| {
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &x in v {
            lo = lo.min(x);
            hi = hi.max(x);
        }
        if hi > lo {
            hi - lo
        } else {
            1.0
        }
    };
    let (dq, dc) = (range(quality) * epsilon, range(cost) * epsilon);
    (0..n)
        .filter(|&p| {
            !(0..n).any(|q| {
                q != p && quality[q] <= quality[p] - dq && cost[q] <= cost[p] - dc
            })
        })
        .collect()
}

/// Sign-preserving log compression of a feature vector: heavy-tailed
/// error magnitudes become comparable decades apart, and the z-score
/// standardization inside [`Regressor::fit`] stays meaningful.
fn log_features(x: &[f64]) -> Vec<f64> {
    x.iter().map(|&v| v.signum() * (1.0 + v.abs()).ln()).collect()
}

/// Extends `survivors` to `target` indices by repeatedly peeling the
/// strict Pareto front of the not-yet-kept entries (NSGA-style
/// non-dominated sorting over the predictions). Entries enter in
/// front order, so the pool fills with the *nearest* runners-up to
/// the predicted front and the dominated interior stays out.
fn top_up_with_next_fronts(
    survivors: &mut Vec<usize>,
    quality: &[f64],
    cost: &[f64],
    target: usize,
) {
    let n = quality.len();
    let mut kept = vec![false; n];
    for &s in survivors.iter() {
        kept[s] = true;
    }
    while survivors.len() < target {
        let remaining: Vec<usize> = (0..n).filter(|&i| !kept[i]).collect();
        if remaining.is_empty() {
            return;
        }
        // Strict Pareto front of the remaining entries: nothing left
        // dominates them (≤ in both objectives, < in at least one).
        let front: Vec<usize> = remaining
            .iter()
            .copied()
            .filter(|&p| {
                !remaining.iter().any(|&q| {
                    q != p
                        && quality[q] <= quality[p]
                        && cost[q] <= cost[p]
                        && (quality[q] < quality[p] || cost[q] < cost[p])
                })
            })
            .collect();
        // `front` is never empty: minimal elements always exist, and
        // mutually-equal (or NaN-predicted) points are minimal too.
        for i in front {
            kept[i] = true;
            survivors.push(i);
        }
    }
}

/// Caps the candidate list to `keep_max` indices, stratified by
/// log-MAE decade: candidates split into equal bins over
/// `ln(1 + mae)`, each bin contributes its predicted-cheapest
/// operators round-robin until `keep_max` fill. Result is in
/// ascending index order.
fn stratified_cap(
    mut candidates: Vec<usize>,
    mae: &[f64],
    cost: &[f64],
    keep_max: usize,
) -> Vec<usize> {
    if candidates.len() <= keep_max {
        candidates.sort_unstable();
        return candidates;
    }
    let key = |i: usize| (1.0 + mae[i].max(0.0)).ln();
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &i in &candidates {
        lo = lo.min(key(i));
        hi = hi.max(key(i));
    }
    let bins = keep_max.clamp(1, 8);
    let width = ((hi - lo) / bins as f64).max(f64::MIN_POSITIVE);
    let mut strata: Vec<Vec<usize>> = vec![Vec::new(); bins];
    for &i in &candidates {
        let b = (((key(i) - lo) / width) as usize).min(bins - 1);
        strata[b].push(i);
    }
    for stratum in &mut strata {
        stratum.sort_by(|&a, &b| cost[a].total_cmp(&cost[b]).then(a.cmp(&b)));
    }
    // Round-robin across strata, cheapest-first within each, so every
    // populated quality decade is represented before any decade gets a
    // second pick.
    let mut kept: Vec<usize> = Vec::with_capacity(keep_max);
    let mut depth = 0;
    while kept.len() < keep_max {
        let mut took_any = false;
        for stratum in &strata {
            if let Some(&i) = stratum.get(depth) {
                took_any = true;
                kept.push(i);
                if kept.len() == keep_max {
                    break;
                }
            }
        }
        if !took_any {
            break;
        }
        depth += 1;
    }
    kept.sort_unstable();
    kept
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::{gen_cache_in_memory, GenSpace, GenerativeCatalog, Mul8s};
    use clapped_exec::Engine;

    fn small_gen() -> GenerativeCatalog {
        let space = GenSpace::quick();
        let engine = Engine::serial();
        let cache = gen_cache_in_memory(space.len() + 1);
        GenerativeCatalog::build(&space, &engine, &cache)
    }

    #[test]
    fn prefilter_prunes_and_keeps_exact_first() {
        let gen = small_gen();
        let cfg = PrefilterConfig {
            train_count: 8,
            keep_max: 10,
            train: TrainConfig {
                epochs: 40,
                ..TrainConfig::default()
            },
        };
        let report = prefilter(&gen, &cfg).expect("prefilter runs");
        assert!(report.catalog.len() <= 10);
        assert!(report.catalog.len() >= 2, "must keep exact plus approximations");
        assert_eq!(report.survivors[0], 0, "exact operator survives first");
        assert_eq!(
            report.catalog.at(0).expect("non-empty").name(),
            gen.entries()[0].name
        );
        assert_eq!(report.predicted_quality.len(), gen.len());
        assert_eq!(report.predicted_cost.len(), gen.len());
        assert!(report.pruned > 0, "a quick catalog still has dominated entries");
        assert!(report.train_indices.len() >= 2);
        assert_eq!(report.train_indices[0], 0);
        // Deterministic: same inputs, same survivors.
        let again = prefilter(&gen, &cfg).expect("prefilter reruns");
        assert_eq!(again.survivors, report.survivors);
    }

    #[test]
    fn prefilter_rejects_empty_and_inexact_catalogs() {
        let space = GenSpace::with_grids(&[], &[], &[], &[], &[], false);
        // The space still enumerates the exact spec first, so build a
        // catalog and strip nothing — instead check the empty-entry
        // guard through an impossible config.
        let engine = Engine::serial();
        let cache = gen_cache_in_memory(16);
        let gen = GenerativeCatalog::build(&space, &engine, &cache);
        assert_eq!(gen.len(), 1, "only the exact spec");
        let cfg = PrefilterConfig {
            train_count: 2,
            train: TrainConfig {
                epochs: 5,
                ..TrainConfig::default()
            },
            ..PrefilterConfig::default()
        };
        // A single-entry catalog cannot train a surrogate on one label
        // spread — it still runs (fit tolerates constant targets) or
        // errors cleanly; either way it must not panic.
        let _ = prefilter(&gen, &cfg);
    }

    #[test]
    fn epsilon_band_keeps_front_and_prunes_dominated() {
        let quality = vec![0.0, 1.0, 2.0, 10.0];
        let cost = vec![10.0, 5.0, 2.0, 9.0];
        let survivors = epsilon_band_survivors(&quality, &cost, 0.05);
        assert!(survivors.contains(&0));
        assert!(survivors.contains(&1));
        assert!(survivors.contains(&2));
        assert!(!survivors.contains(&3), "strictly dominated by index 2");
        // A huge epsilon keeps everything.
        assert_eq!(epsilon_band_survivors(&quality, &cost, 10.0).len(), 4);
    }

    #[test]
    fn top_up_peels_fronts_in_dominance_order() {
        // Front 0: {0, 1}. Front 1: {2, 3}. Interior: {4}.
        let quality = vec![0.0, 2.0, 1.0, 3.0, 4.0];
        let cost = vec![5.0, 1.0, 6.0, 2.0, 7.0];
        let mut pool = vec![0, 1];
        top_up_with_next_fronts(&mut pool, &quality, &cost, 4);
        assert_eq!(pool, vec![0, 1, 2, 3], "second front enters before the interior");
        top_up_with_next_fronts(&mut pool, &quality, &cost, 10);
        assert_eq!(pool.len(), 5, "target beyond the catalog keeps everything");
    }

    #[test]
    fn stratified_cap_keeps_every_mae_decade_cheapest_first() {
        // Keys ln(1+mae) = i/4 span [0, 9.75]; cost decreases with
        // index, so within each stratum the highest index is cheapest.
        let mae: Vec<f64> = (0..40).map(|i| (f64::from(i) * 0.25).exp_m1()).collect();
        let cost: Vec<f64> = (0..40).map(|i| 1000.0 - 10.0 * f64::from(i)).collect();
        let kept = stratified_cap((0..40).collect(), &mae, &cost, 8);
        assert_eq!(kept.len(), 8);
        assert!(kept.windows(2).all(|w| w[0] < w[1]), "ascending index order");
        assert!(kept.iter().any(|&i| mae[i] < 2.0), "near-exact stratum represented");
        assert!(kept.iter().any(|&i| mae[i] > 1000.0), "cheap noisy stratum represented");
        // A no-op cap passes candidates through sorted.
        let few = stratified_cap(vec![7, 3], &mae, &cost, 8);
        assert_eq!(few, vec![3, 7]);
    }
}
