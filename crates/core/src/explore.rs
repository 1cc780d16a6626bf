//! End-to-end cross-layer DSE: MBO over application error and LUT
//! utilization (paper Section V-D).

use crate::framework::objective_or_sentinel;
use crate::{Clapped, ClappedError, MulRepr, Result};
use clapped_dse::{BatchOutcome, Configuration, MboConfig, MboState, SearchResult};
use clapped_mlp::{Regressor, TrainConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Which estimation path feeds an objective during DSE — the paper's
/// true-vs-ML dichotomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EstimationMode {
    /// Execute the behavioural model / synthesize the datapath.
    True,
    /// Predict with a trained MLP.
    Ml,
}

/// Options of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Estimation mode for the application-error objective.
    pub error_mode: EstimationMode,
    /// Estimation mode for the LUT objective.
    pub hw_mode: EstimationMode,
    /// Multiplier representation for ML features.
    pub repr: MulRepr,
    /// Training samples for ML-mode objectives.
    pub training_samples: usize,
    /// MBO loop parameters.
    pub mbo: MboConfig,
    /// Re-evaluate the Pareto points with the true estimators afterwards
    /// (the paper's `ACTUAL_EVAL` of Fig. 12b).
    pub actual_eval: bool,
    /// Section IV's refinement step: mutate each Pareto point this many
    /// times, evaluate the neighbours with the **true** estimators and
    /// merge improvements into the front (0 disables).
    pub refine_neighbors: usize,
    /// MLP training parameters.
    pub train: TrainConfig,
}

impl Default for ExploreOptions {
    fn default() -> Self {
        ExploreOptions {
            error_mode: EstimationMode::Ml,
            hw_mode: EstimationMode::Ml,
            repr: MulRepr::Coeffs(4),
            training_samples: 150,
            mbo: MboConfig {
                initial_samples: 20,
                iterations: 8,
                batch: 10,
                candidates: 50,
                reference: vec![30.0, 4000.0],
                kappa: 1.0,
                explore_fraction: 0.1,
                seed: 0,
            },
            actual_eval: true,
            refine_neighbors: 0,
            train: TrainConfig {
                epochs: 150,
                ..TrainConfig::default()
            },
        }
    }
}

/// One Pareto design point of an exploration run.
#[derive(Debug, Clone)]
pub struct ParetoPoint {
    /// The configuration.
    pub config: Configuration,
    /// Objectives as seen by the search (`[error %, LUTs]`).
    pub searched: [f64; 2],
    /// True objectives, when `actual_eval` was requested.
    pub actual: Option<[f64; 2]>,
}

/// The outcome of [`explore`].
#[derive(Debug, Clone)]
pub struct ExploreResult {
    /// Full search trace.
    pub search: SearchResult<Configuration>,
    /// Pareto points (with actual re-evaluation when requested).
    pub pareto: Vec<ParetoPoint>,
}

impl ExploreResult {
    /// DoF diversity summary over the Pareto set: how many points use a
    /// single multiplier type, stride 2, downsampling, and each scale —
    /// the paper's Fig. 12b analysis.
    pub fn dof_summary(&self) -> DofSummary {
        let mut s = DofSummary::default();
        for p in &self.pareto {
            let c = &p.config;
            let first = c.active_mul_indices()[0];
            if c.active_mul_indices().iter().all(|&i| i == first) {
                s.uniform_multiplier += 1;
            }
            if c.stride > 1 {
                s.strided += 1;
            }
            if c.downsample {
                s.downsampled += 1;
            }
            match c.scale {
                1 => s.scale1 += 1,
                2 => s.scale2 += 1,
                _ => s.scale3plus += 1,
            }
        }
        s.total = self.pareto.len();
        s
    }
}

/// Pareto-set DoF diversity counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DofSummary {
    /// Number of Pareto points.
    pub total: usize,
    /// Points whose taps all use one multiplier type.
    pub uniform_multiplier: usize,
    /// Points with stride > 1.
    pub strided: usize,
    /// Points with downsampling enabled.
    pub downsampled: usize,
    /// Points with scale 1.
    pub scale1: usize,
    /// Points with scale 2.
    pub scale2: usize,
    /// Points with scale 3 or more.
    pub scale3plus: usize,
}

/// Runs the full CLAppED exploration: builds the requested objective
/// functions (true or ML-predicted), runs MBO and extracts the Pareto
/// front.
///
/// # Errors
///
/// Propagates evaluation, training and search errors.
pub fn explore(fw: &Clapped, opts: &ExploreOptions) -> Result<ExploreResult> {
    // Train ML models if any objective runs in ML mode.
    let need_ml = opts.error_mode == EstimationMode::Ml || opts.hw_mode == EstimationMode::Ml;
    let mut err_model: Option<Regressor> = None;
    let mut lut_model: Option<Regressor> = None;
    if need_ml {
        let (configs, xs, ys) =
            fw.make_error_dataset(opts.training_samples, opts.repr, fw.seed() ^ 0x7777)?;
        if opts.error_mode == EstimationMode::Ml {
            err_model = Some(fw.train_error_model(&xs, &ys, &opts.train)?);
        }
        if opts.hw_mode == EstimationMode::Ml {
            // LUT labels from true synthesis of the training configs,
            // with hardware (Table-I style) features.
            let mut lut_ys = Vec::with_capacity(configs.len());
            let mut hw_xs = Vec::with_capacity(configs.len());
            for c in &configs {
                lut_ys.push(fw.characterize_hw(c)?.luts as f64);
                hw_xs.push(fw.encode_hw(c)?);
            }
            lut_model = Some(Regressor::fit(&hw_xs, &lut_ys, &[32, 16], &opts.train)?);
        }
    }

    // Pure true-mode evaluations are content-addressed: identical
    // configurations replay from the framework's result cache instead of
    // re-running the application model and synthesis. ML-mode objectives
    // depend on the freshly trained models, so they are never cached.
    let pure_true =
        opts.error_mode == EstimationMode::True && opts.hw_mode == EstimationMode::True;
    let objective = |c: &Configuration| -> Vec<f64> {
        let err = match (&opts.error_mode, &err_model) {
            (EstimationMode::Ml, Some(m)) => m.predict(&fw.encode(c, opts.repr)),
            _ => objective_or_sentinel(fw.evaluate_error(c).map(|r| r.error_percent)),
        };
        let luts = match (&opts.hw_mode, &lut_model) {
            (EstimationMode::Ml, Some(m)) => {
                objective_or_sentinel(fw.encode_hw(c).map(|x| m.predict(&x)))
            }
            _ => objective_or_sentinel(fw.characterize_hw(c).map(|r| r.luts as f64)),
        };
        vec![err.max(0.0), luts.max(0.0)]
    };

    // Drive MBO through the shared stepping path: every candidate batch
    // fans out over the framework's evaluation engine, and each
    // evaluation records its configuration digest (checkpointable, and
    // replayable from a warm cache). Results are bit-identical at any
    // thread count: candidates are sampled serially, outcomes return in
    // candidate order, and the objectives are pure.
    let mut state = MboState::new(&opts.mbo).map_err(ClappedError::Dse)?;
    let mut evaluate_batch = |cs: &[Configuration]| -> Vec<BatchOutcome> {
        if pure_true {
            // Shared with `crate::Session`: content-addressed true
            // objectives, replayable from a warm cache.
            return fw.true_outcomes_cached(cs);
        }
        fw.engine().evaluate_many(cs, |_, c| BatchOutcome {
            objectives: objective(c),
            digest: fw.config_digest(c),
        })
    };
    while !state.is_complete() {
        step_mbo(fw, &mut state, opts.repr, &mut evaluate_batch)?;
    }
    let search = state.into_result();

    let mut pareto = Vec::new();
    for idx in search.pareto_indices() {
        let (config, obj) = &search.evaluated[idx];
        let actual = if opts.actual_eval {
            let err = fw.evaluate_error(config)?.error_percent;
            let luts = fw.characterize_hw(config)?.luts as f64;
            Some([err, luts])
        } else {
            None
        };
        pareto.push(ParetoPoint {
            config: config.clone(),
            searched: [obj[0], obj[1]],
            actual,
        });
    }

    // Section IV refinement: local neighbourhood search around the front
    // with true evaluations.
    if opts.refine_neighbors > 0 {
        let mut rng = ChaCha8Rng::seed_from_u64(opts.mbo.seed ^ 0x5EED);
        let space = fw.space().clone();
        let mut candidates: Vec<ParetoPoint> = pareto.clone();
        // Mutate every neighbour first (one serial RNG stream), then
        // evaluate them all on the engine.
        let mut neighbours = Vec::with_capacity(pareto.len() * opts.refine_neighbors);
        for p in &pareto {
            for _ in 0..opts.refine_neighbors {
                let mut neighbour = p.config.clone();
                space.mutate(&mut neighbour, &mut rng);
                neighbours.push(neighbour);
            }
        }
        let true_objs = fw.engine().try_evaluate_many(&neighbours, |_, c| {
            let err = fw.evaluate_error(c)?.error_percent;
            let luts = fw.characterize_hw(c)?.luts as f64;
            Ok::<[f64; 2], ClappedError>([err, luts])
        })?;
        for (neighbour, [err, luts]) in neighbours.into_iter().zip(true_objs) {
            candidates.push(ParetoPoint {
                config: neighbour,
                searched: [err, luts],
                actual: Some([err, luts]),
            });
        }
        // Non-dominated filter over true objectives where available.
        let objs: Vec<Vec<f64>> = candidates
            .iter()
            .map(|p| p.actual.unwrap_or(p.searched).to_vec())
            .collect();
        let front = clapped_dse::pareto_front(&objs);
        pareto = front.into_iter().map(|i| candidates[i].clone()).collect();
    }
    Ok(ExploreResult { search, pareto })
}

/// Advances `state` by one MBO phase over `fw`'s design space. This is
/// the one stepping path of [`explore`] and [`crate::Session::step`], so
/// their trajectories agree by construction: both sample from the same
/// space and fit the surrogate on the same features. Those features are
/// the behavioural representation plus, when the operator library is
/// characterized, the hardware (Table-I) features, in which the LUT
/// objective is nearly linear.
pub(crate) fn step_mbo(
    fw: &Clapped,
    state: &mut MboState<Configuration>,
    repr: MulRepr,
    evaluate_batch: &mut impl FnMut(&[Configuration]) -> Vec<BatchOutcome>,
) -> Result<()> {
    let hw_ready = fw.op_library().is_ok();
    let features = |c: &Configuration| -> Vec<f64> {
        let mut v = fw.encode(c, repr);
        if hw_ready {
            if let Ok(h) = fw.encode_hw(c) {
                v.extend(h);
            }
        }
        v
    };
    let mut sample = |rng: &mut ChaCha8Rng| fw.space().sample(rng);
    state.step(&mut sample, &features, evaluate_batch).map_err(ClappedError::Dse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Clapped;

    #[test]
    fn neighborhood_refinement_never_worsens_the_true_front() {
        let fw = Clapped::builder().image_size(16).build().unwrap();
        let base_opts = ExploreOptions {
            error_mode: EstimationMode::True,
            hw_mode: EstimationMode::True,
            training_samples: 0,
            mbo: clapped_dse::MboConfig {
                initial_samples: 6,
                iterations: 1,
                batch: 3,
                candidates: 8,
                reference: vec![40.0, 5000.0],
                kappa: 1.0,
                explore_fraction: 0.1,
                seed: 4,
            },
            actual_eval: true,
            refine_neighbors: 0,
            ..ExploreOptions::default()
        };
        let plain = explore(&fw, &base_opts).unwrap();
        let refined = explore(
            &fw,
            &ExploreOptions {
                refine_neighbors: 2,
                ..base_opts
            },
        )
        .unwrap();
        let hv = |points: &[ParetoPoint]| {
            let objs: Vec<Vec<f64>> = points
                .iter()
                .map(|p| p.actual.expect("actual eval on").to_vec())
                .collect();
            clapped_dse::hypervolume(&objs, &[40.0, 5000.0])
        };
        assert!(hv(&refined.pareto) >= hv(&plain.pareto) - 1e-9);
        // Refined front members are mutually non-dominated.
        for a in &refined.pareto {
            for b in &refined.pareto {
                let (oa, ob) = (a.actual.unwrap(), b.actual.unwrap());
                assert!(!clapped_dse::dominates(&oa, &ob) || oa == ob);
            }
        }
    }

    #[test]
    fn exploration_is_thread_count_independent() {
        let opts = ExploreOptions {
            error_mode: EstimationMode::True,
            hw_mode: EstimationMode::True,
            training_samples: 0,
            mbo: clapped_dse::MboConfig {
                initial_samples: 6,
                iterations: 2,
                batch: 3,
                candidates: 10,
                reference: vec![40.0, 5000.0],
                kappa: 1.0,
                explore_fraction: 0.1,
                seed: 2,
            },
            actual_eval: false,
            ..ExploreOptions::default()
        };
        let serial_fw = Clapped::builder()
            .image_size(16)
            .exec(clapped_exec::ExecConfig::serial())
            .build()
            .unwrap();
        let wide_fw = Clapped::builder()
            .image_size(16)
            .exec(clapped_exec::ExecConfig::with_jobs(8))
            .build()
            .unwrap();
        let a = explore(&serial_fw, &opts).unwrap();
        let b = explore(&wide_fw, &opts).unwrap();
        assert_eq!(a.search.evaluated.len(), b.search.evaluated.len());
        for ((ca, oa), (cb, ob)) in a.search.evaluated.iter().zip(&b.search.evaluated) {
            assert_eq!(ca, cb, "candidate streams diverged");
            for (x, y) in oa.iter().zip(ob) {
                assert_eq!(x.to_bits(), y.to_bits(), "objectives not bit-identical");
            }
        }
        for (&(na, ha), &(nb, hb)) in a.search.hv_trace.iter().zip(&b.search.hv_trace) {
            assert_eq!(na, nb);
            assert_eq!(ha.to_bits(), hb.to_bits(), "hypervolume trace diverged");
        }
        assert_eq!(a.search.pareto_indices(), b.search.pareto_indices());
        // True-mode evaluations populated the result cache.
        assert!(wide_fw.cache_stats().insertions > 0);
    }

    #[test]
    fn true_mode_exploration_finds_pareto_points() {
        let fw = Clapped::builder().image_size(16).build().unwrap();
        let opts = ExploreOptions {
            error_mode: EstimationMode::True,
            hw_mode: EstimationMode::True,
            training_samples: 0,
            mbo: clapped_dse::MboConfig {
                initial_samples: 6,
                iterations: 2,
                batch: 3,
                candidates: 10,
                reference: vec![40.0, 5000.0],
                kappa: 1.0,
                explore_fraction: 0.1,
                seed: 2,
            },
            actual_eval: false,
            ..ExploreOptions::default()
        };
        let result = explore(&fw, &opts).unwrap();
        assert_eq!(result.search.evaluated.len(), 6 + 2 * 3);
        assert!(!result.pareto.is_empty());
        // Pareto points must be mutually non-dominated.
        for a in &result.pareto {
            for b in &result.pareto {
                assert!(!clapped_dse::dominates(&a.searched, &b.searched));
            }
        }
        let s = result.dof_summary();
        assert_eq!(s.total, result.pareto.len());
    }
}
