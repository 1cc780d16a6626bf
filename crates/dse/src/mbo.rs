//! Multi-objective Bayesian optimization (the paper's DSE method).
//!
//! The optimizer is an explicit-state machine, [`MboState`]: one
//! [`MboState::step`] call performs either the initial random sampling
//! phase or one acquisition iteration. [`mbo`] is the convenience driver
//! that steps to completion; the stepping form exists so runs can be
//! checkpointed between iterations (`MboState::to_checkpoint`) and
//! resumed bit-exactly.

use crate::gp::Gp;
use crate::hv::{hypervolume, HvFront};
use crate::pareto::pareto_front;
use crate::{DseError, Result, OBJECTIVE_SENTINEL};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// MBO parameters. The paper's run evaluates 10 new samples per
/// iteration, selected from 50 acquisition candidates.
#[derive(Debug, Clone, PartialEq)]
pub struct MboConfig {
    /// Random design points evaluated before the first surrogate fit.
    pub initial_samples: usize,
    /// Number of optimization iterations.
    pub iterations: usize,
    /// True evaluations per iteration.
    pub batch: usize,
    /// Random candidates scored by the acquisition function per
    /// iteration.
    pub candidates: usize,
    /// Hypervolume reference point (must be no better than any
    /// reachable objective vector).
    pub reference: Vec<f64>,
    /// Optimism factor: the acquisition scores candidates at
    /// `mean − kappa·std` (lower confidence bound for minimization).
    /// Zero disables exploration.
    pub kappa: f64,
    /// Fraction of each batch filled with uniformly random samples
    /// instead of acquisition picks (ε-greedy exploration; guards
    /// against surrogate lock-in). `0.0` disables.
    pub explore_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for MboConfig {
    fn default() -> Self {
        MboConfig {
            initial_samples: 20,
            iterations: 10,
            batch: 10,
            candidates: 50,
            reference: vec![1.0, 1.0],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 0,
        }
    }
}

impl MboConfig {
    /// Total true evaluations an uninterrupted run makes,
    /// `initial_samples + iterations × batch`, or `None` when that count
    /// does not fit in `usize`.
    pub fn planned_evaluations(&self) -> Option<usize> {
        self.iterations.checked_mul(self.batch)?.checked_add(self.initial_samples)
    }
}

/// Checks what every state — new or restored from a checkpoint — relies
/// on: a hypervolume reference point with at least one coordinate, all
/// finite (so no step reaches [`hypervolume`]'s dimension assertion),
/// and a plan whose evaluation count fits in `usize`.
pub(crate) fn check_config(config: &MboConfig) -> Result<()> {
    let reference = &config.reference;
    if reference.is_empty() {
        return Err(DseError::BadObjectives {
            reason: "empty hypervolume reference point".to_string(),
        });
    }
    if reference.iter().any(|r| !r.is_finite()) {
        return Err(DseError::BadObjectives {
            reason: format!("non-finite reference point {reference:?}"),
        });
    }
    if config.planned_evaluations().is_none() {
        return Err(DseError::BadPlan {
            reason: format!(
                "{} initial samples + {} iterations * {} per batch overflows usize",
                config.initial_samples, config.iterations, config.batch
            ),
        });
    }
    Ok(())
}

/// The outcome of a search run (MBO or a baseline).
#[derive(Debug, Clone)]
pub struct SearchResult<C> {
    /// Every evaluated design point with its objective vector, in
    /// evaluation order.
    pub evaluated: Vec<(C, Vec<f64>)>,
    /// Hypervolume of the evaluated set after every batch:
    /// `(evaluation count, hypervolume)`.
    pub hv_trace: Vec<(usize, f64)>,
}

impl<C> SearchResult<C> {
    /// Indices (into `evaluated`) of the Pareto-optimal points.
    pub fn pareto_indices(&self) -> Vec<usize> {
        let objs: Vec<&[f64]> = self.evaluated.iter().map(|(_, o)| o.as_slice()).collect();
        pareto_front(&objs)
    }

    /// Final hypervolume.
    pub fn final_hypervolume(&self) -> f64 {
        self.hv_trace.last().map(|&(_, h)| h).unwrap_or(0.0)
    }
}

/// Explicit, resumable state of an MBO run.
///
/// Drive it with [`MboState::step`] until [`MboState::is_complete`];
/// between steps the state can be serialized with
/// `MboState::to_checkpoint` and later restored bit-exactly (including
/// the RNG stream position) with `MboState::from_checkpoint`.
#[derive(Debug, Clone)]
pub struct MboState<C> {
    pub(crate) config: MboConfig,
    pub(crate) rng: ChaCha8Rng,
    pub(crate) evaluated: Vec<(C, Vec<f64>)>,
    /// Content digest of each recorded evaluation (parallel to
    /// `evaluated`; `0` when the evaluator did not supply one). Persisted
    /// in checkpoints so a resumed run can replay cache hits.
    pub(crate) eval_digests: Vec<u64>,
    pub(crate) hv_trace: Vec<(usize, f64)>,
    pub(crate) initial_done: bool,
    pub(crate) iterations_done: usize,
    /// Surrogate features of `evaluated`'s points, index for index,
    /// each `encode`d the first time it trains a surrogate (empty until
    /// then; a failed evaluation never trains one). Not checkpointed: a
    /// restored state starts empty and refills them on its next fit.
    pub(crate) features: Vec<Vec<f64>>,
}

/// One candidate's true evaluation, as the batch evaluator of
/// [`MboState::step`] returns it: one outcome per candidate, in
/// candidate order.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The objective vector (must match the reference dimension).
    pub objectives: Vec<f64>,
    /// Stable content digest of the evaluated configuration, or `0`
    /// when the evaluator does not track digests.
    pub digest: u64,
}

impl<C: Clone> MboState<C> {
    /// Creates the initial state for `config`.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::BadObjectives`] when the hypervolume
    /// reference point is empty or contains non-finite coordinates, and
    /// [`DseError::BadPlan`] when [`MboConfig::planned_evaluations`]
    /// overflows.
    pub fn new(config: &MboConfig) -> Result<MboState<C>> {
        check_config(config)?;
        Ok(MboState {
            config: config.clone(),
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            evaluated: Vec::new(),
            eval_digests: Vec::new(),
            hv_trace: Vec::new(),
            initial_done: false,
            iterations_done: 0,
            features: Vec::new(),
        })
    }

    /// The configuration this run was started with.
    pub fn config(&self) -> &MboConfig {
        &self.config
    }

    /// Evaluated points so far, in evaluation order.
    pub fn evaluated(&self) -> &[(C, Vec<f64>)] {
        &self.evaluated
    }

    /// Content digest of each evaluation in [`MboState::evaluated`]
    /// order (`0` for evaluators that do not track digests). Persisted
    /// in checkpoints, so a resumed run knows which results a warm
    /// cache can replay.
    pub fn eval_digests(&self) -> &[u64] {
        &self.eval_digests
    }

    /// Iterations completed so far (excludes the initial phase).
    pub fn iterations_done(&self) -> usize {
        self.iterations_done
    }

    /// True once the initial phase and all iterations have run.
    pub fn is_complete(&self) -> bool {
        self.initial_done && self.iterations_done >= self.config.iterations
    }

    /// Evaluations recorded so far.
    pub fn evaluations_done(&self) -> usize {
        self.evaluated.len()
    }

    /// Total evaluations an uninterrupted run makes
    /// ([`MboConfig::planned_evaluations`], which every state's
    /// configuration passed). With `evaluations_done` this gives a
    /// long-running job server its progress fraction.
    pub fn planned_evaluations(&self) -> usize {
        self.config.planned_evaluations().unwrap_or(usize::MAX)
    }

    /// Hypervolume of the evaluated set after the most recently
    /// completed phase (`0.0` before the initial phase finishes).
    pub fn current_hypervolume(&self) -> f64 {
        self.hv_trace.last().map(|&(_, h)| h).unwrap_or(0.0)
    }

    /// Indices (into [`MboState::evaluated`]) of the currently
    /// Pareto-optimal points — the non-consuming mid-run counterpart of
    /// [`SearchResult::pareto_indices`], so a serving layer can report
    /// or checkpoint a partial front without ending the run.
    pub fn pareto_indices(&self) -> Vec<usize> {
        let objs: Vec<&[f64]> = self.evaluated.iter().map(|(_, o)| o.as_slice()).collect();
        pareto_front(&objs)
    }

    /// Consumes the state into a [`SearchResult`].
    pub fn into_result(self) -> SearchResult<C> {
        SearchResult {
            evaluated: self.evaluated,
            hv_trace: self.hv_trace,
        }
    }

    /// Appends the hypervolume of the current evaluated set to the
    /// trace. Called after each completed phase.
    fn push_hv(&mut self) {
        let objs: Vec<&[f64]> = self.evaluated.iter().map(|(_, o)| o.as_slice()).collect();
        let hv = hypervolume(&objs, &self.config.reference);
        self.hv_trace.push((self.evaluated.len(), hv));
        clapped_obs::gauge_set("dse.mbo.hypervolume", hv);
        clapped_obs::emit_point(
            "dse.mbo.hv",
            &[("evals", self.evaluated.len() as f64), ("hv", hv)],
        );
    }

    /// Records a batch of outcomes against the candidates they evaluate,
    /// in candidate order. The evaluator must return exactly one outcome
    /// per candidate, each matching the reference dimension.
    fn record_batch(&mut self, candidates: Vec<C>, outcomes: Vec<BatchOutcome>) -> Result<()> {
        if outcomes.len() != candidates.len() {
            return Err(DseError::BadObjectives {
                reason: format!(
                    "batch evaluator returned {} outcomes for {} candidates",
                    outcomes.len(),
                    candidates.len()
                ),
            });
        }
        for (c, BatchOutcome { objectives, digest }) in candidates.into_iter().zip(outcomes) {
            if objectives.len() != self.config.reference.len() {
                return Err(DseError::BadObjectives {
                    reason: format!(
                        "objective dim {} vs reference dim {}",
                        objectives.len(),
                        self.config.reference.len()
                    ),
                });
            }
            self.evaluated.push((c, objectives));
            self.eval_digests.push(digest);
        }
        Ok(())
    }

    /// Advances the run by one phase: the initial random-sampling phase
    /// on the first call, one acquisition iteration afterwards. No-op
    /// when [`MboState::is_complete`].
    ///
    /// All candidates of the phase are sampled *before* `evaluate_batch`
    /// runs, and candidate evaluation never touches the RNG, so the
    /// search trajectory depends only on the returned objectives. The
    /// evaluator is handed the full batch at once and may compute the
    /// outcomes in parallel (for example with `clapped-exec`'s
    /// `Engine`), as long as it returns them in candidate order.
    ///
    /// An outcome carrying [`OBJECTIVE_SENTINEL`] marks a failed
    /// evaluation: it is recorded, checkpointed and counted in the
    /// hypervolume trace, but no surrogate trains on it. Until one
    /// evaluation has succeeded, an iteration samples its whole batch at
    /// random.
    ///
    /// `encode` maps a candidate to its surrogate features and must be
    /// the same pure function at every step of a run: the state encodes
    /// each evaluated point once, the first time it trains a surrogate,
    /// and keeps the row for every later fit.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::BadObjectives`] when the outcome count does
    /// not match the batch or an objective vector does not match the
    /// reference dimension, and propagates surrogate failures.
    pub fn step(
        &mut self,
        sample: &mut impl FnMut(&mut ChaCha8Rng) -> C,
        encode: &impl Fn(&C) -> Vec<f64>,
        evaluate_batch: &mut impl FnMut(&[C]) -> Vec<BatchOutcome>,
    ) -> Result<()> {
        if !self.initial_done {
            let batch: Vec<C> = (0..self.config.initial_samples)
                .map(|_| sample(&mut self.rng))
                .collect();
            let outcomes = {
                let _span = clapped_obs::span("dse.mbo.evaluate");
                evaluate_batch(&batch)
            };
            self.record_batch(batch, outcomes)?;
            self.initial_done = true;
            self.push_hv();
            return Ok(());
        }
        if self.iterations_done >= self.config.iterations {
            return Ok(());
        }

        // Surrogates train only on evaluations that did not fail: a
        // sentinel target would give its GP an infinite variance.
        let train: Vec<usize> = (0..self.evaluated.len())
            .filter(|&i| !self.evaluated[i].1.contains(&OBJECTIVE_SENTINEL))
            .collect();
        let picked = if train.is_empty() {
            // Nothing has succeeded yet: there is nothing to fit, so the
            // whole batch explores.
            (0..self.config.batch)
                .map(|_| sample(&mut self.rng))
                .collect()
        } else {
            self.acquire(&train, sample, encode)?
        };
        let outcomes = {
            let _span = clapped_obs::span("dse.mbo.evaluate");
            evaluate_batch(&picked)
        };
        self.record_batch(picked, outcomes)?;
        self.iterations_done += 1;
        self.push_hv();
        Ok(())
    }

    /// One iteration's picks: fits the surrogates on the evaluations
    /// indexed by `train`, then fills the guided part of the batch by
    /// predicted hypervolume gain and the rest at random.
    fn acquire(
        &mut self,
        train: &[usize],
        sample: &mut impl FnMut(&mut ChaCha8Rng) -> C,
        encode: &impl Fn(&C) -> Vec<f64>,
    ) -> Result<Vec<C>> {
        let d = self.config.reference.len();
        self.features.resize(self.evaluated.len(), Vec::new());
        for &i in train {
            if self.features[i].is_empty() {
                self.features[i] = encode(&self.evaluated[i].0);
            }
        }
        let xs: Vec<&[f64]> = train.iter().map(|&i| self.features[i].as_slice()).collect();
        let gps = {
            let _span = clapped_obs::span("dse.mbo.gp_fit");
            let targets: Vec<Vec<f64>> = (0..d)
                .map(|k| train.iter().map(|&i| self.evaluated[i].1[k]).collect())
                .collect();
            Gp::fit_many(&xs, &targets)?
        };
        let _span = clapped_obs::span("dse.mbo.acquisition");
        // Acquisition: optimistic (LCB) predictions, ranked by exclusive
        // HV contribution over the current true front. Selection is
        // sequential-greedy: each pick's predicted point joins the
        // working set so the batch spreads across the front instead of
        // clustering on one spot. Sample every candidate up front
        // (keeping the RNG stream identical to per-candidate prediction,
        // which never touched it), then predict all of them under every
        // objective's GP at once.
        let sampled: Vec<C> = (0..self.config.candidates)
            .map(|_| sample(&mut self.rng))
            .collect();
        clapped_obs::count("dse.mbo.candidates", sampled.len() as u64);
        let encoded: Vec<Vec<f64>> = sampled.iter().map(encode).collect();
        let mut preds: Vec<Vec<f64>> =
            sampled.iter().map(|_| Vec::with_capacity(d)).collect();
        for model in Gp::predict_many(&gps, &encoded)? {
            for (pred, (mean, var)) in preds.iter_mut().zip(model) {
                pred.push(mean - self.config.kappa * var.max(0.0).sqrt());
            }
        }
        let mut candidates: Vec<(Vec<f64>, C)> = preds.into_iter().zip(sampled).collect();
        // The working set is every evaluated point plus the picks so far;
        // a candidate's gain over it needs only its front.
        let mut working = HvFront::new(
            &self
                .evaluated
                .iter()
                .map(|(_, o)| o.as_slice())
                .collect::<Vec<_>>(),
            &self.config.reference,
        );
        let n_random =
            ((self.config.batch as f64) * self.config.explore_fraction).round() as usize;
        let n_guided = self.config.batch.saturating_sub(n_random).min(candidates.len());
        let mut picked: Vec<C> = Vec::with_capacity(self.config.batch);
        for _ in 0..n_guided {
            let best = candidates
                .iter()
                .enumerate()
                .map(|(i, (pred, _))| (i, working.gain(pred)))
                // total_cmp: predictions can in principle go non-finite;
                // NaN gains then sort low instead of panicking.
                .max_by(|a, b| a.1.total_cmp(&b.1));
            let Some((best_idx, _)) = best else { break };
            let (pred, c) = candidates.swap_remove(best_idx);
            working.insert(&pred);
            picked.push(c);
        }
        for _ in 0..self.config.batch - n_guided {
            picked.push(sample(&mut self.rng));
        }
        Ok(picked)
    }
}

/// Runs multi-objective Bayesian optimization to completion.
///
/// Each iteration fits one GP surrogate per objective on the evaluated
/// set, scores `candidates` random configurations by the **exclusive
/// hypervolume contribution** of their predicted objective vectors, and
/// truly evaluates the `batch` top-ranked ones.
///
/// An objective reports a failed evaluation as [`OBJECTIVE_SENTINEL`]:
/// the evaluation is recorded but left out of the surrogates. No
/// evaluation digests are recorded; step an [`MboState`] directly for
/// checkpoints.
///
/// # Errors
///
/// Returns [`DseError::BadObjectives`] when objective dimensions are
/// inconsistent with the reference point, [`DseError::BadPlan`] when the
/// plan overflows, and propagates surrogate failures.
pub fn mbo<C: Clone>(
    config: &MboConfig,
    mut sample: impl FnMut(&mut ChaCha8Rng) -> C,
    encode: impl Fn(&C) -> Vec<f64>,
    mut objective: impl FnMut(&C) -> Vec<f64>,
) -> Result<SearchResult<C>> {
    let mut state = MboState::new(config)?;
    let mut evaluate_batch = |cs: &[C]| -> Vec<BatchOutcome> {
        cs.iter().map(|c| BatchOutcome { objectives: objective(c), digest: 0 }).collect()
    };
    while !state.is_complete() {
        state.step(&mut sample, &encode, &mut evaluate_batch)?;
    }
    Ok(state.into_result())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A toy bi-objective problem: minimize (x, 1-x) over x in [0,1]
    /// encoded from two genes; the front is the diagonal.
    #[expect(clippy::ptr_arg, reason = "passed directly as an `FnMut(&Vec<f64>)` objective")]
    fn toy_objective(c: &Vec<f64>) -> Vec<f64> {
        let x = (c[0] + c[1]) / 2.0;
        vec![x, (1.0 - x) * (1.0 - x) + 0.05 * (c[0] - c[1]).abs()]
    }

    fn toy_sample(rng: &mut ChaCha8Rng) -> Vec<f64> {
        vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]
    }

    /// [`toy_objective`] as a batch evaluator without digests.
    fn toy_batch(cs: &[Vec<f64>]) -> Vec<BatchOutcome> {
        cs.iter().map(|c| BatchOutcome { objectives: toy_objective(c), digest: 0 }).collect()
    }

    #[test]
    fn mbo_improves_hypervolume() {
        let config = MboConfig {
            initial_samples: 10,
            iterations: 5,
            batch: 5,
            candidates: 30,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 3,
        };
        let result = mbo(&config, toy_sample, |c| c.clone(), toy_objective).unwrap();
        assert_eq!(result.evaluated.len(), 10 + 5 * 5);
        assert_eq!(result.hv_trace.len(), 6);
        let first = result.hv_trace[0].1;
        let last = result.final_hypervolume();
        assert!(last >= first, "hv must not decrease: {first} -> {last}");
        assert!(!result.pareto_indices().is_empty());
    }

    #[test]
    fn hv_trace_is_monotone() {
        let config = MboConfig {
            initial_samples: 8,
            iterations: 4,
            batch: 4,
            candidates: 20,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 11,
        };
        let result = mbo(&config, toy_sample, |c| c.clone(), toy_objective).unwrap();
        for w in result.hv_trace.windows(2) {
            assert!(w[1].1 >= w[0].1 - 1e-12);
        }
    }

    #[test]
    fn dimension_mismatch_is_reported() {
        let config = MboConfig {
            reference: vec![1.0, 1.0, 1.0],
            ..MboConfig::default()
        };
        let r = mbo(&config, toy_sample, |c| c.clone(), toy_objective);
        assert!(matches!(r, Err(DseError::BadObjectives { .. })));
    }

    #[test]
    fn deterministic_under_seed() {
        let config = MboConfig {
            initial_samples: 6,
            iterations: 2,
            batch: 3,
            candidates: 10,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 42,
        };
        let a = mbo(&config, toy_sample, |c| c.clone(), toy_objective).unwrap();
        let b = mbo(&config, toy_sample, |c| c.clone(), toy_objective).unwrap();
        assert_eq!(a.hv_trace, b.hv_trace);
    }

    #[test]
    fn stepping_matches_one_shot_run() {
        let config = MboConfig {
            initial_samples: 6,
            iterations: 3,
            batch: 3,
            candidates: 10,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 9,
        };
        let oneshot = mbo(&config, toy_sample, |c| c.clone(), toy_objective).unwrap();
        let mut state = MboState::new(&config).unwrap();
        let mut sample = toy_sample;
        let encode = |c: &Vec<f64>| c.clone();
        let mut steps = 0;
        while !state.is_complete() {
            state.step(&mut sample, &encode, &mut toy_batch).unwrap();
            steps += 1;
        }
        assert_eq!(steps, 1 + config.iterations);
        let stepped = state.into_result();
        assert_eq!(stepped.hv_trace, oneshot.hv_trace);
        assert_eq!(stepped.evaluated.len(), oneshot.evaluated.len());
    }

    #[test]
    fn batched_stepping_matches_serial_exactly() {
        let config = MboConfig {
            initial_samples: 6,
            iterations: 3,
            batch: 3,
            candidates: 10,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 9,
        };
        let serial = mbo(&config, toy_sample, |c| c.clone(), toy_objective).unwrap();
        let mut state = MboState::new(&config).unwrap();
        let mut sample = toy_sample;
        let encode = |c: &Vec<f64>| c.clone();
        // Evaluate in reverse order (as a parallel engine might finish
        // jobs) but return outcomes in candidate order.
        let mut evaluate_batch = |cs: &[Vec<f64>]| -> Vec<BatchOutcome> {
            let mut out: Vec<(usize, Vec<f64>)> = cs
                .iter()
                .enumerate()
                .rev()
                .map(|(i, c)| (i, toy_objective(c)))
                .collect();
            out.sort_by_key(|&(i, _)| i);
            out.into_iter()
                .map(|(i, objectives)| BatchOutcome { objectives, digest: i as u64 + 1 })
                .collect()
        };
        while !state.is_complete() {
            state.step(&mut sample, &encode, &mut evaluate_batch).unwrap();
        }
        assert_eq!(state.eval_digests().len(), state.evaluated().len());
        assert!(state.eval_digests().iter().all(|&d| d != 0));
        let batched = state.into_result();
        assert_eq!(batched.hv_trace, serial.hv_trace);
        assert_eq!(batched.evaluated.len(), serial.evaluated.len());
        for ((ca, oa), (cb, ob)) in batched.evaluated.iter().zip(&serial.evaluated) {
            assert_eq!(ca, cb);
            assert_eq!(oa, ob);
        }
    }

    #[test]
    fn each_training_point_is_encoded_once() {
        let config = MboConfig {
            initial_samples: 6,
            iterations: 3,
            batch: 3,
            candidates: 10,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 9,
        };
        let calls = std::cell::Cell::new(0);
        let encode = |c: &Vec<f64>| {
            calls.set(calls.get() + 1);
            c.clone()
        };
        let mut sample = toy_sample;
        let mut state = MboState::new(&config).unwrap();
        state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        let checkpoint = state.to_checkpoint();
        while !state.is_complete() {
            state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        }
        // Every point but the last batch's trains a surrogate and is
        // encoded once; each iteration also encodes its 10 candidates.
        assert_eq!(calls.get(), (6 + 2 * 3) + 3 * 10);
        let straight = state.into_result();
        assert_eq!(
            straight.hv_trace,
            mbo(&config, toy_sample, |c| c.clone(), toy_objective).unwrap().hv_trace
        );

        // A restored state encodes the rows it was saved with once more,
        // on its first fit, and goes on as the uninterrupted run did.
        calls.set(0);
        let mut resumed = MboState::<Vec<f64>>::from_checkpoint(&checkpoint).unwrap();
        while !resumed.is_complete() {
            resumed.step(&mut sample, &encode, &mut toy_batch).unwrap();
        }
        assert_eq!(calls.get(), 9 + 3 + 2 * 10);
        assert_eq!(resumed.into_result().evaluated, straight.evaluated);
    }

    #[test]
    fn outcome_count_must_match_the_batch() {
        let config = MboConfig {
            initial_samples: 4,
            iterations: 1,
            batch: 2,
            candidates: 6,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.0,
            seed: 1,
        };
        let mut sample = toy_sample;
        let encode = |c: &Vec<f64>| c.clone();
        let mut short = |cs: &[Vec<f64>]| -> Vec<BatchOutcome> {
            let mut out = toy_batch(cs);
            out.pop();
            out
        };
        let mut long = |cs: &[Vec<f64>]| -> Vec<BatchOutcome> {
            let mut out = toy_batch(cs);
            out.push(BatchOutcome { objectives: vec![0.0, 0.0], digest: 0 });
            out
        };
        let mut state = MboState::new(&config).unwrap();
        assert!(matches!(
            state.step(&mut sample, &encode, &mut short),
            Err(DseError::BadObjectives { .. })
        ));
        let mut state = MboState::new(&config).unwrap();
        assert!(matches!(
            state.step(&mut sample, &encode, &mut long),
            Err(DseError::BadObjectives { .. })
        ));
        assert!(state.evaluated().is_empty(), "a rejected batch records nothing");
    }

    #[test]
    fn progress_accessors_track_the_run_mid_flight() {
        let config = MboConfig {
            initial_samples: 6,
            iterations: 2,
            batch: 3,
            candidates: 10,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 5,
        };
        let mut state = MboState::new(&config).unwrap();
        assert_eq!(state.planned_evaluations(), 6 + 2 * 3);
        assert_eq!(state.evaluations_done(), 0);
        assert_eq!(state.current_hypervolume(), 0.0);
        assert!(state.pareto_indices().is_empty());
        let mut sample = toy_sample;
        let encode = |c: &Vec<f64>| c.clone();
        state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        assert_eq!(state.evaluations_done(), 6);
        assert!(state.current_hypervolume() > 0.0);
        let mid_front = state.pareto_indices();
        assert!(!mid_front.is_empty());
        while !state.is_complete() {
            state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        }
        assert_eq!(state.evaluations_done(), state.planned_evaluations());
        let final_hv = state.current_hypervolume();
        let final_front = state.pareto_indices();
        let result = state.into_result();
        assert_eq!(result.final_hypervolume().to_bits(), final_hv.to_bits());
        assert_eq!(result.pareto_indices(), final_front);
    }

    #[test]
    fn invalid_reference_is_rejected() {
        let empty = MboConfig { reference: vec![], ..MboConfig::default() };
        assert!(MboState::<Vec<f64>>::new(&empty).is_err());
        let nan = MboConfig { reference: vec![1.0, f64::NAN], ..MboConfig::default() };
        assert!(MboState::<Vec<f64>>::new(&nan).is_err());
        // A plan whose evaluation count overflows usize.
        let huge = MboConfig { iterations: usize::MAX / 2, batch: 3, ..MboConfig::default() };
        assert_eq!(huge.planned_evaluations(), None);
        assert!(matches!(MboState::<Vec<f64>>::new(&huge), Err(DseError::BadPlan { .. })));
    }
}
