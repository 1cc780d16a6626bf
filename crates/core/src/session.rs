//! Per-job exploration sessions over a shared framework instance.
//!
//! [`crate::Clapped`] is expensive to build (catalog instantiation, PR
//! model fits, workload generation) but immutable once built, so one
//! process can share a single `Arc<Clapped>` across many concurrent
//! explorations. A [`Session`] is the cheap per-job half: an
//! [`MboState`] plus the tenant-facing quality constraint and budget.
//! Sessions step one MBO phase at a time, checkpoint to the
//! [`clapped_dse`] JSON format at any phase boundary, and resume
//! bit-exactly — the contract `clapped-serve` builds crash recovery on.

use crate::explore::step_mbo;
use crate::{Clapped, ClappedError, MulRepr, ParetoPoint, Result};
use clapped_dse::{Configuration, MboConfig, MboState};
use std::sync::Arc;

/// What one exploration job asks for: MBO parameters plus the
/// tenant-facing quality constraint and evaluation budget.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// MBO loop parameters (seed, batch shape, reference point).
    pub mbo: MboConfig,
    /// Multiplier representation for the surrogate features. Part of
    /// the search trajectory: resuming a checkpoint under a different
    /// representation diverges from the uninterrupted run.
    pub repr: MulRepr,
    /// Quality constraint: [`Session::pareto_feasible`] keeps Pareto
    /// points whose application error is at most this many percent
    /// (`None` = unconstrained).
    pub max_error_percent: Option<f64>,
    /// Tenant budget: clamps the planned true-evaluation count (initial
    /// samples, then whole batches). `None` runs the full plan.
    pub max_evaluations: Option<usize>,
}

impl Default for SessionSpec {
    fn default() -> Self {
        SessionSpec {
            mbo: crate::ExploreOptions::default().mbo,
            repr: MulRepr::Coeffs(4),
            max_error_percent: None,
            max_evaluations: None,
        }
    }
}

impl SessionSpec {
    /// The MBO configuration after applying `max_evaluations`: the
    /// initial design is truncated first, then whole surrogate batches
    /// are dropped from the back. Returns the clamped configuration and
    /// whether anything was actually cut.
    fn clamped_mbo(&self) -> (MboConfig, bool) {
        let mut mbo = self.mbo.clone();
        let Some(budget) = self.max_evaluations else {
            return (mbo, false);
        };
        // A plan that overflows `usize` exceeds every budget.
        if mbo.planned_evaluations().is_some_and(|planned| budget >= planned) {
            return (mbo, false);
        }
        mbo.initial_samples = mbo.initial_samples.min(budget);
        let remaining = budget - mbo.initial_samples;
        mbo.iterations = remaining.checked_div(mbo.batch).unwrap_or(0);
        (mbo, true)
    }

    /// The true evaluations a session opened from this spec plans: the
    /// budget-clamped [`MboConfig::planned_evaluations`], which is what
    /// [`Session::progress`] reports. `None` when the plan overflows
    /// `usize`, which [`Session::new`] rejects.
    pub fn planned_evaluations(&self) -> Option<usize> {
        self.clamped_mbo().0.planned_evaluations()
    }
}

/// A read-only progress snapshot of a session.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SessionProgress {
    /// True evaluations performed so far.
    pub evaluations_done: usize,
    /// Total evaluations the (possibly budget-clamped) plan will make.
    pub evaluations_planned: usize,
    /// Surrogate iterations completed.
    pub iterations_done: usize,
    /// Surrogate iterations planned.
    pub iterations_planned: usize,
    /// Hypervolume after the most recent phase (0 before the first).
    pub hypervolume: f64,
    /// Whether the plan has run to completion.
    pub complete: bool,
}

/// One in-flight exploration job over a shared [`Clapped`] instance.
#[derive(Debug)]
pub struct Session {
    fw: Arc<Clapped>,
    state: MboState<Configuration>,
    repr: MulRepr,
    max_error_percent: Option<f64>,
    truncated: bool,
}

impl Session {
    /// Opens a fresh session. The spec's budget is applied up front
    /// (see [`SessionSpec`]), so [`Session::progress`] reports the real
    /// plan from the first step.
    ///
    /// # Errors
    ///
    /// Propagates [`MboState::new`] validation failures.
    pub fn new(fw: Arc<Clapped>, spec: &SessionSpec) -> Result<Session> {
        let (mbo, truncated) = spec.clamped_mbo();
        let state = MboState::new(&mbo).map_err(ClappedError::Dse)?;
        Ok(Session {
            fw,
            state,
            repr: spec.repr,
            max_error_percent: spec.max_error_percent,
            truncated,
        })
    }

    /// Reopens a session from a checkpoint produced by
    /// [`Session::checkpoint`]. The MBO plan (including any budget
    /// clamping) is embedded in the checkpoint; only the spec's
    /// `repr` and `max_error_percent` are taken from `spec`, and they
    /// must match the original for the trajectory to stay bit-exact.
    ///
    /// # Errors
    ///
    /// Propagates checkpoint-decoding failures.
    pub fn resume(fw: Arc<Clapped>, checkpoint: &str, spec: &SessionSpec) -> Result<Session> {
        let state = MboState::from_checkpoint(checkpoint).map_err(ClappedError::Dse)?;
        let (clamped, _) = spec.clamped_mbo();
        let truncated = clamped.initial_samples != spec.mbo.initial_samples
            || clamped.iterations != spec.mbo.iterations;
        Ok(Session {
            fw,
            state,
            repr: spec.repr,
            max_error_percent: spec.max_error_percent,
            truncated,
        })
    }

    /// Serializes the session's exploration state (versioned JSON, RNG
    /// word position included) for bit-exact resumption.
    pub fn checkpoint(&self) -> String {
        self.state.to_checkpoint()
    }

    /// Runs one MBO phase — the initial design, or one surrogate
    /// iteration — fanning its true evaluations over the shared
    /// framework's engine and cache. Returns whether the plan is now
    /// complete. Calling [`Session::step`] on a complete session is a
    /// no-op returning `true`.
    ///
    /// # Errors
    ///
    /// Propagates search errors from [`MboState::step`].
    pub fn step(&mut self) -> Result<bool> {
        if self.state.is_complete() {
            return Ok(true);
        }
        let fw = &self.fw;
        let mut evaluate = |cs: &[Configuration]| fw.true_outcomes_cached(cs);
        step_mbo(fw, &mut self.state, self.repr, &mut evaluate)?;
        Ok(self.state.is_complete())
    }

    /// Whether the plan has run to completion.
    pub fn is_complete(&self) -> bool {
        self.state.is_complete()
    }

    /// Whether the tenant budget cut the original MBO plan short.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// A progress snapshot (cheap; safe to call every step).
    pub fn progress(&self) -> SessionProgress {
        SessionProgress {
            evaluations_done: self.state.evaluations_done(),
            evaluations_planned: self.state.planned_evaluations(),
            iterations_done: self.state.iterations_done(),
            iterations_planned: self.state.config().iterations,
            hypervolume: self.state.current_hypervolume(),
            complete: self.state.is_complete(),
        }
    }

    /// The current Pareto front. Sessions evaluate with the true
    /// estimators, so `searched` and `actual` carry the same values.
    pub fn pareto(&self) -> Vec<ParetoPoint> {
        let evaluated = self.state.evaluated();
        self.state
            .pareto_indices()
            .into_iter()
            .map(|i| {
                let (config, obj) = &evaluated[i];
                let searched = [obj[0], obj[1]];
                ParetoPoint {
                    config: config.clone(),
                    searched,
                    actual: Some(searched),
                }
            })
            .collect()
    }

    /// The Pareto points satisfying the session's quality constraint
    /// (all of them when unconstrained). May be empty if no explored
    /// point meets the constraint.
    pub fn pareto_feasible(&self) -> Vec<ParetoPoint> {
        let front = self.pareto();
        match self.max_error_percent {
            None => front,
            Some(limit) => front.into_iter().filter(|p| p.searched[0] <= limit).collect(),
        }
    }

    /// The shared framework this session evaluates on.
    pub fn framework(&self) -> &Arc<Clapped> {
        &self.fw
    }

    /// The exploration state (read access for reporting and tests).
    pub fn state(&self) -> &MboState<Configuration> {
        &self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{explore, Clapped, EstimationMode, ExploreOptions};

    fn small_mbo(seed: u64) -> MboConfig {
        MboConfig {
            initial_samples: 6,
            iterations: 2,
            batch: 3,
            candidates: 10,
            reference: vec![40.0, 5000.0],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed,
        }
    }

    fn small_fw() -> Arc<Clapped> {
        Arc::new(Clapped::builder().image_size(16).build().unwrap())
    }

    #[test]
    fn sessions_are_send_and_frameworks_shareable() {
        fn assert_send<T: Send>() {}
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Clapped>();
        assert_send::<Session>();
    }

    #[test]
    fn session_matches_explore_bit_for_bit() {
        let fw = small_fw();
        let spec = SessionSpec {
            mbo: small_mbo(2),
            ..SessionSpec::default()
        };
        let mut session = Session::new(Arc::clone(&fw), &spec).unwrap();
        while !session.step().unwrap() {}
        let opts = ExploreOptions {
            error_mode: EstimationMode::True,
            hw_mode: EstimationMode::True,
            training_samples: 0,
            mbo: small_mbo(2),
            actual_eval: false,
            ..ExploreOptions::default()
        };
        // A second instance of the same recipe: caches are warm but the
        // trajectory must not depend on that.
        let result = explore(&fw, &opts).unwrap();
        assert_eq!(session.state().evaluated().len(), result.search.evaluated.len());
        for ((ca, oa), (cb, ob)) in session.state().evaluated().iter().zip(&result.search.evaluated)
        {
            assert_eq!(ca, cb, "candidate streams diverged");
            for (x, y) in oa.iter().zip(ob) {
                assert_eq!(x.to_bits(), y.to_bits(), "objectives not bit-identical");
            }
        }
        let front: Vec<_> = session.pareto().into_iter().map(|p| p.config).collect();
        let expected: Vec<_> = result.pareto.into_iter().map(|p| p.config).collect();
        assert_eq!(front, expected);
    }

    #[test]
    fn checkpoint_resume_is_bit_exact() {
        let fw = small_fw();
        let spec = SessionSpec {
            mbo: small_mbo(7),
            ..SessionSpec::default()
        };
        let mut straight = Session::new(Arc::clone(&fw), &spec).unwrap();
        while !straight.step().unwrap() {}

        let mut first = Session::new(Arc::clone(&fw), &spec).unwrap();
        first.step().unwrap();
        first.step().unwrap();
        let saved = first.checkpoint();
        drop(first);
        let mut resumed = Session::resume(Arc::clone(&fw), &saved, &spec).unwrap();
        while !resumed.step().unwrap() {}

        assert_eq!(straight.state().evaluated().len(), resumed.state().evaluated().len());
        for ((ca, oa), (cb, ob)) in
            straight.state().evaluated().iter().zip(resumed.state().evaluated())
        {
            assert_eq!(ca, cb);
            for (x, y) in oa.iter().zip(ob) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        assert_eq!(straight.checkpoint(), resumed.checkpoint());
        assert_eq!(
            straight.progress().hypervolume.to_bits(),
            resumed.progress().hypervolume.to_bits()
        );
    }

    #[test]
    fn budget_clamps_planned_evaluations() {
        let fw = small_fw();
        let spec = SessionSpec {
            mbo: small_mbo(3),
            max_evaluations: Some(9),
            ..SessionSpec::default()
        };
        let session = Session::new(Arc::clone(&fw), &spec).unwrap();
        assert!(session.truncated());
        // 6 initial + one whole batch of 3 fits; the second batch does not.
        assert_eq!(session.progress().evaluations_planned, 9);
        // The spec reports the same plan before any session exists, even
        // when the budget falls between whole batches.
        assert_eq!(spec.planned_evaluations(), Some(9));
        let between = SessionSpec { max_evaluations: Some(10), ..spec.clone() };
        assert_eq!(between.planned_evaluations(), Some(9));
        let generous = SessionSpec {
            mbo: small_mbo(3),
            max_evaluations: Some(100),
            ..SessionSpec::default()
        };
        let s2 = Session::new(fw, &generous).unwrap();
        assert!(!s2.truncated());
        assert_eq!(s2.progress().evaluations_planned, 12);
    }

    #[test]
    fn feasible_front_respects_quality_constraint() {
        let fw = small_fw();
        let spec = SessionSpec {
            mbo: small_mbo(5),
            max_error_percent: Some(10.0),
            ..SessionSpec::default()
        };
        let mut session = Session::new(fw, &spec).unwrap();
        while !session.step().unwrap() {}
        let full = session.pareto();
        let feasible = session.pareto_feasible();
        assert!(feasible.len() <= full.len());
        for p in &feasible {
            assert!(p.searched[0] <= 10.0);
            assert!(full.iter().any(|q| q.config == p.config));
        }
        let progress = session.progress();
        assert!(progress.complete);
        assert_eq!(progress.evaluations_done, 12);
        assert!(progress.hypervolume > 0.0);
    }
}
