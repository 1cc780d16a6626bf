//! A failed evaluation must not poison the surrogates.
//!
//! An evaluator reports a failure as `OBJECTIVE_SENTINEL`, a huge finite
//! value. Fitted as a target, it gives the GP an infinite variance and
//! every prediction turns `(NaN, inf)`, so every candidate scores zero and
//! the acquisition degenerates to taking the last candidate. `MboState`
//! leaves such evaluations out of the training rows, so the predictions
//! stay finite and `nonfinite_warnings` does not move.
//!
//! This file is its own test binary: nothing else in the process moves
//! the global counter while these tests read it.

use clapped_dse::{mbo, nonfinite_warnings, MboConfig, OBJECTIVE_SENTINEL};
use rand::Rng;
use rand_chacha::ChaCha8Rng;

fn sample(rng: &mut ChaCha8Rng) -> Vec<f64> {
    vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]
}

/// The toy bi-objective problem of the MBO unit tests, whose evaluation
/// fails for configurations with `c[0] > fail_above`.
fn objectives(c: &[f64], fail_above: f64) -> Vec<f64> {
    if c[0] > fail_above {
        return vec![OBJECTIVE_SENTINEL; 2];
    }
    let x = (c[0] + c[1]) / 2.0;
    vec![x, (1.0 - x) * (1.0 - x) + 0.05 * (c[0] - c[1]).abs()]
}

fn config() -> MboConfig {
    MboConfig {
        initial_samples: 10,
        iterations: 8,
        batch: 5,
        candidates: 30,
        reference: vec![1.5, 1.5],
        kappa: 1.0,
        explore_fraction: 0.1,
        seed: 3,
    }
}

#[test]
fn failed_evaluations_leave_the_surrogates_finite() {
    let before = nonfinite_warnings();
    let result = mbo(&config(), sample, |c| c.clone(), |c| objectives(c, 0.85)).expect("run");
    assert_eq!(nonfinite_warnings(), before, "a prediction went non-finite");
    // The failures are still recorded and the run still improves.
    let failed = result
        .evaluated
        .iter()
        .filter(|(_, o)| o[0] == OBJECTIVE_SENTINEL)
        .count();
    assert!(failed > 0, "the run never hit a failing configuration");
    assert_eq!(result.evaluated.len(), 10 + 8 * 5);
    assert!(result.final_hypervolume() > result.hv_trace[0].1);
}

#[test]
fn a_run_without_a_success_explores_at_random() {
    let before = nonfinite_warnings();
    let result = mbo(&config(), sample, |c| c.clone(), |c| objectives(c, -1.0)).expect("run");
    assert_eq!(nonfinite_warnings(), before);
    assert_eq!(result.evaluated.len(), 10 + 8 * 5);
    assert!(result
        .evaluated
        .iter()
        .all(|(_, o)| o[0] == OBJECTIVE_SENTINEL));
    assert_eq!(result.final_hypervolume(), 0.0);
}
