//! Property tests for the MLP stack and its metrics.

use clapped_mlp::{fidelity, mae, r2_score, rmse, Mlp};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Forward passes are deterministic and finite for arbitrary inputs.
    #[test]
    fn forward_is_finite(x in proptest::collection::vec(-100.0f64..100.0, 3), seed: u64) {
        let m = Mlp::new(&[3, 8, 2], seed);
        let y1 = m.forward(&x);
        let y2 = m.forward(&x);
        prop_assert_eq!(&y1, &y2);
        prop_assert!(y1.iter().all(|v| v.is_finite()));
    }

    /// MAE and RMSE are symmetric, non-negative, translation-covariant;
    /// RMSE dominates MAE (Jensen).
    #[test]
    fn error_metric_axioms(
        a in proptest::collection::vec(-10.0f64..10.0, 2..30),
        shift in -5.0f64..5.0,
    ) {
        let b: Vec<f64> = a.iter().map(|v| v + shift).collect();
        prop_assert!((mae(&a, &b) - shift.abs()).abs() < 1e-12);
        prop_assert!((mae(&a, &b) - mae(&b, &a)).abs() < 1e-12);
        prop_assert!(rmse(&a, &b) + 1e-12 >= mae(&a, &b));
    }

    /// R² of a perfect prediction is 1; adding error can only lower it.
    #[test]
    fn r2_axioms(a in proptest::collection::vec(-10.0f64..10.0, 3..30), noise in 0.1f64..5.0) {
        prop_assume!(clapped_la::population_std(&a) > 1e-6);
        prop_assert!((r2_score(&a, &a) - 1.0).abs() < 1e-12);
        let noisy: Vec<f64> = a.iter().enumerate().map(|(i, v)| v + if i % 2 == 0 { noise } else { -noise }).collect();
        prop_assert!(r2_score(&a, &noisy) <= 1.0);
    }

    /// Fidelity is invariant under strictly increasing transforms of the
    /// predictions.
    #[test]
    fn fidelity_monotone_invariance(
        actual in proptest::collection::vec(-10.0f64..10.0, 2..25),
        scale in 0.1f64..5.0,
        offset in -10.0f64..10.0,
    ) {
        let predicted: Vec<f64> = actual.iter().map(|v| v * 0.5 + 1.0).collect();
        let transformed: Vec<f64> = predicted.iter().map(|v| v * scale + offset).collect();
        let f1 = fidelity(&actual, &predicted);
        let f2 = fidelity(&actual, &transformed);
        prop_assert!((f1 - f2).abs() < 1e-9, "{} vs {}", f1, f2);
    }

    /// Fidelity against the actual values themselves is always 100 %.
    #[test]
    fn self_fidelity_is_perfect(actual in proptest::collection::vec(-10.0f64..10.0, 2..25)) {
        prop_assert_eq!(fidelity(&actual, &actual), 100.0);
    }

    /// Reversing all predictions of a strictly ordered series gives 0 %.
    #[test]
    fn antitone_fidelity_is_zero(n in 2usize..20) {
        let actual: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let reversed: Vec<f64> = (0..n).map(|i| -(i as f64)).collect();
        prop_assert_eq!(fidelity(&actual, &reversed), 0.0);
    }

    /// Parameter counts follow the layer algebra.
    #[test]
    fn parameter_count_formula(h1 in 1usize..16, h2 in 1usize..16) {
        let m = Mlp::new(&[5, h1, h2, 1], 0);
        let expect = 5 * h1 + h1 + h1 * h2 + h2 + h2 + 1;
        prop_assert_eq!(m.parameter_count(), expect);
    }
}
