//! Statistical error metrics over the exhaustive operator input space.
//!
//! Exhaustive characterization walks all 65 536 input pairs, and the
//! same operators are re-characterized all over the workspace (the DSE
//! features, the runtime ladder, the fault campaigns). Both entry
//! points therefore memoize process-wide through [`clapped_exec::Memo`]
//! keyed on the operator's behaviour digest — the same key the compiled
//! convolution plans use — with a direct-compute fallthrough for
//! operators that don't expose a digest.

use clapped_axops::{exhaustive_pairs, Mul8s};
use clapped_exec::Memo;
use std::sync::OnceLock;

/// Process-wide memo of exhaustive [`ErrorStats`] per behaviour digest.
fn stats_memo() -> &'static Memo<u64, ErrorStats> {
    static MEMO: OnceLock<Memo<u64, ErrorStats>> = OnceLock::new();
    MEMO.get_or_init(Memo::default)
}

/// Process-wide memo of exhaustive signed-error sample vectors.
fn samples_memo() -> &'static Memo<u64, Vec<f64>> {
    static MEMO: OnceLock<Memo<u64, Vec<f64>>> = OnceLock::new();
    MEMO.get_or_init(Memo::default)
}

/// Classic statistical error metrics of an approximate binary operator,
/// computed over the full 8-bit signed input space.
///
/// These are the "traditional" characterizations the paper contrasts with
/// its PR-coefficient representation: mean absolute error, average
/// absolute relative error, error probability, mean squared error,
/// (weighted) mean error distance and peak errors.
///
/// # Examples
///
/// ```
/// use clapped_axops::{AxMul, MulArch};
/// use clapped_errmodel::ErrorStats;
///
/// let exact = AxMul::new("exact", MulArch::Exact);
/// let stats = ErrorStats::of_multiplier(&exact);
/// assert_eq!(stats.mae, 0.0);
/// assert_eq!(stats.error_probability, 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorStats {
    /// Mean absolute error `mean(|approx - exact|)`.
    pub mae: f64,
    /// Average absolute relative error `mean(|err| / max(1, |exact|))`.
    pub mean_relative: f64,
    /// Fraction of inputs with a non-zero error.
    pub error_probability: f64,
    /// Mean squared error.
    pub mse: f64,
    /// Mean (signed) error — the operator's bias.
    pub mean_error: f64,
    /// Maximum absolute error.
    pub max_abs_error: f64,
    /// Most negative signed error.
    pub peak_negative: i32,
    /// Most positive signed error.
    pub peak_positive: i32,
    /// Weighted mean error distance: absolute error weighted by the
    /// probability-like weight `2^-|bit position of exact product|`
    /// normalized over the space (AutoAx-style single-figure metric).
    pub wmed: f64,
}

impl ErrorStats {
    /// Computes the metrics for arbitrary approximate/exact functions over
    /// the exhaustive 8-bit signed space.
    pub fn from_fns(
        approx: impl Fn(i8, i8) -> i32,
        exact: impl Fn(i8, i8) -> i32,
    ) -> ErrorStats {
        let mut n = 0.0f64;
        let mut abs_sum = 0.0f64;
        let mut rel_sum = 0.0f64;
        let mut sq_sum = 0.0f64;
        let mut signed_sum = 0.0f64;
        let mut nonzero = 0.0f64;
        let mut max_abs = 0.0f64;
        let mut peak_neg = 0i32;
        let mut peak_pos = 0i32;
        let mut wmed_num = 0.0f64;
        let mut wmed_den = 0.0f64;
        for (a, b) in exhaustive_pairs() {
            let e = exact(a, b);
            let err = approx(a, b) - e;
            let abs = f64::from(err.abs());
            n += 1.0;
            abs_sum += abs;
            rel_sum += abs / f64::from(e.abs().max(1));
            sq_sum += abs * abs;
            signed_sum += f64::from(err);
            if err != 0 {
                nonzero += 1.0;
            }
            if abs > max_abs {
                max_abs = abs;
            }
            peak_neg = peak_neg.min(err);
            peak_pos = peak_pos.max(err);
            // Weight low-magnitude regions higher (they dominate natural
            // data): w = 1 / (1 + |exact|).
            let w = 1.0 / (1.0 + f64::from(e.abs()));
            wmed_num += w * abs;
            wmed_den += w;
        }
        ErrorStats {
            mae: abs_sum / n,
            mean_relative: rel_sum / n,
            error_probability: nonzero / n,
            mse: sq_sum / n,
            mean_error: signed_sum / n,
            max_abs_error: max_abs,
            peak_negative: peak_neg,
            peak_positive: peak_pos,
            wmed: wmed_num / wmed_den,
        }
    }

    /// Computes the metrics of a multiplier against the exact product.
    ///
    /// Memoized process-wide on the operator's behaviour digest, so
    /// repeated characterizations of the same operator (DSE feature
    /// encoding, runtime ladder calibration, fault campaigns) pay for
    /// the exhaustive sweep once.
    pub fn of_multiplier(m: &dyn Mul8s) -> ErrorStats {
        let compute = || {
            ErrorStats::from_fns(
                |a, b| i32::from(m.mul(a, b)),
                |a, b| i32::from(a) * i32::from(b),
            )
        };
        match m.behaviour_digest() {
            Some(digest) => stats_memo().get_or_insert_with(digest, compute),
            None => compute(),
        }
    }

    /// The four-metric vector the paper calls `M4` (max absolute error,
    /// average relative error, error probability, MSE).
    pub fn m4(&self) -> [f64; 4] {
        [
            self.max_abs_error,
            self.mean_relative,
            self.error_probability,
            self.mse,
        ]
    }

    /// The single-metric representation the paper calls `M1` (MSE, after
    /// the WMED-style identification of AutoAx).
    pub fn m1(&self) -> [f64; 1] {
        [self.mse]
    }
}

/// Collects the signed error of every input pair (row-major over `a`,
/// then `b`) — the raw material for distribution fitting and histogram
/// plots (paper Figs. 3 and 4).
///
/// Memoized process-wide on the operator's behaviour digest (the
/// returned vector is a clone of the cached sweep).
pub fn error_samples(m: &dyn Mul8s) -> Vec<f64> {
    let compute = || {
        exhaustive_pairs()
            .map(|(a, b)| f64::from(i32::from(m.mul(a, b)) - i32::from(a) * i32::from(b)))
            .collect::<Vec<f64>>()
    };
    match m.behaviour_digest() {
        Some(digest) => samples_memo().get_or_insert_with(digest, compute),
        None => compute(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::{AxMul, MulArch};

    #[test]
    fn exact_multiplier_has_zero_everything() {
        let m = AxMul::new("e", MulArch::Exact);
        let s = ErrorStats::of_multiplier(&m);
        assert_eq!(s.mae, 0.0);
        assert_eq!(s.mse, 0.0);
        assert_eq!(s.error_probability, 0.0);
        assert_eq!(s.max_abs_error, 0.0);
        assert_eq!(s.peak_negative, 0);
        assert_eq!(s.peak_positive, 0);
        assert_eq!(s.wmed, 0.0);
    }

    #[test]
    fn truncated_multiplier_has_consistent_metrics() {
        let m = AxMul::new("t", MulArch::Truncated { k: 4 });
        let s = ErrorStats::of_multiplier(&m);
        assert!(s.mae > 0.0);
        assert!(s.mse >= s.mae * s.mae, "Jensen: E[X^2] >= E[X]^2");
        assert!(s.max_abs_error >= s.mae);
        assert!(s.error_probability > 0.5, "truncation errs on most inputs");
        assert!(f64::from(s.peak_positive.max(-s.peak_negative)) == s.max_abs_error);
    }

    #[test]
    fn error_samples_count_and_mean_match() {
        let m = AxMul::new("t", MulArch::Truncated { k: 2 });
        let samples = error_samples(&m);
        assert_eq!(samples.len(), 65_536);
        let mean = samples.iter().sum::<f64>() / samples.len() as f64;
        let s = ErrorStats::of_multiplier(&m);
        assert!((mean - s.mean_error).abs() < 1e-9);
    }

    #[test]
    fn repeated_characterization_hits_the_memo() {
        let m = AxMul::new("memo-probe", MulArch::Truncated { k: 3 });
        assert!(m.behaviour_digest().is_some(), "AxMul exposes a digest");
        let first = ErrorStats::of_multiplier(&m);
        let before = stats_memo().stats();
        let second = ErrorStats::of_multiplier(&m);
        let after = stats_memo().stats();
        assert_eq!(first, second);
        assert!(after.hits > before.hits, "second characterization must hit the memo");

        let s1 = error_samples(&m);
        let sam_before = samples_memo().stats();
        let s2 = error_samples(&m);
        let sam_after = samples_memo().stats();
        assert_eq!(s1, s2);
        assert!(sam_after.hits > sam_before.hits);
    }

    #[test]
    fn faulted_operator_is_cached_under_a_distinct_digest() {
        use clapped_axops::FaultedMul;
        use clapped_netlist::{FaultKind, FaultSet};

        let base = AxMul::new("tr3", MulArch::Truncated { k: 3 });
        let msb = base.netlist().outputs().last().expect("product MSB").1;
        let faults = FaultSet::empty().stuck_at(msb, FaultKind::StuckAt1);
        let faulted = FaultedMul::new(&base, &faults).expect("valid fault site");
        assert_ne!(
            base.behaviour_digest(),
            faulted.behaviour_digest(),
            "a faulted operator must never share the healthy digest"
        );
        let healthy = ErrorStats::of_multiplier(&base);
        let broken = ErrorStats::of_multiplier(&faulted);
        assert!(
            broken.max_abs_error > healthy.max_abs_error,
            "an MSB stuck-at-1 must blow up the error metrics"
        );
        // And the memo keeps them apart: re-reading both returns the
        // same distinct values.
        assert_eq!(ErrorStats::of_multiplier(&base), healthy);
        assert_eq!(ErrorStats::of_multiplier(&faulted), broken);
    }

    #[test]
    fn m4_and_m1_have_expected_shapes() {
        let m = AxMul::new("t", MulArch::Truncated { k: 1 });
        let s = ErrorStats::of_multiplier(&m);
        assert_eq!(s.m4().len(), 4);
        assert_eq!(s.m1().len(), 1);
        assert_eq!(s.m1()[0], s.mse);
    }
}
