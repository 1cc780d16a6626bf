//! Probability distributions, moment fitting and Kolmogorov–Smirnov
//! ranking.
//!
//! Used by the curve-fitting baseline: the paper fits several candidate
//! distributions to each operator's error sample, ranks them with the K-S
//! statistic and derives fitting functions from the best ones.

use std::f64::consts::PI;

/// Families of distributions considered for operator-error fitting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DistKind {
    /// Gaussian.
    Normal,
    /// Logistic (heavier tails than normal).
    Logistic,
    /// Laplace (double exponential).
    Laplace,
    /// Cauchy (fit by quantiles; undefined moments).
    Cauchy,
    /// Uniform over an interval.
    Uniform,
    /// Gumbel (extreme value, right-skewed).
    Gumbel,
}

impl DistKind {
    /// All supported families.
    pub const ALL: [DistKind; 6] = [
        DistKind::Normal,
        DistKind::Logistic,
        DistKind::Laplace,
        DistKind::Cauchy,
        DistKind::Uniform,
        DistKind::Gumbel,
    ];

    /// Family name.
    pub fn name(self) -> &'static str {
        match self {
            DistKind::Normal => "norm",
            DistKind::Logistic => "logistic",
            DistKind::Laplace => "laplace",
            DistKind::Cauchy => "cauchy",
            DistKind::Uniform => "uniform",
            DistKind::Gumbel => "gumbel",
        }
    }
}

/// A fitted two-parameter distribution (location `mu`, scale `s`).
///
/// # Examples
///
/// ```
/// use clapped_errmodel::dist::{Dist, DistKind};
///
/// let d = Dist::fit(DistKind::Normal, &[0.0, 1.0, -1.0, 2.0, -2.0]);
/// assert!((d.cdf(d.mu()) - 0.5).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Dist {
    kind: DistKind,
    mu: f64,
    s: f64,
}

impl Dist {
    /// Fits the distribution to samples by moments (or quantiles for
    /// Cauchy/Uniform).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn fit(kind: DistKind, samples: &[f64]) -> Dist {
        assert!(!samples.is_empty(), "cannot fit a distribution to no data");
        let n = samples.len() as f64;
        let mean = samples.iter().sum::<f64>() / n;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n;
        let sd = var.sqrt().max(1e-12);
        let mut sorted: Vec<f64> = samples.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let quantile = |q: f64| -> f64 { quantile_sorted(&sorted, q) };
        let (mu, s) = match kind {
            DistKind::Normal => (mean, sd),
            // logistic variance = s^2 pi^2 / 3
            DistKind::Logistic => (mean, sd * 3.0f64.sqrt() / PI),
            // laplace variance = 2 b^2
            DistKind::Laplace => (quantile(0.5), (var / 2.0).sqrt().max(1e-12)),
            // cauchy: median + half interquartile range
            DistKind::Cauchy => {
                let iqr = quantile(0.75) - quantile(0.25);
                (quantile(0.5), (iqr / 2.0).max(1e-12))
            }
            // uniform on [min, max]: mu = midpoint, s = half-width
            DistKind::Uniform => {
                let (lo, hi) = (sorted[0], sorted[sorted.len() - 1]);
                ((lo + hi) / 2.0, ((hi - lo) / 2.0).max(1e-12))
            }
            // gumbel: sd = s pi / sqrt(6), mean = mu + gamma s
            DistKind::Gumbel => {
                let s = sd * 6.0f64.sqrt() / PI;
                const EULER_GAMMA: f64 = 0.577_215_664_901_532_9;
                (mean - EULER_GAMMA * s, s.max(1e-12))
            }
        };
        Dist { kind, mu, s }
    }

    /// Creates a distribution directly from parameters.
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not strictly positive.
    pub fn with_params(kind: DistKind, mu: f64, scale: f64) -> Dist {
        assert!(scale > 0.0, "scale must be positive");
        Dist { kind, mu, s: scale }
    }

    /// Distribution family.
    pub fn kind(&self) -> DistKind {
        self.kind
    }

    /// Location parameter.
    pub fn mu(&self) -> f64 {
        self.mu
    }

    /// Scale parameter.
    pub fn scale(&self) -> f64 {
        self.s
    }

    /// Cumulative distribution function.
    pub fn cdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.s;
        match self.kind {
            DistKind::Normal => 0.5 * (1.0 + erf(z / 2.0f64.sqrt())),
            DistKind::Logistic => 1.0 / (1.0 + (-z).exp()),
            DistKind::Laplace => {
                if z < 0.0 {
                    0.5 * z.exp()
                } else {
                    1.0 - 0.5 * (-z).exp()
                }
            }
            DistKind::Cauchy => 0.5 + z.atan() / PI,
            DistKind::Uniform => ((z + 1.0) / 2.0).clamp(0.0, 1.0),
            DistKind::Gumbel => (-(-z).exp()).exp(),
        }
    }

    /// Probability density function.
    pub(crate) fn pdf(&self, x: f64) -> f64 {
        let z = (x - self.mu) / self.s;
        let core = match self.kind {
            DistKind::Normal => (-0.5 * z * z).exp() / (2.0 * PI).sqrt(),
            DistKind::Logistic => {
                let e = (-z).exp();
                e / ((1.0 + e) * (1.0 + e))
            }
            DistKind::Laplace => 0.5 * (-z.abs()).exp(),
            DistKind::Cauchy => 1.0 / (PI * (1.0 + z * z)),
            DistKind::Uniform => {
                if (-1.0..=1.0).contains(&z) {
                    0.5
                } else {
                    0.0
                }
            }
            DistKind::Gumbel => (-(z + (-z).exp())).exp(),
        };
        core / self.s
    }
}

/// Type-7 (linearly interpolated) empirical quantile of an ascending
/// pre-sorted sample: `h = (n-1)·q`, interpolating between the order
/// statistics bracketing `h`. This is R's and NumPy's default estimator;
/// unlike nearest-rank rounding it is continuous in `q` and does not
/// collapse small-sample spreads (the n=3 IQR is 1.0·gap, not 0).
/// `q` is clamped to `[0, 1]`.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of an empty sample");
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = (n - 1) as f64 * q.clamp(0.0, 1.0);
    let lo = (h.floor() as usize).min(n - 2);
    let frac = h - lo as f64;
    sorted[lo] + frac * (sorted[lo + 1] - sorted[lo])
}

/// Kolmogorov–Smirnov statistic of a fitted distribution against the
/// empirical CDF of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn ks_statistic(dist: &Dist, samples: &[f64]) -> f64 {
    assert!(!samples.is_empty());
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    let n = sorted.len() as f64;
    let mut d = 0.0f64;
    for (i, &x) in sorted.iter().enumerate() {
        let f = dist.cdf(x);
        let lo = i as f64 / n;
        let hi = (i + 1) as f64 / n;
        d = d.max((f - lo).abs()).max((hi - f).abs());
    }
    d
}

/// Fits every supported family to `samples` and returns the fits ranked
/// by ascending K-S statistic (best first).
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn rank_distributions(samples: &[f64]) -> Vec<(Dist, f64)> {
    let mut fits: Vec<(Dist, f64)> = DistKind::ALL
        .iter()
        .map(|&k| {
            let d = Dist::fit(k, samples);
            let ks = ks_statistic(&d, samples);
            (d, ks)
        })
        .collect();
    fits.sort_by(|a, b| a.1.total_cmp(&b.1));
    fits
}

/// Error function approximation (Abramowitz & Stegun 7.1.26, |err| < 1.5e-7).
pub(crate) fn erf(x: f64) -> f64 {
    let sign = if x < 0.0 { -1.0 } else { 1.0 };
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.327_591_1 * x);
    let y = 1.0
        - (((((1.061_405_429 * t - 1.453_152_027) * t) + 1.421_413_741) * t - 0.284_496_736)
            * t
            + 0.254_829_592)
            * t
            * (-x * x).exp();
    sign * y
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_samples(n: usize) -> Vec<f64> {
        // Deterministic Box–Muller over a low-discrepancy grid.
        (0..n)
            .map(|i| {
                let u1 = (i as f64 + 0.5) / n as f64;
                let u2 = ((i * 7919) % n) as f64 / n as f64 + 1e-6;
                (-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()
            })
            .collect()
    }

    #[test]
    fn erf_reference_values() {
        assert!((erf(0.0)).abs() < 1e-6);
        assert!((erf(1.0) - 0.842_700_79).abs() < 1e-6);
        assert!((erf(-1.0) + 0.842_700_79).abs() < 1e-6);
        assert!((erf(3.0) - 0.999_977_9).abs() < 1e-5);
    }

    #[test]
    fn cdfs_are_monotone_and_bounded() {
        let samples = normal_samples(512);
        for kind in DistKind::ALL {
            let d = Dist::fit(kind, &samples);
            let mut prev = 0.0;
            for i in -50..=50 {
                let x = i as f64 / 5.0;
                let c = d.cdf(x);
                assert!((0.0..=1.0).contains(&c), "{kind:?} cdf out of range");
                assert!(c >= prev - 1e-12, "{kind:?} cdf not monotone");
                prev = c;
            }
        }
    }

    #[test]
    fn pdf_is_nonnegative() {
        let samples = normal_samples(512);
        for kind in DistKind::ALL {
            let d = Dist::fit(kind, &samples);
            for i in -50..=50 {
                assert!(d.pdf(i as f64 / 5.0) >= 0.0);
            }
        }
    }

    #[test]
    fn normal_wins_ks_on_normal_data() {
        let samples = normal_samples(2048);
        let ranked = rank_distributions(&samples);
        let best = ranked[0].0.kind();
        // Normal or its close cousin logistic must rank first on Gaussian
        // data; uniform and Cauchy must not.
        assert!(
            best == DistKind::Normal || best == DistKind::Logistic,
            "best fit was {best:?}"
        );
        assert!(ranked[0].1 < ranked.last().expect("nonempty").1);
    }

    #[test]
    fn uniform_wins_ks_on_uniform_data() {
        let samples: Vec<f64> = (0..1000).map(|i| i as f64 / 999.0).collect();
        let ranked = rank_distributions(&samples);
        assert_eq!(ranked[0].0.kind(), DistKind::Uniform);
    }

    #[test]
    fn quantiles_interpolate_between_order_statistics() {
        let sorted = [0.0, 1.0, 2.0];
        // Grid points hit the order statistics exactly.
        assert_eq!(quantile_sorted(&sorted, 0.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 0.5), 1.0);
        assert_eq!(quantile_sorted(&sorted, 1.0), 2.0);
        // Off-grid points interpolate: nearest-rank would snap these.
        assert_eq!(quantile_sorted(&sorted, 0.25), 0.5);
        assert_eq!(quantile_sorted(&sorted, 0.75), 1.5);
        // Out-of-range q clamps; singletons are constant.
        assert_eq!(quantile_sorted(&sorted, -1.0), 0.0);
        assert_eq!(quantile_sorted(&sorted, 2.0), 2.0);
        assert_eq!(quantile_sorted(&[7.5], 0.3), 7.5);
    }

    #[test]
    fn small_sample_iqr_no_longer_collapses() {
        // Nearest-rank rounding put q25 and q75 on the middle order
        // statistic for n=3, collapsing the Cauchy IQR scale to the
        // 1e-12 floor. Type-7 keeps the true spread.
        let d = Dist::fit(DistKind::Cauchy, &[0.0, 1.0, 2.0]);
        assert_eq!(d.mu(), 1.0);
        assert!((d.scale() - 0.5).abs() < 1e-12, "scale {}", d.scale());
    }

    #[test]
    fn even_sample_median_is_the_midpoint() {
        let d = Dist::fit(DistKind::Laplace, &[0.0, 1.0, 3.0, 10.0]);
        assert_eq!(d.mu(), 2.0);
    }

    #[test]
    fn ks_is_zero_for_perfect_fit_limit() {
        // The K-S statistic against the fitted uniform on its own support
        // approaches 1/(2n) resolution.
        let samples: Vec<f64> = (0..10_000).map(|i| i as f64 / 9_999.0).collect();
        let d = Dist::fit(DistKind::Uniform, &samples);
        assert!(ks_statistic(&d, &samples) < 0.01);
    }
}
