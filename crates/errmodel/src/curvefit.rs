//! Curve-fitting baseline: Levenberg–Marquardt fits of
//! distribution-shaped surfaces to operator outputs.
//!
//! This is the traditional characterization the paper compares its
//! polynomial-regression models against: for each operator the error
//! sample is distribution-fitted (see [`crate::dist`]), the top-ranked
//! families define parametric fitting functions, and a non-linear
//! least-squares fit tunes their parameters. Because approximate operators
//! are *static non-linear* systems with bit-level discontinuities, these
//! smooth surfaces track them poorly — which is exactly the observation
//! that motivates CLAppED's PR-based representation.

use crate::dist::{rank_distributions, Dist, DistKind};
use crate::metrics::error_samples;
use crate::{FitError, Result};
use clapped_axops::{exhaustive_pairs, Mul8s};
use clapped_la::{Cholesky, Mat};

/// Maximum number of Levenberg–Marquardt iterations.
const LM_MAX_ITERS: usize = 60;
/// Initial Levenberg–Marquardt damping factor.
const LM_LAMBDA0: f64 = 1e-3;
/// Convergence threshold on the relative SSE improvement.
const LM_TOL: f64 = 1e-9;

/// Minimizes `sum(residual(theta)^2)` with Levenberg–Marquardt using a
/// finite-difference Jacobian (at most 60 iterations, initial damping
/// 1e-3, stopping once the relative SSE improvement falls below 1e-9).
///
/// `residuals(theta, out)` must fill `out` with one residual per sample;
/// the residual count must stay constant across calls.
///
/// # Errors
///
/// Returns [`FitError::Numeric`] if the damped normal equations become
/// unsolvable at every damping level.
pub(crate) fn levenberg_marquardt(
    mut residuals: impl FnMut(&[f64], &mut Vec<f64>),
    theta0: &[f64],
) -> Result<(Vec<f64>, f64)> {
    let p = theta0.len();
    let mut theta = theta0.to_vec();
    let mut r = Vec::new();
    residuals(&theta, &mut r);
    let m = r.len();
    if m < p {
        return Err(FitError::TooFewSamples { got: m, need: p });
    }
    let mut sse: f64 = r.iter().map(|x| x * x).sum();
    let mut lambda = LM_LAMBDA0;
    let mut jac = vec![vec![0.0f64; m]; p];
    let mut r_pert = Vec::new();

    for _ in 0..LM_MAX_ITERS {
        // Finite-difference Jacobian.
        for j in 0..p {
            let h = 1e-6 * theta[j].abs().max(1e-3);
            let mut t2 = theta.clone();
            t2[j] += h;
            residuals(&t2, &mut r_pert);
            for i in 0..m {
                jac[j][i] = (r_pert[i] - r[i]) / h;
            }
        }
        // Normal equations: (J^T J + lambda diag) delta = -J^T r.
        let mut jtj = Mat::zeros(p, p);
        let mut jtr = vec![0.0f64; p];
        for a in 0..p {
            for b in a..p {
                let dot: f64 = jac[a].iter().zip(&jac[b]).map(|(x, y)| x * y).sum();
                jtj[(a, b)] = dot;
                jtj[(b, a)] = dot;
            }
            jtr[a] = -jac[a].iter().zip(&r).map(|(x, y)| x * y).sum::<f64>();
        }
        let mut improved = false;
        for _try in 0..8 {
            let mut damped = jtj.clone();
            for d in 0..p {
                damped[(d, d)] += lambda * (jtj[(d, d)].abs() + 1e-12);
            }
            let delta = match Cholesky::factor(&damped).and_then(|ch| ch.solve(&jtr)) {
                Ok(d) => d,
                Err(_) => {
                    lambda *= 10.0;
                    continue;
                }
            };
            let cand: Vec<f64> = theta.iter().zip(&delta).map(|(t, d)| t + d).collect();
            residuals(&cand, &mut r_pert);
            let cand_sse: f64 = r_pert.iter().map(|x| x * x).sum();
            if cand_sse < sse {
                let rel = (sse - cand_sse) / sse.max(1e-30);
                theta = cand;
                std::mem::swap(&mut r, &mut r_pert);
                sse = cand_sse;
                lambda = (lambda / 3.0).max(1e-12);
                improved = true;
                if rel < LM_TOL {
                    return Ok((theta, sse));
                }
                break;
            }
            lambda *= 5.0;
        }
        if !improved {
            break;
        }
    }
    Ok((theta, sse))
}

/// A distribution-shaped surface fitted to a multiplier's outputs:
///
/// `f(x, y) = t0·S·pdf((x̂ − t1)/e^t2)·pdf((ŷ − t3)/e^t4) + t5·S`
///
/// with `x̂ = x/128`, `S = 16384` and `pdf` the standard density of the
/// chosen family. Following the paper's description, the fitting
/// function is built purely from the fitted distribution's shape — there
/// is deliberately no bilinear term, which is why these models track
/// bit-level operator surfaces poorly and motivate the PR representation.
#[derive(Debug, Clone)]
pub struct SurfaceFit {
    kind: DistKind,
    theta: Vec<f64>,
    sse: f64,
}

impl SurfaceFit {
    /// Distribution family shaping the correction term.
    pub fn kind(&self) -> DistKind {
        self.kind
    }

    /// Predicts the operator output for an input pair.
    pub(crate) fn predict(&self, a: i8, b: i8) -> f64 {
        surface(&self.theta, self.kind, a, b)
    }

    /// Mean absolute estimation error against the operator over the
    /// exhaustive space.
    pub fn estimation_mae(&self, m: &dyn Mul8s) -> f64 {
        self.estimation_mae_fn(|a, b| f64::from(m.mul(a, b)))
    }

    /// Closure-operator variant of [`SurfaceFit::estimation_mae`].
    pub fn estimation_mae_fn(&self, f: impl Fn(i8, i8) -> f64) -> f64 {
        let mut acc = 0.0;
        for (a, b) in exhaustive_pairs() {
            acc += (self.predict(a, b) - f(a, b)).abs();
        }
        acc / 65_536.0
    }

    /// Signed estimation errors (`actual − estimated`) over the
    /// exhaustive space, for histogram plots (paper Fig. 4).
    pub fn estimation_errors(&self, m: &dyn Mul8s) -> Vec<f64> {
        exhaustive_pairs()
            .map(|(a, b)| f64::from(m.mul(a, b)) - self.predict(a, b))
            .collect()
    }
}

fn surface(theta: &[f64], kind: DistKind, a: i8, b: i8) -> f64 {
    let x = f64::from(a) / 128.0;
    let y = f64::from(b) / 128.0;
    let unit = unit_dist(kind);
    let sx = theta[2].exp().clamp(1e-6, 1e6);
    let sy = theta[4].exp().clamp(1e-6, 1e6);
    theta[0] * 16_384.0 * unit.pdf((x - theta[1]) / sx) * unit.pdf((y - theta[3]) / sy)
        + theta[5] * 16_384.0
}

/// A standard (location 0, scale 1) instance of a family, used as the
/// shape kernel of curve-fitting surfaces.
fn unit_dist(kind: DistKind) -> Dist {
    Dist::with_params(kind, 0.0, 1.0)
}

/// Fits the surface model for one distribution family.
///
/// Fitting uses a deterministic 1/16 subsample of the input space for
/// speed; reported quality metrics always use the full space.
///
/// # Errors
///
/// Propagates numeric failures from the optimizer.
pub fn fit_multiplier_surface(m: &dyn Mul8s, kind: DistKind) -> Result<SurfaceFit> {
    fit_surface_fn(|a, b| f64::from(m.mul(a, b)), kind)
}

/// Closure-operator variant of [`fit_multiplier_surface`] (used for
/// adders and other operator families).
///
/// # Errors
///
/// Propagates numeric failures from the optimizer.
pub fn fit_surface_fn(f: impl Fn(i8, i8) -> f64, kind: DistKind) -> Result<SurfaceFit> {
    let samples: Vec<(i8, i8, f64)> = exhaustive_pairs()
        .step_by(16)
        .map(|(a, b)| (a, b, f(a, b)))
        .collect();
    let theta0 = [0.5, 0.0, 0.0, 0.0, 0.0, 0.0];
    let residuals = |theta: &[f64], out: &mut Vec<f64>| {
        out.clear();
        out.extend(
            samples
                .iter()
                .map(|&(a, b, target)| surface(theta, kind, a, b) - target),
        );
    };
    let (theta, sse) = levenberg_marquardt(residuals, &theta0)?;
    Ok(SurfaceFit { kind, theta, sse })
}

/// Runs the full curve-fitting baseline: distribution-fits the operator's
/// error sample, takes the `top_k` families by K-S rank, fits a surface
/// for each and returns them ranked by SSE (best first).
///
/// # Errors
///
/// Propagates numeric failures from the optimizer.
pub fn best_curve_fits(m: &dyn Mul8s, top_k: usize) -> Result<Vec<SurfaceFit>> {
    let errors = error_samples(m);
    let ranked = rank_distributions(&errors);
    let mut fits = Vec::new();
    for (dist, _ks) in ranked.into_iter().take(top_k) {
        fits.push(fit_multiplier_surface(m, dist.kind())?);
    }
    fits.sort_by(|a, b| a.sse.total_cmp(&b.sse));
    Ok(fits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::{AxMul, MulArch};
    use clapped_exec::Fnv64;

    /// Digest of `curve_fits_are_pinned`'s parameters and SSEs.
    const PINNED_CURVE_FITS: u64 = 6394942593470445457;

    #[test]
    fn lm_fits_a_quadratic() {
        // Fit y = 2 + 3t^2 through noise-free data with model a + b t^2.
        let ts: Vec<f64> = (0..50).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = ts.iter().map(|t| 2.0 + 3.0 * t * t).collect();
        let res = |theta: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.extend(
                ts.iter()
                    .zip(&ys)
                    .map(|(t, y)| theta[0] + theta[1] * t * t - y),
            );
        };
        let (theta, sse) = levenberg_marquardt(res, &[0.0, 0.0]).unwrap();
        assert!((theta[0] - 2.0).abs() < 1e-4, "{theta:?}");
        assert!((theta[1] - 3.0).abs() < 1e-5, "{theta:?}");
        assert!(sse < 1e-6);
    }

    #[test]
    fn lm_fits_nonlinear_exponential() {
        let ts: Vec<f64> = (0..40).map(|i| i as f64 / 10.0).collect();
        let ys: Vec<f64> = ts.iter().map(|t| 5.0 * (-0.7 * t).exp()).collect();
        let res = |theta: &[f64], out: &mut Vec<f64>| {
            out.clear();
            out.extend(
                ts.iter()
                    .zip(&ys)
                    .map(|(t, y)| theta[0] * (theta[1] * t).exp() - y),
            );
        };
        let (theta, _) = levenberg_marquardt(res, &[1.0, -0.1]).unwrap();
        assert!((theta[0] - 5.0).abs() < 1e-3, "{theta:?}");
        assert!((theta[1] + 0.7).abs() < 1e-3, "{theta:?}");
    }

    #[test]
    fn surface_fit_improves_over_initial_guess() {
        let m = AxMul::new("e", MulArch::Exact);
        let fit = fit_multiplier_surface(&m, DistKind::Normal).unwrap();
        // The optimizer must at least beat the trivial zero prediction.
        let zero_mae: f64 = clapped_axops::exhaustive_pairs()
            .map(|(a, b)| f64::from(m.mul(a, b)).abs())
            .sum::<f64>()
            / 65_536.0;
        assert!(fit.estimation_mae(&m) < zero_mae, "mae {}", fit.estimation_mae(&m));
    }

    #[test]
    fn surface_fit_cannot_capture_bit_level_operators() {
        // The distribution-only baseline misses the multiplicative
        // structure entirely — the core observation of paper Section II.
        for arch in [MulArch::Exact, MulArch::Mitchell] {
            let m = AxMul::new("m", arch);
            let fit = fit_multiplier_surface(&m, DistKind::Normal).unwrap();
            assert!(fit.estimation_mae(&m) > 100.0, "{arch:?}");
        }
    }

    #[test]
    fn curve_fits_are_pinned() {
        // Three standard operators, two families each: the LM iteration
        // limit, damping and tolerance all feed these bits.
        let catalog = clapped_axops::Catalog::standard();
        let mut h = Fnv64::new();
        for index in [0, 5, 17] {
            let m = catalog.at(index).expect("standard operator");
            for fit in best_curve_fits(m.as_ref(), 2).unwrap() {
                for t in &fit.theta {
                    h.write_u64(t.to_bits());
                }
                h.write_u64(fit.sse.to_bits());
            }
        }
        assert_eq!(h.finish(), PINNED_CURVE_FITS);
    }

    #[test]
    fn best_curve_fits_returns_sorted() {
        let m = AxMul::new("t", MulArch::Truncated { k: 4 });
        let fits = best_curve_fits(&m, 3).unwrap();
        assert_eq!(fits.len(), 3);
        for w in fits.windows(2) {
            assert!(w[0].sse <= w[1].sse);
        }
    }
}
