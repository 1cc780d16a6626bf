//! Polynomial-regression characterization of approximate operators —
//! the paper's core contribution (Section II-A).
//!
//! Every operator is represented by the coefficients of a bivariate
//! polynomial fitted to its full input/output behaviour. Coefficients can
//! be ranked by significance across a whole operator library, *clipped*
//! (zeroed without retraining, the paper's `Clipped_k`) or *retrained on a
//! subset of terms* (the paper's `C_k`), and the resulting short vectors
//! serve as ML features that let models generalize to unseen operators.

use crate::{FitError, Result};
use clapped_axops::{exhaustive_pairs, Mul8s};
use clapped_la::{Cholesky, Mat};
use std::fmt;
use std::ops::Deref;

/// Input normalization: operands are divided by this before entering the
/// monomials, keeping high-degree features well conditioned.
const SCALE: f64 = 128.0;

/// Canonical monomial order for a given degree: `(i, j)` exponent pairs
/// grouped by total degree, mirroring Eq. (1) of the paper
/// (`c0 + c1·x + c2·y + c3·x² + c4·xy + c5·y² + …`).
pub fn canonical_terms(degree: usize) -> Vec<(u8, u8)> {
    let mut terms = Vec::new();
    for d in 0..=degree {
        for i in (0..=d).rev() {
            let j = d - i;
            terms.push((i as u8, j as u8));
        }
    }
    terms
}

/// A polynomial-regression model of one operator.
///
/// # Examples
///
/// ```
/// use clapped_axops::{AxMul, MulArch};
/// use clapped_errmodel::PrModel;
///
/// let m = AxMul::new("m", MulArch::Exact);
/// let pr = PrModel::fit(&m, 2);
/// // For an exact multiplier the xy coefficient carries everything.
/// assert!(pr.r2() > 0.999_999);
/// assert!((pr.predict(10, 10) - 100.0).abs() < 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct PrModel {
    degree: usize,
    terms: Vec<(u8, u8)>,
    coeffs: Vec<f64>,
    r2: f64,
}

impl PrModel {
    /// Fits a degree-`degree` PR model to a multiplier over the full
    /// 65 536-point input space.
    ///
    /// # Panics
    ///
    /// Panics if `degree` is 0 or greater than 6, or if the normal
    /// equations are numerically singular (cannot happen for the canonical
    /// monomial basis over the full grid).
    pub fn fit(m: &dyn Mul8s, degree: usize) -> PrModel {
        Self::fit_fn(|a, b| f64::from(m.mul(a, b)), degree)
    }

    /// Fits a degree-`degree` PR model to an arbitrary binary operator
    /// given as a closure (used for adders and other operator families).
    ///
    /// # Panics
    ///
    /// See [`PrModel::fit`]; also panics if `f` returns a value that is
    /// not finite.
    pub fn fit_fn(f: impl Fn(i8, i8) -> f64, degree: usize) -> PrModel {
        Self::fit_one(&f, degree, canonical_terms(degree))
            .expect("finite outputs on a well-conditioned basis")
    }

    /// Fits a degree-`degree` PR model to each operator of a library, in
    /// input order, in one pass over the input space: the monomial
    /// features, the normal-equation (Gram) matrix and its factorization
    /// are shared, and each operator adds only its own right-hand side.
    /// Every model is bit-identical to the one [`PrModel::fit`] returns.
    ///
    /// # Panics
    ///
    /// See [`PrModel::fit`].
    pub fn fit_many<P>(ops: &[P], degree: usize) -> Vec<PrModel>
    where
        P: Deref,
        P::Target: Mul8s,
    {
        let outputs = |a: i8, b: i8, ys: &mut [f64]| {
            for (y, m) in ys.iter_mut().zip(ops) {
                *y = f64::from(m.mul(a, b));
            }
        };
        fit_pass(ops.len(), &outputs, degree, canonical_terms(degree))
            .expect("canonical basis is well conditioned")
    }

    /// The one-operator case of the fitting pass.
    fn fit_one(f: &dyn Fn(i8, i8) -> f64, degree: usize, terms: Vec<(u8, u8)>) -> Result<PrModel> {
        let mut models = fit_pass(1, &|a, b, ys: &mut [f64]| ys[0] = f(a, b), degree, terms)?;
        Ok(models.swap_remove(0))
    }

    /// Monomial exponents in model order.
    pub fn terms(&self) -> &[(u8, u8)] {
        &self.terms
    }

    /// Fitted coefficients, aligned with [`PrModel::terms`].
    pub fn coeffs(&self) -> &[f64] {
        &self.coeffs
    }

    /// Coefficient of determination of the fit.
    pub fn r2(&self) -> f64 {
        self.r2
    }

    /// Predicts the operator output for an input pair.
    pub fn predict(&self, a: i8, b: i8) -> f64 {
        let x = f64::from(a) / SCALE;
        let y = f64::from(b) / SCALE;
        self.terms
            .iter()
            .zip(&self.coeffs)
            .map(|(&(i, j), &c)| c * x.powi(i32::from(i)) * y.powi(i32::from(j)))
            .sum()
    }

    /// Predicts and rounds to a 16-bit product (saturating).
    pub fn predict_i16(&self, a: i8, b: i8) -> i16 {
        self.predict(a, b)
            .round()
            .clamp(f64::from(i16::MIN), f64::from(i16::MAX)) as i16
    }

    /// Returns a copy with all but the `keep` most significant terms
    /// zeroed (no retraining) — the paper's `Clipped_k` models.
    ///
    /// `ranking` lists term indices by descending significance, as
    /// produced by [`rank_terms`].
    ///
    /// # Panics
    ///
    /// Panics if `ranking` is not a permutation-prefix of the model's
    /// term indices.
    pub fn clipped(&self, ranking: &[usize], keep: usize) -> PrModel {
        let mut out = self.clone();
        let kept: Vec<usize> = ranking.iter().copied().take(keep).collect();
        for (idx, c) in out.coeffs.iter_mut().enumerate() {
            if !kept.contains(&idx) {
                *c = 0.0;
            }
        }
        out
    }

    /// Retrains the model keeping only the `keep` most significant terms
    /// (the paper's `C_k` models).
    ///
    /// # Errors
    ///
    /// Returns [`FitError::BadTerm`] if one of the first `keep` ranking
    /// entries is not an index into this model's terms or repeats one,
    /// and propagates fitting errors.
    pub fn refit_top(
        &self,
        m: &dyn Mul8s,
        ranking: &[usize],
        keep: usize,
    ) -> Result<PrModel> {
        self.refit_top_fn(|a, b| f64::from(m.mul(a, b)), ranking, keep)
    }

    /// Closure-operator variant of [`PrModel::refit_top`].
    ///
    /// # Errors
    ///
    /// See [`PrModel::refit_top`].
    pub(crate) fn refit_top_fn(
        &self,
        f: impl Fn(i8, i8) -> f64,
        ranking: &[usize],
        keep: usize,
    ) -> Result<PrModel> {
        let kept = &ranking[..keep.min(ranking.len())];
        let bad = |i: usize, reason: String| FitError::BadTerm {
            term: format!("ranking index {i}"),
            degree: self.degree,
            reason,
        };
        let mut terms = Vec::with_capacity(kept.len());
        for (k, &i) in kept.iter().enumerate() {
            if kept[..k].contains(&i) {
                return Err(bad(i, "repeated".to_string()));
            }
            let term = self.terms.get(i).copied().ok_or_else(|| {
                bad(i, format!("outside the model's {} terms", self.terms.len()))
            })?;
            terms.push(term);
        }
        Self::fit_one(&f, self.degree, terms)
    }

    /// The coefficient feature vector for ML models: the coefficients of
    /// the `k` globally most significant terms, in ranking order (terms
    /// absent from this model contribute 0).
    pub fn feature_vector(&self, ranking: &[usize], k: usize) -> Vec<f64> {
        let full = canonical_terms(self.degree);
        ranking
            .iter()
            .take(k)
            .map(|&global_idx| {
                let term = full[global_idx];
                self.terms
                    .iter()
                    .position(|&t| t == term)
                    .map(|p| self.coeffs[p])
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// Mean absolute estimation error against the operator over the
    /// exhaustive space.
    pub fn estimation_mae(&self, m: &dyn Mul8s) -> f64 {
        self.estimation_mae_fn(|a, b| f64::from(m.mul(a, b)))
    }

    /// Closure-operator variant of [`PrModel::estimation_mae`].
    pub fn estimation_mae_fn(&self, f: impl Fn(i8, i8) -> f64) -> f64 {
        let mut acc = 0.0;
        for (a, b) in exhaustive_pairs() {
            acc += (self.predict(a, b) - f(a, b)).abs();
        }
        acc / 65_536.0
    }

    /// Signed estimation errors (`actual − estimated`) for histogram
    /// plots (paper Fig. 4).
    pub fn estimation_errors(&self, m: &dyn Mul8s) -> Vec<f64> {
        exhaustive_pairs()
            .map(|(a, b)| f64::from(m.mul(a, b)) - self.predict(a, b))
            .collect()
    }
}

/// Ranks monomial terms by significance across an operator library:
/// the mean over models of `|coefficient| × std(monomial feature)`.
/// Returns term indices (into [`canonical_terms`] of the shared degree)
/// sorted by descending significance.
///
/// # Panics
///
/// Panics if `models` is empty or the models disagree on degree/basis.
pub fn rank_terms(models: &[&PrModel]) -> Vec<usize> {
    assert!(!models.is_empty(), "need at least one model to rank");
    let degree = models[0].degree;
    let terms = canonical_terms(degree);
    for m in models {
        assert_eq!(m.degree, degree, "models must share a degree");
        assert_eq!(m.terms, terms, "models must use the canonical basis");
    }
    // Feature standard deviation over the input grid (computed once).
    let stds: Vec<f64> = terms
        .iter()
        .map(|&(i, j)| feature_std(i, j))
        .collect();
    let mut importance = vec![0.0f64; terms.len()];
    for m in models {
        for (idx, &c) in m.coeffs.iter().enumerate() {
            importance[idx] += c.abs() * stds[idx];
        }
    }
    let mut order: Vec<usize> = (0..terms.len()).collect();
    order.sort_by(|&a, &b| importance[b].total_cmp(&importance[a]));
    order
}

/// Powers `v^0 ..= v^6` of a normalized operand.
fn powers(v: i8) -> [f64; 7] {
    let x = f64::from(v) / SCALE;
    let mut p = [1.0f64; 7];
    for k in 1..7 {
        p[k] = p[k - 1] * x;
    }
    p
}

/// Input pairs per block of the fitting sweep: one row of `a`.
const BLOCK: usize = 256;

/// Columns per accumulator tile; the term and operator dimensions of
/// the blocks are padded to a multiple of it with zeros.
const TILE: usize = 4;

/// Rows per accumulator tile.
const ROWS: usize = 2;

/// The fitting pass: least-squares fits of `count` operators on the
/// monomials `terms`, in one sweep over [`exhaustive_pairs`].
/// `outputs(a, b, ys)` writes every operator's output at `(a, b)`.
///
/// Per input pair the features are evaluated once and the upper
/// triangle of the Gram matrix `X'X` is accumulated once; each operator
/// accumulates its right-hand side `X'y`, `Σy` and `Σy²`. The Gram
/// matrix plus a tiny ridge is factored once and solved per operator.
/// Every sum sees the same operations in the same order as a fit of one
/// operator, so a batched model is bit-identical to a lone one.
///
/// The sweep runs one row of `a` (256 pairs) at a time: it fills
/// pair-major feature and output blocks, then adds each block to the
/// sums tile by tile ([`add_tile`]), each tile held in registers across
/// the block, so an accumulator is loaded and stored once per row
/// instead of once per pair. Every sum still adds the same products in
/// pair order. Where a feature is zero it adds `±0`, which leaves the
/// sum unchanged: a sum that starts at `+0.0` never becomes `-0.0`
/// under round-to-nearest. That holds only for finite outputs
/// (`0 · ∞` is NaN), so an output that is not finite is an error.
fn fit_pass(
    count: usize,
    outputs: &dyn Fn(i8, i8, &mut [f64]),
    degree: usize,
    terms: Vec<(u8, u8)>,
) -> Result<Vec<PrModel>> {
    assert!((1..=6).contains(&degree), "degree must be in 1..=6");
    if terms.is_empty() {
        return Err(FitError::TooFewSamples { got: 0, need: 1 });
    }
    if count == 0 {
        return Ok(Vec::new());
    }
    let t = terms.len();
    let (tp, cp) = (t.next_multiple_of(TILE), count.next_multiple_of(TILE));
    // Indexed by the operand's two's-complement byte.
    let table: Vec<[f64; 7]> = (0..=u8::MAX).map(|u| powers(u as i8)).collect();
    // `X'X`, row-major with stride `tp`. The tiles that cross the
    // diagonal also sum entries below it; only `i <= j < t` are read.
    let mut xx = vec![0.0f64; tp * tp];
    // `X'y`, term-major, operator-minor: entry `i * cp + k`.
    let mut xy = vec![0.0f64; tp * cp];
    let mut y_sum = vec![0.0f64; cp];
    let mut y_sq = vec![0.0f64; cp];
    // One block, pair-major: entries `p * tp + i` and `p * cp + k`. The
    // padding stays zero.
    let mut features = vec![0.0f64; BLOCK * tp];
    let mut ys = vec![0.0f64; BLOCK * cp];
    for a in i8::MIN..=i8::MAX {
        let xp = &table[usize::from(a as u8)];
        let rows = features.chunks_exact_mut(tp).zip(ys.chunks_exact_mut(cp));
        for (b, (row, y)) in (i8::MIN..=i8::MAX).zip(rows) {
            let yp = &table[usize::from(b as u8)];
            for (slot, &(i, j)) in row.iter_mut().zip(&terms) {
                *slot = xp[usize::from(i)] * yp[usize::from(j)];
            }
            outputs(a, b, &mut y[..count]);
        }
        if let Some(at) = ys.iter().position(|y| !y.is_finite()) {
            let b = i32::from(i8::MIN) + (at / cp) as i32;
            return Err(FitError::Numeric(format!(
                "operator {} returned {} at ({a}, {b}), not a finite value",
                at % cp,
                ys[at]
            )));
        }
        for i in (0..t).step_by(ROWS) {
            // The tiles that hold an entry on or right of the diagonal.
            for c in (i - i % TILE..t).step_by(TILE) {
                add_tile(&mut xx, tp, &features, i, &features, c);
            }
            for c in (0..count).step_by(TILE) {
                add_tile(&mut xy, cp, &features, i, &ys, c);
            }
        }
        add_moments(&mut y_sum, &mut y_sq, &ys);
    }
    // Every pair counted once (an exact integer).
    let n = (BLOCK * BLOCK) as f64;
    let mut gram = Mat::zeros(t, t);
    for i in 0..t {
        for j in i..t {
            gram[(i, j)] = xx[i * tp + j];
            gram[(j, i)] = xx[i * tp + j];
        }
        // Tiny ridge for numerical robustness of near-collinear bases.
        gram[(i, i)] += 1e-9;
    }
    let numeric = |e: clapped_la::LaError| FitError::Numeric(e.to_string());
    let cholesky = Cholesky::factor(&gram).map_err(numeric)?;
    (0..count)
        .map(|k| {
            let rhs: Vec<f64> = (0..t).map(|i| xy[i * cp + k]).collect();
            let coeffs = cholesky.solve(&rhs).map_err(numeric)?;
            // R^2 = 1 - SSE/SST; SSE = y'y - 2 c'X'y + c'X'X c.
            let mut cxx = 0.0;
            for i in 0..t {
                for j in 0..t {
                    cxx += coeffs[i] * gram[(i, j)] * coeffs[j];
                }
            }
            let cxy: f64 = coeffs.iter().zip(&rhs).map(|(c, r)| c * r).sum();
            let sse = (y_sq[k] - 2.0 * cxy + cxx).max(0.0);
            let sst = (y_sq[k] - y_sum[k] * y_sum[k] / n).max(1e-12);
            Ok(PrModel {
                degree,
                terms: terms.clone(),
                coeffs,
                r2: 1.0 - sse / sst,
            })
        })
        .collect()
}

/// Adds `lhs[p][r] · rhs[p][c]` for every pair `p` of a block, in pair
/// order, to `dst[r * stride + c]` for the tile of rows `i..i + 2` and
/// columns `c..c + TILE`. `lhs` and `rhs` are pair-major blocks. The
/// tile is loaded before the block and stored after it, not once per
/// pair.
#[inline]
fn add_tile(dst: &mut [f64], stride: usize, lhs: &[f64], i: usize, rhs: &[f64], c: usize) {
    let (ls, rs) = (lhs.len() / BLOCK, rhs.len() / BLOCK);
    assert!(i + ROWS <= ls && c + TILE <= rs && i + ROWS <= dst.len() / stride);
    let mut acc = [[0.0f64; TILE]; ROWS];
    for (r, tile) in acc.iter_mut().enumerate() {
        let at = (i + r) * stride + c;
        tile.copy_from_slice(&dst[at..at + TILE]);
    }
    for (l, v) in lhs.chunks_exact(ls).zip(rhs.chunks_exact(rs)) {
        let (l, v) = (&l[i..i + ROWS], &v[c..c + TILE]);
        for (tile, &f) in acc.iter_mut().zip(l) {
            for (s, &y) in tile.iter_mut().zip(v) {
                *s += f * y;
            }
        }
    }
    for (r, tile) in acc.iter().enumerate() {
        let at = (i + r) * stride + c;
        dst[at..at + TILE].copy_from_slice(tile);
    }
}

/// Adds each operator's outputs `y` and squares `y²` over one block, in
/// pair order, to `y_sum` and `y_sq`, `TILE` operators at a time.
fn add_moments(y_sum: &mut [f64], y_sq: &mut [f64], ys: &[f64]) {
    let cp = y_sum.len();
    for k in (0..cp).step_by(TILE) {
        let mut s = [0.0f64; TILE];
        let mut q = [0.0f64; TILE];
        s.copy_from_slice(&y_sum[k..k + TILE]);
        q.copy_from_slice(&y_sq[k..k + TILE]);
        for v in ys.chunks_exact(cp) {
            for ((s, q), &y) in s.iter_mut().zip(&mut q).zip(&v[k..k + TILE]) {
                *s += y;
                *q += y * y;
            }
        }
        y_sum[k..k + TILE].copy_from_slice(&s);
        y_sq[k..k + TILE].copy_from_slice(&q);
    }
}

/// Standard deviation of the monomial `x^i y^j` over the normalized
/// 8-bit grid (computed numerically over one axis since x and y are
/// independent).
fn feature_std(i: u8, j: u8) -> f64 {
    if i == 0 && j == 0 {
        // The constant term has zero variance but shifts every
        // prediction; give it a small non-zero scale so operator bias (a
        // key approximation driver) is rankable without dominating the
        // structural terms.
        return 0.1;
    }
    let moment = |p: u32| -> f64 {
        let mut acc = 0.0;
        for v in i8::MIN..=i8::MAX {
            acc += (f64::from(v) / SCALE).powi(p as i32);
        }
        acc / 256.0
    };
    let exi = moment(u32::from(i));
    let exi2 = moment(2 * u32::from(i));
    let eyj = moment(u32::from(j));
    let eyj2 = moment(2 * u32::from(j));
    let mean = exi * eyj;
    let var = (exi2 * eyj2 - mean * mean).max(0.0);
    var.sqrt()
}

impl fmt::Display for PrModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PR(degree {}, {} terms, R2 {:.4})", self.degree, self.terms.len(), self.r2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::{AxMul, MulArch};

    #[test]
    fn canonical_terms_counts() {
        assert_eq!(canonical_terms(1).len(), 3);
        assert_eq!(canonical_terms(2).len(), 6);
        assert_eq!(canonical_terms(3).len(), 10);
        assert_eq!(canonical_terms(2), vec![(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]);
    }

    #[test]
    fn exact_multiplier_recovers_xy_coefficient() {
        let m = AxMul::new("e", MulArch::Exact);
        let pr = PrModel::fit(&m, 2);
        // Coefficient of xy should be SCALE^2 (since features are x/128).
        let xy_idx = pr.terms().iter().position(|&t| t == (1, 1)).unwrap();
        assert!((pr.coeffs()[xy_idx] - SCALE * SCALE).abs() < 1e-3);
        for (idx, &c) in pr.coeffs().iter().enumerate() {
            if idx != xy_idx {
                assert!(c.abs() < 1e-3, "term {idx} unexpectedly {c}");
            }
        }
        assert!(pr.r2() > 0.999_999_9);
        assert_eq!(pr.predict_i16(-128, 127), -16_256);
    }

    #[test]
    fn a_non_finite_output_is_an_error() {
        for bad in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            let f = |a: i8, b: i8| {
                if (a, b) == (0, 5) {
                    bad
                } else {
                    f64::from(a) * f64::from(b)
                }
            };
            let err = PrModel::fit_one(&f, 2, canonical_terms(2)).unwrap_err();
            assert!(
                matches!(err, FitError::Numeric(ref m) if m.contains("at (0, 5)")),
                "{err}"
            );
        }
    }

    #[test]
    fn degree3_fits_truncated_multiplier_well() {
        let m = AxMul::new("t", MulArch::Truncated { k: 4 });
        let pr = PrModel::fit(&m, 3);
        assert!(pr.r2() > 0.999, "R2 {}", pr.r2());
        assert!(pr.estimation_mae(&m) < 20.0);
    }

    #[test]
    fn higher_degree_never_fits_worse() {
        let m = AxMul::new("log", MulArch::Mitchell);
        let r2_2 = PrModel::fit(&m, 2).r2();
        let r2_3 = PrModel::fit(&m, 3).r2();
        let r2_4 = PrModel::fit(&m, 4).r2();
        assert!(r2_3 >= r2_2 - 1e-12);
        assert!(r2_4 >= r2_3 - 1e-12);
    }

    #[test]
    fn ranking_puts_xy_first_for_multipliers() {
        let muls: Vec<AxMul> = [
            MulArch::Exact,
            MulArch::Truncated { k: 3 },
            MulArch::Mitchell,
            MulArch::Drum { k: 4 },
        ]
        .iter()
        .enumerate()
        .map(|(i, &arch)| AxMul::new(format!("m{i}"), arch))
        .collect();
        let models: Vec<PrModel> = muls.iter().map(|m| PrModel::fit(m, 3)).collect();
        let refs: Vec<&PrModel> = models.iter().collect();
        let ranking = rank_terms(&refs);
        let terms = canonical_terms(3);
        assert_eq!(terms[ranking[0]], (1, 1), "xy must dominate");
    }

    #[test]
    fn clipped_model_degrades_gracefully() {
        let m = AxMul::new("t", MulArch::Truncated { k: 4 });
        let pr = PrModel::fit(&m, 3);
        let ranking = rank_terms(&[&pr]);
        let full_mae = pr.estimation_mae(&m);
        let mae5 = pr.clipped(&ranking, 5).estimation_mae(&m);
        let mae2 = pr.clipped(&ranking, 2).estimation_mae(&m);
        // Clipping (no retraining) can only match or worsen the fitted
        // model; between clipped models no strict ordering is guaranteed.
        assert!(mae5 >= full_mae - 1e-9);
        assert!(mae2 >= full_mae - 1e-9);
    }

    #[test]
    fn refit_top_beats_clipping() {
        let m = AxMul::new("b", MulArch::BrokenArray { vbl: 6, hbl: 2 });
        let pr = PrModel::fit(&m, 3);
        let ranking = rank_terms(&[&pr]);
        let keep = 4;
        let clipped = pr.clipped(&ranking, keep).estimation_mae(&m);
        let refit = pr.refit_top(&m, &ranking, keep).unwrap().estimation_mae(&m);
        assert!(refit <= clipped + 1e-9, "refit {refit} vs clipped {clipped}");
    }

    #[test]
    fn feature_vector_has_requested_length_and_order() {
        let m = AxMul::new("t", MulArch::Truncated { k: 2 });
        let pr = PrModel::fit(&m, 3);
        let ranking = rank_terms(&[&pr]);
        let fv = pr.feature_vector(&ranking, 4);
        assert_eq!(fv.len(), 4);
        assert_eq!(fv[0], pr.coeffs()[ranking[0]]);
    }

    fn bits(pr: &PrModel) -> (Vec<u64>, u64) {
        (
            pr.coeffs().iter().map(|c| c.to_bits()).collect(),
            pr.r2().to_bits(),
        )
    }

    #[test]
    fn library_fit_matches_lone_fits_bit_for_bit() {
        let catalog = clapped_axops::Catalog::standard();
        let many = PrModel::fit_many(catalog.muls(), 3);
        assert_eq!(many.len(), catalog.len());
        for (pr, m) in many.iter().zip(catalog.iter()) {
            let lone = PrModel::fit(m.as_ref(), 3);
            assert_eq!(pr.terms(), lone.terms(), "{}", m.name());
            assert_eq!(bits(pr), bits(&lone), "{}", m.name());
        }
        assert!(PrModel::fit_many::<&AxMul>(&[], 3).is_empty());
    }

    #[test]
    fn ranking_entries_outside_the_model_are_rejected() {
        let m = AxMul::new("t", MulArch::Truncated { k: 2 });
        let pr = PrModel::fit(&m, 2);
        for ranking in [vec![4, 6], vec![1, 1]] {
            assert!(
                matches!(
                    pr.refit_top(&m, &ranking, 2),
                    Err(FitError::BadTerm { degree: 2, .. })
                ),
                "{ranking:?}"
            );
        }
        // Entries past `keep` are never read.
        assert!(pr.refit_top(&m, &[4, 1, 99], 2).is_ok());
    }

    #[test]
    fn empty_term_set_is_rejected() {
        let m = AxMul::new("e", MulArch::Exact);
        let pr = PrModel::fit(&m, 2);
        assert!(matches!(
            pr.refit_top(&m, &[0, 1], 0),
            Err(FitError::TooFewSamples { .. })
        ));
    }
}
