//! Gaussian-process regression: the probabilistic surrogate of the MBO
//! loop.

use crate::{DseError, Result};
use clapped_la::{Cholesky, Mat, Standardizer};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Scratch for [`Gp::try_predict`]'s `k*` vector and variance solve:
    /// single-point prediction runs millions of times per DSE, and the
    /// two per-call heap allocations dominated its profile.
    static PREDICT_SCRATCH: RefCell<(Vec<f64>, Vec<f64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Training rows the distance sums of [`sq_dists`] advance together.
const LANES: usize = 4;

/// The standardized training rows shared by GPs fitted together.
#[derive(Debug)]
struct Training {
    x_std: Standardizer,
    /// Standardized rows, flat row-major, `x_std.dim()` entries each.
    rows: Vec<f64>,
}

impl Training {
    fn new<R: AsRef<[f64]>>(xs: &[R]) -> Training {
        let x_std = Standardizer::fit(xs);
        let rows = xs
            .iter()
            .flat_map(|r| x_std.transform_row(r.as_ref()))
            .collect();
        Training { x_std, rows }
    }

    /// Squared distances between the rows, the lower triangle of an
    /// `n × n` table: row `i` holds the distances to rows `0..=i`.
    fn pair_sq_dists(&self) -> Vec<f64> {
        let (n, dim) = (self.len(), self.dim());
        let mut d2 = vec![0.0; n * n];
        for i in 0..n {
            let xi = &self.rows[i * dim..(i + 1) * dim];
            sq_dists(xi, &self.rows[..(i + 1) * dim], &mut d2[i * n..=i * n + i]);
        }
        d2
    }

    fn dim(&self) -> usize {
        self.x_std.dim()
    }

    fn len(&self) -> usize {
        self.rows.len() / self.dim()
    }
}

/// A Gaussian-process regressor with an RBF kernel.
///
/// Features and targets are standardized internally. The lengthscale and
/// noise level are selected from a small grid by log marginal likelihood
/// — adequate for the few-hundred-sample surrogates MBO maintains.
///
/// # Examples
///
/// ```
/// use clapped_dse::Gp;
///
/// let xs: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64 / 4.0]).collect();
/// let ys: Vec<f64> = xs.iter().map(|x| (x[0]).sin()).collect();
/// let gp = Gp::fit(&xs, &ys).unwrap();
/// let (mean, var) = gp.predict(&[2.0]);
/// assert!((mean - 2.0f64.sin()).abs() < 0.1);
/// assert!(var >= 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Gp {
    train: Arc<Training>,
    y_mean: f64,
    y_scale: f64,
    alpha: Vec<f64>,
    chol: Arc<Cholesky>,
    lengthscale: f64,
    noise: f64,
}

impl Gp {
    /// Fits the GP to a dataset (the one-target case of `Gp::fit_many`).
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Surrogate`] when the dataset is empty,
    /// inconsistent, or the kernel matrix cannot be factored at any grid
    /// point.
    pub fn fit(xs: &[Vec<f64>], ys: &[f64]) -> Result<Gp> {
        Gp::fit_many(xs, &[ys])?
            .pop()
            .ok_or_else(|| DseError::Surrogate("no model fitted".to_string()))
    }

    /// Fits one GP per target on the same feature rows, each exactly the
    /// GP [`Gp::fit`] would return for that target alone.
    ///
    /// The kernel does not depend on the target, so the work it takes is
    /// done once: the features are standardized once, the pairwise
    /// squared distances computed once, and at each lengthscale the
    /// kernel is exponentiated once and factored once per noise level.
    /// Each target then solves against that factorization and keeps the
    /// grid point of greatest log marginal likelihood (the first on
    /// ties). The returned GPs share the standardized training rows.
    ///
    /// A lengthscale whose kernel has Gershgorin radius at most 1/2 is
    /// decided after the others: its grid points are skipped unfactored
    /// where a bound on their likelihood proves they lose for every
    /// target (see `fit_grid`), so each pick is still the full grid's.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Surrogate`] when the dataset is empty, a
    /// target's length differs from the row count, the rows are
    /// inconsistent or a value is non-finite, or the kernel matrix cannot
    /// be factored at any grid point.
    pub(crate) fn fit_many<R, T>(xs: &[R], targets: &[T]) -> Result<Vec<Gp>>
    where
        R: AsRef<[f64]>,
        T: AsRef<[f64]>,
    {
        let (gps, skipped) = fit_grid(xs, targets)?;
        let skips = skipped.iter().filter(|&&s| s).count();
        clapped_obs::count("dse.gp.grid_factored", (skipped.len() - skips) as u64);
        clapped_obs::count("dse.gp.grid_skipped", skips as u64);
        Ok(gps)
    }

    /// Predicts `(mean, variance)` at one point (in the original feature
    /// space).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension.
    pub fn predict(&self, x: &[f64]) -> (f64, f64) {
        match self.try_predict(x) {
            Ok(p) => p,
            Err(e) => panic!("GP prediction failed: {e}"),
        }
    }

    /// Predicts `(mean, variance)` at one point, reporting dimension
    /// mismatches as errors instead of panicking. This is the reference
    /// the batched paths match bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Surrogate`] when `x.len()` differs from the
    /// training dimension or contains non-finite values.
    pub(crate) fn try_predict(&self, x: &[f64]) -> Result<(f64, f64)> {
        self.check_query(x)?;
        let xq = self.train.x_std.transform_row(x);
        PREDICT_SCRATCH.with(|scratch| {
            let (k_star, v) = &mut *scratch.borrow_mut();
            k_star.clear();
            k_star.extend(
                self.train
                    .rows
                    .chunks_exact(self.train.dim())
                    .map(|xi| rbf_of_sq(sq_dist(xi, &xq), self.lengthscale)),
            );
            let mean_t: f64 = k_star.iter().zip(&self.alpha).map(|(k, a)| k * a).sum();
            // var = k(x,x) + noise - k*' K^-1 k*
            v.clear();
            v.extend_from_slice(k_star);
            self.chol
                .solve_in_place(v)
                .map_err(|e| DseError::Surrogate(format!("variance solve failed: {e}")))?;
            let quad: f64 = k_star.iter().zip(v.iter()).map(|(k, w)| k * w).sum();
            Ok(self.finish(mean_t, quad))
        })
    }

    /// Predicts `(mean, variance)` at many points at once: the one-model
    /// case of `Gp::predict_many`, numerically identical to mapping
    /// [`Gp::predict`] over `xs`. It standardizes each point and computes
    /// its squared distances to the training rows once, then builds one
    /// flat `k*` matrix and runs one batched triangular solve
    /// ([`Cholesky::solve_many`]) instead of solving per point.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Surrogate`] when any row's dimension differs
    /// from the training dimension or contains non-finite values.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Result<Vec<(f64, f64)>> {
        Ok(Gp::predict_many(std::slice::from_ref(self), xs)?
            .pop()
            .unwrap_or_default())
    }

    /// Predicts `(mean, variance)` at many points under GPs fitted
    /// together by [`Gp::fit_many`], which share their training rows: one
    /// vector per model, in query order, each numerically identical to
    /// mapping that model's [`Gp::predict`] over `xs`.
    ///
    /// Each query is standardized and its squared distances to the
    /// training rows computed once, for all models. Per model, the
    /// distances become one flat `k*` matrix and one batched triangular
    /// solve ([`Cholesky::solve_many`]) — the shape the MBO acquisition
    /// needs, where every iteration scores dozens of candidates against
    /// each objective's surrogate.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Surrogate`] when the models were not fitted
    /// together, or any query's dimension differs from the training
    /// dimension or contains non-finite values.
    pub(crate) fn predict_many(models: &[Gp], xs: &[Vec<f64>]) -> Result<Vec<Vec<(f64, f64)>>> {
        let Some(first) = models.first() else {
            return Ok(Vec::new());
        };
        let train = &first.train;
        if models.iter().any(|g| !Arc::ptr_eq(&g.train, train)) {
            return Err(DseError::Surrogate(
                "models were not fitted together".to_string(),
            ));
        }
        for x in xs {
            first.check_query(x)?;
        }
        let n = train.len();
        let mut d2 = vec![0.0; xs.len() * n];
        for (x, row) in xs.iter().zip(d2.chunks_exact_mut(n)) {
            sq_dists(&train.x_std.transform_row(x), &train.rows, row);
        }
        models
            .iter()
            .map(|g| {
                let kstars: Vec<f64> = d2.iter().map(|&d| rbf_of_sq(d, g.lengthscale)).collect();
                let mut vs = kstars.clone();
                g.chol
                    .solve_many(&mut vs)
                    .map_err(|e| DseError::Surrogate(format!("variance solve failed: {e}")))?;
                Ok(kstars
                    .chunks_exact(n)
                    .zip(vs.chunks_exact(n))
                    .map(|(k_star, v)| {
                        let mean_t: f64 = k_star.iter().zip(&g.alpha).map(|(k, a)| k * a).sum();
                        let quad: f64 = k_star.iter().zip(v).map(|(k, w)| k * w).sum();
                        g.finish(mean_t, quad)
                    })
                    .collect())
            })
            .collect()
    }

    fn check_query(&self, x: &[f64]) -> Result<()> {
        if x.len() != self.train.dim() {
            return Err(DseError::Surrogate(format!(
                "query dim {} vs training dim {}",
                x.len(),
                self.train.dim()
            )));
        }
        if x.iter().any(|v| !v.is_finite()) {
            return Err(DseError::Surrogate(format!("non-finite query point {x:?}")));
        }
        Ok(())
    }

    /// Destandardizes a `(mean, quad)` pair into output units.
    fn finish(&self, mean_t: f64, quad: f64) -> (f64, f64) {
        let var_t = (1.0 + self.noise - quad).max(0.0);
        (
            mean_t * self.y_scale + self.y_mean,
            var_t * self.y_scale * self.y_scale,
        )
    }

    /// The selected kernel lengthscale (standardized units).
    pub fn lengthscale(&self) -> f64 {
        self.lengthscale
    }

    /// The selected noise variance (standardized units).
    pub fn noise(&self) -> f64 {
        self.noise
    }

    /// The weights `(K + noise·I)⁻¹ y` of the standardized targets, one
    /// per training row: the predictive mean is their sum weighted by
    /// the query's kernel values.
    pub fn alpha(&self) -> &[f64] {
        &self.alpha
    }
}

/// Noise variances tried at every lengthscale, in grid order.
const NOISES: [f64; 2] = [1e-4, 1e-2];

/// The Gershgorin radius at or below which a kernel's grid points are
/// decided last. It confines the spectrum of `K + noise·I` to
/// `[1 + noise − 1/2, 1 + noise + 1/2]`, a condition number of at most
/// 3, which is what [`lml_error_bound`] assumes.
const DEFER_RADIUS: f64 = 0.5;

/// The lengthscale grid for `dim` standardized features, in grid order.
/// Random standardized points sit at distance ~sqrt(2·dim), so fixed
/// lengthscales degenerate to a diagonal kernel in high dimension; the
/// last three scale with the dimension.
fn lengthscales(dim: usize) -> [f64; 7] {
    let s = (dim as f64).sqrt();
    [0.5, 1.0, 2.0, 4.0, 0.5 * s, 1.0 * s, 2.0 * s]
}

/// One target of a fit, standardized.
struct Target {
    y_mean: f64,
    y_scale: f64,
    yt: Vec<f64>,
    /// `Σ yt²`, the `S` of [`lml_ceiling`] and [`lml_error_bound`].
    sum_sq: f64,
}

impl Target {
    fn standardize(ys: &[f64]) -> Target {
        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let y_var = ys.iter().map(|y| (y - y_mean) * (y - y_mean)).sum::<f64>() / ys.len() as f64;
        let y_scale = if y_var > 0.0 { y_var.sqrt() } else { 1.0 };
        let yt: Vec<f64> = ys.iter().map(|y| (y - y_mean) / y_scale).collect();
        let sum_sq = yt.iter().map(|y| y * y).sum();
        Target {
            y_mean,
            y_scale,
            yt,
            sum_sq,
        }
    }
}

/// A target's best grid point so far.
struct Pick {
    lml: f64,
    /// Position in the grid (lengthscale-major, then noise).
    index: usize,
    gp: Gp,
}

impl Pick {
    /// Whether a grid point of log marginal likelihood `lml` at grid
    /// position `index` replaces `pick`: a greater LML wins, and an equal
    /// one wins from a lower grid position. Deferred points are offered
    /// after later ones, so the second rule keeps the full grid's
    /// first-on-ties pick.
    fn is_beaten(pick: Option<&Pick>, lml: f64, index: usize) -> bool {
        pick.is_none_or(|p| lml > p.lml || (lml == p.lml && index < p.index))
    }
}

/// The grid search of one fit: each target's best grid point so far.
struct Selection {
    train: Arc<Training>,
    targets: Vec<Target>,
    picks: Vec<Option<Pick>>,
}

impl Selection {
    /// Factors `kernel` (lower triangle, diagonal `1 + noise`) for grid
    /// point `index` and offers it to every target.
    fn offer(&mut self, kernel: &Mat, index: usize, lengthscale: f64, noise: f64) {
        // Near-duplicate design points (common late in an MBO run, when
        // the search converges) make K numerically semi-definite at this
        // noise level; adaptive jitter escalation recovers the grid
        // point instead of discarding it.
        let Ok((chol, _)) = Cholesky::factor_with_jitter(kernel, 1e-10, 8) else {
            return;
        };
        let chol = Arc::new(chol);
        let log_det = chol.log_det();
        for (t, pick) in self.targets.iter().zip(&mut self.picks) {
            let Ok(alpha) = chol.solve(&t.yt) else {
                continue;
            };
            // log p(y) = -0.5 y'a - 0.5 log|K| - n/2 log(2pi)
            let fit_term: f64 = t.yt.iter().zip(&alpha).map(|(y, a)| y * a).sum();
            let lml = -0.5 * fit_term - 0.5 * log_det;
            if Pick::is_beaten(pick.as_ref(), lml, index) {
                let gp = Gp {
                    train: Arc::clone(&self.train),
                    y_mean: t.y_mean,
                    y_scale: t.y_scale,
                    alpha,
                    chol: Arc::clone(&chol),
                    lengthscale,
                    noise,
                };
                *pick = Some(Pick { lml, index, gp });
            }
        }
    }

    /// Whether a grid point whose kernel has diagonal `diag` and
    /// Gershgorin radius `radius ≤ 1/2` provably loses for every target:
    /// its likelihood ceiling plus the rounding bound is below the
    /// target's best computed likelihood.
    fn loses_everywhere(&self, diag: f64, radius: f64) -> bool {
        let n = self.train.len();
        self.targets.iter().zip(&self.picks).all(|(t, pick)| {
            pick.as_ref().is_some_and(|p| {
                lml_ceiling(n, t.sum_sq, diag, radius) + lml_error_bound(n, t.sum_sq) < p.lml
            })
        })
    }
}

/// `Gp::fit_many`, also returning whether each grid point (in grid
/// order) was skipped unfactored.
///
/// Grid points are decided in two passes. The first builds each
/// lengthscale's kernel once, and with it the Gershgorin radius `R`:
/// the largest sum of a row's off-diagonal entries. Where `R > 1/2` it
/// writes `1 + noise` onto the diagonal for each noise level in turn and
/// factors. A lengthscale with `R ≤ 1/2` is deferred: its spectrum lies
/// in `[1 + noise − R, 1 + noise + R]`, so [`lml_ceiling`] bounds its
/// exact likelihood from above and [`lml_error_bound`] bounds how far
/// the computed one can stray from it. The second pass skips a deferred
/// grid point when that ceiling plus the bound is below every target's
/// best computed likelihood: its computed likelihood is then strictly
/// below another point's, so the full grid would not have picked it.
/// Otherwise it rebuilds the kernel, factors and offers the point as the
/// first pass does, with ties going to the lower grid position.
fn fit_grid<R, T>(xs: &[R], targets: &[T]) -> Result<(Vec<Gp>, Vec<bool>)>
where
    R: AsRef<[f64]>,
    T: AsRef<[f64]>,
{
    let n = xs.len();
    let bad_len = targets.iter().map(|ys| ys.as_ref().len()).find(|&m| m != n);
    if n == 0 || bad_len.is_some() {
        return Err(DseError::Surrogate(format!(
            "{n} samples vs {} targets",
            bad_len.unwrap_or(0)
        )));
    }
    let dim = xs[0].as_ref().len();
    if dim == 0 || xs.iter().any(|r| r.as_ref().len() != dim) {
        return Err(DseError::Surrogate("inconsistent feature rows".to_string()));
    }
    if xs.iter().flat_map(AsRef::as_ref).any(|v| !v.is_finite()) {
        return Err(DseError::Surrogate("non-finite feature values".to_string()));
    }
    if targets
        .iter()
        .flat_map(AsRef::as_ref)
        .any(|v| !v.is_finite())
    {
        return Err(DseError::Surrogate("non-finite target values".to_string()));
    }
    let train = Arc::new(Training::new(xs));
    let d2 = train.pair_sq_dists();
    let mut selection = Selection {
        train,
        targets: targets
            .iter()
            .map(|ys| Target::standardize(ys.as_ref()))
            .collect(),
        picks: targets.iter().map(|_| None).collect(),
    };
    let grid = lengthscales(dim);
    let mut skipped = vec![false; grid.len() * NOISES.len()];
    // Only the lower triangle: it is all `Cholesky::factor` reads.
    let mut kernel = Mat::zeros(n, n);
    let mut deferred = Vec::new();
    for (l, &ls) in grid.iter().enumerate() {
        let radius = fill_kernel(&mut kernel, &d2, ls);
        if radius <= DEFER_RADIUS {
            deferred.push((l, radius));
            continue;
        }
        for (k, &noise) in NOISES.iter().enumerate() {
            set_diagonal(&mut kernel, 1.0 + noise);
            selection.offer(&kernel, l * NOISES.len() + k, ls, noise);
        }
    }
    for (l, radius) in deferred {
        let mut built = false;
        for (k, &noise) in NOISES.iter().enumerate() {
            let index = l * NOISES.len() + k;
            let diag = 1.0 + noise;
            if selection.loses_everywhere(diag, radius) {
                skipped[index] = true;
                continue;
            }
            if !built {
                fill_kernel(&mut kernel, &d2, grid[l]);
                built = true;
            }
            set_diagonal(&mut kernel, diag);
            selection.offer(&kernel, index, grid[l], noise);
        }
    }
    let gps = selection
        .picks
        .into_iter()
        .map(|p| {
            p.map(|p| p.gp)
                .ok_or_else(|| DseError::Surrogate("kernel matrix not factorable".to_string()))
        })
        .collect::<Result<_>>()?;
    Ok((gps, skipped))
}

/// Writes the RBF kernel at lengthscale `ls` into the strict lower
/// triangle of the `n × n` `kernel` (row `i` from `d2[i*n..i*n + i]`)
/// and returns its Gershgorin radius: the largest sum of one row's
/// off-diagonal entries, the row read across the lower triangle and
/// down its column. The entries are non-negative, so the order of the
/// sums only moves each by a relative `(n − 1)·u`, which
/// [`lml_error_bound`] covers.
fn fill_kernel(kernel: &mut Mat, d2: &[f64], ls: f64) -> f64 {
    let n = kernel.rows();
    let mut sums = vec![0.0; n];
    for i in 0..n {
        let mut own = 0.0;
        for ((k, &d), s) in kernel.row_mut(i)[..i]
            .iter_mut()
            .zip(&d2[i * n..])
            .zip(&mut sums)
        {
            *k = rbf_of_sq(d, ls);
            own += *k;
            *s += *k;
        }
        sums[i] += own;
    }
    sums.into_iter().fold(0.0, f64::max)
}

/// Writes `v` onto the diagonal of a square matrix.
fn set_diagonal(kernel: &mut Mat, v: f64) {
    for i in 0..kernel.rows() {
        kernel[(i, i)] = v;
    }
}

/// An upper bound on the exact log marginal likelihood (less its
/// `−n/2·ln 2π`, as `Selection::offer` computes it) of standardized
/// targets with `Σ yt² = sum_sq` under a symmetric `n × n` kernel of
/// diagonal `diag` and Gershgorin radius `radius < diag`. Its
/// eigenvalues lie in `[diag − radius, diag + radius]`, so
/// `yt'K⁻¹yt ≥ sum_sq / (diag + radius)` and
/// `ln det K ≥ n·ln(diag − radius)`.
fn lml_ceiling(n: usize, sum_sq: f64, diag: f64, radius: f64) -> f64 {
    -0.5 * sum_sq / (diag + radius) - 0.5 * n as f64 * (diag - radius).ln()
}

/// `M(n, S)`: a bound on how far the likelihood `Selection::offer`
/// computes for an `n × n` kernel of radius at most 1/2 (condition
/// number at most 3) lies from the exact one, plus the rounding of the
/// radius, of `S = sum_sq` and of [`lml_ceiling`]:
/// `4(n + 2)·γ(3n + 1)·(S + n)` with `γ(k) = k·u / (1 − k·u)` and
/// `u = 2⁻⁵³`. DESIGN §11 derives it from the backward error of the
/// Cholesky factorization and solve (Higham, *Accuracy and Stability of
/// Numerical Algorithms*, Thms 10.3 and 10.4). The derivation takes
/// `n·γ(3n + 1)` to be small; above `n = 2²⁰` the bound is infinite and
/// nothing is skipped.
fn lml_error_bound(n: usize, sum_sq: f64) -> f64 {
    if n > 1 << 20 {
        return f64::INFINITY;
    }
    let n = n as f64;
    let ku = (3.0 * n + 1.0) * (f64::EPSILON / 2.0);
    4.0 * (n + 2.0) * (ku / (1.0 - ku)) * (sum_sq + n)
}

/// The RBF kernel at squared distance `d2`.
fn rbf_of_sq(d2: f64, ls: f64) -> f64 {
    (-0.5 * d2 / (ls * ls)).exp()
}

/// Squared Euclidean distance, summed over the features in order.
fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

/// Squared distances from `q` to each `q.len()`-wide row of the flat
/// `rows`, one per entry of `out`. Four rows advance together: their sums
/// are independent chains, which hides the add latency one chain waits
/// on, and each still adds the features in order, so every distance is
/// bitwise [`sq_dist`]'s. (The terms are squares, never `-0.0`, so
/// starting a chain at `0.0` matches `sum`'s start.)
fn sq_dists(q: &[f64], rows: &[f64], out: &mut [f64]) {
    let dim = q.len();
    let mut blocks = rows.chunks_exact(LANES * dim);
    let mut outs = out.chunks_exact_mut(LANES);
    for (block, o) in (&mut blocks).zip(&mut outs) {
        let (r0, rest) = block.split_at(dim);
        let (r1, rest) = rest.split_at(dim);
        let (r2, r3) = rest.split_at(dim);
        let mut s = [0.0; LANES];
        for ((((&x, &a), &b), &c), &d) in q.iter().zip(r0).zip(r1).zip(r2).zip(r3) {
            s[0] += (a - x) * (a - x);
            s[1] += (b - x) * (b - x);
            s[2] += (c - x) * (c - x);
            s[3] += (d - x) * (d - x);
        }
        o.copy_from_slice(&s);
    }
    for (row, o) in blocks
        .remainder()
        .chunks_exact(dim)
        .zip(outs.into_remainder())
    {
        *o = sq_dist(row, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interpolates_training_points() {
        let xs: Vec<Vec<f64>> = (0..10).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0] * x[0] / 10.0).collect();
        let gp = Gp::fit(&xs, &ys).unwrap();
        for (x, y) in xs.iter().zip(&ys) {
            let (m, _) = gp.predict(x);
            assert!((m - y).abs() < 0.1, "at {x:?}: {m} vs {y}");
        }
    }

    #[test]
    fn uncertainty_grows_away_from_data() {
        let xs: Vec<Vec<f64>> = (0..8).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp = Gp::fit(&xs, &ys).unwrap();
        let (_, var_inside) = gp.predict(&[3.5]);
        let (_, var_outside) = gp.predict(&[30.0]);
        assert!(var_outside > var_inside);
    }

    #[test]
    fn constant_targets_are_handled() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys = vec![2.0; 5];
        let gp = Gp::fit(&xs, &ys).unwrap();
        let (m, _) = gp.predict(&[2.0]);
        assert!((m - 2.0).abs() < 1e-6);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Gp::fit(&[], &[]).is_err());
        assert!(Gp::fit(&[vec![1.0]], &[1.0, 2.0]).is_err());
        assert!(Gp::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn duplicated_design_points_still_fit() {
        // Identical rows make the noiseless kernel matrix singular;
        // jitter escalation must recover a usable surrogate.
        let xs = vec![vec![1.0, 2.0]; 12];
        let ys = vec![3.0; 12];
        let gp = Gp::fit(&xs, &ys).unwrap();
        let (m, v) = gp.predict(&[1.0, 2.0]);
        assert!((m - 3.0).abs() < 1e-3, "{m}");
        assert!(v.is_finite());
    }

    #[test]
    fn nonfinite_training_data_is_rejected() {
        assert!(Gp::fit(&[vec![f64::NAN]], &[1.0]).is_err());
        assert!(Gp::fit(&[vec![1.0]], &[f64::INFINITY]).is_err());
    }

    #[test]
    fn try_predict_reports_bad_queries() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp = Gp::fit(&xs, &ys).unwrap();
        assert!(gp.try_predict(&[1.0, 2.0]).is_err());
        assert!(gp.try_predict(&[f64::NAN]).is_err());
        assert!(gp.try_predict(&[2.0]).is_ok());
    }

    #[test]
    fn batched_prediction_matches_single_point_exactly() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..7 {
            for j in 0..4 {
                xs.push(vec![i as f64, j as f64 * 0.5]);
                ys.push((i as f64).sin() + j as f64);
            }
        }
        let gp = Gp::fit(&xs, &ys).unwrap();
        let queries: Vec<Vec<f64>> = vec![
            vec![0.0, 0.0],
            vec![3.3, 1.1],
            vec![-2.0, 7.0],
            vec![6.0, 1.5],
        ];
        let batch = gp.predict_batch(&queries).unwrap();
        assert_eq!(batch.len(), queries.len());
        for (q, &(bm, bv)) in queries.iter().zip(&batch) {
            let (m, v) = gp.predict(q);
            // Same arithmetic in the same order: bitwise equality.
            assert_eq!(bm, m, "mean at {q:?}");
            assert_eq!(bv, v, "variance at {q:?}");
        }
        assert!(gp.predict_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn joint_fit_and_prediction_match_separate_fits_exactly() {
        // 45 rows (not a multiple of four) and two targets of different
        // smoothness, which select different grid points.
        let xs: Vec<Vec<f64>> = (0..45)
            .map(|i| vec![i as f64 / 9.0, (i % 7) as f64, ((i * 13) % 11) as f64 / 3.0])
            .collect();
        let smooth: Vec<f64> = xs.iter().map(|x| x[0] + 0.1 * x[1]).collect();
        let rough: Vec<f64> = xs.iter().map(|x| (7.0 * x[0]).sin() * x[2]).collect();
        let joint = Gp::fit_many(&xs, &[&smooth, &rough]).unwrap();
        assert_ne!(joint[0].lengthscale(), joint[1].lengthscale());
        let queries: Vec<Vec<f64>> = (0..9)
            .map(|i| vec![i as f64 * 0.6, i as f64 * 0.7, 1.5])
            .collect();
        let shared = Gp::predict_many(&joint, &queries).unwrap();
        for ((gp, ys), preds) in joint.iter().zip([&smooth, &rough]).zip(&shared) {
            let alone = Gp::fit(&xs, ys).unwrap();
            assert_eq!(gp.lengthscale().to_bits(), alone.lengthscale().to_bits());
            for (q, &(m, v)) in queries.iter().zip(preds) {
                let (am, av) = alone.predict(q);
                assert_eq!(
                    (m.to_bits(), v.to_bits()),
                    (am.to_bits(), av.to_bits()),
                    "at {q:?}"
                );
            }
        }
        // Models fitted apart share no distances.
        let other = Gp::fit(&xs[..10], &smooth[..10]).unwrap();
        assert!(Gp::predict_many(&[joint[0].clone(), other], &queries).is_err());
        assert!(Gp::fit_many(&xs, &[&smooth[..44]]).is_err());
    }

    #[test]
    fn batched_prediction_rejects_bad_rows() {
        let xs: Vec<Vec<f64>> = (0..5).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| x[0]).collect();
        let gp = Gp::fit(&xs, &ys).unwrap();
        assert!(gp.predict_batch(&[vec![1.0], vec![1.0, 2.0]]).is_err());
        assert!(gp.predict_batch(&[vec![f64::NAN]]).is_err());
    }

    #[test]
    fn multi_dimensional_regression() {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                xs.push(vec![i as f64, j as f64]);
                ys.push(i as f64 + 2.0 * j as f64);
            }
        }
        let gp = Gp::fit(&xs, &ys).unwrap();
        let (m, _) = gp.predict(&[2.5, 2.5]);
        assert!((m - 7.5).abs() < 0.5, "{m}");
    }

    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// The selection as it stood before deferral: every grid point
    /// factored in grid order from its own copy of the kernel, a pick
    /// replaced only by a strictly greater LML. Also returns each grid
    /// point's LML per target (NaN where it did not factor).
    fn full_grid(xs: &[Vec<f64>], targets: &[Vec<f64>]) -> Result<(Vec<Gp>, Vec<Vec<f64>>)> {
        let n = xs.len();
        let train = Arc::new(Training::new(xs));
        let d2 = train.pair_sq_dists();
        let scaled: Vec<Target> = targets.iter().map(|ys| Target::standardize(ys)).collect();
        let mut best: Vec<Option<(f64, Gp)>> = vec![None; targets.len()];
        let mut lmls = Vec::new();
        for ls in lengthscales(train.dim()) {
            let mut kernel = Mat::zeros(n, n);
            for i in 0..n {
                for (k, &d) in kernel.row_mut(i)[..=i].iter_mut().zip(&d2[i * n..]) {
                    *k = rbf_of_sq(d, ls);
                }
            }
            for noise in NOISES {
                let mut k = kernel.clone();
                for i in 0..n {
                    k[(i, i)] += noise;
                }
                let mut point = vec![f64::NAN; targets.len()];
                if let Ok((chol, _)) = Cholesky::factor_with_jitter(&k, 1e-10, 8) {
                    let chol = Arc::new(chol);
                    for ((t, best), lml_out) in scaled.iter().zip(&mut best).zip(&mut point) {
                        let alpha = chol.solve(&t.yt).unwrap();
                        let fit_term: f64 = t.yt.iter().zip(&alpha).map(|(y, a)| y * a).sum();
                        let lml = -0.5 * fit_term - 0.5 * chol.log_det();
                        *lml_out = lml;
                        if best.as_ref().is_none_or(|b| lml > b.0) {
                            let gp = Gp {
                                train: Arc::clone(&train),
                                y_mean: t.y_mean,
                                y_scale: t.y_scale,
                                alpha,
                                chol: Arc::clone(&chol),
                                lengthscale: ls,
                                noise,
                            };
                            *best = Some((lml, gp));
                        }
                    }
                }
                lmls.push(point);
            }
        }
        let gps = best
            .into_iter()
            .map(|b| {
                b.map(|(_, gp)| gp)
                    .ok_or_else(|| DseError::Surrogate("none".into()))
            })
            .collect::<Result<_>>()?;
        Ok((gps, lmls))
    }

    /// `Err` naming the first field in which two GPs differ by a bit.
    fn same_bits(a: &Gp, b: &Gp) -> std::result::Result<(), String> {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let fields = [
            (
                "lengthscale",
                bits(&[a.lengthscale]),
                bits(&[b.lengthscale]),
            ),
            ("noise", bits(&[a.noise]), bits(&[b.noise])),
            ("y_mean", bits(&[a.y_mean]), bits(&[b.y_mean])),
            ("y_scale", bits(&[a.y_scale]), bits(&[b.y_scale])),
            ("alpha", bits(&a.alpha), bits(&b.alpha)),
            (
                "factor",
                bits(a.chol.l().as_slice()),
                bits(b.chol.l().as_slice()),
            ),
            ("rows", bits(&a.train.rows), bits(&b.train.rows)),
        ];
        match fields.iter().find(|(_, x, y)| x != y) {
            Some((name, _, _)) => Err(format!(
                "{name} differs: picks (ls {}, noise {}) vs (ls {}, noise {})",
                a.lengthscale, a.noise, b.lengthscale, b.noise
            )),
            None => Ok(()),
        }
    }

    /// A seeded dataset of `n` rows of `width` features and `count`
    /// targets. Rows are uniform, gathered around a few tight clusters,
    /// or partly copies of earlier rows; a target is smooth, rough,
    /// random or constant (2.0 stands exactly, so its standardized
    /// values are all zero; 0.1 does not).
    fn dataset(seed: u64, width: usize, n: usize, count: usize) -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let draw = |rng: &mut ChaCha8Rng| -> Vec<f64> {
            (0..width).map(|_| rng.gen_range(0.0..1.0)).collect()
        };
        let centres: Vec<Vec<f64>> = (0..rng.gen_range(1..=4)).map(|_| draw(&mut rng)).collect();
        let spread = rng.gen_range(0.001..0.2);
        let kind = rng.gen_range(0..3);
        let mut xs: Vec<Vec<f64>> = Vec::with_capacity(n);
        for _ in 0..n {
            let row = match kind {
                0 => draw(&mut rng),
                1 => {
                    let c = &centres[rng.gen_range(0..centres.len())];
                    c.iter()
                        .map(|v| v + spread * rng.gen_range(-1.0..1.0))
                        .collect()
                }
                _ if !xs.is_empty() && rng.gen_range(0.0..1.0) < 0.4 => {
                    xs[rng.gen_range(0..xs.len())].clone()
                }
                _ => draw(&mut rng),
            };
            xs.push(row);
        }
        let targets = (0..count)
            .map(|_| {
                let weights = draw(&mut rng);
                let freq: f64 = rng.gen_range(1.0..12.0);
                let kind = rng.gen_range(0..5);
                xs.iter()
                    .map(|x| {
                        let proj: f64 = x.iter().zip(&weights).map(|(a, b)| a * b).sum();
                        match kind {
                            0 => proj,
                            1 => (freq * proj).sin() + 0.1 * x[0],
                            2 => rng.gen_range(-1.0..1.0),
                            3 => 2.0,
                            _ => 0.1,
                        }
                    })
                    .collect()
            })
            .collect();
        (xs, targets)
    }

    /// Checks one dataset: every pick equals the full grid's bit for bit,
    /// and at every grid point of radius at most 1/2 each target's
    /// computed LML lies within the ceiling plus the rounding bound.
    /// Returns `(skipped, deferred but factored)` grid-point counts.
    fn check_against_full_grid(
        xs: &[Vec<f64>],
        targets: &[Vec<f64>],
    ) -> std::result::Result<(usize, usize), String> {
        let (gps, skipped) = fit_grid(xs, targets).map_err(|e| e.to_string())?;
        let (oracle, lmls) = full_grid(xs, targets).map_err(|e| e.to_string())?;
        for (gp, want) in gps.iter().zip(&oracle) {
            same_bits(gp, want)?;
        }
        let n = xs.len();
        let train = &gps[0].train;
        let d2 = train.pair_sq_dists();
        let mut kernel = Mat::zeros(n, n);
        let mut deferred_factored = 0;
        for (l, ls) in lengthscales(train.dim()).into_iter().enumerate() {
            let radius = fill_kernel(&mut kernel, &d2, ls);
            for (k, noise) in NOISES.into_iter().enumerate() {
                let index = l * NOISES.len() + k;
                if radius > DEFER_RADIUS {
                    if skipped[index] {
                        return Err(format!("grid point {index} skipped at radius {radius}"));
                    }
                    continue;
                }
                deferred_factored += usize::from(!skipped[index]);
                for (ys, &lml) in targets.iter().zip(&lmls[index]) {
                    let t = Target::standardize(ys);
                    let ceiling = lml_ceiling(n, t.sum_sq, 1.0 + noise, radius)
                        + lml_error_bound(n, t.sum_sq);
                    if lml > ceiling {
                        return Err(format!("grid point {index}: LML {lml} above {ceiling}"));
                    }
                }
            }
        }
        Ok((skipped.iter().filter(|&&s| s).count(), deferred_factored))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Deferral never changes a pick, and the likelihood bound it
        /// rests on holds at every deferred grid point.
        #[test]
        fn fit_matches_the_full_grid(
            seed: u64,
            width in 1usize..=80,
            n in 1usize..=300,
            count in 1usize..=3,
        ) {
            let (xs, targets) = dataset(seed, width, n, count);
            check_against_full_grid(&xs, &targets)?;
        }
    }

    #[test]
    fn a_deferred_point_the_bound_cannot_rule_out_is_factored() {
        // Two rows 8 features apart: standardized, they sit at ±1 in
        // each feature, so d² = 32. At ℓ = 4 the one off-diagonal entry
        // is e⁻¹ ≈ 0.37, a radius below 1/2; at ℓ = 2√8 it is e^-0.5,
        // the only lengthscale factored in the first pass. For a
        // constant target (S = 0) the ceiling at ℓ = 4,
        // −ln(1 + noise − e⁻¹) ≈ 0.46, is above the best computed LML,
        // −½·ln((1 + 1e-4)² − e⁻¹) ≈ 0.23, so that point must be
        // factored, though it loses (LML ≈ 0.07). At ℓ = √8 (radius
        // e⁻² ≈ 0.14) the ceiling, 0.15, already loses.
        let xs = vec![vec![0.0; 8], vec![1.0; 8]];
        let ys = vec![vec![2.0, 2.0]];
        let (gps, skipped) = fit_grid(&xs, &ys).unwrap();
        assert_eq!(Target::standardize(&ys[0]).sum_sq, 0.0);
        assert!(
            !skipped[3 * NOISES.len()] && !skipped[3 * NOISES.len() + 1],
            "{skipped:?}"
        );
        assert!(skipped[5 * NOISES.len()], "{skipped:?}");
        assert_eq!(gps[0].lengthscale, 2.0 * 8f64.sqrt());
        assert_eq!(check_against_full_grid(&xs, &ys), Ok((10, 2)));
    }

    #[test]
    fn ties_go_to_the_lower_grid_position() {
        // One row: every lengthscale gives the kernel [1 + noise], so the
        // seven points at each noise level tie. All are deferred (radius
        // 0); the first is factored, the ties after it cannot be ruled
        // out and are factored too, and the pick stays the first.
        let xs = vec![vec![0.3, 0.7]];
        let (gps, skipped) = fit_grid(&xs, &[vec![5.0], vec![0.1]]).unwrap();
        for gp in &gps {
            assert_eq!((gp.lengthscale, gp.noise), (0.5, 1e-4));
        }
        assert_eq!(skipped.iter().filter(|&&s| s).count(), 7, "{skipped:?}");
        assert_eq!(
            check_against_full_grid(&xs, &[vec![5.0], vec![0.1]]),
            Ok((7, 7))
        );
        // A deferred point is offered after later ones: on an equal LML
        // it must still win from a lower position, and only then.
        let pick = Pick {
            lml: -1.5,
            index: 6,
            gp: gps[0].clone(),
        };
        assert!(Pick::is_beaten(Some(&pick), -1.5, 2));
        assert!(!Pick::is_beaten(Some(&pick), -1.5, 9));
        assert!(Pick::is_beaten(Some(&pick), -1.25, 9));
        assert!(!Pick::is_beaten(Some(&pick), -1.75, 0));
        assert!(Pick::is_beaten(None, f64::MIN, 13));
    }

    /// The release sweep CI runs: 3,000 seeded datasets across the
    /// proptest's ranges. Both outcomes of a deferred grid point must
    /// occur.
    #[test]
    #[ignore = "release sweep; run with --ignored"]
    fn full_grid_sweep() {
        let mut rng = ChaCha8Rng::seed_from_u64(25);
        let (mut skipped, mut deferred_factored) = (0, 0);
        for case in 0..3000 {
            let width = rng.gen_range(1..=80);
            let n = rng.gen_range(1..=300);
            let count = rng.gen_range(1..=3);
            let (xs, targets) = dataset(rng.gen(), width, n, count);
            let (s, f) = check_against_full_grid(&xs, &targets)
                .unwrap_or_else(|e| panic!("case {case} (width {width}, n {n}): {e}"));
            skipped += s;
            deferred_factored += f;
        }
        assert!(
            skipped > 0 && deferred_factored > 0,
            "{skipped} / {deferred_factored}"
        );
    }
}
