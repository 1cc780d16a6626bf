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
    /// squared distances computed once, and at each grid point the
    /// kernel is exponentiated and factored once. Each target then solves
    /// against that factorization and keeps the grid point of greatest
    /// log marginal likelihood (the first on ties). The returned GPs
    /// share the standardized training rows.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Surrogate`] when the dataset is empty, a
    /// target's length differs from the row count, the rows are
    /// inconsistent or a value is non-finite, or the kernel matrix cannot
    /// be factored at any grid point.
    pub(crate) fn fit_many<T: AsRef<[f64]>>(xs: &[Vec<f64>], targets: &[T]) -> Result<Vec<Gp>> {
        let n = xs.len();
        let bad_len = targets.iter().map(|ys| ys.as_ref().len()).find(|&m| m != n);
        if n == 0 || bad_len.is_some() {
            return Err(DseError::Surrogate(format!(
                "{n} samples vs {} targets",
                bad_len.unwrap_or(0)
            )));
        }
        let dim = xs[0].len();
        if dim == 0 || xs.iter().any(|r| r.len() != dim) {
            return Err(DseError::Surrogate("inconsistent feature rows".to_string()));
        }
        if xs.iter().flatten().any(|v| !v.is_finite()) {
            return Err(DseError::Surrogate("non-finite feature values".to_string()));
        }
        if targets
            .iter()
            .flat_map(AsRef::as_ref)
            .any(|v| !v.is_finite())
        {
            return Err(DseError::Surrogate("non-finite target values".to_string()));
        }
        let x_std = Standardizer::fit(xs);
        let rows: Vec<f64> = xs.iter().flat_map(|r| x_std.transform_row(r)).collect();
        let train = Arc::new(Training { x_std, rows });

        // Squared distances between training rows, lower triangle: row i
        // holds the distances to rows 0..=i.
        let mut d2 = vec![0.0; n * n];
        for i in 0..n {
            let xi = &train.rows[i * dim..(i + 1) * dim];
            sq_dists(xi, &train.rows[..(i + 1) * dim], &mut d2[i * n..=i * n + i]);
        }

        let scaled: Vec<(f64, f64, Vec<f64>)> = targets
            .iter()
            .map(|ys| {
                let ys = ys.as_ref();
                let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
                let y_var =
                    ys.iter().map(|y| (y - y_mean) * (y - y_mean)).sum::<f64>() / ys.len() as f64;
                let y_scale = if y_var > 0.0 { y_var.sqrt() } else { 1.0 };
                let yt = ys.iter().map(|y| (y - y_mean) / y_scale).collect();
                (y_mean, y_scale, yt)
            })
            .collect();

        // Per target, the log marginal likelihood and GP of the best grid
        // point so far.
        let mut best: Vec<Option<(f64, Gp)>> = vec![None; targets.len()];
        // Scale the lengthscale grid with feature dimensionality: random
        // standardized points sit at distance ~sqrt(2·dim), so fixed
        // lengthscales degenerate to a diagonal kernel in high dimension.
        let dim_scale = (dim as f64).sqrt();
        for &ls in &[
            0.5f64,
            1.0,
            2.0,
            4.0,
            0.5 * dim_scale,
            1.0 * dim_scale,
            2.0 * dim_scale,
        ] {
            // Only the lower triangle: it is all `Cholesky::factor` reads.
            let mut kernel = Mat::zeros(n, n);
            for i in 0..n {
                for (k, &d) in kernel.row_mut(i)[..=i].iter_mut().zip(&d2[i * n..]) {
                    *k = rbf_of_sq(d, ls);
                }
            }
            for &noise in &[1e-4f64, 1e-2] {
                let mut k = kernel.clone();
                for i in 0..n {
                    k[(i, i)] += noise;
                }
                // Near-duplicate design points (common late in an MBO
                // run, when the search converges) make K numerically
                // semi-definite at this noise level; adaptive jitter
                // escalation recovers the grid point instead of
                // discarding it.
                let Ok((chol, _)) = Cholesky::factor_with_jitter(&k, 1e-10, 8) else {
                    continue;
                };
                let chol = Arc::new(chol);
                for (&(y_mean, y_scale, ref yt), best) in scaled.iter().zip(&mut best) {
                    let Ok(alpha) = chol.solve(yt) else {
                        continue;
                    };
                    // log p(y) = -0.5 y'a - 0.5 log|K| - n/2 log(2pi)
                    let fit_term: f64 = yt.iter().zip(&alpha).map(|(y, a)| y * a).sum();
                    let lml = -0.5 * fit_term - 0.5 * chol.log_det();
                    if best.as_ref().is_none_or(|b| lml > b.0) {
                        let gp = Gp {
                            train: Arc::clone(&train),
                            y_mean,
                            y_scale,
                            alpha,
                            chol: Arc::clone(&chol),
                            lengthscale: ls,
                            noise,
                        };
                        *best = Some((lml, gp));
                    }
                }
            }
        }
        best.into_iter()
            .map(|b| {
                b.map(|(_, gp)| gp)
                    .ok_or_else(|| DseError::Surrogate("kernel matrix not factorable".to_string()))
            })
            .collect()
    }

    /// Predicts `(mean, variance)` at one point (in the original feature
    /// space).
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training dimension. Use
    /// [`Gp::try_predict`] for a non-panicking variant.
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
    pub fn try_predict(&self, x: &[f64]) -> Result<(f64, f64)> {
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
}
