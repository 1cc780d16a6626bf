//! Cholesky factorization for symmetric positive-definite matrices.

use crate::{LaError, Mat, Result};

/// Lower-triangular Cholesky factor `L` with `A = L L^T`.
///
/// Used by the Gaussian-process surrogate in the DSE crate, where the
/// kernel matrix is symmetric positive definite (after jitter).
///
/// # Examples
///
/// ```
/// use clapped_la::{Cholesky, Mat};
///
/// let a = Mat::from_rows(&[&[4.0, 2.0], &[2.0, 3.0]]);
/// let ch = Cholesky::factor(&a).unwrap();
/// let x = ch.solve(&[8.0, 7.0]).unwrap();
/// assert!((x[0] - 1.25).abs() < 1e-12);
/// assert!((x[1] - 1.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Cholesky {
    l: Mat,
}

impl Cholesky {
    /// Factors the symmetric positive-definite matrix `a`.
    ///
    /// Only the lower triangle of `a` is read. Rows are factored in
    /// blocks of four that advance together through the columns left of
    /// the block (see `lockstep_left`); every entry is still the
    /// row-by-row Cholesky–Banachiewicz value, bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`LaError::DimensionMismatch`] if `a` is not square and
    /// [`LaError::NotPositiveDefinite`] if a non-positive pivot occurs.
    pub fn factor(a: &Mat) -> Result<Cholesky> {
        let n = a.rows();
        if a.cols() != n {
            return Err(LaError::DimensionMismatch {
                expected: "square matrix".to_string(),
                found: format!("{}x{}", a.rows(), a.cols()),
            });
        }
        let mut l = vec![0.0; n * n];
        for i0 in (0..n).step_by(BLOCK) {
            // A full block fills the entries left of its diagonal block in
            // lockstep; a short last block goes row by row from column 0.
            let first = if i0 + BLOCK <= n {
                lockstep_left(a, &mut l, i0);
                i0
            } else {
                0
            };
            for i in i0..(i0 + BLOCK).min(n) {
                for j in first..=i {
                    let (ri, rj) = (i * n, j * n);
                    let mut sum = a[(i, j)];
                    for k in 0..j {
                        sum -= l[ri + k] * l[rj + k];
                    }
                    if i == j {
                        if sum <= 0.0 {
                            return Err(LaError::NotPositiveDefinite);
                        }
                        l[ri + i] = sum.sqrt();
                    } else {
                        l[ri + j] = sum / l[rj + j];
                    }
                }
            }
        }
        Ok(Cholesky {
            l: Mat::from_vec(n, n, l),
        })
    }

    /// Factors `a + jitter·I`, escalating the jitter by ×10 on each
    /// failed attempt until the factorization succeeds or `max_attempts`
    /// is exhausted. Returns the factorization together with the jitter
    /// that made it succeed (`0.0` when `a` factors as-is: the first
    /// attempt adds nothing).
    ///
    /// This is the standard remedy for numerically semi-definite kernel
    /// matrices — e.g. a GP kernel over duplicated or near-duplicate
    /// design points — where a fixed nugget is either too small to help
    /// or large enough to distort well-conditioned problems.
    ///
    /// # Errors
    ///
    /// Returns [`LaError::DimensionMismatch`] if `a` is not square and
    /// [`LaError::NotPositiveDefinite`] if every attempted jitter fails.
    ///
    /// # Panics
    ///
    /// Panics if `max_attempts` is zero or `initial_jitter` is not a
    /// positive finite number.
    pub fn factor_with_jitter(
        a: &Mat,
        initial_jitter: f64,
        max_attempts: usize,
    ) -> Result<(Cholesky, f64)> {
        assert!(max_attempts >= 1, "need at least one attempt");
        assert!(
            initial_jitter.is_finite() && initial_jitter > 0.0,
            "initial jitter must be positive and finite"
        );
        match Cholesky::factor(a) {
            Ok(ch) => return Ok((ch, 0.0)),
            Err(e @ LaError::DimensionMismatch { .. }) => return Err(e),
            Err(_) => {}
        }
        let n = a.rows();
        let mut jitter = initial_jitter;
        for _ in 0..max_attempts {
            let mut damped = a.clone();
            for i in 0..n {
                damped[(i, i)] += jitter;
            }
            if let Ok(ch) = Cholesky::factor(&damped) {
                return Ok((ch, jitter));
            }
            jitter *= 10.0;
        }
        Err(LaError::NotPositiveDefinite)
    }

    /// Borrows the lower-triangular factor `L`.
    pub fn l(&self) -> &Mat {
        &self.l
    }

    /// Solves `A x = b` using the factorization.
    ///
    /// # Errors
    ///
    /// Returns [`LaError::DimensionMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let mut x = b.to_vec();
        self.solve_in_place(&mut x)?;
        Ok(x)
    }

    /// Solves `A x = b` in place, overwriting `b` with `x` and allocating
    /// nothing. Both substitution sweeps run in the single buffer: each
    /// forward entry depends only on earlier (already finalized) entries
    /// and each backward entry only on later ones, so the result is
    /// bitwise identical to the two-buffer formulation.
    ///
    /// # Errors
    ///
    /// Returns [`LaError::DimensionMismatch`] if `b.len()` differs from the
    /// matrix dimension.
    pub fn solve_in_place(&self, b: &mut [f64]) -> Result<()> {
        let n = self.l.rows();
        if b.len() != n {
            return Err(LaError::DimensionMismatch {
                expected: format!("vector of length {n}"),
                found: format!("vector of length {}", b.len()),
            });
        }
        // Forward substitution L y = b.
        for i in 0..n {
            let mut acc = b[i];
            for k in 0..i {
                acc -= self.l[(i, k)] * b[k];
            }
            b[i] = acc / self.l[(i, i)];
        }
        // Back substitution L^T x = y.
        for i in (0..n).rev() {
            let mut acc = b[i];
            for k in (i + 1)..n {
                acc -= self.l[(k, i)] * b[k];
            }
            b[i] = acc / self.l[(i, i)];
        }
        Ok(())
    }

    /// Solves `A X = B` for many right-hand sides packed contiguously in
    /// `rhs` (each consecutive `n` entries is one vector), in place.
    ///
    /// The substitution sweeps are *blocked*: the factor `L` is walked
    /// once, each entry applied to every right-hand side through a
    /// contiguous inner loop, instead of re-streaming the whole factor
    /// per vector as a [`Cholesky::solve_in_place`] loop would. For each
    /// individual right-hand side the floating-point operations and
    /// their order are exactly the single-vector solve's, so results are
    /// bitwise identical — the blocking only changes memory traffic,
    /// which is what makes batched GP acquisition prediction faster than
    /// per-candidate solving.
    ///
    /// # Errors
    ///
    /// Returns [`LaError::DimensionMismatch`] if `rhs.len()` is not a
    /// multiple of the matrix dimension.
    pub fn solve_many(&self, rhs: &mut [f64]) -> Result<()> {
        let n = self.l.rows();
        if n == 0 || !rhs.len().is_multiple_of(n) {
            return Err(LaError::DimensionMismatch {
                expected: format!("buffer of a multiple of {n} entries"),
                found: format!("buffer of {} entries", rhs.len()),
            });
        }
        let m = rhs.len() / n;
        if m <= 1 {
            if m == 1 {
                self.solve_in_place(rhs)?;
            }
            return Ok(());
        }
        // Transpose to component-major scratch: t[k*m + j] = rhs_j[k],
        // so one factor entry broadcasts over a contiguous run.
        let mut t = vec![0.0; rhs.len()];
        for (j, b) in rhs.chunks_exact(n).enumerate() {
            for (k, &v) in b.iter().enumerate() {
                t[k * m + j] = v;
            }
        }
        // Forward substitution L Y = B, all columns at once.
        for i in 0..n {
            let (done, rest) = t.split_at_mut(i * m);
            let yi = &mut rest[..m];
            for k in 0..i {
                let lik = self.l[(i, k)];
                let yk = &done[k * m..(k + 1) * m];
                for (a, &y) in yi.iter_mut().zip(yk) {
                    *a -= lik * y;
                }
            }
            let lii = self.l[(i, i)];
            for a in yi.iter_mut() {
                *a /= lii;
            }
        }
        // Back substitution L^T X = Y.
        for i in (0..n).rev() {
            let (head, tail) = t.split_at_mut((i + 1) * m);
            let xi = &mut head[i * m..];
            for k in (i + 1)..n {
                let lki = self.l[(k, i)];
                let xk = &tail[(k - i - 1) * m..(k - i) * m];
                for (a, &x) in xi.iter_mut().zip(xk) {
                    *a -= lki * x;
                }
            }
            let lii = self.l[(i, i)];
            for a in xi.iter_mut() {
                *a /= lii;
            }
        }
        for (j, b) in rhs.chunks_exact_mut(n).enumerate() {
            for (k, v) in b.iter_mut().enumerate() {
                *v = t[k * m + j];
            }
        }
        Ok(())
    }

    /// Log-determinant of `A`, i.e. `2 * sum(log(diag(L)))`.
    pub fn log_det(&self) -> f64 {
        (0..self.l.rows())
            .map(|i| self.l[(i, i)].ln())
            .sum::<f64>()
            * 2.0
    }
}

/// Rows [`Cholesky::factor`] advances together.
const BLOCK: usize = 4;

/// Fills the entries of rows `i0..i0 + BLOCK` of the flat `n × n` factor
/// `l` that lie left of column `i0`, column by column. The four rows'
/// dot products are independent chains that advance together, hiding the
/// add latency a single chain waits on; each still subtracts
/// `l[i][k] · l[j][k]` for `k = 0..j` in order from `a[i][j]`, so every
/// entry is bitwise the row-by-row value.
fn lockstep_left(a: &Mat, l: &mut [f64], i0: usize) {
    let n = a.rows();
    let (done, block) = l.split_at_mut(i0 * n);
    let (r0, rest) = block.split_at_mut(n);
    let (r1, rest) = rest.split_at_mut(n);
    let (r2, rest) = rest.split_at_mut(n);
    let r3 = &mut rest[..n];
    for j in 0..i0 {
        let lj = &done[j * n..j * n + j];
        let mut s = [a[(i0, j)], a[(i0 + 1, j)], a[(i0 + 2, j)], a[(i0 + 3, j)]];
        for ((((&x, &y0), &y1), &y2), &y3) in lj
            .iter()
            .zip(&r0[..j])
            .zip(&r1[..j])
            .zip(&r2[..j])
            .zip(&r3[..j])
        {
            s[0] -= y0 * x;
            s[1] -= y1 * x;
            s[2] -= y2 * x;
            s[3] -= y3 * x;
        }
        let d = done[j * n + j];
        r0[j] = s[0] / d;
        r1[j] = s[1] / d;
        r2[j] = s[2] / d;
        r3[j] = s[3] / d;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The textbook row-by-row Cholesky–Banachiewicz factorization:
    /// the oracle the lockstep [`Cholesky::factor`] must match bit for
    /// bit.
    fn factor_row_by_row(a: &Mat) -> Result<Mat> {
        let n = a.rows();
        let mut l = Mat::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = a[(i, j)];
                for k in 0..j {
                    sum -= l[(i, k)] * l[(j, k)];
                }
                if i == j {
                    if sum <= 0.0 {
                        return Err(LaError::NotPositiveDefinite);
                    }
                    l[(i, j)] = sum.sqrt();
                } else {
                    l[(i, j)] = sum / l[(j, j)];
                }
            }
        }
        Ok(l)
    }

    /// A seeded symmetric positive-definite `n × n` matrix `B Bᵀ + n·I`,
    /// `B` uniform in `[-1, 1)` from a 64-bit LCG.
    fn seeded_spd(n: usize, seed: u64) -> Mat {
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut next = || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        };
        let b = Mat::from_fn(n, n, |_, _| next());
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn lockstep_factor_matches_row_by_row_bitwise() {
        for n in 1..=13 {
            for seed in 0..3 {
                let a = seeded_spd(n, seed * 100 + n as u64);
                let want = factor_row_by_row(&a).unwrap();
                let got = Cholesky::factor(&a).unwrap();
                for i in 0..n {
                    for j in 0..n {
                        assert_eq!(
                            got.l()[(i, j)].to_bits(),
                            want[(i, j)].to_bits(),
                            "n = {n}, seed = {seed}, entry ({i}, {j})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn non_positive_pivot_anywhere_in_a_block_is_rejected() {
        // n = 13: blocks start at rows 0, 4 and 8, and row 12 is a short
        // last block. Zeroing a diagonal entry of the SPD matrix makes
        // that row's pivot non-positive while every earlier row factors.
        for pivot in [0, 4, 5, 6, 7, 11, 12] {
            let mut a = seeded_spd(13, 7);
            a[(pivot, pivot)] = 0.0;
            assert!(
                matches!(factor_row_by_row(&a), Err(LaError::NotPositiveDefinite)),
                "oracle accepts pivot row {pivot}"
            );
            assert!(
                matches!(Cholesky::factor(&a), Err(LaError::NotPositiveDefinite)),
                "pivot row {pivot}"
            );
        }
    }

    #[test]
    fn factors_and_reconstructs() {
        let a = Mat::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let l = ch.l();
        let rebuilt = l.matmul(&l.transpose()).unwrap();
        for i in 0..3 {
            for j in 0..3 {
                assert!((rebuilt[(i, j)] - a[(i, j)]).abs() < 1e-10);
            }
        }
    }

    #[test]
    fn solve_matches_direct() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let x = ch.solve(&[1.0, 2.0]).unwrap();
        let ax = a.matvec(&x).unwrap();
        assert!((ax[0] - 1.0).abs() < 1e-12);
        assert!((ax[1] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_indefinite() {
        let a = Mat::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LaError::NotPositiveDefinite)
        ));
    }

    #[test]
    fn rejects_non_square() {
        let a = Mat::zeros(2, 3);
        assert!(matches!(
            Cholesky::factor(&a),
            Err(LaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn jitter_is_zero_for_well_conditioned_input() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let (_, jitter) = Cholesky::factor_with_jitter(&a, 1e-10, 8).unwrap();
        assert_eq!(jitter, 0.0);
    }

    #[test]
    fn jitter_escalates_until_factorable() {
        // Rank-1 Gram matrix (duplicate design points): singular, so
        // plain factorization fails but any positive jitter repairs it.
        let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 1.0]]);
        assert!(Cholesky::factor(&a).is_err());
        let (ch, jitter) = Cholesky::factor_with_jitter(&a, 1e-10, 12).unwrap();
        assert!(jitter >= 1e-10);
        let x = ch.solve(&[1.0, 1.0]).unwrap();
        assert!(x.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn jitter_gives_up_after_max_attempts() {
        // −I needs jitter > 1 to become positive definite; with a tiny
        // start and few attempts the escalation cannot reach it.
        let a = Mat::from_rows(&[&[-1.0, 0.0], &[0.0, -1.0]]);
        assert!(matches!(
            Cholesky::factor_with_jitter(&a, 1e-12, 3),
            Err(LaError::NotPositiveDefinite)
        ));
        // With enough attempts the ×10 ladder crosses the threshold.
        assert!(Cholesky::factor_with_jitter(&a, 1e-12, 16).is_ok());
    }

    #[test]
    fn in_place_and_batched_solves_match_allocating_solve() {
        let a = Mat::from_rows(&[&[25.0, 15.0, -5.0], &[15.0, 18.0, 0.0], &[-5.0, 0.0, 11.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let rhs: Vec<Vec<f64>> = vec![
            vec![1.0, 2.0, 3.0],
            vec![-4.0, 0.5, 9.0],
            vec![0.0, 0.0, 1.0],
        ];
        let mut flat: Vec<f64> = rhs.iter().flatten().copied().collect();
        ch.solve_many(&mut flat).unwrap();
        for (b, got) in rhs.iter().zip(flat.chunks_exact(3)) {
            let want = ch.solve(b).unwrap();
            // Bitwise identical: same operations in the same order.
            assert_eq!(got, want.as_slice());
            let mut one = b.clone();
            ch.solve_in_place(&mut one).unwrap();
            assert_eq!(one, want);
        }
    }

    #[test]
    fn batched_solve_rejects_ragged_buffers() {
        let a = Mat::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        let mut rhs = vec![1.0, 2.0, 3.0];
        assert!(matches!(
            ch.solve_many(&mut rhs),
            Err(LaError::DimensionMismatch { .. })
        ));
        let mut one = vec![1.0];
        assert!(ch.solve_in_place(&mut one).is_err());
        let mut empty: Vec<f64> = Vec::new();
        assert!(ch.solve_many(&mut empty).is_ok());
    }

    #[test]
    fn log_det_matches() {
        let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 8.0]]);
        let ch = Cholesky::factor(&a).unwrap();
        assert!((ch.log_det() - (16.0f64).ln()).abs() < 1e-12);
    }
}
