//! Householder QR factorization and least-squares solving.

use crate::{LaError, Mat, Result};

/// A Householder QR factorization of an `m × n` matrix with `m >= n`.
///
/// The factorization is stored compactly: the upper triangle of the
/// internal matrix holds `R`, while the Householder vectors live below the
/// diagonal. Use [`Qr::solve`] to solve least-squares problems against the
/// factored matrix.
///
/// # Examples
///
/// ```
/// use clapped_la::{Mat, Qr};
///
/// let a = Mat::from_rows(&[&[2.0, 0.0], &[0.0, 3.0], &[0.0, 0.0]]);
/// let qr = Qr::factor(&a).unwrap();
/// let x = qr.solve(&[4.0, 9.0, 0.0]).unwrap();
/// assert!((x[0] - 2.0).abs() < 1e-12);
/// assert!((x[1] - 3.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Qr {
    /// Packed factorization (Householder vectors below diagonal, R above).
    qt: Mat,
    /// Scalar tau for each Householder reflector.
    betas: Vec<f64>,
    rows: usize,
    cols: usize,
}

impl Qr {
    /// Factors matrix `a`.
    ///
    /// # Errors
    ///
    /// Returns [`LaError::DimensionMismatch`] if `a` has fewer rows than
    /// columns (the underdetermined case is not supported).
    pub fn factor(a: &Mat) -> Result<Qr> {
        let (m, n) = (a.rows(), a.cols());
        if m < n {
            return Err(LaError::DimensionMismatch {
                expected: format!("at least {n} rows"),
                found: format!("{m} rows"),
            });
        }
        let mut r = a.clone();
        let mut betas = Vec::with_capacity(n);
        for k in 0..n {
            // Build the Householder reflector v for column k, copied out so
            // that applying it to column k does not corrupt it.
            let mut norm2 = 0.0;
            for i in k..m {
                norm2 += r[(i, k)] * r[(i, k)];
            }
            if norm2 == 0.0 {
                betas.push(0.0);
                continue;
            }
            let norm = norm2.sqrt();
            let alpha = if r[(k, k)] >= 0.0 { -norm } else { norm };
            let mut v = vec![0.0; m - k];
            v[0] = r[(k, k)] - alpha;
            for i in (k + 1)..m {
                v[i - k] = r[(i, k)];
            }
            let vtv: f64 = v.iter().map(|x| x * x).sum();
            if vtv == 0.0 {
                betas.push(0.0);
                continue;
            }
            let beta = 2.0 / vtv;
            // Apply the reflector to columns k..n.
            for j in k..n {
                let mut dot = 0.0;
                for i in k..m {
                    dot += v[i - k] * r[(i, j)];
                }
                let s = beta * dot;
                for i in k..m {
                    r[(i, j)] -= s * v[i - k];
                }
            }
            // Store v normalized so v0 == 1 below the diagonal and fold the
            // scale into beta, so solve() can reconstruct the reflector.
            let v0 = v[0];
            for i in (k + 1)..m {
                r[(i, k)] = v[i - k] / v0;
            }
            betas.push(beta * v0 * v0);
        }
        Ok(Qr {
            qt: r,
            betas,
            rows: m,
            cols: n,
        })
    }

    /// Solves the least-squares problem `min ||A x - b||`.
    ///
    /// # Errors
    ///
    /// Returns [`LaError::DimensionMismatch`] if `b.len()` differs from the
    /// factored matrix's row count, or [`LaError::Singular`] if `R` has a
    /// (numerically) zero diagonal entry.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        if b.len() != self.rows {
            return Err(LaError::DimensionMismatch {
                expected: format!("vector of length {}", self.rows),
                found: format!("vector of length {}", b.len()),
            });
        }
        let (m, n) = (self.rows, self.cols);
        let mut y = b.to_vec();
        // Apply Q^T to b: for each reflector k, y -= beta * v (v^T y) with
        // v = [1, qt[k+1.., k]].
        for k in 0..n {
            let beta = self.betas[k];
            if beta == 0.0 {
                continue;
            }
            let mut dot = y[k];
            for i in (k + 1)..m {
                dot += self.qt[(i, k)] * y[i];
            }
            let s = beta * dot;
            y[k] -= s;
            for i in (k + 1)..m {
                y[i] -= s * self.qt[(i, k)];
            }
        }
        // Back substitution on R x = y[0..n].
        let mut x = vec![0.0; n];
        for i in (0..n).rev() {
            let mut acc = y[i];
            for j in (i + 1)..n {
                acc -= self.qt[(i, j)] * x[j];
            }
            let d = self.qt[(i, i)];
            if d.abs() < 1e-12 {
                return Err(LaError::Singular);
            }
            x[i] = acc / d;
        }
        Ok(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f64], b: &[f64], tol: f64) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < tol, "{x} vs {y}");
        }
    }

    #[test]
    fn solves_exact_square_system() {
        let a = Mat::from_rows(&[&[3.0, 1.0], &[1.0, 2.0]]);
        let qr = Qr::factor(&a).unwrap();
        let x = qr.solve(&[9.0, 8.0]).unwrap();
        assert_close(&x, &[2.0, 3.0], 1e-10);
    }

    #[test]
    fn solves_overdetermined_least_squares() {
        // Fit y = 1 + 2t at t = 0,1,2,3 with noise-free data.
        let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
        let b = [1.0, 3.0, 5.0, 7.0];
        let x = a.lstsq(&b).unwrap();
        assert_close(&x, &[1.0, 2.0], 1e-10);
    }

    #[test]
    fn least_squares_minimizes_residual() {
        let a = Mat::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0]]);
        let b = [0.0, 1.0, 3.0];
        let x = a.lstsq(&b).unwrap();
        // Perturbing the solution should not decrease the residual.
        let resid = |x: &[f64]| -> f64 {
            let ax = a.matvec(x).unwrap();
            ax.iter().zip(&b).map(|(p, q)| (p - q).powi(2)).sum()
        };
        let base = resid(&x);
        for d in [1e-3, -1e-3] {
            assert!(resid(&[x[0] + d, x[1]]) >= base - 1e-12);
            assert!(resid(&[x[0], x[1] + d]) >= base - 1e-12);
        }
    }

    #[test]
    fn singular_matrix_is_reported() {
        let a = Mat::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let qr = Qr::factor(&a).unwrap();
        assert!(matches!(qr.solve(&[1.0, 2.0, 3.0]), Err(LaError::Singular)));
    }

    #[test]
    fn underdetermined_rejected() {
        let a = Mat::zeros(1, 2);
        assert!(matches!(
            Qr::factor(&a),
            Err(LaError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn wrong_rhs_length_rejected() {
        let a = Mat::identity(2);
        let qr = Qr::factor(&a).unwrap();
        assert!(matches!(
            qr.solve(&[1.0]),
            Err(LaError::DimensionMismatch { .. })
        ));
    }
}
