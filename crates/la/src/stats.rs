//! Small statistics helpers shared across the workspace.

/// Arithmetic mean of a slice; returns `0.0` for an empty slice.
///
/// # Examples
///
/// ```
/// assert_eq!(clapped_la::mean(&[1.0, 2.0, 3.0]), 2.0);
/// ```
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Population variance of a slice; returns `0.0` for slices shorter than 2.
pub fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Population standard deviation.
pub fn population_std(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Standardizes `xs` in place to zero mean and unit variance.
///
/// Returns the `(mean, std)` used. If the standard deviation is zero the
/// values are only centred (scale 1 is used) so the operation is always
/// invertible.
pub fn standardize_in_place(xs: &mut [f64]) -> (f64, f64) {
    let m = mean(xs);
    let s = population_std(xs);
    let scale = if s > 0.0 { s } else { 1.0 };
    for x in xs.iter_mut() {
        *x = (*x - m) / scale;
    }
    (m, scale)
}

/// Per-column feature standardizer (z-score) for design matrices stored as
/// rows of feature vectors.
///
/// Columns with zero variance are centred but not scaled, so
/// [`Standardizer::transform`] never divides by zero.
///
/// # Examples
///
/// ```
/// use clapped_la::Standardizer;
///
/// let rows = vec![vec![0.0, 10.0], vec![2.0, 10.0], vec![4.0, 10.0]];
/// let st = Standardizer::fit(&rows);
/// let t = st.transform_row(&rows[0]);
/// assert!((t[0] + 1.2247).abs() < 1e-3); // (0-2)/std
/// assert_eq!(t[1], 0.0); // constant column is centred only
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Standardizer {
    means: Vec<f64>,
    scales: Vec<f64>,
}

impl Standardizer {
    /// Fits a standardizer on a set of feature rows.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or the rows have inconsistent lengths.
    pub fn fit<R: AsRef<[f64]>>(rows: &[R]) -> Standardizer {
        assert!(!rows.is_empty(), "cannot fit a standardizer on no data");
        let dim = rows[0].as_ref().len();
        let mut means = vec![0.0; dim];
        for row in rows {
            let row = row.as_ref();
            assert_eq!(row.len(), dim, "inconsistent feature dimension");
            for (m, &v) in means.iter_mut().zip(row) {
                *m += v;
            }
        }
        for m in &mut means {
            *m /= rows.len() as f64;
        }
        let mut vars = vec![0.0; dim];
        for row in rows {
            for ((v, &x), &m) in vars.iter_mut().zip(row.as_ref()).zip(&means) {
                *v += (x - m) * (x - m);
            }
        }
        let scales = vars
            .iter()
            .map(|v| {
                let s = (v / rows.len() as f64).sqrt();
                if s > 0.0 {
                    s
                } else {
                    1.0
                }
            })
            .collect();
        Standardizer { means, scales }
    }

    /// Number of features this standardizer was fitted on.
    pub fn dim(&self) -> usize {
        self.means.len()
    }

    /// Transforms one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn transform_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.dim(), "feature dimension mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.scales))
            .map(|(&x, (&m, &s))| (x - m) / s)
            .collect()
    }

    /// Transforms a batch of rows.
    pub fn transform(&self, rows: &[Vec<f64>]) -> Vec<Vec<f64>> {
        rows.iter().map(|r| self.transform_row(r)).collect()
    }

    /// Inverse-transforms one row back to the original feature space.
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim()`.
    pub fn inverse_row(&self, row: &[f64]) -> Vec<f64> {
        assert_eq!(row.len(), self.dim(), "feature dimension mismatch");
        row.iter()
            .zip(self.means.iter().zip(&self.scales))
            .map(|(&x, (&m, &s))| x * s + m)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert!((variance(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
        assert!((population_std(&[1.0, 3.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardize_in_place_roundtrip() {
        let mut xs = vec![1.0, 2.0, 3.0, 4.0];
        let (m, s) = standardize_in_place(&mut xs);
        assert!((mean(&xs)).abs() < 1e-12);
        assert!((population_std(&xs) - 1.0).abs() < 1e-12);
        let back: Vec<f64> = xs.iter().map(|x| x * s + m).collect();
        assert!((back[0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn standardizer_roundtrip() {
        let rows = vec![vec![1.0, 5.0], vec![3.0, 5.0], vec![5.0, 5.0]];
        let st = Standardizer::fit(&rows);
        let t = st.transform(&rows);
        let back = st.inverse_row(&t[2]);
        assert!((back[0] - 5.0).abs() < 1e-12);
        assert!((back[1] - 5.0).abs() < 1e-12);
    }

    #[test]
    fn constant_column_is_safe() {
        let rows = vec![vec![7.0], vec![7.0]];
        let st = Standardizer::fit(&rows);
        let t = st.transform_row(&[7.0]);
        assert_eq!(t[0], 0.0);
    }

    #[test]
    #[should_panic(expected = "feature dimension mismatch")]
    fn transform_wrong_dim_panics() {
        let st = Standardizer::fit(&[vec![1.0, 2.0]]);
        let _ = st.transform_row(&[1.0]);
    }
}
