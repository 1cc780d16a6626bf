//! Quantized Gaussian convolution kernels.

/// A Gaussian kernel quantized to signed 8-bit weights with a
/// power-of-two scale.
///
/// The 2D weights satisfy `sum(coeffs) ≈ 2^shift`, so normalizing a
/// convolution sum is a right shift — matching the fixed-point HLS
/// implementation the paper characterizes. Separable 1D factors are kept
/// for the 1DH→1DV convolution mode.
///
/// # Examples
///
/// ```
/// use clapped_imgproc::QuantKernel;
///
/// let k = QuantKernel::gaussian(3, 0.85);
/// assert_eq!(k.window(), 3);
/// assert_eq!(k.coeffs_2d().len(), 9);
/// // Weights sum close to 2^shift.
/// let sum: i32 = k.coeffs_2d().iter().map(|&c| i32::from(c)).sum();
/// assert!((sum - (1 << k.shift())).abs() <= 16);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantKernel {
    window: usize,
    coeffs_2d: Vec<i8>,
    coeffs_1d: Vec<i8>,
    shift: u32,
    shift_1d: u32,
}

impl QuantKernel {
    /// Builds a `window × window` Gaussian kernel with standard deviation
    /// `sigma`, quantized to i8.
    ///
    /// # Panics
    ///
    /// Panics if `window` is even, zero, or larger than 9, or if `sigma`
    /// is not positive.
    pub fn gaussian(window: usize, sigma: f64) -> QuantKernel {
        assert!(window % 2 == 1 && window > 0 && window <= 9, "window must be odd, 1..=9");
        assert!(sigma > 0.0, "sigma must be positive");
        let half = (window / 2) as isize;
        let g1: Vec<f64> = (-half..=half)
            .map(|d| (-(d * d) as f64 / (2.0 * sigma * sigma)).exp())
            .collect();
        let norm1: f64 = g1.iter().sum();
        let g1: Vec<f64> = g1.iter().map(|v| v / norm1).collect();

        // 1D quantization: max weight is the centre; pick the largest
        // shift keeping every weight <= 127.
        let max1 = g1.iter().cloned().fold(0.0f64, f64::max);
        let shift_1d = (0..8)
            .rev()
            .find(|&s| max1 * f64::from(1u32 << s) <= 127.0)
            .unwrap_or(0);
        let coeffs_1d: Vec<i8> = g1
            .iter()
            .map(|&v| (v * f64::from(1u32 << shift_1d)).round() as i8)
            .collect();

        // 2D kernel from the outer product of the *real* 1D Gaussian.
        let g2: Vec<f64> = (0..window * window)
            .map(|i| g1[i / window] * g1[i % window])
            .collect();
        let max2 = g2.iter().cloned().fold(0.0f64, f64::max);
        let shift = (0..14)
            .rev()
            .find(|&s| max2 * f64::from(1u32 << s) <= 127.0)
            .unwrap_or(0);
        let coeffs_2d: Vec<i8> = g2
            .iter()
            .map(|&v| (v * f64::from(1u32 << shift)).round() as i8)
            .collect();

        QuantKernel {
            window,
            coeffs_2d,
            coeffs_1d,
            shift,
            shift_1d,
        }
    }

    /// Builds a kernel from explicit signed 2D weights and a
    /// normalization shift (for non-Gaussian filters such as Sobel).
    /// The separable factors are left empty: such kernels only support
    /// 2D-mode convolution.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len() != window²`, `window` is even or zero, or
    /// `shift > 14`.
    pub(crate) fn from_coeffs(window: usize, coeffs: &[i8], shift: u32) -> QuantKernel {
        assert!(window % 2 == 1 && window > 0 && window <= 9, "window must be odd, 1..=9");
        assert_eq!(coeffs.len(), window * window, "one weight per tap");
        assert!(shift <= 14, "shift out of range");
        QuantKernel {
            window,
            coeffs_2d: coeffs.to_vec(),
            coeffs_1d: Vec::new(),
            shift,
            shift_1d: 0,
        }
    }

    /// True when the kernel carries separable 1D factors (Gaussian
    /// kernels do; explicit-coefficient kernels do not).
    pub(crate) fn is_separable(&self) -> bool {
        !self.coeffs_1d.is_empty()
    }

    /// Window size (odd).
    pub fn window(&self) -> usize {
        self.window
    }

    /// Row-major 2D weights (`window²` entries).
    pub fn coeffs_2d(&self) -> &[i8] {
        &self.coeffs_2d
    }

    /// 1D factor weights (`window` entries) for separable convolution.
    pub fn coeffs_1d(&self) -> &[i8] {
        &self.coeffs_1d
    }

    /// Normalization shift of the 2D weights.
    pub fn shift(&self) -> u32 {
        self.shift
    }

    /// Normalization shift of the 1D weights (applied per pass).
    pub fn shift_1d(&self) -> u32 {
        self.shift_1d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_symmetric_and_centre_heavy() {
        let k = QuantKernel::gaussian(3, 0.85);
        let c = k.coeffs_2d();
        assert_eq!(c[0], c[2]);
        assert_eq!(c[0], c[6]);
        assert_eq!(c[0], c[8]);
        assert_eq!(c[1], c[3]);
        assert!(c[4] > c[1], "centre must dominate");
        assert!(c[1] > c[0], "edge must dominate corner");
    }

    #[test]
    fn weights_fit_i8_and_sum_to_shift() {
        for (w, sigma) in [(3usize, 0.6), (3, 1.0), (5, 1.2), (7, 1.8)] {
            let k = QuantKernel::gaussian(w, sigma);
            assert!(k.coeffs_2d().iter().all(|&c| c >= 0));
            let sum: i32 = k.coeffs_2d().iter().map(|&c| i32::from(c)).sum();
            let target = 1i32 << k.shift();
            assert!(
                (sum - target).abs() <= target / 8 + w as i32,
                "window {w}: sum {sum} vs 2^{}", k.shift()
            );
            let sum1: i32 = k.coeffs_1d().iter().map(|&c| i32::from(c)).sum();
            let target1 = 1i32 << k.shift_1d();
            assert!((sum1 - target1).abs() <= target1 / 8 + w as i32);
        }
    }

    #[test]
    fn wider_sigma_flattens_kernel() {
        let sharp = QuantKernel::gaussian(3, 0.5);
        let flat = QuantKernel::gaussian(3, 2.0);
        let ratio = |k: &QuantKernel| f64::from(k.coeffs_2d()[4]) / f64::from(k.coeffs_2d()[0].max(1));
        assert!(ratio(&sharp) > ratio(&flat));
    }

    #[test]
    #[should_panic(expected = "window must be odd")]
    fn even_window_rejected() {
        let _ = QuantKernel::gaussian(4, 1.0);
    }

    #[test]
    fn explicit_coefficient_kernels() {
        let coeffs: Vec<i8> = vec![-1, 0, 1, -2, 0, 2, -1, 0, 1];
        let k = QuantKernel::from_coeffs(3, &coeffs, 0);
        assert_eq!(k.coeffs_2d(), coeffs.as_slice());
        assert!(!k.is_separable());
        assert!(QuantKernel::gaussian(3, 1.0).is_separable());
    }

    #[test]
    #[should_panic(expected = "one weight per tap")]
    fn wrong_coefficient_count_rejected() {
        let _ = QuantKernel::from_coeffs(3, &[1, 2, 3], 0);
    }
}
