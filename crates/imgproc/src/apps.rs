//! The Gaussian noise-removal application (the paper's test case).

use crate::{ConvConfig, ConvEngine, ConvError, Image, QuantKernel, Result, SynthKind};
use clapped_axops::Mul8s;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Quality figures of one configuration evaluated on the application's
/// image set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppResult {
    /// Mean PSNR of the configuration's outputs against the clean images
    /// (higher is better denoising).
    pub psnr_db: f64,
    /// Mean application-level error (%) against the golden
    /// configuration's outputs — the paper's Fig. 12b x-axis.
    pub error_percent: f64,
}

/// Gaussian image smoothing for noise removal, evaluated over a set of
/// noisy synthetic images with a golden (exact, stride-1, unscaled, 2D)
/// reference.
///
/// # Examples
///
/// ```
/// use clapped_axops::Catalog;
/// use clapped_imgproc::{ConvConfig, GaussianDenoise};
///
/// let catalog = Catalog::standard();
/// let exact = catalog.get("mul8s_exact").unwrap();
/// let app = GaussianDenoise::standard(32, 12.0, exact.clone(), 42);
/// let taps: Vec<_> = (0..9).map(|_| exact.clone() as std::sync::Arc<dyn clapped_axops::Mul8s>).collect();
/// let r = app.evaluate(&ConvConfig::default(), &taps).unwrap();
/// assert_eq!(r.error_percent, 0.0); // golden config vs itself
/// ```
#[derive(Debug, Clone)]
pub struct GaussianDenoise {
    clean: Vec<Image>,
    noisy: Vec<Image>,
    golden: Vec<Image>,
    engines: BTreeMap<usize, ConvEngine>,
    noise_psnr: f64,
}

impl GaussianDenoise {

    /// Builds the application with one kernel per supported window size
    /// (the paper's SOFTWARE "Window Size" DoF). The first kernel's
    /// window defines the golden configuration.
    ///
    /// # Panics
    ///
    /// Panics if `images` or `kernels` is empty, or two kernels share a
    /// window size.
    pub(crate) fn with_kernels(
        images: Vec<Image>,
        noise_sigma: f64,
        kernels: Vec<QuantKernel>,
        exact: Arc<dyn Mul8s>,
        seed: u64,
    ) -> GaussianDenoise {
        assert!(!images.is_empty(), "need at least one image");
        assert!(!kernels.is_empty(), "need at least one kernel");
        let golden_window = kernels[0].window();
        let mut engines = BTreeMap::new();
        for k in kernels {
            let w = k.window();
            assert!(
                engines.insert(w, ConvEngine::new(k)).is_none(),
                "duplicate kernel for window {w}"
            );
        }
        let noisy: Vec<Image> = images
            .iter()
            .enumerate()
            .map(|(i, img)| img.with_gaussian_noise(noise_sigma, seed.wrapping_add(i as u64)))
            .collect();
        let golden_cfg = ConvConfig {
            window: golden_window,
            ..ConvConfig::default()
        };
        let taps: Vec<Arc<dyn Mul8s>> = (0..golden_cfg.taps()).map(|_| exact.clone()).collect();
        let golden: Vec<Image> = noisy
            .iter()
            .map(|img| {
                engines[&golden_window]
                    .convolve(img, &golden_cfg, &taps)
                    .expect("golden configuration is always valid")
            })
            .collect();
        let noise_psnr = images
            .iter()
            .zip(&noisy)
            .map(|(c, n)| crate::psnr(c, n))
            .sum::<f64>()
            / images.len() as f64;
        GaussianDenoise {
            clean: images,
            noisy,
            golden,
            engines,
            noise_psnr,
        }
    }

    /// Builds the standard 3-image synthetic workload (smooth field,
    /// blobs, gradient) at `size × size` pixels with a 3×3, σ = 0.85
    /// kernel.
    pub fn standard(size: usize, noise_sigma: f64, exact: Arc<dyn Mul8s>, seed: u64) -> GaussianDenoise {
        let images = vec![
            Image::synthetic(SynthKind::SmoothField, size, size, seed),
            Image::synthetic(SynthKind::Blobs, size, size, seed.wrapping_add(1)),
            Image::synthetic(SynthKind::Gradient, size, size, seed.wrapping_add(2)),
        ];
        GaussianDenoise::with_kernels(
            images,
            noise_sigma,
            vec![
                QuantKernel::gaussian(3, 0.85),
                QuantKernel::gaussian(5, 1.1),
                QuantKernel::gaussian(7, 1.4),
            ],
            exact,
            seed,
        )
    }

    /// Window sizes this application instance supports.
    pub fn windows(&self) -> Vec<usize> {
        self.engines.keys().copied().collect()
    }

    /// Mean PSNR of the *noisy inputs* against the clean images — the
    /// "PSNR (Noisy)" baseline of paper Fig. 1c.
    pub fn noise_psnr(&self) -> f64 {
        self.noise_psnr
    }

    /// Evaluates a configuration with the given tap multipliers.
    ///
    /// Outputs are upscaled back to the input size (zero-order hold)
    /// before comparison, so reduced-size configurations pay their
    /// fidelity cost honestly.
    ///
    /// # Errors
    ///
    /// Propagates configuration/assignment errors from the engine.
    pub fn evaluate(&self, config: &ConvConfig, muls: &[Arc<dyn Mul8s>]) -> Result<AppResult> {
        let engine = self.engines.get(&config.window).ok_or_else(|| ConvError::BadConfig {
            reason: format!("no kernel configured for window {}", config.window),
        })?;
        let factor = config.reduction_factor();
        let mut psnr_sum = 0.0;
        let mut err_sum = 0.0;
        for ((clean, noisy), golden) in self.clean.iter().zip(&self.noisy).zip(&self.golden) {
            let out = engine.convolve(noisy, config, muls)?;
            let full = if factor > 1 {
                out.upscale_to(factor, clean.width(), clean.height())
            } else {
                out
            };
            psnr_sum += crate::image::psnr_capped(clean, &full);
            err_sum += crate::app_error_percent(&full, golden);
        }
        let n = self.clean.len() as f64;
        Ok(AppResult {
            psnr_db: psnr_sum / n,
            error_percent: err_sum / n,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::Catalog;

    fn taps(m: &Arc<clapped_axops::AxMul>, n: usize) -> Vec<Arc<dyn Mul8s>> {
        (0..n).map(|_| m.clone() as Arc<dyn Mul8s>).collect()
    }

    #[test]
    fn golden_config_has_zero_error_and_denoises() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = GaussianDenoise::standard(32, 14.0, exact.clone(), 9);
        let r = app.evaluate(&ConvConfig::default(), &taps(&exact, 9)).unwrap();
        assert_eq!(r.error_percent, 0.0);
        // Smoothing must beat the raw noisy input on smooth content.
        assert!(
            r.psnr_db > app.noise_psnr() - 1.0,
            "psnr {} vs noisy {}",
            r.psnr_db,
            app.noise_psnr()
        );
    }

    #[test]
    fn rougher_multipliers_increase_error() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = GaussianDenoise::standard(32, 14.0, exact.clone(), 9);
        let mild = cat.get("mul8s_tr2").unwrap();
        let rough = cat.get("mul8s_bam_v8_h3").unwrap();
        let r_mild = app.evaluate(&ConvConfig::default(), &taps(&mild, 9)).unwrap();
        let r_rough = app.evaluate(&ConvConfig::default(), &taps(&rough, 9)).unwrap();
        assert!(r_mild.error_percent < r_rough.error_percent);
        assert!(r_mild.psnr_db > r_rough.psnr_db);
    }

    #[test]
    fn stride_two_degrades_quality() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = GaussianDenoise::standard(32, 14.0, exact.clone(), 9);
        let strided = ConvConfig {
            stride: 2,
            downsample: true,
            ..ConvConfig::default()
        };
        let r1 = app.evaluate(&ConvConfig::default(), &taps(&exact, 9)).unwrap();
        let r2 = app.evaluate(&strided, &taps(&exact, 9)).unwrap();
        assert!(r2.error_percent > r1.error_percent);
        assert!(r2.psnr_db < r1.psnr_db);
    }

    #[test]
    fn larger_windows_evaluate_and_smooth_harder() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = GaussianDenoise::standard(32, 14.0, exact.clone(), 9);
        assert_eq!(app.windows(), vec![3, 5, 7]);
        let r3 = app.evaluate(&ConvConfig::default(), &taps(&exact, 9)).unwrap();
        let cfg5 = ConvConfig { window: 5, ..ConvConfig::default() };
        let r5 = app.evaluate(&cfg5, &taps(&exact, 25)).unwrap();
        // A wider Gaussian blurs more: it deviates further from the 3x3
        // golden output.
        assert!(r5.error_percent > r3.error_percent);
        // Unconfigured window sizes are rejected cleanly.
        let cfg9 = ConvConfig { window: 9, ..ConvConfig::default() };
        assert!(app.evaluate(&cfg9, &taps(&exact, 81)).is_err());
    }

    #[test]
    fn separable_mode_works_end_to_end() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = GaussianDenoise::standard(32, 14.0, exact.clone(), 9);
        let sep = ConvConfig {
            mode: crate::ConvMode::Separable,
            ..ConvConfig::default()
        };
        let r = app.evaluate(&sep, &taps(&exact, 6)).unwrap();
        assert!(r.error_percent < 5.0, "separable exact error {}", r.error_percent);
    }
}
