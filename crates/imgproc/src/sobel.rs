//! Sobel edge detection — a second application demonstrating the
//! framework's application-agnostic behavioural interface (paper
//! Section II-B: "the proposed framework is application-agnostic in
//! principle").
//!
//! The application runs two 3×3 signed convolutions (Gx, Gy) through the
//! same DoF-aware engine and approximate multipliers as the Gaussian
//! application, combines them into a gradient magnitude, and scores
//! configurations against a golden (exact, stride-1, unscaled) edge map.

use crate::{AppResult, ConvConfig, ConvEngine, ConvError, Image, QuantKernel, Result, SynthKind};
use clapped_axops::Mul8s;
use std::sync::Arc;

/// The Sobel edge-detection application.
///
/// # Examples
///
/// ```
/// use clapped_axops::Catalog;
/// use clapped_imgproc::{ConvConfig, SobelEdge};
///
/// let catalog = Catalog::standard();
/// let exact = catalog.get("mul8s_exact").unwrap();
/// let app = SobelEdge::standard(32, exact.clone(), 7);
/// let taps: Vec<_> = (0..9).map(|_| exact.clone() as std::sync::Arc<dyn clapped_axops::Mul8s>).collect();
/// let r = app.evaluate(&ConvConfig::default(), &taps, &taps).unwrap();
/// assert_eq!(r.error_percent, 0.0); // golden configuration
/// ```
#[derive(Debug, Clone)]
pub struct SobelEdge {
    images: Vec<Image>,
    golden: Vec<Image>,
    gx: ConvEngine,
    gy: ConvEngine,
}

/// Sobel Gx kernel, scaled ×8 so approximate low-bit structure is
/// exercised (shift 3 renormalizes).
const GX: [i8; 9] = [-8, 0, 8, -16, 0, 16, -8, 0, 8];
/// Sobel Gy kernel (transpose of Gx).
const GY: [i8; 9] = [-8, -16, -8, 0, 0, 0, 8, 16, 8];
/// Normalization shift for the scaled kernels.
const SHIFT: u32 = 3;

impl SobelEdge {
    /// Builds the application over explicit images with a golden edge
    /// map computed by the exact operator at stride 1.
    ///
    /// # Panics
    ///
    /// Panics if `images` is empty.
    pub(crate) fn new(images: Vec<Image>, exact: Arc<dyn Mul8s>) -> SobelEdge {
        assert!(!images.is_empty(), "need at least one image");
        let gx = ConvEngine::new(QuantKernel::from_coeffs(3, &GX, SHIFT));
        let gy = ConvEngine::new(QuantKernel::from_coeffs(3, &GY, SHIFT));
        let taps: Vec<Arc<dyn Mul8s>> = (0..9).map(|_| exact.clone()).collect();
        let golden = images
            .iter()
            .map(|img| {
                edge_map(&gx, &gy, img, &ConvConfig::default(), &taps, &taps)
                    .expect("golden configuration is always valid")
            })
            .collect();
        SobelEdge {
            images,
            golden,
            gx,
            gy,
        }
    }

    /// Standard 3-image synthetic workload (blobs, bars, checkerboard —
    /// edge-rich content).
    pub fn standard(size: usize, exact: Arc<dyn Mul8s>, seed: u64) -> SobelEdge {
        let images = vec![
            Image::synthetic(SynthKind::Blobs, size, size, seed),
            Image::synthetic(SynthKind::Bars, size, size, seed.wrapping_add(1)),
            Image::synthetic(SynthKind::Checkerboard, size, size, seed.wrapping_add(2)),
        ];
        SobelEdge::new(images, exact)
    }

    /// Window sizes this application instance supports: its kernels'.
    pub fn windows(&self) -> Vec<usize> {
        vec![self.gx.kernel().window()]
    }

    /// Computes the edge map of one image under a configuration.
    ///
    /// # Errors
    ///
    /// Propagates engine errors (2D mode only — gradients are not
    /// separable in this formulation).
    pub fn edge_map(
        &self,
        image: &Image,
        config: &ConvConfig,
        gx_muls: &[Arc<dyn Mul8s>],
        gy_muls: &[Arc<dyn Mul8s>],
    ) -> Result<Image> {
        edge_map(&self.gx, &self.gy, image, config, gx_muls, gy_muls)
    }

    /// Evaluates a configuration: mean PSNR and application-level error
    /// of its edge maps against the golden edge maps.
    ///
    /// # Errors
    ///
    /// Propagates engine errors.
    pub fn evaluate(
        &self,
        config: &ConvConfig,
        gx_muls: &[Arc<dyn Mul8s>],
        gy_muls: &[Arc<dyn Mul8s>],
    ) -> Result<AppResult> {
        let factor = config.reduction_factor();
        let mut psnr_sum = 0.0;
        let mut err_sum = 0.0;
        for (img, golden) in self.images.iter().zip(&self.golden) {
            let out = self.edge_map(img, config, gx_muls, gy_muls)?;
            let full = if factor > 1 {
                out.upscale_to(factor, img.width(), img.height())
            } else {
                out
            };
            psnr_sum += crate::image::psnr_capped(golden, &full);
            err_sum += crate::app_error_percent(&full, golden);
        }
        let n = self.images.len() as f64;
        Ok(AppResult {
            psnr_db: psnr_sum / n,
            error_percent: err_sum / n,
        })
    }
}

fn edge_map(
    gx: &ConvEngine,
    gy: &ConvEngine,
    image: &Image,
    config: &ConvConfig,
    gx_muls: &[Arc<dyn Mul8s>],
    gy_muls: &[Arc<dyn Mul8s>],
) -> Result<Image> {
    if config.mode != crate::ConvMode::TwoD {
        return Err(ConvError::BadConfig {
            reason: "Sobel gradients support 2D mode only".to_string(),
        });
    }
    let rx = gx.convolve_raw(image, config, gx_muls)?;
    let ry = gy.convolve_raw(image, config, gy_muls)?;
    let data = rx
        .as_slice()
        .iter()
        .zip(ry.as_slice())
        // |Gx| + |Gy| magnitude, clamped to 8 bits.
        .map(|(&gx, &gy)| (gx.abs() + gy.abs()).clamp(0, 255) as u8)
        .collect();
    Ok(Image::from_vec(rx.width(), rx.height(), data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::Catalog;

    fn taps(m: &Arc<clapped_axops::AxMul>, n: usize) -> Vec<Arc<dyn Mul8s>> {
        (0..n).map(|_| m.clone() as Arc<dyn Mul8s>).collect()
    }

    #[test]
    fn golden_configuration_is_zero_error() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = SobelEdge::standard(24, exact.clone(), 3);
        let r = app
            .evaluate(&ConvConfig::default(), &taps(&exact, 9), &taps(&exact, 9))
            .unwrap();
        assert_eq!(r.error_percent, 0.0);
    }

    #[test]
    fn edges_respond_to_contrast() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = SobelEdge::standard(24, exact.clone(), 3);
        // A flat image has no edges.
        let flat = Image::filled(24, 24, 100);
        let edges = app
            .edge_map(&flat, &ConvConfig::default(), &taps(&exact, 9), &taps(&exact, 9))
            .unwrap();
        assert!(edges.mean() < 2.0, "flat image mean edge {}", edges.mean());
        // Bars have strong horizontal edges.
        let bars = Image::synthetic(SynthKind::Bars, 24, 24, 0);
        let edges = app
            .edge_map(&bars, &ConvConfig::default(), &taps(&exact, 9), &taps(&exact, 9))
            .unwrap();
        assert!(edges.mean() > 10.0, "bars mean edge {}", edges.mean());
    }

    #[test]
    fn approximate_multipliers_degrade_edges() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let rough = cat.get("mul8s_bam_v8_h3").unwrap();
        let app = SobelEdge::standard(24, exact.clone(), 3);
        let r = app
            .evaluate(&ConvConfig::default(), &taps(&rough, 9), &taps(&rough, 9))
            .unwrap();
        assert!(r.error_percent > 0.5, "error {}", r.error_percent);
    }

    #[test]
    fn stride_and_scale_dofs_apply() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = SobelEdge::standard(24, exact.clone(), 3);
        let cfg = ConvConfig {
            stride: 2,
            downsample: true,
            scale: 1,
            ..ConvConfig::default()
        };
        let r = app
            .evaluate(&cfg, &taps(&exact, 9), &taps(&exact, 9))
            .unwrap();
        assert!(r.error_percent > 0.0);
    }

    #[test]
    fn separable_mode_is_rejected() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let app = SobelEdge::standard(16, exact.clone(), 3);
        let cfg = ConvConfig {
            mode: crate::ConvMode::Separable,
            ..ConvConfig::default()
        };
        assert!(app
            .evaluate(&cfg, &taps(&exact, 6), &taps(&exact, 6))
            .is_err());
    }
}
