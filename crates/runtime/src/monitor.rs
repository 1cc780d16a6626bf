//! Online quality monitoring by subsampled reference evaluation.
//!
//! Running the exact pipeline alongside the approximate one would cost
//! a full second convolution per frame — exactly the work approximation
//! is supposed to save. The monitor instead reconvolves a *few dozen*
//! deterministic output positions with the exact operator's LUT columns
//! and compares them against the deployed output. The subsample mean is
//! an unbiased estimate of the frame's application error (the same
//! `app_error_percent` convention used everywhere in the workspace);
//! `clapped-errmodel`'s exhaustive operator statistics provide a
//! variance floor so a lucky all-zero subsample never reads as
//! certainty.

use crate::frame_seed;
use clapped_axops::Mul8s;
use clapped_errmodel::ErrorStats;
use clapped_imgproc::{ConvConfig, ConvMode, Image, QuantKernel};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Salt for monitor sample positions.
const SALT_MONITOR: u64 = 0x4D4F_4E49_544F_5231;

/// Output positions sampled per frame.
const SAMPLES: usize = 48;
/// Confidence multiplier `k` for the interval half-width (`k·stderr`);
/// 2 ≈ 95%.
const CONFIDENCE_K: f64 = 2.0;

/// One frame's quality estimate: point estimate plus a confidence
/// interval in application-error percent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QualityEstimate {
    /// Subsample mean error (%).
    pub estimate_percent: f64,
    /// Lower confidence bound (%), clamped at 0.
    pub lower_percent: f64,
    /// Upper confidence bound (%).
    pub upper_percent: f64,
    /// Number of positions sampled.
    pub samples: usize,
}

/// The subsampling reference monitor. Holds the exact operator's LUT
/// columns for the stream's kernel, so a reference pixel costs `taps`
/// table lookups — no virtual dispatch, no full-frame work.
#[derive(Debug, Clone)]
pub struct QualityMonitor {
    window: usize,
    shift: u32,
    /// Tap `t`'s exact column occupies `luts[t*128..][..128]`.
    luts: Vec<i16>,
}

impl QualityMonitor {
    /// Compiles the exact operator against the kernel.
    pub(crate) fn new(exact: &dyn Mul8s, kernel: &QuantKernel) -> QualityMonitor {
        let coeffs = kernel.coeffs_2d();
        let mut luts = Vec::with_capacity(coeffs.len() * 128);
        for &c in coeffs {
            luts.extend_from_slice(&exact.column(c));
        }
        QualityMonitor { window: kernel.window(), shift: kernel.shift(), luts }
    }

    /// The exact output pixel at output position `(ox, oy)` — the same
    /// quantize → window-accumulate → normalize pipeline as the
    /// convolution engine, for one pixel.
    fn reference_pixel(&self, input: &Image, conv: &ConvConfig, ox: usize, oy: usize) -> u8 {
        let s = conv.stride;
        // The input-space window center this output position was
        // computed from: the stride-grid point itself when
        // downsampling, the covering grid point under replication.
        let (cx, cy) = if conv.downsample || s == 1 {
            (ox * s, oy * s)
        } else {
            ((ox / s) * s, (oy / s) * s)
        };
        let w = self.window;
        let half = (w / 2) as isize;
        let mut acc: i32 = 0;
        for dy in 0..w {
            for dx in 0..w {
                let px = input.get_clamped(
                    cx as isize + dx as isize - half,
                    cy as isize + dy as isize - half,
                ) >> 1;
                let t = dy * w + dx;
                acc += i32::from(self.luts[t * 128 + usize::from(px)]);
            }
        }
        ((acc >> self.shift).clamp(0, 127) << 1) as u8
    }

    /// Estimates the application error of `output` (the deployed
    /// pipeline's result for `input`) by exact reconvolution at 48
    /// deterministic positions. `stats` are the deployed
    /// operator's exhaustive error metrics — they set the confidence
    /// floor. Sample positions derive from `(stream seed, frame)`, so
    /// traced, untraced and resumed runs sample identically.
    ///
    /// Only 2D, unscaled configurations are supported (the supervisor
    /// validates this once at construction).
    pub(crate) fn estimate(
        &self,
        input: &Image,
        output: &Image,
        conv: &ConvConfig,
        stats: &ErrorStats,
        stream_seed: u64,
        frame: usize,
    ) -> QualityEstimate {
        let _span = clapped_obs::span("runtime.monitor");
        debug_assert!(conv.mode == ConvMode::TwoD && conv.scale == 1);
        let n = SAMPLES;
        let (ow, oh) = (output.width(), output.height());
        let mut rng = ChaCha8Rng::seed_from_u64(frame_seed(stream_seed, frame, SALT_MONITOR));
        let mut sum = 0.0f64;
        let mut sq_sum = 0.0f64;
        for _ in 0..n {
            let ox = rng.gen_range(0..ow);
            let oy = rng.gen_range(0..oh);
            let reference = self.reference_pixel(input, conv, ox, oy);
            let diff = (f64::from(output.get(ox, oy)) - f64::from(reference)).abs();
            let pct = 100.0 * diff / 255.0;
            sum += pct;
            sq_sum += pct * pct;
        }
        let mean = sum / n as f64;
        let var = (sq_sum / n as f64 - mean * mean).max(0.0);
        let sample_se = (var / n as f64).sqrt();
        // Operator-level variance floor: `taps` independent products
        // each deviating `√mse` accumulate into the window sum before
        // the normalization shift. A subsample that happened to land on
        // agreeing pixels still carries at least this uncertainty.
        let taps = (self.window * self.window) as f64;
        let prior_px = (stats.mse * taps).sqrt() / f64::from(1u32 << self.shift);
        let prior_se = (100.0 * prior_px / 255.0) / (n as f64).sqrt();
        let se = sample_se.max(prior_se);
        let half = CONFIDENCE_K * se;
        QualityEstimate {
            estimate_percent: mean,
            lower_percent: (mean - half).max(0.0),
            upper_percent: mean + half,
            samples: n,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::{AxMul, MulArch};
    use clapped_imgproc::{ConvEngine, SynthKind};
    use std::sync::Arc;

    fn setup() -> (ConvEngine, QuantKernel, Arc<AxMul>, Arc<AxMul>) {
        let kernel = QuantKernel::gaussian(3, 0.85);
        (
            ConvEngine::new(kernel.clone()),
            kernel,
            Arc::new(AxMul::new("exact", MulArch::Exact)),
            Arc::new(AxMul::new("tr5", MulArch::Truncated { k: 5 })),
        )
    }

    fn taps(m: &Arc<AxMul>, n: usize) -> Vec<Arc<dyn Mul8s>> {
        (0..n).map(|_| m.clone() as Arc<dyn Mul8s>).collect()
    }

    #[test]
    fn exact_output_reads_as_zero_error() {
        let (engine, kernel, exact, _) = setup();
        let monitor = QualityMonitor::new(exact.as_ref(), &kernel);
        let conv = ConvConfig::default();
        let img = Image::synthetic(SynthKind::Blobs, 24, 24, 5).with_gaussian_noise(20.0, 7);
        let out = engine.convolve(&img, &conv, &taps(&exact, 9)).expect("valid");
        let stats = ErrorStats::of_multiplier(exact.as_ref());
        let est = monitor.estimate(&img, &out, &conv, &stats, 1, 0);
        assert_eq!(est.estimate_percent, 0.0, "exact pipeline matches its own reference");
        assert_eq!(est.lower_percent, 0.0);
    }

    #[test]
    fn reference_matches_engine_at_every_position() {
        // The single-pixel reference must agree with the engine's exact
        // output everywhere, for strided and replicated configs too.
        let (engine, kernel, exact, _) = setup();
        let monitor = QualityMonitor::new(exact.as_ref(), &kernel);
        let img = Image::synthetic(SynthKind::Checkerboard, 17, 17, 2).with_gaussian_noise(8.0, 3);
        for (stride, downsample) in [(1, false), (2, true), (2, false), (3, true)] {
            let conv = ConvConfig { stride, downsample, ..ConvConfig::default() };
            let golden = engine.convolve(&img, &conv, &taps(&exact, 9)).expect("valid");
            for oy in 0..golden.height() {
                for ox in 0..golden.width() {
                    assert_eq!(
                        monitor.reference_pixel(&img, &conv, ox, oy),
                        golden.get(ox, oy),
                        "divergence at ({ox},{oy}) stride={stride} down={downsample}"
                    );
                }
            }
        }
    }

    #[test]
    fn approximate_rung_reads_positive_with_sane_interval() {
        let (engine, kernel, exact, rough) = setup();
        let monitor = QualityMonitor::new(exact.as_ref(), &kernel);
        let conv = ConvConfig::default();
        let img = Image::synthetic(SynthKind::SmoothField, 24, 24, 9).with_gaussian_noise(25.0, 1);
        let out = engine.convolve(&img, &conv, &taps(&rough, 9)).expect("valid");
        let stats = ErrorStats::of_multiplier(rough.as_ref());
        let est = monitor.estimate(&img, &out, &conv, &stats, 1, 3);
        assert!(est.estimate_percent > 0.0, "coarse truncation must show error");
        assert!(est.lower_percent <= est.estimate_percent);
        assert!(est.upper_percent > est.estimate_percent, "errmodel floor widens the interval");
        // Deterministic: same (seed, frame) ⇒ bit-identical estimate.
        let again = monitor.estimate(&img, &out, &conv, &stats, 1, 3);
        assert_eq!(est, again);
        let other = monitor.estimate(&img, &out, &conv, &stats, 1, 4);
        assert!(other.samples == est.samples);
    }
}
