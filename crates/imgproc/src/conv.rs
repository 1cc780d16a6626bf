//! The cross-layer DoF-aware convolution engine.
//!
//! Execution is **plan-compiled**: [`ConvEngine::convolve`] lowers each
//! tap's `(operator, coefficient)` pair into a 128-entry column LUT
//! (see [`crate::plan`]) and runs an interior/border split — interior
//! rows take a clamp-free sliding loop over flat row slices, only the
//! `window/2` border ring pays clamped access. The historical
//! per-pixel virtual-dispatch path is kept as
//! [`ConvEngine::convolve_naive`], the bit-identical reference the
//! property tests and benchmarks compare against.

use crate::plan::ConvPlan;
use crate::{ConvError, Image, QuantKernel, RawBuf, Result};
use clapped_axops::Mul8s;
use std::sync::Arc;

/// Convolution mode: full 2D window or separable 1D-horizontal followed
/// by 1D-vertical passes (the paper's SOFTWARE "Mode" DoF).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ConvMode {
    /// One 2D sliding window, `window²` multiplications per pixel.
    #[default]
    TwoD,
    /// 1DH → 1DV separable filtering, `2·window` multiplications per
    /// pixel.
    Separable,
}

/// A cross-layer configuration of the convolution application.
///
/// # Examples
///
/// ```
/// use clapped_imgproc::{ConvConfig, ConvMode};
///
/// let config = ConvConfig { stride: 2, downsample: true, ..ConvConfig::default() };
/// assert_eq!(config.window, 3);
/// assert_eq!(config.mode, ConvMode::TwoD);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConvConfig {
    /// Window size (odd; must match the engine's kernel).
    pub window: usize,
    /// Sliding stride (`1..=4`).
    pub stride: usize,
    /// With `stride > 1`: shrink the output (`true`) or keep the input
    /// size by replicating the last computed pixel (`false`).
    pub downsample: bool,
    /// 2D or separable mode.
    pub mode: ConvMode,
    /// Input (DATA) scaling factor (`1..=4`): the input is average-pooled
    /// by this factor before filtering.
    pub scale: usize,
}

impl Default for ConvConfig {
    fn default() -> Self {
        ConvConfig {
            window: 3,
            stride: 1,
            downsample: false,
            mode: ConvMode::TwoD,
            scale: 1,
        }
    }
}

impl ConvConfig {
    /// Number of tap multipliers this configuration consumes:
    /// `window²` for 2D, `2·window` for separable.
    pub fn taps(&self) -> usize {
        match self.mode {
            ConvMode::TwoD => self.window * self.window,
            ConvMode::Separable => 2 * self.window,
        }
    }

    /// Total size-reduction factor of the output relative to the input
    /// (`scale`, times `stride` when downsampling).
    pub(crate) fn reduction_factor(&self) -> usize {
        self.scale * if self.downsample { self.stride } else { 1 }
    }

    fn validate(&self, kernel_window: usize) -> Result<()> {
        if self.window != kernel_window {
            return Err(ConvError::BadConfig {
                reason: format!(
                    "config window {} does not match kernel window {kernel_window}",
                    self.window
                ),
            });
        }
        if !(1..=4).contains(&self.stride) {
            return Err(ConvError::BadConfig {
                reason: format!("stride {} out of 1..=4", self.stride),
            });
        }
        if !(1..=4).contains(&self.scale) {
            return Err(ConvError::BadConfig {
                reason: format!("scale {} out of 1..=4", self.scale),
            });
        }
        Ok(())
    }
}

/// Tap-multiplier assignment: one operator per multiplication site.
pub(crate) type TapMuls = [Arc<dyn Mul8s>];

/// The convolution engine: a quantized kernel plus the execution logic
/// for every configuration of the cross-layer DoFs.
#[derive(Debug, Clone)]
pub struct ConvEngine {
    kernel: QuantKernel,
}

impl ConvEngine {
    /// Creates an engine over a quantized kernel.
    pub fn new(kernel: QuantKernel) -> ConvEngine {
        ConvEngine { kernel }
    }

    /// The engine's kernel.
    pub(crate) fn kernel(&self) -> &QuantKernel {
        &self.kernel
    }

    /// Runs the configured convolution with the given per-tap
    /// multipliers, through a compiled plan (LUT-lowered taps with an
    /// interior/border split — see the `plan` module).
    ///
    /// The output's natural size is the input size divided by
    /// the configuration's reduction factor; use [`Image::upscale_to`] to
    /// compare against full-size references. Results are bit-identical
    /// to [`ConvEngine::convolve_naive`].
    ///
    /// # Errors
    ///
    /// Returns [`ConvError::BadConfig`] for invalid configurations and
    /// [`ConvError::BadAssignment`] when `muls.len() != config.taps()`.
    pub fn convolve(
        &self,
        image: &Image,
        config: &ConvConfig,
        muls: &TapMuls,
    ) -> Result<Image> {
        self.check(config, muls)?;
        let work = image.downscale(config.scale);
        let out = match config.mode {
            ConvMode::TwoD => {
                let plan = ConvPlan::compile(
                    self.kernel.window(),
                    self.kernel.coeffs_2d(),
                    self.kernel.shift(),
                    muls,
                );
                let (gw, gh, accs) = plan.run_2d(&work, config.stride);
                let grid: Vec<u8> = accs.iter().map(|&a| requant(a)).collect();
                finish_grid(grid, gw, gh, &work, config, true, true)
            }
            ConvMode::Separable => {
                self.check_separable()?;
                let w = self.kernel.window();
                let plan = ConvPlan::compile(
                    w,
                    self.kernel.coeffs_1d(),
                    self.kernel.shift_1d(),
                    &muls[..w],
                );
                let (gw, gh, accs) = plan.run_1d(&work, config.stride, true);
                let grid: Vec<u8> = accs.iter().map(|&a| requant(a)).collect();
                let h = finish_grid(grid, gw, gh, &work, config, true, false);
                let plan = ConvPlan::compile(
                    w,
                    self.kernel.coeffs_1d(),
                    self.kernel.shift_1d(),
                    &muls[w..],
                );
                let (gw, gh, accs) = plan.run_1d(&h, config.stride, false);
                let grid: Vec<u8> = accs.iter().map(|&a| requant(a)).collect();
                finish_grid(grid, gw, gh, &h, config, false, true)
            }
        };
        Ok(out)
    }

    /// The naive reference implementation of [`ConvEngine::convolve`]:
    /// per-pixel virtual `mul` dispatch and clamped access everywhere.
    /// Kept (and property-tested bit-identical to the compiled path)
    /// as the semantics reference and benchmark baseline.
    ///
    /// # Errors
    ///
    /// Same contract as [`ConvEngine::convolve`].
    pub fn convolve_naive(
        &self,
        image: &Image,
        config: &ConvConfig,
        muls: &TapMuls,
    ) -> Result<Image> {
        self.check(config, muls)?;
        let work = image.downscale(config.scale);
        let out = match config.mode {
            ConvMode::TwoD => self.conv2d(&work, config, muls),
            ConvMode::Separable => {
                self.check_separable()?;
                let w = self.kernel.window();
                let h = self.horizontal_pass(&work, config, &muls[..w]);
                self.vertical_pass(&h, config, &muls[w..])
            }
        };
        Ok(out)
    }

    /// Runs a 2D convolution returning the *raw* normalized accumulator
    /// per stride-grid position (no clamping or rescaling), for
    /// applications whose post-processing differs from intensity
    /// clamping (e.g. gradient magnitudes). Scaling/downsampling follow
    /// the same semantics as [`ConvEngine::convolve`]; execution uses
    /// the same compiled plan.
    ///
    /// # Errors
    ///
    /// Rejects separable mode (raw accumulation is 2D only) and invalid
    /// configurations.
    pub fn convolve_raw(
        &self,
        image: &Image,
        config: &ConvConfig,
        muls: &TapMuls,
    ) -> Result<RawBuf> {
        if config.mode != ConvMode::TwoD {
            return Err(ConvError::BadConfig {
                reason: "raw convolution supports 2D mode only".to_string(),
            });
        }
        self.check(config, muls)?;
        let work = image.downscale(config.scale);
        let plan = ConvPlan::compile(
            self.kernel.window(),
            self.kernel.coeffs_2d(),
            self.kernel.shift(),
            muls,
        );
        let (gw, gh, accs) = plan.run_2d(&work, config.stride);
        Ok(RawBuf::from_vec(gw, gh, accs))
    }

    fn check(&self, config: &ConvConfig, muls: &TapMuls) -> Result<()> {
        config.validate(self.kernel.window())?;
        if muls.len() != config.taps() {
            return Err(ConvError::BadAssignment {
                expected: config.taps(),
                found: muls.len(),
            });
        }
        Ok(())
    }

    fn check_separable(&self) -> Result<()> {
        if !self.kernel.is_separable() {
            return Err(ConvError::BadConfig {
                reason: "kernel has no separable factors".to_string(),
            });
        }
        Ok(())
    }

    fn conv2d(&self, img: &Image, config: &ConvConfig, muls: &TapMuls) -> Image {
        let w = self.kernel.window();
        let half = (w / 2) as isize;
        let coeffs = self.kernel.coeffs_2d();
        let shift = self.kernel.shift();
        let compute = |x: usize, y: usize| -> u8 {
            let mut acc: i32 = 0;
            for dy in 0..w {
                for dx in 0..w {
                    let px = quant_pixel(img.get_clamped(
                        x as isize + dx as isize - half,
                        y as isize + dy as isize - half,
                    ));
                    let c = coeffs[dy * w + dx];
                    acc += i32::from(muls[dy * w + dx].mul(px, c));
                }
            }
            dequant_result(acc, shift)
        };
        strided_map(img, config, compute)
    }

    fn horizontal_pass(&self, img: &Image, config: &ConvConfig, muls: &TapMuls) -> Image {
        let w = self.kernel.window();
        let half = (w / 2) as isize;
        let coeffs = self.kernel.coeffs_1d();
        let shift = self.kernel.shift_1d();
        // Horizontal pass strides along x only (the axis flag below).
        strided_map_axis(img, config, true, |x, y| {
            let mut acc: i32 = 0;
            for dx in 0..w {
                let px = quant_pixel(img.get_clamped(x as isize + dx as isize - half, y as isize));
                acc += i32::from(muls[dx].mul(px, coeffs[dx]));
            }
            dequant_result(acc, shift)
        })
    }

    fn vertical_pass(&self, img: &Image, config: &ConvConfig, muls: &TapMuls) -> Image {
        let w = self.kernel.window();
        let half = (w / 2) as isize;
        let coeffs = self.kernel.coeffs_1d();
        let shift = self.kernel.shift_1d();
        strided_map_axis(img, config, false, |x, y| {
            let mut acc: i32 = 0;
            for dy in 0..w {
                let px = quant_pixel(img.get_clamped(x as isize, y as isize + dy as isize - half));
                acc += i32::from(muls[dy].mul(px, coeffs[dy]));
            }
            dequant_result(acc, shift)
        })
    }
}

/// Quantizes an 8-bit pixel into the signed-operand range `0..=127`.
fn quant_pixel(v: u8) -> i8 {
    (v >> 1) as i8
}

/// Normalizes an accumulated product sum and rescales to `0..=255`.
fn dequant_result(acc: i32, shift: u32) -> u8 {
    requant(acc >> shift)
}

/// Rescales an already-normalized accumulator to `0..=255`.
fn requant(v: i32) -> u8 {
    (v.clamp(0, 127) << 1) as u8
}

/// Assembles a computed stride grid into the output image: the grid
/// itself when downsampling, otherwise a zero-order-hold replication
/// back to the source size. `strided_x`/`strided_y` select which axes
/// the grid was strided along (both for 2D, one for separable passes).
fn finish_grid(
    grid: Vec<u8>,
    gw: usize,
    gh: usize,
    src: &Image,
    config: &ConvConfig,
    strided_x: bool,
    strided_y: bool,
) -> Image {
    if config.downsample || config.stride == 1 {
        return Image::from_vec(gw, gh, grid);
    }
    let sx = if strided_x { config.stride } else { 1 };
    let sy = if strided_y { config.stride } else { 1 };
    replicate_grid(&grid, gw, src.width(), src.height(), sx, sy)
}

/// Zero-order-hold replication of a stride grid back to `width ×
/// height`, by row-slice copying: each grid row is column-expanded once
/// into a scratch row, then the scratch row is copied for every output
/// row it covers — no per-pixel `x / s, y / s` divisions.
fn replicate_grid(grid: &[u8], gw: usize, width: usize, height: usize, sx: usize, sy: usize) -> Image {
    let mut data = Vec::with_capacity(width * height);
    let mut expanded = vec![0u8; width];
    let gh = grid.len() / gw;
    for gy in 0..gh {
        let row = &grid[gy * gw..(gy + 1) * gw];
        if sx == 1 {
            expanded.copy_from_slice(row);
        } else {
            for (x, e) in expanded.iter_mut().enumerate() {
                *e = row[x / sx];
            }
        }
        for _ in gy * sy..((gy + 1) * sy).min(height) {
            data.extend_from_slice(&expanded);
        }
    }
    Image::from_vec(width, height, data)
}

/// Applies `compute` on the stride grid in both axes; shrinks the output
/// when downsampling, otherwise replicates (zero-order hold).
fn strided_map(img: &Image, config: &ConvConfig, mut compute: impl FnMut(usize, usize) -> u8) -> Image {
    let s = config.stride;
    let ow = img.width().div_ceil(s);
    let oh = img.height().div_ceil(s);
    let mut grid = Vec::with_capacity(ow * oh);
    for oy in 0..oh {
        for ox in 0..ow {
            grid.push(compute(ox * s, oy * s));
        }
    }
    finish_grid(grid, ow, oh, img, config, true, true)
}

/// Like [`strided_map`] but striding a single axis (`horizontal` = x).
fn strided_map_axis(
    img: &Image,
    config: &ConvConfig,
    horizontal: bool,
    mut compute: impl FnMut(usize, usize) -> u8,
) -> Image {
    let s = config.stride;
    let (sw, sh) = if horizontal { (s, 1) } else { (1, s) };
    let ow = img.width().div_ceil(sw);
    let oh = img.height().div_ceil(sh);
    let mut grid = Vec::with_capacity(ow * oh);
    for oy in 0..oh {
        for ox in 0..ow {
            grid.push(compute(ox * sw, oy * sh));
        }
    }
    finish_grid(grid, ow, oh, img, config, horizontal, !horizontal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SynthKind;
    use clapped_axops::Catalog;

    fn exact_taps(n: usize) -> Vec<Arc<dyn Mul8s>> {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        (0..n).map(|_| exact.clone() as Arc<dyn Mul8s>).collect()
    }

    fn engine3() -> ConvEngine {
        ConvEngine::new(QuantKernel::gaussian(3, 0.85))
    }

    #[test]
    fn flat_image_stays_flat() {
        let img = Image::filled(16, 16, 128);
        let out = engine3()
            .convolve(&img, &ConvConfig::default(), &exact_taps(9))
            .unwrap();
        // A normalized kernel on a flat image must approximately preserve
        // the level (quantization costs a couple of LSBs).
        for &v in out.as_slice() {
            assert!((f64::from(v) - 128.0).abs() <= 6.0, "{v}");
        }
    }

    #[test]
    fn smoothing_reduces_high_frequency_energy() {
        let img = Image::synthetic(SynthKind::Checkerboard, 32, 32, 0);
        let out = engine3()
            .convolve(&img, &ConvConfig::default(), &exact_taps(9))
            .unwrap();
        let variance = |im: &Image| {
            let m = im.mean();
            im.as_slice()
                .iter()
                .map(|&v| (f64::from(v) - m) * (f64::from(v) - m))
                .sum::<f64>()
                / im.as_slice().len() as f64
        };
        assert!(variance(&out) < variance(&img));
    }

    #[test]
    fn downsampling_shrinks_output() {
        let img = Image::filled(16, 16, 100);
        let cfg = ConvConfig {
            stride: 2,
            downsample: true,
            ..ConvConfig::default()
        };
        let out = engine3().convolve(&img, &cfg, &exact_taps(9)).unwrap();
        assert_eq!(out.width(), 8);
        assert_eq!(out.height(), 8);
    }

    #[test]
    fn stride_without_downsampling_keeps_size() {
        let img = Image::synthetic(SynthKind::Gradient, 16, 16, 0);
        let cfg = ConvConfig {
            stride: 2,
            downsample: false,
            ..ConvConfig::default()
        };
        let out = engine3().convolve(&img, &cfg, &exact_taps(9)).unwrap();
        assert_eq!(out.width(), 16);
        assert_eq!(out.height(), 16);
        // Zero-order hold: neighbours within a stride cell are equal.
        assert_eq!(out.get(0, 0), out.get(1, 1));
    }

    #[test]
    fn separable_approximates_2d_for_gaussian() {
        let img = Image::synthetic(SynthKind::SmoothField, 32, 32, 1);
        let cfg2d = ConvConfig::default();
        let cfg_sep = ConvConfig {
            mode: ConvMode::Separable,
            ..ConvConfig::default()
        };
        let out2d = engine3().convolve(&img, &cfg2d, &exact_taps(9)).unwrap();
        let out_sep = engine3().convolve(&img, &cfg_sep, &exact_taps(6)).unwrap();
        // Gaussian is separable: both outputs must agree within
        // quantization noise.
        let diff = crate::app_error_percent(&out2d, &out_sep);
        assert!(diff < 3.0, "2D vs separable differ by {diff}%");
    }

    #[test]
    fn scale_reduces_work_and_output() {
        let img = Image::synthetic(SynthKind::SmoothField, 32, 32, 2);
        let cfg = ConvConfig {
            scale: 2,
            ..ConvConfig::default()
        };
        let out = engine3().convolve(&img, &cfg, &exact_taps(9)).unwrap();
        assert_eq!(out.width(), 16);
        assert_eq!(cfg.reduction_factor(), 2);
    }

    #[test]
    fn approximate_multipliers_change_output() {
        let img = Image::synthetic(SynthKind::SmoothField, 16, 16, 3);
        let cat = Catalog::standard();
        let rough = cat.get("mul8s_bam_v8_h3").unwrap();
        let taps: Vec<Arc<dyn Mul8s>> = (0..9).map(|_| rough.clone() as Arc<dyn Mul8s>).collect();
        let out_ax = engine3().convolve(&img, &ConvConfig::default(), &taps).unwrap();
        let out_ex = engine3()
            .convolve(&img, &ConvConfig::default(), &exact_taps(9))
            .unwrap();
        assert_ne!(out_ax, out_ex);
    }

    #[test]
    fn compiled_matches_naive_on_representative_configs() {
        // The exhaustive DoF cross lives in tests/prop_conv_plan.rs;
        // this is the in-crate smoke check.
        let img = Image::synthetic(SynthKind::Blobs, 17, 11, 5);
        let engine = engine3();
        for cfg in [
            ConvConfig::default(),
            ConvConfig { stride: 3, downsample: true, ..ConvConfig::default() },
            ConvConfig { stride: 2, scale: 2, ..ConvConfig::default() },
            ConvConfig { mode: ConvMode::Separable, stride: 2, ..ConvConfig::default() },
        ] {
            let taps = exact_taps(cfg.taps());
            let fast = engine.convolve(&img, &cfg, &taps).unwrap();
            let slow = engine.convolve_naive(&img, &cfg, &taps).unwrap();
            assert_eq!(fast, slow, "{cfg:?}");
        }
    }

    #[test]
    fn wrong_tap_count_is_rejected() {
        let img = Image::filled(8, 8, 10);
        let err = engine3()
            .convolve(&img, &ConvConfig::default(), &exact_taps(4))
            .unwrap_err();
        assert!(matches!(err, ConvError::BadAssignment { expected: 9, found: 4 }));
    }

    #[test]
    fn invalid_stride_is_rejected() {
        let img = Image::filled(8, 8, 10);
        let cfg = ConvConfig {
            stride: 9,
            ..ConvConfig::default()
        };
        assert!(matches!(
            engine3().convolve(&img, &cfg, &exact_taps(9)),
            Err(ConvError::BadConfig { .. })
        ));
    }

    #[test]
    fn raw_convolution_matches_clamped_path() {
        let img = Image::synthetic(SynthKind::SmoothField, 12, 12, 4);
        let engine = engine3();
        let cfg = ConvConfig::default();
        let raw = engine.convolve_raw(&img, &cfg, &exact_taps(9)).unwrap();
        let clamped = engine.convolve(&img, &cfg, &exact_taps(9)).unwrap();
        for y in 0..12 {
            for x in 0..12 {
                let want = (raw.get(x, y).clamp(0, 127) << 1) as u8;
                assert_eq!(clamped.get(x, y), want, "at ({x},{y})");
            }
        }
    }

    #[test]
    fn raw_convolution_rejects_separable() {
        let img = Image::filled(8, 8, 10);
        let cfg = ConvConfig {
            mode: ConvMode::Separable,
            ..ConvConfig::default()
        };
        assert!(engine3().convolve_raw(&img, &cfg, &exact_taps(6)).is_err());
    }

    #[test]
    fn separable_mode_rejected_for_explicit_kernels() {
        let k = QuantKernel::from_coeffs(3, &[0, 1, 0, 1, 2, 1, 0, 1, 0], 3);
        let engine = ConvEngine::new(k);
        let img = Image::filled(8, 8, 10);
        let cfg = ConvConfig {
            mode: ConvMode::Separable,
            ..ConvConfig::default()
        };
        assert!(engine.convolve(&img, &cfg, &exact_taps(6)).is_err());
        assert!(engine.convolve_naive(&img, &cfg, &exact_taps(6)).is_err());
    }

    #[test]
    fn taps_counts() {
        assert_eq!(ConvConfig::default().taps(), 9);
        let sep = ConvConfig {
            mode: ConvMode::Separable,
            ..ConvConfig::default()
        };
        assert_eq!(sep.taps(), 6);
        let big = ConvConfig {
            window: 5,
            ..ConvConfig::default()
        };
        assert_eq!(big.taps(), 25);
    }
}
