//! Accelerator specifications.

use crate::{AccelError, Result};
use clapped_axops::AxMul;
use clapped_imgproc::ConvMode;
use std::sync::Arc;

/// A line-buffer sliding-window convolution accelerator design point.
///
/// The multiplier list assigns one operator per multiplication site:
/// `window²` sites for 2D mode, `2·window` for the separable 1DH→1DV
/// accelerator pair.
///
/// # Examples
///
/// ```
/// use clapped_accel::AcceleratorSpec;
/// use clapped_axops::Catalog;
///
/// let catalog = Catalog::standard();
/// let spec = AcceleratorSpec::uniform_2d(64, 3, &catalog.get("mul8s_exact").unwrap());
/// assert_eq!(spec.muls.len(), 9);
/// assert!(spec.validate().is_ok());
/// ```
#[derive(Debug, Clone)]
pub struct AcceleratorSpec {
    /// Square input image size `N` (the accelerator streams `N×N`
    /// pixels).
    pub image_size: usize,
    /// Window size (odd).
    pub window: usize,
    /// Sliding stride.
    pub stride: usize,
    /// Whether strided outputs shrink the image (downsampling).
    pub downsample: bool,
    /// 2D or separable mode.
    pub mode: ConvMode,
    /// Per-tap multiplier operators.
    pub muls: Vec<Arc<AxMul>>,
}

impl AcceleratorSpec {
    /// Convenience constructor: 2D accelerator with one multiplier type
    /// in every tap, stride 1, no downsampling.
    pub fn uniform_2d(image_size: usize, window: usize, m: &Arc<AxMul>) -> AcceleratorSpec {
        AcceleratorSpec {
            image_size,
            window,
            stride: 1,
            downsample: false,
            mode: ConvMode::TwoD,
            muls: vec![m.clone(); window * window],
        }
    }

    /// Number of multiplication sites of this architecture.
    pub(crate) fn taps(&self) -> usize {
        match self.mode {
            ConvMode::TwoD => self.window * self.window,
            ConvMode::Separable => 2 * self.window,
        }
    }

    /// Checks internal consistency.
    ///
    /// # Errors
    ///
    /// Returns [`AccelError::BadSpec`] when a field is out of domain or
    /// the multiplier list length does not match the tap count of the
    /// window and mode.
    pub fn validate(&self) -> Result<()> {
        if self.window.is_multiple_of(2) || self.window == 0 || self.window > 9 {
            return Err(AccelError::BadSpec {
                reason: format!("window {} must be odd and at most 9", self.window),
            });
        }
        if !(1..=4).contains(&self.stride) {
            return Err(AccelError::BadSpec {
                reason: format!("stride {} out of 1..=4", self.stride),
            });
        }
        if self.image_size < self.window {
            return Err(AccelError::BadSpec {
                reason: format!(
                    "image size {} smaller than window {}",
                    self.image_size, self.window
                ),
            });
        }
        if self.muls.len() != self.taps() {
            return Err(AccelError::BadSpec {
                reason: format!(
                    "{} multipliers supplied for {} taps",
                    self.muls.len(),
                    self.taps()
                ),
            });
        }
        Ok(())
    }

    /// Stable content digest of everything that determines the generated
    /// datapath: the architectural fields plus every tap's behavioural
    /// digest, in tap order. Two specs with equal digests build
    /// identical datapath netlists, which is what makes the digest a
    /// sound memoization key for `build_datapath_cached`.
    pub(crate) fn content_digest(&self) -> u64 {
        use clapped_axops::Mul8s;
        let mode = match self.mode {
            ConvMode::TwoD => "2d",
            ConvMode::Separable => "separable",
        };
        let taps: Vec<u64> = self
            .muls
            .iter()
            // AxMul always carries a behaviour digest; 0 is an inert
            // placeholder that keeps the field total.
            .map(|m| m.behaviour_digest().unwrap_or(0))
            .collect();
        clapped_exec::StructDigest::new("accel::AcceleratorSpec")
            .field("image_size", &self.image_size)
            .field("window", &self.window)
            .field("stride", &self.stride)
            .field("downsample", &self.downsample)
            .field("mode", &mode)
            .field("taps", &taps)
            .finish()
    }

    /// Line-buffer storage in bits: the sliding window needs `window − 1`
    /// full image lines of 8-bit pixels (both separable passes share this
    /// requirement through the vertical pass).
    pub fn line_buffer_bits(&self) -> usize {
        (self.window - 1) * self.image_size * 8
    }

    /// Window/shift register bits.
    pub(crate) fn register_bits(&self) -> usize {
        match self.mode {
            ConvMode::TwoD => self.window * self.window * 8,
            ConvMode::Separable => 2 * self.window * 8,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::Catalog;

    #[test]
    fn validation_catches_mistakes() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let good = AcceleratorSpec::uniform_2d(32, 3, &m);
        assert!(good.validate().is_ok());

        let mut bad = good.clone();
        bad.window = 4;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.stride = 0;
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.muls.pop();
        assert!(bad.validate().is_err());

        let mut bad = good.clone();
        bad.image_size = 2;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn tap_counts_by_mode() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let mut spec = AcceleratorSpec::uniform_2d(32, 3, &m);
        assert_eq!(spec.taps(), 9);
        spec.mode = ConvMode::Separable;
        spec.muls = vec![m.clone(); 6];
        assert_eq!(spec.taps(), 6);
        assert!(spec.validate().is_ok());
    }

    #[test]
    fn memory_scaling() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let small = AcceleratorSpec::uniform_2d(32, 3, &m);
        let large = AcceleratorSpec::uniform_2d(128, 3, &m);
        assert!(large.line_buffer_bits() > small.line_buffer_bits());
        assert_eq!(small.register_bits(), 9 * 8);
    }
}
