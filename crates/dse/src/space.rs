//! The cross-layer configuration space.

use clapped_imgproc::{ConvConfig, ConvMode};
use rand::seq::SliceRandom;
use rand::Rng;

/// Domains of every cross-layer DoF (paper Fig. 2): DATA scaling,
/// SOFTWARE window/mode/stride/downsampling, HARDWARE per-tap multiplier
/// selection from a catalog of `catalog_size` operators.
///
/// # Examples
///
/// ```
/// use clapped_dse::DesignSpace;
/// use rand::SeedableRng;
///
/// let space = DesignSpace::paper_default(18);
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let c = space.sample(&mut rng);
/// assert!(space.contains(&c));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DesignSpace {
    /// Allowed window sizes (odd).
    pub windows: Vec<usize>,
    /// Allowed stride lengths.
    pub strides: Vec<usize>,
    /// Allowed downsampling settings.
    pub downsample: Vec<bool>,
    /// Allowed convolution modes.
    pub modes: Vec<ConvMode>,
    /// Allowed DATA scaling factors.
    pub scales: Vec<usize>,
    /// Number of multiplier choices in the operator catalog.
    pub catalog_size: usize,
}

impl DesignSpace {
    /// The space the paper explores: 3×3 window, strides {1, 2},
    /// optional downsampling, 2D or separable mode, scaling {1, 2, 3},
    /// free multiplier choice per tap.
    ///
    /// # Panics
    ///
    /// Panics if `catalog_size` is zero.
    pub fn paper_default(catalog_size: usize) -> DesignSpace {
        assert!(catalog_size > 0, "catalog must be non-empty");
        DesignSpace {
            windows: vec![3],
            strides: vec![1, 2],
            downsample: vec![false, true],
            modes: vec![ConvMode::TwoD, ConvMode::Separable],
            scales: vec![1, 2, 3],
            catalog_size,
        }
    }

    /// Draws a uniformly random configuration.
    ///
    /// # Panics
    ///
    /// Panics if any domain list is empty.
    pub fn sample(&self, rng: &mut impl Rng) -> Configuration {
        let window = *self.windows.choose(rng).expect("non-empty windows");
        Configuration {
            window,
            stride: *self.strides.choose(rng).expect("non-empty strides"),
            downsample: *self.downsample.choose(rng).expect("non-empty downsample"),
            mode: *self.modes.choose(rng).expect("non-empty modes"),
            scale: *self.scales.choose(rng).expect("non-empty scales"),
            mul_indices: (0..window * window)
                .map(|_| rng.gen_range(0..self.catalog_size))
                .collect(),
        }
    }

    /// Checks whether a configuration lies inside this space.
    pub fn contains(&self, c: &Configuration) -> bool {
        self.windows.contains(&c.window)
            && self.strides.contains(&c.stride)
            && self.downsample.contains(&c.downsample)
            && self.modes.contains(&c.mode)
            && self.scales.contains(&c.scale)
            && c.mul_indices.len() == c.window * c.window
            && c.mul_indices.iter().all(|&i| i < self.catalog_size)
    }

    /// Uniform crossover of two configurations (for the NSGA-II
    /// baseline): each gene is taken from either parent.
    ///
    /// # Panics
    ///
    /// Panics if the parents have different window sizes.
    pub fn crossover(
        &self,
        a: &Configuration,
        b: &Configuration,
        rng: &mut impl Rng,
    ) -> Configuration {
        assert_eq!(a.window, b.window, "crossover requires matching windows");
        let pick = |rng: &mut dyn rand::RngCore| rng.gen_ratio(1, 2);
        Configuration {
            window: a.window,
            stride: if pick(rng) { a.stride } else { b.stride },
            downsample: if pick(rng) { a.downsample } else { b.downsample },
            mode: if pick(rng) { a.mode } else { b.mode },
            scale: if pick(rng) { a.scale } else { b.scale },
            mul_indices: a
                .mul_indices
                .iter()
                .zip(&b.mul_indices)
                .map(|(&x, &y)| if pick(rng) { x } else { y })
                .collect(),
        }
    }

    /// Mutates one randomly chosen gene in place.
    pub fn mutate(&self, c: &mut Configuration, rng: &mut impl Rng) {
        match rng.gen_range(0..5) {
            0 => c.stride = *self.strides.choose(rng).expect("non-empty"),
            1 => c.downsample = *self.downsample.choose(rng).expect("non-empty"),
            2 => c.mode = *self.modes.choose(rng).expect("non-empty"),
            3 => c.scale = *self.scales.choose(rng).expect("non-empty"),
            _ => {
                let slot = rng.gen_range(0..c.mul_indices.len());
                c.mul_indices[slot] = rng.gen_range(0..self.catalog_size);
            }
        }
    }
}

/// One cross-layer design point.
///
/// `mul_indices` always holds `window²` catalog indices; separable-mode
/// executions consume the first `2·window` of them.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// Window size.
    pub window: usize,
    /// Stride length.
    pub stride: usize,
    /// Downsampling flag.
    pub downsample: bool,
    /// Convolution mode.
    pub mode: ConvMode,
    /// DATA scaling factor.
    pub scale: usize,
    /// Per-tap multiplier catalog indices (`window²` entries).
    pub mul_indices: Vec<usize>,
}

impl Configuration {
    /// The golden reference configuration: stride 1, no downsampling,
    /// 2D mode, no scaling, operator 0 (by convention the exact
    /// multiplier) everywhere.
    pub fn golden(window: usize) -> Configuration {
        Configuration {
            window,
            stride: 1,
            downsample: false,
            mode: ConvMode::TwoD,
            scale: 1,
            mul_indices: vec![0; window * window],
        }
    }

    /// The equivalent convolution-engine configuration.
    pub fn conv_config(&self) -> ConvConfig {
        ConvConfig {
            window: self.window,
            stride: self.stride,
            downsample: self.downsample,
            mode: self.mode,
            scale: self.scale,
        }
    }

    /// Multiplier indices actually consumed by this configuration's
    /// mode (`window²` for 2D, `2·window` for separable). A configuration
    /// with fewer indices than that yields all of them.
    pub fn active_mul_indices(&self) -> &[usize] {
        match self.mode {
            ConvMode::TwoD => &self.mul_indices,
            ConvMode::Separable => {
                let taps = self.window.saturating_mul(2).min(self.mul_indices.len());
                &self.mul_indices[..taps]
            }
        }
    }

    /// Scalar (non-multiplier) DoFs as features:
    /// `[stride, downsample, mode, scale]`.
    pub fn dof_features(&self) -> Vec<f64> {
        vec![
            self.stride as f64,
            f64::from(u8::from(self.downsample)),
            match self.mode {
                ConvMode::TwoD => 0.0,
                ConvMode::Separable => 1.0,
            },
            self.scale as f64,
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn samples_are_in_space_and_diverse() {
        let space = DesignSpace::paper_default(10);
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let configs: Vec<Configuration> = (0..64).map(|_| space.sample(&mut rng)).collect();
        assert!(configs.iter().all(|c| space.contains(c)));
        let strides: std::collections::HashSet<usize> =
            configs.iter().map(|c| c.stride).collect();
        assert!(strides.len() > 1, "sampling should hit several strides");
    }

    #[test]
    fn golden_is_exact_everything() {
        let g = Configuration::golden(3);
        assert_eq!(g.stride, 1);
        assert!(!g.downsample);
        assert_eq!(g.scale, 1);
        assert!(g.mul_indices.iter().all(|&i| i == 0));
        assert_eq!(g.conv_config().taps(), 9);
    }

    #[test]
    fn active_indices_depend_on_mode() {
        let mut c = Configuration::golden(3);
        assert_eq!(c.active_mul_indices().len(), 9);
        c.mode = ConvMode::Separable;
        assert_eq!(c.active_mul_indices().len(), 6);
        // Too few indices for the window: all of them, never a panic.
        c.mul_indices.truncate(2);
        assert_eq!(c.active_mul_indices(), &[0, 0]);
    }

    #[test]
    fn crossover_and_mutation_stay_in_space() {
        let space = DesignSpace::paper_default(6);
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let a = space.sample(&mut rng);
        let b = space.sample(&mut rng);
        for _ in 0..32 {
            let mut child = space.crossover(&a, &b, &mut rng);
            space.mutate(&mut child, &mut rng);
            assert!(space.contains(&child));
        }
    }

    #[test]
    fn dof_features_shape() {
        let c = Configuration::golden(3);
        let f = c.dof_features();
        assert_eq!(f, vec![1.0, 0.0, 0.0, 1.0]);
    }
}
