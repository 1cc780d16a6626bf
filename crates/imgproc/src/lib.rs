//! Image processing substrate: grayscale images, synthetic generators,
//! Gaussian noise, PSNR, quantized Gaussian kernels and the cross-layer
//! DoF-aware approximate convolution engine.
//!
//! This crate implements the paper's test application — Gaussian image
//! smoothing for noise removal — with every cross-layer degree of freedom
//! the CLAppED framework explores:
//!
//! - **DATA**: input scaling ([`ConvConfig::scale`]),
//! - **SOFTWARE**: window size, convolution mode (2D vs separable
//!   1DH→1DV), stride length, downsampling,
//! - **HARDWARE**: a per-tap assignment of approximate multipliers.
//!
//! # Quantization convention
//!
//! Pixels are 8-bit (`0..=255`). Before convolution they are quantized to
//! `0..=127` (a right shift) so they are valid *signed* 8-bit operands for
//! the `clapped-axops` multipliers; kernel weights are quantized to `i8`
//! with a power-of-two scale that is folded back into the output
//! normalization. Outputs are rescaled to `0..=255`.
//!
//! # Examples
//!
//! ```
//! use clapped_axops::Catalog;
//! use clapped_imgproc::{ConvConfig, ConvEngine, Image, QuantKernel};
//!
//! let catalog = Catalog::standard();
//! let image = Image::synthetic(clapped_imgproc::SynthKind::Gradient, 32, 32, 0);
//! let kernel = QuantKernel::gaussian(3, 0.85);
//! let engine = ConvEngine::new(kernel);
//! let exact = catalog.get("mul8s_exact").unwrap();
//! let muls: Vec<_> = (0..9).map(|_| exact.clone() as std::sync::Arc<dyn clapped_axops::Mul8s>).collect();
//! let out = engine.convolve(&image, &ConvConfig::default(), &muls).unwrap();
//! assert_eq!(out.width(), 32);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod apps;
mod conv;
mod image;
mod kernel;
mod pgm;
mod plan;
mod raw;
mod sobel;
mod synth;

pub use apps::{AppResult, GaussianDenoise};
pub use conv::{ConvConfig, ConvEngine, ConvMode};
pub use image::{app_error_percent, psnr, Image};
pub use kernel::QuantKernel;
pub use plan::plan_cache_stats;
pub use raw::RawBuf;
pub use sobel::SobelEdge;
pub use synth::SynthKind;

use std::error::Error;
use std::fmt;

/// Error type for convolution configuration problems.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConvError {
    /// The multiplier assignment length does not match the configuration.
    BadAssignment {
        /// Taps required by the configuration.
        expected: usize,
        /// Multipliers supplied.
        found: usize,
    },
    /// A configuration field is out of its valid domain.
    BadConfig {
        /// Description of the invalid field.
        reason: String,
    },
}

impl fmt::Display for ConvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConvError::BadAssignment { expected, found } => {
                write!(f, "expected {expected} tap multipliers, found {found}")
            }
            ConvError::BadConfig { reason } => write!(f, "invalid configuration: {reason}"),
        }
    }
}

impl Error for ConvError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, ConvError>;
