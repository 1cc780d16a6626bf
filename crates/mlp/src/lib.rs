//! From-scratch multi-layer perceptron (MLP) regression plus the quality
//! metrics CLAppED reports (MAE and *fidelity*).
//!
//! The paper trains MLPs to predict (a) an application's output quality
//! from a cross-layer configuration (Section II-B) and (b) accelerator
//! performance metrics from design features (Section III). This crate
//! provides the network, a deterministic Adam trainer with validation
//! split and early stopping, and a feature-standardizing [`Regressor`]
//! wrapper.
//!
//! # Examples
//!
//! ```
//! use clapped_mlp::{Regressor, TrainConfig};
//!
//! // Learn y = x0 + 2*x1 from a small grid.
//! let xs: Vec<Vec<f64>> = (0..64)
//!     .map(|i| vec![f64::from(i % 8), f64::from(i / 8)])
//!     .collect();
//! let ys: Vec<f64> = xs.iter().map(|x| x[0] + 2.0 * x[1]).collect();
//! let config = TrainConfig { epochs: 400, ..TrainConfig::default() };
//! let model = Regressor::fit(&xs, &ys, &[16], &config).unwrap();
//! let pred = model.predict(&[3.0, 4.0]);
//! assert!((pred - 11.0).abs() < 1.0);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![expect(clippy::needless_range_loop, reason = "index loops over coupled arrays read clearest")]

mod metrics;
mod net;
mod train;

pub use metrics::{fidelity, mae, r2_score, rmse};
pub use net::Mlp;
pub use train::{Regressor, TrainConfig};

use std::error::Error;
use std::fmt;

/// Error type for MLP training.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MlpError {
    /// The dataset is empty or features/targets disagree in length.
    BadDataset {
        /// Description of the inconsistency.
        reason: String,
    },
}

impl fmt::Display for MlpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MlpError::BadDataset { reason } => write!(f, "bad dataset: {reason}"),
        }
    }
}

impl Error for MlpError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, MlpError>;
