//! Dense linear algebra primitives for the CLAppED workspace.
//!
//! This crate provides the small set of numerical building blocks that the
//! rest of the framework needs — dense matrices, Householder QR least
//! squares, Cholesky factorization, and feature standardization — without
//! pulling in an external linear-algebra dependency.
//!
//! # Examples
//!
//! ```
//! use clapped_la::Mat;
//!
//! // Solve the least-squares problem min ||Ax - b||.
//! let a = Mat::from_rows(&[&[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]);
//! let b = [6.0, 9.0, 12.0];
//! let x = a.lstsq(&b).unwrap();
//! assert!((x[0] - 3.0).abs() < 1e-9);
//! assert!((x[1] - 3.0).abs() < 1e-9);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![expect(clippy::needless_range_loop, reason = "index loops over coupled arrays read clearest")]

mod cholesky;
mod mat;
mod qr;
mod stats;

pub use cholesky::Cholesky;
pub use mat::Mat;
pub use qr::Qr;
pub use stats::{mean, population_std, Standardizer};

use std::error::Error;
use std::fmt;

/// Error type for linear-algebra operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LaError {
    /// Matrix dimensions are incompatible with the requested operation.
    DimensionMismatch {
        /// Human-readable description of the expected shape.
        expected: String,
        /// Human-readable description of the shape that was provided.
        found: String,
    },
    /// The matrix is singular (or numerically so) and cannot be factored
    /// or solved against.
    Singular,
    /// The matrix is not positive definite (Cholesky only).
    NotPositiveDefinite,
}

impl fmt::Display for LaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LaError::DimensionMismatch { expected, found } => {
                write!(f, "dimension mismatch: expected {expected}, found {found}")
            }
            LaError::Singular => write!(f, "matrix is singular to working precision"),
            LaError::NotPositiveDefinite => write!(f, "matrix is not positive definite"),
        }
    }
}

impl Error for LaError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, LaError>;
