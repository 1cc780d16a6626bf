//! Error analysis of approximate arithmetic operators.
//!
//! Implements Section II of the CLAppED paper:
//!
//! - classic statistical error metrics over the exhaustive input space
//!   ([`ErrorStats`]),
//! - distribution fitting of operator error with Kolmogorov–Smirnov
//!   ranking ([`dist`]),
//! - the *curve fitting* baseline: Levenberg–Marquardt fits of
//!   distribution-shaped surfaces to operator outputs ([`curvefit`]),
//! - the paper's novel **polynomial-regression characterization**
//!   ([`PrModel`]): per-operator monomial coefficients with significance
//!   ranking, clipping (`Clipped_k`) and subset retraining (`C_k`).
//!
//! # Examples
//!
//! ```
//! use clapped_axops::{AxMul, MulArch};
//! use clapped_errmodel::PrModel;
//!
//! let m = AxMul::new("m", MulArch::Truncated { k: 3 });
//! let pr = PrModel::fit(&m, 3);
//! assert!(pr.r2() > 0.999); // degree-3 PR models multiplier surfaces well
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod curvefit;
pub mod dist;
mod metrics;
mod poly;

pub use metrics::{error_samples, ErrorStats};
pub use poly::{canonical_terms, rank_terms, PrModel};

use std::error::Error;
use std::fmt;

/// Error type for model fitting.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FitError {
    /// The underlying linear solve failed (singular / indefinite system).
    Numeric(String),
    /// Not enough samples for the requested model complexity.
    TooFewSamples {
        /// Samples provided.
        got: usize,
        /// Samples required.
        need: usize,
    },
    /// A requested term cannot enter a PR fit: a monomial outside
    /// `canonical_terms(degree)` or a repeated one, or a retraining
    /// ranking entry that is not an index into the model's terms.
    BadTerm {
        /// The offending monomial `(i, j)` of `x^i·y^j`, or ranking entry.
        term: String,
        /// Degree of the model being fitted.
        degree: usize,
        /// Why the term was rejected.
        reason: String,
    },
}

impl fmt::Display for FitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FitError::Numeric(msg) => write!(f, "numeric failure during fit: {msg}"),
            FitError::TooFewSamples { got, need } => {
                write!(f, "too few samples: got {got}, need at least {need}")
            }
            FitError::BadTerm { term, degree, reason } => {
                write!(f, "term {term} of a degree-{degree} PR model: {reason}")
            }
        }
    }
}

impl Error for FitError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, FitError>;
