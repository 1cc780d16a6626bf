//! The CLAppED framework: cross-layer approximation-aware design-space
//! exploration for FPGA-based embedded systems.
//!
//! This crate wires the three stages of the paper's Fig. 2 together:
//!
//! 1. **Behavioral error analysis** — operator characterization
//!    (`clapped-errmodel`), the executable application model
//!    (`clapped-imgproc`) and MLP-based quality prediction
//!    (`clapped-mlp`) with selectable multiplier representations
//!    ([`MulRepr`]: Index / M1 / M4 / PR-coefficient `C_k`).
//! 2. **Accelerator performance estimation** — true synthesis-based
//!    characterization and ML-based prediction (`clapped-accel`).
//! 3. **DSE** — multi-objective Bayesian optimization over
//!    application-level error and hardware cost (`clapped-dse`).
//!
//! # Examples
//!
//! ```
//! use clapped_core::Clapped;
//!
//! let framework = Clapped::builder().image_size(32).build().unwrap();
//! let golden = clapped_dse::Configuration::golden(3);
//! let result = framework.evaluate_error(&golden).unwrap();
//! assert_eq!(result.error_percent, 0.0);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(clippy::expect_used)]

mod explore;
mod framework;
mod prefilter;
mod repr;
mod resilience;
mod session;

pub use explore::{explore, DofSummary, EstimationMode, ExploreOptions, ExploreResult, ParetoPoint};
pub use framework::{
    AppKind, Clapped, ClappedBuilder, ClappedConfig, ErrorDataset, MIN_IMAGE_SIZE,
};
pub use prefilter::{prefilter, PrefilterConfig, PrefilterReport};
pub use repr::MulRepr;
pub use session::{Session, SessionProgress, SessionSpec};
pub use resilience::{FaultCampaignConfig, FaultCampaignReport, FaultImpact};
// Execution-engine knobs, re-exported so framework users can configure
// parallelism and inspect caches without naming `clapped-exec` directly.
pub use clapped_exec::{CacheStats, Engine, ExecConfig};

use std::error::Error;
use std::fmt;

/// Error type for framework operations.
#[derive(Debug)]
#[non_exhaustive]
pub enum ClappedError {
    /// A configuration failed application-level evaluation.
    App(clapped_imgproc::ConvError),
    /// Accelerator characterization failed.
    Accel(clapped_accel::AccelError),
    /// Operator model fitting failed.
    Fit(clapped_errmodel::FitError),
    /// ML training failed.
    Mlp(clapped_mlp::MlpError),
    /// DSE failed.
    Dse(clapped_dse::DseError),
    /// A gate-level netlist operation (simulation, fault injection)
    /// failed.
    Netlist(clapped_netlist::NetlistError),
    /// The runtime supervisor failed (ladder construction, stream
    /// execution, or checkpoint restore).
    Runtime(clapped_runtime::RuntimeError),
    /// A configuration is outside what the framework evaluates: a tap
    /// index outside the catalog or a DATA scale outside `1..=4`; or a
    /// recipe's image is smaller than [`MIN_IMAGE_SIZE`].
    BadConfiguration {
        /// What is inconsistent.
        reason: String,
    },
    /// The framework was built without the pieces this call needs.
    Unavailable {
        /// What is missing and how to enable it.
        reason: String,
    },
}

impl fmt::Display for ClappedError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClappedError::App(e) => write!(f, "application evaluation: {e}"),
            ClappedError::Accel(e) => write!(f, "accelerator estimation: {e}"),
            ClappedError::Fit(e) => write!(f, "operator model fit: {e}"),
            ClappedError::Mlp(e) => write!(f, "ML training: {e}"),
            ClappedError::Dse(e) => write!(f, "design-space exploration: {e}"),
            ClappedError::Netlist(e) => write!(f, "netlist operation: {e}"),
            ClappedError::Runtime(e) => write!(f, "runtime supervision: {e}"),
            ClappedError::BadConfiguration { reason } => {
                write!(f, "bad configuration: {reason}")
            }
            ClappedError::Unavailable { reason } => write!(f, "unavailable: {reason}"),
        }
    }
}

impl Error for ClappedError {}

impl From<clapped_imgproc::ConvError> for ClappedError {
    fn from(e: clapped_imgproc::ConvError) -> Self {
        ClappedError::App(e)
    }
}

impl From<clapped_accel::AccelError> for ClappedError {
    fn from(e: clapped_accel::AccelError) -> Self {
        ClappedError::Accel(e)
    }
}

impl From<clapped_errmodel::FitError> for ClappedError {
    fn from(e: clapped_errmodel::FitError) -> Self {
        ClappedError::Fit(e)
    }
}

impl From<clapped_mlp::MlpError> for ClappedError {
    fn from(e: clapped_mlp::MlpError) -> Self {
        ClappedError::Mlp(e)
    }
}

impl From<clapped_dse::DseError> for ClappedError {
    fn from(e: clapped_dse::DseError) -> Self {
        ClappedError::Dse(e)
    }
}

impl From<clapped_netlist::NetlistError> for ClappedError {
    fn from(e: clapped_netlist::NetlistError) -> Self {
        ClappedError::Netlist(e)
    }
}

impl From<clapped_runtime::RuntimeError> for ClappedError {
    fn from(e: clapped_runtime::RuntimeError) -> Self {
        ClappedError::Runtime(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, ClappedError>;
