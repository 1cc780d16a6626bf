//! FPGA accelerator architectures and performance estimation.
//!
//! Implements Section III of the CLAppED paper: line-buffer-based
//! sliding-window convolution accelerators whose datapaths are generated
//! as gate-level netlists (the per-tap approximate multipliers are
//! instantiated structurally) and characterized through the
//! `clapped-netlist` synthesis flow — the project's stand-in for the
//! paper's 15-minute Vivado runs.
//!
//! Two estimation paths are provided, mirroring the paper:
//!
//! 1. [`characterize`] — **true** characterization: full datapath
//!    synthesis (slow, accurate),
//! 2. ML-based prediction: [`features`] extracts the Table-I feature
//!    vectors consumed by `clapped-mlp` regressors.
//!
//! # Examples
//!
//! ```
//! use clapped_accel::{characterize, AcceleratorSpec, CharacterizeConfig};
//! use clapped_axops::Catalog;
//!
//! let catalog = Catalog::standard();
//! let spec = AcceleratorSpec::uniform_2d(32, 3, &catalog.get("mul8s_tr4").unwrap());
//! let report = characterize(&spec, &CharacterizeConfig::default()).unwrap();
//! assert!(report.luts > 0);
//! assert!(report.latency_cycles > 32 * 32);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(clippy::expect_used)]

mod datapath;
mod features;
mod perf;
mod spec;
mod streamsim;

pub use datapath::{build_datapath, datapath_cache_stats};
pub use features::{features, table1_rows, FeatureMode, MulProps, OpLibrary, PerfMetric};
pub use perf::{characterize, compute_duty_factor, latency_cycles, AccelReport, CharacterizeConfig};
pub use spec::AcceleratorSpec;
pub use streamsim::{simulate_stream, simulate_stream_ref};

use std::error::Error;
use std::fmt;

/// Error type for accelerator characterization.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum AccelError {
    /// The specification is internally inconsistent.
    BadSpec {
        /// Description of the problem.
        reason: String,
    },
    /// Synthesis of the datapath failed.
    Synth(String),
    /// Gate-level simulation of the datapath failed.
    Sim(String),
}

impl fmt::Display for AccelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccelError::BadSpec { reason } => write!(f, "invalid accelerator spec: {reason}"),
            AccelError::Synth(msg) => write!(f, "datapath synthesis failed: {msg}"),
            AccelError::Sim(msg) => write!(f, "datapath simulation failed: {msg}"),
        }
    }
}

impl Error for AccelError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, AccelError>;
