//! Design-space exploration machinery for cross-layer approximation.
//!
//! Implements Section IV of the CLAppED paper:
//!
//! - the cross-layer configuration space ([`DesignSpace`],
//!   [`Configuration`]),
//! - Pareto dominance and front extraction ([`pareto_front`]),
//! - hypervolume (exact sweeps up to 3D, WFG above; [`hypervolume`]),
//! - a Gaussian-process surrogate ([`Gp`]),
//! - **multi-objective Bayesian optimization** ([`mbo`], stepped and
//!   checkpointed through [`MboState`]) whose acquisition function ranks
//!   random candidate configurations by predicted exclusive hypervolume
//!   contribution,
//! - baselines: random search ([`random_search`]), a light NSGA-II
//!   ([`nsga2`]) and weighted-sum simulated annealing
//!   ([`simulated_annealing`]).
//!
//! All objectives are **minimized**; negate quantities like PSNR before
//! feeding them in.
//!
//! # Examples
//!
//! ```
//! use clapped_dse::{hypervolume, pareto_front};
//!
//! let pts = vec![vec![1.0, 4.0], vec![2.0, 2.0], vec![4.0, 1.0], vec![3.0, 3.0]];
//! let front = pareto_front(&pts);
//! assert_eq!(front, vec![0, 1, 2]); // (3,3) is dominated by (2,2)
//! let hv = hypervolume(&pts, &[5.0, 5.0]);
//! assert!(hv > 0.0);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

mod checkpoint;
mod gp;
mod hv;
mod mbo;
mod pareto;
mod search;
mod space;

pub use checkpoint::CheckpointCodec;
pub use gp::Gp;
pub use hv::{hypervolume, nonfinite_warnings};
pub use mbo::{mbo, BatchOutcome, MboConfig, MboState, SearchResult};
pub use pareto::{dominates, pareto_front};
pub use search::{nsga2, random_search, simulated_annealing, NsgaConfig, SaConfig};
pub use space::{Configuration, DesignSpace};

use std::error::Error;
use std::fmt;

/// The large finite objective value a failed evaluation reads as: worse
/// than any reachable design, so the search avoids the region, and
/// finite, so fronts and hypervolumes stay well defined. [`MboState`]
/// leaves evaluations carrying it out of its surrogates' training rows.
pub const OBJECTIVE_SENTINEL: f64 = f64::MAX / 4.0;

/// Error type for DSE operations.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum DseError {
    /// Objective vectors have inconsistent dimensions or exceed the
    /// supported hypervolume dimensionality.
    BadObjectives {
        /// Description of the problem.
        reason: String,
    },
    /// The surrogate model could not be fitted.
    Surrogate(String),
    /// The MBO plan, `initial_samples + iterations × batch` evaluations,
    /// does not fit in `usize`.
    BadPlan {
        /// Description of the problem.
        reason: String,
    },
    /// A checkpoint could not be parsed or is inconsistent.
    Checkpoint {
        /// Description of the problem.
        reason: String,
    },
}

impl fmt::Display for DseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DseError::BadObjectives { reason } => write!(f, "bad objectives: {reason}"),
            DseError::Surrogate(msg) => write!(f, "surrogate failure: {msg}"),
            DseError::BadPlan { reason } => write!(f, "bad MBO plan: {reason}"),
            DseError::Checkpoint { reason } => write!(f, "bad checkpoint: {reason}"),
        }
    }
}

impl Error for DseError {}

impl From<clapped_exec::json::FieldError> for DseError {
    fn from(e: clapped_exec::json::FieldError) -> DseError {
        DseError::Checkpoint { reason: e.to_string() }
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, DseError>;
