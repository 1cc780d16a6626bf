//! Gate-level netlist substrate: IR, simulation, optimization, LUT-K
//! technology mapping, timing and power estimation.
//!
//! This crate is CLAppED's stand-in for the Xilinx Vivado synthesis flow the
//! paper uses as its ground-truth accelerator characterization. It provides:
//!
//! - a combinational gate-level IR ([`Netlist`]) that is a DAG by
//!   construction,
//! - bit-parallel simulation in `W × 64`-lane blocks, through one
//!   evaluation kernel,
//! - constant folding / dead-code elimination ([`optimize`]),
//! - structural arithmetic builders ([`bus`]): ripple-carry adders,
//!   Baugh-Wooley signed multipliers, compressors, barrel shifters,
//!   leading-one detectors,
//! - a cut-based LUT-K technology mapper ([`map_luts`]),
//! - level-based timing ([`TimingModel`]) and switching-activity power
//!   estimation ([`PowerModel`]),
//! - a one-call synthesis flow ([`synthesize`]) producing a [`SynthReport`].
//!
//! # Examples
//!
//! ```
//! use clapped_netlist::{bus, Netlist, synthesize, SynthConfig};
//!
//! let mut n = Netlist::new("adder4");
//! let a = n.input_bus("a", 4);
//! let b = n.input_bus("b", 4);
//! let (sum, carry) = bus::ripple_carry_add(&mut n, &a, &b, None);
//! n.output_bus("sum", &sum);
//! n.output("cout", carry);
//! let report = synthesize(&n, &SynthConfig::default()).unwrap();
//! assert!(report.lut_count > 0);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(clippy::disallowed_types, clippy::cast_lossless)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]
#![expect(clippy::needless_range_loop, reason = "index loops over coupled arrays read clearest")]

pub mod bdd;
pub mod bus;
mod digest;
pub mod errbound;
mod fault;
mod ir;
pub mod lint;
mod map;
mod opt;
mod power;
mod sim;
mod synth;
mod timing;
pub mod verilog;

pub use errbound::{
    abstract_values, analyze as analyze_error_bounds, AbsVal, ErrBoundConfig, ErrorBounds,
    ExactError,
};
pub use fault::{CampaignReport, Fault, FaultKind, FaultSet, FaultSiteReport, CAMPAIGN_BLOCK_WORDS};
pub use ir::{Gate, Netlist, SignalId};
pub use lint::{lint_netlist, live_cone, NetlistStats, StructFinding, StructReport, StructSeverity};
pub use map::{map_luts, MapStrategy, MappedLut, MappedNetlist};
pub use opt::optimize;
pub use power::{estimate_power, PowerModel, PowerReport};
pub use sim::{pack_bus_samples, transpose8x8, unpack_bus_samples};
pub use synth::{synthesize, SynthConfig, SynthReport};
pub use timing::TimingModel;

use std::error::Error;
use std::fmt;

/// Error type for netlist operations.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum NetlistError {
    /// An input value vector did not match the number of netlist inputs.
    InputCountMismatch {
        /// Number of primary inputs in the netlist.
        expected: usize,
        /// Number of values supplied.
        found: usize,
    },
    /// The requested LUT size is outside the mapper's `2..=6`.
    LutSize {
        /// The requested LUT input count.
        k: usize,
    },
    /// The mapper could not cover a node with a K-feasible cut.
    Unmappable {
        /// The node that could not be covered.
        node: SignalId,
    },
    /// Functional verification after mapping failed.
    MappingMismatch,
    /// A mapped netlist reads a signal that no primary input, constant
    /// or earlier LUT defines.
    UndefinedSignal {
        /// The signal read.
        signal: SignalId,
        /// The root of the LUT that reads it; `None` for a primary
        /// output.
        lut: Option<SignalId>,
    },
    /// A BDD operation exceeded its node budget.
    BddLimit {
        /// The configured node limit.
        limit: usize,
    },
    /// A fault referenced a signal outside the netlist.
    InvalidFaultSite {
        /// The out-of-range signal index.
        index: usize,
        /// Number of signals in the netlist.
        signals: usize,
    },
    /// Two netlists compared by the error-bound analyzer declare
    /// different output counts.
    OutputCountMismatch {
        /// Number of outputs in the reference netlist.
        expected: usize,
        /// Number of outputs in the netlist under analysis.
        found: usize,
    },
    /// A fault campaign's stimulus is unusable: each batch word carries
    /// `1..=64` lanes, and a campaign needs at least one batch.
    InvalidStimulus {
        /// The requested meaningful lanes per batch.
        lanes_per_batch: usize,
        /// The number of input batches supplied.
        batches: usize,
    },
}

impl fmt::Display for NetlistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetlistError::InputCountMismatch { expected, found } => {
                write!(f, "expected {expected} input values, found {found}")
            }
            NetlistError::LutSize { k } => {
                write!(f, "LUT size {k} is outside the supported 2..=6")
            }
            NetlistError::Unmappable { node } => {
                write!(f, "node {node:?} has no K-feasible cut")
            }
            NetlistError::MappingMismatch => {
                write!(f, "mapped netlist is not functionally equivalent")
            }
            NetlistError::UndefinedSignal { signal, lut } => {
                let reader = match lut {
                    Some(root) => format!("the LUT rooted at {root:?}"),
                    None => "a primary output".to_string(),
                };
                write!(
                    f,
                    "{reader} reads {signal:?}, which no primary input, constant or earlier LUT defines"
                )
            }
            NetlistError::BddLimit { limit } => {
                write!(f, "BDD node budget of {limit} exhausted")
            }
            NetlistError::InvalidFaultSite { index, signals } => {
                write!(f, "fault site {index} outside netlist with {signals} signals")
            }
            NetlistError::OutputCountMismatch { expected, found } => {
                write!(f, "expected {expected} outputs, found {found}")
            }
            NetlistError::InvalidStimulus { lanes_per_batch, batches } => write!(
                f,
                "campaign stimulus of {batches} batches with {lanes_per_batch} lanes each; \
                 need at least one batch of 1..=64 lanes"
            ),
        }
    }
}

impl Error for NetlistError {}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, NetlistError>;
