//! Runtime-adaptive approximation under a quality SLA.
//!
//! Everything up to this crate picks an approximation configuration
//! **once, offline**. `clapped-runtime` closes the loop at *serving*
//! time: a [`StreamSupervisor`] pushes a stream of frames through the
//! compiled-plan convolution pipeline and keeps a per-stream SLA —
//! minimum output quality, maximum per-frame latency proxy — under
//! nonstationary traffic and mid-stream hardware faults, the scenario
//! of Vakili et al.'s runtime-switched approximate multipliers
//! (arXiv 2310.10053).
//!
//! The moving parts:
//!
//! - [`SlaSpec`] — the contract: a per-frame error ceiling (% mean
//!   absolute deviation from the exact pipeline) and a frame-time
//!   ceiling (µs, from the accelerator latency model).
//! - [`DegradationLadder`] — the SLA-ordered sequence of operator
//!   configurations the controller moves along. Each rung deploys one
//!   catalog multiplier uniformly across the taps; stepping a rung is a
//!   memoized LUT-plan swap (`clapped-imgproc`), not a recompile.
//! - [`QualityMonitor`] — estimates per-frame error from a subsampled
//!   reference evaluation (exact single-pixel reconvolution at a few
//!   deterministic positions), widened into a confidence interval using
//!   the deployed operator's `clapped-errmodel` statistics.
//! - [`FaultWatchdog`] — probes the deployed taps against the healthy
//!   operator's exhaustive behavioural table on inputs the current
//!   frame actually exercised; a mismatch quarantines the rung and the
//!   supervisor self-heals onto the nearest healthy rung.
//! - [`StreamSupervisor`] — the controller: asymmetric hysteresis
//!   (quality-first step-up, damped step-down) with exponential backoff
//!   on reconfiguration so it never flaps, checkpointable to versioned
//!   JSON so a killed stream resumes bit-exactly.
//!
//! # Determinism
//!
//! Every per-frame random choice — traffic phase transitions, monitor
//! sample positions, watchdog probe sites — derives from `(stream seed,
//! frame index)` alone, never from a free-running RNG stream. The same
//! seed therefore yields an identical trajectory (rung sequence,
//! reconfiguration log, chained output digest), and a checkpoint only
//! needs the controller state, not an RNG word position.

mod ladder;
mod monitor;
mod sla;
mod supervisor;
mod traffic;
mod watchdog;

pub use ladder::{DegradationLadder, LadderConfig, LadderRung};
pub use monitor::{MonitorConfig, QualityEstimate, QualityMonitor};
pub use sla::SlaSpec;
pub use supervisor::{
    FaultPlan, FrameRecord, StreamEvent, StreamOptions, StreamReport, StreamSupervisor,
    SwapReason, CHECKPOINT_VERSION,
};
pub use traffic::{TrafficConfig, TrafficPhase};
pub use watchdog::{FaultWatchdog, WatchdogConfig, WatchdogVerdict};

use std::error::Error;
use std::fmt;

/// Errors of the runtime supervisor. The supervisor is library code
/// driving a live stream: it degrades by returning these, never by
/// panicking.
#[derive(Debug)]
#[non_exhaustive]
pub enum RuntimeError {
    /// An invalid supervisor or ladder configuration.
    BadConfig {
        /// What was wrong.
        reason: String,
    },
    /// A malformed or incompatible checkpoint.
    Checkpoint {
        /// What was wrong.
        reason: String,
    },
    /// A convolution-engine error from the frame pipeline.
    Conv(clapped_imgproc::ConvError),
    /// An accelerator characterization/simulation error.
    Accel(clapped_accel::AccelError),
    /// A netlist-level error (fault construction).
    Netlist(clapped_netlist::NetlistError),
}

impl fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RuntimeError::BadConfig { reason } => {
                write!(f, "invalid runtime configuration: {reason}")
            }
            RuntimeError::Checkpoint { reason } => write!(f, "invalid checkpoint: {reason}"),
            RuntimeError::Conv(e) => write!(f, "convolution error: {e}"),
            RuntimeError::Accel(e) => write!(f, "accelerator error: {e}"),
            RuntimeError::Netlist(e) => write!(f, "netlist error: {e}"),
        }
    }
}

impl Error for RuntimeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            RuntimeError::Conv(e) => Some(e),
            RuntimeError::Accel(e) => Some(e),
            RuntimeError::Netlist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<clapped_imgproc::ConvError> for RuntimeError {
    fn from(e: clapped_imgproc::ConvError) -> RuntimeError {
        RuntimeError::Conv(e)
    }
}

impl From<clapped_accel::AccelError> for RuntimeError {
    fn from(e: clapped_accel::AccelError) -> RuntimeError {
        RuntimeError::Accel(e)
    }
}

impl From<clapped_exec::json::FieldError> for RuntimeError {
    fn from(e: clapped_exec::json::FieldError) -> RuntimeError {
        RuntimeError::Checkpoint { reason: e.to_string() }
    }
}

impl From<clapped_netlist::NetlistError> for RuntimeError {
    fn from(e: clapped_netlist::NetlistError) -> RuntimeError {
        RuntimeError::Netlist(e)
    }
}

/// Convenience alias.
pub type Result<T> = std::result::Result<T, RuntimeError>;

/// Derives an independent 64-bit seed for one purpose (`salt`) of one
/// frame of one stream. All per-frame randomness in this crate flows
/// through here, which is what makes checkpoints RNG-free.
pub(crate) fn frame_seed(stream_seed: u64, frame: usize, salt: u64) -> u64 {
    let mut h = clapped_exec::Fnv64::new();
    h.write_u64(stream_seed);
    h.write_u64(frame as u64);
    h.write_u64(salt);
    h.finish()
}
