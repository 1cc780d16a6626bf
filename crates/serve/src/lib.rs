//! DSE-as-a-service: the CLAppED serving layer.
//!
//! `clapped-serve` turns the framework's one-shot exploration into a
//! long-running daemon. Tenants submit DSE jobs — an application, a
//! quality constraint, an evaluation budget and an optional deadline —
//! over a std-only line-delimited JSON protocol (TCP or a Unix domain
//! socket). Jobs flow through a fair per-tenant round-robin queue onto
//! sharded worker threads, each stepping one MBO phase per scheduling
//! quantum through [`clapped_core::Session`]; every phase boundary
//! persists an [`clapped_dse::MboState`] checkpoint atomically, so a
//! `kill -9` mid-campaign loses at most the phase in flight and the
//! restarted daemon resumes every job **bit-exactly**. Frameworks are
//! pooled by [`clapped_core::ClappedConfig::digest`] — jobs with the
//! same recipe share one instance, its in-memory cache and its lazily
//! characterized operator library — and the on-disk
//! [`clapped_exec::ResultCache`] tier doubles as the cross-process
//! coordination substrate: N daemons pointed at one cache directory
//! share warm results without recomputation.
//!
//! The module map mirrors the request path:
//!
//! * `protocol` — wire grammar: [`Request`]s, [`Reply`]s,
//!   [`ErrorCode`]s.
//! * `queue` — the fair multi-tenant scheduler: one FIFO lane per
//!   tenant, served round-robin.
//! * `jobstore` — crash-safe job records and checkpoints, each written
//!   to a temp file and published by an atomic rename.
//! * `server` — listener, connection handling, worker shards:
//!   [`Server`].
//! * `client` — a small blocking [`Client`] for tools and tests.

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(clippy::expect_used)]

mod client;
mod jobstore;
mod protocol;
mod queue;
mod server;

pub use client::Client;
pub use protocol::{
    ErrorCode, JobSpec, JobState, JobStatus, ParetoEntry, Reply, Request, ServerStats,
    MAX_PHASE_SIZE,
};
pub use server::{Listen, Server, ServerConfig};

use std::error::Error;
use std::fmt;

/// Error type for the serving layer.
#[derive(Debug)]
#[non_exhaustive]
pub enum ServeError {
    /// A socket or state-directory I/O failure.
    Io(std::io::Error),
    /// A message violated the wire grammar (local decode failure).
    Protocol {
        /// The structured error code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// The server answered with a structured error reply.
    Remote {
        /// The structured error code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
    /// A framework or session operation failed.
    Core(clapped_core::ClappedError),
    /// The persisted job state is unusable (corrupt record, bad
    /// checkpoint) or a liveness bound was exceeded.
    State(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Io(e) => write!(f, "i/o: {e}"),
            ServeError::Protocol { code, detail } => {
                write!(f, "protocol ({}): {detail}", code.as_str())
            }
            ServeError::Remote { code, detail } => {
                write!(f, "server error ({}): {detail}", code.as_str())
            }
            ServeError::Core(e) => write!(f, "framework: {e}"),
            ServeError::State(reason) => write!(f, "state: {reason}"),
        }
    }
}

impl Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e)
    }
}

/// A structurally invalid message: a missing or mistyped field is a
/// `malformed` request or reply.
impl From<clapped_exec::json::FieldError> for ServeError {
    fn from(e: clapped_exec::json::FieldError) -> Self {
        ServeError::Protocol { code: ErrorCode::Malformed, detail: e.to_string() }
    }
}

impl From<clapped_core::ClappedError> for ServeError {
    fn from(e: clapped_core::ClappedError) -> Self {
        ServeError::Core(e)
    }
}

/// Convenient result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
