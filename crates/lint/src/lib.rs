//! Static analysis for the CLAppED workspace.
//!
//! Three analysis targets, all run as a CI gate (`clapped_lint --deny`)
//! and under `cargo test`:
//!
//! 1. **Crate layering and lint scope** ([`layering`]): the dependency
//!    DAG derived from each `Cargo.toml` must respect the layer ranking,
//!    and the workspace must stay under its source rules — every
//!    manifest inherits `[workspace.lints]`, and every library root and
//!    scoped module carries the `#![warn(...)]` header its entry in the
//!    scope table asks for. The source rules themselves (no hash-ordered
//!    iteration near digests, no wall-clock outside `clapped-obs`, no
//!    entropy-seeded RNGs, no panicking shortcuts in library code) are
//!    clippy lints, configured by the root `clippy.toml` and
//!    `[workspace.lints.clippy]` table and enforced by
//!    `cargo clippy --workspace --all-targets -- -D warnings`.
//! 2. **Netlist structural lints** ([`netlists`], re-exported from
//!    `clapped_netlist::lint`): every catalog operator's gate netlist is
//!    checked for dangling fanins, combinational cycles, multiply-bound
//!    ports, dead logic and const-tied outputs — raw *and* after
//!    `opt::optimize`, where surviving dead gates escalate to errors.
//! 3. **Error-bound soundness gate** ([`errbounds`]): every catalog
//!    operator's statically *proved* error bounds
//!    (`clapped_netlist::errbound`) are cross-checked against its
//!    exhaustive behavioural table — a proved worst-case error below an
//!    observed error, or an exact-tier count disagreeing with the
//!    table, fails the gate.

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub mod errbounds;
pub mod layering;
pub mod netlists;

pub use clapped_netlist::{live_cone, StructFinding, StructReport, StructSeverity};

use std::fmt;

/// One manifest-level finding. All are deny-worthy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Rule identifier (`layering` or `lint-scope`).
    pub rule: &'static str,
    /// Workspace-relative path of the offending file, `/`-separated.
    pub path: String,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: [{}] {}", self.path, self.rule, self.message)
    }
}
