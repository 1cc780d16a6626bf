//! # CLAppED — Cross-Layer Approximation for FPGA-based Embedded Systems
//!
//! A Rust reproduction of the CLAppED design framework (DAC 2021). The
//! framework enables design-space exploration across cross-layer
//! approximation degrees of freedom — input scaling, convolution stride and
//! mode, downsampling, and per-operation approximate multipliers — together
//! with a polynomial-regression based characterization of approximate
//! arithmetic operators and ML-based estimation of application quality and
//! accelerator performance.
//!
//! This facade crate re-exports the workspace crates under stable module
//! names:
//!
//! - [`la`] — dense linear algebra (QR, Cholesky, standardization).
//! - [`netlist`] — gate-level netlists, LUT mapping, timing and power (the
//!   "synthesis" substrate standing in for Vivado).
//! - [`axops`] — the approximate operator library (behavioural + netlist).
//! - [`errmodel`] — error metrics, distribution/curve fitting, polynomial
//!   regression models.
//! - [`mlp`] — from-scratch multi-layer perceptron and quality metrics.
//! - [`imgproc`] — images, synthetic data, DoF-aware convolution engine.
//! - [`accel`] — accelerator architectures and performance estimation.
//! - [`dse`] — Pareto tools, hypervolume, MBO and baseline searches.
//! - [`runtime`] — SLA-keeping stream supervisor: degradation ladder,
//!   online quality monitor, fault watchdog, checkpointable controller.
//! - [`exec`] — deterministic parallel evaluation engine with
//!   content-addressed result caching.
//! - [`obs`] — structured tracing and metrics (spans, counters, JSONL
//!   trace sink; enabled with `--trace` in the examples).
//! - [`lint`] — static analysis: crate layering and lint-scope checks,
//!   netlist structural lints and the error-bound soundness gate (the
//!   `clapped_lint` CI gate; the source rules are clippy lints).
//! - [`core`] — the CLAppED framework façade wiring all stages together.
//! - [`serve`] — DSE-as-a-service: a multi-tenant daemon with a fair job
//!   queue, sharded workers, and crash-safe checkpointed sessions.
//!
//! # Quick start
//!
//! ```
//! use clapped::axops::Catalog;
//!
//! let catalog = Catalog::standard();
//! assert!(catalog.len() >= 8);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]

pub use clapped_accel as accel;
pub use clapped_axops as axops;
pub use clapped_core as core;
pub use clapped_dse as dse;
pub use clapped_errmodel as errmodel;
pub use clapped_exec as exec;
pub use clapped_imgproc as imgproc;
pub use clapped_la as la;
pub use clapped_lint as lint;
pub use clapped_mlp as mlp;
pub use clapped_netlist as netlist;
pub use clapped_obs as obs;
pub use clapped_runtime as runtime;
pub use clapped_serve as serve;
