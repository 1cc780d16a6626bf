//! Parallel evaluation engine with content-addressed result caching.
//!
//! CLAppED's exploration loops are embarrassingly parallel: every
//! candidate configuration's quality / hardware evaluation is an
//! independent pure function, and the same operator tables and design
//! points are recomputed over and over across a run. This crate is the
//! execution substrate the rest of the workspace stands on:
//!
//! - [`Engine`] — a std-only scoped-thread evaluation pool with a
//!   batched [`Engine::evaluate_many`] API, plus [`job_seed`] for
//!   deterministic per-job seeds. Results are returned in input order,
//!   so outcomes are **bit-identical at any thread count**.
//! - [`digest`] — a stable FNV-1a based content-digest toolkit
//!   ([`Fnv64`], [`Digestible`], [`StructDigest`]) whose struct digests
//!   are insensitive to field feeding order, plus the
//!   [`CODE_VERSION_SALT`] that invalidates persisted results when
//!   evaluation semantics change.
//! - [`ResultCache`] — a two-tier content-addressed result cache: an
//!   in-memory LRU backed by an optional on-disk JSON store (by
//!   convention under `results/cache/`), with hit/miss/eviction
//!   counters.
//! - [`Memo`] — an unbounded concurrent memo table with hit/miss
//!   counters, used for compute-once-per-process artifacts such as
//!   operator behavioural tables.
//! - [`json`] — the one JSON field codec every checkpoint, job record
//!   and wire line is decoded through: typed required/optional field
//!   readers, one [`json::FieldError`], and the version check.
//!
//! Everything here is dependency-free std Rust (the disk tier uses the
//! vendored `serde_json`); determinism is a hard design requirement, not
//! a best-effort property.

mod cache;
pub mod digest;
pub mod json;
mod memo;
mod pool;

pub use cache::{CacheCodec, CacheStats, ResultCache};
pub use digest::{digest_of, Digestible, Fnv64, StructDigest, CODE_VERSION_SALT};
pub use memo::{Memo, MemoStats};
pub use pool::{job_seed, Engine, ExecConfig};
