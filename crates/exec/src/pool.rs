//! The scoped-thread evaluation engine.
//!
//! [`Engine::evaluate_many`] fans a batch of independent jobs over a
//! work-sharing pool of scoped threads (an atomic next-job counter, so
//! fast workers steal the remaining items) and returns the results **in
//! input order** — the caller observes bit-identical output no matter
//! how many threads ran or how the OS scheduled them. Determinism
//! therefore reduces to the job function being a pure function of its
//! inputs; a job that needs randomness derives its seed from its index
//! with [`job_seed`].

use crate::digest::mix64;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

/// Runs one job, recording its latency into the `exec.job` histogram
/// and its duration into the `exec.worker.busy_ns` counter (from which
/// worker utilization = busy_ns / (workers × batch wall time) follows).
/// While observability is disabled this is just the call. Timing goes
/// through the `clapped-obs` stopwatch facade — only `clapped-obs`
/// touches the wall clock directly.
#[inline]
fn run_job<C, O>(f: &(impl Fn(usize, &C) -> O + ?Sized), i: usize, c: &C) -> O {
    if !clapped_obs::enabled() {
        return f(i, c);
    }
    let watch = clapped_obs::Stopwatch::start();
    let out = f(i, c);
    let ns = watch.elapsed_ns();
    clapped_obs::observe("exec.job", ns);
    clapped_obs::count("exec.worker.busy_ns", ns);
    out
}

/// Configuration of an [`Engine`]. The default (`jobs: 0`) selects the
/// host's available parallelism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ExecConfig {
    /// Worker threads used per batch. `0` selects the host's available
    /// parallelism.
    pub jobs: usize,
}

impl ExecConfig {
    /// An explicit thread count (`0` = auto).
    pub fn with_jobs(jobs: usize) -> ExecConfig {
        ExecConfig { jobs }
    }

    /// Single-threaded execution (jobs run inline on the caller).
    pub fn serial() -> ExecConfig {
        ExecConfig::with_jobs(1)
    }
}

/// The deterministic seed handed to job `index` of a batch under
/// `base` — a SplitMix64 stream, so seeds are well spread even for
/// consecutive indices.
pub fn job_seed(base: u64, index: usize) -> u64 {
    mix64(base ^ mix64(index as u64 ^ 0x9e37_79b9_7f4a_7c15))
}

/// A batched parallel evaluation engine.
///
/// # Examples
///
/// ```
/// use clapped_exec::{Engine, ExecConfig};
///
/// let engine = Engine::new(ExecConfig::with_jobs(4));
/// let squares = engine.evaluate_many(&[1u64, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
#[derive(Debug)]
pub struct Engine {
    jobs: usize,
    jobs_run: AtomicU64,
    batches_run: AtomicU64,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new(ExecConfig::default())
    }
}

impl Engine {
    /// Builds an engine; `config.jobs == 0` resolves to the host's
    /// available parallelism (at least 1).
    pub fn new(config: ExecConfig) -> Engine {
        let jobs = if config.jobs == 0 {
            std::thread::available_parallelism().map(usize::from).unwrap_or(1)
        } else {
            config.jobs
        };
        Engine {
            jobs: jobs.max(1),
            jobs_run: AtomicU64::new(0),
            batches_run: AtomicU64::new(0),
        }
    }

    /// A single-threaded engine (useful as a deterministic baseline).
    pub fn serial() -> Engine {
        Engine::new(ExecConfig::serial())
    }

    /// Worker threads used per batch.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Total jobs executed over this engine's lifetime.
    pub fn jobs_executed(&self) -> u64 {
        self.jobs_run.load(Ordering::Relaxed)
    }

    /// Total batches executed over this engine's lifetime.
    pub fn batches_executed(&self) -> u64 {
        self.batches_run.load(Ordering::Relaxed)
    }

    /// Evaluates `f(index, item)` for every item, in parallel, returning
    /// results in input order. The closure must be a pure function of
    /// its arguments for the output to be thread-count independent — the
    /// engine guarantees ordering, the closure guarantees values.
    ///
    /// # Panics
    ///
    /// Propagates a panic from any job after the batch finishes
    /// unwinding (scoped-thread join semantics).
    pub fn evaluate_many<C, O, F>(&self, items: &[C], f: F) -> Vec<O>
    where
        C: Sync,
        O: Send,
        F: Fn(usize, &C) -> O + Sync,
    {
        self.batches_run.fetch_add(1, Ordering::Relaxed);
        self.jobs_run.fetch_add(items.len() as u64, Ordering::Relaxed);
        let _batch_span = clapped_obs::span("exec.batch");
        clapped_obs::observe("exec.batch.jobs", items.len() as u64);
        let workers = self.jobs.min(items.len());
        clapped_obs::gauge_set("exec.batch.workers", workers as f64);
        if workers <= 1 {
            return items.iter().enumerate().map(|(i, c)| run_job(&f, i, c)).collect();
        }
        let next = AtomicUsize::new(0);
        let collected: Mutex<Vec<(usize, O)>> = Mutex::new(Vec::with_capacity(items.len()));
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| {
                    let mut local: Vec<(usize, O)> = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, run_job(&f, i, &items[i])));
                    }
                    // Recover from poison: a worker that panicked did so
                    // inside `run_job`, never while holding this lock,
                    // so the partial result vector is intact — and the
                    // scope re-raises the panic after joining anyway.
                    collected
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .append(&mut local);
                });
            }
        });
        let mut collected =
            collected.into_inner().unwrap_or_else(PoisonError::into_inner);
        collected.sort_by_key(|&(i, _)| i);
        collected.into_iter().map(|(_, o)| o).collect()
    }

    /// Fallible batched evaluation: runs every job, then returns either
    /// all results (input order) or the error of the **lowest-indexed**
    /// failing job — so the reported error is also thread-count
    /// independent.
    ///
    /// # Errors
    ///
    /// The first (by input index) job error.
    pub fn try_evaluate_many<C, O, E, F>(&self, items: &[C], f: F) -> Result<Vec<O>, E>
    where
        C: Sync,
        O: Send,
        E: Send,
        F: Fn(usize, &C) -> Result<O, E> + Sync,
    {
        self.evaluate_many(items, f).into_iter().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_input_order_at_any_thread_count() {
        let items: Vec<u64> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&x| x.wrapping_mul(x) ^ 0xA5).collect();
        for jobs in [1, 2, 3, 8, 64] {
            let engine = Engine::new(ExecConfig::with_jobs(jobs));
            let got = engine.evaluate_many(&items, |_, &x| x.wrapping_mul(x) ^ 0xA5);
            assert_eq!(got, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn error_reporting_is_deterministic() {
        let items: Vec<usize> = (0..64).collect();
        let engine = Engine::new(ExecConfig::with_jobs(8));
        for _ in 0..8 {
            let r: Result<Vec<usize>, usize> =
                engine.try_evaluate_many(&items, |_, &x| if x % 7 == 3 { Err(x) } else { Ok(x) });
            assert_eq!(r.unwrap_err(), 3, "lowest-indexed failure wins");
        }
    }

    #[test]
    fn counters_track_work() {
        let engine = Engine::serial();
        engine.evaluate_many(&[1, 2, 3], |_, &x: &i32| x);
        engine.evaluate_many(&[1, 2], |_, &x: &i32| x);
        assert_eq!(engine.jobs_executed(), 5);
        assert_eq!(engine.batches_executed(), 2);
    }

    #[test]
    fn empty_batch_is_fine() {
        let engine = Engine::default();
        let out: Vec<u8> = engine.evaluate_many(&[] as &[u8], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn all_jobs_run_exactly_once() {
        let engine = Engine::new(ExecConfig::with_jobs(6));
        let hits = AtomicU64::new(0);
        let items: Vec<usize> = (0..500).collect();
        let out = engine.evaluate_many(&items, |i, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            assert_eq!(i, x);
            x
        });
        assert_eq!(out.len(), 500);
        assert_eq!(hits.load(Ordering::Relaxed), 500);
    }

    #[test]
    fn job_seed_spreads() {
        let s0 = job_seed(1, 0);
        let s1 = job_seed(1, 1);
        assert_ne!(s0, s1);
        assert_ne!(job_seed(1, 0), job_seed(2, 0));
        // Stable across calls (and, by construction, across processes).
        assert_eq!(job_seed(7, 9), job_seed(7, 9));
    }
}
