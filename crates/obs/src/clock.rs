//! Wall-clock facade: the only sanctioned doorway to `Instant`.
//!
//! CLAppED's determinism story forbids wall-clock reads outside this
//! module (the workspace's `disallowed_methods` clippy rule enforces
//! it): an `Instant::now()` call sitting next to search or evaluation
//! logic is one refactor away from steering a result. Code that
//! legitimately needs elapsed time — span and trace timestamps in this
//! crate, job-duration histograms in `clapped-exec`, wall-clock budgets
//! in `clapped-dse`, the bench harnesses' timings — goes through
//! [`Stopwatch`] and [`Deadline`], which expose *durations* but never
//! absolute timestamps. [`Stopwatch::start`] and
//! [`Stopwatch::elapsed`] are the workspace's only clock reads.

use std::time::{Duration, Instant};

/// A started monotonic timer. Measures elapsed time; cannot be read as
/// an absolute timestamp.
///
/// # Examples
///
/// ```
/// let sw = clapped_obs::Stopwatch::start();
/// let _ = (0..100).sum::<u64>();
/// assert!(sw.elapsed() >= std::time::Duration::ZERO);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch {
    start: Instant,
}

impl Stopwatch {
    /// Starts a new stopwatch.
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the workspace's one doorway to the clock")]
    pub fn start() -> Stopwatch {
        Stopwatch { start: Instant::now() }
    }

    /// Time elapsed since [`Stopwatch::start`].
    #[inline]
    #[expect(clippy::disallowed_methods, reason = "the workspace's one doorway to the clock")]
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Elapsed nanoseconds, saturated to `u64` — the unit the metrics
    /// histograms store.
    #[inline]
    pub fn elapsed_ns(&self) -> u64 {
        self.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64
    }
}

/// A wall-clock budget: a stopwatch with a limit, asked "are we there
/// yet". An unlimited deadline (no budget configured) never expires.
///
/// # Examples
///
/// ```
/// use std::time::Duration;
///
/// let none = clapped_obs::Deadline::unlimited();
/// assert!(!none.expired());
/// let tight = clapped_obs::Deadline::after(Duration::ZERO);
/// assert!(tight.expired());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    started: Stopwatch,
    budget: Option<Duration>,
}

impl Deadline {
    /// A deadline `budget` from now.
    #[inline]
    pub fn after(budget: Duration) -> Deadline {
        Deadline { started: Stopwatch::start(), budget: Some(budget) }
    }

    /// A deadline that never expires.
    #[inline]
    pub fn unlimited() -> Deadline {
        Deadline { started: Stopwatch::start(), budget: None }
    }

    /// [`Deadline::after`] when a budget is given, otherwise
    /// [`Deadline::unlimited`] — matches config fields of type
    /// `Option<Duration>`.
    #[inline]
    pub fn from_budget(budget: Option<Duration>) -> Deadline {
        Deadline { started: Stopwatch::start(), budget }
    }

    /// True once the budget has been used up (never for unlimited).
    #[inline]
    pub fn expired(&self) -> bool {
        match self.budget {
            Some(b) => self.started.elapsed() >= b,
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stopwatch_is_monotonic() {
        let sw = Stopwatch::start();
        let a = sw.elapsed();
        let b = sw.elapsed();
        assert!(b >= a);
        assert!(sw.elapsed_ns() >= a.as_nanos() as u64);
    }

    #[test]
    fn zero_budget_expires_immediately() {
        assert!(Deadline::after(Duration::ZERO).expired());
        assert!(Deadline::from_budget(Some(Duration::ZERO)).expired());
    }

    #[test]
    fn generous_budget_does_not_expire() {
        assert!(!Deadline::after(Duration::from_secs(3600)).expired());
    }

    #[test]
    fn unlimited_never_expires() {
        assert!(!Deadline::unlimited().expired());
        assert!(!Deadline::from_budget(None).expired());
    }
}
