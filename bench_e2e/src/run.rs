//! The measurement protocol every workload shares: timed set-ups, rounds
//! that repeat one seeded batch of operations, correctness gates and the
//! per-run outcome the report is printed from.

use crate::calib::{HostClock, Section};
use crate::layers::{Layers, Snapshot};
use crate::stats::{mean, median};
use clapped::exec::Fnv64;
use clapped::obs::Stopwatch;
use std::cell::RefCell;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Parallelism of every workload: evaluation-engine workers and client
/// threads. Fixed rather than taken from the host so numbers compare
/// across machines; the host's core count is printed beside them. One: on
/// a shared host with few cores, a second busy thread measures the
/// scheduler and the other tenants more than the program (see
/// `README.md`).
pub const JOBS: usize = 1;

/// Set-ups per untraced run of the workloads that set up once; the report
/// gives their median.
pub const SETUP_REPEATS: usize = 3;

/// Rounds a measured phase makes whatever its time budget.
pub const MIN_ROUNDS: usize = 3;

/// How long the measured phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Start another round while it is expected (from the last round's
    /// length) to end by this instant, and until [`MIN_ROUNDS`] have run.
    /// The instant is counted from the run's start, so set-ups spend the
    /// same budget.
    Deadline(Instant),
    /// Run exactly this many rounds.
    Rounds(usize),
}

/// Everything a workload needs to know about one measured run.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Workload seed: every generated input derives from it.
    pub seed: u64,
    /// Timed set-ups of the workloads that set up once before the rounds.
    pub setups: usize,
    /// Length of the measured phase.
    pub budget: Budget,
    /// Whether obs tracing is on and per-layer replay follows.
    pub trace: bool,
    /// Scratch directory owned by this run (state dirs, caches).
    pub dir: PathBuf,
    /// The run's host-speed calibration, shared by its phases.
    pub clock: Rc<RefCell<HostClock>>,
}

/// A measured phase: rounds of the same seeded operations, each on state
/// the workload prepares afresh.
pub struct Measured<T> {
    /// Outputs of round 0, in operation order (later rounds are checked
    /// against it by digest, not kept).
    pub first: Vec<T>,
    /// Every operation, per round.
    pub rounds: Vec<Vec<Section>>,
    /// Each round's preparation.
    pub prepare: Vec<Section>,
    /// Digest of each round's outputs.
    pub digests: Vec<u64>,
    /// From the first preparation to the last completion, seconds.
    pub wall_s: f64,
    /// Peak resident set size (MiB) after round 0: a fixed amount of work,
    /// so a faster program that fits more rounds into the budget is not
    /// charged for them.
    pub peak_rss_mb: f64,
    /// Program spans and counters (populated when the plan is traced).
    pub snap: Snapshot,
    /// Hit ratio of the process-wide convolution-plan LUT cache.
    pub plan_hit_ratio: f64,
}

impl<T> Measured<T> {
    /// Operations over all rounds.
    pub fn ops(&self) -> usize {
        self.rounds.iter().map(Vec::len).sum()
    }
}

/// Runs rounds under `plan`'s budget. Round `r` calls `prepare(r)` for its
/// state (timed separately) and then `op(&state, i)` for every operation
/// `i` in `0..ops`, one after another on this thread (a closed loop with
/// one client); `digest` folds one output into the round's digest. Every
/// call is a section of the plan's clock. A traced plan resets and
/// enables obs first, so the snapshot covers exactly this phase.
///
/// # Errors
///
/// The first preparation or operation error.
pub fn run_rounds<S, T>(
    plan: &Plan,
    ops: usize,
    mut prepare: impl FnMut(usize) -> Result<S, String>,
    mut op: impl FnMut(&S, usize) -> Result<T, String>,
    digest: impl Fn(&mut Fnv64, &T),
) -> Result<Measured<T>, String> {
    let before = clapped::imgproc::plan_cache_stats();
    if plan.trace {
        clapped::obs::reset();
        clapped::obs::enable();
    }
    let watch = Stopwatch::start();
    let mut m = Measured {
        first: Vec::new(),
        rounds: Vec::new(),
        prepare: Vec::new(),
        digests: Vec::new(),
        wall_s: 0.0,
        peak_rss_mb: f64::NAN,
        snap: Snapshot::take(),
        plan_hit_ratio: 0.0,
    };
    let clock = &plan.clock;
    let mut last_round = Duration::ZERO;
    loop {
        let r = m.rounds.len();
        let start = watch.elapsed();
        let more = match plan.budget {
            Budget::Deadline(end) => r < MIN_ROUNDS || Instant::now() + last_round <= end,
            Budget::Rounds(n) => r < n,
        };
        if !more {
            break;
        }
        let t = clock.borrow_mut().begin();
        let state = prepare(r)?;
        m.prepare.push(clock.borrow_mut().end(t));
        let mut sections = Vec::with_capacity(ops);
        let mut h = Fnv64::new();
        for i in 0..ops {
            let t = clock.borrow_mut().begin();
            let out = op(&state, i).map_err(|e| format!("round {r} operation {i}: {e}"))?;
            sections.push(clock.borrow_mut().end(t));
            h.write_u64(i as u64);
            digest(&mut h, &out);
            if r == 0 {
                m.first.push(out);
            }
        }
        drop(state);
        m.rounds.push(sections);
        m.digests.push(h.finish());
        if r == 0 {
            m.peak_rss_mb = peak_rss_mb();
        }
        last_round = watch.elapsed() - start;
    }
    m.wall_s = watch.elapsed().as_secs_f64();
    let after = clapped::imgproc::plan_cache_stats();
    let lookups = (after.hits + after.misses).saturating_sub(before.hits + before.misses);
    let hits = after.hits.saturating_sub(before.hits);
    m.plan_hit_ratio = if lookups == 0 {
        0.0
    } else {
        hits as f64 / lookups as f64
    };
    m.snap = Snapshot::take();
    Ok(m)
}

/// Runs `setup` `plan.setups` times (at least once), each a section of
/// the plan's clock, and keeps the state of the last run; earlier states
/// are dropped (and torn down) before the next set-up starts.
///
/// # Errors
///
/// The first set-up error.
pub fn timed_setups<S>(
    plan: &Plan,
    mut setup: impl FnMut(usize) -> Result<S, String>,
) -> Result<(Vec<Section>, S), String> {
    let mut times = Vec::new();
    let mut kept = None;
    for k in 0..plan.setups.max(1) {
        drop(kept.take());
        let t = plan.clock.borrow_mut().begin();
        let state = setup(k)?;
        times.push(plan.clock.borrow_mut().end(t));
        kept = Some(state);
    }
    Ok((times, kept.expect("at least one set-up ran")))
}

/// A named pass/fail correctness check.
#[derive(Debug, Clone)]
pub struct Gate {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Evidence (counts, the first mismatch).
    pub detail: String,
}

/// A workload-specific number printed for information: deterministic
/// results (hypervolume, ML gap) and rates of the workload's own units.
#[derive(Debug, Clone)]
pub struct Info {
    /// Name.
    pub name: String,
    /// Value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Qualifier (sample count, percentile, determinism).
    pub note: String,
}

/// The result of one measured run of a workload.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Each set-up.
    pub setups: Vec<Section>,
    /// Every operation, per round.
    pub rounds: Vec<Vec<Section>>,
    /// Wall time of the measured phase, seconds.
    pub wall_s: f64,
    /// Peak RSS after round 0, MiB (see [`Measured`]).
    pub peak_rss_mb: f64,
    /// Work items attempted (evaluations or raw specs), over all rounds.
    pub attempted: u64,
    /// Work items that failed, over all rounds.
    pub failed: u64,
    /// Digest of one round's outputs (every round gives the same).
    pub digest: u64,
    /// Workload-specific information lines.
    pub info: Vec<Info>,
    /// Correctness gates.
    pub gates: Vec<Gate>,
    /// Per-layer metrics (complete only for traced runs).
    pub layers: Layers,
}

impl Outcome {
    /// An outcome with the timing fields and digest of a measured phase,
    /// and the gate that every round reproduced round 0.
    pub fn new<T>(setups: Vec<Section>, m: &Measured<T>) -> Outcome {
        let mut out = Outcome {
            setups,
            rounds: m.rounds.clone(),
            wall_s: m.wall_s,
            peak_rss_mb: m.peak_rss_mb,
            digest: m.digests.first().copied().unwrap_or_default(),
            ..Outcome::default()
        };
        let differ = m.digests.iter().filter(|&&d| d != out.digest).count();
        out.gate(
            "rounds_reproduce_round_0",
            differ == 0,
            format!(
                "{differ} of {} rounds differ from round 0",
                m.digests.len()
            ),
        );
        out
    }

    /// Records a gate.
    pub fn gate(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.gates.push(Gate {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Records an information line.
    pub fn info(
        &mut self,
        name: impl Into<String>,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.info.push(Info {
            name: name.into(),
            value,
            unit,
            note: note.into(),
        });
    }

    /// The reported operation latency, seconds: each operation of the
    /// round scaled to the reference host speed by `clock`, its median over
    /// the rounds, and the mean of those medians over the round's
    /// operations (which differ in cost).
    pub fn latency_s(&self, clock: &HostClock) -> f64 {
        let ops = self.rounds.first().map_or(0, Vec::len);
        let per_op: Vec<f64> = (0..ops)
            .map(|i| median(&self.rounds.iter().map(|r| clock.scaled_s(&r[i])).collect::<Vec<_>>()))
            .collect();
        mean(&per_op)
    }

    /// The reported set-up time, seconds: the median set-up, each scaled
    /// to the reference host speed by `clock`.
    pub fn setup_s(&self, clock: &HostClock) -> f64 {
        median(&self.setups.iter().map(|s| clock.scaled_s(s)).collect::<Vec<_>>())
    }

    /// Whether every gate passed and nothing failed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.gates.iter().all(|g| g.ok)
    }
}

/// Folds an `f64` into a digest by its exact bit pattern.
pub fn write_f64(h: &mut Fnv64, v: f64) {
    h.write_u64(v.to_bits());
}

/// A run's directory, removed (recursively) when dropped.
#[derive(Debug)]
pub struct RunDir(PathBuf);

impl RunDir {
    /// Creates `path` (and parents), replacing anything already there.
    ///
    /// # Errors
    ///
    /// The I/O error from creating the directory.
    pub fn create(path: PathBuf) -> Result<RunDir, String> {
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).map_err(|e| format!("create {}: {e}", path.display()))?;
        Ok(RunDir(path))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
