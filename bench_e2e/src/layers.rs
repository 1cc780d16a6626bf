//! Per-layer metrics: their catalog, the obs counters and spans they are
//! read from, and the serial replay table that attributes busy time to
//! each layer.
//!
//! Times and counts are *per operation* of the workload (units `s/op`,
//! `count/op`), so they compare across runs that completed different
//! numbers of operations. A layer a workload never calls reports 0.

use crate::run::{Measured, JOBS};
use clapped::obs::metrics::{self, MetricValue};
use std::collections::BTreeMap;

/// Every per-layer metric with its unit, in report order. `BENCHMARK.json`
/// lists the same names and units (a unit test keeps them in step).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("netlist.optimize_s", "s/op"),
    ("netlist.map_s", "s/op"),
    ("netlist.timing_s", "s/op"),
    ("netlist.power_s", "s/op"),
    ("netlist.synth_calls", "count/op"),
    ("netlist.lint_s", "s/op"),
    ("netlist.errbound_s", "s/op"),
    ("accel.datapath_s", "s/op"),
    ("accel.characterize_ms_p50", "ms"),
    ("accel.characterize_calls", "count/op"),
    ("axops.table_s", "s/op"),
    ("axops.tables_built", "count/op"),
    ("axops.distinct_ratio", "ratio"),
    ("imgproc.evaluate_s", "s/op"),
    ("imgproc.plan_hit_ratio", "ratio"),
    ("mlp.fit_s", "s/op"),
    ("mlp.predict_us", "us"),
    ("mlp.gap_pct", "%"),
    ("dse.gp_fit_s", "s/op"),
    ("dse.acquisition_s", "s/op"),
    ("dse.evaluate_s", "s/op"),
    ("dse.candidates", "count/op"),
    ("dse.hypervolume", "hv"),
    ("exec.worker_busy_s", "s/op"),
    ("exec.parallel_efficiency", "ratio"),
    ("exec.cache_hit_ratio", "ratio"),
    ("exec.cache_misses", "count/op"),
    ("exec.disk_replay_s", "s/op"),
    ("core.encode_s", "s/op"),
    ("core.sentinel_objectives", "count/op"),
    ("obs.trace_overhead_pct", "%"),
];

/// Replay spans: the benchmark's own spans around each layer call it
/// replays, with the per-layer metric their busy time feeds (if any).
pub const REPLAY_SPANS: &[(&str, Option<&str>)] = &[
    ("bench.replay.axops.netlist", None),
    ("bench.replay.axops.table", Some("axops.table_s")),
    ("bench.replay.netlist.lint", Some("netlist.lint_s")),
    ("bench.replay.netlist.errbound", Some("netlist.errbound_s")),
    ("bench.replay.accel.datapath", Some("accel.datapath_s")),
    ("bench.replay.netlist.optimize", Some("netlist.optimize_s")),
    ("bench.replay.netlist.map", Some("netlist.map_s")),
    ("bench.replay.netlist.timing", Some("netlist.timing_s")),
    ("bench.replay.netlist.power", Some("netlist.power_s")),
    ("bench.replay.imgproc.evaluate", Some("imgproc.evaluate_s")),
    ("bench.replay.core.encode", Some("core.encode_s")),
    ("bench.replay.mlp.fit", Some("mlp.fit_s")),
    ("bench.replay.mlp.predict", None),
];

/// Program spans shown in the replay table beside the replayed calls,
/// with the per-layer metric they feed.
const PROGRAM_SPANS: &[(&str, &str)] = &[
    ("dse.mbo.gp_fit", "dse.gp_fit_s"),
    ("dse.mbo.acquisition", "dse.acquisition_s"),
];

/// One row of the replay table.
#[derive(Debug)]
struct ReplayRow {
    /// Layer call: a replay span without its `bench.replay.` prefix, or
    /// a program span.
    call: &'static str,
    /// Calls in the measured phase (replayed calls × scale).
    calls: f64,
    /// Busy seconds in the measured phase (replayed time × scale).
    busy_s: f64,
    /// The per-layer metric the row feeds, if any.
    metric: Option<&'static str>,
}

/// Per-layer metric values plus the replay table of a traced run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<&'static str, f64>,
    /// Program-span rows, then replay rows in [`REPLAY_SPANS`] order.
    rows: Vec<ReplayRow>,
}

impl Layers {
    /// Sets a metric (must be one of [`PER_LAYER`]).
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    /// A metric's value, 0 when the workload never set it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Every per-layer metric with its unit and value, in report order.
    pub fn all(&self) -> impl Iterator<Item = (&'static str, &'static str, f64)> + '_ {
        PER_LAYER.iter().map(|&(n, u)| (n, u, self.get(n)))
    }

    /// Folds the replay spans recorded since the last obs reset into the
    /// table and the `s/op` metrics. `scale(span)` converts replayed calls
    /// to the calls the measured phase made; `ops` is its operation count.
    pub fn add_replay(&mut self, scale: impl Fn(&str) -> f64, ops: usize) {
        let snap = Snapshot::take();
        let per_op = 1.0 / ops.max(1) as f64;
        for &(span, metric) in REPLAY_SPANS {
            let (count, sum_ns) = snap.hist(span);
            if count == 0 {
                continue;
            }
            let k = scale(span);
            let row = ReplayRow {
                call: span.trim_start_matches("bench.replay."),
                calls: count as f64 * k,
                busy_s: sum_ns as f64 * 1e-9 * k,
                metric,
            };
            if let Some(m) = metric {
                self.set(m, row.busy_s * per_op);
            }
            if span == "bench.replay.netlist.map" {
                self.set("netlist.synth_calls", row.calls * per_op);
            }
            if span == "bench.replay.accel.datapath" {
                self.set("accel.characterize_calls", row.calls * per_op);
            }
            if span == "bench.replay.mlp.predict" {
                self.set("mlp.predict_us", sum_ns as f64 * 1e-3 / count as f64);
            }
            self.rows.push(row);
        }
    }

    /// Prints the replay table: calls, busy seconds, share of the
    /// measured phase's capacity (`wall × JOBS`) and the per-layer metric
    /// each row feeds (every row feeds the end-to-end `latency_ms`).
    pub fn print_table(&self, wall_s: f64) {
        println!("per-layer time (program spans as traced; replayed calls serial, scaled to the traced phase; wall {wall_s:.3} s x {JOBS} jobs):");
        println!(
            "  {:<24} {:>10} {:>10} {:>7}  per-layer metric",
            "layer call", "calls", "busy s", "share"
        );
        for r in &self.rows {
            let share = r.busy_s / (wall_s * JOBS as f64).max(1e-12);
            println!(
                "  {:<24} {:>10.1} {:>10.3} {:>6.1}%  {}",
                r.call,
                r.calls,
                r.busy_s,
                share * 100.0,
                r.metric.unwrap_or("-")
            );
        }
    }
}

/// A point-in-time copy of the obs registry.
pub struct Snapshot(BTreeMap<&'static str, MetricValue>);

impl Snapshot {
    /// Reads every registered metric.
    pub fn take() -> Snapshot {
        Snapshot(metrics::snapshot().into_iter().collect())
    }

    /// A counter's value (0 if never registered).
    pub fn counter(&self, name: &str) -> u64 {
        match self.0.get(name) {
            Some(MetricValue::Counter(c)) => *c,
            _ => 0,
        }
    }

    /// A histogram's `(count, sum)` (zeros if never registered).
    pub fn hist(&self, name: &str) -> (u64, u64) {
        match self.0.get(name) {
            Some(MetricValue::Histogram(h)) => (h.count, h.sum),
            _ => (0, 0),
        }
    }
}

/// Reads the program's own spans and counters recorded during a traced
/// measured phase.
pub fn record_program_metrics<T>(layers: &mut Layers, m: &Measured<T>) {
    let (snap, wall_s) = (&m.snap, m.wall_s);
    let per_op = 1.0 / m.ops().max(1) as f64;
    layers.set("imgproc.plan_hit_ratio", m.plan_hit_ratio);
    let secs = |name: &str| snap.hist(name).1 as f64 * 1e-9 * per_op;
    for &(span, metric) in PROGRAM_SPANS {
        let (count, sum_ns) = snap.hist(span);
        layers.set(metric, sum_ns as f64 * 1e-9 * per_op);
        if count > 0 {
            layers.rows.push(ReplayRow {
                call: span,
                calls: count as f64,
                busy_s: sum_ns as f64 * 1e-9,
                metric: Some(metric),
            });
        }
    }
    layers.set("dse.evaluate_s", secs("dse.mbo.evaluate"));
    layers.set(
        "dse.candidates",
        snap.counter("dse.mbo.candidates") as f64 * per_op,
    );
    let busy_s = snap.counter("exec.worker.busy_ns") as f64 * 1e-9;
    layers.set("exec.worker_busy_s", busy_s * per_op);
    layers.set(
        "exec.parallel_efficiency",
        busy_s / (wall_s * JOBS as f64).max(1e-12),
    );
    let hits = snap.counter("exec.cache.hit") + snap.counter("exec.cache.disk_hit");
    let misses = snap.counter("exec.cache.miss");
    layers.set("exec.cache_misses", misses as f64 * per_op);
    if hits + misses > 0 {
        layers.set("exec.cache_hit_ratio", hits as f64 / (hits + misses) as f64);
    }
}
