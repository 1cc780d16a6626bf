//! Structured tracing and metrics for the CLAppED stack.
//!
//! `clapped-obs` is a std-only observability layer: hierarchical
//! [`span`]s with monotonic timing, a process-wide [`metrics`] registry
//! (atomic counters, gauges, fixed-bucket histograms) and an optional
//! JSONL event [`sink`] writing one record per line (by convention to
//! `results/trace.jsonl`).
//!
//! # The disabled fast path
//!
//! Observability is **off by default** and every instrumentation entry
//! point guards on a single relaxed atomic load ([`enabled`]). A span
//! enter/exit or counter add while disabled costs a load plus a
//! predictable branch — around a nanosecond — so instrumentation can
//! stay in hot code unconditionally (`bench_obs` measures the exact
//! figure and records it in `results/bench_obs.json`).
//!
//! # Determinism
//!
//! Instrumentation only *observes*: it reads monotonic clocks and
//! updates atomics, never touches an RNG stream, a content digest or a
//! checkpoint. Traced and untraced runs of the same seeded search are
//! bit-identical (a test in `clapped-dse` asserts this).
//!
//! # Examples
//!
//! ```
//! clapped_obs::enable();
//! {
//!     let _span = clapped_obs::span("demo.work");
//!     clapped_obs::metrics::count("demo.items", 3);
//! }
//! assert_eq!(clapped_obs::metrics::counter_value("demo.items"), 3);
//! assert!(clapped_obs::report().contains("demo.work"));
//! clapped_obs::disable();
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![warn(clippy::expect_used, clippy::disallowed_types)]

pub mod clock;
pub mod metrics;
pub mod sink;

pub use clock::{Deadline, Stopwatch};
pub use metrics::{count, gauge_set, observe, Counter, Gauge, Histogram, MetricValue};
pub use sink::{emit_event, emit_point};

use std::cell::Cell;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether observability is currently enabled — a single relaxed atomic
/// load, the guard every instrumentation site checks first.
#[inline(always)]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns on metric collection and span timing (no JSONL sink).
pub fn enable() {
    ENABLED.store(true, Ordering::SeqCst);
}

/// Turns on metric collection, span timing and the JSONL event sink
/// writing to `path` (parent directories are created; an existing file
/// is truncated).
///
/// # Errors
///
/// Returns the I/O error if the trace file cannot be created.
pub fn enable_jsonl(path: impl AsRef<Path>) -> std::io::Result<()> {
    sink::install(path.as_ref())?;
    enable();
    Ok(())
}

/// Turns observability off: instrumentation reverts to the no-op fast
/// path, and an installed JSONL sink writes its trailing metrics record
/// and closes. Collected metric values are kept (see
/// [`metrics::snapshot`] / [`report`]).
pub fn disable() {
    ENABLED.store(false, Ordering::SeqCst);
    sink::close();
}

/// [`disable`] plus zeroing every metric: back to a pristine state.
/// Intended for tests and benches.
pub fn reset() {
    disable();
    metrics::reset_values();
}

thread_local! {
    static DEPTH: Cell<u32> = const { Cell::new(0) };
}

/// An open hierarchical span; timing stops and the record is emitted
/// when it drops. Obtain via [`span`].
#[must_use = "a span measures the scope it lives in; bind it with `let _span = ...`"]
#[derive(Debug)]
pub struct Span {
    name: &'static str,
    start: Option<Stopwatch>,
    depth: u32,
}

/// Opens a span named `name`. While observability is disabled this is a
/// no-op costing one relaxed atomic load (enter) plus one branch
/// (exit). While enabled, the span records its duration into the
/// histogram `name` (nanoseconds) on drop and appends a span record to
/// the JSONL sink when one is installed. Spans nest per thread; `depth`
/// in the trace reflects the nesting.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span { name, start: None, depth: 0 };
    }
    let depth = DEPTH.with(|d| {
        let v = d.get();
        d.set(v + 1);
        v
    });
    Span { name, start: Some(Stopwatch::start()), depth }
}

impl Drop for Span {
    #[inline]
    fn drop(&mut self) {
        let Some(start) = self.start.take() else {
            return;
        };
        DEPTH.with(|d| d.set(d.get().saturating_sub(1)));
        let dur_ns = start.elapsed_ns();
        metrics::observe(self.name, dur_ns);
        sink::emit_span(self.name, self.depth, dur_ns);
    }
}

/// Parses `--trace` / `--trace=PATH` from the process arguments; when
/// present, enables JSONL tracing (default path `results/trace.jsonl`,
/// relative to the working directory) and returns `true`. Example
/// binaries call this once at startup.
pub fn init_trace_from_args() -> bool {
    for a in std::env::args().skip(1) {
        if a == "--trace" {
            return enable_jsonl("results/trace.jsonl").is_ok();
        }
        if let Some(path) = a.strip_prefix("--trace=") {
            return enable_jsonl(path).is_ok();
        }
    }
    false
}

/// If observability is enabled: renders the end-of-run [`report`],
/// disables (closing the sink), and returns the report text. Returns
/// `None` when observability was never enabled — so examples can call
/// this unconditionally.
pub fn finish() -> Option<String> {
    if !enabled() && !sink::is_installed() {
        return None;
    }
    let text = report();
    disable();
    Some(text)
}

fn human_ns(ns: f64) -> String {
    if ns < 1e3 {
        format!("{ns:.0}ns")
    } else if ns < 1e6 {
        format!("{:.1}us", ns / 1e3)
    } else if ns < 1e9 {
        format!("{:.1}ms", ns / 1e6)
    } else {
        format!("{:.2}s", ns / 1e9)
    }
}

/// Formats every registered metric as an aligned text block — the
/// end-of-run stats report the examples print under `--trace`.
/// Histogram rows assume nanosecond samples for the human-readable
/// columns (span durations are; unit-less histograms such as
/// `exec.batch.jobs` additionally print their raw sum).
pub fn report() -> String {
    let snapshot = metrics::snapshot();
    let mut out = String::from("== observability report ==\n");
    if snapshot.is_empty() {
        out.push_str("(no metrics recorded)\n");
        return out;
    }
    let width = snapshot.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
    for (name, value) in snapshot {
        let line = match value {
            MetricValue::Counter(c) => format!("{name:<width$}  counter  {c}"),
            MetricValue::Gauge(g) => format!("{name:<width$}  gauge    {g:.4}"),
            MetricValue::Histogram(h) => format!(
                "{name:<width$}  hist     count {:<8} mean {:<10} min {:<10} max {:<10} sum {}",
                h.count,
                human_ns(h.mean()),
                human_ns(h.min as f64),
                human_ns(h.max as f64),
                h.sum,
            ),
        };
        out.push_str(&line);
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The enabled flag, registry and sink are process-wide; tests that
    /// toggle them serialize here.
    static TEST_LOCK: Mutex<()> = Mutex::new(());

    fn locked() -> std::sync::MutexGuard<'static, ()> {
        TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn disabled_instrumentation_is_a_no_op() {
        let _guard = locked();
        reset();
        {
            let _span = span("test.noop");
            metrics::count("test.noop.counter", 5);
            metrics::gauge_set("test.noop.gauge", 1.0);
            metrics::observe("test.noop.hist", 10);
        }
        assert_eq!(metrics::counter_value("test.noop.counter"), 0);
        // The span never registered a histogram entry either.
        assert!(!metrics::snapshot().iter().any(|(n, _)| *n == "test.noop"));
    }

    #[test]
    fn counters_gauges_histograms_record_when_enabled() {
        let _guard = locked();
        reset();
        enable();
        metrics::count("test.c", 2);
        metrics::count("test.c", 3);
        metrics::gauge_set("test.g", 2.5);
        metrics::observe("test.h", 100);
        metrics::observe("test.h", 300);
        assert_eq!(metrics::counter_value("test.c"), 5);
        let snap = metrics::snapshot();
        let g = snap.iter().find(|(n, _)| *n == "test.g").unwrap();
        assert_eq!(g.1, MetricValue::Gauge(2.5));
        let MetricValue::Histogram(h) = &snap.iter().find(|(n, _)| *n == "test.h").unwrap().1
        else {
            panic!("test.h must be a histogram")
        };
        assert_eq!((h.count, h.sum, h.min, h.max), (2, 400, 100, 300));
        assert!((h.mean() - 200.0).abs() < 1e-9);
        reset();
        assert_eq!(metrics::counter_value("test.c"), 0);
    }

    #[test]
    fn spans_aggregate_into_histograms_and_nest() {
        let _guard = locked();
        reset();
        enable();
        {
            let outer = span("test.outer");
            assert_eq!(outer.depth, 0);
            {
                let inner = span("test.inner");
                assert_eq!(inner.depth, 1);
            }
        }
        let snap = metrics::snapshot();
        for name in ["test.outer", "test.inner"] {
            let MetricValue::Histogram(h) =
                &snap.iter().find(|(n, _)| *n == name).unwrap().1
            else {
                panic!("{name} must be a histogram")
            };
            assert_eq!(h.count, 1);
        }
        assert!(report().contains("test.outer"));
        reset();
    }

    #[test]
    fn jsonl_sink_writes_well_formed_lines() {
        let _guard = locked();
        reset();
        let path = std::env::temp_dir().join(format!("clapped-obs-test-{}.jsonl", std::process::id()));
        enable_jsonl(&path).unwrap();
        {
            let _span = span("test.sink.span");
        }
        emit_point("test.sink.point", &[("value", 1.5), ("bad", f64::NAN)]);
        disable();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // start + span + point + trailing metrics
        assert_eq!(lines.len(), 4);
        for line in &lines {
            serde_json::from_str(line).expect("every trace line parses as JSON");
        }
        let span_rec = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(span_rec.get("type").and_then(|v| v.as_str()), Some("span"));
        assert_eq!(span_rec.get("name").and_then(|v| v.as_str()), Some("test.sink.span"));
        assert!(span_rec.get("dur_ns").and_then(|v| v.as_u64()).is_some());
        let point_rec = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(point_rec.get("value").and_then(|v| v.as_f64()), Some(1.5));
        assert!(point_rec.get("bad").map(|v| v.is_null()).unwrap_or(false));
        let metrics_rec = serde_json::from_str(lines[3]).unwrap();
        assert_eq!(metrics_rec.get("type").and_then(|v| v.as_str()), Some("metrics"));
        let _ = std::fs::remove_file(&path);
        reset();
    }

    #[test]
    fn labelled_events_multiplex_job_streams() {
        let _guard = locked();
        reset();
        let path = std::env::temp_dir()
            .join(format!("clapped-obs-test-event-{}.jsonl", std::process::id()));
        enable_jsonl(&path).unwrap();
        emit_event(
            "serve.job",
            &[("job", "7"), ("tenant", "acme"), ("state", "running")],
            &[("evals", 20.0), ("hv", 3.25)],
        );
        // Reserved keys must not clobber the record shape.
        emit_event("serve.job", &[("type", "evil"), ("job", "8")], &[("t_ns", 0.0)]);
        disable();
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        // start + two events + trailing metrics
        assert_eq!(lines.len(), 4);
        let rec: serde_json::Value = serde_json::from_str(lines[1]).unwrap();
        assert_eq!(rec.get("type").and_then(|v| v.as_str()), Some("event"));
        assert_eq!(rec.get("name").and_then(|v| v.as_str()), Some("serve.job"));
        assert_eq!(rec.get("job").and_then(|v| v.as_str()), Some("7"));
        assert_eq!(rec.get("tenant").and_then(|v| v.as_str()), Some("acme"));
        assert_eq!(rec.get("evals").and_then(|v| v.as_f64()), Some(20.0));
        let evil: serde_json::Value = serde_json::from_str(lines[2]).unwrap();
        assert_eq!(evil.get("type").and_then(|v| v.as_str()), Some("event"));
        assert_eq!(evil.get("job").and_then(|v| v.as_str()), Some("8"));
        assert!(evil.get("t_ns").and_then(|v| v.as_u64()).is_some(), "t_ns stays numeric");
        let _ = std::fs::remove_file(&path);
        reset();
    }

    #[test]
    fn finish_returns_none_when_never_enabled() {
        let _guard = locked();
        reset();
        assert!(finish().is_none());
    }

    #[test]
    #[should_panic(expected = "not a counter")]
    fn type_confusion_panics() {
        metrics::histogram("test.type-confused");
        metrics::counter("test.type-confused");
    }
}
