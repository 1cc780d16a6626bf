//! The JSONL event sink.
//!
//! When installed (via [`crate::enable_jsonl`]), every closed span and
//! every explicit [`emit_point`] appends one JSON object per line to
//! the trace file (by convention `results/trace.jsonl`). Records carry
//! **monotonic** timestamps in nanoseconds since the sink was
//! installed — wall-clock time never enters the trace, and nothing in
//! the trace ever feeds back into content digests or checkpoints.
//!
//! Record shapes:
//!
//! ```json
//! {"type":"start","version":1}
//! {"type":"span","name":"exec.batch","t_ns":123,"dur_ns":456,"depth":0,"thread":0}
//! {"type":"point","name":"dse.mbo.hv","t_ns":789,"evals":20.0,"hv":3.25}
//! {"type":"event","name":"serve.job","t_ns":790,"job":"7","tenant":"acme","evals":20.0}
//! {"type":"metrics","t_ns":999,"metrics":{...}}
//! ```
//!
//! `event` records ([`emit_event`]) carry string labels alongside the
//! numeric fields — the shape per-job streams use: every lifecycle
//! transition and progress tick of a `clapped-serve` job is one event
//! labelled with the job id and tenant, so a single trace file
//! multiplexes hundreds of concurrent job streams and `grep`/`jq`
//! demultiplexes them.

use crate::Stopwatch;
use serde_json::{json, Number, Value};
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

struct Sink {
    writer: BufWriter<File>,
    epoch: Stopwatch,
}

static SINK: Mutex<Option<Sink>> = Mutex::new(None);

/// Small dense thread ids for trace records (the OS `ThreadId` has no
/// stable public integer form).
static NEXT_THREAD: AtomicU64 = AtomicU64::new(0);
thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD.fetch_add(1, Ordering::Relaxed);
}

fn thread_id() -> u64 {
    THREAD_ID.with(|&id| id)
}

pub(crate) fn install(path: &Path) -> std::io::Result<()> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)?;
        }
    }
    let file = File::create(path)?;
    let mut writer = BufWriter::new(file);
    writeln!(writer, "{}", json!({ "type": "start", "version": 1 }))?;
    *SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(Sink { writer, epoch: Stopwatch::start() });
    Ok(())
}

fn with_sink(f: impl FnOnce(&mut Sink)) {
    if let Some(sink) = SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner).as_mut() {
        f(sink);
    }
}

pub(crate) fn emit_span(name: &str, depth: u32, dur_ns: u64) {
    with_sink(|sink| {
        let record = json!({
            "type": "span",
            "name": name,
            "t_ns": sink.epoch.elapsed_ns(),
            "dur_ns": dur_ns,
            "depth": depth,
            "thread": thread_id(),
        });
        let _ = writeln!(sink.writer, "{record}");
    });
}

/// Emits one point record with numeric fields (non-finite values are
/// written as `null`); no-op while observability is disabled or when no
/// JSONL sink is installed.
pub fn emit_point(name: &str, fields: &[(&str, f64)]) {
    if !crate::enabled() {
        return;
    }
    with_sink(|sink| {
        let mut map = serde_json::Map::new();
        map.insert("type".to_string(), Value::String("point".to_string()));
        map.insert("name".to_string(), Value::String(name.to_string()));
        map.insert("t_ns".to_string(), Value::from(sink.epoch.elapsed_ns()));
        for &(key, v) in fields {
            let value = Number::from_f64(v).map(Value::Number).unwrap_or(Value::Null);
            map.insert(key.to_string(), value);
        }
        let _ = writeln!(sink.writer, "{}", Value::Object(map));
    });
}

/// Emits one labelled event record: string labels (job ids, tenants,
/// state names) plus numeric fields. Labels and fields land as flat
/// top-level keys next to `type`/`name`/`t_ns`; a label or field named
/// like one of those reserved keys is skipped rather than clobbering
/// the record shape. Non-finite numeric values are written as `null`.
/// No-op while observability is disabled or when no JSONL sink is
/// installed.
pub fn emit_event(name: &str, labels: &[(&str, &str)], fields: &[(&str, f64)]) {
    if !crate::enabled() {
        return;
    }
    with_sink(|sink| {
        let mut map = serde_json::Map::new();
        map.insert("type".to_string(), Value::String("event".to_string()));
        map.insert("name".to_string(), Value::String(name.to_string()));
        map.insert("t_ns".to_string(), Value::from(sink.epoch.elapsed_ns()));
        let reserved = |key: &str| matches!(key, "type" | "name" | "t_ns");
        for &(key, v) in labels {
            if !reserved(key) {
                map.insert(key.to_string(), Value::String(v.to_string()));
            }
        }
        for &(key, v) in fields {
            if !reserved(key) {
                let value = Number::from_f64(v).map(Value::Number).unwrap_or(Value::Null);
                map.insert(key.to_string(), value);
            }
        }
        let _ = writeln!(sink.writer, "{}", Value::Object(map));
    });
}

/// Writes the trailing metrics record, flushes and closes the sink.
pub(crate) fn close() {
    let mut guard = SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    if let Some(mut sink) = guard.take() {
        let record = json!({
            "type": "metrics",
            "t_ns": sink.epoch.elapsed_ns(),
            "metrics": crate::metrics::snapshot_json(),
        });
        let _ = writeln!(sink.writer, "{record}");
        let _ = sink.writer.flush();
    }
}

pub(crate) fn is_installed() -> bool {
    SINK.lock().unwrap_or_else(std::sync::PoisonError::into_inner).is_some()
}
