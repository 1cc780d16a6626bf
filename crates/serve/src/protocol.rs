//! The wire protocol: line-delimited JSON requests and replies.
//!
//! Every message is one JSON object on one line, newline-terminated.
//! Requests carry an `op` field; replies carry `ok` (with `reply`
//! naming the variant on success, or `error`/`detail` on failure):
//!
//! ```text
//! -> {"op":"submit","tenant":"acme","spec":{...}}
//! <- {"ok":true,"reply":"submitted","job":"j3"}
//! -> {"op":"status","job":"j3"}
//! <- {"ok":true,"reply":"status","job":"j3","state":"running",...}
//! -> {"op":"nonsense"}
//! <- {"ok":false,"error":"unknown-op","detail":"op `nonsense`"}
//! ```
//!
//! Messages are built with `serde_json`'s `json!` and read through the
//! workspace's one field codec, [`clapped_exec::json`]: a missing or
//! mistyped field is a `malformed` error, an absent or `null` optional
//! field reads as unset, and `f64` values survive the round trip
//! bit-exactly — the property the bit-identical resume guarantee leans
//! on. The MBO plan inside a job spec uses `clapped-dse`'s
//! [`MboConfig`] codec, the same object its checkpoints embed.

use crate::{Result, ServeError};
use clapped_core::{AppKind, MIN_IMAGE_SIZE};
use clapped_dse::{CheckpointCodec, Configuration, MboConfig};
use clapped_exec::{json, CacheStats};
use serde_json::{json, Value};

/// Default bound on one request line (bytes, newline included).
pub(crate) const DEFAULT_MAX_REQUEST_BYTES: usize = 1 << 20;

/// Upper bound on each MBO phase size a job spec may request: its
/// `initial_samples`, `batch` and `candidates`. A phase collects that
/// many configurations at once, so an unbounded size would let one
/// submit exhaust a worker's memory.
pub const MAX_PHASE_SIZE: usize = 4096;

/// Structured protocol error codes, stable across releases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The line was not valid JSON or missed required fields.
    Malformed,
    /// The request line exceeded the size bound.
    Oversized,
    /// The connection idled past the per-connection read timeout.
    Timeout,
    /// The `op` field named no known operation.
    UnknownOp,
    /// The referenced job id does not exist.
    UnknownJob,
    /// The job spec decoded but described an invalid job.
    BadSpec,
    /// The server is draining and accepts no new work.
    ShuttingDown,
}

impl ErrorCode {
    /// The wire token.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorCode::Malformed => "malformed",
            ErrorCode::Oversized => "oversized",
            ErrorCode::Timeout => "timeout",
            ErrorCode::UnknownOp => "unknown-op",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::BadSpec => "bad-spec",
            ErrorCode::ShuttingDown => "shutting-down",
        }
    }

    /// Parses a wire token.
    pub(crate) fn parse(s: &str) -> Option<ErrorCode> {
        Some(match s {
            "malformed" => ErrorCode::Malformed,
            "oversized" => ErrorCode::Oversized,
            "timeout" => ErrorCode::Timeout,
            "unknown-op" => ErrorCode::UnknownOp,
            "unknown-job" => ErrorCode::UnknownJob,
            "bad-spec" => ErrorCode::BadSpec,
            "shutting-down" => ErrorCode::ShuttingDown,
            _ => return None,
        })
    }
}

fn malformed(detail: impl Into<String>) -> ServeError {
    ServeError::Protocol { code: ErrorCode::Malformed, detail: detail.into() }
}

fn bad_spec(detail: impl Into<String>) -> ServeError {
    ServeError::Protocol { code: ErrorCode::BadSpec, detail: detail.into() }
}

/// One DSE job: the framework recipe, the MBO plan, and the tenant's
/// quality/budget/deadline constraints.
#[derive(Debug, Clone, PartialEq)]
pub struct JobSpec {
    /// The behavioural application.
    pub app: AppKind,
    /// Workload image side length.
    pub image_size: usize,
    /// Injected noise sigma (Gaussian application).
    pub noise_sigma: f64,
    /// Framework master seed (workload generation).
    pub seed: u64,
    /// MBO loop parameters (including the search seed).
    pub mbo: MboConfig,
    /// Quality constraint: feasible Pareto points keep application
    /// error at or below this many percent.
    pub max_error_percent: Option<f64>,
    /// Tenant budget: at most this many true evaluations.
    pub max_evaluations: Option<usize>,
    /// Wall-clock deadline (milliseconds from submission); the job
    /// fails with `deadline exceeded` once it passes.
    pub deadline_ms: Option<u64>,
}

impl Default for JobSpec {
    fn default() -> Self {
        JobSpec {
            app: AppKind::GaussianDenoise,
            image_size: 32,
            noise_sigma: 12.0,
            seed: 1,
            mbo: clapped_core::ExploreOptions::default().mbo,
            max_error_percent: None,
            max_evaluations: None,
            deadline_ms: None,
        }
    }
}

fn app_to_str(app: AppKind) -> &'static str {
    match app {
        AppKind::GaussianDenoise => "gaussian",
        AppKind::SobelEdge => "sobel",
    }
}

fn app_from_str(s: &str) -> Result<AppKind> {
    match s {
        "gaussian" => Ok(AppKind::GaussianDenoise),
        "sobel" => Ok(AppKind::SobelEdge),
        other => Err(bad_spec(format!("unknown app `{other}` (expected gaussian|sobel)"))),
    }
}

impl JobSpec {
    /// Encodes the spec as a JSON value.
    pub fn to_json(&self) -> Value {
        json::extend(
            json!({
                "app": app_to_str(self.app),
                "image_size": self.image_size,
                "noise_sigma": self.noise_sigma,
                "seed": self.seed,
                "mbo": self.mbo.to_json(),
            }),
            [
                ("max_error_percent", self.max_error_percent.map(Value::from)),
                ("max_evaluations", self.max_evaluations.map(Value::from)),
                ("deadline_ms", self.deadline_ms.map(Value::from)),
            ],
        )
    }

    /// Decodes a spec, validating its shape.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] for structural problems,
    /// [`ErrorCode::BadSpec`] for well-formed but invalid jobs.
    pub(crate) fn from_json(v: &Value) -> Result<JobSpec> {
        let spec = JobSpec {
            app: app_from_str(json::field(v, "app")?)?,
            image_size: json::field(v, "image_size")?,
            noise_sigma: json::field(v, "noise_sigma")?,
            seed: json::field(v, "seed")?,
            mbo: json::field(v, "mbo")?,
            max_error_percent: json::opt_field(v, "max_error_percent")?,
            max_evaluations: json::opt_field(v, "max_evaluations")?,
            deadline_ms: json::opt_field(v, "deadline_ms")?,
        };
        if spec.image_size < MIN_IMAGE_SIZE || spec.image_size > 4096 {
            return Err(bad_spec(format!(
                "image_size {} outside [{MIN_IMAGE_SIZE}, 4096]",
                spec.image_size
            )));
        }
        if !spec.noise_sigma.is_finite() || spec.noise_sigma < 0.0 {
            return Err(bad_spec("noise_sigma must be finite and non-negative"));
        }
        if spec.mbo.batch == 0 || spec.mbo.candidates == 0 || spec.mbo.initial_samples == 0 {
            return Err(bad_spec("mbo batch, candidates and initial_samples must be positive"));
        }
        for (name, size) in [
            ("initial_samples", spec.mbo.initial_samples),
            ("batch", spec.mbo.batch),
            ("candidates", spec.mbo.candidates),
        ] {
            if size > MAX_PHASE_SIZE {
                return Err(bad_spec(format!("mbo {name} {size} exceeds {MAX_PHASE_SIZE}")));
            }
        }
        if spec.mbo.planned_evaluations().is_none() {
            return Err(bad_spec("mbo initial_samples + iterations * batch overflows"));
        }
        if spec.mbo.reference.len() != 2 {
            return Err(bad_spec("mbo reference must have exactly 2 objectives"));
        }
        Ok(spec)
    }
}

/// Lifecycle state of a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, not yet stepped.
    Queued,
    /// In flight (between phases it sits in the queue but keeps this
    /// state — it is the crash-recovery marker for resumption).
    Running,
    /// Completed; the Pareto front is available.
    Done,
    /// Aborted (evaluation error, bad session, or deadline).
    Failed,
}

impl JobState {
    /// The wire token.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }

    /// Parses a wire token.
    pub(crate) fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            _ => return None,
        })
    }

    /// Whether the job has reached a terminal state.
    pub fn is_terminal(self) -> bool {
        matches!(self, JobState::Done | JobState::Failed)
    }
}

/// A progress snapshot of one job.
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Server-assigned job id.
    pub job: String,
    /// Owning tenant.
    pub tenant: String,
    /// Lifecycle state.
    pub state: JobState,
    /// True evaluations performed so far.
    pub evaluations_done: u64,
    /// Evaluations the (budget-clamped) plan will make in total.
    pub evaluations_planned: u64,
    /// Surrogate iterations completed.
    pub iterations_done: u64,
    /// Hypervolume after the most recent phase.
    pub hypervolume: f64,
    /// Global completion sequence number (terminal states only) —
    /// `finish_seq` of job A < job B means A finished first.
    pub finish_seq: Option<u64>,
    /// Failure detail (failed state only).
    pub error: Option<String>,
}

impl JobStatus {
    /// Encodes the status as a JSON value.
    pub(crate) fn to_json(&self) -> Value {
        json::extend(
            json!({
                "job": self.job.clone(),
                "tenant": self.tenant.clone(),
                "state": self.state.as_str(),
                "evaluations_done": self.evaluations_done,
                "evaluations_planned": self.evaluations_planned,
                "iterations_done": self.iterations_done,
                "hypervolume": self.hypervolume,
            }),
            [
                ("finish_seq", self.finish_seq.map(Value::from)),
                ("error", self.error.clone().map(Value::from)),
            ],
        )
    }

    /// Decodes a status.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] on structural problems.
    pub(crate) fn from_json(v: &Value) -> Result<JobStatus> {
        let state_token: &str = json::field(v, "state")?;
        let state = JobState::parse(state_token)
            .ok_or_else(|| malformed(format!("unknown job state `{state_token}`")))?;
        Ok(JobStatus {
            job: json::field(v, "job")?,
            tenant: json::field(v, "tenant")?,
            state,
            evaluations_done: json::field(v, "evaluations_done")?,
            evaluations_planned: json::field(v, "evaluations_planned")?,
            iterations_done: json::field(v, "iterations_done")?,
            hypervolume: json::field(v, "hypervolume")?,
            finish_seq: json::opt_field(v, "finish_seq")?,
            error: json::opt_field(v, "error")?,
        })
    }
}

/// One Pareto design point in a result reply.
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoEntry {
    /// The configuration (full cross-layer DoF assignment).
    pub config: Configuration,
    /// True application error (%).
    pub error_percent: f64,
    /// True LUT count.
    pub luts: f64,
    /// Whether the point satisfies the job's quality constraint.
    pub feasible: bool,
}

impl ParetoEntry {
    /// Encodes the entry as a JSON value.
    pub(crate) fn to_json(&self) -> Value {
        json!({
            "config": self.config.to_checkpoint_json(),
            "error_percent": self.error_percent,
            "luts": self.luts,
            "feasible": self.feasible,
        })
    }

    /// Decodes an entry.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] on structural problems.
    pub(crate) fn from_json(v: &Value) -> Result<ParetoEntry> {
        let config = Configuration::from_checkpoint_json(json::field(v, "config")?)
            .map_err(|e| malformed(format!("bad pareto config: {e}")))?;
        Ok(ParetoEntry {
            config,
            error_percent: json::field(v, "error_percent")?,
            luts: json::field(v, "luts")?,
            feasible: json::field(v, "feasible")?,
        })
    }
}

/// Aggregate server counters (the `stats` reply).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ServerStats {
    /// Jobs accepted since this process started (recovered jobs
    /// included).
    pub jobs_submitted: u64,
    /// Jobs completed.
    pub jobs_done: u64,
    /// Jobs failed.
    pub jobs_failed: u64,
    /// MBO phases stepped.
    pub steps: u64,
    /// Requests served.
    pub requests: u64,
    /// Structured error replies sent.
    pub protocol_errors: u64,
    /// Result-cache counters summed over the framework pool.
    pub cache: CacheStats,
}

fn cache_to_json(c: &CacheStats) -> Value {
    json!({
        "hits": c.hits,
        "disk_hits": c.disk_hits,
        "misses": c.misses,
        "insertions": c.insertions,
        "evictions": c.evictions,
        "disk_corrupt": c.disk_corrupt,
        "entries": c.entries,
    })
}

fn cache_from_json(v: &Value) -> Result<CacheStats> {
    Ok(CacheStats {
        hits: json::field(v, "hits")?,
        disk_hits: json::field(v, "disk_hits")?,
        misses: json::field(v, "misses")?,
        insertions: json::field(v, "insertions")?,
        evictions: json::field(v, "evictions")?,
        disk_corrupt: json::field(v, "disk_corrupt")?,
        entries: json::field(v, "entries")?,
    })
}

impl ServerStats {
    /// Encodes the stats as a JSON value.
    pub(crate) fn to_json(self) -> Value {
        json!({
            "jobs_submitted": self.jobs_submitted,
            "jobs_done": self.jobs_done,
            "jobs_failed": self.jobs_failed,
            "steps": self.steps,
            "requests": self.requests,
            "protocol_errors": self.protocol_errors,
            "cache": cache_to_json(&self.cache),
        })
    }

    /// Decodes the stats.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] on structural problems.
    pub(crate) fn from_json(v: &Value) -> Result<ServerStats> {
        Ok(ServerStats {
            jobs_submitted: json::field(v, "jobs_submitted")?,
            jobs_done: json::field(v, "jobs_done")?,
            jobs_failed: json::field(v, "jobs_failed")?,
            steps: json::field(v, "steps")?,
            requests: json::field(v, "requests")?,
            protocol_errors: json::field(v, "protocol_errors")?,
            cache: cache_from_json(json::field(v, "cache")?)?,
        })
    }
}

/// A client request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe.
    Ping,
    /// Submit a job for `tenant`.
    Submit {
        /// Tenant name (fairness domain).
        tenant: String,
        /// The job.
        spec: JobSpec,
    },
    /// Progress of one job.
    Status {
        /// Job id.
        job: String,
    },
    /// Final (or partial) Pareto front of one job.
    Result {
        /// Job id.
        job: String,
    },
    /// All job statuses.
    Jobs,
    /// Aggregate server counters.
    Stats,
    /// Graceful drain: checkpoint everything and exit.
    Shutdown,
}

impl Request {
    /// Encodes the request as a JSON value.
    pub(crate) fn to_json(&self) -> Value {
        match self {
            Request::Ping => json!({"op": "ping"}),
            Request::Submit { tenant, spec } => {
                json!({"op": "submit", "tenant": tenant.clone(), "spec": spec.to_json()})
            }
            Request::Status { job } => json!({"op": "status", "job": job.clone()}),
            Request::Result { job } => json!({"op": "result", "job": job.clone()}),
            Request::Jobs => json!({"op": "jobs"}),
            Request::Stats => json!({"op": "stats"}),
            Request::Shutdown => json!({"op": "shutdown"}),
        }
    }

    /// Encodes the request as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }

    /// Decodes a request from a JSON value.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] / [`ErrorCode::BadSpec`] /
    /// [`ErrorCode::UnknownOp`] as appropriate.
    pub(crate) fn from_json(v: &Value) -> Result<Request> {
        match json::field(v, "op")? {
            "ping" => Ok(Request::Ping),
            "submit" => {
                let tenant: String = json::field(v, "tenant")?;
                if tenant.is_empty() {
                    return Err(bad_spec("tenant must be non-empty"));
                }
                Ok(Request::Submit { tenant, spec: JobSpec::from_json(json::field(v, "spec")?)? })
            }
            "status" => Ok(Request::Status { job: json::field(v, "job")? }),
            "result" => Ok(Request::Result { job: json::field(v, "job")? }),
            "jobs" => Ok(Request::Jobs),
            "stats" => Ok(Request::Stats),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(ServeError::Protocol {
                code: ErrorCode::UnknownOp,
                detail: format!("op `{other}`"),
            }),
        }
    }

    /// Decodes a request from one wire line.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] for invalid JSON or a malformed request,
    /// [`ErrorCode::BadSpec`] for an invalid job and
    /// [`ErrorCode::UnknownOp`] for an unknown operation.
    pub fn decode(line: &str) -> Result<Request> {
        let v = serde_json::from_str(line).map_err(|e| malformed(format!("invalid JSON: {e}")))?;
        Request::from_json(&v)
    }
}

/// A server reply.
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// Liveness answer.
    Pong,
    /// Job accepted.
    Submitted {
        /// The assigned job id.
        job: String,
    },
    /// One job's progress.
    Status(JobStatus),
    /// One job's Pareto front (empty until the job completes).
    JobResult {
        /// The job's status at reply time.
        status: JobStatus,
        /// Non-dominated points, search order.
        pareto: Vec<ParetoEntry>,
    },
    /// All job statuses (sorted by job id).
    Jobs(Vec<JobStatus>),
    /// Aggregate counters.
    Stats(ServerStats),
    /// Acknowledged shutdown.
    Bye,
    /// Structured failure.
    Error {
        /// The error code.
        code: ErrorCode,
        /// Human-readable detail.
        detail: String,
    },
}

impl Reply {
    /// Encodes the reply as a JSON value.
    pub(crate) fn to_json(&self) -> Value {
        match self {
            Reply::Pong => json!({"ok": true, "reply": "pong"}),
            Reply::Submitted { job } => {
                json!({"ok": true, "reply": "submitted", "job": job.clone()})
            }
            Reply::Status(status) => json::extend(
                status.to_json(),
                [("ok", Some(Value::Bool(true))), ("reply", Some(Value::from("status")))],
            ),
            Reply::JobResult { status, pareto } => {
                let entries: Vec<Value> = pareto.iter().map(ParetoEntry::to_json).collect();
                json!({
                    "ok": true,
                    "reply": "result",
                    "status": status.to_json(),
                    "pareto": entries,
                })
            }
            Reply::Jobs(statuses) => {
                let entries: Vec<Value> = statuses.iter().map(JobStatus::to_json).collect();
                json!({"ok": true, "reply": "jobs", "jobs": entries})
            }
            Reply::Stats(stats) => json::extend(
                stats.to_json(),
                [("ok", Some(Value::Bool(true))), ("reply", Some(Value::from("stats")))],
            ),
            Reply::Bye => json!({"ok": true, "reply": "bye"}),
            Reply::Error { code, detail } => {
                json!({"ok": false, "error": code.as_str(), "detail": detail.clone()})
            }
        }
    }

    /// Encodes the reply as one wire line (no trailing newline).
    pub fn encode(&self) -> String {
        self.to_json().to_string()
    }

    /// Decodes a reply from a JSON value.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] on structural problems.
    pub(crate) fn from_json(v: &Value) -> Result<Reply> {
        if !json::field::<bool>(v, "ok")? {
            let token: &str = json::field(v, "error")?;
            let code = ErrorCode::parse(token)
                .ok_or_else(|| malformed(format!("unknown error code `{token}`")))?;
            return Ok(Reply::Error {
                code,
                detail: json::opt_field(v, "detail")?.unwrap_or_default(),
            });
        }
        match json::field(v, "reply")? {
            "pong" => Ok(Reply::Pong),
            "submitted" => Ok(Reply::Submitted { job: json::field(v, "job")? }),
            "status" => Ok(Reply::Status(JobStatus::from_json(v)?)),
            "result" => {
                let pareto = json::field::<&[Value]>(v, "pareto")?
                    .iter()
                    .map(ParetoEntry::from_json)
                    .collect::<Result<Vec<ParetoEntry>>>()?;
                let status = JobStatus::from_json(json::field(v, "status")?)?;
                Ok(Reply::JobResult { status, pareto })
            }
            "jobs" => {
                let jobs = json::field::<&[Value]>(v, "jobs")?
                    .iter()
                    .map(JobStatus::from_json)
                    .collect::<Result<Vec<JobStatus>>>()?;
                Ok(Reply::Jobs(jobs))
            }
            "stats" => Ok(Reply::Stats(ServerStats::from_json(v)?)),
            "bye" => Ok(Reply::Bye),
            other => Err(malformed(format!("unknown reply `{other}`"))),
        }
    }

    /// Decodes a reply from one wire line.
    ///
    /// # Errors
    ///
    /// [`ErrorCode::Malformed`] for invalid JSON or a malformed reply.
    pub fn decode(line: &str) -> Result<Reply> {
        let v = serde_json::from_str(line).map_err(|e| malformed(format!("invalid JSON: {e}")))?;
        Reply::from_json(&v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_lines_round_trip() {
        let reqs = vec![
            Request::Ping,
            Request::Submit {
                tenant: "acme".to_string(),
                spec: JobSpec {
                    max_error_percent: Some(7.5),
                    max_evaluations: Some(40),
                    deadline_ms: Some(60_000),
                    ..JobSpec::default()
                },
            },
            Request::Status { job: "j7".to_string() },
            Request::Result { job: "j7".to_string() },
            Request::Jobs,
            Request::Stats,
            Request::Shutdown,
        ];
        for req in reqs {
            let line = req.encode();
            assert!(!line.contains('\n'), "one line per message: {line}");
            assert_eq!(Request::decode(&line).unwrap(), req);
        }
    }

    #[test]
    fn error_replies_carry_structured_codes() {
        for code in [
            ErrorCode::Malformed,
            ErrorCode::Oversized,
            ErrorCode::Timeout,
            ErrorCode::UnknownOp,
            ErrorCode::UnknownJob,
            ErrorCode::BadSpec,
            ErrorCode::ShuttingDown,
        ] {
            let reply = Reply::Error { code, detail: "why".to_string() };
            assert_eq!(Reply::decode(&reply.encode()).unwrap(), reply);
            assert_eq!(ErrorCode::parse(code.as_str()), Some(code));
        }
    }

    #[test]
    fn malformed_inputs_are_structured_not_panics() {
        assert!(matches!(
            Request::decode("{not json"),
            Err(ServeError::Protocol { code: ErrorCode::Malformed, .. })
        ));
        assert!(matches!(
            Request::decode("{\"op\":\"launch-missiles\"}"),
            Err(ServeError::Protocol { code: ErrorCode::UnknownOp, .. })
        ));
        assert!(matches!(
            Request::decode("{\"op\":\"status\"}"),
            Err(ServeError::Protocol { code: ErrorCode::Malformed, .. })
        ));
        // Structurally fine, semantically bad: image_size of zero.
        let mut spec = JobSpec::default().to_json();
        if let Some(map) = spec.as_object_mut() {
            map.insert("image_size".to_string(), json!(0u64));
        }
        let line = json!({"op": "submit", "tenant": "t", "spec": spec}).to_string();
        assert!(matches!(
            Request::decode(&line),
            Err(ServeError::Protocol { code: ErrorCode::BadSpec, .. })
        ));
    }

    #[test]
    fn f64_fields_survive_the_wire_bit_exactly() {
        let awkward = [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 12345.678901234567];
        for &x in &awkward {
            let status = JobStatus {
                job: "j1".to_string(),
                tenant: "t".to_string(),
                state: JobState::Running,
                evaluations_done: 3,
                evaluations_planned: 12,
                iterations_done: 1,
                hypervolume: x,
                finish_seq: None,
                error: None,
            };
            let reply = Reply::Status(status.clone());
            let Reply::Status(decoded) = Reply::decode(&reply.encode()).unwrap() else {
                panic!("wrong variant");
            };
            assert_eq!(decoded.hypervolume.to_bits(), x.to_bits());
        }
    }
}
