//! The daemon: listener, connection handling, and worker shards.
//!
//! One listener thread accepts connections (TCP or Unix domain socket)
//! and spawns a handler per connection; `workers` shard threads drain
//! the fair queue, each stepping one MBO phase per scheduling quantum
//! so no tenant's campaign monopolizes a shard. All mutable state lives
//! behind one mutex ([`Core`]) plus a condvar for worker wakeups; the
//! expensive immutable halves — [`Clapped`] instances — are pooled by
//! [`ClappedConfig::digest`] and shared across jobs with the same
//! recipe.
//!
//! # Crash safety
//!
//! Every phase boundary persists the session checkpoint and then the
//! job record, both via tmp-file + atomic rename. A `kill -9` at any
//! instant therefore loses at most the phase in flight: on restart the
//! server reloads the records, re-enqueues every non-terminal job and
//! resumes each from its last checkpoint — bit-exactly, because the
//! checkpoint embeds the RNG word position and the evaluation log, and
//! evaluations are content-addressed in the result cache (a re-run
//! phase replays from disk instead of recomputing).

use crate::jobstore::JobStore;
use crate::protocol::{
    ErrorCode, JobSpec, JobState, JobStatus, ParetoEntry, Reply, Request, ServerStats,
    DEFAULT_MAX_REQUEST_BYTES,
};
use crate::queue::FairQueue;
use crate::{Result, ServeError};
use clapped_core::{Clapped, ClappedConfig, ExecConfig, Session, SessionSpec};
use clapped_exec::{json, CacheStats};
use clapped_obs::{emit_event, Deadline};
use serde_json::{json, Value};
use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread;
use std::time::Duration;

/// Where the daemon listens.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Listen {
    /// A TCP address, e.g. `127.0.0.1:7878` (`:0` picks a free port;
    /// [`Server::listen_addr`] reports the resolved address).
    Tcp(String),
    /// A Unix domain socket path (created on start, removed on bind if
    /// it already exists).
    Uds(PathBuf),
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Where to listen.
    pub listen: Listen,
    /// State directory: job records and checkpoints.
    pub state_dir: PathBuf,
    /// Shared on-disk result cache (optional). Pointing several
    /// daemons at one directory shares warm evaluations across
    /// processes.
    pub cache_dir: Option<PathBuf>,
    /// Worker shard threads stepping jobs.
    pub workers: usize,
    /// Per-connection read timeout (milliseconds).
    pub read_timeout_ms: u64,
    /// Upper bound on one request line (bytes).
    pub max_request_bytes: usize,
    /// Evaluation threads per framework engine. Keep the product
    /// `workers * exec_jobs` near the host's parallelism.
    pub exec_jobs: usize,
}

impl ServerConfig {
    /// A configuration with conservative defaults: 2 worker shards,
    /// serial evaluation engines, 10 s read timeout, 1 MiB requests.
    pub fn new(listen: Listen, state_dir: impl Into<PathBuf>) -> ServerConfig {
        ServerConfig {
            listen,
            state_dir: state_dir.into(),
            cache_dir: None,
            workers: 2,
            read_timeout_ms: 10_000,
            max_request_bytes: DEFAULT_MAX_REQUEST_BYTES,
            exec_jobs: 1,
        }
    }
}

/// One job's full server-side record.
#[derive(Debug, Clone)]
struct JobRecord {
    id: String,
    seq: u64,
    tenant: String,
    spec: JobSpec,
    state: JobState,
    evaluations_done: u64,
    evaluations_planned: u64,
    iterations_done: u64,
    hypervolume: f64,
    finish_seq: Option<u64>,
    error: Option<String>,
    pareto: Vec<ParetoEntry>,
    /// Armed at submission (re-armed at recovery) from
    /// `spec.deadline_ms`.
    deadline: Deadline,
}

impl JobRecord {
    fn status(&self) -> JobStatus {
        JobStatus {
            job: self.id.clone(),
            tenant: self.tenant.clone(),
            state: self.state,
            evaluations_done: self.evaluations_done,
            evaluations_planned: self.evaluations_planned,
            iterations_done: self.iterations_done,
            hypervolume: self.hypervolume,
            finish_seq: self.finish_seq,
            error: self.error.clone(),
        }
    }

    fn to_json(&self) -> Value {
        json::extend(
            json!({
                "id": self.id.clone(),
                "seq": self.seq,
                "tenant": self.tenant.clone(),
                "spec": self.spec.to_json(),
                "state": self.state.as_str(),
                "evaluations_done": self.evaluations_done,
                "evaluations_planned": self.evaluations_planned,
                "iterations_done": self.iterations_done,
                "hypervolume": self.hypervolume,
                "pareto": self.pareto.iter().map(ParetoEntry::to_json).collect::<Vec<_>>(),
            }),
            [
                ("finish_seq", self.finish_seq.map(Value::from)),
                ("error", self.error.clone().map(Value::from)),
            ],
        )
    }

    /// Decodes a persisted record. Identity, state and spec are
    /// required; progress, outcome and front are advisory — an absent
    /// or mistyped value reads as unset.
    fn from_json(v: &Value) -> Result<JobRecord> {
        let decode = || -> Result<JobRecord> {
            let state_token: &str = json::field(v, "state")?;
            let state = JobState::parse(state_token)
                .ok_or_else(|| ServeError::State(format!("unknown state `{state_token}`")))?;
            let spec = JobSpec::from_json(json::field(v, "spec")?)?;
            let pareto = json::opt_field::<&[Value]>(v, "pareto")
                .ok()
                .flatten()
                .unwrap_or_default()
                .iter()
                .map(ParetoEntry::from_json)
                .collect::<Result<Vec<ParetoEntry>>>()?;
            let deadline = Deadline::from_budget(spec.deadline_ms.map(Duration::from_millis));
            let counter = |key| json::opt_field::<u64>(v, key).ok().flatten();
            Ok(JobRecord {
                id: json::field(v, "id")?,
                seq: json::field(v, "seq")?,
                tenant: json::field(v, "tenant")?,
                spec,
                state,
                evaluations_done: counter("evaluations_done").unwrap_or(0),
                evaluations_planned: counter("evaluations_planned").unwrap_or(0),
                iterations_done: counter("iterations_done").unwrap_or(0),
                hypervolume: json::opt_field(v, "hypervolume").ok().flatten().unwrap_or(0.0),
                finish_seq: counter("finish_seq"),
                error: json::opt_field(v, "error").ok().flatten(),
                pareto,
                deadline,
            })
        };
        decode().map_err(|e| ServeError::State(format!("job record: {e}")))
    }
}

/// Mutable server state, guarded by one mutex.
#[derive(Debug, Default)]
struct Core {
    queue: FairQueue,
    jobs: BTreeMap<String, JobRecord>,
    next_seq: u64,
    next_finish: u64,
    shutting_down: bool,
}

/// Everything the listener, connections and workers share.
struct Shared {
    config: ServerConfig,
    core: Mutex<Core>,
    work: Condvar,
    /// In-flight exploration sessions, keyed by job id. A job id is in
    /// at most one place at a time — the queue or a worker's hands — so
    /// entries are removed while being stepped.
    sessions: Mutex<BTreeMap<String, Session>>,
    /// Framework instances pooled by recipe digest: jobs with the same
    /// recipe share an instance, its caches and its operator library.
    pools: Mutex<BTreeMap<u64, Arc<Clapped>>>,
    store: JobStore,
    requests: AtomicU64,
    protocol_errors: AtomicU64,
    steps: AtomicU64,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    fn framework_config(&self, spec: &JobSpec) -> ClappedConfig {
        let mut builder = Clapped::builder()
            .application(spec.app)
            .image_size(spec.image_size)
            .noise_sigma(spec.noise_sigma)
            .seed(spec.seed)
            .exec(ExecConfig::with_jobs(self.config.exec_jobs.max(1)));
        if let Some(dir) = &self.config.cache_dir {
            builder = builder.disk_cache(dir.clone());
        }
        builder.into_config()
    }

    /// Gets or builds the pooled framework for a recipe. Building
    /// happens inside the pool lock so two workers racing on the same
    /// recipe do not duplicate the (expensive) instantiation.
    fn framework_for(&self, spec: &JobSpec) -> Result<Arc<Clapped>> {
        let config = self.framework_config(spec);
        let digest = config.digest();
        let mut pools = lock(&self.pools);
        if let Some(fw) = pools.get(&digest) {
            return Ok(Arc::clone(fw));
        }
        let fw = Arc::new(config.instantiate()?);
        pools.insert(digest, Arc::clone(&fw));
        Ok(fw)
    }

    fn session_spec(spec: &JobSpec) -> SessionSpec {
        SessionSpec {
            mbo: spec.mbo.clone(),
            max_evaluations: spec.max_evaluations,
            ..SessionSpec::default()
        }
    }

    fn persist_record(&self, record: &JobRecord) {
        if let Err(e) = self.store.save_job(&record.id, &record.to_json()) {
            emit_event(
                "serve.store_error",
                &[("job", &record.id), ("detail", &e.to_string())],
                &[],
            );
        }
    }

    fn emit_job_event(&self, record: &JobRecord) {
        emit_event(
            "serve.job",
            &[
                ("job", &record.id),
                ("tenant", &record.tenant),
                ("state", record.state.as_str()),
            ],
            &[
                ("evals", record.evaluations_done as f64),
                ("hv", record.hypervolume),
            ],
        );
    }

    fn stats(&self) -> ServerStats {
        let (submitted, done, failed) = {
            let core = lock(&self.core);
            let done = core.jobs.values().filter(|r| r.state == JobState::Done).count() as u64;
            let failed = core.jobs.values().filter(|r| r.state == JobState::Failed).count() as u64;
            (core.jobs.len() as u64, done, failed)
        };
        let mut cache = CacheStats::default();
        for fw in lock(&self.pools).values() {
            let s = fw.cache_stats();
            cache.hits += s.hits;
            cache.disk_hits += s.disk_hits;
            cache.misses += s.misses;
            cache.insertions += s.insertions;
            cache.evictions += s.evictions;
            cache.disk_corrupt += s.disk_corrupt;
            cache.lock_contention += s.lock_contention;
            cache.entries += s.entries;
        }
        ServerStats {
            jobs_submitted: submitted,
            jobs_done: done,
            jobs_failed: failed,
            steps: self.steps.load(Ordering::Relaxed),
            requests: self.requests.load(Ordering::Relaxed),
            protocol_errors: self.protocol_errors.load(Ordering::Relaxed),
            cache,
        }
    }
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

fn handle_request(shared: &Arc<Shared>, request: Request) -> Reply {
    shared.requests.fetch_add(1, Ordering::Relaxed);
    match request {
        Request::Ping => Reply::Pong,
        Request::Submit { tenant, spec } => {
            let record = {
                let mut core = lock(&shared.core);
                if core.shutting_down {
                    return Reply::Error {
                        code: ErrorCode::ShuttingDown,
                        detail: "server is draining; resubmit after restart".to_string(),
                    };
                }
                let seq = core.next_seq;
                core.next_seq += 1;
                let id = format!("j{seq}");
                let deadline =
                    Deadline::from_budget(spec.deadline_ms.map(Duration::from_millis));
                // The budget-clamped plan the session will run; `from_json`
                // already rejected plans that overflow.
                let planned = Shared::session_spec(&spec).planned_evaluations().unwrap_or(0);
                let record = JobRecord {
                    id: id.clone(),
                    seq,
                    tenant: tenant.clone(),
                    spec,
                    state: JobState::Queued,
                    evaluations_done: 0,
                    evaluations_planned: planned as u64,
                    iterations_done: 0,
                    hypervolume: 0.0,
                    finish_seq: None,
                    error: None,
                    pareto: Vec::new(),
                    deadline,
                };
                core.jobs.insert(id.clone(), record.clone());
                core.queue.push(&tenant, id);
                record
            };
            shared.persist_record(&record);
            shared.emit_job_event(&record);
            shared.work.notify_all();
            Reply::Submitted { job: record.id }
        }
        Request::Status { job } => match lock(&shared.core).jobs.get(&job) {
            Some(record) => Reply::Status(record.status()),
            None => unknown_job(&job),
        },
        Request::Result { job } => match lock(&shared.core).jobs.get(&job) {
            Some(record) => Reply::JobResult {
                status: record.status(),
                pareto: record.pareto.clone(),
            },
            None => unknown_job(&job),
        },
        Request::Jobs => {
            let core = lock(&shared.core);
            let mut records: Vec<&JobRecord> = core.jobs.values().collect();
            records.sort_by_key(|r| r.seq);
            Reply::Jobs(records.into_iter().map(JobRecord::status).collect())
        }
        Request::Stats => Reply::Stats(shared.stats()),
        Request::Shutdown => {
            lock(&shared.core).shutting_down = true;
            shared.work.notify_all();
            Reply::Bye
        }
    }
}

fn unknown_job(job: &str) -> Reply {
    Reply::Error {
        code: ErrorCode::UnknownJob,
        detail: format!("no job `{job}`"),
    }
}

// ---------------------------------------------------------------------------
// Worker shards
// ---------------------------------------------------------------------------

fn worker_loop(shared: Arc<Shared>) {
    loop {
        let job_id = {
            let mut core = lock(&shared.core);
            loop {
                if core.shutting_down {
                    return;
                }
                if let Some((_tenant, id)) = core.queue.pop() {
                    if let Some(record) = core.jobs.get_mut(&id) {
                        record.state = JobState::Running;
                    }
                    break id;
                }
                let (guard, _timeout) = shared
                    .work
                    .wait_timeout(core, Duration::from_millis(250))
                    .unwrap_or_else(PoisonError::into_inner);
                core = guard;
            }
        };
        step_job(&shared, &job_id);
    }
}

/// Runs one MBO phase of `job_id` and persists the outcome. The job is
/// re-enqueued unless it reached a terminal state.
fn step_job(shared: &Arc<Shared>, job_id: &str) {
    let Some((spec, tenant, deadline)) = ({
        let core = lock(&shared.core);
        core.jobs.get(job_id).map(|r| (r.spec.clone(), r.tenant.clone(), r.deadline))
    }) else {
        return;
    };

    if deadline.expired() {
        finalize(shared, job_id, None, Err("deadline exceeded".to_string()));
        return;
    }

    // Take (or build) the session. Framework instantiation and session
    // resume run outside the core lock: they are the expensive path.
    let mut session = match lock(&shared.sessions).remove(job_id) {
        Some(s) => s,
        None => match open_session(shared, job_id, &spec) {
            Ok(s) => s,
            Err(e) => {
                finalize(shared, job_id, None, Err(format!("session open: {e}")));
                return;
            }
        },
    };

    let step = session.step();
    shared.steps.fetch_add(1, Ordering::Relaxed);
    match step {
        Err(e) => finalize(shared, job_id, Some(session), Err(format!("step: {e}"))),
        Ok(complete) => {
            // Checkpoint BEFORE the record: if we die between the two, the
            // checkpoint is ahead of the record, and resume trusts the
            // checkpoint (progress is recomputed from it).
            if let Err(e) = shared.store.save_checkpoint(job_id, &session.checkpoint()) {
                finalize(shared, job_id, Some(session), Err(format!("checkpoint: {e}")));
                return;
            }
            if complete {
                finalize(shared, job_id, Some(session), Ok(()));
            } else {
                let progress = session.progress();
                lock(&shared.sessions).insert(job_id.to_string(), session);
                let record = {
                    let mut core = lock(&shared.core);
                    let Some(record) = core.jobs.get_mut(job_id) else { return };
                    record.evaluations_done = progress.evaluations_done as u64;
                    record.evaluations_planned = progress.evaluations_planned as u64;
                    record.iterations_done = progress.iterations_done as u64;
                    record.hypervolume = progress.hypervolume;
                    let record = record.clone();
                    core.queue.push(&tenant, job_id.to_string());
                    record
                };
                shared.persist_record(&record);
                shared.emit_job_event(&record);
                shared.work.notify_all();
            }
        }
    }
}

fn open_session(shared: &Arc<Shared>, job_id: &str, spec: &JobSpec) -> Result<Session> {
    let fw = shared.framework_for(spec)?;
    let session_spec = Shared::session_spec(spec);
    let session = match shared.store.load_checkpoint(job_id) {
        Some(checkpoint) => Session::resume(fw, &checkpoint, &session_spec)?,
        None => Session::new(fw, &session_spec)?,
    };
    Ok(session)
}

/// Moves a job to a terminal state: `Ok` completes it with its Pareto
/// front, `Err` fails it with the reason.
fn finalize(
    shared: &Arc<Shared>,
    job_id: &str,
    session: Option<Session>,
    outcome: std::result::Result<(), String>,
) {
    let pareto: Vec<ParetoEntry> = match (&outcome, &session) {
        (Ok(()), Some(session)) => {
            let limit = {
                let core = lock(&shared.core);
                core.jobs.get(job_id).and_then(|r| r.spec.max_error_percent)
            };
            session
                .pareto()
                .into_iter()
                .map(|p| ParetoEntry {
                    error_percent: p.searched[0],
                    luts: p.searched[1],
                    feasible: limit.is_none_or(|l| p.searched[0] <= l),
                    config: p.config,
                })
                .collect()
        }
        _ => Vec::new(),
    };
    let progress = session.as_ref().map(|s| s.progress());
    let record = {
        let mut core = lock(&shared.core);
        let finish = core.next_finish;
        core.next_finish += 1;
        let Some(record) = core.jobs.get_mut(job_id) else { return };
        if let Some(p) = progress {
            record.evaluations_done = p.evaluations_done as u64;
            record.evaluations_planned = p.evaluations_planned as u64;
            record.iterations_done = p.iterations_done as u64;
            record.hypervolume = p.hypervolume;
        }
        match outcome {
            Ok(()) => record.state = JobState::Done,
            Err(reason) => {
                record.state = JobState::Failed;
                record.error = Some(reason);
            }
        }
        record.finish_seq = Some(finish);
        record.pareto = pareto;
        record.clone()
    };
    shared.persist_record(&record);
    shared.store.remove_checkpoint(job_id);
    shared.emit_job_event(&record);
}

// ---------------------------------------------------------------------------
// Connections
// ---------------------------------------------------------------------------

enum Conn {
    Tcp(TcpStream),
    Uds(UnixStream),
}

impl Conn {
    fn set_read_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(Some(timeout)),
            Conn::Uds(s) => s.set_read_timeout(Some(timeout)),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Uds(s) => s.write(buf),
        }
    }
    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Uds(s) => s.flush(),
        }
    }
}

/// What one attempt to read a request line produced.
enum LineOutcome {
    /// A complete line (newline stripped).
    Line(String),
    /// Clean end of stream (no buffered partial line).
    Eof,
    /// A protocol violation to answer with a structured error, then
    /// close.
    Violation(ErrorCode, String),
}

/// Reads newline-delimited lines with a hard byte cap.
struct LineReader {
    pending: Vec<u8>,
    cap: usize,
}

impl LineReader {
    fn new(cap: usize) -> LineReader {
        LineReader { pending: Vec::new(), cap }
    }

    fn next_line(&mut self, conn: &mut Conn) -> LineOutcome {
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(pos) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(pos + 1);
                let mut line = std::mem::replace(&mut self.pending, rest);
                line.pop(); // the newline
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return match String::from_utf8(line) {
                    Ok(s) => LineOutcome::Line(s),
                    Err(_) => LineOutcome::Violation(
                        ErrorCode::Malformed,
                        "request is not valid UTF-8".to_string(),
                    ),
                };
            }
            if self.pending.len() > self.cap {
                return LineOutcome::Violation(
                    ErrorCode::Oversized,
                    format!("request exceeds {} bytes", self.cap),
                );
            }
            match conn.read(&mut chunk) {
                Ok(0) => {
                    return if self.pending.is_empty() {
                        LineOutcome::Eof
                    } else {
                        LineOutcome::Violation(
                            ErrorCode::Malformed,
                            "connection half-closed mid-request".to_string(),
                        )
                    };
                }
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return LineOutcome::Violation(
                        ErrorCode::Timeout,
                        "connection idle past the read timeout".to_string(),
                    );
                }
                Err(_) => return LineOutcome::Eof,
            }
        }
    }
}

fn write_reply(conn: &mut Conn, reply: &Reply) -> std::io::Result<()> {
    let mut line = reply.encode();
    line.push('\n');
    conn.write_all(line.as_bytes())?;
    conn.flush()
}

fn handle_connection(shared: Arc<Shared>, mut conn: Conn) {
    let _ = conn.set_read_timeout(Duration::from_millis(shared.config.read_timeout_ms.max(1)));
    let mut reader = LineReader::new(shared.config.max_request_bytes);
    loop {
        match reader.next_line(&mut conn) {
            LineOutcome::Eof => return,
            LineOutcome::Violation(code, detail) => {
                shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                let _ = write_reply(&mut conn, &Reply::Error { code, detail });
                return;
            }
            LineOutcome::Line(line) => {
                let reply = match Request::decode(&line) {
                    Ok(request) => handle_request(&shared, request),
                    Err(ServeError::Protocol { code, detail })
                    | Err(ServeError::Remote { code, detail }) => {
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        Reply::Error { code, detail }
                    }
                    Err(e) => {
                        shared.protocol_errors.fetch_add(1, Ordering::Relaxed);
                        Reply::Error {
                            code: ErrorCode::Malformed,
                            detail: e.to_string(),
                        }
                    }
                };
                if write_reply(&mut conn, &reply).is_err() {
                    return;
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Listener + lifecycle
// ---------------------------------------------------------------------------

enum Acceptor {
    Tcp(TcpListener),
    Uds(UnixListener),
}

impl Acceptor {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Acceptor::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            Acceptor::Uds(l) => l.accept().map(|(s, _)| Conn::Uds(s)),
        }
    }
}

fn listener_loop(shared: Arc<Shared>, acceptor: Acceptor) {
    loop {
        if lock(&shared.core).shutting_down {
            return;
        }
        match acceptor.accept() {
            Ok(conn) => {
                let shared = Arc::clone(&shared);
                thread::spawn(move || handle_connection(shared, conn));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }
}

/// A running daemon. Dropping the handle does **not** stop it; call
/// [`Server::shutdown`] (or send the `shutdown` op) and then
/// [`Server::join`].
pub struct Server {
    shared: Arc<Shared>,
    listen_addr: Listen,
    listener: Option<thread::JoinHandle<()>>,
    workers: Vec<thread::JoinHandle<()>>,
}

impl Server {
    /// Binds the socket, recovers persisted jobs, and starts the
    /// listener and worker shards. Returns once the daemon is
    /// accepting connections.
    ///
    /// # Errors
    ///
    /// Propagates bind and state-directory failures.
    pub fn start(config: ServerConfig) -> Result<Server> {
        let store = JobStore::open(&config.state_dir)?;
        let workers = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            core: Mutex::new(Core::default()),
            work: Condvar::new(),
            sessions: Mutex::new(BTreeMap::new()),
            pools: Mutex::new(BTreeMap::new()),
            store,
            requests: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            steps: AtomicU64::new(0),
        });
        recover(&shared)?;

        let (acceptor, listen_addr) = match &shared.config.listen {
            Listen::Tcp(addr) => {
                let listener = TcpListener::bind(addr.as_str())?;
                listener.set_nonblocking(true)?;
                let resolved = listener.local_addr()?.to_string();
                (Acceptor::Tcp(listener), Listen::Tcp(resolved))
            }
            Listen::Uds(path) => {
                if path.exists() {
                    let _ = std::fs::remove_file(path);
                }
                let listener = UnixListener::bind(path)?;
                listener.set_nonblocking(true)?;
                (Acceptor::Uds(listener), Listen::Uds(path.clone()))
            }
        };

        let worker_handles = (0..workers)
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(shared))
            })
            .collect();
        let listener_handle = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || listener_loop(shared, acceptor))
        };
        Ok(Server {
            shared,
            listen_addr,
            listener: Some(listener_handle),
            workers: worker_handles,
        })
    }

    /// The resolved listen address (for `Tcp("…:0")` this carries the
    /// kernel-assigned port).
    pub fn listen_addr(&self) -> &Listen {
        &self.listen_addr
    }

    /// Aggregate counters, equivalent to the `stats` op.
    pub fn stats(&self) -> ServerStats {
        self.shared.stats()
    }

    /// Initiates a graceful drain: workers finish the phase in flight,
    /// checkpoint, and exit; queued jobs stay persisted for the next
    /// start.
    pub fn shutdown(&self) {
        lock(&self.shared.core).shutting_down = true;
        self.shared.work.notify_all();
    }

    /// Waits for the listener and worker shards to exit (after
    /// [`Server::shutdown`] or a remote `shutdown` op). Connection
    /// handler threads are detached and die with their sockets.
    pub fn join(mut self) {
        if let Some(handle) = self.listener.take() {
            let _ = handle.join();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
        if let Listen::Uds(path) = &self.listen_addr {
            let _ = std::fs::remove_file(path);
        }
    }
}

/// Reloads persisted jobs: terminal records are kept for queries,
/// non-terminal ones are re-enqueued to resume from their latest
/// checkpoint. Deadlines re-arm relative to the restart (the original
/// submission instant is deliberately not persisted — wall-clock reads
/// stay confined to `clapped-obs`).
fn recover(shared: &Arc<Shared>) -> Result<()> {
    let records = shared.store.load_jobs()?;
    let mut core = lock(&shared.core);
    for value in records {
        let Ok(mut record) = JobRecord::from_json(&value) else { continue };
        core.next_seq = core.next_seq.max(record.seq + 1);
        if let Some(f) = record.finish_seq {
            core.next_finish = core.next_finish.max(f + 1);
        }
        if !record.state.is_terminal() {
            record.state = JobState::Queued;
            core.queue.push(&record.tenant.clone(), record.id.clone());
        }
        core.jobs.insert(record.id.clone(), record);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_dse::Configuration;
    use clapped_exec::Fnv64;
    use proptest::prelude::*;

    /// `Fnv64` digest of the persisted form of [`record`]; any codec
    /// change that moves a byte of a job record fails the pin.
    const PINNED_RECORD: u64 = 14166864834871863941;

    /// Bytes a corruption draws from half of the time: the JSON
    /// grammar's structural characters, so mutations reach the field
    /// readers instead of stopping at the parser.
    const GRAMMAR: &[u8] = b"0123456789-+.eE\"{}[],: ntfrul\\";

    fn record() -> JobRecord {
        let spec = JobSpec {
            max_error_percent: Some(7.5),
            deadline_ms: Some(60_000),
            ..JobSpec::default()
        };
        let mut config = Configuration::golden(3);
        config.mul_indices[4] = 2;
        JobRecord {
            id: "j3".to_string(),
            seq: 3,
            tenant: "acme".to_string(),
            spec,
            state: JobState::Failed,
            evaluations_done: 31,
            evaluations_planned: 40,
            iterations_done: 2,
            hypervolume: 1.0 / 7.0,
            finish_seq: Some(1),
            error: Some("deadline exceeded".to_string()),
            pareto: vec![ParetoEntry { config, error_percent: 2.5, luts: 321.0, feasible: true }],
            deadline: Deadline::from_budget(None),
        }
    }

    fn decode(text: &str) -> Result<JobRecord> {
        let value = serde_json::from_str(text).map_err(|e| ServeError::State(e.to_string()))?;
        JobRecord::from_json(&value)
    }

    #[test]
    fn job_record_bytes_are_pinned() {
        let text = record().to_json().to_string();
        let mut h = Fnv64::new();
        h.write(text.as_bytes());
        assert_eq!(h.finish(), PINNED_RECORD, "job record format moved:\n{text}");
        let back = decode(&text).unwrap_or_else(|e| panic!("record decodes: {e}"));
        assert_eq!(back.to_json().to_string(), text);
    }

    #[test]
    fn every_truncated_job_record_is_rejected() {
        let text = record().to_json().to_string();
        let text = text.trim();
        for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
            assert!(decode(&text[..cut]).is_err(), "prefix of {cut} bytes decoded");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn corrupted_job_records_never_panic(
            position in any::<usize>(),
            byte in any::<u8>(),
            grammar in any::<bool>(),
        ) {
            let mut bytes = record().to_json().to_string().into_bytes();
            let at = position % bytes.len();
            bytes[at] = if grammar { GRAMMAR[usize::from(byte) % GRAMMAR.len()] } else { byte };
            let _ = decode(&String::from_utf8_lossy(&bytes));
        }
    }
}
