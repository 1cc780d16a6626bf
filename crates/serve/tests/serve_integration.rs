//! End-to-end daemon tests: crash recovery, fairness, cross-process
//! cache warmth, and protocol robustness over real sockets.

use clapped_core::{Clapped, Session, SessionSpec};
use clapped_dse::MboConfig;
use clapped_obs::Deadline;
use clapped_serve::{
    Client, ErrorCode, JobSpec, JobState, Listen, Server, ServerConfig, ServeError,
};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::thread;
use std::time::Duration;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("clapped_serve_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

fn small_mbo(seed: u64, iterations: usize) -> MboConfig {
    MboConfig {
        initial_samples: 6,
        iterations,
        batch: 3,
        candidates: 10,
        reference: vec![40.0, 5000.0],
        kappa: 1.0,
        explore_fraction: 0.1,
        seed,
    }
}

fn job_spec(seed: u64, iterations: usize) -> JobSpec {
    JobSpec {
        image_size: 16,
        noise_sigma: 12.0,
        seed: 1,
        mbo: small_mbo(seed, iterations),
        max_error_percent: Some(20.0),
        ..JobSpec::default()
    }
}

/// The front the daemon must reproduce: the same spec explored
/// in-process on a fresh framework (no disk cache, default engine).
fn reference_front(spec: &JobSpec) -> Vec<(clapped_dse::Configuration, u64, u64)> {
    let fw = Arc::new(
        Clapped::builder()
            .application(spec.app)
            .image_size(spec.image_size)
            .noise_sigma(spec.noise_sigma)
            .seed(spec.seed)
            .build()
            .expect("build reference framework"),
    );
    let session_spec = SessionSpec {
        mbo: spec.mbo.clone(),
        max_evaluations: spec.max_evaluations,
        ..SessionSpec::default()
    };
    let mut session = Session::new(fw, &session_spec).expect("open reference session");
    while !session.step().expect("step reference session") {}
    session
        .pareto()
        .into_iter()
        .map(|p| (p.config, p.searched[0].to_bits(), p.searched[1].to_bits()))
        .collect()
}

// ---------------------------------------------------------------------------
// kill -9 and bit-exact resume
// ---------------------------------------------------------------------------

struct Daemon {
    child: Child,
}

impl Daemon {
    fn spawn(socket: &Path, state: &Path, cache: &Path) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_clapped_serve"))
            .args([
                "--uds",
                &socket.display().to_string(),
                "--state-dir",
                &state.display().to_string(),
                "--cache-dir",
                &cache.display().to_string(),
                "--workers",
                "2",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn clapped_serve");
        // The readiness line is printed after the socket is bound.
        let stdout = child.stdout.take().expect("child stdout");
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).expect("read readiness line");
        assert!(line.starts_with("listening on uds"), "unexpected readiness line: {line}");
        Daemon { child }
    }

    fn kill_hard(&mut self) {
        // On unix `Child::kill` delivers SIGKILL: no destructors, no
        // flushes — the crash the checkpoint discipline must survive.
        self.child.kill().expect("kill daemon");
        let _ = self.child.wait();
    }
}

#[test]
fn kill_dash_nine_resumes_every_job_bit_exactly() {
    let root = temp_dir("kill");
    let socket = root.join("serve.sock");
    let state = root.join("state");
    let cache = root.join("cache");

    let specs: Vec<JobSpec> = (0..3).map(|i| job_spec(100 + i, 6)).collect();

    let mut daemon = Daemon::spawn(&socket, &state, &cache);
    let listen = Listen::Uds(socket.clone());
    let mut client = Client::connect(&listen).expect("connect");
    client.ping().expect("ping");
    let jobs: Vec<String> = specs
        .iter()
        .map(|spec| client.submit("crash-tenant", spec.clone()).expect("submit"))
        .collect();

    // Let the campaign get partway — at least one phase persisted, not
    // all jobs finished — then pull the plug.
    let limit = Deadline::after(Duration::from_secs(120));
    loop {
        assert!(!limit.expired(), "no progress before deadline");
        let statuses = client.jobs().expect("jobs");
        let progressed = statuses.iter().any(|s| s.evaluations_done > 0);
        if progressed {
            break;
        }
        thread::sleep(Duration::from_millis(20));
    }
    daemon.kill_hard();

    // Restart on the same state + cache directories: every non-terminal
    // job must resume from its checkpoint and finish.
    let mut daemon = Daemon::spawn(&socket, &state, &cache);
    let mut client = Client::connect(&listen).expect("reconnect");
    for job in &jobs {
        let status = client
            .wait(job, Duration::from_millis(50), Deadline::after(Duration::from_secs(300)))
            .expect("wait for resumed job");
        assert_eq!(status.state, JobState::Done, "job {job}: {:?}", status.error);
    }

    for (job, spec) in jobs.iter().zip(&specs) {
        let (_, pareto) = client.result(job).expect("fetch result");
        let expected = reference_front(spec);
        assert_eq!(pareto.len(), expected.len(), "front size for {job}");
        for (entry, (config, err_bits, lut_bits)) in pareto.iter().zip(&expected) {
            assert_eq!(&entry.config, config, "config diverged for {job}");
            assert_eq!(entry.error_percent.to_bits(), *err_bits, "error bits for {job}");
            assert_eq!(entry.luts.to_bits(), *lut_bits, "lut bits for {job}");
            // `job_spec`'s quality limit is 20 %.
            assert_eq!(entry.feasible, entry.error_percent <= 20.0, "feasible flag for {job}");
        }
    }

    client.shutdown().expect("shutdown");
    let _ = daemon.child.wait();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// two-tenant fairness
// ---------------------------------------------------------------------------

#[test]
fn singleton_tenant_is_not_starved_by_a_burst() {
    let root = temp_dir("fair");
    let mut config =
        ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), root.join("state"));
    config.workers = 1; // serialize phases so scheduling order is observable
    let server = Server::start(config).expect("start server");
    let listen = server.listen_addr().clone();

    let mut client = Client::connect(&listen).expect("connect");
    let alpha: Vec<String> = (0..3)
        .map(|i| client.submit("alpha", job_spec(200 + i, 3)).expect("submit alpha"))
        .collect();
    let beta = client.submit("beta", job_spec(300, 3)).expect("submit beta");

    let deadline = Deadline::after(Duration::from_secs(300));
    let beta_status =
        client.wait(&beta, Duration::from_millis(30), deadline).expect("wait beta");
    assert_eq!(beta_status.state, JobState::Done);
    let alpha_finish: Vec<u64> = alpha
        .iter()
        .map(|job| {
            let s = client.wait(job, Duration::from_millis(30), deadline).expect("wait alpha");
            assert_eq!(s.state, JobState::Done);
            s.finish_seq.expect("alpha finish_seq")
        })
        .collect();

    let beta_finish = beta_status.finish_seq.expect("beta finish_seq");
    let last_alpha = alpha_finish.iter().copied().max().expect("alpha max");
    assert!(
        beta_finish < last_alpha,
        "round-robin must finish the singleton (finish {beta_finish}) before the \
         burst drains (last alpha finish {last_alpha})"
    );

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// cross-process warm cache
// ---------------------------------------------------------------------------

#[test]
fn second_server_on_shared_cache_recomputes_nothing() {
    let root = temp_dir("warm");
    let cache = root.join("cache");
    let spec = job_spec(400, 2);

    let mut config_a =
        ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), root.join("state_a"));
    config_a.cache_dir = Some(cache.clone());
    let server_a = Server::start(config_a).expect("start server A");
    let mut config_b =
        ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), root.join("state_b"));
    config_b.cache_dir = Some(cache.clone());
    let server_b = Server::start(config_b).expect("start server B");

    let deadline = Deadline::after(Duration::from_secs(300));
    let mut client_a = Client::connect(server_a.listen_addr()).expect("connect A");
    let job_a = client_a.submit("cold", spec.clone()).expect("submit A");
    let status_a = client_a.wait(&job_a, Duration::from_millis(30), deadline).expect("wait A");
    assert_eq!(status_a.state, JobState::Done, "{:?}", status_a.error);
    let stats_a = server_a.stats();
    assert!(stats_a.cache.misses > 0, "cold run must compute: {:?}", stats_a.cache);

    // Server B shares only the cache directory. Every evaluation its
    // (identical) trajectory needs was already published by A, so B
    // must answer everything from the cache: zero fresh computes.
    let mut client_b = Client::connect(server_b.listen_addr()).expect("connect B");
    let job_b = client_b.submit("warm", spec).expect("submit B");
    let status_b = client_b.wait(&job_b, Duration::from_millis(30), deadline).expect("wait B");
    assert_eq!(status_b.state, JobState::Done, "{:?}", status_b.error);
    let stats_b = server_b.stats();
    assert_eq!(stats_b.cache.misses, 0, "warm run recomputed: {:?}", stats_b.cache);
    assert!(stats_b.cache.disk_hits > 0, "warm run must read the shared tier");

    let (_, front_a) = client_a.result(&job_a).expect("result A");
    let (_, front_b) = client_b.result(&job_b).expect("result B");
    assert_eq!(front_a.len(), front_b.len());
    for (a, b) in front_a.iter().zip(&front_b) {
        assert_eq!(a.config, b.config);
        assert_eq!(a.error_percent.to_bits(), b.error_percent.to_bits());
        assert_eq!(a.luts.to_bits(), b.luts.to_bits());
    }

    server_a.shutdown();
    server_b.shutdown();
    server_a.join();
    server_b.join();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// protocol robustness over a real socket
// ---------------------------------------------------------------------------

#[test]
fn malformed_oversized_and_half_closed_requests_get_structured_replies() {
    let root = temp_dir("proto");
    let mut config =
        ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), root.join("state"));
    config.max_request_bytes = 4096;
    config.read_timeout_ms = 300;
    let server = Server::start(config).expect("start server");
    let Listen::Tcp(addr) = server.listen_addr().clone() else {
        panic!("expected tcp listen address");
    };

    // Malformed JSON gets a structured reply and the connection stays
    // usable for the next (valid) request.
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    match client.roundtrip_raw("{definitely not json") {
        Ok(clapped_serve::Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Malformed),
        other => panic!("expected malformed error, got {other:?}"),
    }
    client.ping().expect("connection survives a malformed line");

    // Unknown operations and unknown jobs are distinct errors.
    match client.roundtrip_raw("{\"op\":\"frobnicate\"}") {
        Ok(clapped_serve::Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::UnknownOp),
        other => panic!("expected unknown-op error, got {other:?}"),
    }
    match client.status("j999") {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::UnknownJob),
        other => panic!("expected unknown-job error, got {other:?}"),
    }

    // A line past the byte bound draws `oversized`, then the server
    // hangs up.
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let huge = "x".repeat(8192);
    match client.roundtrip_raw(&huge) {
        Ok(clapped_serve::Reply::Error { code, .. }) => assert_eq!(code, ErrorCode::Oversized),
        other => panic!("expected oversized error, got {other:?}"),
    }

    // Half-closing mid-request (bytes but no newline, then EOF) is
    // answered before the server closes its side.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    raw.write_all(b"{\"op\":\"ping\"").expect("write partial");
    raw.shutdown(std::net::Shutdown::Write).expect("half-close");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("read reply");
    assert!(
        reply.contains("\"error\":\"malformed\""),
        "half-close must draw a structured reply, got: {reply}"
    );

    // An idle connection trips the read timeout and is told why.
    let mut raw = TcpStream::connect(&addr).expect("raw connect");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("read timeout reply");
    assert!(
        reply.contains("\"error\":\"timeout\""),
        "idle connection must draw a timeout reply, got: {reply}"
    );

    // A bad spec is rejected at submit time with `bad-spec`.
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    let mut bad = job_spec(1, 1);
    bad.image_size = 0;
    match client.submit("t", bad) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadSpec),
        other => panic!("expected bad-spec error, got {other:?}"),
    }
    // So is a plan whose `initial_samples + iterations × batch` overflows
    // `usize`, and the connection stays usable.
    let mut overflowing = job_spec(1, usize::MAX / 2);
    overflowing.mbo.batch = 3;
    match client.submit("t", overflowing) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadSpec),
        other => panic!("expected bad-spec error, got {other:?}"),
    }
    client.ping().expect("connection survives an overflowing plan");
    // And so is any phase above `MAX_PHASE_SIZE`: a phase collects that
    // many configurations at once, so its first step would abort.
    for field in 0..3 {
        let mut oversized = job_spec(1, 0);
        let mbo = &mut oversized.mbo;
        *[&mut mbo.initial_samples, &mut mbo.batch, &mut mbo.candidates][field] = usize::MAX / 2;
        match client.submit("t", oversized) {
            Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::BadSpec),
            other => panic!("expected bad-spec for phase field {field}, got {other:?}"),
        }
        client.ping().expect("the daemon keeps serving after an oversized phase");
    }

    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn submit_records_the_budget_clamped_plan() {
    let root = temp_dir("plan");
    let mut config = ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), root.join("state"));
    config.workers = 1;
    let server = Server::start(config).expect("start server");
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    // A budget of 40 fits the 6 initial samples and 11 whole batches of
    // 3, so the job plans 39 evaluations from submission on.
    let spec = JobSpec { max_evaluations: Some(40), ..job_spec(7, 20) };
    let job = client.submit("t", spec).expect("submit");
    assert_eq!(client.status(&job).expect("status").evaluations_planned, 39);
    client.shutdown().expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}

// ---------------------------------------------------------------------------
// graceful drain
// ---------------------------------------------------------------------------

#[test]
fn shutdown_rejects_new_work_and_preserves_queued_jobs() {
    let root = temp_dir("drain");
    let state = root.join("state");
    let mut config = ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), state.clone());
    config.workers = 1;
    let server = Server::start(config).expect("start server");
    let mut client = Client::connect(server.listen_addr()).expect("connect");

    // Queue more work than one worker can finish instantly, then drain.
    let jobs: Vec<String> = (0..4)
        .map(|i| client.submit("t", job_spec(500 + i, 4)).expect("submit"))
        .collect();
    client.shutdown().expect("shutdown");
    match client.submit("t", job_spec(999, 1)) {
        Err(ServeError::Remote { code, .. }) => assert_eq!(code, ErrorCode::ShuttingDown),
        other => panic!("expected shutting-down error, got {other:?}"),
    }
    server.join();

    // A fresh server on the same state directory sees every job and
    // finishes the ones the drain interrupted.
    let mut config = ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), state);
    config.workers = 2;
    let server = Server::start(config).expect("restart server");
    let mut client = Client::connect(server.listen_addr()).expect("reconnect");
    assert_eq!(client.jobs().expect("jobs").len(), jobs.len());
    for job in &jobs {
        let status = client
            .wait(job, Duration::from_millis(30), Deadline::after(Duration::from_secs(300)))
            .expect("wait");
        assert_eq!(status.state, JobState::Done, "job {job}: {:?}", status.error);
    }
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(&root);
}
