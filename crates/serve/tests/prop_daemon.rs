//! Adversarial job specs against a live daemon on a Unix socket.
//!
//! Every submit must draw `submitted` or a structured `bad-spec` /
//! `malformed` error — never a closed connection — and a `ping` must
//! follow. Numeric members take boundary values; cases also drop a
//! required member, add an unknown one, or name an unknown app. Accepted
//! jobs carry `deadline_ms: 0`, so they fail at once instead of running
//! a search. A last case restarts the daemon over a truncated checkpoint.

use clapped_dse::MboConfig;
use clapped_obs::Deadline;
use clapped_serve::MAX_PHASE_SIZE;
use clapped_serve::{Client, ErrorCode, JobSpec, JobState, Listen, Reply, Server, ServerConfig};
use proptest::prelude::*;
use serde_json::{json, Value};
use std::path::PathBuf;
use std::sync::OnceLock;
use std::time::Duration;

fn start(tag: &str, fresh: bool) -> (Server, PathBuf) {
    let root = std::env::temp_dir().join(format!("clapped_daemon_{tag}_{}", std::process::id()));
    if fresh {
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root).expect("create temp dir");
    }
    let mut config = ServerConfig::new(Listen::Uds(root.join("serve.sock")), root.join("state"));
    config.workers = 1;
    (Server::start(config).expect("start server"), root)
}

fn spec(iterations: usize, deadline_ms: Option<u64>) -> JobSpec {
    let mbo = MboConfig {
        initial_samples: 4,
        iterations,
        batch: 2,
        candidates: 8,
        reference: vec![40.0, 5000.0],
        kappa: 1.0,
        explore_fraction: 0.1,
        seed: 7,
    };
    JobSpec { image_size: 16, mbo, max_evaluations: Some(50), deadline_ms, ..JobSpec::default() }
}

/// Numeric members (`mbo.*` nests) and whether each must hold an
/// unsigned integer; the others take any JSON number.
const NUMERIC: [(&str, bool); 11] = [
    ("image_size", true), ("noise_sigma", false), ("seed", true), ("max_evaluations", true),
    ("mbo.initial_samples", true), ("mbo.iterations", true), ("mbo.batch", true),
    ("mbo.candidates", true), ("mbo.kappa", false), ("mbo.explore_fraction", false),
    ("mbo.seed", true),
];
const REQUIRED: [&str; 5] = ["app", "image_size", "mbo", "mbo.batch", "mbo.reference"];
const PHASES: [&str; 3] = ["mbo.initial_samples", "mbo.batch", "mbo.candidates"];

fn boundaries() -> Vec<Value> {
    let cap = MAX_PHASE_SIZE;
    let unsigned = [json!(0), json!(1), json!(cap), json!(cap + 1), json!(1u64 << 53)];
    unsigned.into_iter().chain([json!(u64::MAX), json!(-1), json!(0.5), json!(1e308)]).collect()
}

static CASES_DAEMON: OnceLock<Listen> = OnceLock::new();

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    fn each_spec_draws_a_structured_reply(
        // Each overwrite picks a numeric member and a boundary value.
        overwrites in collection::vec(0usize..NUMERIC.len() * boundaries().len(), 1..4),
        shape in 0usize..4,
        dropped in 0usize..REQUIRED.len(),
    ) {
        let mut spec = spec(2, Some(0)).to_json();
        let (mut well_formed, mut oversized, values) = (true, false, boundaries());
        for &overwrite in &overwrites {
            let (path, integer) = NUMERIC[overwrite / values.len()];
            let value = values[overwrite % values.len()].clone();
            well_formed &= value.as_u64().is_some() || !integer;
            oversized |= PHASES.contains(&path)
                && value.as_u64().is_some_and(|v| v > MAX_PHASE_SIZE as u64);
            *path.split('.').fold(&mut spec, |v, key| &mut v[key]) = value;
        }
        match shape {
            1 => {
                let (parent, key) = match REQUIRED[dropped].split_once('.') {
                    Some((top, key)) => (&mut spec[top], key),
                    None => (&mut spec, REQUIRED[dropped]),
                };
                parent.as_object_mut().map(|members| members.remove(key));
                well_formed = false;
            }
            2 => spec["unexpected"] = json!({"nested": [1, 2]}),
            3 => spec["app"] = json!("mandelbrot"),
            _ => {}
        }
        let line = json!({"op": "submit", "tenant": "adversary", "spec": spec}).to_string();
        let listen = CASES_DAEMON.get().ok_or("the cases daemon is not running")?;
        let mut client = Client::connect(listen).map_err(|e| e.to_string())?;
        let reply = client.roundtrip_raw(&line);
        let detail = format!("spec {spec} drew {reply:?}");
        // The app is decoded first: an unknown one is `bad-spec` whatever else is wrong.
        let unknown_app = shape == 3;
        match &reply {
            Ok(Reply::Submitted { .. }) => {
                prop_assert!(!unknown_app && well_formed && !oversized, "{}", detail)
            }
            Ok(Reply::Error { code: ErrorCode::BadSpec, .. }) => {
                prop_assert!(unknown_app || well_formed, "{}", detail)
            }
            Ok(Reply::Error { code: ErrorCode::Malformed, .. }) => {
                prop_assert!(!unknown_app && !well_formed, "{}", detail)
            }
            _ => prop_assert!(false, "{}", detail),
        }
        client.ping().map_err(|e| format!("no ping after {detail}: {e}"))?;
        if let Ok(Reply::Submitted { job }) = reply {
            let limit = Deadline::after(Duration::from_secs(10));
            let status = client.wait(&job, Duration::from_millis(5), limit);
            prop_assert_eq!(status.map(|s| s.state).map_err(|e| e.to_string())?, JobState::Failed);
        }
    }
}

#[test]
fn adversarial_specs_draw_structured_replies() {
    let (server, root) = start("cases", true);
    CASES_DAEMON.set(server.listen_addr().clone()).expect("one cases daemon");
    each_spec_draws_a_structured_reply();
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(root);
}

#[test]
fn truncated_checkpoint_fails_its_job_after_restart() {
    let (server, root) = start("restart", true);
    let mut client = Client::connect(server.listen_addr()).expect("connect");
    // A real search, still mid-run when the daemon drains.
    let job = client.submit("t", spec(50, None)).expect("submit");
    let limit = Deadline::after(Duration::from_secs(120));
    while client.status(&job).expect("status").evaluations_done == 0 {
        assert!(!limit.expired(), "the first phase never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    client.shutdown().expect("shutdown");
    server.join();
    let checkpoint = root.join(format!("state/checkpoints/{job}.ckpt"));
    let bytes = std::fs::read(&checkpoint).expect("the drained job keeps its checkpoint");
    std::fs::write(&checkpoint, &bytes[..bytes.len() / 2]).expect("truncate the checkpoint");

    let (server, root) = start("restart", false);
    let mut client = Client::connect(server.listen_addr()).expect("reconnect");
    let limit = Deadline::after(Duration::from_secs(120));
    let status = client.wait(&job, Duration::from_millis(10), limit).expect("wait");
    assert_eq!(status.state, JobState::Failed);
    let error = status.error.unwrap_or_default();
    assert!(error.starts_with("session open"), "unexpected failure: {error}");
    client.ping().expect("the daemon keeps answering");
    server.shutdown();
    server.join();
    let _ = std::fs::remove_dir_all(root);
}
