//! Load generator for the `clapped-serve` daemon.
//!
//! Replays many concurrent job streams — each stream is one client
//! connection submitting a DSE job and polling to completion — and
//! reports job-latency percentiles, throughput, and the cache-hit
//! amplification between a cold pass and a warm rerun of the same
//! specs. Results land in `results/bench_serve.json`.
//!
//! Usage:
//!
//! ```text
//! bench_serve [--quick] [--connect ADDR_OR_UDS_PATH] [--shutdown]
//!             [--streams N] [--concurrency N]
//! ```
//!
//! Without `--connect` an in-process server is started on a loopback
//! port with fresh state and cache directories (a genuinely cold
//! start). With `--connect`, streams drive an already-running daemon —
//! the mode CI uses against a Unix-socket daemon — and `--shutdown`
//! sends the drain op once the measurement ends. The full run replays
//! 100 streams; `--quick` trims the workload for smoke tests and
//! writes `bench_serve.quick.json` instead. In the
//! full run the warm pass must beat the cold pass by at least 2× on
//! median latency or the process exits non-zero: warm evaluations are
//! answered from the result cache, and losing that amplification is a
//! serving regression.

use clapped_bench::{print_table, save_snapshot};
use clapped_dse::MboConfig;
use clapped_obs::{Deadline, Stopwatch};
use clapped_serve::{Client, JobSpec, JobState, Listen, Server, ServerConfig};
use serde_json::json;
use std::path::PathBuf;
use std::process::exit;
use std::thread;
use std::time::Duration;

struct Args {
    quick: bool,
    connect: Option<Listen>,
    shutdown: bool,
    streams: usize,
    concurrency: usize,
}

fn parse_args() -> Args {
    let mut quick = false;
    let mut connect = None;
    let mut shutdown = false;
    let mut streams = None;
    let mut concurrency = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--quick" => quick = true,
            "--shutdown" => shutdown = true,
            "--connect" => {
                let target = args.next().unwrap_or_else(|| {
                    eprintln!("bench_serve: --connect needs an address or socket path");
                    exit(2);
                });
                connect = Some(if target.contains('/') {
                    Listen::Uds(PathBuf::from(target))
                } else {
                    Listen::Tcp(target)
                });
            }
            "--streams" => {
                streams = Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                    eprintln!("bench_serve: --streams needs an integer");
                    exit(2);
                }));
            }
            "--concurrency" => {
                concurrency =
                    Some(args.next().and_then(|v| v.parse().ok()).unwrap_or_else(|| {
                        eprintln!("bench_serve: --concurrency needs an integer");
                        exit(2);
                    }));
            }
            other => {
                eprintln!("bench_serve: unknown flag `{other}`");
                exit(2);
            }
        }
    }
    let streams = streams.unwrap_or(if quick { 8 } else { 100 });
    Args {
        quick,
        connect,
        shutdown,
        streams,
        concurrency: concurrency.unwrap_or(streams),
    }
}

fn job_spec(stream: usize, quick: bool) -> JobSpec {
    JobSpec {
        image_size: 16,
        noise_sigma: 12.0,
        seed: 1,
        mbo: MboConfig {
            initial_samples: 4,
            iterations: if quick { 1 } else { 2 },
            batch: 2,
            candidates: 8,
            reference: vec![40.0, 5000.0],
            kappa: 1.0,
            explore_fraction: 0.1,
            // Distinct seeds per stream: different trajectories, shared
            // recipe — the realistic multi-tenant mix.
            seed: stream as u64,
        },
        max_error_percent: Some(20.0),
        ..JobSpec::default()
    }
}

/// Runs one pass of `streams` job streams with at most `concurrency`
/// in flight; returns per-job latencies in milliseconds.
fn run_pass(listen: &Listen, args: &Args, pass: &str) -> Vec<f64> {
    let quick = args.quick;
    let mut latencies = vec![0.0f64; args.streams];
    let chunk = args.concurrency.max(1);
    for (base, slot) in (0..args.streams).step_by(chunk).enumerate() {
        let upper = (slot + chunk).min(args.streams);
        let handles: Vec<thread::JoinHandle<(usize, f64)>> = (slot..upper)
            .map(|stream| {
                let listen = listen.clone();
                let tenant = format!("tenant{}", stream % 8);
                thread::spawn(move || {
                    let mut client = Client::connect(&listen).expect("connect stream");
                    let watch = Stopwatch::start();
                    let job = client
                        .submit(&tenant, job_spec(stream, quick))
                        .expect("submit stream job");
                    let status = client
                        .wait(&job, Duration::from_millis(5), Deadline::after(
                            Duration::from_secs(600),
                        ))
                        .expect("wait for stream job");
                    assert_eq!(
                        status.state,
                        JobState::Done,
                        "stream {stream} failed: {:?}",
                        status.error
                    );
                    (stream, watch.elapsed_ns() as f64 / 1.0e6)
                })
            })
            .collect();
        for handle in handles {
            let (stream, ms) = handle.join().expect("stream thread");
            latencies[stream] = ms;
        }
        let done = upper;
        println!("[{pass} pass] {done}/{} streams (batch {base})", args.streams);
    }
    latencies
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[rank.min(sorted.len() - 1)]
}

fn summarize(mut latencies: Vec<f64>, wall_ms: f64) -> (f64, f64, f64, f64) {
    latencies.sort_by(f64::total_cmp);
    let p50 = percentile(&latencies, 0.50);
    let p99 = percentile(&latencies, 0.99);
    let mean = latencies.iter().sum::<f64>() / latencies.len() as f64;
    let throughput = latencies.len() as f64 / (wall_ms / 1000.0);
    (p50, p99, mean, throughput)
}

fn main() {
    let args = parse_args();
    let results = clapped_bench::results_dir();
    let _ = std::fs::create_dir_all(&results);

    // Target: an external daemon, or a fresh in-process server with
    // cold state and cache.
    let (listen, local) = match &args.connect {
        Some(listen) => (listen.clone(), None),
        None => {
            let root = results.join("bench_serve_state");
            let _ = std::fs::remove_dir_all(&root);
            let mut config =
                ServerConfig::new(Listen::Tcp("127.0.0.1:0".to_string()), root.join("state"));
            config.cache_dir = Some(root.join("cache"));
            config.workers = 4;
            let server = Server::start(config).expect("start in-process server");
            (server.listen_addr().clone(), Some((server, root)))
        }
    };

    let cold_watch = Stopwatch::start();
    let cold = run_pass(&listen, &args, "cold");
    let cold_wall_ms = cold_watch.elapsed_ns() as f64 / 1.0e6;
    let warm_watch = Stopwatch::start();
    let warm = run_pass(&listen, &args, "warm");
    let warm_wall_ms = warm_watch.elapsed_ns() as f64 / 1.0e6;

    let cache = {
        let mut client = Client::connect(&listen).expect("connect for stats");
        let stats = client.stats().expect("stats");
        if args.shutdown || args.connect.is_none() {
            let _ = client.shutdown();
        }
        stats
    };
    if let Some((server, root)) = local {
        server.join();
        let _ = std::fs::remove_dir_all(&root);
    }

    let (cold_p50, cold_p99, cold_mean, cold_tput) = summarize(cold, cold_wall_ms);
    let (warm_p50, warm_p99, warm_mean, warm_tput) = summarize(warm, warm_wall_ms);
    let speedup = cold_p50 / warm_p50.max(1e-9);

    print_table(
        "clapped-serve load generation",
        &["pass", "p50 ms", "p99 ms", "mean ms", "jobs/s"],
        &[
            vec![
                "cold".to_string(),
                format!("{cold_p50:.1}"),
                format!("{cold_p99:.1}"),
                format!("{cold_mean:.1}"),
                format!("{cold_tput:.1}"),
            ],
            vec![
                "warm".to_string(),
                format!("{warm_p50:.1}"),
                format!("{warm_p99:.1}"),
                format!("{warm_mean:.1}"),
                format!("{warm_tput:.1}"),
            ],
        ],
    );
    println!(
        "warm speedup (cold p50 / warm p50): {speedup:.2}x; cache hits {} \
         (disk {}), misses {}, lock contention {}",
        cache.cache.hits, cache.cache.disk_hits, cache.cache.misses,
        cache.cache.lock_contention,
    );

    save_snapshot(
        "bench_serve",
        args.quick,
        &json!({
            "mode": if args.quick { "quick" } else { "full" },
            "streams": args.streams,
            "concurrency": args.concurrency,
            "cold": {
                "p50_ms": cold_p50,
                "p99_ms": cold_p99,
                "mean_ms": cold_mean,
                "throughput_jobs_per_s": cold_tput,
                "wall_ms": cold_wall_ms,
            },
            "warm": {
                "p50_ms": warm_p50,
                "p99_ms": warm_p99,
                "mean_ms": warm_mean,
                "throughput_jobs_per_s": warm_tput,
                "wall_ms": warm_wall_ms,
            },
            "warm_speedup_p50": speedup,
            "server": {
                "jobs_done": cache.jobs_done,
                "jobs_failed": cache.jobs_failed,
                "steps": cache.steps,
                "requests": cache.requests,
                "protocol_errors": cache.protocol_errors,
                "cache_hits": cache.cache.hits,
                "cache_disk_hits": cache.cache.disk_hits,
                "cache_misses": cache.cache.misses,
                "cache_lock_contention": cache.cache.lock_contention,
            },
        }),
    );

    // Cache amplification is part of the serving contract: a warm rerun
    // answers every evaluation from the result cache. Only the full run
    // enforces the floor — quick smoke jobs are too short to measure
    // reliably.
    if !args.quick && speedup < 2.0 {
        eprintln!("bench_serve: warm speedup {speedup:.2}x is below the 2x floor");
        exit(1);
    }
}
