//! `bench_e2e` — the layer-attributed end-to-end benchmark of the CLAppED
//! pipeline. One invocation runs one workload in a fresh process and
//! prints every metric as a `name value unit` line; the last line of
//! standard output is a JSON object with `correct`, `attempted`, `failed`
//! and `metrics`. See `README.md` for the workloads, metrics and layer
//! map.
//!
//! ```text
//! bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//! bench_e2e --repeat N [--vary-seed] [--workload NAME] [--seed N] [--seconds S]
//! ```

mod calib;
mod catalog;
mod dse;
mod layers;
mod repeat;
mod replay;
mod run;
mod stats;

use calib::{HostClock, Section};
use run::{Budget, Outcome, Plan, RunDir, JOBS, SETUP_REPEATS};
use serde_json::{json, Map, Value};
use stats::{mean, summarize};
use std::cell::RefCell;
use std::path::PathBuf;
use std::rc::Rc;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end metrics with their units, in report order.
/// `BENCHMARK.json` lists the same names and units.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("latency_ms", "ms")];

/// Per-run state (caches) lives under this directory of the working
/// directory and is removed on exit.
const STATE_DIR: &str = ".bench_e2e_state";

const USAGE: &str =
    "usage: bench_e2e --workload NAME [--seed N] [--seconds S] [--trace 0|1]\n       \
                     bench_e2e --repeat N [--vary-seed] [--workload NAME] [--seed N] [--seconds S]\n\
                     workloads: dse_true dse_cached dse_ml catalog_cold";

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DseTrue,
    DseCached,
    DseMl,
    CatalogCold,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::DseTrue,
        Workload::DseCached,
        Workload::DseMl,
        Workload::CatalogCold,
    ];

    /// The name `--workload` takes.
    pub fn name(self) -> &'static str {
        match self {
            Workload::DseTrue => "dse_true",
            Workload::DseCached => "dse_cached",
            Workload::DseMl => "dse_ml",
            Workload::CatalogCold => "catalog_cold",
        }
    }

    /// What one round and one operation of the workload are.
    fn op(self) -> &'static str {
        match self {
            Workload::DseTrue => {
                "round: fresh framework (the set-up) + 2 explorations; operation: one True/True exploration (16 evaluations)"
            }
            Workload::DseCached => {
                "round: both cached explorations once; operation: one True/True exploration answered by the result cache"
            }
            Workload::DseMl => {
                "round: 2 explorations; operation: one ML/ML exploration (surrogate training, 260 ML evaluations)"
            }
            Workload::CatalogCold => {
                "round: 6 shards into an empty cache; operation: one cold catalog shard build"
            }
        }
    }

    fn run(self, plan: &Plan) -> Result<Outcome, String> {
        match self {
            Workload::DseTrue => dse::run_true(plan),
            Workload::DseCached => dse::run_cached(plan),
            Workload::DseMl => dse::run_ml(plan),
            Workload::CatalogCold => catalog::run(plan),
        }
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
    vary_seed: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
        repeat: None,
        vary_seed: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                let w = Workload::ALL.into_iter().find(|w| w.name() == v);
                args.workload = Some(w.ok_or(format!("unknown workload `{v}`"))?);
            }
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not `{v}`")),
                }
            }
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                args.repeat = Some(n.max(1));
            }
            "--vary-seed" => args.vary_seed = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.repeat.is_none() && args.workload.is_none() {
        return Err("--workload is required".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_e2e: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if let Some(n) = args.repeat {
        let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
        return match repeat::run(&workloads, n, args.seed, args.vary_seed, args.seconds) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("bench_e2e: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let workload = args.workload.expect("checked by parse_args");
    let result = measure(workload, &args);
    // Succeeds only once no run's directory is left in it.
    let _ = std::fs::remove_dir(STATE_DIR);
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("bench_e2e: {}: {e}", workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Runs one workload and prints its report; returns whether the run was
/// correct. Untraced: set up [`SETUP_REPEATS`] times (or once per round)
/// and run rounds until `seconds` after the start. Traced: an untraced
/// phase that ends `seconds / 2` after the start, then as many rounds
/// again with tracing on, followed by the per-layer replay.
fn measure(w: Workload, args: &Args) -> Result<bool, String> {
    let started = Instant::now();
    let until = |seconds: f64| Budget::Deadline(started + Duration::from_secs_f64(seconds));
    let root = RunDir::create(PathBuf::from(STATE_DIR).join(format!(
        "{}-s{}-p{}",
        w.name(),
        args.seed,
        std::process::id()
    )))?;
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    println!(
        "bench_e2e workload {} seed {} seconds {} trace {} | jobs {JOBS}, host cores {cores}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!("operation: {}", w.op());
    let clock = Rc::new(RefCell::new(HostClock::new()));
    let plan = |setups, budget, trace, sub: &str| Plan {
        seed: args.seed,
        setups,
        budget,
        trace,
        dir: root.path().join(sub),
        clock: Rc::clone(&clock),
    };
    if !args.trace {
        let out = w.run(&plan(SETUP_REPEATS, until(args.seconds), false, "run"))?;
        clock.borrow_mut().finish();
        let clock = clock.borrow();
        let metrics = END_TO_END
            .iter()
            .zip([out.setup_s(&clock), out.latency_s(&clock) * 1e3])
            .map(|(&(n, u), v)| (n, u, v))
            .collect::<Vec<_>>();
        print_report(&out, &clock, &metrics);
        return Ok(print_result(&out, out.correct(), &metrics));
    }
    let untraced = w.run(&plan(1, until(args.seconds / 2.0), false, "untraced"))?;
    println!(
        "untraced phase: {} rounds in {:.3} s; traced phase repeats them",
        untraced.rounds.len(),
        untraced.wall_s,
    );
    let rounds = Budget::Rounds(untraced.rounds.len());
    let mut out = w.run(&plan(1, rounds, true, "traced"))?;
    clapped::obs::disable();
    clock.borrow_mut().finish();
    let clock = clock.borrow();
    out.gate(
        "traced_digest_matches_untraced",
        untraced.digest == out.digest,
        format!(
            "untraced {:016x}, traced {:016x}",
            untraced.digest, out.digest
        ),
    );
    let overhead = (out.latency_s(&clock) / untraced.latency_s(&clock) - 1.0) * 100.0;
    out.layers.set("obs.trace_overhead_pct", overhead);
    let metrics: Vec<(&str, &str, f64)> = out.layers.all().collect();
    print_report(&out, &clock, &metrics);
    out.layers.print_table(out.wall_s);
    Ok(print_result(
        &out,
        untraced.correct() && out.correct(),
        &metrics,
    ))
}

fn print_report(out: &Outcome, clock: &HostClock, metrics: &[(&str, &str, f64)]) {
    let setups: Vec<f64> = out.setups.iter().map(Section::raw_s).collect();
    let lat_ms: Vec<f64> = out.rounds.iter().flatten().map(|s| s.raw_s() * 1e3).collect();
    let sum = summarize(&lat_ms);
    println!(
        "set-ups: {} s (median of {}); rounds: {} in {:.3} s, {} operations",
        fmt_list(&setups),
        setups.len(),
        out.rounds.len(),
        out.wall_s,
        sum.n
    );
    match sum.tail {
        Some((p, v)) => println!(
            "wall latency: mean {:.3} ms, p50 {:.3} ms, p{p} {v:.3} ms (n={})",
            mean(&lat_ms),
            sum.p50,
            sum.n
        ),
        None => println!(
            "wall latency: mean {:.3} ms, p50 {:.3} ms (n={}; too few samples for a tail percentile)",
            mean(&lat_ms),
            sum.p50,
            sum.n
        ),
    }
    let kernel_s = clock.median_kernel_s();
    println!(
        "host: calibration kernel {:.3} ms (median), {:.3} ms on the reference host: speed {:.3} of it",
        kernel_s * 1e3,
        calib::REFERENCE_S * 1e3,
        calib::REFERENCE_S / kernel_s
    );
    for i in &out.info {
        println!(
            "info   {:<28} {:>16} {:<6} {}",
            i.name,
            fmt_value(i.value),
            i.unit,
            i.note
        );
    }
    println!("memory: peak RSS {:.3} MB after round 0", out.peak_rss_mb);
    println!("digest of a round {:016x}", out.digest);
    for g in &out.gates {
        println!(
            "gate   {:<34} {} {}",
            g.name,
            if g.ok { "PASS" } else { "FAIL" },
            g.detail
        );
    }
    println!("work   attempted {} failed {}", out.attempted, out.failed);
    for (name, unit, value) in metrics {
        println!("metric {name:<28} {:>16} {unit}", fmt_value(*value));
    }
}

fn fmt_value(v: f64) -> String {
    format!("{v:.6}")
        .trim_end_matches('0')
        .trim_end_matches('.')
        .to_string()
}

fn fmt_list(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.3}"))
        .collect::<Vec<_>>()
        .join(", ")
}

/// Prints the result object as the last line of standard output and
/// returns the final correctness (non-finite metrics make a run
/// incorrect: JSON cannot carry them).
fn print_result(out: &Outcome, correct: bool, metrics: &[(&str, &str, f64)]) -> bool {
    let finite = metrics.iter().all(|(_, _, v)| v.is_finite());
    if !finite {
        eprintln!("bench_e2e: non-finite metric in {metrics:?}");
    }
    let correct = correct && finite;
    let map: Map = metrics
        .iter()
        .map(|&(n, u, v)| {
            (
                n.to_string(),
                json!({ "value": if v.is_finite() { v } else { 0.0 }, "unit": u }),
            )
        })
        .collect();
    let result = json!({
        "correct": correct,
        "attempted": out.attempted.max(1),
        "failed": out.failed,
        "metrics": Value::Object(map),
    });
    println!(
        "{}",
        serde_json::to_string(&result).expect("JSON rendering is infallible")
    );
    correct
}

#[cfg(test)]
mod tests {
    use super::*;

    fn listed(benchmark: &Value, key: &str) -> Vec<(String, String)> {
        benchmark[key]
            .as_array()
            .expect("metric list")
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap_or("").to_string(),
                    m["unit"].as_str().unwrap_or("").to_string(),
                )
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_the_printed_metrics() {
        let text = include_str!("../../BENCHMARK.json");
        let benchmark = serde_json::from_str(text).expect("BENCHMARK.json parses");
        let own = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed(&benchmark, "end_to_end"), own(END_TO_END));
        assert_eq!(listed(&benchmark, "per_layer"), own(layers::PER_LAYER));
        let names: Vec<String> = benchmark["workloads"]
            .as_array()
            .expect("workload list")
            .iter()
            .map(|w| w["name"].as_str().unwrap_or("").to_string())
            .collect();
        assert_eq!(names, Workload::ALL.map(|w| w.name().to_string()).to_vec());
    }

    #[test]
    fn arguments_parse_and_reject_garbage() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload dse_ml --seed 7 --seconds 2.5 --trace 1").expect("valid");
        assert_eq!(a.workload, Some(Workload::DseMl));
        assert_eq!((a.seed, a.seconds, a.trace), (7, 2.5, true));
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload dse_ml --trace 2").is_err());
        assert!(parse("--workload dse_ml --seconds -1").is_err());
        assert!(parse("--seed 3").is_err(), "a single run needs a workload");
        let r = parse("--repeat 3 --vary-seed").expect("valid");
        assert_eq!((r.repeat, r.vary_seed), (Some(3), true));
        assert!(!parse("--repeat 3").expect("valid").vary_seed);
    }
}
