//! `--repeat N`: runs each workload `N` times, each in a fresh process,
//! alternating the workload order between rounds, then reports every
//! end-to-end metric's median and quartiles and flags any whose spread
//! (IQR / median) exceeds its bound in `BENCHMARK.json`.
//!
//! Every round uses `--seed`, so the spread is the host's noise alone.
//! With `--vary-seed` round `r` uses `seed + r`, so the spread also holds
//! the differences between inputs: the protocol a regression check with
//! ten seeds follows.

use crate::stats::{iqr_share, quartiles};
use crate::Workload;
use serde_json::Value;
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Bounds of the end-to-end metrics, read from `BENCHMARK.json` in the
/// working directory.
fn bounds() -> Result<BTreeMap<String, f64>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("read BENCHMARK.json: {e}"))?;
    let benchmark: Value =
        serde_json::from_str(&text).map_err(|e| format!("parse BENCHMARK.json: {e}"))?;
    let list = benchmark["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    Ok(list
        .iter()
        .filter_map(|m| Some((m["name"].as_str()?.to_string(), m["bound"].as_f64()?)))
        .collect())
}

/// One child run: its metric values, or why it failed.
fn run_child(w: Workload, seed: u64, seconds: f64) -> Result<BTreeMap<String, f64>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locate own executable: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name(), "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", "0"])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let result: Value =
        serde_json::from_str(last).map_err(|e| format!("result line `{last}`: {e}"))?;
    if !output.status.success() || result["correct"].as_bool() != Some(true) {
        return Err(format!("exit {}, result {last}", output.status));
    }
    let metrics = result["metrics"]
        .as_object()
        .ok_or("result lacks metrics")?;
    Ok(metrics
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v["value"].as_f64()?)))
        .collect())
}

/// Runs the rounds and prints the spread table. Returns `Ok(true)` when
/// every run was correct and no bounded metric's spread exceeds its
/// bound.
pub fn run(
    workloads: &[Workload],
    rounds: usize,
    seed: u64,
    vary_seed: bool,
    seconds: f64,
) -> Result<bool, String> {
    let bounds = bounds()?;
    let mut values: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
    let mut ok = true;
    for round in 0..rounds {
        let mut order: Vec<(usize, Workload)> = workloads.iter().copied().enumerate().collect();
        if round % 2 == 1 {
            order.reverse();
        }
        let s = if vary_seed {
            seed.wrapping_add(round as u64)
        } else {
            seed
        };
        for (slot, w) in order {
            match run_child(w, s, seconds) {
                Ok(metrics) => {
                    println!("round {round} {:<13} seed {s}: ok", w.name());
                    for (name, v) in metrics {
                        values.entry((slot, name)).or_default().push(v);
                    }
                }
                Err(e) => {
                    println!("round {round} {:<13} seed {s}: FAILED {e}", w.name());
                    ok = false;
                }
            }
        }
    }
    println!(
        "{:<13} {:<16} {:>3} {:>14} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "n", "median", "q1", "q3", "iqr/med", "bound"
    );
    for ((slot, name), v) in &values {
        let [q1, q2, q3] = quartiles(v);
        let spread = iqr_share(v);
        let bound = bounds.get(name).copied();
        let flag = bound.is_some_and(|b| spread > b);
        let loose = bound.is_some_and(|b| spread > b / 3.0);
        ok &= !flag;
        println!(
            "{:<13} {:<16} {:>3} {:>14.6} {:>14.6} {:>14.6} {:>8.4} {:>6} {}",
            workloads[*slot].name(),
            name,
            v.len(),
            q2,
            q1,
            q3,
            spread,
            bound.map_or("-".to_string(), |b| format!("{b}")),
            if flag {
                "FLAG: spread exceeds bound"
            } else if loose {
                "note: spread exceeds a third of the bound"
            } else {
                ""
            }
        );
        let by_round: Vec<String> = v.iter().map(|x| format!("{x:.4}")).collect();
        println!("{:<30} by round: {}", "", by_round.join(" "));
    }
    Ok(ok)
}
