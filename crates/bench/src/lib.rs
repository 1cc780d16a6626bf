//! Experiment harnesses reproducing every table and figure of the
//! CLAppED paper's evaluation (Section V).
//!
//! Each `fig*`/`table*` binary in `src/bin/` regenerates one artifact:
//! it prints the same rows/series the paper reports and saves a
//! machine-readable copy under `results/`. EXPERIMENTS.md records the
//! paper-vs-measured comparison.
//!
//! | binary      | paper artifact                                         |
//! |-------------|--------------------------------------------------------|
//! | `fig1c`     | PSNR/energy trade-off of the motivating example        |
//! | `fig3`      | distribution ranking + curve-fit vs PR estimation MAE  |
//! | `fig4`      | estimation-error histograms, curve fit vs PR           |
//! | `fig6`      | actual vs estimated avg-abs-relative error, Clipped_k  |
//! | `fig7`      | retrained C2–C9 models of the 1KR3 analogue            |
//! | `fig8`      | MLP MAE per multiplier representation (plus Fig. 9)    |
//! | `fig10a`    | MAE and inference time vs coefficient count            |
//! | `fig10b`    | generalization to unseen multipliers (M4 vs C4)        |
//! | `fig11`     | accelerator-metric MLP fidelity, IDX vs EXP            |
//! | `table1`    | EXP model dimensions per metric                        |
//! | `fig12a`    | hypervolume progress, MBO vs random search             |
//! | `fig12b`    | Pareto analysis with actual re-evaluation              |
//! | `adders_pr` | Section II-A adder claim (PR vs curve-fit MAE)         |
//!
//! Extension harnesses: `dse_baselines` (NSGA-II/SA/random vs MBO),
//! `ablation_mbo` (acquisition design knobs), `window_sweep` (window-size
//! DoF), `catalog_hw` (operator library hardware card), and
//! `multi_objective` (4-objective DSE with WFG hypervolume).

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]

use clapped_obs::Stopwatch;
use std::fs;
use std::path::PathBuf;

/// Formats and prints an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Directory where harnesses drop machine-readable results.
pub fn results_dir() -> PathBuf {
    // Walk up from the crate to the workspace root.
    let mut dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    dir.pop();
    dir.pop();
    dir.join("results")
}

/// Saves a JSON value under `results/<name>.json`.
///
/// # Panics
///
/// Panics if the results directory cannot be created or written — a
/// harness without its artifact is a failed run.
pub fn save_json(name: &str, value: &serde_json::Value) {
    let dir = results_dir();
    fs::create_dir_all(&dir).expect("create results directory");
    let path = dir.join(format!("{name}.json"));
    fs::write(&path, serde_json::to_string_pretty(value).expect("serializable"))
        .expect("write results file");
    println!("[saved {}]", path.display());
}

/// [`save_json`] for a benchmark snapshot. A `--quick` smoke run writes
/// the git-ignored `<name>.quick.json`, so it never replaces the
/// committed full-run numbers.
pub fn save_snapshot(name: &str, quick: bool, value: &serde_json::Value) {
    save_json(&if quick { format!("{name}.quick") } else { name.to_string() }, value);
}

/// Best-of-`reps` wall-clock seconds of `f`, the timer of the `bench_*`
/// snapshots. A warmup call is dropped first: it is where process-wide
/// memos (plan LUTs, tables) fault in.
pub fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    std::hint::black_box(f());
    for _ in 0..reps {
        let start = Stopwatch::start();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Builds a histogram of samples as `(bin_center, count)` pairs.
///
/// # Panics
///
/// Panics if `bins == 0` or `samples` is empty.
pub(crate) fn histogram(samples: &[f64], bins: usize) -> Vec<(f64, usize)> {
    assert!(bins > 0 && !samples.is_empty());
    let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = samples.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let width = ((max - min) / bins as f64).max(1e-12);
    let mut counts = vec![0usize; bins];
    for &s in samples {
        let idx = (((s - min) / width) as usize).min(bins - 1);
        counts[idx] += 1;
    }
    counts
        .into_iter()
        .enumerate()
        .map(|(i, c)| (min + (i as f64 + 0.5) * width, c))
        .collect()
}

/// Renders a histogram as a compact ASCII bar chart.
pub fn ascii_histogram(samples: &[f64], bins: usize, bar_width: usize) -> String {
    let h = histogram(samples, bins);
    let max_count = h.iter().map(|&(_, c)| c).max().unwrap_or(1).max(1);
    h.iter()
        .map(|&(center, count)| {
            let bar = "#".repeat(count * bar_width / max_count);
            format!("{center:>10.1} |{bar} {count}")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_covers_all_samples() {
        let samples = vec![0.0, 1.0, 2.0, 3.0, 4.0, 4.0];
        let h = histogram(&samples, 5);
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, samples.len());
        assert_eq!(h.len(), 5);
    }

    #[test]
    fn histogram_handles_constant_samples() {
        let samples = vec![2.0; 10];
        let h = histogram(&samples, 4);
        let total: usize = h.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn ascii_histogram_renders() {
        let s = ascii_histogram(&[1.0, 1.0, 2.0, 5.0], 4, 10);
        assert!(s.contains('#'));
        assert_eq!(s.lines().count(), 4);
    }

    #[test]
    fn results_dir_points_into_workspace() {
        assert!(results_dir().ends_with("results"));
    }
}
