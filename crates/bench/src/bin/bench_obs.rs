//! Observability overhead snapshot: per-operation cost of the
//! instrumentation entry points, disabled and enabled. The disabled
//! figures are the acceptance numbers — instrumentation lives in hot
//! code unconditionally, so a disabled span enter/exit must stay under
//! 5 ns. Emits `results/bench_obs.json` so overhead regressions are
//! diffable.
//!
//! Usage: `bench_obs [--quick]` — `--quick` shrinks iteration counts
//! for CI smoke runs and writes `bench_obs.quick.json` instead.

use clapped_bench::{print_table, save_snapshot};
use clapped_obs::Stopwatch;
use serde_json::json;
use std::hint::black_box;

/// Best-of-`reps` mean ns/op of `iters` calls to `f` (one warmup rep).
fn ns_per_op(reps: usize, iters: u64, mut f: impl FnMut()) -> f64 {
    let mut run = |iters: u64| {
        let start = Stopwatch::start();
        for _ in 0..iters {
            f();
        }
        start.elapsed().as_nanos() as f64 / iters as f64
    };
    run(iters.min(1000)); // warmup
    (0..reps).map(|_| run(iters)).fold(f64::INFINITY, f64::min)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    let (reps, iters) = if quick { (3, 200_000) } else { (10, 2_000_000) };

    clapped_obs::reset();
    let disabled_span = ns_per_op(reps, iters, || {
        let _ = black_box(clapped_obs::span(black_box("bench.obs.span")));
    });
    let disabled_count = ns_per_op(reps, iters, || {
        clapped_obs::count(black_box("bench.obs.counter"), black_box(1));
    });
    let disabled_observe = ns_per_op(reps, iters, || {
        clapped_obs::observe(black_box("bench.obs.hist"), black_box(42));
    });

    clapped_obs::enable();
    let enabled_span = ns_per_op(reps, iters, || {
        let _ = black_box(clapped_obs::span(black_box("bench.obs.span")));
    });
    let enabled_count = ns_per_op(reps, iters, || {
        clapped_obs::count(black_box("bench.obs.counter"), black_box(1));
    });
    let enabled_observe = ns_per_op(reps, iters, || {
        clapped_obs::observe(black_box("bench.obs.hist"), black_box(42));
    });
    clapped_obs::reset();

    let rows: Vec<(&str, f64, f64)> = vec![
        ("span enter/exit", disabled_span, enabled_span),
        ("counter add", disabled_count, enabled_count),
        ("histogram observe", disabled_observe, enabled_observe),
    ];
    print_table(
        "observability overhead (ns/op, best of reps)",
        &["operation", "disabled", "enabled"],
        &rows.iter()
            .map(|(name, d, e)| {
                vec![name.to_string(), format!("{d:.2}"), format!("{e:.2}")]
            })
            .collect::<Vec<_>>(),
    );

    let budget_ok = disabled_span < 5.0;
    println!(
        "\ndisabled span enter/exit: {disabled_span:.2} ns/op (budget 5 ns) — {}",
        if budget_ok { "OK" } else { "OVER BUDGET" }
    );

    save_snapshot(
        "bench_obs",
        quick,
        &json!({
            "quick": quick,
            "iters": iters,
            "reps": reps,
            "ns_per_op": {
                "disabled": {
                    "span": disabled_span,
                    "count": disabled_count,
                    "observe": disabled_observe,
                },
                "enabled": {
                    "span": enabled_span,
                    "count": enabled_count,
                    "observe": enabled_observe,
                },
            },
            "disabled_span_budget_ns": 5.0,
            "disabled_span_within_budget": budget_ok,
        }),
    );
    if !budget_ok {
        std::process::exit(1);
    }
}
