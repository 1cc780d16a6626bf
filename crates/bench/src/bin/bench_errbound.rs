//! Formal error-bound analysis snapshot: static proved bounds vs
//! exhaustive simulation. For each operator it times the microsecond
//! interval tier and the exact BDD tier against the exhaustive 8×8
//! table build, with soundness asserted on every run (proved WCE ≥
//! observed max, exact counts bit-equal to the table).
//!
//! Emits machine-readable numbers to `results/bench_errbound.json`.
//! Full runs additionally enforce the acceptance floor (interval tier
//! ≥2× faster than the already-wide-simulated table build); `--quick`
//! shrinks the workload for CI smoke runs, skips the floor and writes
//! `bench_errbound.quick.json` instead.
//! `--trace[=PATH]` captures an obs JSONL trace.

use clapped_axops::{build_mul_table, Catalog, MulArch};
use clapped_bench::{print_table, save_snapshot};
use clapped_netlist::{analyze_error_bounds, ErrBoundConfig};
use clapped_obs::Stopwatch;
use serde_json::json;

/// Best-of-`reps` wall-clock seconds of `f` (a warmup call is dropped
/// first — it is where process-wide memos fault in).
fn time_best<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    std::hint::black_box(f());
    for _ in 0..reps {
        let start = Stopwatch::start();
        std::hint::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Max |table entry − a·b| and the number of erring input pairs.
fn observed_table_error(table: &[i16]) -> (u64, u64) {
    let mut max_abs = 0u64;
    let mut mismatches = 0u64;
    for (idx, &got) in table.iter().enumerate() {
        let a = (idx >> 8) as u8 as i8;
        let b = (idx & 0xff) as u8 as i8;
        let err = i64::from(i32::from(got) - i32::from(a) * i32::from(b)).unsigned_abs();
        if err > 0 {
            mismatches += 1;
            max_abs = max_abs.max(err);
        }
    }
    (max_abs, mismatches)
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    clapped_obs::init_trace_from_args();
    let reps = if quick { 2 } else { 5 };
    let catalog = Catalog::standard();
    let reference = MulArch::Exact.build_netlist();
    let interval_cfg = ErrBoundConfig { bdd_node_limit: 0, signed_outputs: true };
    let exact_cfg = ErrBoundConfig { bdd_node_limit: 2_000_000, signed_outputs: true };

    let ops = if quick {
        vec!["mul8s_tr4"]
    } else {
        vec![
            "mul8s_exact",
            "mul8s_tr4",
            "mul8s_bam_v8_h3",
            "mul8s_cmp8",
            "mul8s_loa8",
            "mul8s_log",
            "mul8s_drum4",
            "mul8s_booth",
        ]
    };
    let mut rows = Vec::new();
    let mut ops_json = Vec::new();
    let mut worst_interval_speedup = f64::INFINITY;
    for name in &ops {
        let op = catalog.get(name).expect("catalog operator");
        let n = op.netlist();
        let table = build_mul_table(n);
        let (observed_max, observed_mismatches) = observed_table_error(&table);
        let interval =
            analyze_error_bounds(n, &reference, &interval_cfg).expect("interval analysis");
        assert!(
            interval.proved_wce >= observed_max,
            "{name}: interval WCE {} < observed {observed_max}",
            interval.proved_wce
        );
        let exact = analyze_error_bounds(n, &reference, &exact_cfg).expect("exact analysis");
        let e = exact.exact.expect("gate budget fits every catalog miter");
        assert_eq!(e.wce, observed_max, "{name}: exact WCE disagrees with the table");
        assert_eq!(
            e.mismatch_count,
            u128::from(observed_mismatches),
            "{name}: exact mismatch count disagrees with the table"
        );
        let t_table = time_best(reps, || build_mul_table(n));
        let t_interval =
            time_best(reps, || analyze_error_bounds(n, &reference, &interval_cfg));
        let t_exact = time_best(reps, || analyze_error_bounds(n, &reference, &exact_cfg));
        let interval_speedup = t_table / t_interval;
        worst_interval_speedup = worst_interval_speedup.min(interval_speedup);
        rows.push(vec![
            (*name).to_string(),
            format!("{:.2}", t_table * 1e3),
            format!("{:.3}", t_interval * 1e3),
            format!("{:.1}", t_exact * 1e3),
            format!("{}", interval.proved_wce),
            format!("{}", e.wce),
            format!("{observed_max}"),
        ]);
        ops_json.push(json!({
            "operator": name,
            "table_ms": t_table * 1e3,
            "interval_ms": t_interval * 1e3,
            "exact_ms": t_exact * 1e3,
            "interval_speedup": interval_speedup,
            "interval_wce": interval.proved_wce,
            "exact_wce": e.wce,
            "observed_max": observed_max,
            "mismatches": observed_mismatches,
            "error_rate": e.error_rate,
        }));
    }
    print_table(
        &format!("Static error bounds vs exhaustive table (best of {reps})"),
        &["operator", "table ms", "interval ms", "exact ms", "ival WCE", "exact WCE", "observed"],
        &rows,
    );

    save_snapshot(
        "bench_errbound",
        quick,
        &json!({
            "quick": quick,
            "operators": ops_json,
        }),
    );

    if !quick {
        assert!(
            worst_interval_speedup >= 2.0,
            "interval-tier floor missed: {worst_interval_speedup:.2}x < 2x"
        );
    }
    if let Some(report) = clapped_obs::finish() {
        println!("{report}");
    }
}
