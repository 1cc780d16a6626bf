//! Wide-word simulation snapshot: the three gate-level hot paths that
//! bound cross-layer DSE throughput, each measured against its retained
//! 64-lane reference with bit-identity asserted on every run.
//!
//! 1. exhaustive 8×8 behavioural-table derivation (`axops::table`),
//! 2. stuck-at fault campaigns (`netlist::fault`),
//! 3. streaming frame simulation (`accel::streamsim`, warm datapath).
//!
//! Emits machine-readable numbers to `results/bench_sim.json` so perf
//! regressions are diffable. Full runs additionally enforce the
//! acceptance floors (≥4× table build, ≥4× campaign, ≥5× frames/sec);
//! `--quick` shrinks workloads for CI smoke runs, writes
//! `bench_sim.quick.json` instead and skips the floors
//! (timings on loaded CI runners are advisory only — bit-identity is
//! still asserted). `--trace[=PATH]` captures an obs JSONL trace.

use clapped_accel::{simulate_stream, simulate_stream_ref, AcceleratorSpec};
use clapped_axops::{build_mul_table, build_mul_table_ref64, Catalog};
use clapped_bench::{print_table, save_snapshot, time_best};
use clapped_imgproc::{Image, QuantKernel, SynthKind};
use clapped_netlist::FaultSet;
use serde_json::json;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    clapped_obs::init_trace_from_args();
    let reps = if quick { 2 } else { 5 };
    let catalog = Catalog::standard();

    // --- 1. Exhaustive behavioural-table derivation -------------------
    let table_ops = if quick {
        vec!["mul8s_exact"]
    } else {
        vec!["mul8s_exact", "mul8s_tr4", "mul8s_bam_v8_h3"]
    };
    let mut table_rows = Vec::new();
    let mut table_json = Vec::new();
    let mut worst_table_speedup = f64::INFINITY;
    for name in &table_ops {
        let op = catalog.get(name).expect("catalog operator");
        let n = op.netlist();
        assert_eq!(
            build_mul_table(n),
            build_mul_table_ref64(n, &FaultSet::empty()),
            "{name}: table divergence"
        );
        let t_ref = time_best(reps, || build_mul_table_ref64(n, &FaultSet::empty()));
        let t_wide = time_best(reps, || build_mul_table(n));
        let speedup = t_ref / t_wide;
        worst_table_speedup = worst_table_speedup.min(speedup);
        table_rows.push(vec![
            (*name).to_string(),
            format!("{:.2}", t_ref * 1e3),
            format!("{:.2}", t_wide * 1e3),
            format!("{speedup:.1}x"),
        ]);
        table_json.push(json!({
            "operator": name,
            "ref64_ms": t_ref * 1e3,
            "wide_ms": t_wide * 1e3,
            "speedup": speedup,
        }));
    }
    print_table(
        &format!("Exhaustive 8x8 table build: wide blocks vs 64-lane (best of {reps})"),
        &["operator", "ref64 ms", "wide ms", "speedup"],
        &table_rows,
    );

    // --- 2. Stuck-at fault campaign -----------------------------------
    let campaign_op = catalog.get("mul8s_exact").expect("catalog operator");
    let n = campaign_op.netlist();
    let n_batches = if quick { 8 } else { 32 };
    let mut state = 0xD1B54A32D192ED03u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    let batches: Vec<Vec<u64>> =
        (0..n_batches).map(|_| (0..n.inputs().len()).map(|_| next()).collect()).collect();
    let sites = {
        let all = n.fault_sites();
        let keep = if quick { 64 } else { 256 };
        all.into_iter().take(keep).collect::<Vec<_>>()
    };
    let engine = clapped_exec::Engine::serial();
    let wide_report =
        n.stuck_at_campaign(&sites, &batches, 64, &engine).expect("wide campaign runs");
    let ref_report =
        n.stuck_at_campaign_ref(&sites, &batches, 64).expect("reference campaign runs");
    assert_eq!(wide_report, ref_report, "campaign divergence");
    let t_camp_ref = time_best(reps, || n.stuck_at_campaign_ref(&sites, &batches, 64));
    let t_camp_wide = time_best(reps, || n.stuck_at_campaign(&sites, &batches, 64, &engine));
    let campaign_speedup = t_camp_ref / t_camp_wide;
    print_table(
        &format!(
            "Stuck-at campaign ({} sites x {} batches, best of {reps})",
            sites.len(),
            n_batches
        ),
        &["path", "time ms", "speedup"],
        &[
            vec![
                "ref64 serial".to_string(),
                format!("{:.2}", t_camp_ref * 1e3),
                "1.0x".to_string(),
            ],
            vec![
                "wide sharded".to_string(),
                format!("{:.2}", t_camp_wide * 1e3),
                format!("{campaign_speedup:.1}x"),
            ],
        ],
    );

    // --- 3. Streaming frame pipeline (warm datapath) ------------------
    let frame_op = catalog.get("mul8s_tr4").expect("catalog operator");
    let size = if quick { 32 } else { 64 };
    let kernel = QuantKernel::gaussian(3, 0.85);
    let img = Image::synthetic(SynthKind::Blobs, size, size, 7);
    let spec = AcceleratorSpec::uniform_2d(size, 3, &frame_op);
    let fast = simulate_stream(&spec, &img, kernel.coeffs_2d(), kernel.shift()).expect("frame");
    let slow = simulate_stream_ref(&spec, &img, kernel.coeffs_2d(), kernel.shift()).expect("frame");
    assert_eq!(fast, slow, "streamsim divergence");
    let t_ref =
        time_best(reps, || simulate_stream_ref(&spec, &img, kernel.coeffs_2d(), kernel.shift()));
    let t_fast =
        time_best(reps, || simulate_stream(&spec, &img, kernel.coeffs_2d(), kernel.shift()));
    let frame_speedup = t_ref / t_fast;
    print_table(
        &format!("Streaming frame pipeline ({size}x{size}, 3x3, best of {reps})"),
        &["path", "frame ms", "frames/s", "speedup"],
        &[
            vec![
                "rebuild + 64-lane".to_string(),
                format!("{:.2}", t_ref * 1e3),
                format!("{:.1}", 1.0 / t_ref),
                "1.0x".to_string(),
            ],
            vec![
                "compiled wide".to_string(),
                format!("{:.2}", t_fast * 1e3),
                format!("{:.1}", 1.0 / t_fast),
                format!("{frame_speedup:.1}x"),
            ],
        ],
    );
    let dp_stats = clapped_accel::datapath_cache_stats();

    save_snapshot(
        "bench_sim",
        quick,
        &json!({
            "quick": quick,
            "table_build": table_json,
            "campaign": {
                "operator": "mul8s_exact",
                "sites": sites.len(),
                "batches": n_batches,
                "ref64_ms": t_camp_ref * 1e3,
                "wide_ms": t_camp_wide * 1e3,
                "speedup": campaign_speedup,
            },
            "streamsim": {
                "operator": "mul8s_tr4",
                "image_size": size,
                "ref_frame_ms": t_ref * 1e3,
                "wide_frame_ms": t_fast * 1e3,
                "ref_fps": 1.0 / t_ref,
                "wide_fps": 1.0 / t_fast,
                "speedup": frame_speedup,
                "datapath_memo": {
                    "hits": dp_stats.hits,
                    "misses": dp_stats.misses,
                    "entries": dp_stats.entries,
                },
            },
        }),
    );

    if !quick {
        assert!(
            worst_table_speedup >= 4.0,
            "table-build floor missed: {worst_table_speedup:.2}x < 4x"
        );
        assert!(
            campaign_speedup >= 4.0,
            "campaign floor missed: {campaign_speedup:.2}x < 4x"
        );
        assert!(frame_speedup >= 5.0, "streamsim floor missed: {frame_speedup:.2}x < 5x");
    }
    if let Some(report) = clapped_obs::finish() {
        println!("{report}");
    }
}
