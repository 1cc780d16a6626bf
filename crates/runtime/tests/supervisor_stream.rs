//! End-to-end supervisor invariants: transparency when idle,
//! self-healing under injected faults, bit-exact checkpoint/resume.

use clapped_axops::{AxMul, MulArch};
use clapped_exec::Fnv64;
use clapped_imgproc::{ConvEngine, QuantKernel};
use clapped_netlist::{FaultKind, FaultSet};
use clapped_runtime::{
    DegradationLadder, FaultPlan, SlaSpec, StreamEvent, StreamOptions, StreamSupervisor,
    SwapReason, TrafficPhase,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

const IMAGE: usize = 16;

fn ops() -> Vec<Arc<AxMul>> {
    vec![
        Arc::new(AxMul::new("exact", MulArch::Exact)),
        Arc::new(AxMul::new("tr2", MulArch::Truncated { k: 2 })),
        Arc::new(AxMul::new("tr4", MulArch::Truncated { k: 4 })),
        Arc::new(AxMul::new("tr6", MulArch::Truncated { k: 6 })),
    ]
}

fn generous_sla() -> SlaSpec {
    SlaSpec { max_error_percent: 60.0, max_frame_time_us: 1e9 }
}

fn ladder_for(sla: &SlaSpec) -> DegradationLadder {
    let config = clapped_runtime::LadderConfig {
        image_size: IMAGE,
        calibration_frames: 2,
        ..clapped_runtime::LadderConfig::default()
    };
    DegradationLadder::build(&ops(), sla, &config).expect("ladder builds")
}

/// One shared generously-budgeted ladder (construction involves
/// accelerator characterization; build it once per process).
fn shared_ladder() -> &'static DegradationLadder {
    static LADDER: OnceLock<DegradationLadder> = OnceLock::new();
    LADDER.get_or_init(|| ladder_for(&generous_sla()))
}

/// The chained output digest of a *static* (never-reconfiguring) run of
/// one rung over the supervisor's exact traffic sequence.
fn static_digest(ladder: &DegradationLadder, rung: usize, options: &StreamOptions, frames: usize) -> u64 {
    let engine = ConvEngine::new(QuantKernel::gaussian(
        ladder.conv_config().window,
        ladder.kernel_sigma(),
    ));
    let taps = ladder.taps(rung);
    let mut phase = TrafficPhase::Calm;
    let mut digest = 0u64;
    for frame in 0..frames {
        phase = phase.next(options.seed, frame);
        let img = phase.frame(options.seed, frame, ladder.image_size());
        let out = engine.convolve(&img, ladder.conv_config(), &taps).expect("valid stream");
        let mut h = Fnv64::new();
        h.write_u64(digest);
        h.write(out.as_slice());
        digest = h.finish();
    }
    digest
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A supervisor that never sees SLA pressure (generous ceiling) and
    /// never steps down (hold window longer than the stream) is
    /// *transparent*: its output is bit-identical to the static
    /// configuration it started on, and it logs no events.
    #[test]
    fn quiet_supervisor_is_bit_identical_to_static_config(
        seed in 0u64..1_000_000,
        frames in 4usize..10,
        start_rung in 0usize..2,
    ) {
        let ladder = shared_ladder();
        prop_assume!(start_rung < ladder.len());
        let options = StreamOptions {
            seed,
            initial_rung: start_rung,
            hold_frames: frames + 1, // a step-down can never qualify
            ..StreamOptions::default()
        };
        let mut sup = StreamSupervisor::new(ladder.clone(), generous_sla(), options.clone())
            .expect("supervisor builds");
        let report = sup.run(frames).expect("stream runs");
        prop_assert_eq!(report.swaps, 0);
        prop_assert!(report.events.is_empty());
        prop_assert_eq!(report.violations, 0);
        prop_assert_eq!(sup.rung(), start_rung);
        let expected = static_digest(ladder, start_rung, &options, frames);
        prop_assert_eq!(report.output_digest, expected,
            "supervised output must be bit-identical to the static configuration");
    }
}

fn msb_fault(ladder: &DegradationLadder, rung: usize) -> FaultSet {
    let msb = ladder.rungs()[rung].op.netlist().outputs().last().expect("product MSB").1;
    FaultSet::empty().stuck_at(msb, FaultKind::StuckAt1)
}

fn faulted_options(ladder: &DegradationLadder) -> StreamOptions {
    let rung = 1.min(ladder.len() - 1);
    StreamOptions {
        seed: 11,
        initial_rung: rung,
        hold_frames: 1_000, // isolate the fault path from headroom swaps
        audit: true,
        fault: Some(FaultPlan { frame: 3, tap: 4, faults: msb_fault(ladder, rung) }),
        ..StreamOptions::default()
    }
}

#[test]
fn injected_fault_is_detected_quarantined_and_recovered() {
    let ladder = shared_ladder();
    let options = faulted_options(ladder);
    let faulty_rung = options.initial_rung;
    let mut sup = StreamSupervisor::new(ladder.clone(), generous_sla(), options)
        .expect("supervisor builds");
    let report = sup.run(20).expect("stream survives the fault");

    let latency = report.detection_latency_frames.expect("the watchdog must catch an MSB fault");
    assert!(latency <= 3, "detection latency {latency} frames exceeds the probe budget's reach");
    assert!(
        report.events.iter().any(|e| matches!(e,
            StreamEvent::FaultDetected { rung, .. } if *rung == faulty_rung)),
        "a FaultDetected event must be logged"
    );
    assert!(
        report.events.iter().any(|e| matches!(e,
            StreamEvent::Quarantine { rung, .. } if *rung == faulty_rung)),
        "the corrupted rung must be quarantined"
    );
    assert!(
        report.events.iter().any(|e| matches!(e,
            StreamEvent::Swap { reason: SwapReason::FaultRecovery, .. })),
        "recovery must be a logged swap"
    );
    assert_ne!(sup.rung(), faulty_rung, "the stream must leave the corrupted rung");

    // Post-recovery frames are healthy: the audited true error of every
    // frame after detection stays within the (generous) SLA.
    let detect_frame = report
        .events
        .iter()
        .find_map(|e| match e {
            StreamEvent::FaultDetected { frame, .. } => Some(*frame),
            _ => None,
        })
        .expect("detection event present");
    for rec in report.records.iter().filter(|r| r.frame >= detect_frame) {
        let true_err = rec.true_error_percent.expect("audit enabled");
        assert!(
            true_err <= generous_sla().max_error_percent,
            "post-recovery frame {} violates the SLA ({true_err:.2}%)",
            rec.frame
        );
    }
}

#[test]
fn checkpoint_resume_replays_the_uninterrupted_stream_bit_exactly() {
    let ladder = shared_ladder();
    let options = faulted_options(ladder);
    let total = 16;
    let cut = 5; // after injection (frame 3), around detection

    // Uninterrupted reference run.
    let mut whole = StreamSupervisor::new(ladder.clone(), generous_sla(), options.clone())
        .expect("supervisor builds");
    let whole_report = whole.run(total).expect("runs");

    // Killed-and-resumed run: checkpoint mid-stream, rebuild from JSON.
    let mut first = StreamSupervisor::new(ladder.clone(), generous_sla(), options.clone())
        .expect("supervisor builds");
    first.run(cut).expect("first half runs");
    let snapshot = first.checkpoint();
    drop(first);
    let mut resumed =
        StreamSupervisor::resume(ladder.clone(), generous_sla(), options.clone(), &snapshot)
            .expect("checkpoint restores");
    assert_eq!(resumed.frame(), cut);
    let resumed_report = resumed.run(total).expect("second half runs");

    assert_eq!(resumed_report.output_digest, whole_report.output_digest,
        "resumed stream must emit bit-identical pixels");
    assert_eq!(resumed_report.events, whole_report.events,
        "resumed stream must log the identical reconfiguration history");
    assert_eq!(resumed_report.swaps, whole_report.swaps);
    assert_eq!(resumed_report.violations, whole_report.violations);
    assert_eq!(resumed.rung(), whole.rung());
    assert_eq!(
        resumed_report.detection_latency_frames,
        whole_report.detection_latency_frames
    );

    // And the checkpoint text itself round-trips byte-identically.
    let again = StreamSupervisor::resume(
        ladder.clone(),
        generous_sla(),
        options,
        &snapshot,
    )
    .expect("restores twice");
    assert_eq!(again.checkpoint(), snapshot);
}

#[test]
fn malformed_checkpoints_are_rejected() {
    let ladder = shared_ladder();
    let options = StreamOptions::default();
    let sla = generous_sla();
    for text in [
        "",
        "not json",
        "{}",
        r#"{"version": 999}"#,
        r#"{"version": 1, "seed": 42}"#, // wrong seed (options.seed == 1)
    ] {
        assert!(
            StreamSupervisor::resume(ladder.clone(), sla, options.clone(), text).is_err(),
            "checkpoint {text:?} must be rejected"
        );
    }
}

/// `Fnv64` digest of the checkpoint written after the 20-frame faulted
/// run of [`faulted_checkpoint`]; any codec change that moves a byte of
/// the document fails the pin.
const PINNED_CHECKPOINT: u64 = 15115639404405854614;

/// Bytes a corruption draws from half of the time: the JSON grammar's
/// structural characters, so mutations reach the field readers instead
/// of stopping at the parser.
const GRAMMAR: &[u8] = b"0123456789-+.eE\"{}[],: ntfrul\\";

fn faulted_checkpoint() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let ladder = shared_ladder();
        let mut sup = StreamSupervisor::new(ladder.clone(), generous_sla(), faulted_options(ladder))
            .expect("supervisor builds");
        sup.run(20).expect("stream survives the fault");
        sup.checkpoint()
    })
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let text = faulted_checkpoint();
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    assert_eq!(h.finish(), PINNED_CHECKPOINT, "checkpoint format moved:\n{text}");
}

#[test]
fn every_truncated_checkpoint_is_rejected() {
    let ladder = shared_ladder();
    let options = faulted_options(ladder);
    let text = faulted_checkpoint().trim();
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert!(
            StreamSupervisor::resume(ladder.clone(), generous_sla(), options.clone(), &text[..cut])
                .is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn corrupted_checkpoints_never_panic(
        position in any::<usize>(),
        byte in any::<u8>(),
        grammar in any::<bool>(),
    ) {
        let ladder = shared_ladder();
        let options = faulted_options(ladder);
        let mut bytes = faulted_checkpoint().as_bytes().to_vec();
        let at = position % bytes.len();
        bytes[at] = if grammar { GRAMMAR[usize::from(byte) % GRAMMAR.len()] } else { byte };
        let text = String::from_utf8_lossy(&bytes);
        let _ = StreamSupervisor::resume(ladder.clone(), generous_sla(), options, &text);
    }
}
