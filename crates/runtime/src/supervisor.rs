//! The stream supervisor: executes frames, watches quality and health,
//! and reconfigures the pipeline to keep the SLA.
//!
//! # Control policy
//!
//! The controller is deliberately asymmetric ("quality first"):
//!
//! - **Step up** (more accurate) the moment the monitor's *upper*
//!   confidence bound crosses the SLA ceiling — even during a
//!   reconfiguration cooldown. Quality regressions are never queued.
//! - **Step down** (cheaper) only after `hold_frames` consecutive
//!   frames of demonstrated headroom — the upper bound plus the
//!   calibrated error delta to the next rung must stay under
//!   `(1 − headroom) · ceiling` — and only outside the backoff window.
//!
//! Every swap arms an exponential backoff: a swap that follows closely
//! on the previous one doubles the cooldown (up to a cap), a swap after
//! a long quiet period resets it. Step-downs respect the cooldown, so
//! the controller can never oscillate between two rungs faster than the
//! doubling window: flapping decays geometrically.
//!
//! # Self-healing
//!
//! A [`FaultPlan`] silently corrupts one deployed tap at a chosen
//! frame (the same `clapped-axops` fault machinery as the offline
//! campaigns). The watchdog spot checks deployed taps against the
//! healthy behavioural table each frame; on a mismatch the supervisor
//! quarantines the rung, swaps to the nearest healthy rung, **re-runs
//! the frame on the healthy pipeline** (the recovery frame ships
//! clean), and records the detection latency in frames.
//!
//! # Determinism and checkpointing
//!
//! All per-frame randomness derives from `(seed, frame)`; the
//! controller state is a small flat struct serialized to versioned JSON
//! ([`StreamSupervisor::checkpoint`]). Resuming from a checkpoint and
//! running to frame `N` is bit-identical — same rung trajectory, same
//! event log, same chained output digest — to an uninterrupted run.

use crate::{
    DegradationLadder, FaultWatchdog, MonitorConfig, QualityEstimate, QualityMonitor, Result,
    RuntimeError, SlaSpec, TrafficConfig, TrafficPhase, WatchdogConfig, WatchdogVerdict,
};
use clapped_accel::{simulate_stream, AcceleratorSpec};
use clapped_axops::{FaultedMul, Mul8s};
use clapped_errmodel::ErrorStats;
use clapped_exec::{json, Fnv64};
use clapped_imgproc::{app_error_percent, ConvEngine, ConvMode, QuantKernel};
use clapped_netlist::FaultSet;
use serde_json::{json, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Version tag of the checkpoint schema.
pub const CHECKPOINT_VERSION: u64 = 1;

/// A scheduled mid-stream hardware fault.
#[derive(Debug, Clone)]
pub struct FaultPlan {
    /// Frame index at which the fault strikes.
    pub frame: usize,
    /// Deployed tap the fault corrupts.
    pub tap: usize,
    /// The stuck-at set applied to the tap operator's netlist.
    pub faults: FaultSet,
}

/// Why the controller swapped rungs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SwapReason {
    /// The quality upper bound crossed the SLA ceiling.
    SlaPressure,
    /// Sustained headroom justified a cheaper rung.
    Headroom,
    /// A corrupted rung was quarantined.
    FaultRecovery,
}

impl SwapReason {
    /// Stable name used in checkpoints and reports.
    pub fn name(self) -> &'static str {
        match self {
            SwapReason::SlaPressure => "sla-pressure",
            SwapReason::Headroom => "headroom",
            SwapReason::FaultRecovery => "fault-recovery",
        }
    }

    fn from_name(name: &str) -> Option<SwapReason> {
        match name {
            "sla-pressure" => Some(SwapReason::SlaPressure),
            "headroom" => Some(SwapReason::Headroom),
            "fault-recovery" => Some(SwapReason::FaultRecovery),
            _ => None,
        }
    }
}

/// An entry of the reconfiguration log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// The controller moved between rungs.
    Swap {
        /// Frame of the swap.
        frame: usize,
        /// Rung before.
        from_rung: usize,
        /// Rung after.
        to_rung: usize,
        /// Why.
        reason: SwapReason,
    },
    /// The watchdog caught a corrupted tap.
    FaultDetected {
        /// Frame of detection.
        frame: usize,
        /// Corrupted tap.
        tap: usize,
        /// Rung that was corrupted.
        rung: usize,
        /// Frames from injection to detection (≥ 1).
        latency_frames: usize,
    },
    /// A rung was quarantined.
    Quarantine {
        /// Frame of quarantine.
        frame: usize,
        /// The quarantined rung.
        rung: usize,
    },
    /// The netlist-level stream simulation disagreed with the compiled
    /// pipeline (it never should; recorded, not panicked).
    HwDivergence {
        /// Frame of divergence.
        frame: usize,
        /// Deployed rung.
        rung: usize,
    },
}

impl StreamEvent {
    fn to_json(&self) -> Value {
        match self {
            StreamEvent::Swap { frame, from_rung, to_rung, reason } => json!({
                "type": "swap", "frame": frame, "from_rung": from_rung,
                "to_rung": to_rung, "reason": reason.name(),
            }),
            StreamEvent::FaultDetected { frame, tap, rung, latency_frames } => json!({
                "type": "fault-detected", "frame": frame, "tap": tap,
                "rung": rung, "latency_frames": latency_frames,
            }),
            StreamEvent::Quarantine { frame, rung } => {
                json!({"type": "quarantine", "frame": frame, "rung": rung})
            }
            StreamEvent::HwDivergence { frame, rung } => {
                json!({"type": "hw-divergence", "frame": frame, "rung": rung})
            }
        }
    }

    fn from_json(v: &Value) -> Result<StreamEvent> {
        let frame = json::field(v, "frame")?;
        match json::field(v, "type")? {
            "swap" => Ok(StreamEvent::Swap {
                frame,
                from_rung: json::field(v, "from_rung")?,
                to_rung: json::field(v, "to_rung")?,
                reason: SwapReason::from_name(json::field(v, "reason")?)
                    .ok_or_else(|| bad("unknown swap reason"))?,
            }),
            "fault-detected" => Ok(StreamEvent::FaultDetected {
                frame,
                tap: json::field(v, "tap")?,
                rung: json::field(v, "rung")?,
                latency_frames: json::field(v, "latency_frames")?,
            }),
            "quarantine" => Ok(StreamEvent::Quarantine { frame, rung: json::field(v, "rung")? }),
            "hw-divergence" => {
                Ok(StreamEvent::HwDivergence { frame, rung: json::field(v, "rung")? })
            }
            other => Err(bad(format!("unknown event type `{other}`"))),
        }
    }
}

/// Stream execution options.
#[derive(Debug, Clone)]
pub struct StreamOptions {
    /// Stream seed: the single source of all per-frame randomness.
    pub seed: u64,
    /// Traffic model.
    pub traffic: TrafficConfig,
    /// Quality-monitor parameters.
    pub monitor: MonitorConfig,
    /// Watchdog parameters.
    pub watchdog: WatchdogConfig,
    /// Rung the stream starts on.
    pub initial_rung: usize,
    /// Consecutive headroom frames required before a step-down.
    pub hold_frames: usize,
    /// Fraction of the error ceiling kept in reserve for step-downs.
    pub headroom_fraction: f64,
    /// Initial/reset reconfiguration cooldown (frames).
    pub base_backoff_frames: usize,
    /// Cooldown cap (frames).
    pub max_backoff_frames: usize,
    /// Compute the true full-frame error each frame (for reports and
    /// benches; the controller never reads it).
    pub audit: bool,
    /// Cross-check every k-th healthy frame against the netlist-level
    /// accelerator simulation (`0` disables).
    pub hw_crosscheck_every: usize,
    /// Optional scheduled fault.
    pub fault: Option<FaultPlan>,
}

impl Default for StreamOptions {
    fn default() -> StreamOptions {
        StreamOptions {
            seed: 1,
            traffic: TrafficConfig::default(),
            monitor: MonitorConfig::default(),
            watchdog: WatchdogConfig::default(),
            initial_rung: 0,
            hold_frames: 4,
            headroom_fraction: 0.25,
            base_backoff_frames: 4,
            max_backoff_frames: 64,
            audit: false,
            hw_crosscheck_every: 0,
            fault: None,
        }
    }
}

/// One frame's outcome.
#[derive(Debug, Clone)]
pub struct FrameRecord {
    /// Frame index.
    pub frame: usize,
    /// Traffic phase the frame arrived in.
    pub phase: TrafficPhase,
    /// Rung that produced the *emitted* output (post-recovery on
    /// detection frames).
    pub rung: usize,
    /// The monitor's estimate for the emitted output.
    pub estimate: QualityEstimate,
    /// Whether the estimate crossed the SLA ceiling.
    pub violated: bool,
    /// Full-frame true error (%), when auditing.
    pub true_error_percent: Option<f64>,
    /// Why the controller swapped this frame, if it did.
    pub swapped: Option<SwapReason>,
    /// Modeled energy of the frame (µJ).
    pub energy_uj: f64,
}

/// Aggregate outcome of a [`StreamSupervisor::run`] call.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Frames processed in total (stream position after the run).
    pub frames: usize,
    /// Per-frame records of this call.
    pub records: Vec<FrameRecord>,
    /// Full reconfiguration/fault log since frame 0.
    pub events: Vec<StreamEvent>,
    /// Monitor-estimated SLA violations since frame 0.
    pub violations: u64,
    /// Audited true SLA violations since frame 0 (0 when not auditing).
    pub true_violations: u64,
    /// Controller swaps since frame 0.
    pub swaps: u64,
    /// Chained FNV digest of every emitted pixel since frame 0.
    pub output_digest: u64,
    /// Total modeled energy (µJ) since frame 0.
    pub energy_uj: f64,
    /// Total modeled power-delay product (pJ) since frame 0.
    pub pdp_pj: f64,
    /// Fault detection latency in frames, once detected.
    pub detection_latency_frames: Option<usize>,
}

/// Mutable controller state — exactly what a checkpoint captures.
#[derive(Debug, Clone)]
struct ControllerState {
    frame: usize,
    rung: usize,
    phase: TrafficPhase,
    calm_streak: usize,
    backoff_frames: usize,
    cooldown_until: usize,
    last_swap_frame: Option<usize>,
    quarantined: BTreeSet<usize>,
    violations: u64,
    true_violations: u64,
    swaps: u64,
    output_digest: u64,
    energy_uj: f64,
    pdp_pj: f64,
    fault_injected: bool,
    fault_rung: Option<usize>,
    fault_detected_frame: Option<usize>,
    events: Vec<StreamEvent>,
}

impl ControllerState {
    fn fresh(options: &StreamOptions) -> ControllerState {
        ControllerState {
            frame: 0,
            rung: options.initial_rung,
            phase: TrafficPhase::Calm,
            calm_streak: 0,
            backoff_frames: options.base_backoff_frames,
            cooldown_until: 0,
            last_swap_frame: None,
            quarantined: BTreeSet::new(),
            violations: 0,
            true_violations: 0,
            swaps: 0,
            output_digest: 0,
            energy_uj: 0.0,
            pdp_pj: 0.0,
            fault_injected: false,
            fault_rung: None,
            fault_detected_frame: None,
            events: Vec::new(),
        }
    }
}

fn bad(reason: impl Into<String>) -> RuntimeError {
    RuntimeError::Checkpoint { reason: reason.into() }
}

/// The runtime supervisor. Construct with [`StreamSupervisor::new`] (or
/// [`StreamSupervisor::resume`]), then drive with
/// [`StreamSupervisor::step`] / [`StreamSupervisor::run`].
#[derive(Debug)]
pub struct StreamSupervisor {
    sla: SlaSpec,
    options: StreamOptions,
    ladder: DegradationLadder,
    engine: ConvEngine,
    kernel: QuantKernel,
    exact_taps: Vec<Arc<dyn Mul8s>>,
    exact_stats: ErrorStats,
    monitor: QualityMonitor,
    watchdog: FaultWatchdog,
    deployed: Vec<Arc<dyn Mul8s>>,
    state: ControllerState,
}

impl StreamSupervisor {
    /// Builds a supervisor over a calibrated ladder.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] for an empty ladder, an
    /// out-of-range initial rung or fault tap, or degenerate controller
    /// parameters.
    pub fn new(
        ladder: DegradationLadder,
        sla: SlaSpec,
        options: StreamOptions,
    ) -> Result<StreamSupervisor> {
        sla.validate()?;
        Self::validate_options(&ladder, &options)?;
        let kernel = QuantKernel::gaussian(ladder.conv_config().window, ladder.kernel_sigma());
        let engine = ConvEngine::new(kernel.clone());
        let exact = ladder.rungs()[0].op.clone();
        let exact_stats = ladder.rungs()[0].stats;
        if exact_stats.error_probability != 0.0 {
            return Err(RuntimeError::BadConfig {
                reason: "ladder rung 0 must be the exact operator".to_string(),
            });
        }
        let taps = ladder.conv_config().taps();
        let exact_taps: Vec<Arc<dyn Mul8s>> =
            (0..taps).map(|_| exact.clone() as Arc<dyn Mul8s>).collect();
        let monitor = QualityMonitor::new(exact.as_ref(), &kernel, options.monitor)?;
        let watchdog = FaultWatchdog::new(options.watchdog);
        let state = ControllerState::fresh(&options);
        let mut sup = StreamSupervisor {
            sla,
            options,
            ladder,
            engine,
            kernel,
            exact_taps,
            exact_stats,
            monitor,
            watchdog,
            deployed: Vec::new(),
            state,
        };
        sup.redeploy()?;
        Ok(sup)
    }

    fn validate_options(ladder: &DegradationLadder, options: &StreamOptions) -> Result<()> {
        if ladder.is_empty() {
            return Err(RuntimeError::BadConfig { reason: "empty ladder".to_string() });
        }
        let conv = ladder.conv_config();
        if conv.mode != ConvMode::TwoD || conv.scale != 1 {
            return Err(RuntimeError::BadConfig {
                reason: "the supervisor serves 2D, unscaled streams".to_string(),
            });
        }
        if options.initial_rung >= ladder.len() {
            return Err(RuntimeError::BadConfig {
                reason: format!(
                    "initial rung {} outside ladder of {} rungs",
                    options.initial_rung,
                    ladder.len()
                ),
            });
        }
        if let Some(plan) = &options.fault {
            if plan.tap >= conv.taps() {
                return Err(RuntimeError::BadConfig {
                    reason: format!("fault tap {} outside {} taps", plan.tap, conv.taps()),
                });
            }
        }
        if options.hold_frames == 0
            || options.base_backoff_frames == 0
            || options.max_backoff_frames < options.base_backoff_frames
            || !(0.0..1.0).contains(&options.headroom_fraction)
        {
            return Err(RuntimeError::BadConfig {
                reason: "hold/backoff/headroom parameters out of range".to_string(),
            });
        }
        Ok(())
    }

    /// Rebuilds the deployed tap list from the current rung, applying
    /// the scheduled fault when it is active on this rung.
    fn redeploy(&mut self) -> Result<()> {
        let _span = clapped_obs::span("runtime.reconfigure");
        let mut taps = self.ladder.taps(self.state.rung);
        if let (Some(plan), true, None) =
            (&self.options.fault, self.state.fault_injected, self.state.fault_detected_frame)
        {
            if self.state.fault_rung == Some(self.state.rung) {
                let base = &self.ladder.rungs()[self.state.rung].op;
                let faulted = FaultedMul::new(base.as_ref(), &plan.faults)?;
                taps[plan.tap] = Arc::new(faulted);
            }
        }
        self.deployed = taps;
        clapped_obs::gauge_set("runtime.rung", self.state.rung as f64);
        Ok(())
    }

    fn record_swap(&mut self, to: usize, reason: SwapReason) -> Result<()> {
        let frame = self.state.frame;
        self.state.events.push(StreamEvent::Swap {
            frame,
            from_rung: self.state.rung,
            to_rung: to,
            reason,
        });
        self.state.rung = to;
        self.state.swaps += 1;
        self.state.calm_streak = 0;
        clapped_obs::count("runtime.swaps", 1);
        if reason != SwapReason::FaultRecovery {
            // Exponential backoff: a swap inside the doubling window of
            // the previous one doubles the cooldown, a quiet period
            // resets it to base.
            let recent = self
                .state
                .last_swap_frame
                .is_some_and(|f| frame.saturating_sub(f) <= 2 * self.state.backoff_frames);
            self.state.backoff_frames = if recent {
                (self.state.backoff_frames * 2).min(self.options.max_backoff_frames)
            } else {
                self.options.base_backoff_frames
            };
            self.state.cooldown_until = frame + self.state.backoff_frames;
            self.state.last_swap_frame = Some(frame);
        }
        self.redeploy()
    }

    /// Executes one frame: traffic, convolution, watchdog, monitor,
    /// and the control decision. Returns the frame's record.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors; returns [`RuntimeError::BadConfig`]
    /// if a fault leaves no healthy rung to recover onto.
    pub fn step(&mut self) -> Result<FrameRecord> {
        let _span = clapped_obs::span("runtime.frame");
        let frame = self.state.frame;
        let seed = self.options.seed;
        let conv = *self.ladder.conv_config();
        let size = self.ladder.image_size();

        // 1. Traffic: advance the phase chain, synthesize the frame.
        self.state.phase = self.options.traffic.next_phase(seed, frame, self.state.phase);
        let input = self.options.traffic.frame(seed, frame, self.state.phase, size);

        // 2. Scheduled fault strikes silently.
        if let Some(plan) = &self.options.fault {
            if frame == plan.frame && !self.state.fault_injected {
                self.state.fault_injected = true;
                self.state.fault_rung = Some(self.state.rung);
                self.redeploy()?;
            }
        }

        // 3. Execute on the deployed (possibly corrupted) pipeline.
        let mut output = {
            let _exec = clapped_obs::span("runtime.execute");
            self.engine.convolve(&input, &conv, &self.deployed)?
        };

        // 4. Watchdog: spot check the deployed taps against the healthy
        //    behavioural table on this frame's operands.
        let healthy = self.ladder.rungs()[self.state.rung].op.clone();
        let verdict = self.watchdog.probe(
            &self.deployed,
            healthy.as_ref(),
            &input,
            self.kernel.coeffs_2d(),
            seed,
            frame,
        );
        let mut swapped: Option<SwapReason> = None;
        if let WatchdogVerdict::Corrupted { tap, .. } = verdict {
            let corrupted_rung = self.state.rung;
            let injected_at = self.options.fault.as_ref().map_or(frame, |p| p.frame);
            self.state.fault_detected_frame = Some(frame);
            self.state.events.push(StreamEvent::FaultDetected {
                frame,
                tap,
                rung: corrupted_rung,
                latency_frames: frame - injected_at + 1,
            });
            self.state.quarantined.insert(corrupted_rung);
            self.state.events.push(StreamEvent::Quarantine { frame, rung: corrupted_rung });
            clapped_obs::count("runtime.faults_detected", 1);
            clapped_obs::count("runtime.quarantines", 1);
            let target = self
                .ladder
                .recovery_target(corrupted_rung, &self.state.quarantined)
                .ok_or_else(|| RuntimeError::BadConfig {
                    reason: "no healthy rung left to recover onto".to_string(),
                })?;
            self.record_swap(target, SwapReason::FaultRecovery)?;
            swapped = Some(SwapReason::FaultRecovery);
            // Re-run the frame on the healthy pipeline: the recovery
            // frame is emitted clean.
            output = {
                let _exec = clapped_obs::span("runtime.execute");
                self.engine.convolve(&input, &conv, &self.deployed)?
            };
        }

        // 5. Monitor the emitted output.
        let rung_stats = self.ladder.rungs()[self.state.rung].stats;
        let estimate = self.monitor.estimate(&input, &output, &conv, &rung_stats, seed, frame);
        let violated = estimate.estimate_percent > self.sla.max_error_percent;
        if violated {
            self.state.violations += 1;
            clapped_obs::count("runtime.violations", 1);
        }

        // 6. Control decision (the recovery swap already was one).
        if swapped.is_none() {
            if estimate.upper_percent > self.sla.max_error_percent {
                // Quality first: step up immediately, cooldown or not.
                if let Some(up) = self.ladder.step_up(self.state.rung, &self.state.quarantined) {
                    self.record_swap(up, SwapReason::SlaPressure)?;
                    swapped = Some(SwapReason::SlaPressure);
                }
            } else {
                // Headroom accounting toward a cheaper rung: project the
                // calibrated error delta of the next rung on top of the
                // current upper bound.
                let down = self.ladder.step_down(self.state.rung, &self.state.quarantined);
                let headroom_ok = down.is_some_and(|d| {
                    let delta = (self.ladder.rungs()[d].calm_error_percent
                        - self.ladder.rungs()[self.state.rung].calm_error_percent)
                        .max(0.0);
                    estimate.upper_percent + delta
                        <= (1.0 - self.options.headroom_fraction) * self.sla.max_error_percent
                });
                if headroom_ok {
                    self.state.calm_streak += 1;
                    if self.state.calm_streak >= self.options.hold_frames
                        && frame >= self.state.cooldown_until
                    {
                        if let Some(d) = down {
                            self.record_swap(d, SwapReason::Headroom)?;
                            swapped = Some(SwapReason::Headroom);
                        }
                    }
                } else {
                    self.state.calm_streak = 0;
                }
            }
        }

        // 7. Audit (reports only — the controller never reads this).
        let true_error = if self.options.audit {
            let golden = self.engine.convolve(&input, &conv, &self.exact_taps)?;
            let e = app_error_percent(&output, &golden);
            if e > self.sla.max_error_percent {
                self.state.true_violations += 1;
            }
            Some(e)
        } else {
            None
        };

        // 8. Optional netlist-level cross-check: the accelerator's
        //    bit-true stream simulation must reproduce the compiled
        //    pipeline whenever no fault is deployed.
        if self.options.hw_crosscheck_every > 0
            && frame.is_multiple_of(self.options.hw_crosscheck_every)
            && !self.fault_active()
        {
            let rung = &self.ladder.rungs()[self.state.rung];
            let spec = AcceleratorSpec {
                image_size: size,
                window: conv.window,
                stride: conv.stride,
                downsample: conv.downsample,
                mode: ConvMode::TwoD,
                muls: vec![rung.op.clone(); conv.taps()],
            };
            let hw = simulate_stream(&spec, &input, self.kernel.coeffs_2d(), self.kernel.shift())?;
            clapped_obs::count("runtime.hw_crosscheck", 1);
            if hw != output {
                self.state.events.push(StreamEvent::HwDivergence {
                    frame,
                    rung: self.state.rung,
                });
                clapped_obs::count("runtime.hw_divergence", 1);
            }
        }

        // 9. Account energy and chain the output digest.
        let rung = &self.ladder.rungs()[self.state.rung];
        self.state.energy_uj += rung.energy_per_image_uj;
        self.state.pdp_pj += rung.pdp_pj;
        let mut h = Fnv64::new();
        h.write_u64(self.state.output_digest);
        h.write(output.as_slice());
        self.state.output_digest = h.finish();
        clapped_obs::count("runtime.frames", 1);

        let record = FrameRecord {
            frame,
            phase: self.state.phase,
            rung: self.state.rung,
            estimate,
            violated,
            true_error_percent: true_error,
            swapped,
            energy_uj: rung.energy_per_image_uj,
        };
        self.state.frame += 1;
        Ok(record)
    }

    /// Steps until the stream position reaches `frames`, returning the
    /// aggregate report (per-frame records cover this call only;
    /// counters and the log cover the whole stream).
    ///
    /// # Errors
    ///
    /// Propagates the first failing [`StreamSupervisor::step`].
    pub fn run(&mut self, frames: usize) -> Result<StreamReport> {
        let mut records = Vec::new();
        while self.state.frame < frames {
            records.push(self.step()?);
        }
        Ok(self.report(records))
    }

    fn report(&self, records: Vec<FrameRecord>) -> StreamReport {
        StreamReport {
            frames: self.state.frame,
            records,
            events: self.state.events.clone(),
            violations: self.state.violations,
            true_violations: self.state.true_violations,
            swaps: self.state.swaps,
            output_digest: self.state.output_digest,
            energy_uj: self.state.energy_uj,
            pdp_pj: self.state.pdp_pj,
            detection_latency_frames: self.detection_latency_frames(),
        }
    }

    /// Whether a scheduled fault is currently deployed (injected, not
    /// yet detected, and sitting on the active rung).
    pub fn fault_active(&self) -> bool {
        self.state.fault_injected
            && self.state.fault_detected_frame.is_none()
            && self.state.fault_rung == Some(self.state.rung)
    }

    /// Frames from injection to detection, once detected.
    pub fn detection_latency_frames(&self) -> Option<usize> {
        match (&self.options.fault, self.state.fault_detected_frame) {
            (Some(plan), Some(at)) => Some(at - plan.frame + 1),
            _ => None,
        }
    }

    /// Current stream position (frames executed).
    pub fn frame(&self) -> usize {
        self.state.frame
    }

    /// Current rung.
    pub fn rung(&self) -> usize {
        self.state.rung
    }

    /// The reconfiguration/fault log since frame 0.
    pub fn events(&self) -> &[StreamEvent] {
        &self.state.events
    }

    /// Chained digest of every pixel emitted since frame 0.
    pub fn output_digest(&self) -> u64 {
        self.state.output_digest
    }

    /// The ladder the supervisor serves on.
    pub fn ladder(&self) -> &DegradationLadder {
        &self.ladder
    }

    /// Exhaustive error statistics of the exact reference operator.
    pub fn exact_stats(&self) -> &ErrorStats {
        &self.exact_stats
    }

    /// Serializes the controller state to versioned JSON. Together with
    /// the (deterministically rebuildable) ladder and the original
    /// options, this is everything a resumed stream needs.
    pub fn checkpoint(&self) -> String {
        let s = &self.state;
        let doc = json!({
            "version": CHECKPOINT_VERSION,
            "seed": self.options.seed,
            "ladder": self.ladder.rungs().iter().map(|r| r.name.clone()).collect::<Vec<_>>(),
            "frame": s.frame,
            "rung": s.rung,
            "phase": s.phase.name(),
            "calm_streak": s.calm_streak,
            "backoff_frames": s.backoff_frames,
            "cooldown_until": s.cooldown_until,
            "last_swap_frame": s.last_swap_frame,
            "quarantined": s.quarantined.iter().copied().collect::<Vec<_>>(),
            "violations": s.violations,
            "true_violations": s.true_violations,
            "swaps": s.swaps,
            "output_digest": s.output_digest,
            "energy_uj": s.energy_uj,
            "pdp_pj": s.pdp_pj,
            "fault_injected": s.fault_injected,
            "fault_rung": s.fault_rung,
            "fault_detected_frame": s.fault_detected_frame,
            "events": s.events.iter().map(StreamEvent::to_json).collect::<Vec<_>>(),
        });
        serde_json::to_string_pretty(&doc).unwrap_or_else(|_| String::from("{}"))
    }

    /// Restores a stream from a checkpoint. The caller supplies the
    /// same ladder, SLA and options the original stream ran with (the
    /// ladder is validated against the recorded rung names); stepping
    /// the restored stream replays exactly what the uninterrupted
    /// stream would have produced.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::Checkpoint`] for malformed JSON, an
    /// unsupported version, a seed/ladder mismatch, or out-of-range
    /// indices.
    pub fn resume(
        ladder: DegradationLadder,
        sla: SlaSpec,
        options: StreamOptions,
        checkpoint: &str,
    ) -> Result<StreamSupervisor> {
        let root: Value =
            serde_json::from_str(checkpoint).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        json::version(&root, CHECKPOINT_VERSION..=CHECKPOINT_VERSION)?;
        let seed: u64 = json::field(&root, "seed")?;
        if seed != options.seed {
            return Err(bad(format!(
                "checkpoint seed {seed} does not match options seed {}",
                options.seed
            )));
        }
        let names: Vec<&str> = json::field(&root, "ladder")?;
        let actual: Vec<&str> = ladder.rungs().iter().map(|r| r.name.as_str()).collect();
        if names != actual {
            return Err(bad(format!(
                "checkpoint ladder {names:?} does not match the supplied ladder {actual:?}"
            )));
        }

        let mut sup = StreamSupervisor::new(ladder, sla, options)?;
        let s = &mut sup.state;
        s.frame = json::field(&root, "frame")?;
        s.rung = json::field(&root, "rung")?;
        s.phase = TrafficPhase::from_name(json::field(&root, "phase")?)
            .ok_or_else(|| bad("unknown traffic phase"))?;
        s.calm_streak = json::field(&root, "calm_streak")?;
        s.backoff_frames = json::field(&root, "backoff_frames")?;
        s.cooldown_until = json::field(&root, "cooldown_until")?;
        s.last_swap_frame = json::opt_field(&root, "last_swap_frame")?;
        s.quarantined = json::field::<Vec<usize>>(&root, "quarantined")?.into_iter().collect();
        s.violations = json::field(&root, "violations")?;
        s.true_violations = json::field(&root, "true_violations")?;
        s.swaps = json::field(&root, "swaps")?;
        s.output_digest = json::field(&root, "output_digest")?;
        s.energy_uj = json::field(&root, "energy_uj")?;
        s.pdp_pj = json::field(&root, "pdp_pj")?;
        s.fault_injected = json::field(&root, "fault_injected")?;
        s.fault_rung = json::opt_field(&root, "fault_rung")?;
        s.fault_detected_frame = json::opt_field(&root, "fault_detected_frame")?;
        s.events = json::field::<&[Value]>(&root, "events")?
            .iter()
            .map(StreamEvent::from_json)
            .collect::<Result<_>>()?;
        if s.rung >= sup.ladder.len() {
            return Err(bad(format!("rung {} outside ladder", s.rung)));
        }
        sup.redeploy()?;
        Ok(sup)
    }
}
