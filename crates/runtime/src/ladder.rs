//! The degradation ladder: the SLA-ordered operator sequence the
//! controller moves along at runtime.
//!
//! Ladder construction is an *offline* calibration pass: every
//! candidate operator is deployed uniformly across the taps, its
//! application-level error is measured on calm- and burst-phase
//! calibration frames against the exact pipeline, and its hardware cost
//! comes from the accelerator characterization model. Candidates that
//! can never serve — too slow for the SLA's frame-time ceiling, or out
//! of the error budget even on calm traffic — are excluded up front.
//! The survivors are sorted most-accurate-first and pruned to the
//! Pareto front (a rung that errs more *without* being cheaper than its
//! predecessor is dead weight), so walking down the ladder always
//! trades quality for energy and walking up always buys quality back.
//!
//! Stepping between rungs at runtime swaps the deployed tap operators,
//! which the compiled-plan pipeline turns into a memoized LUT swap —
//! no table rebuild, no recompilation.

use crate::{Result, RuntimeError, SlaSpec, TrafficPhase};
use clapped_accel::{characterize, AcceleratorSpec, CharacterizeConfig};
use clapped_axops::{AxMul, Mul8s};
use clapped_errmodel::ErrorStats;
use clapped_imgproc::{app_error_percent, ConvConfig, ConvEngine, ConvMode, QuantKernel};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Seed salt separating calibration frames from the live stream.
const CALIB_SALT: u64 = 0x4C41_4444_4552_4341;

/// Sigma of the Gaussian smoothing kernel every ladder serves.
const KERNEL_SIGMA: f64 = 0.85;

/// One rung: an operator deployed uniformly across the taps, with its
/// calibrated quality and characterized cost.
#[derive(Debug, Clone)]
pub struct LadderRung {
    /// Operator name.
    pub name: String,
    /// The healthy operator instance.
    pub op: Arc<AxMul>,
    /// Exhaustive statistical error metrics of the operator (memoized
    /// process-wide by `clapped-errmodel`).
    pub stats: ErrorStats,
    /// Mean application error (%) on calm-phase calibration frames.
    pub calm_error_percent: f64,
    /// Mean application error (%) on burst-phase calibration frames.
    pub burst_error_percent: f64,
    /// Modeled frame time (µs) of the rung's accelerator.
    pub frame_time_us: f64,
    /// Power-delay product (pJ) of the rung's accelerator.
    pub pdp_pj: f64,
    /// Modeled energy per frame (µJ).
    pub energy_per_image_uj: f64,
    /// LUT footprint of the rung's accelerator.
    pub luts: usize,
}

/// Ladder construction parameters.
#[derive(Debug, Clone)]
pub struct LadderConfig {
    /// Square frame side length.
    pub image_size: usize,
    /// Convolution window (odd).
    pub window: usize,
    /// Calibration frames per traffic phase.
    pub calibration_frames: usize,
    /// Stream seed (calibration frames are salted away from it).
    pub seed: u64,
    /// Accelerator characterization parameters.
    pub characterization: CharacterizeConfig,
}

impl Default for LadderConfig {
    fn default() -> LadderConfig {
        LadderConfig {
            image_size: 32,
            window: 3,
            calibration_frames: 3,
            seed: 1,
            characterization: CharacterizeConfig::default(),
        }
    }
}

/// The SLA-ordered rung sequence: index 0 is the most accurate rung
/// (always the exact operator), higher indices trade error for energy
/// along the calibrated Pareto front.
#[derive(Debug, Clone)]
pub struct DegradationLadder {
    rungs: Vec<LadderRung>,
    conv: ConvConfig,
    image_size: usize,
}

impl DegradationLadder {
    /// Calibrates `ops` against `sla` and assembles the ladder.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::BadConfig`] if no candidate is the exact
    /// multiplier, if the SLA is invalid, or if no rung satisfies the
    /// frame-time ceiling; propagates characterization and convolution
    /// errors.
    pub fn build(ops: &[Arc<AxMul>], sla: &SlaSpec, config: &LadderConfig) -> Result<DegradationLadder> {
        let _span = clapped_obs::span("runtime.ladder.build");
        sla.validate()?;
        if config.image_size < config.window {
            return Err(RuntimeError::BadConfig {
                reason: format!(
                    "image size {} smaller than window {}",
                    config.image_size, config.window
                ),
            });
        }
        let conv = ConvConfig { window: config.window, ..ConvConfig::default() };
        let engine = ConvEngine::new(QuantKernel::gaussian(config.window, KERNEL_SIGMA));
        let exact = ops
            .iter()
            .find(|m| ErrorStats::of_multiplier(m.as_ref()).error_probability == 0.0)
            .ok_or_else(|| RuntimeError::BadConfig {
                reason: "ladder candidates must include the exact multiplier".to_string(),
            })?
            .clone();
        let taps = conv.taps();
        let exact_taps: Vec<Arc<dyn Mul8s>> =
            (0..taps).map(|_| exact.clone() as Arc<dyn Mul8s>).collect();

        // Calibration workload: the same frame set for every candidate,
        // salted away from the live stream's indices.
        let calib_seed = config.seed ^ CALIB_SALT;
        let mut calib: Vec<(TrafficPhase, clapped_imgproc::Image)> = Vec::new();
        for i in 0..config.calibration_frames.max(1) {
            for phase in [TrafficPhase::Calm, TrafficPhase::Burst] {
                calib.push((phase, phase.frame(calib_seed, i, config.image_size)));
            }
        }
        let goldens: Vec<clapped_imgproc::Image> = calib
            .iter()
            .map(|(_, img)| engine.convolve(img, &conv, &exact_taps))
            .collect::<std::result::Result<_, _>>()?;

        let mut candidates: Vec<LadderRung> = Vec::new();
        for op in ops {
            let stats = ErrorStats::of_multiplier(op.as_ref());
            let op_taps: Vec<Arc<dyn Mul8s>> =
                (0..taps).map(|_| op.clone() as Arc<dyn Mul8s>).collect();
            let mut sums = [0.0f64; 2];
            let mut counts = [0usize; 2];
            for ((phase, img), golden) in calib.iter().zip(&goldens) {
                let out = engine.convolve(img, &conv, &op_taps)?;
                let slot = usize::from(*phase == TrafficPhase::Burst);
                sums[slot] += app_error_percent(&out, golden);
                counts[slot] += 1;
            }
            let calm_error = sums[0] / counts[0].max(1) as f64;
            let burst_error = sums[1] / counts[1].max(1) as f64;
            let spec = AcceleratorSpec {
                image_size: config.image_size,
                window: config.window,
                stride: conv.stride,
                downsample: conv.downsample,
                mode: ConvMode::TwoD,
                muls: vec![op.clone(); taps],
            };
            let report = characterize(&spec, &config.characterization)?;
            let rung = LadderRung {
                name: op.name().to_string(),
                op: op.clone(),
                stats,
                calm_error_percent: calm_error,
                burst_error_percent: burst_error,
                frame_time_us: report.image_time_us(),
                pdp_pj: report.pdp_pj,
                energy_per_image_uj: report.energy_per_image_uj,
                luts: report.luts,
            };
            // A rung must be *deployable*: fast enough for the latency
            // ceiling and within the error budget at least on calm
            // traffic (burst overruns are the controller's problem).
            if rung.frame_time_us <= sla.max_frame_time_us
                && rung.calm_error_percent <= sla.max_error_percent
            {
                candidates.push(rung);
            }
        }
        if !candidates
            .iter()
            .any(|r| r.stats.error_probability == 0.0)
        {
            return Err(RuntimeError::BadConfig {
                reason: "the exact rung does not satisfy the SLA frame-time ceiling".to_string(),
            });
        }
        // Most accurate first. Application-level ties (requantization
        // can absorb small operator errors entirely) break on the
        // operator's exhaustive error probability, so the exact
        // multiplier always anchors rung 0; energy and name keep the
        // order total and reproducible.
        candidates.sort_by(|a, b| {
            a.burst_error_percent
                .total_cmp(&b.burst_error_percent)
                .then(a.stats.error_probability.total_cmp(&b.stats.error_probability))
                .then(a.energy_per_image_uj.total_cmp(&b.energy_per_image_uj))
                .then(a.name.cmp(&b.name))
        });
        // Pareto prune: each kept rung must be strictly cheaper than
        // every rung above it, otherwise it errs more for nothing.
        let mut rungs: Vec<LadderRung> = Vec::new();
        for rung in candidates {
            match rungs.last() {
                Some(prev) if rung.energy_per_image_uj >= prev.energy_per_image_uj => {}
                _ => rungs.push(rung),
            }
        }
        Ok(DegradationLadder { rungs, conv, image_size: config.image_size })
    }

    /// The rungs, most accurate first.
    pub fn rungs(&self) -> &[LadderRung] {
        &self.rungs
    }

    /// Number of rungs.
    pub fn len(&self) -> usize {
        self.rungs.len()
    }

    /// Whether the ladder is empty (never true for a built ladder).
    pub fn is_empty(&self) -> bool {
        self.rungs.is_empty()
    }

    /// The convolution configuration every rung shares.
    pub fn conv_config(&self) -> &ConvConfig {
        &self.conv
    }

    /// The kernel sigma the ladder was calibrated with (the same for
    /// every ladder).
    pub fn kernel_sigma(&self) -> f64 {
        KERNEL_SIGMA
    }

    /// The frame side length the ladder was calibrated for.
    pub fn image_size(&self) -> usize {
        self.image_size
    }

    /// The tap assignment of rung `rung`.
    pub fn taps(&self, rung: usize) -> Vec<Arc<dyn Mul8s>> {
        self.rungs
            .get(rung)
            .map(|r| {
                (0..self.conv.taps())
                    .map(|_| r.op.clone() as Arc<dyn Mul8s>)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The nearest more-accurate rung from `from`, skipping quarantined
    /// rungs. `None` at the top of the ladder.
    pub(crate) fn step_up(&self, from: usize, quarantined: &BTreeSet<usize>) -> Option<usize> {
        (0..from).rev().find(|i| !quarantined.contains(i))
    }

    /// The nearest cheaper rung from `from`, skipping quarantined
    /// rungs. `None` at the bottom.
    pub(crate) fn step_down(&self, from: usize, quarantined: &BTreeSet<usize>) -> Option<usize> {
        ((from + 1)..self.rungs.len()).find(|i| !quarantined.contains(i))
    }

    /// The nearest healthy rung to recover onto after quarantining
    /// `from`: prefers buying accuracy back (upward), falls back to the
    /// nearest cheaper rung.
    pub(crate) fn recovery_target(&self, from: usize, quarantined: &BTreeSet<usize>) -> Option<usize> {
        self.step_up(from, quarantined)
            .or_else(|| self.step_down(from, quarantined))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::MulArch;

    fn ops() -> Vec<Arc<AxMul>> {
        vec![
            Arc::new(AxMul::new("exact", MulArch::Exact)),
            Arc::new(AxMul::new("tr2", MulArch::Truncated { k: 2 })),
            Arc::new(AxMul::new("tr4", MulArch::Truncated { k: 4 })),
            Arc::new(AxMul::new("tr6", MulArch::Truncated { k: 6 })),
        ]
    }

    fn sla() -> SlaSpec {
        SlaSpec { max_error_percent: 4.0, max_frame_time_us: 1e6 }
    }

    fn config() -> LadderConfig {
        LadderConfig { image_size: 16, calibration_frames: 2, ..LadderConfig::default() }
    }

    #[test]
    fn ladder_orders_accurate_to_cheap() {
        let ladder = DegradationLadder::build(&ops(), &sla(), &config()).expect("builds");
        assert!(ladder.len() >= 2, "at least exact + one approximate rung");
        assert_eq!(ladder.rungs()[0].stats.error_probability, 0.0);
        for pair in ladder.rungs().windows(2) {
            assert!(pair[0].burst_error_percent <= pair[1].burst_error_percent);
            assert!(
                pair[0].energy_per_image_uj > pair[1].energy_per_image_uj,
                "every step down must save energy"
            );
        }
    }

    #[test]
    fn missing_exact_operator_is_rejected() {
        let approx_only = vec![Arc::new(AxMul::new("tr4", MulArch::Truncated { k: 4 }))];
        assert!(DegradationLadder::build(&approx_only, &sla(), &config()).is_err());
    }

    #[test]
    fn stepping_skips_quarantined_rungs() {
        let ladder = DegradationLadder::build(&ops(), &sla(), &config()).expect("builds");
        let mut q = BTreeSet::new();
        if ladder.len() >= 3 {
            q.insert(1);
            assert_eq!(ladder.step_up(2, &q), Some(0));
            assert_eq!(ladder.step_down(0, &q), Some(2));
            assert_eq!(ladder.recovery_target(1, &q), Some(0));
        }
        assert_eq!(ladder.step_up(0, &BTreeSet::new()), None);
        assert_eq!(ladder.step_down(ladder.len() - 1, &BTreeSet::new()), None);
    }

    #[test]
    fn build_is_deterministic() {
        let a = DegradationLadder::build(&ops(), &sla(), &config()).expect("builds");
        let b = DegradationLadder::build(&ops(), &sla(), &config()).expect("builds");
        let names: Vec<&str> = a.rungs().iter().map(|r| r.name.as_str()).collect();
        let names_b: Vec<&str> = b.rungs().iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, names_b);
        for (x, y) in a.rungs().iter().zip(b.rungs()) {
            assert_eq!(x.burst_error_percent.to_bits(), y.burst_error_percent.to_bits());
        }
    }
}
