//! Bursty, nonstationary synthetic traffic.
//!
//! A two-state Markov chain (calm ↔ burst) modulates the *brightness*
//! and noise of synthetic frames: burst frames are full-scale,
//! high-noise scenes, calm frames are dim and quiet. Brightness is what
//! makes the phases matter to approximation — the error of
//! magnitude-proportional operators (broken-array, logarithmic) scales
//! with operand size, so bright burst frames push cheap ladder rungs
//! out of SLA while dim calm frames leave them comfortably inside it.
//! Content rotates across the synthetic generators so no two frames are
//! equal.
//!
//! The phase transition of frame `t` is a pure function of `(stream
//! seed, t, phase at t-1)` — the generator carries no RNG stream, so
//! the only state a checkpoint must record is the current phase.

use crate::frame_seed;
use clapped_imgproc::{Image, SynthKind};

/// Salt for phase-transition draws.
const SALT_PHASE: u64 = 0x5452_4146_4649_4331;
/// Salt for frame-content seeds.
const SALT_CONTENT: u64 = 0x5452_4146_4649_4332;

/// Noise sigma in the calm phase.
const CALM_SIGMA: f64 = 4.0;
/// Noise sigma in the burst phase.
const BURST_SIGMA: f64 = 18.0;
/// Brightness scale of calm frames.
const CALM_GAIN: f64 = 0.45;
/// Brightness scale of burst frames (full scale).
const BURST_GAIN: f64 = 1.0;
/// Per-frame probability of entering a burst from calm.
const BURST_PROBABILITY: f64 = 0.06;
/// Per-frame probability of leaving a burst back to calm.
const RECOVERY_PROBABILITY: f64 = 0.25;

/// The two traffic regimes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrafficPhase {
    /// Dim, quiet frames: cheap rungs hold the SLA.
    Calm,
    /// Bright, noisy frames: only accurate rungs hold the SLA.
    Burst,
}

impl TrafficPhase {
    /// Stable name used in checkpoints and reports.
    pub(crate) fn name(self) -> &'static str {
        match self {
            TrafficPhase::Calm => "calm",
            TrafficPhase::Burst => "burst",
        }
    }

    /// Parses a checkpoint phase name.
    pub(crate) fn from_name(name: &str) -> Option<TrafficPhase> {
        match name {
            "calm" => Some(TrafficPhase::Calm),
            "burst" => Some(TrafficPhase::Burst),
            _ => None,
        }
    }

    /// The phase following `self` at frame `frame` of stream `seed` —
    /// a pure function, so replaying a frame range replays the same
    /// phase trajectory.
    pub fn next(self, seed: u64, frame: usize) -> TrafficPhase {
        // A 53-bit uniform draw from the frame hash.
        let h = frame_seed(seed, frame, SALT_PHASE);
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        match self {
            TrafficPhase::Calm if u < BURST_PROBABILITY => TrafficPhase::Burst,
            TrafficPhase::Burst if u < RECOVERY_PROBABILITY => TrafficPhase::Calm,
            other => other,
        }
    }

    /// Generates the input frame `frame` of stream `seed` in this phase:
    /// rotating synthetic content, scaled by the phase's brightness
    /// gain, plus phase-dependent Gaussian noise.
    pub fn frame(self, seed: u64, frame: usize, size: usize) -> Image {
        let content = frame_seed(seed, frame, SALT_CONTENT);
        let kind = match content % 4 {
            0 => SynthKind::SmoothField,
            1 => SynthKind::Gradient,
            2 => SynthKind::Blobs,
            _ => SynthKind::Checkerboard,
        };
        let (gain, sigma) = match self {
            TrafficPhase::Calm => (CALM_GAIN, CALM_SIGMA),
            TrafficPhase::Burst => (BURST_GAIN, BURST_SIGMA),
        };
        let base = Image::synthetic(kind, size, size, content);
        Image::from_fn(size, size, |x, y| (f64::from(base.get(x, y)) * gain).round() as u8)
            .with_gaussian_noise(sigma, content ^ 0x9E37_79B9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_transitions_are_deterministic() {
        let mut a = TrafficPhase::Calm;
        let mut b = TrafficPhase::Calm;
        for t in 0..200 {
            a = a.next(9, t);
            b = b.next(9, t);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn bursts_happen_and_recover() {
        let mut phase = TrafficPhase::Calm;
        let mut bursts = 0;
        let mut calms = 0;
        for t in 0..500 {
            phase = phase.next(3, t);
            match phase {
                TrafficPhase::Burst => bursts += 1,
                TrafficPhase::Calm => calms += 1,
            }
        }
        assert!(bursts > 10, "bursts occur ({bursts})");
        assert!(calms > bursts, "calm dominates ({calms} vs {bursts})");
    }

    #[test]
    fn frames_are_deterministic_and_phase_sensitive() {
        let a = TrafficPhase::Calm.frame(7, 42, 16);
        let b = TrafficPhase::Calm.frame(7, 42, 16);
        assert_eq!(a, b);
        let c = TrafficPhase::Burst.frame(7, 42, 16);
        assert_ne!(a, c, "burst noise changes the frame");
        let d = TrafficPhase::Calm.frame(7, 43, 16);
        assert_ne!(a, d, "content rotates per frame");
    }
}
