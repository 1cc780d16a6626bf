//! Mid-stream fault detection against the exhaustive behavioural table.
//!
//! A hardware fault (an SEU, a stuck net) silently corrupts one tap's
//! multiplier: the stream keeps flowing, quality quietly degrades. The
//! watchdog exploits what this workspace already has — every healthy
//! operator's behaviour is an exhaustive 65 536-entry table — and spot
//! checks the *deployed* taps against it on operand pairs the current
//! frame actually exercised (real pixels against real kernel weights,
//! not synthetic sweeps). A single mismatch is proof of corruption: the
//! healthy table is ground truth by construction.

use crate::frame_seed;
use clapped_axops::Mul8s;
use clapped_imgproc::Image;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

/// Salt for watchdog probe draws.
const SALT_WATCHDOG: u64 = 0x5741_5443_4844_4F47;

/// Watchdog parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WatchdogConfig {
    /// Probes per frame, spread across the taps.
    pub probes: usize,
}

impl Default for WatchdogConfig {
    fn default() -> WatchdogConfig {
        WatchdogConfig { probes: 24 }
    }
}

/// The outcome of one frame's probe pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WatchdogVerdict {
    /// Every probed tap agreed with the behavioural table.
    Healthy,
    /// A deployed tap contradicted the healthy table.
    Corrupted {
        /// The corrupted tap index.
        tap: usize,
        /// Probe operands.
        a: i8,
        /// Probe operands.
        b: i8,
        /// What the deployed tap produced.
        got: i16,
        /// What the healthy table says.
        want: i16,
    },
}

/// The per-frame behavioural-table spot checker.
#[derive(Debug, Clone, Copy)]
pub struct FaultWatchdog {
    config: WatchdogConfig,
}

impl FaultWatchdog {
    /// A watchdog with the given probe budget.
    pub fn new(config: WatchdogConfig) -> FaultWatchdog {
        FaultWatchdog { config }
    }

    /// Probes the deployed taps against the healthy operator on
    /// operand pairs drawn from the current frame's pixels and the
    /// kernel weights. Probe sites derive from `(stream seed, frame)`,
    /// so detection latency is reproducible run to run.
    pub fn probe(
        &self,
        deployed: &[Arc<dyn Mul8s>],
        healthy: &dyn Mul8s,
        input: &Image,
        coeffs: &[i8],
        stream_seed: u64,
        frame: usize,
    ) -> WatchdogVerdict {
        let _span = clapped_obs::span("runtime.watchdog");
        if deployed.is_empty() || coeffs.len() < deployed.len() {
            return WatchdogVerdict::Healthy;
        }
        let mut rng = ChaCha8Rng::seed_from_u64(frame_seed(stream_seed, frame, SALT_WATCHDOG));
        for _ in 0..self.config.probes {
            let x = rng.gen_range(0..input.width());
            let y = rng.gen_range(0..input.height());
            let tap = rng.gen_range(0..deployed.len());
            // The quantized pixel this tap would actually multiply.
            let a = (input.get(x, y) >> 1) as i8;
            let b = coeffs[tap];
            let got = deployed[tap].mul(a, b);
            let want = healthy.mul(a, b);
            if got != want {
                return WatchdogVerdict::Corrupted { tap, a, b, got, want };
            }
        }
        WatchdogVerdict::Healthy
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::{AxMul, FaultedMul, MulArch};
    use clapped_imgproc::SynthKind;
    use clapped_netlist::{FaultKind, FaultSet};

    /// The deployed operator, its nine taps, a noisy frame and the
    /// kernel coefficients.
    type Setup = (Arc<AxMul>, Vec<Arc<dyn Mul8s>>, Image, Vec<i8>);

    fn setup() -> Setup {
        let op = Arc::new(AxMul::new("tr3", MulArch::Truncated { k: 3 }));
        let deployed: Vec<Arc<dyn Mul8s>> =
            (0..9).map(|_| op.clone() as Arc<dyn Mul8s>).collect();
        let img = Image::synthetic(SynthKind::Blobs, 24, 24, 3).with_gaussian_noise(20.0, 5);
        let coeffs = vec![3i8, 11, 3, 11, 37, 11, 3, 11, 3];
        (op, deployed, img, coeffs)
    }

    #[test]
    fn healthy_taps_pass() {
        let (op, deployed, img, coeffs) = setup();
        let dog = FaultWatchdog::new(WatchdogConfig::default());
        for frame in 0..20 {
            assert_eq!(
                dog.probe(&deployed, op.as_ref(), &img, &coeffs, 7, frame),
                WatchdogVerdict::Healthy
            );
        }
    }

    #[test]
    fn msb_fault_is_detected_quickly_and_deterministically() {
        let (op, mut deployed, img, coeffs) = setup();
        let msb = op.netlist().outputs().last().expect("product MSB").1;
        let faults = FaultSet::empty().stuck_at(msb, FaultKind::StuckAt1);
        let faulted = Arc::new(FaultedMul::new(op.as_ref(), &faults).expect("valid site"));
        deployed[4] = faulted;
        let dog = FaultWatchdog::new(WatchdogConfig::default());
        let detect_at = (0..50).find(|&frame| {
            matches!(
                dog.probe(&deployed, op.as_ref(), &img, &coeffs, 7, frame),
                WatchdogVerdict::Corrupted { tap: 4, .. }
            )
        });
        let first = detect_at.expect("an MSB stuck-at-1 must be caught within 50 frames");
        assert!(first < 5, "detection latency {first} frames is implausibly long");
        // Determinism: the same frame yields the same verdict.
        let v1 = dog.probe(&deployed, op.as_ref(), &img, &coeffs, 7, first);
        let v2 = dog.probe(&deployed, op.as_ref(), &img, &coeffs, 7, first);
        assert_eq!(v1, v2);
    }
}
