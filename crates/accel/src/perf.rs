//! True accelerator characterization and the latency/duty models.

use crate::{build_datapath, AccelError, AcceleratorSpec, Result};
use clapped_imgproc::ConvMode;
use clapped_netlist::{synthesize, SynthConfig, SynthReport};

/// Configuration of accelerator characterization.
#[derive(Debug, Clone, PartialEq)]
pub struct CharacterizeConfig {
    /// Synthesis flow parameters (LUT size, timing/power models).
    pub synth: SynthConfig,
    /// Normalization shift baked into the datapath (kernel dependent).
    pub shift: u32,
    /// Target clock in MHz; the effective clock is
    /// `min(target, fmax)`.
    pub target_clock_mhz: f64,
    /// Static+dynamic power charged per line-buffer BRAM kilobit, in
    /// milliwatts.
    pub bram_mw_per_kbit: f64,
    /// Power per window-register bit, in microwatts.
    pub reg_uw_per_bit: f64,
}

impl Default for CharacterizeConfig {
    fn default() -> Self {
        CharacterizeConfig {
            synth: SynthConfig {
                // The datapath is verified once per operator in axops;
                // skip re-verification here for speed (can be re-enabled).
                verify_rounds: 0,
                ..SynthConfig::default()
            },
            shift: 8,
            target_clock_mhz: 250.0,
            bram_mw_per_kbit: 0.08,
            reg_uw_per_bit: 0.6,
        }
    }
}

/// Full performance characterization of one accelerator design point —
/// the record a Vivado run would produce.
#[derive(Debug, Clone, PartialEq)]
pub struct AccelReport {
    /// LUT count of the datapath.
    pub luts: usize,
    /// Critical path delay in nanoseconds.
    pub cpd_ns: f64,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
    /// Effective clock (min of target and fmax) in MHz.
    pub clock_mhz: f64,
    /// Total power (logic + signal + static + memory) in milliwatts.
    pub total_power_mw: f64,
    /// Dynamic logic power in milliwatts.
    pub logic_power_mw: f64,
    /// Dynamic signal (routing) power in milliwatts.
    pub signal_power_mw: f64,
    /// Cycles to process one full image.
    pub latency_cycles: u64,
    /// Power-delay product in picojoules (`total power × CPD`).
    pub pdp_pj: f64,
    /// Energy to process one image, in microjoules.
    pub energy_per_image_uj: f64,
}

impl AccelReport {
    /// Image processing time in microseconds at the effective clock.
    pub fn image_time_us(&self) -> f64 {
        self.latency_cycles as f64 / self.clock_mhz
    }

    /// Throughput in images per second.
    pub fn images_per_second(&self) -> f64 {
        1e6 / self.image_time_us()
    }
}

/// Cycle-count model of the line-buffer sliding-window accelerator.
///
/// The accelerator is **input-stream bound**: it consumes one pixel per
/// cycle, so processing an image costs the line-buffer fill plus one
/// cycle per input pixel regardless of stride — striding skips
/// *computations* (reducing switching activity, see
/// [`compute_duty_factor`]), not input cycles. This matches the paper's
/// observation that latency depends primarily on the image size
/// (Table I's latency model uses image size only).
///
/// - 2D: `(W−1)·N + W` fill + `N²` streaming cycles.
/// - Separable: a horizontal pass over the input and a vertical pass
///   over its (possibly width-reduced) output.
pub fn latency_cycles(spec: &AcceleratorSpec) -> u64 {
    let n = spec.image_size as u64;
    let w = spec.window as u64;
    let s = spec.stride as u64;
    match spec.mode {
        ConvMode::TwoD => (w - 1) * n + w + n * n,
        ConvMode::Separable => {
            // Pass 1 streams the full input; with downsampling its output
            // is width-reduced, shrinking pass 2's stream.
            let n1x = if spec.downsample { n.div_ceil(s) } else { n };
            let pass1 = w + n * n;
            let pass2 = (w - 1) * n1x + w + n1x * n;
            pass1 + pass2
        }
    }
}

/// Fraction of streaming cycles in which the multiplier array actually
/// computes: striding by `s` fires the window only on the stride grid
/// (`1/s²` for 2D; `1/s` per pass for the separable pair). Dynamic
/// datapath power scales with this duty factor.
pub fn compute_duty_factor(spec: &AcceleratorSpec) -> f64 {
    let s = spec.stride as f64;
    match spec.mode {
        ConvMode::TwoD => 1.0 / (s * s),
        ConvMode::Separable => 1.0 / s,
    }
}

/// **True** characterization: synthesizes the full datapath netlist
/// through the LUT-mapping flow and combines it with the memory and
/// latency models.
///
/// This is the slow, accurate estimation path (the paper's Vivado runs);
/// the ML predictors in [`crate::features`] are trained to replace it.
/// Each call is traced as the `accel.characterize` span.
///
/// # Errors
///
/// Returns [`AccelError::BadSpec`] for invalid specs and
/// [`AccelError::Synth`] if the synthesis flow fails.
pub fn characterize(spec: &AcceleratorSpec, config: &CharacterizeConfig) -> Result<AccelReport> {
    let _span = clapped_obs::span("accel.characterize");
    let datapath = build_datapath(spec, config.shift)?;
    let synth = synthesize(&datapath, &config.synth).map_err(|e| AccelError::Synth(e.to_string()))?;
    Ok(assemble_report(spec, config, &synth))
}

fn assemble_report(
    spec: &AcceleratorSpec,
    config: &CharacterizeConfig,
    synth: &SynthReport,
) -> AccelReport {
    let fmax = 1000.0 / synth.cpd_ns;
    let clock = config.target_clock_mhz.min(fmax);
    // Memory subsystem power.
    let bram_mw = spec.line_buffer_bits() as f64 / 1024.0 * config.bram_mw_per_kbit;
    let reg_mw = spec.register_bits() as f64 * config.reg_uw_per_bit / 1000.0;
    // Dynamic power scales with the effective clock relative to the
    // power model's reference clock, and with the compute duty factor
    // (strided designs gate their multiplier array off-grid).
    let duty = compute_duty_factor(spec);
    let clock_ratio = clock / config.synth.power.clock_mhz;
    let logic = synth.power.logic_mw * clock_ratio * duty;
    let signal = synth.power.signal_mw * clock_ratio * duty;
    // Output writeback power scales with the written pixel count per
    // streamed cycle — downsampling's (small) power win.
    let s = spec.stride as f64;
    let write_ratio = if spec.downsample { 1.0 / (s * s) } else { 1.0 };
    let write_mw = 0.02 * spec.image_size as f64 * write_ratio / 32.0;
    let total = logic + signal + synth.power.static_mw + bram_mw + reg_mw + write_mw;
    let latency = latency_cycles(spec);
    let energy_uj = total * 1e-3 * latency as f64 * (1.0 / clock) * 1e-6 * 1e6;
    AccelReport {
        luts: synth.lut_count,
        cpd_ns: synth.cpd_ns,
        fmax_mhz: fmax,
        clock_mhz: clock,
        total_power_mw: total,
        logic_power_mw: logic,
        signal_power_mw: signal,
        latency_cycles: latency,
        pdp_pj: total * synth.cpd_ns,
        energy_per_image_uj: energy_uj,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::Catalog;

    #[test]
    fn latency_model_shapes() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let base = AcceleratorSpec::uniform_2d(64, 3, &m);
        let l_base = latency_cycles(&base);
        // Bigger images take longer.
        let big = AcceleratorSpec::uniform_2d(128, 3, &m);
        assert!(latency_cycles(&big) > l_base);
        // The 2D accelerator is input-stream bound: striding does not
        // change its latency (the paper's latency-vs-image-size claim).
        let ds = AcceleratorSpec {
            stride: 2,
            downsample: true,
            ..base.clone()
        };
        assert_eq!(latency_cycles(&ds), l_base);
        // But it does cut the compute duty factor.
        assert!((compute_duty_factor(&ds) - 0.25).abs() < 1e-12);
        assert!((compute_duty_factor(&base) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn strided_designs_use_less_energy() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let cfg = CharacterizeConfig::default();
        let base = characterize(&AcceleratorSpec::uniform_2d(64, 3, &m), &cfg).unwrap();
        let strided = characterize(
            &AcceleratorSpec {
                stride: 2,
                downsample: true,
                ..AcceleratorSpec::uniform_2d(64, 3, &m)
            },
            &cfg,
        )
        .unwrap();
        assert!(strided.total_power_mw < base.total_power_mw);
        assert!(strided.energy_per_image_uj < base.energy_per_image_uj);
        assert_eq!(strided.latency_cycles, base.latency_cycles);
    }

    #[test]
    fn true_characterization_is_sane() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_tr4").unwrap();
        let spec = AcceleratorSpec::uniform_2d(32, 3, &m);
        let r = characterize(&spec, &CharacterizeConfig::default()).unwrap();
        assert!(r.luts > 100, "9 multipliers + tree, got {} LUTs", r.luts);
        assert!(r.cpd_ns > 1.0);
        assert!(r.total_power_mw > 0.0);
        assert!(r.pdp_pj > 0.0);
        assert!(r.energy_per_image_uj > 0.0);
        assert!(r.clock_mhz <= 250.0);
    }

    #[test]
    fn approximate_datapaths_are_cheaper() {
        let cat = Catalog::standard();
        let cfg = CharacterizeConfig::default();
        let exact = characterize(
            &AcceleratorSpec::uniform_2d(32, 3, &cat.get("mul8s_exact").unwrap()),
            &cfg,
        )
        .unwrap();
        let approx = characterize(
            &AcceleratorSpec::uniform_2d(32, 3, &cat.get("mul8s_bam_v8_h3").unwrap()),
            &cfg,
        )
        .unwrap();
        assert!(approx.luts < exact.luts, "{} vs {}", approx.luts, exact.luts);
        assert!(approx.energy_per_image_uj < exact.energy_per_image_uj);
    }

    #[test]
    fn separable_uses_fewer_luts_than_2d() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let cfg = CharacterizeConfig::default();
        let two_d = characterize(&AcceleratorSpec::uniform_2d(32, 3, &m), &cfg).unwrap();
        let sep_spec = AcceleratorSpec {
            mode: ConvMode::Separable,
            muls: vec![m.clone(); 6],
            ..AcceleratorSpec::uniform_2d(32, 3, &m)
        };
        let sep = characterize(&sep_spec, &cfg).unwrap();
        assert!(sep.luts < two_d.luts, "sep {} vs 2d {}", sep.luts, two_d.luts);
    }
}
