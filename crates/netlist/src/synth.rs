//! One-call synthesis flow: optimize → map → time → power.
//!
//! [`synthesize`] is the crate's analogue of running a design through
//! Vivado: it is deliberately the *slow, accurate* path of CLAppED's
//! accelerator characterization, which the ML-based predictors are trained
//! to approximate.

use crate::map::{map_luts, verify_mapping, MapStrategy, MappedNetlist};
use crate::opt::optimize;
use crate::power::{estimate_power, PowerModel, PowerReport};
use crate::timing::TimingModel;
use crate::Netlist;

/// Configuration of the synthesis flow.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// LUT input size (2..=6).
    pub k: usize,
    /// Cut selection strategy.
    pub strategy: MapStrategy,
    /// Timing parameters.
    pub timing: TimingModel,
    /// Power parameters.
    pub power: PowerModel,
    /// Verify functional equivalence of the mapping with this many
    /// 64-vector random rounds (0 disables verification).
    pub verify_rounds: usize,
    /// Additionally prove equivalence formally with BDDs under this node
    /// budget; falls back to the random check when the budget is
    /// exceeded (multiplier-like cones). `None` disables formal
    /// verification.
    pub formal_verify_limit: Option<usize>,
    /// Seed for verification stimulus.
    pub seed: u64,
}

impl Default for SynthConfig {
    fn default() -> Self {
        SynthConfig {
            k: 6,
            strategy: MapStrategy::Depth,
            timing: TimingModel::default(),
            power: PowerModel::default(),
            verify_rounds: 4,
            formal_verify_limit: None,
            seed: 7,
        }
    }
}

/// Synthesis result: resource, timing and power characterization of one
/// netlist.
#[derive(Debug, Clone)]
pub struct SynthReport {
    /// Name of the synthesized netlist.
    pub name: String,
    /// Logic gates before mapping (after optimization).
    pub gate_count: usize,
    /// LUTs after mapping.
    pub lut_count: usize,
    /// Mapped depth in LUT levels.
    pub depth: u32,
    /// Critical path delay in nanoseconds.
    pub cpd_ns: f64,
    /// Maximum clock frequency in MHz.
    pub fmax_mhz: f64,
    /// Power breakdown at the configured clock.
    pub power: PowerReport,
    /// The mapped netlist itself (for downstream composition).
    pub mapped: MappedNetlist,
}

impl SynthReport {
    /// Power-delay product in milliwatt-nanoseconds (picojoules).
    pub fn pdp(&self) -> f64 {
        self.power.total_mw() * self.cpd_ns
    }
}

/// Runs the full synthesis flow on a netlist. The optimization, mapping
/// and power stages are traced as the `netlist.optimize`, `netlist.map`
/// and `netlist.power` spans. Power estimation and the random
/// verification simulate the mapped network from its truth tables; it
/// is lowered to a gate-level netlist only for the formal check that
/// `formal_verify_limit` asks for.
///
/// # Errors
///
/// Propagates mapping and verification errors; in particular
/// [`crate::NetlistError::MappingMismatch`] if the mapped network is not
/// functionally equivalent to the optimized netlist.
pub fn synthesize(netlist: &Netlist, config: &SynthConfig) -> crate::Result<SynthReport> {
    let opt = {
        let _span = clapped_obs::span("netlist.optimize");
        optimize(netlist)
    };
    let mapped = {
        let _span = clapped_obs::span("netlist.map");
        map_luts(&opt, config.k, config.strategy)?
    };
    let cpd_ns = config.timing.critical_path_ns(&mapped);
    let fmax_mhz = config.timing.fmax_mhz(&mapped);
    let power = {
        let _span = clapped_obs::span("netlist.power");
        estimate_power(&mapped, &config.power)?
    };
    if config.verify_rounds > 0 {
        verify_mapping(&opt, &mapped, config.verify_rounds, config.seed)?;
    }
    if let Some(limit) = config.formal_verify_limit {
        match crate::bdd::check_equivalence(&opt, &mapped.to_netlist("mapped"), limit) {
            Ok(crate::bdd::Equivalence::Equal) => {}
            Ok(crate::bdd::Equivalence::Differ { .. }) => {
                return Err(crate::NetlistError::MappingMismatch)
            }
            // Budget exceeded: the random check above already ran.
            Err(crate::NetlistError::BddLimit { .. }) => {}
            Err(e) => return Err(e),
        }
    }
    Ok(SynthReport {
        name: netlist.name().to_string(),
        gate_count: opt.logic_gate_count(),
        lut_count: mapped.lut_count(),
        depth: mapped.depth,
        cpd_ns,
        fmax_mhz,
        power,
        mapped,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus;

    fn multiplier_netlist(w: usize) -> Netlist {
        let mut n = Netlist::new(format!("mul{w}"));
        let a = n.input_bus("a", w);
        let b = n.input_bus("b", w);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        n
    }

    #[test]
    fn synthesizes_multiplier() {
        let n = multiplier_netlist(8);
        let r = synthesize(&n, &SynthConfig::default()).unwrap();
        assert!(r.lut_count > 30, "8x8 multiplier should need >30 LUTs, got {}", r.lut_count);
        assert!(r.depth >= 3);
        assert!(r.cpd_ns > 0.0);
        assert!(r.power.total_mw() > 0.0);
        assert!(r.pdp() > 0.0);
    }

    #[test]
    fn bigger_multipliers_cost_more() {
        let small = synthesize(&multiplier_netlist(4), &SynthConfig::default()).unwrap();
        let big = synthesize(&multiplier_netlist(8), &SynthConfig::default()).unwrap();
        assert!(big.lut_count > small.lut_count);
        assert!(big.cpd_ns > small.cpd_ns);
        assert!(big.power.dynamic_mw() > small.power.dynamic_mw());
    }

    #[test]
    fn formal_verification_passes_on_adders() {
        let mut n = Netlist::new("add");
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let (s, c) = crate::bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("c", c);
        let cfg = SynthConfig {
            formal_verify_limit: Some(200_000),
            ..SynthConfig::default()
        };
        let r = synthesize(&n, &cfg).unwrap();
        assert!(r.lut_count > 0);
    }

    #[test]
    fn formal_verification_budget_falls_back_gracefully() {
        // Multipliers blow the BDD budget; the flow must still succeed
        // because the random check already passed.
        let n = multiplier_netlist(8);
        let cfg = SynthConfig {
            formal_verify_limit: Some(1_000),
            ..SynthConfig::default()
        };
        assert!(synthesize(&n, &cfg).is_ok());
    }

    #[test]
    fn report_is_deterministic() {
        let n = multiplier_netlist(6);
        let a = synthesize(&n, &SynthConfig::default()).unwrap();
        let b = synthesize(&n, &SynthConfig::default()).unwrap();
        assert_eq!(a.lut_count, b.lut_count);
        assert_eq!(a.depth, b.depth);
        assert_eq!(a.power, b.power);
    }
}
