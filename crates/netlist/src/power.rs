//! Switching-activity power estimation for mapped LUT networks.
//!
//! Dynamic power is estimated from per-net toggle rates measured by
//! simulating random input vectors through the LUT network's truth
//! tables (a vectored analogue of Vivado's default 12.5% toggle-rate
//! assumption, but derived from the actual logic). Power is split into
//! *logic* power (consumed inside LUTs) and *signal* power (consumed
//! charging routed nets, which scales with fanout) — the same
//! decomposition the paper's Table I uses as MLP features — plus a
//! static component proportional to utilized resources.

use crate::map::MappedNetlist;
use rand::{Rng, SeedableRng};

/// Power model parameters for the target fabric at a given clock.
///
/// The default constants produce milliwatt-scale dynamic power for
/// hundreds of LUTs at hundreds of MHz, in line with small accelerator
/// datapaths on a Zynq UltraScale+ device. As with [`crate::TimingModel`]
/// the goal is faithful *ranking*, not silicon-calibrated wattage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerModel {
    /// Energy per LUT output toggle attributed to logic, in picojoules.
    pub logic_energy_pj: f64,
    /// Energy per net toggle per fanout attributed to routing, in
    /// picojoules.
    pub signal_energy_pj: f64,
    /// Static power per utilized LUT, in microwatts.
    pub static_uw_per_lut: f64,
    /// Device base static power, in milliwatts.
    pub static_base_mw: f64,
    /// Clock frequency used to convert energy/toggle into power, in MHz.
    pub clock_mhz: f64,
    /// Number of 64-vector simulation rounds for activity extraction.
    pub rounds: usize,
    /// RNG seed for the random stimulus.
    pub seed: u64,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            logic_energy_pj: 0.9,
            signal_energy_pj: 0.35,
            static_uw_per_lut: 1.5,
            static_base_mw: 18.0,
            clock_mhz: 250.0,
            rounds: 16,
            seed: 0xC1A9_9ED5,
        }
    }
}

/// Power estimation result, in milliwatts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct PowerReport {
    /// Dynamic power dissipated in LUT logic.
    pub logic_mw: f64,
    /// Dynamic power dissipated in routed signals.
    pub signal_mw: f64,
    /// Static power.
    pub static_mw: f64,
    /// Mean toggle rate over all nets (toggles per cycle, 0..=1).
    pub mean_activity: f64,
}

impl PowerReport {
    /// Total power in milliwatts.
    pub fn total_mw(&self) -> f64 {
        self.logic_mw + self.signal_mw + self.static_mw
    }

    /// Dynamic (logic + signal) power in milliwatts.
    pub fn dynamic_mw(&self) -> f64 {
        self.logic_mw + self.signal_mw
    }
}

/// Rounds of stimulus simulated per pass of the evaluator.
const BLOCK_ROUNDS: usize = 16;

/// Estimates the power of a mapped netlist under random stimulus.
///
/// The rounds of stimulus run through the LUT network's evaluator 16 at
/// a time, one round per word of a block, and toggles are counted on
/// the primary inputs and LUT roots.
///
/// # Errors
///
/// Returns [`crate::NetlistError::LutSize`] for a LUT with more than six
/// inputs and [`crate::NetlistError::UndefinedSignal`] for a LUT input
/// or primary output that no primary input, constant or earlier LUT
/// defines.
pub fn estimate_power(mapped: &MappedNetlist, model: &PowerModel) -> crate::Result<PowerReport> {
    let program = mapped.program()?;
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(model.seed);
    // Fanout of each net = number of LUTs (plus outputs) reading it,
    // indexed by slot.
    let mut fanout = vec![0.0f64; program.lut_slots().end];
    for lut in &program.luts {
        for &at in lut.inputs() {
            fanout[at as usize] += 1.0;
        }
    }
    for &at in &program.outputs {
        fanout[at] += 1.0;
    }

    let mut toggles_logic = 0.0f64; // LUT-output toggles
    let mut toggles_signal = 0.0f64; // fanout-weighted net toggles
    let mut transitions = 0.0f64; // total observed net-transitions slots
    let mut toggle_events = 0.0f64;

    // Every net once, in a deterministic order (primary inputs, then LUT
    // roots): its slot, whether a LUT drives it, and its fanout (0 for a
    // net nothing reads). Every sum below adds integer-valued terms far
    // below 2^53, so each is exact.
    let inputs = (0..program.inputs).map(|at| (at, false));
    let roots = program.lut_slots().map(|at| (at, true));
    let nets: Vec<(usize, bool, f64)> =
        inputs.chain(roots).map(|(at, is_root)| (at, is_root, fanout[at])).collect();
    let rounds = model.rounds.max(1);
    let mut words: Vec<[u64; BLOCK_ROUNDS]> = vec![[0; BLOCK_ROUNDS]; program.inputs];
    let mut vals: Vec<[u64; BLOCK_ROUNDS]> = Vec::new();
    for first in (0..rounds).step_by(BLOCK_ROUNDS) {
        // Word `r` of a block is round `first + r`: the draws and the sums
        // below run round by round, in the order one round per pass
        // made them. A last, partial block leaves its tail words unread.
        let block = (rounds - first).min(BLOCK_ROUNDS);
        for r in 0..block {
            for w in &mut words {
                w[r] = rng.gen();
            }
        }
        program.eval_blocks(&words, &mut vals)?;
        for r in 0..block {
            // Adjacent lanes model consecutive random input patterns:
            // count bit flips between lane i and lane i+1 (63 valid pairs
            // per word; bit 63 of v ^ (v >> 1) compares lane 63 against
            // zero fill and is excluded).
            for &(at, is_root, fo) in &nets {
                let v = vals[at][r];
                let x = v ^ (v >> 1);
                let flips = f64::from(x.count_ones() - ((v >> 63) & 1) as u32);
                transitions += 63.0;
                toggle_events += flips;
                if is_root {
                    toggles_logic += flips;
                }
                toggles_signal += flips * fo;
            }
        }
    }

    let total_slots = (rounds * 63) as f64;
    // Energy per cycle = toggles/cycle * energy/toggle. Convert pJ * MHz
    // -> microwatts; divide by 1000 for milliwatts.
    let logic_rate = toggles_logic / total_slots;
    let signal_rate = toggles_signal / total_slots;
    let logic_mw = logic_rate * model.logic_energy_pj * model.clock_mhz / 1000.0;
    let signal_mw = signal_rate * model.signal_energy_pj * model.clock_mhz / 1000.0;
    let static_mw =
        model.static_base_mw + model.static_uw_per_lut * mapped.lut_count() as f64 / 1000.0;
    let mean_activity = if transitions > 0.0 {
        toggle_events / transitions
    } else {
        0.0
    };
    Ok(PowerReport {
        logic_mw,
        signal_mw,
        static_mw,
        mean_activity,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bus, map_luts, optimize, MapStrategy, MappedLut, Netlist, NetlistError, SignalId};
    use std::collections::BTreeMap;

    fn mapped_adder(w: usize) -> MappedNetlist {
        let mut n = Netlist::new("add");
        let a = n.input_bus("a", w);
        let b = n.input_bus("b", w);
        let (s, c) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("c", c);
        map_luts(&optimize(&n), 6, MapStrategy::Depth).unwrap()
    }

    #[test]
    fn power_is_positive_and_repeatable() {
        let m = mapped_adder(8);
        let model = PowerModel::default();
        let p1 = estimate_power(&m, &model).unwrap();
        let p2 = estimate_power(&m, &model).unwrap();
        assert!(p1.total_mw() > 0.0);
        assert_eq!(p1, p2, "same seed must give identical results");
    }

    #[test]
    fn power_reports_are_pinned_bit_for_bit() {
        // Bit patterns of (logic, signal, static, activity) recorded from
        // the per-lane LUT interpreter this estimator used before it
        // simulated the lowered mux-tree netlist.
        let m = mapped_adder(8);
        let pinned: [(usize, [u64; 4]); 3] = [
            (1, [0x3ff8a0ea0ea0ea0e, 0x4006e93e93e93e93, 0x403205604189374c, 0x3fdee1ee1ee1ee1f]),
            (3, [0x3ff8db6db6db6db7, 0x400797b425ed097b, 0x403205604189374c, 0x3fdf6ca174c1f6ca]),
            (16, [0x3ff938af8af8af8c, 0x4008060b60b60b60, 0x403205604189374c, 0x3fdfe1a8c536fe1b]),
        ];
        for (rounds, bits) in pinned {
            let p = estimate_power(&m, &PowerModel { rounds, ..PowerModel::default() }).unwrap();
            let got = [p.logic_mw, p.signal_mw, p.static_mw, p.mean_activity].map(f64::to_bits);
            assert_eq!(got, bits, "rounds={rounds}: {p:?}");
        }
    }

    #[test]
    fn malformed_mapped_netlists_are_errors() {
        let s = SignalId::from_index;
        let lut = |root, inputs: &[usize]| MappedLut {
            root: s(root),
            inputs: inputs.iter().map(|&i| s(i)).collect(),
            truth: 0x6996_9669_9669_6996,
        };
        // Three inputs, one LUT reading them all.
        let base = MappedNetlist {
            k: 6,
            luts: vec![lut(3, &[0, 1, 2])],
            inputs: (0..3).map(s).collect(),
            outputs: vec![("y".to_string(), s(3))],
            constants: BTreeMap::new(),
            depth: 1,
        };
        let model = PowerModel::default();
        assert!(estimate_power(&base, &model).is_ok());
        // A LUT input that nothing defines.
        let mut undefined = base.clone();
        undefined.luts[0].inputs[1] = s(40);
        let err = NetlistError::UndefinedSignal {
            signal: s(40),
            lut: Some(s(3)),
        };
        assert_eq!(estimate_power(&undefined, &model), Err(err));
        // A LUT that reads a later LUT's root.
        let mut later = base.clone();
        later.luts = vec![lut(3, &[0, 4]), lut(4, &[1, 2])];
        let err = NetlistError::UndefinedSignal {
            signal: s(4),
            lut: Some(s(3)),
        };
        assert_eq!(estimate_power(&later, &model), Err(err));
        // A LUT with seven inputs.
        let mut wide = base.clone();
        wide.inputs = (0..7).map(s).collect();
        wide.luts = vec![lut(7, &[0, 1, 2, 3, 4, 5, 6])];
        wide.outputs[0].1 = s(7);
        assert_eq!(estimate_power(&wide, &model), Err(NetlistError::LutSize { k: 7 }));
        // An output that nothing defines.
        let mut dangling = base;
        dangling.outputs[0].1 = s(5);
        let err = NetlistError::UndefinedSignal {
            signal: s(5),
            lut: None,
        };
        assert_eq!(estimate_power(&dangling, &model), Err(err));
    }

    #[test]
    fn bigger_circuits_burn_more_power() {
        let small = estimate_power(&mapped_adder(4), &PowerModel::default()).unwrap();
        let large = estimate_power(&mapped_adder(32), &PowerModel::default()).unwrap();
        assert!(large.dynamic_mw() > small.dynamic_mw());
        assert!(large.static_mw > small.static_mw);
    }

    #[test]
    fn activity_of_random_logic_is_reasonable() {
        let m = mapped_adder(8);
        let p = estimate_power(&m, &PowerModel::default()).unwrap();
        assert!(p.mean_activity > 0.1 && p.mean_activity < 0.9, "{}", p.mean_activity);
    }

    #[test]
    fn higher_clock_means_more_dynamic_power() {
        let m = mapped_adder(8);
        let slow = estimate_power(
            &m,
            &PowerModel {
                clock_mhz: 100.0,
                ..PowerModel::default()
            },
        )
        .unwrap();
        let fast = estimate_power(
            &m,
            &PowerModel {
                clock_mhz: 400.0,
                ..PowerModel::default()
            },
        )
        .unwrap();
        assert!(fast.dynamic_mw() > slow.dynamic_mw());
        assert_eq!(fast.static_mw, slow.static_mw);
    }
}
