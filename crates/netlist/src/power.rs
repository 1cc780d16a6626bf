//! Switching-activity power estimation for mapped LUT networks.
//!
//! Dynamic power is estimated from per-net toggle rates measured by
//! simulating random input vectors through the LUT network's mux-tree
//! lowering (a vectored analogue of Vivado's default 12.5% toggle-rate
//! assumption, but derived from the actual logic). Power is split into
//! *logic* power (consumed inside LUTs) and *signal* power (consumed
//! charging routed nets, which scales with fanout) — the same
//! decomposition the paper's Table I uses as MLP features — plus a
//! static component proportional to utilized resources.

use crate::map::MappedNetlist;
use crate::{Netlist, SignalId};
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

/// Rounds of stimulus simulated per pass of the evaluation kernel.
pub(crate) const BLOCK_ROUNDS: usize = 16;

/// Estimates the power of a mapped netlist under random stimulus.
///
/// The LUT network is lowered once to its mux-tree netlist
/// ([`MappedNetlist::to_netlist`]) and the rounds of stimulus run
/// through the simulator's evaluation kernel [`BLOCK_ROUNDS`] at a time,
/// one round per word of a block; toggles are counted on the lowered
/// signals of the primary inputs and LUT roots.
///
/// # Errors
///
/// Propagates simulation errors from the evaluation kernel.
pub fn estimate_power(mapped: &MappedNetlist, model: &PowerModel) -> crate::Result<PowerReport> {
    let (lowered, ids) = mapped.lower("power");
    estimate_power_lowered(mapped, &lowered, &ids, model)
}

/// [`estimate_power`] on a lowering `(lowered, ids)` of `mapped` that the
/// caller already made with [`MappedNetlist::lower`].
pub(crate) fn estimate_power_lowered(
    mapped: &MappedNetlist,
    lowered: &Netlist,
    ids: &[Option<SignalId>],
    model: &PowerModel,
) -> crate::Result<PowerReport> {
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(model.seed);
    // Fanout of each mapped net = number of LUTs (plus outputs) reading
    // it, indexed by source signal. Lowering mapped every LUT input and
    // output, so each index is in range.
    let mut fanout = vec![0.0f64; ids.len()];
    for lut in &mapped.luts {
        for inp in &lut.inputs {
            fanout[inp.index()] += 1.0;
        }
    }
    for (_, out) in &mapped.outputs {
        fanout[out.index()] += 1.0;
    }

    let mut toggles_logic = 0.0f64; // LUT-output toggles
    let mut toggles_signal = 0.0f64; // fanout-weighted net toggles
    let mut transitions = 0.0f64; // total observed net-transitions slots
    let mut toggle_events = 0.0f64;

    // Every net once, in a deterministic order (primary inputs, then LUT
    // roots): its lowered signal, whether a LUT drives it, and its
    // fanout (0 for a net nothing reads). Every sum below adds
    // integer-valued terms far below 2^53, so each is exact.
    let inputs = mapped.inputs.iter().map(|s| (s, false));
    let roots = mapped.luts.iter().map(|l| (&l.root, true));
    let nets: Vec<(usize, bool, f64)> = inputs
        .chain(roots)
        .map(|(s, is_root)| {
            let id = ids[s.index()].expect("lowering maps every input and LUT root");
            (id.index(), is_root, fanout[s.index()])
        })
        .collect();
    let rounds = model.rounds.max(1);
    let mut words: Vec<[u64; BLOCK_ROUNDS]> = vec![[0; BLOCK_ROUNDS]; mapped.inputs.len()];
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
        lowered.eval_blocks_masked(&words, &[], &mut vals)?;
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
    use crate::{bus, map_luts, optimize, MapStrategy, Netlist};

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
