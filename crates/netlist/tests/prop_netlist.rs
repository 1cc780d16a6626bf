//! Property tests for the synthesis substrate: random netlists must
//! survive optimize → map → verify with function preserved, and the BDD
//! backend must agree with simulation.

use clapped_netlist::bdd::{check_equivalence, BddManager, Equivalence};
use clapped_netlist::{
    bus, lint_netlist, map_luts, optimize, FaultKind, FaultSet, MapStrategy, MappedNetlist,
    Netlist, SignalId,
};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Scalar reference interpreter of a LUT network, one input vector at a
/// time: each LUT's output is its truth table indexed by its input bits
/// (input `j` is bit `j` of the index, as `MappedLut::truth` defines).
fn lut_network_outputs(mapped: &MappedNetlist, inputs: &[bool]) -> Vec<bool> {
    let mut vals: BTreeMap<SignalId, bool> = mapped.constants.clone();
    vals.extend(mapped.inputs.iter().copied().zip(inputs.iter().copied()));
    for lut in &mapped.luts {
        let idx: usize =
            lut.inputs.iter().enumerate().map(|(j, s)| usize::from(vals[s]) << j).sum();
        vals.insert(lut.root, (lut.truth >> idx) & 1 == 1);
    }
    mapped.outputs.iter().map(|(_, s)| vals[s]).collect()
}

/// [`lut_network_outputs`] over the 64 lanes of per-input words, packed
/// back into one word per output.
fn lut_network_words(mapped: &MappedNetlist, words: &[u64]) -> Vec<u64> {
    let mut outs = vec![0u64; mapped.outputs.len()];
    for lane in 0..64 {
        let inputs: Vec<bool> = words.iter().map(|w| (w >> lane) & 1 == 1).collect();
        for (out, bit) in outs.iter_mut().zip(lut_network_outputs(mapped, &inputs)) {
            *out |= u64::from(bit) << lane;
        }
    }
    outs
}

/// Builds a random DAG of gates over `n_inputs` inputs from an opcode
/// stream.
fn random_netlist(n_inputs: usize, ops: &[u8]) -> Netlist {
    let mut n = Netlist::new("rand");
    let mut sigs: Vec<_> = (0..n_inputs).map(|i| n.input(format!("i{i}"))).collect();
    for (k, &op) in ops.iter().enumerate() {
        let a = sigs[(k * 7 + 1) % sigs.len()];
        let b = sigs[(k * 13 + 3) % sigs.len()];
        let c = sigs[(k * 5 + 2) % sigs.len()];
        let s = match op % 9 {
            0 => n.and(a, b),
            1 => n.or(a, b),
            2 => n.xor(a, b),
            3 => n.nand(a, b),
            4 => n.nor(a, b),
            5 => n.xnor(a, b),
            6 => n.not(a),
            7 => n.mux(a, b, c),
            _ => n.maj(a, b, c),
        };
        sigs.push(s);
    }
    // Expose the last few signals as outputs.
    for (i, &s) in sigs.iter().rev().take(4).enumerate() {
        n.output(format!("o{i}"), s);
    }
    n
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// optimize + map preserve function on random logic for both
    /// strategies and several LUT sizes.
    #[test]
    fn mapping_preserves_function(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        k in 3usize..=6,
        words in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let n = random_netlist(4, &ops);
        let opt = optimize(&n);
        for strategy in [MapStrategy::Depth, MapStrategy::Area] {
            let mapped = map_luts(&opt, k, strategy).expect("mappable");
            let want = n.simulate_words(&words).expect("simulates");
            prop_assert_eq!(&want, &lut_network_words(&mapped, &words));
            // The LUT network reconverted to gates agrees as well.
            let back = mapped.to_netlist("back");
            prop_assert_eq!(&want, &back.simulate_words(&words).expect("simulates"));
        }
    }

    /// The formal checker proves optimize() correct on random logic and
    /// its verdict matches exhaustive simulation.
    #[test]
    fn bdd_agrees_with_exhaustive_simulation(
        ops in proptest::collection::vec(any::<u8>(), 4..40),
    ) {
        let n = random_netlist(4, &ops);
        let opt = optimize(&n);
        let verdict = check_equivalence(&n, &opt, 100_000).expect("small cones fit");
        prop_assert_eq!(verdict, Equivalence::Equal);
    }

    /// BDD evaluation equals netlist simulation on every input pattern
    /// (4 inputs, exhaustive).
    #[test]
    fn bdd_truth_matches_simulation(
        ops in proptest::collection::vec(any::<u8>(), 4..30),
    ) {
        let n = random_netlist(4, &ops);
        let mut mgr = BddManager::new(4, 100_000);
        let outs = mgr.build_outputs(&n).expect("fits");
        for pattern in 0..16u64 {
            let inputs: Vec<bool> = (0..4).map(|b| (pattern >> b) & 1 == 1).collect();
            let sim = n.simulate_bool(&inputs).expect("simulates");
            for (oi, &f) in outs.iter().enumerate() {
                // Evaluate the BDD by restriction: walk with the inputs.
                let val = mgr.eval(f, &inputs);
                prop_assert_eq!(sim[oi], val, "output {} pattern {}", oi, pattern);
            }
        }
    }

    /// Structural lint gate on the optimizer: whatever random logic
    /// goes in, `optimize` output carries no structural errors and no
    /// dead gates — the lint's cone-of-influence and the optimizer's
    /// DCE agree on liveness. (No gate-count bound is asserted: folding
    /// legally decomposes Nand/Nor/Xnor into base gate + Not.)
    #[test]
    fn optimize_output_passes_structural_lints(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
    ) {
        let n = random_netlist(4, &ops);
        let raw = lint_netlist(&n);
        prop_assert!(raw.errors().next().is_none(), "{:?}", raw.findings);
        let report = lint_netlist(&optimize(&n));
        prop_assert!(report.errors().next().is_none(), "{:?}", report.findings);
        prop_assert_eq!(report.stats.dead_gates, 0, "DCE left dead gates");
    }

    /// The LUT network's evaluator equals its mux-tree lowering run on
    /// the gate kernel, word for word. Random logic, with outputs tied
    /// to both constants and to a primary input, is mapped at every LUT
    /// size under both strategies, and every LUT root becomes an output
    /// too. The stimulus fills `rounds` words of 16-word blocks, so the
    /// last block is often partial, its tail words left from the block
    /// before, as the power estimator leaves them.
    #[test]
    fn lut_evaluator_matches_its_lowering(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        k in 2usize..=6,
        rounds in 1usize..=40,
        seed in any::<u64>(),
    ) {
        // Multiplexers and majority gates need three-input LUTs.
        let ops: Vec<u8> = if k == 2 { ops.iter().map(|o| o % 7).collect() } else { ops };
        let mut n = random_netlist(4, &ops);
        let (zero, one, input) = (n.constant(false), n.constant(true), n.inputs()[2]);
        for (name, s) in [("zero", zero), ("one", one), ("input", input)] {
            n.output(name, s);
        }
        let opt = optimize(&n);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for strategy in [MapStrategy::Depth, MapStrategy::Area] {
            let mut mapped = map_luts(&opt, k, strategy).expect("mappable");
            prop_assert!(mapped.luts.iter().all(|l| l.inputs.len() <= k));
            let roots: Vec<SignalId> = mapped.luts.iter().map(|l| l.root).collect();
            for (i, root) in roots.into_iter().enumerate() {
                mapped.outputs.push((format!("lut{i}"), root));
            }
            let lowered = mapped.to_netlist("lowered");
            let mut blocks = vec![[0u64; 16]; mapped.inputs.len()];
            for first in (0..rounds).step_by(16) {
                for r in 0..(rounds - first).min(16) {
                    for b in &mut blocks {
                        b[r] = rng.gen();
                    }
                }
                prop_assert_eq!(
                    mapped.simulate_blocks(&blocks).expect("simulates"),
                    lowered.simulate_blocks(&blocks).expect("simulates")
                );
            }
            let words: Vec<[u64; 1]> = blocks.iter().map(|b| [b[0]]).collect();
            prop_assert_eq!(
                mapped.simulate_blocks(&words).expect("simulates"),
                lowered.simulate_blocks(&words).expect("simulates")
            );
        }
    }

    /// Adders of random widths are exact through the whole flow.
    #[test]
    fn random_width_adders_are_exact(w in 2usize..10, a in 0u64..1024, b in 0u64..1024) {
        let mask = (1u64 << w) - 1;
        let (av, bv) = (a & mask, b & mask);
        let mut n = Netlist::new("add");
        let xa = n.input_bus("a", w);
        let xb = n.input_bus("b", w);
        let (s, c) = bus::ripple_carry_add(&mut n, &xa, &xb, None);
        n.output_bus("s", &s);
        n.output("c", c);
        let mapped = map_luts(&optimize(&n), 6, MapStrategy::Depth).expect("mappable");
        let bits = |v: u64| (0..w).map(move |k| (v >> k) & 1 == 1);
        let inputs: Vec<bool> = bits(av).chain(bits(bv)).collect();
        let out: u64 = lut_network_outputs(&mapped, &inputs)
            .into_iter()
            .enumerate()
            .map(|(k, bit)| u64::from(bit) << k)
            .sum();
        prop_assert_eq!(out, av + bv);
    }
}



proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The fault-injection evaluator with an empty fault set is
    /// bit-identical to the fault-free simulator on random logic and
    /// random stimulus — injection masks must be pure overlays.
    #[test]
    fn zero_fault_campaign_is_bit_identical(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        words in proptest::collection::vec(any::<u64>(), 4),
    ) {
        let n = random_netlist(4, &ops);
        let plain = n.eval_words(&words).expect("evaluates");
        let faulted = n
            .eval_words_with_faults(&words, &FaultSet::empty())
            .expect("evaluates");
        prop_assert_eq!(plain, faulted);
        let out_plain = n.simulate_words(&words).expect("simulates");
        let out_faulted = n
            .simulate_words_with_faults(&words, &FaultSet::empty())
            .expect("simulates");
        prop_assert_eq!(out_plain, out_faulted);
    }

    /// A transient bit-flip applied twice on the same lanes cancels out:
    /// XOR masks compose within a fault set.
    #[test]
    fn double_transient_flip_is_identity(
        ops in proptest::collection::vec(any::<u8>(), 4..40),
        words in proptest::collection::vec(any::<u64>(), 4),
        target in any::<u8>(),
        lanes in any::<u64>(),
    ) {
        let n = random_netlist(4, &ops);
        let sig = SignalId::from_index(target as usize % n.len());
        let twice = FaultSet::empty().transient(sig, lanes).transient(sig, lanes);
        let plain = n.eval_words(&words).expect("evaluates");
        let faulted = n.eval_words_with_faults(&words, &twice).expect("evaluates");
        prop_assert_eq!(plain, faulted);
    }

    /// A stuck-at fault on net s forces s to the stuck value in every
    /// lane, regardless of the surrounding logic.
    #[test]
    fn stuck_at_forces_value_on_random_logic(
        ops in proptest::collection::vec(any::<u8>(), 4..40),
        words in proptest::collection::vec(any::<u64>(), 4),
        target in any::<u8>(),
        polarity in any::<bool>(),
    ) {
        let n = random_netlist(4, &ops);
        let idx = target as usize % n.len();
        let kind = if polarity { FaultKind::StuckAt1 } else { FaultKind::StuckAt0 };
        let set = FaultSet::empty().stuck_at(SignalId::from_index(idx), kind);
        let vals = n.eval_words_with_faults(&words, &set).expect("evaluates");
        let expected = if polarity { !0u64 } else { 0u64 };
        prop_assert_eq!(vals[idx], expected);
    }
}
