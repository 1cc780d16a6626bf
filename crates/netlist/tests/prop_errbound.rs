//! Property tests pinning the static error-bound analyzer sound against
//! exhaustive simulation on random logic: interval/exact worst-case
//! error bounds dominate observed errors, the exact tier's mismatch
//! count equals the simulated count, and congruence classes are
//! semantically real.

use clapped_netlist::{abstract_values, analyze_error_bounds, AbsVal, ErrBoundConfig, Netlist};
use proptest::prelude::*;

/// Builds a random DAG of gates over `n_inputs` inputs from an opcode
/// stream (same construction as `prop_wide_sim.rs`).
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
    for (i, &s) in sigs.iter().rev().take(4).enumerate() {
        n.output(format!("o{i}"), s);
    }
    n
}

const N_IN: usize = 5;
const PATTERNS: usize = 1 << N_IN;

/// One 64-lane input vector whose lane `p` drives input `k` with bit
/// `k` of the pattern index `p` — lanes `0..32` enumerate the whole
/// 5-input space in one `eval_words` call.
fn exhaustive_words() -> Vec<u64> {
    (0..N_IN)
        .map(|k| {
            let mut w = 0u64;
            for p in 0..PATTERNS {
                w |= (((p >> k) & 1) as u64) << p;
            }
            w
        })
        .collect()
}

/// The 4-output bus of `outs` read as an unsigned value for lane `p`.
fn bus_value(outs: &[u64], p: usize) -> u64 {
    outs.iter().enumerate().map(|(k, &w)| ((w >> p) & 1) << k).sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Proved bounds dominate exhaustively observed errors, per bit and
    /// in magnitude; the exact tier (which always fits for 5-variable
    /// BDDs) reproduces the simulated mismatch count and max error
    /// bit-exactly.
    #[test]
    fn proved_bounds_dominate_exhaustive_error(
        ops in proptest::collection::vec(any::<u8>(), 6..40),
        mutate_at in any::<usize>(),
        delta in 1u8..=255,
    ) {
        let exact = random_netlist(N_IN, &ops);
        let mut approx_ops = ops.clone();
        let j = mutate_at % approx_ops.len();
        approx_ops[j] = approx_ops[j].wrapping_add(delta);
        let approx = random_netlist(N_IN, &approx_ops);

        let cfg = ErrBoundConfig { bdd_node_limit: 200_000, signed_outputs: false };
        let bounds = analyze_error_bounds(&approx, &exact, &cfg).expect("analysis");

        let words = exhaustive_words();
        let e_outs = exact.simulate_words(&words).expect("exact simulates");
        let a_outs = approx.simulate_words(&words).expect("approx simulates");
        let mut observed_max = 0u64;
        let mut observed_mismatches = 0u128;
        for p in 0..PATTERNS {
            let ev = bus_value(&e_outs, p);
            let av = bus_value(&a_outs, p);
            if ev != av {
                observed_mismatches += 1;
                observed_max = observed_max.max(ev.abs_diff(av));
            }
            // Per-bit cone soundness: a differing output bit must be in
            // the proved error cone.
            for k in 0..4 {
                if (e_outs[k] >> p) & 1 != (a_outs[k] >> p) & 1 {
                    prop_assert!(bounds.error_cone[k], "bit {} differs outside the cone", k);
                }
            }
        }
        prop_assert!(bounds.proved_wce >= observed_max,
            "interval WCE {} < observed {}", bounds.proved_wce, observed_max);
        let e = bounds.exact.expect("5-var BDDs always fit the budget");
        prop_assert_eq!(e.mismatch_count, observed_mismatches);
        prop_assert_eq!(e.wce, observed_max);
        prop_assert_eq!(e.input_space, 1u128 << N_IN);
        // Proved-equal must agree with zero observed mismatches.
        prop_assert_eq!(observed_mismatches == 0, e.mismatch_count == 0);
    }

    /// The congruence abstract domain is semantically sound: a signal
    /// proved `Const(v)` holds `v` under every input, and two signals
    /// sharing a class id are equal under every input.
    #[test]
    fn congruence_classes_are_semantically_sound(
        ops in proptest::collection::vec(any::<u8>(), 4..50),
    ) {
        let n = random_netlist(N_IN, &ops);
        let vals = abstract_values(&n);
        let words = n.eval_words(&exhaustive_words()).expect("simulates");
        let mask: u64 = (1u64 << PATTERNS) - 1;
        for (i, v) in vals.iter().enumerate() {
            if let AbsVal::Const(c) = v {
                let want = if *c { mask } else { 0 };
                prop_assert_eq!(words[i] & mask, want, "signal {} proved Const({})", i, c);
            }
        }
        for (i, vi) in vals.iter().enumerate() {
            for (j, vj) in vals.iter().enumerate().skip(i + 1) {
                if let (AbsVal::Class(a), AbsVal::Class(b)) = (vi, vj) {
                    if a == b {
                        prop_assert_eq!(words[i] & mask, words[j] & mask,
                            "signals {} and {} share class {}", i, j, a);
                    }
                }
            }
        }
    }
}
