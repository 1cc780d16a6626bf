//! Bit-parallel netlist simulation: the one gate evaluator.
//!
//! Every signal is a *block* of `W` words (`[u64; W]`, const-generic
//! over `W`): lane *l* of a block lives in word `l / 64`, bit `l % 64`,
//! so one pass over the gate list evaluates `W × 64` input vectors.
//! [`eval_gate`] is the semantics of one gate on a block and
//! [`Netlist::eval_blocks_masked`] is the kernel that runs it over a
//! netlist in topological order, applying fault masks as it goes. Every
//! evaluation of gates on concrete values goes through these two:
//!
//! - the 64-lane word API ([`Netlist::eval_words`],
//!   [`Netlist::simulate_words`] and their faulted variants) is the
//!   kernel at `W = 1`;
//! - exhaustive tables, fault campaigns and the streaming frame
//!   pipeline run it at `W = 8` or `W = 16`, where the per-gate loops
//!   over the block words autovectorize and the per-gate dispatch
//!   (match, bounds checks, fault-mask probe) amortizes over `W` words;
//! - LUT networks are lowered to mux trees and simulated as netlists,
//!   and LUT truth tables are extracted by running [`eval_gate`] over a
//!   cut's cone.
//!
//! Padding lanes of a partial final block are driven with zeros; their
//! outputs are well-defined but meaningless, and callers mask them out.

use crate::fault::FaultSet;
use crate::ir::{Gate, Netlist, SignalId};
use crate::NetlistError;

/// Applies a unary word operation across a block.
#[inline(always)]
fn un<const W: usize>(a: &[u64; W], f: impl Fn(u64) -> u64) -> [u64; W] {
    let mut out = [0u64; W];
    for i in 0..W {
        out[i] = f(a[i]);
    }
    out
}

/// Applies a binary word operation across a block.
#[inline(always)]
fn bin<const W: usize>(a: &[u64; W], b: &[u64; W], f: impl Fn(u64, u64) -> u64) -> [u64; W] {
    let mut out = [0u64; W];
    for i in 0..W {
        out[i] = f(a[i], b[i]);
    }
    out
}

/// Applies a ternary word operation across a block.
#[inline(always)]
fn tri<const W: usize>(
    a: &[u64; W],
    b: &[u64; W],
    c: &[u64; W],
    f: impl Fn(u64, u64, u64) -> u64,
) -> [u64; W] {
    let mut out = [0u64; W];
    for i in 0..W {
        out[i] = f(a[i], b[i], c[i]);
    }
    out
}

/// The value of `gate` over a `W`-word block, reading fanin values from
/// `vals` (indexed by signal). `None` for a primary input, which has no
/// gate semantics: the caller drives it.
#[inline(always)]
pub(crate) fn eval_gate<const W: usize>(gate: &Gate, vals: &[[u64; W]]) -> Option<[u64; W]> {
    let v = |s: SignalId| &vals[s.index()];
    Some(match *gate {
        Gate::Input { .. } => return None,
        Gate::Const(c) => [if c { u64::MAX } else { 0 }; W],
        Gate::Buf(a) => *v(a),
        Gate::Not(a) => un(v(a), |x| !x),
        Gate::And(a, b) => bin(v(a), v(b), |x, y| x & y),
        Gate::Or(a, b) => bin(v(a), v(b), |x, y| x | y),
        Gate::Xor(a, b) => bin(v(a), v(b), |x, y| x ^ y),
        Gate::Nand(a, b) => bin(v(a), v(b), |x, y| !(x & y)),
        Gate::Nor(a, b) => bin(v(a), v(b), |x, y| !(x | y)),
        Gate::Xnor(a, b) => bin(v(a), v(b), |x, y| !(x ^ y)),
        Gate::Mux { sel, t, f } => tri(v(sel), v(t), v(f), |s, t, f| (s & t) | (!s & f)),
        Gate::Maj(a, b, c) => tri(v(a), v(b), v(c), |x, y, z| (x & y) | (x & z) | (y & z)),
    })
}

impl Netlist {
    /// The evaluation kernel: one pass over the gate list computing
    /// every signal for `W × 64` lanes into `vals`, with `masks` —
    /// `(signal index, and, or, xor)` entries **sorted by signal index**
    /// — applied as each masked signal is computed, so downstream gates
    /// see the faulted value. The masks broadcast across the `W` words
    /// of a block. An empty mask list costs one predictable compare per
    /// gate. `vals` is reused without clearing: a warm caller neither
    /// reallocates nor zero-fills it, since every slot is written before
    /// it is read in a netlist that keeps the builder's fanin-first order
    /// (see [`Netlist::from_parts`]).
    pub(crate) fn eval_blocks_masked<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
        masks: &[(usize, u64, u64, u64)],
        vals: &mut Vec<[u64; W]>,
    ) -> crate::Result<()> {
        if input_blocks.len() != self.inputs().len() {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs().len(),
                found: input_blocks.len(),
            });
        }
        vals.resize(self.len(), [0u64; W]);
        let mut next_input = 0;
        let mut next_mask = 0;
        for (i, gate) in self.gates().iter().enumerate() {
            let mut v = match eval_gate(gate, vals) {
                Some(v) => v,
                None => {
                    let b = input_blocks[next_input];
                    next_input += 1;
                    b
                }
            };
            if next_mask < masks.len() && masks[next_mask].0 == i {
                let (_, and_mask, or_mask, xor_mask) = masks[next_mask];
                for w in 0..W {
                    v[w] = ((v[w] & and_mask) | or_mask) ^ xor_mask;
                }
                next_mask += 1;
            }
            vals[i] = v;
        }
        Ok(())
    }

    /// The kernel at `W = 1`: every signal's 64-lane word.
    pub(crate) fn eval_words_masked(
        &self,
        input_words: &[u64],
        masks: &[(usize, u64, u64, u64)],
    ) -> crate::Result<Vec<u64>> {
        let blocks: Vec<[u64; 1]> = input_words.iter().map(|&w| [w]).collect();
        let mut vals = Vec::new();
        self.eval_blocks_masked(&blocks, masks, &mut vals)?;
        Ok(vals.into_iter().map(|[w]| w).collect())
    }

    /// The primary outputs' words of a per-signal value vector.
    pub(crate) fn output_words(&self, vals: &[u64]) -> Vec<u64> {
        self.outputs().iter().map(|(_, s)| vals[s.index()]).collect()
    }

    /// Evaluates every signal for 64 parallel input lanes.
    ///
    /// `input_words[k]` supplies the 64 lane values of the k-th primary
    /// input (in [`Netlist::inputs`] order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] if the number of words
    /// differs from the number of primary inputs.
    pub fn eval_words(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        self.eval_words_masked(input_words, &[])
    }

    /// Evaluates the primary outputs for 64 parallel lanes.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_words`].
    pub fn simulate_words(&self, input_words: &[u64]) -> crate::Result<Vec<u64>> {
        Ok(self.output_words(&self.eval_words(input_words)?))
    }

    /// Evaluates the primary outputs for a single boolean input vector.
    ///
    /// # Errors
    ///
    /// See [`Netlist::eval_words`].
    pub fn simulate_bool(&self, inputs: &[bool]) -> crate::Result<Vec<bool>> {
        let words: Vec<u64> = inputs.iter().map(|&b| if b { 1 } else { 0 }).collect();
        let outs = self.simulate_words(&words)?;
        Ok(outs.iter().map(|&w| w & 1 == 1).collect())
    }

    /// Evaluates an output *bus* for any number of integer samples,
    /// 64 per simulation pass.
    ///
    /// `bus` lists the signals of the bus LSB-first. `samples` holds the
    /// integer values to drive on `input_bus` (LSB-first as well); both
    /// buses are driven/read in two's complement when `signed` is set.
    ///
    /// This is a convenience wrapper for operator-style netlists with
    /// exactly two input buses; see `clapped-axops` for typical usage.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] unless the netlist
    /// has exactly `a_width + b_width` primary inputs.
    pub fn simulate_binary_op(
        &self,
        a_width: usize,
        b_width: usize,
        pairs: &[(i64, i64)],
        out_signed: bool,
    ) -> crate::Result<Vec<i64>> {
        if self.inputs().len() != a_width + b_width {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs().len(),
                found: a_width + b_width,
            });
        }
        let mut results = Vec::with_capacity(pairs.len());
        for chunk in pairs.chunks(64) {
            let a_vals: Vec<i64> = chunk.iter().map(|p| p.0).collect();
            let b_vals: Vec<i64> = chunk.iter().map(|p| p.1).collect();
            let mut words = pack_bus_samples(&a_vals, a_width);
            words.extend(pack_bus_samples(&b_vals, b_width));
            let outs = self.simulate_words(&words)?;
            results.extend(unpack_bus_samples(&outs, chunk.len(), out_signed));
        }
        Ok(results)
    }

    /// Evaluates the primary outputs for `W × 64` parallel lanes.
    /// Bit-identical, word for word, to calling
    /// [`Netlist::simulate_words`] once per block word.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InputCountMismatch`] if the number of
    /// blocks differs from the number of primary inputs.
    pub fn simulate_blocks<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
    ) -> crate::Result<Vec<[u64; W]>> {
        self.simulate_blocks_with_faults(input_blocks, &FaultSet::empty())
    }

    /// [`Netlist::simulate_blocks`] with injected faults. The fault
    /// masks broadcast across the `W` words of each block — the same
    /// and/or/xor masks a 64-lane [`FaultSet`] applies per word — so
    /// the result is bit-identical to faulting each word separately
    /// with [`Netlist::simulate_words_with_faults`].
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidFaultSite`] if a fault references
    /// a signal outside this netlist; see also
    /// [`Netlist::simulate_blocks`].
    pub fn simulate_blocks_with_faults<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
        faults: &FaultSet,
    ) -> crate::Result<Vec<[u64; W]>> {
        let (mut scratch, mut outputs) = (Vec::new(), Vec::new());
        self.simulate_blocks_into(input_blocks, faults, &mut scratch, &mut outputs)?;
        Ok(outputs)
    }

    /// Streaming variant of [`Netlist::simulate_blocks_with_faults`]:
    /// evaluates the primary outputs into `outputs`, reusing `scratch`
    /// for the per-signal values. Repeated calls with the same buffers
    /// and an empty fault set allocate nothing — this is the inner loop
    /// of table derivation and frame simulation.
    ///
    /// # Errors
    ///
    /// See [`Netlist::simulate_blocks_with_faults`].
    pub fn simulate_blocks_into<const W: usize>(
        &self,
        input_blocks: &[[u64; W]],
        faults: &FaultSet,
        scratch: &mut Vec<[u64; W]>,
        outputs: &mut Vec<[u64; W]>,
    ) -> crate::Result<()> {
        self.eval_blocks_masked(input_blocks, &faults.sorted_masks(self.len())?, scratch)?;
        outputs.clear();
        outputs.extend(self.outputs().iter().map(|(_, s)| scratch[s.index()]));
        Ok(())
    }
}

/// Packs up to 64 integer samples into per-bit simulation words.
///
/// Word *k* of the result carries bit *k* of every sample: bit *i* of word
/// *k* equals bit *k* of `samples[i]`. Negative values are packed in two's
/// complement.
///
/// # Panics
///
/// Panics if more than 64 samples are supplied.
///
/// # Examples
///
/// ```
/// let words = clapped_netlist::pack_bus_samples(&[0b10, 0b01], 2);
/// assert_eq!(words[0] & 0b11, 0b10); // LSBs of samples 0 and 1
/// assert_eq!(words[1] & 0b11, 0b01);
/// ```
pub fn pack_bus_samples(samples: &[i64], width: usize) -> Vec<u64> {
    assert!(samples.len() <= 64, "at most 64 samples per word");
    let mut words = vec![0u64; width];
    for (lane, &v) in samples.iter().enumerate() {
        let bits = v.cast_unsigned();
        for (k, word) in words.iter_mut().enumerate() {
            if (bits >> k) & 1 == 1 {
                *word |= 1 << lane;
            }
        }
    }
    words
}

/// Unpacks per-bit output words back into `count` integer samples.
///
/// When `signed` is set the most significant supplied word is treated as a
/// sign bit and the result is sign-extended.
pub fn unpack_bus_samples(words: &[u64], count: usize, signed: bool) -> Vec<i64> {
    assert!(count <= 64, "at most 64 samples per word");
    let width = words.len();
    (0..count)
        .map(|lane| {
            let mut v: u64 = 0;
            for (k, &word) in words.iter().enumerate() {
                if (word >> lane) & 1 == 1 {
                    v |= 1 << k;
                }
            }
            if signed && width > 0 && width < 64 && (v >> (width - 1)) & 1 == 1 {
                // Sign-extend.
                (v | (!0u64 << width)).cast_signed()
            } else {
                v.cast_signed()
            }
        })
        .collect()
}

/// Transposes a u64 viewed as an 8×8 bit matrix: bit `8r + c` of the
/// input becomes bit `8c + r` of the output (byte *r* holds row *r*,
/// bit *c* within the byte holds column *c*). The function is an
/// involution, so the same call converts both ways between
/// byte-per-lane form (byte *l* = an 8-bit value for lane *l*) and
/// bitplane form (byte *k* = bit *k* of all eight lanes).
///
/// This is the hot pack/unpack primitive of the wide-word pipelines:
/// eight lanes move between bytes and bitplanes in ~18 word ops instead
/// of 64 per-bit shift/or pairs.
///
/// # Examples
///
/// ```
/// // A matrix with only row 3 set maps to every byte having bit 3 set.
/// let x = 0xffu64 << (8 * 3);
/// assert_eq!(clapped_netlist::transpose8x8(x), 0x0808_0808_0808_0808);
/// assert_eq!(clapped_netlist::transpose8x8(clapped_netlist::transpose8x8(x)), x);
/// ```
#[inline(always)]
#[must_use]
pub fn transpose8x8(x: u64) -> u64 {
    // Three delta-swap rounds (Hacker's Delight §7-3): exchange 1×1,
    // 2×2, then 4×4 sub-blocks across the diagonal.
    let t = (x ^ (x >> 7)) & 0x00aa_00aa_00aa_00aa;
    let x = x ^ t ^ (t << 7);
    let t = (x ^ (x >> 14)) & 0x0000_cccc_0000_cccc;
    let x = x ^ t ^ (t << 14);
    let t = (x ^ (x >> 28)) & 0x0000_0000_f0f0_f0f0;
    x ^ t ^ (t << 28)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FaultKind, Netlist};

    #[test]
    fn gate_semantics() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let gates = [
            n.and(a, b),
            n.or(a, b),
            n.xor(a, b),
            n.nand(a, b),
            n.nor(a, b),
            n.xnor(a, b),
            n.mux(c, a, b),
            n.maj(a, b, c),
            n.not(a),
        ];
        for (i, g) in gates.into_iter().enumerate() {
            n.output(format!("o{i}"), g);
        }
        // Exhaustive 3-input truth check against Rust semantics.
        for bits in 0..8u8 {
            let (a, b, c) = (bits & 1 == 1, bits & 2 == 2, bits & 4 == 4);
            let out = n.simulate_bool(&[a, b, c]).unwrap();
            assert_eq!(out[0], a & b);
            assert_eq!(out[1], a | b);
            assert_eq!(out[2], a ^ b);
            assert_eq!(out[3], !(a & b));
            assert_eq!(out[4], !(a | b));
            assert_eq!(out[5], !(a ^ b));
            assert_eq!(out[6], if c { a } else { b });
            assert_eq!(out[7], (a & b) | (a & c) | (b & c));
            assert_eq!(out[8], !a);
        }
    }

    #[test]
    fn pack_unpack_roundtrip_unsigned() {
        let samples = [0i64, 1, 5, 12, 15];
        let words = pack_bus_samples(&samples, 4);
        let back = unpack_bus_samples(&words, samples.len(), false);
        assert_eq!(back, samples);
    }

    #[test]
    fn pack_unpack_roundtrip_signed() {
        let samples = [-8i64, -1, 0, 3, 7];
        let words = pack_bus_samples(&samples, 4);
        let back = unpack_bus_samples(&words, samples.len(), true);
        assert_eq!(back, samples);
    }

    #[test]
    fn input_count_mismatch_is_error() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        n.output("y", a);
        assert!(n.simulate_bool(&[]).is_err());
        assert!(sample_netlist().simulate_blocks(&[[0u64; 4]; 2]).is_err());
    }

    #[test]
    fn parallel_lanes_agree_with_scalar() {
        let mut n = Netlist::new("t");
        let a = n.input_bus("a", 2);
        let b = n.input_bus("b", 2);
        let x = n.xor(a[0], b[1]);
        let y = n.and(a[1], b[0]);
        n.output("x", x);
        n.output("y", y);
        // Drive all 16 combinations in parallel lanes.
        let mut pairs = Vec::new();
        for av in 0..4i64 {
            for bv in 0..4i64 {
                pairs.push((av, bv));
            }
        }
        let a_words = pack_bus_samples(&pairs.iter().map(|p| p.0).collect::<Vec<_>>(), 2);
        let b_words = pack_bus_samples(&pairs.iter().map(|p| p.1).collect::<Vec<_>>(), 2);
        let mut words = a_words;
        words.extend(b_words);
        let outs = n.simulate_words(&words).unwrap();
        for (lane, &(av, bv)) in pairs.iter().enumerate() {
            let expect_x = ((av & 1) ^ ((bv >> 1) & 1)) == 1;
            let expect_y = (((av >> 1) & 1) & (bv & 1)) == 1;
            assert_eq!((outs[0] >> lane) & 1 == 1, expect_x);
            assert_eq!((outs[1] >> lane) & 1 == 1, expect_y);
        }
    }

    /// A 4-bit adder with a carry-out: inputs `a[0..4]`, `b[0..4]`.
    fn adder4() -> Netlist {
        let mut n = Netlist::new("add4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (s, c) = crate::bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("c", c);
        n
    }

    #[test]
    fn binary_op_arity_mismatch_is_error() {
        let err = adder4().simulate_binary_op(4, 3, &[(1, 2)], false).unwrap_err();
        assert_eq!(err, NetlistError::InputCountMismatch { expected: 8, found: 7 });
    }

    #[test]
    fn binary_op_evaluates_more_than_64_pairs() {
        let pairs: Vec<(i64, i64)> = (0..16).flat_map(|a| (0..16).map(move |b| (a, b))).collect();
        let sums = adder4().simulate_binary_op(4, 4, &pairs, false).unwrap();
        assert_eq!(sums.len(), 256);
        for (&(a, b), &s) in pairs.iter().zip(&sums) {
            assert_eq!(s, a + b, "{a}+{b}");
        }
        assert!(adder4().simulate_binary_op(4, 4, &[], false).unwrap().is_empty());
    }

    fn sample_netlist() -> Netlist {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let x = n.xor(a, b);
        let y = n.maj(a, b, c);
        let z = n.mux(c, x, y);
        n.output("x", x);
        n.output("y", y);
        n.output("z", z);
        n
    }

    #[test]
    fn blocks_agree_with_words_lane_by_lane() {
        let n = sample_netlist();
        let inputs: [[u64; 4]; 3] = [
            [0x0123_4567_89ab_cdef, 1, !0, 0xdead_beef],
            [0xfedc_ba98_7654_3210, 2, 0, 0xbeef_dead],
            [0xaaaa_aaaa_5555_5555, 3, !0, 7],
        ];
        let wide = n.simulate_blocks(&inputs).unwrap();
        for w in 0..4 {
            let words: Vec<u64> = inputs.iter().map(|b| b[w]).collect();
            let narrow = n.simulate_words(&words).unwrap();
            for (k, &word) in narrow.iter().enumerate() {
                assert_eq!(wide[k][w], word, "output {k} word {w}");
            }
        }
    }

    #[test]
    fn w1_blocks_equal_words_exactly() {
        let n = sample_netlist();
        let words = [0x1234u64, 0x5678, 0x9abc];
        let blocks: Vec<[u64; 1]> = words.iter().map(|&w| [w]).collect();
        let wide = n.simulate_blocks(&blocks).unwrap();
        let narrow = n.simulate_words(&words).unwrap();
        assert_eq!(narrow, wide.iter().map(|b| b[0]).collect::<Vec<_>>());
    }

    #[test]
    fn faulted_blocks_broadcast_masks_per_word() {
        let n = sample_netlist();
        let inputs: [[u64; 2]; 3] = [[0xff00, 3], [0x0ff0, 5], [0x00ff, 9]];
        // Entries out of signal order: the kernel sees them sorted.
        let faults = FaultSet::empty()
            .transient(SignalId::from_index(4), 0b1010)
            .stuck_at(SignalId::from_index(3), FaultKind::StuckAt1);
        let wide = n.simulate_blocks_with_faults(&inputs, &faults).unwrap();
        for w in 0..2 {
            let words: Vec<u64> = inputs.iter().map(|b| b[w]).collect();
            let narrow = n.simulate_words_with_faults(&words, &faults).unwrap();
            for (k, &word) in narrow.iter().enumerate() {
                assert_eq!(wide[k][w], word, "output {k} word {w}");
            }
        }
        // x (signal 3) stuck at 1; y (signal 4) flipped in lanes 1 and 3.
        let y = inputs.map(|b| b[0]);
        let maj = (y[0] & y[1]) | (y[0] & y[2]) | (y[1] & y[2]);
        assert_eq!(wide[0][0], !0);
        assert_eq!(wide[1][0], maj ^ 0b1010);
    }

    #[test]
    fn invalid_fault_site_is_reported() {
        let n = sample_netlist();
        let faults = FaultSet::empty().stuck_at(SignalId::from_index(99), FaultKind::StuckAt0);
        let err = n.simulate_blocks_with_faults(&[[0u64; 2]; 3], &faults).unwrap_err();
        assert!(matches!(err, NetlistError::InvalidFaultSite { index: 99, .. }));
    }

    #[test]
    fn streaming_variant_reuses_buffers() {
        let n = sample_netlist();
        let inputs = [[1u64; 4], [2u64; 4], [4u64; 4]];
        let none = FaultSet::empty();
        let mut scratch = Vec::new();
        let mut outs = Vec::new();
        n.simulate_blocks_into(&inputs, &none, &mut scratch, &mut outs).unwrap();
        let expect = n.simulate_blocks(&inputs).unwrap();
        assert_eq!(outs, expect);
        let (sp, op) = (scratch.as_ptr(), outs.as_ptr());
        n.simulate_blocks_into(&inputs, &none, &mut scratch, &mut outs).unwrap();
        assert_eq!(outs, expect);
        assert_eq!((sp, op), (scratch.as_ptr(), outs.as_ptr()), "no reallocation");
    }

    #[test]
    fn transpose8x8_matches_naive_bit_transpose() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let x = state;
            let y = transpose8x8(x);
            for r in 0..8 {
                for c in 0..8 {
                    assert_eq!(
                        (y >> (8 * c + r)) & 1,
                        (x >> (8 * r + c)) & 1,
                        "x={x:#018x} r={r} c={c}"
                    );
                }
            }
            assert_eq!(transpose8x8(y), x, "involution");
        }
    }
}
