//! Structural builders for multi-bit arithmetic datapaths.
//!
//! A *bus* is simply a `Vec<SignalId>` ordered LSB-first. The functions in
//! this module grow a [`Netlist`] with classic arithmetic structures:
//! ripple-carry adders, carry-save column reduction, the Baugh-Wooley
//! signed array multiplier, barrel shifters and leading-one detectors.
//! The approximate operator library (`clapped-axops`) composes these
//! builders into approximate multiplier and adder architectures.

use crate::ir::{Netlist, SignalId};

/// A bus of signals, LSB first.
pub type Bus = Vec<SignalId>;

/// Builds a constant bus holding `value` (two's complement) over `width`
/// bits.
pub fn constant_bus(n: &mut Netlist, value: i64, width: usize) -> Bus {
    (0..width)
        .map(|k| n.constant((value >> k) & 1 == 1))
        .collect()
}

/// Half adder; returns `(sum, carry)`.
pub(crate) fn half_adder(n: &mut Netlist, a: SignalId, b: SignalId) -> (SignalId, SignalId) {
    (n.xor(a, b), n.and(a, b))
}

/// Full adder; returns `(sum, carry)` built from XOR3 and MAJ gates.
pub fn full_adder(
    n: &mut Netlist,
    a: SignalId,
    b: SignalId,
    c: SignalId,
) -> (SignalId, SignalId) {
    (n.xor3(a, b, c), n.maj(a, b, c))
}

/// Ripple-carry addition of two equal-width buses.
///
/// Returns the sum bus (same width as the inputs) and the carry-out.
///
/// # Panics
///
/// Panics if the buses have different widths or are empty.
pub fn ripple_carry_add(
    n: &mut Netlist,
    a: &[SignalId],
    b: &[SignalId],
    cin: Option<SignalId>,
) -> (Bus, SignalId) {
    assert_eq!(a.len(), b.len(), "operand widths must match");
    assert!(!a.is_empty(), "operands must be non-empty");
    let mut carry = cin.unwrap_or_else(|| n.constant(false));
    let mut sum = Vec::with_capacity(a.len());
    for (&x, &y) in a.iter().zip(b) {
        let (s, c) = full_adder(n, x, y, carry);
        sum.push(s);
        carry = c;
    }
    (sum, carry)
}

/// Two's-complement subtraction `a - b` via `a + !b + 1`.
///
/// Returns the difference bus and the final carry (1 when no borrow).
///
/// # Panics
///
/// Panics if the buses have different widths or are empty.
pub fn ripple_carry_sub(
    n: &mut Netlist,
    a: &[SignalId],
    b: &[SignalId],
) -> (Bus, SignalId) {
    let nb: Bus = b.iter().map(|&x| n.not(x)).collect();
    let one = n.constant(true);
    ripple_carry_add(n, a, &nb, Some(one))
}

/// Two's-complement negation of a bus.
pub fn negate(n: &mut Netlist, a: &[SignalId]) -> Bus {
    let zero = constant_bus(n, 0, a.len());
    ripple_carry_sub(n, &zero, a).0
}

/// Sign-extends a bus to `width` bits.
///
/// # Panics
///
/// Panics if `width < a.len()` or `a` is empty.
pub fn sign_extend(a: &[SignalId], width: usize) -> Bus {
    assert!(!a.is_empty() && width >= a.len());
    let msb = *a.last().expect("non-empty bus");
    let mut out = a.to_vec();
    out.resize(width, msb);
    out
}

/// Zero-extends a bus to `width` bits.
///
/// # Panics
///
/// Panics if `width < a.len()`.
pub fn zero_extend(n: &mut Netlist, a: &[SignalId], width: usize) -> Bus {
    assert!(width >= a.len());
    let zero = n.constant(false);
    let mut out = a.to_vec();
    out.resize(width, zero);
    out
}

/// Per-bit 2:1 mux between equal-width buses: `sel ? t : f`.
///
/// # Panics
///
/// Panics if the buses have different widths.
pub fn mux_bus(n: &mut Netlist, sel: SignalId, t: &[SignalId], f: &[SignalId]) -> Bus {
    assert_eq!(t.len(), f.len(), "mux operand widths must match");
    t.iter().zip(f).map(|(&x, &y)| n.mux(sel, x, y)).collect()
}

/// Logical left barrel shifter: shifts `a` left by the unsigned value on
/// `amount`, filling with zeros. The result has the same width as `a`.
pub fn barrel_shift_left(n: &mut Netlist, a: &[SignalId], amount: &[SignalId]) -> Bus {
    let zero = n.constant(false);
    let mut cur: Bus = a.to_vec();
    for (k, &bit) in amount.iter().enumerate() {
        let shift = 1usize << k;
        if shift >= cur.len() {
            // Shifting by the full width zeroes everything when the bit is set.
            let zeros = vec![zero; cur.len()];
            cur = mux_bus(n, bit, &zeros, &cur);
            continue;
        }
        let mut shifted = vec![zero; shift];
        shifted.extend_from_slice(&cur[..cur.len() - shift]);
        cur = mux_bus(n, bit, &shifted, &cur);
    }
    cur
}

/// Logical right barrel shifter (zero filling).
pub fn barrel_shift_right(n: &mut Netlist, a: &[SignalId], amount: &[SignalId]) -> Bus {
    let zero = n.constant(false);
    let mut cur: Bus = a.to_vec();
    for (k, &bit) in amount.iter().enumerate() {
        let shift = 1usize << k;
        if shift >= cur.len() {
            let zeros = vec![zero; cur.len()];
            cur = mux_bus(n, bit, &zeros, &cur);
            continue;
        }
        let mut shifted: Bus = cur[shift..].to_vec();
        shifted.resize(cur.len(), zero);
        cur = mux_bus(n, bit, &shifted, &cur);
    }
    cur
}

/// Leading-one detector.
///
/// Returns `(one_hot, nonzero)` where `one_hot[i]` is set iff bit `i` is
/// the most significant set bit of `a`, and `nonzero` is the OR of all
/// bits.
pub fn leading_one_detect(n: &mut Netlist, a: &[SignalId]) -> (Bus, SignalId) {
    let w = a.len();
    // suffix_or[i] = OR of a[i+1..w]
    let mut suffix = vec![n.constant(false); w];
    for i in (0..w.saturating_sub(1)).rev() {
        suffix[i] = n.or(a[i + 1], suffix[i + 1]);
    }
    let one_hot: Bus = (0..w)
        .map(|i| {
            let not_higher = n.not(suffix[i]);
            n.and(a[i], not_higher)
        })
        .collect();
    let nonzero = n.or_reduce(a);
    (one_hot, nonzero)
}

/// Binary priority encoder over a one-hot bus.
///
/// Returns `ceil(log2(len))` bits encoding the index of the set bit
/// (zero when no bit is set).
pub fn encode_one_hot(n: &mut Netlist, one_hot: &[SignalId]) -> Bus {
    let w = one_hot.len();
    let bits = usize::BITS as usize - (w.max(2) - 1).leading_zeros() as usize;
    (0..bits)
        .map(|b| {
            let contributors: Vec<SignalId> = one_hot
                .iter()
                .enumerate()
                .filter(|(i, _)| (i >> b) & 1 == 1)
                .map(|(_, &s)| s)
                .collect();
            n.or_reduce(&contributors)
        })
        .collect()
}

/// Approximate 4:2 compressor (no carry chain).
///
/// Uses the common dual-rail approximation `sum = (x1 ^ x2) | (x3 ^ x4)`,
/// `carry = (x1 & x2) | (x3 & x4)`, ignoring `cin`/`cout` entirely. The
/// approximation underestimates when three or more inputs are set and
/// overestimates the `(1,1)` split; its error probability is 6/16 per
/// compressed column.
pub fn compressor_4_2_approx(
    n: &mut Netlist,
    x1: SignalId,
    x2: SignalId,
    x3: SignalId,
    x4: SignalId,
) -> (SignalId, SignalId) {
    let x12 = n.xor(x1, x2);
    let x34 = n.xor(x3, x4);
    let sum = n.or(x12, x34);
    let a12 = n.and(x1, x2);
    let a34 = n.and(x3, x4);
    let carry = n.or(a12, a34);
    (sum, carry)
}

/// A partial-product matrix: `columns[k]` holds the bits of weight `2^k`.
///
/// Used by multiplier builders; approximate multipliers drop or perturb
/// entries before reduction.
#[derive(Debug, Clone, Default)]
pub struct Columns {
    cols: Vec<Vec<SignalId>>,
}

impl Columns {
    /// Creates an empty matrix with `width` columns.
    pub fn new(width: usize) -> Self {
        Columns {
            cols: vec![Vec::new(); width],
        }
    }

    /// Number of columns.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// Adds a bit of weight `2^k`, growing the matrix if needed.
    pub fn push(&mut self, k: usize, bit: SignalId) {
        if k >= self.cols.len() {
            self.cols.resize(k + 1, Vec::new());
        }
        self.cols[k].push(bit);
    }

    /// Borrows the bits of column `k` (empty slice when out of range).
    pub fn col(&self, k: usize) -> &[SignalId] {
        self.cols.get(k).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Removes and returns all bits from column `k`.
    pub fn take_col(&mut self, k: usize) -> Vec<SignalId> {
        if k < self.cols.len() {
            std::mem::take(&mut self.cols[k])
        } else {
            Vec::new()
        }
    }

    /// Reduces the matrix with full/half adders until every column holds
    /// at most `target` bits (callers use 2 before a final carry-propagate
    /// add, or 1 to finish reduction entirely).
    pub fn reduce(&mut self, n: &mut Netlist, target: usize) {
        assert!(target >= 1, "reduction target must be at least 1");
        loop {
            let mut changed = false;
            for k in 0..self.cols.len() {
                while self.cols[k].len() > target {
                    if self.cols[k].len() >= 3 {
                        let a = self.cols[k].pop().expect("len >= 3");
                        let b = self.cols[k].pop().expect("len >= 2");
                        let c = self.cols[k].pop().expect("len >= 1");
                        let (s, cy) = full_adder(n, a, b, c);
                        self.cols[k].insert(0, s);
                        self.push(k + 1, cy);
                    } else {
                        let a = self.cols[k].pop().expect("len >= 2");
                        let b = self.cols[k].pop().expect("len >= 1");
                        let (s, cy) = half_adder(n, a, b);
                        self.cols[k].insert(0, s);
                        self.push(k + 1, cy);
                    }
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
    }

    /// Finishes reduction into a single bus of `width` bits: reduces to
    /// two rows and performs a final ripple-carry addition, truncating any
    /// carries beyond `width`.
    pub fn finalize(mut self, n: &mut Netlist, width: usize) -> Bus {
        self.reduce(n, 2);
        let zero = n.constant(false);
        let mut row_a = Vec::with_capacity(width);
        let mut row_b = Vec::with_capacity(width);
        for k in 0..width {
            let col = self.take_col(k);
            let mut it = col.into_iter();
            row_a.push(it.next().unwrap_or(zero));
            row_b.push(it.next().unwrap_or(zero));
        }
        ripple_carry_add(n, &row_a, &row_b, None).0
    }
}

/// Unsigned array multiplier: returns the full `a.len() + b.len()` wide
/// product bus.
///
/// # Panics
///
/// Panics if either operand is empty.
pub fn array_mul_unsigned(n: &mut Netlist, a: &[SignalId], b: &[SignalId]) -> Bus {
    assert!(!a.is_empty() && !b.is_empty());
    let width = a.len() + b.len();
    let mut cols = Columns::new(width);
    for (i, &ai) in a.iter().enumerate() {
        for (j, &bj) in b.iter().enumerate() {
            let pp = n.and(ai, bj);
            cols.push(i + j, pp);
        }
    }
    cols.finalize(n, width)
}

/// Builds the Baugh-Wooley partial-product matrix for an `n × n` signed
/// multiplication (including the two correction constants), without
/// reducing it. Approximate multipliers perturb this matrix before calling
/// [`Columns::finalize`].
///
/// # Panics
///
/// Panics if the operands differ in width or are narrower than 2 bits.
pub fn baugh_wooley_matrix(n: &mut Netlist, a: &[SignalId], b: &[SignalId]) -> Columns {
    assert_eq!(a.len(), b.len(), "Baugh-Wooley requires equal widths");
    let w = a.len();
    assert!(w >= 2, "signed multiplication needs at least 2 bits");
    let width = 2 * w;
    let mut cols = Columns::new(width);
    for i in 0..w {
        for j in 0..w {
            let and = n.and(a[i], b[j]);
            let pp = if (i == w - 1) ^ (j == w - 1) {
                n.not(and)
            } else {
                and
            };
            cols.push(i + j, pp);
        }
    }
    let one = n.constant(true);
    cols.push(w, one);
    cols.push(2 * w - 1, one);
    cols
}

/// Signed (two's complement) Baugh-Wooley array multiplier. Returns the
/// full `2n`-bit product.
pub fn baugh_wooley_mul(n: &mut Netlist, a: &[SignalId], b: &[SignalId]) -> Bus {
    let w2 = a.len() + b.len();
    let cols = baugh_wooley_matrix(n, a, b);
    cols.finalize(n, w2)
}

/// Lower-part OR adder (LOA): the `k` low bits are approximated with OR
/// gates, the upper bits use an exact ripple-carry adder whose carry-in is
/// `a[k-1] & b[k-1]`.
///
/// Returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if `k > a.len()` or widths differ.
pub fn loa_add(
    n: &mut Netlist,
    a: &[SignalId],
    b: &[SignalId],
    k: usize,
) -> (Bus, SignalId) {
    assert_eq!(a.len(), b.len());
    assert!(k <= a.len(), "approximate width exceeds operand width");
    if k == 0 {
        return ripple_carry_add(n, a, b, None);
    }
    let mut sum: Bus = a[..k].iter().zip(&b[..k]).map(|(&x, &y)| n.or(x, y)).collect();
    if k == a.len() {
        let cout = n.constant(false);
        return (sum, cout);
    }
    let cin = n.and(a[k - 1], b[k - 1]);
    let (hi, cout) = ripple_carry_add(n, &a[k..], &b[k..], Some(cin));
    sum.extend(hi);
    (sum, cout)
}

/// Truncated adder: the `k` low result bits are forced to zero and the
/// upper bits are added exactly (no carry from the dropped part).
///
/// Returns `(sum, carry_out)`.
///
/// # Panics
///
/// Panics if `k > a.len()` or widths differ.
pub fn truncated_add(
    n: &mut Netlist,
    a: &[SignalId],
    b: &[SignalId],
    k: usize,
) -> (Bus, SignalId) {
    assert_eq!(a.len(), b.len());
    assert!(k <= a.len());
    if k == 0 {
        return ripple_carry_add(n, a, b, None);
    }
    let zero = n.constant(false);
    let mut sum: Bus = vec![zero; k];
    if k == a.len() {
        return (sum, zero);
    }
    let (hi, cout) = ripple_carry_add(n, &a[k..], &b[k..], None);
    sum.extend(hi);
    (sum, cout)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pack_bus_samples;

    fn eval_binary(
        n: &Netlist,
        aw: usize,
        bw: usize,
        pairs: &[(i64, i64)],
        signed: bool,
    ) -> Vec<i64> {
        n.simulate_binary_op(aw, bw, pairs, signed).unwrap()
    }

    #[test]
    fn ripple_add_exhaustive_4bit() {
        let mut n = Netlist::new("add4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (sum, cout) = ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &sum);
        n.output("c", cout);
        let mut pairs = Vec::new();
        for x in 0..16i64 {
            for y in 0..16i64 {
                pairs.push((x, y));
            }
        }
        for chunk in pairs.chunks(64) {
            let a_w = pack_bus_samples(&chunk.iter().map(|p| p.0).collect::<Vec<_>>(), 4);
            let b_w = pack_bus_samples(&chunk.iter().map(|p| p.1).collect::<Vec<_>>(), 4);
            let mut words = a_w;
            words.extend(b_w);
            let outs = n.simulate_words(&words).unwrap();
            for (lane, &(x, y)) in chunk.iter().enumerate() {
                let mut got = 0i64;
                for k in 0..5 {
                    if (outs[k] >> lane) & 1 == 1 {
                        got |= 1 << k;
                    }
                }
                assert_eq!(got, x + y, "{x}+{y}");
            }
        }
    }

    #[test]
    fn subtraction_matches_reference() {
        let mut n = Netlist::new("sub4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (diff, _) = ripple_carry_sub(&mut n, &a, &b);
        n.output_bus("d", &diff);
        for (x, y) in [(5i64, 3i64), (0, 1), (7, 7), (-8, 7), (3, -4)] {
            let out = eval_binary(&n, 4, 4, &[(x, y)], true);
            let expect = ((x - y) << 60) >> 60; // wrap to 4-bit two's complement
            assert_eq!(out[0], expect, "{x}-{y}");
        }
    }

    #[test]
    fn baugh_wooley_exhaustive_4bit() {
        let mut n = Netlist::new("bw4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let p = baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let mut pairs = Vec::new();
        for x in -8i64..8 {
            for y in -8i64..8 {
                pairs.push((x, y));
            }
        }
        for chunk in pairs.chunks(64) {
            let outs = eval_binary(&n, 4, 4, chunk, true);
            for (o, &(x, y)) in outs.iter().zip(chunk) {
                assert_eq!(*o, x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn unsigned_array_mul_exhaustive_4bit() {
        let mut n = Netlist::new("umul4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let p = array_mul_unsigned(&mut n, &a, &b);
        n.output_bus("p", &p);
        let mut pairs = Vec::new();
        for x in 0..16i64 {
            for y in 0..16i64 {
                pairs.push((x, y));
            }
        }
        for chunk in pairs.chunks(64) {
            let outs = eval_binary(&n, 4, 4, chunk, false);
            for (o, &(x, y)) in outs.iter().zip(chunk) {
                assert_eq!(*o, x * y, "{x}*{y}");
            }
        }
    }

    #[test]
    fn barrel_shifters_work() {
        let mut n = Netlist::new("shl");
        let a = n.input_bus("a", 8);
        let amt = n.input_bus("amt", 3);
        let l = barrel_shift_left(&mut n, &a, &amt);
        let r = barrel_shift_right(&mut n, &a, &amt);
        n.output_bus("l", &l);
        n.output_bus("r", &r);
        for v in [0b1011_0101i64, 1, 0x80] {
            for s in 0..8i64 {
                let out = eval_binary(&n, 8, 3, &[(v, s)], false);
                let l_expect = (v << s) & 0xFF;
                // Outputs are a single 16-bit concatenation: l then r.
                let got = out[0];
                let l_got = got & 0xFF;
                let r_got = (got >> 8) & 0xFF;
                assert_eq!(l_got, l_expect, "shl {v} by {s}");
                assert_eq!(r_got, (v.cast_unsigned() >> s).cast_signed() & 0xFF, "shr {v} by {s}");
            }
        }
    }

    #[test]
    fn lod_and_encoder() {
        let mut n = Netlist::new("lod");
        let a = n.input_bus("a", 8);
        let (oh, nz) = leading_one_detect(&mut n, &a);
        let enc = encode_one_hot(&mut n, &oh);
        n.output_bus("oh", &oh);
        n.output("nz", nz);
        n.output_bus("enc", &enc);
        for v in 1..256i64 {
            let bools: Vec<bool> = (0..8).map(|k| (v >> k) & 1 == 1).collect();
            let out = n.simulate_bool(&bools).unwrap();
            let msb = 63 - v.cast_unsigned().leading_zeros() as usize;
            for k in 0..8 {
                assert_eq!(out[k], k == msb, "one-hot bit {k} for {v}");
            }
            assert!(out[8], "nonzero flag for {v}");
            let mut enc_v = 0usize;
            for k in 0..3 {
                if out[9 + k] {
                    enc_v |= 1 << k;
                }
            }
            assert_eq!(enc_v, msb, "encoded position for {v}");
        }
        // All-zero input: no one-hot bit, nz = 0.
        let out = n.simulate_bool(&[false; 8]).unwrap();
        assert!(out[..9].iter().all(|&b| !b));
    }

    #[test]
    fn loa_matches_exact_for_k0_and_is_or_for_full_k() {
        let mut n = Netlist::new("loa");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (s0, _) = loa_add(&mut n, &a, &b, 0);
        let (s4, _) = loa_add(&mut n, &a, &b, 4);
        n.output_bus("s0", &s0);
        n.output_bus("s4", &s4);
        for (x, y) in [(3i64, 5i64), (15, 1), (7, 7)] {
            let out = eval_binary(&n, 4, 4, &[(x, y)], false);
            let v = out[0];
            assert_eq!(v & 0xF, (x + y) & 0xF);
            assert_eq!((v >> 4) & 0xF, x | y);
        }
    }

    #[test]
    fn truncated_add_zeroes_low_bits() {
        let mut n = Netlist::new("tr");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (s, _) = truncated_add(&mut n, &a, &b, 2);
        n.output_bus("s", &s);
        let out = eval_binary(&n, 4, 4, &[(0b0111, 0b0110)], false);
        // Low 2 bits zero; upper bits = (1 + 1) = 0b10 -> result 0b1000.
        assert_eq!(out[0], 0b1000);
    }

    #[test]
    fn negate_is_twos_complement() {
        let mut n = Netlist::new("neg");
        let a = n.input_bus("a", 4);
        let na = negate(&mut n, &a);
        n.output_bus("y", &na);
        for x in -8i64..8 {
            if x == -8 {
                continue; // -(-8) overflows 4 bits
            }
            let out = n
                .simulate_binary_op(4, 0, &[(x, 0)], true)
                .unwrap_or_else(|_| panic!("sim failed"));
            assert_eq!(out[0], -x, "negating {x}");
        }
    }
}
