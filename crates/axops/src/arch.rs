//! Multiplier architectures and their netlist builders.

use crate::{booth, drum, logmul};
use clapped_netlist::bus::{self, Columns};
use clapped_netlist::Netlist;

/// Width of library operands in bits.
pub(crate) const W: usize = 8;
/// Width of the product in bits.
pub(crate) const PW: usize = 16;

/// An 8-bit signed multiplier architecture.
///
/// Each variant describes a family of FPGA-oriented approximate multiplier
/// designs from the literature; [`MulArch::build_netlist`] instantiates the
/// corresponding gate-level structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum MulArch {
    /// Exact Baugh-Wooley array multiplier.
    Exact,
    /// Truncated multiplier: the `k` least-significant product columns of
    /// the partial-product matrix are removed, zeroing the low `k` output
    /// bits.
    Truncated {
        /// Number of truncated LSB columns (`0..=8`).
        k: usize,
    },
    /// Broken-array multiplier: partial products below a vertical break
    /// line (column index `< vbl`) and in the lowest `hbl` rows of the
    /// array are omitted.
    BrokenArray {
        /// Vertical break line: drop partial products in columns `< vbl`.
        vbl: usize,
        /// Horizontal break line: drop partial products of the lowest
        /// `hbl` multiplier rows (`b` bits).
        hbl: usize,
    },
    /// The low `cols` product columns are compressed with carry-free
    /// approximate 4:2 compressors instead of exact counters.
    ApproxCompressor {
        /// Number of approximately-compressed LSB columns (`0..=16`).
        cols: usize,
    },
    /// Exact partial-product reduction, but the final carry-propagate
    /// adder is a lower-part-OR adder whose low `k` bits are OR gates.
    LoaFinal {
        /// Approximate width of the final adder (`0..=16`).
        k: usize,
    },
    /// Mitchell's logarithmic multiplier (sign-magnitude with leading-one
    /// detection and linear mantissa interpolation).
    Mitchell,
    /// DRUM-style dynamic-range multiplier: each magnitude is reduced to
    /// its top `k` significant bits (LSB forced to 1 for unbiasing), the
    /// `k×k` core product is exact, and the result is shifted back.
    Drum {
        /// Core width in bits (`3..=7`).
        k: usize,
    },
    /// Radix-4 (modified) Booth multiplier with `trunc` truncated LSB
    /// product columns (`0` = exact Booth).
    Booth {
        /// Number of truncated LSB columns (`0..=8`).
        trunc: usize,
    },
    /// Composition of the Baugh-Wooley approximation axes into one
    /// generator: broken-array partial-product filtering, LSB-column
    /// truncation, approximate 4:2 compression of the low columns, and a
    /// lower-part-OR final adder. The all-zero spec degenerates to
    /// [`MulArch::Exact`]; each single-axis spec matches the
    /// corresponding pure family — this variant is the combinatorial
    /// configuration space the generative catalog enumerates.
    Composed(ComposedSpec),
}

/// Parameters of a [`MulArch::Composed`] multiplier. Kept as a nested
/// struct so the variant stays `Copy + Eq + Hash` and specs enumerate
/// cheaply.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ComposedSpec {
    /// Truncated LSB product columns (`0..=8`), applied after filtering.
    pub trunc: u8,
    /// Vertical break line: drop partial products in columns `< vbl`
    /// (`0..=16`).
    pub vbl: u8,
    /// Horizontal break line: drop partial products of the lowest `hbl`
    /// multiplier rows (`0..=8`).
    pub hbl: u8,
    /// First product column compressed with carry-free approximate 4:2
    /// compressors (`0..=16`). The compressed range is `cmp_lo..cmp`;
    /// `cmp_lo == 0` reproduces the pure low-column family, while a
    /// raised floor targets the mid/high columns — behaviourally a
    /// different design point, since the dropped carries weigh `2^c`.
    pub cmp_lo: u8,
    /// One past the last product column compressed with carry-free
    /// approximate 4:2 compressors (`0..=16`, `cmp <= cmp_lo` disables
    /// the compression stage).
    pub cmp: u8,
    /// Approximate (OR) width of the lower-part-OR final adder
    /// (`0..=16`, `0` = exact ripple carry).
    pub loa: u8,
}

impl ComposedSpec {
    /// True when every axis is zero — the spec degenerates to the exact
    /// Baugh-Wooley multiplier.
    pub(crate) fn is_exact(&self) -> bool {
        self.trunc == 0
            && self.vbl == 0
            && self.hbl == 0
            && self.cmp_lo >= self.cmp
            && self.loa == 0
    }

    /// Canonical operator name encoding every axis, unique per spec:
    /// `mul8s_g_t{trunc}_v{vbl}_h{hbl}_c{cmp_lo}-{cmp}_l{loa}`.
    pub fn name(&self) -> String {
        format!(
            "mul8s_g_t{}_v{}_h{}_c{}-{}_l{}",
            self.trunc, self.vbl, self.hbl, self.cmp_lo, self.cmp, self.loa
        )
    }
}

impl MulArch {
    /// Builds the gate-level netlist for this architecture.
    ///
    /// The netlist interface is fixed: inputs `a[0..8]`, `b[0..8]` (LSB
    /// first, two's complement) and outputs `p[0..16]`.
    ///
    /// # Panics
    ///
    /// Panics if architecture parameters are out of their documented
    /// ranges.
    pub fn build_netlist(&self) -> Netlist {
        match *self {
            MulArch::Exact => build_filtered_bw("mul8s_exact_net", |_, _| true, 0),
            MulArch::Truncated { k } => {
                assert!(k <= W, "truncation width must be at most 8");
                build_filtered_bw(format!("mul8s_tr{k}_net"), move |i, j| i + j >= k, k)
            }
            MulArch::BrokenArray { vbl, hbl } => {
                assert!(vbl <= PW && hbl <= W, "break lines out of range");
                build_filtered_bw(
                    format!("mul8s_bam_v{vbl}_h{hbl}_net"),
                    move |i, j| i + j >= vbl && j >= hbl,
                    0,
                )
            }
            MulArch::ApproxCompressor { cols } => build_approx_compressor(cols),
            MulArch::LoaFinal { k } => build_loa_final(k),
            MulArch::Mitchell => logmul::build_mitchell(),
            MulArch::Drum { k } => drum::build_drum(k),
            MulArch::Booth { trunc } => booth::build_booth(trunc),
            MulArch::Composed(spec) => build_composed(spec),
        }
    }

    /// A short human-readable architecture description.
    pub fn describe(&self) -> String {
        match *self {
            MulArch::Exact => "exact Baugh-Wooley array".to_string(),
            MulArch::Truncated { k } => format!("truncated array (drop {k} LSB columns)"),
            MulArch::BrokenArray { vbl, hbl } => {
                format!("broken array (VBL {vbl}, HBL {hbl})")
            }
            MulArch::ApproxCompressor { cols } => {
                format!("approximate 4:2 compressors on {cols} LSB columns")
            }
            MulArch::LoaFinal { k } => format!("LOA-{k} final adder"),
            MulArch::Mitchell => "Mitchell logarithmic".to_string(),
            MulArch::Drum { k } => format!("dynamic-range, {k}-bit core"),
            MulArch::Booth { trunc } => {
                format!("radix-4 Booth (drop {trunc} LSB columns)")
            }
            MulArch::Composed(s) => format!(
                "composed array (drop {} LSB cols, VBL {}, HBL {}, 4:2 on {} cols, LOA-{})",
                s.trunc, s.vbl, s.hbl, s.cmp, s.loa
            ),
        }
    }
}

/// Builds a Baugh-Wooley multiplier keeping only the partial products for
/// which `keep(i, j)` holds (`i` indexes bits of `a`, `j` bits of `b`).
/// Columns below `zero_cols` are cleared entirely after matrix
/// construction (used by truncation so correction constants in dropped
/// columns disappear too).
fn build_filtered_bw(
    name: impl Into<String>,
    keep: impl Fn(usize, usize) -> bool,
    zero_cols: usize,
) -> Netlist {
    let mut n = Netlist::new(name);
    let a = n.input_bus("a", W);
    let b = n.input_bus("b", W);
    let mut cols = Columns::new(PW);
    for i in 0..W {
        for j in 0..W {
            if !keep(i, j) {
                continue;
            }
            let and = n.and(a[i], b[j]);
            let pp = if (i == W - 1) ^ (j == W - 1) {
                n.not(and)
            } else {
                and
            };
            cols.push(i + j, pp);
        }
    }
    let one = n.constant(true);
    cols.push(W, one);
    cols.push(2 * W - 1, one);
    for c in 0..zero_cols {
        cols.take_col(c);
    }
    let p = cols.finalize(&mut n, PW);
    n.output_bus("p", &p);
    n
}

/// Builds a [`MulArch::Composed`] multiplier: filtered Baugh-Wooley
/// matrix (broken-array lines + truncation), approximate 4:2 compression
/// of the low columns, carry-save reduction to two rows, and a
/// lower-part-OR final adder. With every axis at zero each stage
/// degenerates to its exact form, so the all-zero spec *is* the exact
/// multiplier.
fn build_composed(spec: ComposedSpec) -> Netlist {
    let (trunc, vbl, hbl) = (spec.trunc as usize, spec.vbl as usize, spec.hbl as usize);
    let (cmp_lo, cmp, loa) = (spec.cmp_lo as usize, spec.cmp as usize, spec.loa as usize);
    assert!(trunc <= W, "truncation width must be at most 8");
    assert!(vbl <= PW && hbl <= W, "break lines out of range");
    assert!(cmp <= PW && cmp_lo <= PW, "approximate column range out of range");
    assert!(loa <= PW, "LOA width out of range");
    let mut n = Netlist::new(format!("{}_net", spec.name()));
    let a = n.input_bus("a", W);
    let b = n.input_bus("b", W);
    let mut cols = Columns::new(PW);
    for i in 0..W {
        for j in 0..W {
            if i + j < vbl || j < hbl {
                continue;
            }
            let and = n.and(a[i], b[j]);
            let pp = if (i == W - 1) ^ (j == W - 1) {
                n.not(and)
            } else {
                and
            };
            cols.push(i + j, pp);
        }
    }
    let one = n.constant(true);
    cols.push(W, one);
    cols.push(2 * W - 1, one);
    for c in 0..trunc {
        cols.take_col(c);
    }
    // Carry-free approximate 4:2 compression of the `cmp_lo..cmp` column
    // range — with a zero floor, exactly the pure ApproxCompressor
    // family.
    loop {
        let mut changed = false;
        for c in cmp_lo..cmp.min(cols.width()) {
            while cols.col(c).len() >= 4 {
                let mut bits = cols.take_col(c);
                let x4 = bits.pop().expect("len >= 4");
                let x3 = bits.pop().expect("len >= 3");
                let x2 = bits.pop().expect("len >= 2");
                let x1 = bits.pop().expect("len >= 1");
                for bit in bits {
                    cols.push(c, bit);
                }
                let (sum, carry) = bus::compressor_4_2_approx(&mut n, x1, x2, x3, x4);
                cols.push(c, sum);
                cols.push(c + 1, carry);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    // Reduce to two rows and close with a lower-part-OR adder — the
    // `loa == 0` case is a plain ripple carry, bit-identical to
    // `Columns::finalize`.
    cols.reduce(&mut n, 2);
    let zero = n.constant(false);
    let mut row_a = Vec::with_capacity(PW);
    let mut row_b = Vec::with_capacity(PW);
    for k in 0..PW {
        let col = cols.take_col(k);
        let mut it = col.into_iter();
        row_a.push(it.next().unwrap_or(zero));
        row_b.push(it.next().unwrap_or(zero));
    }
    let (p, _) = bus::loa_add(&mut n, &row_a, &row_b, loa);
    n.output_bus("p", &p);
    n
}

fn build_approx_compressor(approx_cols: usize) -> Netlist {
    assert!(approx_cols <= PW, "approximate column count out of range");
    let mut n = Netlist::new(format!("mul8s_cmp{approx_cols}_net"));
    let a = n.input_bus("a", W);
    let b = n.input_bus("b", W);
    let mut cols = bus::baugh_wooley_matrix(&mut n, &a, &b);
    // Compress the low columns with carry-free approximate 4:2
    // compressors until no column holds four or more bits.
    loop {
        let mut changed = false;
        for c in 0..approx_cols.min(cols.width()) {
            while cols.col(c).len() >= 4 {
                let mut bits = cols.take_col(c);
                let x4 = bits.pop().expect("len >= 4");
                let x3 = bits.pop().expect("len >= 3");
                let x2 = bits.pop().expect("len >= 2");
                let x1 = bits.pop().expect("len >= 1");
                for bit in bits {
                    cols.push(c, bit);
                }
                let (sum, carry) = bus::compressor_4_2_approx(&mut n, x1, x2, x3, x4);
                cols.push(c, sum);
                cols.push(c + 1, carry);
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let p = cols.finalize(&mut n, PW);
    n.output_bus("p", &p);
    n
}

fn build_loa_final(k: usize) -> Netlist {
    assert!(k <= PW, "LOA width out of range");
    let mut n = Netlist::new(format!("mul8s_loa{k}_net"));
    let a = n.input_bus("a", W);
    let b = n.input_bus("b", W);
    // Row-based carry-save reduction: keep the partial products as dense
    // 16-bit rows and 3:2-compress rows (not columns) so the final
    // carry-propagate adder genuinely sees two dense operands — the
    // structure LOA-final-adder designs approximate.
    let zero = n.constant(false);
    let mut rows: Vec<Vec<clapped_netlist::SignalId>> = Vec::with_capacity(W + 1);
    for j in 0..W {
        let mut row = vec![zero; PW];
        for (i, &ai) in a.iter().enumerate() {
            let and = n.and(ai, b[j]);
            row[i + j] = if (i == W - 1) ^ (j == W - 1) {
                n.not(and)
            } else {
                and
            };
        }
        rows.push(row);
    }
    // Baugh-Wooley correction constants as one extra row.
    let one = n.constant(true);
    let mut corr = vec![zero; PW];
    corr[W] = one;
    corr[2 * W - 1] = one;
    rows.push(corr);
    // 3:2 carry-save row compression.
    while rows.len() > 2 {
        let r3 = rows.split_off(rows.len() - 3);
        let mut sum_row = Vec::with_capacity(PW);
        let mut carry_row = vec![zero; PW];
        for bit in 0..PW {
            let (s, c) = bus::full_adder(&mut n, r3[0][bit], r3[1][bit], r3[2][bit]);
            sum_row.push(s);
            if bit + 1 < PW {
                carry_row[bit + 1] = c;
            }
        }
        rows.push(sum_row);
        rows.push(carry_row);
    }
    let (p, _) = bus::loa_add(&mut n, &rows[0], &rows[1], k);
    n.output_bus("p", &p);
    n
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::{build_mul_table, exhaustive_pairs};

    fn table_of(arch: MulArch) -> Vec<i16> {
        build_mul_table(&arch.build_netlist())
    }

    fn lookup(table: &[i16], a: i8, b: i8) -> i16 {
        table[((a as u8 as usize) << 8) | (b as u8 as usize)]
    }

    fn mae_of(table: &[i16]) -> f64 {
        let mut acc = 0.0;
        for (a, b) in exhaustive_pairs() {
            acc += f64::from((lookup(table, a, b) as i32 - a as i32 * b as i32).abs());
        }
        acc / 65_536.0
    }

    /// Software reference of the filtered Baugh-Wooley matrix semantics.
    fn bw_reference(a: i8, b: i8, keep: impl Fn(usize, usize) -> bool, zero_cols: usize) -> i16 {
        let (au, bu) = (a as u8, b as u8);
        let mut sum: u32 = 0;
        for i in 0..8 {
            for j in 0..8 {
                if !keep(i, j) || i + j < zero_cols {
                    continue;
                }
                let mut bit = ((au >> i) & 1) & ((bu >> j) & 1);
                if (i == 7) ^ (j == 7) {
                    bit ^= 1;
                }
                sum = sum.wrapping_add(u32::from(bit) << (i + j));
            }
        }
        if 8 >= zero_cols {
            sum = sum.wrapping_add(1 << 8);
        }
        sum = sum.wrapping_add(1 << 15);
        // Carries that would land in dropped columns cannot exist (all
        // contributions are at columns >= zero_cols), so plain masking is
        // exact.
        let masked = if zero_cols > 0 {
            sum & !((1u32 << zero_cols) - 1)
        } else {
            sum
        };
        (masked & 0xFFFF) as u16 as i16
    }

    #[test]
    fn truncated_matches_software_reference() {
        for k in [1usize, 2, 4] {
            let table = table_of(MulArch::Truncated { k });
            for (a, b) in exhaustive_pairs().step_by(97) {
                let want = bw_reference(a, b, |i, j| i + j >= k, k);
                assert_eq!(lookup(&table, a, b), want, "tr{k}: {a}*{b}");
            }
        }
    }

    #[test]
    fn broken_array_matches_software_reference() {
        let (vbl, hbl) = (4usize, 2usize);
        let table = table_of(MulArch::BrokenArray { vbl, hbl });
        for (a, b) in exhaustive_pairs().step_by(89) {
            let want = bw_reference(a, b, |i, j| i + j >= vbl && j >= hbl, 0);
            assert_eq!(lookup(&table, a, b), want, "bam: {a}*{b}");
        }
    }

    #[test]
    fn zero_parameter_variants_are_exact() {
        for arch in [
            MulArch::Truncated { k: 0 },
            MulArch::BrokenArray { vbl: 0, hbl: 0 },
            MulArch::ApproxCompressor { cols: 0 },
            MulArch::LoaFinal { k: 0 },
        ] {
            let table = table_of(arch);
            for (a, b) in exhaustive_pairs().step_by(101) {
                assert_eq!(lookup(&table, a, b), a as i16 * b as i16, "{arch:?}: {a}*{b}");
            }
        }
    }

    #[test]
    fn truncation_error_grows_with_k() {
        let m2 = mae_of(&table_of(MulArch::Truncated { k: 2 }));
        let m4 = mae_of(&table_of(MulArch::Truncated { k: 4 }));
        let m6 = mae_of(&table_of(MulArch::Truncated { k: 6 }));
        assert!(m2 < m4 && m4 < m6, "MAE {m2} {m4} {m6}");
    }

    #[test]
    fn loa_error_is_bounded_by_low_part() {
        let k = 6;
        let table = table_of(MulArch::LoaFinal { k });
        let bound = (1i32 << k) * 2;
        for (a, b) in exhaustive_pairs().step_by(61) {
            let err = (lookup(&table, a, b) as i32 - a as i32 * b as i32).abs();
            assert!(err <= bound, "LOA err {err} for {a}*{b}");
        }
    }

    #[test]
    fn approx_compressor_is_reasonably_accurate_on_high_magnitudes() {
        let table = table_of(MulArch::ApproxCompressor { cols: 8 });
        let mae = mae_of(&table);
        assert!(mae > 0.0, "an approximate design must have error");
        assert!(mae < 2_000.0, "MAE {mae} is implausibly large");
    }

    #[test]
    fn composed_all_zero_spec_is_exact() {
        let spec = ComposedSpec { trunc: 0, vbl: 0, hbl: 0, cmp_lo: 0, cmp: 0, loa: 0 };
        assert!(spec.is_exact());
        let table = table_of(MulArch::Composed(spec));
        for (a, b) in exhaustive_pairs().step_by(73) {
            assert_eq!(lookup(&table, a, b), a as i16 * b as i16, "{a}*{b}");
        }
        // Same behaviour as the pure exact multiplier: identical tables.
        assert_eq!(table, table_of(MulArch::Exact));
    }

    #[test]
    fn composed_single_axis_specs_match_the_pure_families() {
        // Each single-axis composed spec must reproduce its pure family's
        // behavioural table exactly.
        let cases: Vec<(ComposedSpec, MulArch)> = vec![
            (
                ComposedSpec { trunc: 3, vbl: 0, hbl: 0, cmp_lo: 0, cmp: 0, loa: 0 },
                MulArch::Truncated { k: 3 },
            ),
            (
                ComposedSpec { trunc: 0, vbl: 6, hbl: 2, cmp_lo: 0, cmp: 0, loa: 0 },
                MulArch::BrokenArray { vbl: 6, hbl: 2 },
            ),
            (
                ComposedSpec { trunc: 0, vbl: 0, hbl: 0, cmp_lo: 0, cmp: 8, loa: 0 },
                MulArch::ApproxCompressor { cols: 8 },
            ),
        ];
        for (spec, pure) in cases {
            assert_eq!(
                table_of(MulArch::Composed(spec)),
                table_of(pure),
                "{spec:?} vs {pure:?}"
            );
        }
    }

    #[test]
    fn composed_matrix_axes_match_software_reference() {
        // trunc × vbl × hbl with exact compression/final adder follows
        // the filtered-BW reference.
        let spec = ComposedSpec { trunc: 2, vbl: 4, hbl: 1, cmp_lo: 0, cmp: 0, loa: 0 };
        let table = table_of(MulArch::Composed(spec));
        for (a, b) in exhaustive_pairs().step_by(83) {
            let want = bw_reference(a, b, |i, j| i + j >= 4 && j >= 1, 2);
            assert_eq!(lookup(&table, a, b), want, "{a}*{b}");
        }
    }

    #[test]
    fn composed_loa_axis_error_is_bounded() {
        let spec = ComposedSpec { trunc: 0, vbl: 0, hbl: 0, cmp_lo: 0, cmp: 0, loa: 5 };
        let table = table_of(MulArch::Composed(spec));
        let bound = (1i32 << 5) * 2;
        let mut worst = 0i32;
        for (a, b) in exhaustive_pairs().step_by(67) {
            let err = (lookup(&table, a, b) as i32 - a as i32 * b as i32).abs();
            worst = worst.max(err);
            assert!(err <= bound, "LOA err {err} for {a}*{b}");
        }
        assert!(worst > 0, "a LOA-5 final adder must be approximate");
    }

    #[test]
    fn composed_axes_stack_monotonically_in_error() {
        // Stacking more approximation axes cannot *reduce* exhaustive MAE
        // below the single-axis base in these nested cases.
        let base = mae_of(&table_of(MulArch::Composed(ComposedSpec {
            trunc: 3,
            vbl: 0,
            hbl: 0,
            cmp_lo: 0,
            cmp: 0,
            loa: 0,
        })));
        let stacked = mae_of(&table_of(MulArch::Composed(ComposedSpec {
            trunc: 3,
            vbl: 5,
            hbl: 2,
            cmp_lo: 0,
            cmp: 0,
            loa: 0,
        })));
        assert!(stacked > base, "stacked {stacked} vs base {base}");
    }

    #[test]
    fn gate_counts_shrink_with_approximation() {
        use clapped_netlist::{optimize, Netlist};
        let gates = |n: &Netlist| optimize(n).logic_gate_count();
        let exact = gates(&MulArch::Exact.build_netlist());
        let tr4 = gates(&MulArch::Truncated { k: 4 }.build_netlist());
        let bam = gates(&MulArch::BrokenArray { vbl: 6, hbl: 2 }.build_netlist());
        assert!(tr4 < exact, "tr4 {tr4} vs exact {exact}");
        assert!(bam < exact, "bam {bam} vs exact {exact}");
    }
}
