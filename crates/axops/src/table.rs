//! Exhaustive behavioural-table extraction from operator netlists.
//!
//! Table construction is the single most expensive operator-layer
//! operation (a 65 536-pair exhaustive simulation), and the same
//! netlists recur constantly — every [`crate::Catalog::standard`] call
//! instantiates the same 24 operators. [`build_mul_table_cached`]
//! therefore memoizes tables process-wide, keyed by the netlist's
//! stable content digest: a given netlist's table is built **once per
//! process ever**, and all operator instances share one allocation.

#![warn(clippy::disallowed_types, clippy::cast_lossless)]
#![warn(clippy::cast_possible_truncation, clippy::cast_possible_wrap, clippy::cast_sign_loss)]

use clapped_exec::{Memo, MemoStats};
use clapped_netlist::{pack_bus_samples, transpose8x8, unpack_bus_samples, FaultSet, Netlist};
use std::sync::{Arc, OnceLock};

/// Iterates over all 65 536 signed 8-bit input pairs, `a` outermost.
///
/// # Examples
///
/// ```
/// let n = clapped_axops::exhaustive_pairs().count();
/// assert_eq!(n, 65_536);
/// ```
pub fn exhaustive_pairs() -> impl Iterator<Item = (i8, i8)> {
    (i8::MIN..=i8::MAX).flat_map(|a| (i8::MIN..=i8::MAX).map(move |b| (a, b)))
}

/// Builds the 256×256 product table of a multiplier netlist by exhaustive
/// wide-word simulation: 1024 lanes per evaluation pass, four values of
/// `a` per pass.
///
/// The netlist must have inputs `a[0..8]` then `b[0..8]` and a 16-bit
/// signed product output. Table index is `(a as u8) << 8 | (b as u8)`.
/// Bit-identical to [`build_mul_table_ref64`], which is pinned by tests
/// over the whole standard catalog.
///
/// # Panics
///
/// Panics if the netlist interface does not match (wrong input/output
/// arity).
pub fn build_mul_table(netlist: &Netlist) -> Vec<i16> {
    exhaustive_table(netlist, &FaultSet::empty(), 16).expect("an empty fault set is always valid")
}

/// The exhaustive sweep behind every 8×8 operator table: all 65 536
/// `(a, b)` pairs through the wide evaluation kernel under `faults`.
/// The netlist has inputs `a[0..8]` then `b[0..8]` and `out_width`
/// (1..=16) two's-complement output bits, sign-extended into the
/// `i16` entries; table index is `(a as u8) << 8 | (b as u8)`.
///
/// The sweep has exploitable structure at this width: within each
/// 256-lane quarter of a 1024-lane block the `a` byte is constant (each
/// bit broadcasts to all-zeros or all-ones per quarter) and the `b`
/// byte counts `0..=255`, so its bit patterns are the same fixed blocks
/// for every pass. Inputs are therefore assembled with a handful of
/// word writes per pass instead of per-lane packing, the evaluation
/// scratch is reused across all 64 passes, and the rows are unpacked
/// from the output bitplanes eight lanes at a time through
/// [`transpose8x8`]. Lane `l` of a pass drives `b as u8 = l % 256`, so
/// a transient fault's lane mask flips the same `b` values that it
/// flips in the 64-lane batches of [`build_mul_table_ref64`].
///
/// # Errors
///
/// Returns [`clapped_netlist::NetlistError::InvalidFaultSite`] for a
/// fault outside the netlist.
///
/// # Panics
///
/// Panics if the netlist interface does not match.
pub(crate) fn exhaustive_table(
    netlist: &Netlist,
    faults: &FaultSet,
    out_width: usize,
) -> clapped_netlist::Result<Vec<i16>> {
    assert_eq!(netlist.inputs().len(), 16, "expected 16 inputs (a, b)");
    assert_eq!(netlist.outputs().len(), out_width, "expected {out_width} output bits");
    const W: usize = 16;
    const LANES: usize = 64 * W;
    // Words per 256-lane quarter (one `a` value spans one quarter).
    const QW: usize = 4;
    const A_PER_PASS: usize = LANES / 256;
    // b counts 0..=255 inside every quarter: fixed counting patterns.
    let mut b_bits = [[0u64; W]; 8];
    for lane in 0..LANES {
        let b = lane & 0xff;
        for (k, block) in b_bits.iter_mut().enumerate() {
            block[lane / 64] |= (((b >> k) & 1) as u64) << (lane % 64);
        }
    }
    let mut inputs: Vec<[u64; W]> = vec![[0u64; W]; 16];
    inputs[8..16].copy_from_slice(&b_bits);
    let mut table = vec![0i16; 65_536];
    let mut scratch: Vec<[u64; W]> = Vec::new();
    let mut outs: Vec<[u64; W]> = Vec::new();
    for pass in 0..256 / A_PER_PASS {
        // a is constant across each quarter: broadcast each bit.
        for sub in 0..A_PER_PASS {
            let a_byte = pass * A_PER_PASS + sub;
            for (k, input) in inputs[..8].iter_mut().enumerate() {
                let word = if (a_byte >> k) & 1 == 1 { !0u64 } else { 0 };
                input[sub * QW..(sub + 1) * QW].fill(word);
            }
        }
        netlist.simulate_blocks_into::<W>(&inputs, faults, &mut scratch, &mut outs)?;
        // Sign-extend in bitplane form: planes above `out_width` repeat
        // the top one, so the unpack always sees 16.
        let top = outs[out_width - 1];
        outs.resize(16, top);
        // Rebuild the rows from the output bitplanes, eight lanes per
        // transpose (low byte from planes 0..8, high from 8..16).
        let (lo_planes, hi_planes) = outs.split_at(8);
        for sub in 0..A_PER_PASS {
            let a_byte = pass * A_PER_PASS + sub;
            let row = &mut table[a_byte << 8..(a_byte + 1) << 8];
            for qw in 0..QW {
                let w = sub * QW + qw;
                for octet in 0..8 {
                    let mut lo = 0u64;
                    let mut hi = 0u64;
                    for k in 0..8 {
                        lo |= ((lo_planes[k][w] >> (8 * octet)) & 0xff) << (8 * k);
                        hi |= ((hi_planes[k][w] >> (8 * octet)) & 0xff) << (8 * k);
                    }
                    let lo = transpose8x8(lo);
                    let hi = transpose8x8(hi);
                    for lane in 0..8 {
                        let p = ((lo >> (8 * lane)) & 0xff) as u16
                            | ((((hi >> (8 * lane)) & 0xff) as u16) << 8);
                        row[qw * 64 + octet * 8 + lane] = p.cast_signed();
                    }
                }
            }
        }
    }
    Ok(table)
}

/// The retained 64-lane reference table builder: per-batch `Vec`
/// packing through [`pack_bus_samples`]/[`unpack_bus_samples`], one
/// [`Netlist::simulate_words_with_faults`] call per 64 pairs, exactly as
/// shipped before the wide-word simulator. The wide sweep behind
/// [`build_mul_table`] and [`crate::build_mul_table_with_faults`] is
/// pinned bit-identical to this path by tests (with and without faults)
/// and benchmarked against it in `bench_sim`.
///
/// # Panics
///
/// Panics if the netlist interface does not match (wrong input/output
/// arity) or a fault references a signal outside the netlist.
pub fn build_mul_table_ref64(netlist: &Netlist, faults: &FaultSet) -> Vec<i16> {
    assert_eq!(netlist.inputs().len(), 16, "expected 16 inputs (a, b)");
    assert_eq!(netlist.outputs().len(), 16, "expected a 16-bit product");
    let mut table = vec![0i16; 65_536];
    let mut batch: Vec<(i8, i8)> = Vec::with_capacity(64);
    let flush = |batch: &mut Vec<(i8, i8)>, table: &mut Vec<i16>| {
        if batch.is_empty() {
            return;
        }
        let a_vals: Vec<i64> = batch.iter().map(|p| i64::from(p.0)).collect();
        let b_vals: Vec<i64> = batch.iter().map(|p| i64::from(p.1)).collect();
        let mut words = pack_bus_samples(&a_vals, 8);
        words.extend(pack_bus_samples(&b_vals, 8));
        let outs = netlist
            .simulate_words_with_faults(&words, faults)
            .expect("interface verified above; fault sites must be in range");
        let products = unpack_bus_samples(&outs, batch.len(), true);
        for (&(a, b), &p) in batch.iter().zip(&products) {
            let idx = (usize::from(a.cast_unsigned()) << 8) | usize::from(b.cast_unsigned());
            #[expect(clippy::cast_possible_truncation, reason = "an 8x8 signed product fits i16")]
            let product = p as i16;
            table[idx] = product;
        }
        batch.clear();
    };
    for (a, b) in exhaustive_pairs() {
        batch.push((a, b));
        if batch.len() == 64 {
            flush(&mut batch, &mut table);
        }
    }
    flush(&mut batch, &mut table);
    table
}

fn table_memo() -> &'static Memo<u64, Arc<[i16]>> {
    static MEMO: OnceLock<Memo<u64, Arc<[i16]>>> = OnceLock::new();
    MEMO.get_or_init(Memo::new)
}

/// [`build_mul_table`] memoized process-wide by the netlist's content
/// digest. The first call for a given netlist builds the table; every
/// later call (any thread, any operator instance) returns a clone of the
/// same `Arc` — zero rebuilds, shared storage.
///
/// # Panics
///
/// See [`build_mul_table`].
pub(crate) fn build_mul_table_cached(netlist: &Netlist) -> Arc<[i16]> {
    table_memo().get_or_insert_with(netlist.content_digest(), || build_mul_table(netlist).into())
}

/// Hit/miss counters of the process-wide behavioural-table memo. A warm
/// process shows `misses` frozen at the number of distinct netlists ever
/// built while `hits` keeps climbing — the "zero rebuilds on a warm
/// cache" acceptance check.
pub fn table_cache_stats() -> MemoStats {
    table_memo().stats()
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_netlist::bus;

    #[test]
    fn exhaustive_pairs_covers_corners() {
        let v: Vec<(i8, i8)> = exhaustive_pairs().collect();
        assert_eq!(v.first(), Some(&(-128, -128)));
        assert_eq!(v.last(), Some(&(127, 127)));
        assert_eq!(v.len(), 65_536);
    }

    #[test]
    fn wide_table_matches_ref64_builder() {
        let mut n = Netlist::new("exact8");
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        assert_eq!(build_mul_table(&n), build_mul_table_ref64(&n, &FaultSet::empty()));
    }

    #[test]
    fn table_of_exact_multiplier_is_exact() {
        let mut n = Netlist::new("exact8");
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let table = build_mul_table(&n);
        for (a, b) in [(0i8, 0i8), (1, -1), (127, 127), (-128, 127), (-128, -128), (45, -3)] {
            let idx = (usize::from(a.cast_unsigned()) << 8) | usize::from(b.cast_unsigned());
            assert_eq!(table[idx], i16::from(a) * i16::from(b), "{a}*{b}");
        }
    }
}
