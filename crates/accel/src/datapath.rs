//! Datapath netlist generation for convolution accelerators.

use crate::{AccelError, AcceleratorSpec, Result};
use clapped_exec::{Memo, MemoStats};
use clapped_imgproc::ConvMode;
use clapped_netlist::bus::{self, Bus};
use clapped_netlist::{Netlist, SignalId};
use std::sync::{Arc, OnceLock};

/// Builds the combinational datapath of the accelerator's processing
/// element: all tap multipliers, the sign-extended adder tree, the
/// normalization shift and the output clamp to `0..=127`.
///
/// Inputs are the window pixels (`px<i>[0..8]`) and the per-tap kernel
/// coefficients (`co<i>[0..8]`), so coefficient programmability is
/// preserved (the filter is runtime-loadable, matching an HLS design with
/// a coefficient array argument). The output is the 8-bit clamped pixel.
///
/// For the separable mode the datapath contains both the 1DH and the 1DV
/// processing elements.
///
/// Each multiplier is instantiated with
/// [`Netlist::instantiate_shared`], so LUT mapping reuses the
/// operator's cut enumeration for it.
///
/// # Errors
///
/// Returns [`crate::AccelError::BadSpec`] if the spec fails validation.
pub fn build_datapath(spec: &AcceleratorSpec, shift: u32) -> Result<Netlist> {
    spec.validate()?;
    let mut n = Netlist::new(format!(
        "accel_{}x{}_w{}_s{}{}",
        spec.image_size,
        spec.image_size,
        spec.window,
        spec.stride,
        if spec.downsample { "_ds" } else { "" }
    ));
    match spec.mode {
        ConvMode::TwoD => {
            let taps = spec.window * spec.window;
            let out = build_pe(&mut n, spec, 0, taps, shift, "")?;
            n.output_bus("pix_out", &out);
        }
        ConvMode::Separable => {
            let w = spec.window;
            // Two independent processing elements; the horizontal PE's
            // output would stream through the line buffer into the
            // vertical PE, so the combinational datapaths are disjoint.
            let h = build_pe(&mut n, spec, 0, w, shift, "h_")?;
            n.output_bus("pix_h", &h);
            let v = build_pe(&mut n, spec, w, w, shift, "v_")?;
            n.output_bus("pix_v", &v);
        }
    }
    Ok(n)
}

fn datapath_memo() -> &'static Memo<u64, Arc<Netlist>> {
    static MEMO: OnceLock<Memo<u64, Arc<Netlist>>> = OnceLock::new();
    MEMO.get_or_init(Memo::new)
}

/// [`build_datapath`] memoized process-wide by the
/// `(spec content digest, shift)` pair, mirroring the conv-plan LUT
/// memoization. Streaming simulation calls this once per frame, so a
/// steady-state stream pays for datapath generation exactly once per
/// distinct design point instead of once per frame.
///
/// # Errors
///
/// Returns [`crate::AccelError::BadSpec`] if the spec fails validation
/// (nothing is cached for failing specs).
pub fn build_datapath_cached(spec: &AcceleratorSpec, shift: u32) -> Result<Arc<Netlist>> {
    let key = clapped_exec::StructDigest::new("accel::datapath")
        .field("spec", &spec.content_digest())
        .field("shift", &u64::from(shift))
        .finish();
    if let Some(n) = datapath_memo().get(&key) {
        return Ok(n);
    }
    // Build outside the memo lock; a racing duplicate build is resolved
    // by keeping whichever entry lands first.
    let built = Arc::new(build_datapath(spec, shift)?);
    Ok(datapath_memo().insert_if_absent(key, built))
}

/// Hit/miss counters of the process-wide datapath memo — the cache-stats
/// hook proving a warm stream stops rebuilding datapaths.
pub fn datapath_cache_stats() -> MemoStats {
    datapath_memo().stats()
}

/// Builds one processing element using `count` taps starting at
/// `first_tap`; returns the clamped 8-bit output bus.
fn build_pe(
    n: &mut Netlist,
    spec: &AcceleratorSpec,
    first_tap: usize,
    count: usize,
    shift: u32,
    prefix: &str,
) -> Result<Bus> {
    let mut products: Vec<Bus> = Vec::with_capacity(count);
    for t in 0..count {
        let px = n.input_bus(&format!("{prefix}px{t}"), 8);
        let co = n.input_bus(&format!("{prefix}co{t}"), 8);
        let mut mul_inputs = px;
        mul_inputs.extend(co);
        let (netlist, digest) = spec.muls[first_tap + t].shared_netlist();
        let product = n.instantiate_shared(netlist, digest, &mul_inputs);
        products.push(product);
    }
    // Adder tree over sign-extended products.
    let acc_width = 16 + (usize::BITS - (count - 1).leading_zeros()) as usize;
    let mut level: Vec<Bus> = products
        .into_iter()
        .map(|p| bus::sign_extend(&p, acc_width))
        .collect();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut it = level.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => {
                    let (sum, _) = bus::ripple_carry_add(n, &a, &b, None);
                    next.push(sum);
                }
                None => next.push(a),
            }
        }
        level = next;
    }
    let acc = level
        .pop()
        .ok_or_else(|| AccelError::Synth(format!("{prefix}PE adder tree reduced to nothing")))?;
    // Normalization shift is free wiring: take bits [shift .. shift+8]
    // plus the bits above for clamping.
    let sh = shift as usize;
    let value: Bus = acc[sh..].to_vec();
    // Guarantee enough headroom bits for the clamp logic.
    let value = bus::sign_extend(&value, value.len().max(9));
    clamp_to_u7(n, &value)
}

/// Clamps a signed bus to `0..=127` and returns it as 8 bits
/// (`0vvvvvvv`).
fn clamp_to_u7(n: &mut Netlist, v: &[SignalId]) -> Result<Bus> {
    let sign = *v
        .last()
        .ok_or_else(|| AccelError::Synth("clamp input bus is empty".into()))?;
    // Overflow: any bit above the low 7 set while non-negative.
    let high_bits: Vec<SignalId> = v[7..v.len() - 1].to_vec();
    let any_high = n.or_reduce(&high_bits);
    let not_sign = n.not(sign);
    let saturate_high = n.and(not_sign, any_high);
    let mut out = Vec::with_capacity(8);
    for &bit in &v[..7] {
        // out bit = sign ? 0 : (saturate_high ? 1 : bit)
        let one_or_v = n.or(saturate_high, bit);
        let gated = n.and(not_sign, one_or_v);
        out.push(gated);
    }
    out.push(n.constant(false));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::{Catalog, Mul8s};
    use clapped_netlist::pack_bus_samples;

    fn simulate_pe_2d(
        netlist: &Netlist,
        pixels: &[i8],
        coeffs: &[i8],
    ) -> i64 {
        // Interleave px/co buses in input declaration order.
        let mut words: Vec<u64> = Vec::new();
        for t in 0..pixels.len() {
            words.extend(pack_bus_samples(&[pixels[t] as i64], 8));
            words.extend(pack_bus_samples(&[coeffs[t] as i64], 8));
        }
        let outs = netlist.simulate_words(&words).unwrap();
        let mut v = 0i64;
        for (k, &w) in outs.iter().enumerate() {
            if w & 1 == 1 {
                v |= 1 << k;
            }
        }
        v
    }

    #[test]
    fn datapath_matches_software_pe() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let spec = AcceleratorSpec::uniform_2d(8, 3, &m);
        let shift = 7u32;
        let n = build_datapath(&spec, shift).unwrap();
        let pixels: Vec<i8> = vec![10, 20, 30, 40, 50, 60, 70, 80, 90];
        let coeffs: Vec<i8> = vec![8, 16, 8, 16, 32, 16, 8, 16, 8];
        let got = simulate_pe_2d(&n, &pixels, &coeffs);
        let acc: i32 = pixels
            .iter()
            .zip(&coeffs)
            .map(|(&p, &c)| i32::from(m.mul(p, c)))
            .sum();
        let want = i64::from((acc >> shift).clamp(0, 127));
        assert_eq!(got, want);
    }

    #[test]
    fn clamp_saturates_high_and_low() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let spec = AcceleratorSpec::uniform_2d(8, 3, &m);
        let n = build_datapath(&spec, 0).unwrap();
        // All products large positive: accumulate far above 127.
        let pixels = vec![127i8; 9];
        let coeffs = vec![127i8; 9];
        assert_eq!(simulate_pe_2d(&n, &pixels, &coeffs), 127);
        // Negative accumulate clamps to 0.
        let coeffs_neg = vec![-127i8; 9];
        assert_eq!(simulate_pe_2d(&n, &pixels, &coeffs_neg), 0);
    }

    #[test]
    fn separable_datapath_has_two_pes() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let spec = AcceleratorSpec {
            mode: ConvMode::Separable,
            muls: vec![m.clone(); 6],
            ..AcceleratorSpec::uniform_2d(8, 3, &m)
        };
        let n = build_datapath(&spec, 5).unwrap();
        assert_eq!(n.outputs().len(), 16); // two 8-bit buses
        assert_eq!(n.inputs().len(), 96); // 2 PEs × 3 taps × (px + co) × 8 bits
    }

    #[test]
    fn mixed_multipliers_are_honoured() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let rough = cat.get("mul8s_tr5").unwrap();
        let mut spec = AcceleratorSpec::uniform_2d(8, 3, &exact);
        spec.muls[4] = rough.clone();
        let n = build_datapath(&spec, 7).unwrap();
        let pixels: Vec<i8> = vec![9; 9];
        let coeffs: Vec<i8> = vec![9; 9];
        let acc: i32 = (0..9)
            .map(|t| {
                let m: &dyn Mul8s = if t == 4 { rough.as_ref() } else { exact.as_ref() };
                i32::from(m.mul(9, 9))
            })
            .sum();
        let want = i64::from((acc >> 7).clamp(0, 127));
        assert_eq!(simulate_pe_2d(&n, &pixels, &coeffs), want);
    }
}
