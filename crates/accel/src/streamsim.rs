//! Bit-true accelerator simulation: streams an image through the
//! generated datapath *netlist* and produces the output image the
//! hardware would produce.
//!
//! This closes the loop between the software application model
//! (`clapped-imgproc`'s `ConvEngine`) and the hardware (the datapath
//! built by [`crate::build_datapath`]): both must produce identical
//! pixels for matching configurations, which the integration tests
//! assert.
//!
//! The production path here is *compiled*: the datapath netlist is
//! memoized per `(spec, shift)` digest ([`build_datapath_cached`])
//! so steady-state streams never rebuild it, coefficient input blocks
//! are broadcast once per pass, the frame is quantized into a
//! border-replicated padded buffer once per pass (tap reads become
//! branch-free indexed loads), and whole frames are evaluated in
//! 512-lane wide-word blocks with pixels moved between bytes and input
//! bitplanes eight lanes at a time via [`transpose8x8`] — no per-chunk
//! `Vec` churn, no per-bit packing loops. [`simulate_stream_ref`]
//! retains the original per-frame-rebuild, 64-lane implementation;
//! tests pin the two bit-identical and `bench_sim` measures the gap.

use crate::datapath::build_datapath_cached;
use crate::{build_datapath, AccelError, AcceleratorSpec, Result};
use clapped_imgproc::{ConvMode, Image};
use clapped_netlist::{pack_bus_samples, transpose8x8, FaultSet, Netlist};

/// Words per wide evaluation block: every datapath evaluation carries
/// `64 × BLOCK_WORDS` output positions.
const BLOCK_WORDS: usize = 8;
const BLOCK_LANES: usize = 64 * BLOCK_WORDS;

fn sim_err(e: clapped_netlist::NetlistError) -> AccelError {
    AccelError::Sim(e.to_string())
}

/// Validates `spec` and checks that `weights` and `image` fit it.
fn check_stream_inputs(spec: &AcceleratorSpec, image: &Image, weights: &[i8]) -> Result<()> {
    spec.validate()?;
    let n = spec.image_size;
    let reason = if weights.len() != spec.taps() {
        format!("{} weights for {} taps", weights.len(), spec.taps())
    } else if image.width() != n || image.height() != n {
        format!(
            "{}x{} image for image size {n}",
            image.width(),
            image.height()
        )
    } else {
        return Ok(());
    };
    Err(AccelError::BadSpec { reason })
}

/// Simulates the accelerator's processing of `image` with the given
/// quantized kernel weights, returning the output image.
///
/// The weights are the per-tap coefficient inputs (`window²` for 2D,
/// `2·window` for separable — the 1DH weights first); `shift` is the
/// normalization built into the datapath. Pixels are quantized/rescaled
/// with the same convention as the software engine (`v >> 1` in,
/// `v << 1` out).
///
/// The output has the configuration's natural size (shrunk when
/// downsampling).
///
/// # Errors
///
/// Returns [`AccelError::BadSpec`] for an invalid spec, or when
/// `weights.len() != spec.taps()` or the image is not `spec.image_size`
/// squared; propagates netlist-simulation errors.
pub fn simulate_stream(
    spec: &AcceleratorSpec,
    image: &Image,
    weights: &[i8],
    shift: u32,
) -> Result<Image> {
    let _span = clapped_obs::span("accel.streamsim.frame");
    check_stream_inputs(spec, image, weights)?;
    clapped_obs::count("accel.streamsim.frames", 1);
    let datapath = build_datapath_cached(spec, shift)?;
    match spec.mode {
        ConvMode::TwoD => {
            let w = spec.window;
            let out = run_pe_grid(&datapath, image, weights, w, spec.stride, spec.stride, 0, |x, y, dx, dy, _half| {
                (x + dx, y + dy)
            })?;
            Ok(finish(out, image, spec))
        }
        ConvMode::Separable => {
            let w = spec.window;
            // Horizontal pass with the first w taps (outputs 0..8 of the
            // datapath), strided along x.
            let h = run_pe_grid(&datapath, image, &weights[..w], w, spec.stride, 1, 0, |x, y, dx, _dy, half| {
                (x + dx, y + half)
            })?;
            let h_img = if spec.downsample {
                h
            } else {
                replicate(&h, image.width(), image.height(), spec.stride, 1)
            };
            // Vertical pass with the last w taps (outputs 8..16), strided
            // along y.
            let v = run_pe_grid(&datapath, &h_img, &weights[w..], w, 1, spec.stride, 8, |x, y, _dx, dy, half| {
                (x + half, y + dy)
            })?;
            let v_img = if spec.downsample {
                v
            } else {
                replicate(&v, h_img.width(), h_img.height(), 1, spec.stride)
            };
            Ok(v_img)
        }
    }
}

/// The retained reference implementation: rebuilds the datapath netlist
/// on every call and evaluates 64 output positions per pass with
/// per-chunk input packing — exactly the pre-wide-word pipeline.
/// [`simulate_stream`] is pinned bit-identical to this path by tests
/// and benchmarked against it in `bench_sim`.
///
/// # Errors
///
/// As [`simulate_stream`].
pub fn simulate_stream_ref(
    spec: &AcceleratorSpec,
    image: &Image,
    weights: &[i8],
    shift: u32,
) -> Result<Image> {
    check_stream_inputs(spec, image, weights)?;
    let datapath = build_datapath(spec, shift)?;
    match spec.mode {
        ConvMode::TwoD => {
            let w = spec.window;
            let out = run_pe_grid_ref64(&datapath, image, weights, w, spec.stride, spec.stride, 0, |img, x, y, dx, dy, half| {
                img.get_clamped(x as isize + dx as isize - half, y as isize + dy as isize - half)
            })?;
            Ok(finish(out, image, spec))
        }
        ConvMode::Separable => {
            let w = spec.window;
            let h = run_pe_grid_ref64(&datapath, image, &weights[..w], w, spec.stride, 1, 0, |img, x, y, dx, _dy, half| {
                img.get_clamped(x as isize + dx as isize - half, y as isize)
            })?;
            let h_img = if spec.downsample {
                h
            } else {
                replicate(&h, image.width(), image.height(), spec.stride, 1)
            };
            let v = run_pe_grid_ref64(&datapath, &h_img, &weights[w..], w, 1, spec.stride, 8, |img, x, y, _dx, dy, half| {
                img.get_clamped(x as isize, y as isize + dy as isize - half)
            })?;
            let v_img = if spec.downsample {
                v
            } else {
                replicate(&v, h_img.width(), h_img.height(), 1, spec.stride)
            };
            Ok(v_img)
        }
    }
}

/// Evaluates the datapath on the stride grid, [`BLOCK_LANES`] output
/// positions per netlist evaluation. `tap_coord` maps an input-space
/// origin and tap index `(dx, dy)` to coordinates in the
/// border-replicated padded frame; `out_base` selects which output byte
/// of the datapath to read (separable datapaths expose two PEs).
///
/// The input block vector is assembled once per pass: coefficient bits
/// are lane-constant broadcasts, the inactive PE of a separable
/// datapath stays zero for the whole pass, and only the active PE's
/// pixel blocks are rewritten per chunk. The frame is quantized into a
/// flat padded buffer up front, so every tap read is one branch-free
/// load, and pixels move between bytes and bitplanes eight lanes per
/// [`transpose8x8`]. The evaluation scratch and output buffers are
/// reused across every chunk of the pass.
#[expect(clippy::too_many_arguments, reason = "the pass's buffers are passed explicitly")]
fn run_pe_grid(
    datapath: &Netlist,
    image: &Image,
    weights: &[i8],
    window: usize,
    stride_x: usize,
    stride_y: usize,
    out_base: usize,
    tap_coord: impl Fn(usize, usize, usize, usize, usize) -> (usize, usize),
) -> Result<Image> {
    let _span = clapped_obs::span("accel.streamsim.pass");
    let half = window / 2;
    let taps = weights.len();
    let is_2d = taps == window * window;
    let ow = image.width().div_ceil(stride_x);
    let oh = image.height().div_ceil(stride_y);
    let mut out = Image::filled(ow, oh, 0);
    // Quantized, border-replicated frame: padded (px, py) holds
    // input pixel (px - half, py - half) clamped to the frame, already
    // quantized with the datapath's `v >> 1` convention.
    let pw = image.width() + 2 * half;
    let ph = image.height() + 2 * half;
    let mut padded = vec![0u8; pw * ph];
    for py in 0..ph {
        for px in 0..pw {
            padded[py * pw + px] =
                image.get_clamped(px as isize - half as isize, py as isize - half as isize) >> 1;
        }
    }
    // The datapath declares PE inputs in build order; out_base == 0
    // means this pass drives the first PE, otherwise the second.
    let n_inputs = datapath.inputs().len();
    let active_base = if n_inputs == taps * 16 || out_base == 0 { 0 } else { taps * 16 };
    let mut inputs: Vec<[u64; BLOCK_WORDS]> = vec![[0u64; BLOCK_WORDS]; n_inputs];
    // Coefficients are constant across lanes and chunks: broadcast each
    // bit once per pass. Per tap the datapath declares px then co.
    for (t, &c) in weights.iter().enumerate() {
        for k in 0..8 {
            inputs[active_base + t * 16 + 8 + k] = if (c as u8 >> k) & 1 == 1 {
                [!0u64; BLOCK_WORDS]
            } else {
                [0u64; BLOCK_WORDS]
            };
        }
    }
    let mut scratch: Vec<[u64; BLOCK_WORDS]> = Vec::new();
    let mut outs: Vec<[u64; BLOCK_WORDS]> = Vec::new();
    let total = ow * oh;
    let mut start = 0usize;
    while start < total {
        let chunk = (total - start).min(BLOCK_LANES);
        for t in 0..taps {
            let (dx, dy) = if is_2d { (t % window, t / window) } else { (t, t) };
            let px_blocks = &mut inputs[active_base + t * 16..active_base + t * 16 + 8];
            px_blocks.fill([0u64; BLOCK_WORDS]);
            let (mut ox, mut oy) = (start % ow, start / ow);
            let mut lane = 0usize;
            while lane < chunk {
                let octet = (chunk - lane).min(8);
                // Byte l = lane l's quantized pixel; transpose flips the
                // octet into eight bitplane bytes in one go.
                let mut bytes = 0u64;
                for l in 0..octet {
                    let (cx, cy) = tap_coord(ox * stride_x, oy * stride_y, dx, dy, half);
                    bytes |= u64::from(padded[cy * pw + cx]) << (8 * l);
                    ox += 1;
                    if ox == ow {
                        ox = 0;
                        oy += 1;
                    }
                }
                let planes = transpose8x8(bytes);
                // `lane` is octet-aligned, so this is a byte shift.
                let (word, shift) = (lane / 64, lane % 64);
                for (k, block) in px_blocks.iter_mut().enumerate() {
                    block[word] |= ((planes >> (8 * k)) & 0xff) << shift;
                }
                lane += octet;
            }
        }
        datapath
            .simulate_blocks_into::<BLOCK_WORDS>(
                &inputs,
                &FaultSet::empty(),
                &mut scratch,
                &mut outs,
            )
            .map_err(sim_err)?;
        clapped_obs::count("accel.streamsim.evals", 1);
        clapped_obs::count("accel.streamsim.lanes_active", chunk as u64);
        clapped_obs::count("accel.streamsim.lanes_total", BLOCK_LANES as u64);
        let (mut ox, mut oy) = (start % ow, start / ow);
        let mut lane = 0usize;
        while lane < chunk {
            let octet = (chunk - lane).min(8);
            let (word, shift) = (lane / 64, lane % 64);
            let mut planes = 0u64;
            for k in 0..8 {
                planes |= ((outs[out_base + k][word] >> shift) & 0xff) << (8 * k);
            }
            let bytes = transpose8x8(planes);
            for l in 0..octet {
                out.set(ox, oy, (((bytes >> (8 * l)) & 0xff) as u8) << 1);
                ox += 1;
                if ox == ow {
                    ox = 0;
                    oy += 1;
                }
            }
            lane += octet;
        }
        start += chunk;
    }
    clapped_obs::count("accel.streamsim.pixels", total as u64);
    Ok(out)
}

/// The retained 64-lane grid runner with per-chunk `Vec` packing — the
/// reference [`run_pe_grid`] is pinned against.
#[expect(clippy::too_many_arguments, reason = "the pass's buffers are passed explicitly")]
#[expect(clippy::needless_range_loop, reason = "index loops walk coupled lane arrays")]
fn run_pe_grid_ref64(
    datapath: &Netlist,
    image: &Image,
    weights: &[i8],
    window: usize,
    stride_x: usize,
    stride_y: usize,
    out_base: usize,
    tap_window: impl Fn(&Image, usize, usize, usize, usize, isize) -> u8,
) -> Result<Image> {
    let half = (window / 2) as isize;
    let taps = weights.len();
    let is_2d = taps == window * window;
    let ow = image.width().div_ceil(stride_x);
    let oh = image.height().div_ceil(stride_y);
    let mut out = Image::filled(ow, oh, 0);
    let positions: Vec<(usize, usize)> = (0..oh)
        .flat_map(|oy| (0..ow).map(move |ox| (ox, oy)))
        .collect();
    for chunk in positions.chunks(64) {
        // Input words: per tap, px bus then co bus (declaration order of
        // the relevant PE). For separable datapaths the vertical PE's
        // inputs come second; unused PE inputs are driven with zeros.
        let mut words: Vec<u64> = Vec::new();
        let pack_taps = |active: bool, words: &mut Vec<u64>| {
            for t in 0..taps {
                let (dx, dy) = if is_2d {
                    (t % window, t / window)
                } else {
                    (t, t)
                };
                let px_vals: Vec<i64> = chunk
                    .iter()
                    .map(|&(ox, oy)| {
                        if active {
                            let x = ox * stride_x;
                            let y = oy * stride_y;
                            i64::from(tap_window(image, x, y, dx, dy, half) >> 1)
                        } else {
                            0
                        }
                    })
                    .collect();
                words.extend(pack_bus_samples(&px_vals, 8));
                let co_vals: Vec<i64> = chunk
                    .iter()
                    .map(|_| if active { i64::from(weights[t]) } else { 0 })
                    .collect();
                words.extend(pack_bus_samples(&co_vals, 8));
            }
        };
        if datapath.inputs().len() == taps * 16 {
            pack_taps(true, &mut words);
        } else if out_base == 0 {
            pack_taps(true, &mut words);
            pack_taps(false, &mut words);
        } else {
            pack_taps(false, &mut words);
            pack_taps(true, &mut words);
        }
        let outs = datapath.simulate_words(&words).map_err(sim_err)?;
        for (lane, &(ox, oy)) in chunk.iter().enumerate() {
            let mut v = 0u8;
            for bit in 0..8 {
                if (outs[out_base + bit] >> lane) & 1 == 1 {
                    v |= 1 << bit;
                }
            }
            out.set(ox, oy, v << 1);
        }
    }
    Ok(out)
}

/// Zero-order-hold replication of a strided grid back to full size.
fn replicate(grid: &Image, width: usize, height: usize, sx: usize, sy: usize) -> Image {
    Image::from_fn(width, height, |x, y| grid.get(x / sx, y / sy))
}

fn finish(out: Image, image: &Image, spec: &AcceleratorSpec) -> Image {
    if spec.downsample || spec.stride == 1 {
        out
    } else {
        replicate(&out, image.width(), image.height(), spec.stride, spec.stride)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_axops::{Catalog, Mul8s};
    use clapped_imgproc::{ConvConfig, ConvEngine, QuantKernel, SynthKind};
    use std::sync::Arc;

    fn engine_and_kernel() -> (ConvEngine, QuantKernel) {
        let k = QuantKernel::gaussian(3, 0.85);
        (ConvEngine::new(k.clone()), k)
    }

    fn taps_of(m: &Arc<clapped_axops::AxMul>, n: usize) -> Vec<Arc<dyn Mul8s>> {
        (0..n).map(|_| m.clone() as Arc<dyn Mul8s>).collect()
    }

    #[test]
    fn hardware_matches_software_2d() {
        let cat = Catalog::standard();
        for op in ["mul8s_exact", "mul8s_tr4", "mul8s_drum4"] {
            let m = cat.get(op).unwrap();
            let img = Image::synthetic(SynthKind::SmoothField, 16, 16, 3);
            let (engine, kernel) = engine_and_kernel();
            let cfg = ConvConfig::default();
            let sw = engine.convolve(&img, &cfg, &taps_of(&m, 9)).unwrap();
            let spec = AcceleratorSpec::uniform_2d(16, 3, &m);
            let hw = simulate_stream(&spec, &img, kernel.coeffs_2d(), kernel.shift()).unwrap();
            assert_eq!(sw, hw, "hardware/software divergence for {op}");
        }
    }

    #[test]
    fn mismatched_inputs_are_errors_not_panics() {
        let m = Catalog::standard().get("mul8s_exact").unwrap();
        let spec = AcceleratorSpec::uniform_2d(16, 3, &m);
        let (_, kernel) = engine_and_kernel();
        let weights = kernel.coeffs_2d();
        let square = Image::synthetic(SynthKind::Blobs, 16, 16, 1);
        let cases = [
            (&weights[..8], square.clone()),
            (weights, Image::synthetic(SynthKind::Blobs, 15, 16, 1)),
            (weights, Image::synthetic(SynthKind::Blobs, 16, 17, 1)),
        ];
        for (w, img) in &cases {
            for sim in [simulate_stream, simulate_stream_ref] {
                let got = sim(&spec, img, w, kernel.shift());
                assert!(matches!(got, Err(AccelError::BadSpec { .. })), "{got:?}");
            }
        }
        assert!(simulate_stream(&spec, &square, weights, kernel.shift()).is_ok());
    }

    #[test]
    fn hardware_matches_software_strided() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_tr3").unwrap();
        let img = Image::synthetic(SynthKind::Blobs, 16, 16, 5);
        let (engine, kernel) = engine_and_kernel();
        for downsample in [true, false] {
            let cfg = ConvConfig {
                stride: 2,
                downsample,
                ..ConvConfig::default()
            };
            let sw = engine.convolve(&img, &cfg, &taps_of(&m, 9)).unwrap();
            let spec = AcceleratorSpec {
                stride: 2,
                downsample,
                ..AcceleratorSpec::uniform_2d(16, 3, &m)
            };
            let hw = simulate_stream(&spec, &img, kernel.coeffs_2d(), kernel.shift()).unwrap();
            assert_eq!(sw, hw, "divergence with downsample={downsample}");
        }
    }

    #[test]
    fn hardware_matches_software_separable() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_exact").unwrap();
        let img = Image::synthetic(SynthKind::Gradient, 16, 16, 0);
        let (engine, kernel) = engine_and_kernel();
        let cfg = ConvConfig {
            mode: ConvMode::Separable,
            ..ConvConfig::default()
        };
        let sw = engine.convolve(&img, &cfg, &taps_of(&m, 6)).unwrap();
        let spec = AcceleratorSpec {
            mode: ConvMode::Separable,
            muls: vec![m.clone(); 6],
            ..AcceleratorSpec::uniform_2d(16, 3, &m)
        };
        let mut weights = kernel.coeffs_1d().to_vec();
        weights.extend_from_slice(kernel.coeffs_1d());
        let hw = simulate_stream(&spec, &img, &weights, kernel.shift_1d()).unwrap();
        assert_eq!(sw, hw, "separable hardware/software divergence");
    }

    #[test]
    fn mixed_tap_multipliers_match() {
        let cat = Catalog::standard();
        let exact = cat.get("mul8s_exact").unwrap();
        let rough = cat.get("mul8s_bam_v6_h2").unwrap();
        let img = Image::synthetic(SynthKind::Checkerboard, 16, 16, 0);
        let (engine, kernel) = engine_and_kernel();
        let mut taps = taps_of(&exact, 9);
        taps[0] = rough.clone();
        taps[4] = rough.clone();
        let sw = engine.convolve(&img, &ConvConfig::default(), &taps).unwrap();
        let mut spec = AcceleratorSpec::uniform_2d(16, 3, &exact);
        spec.muls[0] = rough.clone();
        spec.muls[4] = rough;
        let hw = simulate_stream(&spec, &img, kernel.coeffs_2d(), kernel.shift()).unwrap();
        assert_eq!(sw, hw);
    }

    #[test]
    fn wide_pipeline_matches_reference_across_modes() {
        let cat = Catalog::standard();
        let m = cat.get("mul8s_tr2").unwrap();
        let (_, kernel) = engine_and_kernel();
        let img = Image::synthetic(SynthKind::Blobs, 16, 16, 11);
        for stride in [1, 2, 3] {
            for downsample in [false, true] {
                let spec = AcceleratorSpec {
                    stride,
                    downsample,
                    ..AcceleratorSpec::uniform_2d(16, 3, &m)
                };
                let fast = simulate_stream(&spec, &img, kernel.coeffs_2d(), kernel.shift()).unwrap();
                let slow =
                    simulate_stream_ref(&spec, &img, kernel.coeffs_2d(), kernel.shift()).unwrap();
                assert_eq!(fast, slow, "stride={stride} downsample={downsample}");
            }
        }
        // Separable: two PEs, both pass orders exercised.
        let spec = AcceleratorSpec {
            mode: ConvMode::Separable,
            muls: vec![m.clone(); 6],
            ..AcceleratorSpec::uniform_2d(16, 3, &m)
        };
        let mut weights = kernel.coeffs_1d().to_vec();
        weights.extend_from_slice(kernel.coeffs_1d());
        let fast = simulate_stream(&spec, &img, &weights, kernel.shift_1d()).unwrap();
        let slow = simulate_stream_ref(&spec, &img, &weights, kernel.shift_1d()).unwrap();
        assert_eq!(fast, slow, "separable wide/reference divergence");
    }
}
