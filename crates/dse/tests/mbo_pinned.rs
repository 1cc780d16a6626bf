//! MBO search trajectories, GP fits and GP predictions, pinned digest
//! for digest.
//!
//! Three seeded `MboState` runs, at two, three and four objectives,
//! cover the 2D sweep, the 3D slicing and the WFG recursion of the
//! acquisition's hypervolume scoring. Each run's surrogates grow past 100
//! training rows and the last fit has 111, not a multiple of four, so
//! blocked kernels exercise their remainders. Seeded fits at the widths
//! and sizes `explore` reaches pin each selected grid point and its
//! weights. A change to the GP fit, the batched prediction, the Cholesky
//! factorization or the acquisition scoring that moves a single pick or a
//! single bit fails here.

use clapped_dse::{BatchOutcome, Gp, MboConfig, MboState};
use clapped_exec::Fnv64;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Genes of a toy configuration.
const GENES: usize = 5;

fn sample(rng: &mut ChaCha8Rng) -> Vec<f64> {
    (0..GENES).map(|_| rng.gen_range(0.0..1.0)).collect()
}

/// A smooth toy problem with `d` minimized objectives: a trade-off along
/// the first gene, the other genes adding distance from the front.
fn objectives(c: &[f64], d: usize) -> Vec<f64> {
    let x = c[0];
    let g = 1.0 + c[1..].iter().map(|v| (v - 0.5) * (v - 0.5)).sum::<f64>();
    let mut out = vec![x * g, (1.0 - x).powi(2) * g];
    if d >= 3 {
        out.push((0.5 - x).abs() * g + 0.3 * c[1]);
    }
    if d >= 4 {
        out.push(g + 0.2 * c[2] * c[3]);
    }
    out
}

/// `(digest of every evaluated objective's bits, digest of the
/// hypervolume trace)` of one seeded run at `d` objectives.
fn run(d: usize, seed: u64) -> (u64, u64) {
    let config = MboConfig {
        initial_samples: 21,
        iterations: 11,
        batch: 9,
        candidates: 40,
        reference: vec![3.0; d],
        kappa: 1.0,
        explore_fraction: 0.1,
        seed,
    };
    let mut state = MboState::<Vec<f64>>::new(&config).expect("valid config");
    let mut sample = sample;
    let encode = |c: &Vec<f64>| c.clone();
    let mut evaluate = |cs: &[Vec<f64>]| -> Vec<BatchOutcome> {
        cs.iter()
            .map(|c| BatchOutcome {
                objectives: objectives(c, d),
                digest: 0,
            })
            .collect()
    };
    while !state.is_complete() {
        state
            .step(&mut sample, &encode, &mut evaluate)
            .expect("step");
    }
    let result = state.into_result();
    assert_eq!(result.evaluated.len(), 21 + 11 * 9);
    let mut objs = Fnv64::new();
    for (_, o) in &result.evaluated {
        for v in o {
            objs.write_u64(v.to_bits());
        }
    }
    let mut trace = Fnv64::new();
    for &(n, hv) in &result.hv_trace {
        trace.write_u64(n as u64);
        trace.write_u64(hv.to_bits());
    }
    (objs.finish(), trace.finish())
}

#[test]
fn two_objective_run_is_pinned() {
    assert_eq!(run(2, 5), (0xe75f_fff0_de65_275b, 0x874d_b4a8_8773_fe4b));
}

#[test]
fn three_objective_run_is_pinned() {
    assert_eq!(run(3, 6), (0x62ef_69dc_8067_e031, 0x4261_1020_8b8c_cdce));
}

#[test]
fn four_objective_run_is_pinned() {
    assert_eq!(run(4, 7), (0x1216_3038_467d_c42f, 0x476f_c992_48a4_6988));
}

#[test]
fn batched_gp_prediction_is_pinned() {
    let mut rng = ChaCha8Rng::seed_from_u64(23);
    let xs: Vec<Vec<f64>> = (0..103).map(|_| sample(&mut rng)).collect();
    let ys: Vec<f64> = xs
        .iter()
        .map(|c| objectives(c, 2)[1] + 0.01 * c[4])
        .collect();
    let gp = Gp::fit(&xs, &ys).expect("fit");
    let queries: Vec<Vec<f64>> = (0..37).map(|_| sample(&mut rng)).collect();
    let mut h = Fnv64::new();
    for (mean, var) in gp.predict_batch(&queries).expect("predict") {
        h.write_u64(mean.to_bits());
        h.write_u64(var.to_bits());
    }
    assert_eq!(h.finish(), 0x3b18_57cd_f88c_a8e1);
}

/// `n` seeded rows of `width` features, uniform in `[0, 1)`.
fn rows(rng: &mut ChaCha8Rng, width: usize, n: usize) -> Vec<Vec<f64>> {
    (0..n)
        .map(|_| (0..width).map(|_| rng.gen_range(0.0..1.0)).collect())
        .collect()
}

/// A target smooth in every feature.
fn smooth(x: &[f64]) -> f64 {
    x.iter().enumerate().map(|(j, v)| v / (j + 1) as f64).sum()
}

/// A target that varies quickly in a few features.
fn rough(x: &[f64]) -> f64 {
    (7.0 * x[0]).sin() * x[x.len() - 1] + 0.3 * (11.0 * x[1] * x[2]).cos()
}

/// Fits `ys` on `xs` and feeds the selected lengthscale and noise, the
/// weights and the predictions at `queries` into `h`, bit for bit.
fn feed_fit(h: &mut Fnv64, xs: &[Vec<f64>], ys: &[f64], queries: &[Vec<f64>]) {
    let gp = Gp::fit(xs, ys).expect("fit");
    h.write_u64(gp.lengthscale().to_bits());
    h.write_u64(gp.noise().to_bits());
    for a in gp.alpha() {
        h.write_u64(a.to_bits());
    }
    for (mean, var) in gp.predict_batch(queries).expect("predict") {
        h.write_u64(mean.to_bits());
        h.write_u64(var.to_bits());
    }
}

#[test]
fn gp_fits_are_pinned() {
    // One digest per width (62 is what `explore` fits on: `Coeffs(4)`
    // features plus a 3x3's hardware features), then the duplicated-rows
    // and the constant-target datasets.
    let mut digests = Vec::new();
    for width in [5usize, 13, 40, 62] {
        let mut h = Fnv64::new();
        for n in [1usize, 7, 61, 130, 250] {
            let mut rng = ChaCha8Rng::seed_from_u64(1000 * width as u64 + n as u64);
            let xs = rows(&mut rng, width, n);
            let queries = rows(&mut rng, width, 9);
            for target in [smooth, rough] {
                let ys: Vec<f64> = xs.iter().map(|x| target(x)).collect();
                feed_fit(&mut h, &xs, &ys, &queries);
            }
        }
        digests.push(h.finish());
    }

    let mut rng = ChaCha8Rng::seed_from_u64(77);
    let distinct = rows(&mut rng, 13, 12);
    let xs: Vec<Vec<f64>> = (0..61).map(|i| distinct[(i * 5) % 12].clone()).collect();
    let queries = rows(&mut rng, 13, 9);
    let mut h = Fnv64::new();
    for target in [smooth, rough] {
        let ys: Vec<f64> = xs.iter().map(|x| target(x)).collect();
        feed_fit(&mut h, &xs, &ys, &queries);
    }
    digests.push(h.finish());

    let xs = rows(&mut rng, 40, 61);
    let queries = rows(&mut rng, 40, 9);
    let mut h = Fnv64::new();
    feed_fit(&mut h, &xs, &[2.0; 61], &queries);
    let ys: Vec<f64> = xs.iter().map(|x| smooth(x)).collect();
    feed_fit(&mut h, &xs, &ys, &queries);
    digests.push(h.finish());

    let hex: Vec<String> = digests.iter().map(|d| format!("{d:#018x}")).collect();
    assert_eq!(
        digests,
        [
            0x0881_31b9_849f_16a0,
            0xa9bc_1fd3_ba12_acbe,
            0x0894_ed32_7afe_1760,
            0xaa95_bbe1_f045_54b0,
            0x581f_3e15_0e03_6a39,
            0x2c0d_2eb5_fed6_d3d4,
        ],
        "digests {hex:?}"
    );
}
