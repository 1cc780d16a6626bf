//! MBO search trajectories and GP predictions, pinned digest for digest.
//!
//! Three seeded `MboState` runs, at two, three and four objectives,
//! cover the 2D sweep, the 3D slicing and the WFG recursion of the
//! acquisition's hypervolume scoring. Each run's surrogates grow past 100
//! training rows and the last fit has 111, not a multiple of four, so
//! blocked kernels exercise their remainders. A change to the GP fit, the
//! batched prediction, the Cholesky factorization or the acquisition
//! scoring that moves a single pick or a single bit fails here.

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
