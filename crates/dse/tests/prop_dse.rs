//! Property tests for the DSE machinery: hypervolume axioms, dominance
//! as a strict partial order, GP interpolation and design-space closure.

use clapped_dse::{dominates, hypervolume, Configuration, DesignSpace, Gp};
use proptest::prelude::*;
use rand::SeedableRng;

fn points2(n: std::ops::Range<usize>) -> impl Strategy<Value = Vec<Vec<f64>>> {
    proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 2), n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Hypervolume is invariant under point permutation and duplicate
    /// insertion.
    #[test]
    fn hv_permutation_and_duplicates(points in points2(1..15), rot in 0usize..8) {
        let reference = [1.0, 1.0];
        let hv = hypervolume(&points, &reference);
        let mut rotated = points.clone();
        let r = rot % rotated.len().max(1);
        rotated.rotate_left(r);
        prop_assert!((hypervolume(&rotated, &reference) - hv).abs() < 1e-12);
        let mut dup = points.clone();
        dup.push(points[0].clone());
        prop_assert!((hypervolume(&dup, &reference) - hv).abs() < 1e-12);
    }

    /// 3D hypervolume of a single point equals its box volume.
    #[test]
    fn hv3_single_point_is_box(p in proptest::collection::vec(0.0f64..1.0, 3)) {
        let reference = [1.0, 1.0, 1.0];
        let expect: f64 = p.iter().map(|x| 1.0 - x).product();
        let hv = hypervolume(&[p], &reference);
        prop_assert!((hv - expect).abs() < 1e-12, "{} vs {}", hv, expect);
    }

    /// 3D hypervolume is monotone under point addition.
    #[test]
    fn hv3_monotone(
        points in proptest::collection::vec(proptest::collection::vec(0.0f64..1.0, 3), 1..10),
        extra in proptest::collection::vec(0.0f64..1.0, 3),
    ) {
        let reference = [1.0, 1.0, 1.0];
        let before = hypervolume(&points, &reference);
        let mut more = points.clone();
        more.push(extra);
        prop_assert!(hypervolume(&more, &reference) >= before - 1e-12);
    }

    /// Dominance is a strict partial order: irreflexive and asymmetric.
    #[test]
    fn dominance_is_strict_partial_order(a in proptest::collection::vec(0.0f64..1.0, 3),
                                         b in proptest::collection::vec(0.0f64..1.0, 3)) {
        prop_assert!(!dominates(&a, &a));
        if dominates(&a, &b) {
            prop_assert!(!dominates(&b, &a));
        }
    }

    /// GP interpolates its own training data (low noise grid points).
    #[test]
    fn gp_interpolates_training_points(seed in 0u64..1000) {
        use rand::Rng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let xs: Vec<Vec<f64>> = (0..12).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = xs.iter().map(|x| (x[0] / 3.0).sin() + rng.gen_range(-1e-6..1e-6)).collect();
        let gp = Gp::fit(&xs, &ys).expect("fits");
        for (x, y) in xs.iter().zip(&ys) {
            let (m, _) = gp.predict(x);
            prop_assert!((m - y).abs() < 0.2, "at {:?}: {} vs {}", x, m, y);
        }
    }

    /// Configuration mutation always stays inside the space, and the
    /// golden configuration is never strictly dominated in space terms
    /// (sanity of encode/decode plumbing).
    #[test]
    fn mutation_closure(seed: u64, steps in 1usize..50) {
        let space = DesignSpace::paper_default(9);
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        let mut c: Configuration = space.sample(&mut rng);
        for _ in 0..steps {
            space.mutate(&mut c, &mut rng);
            prop_assert!(space.contains(&c));
        }
    }
}
