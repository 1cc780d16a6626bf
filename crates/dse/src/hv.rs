//! Hypervolume computation (minimization) and the incremental front
//! that scores a candidate by the volume it would add.

use crate::pareto::{dominates, pareto_front};
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-wide count of objective vectors rejected for containing NaN
/// or ±∞. Non-finite points cannot be ranked and would silently corrupt
/// hypervolumes and fronts, so they are dropped — but never silently:
/// every rejection increments this counter.
static NONFINITE_WARNINGS: AtomicU64 = AtomicU64::new(0);

/// Number of non-finite objective vectors dropped by [`hypervolume`] /
/// [`pareto_front`] since process start. A rising value signals a
/// misbehaving objective function upstream.
pub fn nonfinite_warnings() -> u64 {
    NONFINITE_WARNINGS.load(Ordering::Relaxed)
}

/// Records one rejected point. Shared by the hypervolume and Pareto
/// paths.
pub(crate) fn note_nonfinite() {
    NONFINITE_WARNINGS.fetch_add(1, Ordering::Relaxed);
}

/// Hypervolume dominated by `points` with respect to `reference`
/// (minimization: the reference must be no better than every point in
/// every objective; points beyond the reference contribute nothing).
///
/// Dimensions 1–3 use exact sweep algorithms; higher dimensions use the
/// WFG exclusive-hypervolume recursion (exact, exponential worst case —
/// fine for the front sizes DSE produces).
///
/// # Panics
///
/// Panics if dimensions are inconsistent or zero.
///
/// # Examples
///
/// ```
/// let hv = clapped_dse::hypervolume(&[vec![1.0, 1.0]], &[3.0, 3.0]);
/// assert!((hv - 4.0).abs() < 1e-12);
/// ```
pub fn hypervolume<P: AsRef<[f64]>>(points: &[P], reference: &[f64]) -> f64 {
    HvFront::new(points, reference).volume
}

/// The Pareto front [`hypervolume`] measures, kept so that the volume a
/// candidate point would add is computed from the front alone.
///
/// [`hypervolume`] rejects non-finite points, drops points not strictly
/// inside the reference, and measures the Pareto front of the rest in
/// input order. The gain of a point `p` over a set `S` therefore depends
/// on `S` only through that front `F`: `hv(S ∪ {p}) − hv(S)` is
/// `hv(F′ ∪ {p}) − hv(F)`, where `F′` is `F` less the points `p`
/// dominates and `p` comes last. The front keeps set order, so even the
/// order-sensitive WFG sum runs over the same points in the same order:
/// [`HvFront::gain`] is the full recomputation's value bit for bit, at a
/// cost set by the front's size instead of the set's.
#[derive(Debug)]
pub(crate) struct HvFront<'r> {
    reference: &'r [f64],
    front: Vec<Vec<f64>>,
    volume: f64,
}

impl<'r> HvFront<'r> {
    /// The front of `points` against `reference`, counting every
    /// non-finite point on [`nonfinite_warnings`].
    ///
    /// # Panics
    ///
    /// Panics if dimensions are inconsistent or zero.
    pub(crate) fn new<P: AsRef<[f64]>>(points: &[P], reference: &'r [f64]) -> HvFront<'r> {
        let d = reference.len();
        assert!(d >= 1, "need at least one objective");
        for p in points {
            assert_eq!(p.as_ref().len(), d, "objective dimension mismatch");
        }
        // Reject non-finite points (−∞ coordinates would otherwise claim
        // infinite volume; NaN would poison the sweeps), then clip to the
        // reference box and drop non-contributing points.
        let clipped: Vec<&[f64]> = points
            .iter()
            .map(AsRef::as_ref)
            .filter(|p| {
                if p.iter().any(|x| !x.is_finite()) {
                    note_nonfinite();
                    return false;
                }
                p.iter().zip(reference).all(|(&x, &r)| x < r)
            })
            .collect();
        let front: Vec<Vec<f64>> = pareto_front(&clipped)
            .into_iter()
            .map(|i| clipped[i].to_vec())
            .collect();
        let volume = front_volume(&front, reference);
        HvFront {
            reference,
            front,
            volume,
        }
    }

    /// `hypervolume(S ∪ {p}) − hypervolume(S)` for the set `S` this front
    /// was built from plus every inserted point, bit for bit. A point that
    /// leaves the front unchanged — non-finite (counted on
    /// [`nonfinite_warnings`]), not strictly inside the reference, or
    /// dominated by a front point — leaves the volume unchanged too, so it
    /// gains `0.0`, as the recomputation finds.
    pub(crate) fn gain(&self, p: &[f64]) -> f64 {
        if p.iter().any(|x| !x.is_finite()) {
            note_nonfinite();
        }
        let with_p = if self.admits(p) {
            front_volume(&self.with(p), self.reference)
        } else {
            self.volume
        };
        with_p - self.volume
    }

    /// Adds `p` to the set the front stands for.
    pub(crate) fn insert(&mut self, p: &[f64]) {
        if self.admits(p) {
            let front: Vec<Vec<f64>> = self.with(p).into_iter().map(<[f64]>::to_vec).collect();
            self.volume = front_volume(&front, self.reference);
            self.front = front;
        }
    }

    /// True when `p` joins the front: finite, strictly inside the
    /// reference, and dominated by no front point (so, by transitivity,
    /// by no point of the set).
    fn admits(&self, p: &[f64]) -> bool {
        p.iter()
            .zip(self.reference)
            .all(|(&x, &r)| x.is_finite() && x < r)
            && !self.front.iter().any(|f| dominates(f, p))
    }

    /// `F′ ∪ {p}` in set order, for a point the front admits.
    fn with<'a>(&'a self, p: &'a [f64]) -> Vec<&'a [f64]> {
        self.front
            .iter()
            .map(Vec::as_slice)
            .filter(|f| !dominates(p, f))
            .chain(std::iter::once(p))
            .collect()
    }
}

/// Hypervolume of a Pareto front of finite points strictly inside the
/// reference (`0.0` when empty).
fn front_volume<P: AsRef<[f64]>>(front: &[P], reference: &[f64]) -> f64 {
    if front.is_empty() {
        return 0.0;
    }
    match reference.len() {
        1 => {
            reference[0]
                - front
                    .iter()
                    .map(|p| p.as_ref()[0])
                    .fold(f64::INFINITY, f64::min)
        }
        2 => hv2(front, reference),
        3 => hv3(front, reference),
        _ => wfg(front, reference),
    }
}

/// WFG hypervolume: `hv(S) = Σ_i exclusive(p_i, {p_1..p_{i-1}})` where
/// the exclusive volume is the point's box minus the hypervolume of the
/// other points clipped into that box.
fn wfg<P: AsRef<[f64]>>(front: &[P], reference: &[f64]) -> f64 {
    let mut total = 0.0;
    for (i, p) in front.iter().enumerate() {
        let p = p.as_ref();
        // Box volume of p against the reference.
        let box_vol: f64 = p.iter().zip(reference).map(|(&x, &r)| r - x).product();
        // Previous points clipped into p's box (their coordinates limited
        // below by p's).
        let clipped: Vec<Vec<f64>> = front[..i]
            .iter()
            .map(|q| {
                q.as_ref()
                    .iter()
                    .zip(p)
                    .map(|(&qv, &pv)| qv.max(pv))
                    .collect()
            })
            .collect();
        // With a shared reference corner, box(q∨p) = box(q) ∩ box(p), so
        // the union of the clipped boxes is exactly the overlap volume.
        total += box_vol - hypervolume(&clipped, reference);
    }
    total
}

fn hv2<P: AsRef<[f64]>>(front: &[P], reference: &[f64]) -> f64 {
    let mut pts: Vec<(f64, f64)> = front
        .iter()
        .map(|p| (p.as_ref()[0], p.as_ref()[1]))
        .collect();
    pts.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let mut hv = 0.0;
    let mut prev_y = reference[1];
    for &(x, y) in &pts {
        if y < prev_y {
            hv += (reference[0] - x) * (prev_y - y);
            prev_y = y;
        }
    }
    hv
}

/// 3D hypervolume by sweeping the third objective and accumulating 2D
/// slices.
fn hv3<P: AsRef<[f64]>>(front: &[P], reference: &[f64]) -> f64 {
    let mut zs: Vec<f64> = front.iter().map(|p| p.as_ref()[2]).collect();
    zs.sort_by(f64::total_cmp);
    zs.dedup();
    zs.push(reference[2]);
    let mut hv = 0.0;
    for w in zs.windows(2) {
        let (z0, z1) = (w[0], w[1]);
        if z1 <= z0 {
            continue;
        }
        // Points alive in slice [z0, z1).
        let slice: Vec<Vec<f64>> = front
            .iter()
            .map(AsRef::as_ref)
            .filter(|p| p[2] <= z0)
            .map(|p| vec![p[0], p[1]])
            .collect();
        if slice.is_empty() {
            continue;
        }
        let area_front: Vec<Vec<f64>> = pareto_front(&slice)
            .into_iter()
            .map(|i| slice[i].clone())
            .collect();
        hv += hv2(&area_front, &reference[..2]) * (z1 - z0);
    }
    hv
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_point_box() {
        let hv = hypervolume(&[vec![1.0, 2.0]], &[4.0, 4.0]);
        assert!((hv - 6.0).abs() < 1e-12);
    }

    #[test]
    fn two_point_staircase() {
        let pts = vec![vec![1.0, 3.0], vec![3.0, 1.0]];
        // Union of boxes to (4,4): 3*1 + 1*3 + overlap region (1..3)x... =
        // area = (4-1)*(4-3) + (4-3)*(3-1) = 3 + 2 = 5.
        let hv = hypervolume(&pts, &[4.0, 4.0]);
        assert!((hv - 5.0).abs() < 1e-12, "hv {hv}");
    }

    #[test]
    fn dominated_points_add_nothing() {
        let base = hypervolume(&[vec![1.0, 1.0]], &[4.0, 4.0]);
        let with_dominated = hypervolume(&[vec![1.0, 1.0], vec![2.0, 2.0]], &[4.0, 4.0]);
        assert!((base - with_dominated).abs() < 1e-12);
    }

    #[test]
    fn points_beyond_reference_are_clipped() {
        let hv = hypervolume(&[vec![5.0, 5.0]], &[4.0, 4.0]);
        assert_eq!(hv, 0.0);
    }

    #[test]
    fn hv_is_monotone_in_point_addition() {
        let r = [10.0, 10.0];
        let a = hypervolume(&[vec![5.0, 5.0]], &r);
        let b = hypervolume(&[vec![5.0, 5.0], vec![2.0, 8.0]], &r);
        assert!(b >= a);
    }

    #[test]
    fn hv3_matches_manual_box() {
        // One point at (1,1,1) against (2,2,2): volume 1.
        let hv = hypervolume(&[vec![1.0, 1.0, 1.0]], &[2.0, 2.0, 2.0]);
        assert!((hv - 1.0).abs() < 1e-12);
        // Two disjoint staircase points.
        let pts = vec![vec![0.0, 1.0, 1.0], vec![1.0, 0.0, 0.0]];
        let hv = hypervolume(&pts, &[2.0, 2.0, 2.0]);
        // Manual: point B box = 1*2*2 = 4... compute via inclusion-
        // exclusion: A box = 2*1*1 = 2; B box = 1*2*2 = 4; overlap box
        // (max coords) = (1,1,1) -> 1*1*1 = 1. Union = 5.
        assert!((hv - 5.0).abs() < 1e-12, "hv {hv}");
    }

    #[test]
    fn wfg_matches_sweep_in_3d() {
        // Deterministic pseudo-random 3D points.
        let pts: Vec<Vec<f64>> = (0..12)
            .map(|i| {
                vec![
                    ((i * 37 + 11) % 97) as f64 / 97.0,
                    ((i * 53 + 29) % 89) as f64 / 89.0,
                    ((i * 71 + 43) % 83) as f64 / 83.0,
                ]
            })
            .collect();
        let reference = [1.2, 1.2, 1.2];
        let sweep = hypervolume(&pts, &reference);
        let front: Vec<Vec<f64>> = pareto_front(&pts).into_iter().map(|i| pts[i].clone()).collect();
        let general = wfg(&front, &reference);
        assert!((sweep - general).abs() < 1e-9, "{sweep} vs {general}");
    }

    #[test]
    fn four_dimensional_boxes() {
        // One point: the box volume.
        let hv = hypervolume(&[vec![0.5, 0.5, 0.5, 0.5]], &[1.0, 1.0, 1.0, 1.0]);
        assert!((hv - 0.0625).abs() < 1e-12);
        // Two identical points: still the box volume.
        let hv2 = hypervolume(
            &[vec![0.5, 0.5, 0.5, 0.5], vec![0.5, 0.5, 0.5, 0.5]],
            &[1.0, 1.0, 1.0, 1.0],
        );
        assert!((hv2 - 0.0625).abs() < 1e-12);
        // Two disjoint-ish points: inclusion-exclusion by hand.
        let a = vec![0.0, 0.5, 0.5, 0.5];
        let b = vec![0.5, 0.0, 0.0, 0.0];
        let va = 1.0 * 0.5 * 0.5 * 0.5;
        let vb: f64 = 0.5;
        let overlap = 0.5 * 0.5 * 0.5 * 0.5;
        let hv4 = hypervolume(&[a, b], &[1.0, 1.0, 1.0, 1.0]);
        assert!((hv4 - (va + vb - overlap)).abs() < 1e-12, "{hv4}");
    }

    #[test]
    fn nonfinite_points_are_dropped_with_warning() {
        let before = nonfinite_warnings();
        let clean = hypervolume(&[vec![1.0, 1.0]], &[4.0, 4.0]);
        let polluted = hypervolume(
            &[
                vec![1.0, 1.0],
                vec![f64::NAN, 0.5],
                vec![f64::NEG_INFINITY, 0.5],
                vec![0.5, f64::INFINITY],
            ],
            &[4.0, 4.0],
        );
        assert!((clean - polluted).abs() < 1e-12, "{clean} vs {polluted}");
        assert!(polluted.is_finite());
        assert!(nonfinite_warnings() >= before + 3);
    }

    /// A coordinate against a reference of `1.0`, from one random byte:
    /// mostly a coarse grid (so points repeat), sometimes spread out, on
    /// or beyond the reference, or non-finite.
    fn coordinate(code: u8) -> f64 {
        match code % 32 {
            0..=23 => f64::from(code / 32 % 5) * 0.25 - 0.25,
            24..=27 => f64::from(code) / 255.0 * 2.0 - 0.5,
            28 => 1.0,
            29 => 1.25,
            30 => f64::NAN,
            _ if code >= 128 => f64::INFINITY,
            _ => f64::NEG_INFINITY,
        }
    }

    proptest! {
        /// The front-based gain is the full recomputation's, bit for bit,
        /// while picks (copies of set points among them) join the set.
        /// Each pick is six bytes: copy or not, which point to copy, and
        /// up to four coordinates.
        #[test]
        fn front_gain_matches_full_recomputation(
            d in 2usize..=4,
            set in collection::vec(collection::vec(0u8..=255, 4), 0..14),
            picks in collection::vec(collection::vec(0u8..=255, 6), 1..6),
        ) {
            let point = |codes: &[u8]| -> Vec<f64> { codes[..d].iter().map(|&c| coordinate(c)).collect() };
            let reference = vec![1.0; d];
            let mut working: Vec<Vec<f64>> = set.iter().map(|codes| point(codes)).collect();
            let mut front = HvFront::new(&working, &reference);
            for codes in picks {
                let p = if codes[0] % 2 == 0 && !working.is_empty() {
                    working[usize::from(codes[1]) % working.len()].clone()
                } else {
                    point(&codes[2..])
                };
                let base = hypervolume(&working, &reference);
                working.push(p.clone());
                let want = hypervolume(&working, &reference) - base;
                prop_assert_eq!(front.gain(&p).to_bits(), want.to_bits(), "gain of {:?}", p);
                front.insert(&p);
                prop_assert_eq!(
                    front.volume.to_bits(),
                    hypervolume(&working, &reference).to_bits()
                );
            }
        }
    }
}
