//! The MLP network: dense layers (ReLU hidden, linear output), forward
//! and backward passes.

use clapped_la::Mat;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// One dense layer: `y = W x + b`, followed by ReLU on hidden layers.
#[derive(Debug, Clone)]
pub(crate) struct Layer {
    pub(crate) w: Mat,
    pub(crate) b: Vec<f64>,
}

/// A multi-layer perceptron for regression.
///
/// Construct with [`Mlp::new`], train through
/// [`Regressor`](crate::Regressor) or drive the
/// [`Mlp::forward`] pass directly (the backward pass is internal to
/// the trainer).
#[derive(Debug, Clone)]
pub struct Mlp {
    pub(crate) layers: Vec<Layer>,
}

/// Per-layer gradients produced by a backward pass.
#[derive(Debug, Clone)]
pub(crate) struct Gradients {
    pub(crate) dw: Vec<Mat>,
    pub(crate) db: Vec<Vec<f64>>,
}

/// Cached forward-pass state needed by backprop.
#[derive(Debug, Clone)]
pub(crate) struct ForwardTrace {
    /// Pre-activations per layer.
    zs: Vec<Vec<f64>>,
    /// Activations per layer (index 0 = input).
    activations: Vec<Vec<f64>>,
}

impl Mlp {
    /// Creates a network with the given layer sizes
    /// (`[input, hidden…, output]`) using Xavier-uniform initialization
    /// seeded deterministically.
    ///
    /// Hidden layers use ReLU; the output layer is linear.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new(sizes: &[usize], seed: u64) -> Mlp {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for w in sizes.windows(2) {
            let (fan_in, fan_out) = (w[0], w[1]);
            let bound = (6.0 / (fan_in + fan_out) as f64).sqrt();
            let wmat = Mat::from_fn(fan_out, fan_in, |_, _| rng.gen_range(-bound..bound));
            layers.push(Layer {
                w: wmat,
                b: vec![0.0; fan_out],
            });
        }
        Mlp { layers }
    }

    /// Input dimension.
    pub(crate) fn input_dim(&self) -> usize {
        self.layers[0].w.cols()
    }

    /// Total number of trainable parameters.
    pub fn parameter_count(&self) -> usize {
        self.layers
            .iter()
            .map(|l| l.w.rows() * l.w.cols() + l.b.len())
            .sum()
    }

    /// Runs the forward pass.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_traced(x).activations.pop().expect("output layer")
    }

    pub(crate) fn forward_traced(&self, x: &[f64]) -> ForwardTrace {
        assert_eq!(x.len(), self.input_dim(), "input dimension mismatch");
        let mut activations = vec![x.to_vec()];
        let mut zs = Vec::with_capacity(self.layers.len());
        for (li, layer) in self.layers.iter().enumerate() {
            let prev = activations.last().expect("non-empty");
            let mut z = layer.w.matvec(prev).expect("dimensions verified");
            for (zi, bi) in z.iter_mut().zip(&layer.b) {
                *zi += bi;
            }
            let a: Vec<f64> = if li + 1 < self.layers.len() {
                z.iter().map(|&v| v.max(0.0)).collect()
            } else {
                z.clone()
            };
            zs.push(z);
            activations.push(a);
        }
        ForwardTrace { zs, activations }
    }

    /// Backward pass for a half-MSE loss `0.5 * ||y_hat - y||^2`;
    /// returns per-layer gradients.
    pub(crate) fn backward(&self, trace: &ForwardTrace, target: &[f64]) -> Gradients {
        let l_count = self.layers.len();
        let mut dw = Vec::with_capacity(l_count);
        let mut db = Vec::with_capacity(l_count);
        // delta of the (linear) output layer.
        let y_hat = trace.activations.last().expect("output");
        let mut delta: Vec<f64> = y_hat.iter().zip(target).map(|(&yh, &y)| yh - y).collect();
        for li in (0..l_count).rev() {
            let prev_a = &trace.activations[li];
            let layer = &self.layers[li];
            let g = Mat::from_fn(layer.w.rows(), layer.w.cols(), |r, c| delta[r] * prev_a[c]);
            dw.push(g);
            db.push(delta.clone());
            if li > 0 {
                let mut next_delta = vec![0.0f64; layer.w.cols()];
                for r in 0..layer.w.rows() {
                    let d = delta[r];
                    if d == 0.0 {
                        continue;
                    }
                    for (nd, &wv) in next_delta.iter_mut().zip(layer.w.row(r)) {
                        *nd += d * wv;
                    }
                }
                // Through the ReLU of the hidden layer below.
                for (nd, &z) in next_delta.iter_mut().zip(&trace.zs[li - 1]) {
                    *nd *= if z > 0.0 { 1.0 } else { 0.0 };
                }
                delta = next_delta;
            }
        }
        dw.reverse();
        db.reverse();
        Gradients { dw, db }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_parameter_count() {
        let m = Mlp::new(&[3, 5, 2], 1);
        assert_eq!(m.input_dim(), 3);
        assert_eq!(m.parameter_count(), 3 * 5 + 5 + 5 * 2 + 2);
        let y = m.forward(&[0.1, 0.2, 0.3]);
        assert_eq!(y.len(), 2);
    }

    #[test]
    fn deterministic_initialization() {
        let a = Mlp::new(&[2, 4, 1], 42);
        let b = Mlp::new(&[2, 4, 1], 42);
        assert_eq!(a.forward(&[0.5, -0.5]), b.forward(&[0.5, -0.5]));
        let c = Mlp::new(&[2, 4, 1], 43);
        assert_ne!(a.forward(&[0.5, -0.5]), c.forward(&[0.5, -0.5]));
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut m = Mlp::new(&[2, 3, 1], 7);
        let x = [0.3, -0.7];
        let target = [0.25];
        let loss = |m: &Mlp| -> f64 {
            let y = m.forward(&x);
            0.5 * (y[0] - target[0]).powi(2)
        };
        let trace = m.forward_traced(&x);
        let grads = m.backward(&trace, &target);
        let eps = 1e-6;
        for li in 0..m.layers.len() {
            for r in 0..m.layers[li].w.rows() {
                for c in 0..m.layers[li].w.cols() {
                    let orig = m.layers[li].w[(r, c)];
                    m.layers[li].w[(r, c)] = orig + eps;
                    let up = loss(&m);
                    m.layers[li].w[(r, c)] = orig - eps;
                    let down = loss(&m);
                    m.layers[li].w[(r, c)] = orig;
                    let numeric = (up - down) / (2.0 * eps);
                    let analytic = grads.dw[li][(r, c)];
                    assert!(
                        (numeric - analytic).abs() < 1e-6,
                        "layer {li} w[{r},{c}]: {numeric} vs {analytic}"
                    );
                }
            }
            for bi in 0..m.layers[li].b.len() {
                let orig = m.layers[li].b[bi];
                m.layers[li].b[bi] = orig + eps;
                let up = loss(&m);
                m.layers[li].b[bi] = orig - eps;
                let down = loss(&m);
                m.layers[li].b[bi] = orig;
                let numeric = (up - down) / (2.0 * eps);
                let analytic = grads.db[li][bi];
                assert!(
                    (numeric - analytic).abs() < 1e-6,
                    "layer {li} b[{bi}]: {numeric} vs {analytic}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_panics() {
        let m = Mlp::new(&[2, 2], 1);
        let _ = m.forward(&[1.0]);
    }
}
