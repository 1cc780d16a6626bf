//! Deterministic minibatch Adam training and the standardizing
//! [`Regressor`] wrapper.

use crate::net::{Gradients, Mlp};
use crate::{MlpError, Result};
use clapped_la::{Mat, Standardizer};
use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Minibatch size.
const BATCH_SIZE: usize = 32;

/// Fraction of the training data held out for validation (the paper
/// uses 20 %). Rounding it never takes the last training sample:
/// `round(0.2 n) <= n - 1` for every `n >= 1`.
const VALIDATION_FRACTION: f64 = 0.2;

/// Training hyper-parameters. Training is minibatch Adam (batches of
/// 32, the usual (0.9, 0.999) moment decays) with 20 % of the data held
/// out for validation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Maximum number of epochs.
    pub epochs: usize,
    /// Learning rate.
    pub learning_rate: f64,
    /// Stop after this many epochs without validation improvement
    /// (0 disables early stopping).
    pub patience: usize,
    /// RNG seed for weight init and shuffling.
    pub seed: u64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 200,
            learning_rate: 1e-3,
            patience: 30,
            seed: 1,
        }
    }
}

/// Summary of one training run.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TrainReport {
    /// Mean training loss per epoch (half-MSE).
    pub train_loss: Vec<f64>,
    /// Mean validation loss per epoch (empty when no validation split).
    pub val_loss: Vec<f64>,
    /// Epoch at which training stopped.
    pub stopped_epoch: usize,
    /// Samples used for gradient updates (always at least 1).
    pub n_train: usize,
    /// Samples held out for validation. When 0 — a dataset of two
    /// rows or fewer, whose 20 % rounds to nothing — early stopping
    /// monitors the training loss instead.
    pub n_val: usize,
}

/// Adam state per layer.
struct OptState {
    m_w: Vec<Mat>,
    v_w: Vec<Mat>,
    m_b: Vec<Vec<f64>>,
    v_b: Vec<Vec<f64>>,
    t: usize,
}

impl OptState {
    fn new(mlp: &Mlp) -> OptState {
        OptState {
            m_w: mlp.layers.iter().map(|l| Mat::zeros(l.w.rows(), l.w.cols())).collect(),
            v_w: mlp.layers.iter().map(|l| Mat::zeros(l.w.rows(), l.w.cols())).collect(),
            m_b: mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            v_b: mlp.layers.iter().map(|l| vec![0.0; l.b.len()]).collect(),
            t: 0,
        }
    }
}

/// A feature- and target-standardizing MLP regressor with a scalar
/// output — the model CLAppED uses for quality and performance
/// prediction.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone)]
pub struct Regressor {
    x_std: Standardizer,
    y_mean: f64,
    y_scale: f64,
    mlp: Mlp,
}

impl Regressor {
    /// Fits a regressor with the given hidden layer sizes.
    ///
    /// Features and targets are z-score standardized internally; hidden
    /// layers use ReLU, the output is linear.
    ///
    /// # Errors
    ///
    /// Returns [`MlpError::BadDataset`] if `xs` is empty, lengths
    /// disagree, or rows have inconsistent dimensions.
    pub fn fit(
        xs: &[Vec<f64>],
        ys: &[f64],
        hidden: &[usize],
        config: &TrainConfig,
    ) -> Result<Regressor> {
        Regressor::fit_reporting(xs, ys, hidden, config).map(|(model, _)| model)
    }

    /// [`Regressor::fit`], also returning the training run's report.
    pub(crate) fn fit_reporting(
        xs: &[Vec<f64>],
        ys: &[f64],
        hidden: &[usize],
        config: &TrainConfig,
    ) -> Result<(Regressor, TrainReport)> {
        if xs.is_empty() || xs.len() != ys.len() {
            return Err(MlpError::BadDataset {
                reason: format!("{} feature rows vs {} targets", xs.len(), ys.len()),
            });
        }
        let dim = xs[0].len();
        if dim == 0 || xs.iter().any(|r| r.len() != dim) {
            return Err(MlpError::BadDataset {
                reason: "inconsistent or empty feature rows".to_string(),
            });
        }
        let x_std = Standardizer::fit(xs);
        let xt = x_std.transform(xs);
        let y_mean = ys.iter().sum::<f64>() / ys.len() as f64;
        let y_var = ys.iter().map(|y| (y - y_mean) * (y - y_mean)).sum::<f64>() / ys.len() as f64;
        let y_scale = if y_var > 0.0 { y_var.sqrt() } else { 1.0 };
        let yt: Vec<Vec<f64>> = ys.iter().map(|y| vec![(y - y_mean) / y_scale]).collect();

        let mut sizes = vec![dim];
        sizes.extend_from_slice(hidden);
        sizes.push(1);
        let mut mlp = Mlp::new(&sizes, config.seed);
        let report = train(&mut mlp, &xt, &yt, config);
        Ok((Regressor { x_std, y_mean, y_scale, mlp }, report))
    }

    /// Predicts the target for one feature row.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from the training feature dimension.
    pub fn predict(&self, x: &[f64]) -> f64 {
        let xt = self.x_std.transform_row(x);
        self.mlp.forward(&xt)[0] * self.y_scale + self.y_mean
    }

    /// Predicts a batch of rows.
    pub fn predict_batch(&self, xs: &[Vec<f64>]) -> Vec<f64> {
        xs.iter().map(|x| self.predict(x)).collect()
    }

    /// Number of trainable parameters in the underlying network.
    pub fn parameter_count(&self) -> usize {
        self.mlp.parameter_count()
    }
}

/// Trains an MLP in place on pre-standardized data; returns the report.
pub(crate) fn train(
    mlp: &mut Mlp,
    xs: &[Vec<f64>],
    ys: &[Vec<f64>],
    config: &TrainConfig,
) -> TrainReport {
    let mut rng = ChaCha8Rng::seed_from_u64(config.seed.wrapping_add(0x9E37_79B9));
    let n_val = ((xs.len() as f64) * VALIDATION_FRACTION).round() as usize;
    let mut order: Vec<usize> = (0..xs.len()).collect();
    order.shuffle(&mut rng);
    let (val_idx, train_idx) = order.split_at(n_val);
    let train_idx: Vec<usize> = train_idx.to_vec();
    let val_idx: Vec<usize> = val_idx.to_vec();

    let mut state = OptState::new(mlp);
    let mut best_val = f64::INFINITY;
    let mut best_weights: Option<Mlp> = None;
    let mut since_best = 0usize;
    let mut train_hist = Vec::new();
    let mut val_hist = Vec::new();
    let mut stopped = config.epochs;

    let mut epoch_order = train_idx.clone();
    for epoch in 0..config.epochs {
        epoch_order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        for batch in epoch_order.chunks(BATCH_SIZE) {
            let mut acc: Option<Gradients> = None;
            for &i in batch {
                let trace = mlp.forward_traced(&xs[i]);
                let g = mlp.backward(&trace, &ys[i]);
                let y_hat = mlp.forward(&xs[i]);
                epoch_loss += 0.5
                    * y_hat
                        .iter()
                        .zip(&ys[i])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>();
                acc = Some(match acc {
                    None => g,
                    Some(mut a) => {
                        for (aw, gw) in a.dw.iter_mut().zip(&g.dw) {
                            *aw = aw.add(gw).expect("same shapes");
                        }
                        for (ab, gb) in a.db.iter_mut().zip(&g.db) {
                            for (x, y) in ab.iter_mut().zip(gb) {
                                *x += y;
                            }
                        }
                        a
                    }
                });
            }
            if let Some(mut g) = acc {
                let scale = 1.0 / batch.len() as f64;
                for gw in &mut g.dw {
                    *gw = gw.scale(scale);
                }
                for gb in &mut g.db {
                    for x in gb.iter_mut() {
                        *x *= scale;
                    }
                }
                apply_update(mlp, &g, &mut state, config.learning_rate);
            }
        }
        let tloss = epoch_loss / train_idx.len().max(1) as f64;
        train_hist.push(tloss);

        // Early stopping monitors validation loss when a split exists,
        // and falls back to the training loss otherwise — an empty
        // validation set must not silently disable best-weight tracking.
        let monitored = if val_idx.is_empty() {
            tloss
        } else {
            let vloss = val_idx
                .iter()
                .map(|&i| {
                    let y_hat = mlp.forward(&xs[i]);
                    0.5 * y_hat
                        .iter()
                        .zip(&ys[i])
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>()
                })
                .sum::<f64>()
                / val_idx.len() as f64;
            val_hist.push(vloss);
            vloss
        };
        if monitored < best_val - 1e-12 {
            best_val = monitored;
            best_weights = Some(mlp.clone());
            since_best = 0;
        } else {
            since_best += 1;
            if config.patience > 0 && since_best >= config.patience {
                stopped = epoch + 1;
                break;
            }
        }
    }
    if let Some(best) = best_weights {
        *mlp = best;
    }
    TrainReport {
        train_loss: train_hist,
        val_loss: val_hist,
        stopped_epoch: stopped,
        n_train: train_idx.len(),
        n_val: val_idx.len(),
    }
}

fn apply_update(mlp: &mut Mlp, g: &Gradients, state: &mut OptState, lr: f64) {
    const B1: f64 = 0.9;
    const B2: f64 = 0.999;
    const EPS: f64 = 1e-8;
    state.t += 1;
    let t = state.t as f64;
    let bc1 = 1.0 - B1.powf(t);
    let bc2 = 1.0 - B2.powf(t);
    for (li, layer) in mlp.layers.iter_mut().enumerate() {
        for r in 0..layer.w.rows() {
            for c in 0..layer.w.cols() {
                let grad = g.dw[li][(r, c)];
                let m = &mut state.m_w[li][(r, c)];
                *m = B1 * *m + (1.0 - B1) * grad;
                let v = &mut state.v_w[li][(r, c)];
                *v = B2 * *v + (1.0 - B2) * grad * grad;
                let mhat = state.m_w[li][(r, c)] / bc1;
                let vhat = state.v_w[li][(r, c)] / bc2;
                layer.w[(r, c)] -= lr * mhat / (vhat.sqrt() + EPS);
            }
        }
        for bi in 0..layer.b.len() {
            let grad = g.db[li][bi];
            state.m_b[li][bi] = B1 * state.m_b[li][bi] + (1.0 - B1) * grad;
            state.v_b[li][bi] = B2 * state.v_b[li][bi] + (1.0 - B2) * grad * grad;
            let mhat = state.m_b[li][bi] / bc1;
            let vhat = state.v_b[li][bi] / bc2;
            layer.b[bi] -= lr * mhat / (vhat.sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{mae, r2_score};
    use clapped_exec::Fnv64;

    /// Digest of `default_training_is_pinned`'s report and predictions.
    const PINNED_DEFAULT_TRAINING: u64 = 9583056713349792401;

    fn grid_dataset(f: impl Fn(f64, f64) -> f64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (i as f64 / 10.0 - 1.0, j as f64 / 10.0 - 1.0);
                xs.push(vec![a, b]);
                ys.push(f(a, b));
            }
        }
        (xs, ys)
    }

    #[test]
    fn learns_linear_function() {
        let (xs, ys) = grid_dataset(|a, b| 3.0 * a - 2.0 * b + 1.0);
        let config = TrainConfig {
            epochs: 300,
            ..TrainConfig::default()
        };
        let model = Regressor::fit(&xs, &ys, &[8], &config).unwrap();
        let preds = model.predict_batch(&xs);
        assert!(r2_score(&ys, &preds) > 0.99, "r2 {}", r2_score(&ys, &preds));
    }

    #[test]
    fn learns_nonlinear_function() {
        let (xs, ys) = grid_dataset(|a, b| a * b + 0.5 * a * a);
        let config = TrainConfig {
            epochs: 600,
            learning_rate: 3e-3,
            patience: 100,
            ..TrainConfig::default()
        };
        let model = Regressor::fit(&xs, &ys, &[24, 24], &config).unwrap();
        let preds = model.predict_batch(&xs);
        assert!(mae(&ys, &preds) < 0.05, "mae {}", mae(&ys, &preds));
    }

    #[test]
    fn training_is_deterministic() {
        let (xs, ys) = grid_dataset(|a, b| a + b);
        let config = TrainConfig {
            epochs: 50,
            ..TrainConfig::default()
        };
        let m1 = Regressor::fit(&xs, &ys, &[8], &config).unwrap();
        let m2 = Regressor::fit(&xs, &ys, &[8], &config).unwrap();
        assert_eq!(m1.predict(&[0.3, 0.4]), m2.predict(&[0.3, 0.4]));
    }

    #[test]
    fn early_stopping_reports_epoch() {
        let (xs, ys) = grid_dataset(|a, _| a);
        let config = TrainConfig {
            epochs: 1000,
            patience: 5,
            ..TrainConfig::default()
        };
        let (_, report) = Regressor::fit_reporting(&xs, &ys, &[4], &config).unwrap();
        assert!(report.stopped_epoch <= 1000);
        assert!(!report.val_loss.is_empty());
    }

    #[test]
    fn tiny_datasets_train_with_the_fixed_validation_split() {
        // round(0.2 n) holds out 0, 0, 1, 1 rows and always leaves one
        // to train on.
        for (n, n_val) in [(1usize, 0usize), (2, 0), (3, 1), (4, 1)] {
            let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64]).collect();
            let ys: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let config = TrainConfig {
                epochs: 30,
                patience: 3,
                ..TrainConfig::default()
            };
            let (model, report) = Regressor::fit_reporting(&xs, &ys, &[4], &config)
                .unwrap_or_else(|e| panic!("n={n}: {e:?}"));
            assert_eq!((report.n_train, report.n_val), (n - n_val, n_val), "n={n}");
            assert_eq!(report.val_loss.is_empty(), n_val == 0, "n={n}");
            assert!(report.train_loss.iter().all(|l| l.is_finite()));
            assert!(model.predict(&[0.5]).is_finite());
        }
    }

    #[test]
    fn early_stopping_falls_back_to_training_loss_without_validation() {
        // Two rows hold out round(0.4) = 0 for validation.
        let xs: Vec<Vec<f64>> = (0..2).map(|i| vec![i as f64]).collect();
        let ys: Vec<f64> = (0..2).map(|i| i as f64).collect();
        let config = TrainConfig {
            epochs: 100,
            patience: 3,
            // Zero learning rate freezes the loss, so the training-loss
            // monitor sees no improvement and patience must trigger.
            learning_rate: 0.0,
            ..TrainConfig::default()
        };
        let (_, report) = Regressor::fit_reporting(&xs, &ys, &[4], &config).unwrap();
        assert_eq!(report.n_val, 0);
        assert!(report.val_loss.is_empty());
        assert_eq!(
            report.stopped_epoch,
            1 + config.patience,
            "patience over the training loss must stop the run"
        );
        assert!(report.stopped_epoch < config.epochs);
    }

    #[test]
    fn rejects_bad_datasets() {
        let config = TrainConfig::default();
        assert!(Regressor::fit(&[], &[], &[4], &config).is_err());
        assert!(Regressor::fit(&[vec![1.0]], &[1.0, 2.0], &[4], &config).is_err());
        assert!(Regressor::fit(&[vec![1.0], vec![1.0, 2.0]], &[1.0, 2.0], &[4], &config).is_err());
    }

    #[test]
    fn default_training_is_pinned() {
        // A seeded fit at the default configuration with two hidden
        // layers: the split, batching, optimizer and activations all
        // feed this digest, so any change to the arithmetic moves it.
        let (xs, ys) = grid_dataset(|a, b| a * b + 0.5 * a - b);
        let (model, report) =
            Regressor::fit_reporting(&xs, &ys, &[8, 6], &TrainConfig::default()).unwrap();
        assert!(report.n_val > 0, "the pin must cover the validation split");
        let mut h = Fnv64::new();
        for losses in [&report.train_loss, &report.val_loss] {
            h.write_u64(losses.len() as u64);
            for l in losses {
                h.write_u64(l.to_bits());
            }
        }
        h.write_u64(report.stopped_epoch as u64);
        h.write_u64(report.n_train as u64);
        h.write_u64(report.n_val as u64);
        let probes: Vec<Vec<f64>> = (0..16)
            .map(|i| vec![f64::from(i) / 8.0 - 1.05, 0.95 - f64::from(i) / 9.0])
            .collect();
        for p in model.predict_batch(&probes) {
            h.write_u64(p.to_bits());
        }
        assert_eq!(h.finish(), PINNED_DEFAULT_TRAINING);
    }

    #[test]
    fn parameter_count_is_positive() {
        let (xs, ys) = grid_dataset(|a, _| a);
        let model = Regressor::fit(
            &xs,
            &ys,
            &[4],
            &TrainConfig {
                epochs: 1,
                ..TrainConfig::default()
            },
        )
        .unwrap();
        assert_eq!(model.parameter_count(), 2 * 4 + 4 + 4 + 1);
    }
}
