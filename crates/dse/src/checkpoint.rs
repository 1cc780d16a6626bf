//! Checkpoint / resume for MBO runs.
//!
//! A checkpoint captures the complete [`MboState`]: the configuration,
//! every evaluated point, the hypervolume trace, the phase counters and
//! — crucially — the exact RNG stream position (ChaCha8 seed plus word
//! position), so a resumed run replays the same random choices the
//! uninterrupted run would have made. Serialization is plain JSON with
//! deterministic key order, making checkpoints diffable and
//! byte-comparable.

#![warn(clippy::expect_used, clippy::disallowed_types)]

use crate::mbo::{check_config, MboConfig, MboState};
use crate::space::Configuration;
use crate::{DseError, Result};
use clapped_exec::json::{self, FieldError, FromJson};
use clapped_imgproc::ConvMode;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::{json, Value};

/// Version tag written into every checkpoint; bumped on schema changes.
/// Version 2 added `eval_digests` (content digests of the evaluated
/// configurations, for cache replay on resume); version-1 checkpoints
/// are still readable, their digests defaulting to zero.
const CHECKPOINT_VERSION: u64 = 2;

/// JSON conversion for candidate types carried through a checkpoint.
///
/// Implemented for `Vec<f64>` (generic numeric genomes) and for
/// [`Configuration`] (the paper's cross-layer design point).
pub trait CheckpointCodec: Sized {
    /// Encodes the candidate as a JSON value.
    fn to_checkpoint_json(&self) -> Value;
    /// Decodes a candidate from a JSON value.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Checkpoint`] when the value does not encode a
    /// valid candidate.
    fn from_checkpoint_json(value: &Value) -> Result<Self>;
}

fn bad(reason: impl Into<String>) -> DseError {
    DseError::Checkpoint { reason: reason.into() }
}

impl CheckpointCodec for Vec<f64> {
    fn to_checkpoint_json(&self) -> Value {
        Value::from(self.clone())
    }

    fn from_checkpoint_json(value: &Value) -> Result<Vec<f64>> {
        Ok(Vec::from_json(value, "candidate")?)
    }
}

impl CheckpointCodec for Configuration {
    fn to_checkpoint_json(&self) -> Value {
        json!({
            "window": self.window,
            "stride": self.stride,
            "downsample": self.downsample,
            "mode": match self.mode {
                ConvMode::TwoD => "2d",
                ConvMode::Separable => "separable",
            },
            "scale": self.scale,
            "mul_indices": self.mul_indices.clone(),
        })
    }

    fn from_checkpoint_json(value: &Value) -> Result<Configuration> {
        let mode = match json::field(value, "mode")? {
            "2d" => ConvMode::TwoD,
            "separable" => ConvMode::Separable,
            other => return Err(bad(format!("unknown conv mode `{other}`"))),
        };
        Ok(Configuration {
            window: json::field(value, "window")?,
            stride: json::field(value, "stride")?,
            downsample: json::field(value, "downsample")?,
            mode,
            scale: json::field(value, "scale")?,
            mul_indices: json::field(value, "mul_indices")?,
        })
    }
}

impl MboConfig {
    /// Encodes the configuration as the JSON object MBO checkpoints
    /// and serve job specs embed; [`FromJson`] decodes it.
    pub fn to_json(&self) -> Value {
        json!({
            "initial_samples": self.initial_samples,
            "iterations": self.iterations,
            "batch": self.batch,
            "candidates": self.candidates,
            "reference": self.reference.clone(),
            "kappa": self.kappa,
            "explore_fraction": self.explore_fraction,
            "seed": self.seed,
        })
    }
}

/// Reads the fields only; semantic checks (such as the reference point)
/// are the caller's.
impl FromJson<'_> for MboConfig {
    fn from_json(value: &Value, _name: &str) -> std::result::Result<MboConfig, FieldError> {
        Ok(MboConfig {
            initial_samples: json::field(value, "initial_samples")?,
            iterations: json::field(value, "iterations")?,
            batch: json::field(value, "batch")?,
            candidates: json::field(value, "candidates")?,
            reference: json::field(value, "reference")?,
            kappa: json::field(value, "kappa")?,
            explore_fraction: json::field(value, "explore_fraction")?,
            seed: json::field(value, "seed")?,
        })
    }
}

impl<C: CheckpointCodec + Clone> MboState<C> {
    /// Serializes the full state — config, evaluations, trace, phase
    /// counters and exact RNG position — to a JSON string with
    /// deterministic key ordering.
    pub fn to_checkpoint(&self) -> String {
        let word_pos = self.rng.get_word_pos();
        let state = json!({
            "version": CHECKPOINT_VERSION,
            "config": self.config.to_json(),
            "rng": {
                "seed": self.rng.get_seed().iter().map(|&b| u64::from(b)).collect::<Vec<_>>(),
                "word_pos_hi": (word_pos >> 64) as u64,
                "word_pos_lo": word_pos as u64,
            },
            "evaluated": self
                .evaluated
                .iter()
                .map(|(c, o)| json!({
                    "candidate": c.to_checkpoint_json(),
                    "objectives": o.clone(),
                }))
                .collect::<Vec<_>>(),
            "eval_digests": self.eval_digests.clone(),
            "hv_trace": self
                .hv_trace
                .iter()
                .map(|&(n, h)| json!([n, h]))
                .collect::<Vec<_>>(),
            "initial_done": self.initial_done,
            "iterations_done": self.iterations_done,
        });
        serde_json::to_string_pretty(&state).unwrap_or_else(|_| String::from("{}"))
    }

    /// Restores a state previously produced by
    /// [`MboState::to_checkpoint`]. Stepping the restored state yields
    /// exactly the evaluations the uninterrupted run would have made.
    ///
    /// # Errors
    ///
    /// Returns [`DseError::Checkpoint`] on malformed JSON, an unknown
    /// schema version, an unusable reference point, an overflowing plan,
    /// or inconsistent fields.
    pub fn from_checkpoint(text: &str) -> Result<MboState<C>> {
        let root: Value =
            serde_json::from_str(text).map_err(|e| bad(format!("invalid JSON: {e}")))?;
        let version = json::version(&root, 1..=CHECKPOINT_VERSION)?;

        let config: MboConfig = json::field(&root, "config")?;
        check_config(&config).map_err(|e| bad(e.to_string()))?;

        let r: &Value = json::field(&root, "rng")?;
        let seed_words: Vec<u64> = json::field(r, "seed")?;
        if seed_words.len() != 32 {
            return Err(bad(format!("rng seed has {} bytes, expected 32", seed_words.len())));
        }
        let mut seed = [0u8; 32];
        for (dst, &byte) in seed.iter_mut().zip(&seed_words) {
            *dst = u8::try_from(byte)
                .map_err(|_| bad(format!("rng seed byte {byte} out of range")))?;
        }
        let hi: u64 = json::field(r, "word_pos_hi")?;
        let lo: u64 = json::field(r, "word_pos_lo")?;
        let mut rng = ChaCha8Rng::from_seed(seed);
        rng.set_word_pos((u128::from(hi) << 64) | u128::from(lo));

        let mut evaluated = Vec::new();
        for entry in json::field::<&[Value]>(&root, "evaluated")? {
            let candidate = C::from_checkpoint_json(json::field(entry, "candidate")?)?;
            let objectives: Vec<f64> = json::field(entry, "objectives")?;
            if objectives.len() != config.reference.len() {
                return Err(bad(format!(
                    "objective vector of dim {} vs reference dim {}",
                    objectives.len(),
                    config.reference.len()
                )));
            }
            evaluated.push((candidate, objectives));
        }

        // Version 1 predates digest tracking: default to zero ("no
        // digest recorded"), which downstream treats as un-replayable.
        let eval_digests: Vec<u64> = if version >= 2 {
            let digests: Vec<u64> = json::field(&root, "eval_digests")?;
            if digests.len() != evaluated.len() {
                return Err(bad(format!(
                    "{} eval digests for {} evaluations",
                    digests.len(),
                    evaluated.len()
                )));
            }
            digests
        } else {
            vec![0; evaluated.len()]
        };

        let mut hv_trace = Vec::new();
        for pair in json::field::<Vec<&[Value]>>(&root, "hv_trace")? {
            let [count, hv] = pair else {
                return Err(bad("hv_trace entries must be [count, hv] pairs"));
            };
            hv_trace.push((usize::from_json(count, "hv_trace")?, f64::from_json(hv, "hv_trace")?));
        }

        let initial_done: bool = json::field(&root, "initial_done")?;
        let iterations_done: usize = json::field(&root, "iterations_done")?;
        if iterations_done > config.iterations {
            return Err(bad(format!(
                "iterations_done {iterations_done} exceeds configured {}",
                config.iterations
            )));
        }

        Ok(MboState {
            config,
            rng,
            evaluated,
            eval_digests,
            hv_trace,
            initial_done,
            iterations_done,
            features: Vec::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbo::MboState;
    use crate::{BatchOutcome, DesignSpace};
    use rand::Rng;

    fn toy_objective(c: &[f64]) -> Vec<f64> {
        let x = (c[0] + c[1]) / 2.0;
        vec![x, (1.0 - x) * (1.0 - x) + 0.05 * (c[0] - c[1]).abs()]
    }

    fn toy_sample(rng: &mut ChaCha8Rng) -> Vec<f64> {
        vec![rng.gen_range(0.0..1.0), rng.gen_range(0.0..1.0)]
    }

    fn toy_batch(cs: &[Vec<f64>]) -> Vec<BatchOutcome> {
        cs.iter().map(|c| BatchOutcome { objectives: toy_objective(c), digest: 0 }).collect()
    }

    fn config() -> MboConfig {
        MboConfig {
            initial_samples: 6,
            iterations: 4,
            batch: 3,
            candidates: 12,
            reference: vec![1.5, 1.5],
            kappa: 1.0,
            explore_fraction: 0.1,
            seed: 17,
        }
    }

    fn run_to_completion(mut state: MboState<Vec<f64>>) -> crate::SearchResult<Vec<f64>> {
        let mut sample = toy_sample;
        let encode = |c: &Vec<f64>| c.clone();
        while !state.is_complete() {
            state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        }
        state.into_result()
    }

    #[test]
    fn checkpoint_roundtrip_is_byte_identical() {
        let mut state = MboState::<Vec<f64>>::new(&config()).unwrap();
        let mut sample = toy_sample;
        let encode = |c: &Vec<f64>| c.clone();
        state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        let text = state.to_checkpoint();
        let restored = MboState::<Vec<f64>>::from_checkpoint(&text).unwrap();
        assert_eq!(restored.to_checkpoint(), text);
    }

    #[test]
    fn resume_reproduces_uninterrupted_run() {
        let cfg = config();
        let uninterrupted = run_to_completion(MboState::new(&cfg).unwrap());

        let mut state = MboState::<Vec<f64>>::new(&cfg).unwrap();
        let mut sample = toy_sample;
        let encode = |c: &Vec<f64>| c.clone();
        // Initial phase + 2 of 4 iterations, then "crash".
        for _ in 0..3 {
            state.step(&mut sample, &encode, &mut toy_batch).unwrap();
        }
        let text = state.to_checkpoint();
        drop(state);
        let resumed = run_to_completion(MboState::from_checkpoint(&text).unwrap());

        assert_eq!(resumed.hv_trace, uninterrupted.hv_trace);
        assert_eq!(resumed.evaluated, uninterrupted.evaluated);
        assert_eq!(resumed.pareto_indices(), uninterrupted.pareto_indices());
    }

    #[test]
    fn configuration_codec_roundtrips() {
        use rand::SeedableRng;
        let space = DesignSpace::paper_default(18);
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        for _ in 0..20 {
            let c = space.sample(&mut rng);
            let v = c.to_checkpoint_json();
            let back = Configuration::from_checkpoint_json(&v).unwrap();
            assert_eq!(back, c);
        }
    }

    #[test]
    fn malformed_checkpoints_are_rejected() {
        assert!(MboState::<Vec<f64>>::from_checkpoint("not json").is_err());
        assert!(MboState::<Vec<f64>>::from_checkpoint("{}").is_err());
        let wrong_version = r#"{"version": 99}"#;
        assert!(matches!(
            MboState::<Vec<f64>>::from_checkpoint(wrong_version),
            Err(DseError::Checkpoint { .. })
        ));
        // An empty reference point would reach `hypervolume`'s
        // dimension assertion on the first iteration step.
        let fresh = MboState::<Vec<f64>>::new(&config()).unwrap().to_checkpoint();
        let mut doc: Value = serde_json::from_str(&fresh).unwrap();
        doc["config"]["reference"] = json!([]);
        doc["initial_done"] = json!(true);
        assert!(matches!(
            MboState::<Vec<f64>>::from_checkpoint(&doc.to_string()),
            Err(DseError::Checkpoint { .. })
        ));
        // Nor may a restored plan overflow usize.
        let mut doc: Value = serde_json::from_str(&fresh).unwrap();
        doc["config"]["iterations"] = json!(usize::MAX / 2);
        assert!(matches!(
            MboState::<Vec<f64>>::from_checkpoint(&doc.to_string()),
            Err(DseError::Checkpoint { .. })
        ));
    }
}
