//! Pins the MBO checkpoint format and fuzzes its decoder.
//!
//! `PINNED` is the `Fnv64` digest of the checkpoint a fixed, seeded
//! `MboState<Configuration>` run writes after two steps (the initial
//! phase plus one acquisition iteration); any codec change that moves a
//! byte of the document fails the pin. The fuzz half asserts that every
//! truncation of that document is rejected and that single-byte
//! corruptions decode to `Ok` or `Err` but never panic.

use clapped_dse::{BatchOutcome, Configuration, DesignSpace, MboConfig, MboState};
use clapped_exec::Fnv64;
use proptest::prelude::*;
use rand_chacha::ChaCha8Rng;
use std::sync::OnceLock;

const PINNED: u64 = 8855264624773839508;

/// Bytes a corruption draws from half of the time: the JSON grammar's
/// structural characters, so mutations reach the field readers instead
/// of stopping at the parser.
const GRAMMAR: &[u8] = b"0123456789-+.eE\"{}[],: ntfrul\\";

fn config() -> MboConfig {
    MboConfig {
        initial_samples: 6,
        iterations: 4,
        batch: 3,
        candidates: 12,
        reference: vec![100.0, 100.0],
        kappa: 1.0,
        explore_fraction: 0.1,
        seed: 17,
    }
}

fn objectives(c: &Configuration) -> Vec<f64> {
    let taps = c.active_mul_indices();
    let mean = taps.iter().sum::<usize>() as f64 / taps.len() as f64;
    vec![mean * 3.7 + c.scale as f64, 90.0 / (1.0 + mean) + c.window as f64 * 0.3]
}

fn checkpoint() -> &'static str {
    static TEXT: OnceLock<String> = OnceLock::new();
    TEXT.get_or_init(|| {
        let space = DesignSpace::paper_default(18);
        let mut state = MboState::<Configuration>::new(&config()).expect("valid config");
        let mut sample = |rng: &mut ChaCha8Rng| space.sample(rng);
        let encode = |c: &Configuration| {
            let mut v = c.dof_features();
            v.extend(c.mul_indices.iter().map(|&i| i as f64));
            v
        };
        let mut evaluate = |cs: &[Configuration]| -> Vec<BatchOutcome> {
            cs.iter().map(|c| BatchOutcome { objectives: objectives(c), digest: 0 }).collect()
        };
        for _ in 0..2 {
            state.step(&mut sample, &encode, &mut evaluate).expect("step");
        }
        state.to_checkpoint()
    })
}

fn digest(text: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(text.as_bytes());
    h.finish()
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let text = checkpoint();
    assert_eq!(digest(text), PINNED, "checkpoint format moved:\n{text}");
}

#[test]
fn every_truncated_checkpoint_is_rejected() {
    let text = checkpoint().trim();
    for cut in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert!(
            MboState::<Configuration>::from_checkpoint(&text[..cut]).is_err(),
            "prefix of {cut} bytes decoded"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn corrupted_checkpoints_never_panic(
        position in any::<usize>(),
        byte in any::<u8>(),
        grammar in any::<bool>(),
    ) {
        let mut bytes = checkpoint().as_bytes().to_vec();
        let at = position % bytes.len();
        bytes[at] = if grammar { GRAMMAR[usize::from(byte) % GRAMMAR.len()] } else { byte };
        let text = String::from_utf8_lossy(&bytes);
        let _ = MboState::<Configuration>::from_checkpoint(&text);
    }
}
