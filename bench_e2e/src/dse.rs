//! `dse_true`, `dse_cached` and `dse_ml`: the paper's cross-layer
//! exploration (Fig. 12a true mode, Fig. 12b ML mode) through
//! `clapped::core::explore`.

use crate::layers::record_program_metrics;
use crate::replay::{self, stride_sample};
use crate::run::{run_rounds, timed_setups, write_f64, Outcome, Plan, JOBS};
use crate::stats::{mean, median};
use clapped::core::{
    explore, Clapped, EstimationMode, ExecConfig, ExploreOptions, ExploreResult, MulRepr,
};
use clapped::dse::{dominates, hypervolume, Configuration, MboConfig};
use clapped::exec::{job_seed, Fnv64};
use clapped::mlp::Regressor;

/// Side length of the workload images.
pub const IMAGE: usize = 32;
/// Hypervolume reference point `[error %, LUTs]`.
pub const REFERENCE: [f64; 2] = [30.0, 4000.0];
/// Objective values at or above this are failure sentinels.
pub const SENTINEL: f64 = f64::MAX / 8.0;
/// Explorations per round of `dse_true`.
const TRUE_OPS: usize = 2;
/// Distinct explorations `dse_cached` replays (one round replays each
/// once), and their seed salt.
const CACHED_ORIGINALS: usize = 2;
const CACHED_SALT: u64 = 0x4341_4348;
/// Explorations per round of `dse_ml`.
const ML_OPS: usize = 2;
/// Configurations replayed per traced run.
const REPLAY_CONFIGS: usize = 24;
/// Training samples of one ML-mode exploration. Each costs a serial
/// synthesis of ~0.1 s, so the training set is kept small: GP fits and
/// acquisition, not synthesis, are what this workload measures.
const ML_TRAINING: usize = 8;
/// Framework seed of `dse_ml`. `explore` draws the training set from the
/// framework seed, and the synthesis time of its labels depends on the
/// configurations drawn, so the framework is the same for every
/// `--seed`, which varies the searches only.
const ML_FRAMEWORK_SEED: u64 = 1;
/// MBO of one ML-mode exploration: random evaluations, iterations,
/// batch and candidates per iteration: 260 ML evaluations against the
/// 400 of the paper's Fig. 12b search, large enough that GP fits and
/// acquisition take most of the time.
const ML_MBO: [usize; 4] = [60, 20, 10, 150];
/// Multiplier representation of surrogate features (the default of
/// `ExploreOptions` and serve sessions).
const SURROGATE_REPR: MulRepr = MulRepr::Coeffs(4);

/// A framework over the standard catalog with its operator library
/// characterized — what a user builds before exploring.
pub fn framework(seed: u64) -> Result<Clapped, String> {
    let fw = Clapped::builder()
        .image_size(IMAGE)
        .seed(seed)
        .exec(ExecConfig::with_jobs(JOBS))
        .build()
        .map_err(|e| e.to_string())?;
    fw.op_library().map_err(|e| e.to_string())?;
    Ok(fw)
}

fn mbo(
    initial_samples: usize,
    iterations: usize,
    batch: usize,
    candidates: usize,
    seed: u64,
) -> MboConfig {
    MboConfig {
        initial_samples,
        iterations,
        batch,
        candidates,
        reference: REFERENCE.to_vec(),
        kappa: 1.0,
        explore_fraction: 0.1,
        seed,
    }
}

/// True/True exploration number `index`: 8 random + 2 × 4 acquired
/// evaluations.
fn true_options(seed: u64, index: usize) -> ExploreOptions {
    ExploreOptions {
        error_mode: EstimationMode::True,
        hw_mode: EstimationMode::True,
        training_samples: 0,
        mbo: mbo(8, 2, 4, 20, job_seed(seed, index)),
        actual_eval: false,
        ..ExploreOptions::default()
    }
}

/// ML/ML exploration number `index`: [`ML_TRAINING`] training samples,
/// then [`ML_MBO`] over the trained surrogates.
fn ml_options(seed: u64, index: usize) -> ExploreOptions {
    let [initial, iterations, batch, candidates] = ML_MBO;
    ExploreOptions {
        error_mode: EstimationMode::Ml,
        hw_mode: EstimationMode::Ml,
        repr: SURROGATE_REPR,
        training_samples: ML_TRAINING,
        mbo: mbo(
            initial,
            iterations,
            batch,
            candidates,
            job_seed(seed, index),
        ),
        actual_eval: false,
        ..ExploreOptions::default()
    }
}

/// Gates that every exploration made exactly the evaluations `opts`
/// plans; `counts` holds each exploration's evaluation count.
fn gate_plan(out: &mut Outcome, opts: &ExploreOptions, counts: &[usize]) {
    let plan = opts.mbo.initial_samples + opts.mbo.iterations * opts.mbo.batch;
    let off = counts.iter().filter(|&&n| n != plan).count();
    out.gate(
        "evaluations_match_plan",
        off == 0,
        format!(
            "{off} of {} explorations off the {plan}-evaluation plan",
            counts.len()
        ),
    );
}

/// Whether `points` are non-empty, finite and mutually non-dominated.
pub fn sound_front(points: &[[f64; 2]]) -> bool {
    !points.is_empty()
        && points
            .iter()
            .all(|p| p.iter().all(|v| v.is_finite() && *v < SENTINEL))
        && points
            .iter()
            .all(|a| points.iter().all(|b| !dominates(a, b)))
}

/// Hypervolume of the non-dominated subset of `points`.
pub fn front_hypervolume(points: &[[f64; 2]]) -> f64 {
    let front: Vec<[f64; 2]> = points
        .iter()
        .filter(|a| !points.iter().any(|b| dominates(b, *a)))
        .copied()
        .collect();
    hypervolume(&front, &REFERENCE)
}

/// Folds a configuration into a digest.
pub fn write_config(h: &mut Fnv64, c: &Configuration) {
    h.write_str(&format!("{c:?}"));
}

fn searched(r: &ExploreResult) -> Vec<[f64; 2]> {
    r.pareto.iter().map(|p| p.searched).collect()
}

fn digest_result(h: &mut Fnv64, r: &ExploreResult) {
    h.write_u64(r.search.evaluated.len() as u64);
    for p in &r.pareto {
        write_config(h, &p.config);
        p.searched
            .iter()
            .chain(p.actual.iter().flatten())
            .for_each(|&v| write_f64(h, v));
    }
}

/// Digest of a whole search trace: every evaluated configuration and its
/// objectives, in evaluation order.
fn trace_digest(r: &ExploreResult) -> u64 {
    let mut h = Fnv64::new();
    for (c, objectives) in &r.search.evaluated {
        write_config(&mut h, c);
        objectives.iter().for_each(|&v| write_f64(&mut h, v));
    }
    h.finish()
}

fn sentinels(r: &ExploreResult) -> u64 {
    r.search
        .evaluated
        .iter()
        .flat_map(|(_, o)| o)
        .filter(|&&v| v >= SENTINEL)
        .count() as u64
}

/// Evaluations and sentinel objectives of round 0's explorations,
/// scaled to every round (each repeats round 0, as a gate checks).
fn count_work(out: &mut Outcome, first: &[ExploreResult], rounds: usize) {
    let per_round = |f: fn(&ExploreResult) -> u64| first.iter().map(f).sum::<u64>();
    out.attempted = per_round(|r| r.search.evaluated.len() as u64) * rounds as u64;
    out.failed = per_round(sentinels) * rounds as u64;
}

/// Counts points whose objectives `fw`'s direct true estimators do not
/// reproduce exactly: the cached exploration path must agree with a
/// plain serial call.
pub fn direct_mismatches(
    fw: &Clapped,
    points: &[(Configuration, [f64; 2])],
) -> Result<usize, String> {
    let mut bad = 0;
    for (c, [err, luts]) in points {
        let e = fw
            .evaluate_error(c)
            .map_err(|e| e.to_string())?
            .error_percent;
        let l = fw.characterize_hw(c).map_err(|e| e.to_string())?.luts as f64;
        bad += usize::from(e.max(0.0) != err.max(0.0) || l != *luts);
    }
    Ok(bad)
}

/// `dse_true`: every round builds a fresh framework (timed as a set-up:
/// an empty result cache) and runs [`TRUE_OPS`] True/True explorations on
/// it, a seeded MBO seed each.
pub fn run_true(plan: &Plan) -> Result<Outcome, String> {
    let m = run_rounds(
        plan,
        TRUE_OPS,
        |_| framework(plan.seed),
        |fw, i| explore(fw, &true_options(plan.seed, i)).map_err(|e| e.to_string()),
        digest_result,
    )?;
    let mut out = Outcome::new(m.prepare.clone(), &m);
    count_work(&mut out, &m.first, m.rounds.len());
    let counts: Vec<usize> = m.first.iter().map(|r| r.search.evaluated.len()).collect();
    gate_plan(&mut out, &true_options(plan.seed, 0), &counts);
    let unsound = m
        .first
        .iter()
        .filter(|r| !sound_front(&searched(r)))
        .count();
    out.gate(
        "fronts_sound",
        unsound == 0,
        format!("{unsound} fronts empty, non-finite or self-dominated"),
    );
    let fw = framework(plan.seed)?;
    let first: Vec<(Configuration, [f64; 2])> = m.first[0]
        .pareto
        .iter()
        .map(|p| (p.config.clone(), p.searched))
        .collect();
    let bad = direct_mismatches(&fw, &first)?;
    out.gate(
        "front_matches_direct_evaluation",
        bad == 0,
        format!("{bad} of {} points of exploration 0 differ", first.len()),
    );

    let hv: Vec<f64> = m
        .first
        .iter()
        .map(|r| front_hypervolume(&searched(r)))
        .collect();
    out.info(
        "hypervolume",
        median(&hv),
        "hv",
        format!("median of the {TRUE_OPS} explorations, deterministic"),
    );
    out.layers.set("dse.hypervolume", median(&hv));

    if plan.trace {
        let ops = m.ops();
        record_program_metrics(&mut out.layers, &m);
        out.layers
            .set("core.sentinel_objectives", out.failed as f64 / ops as f64);
        let configs: Vec<Configuration> = m
            .first
            .iter()
            .flat_map(|r| r.search.evaluated.iter().map(|(c, _)| c.clone()))
            .collect();
        let computed = m.snap.counter("exec.cache.miss") as f64;
        let encoded = ops as f64 * surrogate_encodings(&true_options(plan.seed, 0).mbo);
        replay_configs(&mut out, &fw, &configs, computed, encoded, ops)?;
    }
    Ok(out)
}

/// Surrogate feature encodings one MBO run makes: every evaluated
/// configuration again at each GP fit, plus every candidate.
pub fn surrogate_encodings(mbo: &MboConfig) -> f64 {
    let refits: usize = (0..mbo.iterations)
        .map(|k| mbo.initial_samples + k * mbo.batch)
        .sum();
    (refits + mbo.iterations * mbo.candidates) as f64
}

/// What a replayed exploration returns: enough to check it reproduced its
/// original.
#[derive(Debug)]
struct Replayed {
    trace_digest: u64,
    evaluations: usize,
    sentinels: u64,
}

/// `dse_cached`: after [`CACHED_ORIGINALS`] True/True explorations on one
/// framework, every round re-runs each of them, so all their evaluations
/// are answered by the result cache: the path left is cache lookups,
/// encodings, GP fits and acquisition.
pub fn run_cached(plan: &Plan) -> Result<Outcome, String> {
    let (setups, fw) = timed_setups(plan, |_| framework(plan.seed))?;
    let options = |k: usize| true_options(plan.seed ^ CACHED_SALT, k);
    let originals: Vec<ExploreResult> = (0..CACHED_ORIGINALS)
        .map(|k| explore(&fw, &options(k)).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let digests: Vec<u64> = originals.iter().map(trace_digest).collect();
    let misses = fw.cache_stats().misses;
    let m = run_rounds(
        plan,
        CACHED_ORIGINALS,
        |_| Ok(()),
        |(), i| {
            let r = explore(&fw, &options(i)).map_err(|e| e.to_string())?;
            Ok(Replayed {
                trace_digest: trace_digest(&r),
                evaluations: r.search.evaluated.len(),
                sentinels: sentinels(&r),
            })
        },
        |h, r| h.write_u64(r.trace_digest),
    )?;
    let misses = fw.cache_stats().misses - misses;

    let mut out = Outcome::new(setups, &m);
    let rounds = m.rounds.len() as u64;
    let counts: Vec<usize> = m.first.iter().map(|r| r.evaluations).collect();
    out.attempted = counts.iter().sum::<usize>() as u64 * rounds;
    out.failed = m.first.iter().map(|r| r.sentinels).sum::<u64>() * rounds;
    gate_plan(&mut out, &options(0), &counts);
    let differ = m
        .first
        .iter()
        .zip(&digests)
        .filter(|(r, &d)| r.trace_digest != d)
        .count();
    out.gate(
        "replays_match_originals",
        differ == 0,
        format!(
            "{differ} of {CACHED_ORIGINALS} replayed search traces differ from their original"
        ),
    );
    out.gate(
        "replays_hit_cache",
        misses == 0,
        format!("{misses} result-cache misses while replaying"),
    );
    let hv: Vec<f64> = originals
        .iter()
        .map(|r| front_hypervolume(&searched(r)))
        .collect();
    out.info(
        "hypervolume",
        median(&hv),
        "hv",
        format!("median of the {CACHED_ORIGINALS} originals, deterministic"),
    );
    out.layers.set("dse.hypervolume", median(&hv));

    if plan.trace {
        let ops = m.ops();
        record_program_metrics(&mut out.layers, &m);
        let configs: Vec<Configuration> = originals
            .iter()
            .flat_map(|r| r.search.evaluated.iter().map(|(c, _)| c.clone()))
            .collect();
        let encoded = ops as f64 * surrogate_encodings(&options(0).mbo);
        replay_configs(&mut out, &fw, &configs, 0.0, encoded, ops)?;
    }
    Ok(out)
}

/// `dse_ml`: rounds of [`ML_OPS`] ML/ML explorations on one long-lived
/// framework (a seeded MBO seed each). Every exploration trains both
/// surrogates on the framework's training set, as `explore` does, then
/// searches over them; nothing it computes is cached, so every round
/// repeats the same work. The front is re-evaluated after the measured
/// phase: its size, and with it the synthesis time, differs from seed to
/// seed.
pub fn run_ml(plan: &Plan) -> Result<Outcome, String> {
    let (setups, fw) = timed_setups(plan, |_| framework(ML_FRAMEWORK_SEED))?;
    let m = run_rounds(
        plan,
        ML_OPS,
        |_| Ok(()),
        |(), i| explore(&fw, &ml_options(plan.seed, i)).map_err(|e| e.to_string()),
        digest_result,
    )?;
    let mut out = Outcome::new(setups, &m);
    count_work(&mut out, &m.first, m.rounds.len());
    let counts: Vec<usize> = m.first.iter().map(|r| r.search.evaluated.len()).collect();
    gate_plan(&mut out, &ml_options(plan.seed, 0), &counts);
    let unsound = m
        .first
        .iter()
        .filter(|r| !sound_front(&searched(r)))
        .count();
    out.gate(
        "fronts_sound",
        unsound == 0,
        format!("{unsound} fronts empty, non-finite or self-dominated"),
    );

    // True re-evaluation of each front: the actual-eval front, and the
    // surrogates' LUT error on it.
    let mut hv = Vec::new();
    let mut gap = Vec::new();
    for r in &m.first {
        let mut actual = Vec::new();
        for p in &r.pareto {
            let err = fw.evaluate_error(&p.config).map_err(|e| e.to_string())?;
            let luts = fw.characterize_hw(&p.config).map_err(|e| e.to_string())?.luts as f64;
            gap.push((p.searched[1] - luts).abs() / luts.max(1.0) * 100.0);
            actual.push([err.error_percent.max(0.0), luts]);
        }
        hv.push(front_hypervolume(&actual));
    }
    out.gate(
        "fronts_reevaluate",
        hv.iter().chain(&gap).all(|v| v.is_finite()) && hv.iter().all(|&v| v > 0.0),
        format!("hypervolumes {hv:?} of the re-evaluated fronts"),
    );
    out.info(
        "hypervolume",
        median(&hv),
        "hv",
        "front re-evaluated with true estimators, deterministic",
    );
    out.info(
        "ml_gap_pct",
        mean(&gap),
        "%",
        "mean |predicted - actual| / actual LUTs on the front, deterministic",
    );
    out.layers.set("dse.hypervolume", median(&hv));
    out.layers.set("mlp.gap_pct", mean(&gap));

    if plan.trace {
        let ops = m.ops();
        record_program_metrics(&mut out.layers, &m);
        out.layers
            .set("core.sentinel_objectives", out.failed as f64 / ops as f64);
        replay_ml(&mut out, &fw, plan.seed, &m.first[0], ops)?;
    }
    Ok(out)
}

/// Replays a stride sample of `configs`: encodings, and (when the phase
/// computed any evaluations) true evaluation and synthesis. Evaluation
/// and synthesis spans scale to `computed` calls, encodings to `encoded`
/// calls, over `ops` operations.
pub fn replay_configs(
    out: &mut Outcome,
    fw: &Clapped,
    configs: &[Configuration],
    computed: f64,
    encoded: f64,
    ops: usize,
) -> Result<(), String> {
    let sample = stride_sample(configs, REPLAY_CONFIGS);
    clapped::obs::reset();
    clapped::obs::enable();
    let mut char_ms = Vec::new();
    for c in &sample {
        replay::encode(fw, c, SURROGATE_REPR)?;
        if computed > 0.0 {
            replay::evaluate(fw, c)?;
            char_ms.push(replay::characterize(fw, c)?.1);
        }
    }
    let n = sample.len().max(1) as f64;
    out.layers.add_replay(
        |span| {
            if span == "bench.replay.core.encode" {
                encoded / n
            } else {
                computed / n
            }
        },
        ops,
    );
    if !char_ms.is_empty() {
        out.layers
            .set("accel.characterize_ms_p50", median(&char_ms));
    }
    Ok(())
}

/// Replays ML exploration 0 serially: the training set's evaluations,
/// encodings and synthesized LUT labels, both surrogate fits, and the
/// encodings and predictions of every ML evaluation. Every exploration has
/// the same shape, so exploration 0 stands for each of the `ops`;
/// encodings scale up to include the surrogate features MBO computes.
fn replay_ml(
    out: &mut Outcome,
    fw: &Clapped,
    seed: u64,
    first: &ExploreResult,
    ops: usize,
) -> Result<(), String> {
    let opts = ml_options(seed, 0);
    clapped::obs::reset();
    clapped::obs::enable();
    let (configs, xs, ys) = {
        // The dataset is the replay's input, not a replayed layer call.
        clapped::obs::disable();
        let d = fw.make_error_dataset(opts.training_samples, opts.repr, fw.seed() ^ 0x7777);
        clapped::obs::enable();
        d.map_err(|e| e.to_string())?
    };
    let mut char_ms = Vec::new();
    let mut hw_xs = Vec::new();
    let mut lut_ys = Vec::new();
    for c in &configs {
        replay::evaluate(fw, c)?;
        hw_xs.push(replay::encode(fw, c, opts.repr)?.1);
        let (luts, ms) = replay::characterize(fw, c)?;
        lut_ys.push(luts as f64);
        char_ms.push(ms);
    }
    // Both surrogates, with the hidden layers and training settings
    // `explore` uses.
    let mut models = Vec::new();
    for (inputs, targets) in [(&xs, &ys), (&hw_xs, &lut_ys)] {
        let _s = clapped::obs::span("bench.replay.mlp.fit");
        models.push(
            Regressor::fit(inputs, targets, &[32, 16], &opts.train).map_err(|e| e.to_string())?,
        );
    }
    let evaluated = &first.search.evaluated;
    for (c, _) in evaluated {
        let (x, hw) = replay::encode(fw, c, opts.repr)?;
        for (model, input) in models.iter().zip([x, hw]) {
            let _s = clapped::obs::span("bench.replay.mlp.predict");
            std::hint::black_box(model.predict(&input));
        }
    }
    let replayed = (configs.len() + evaluated.len()) as f64;
    let encodings = replayed + surrogate_encodings(&opts.mbo);
    out.layers.add_replay(
        |span| {
            if span == "bench.replay.core.encode" {
                ops as f64 * encodings / replayed
            } else {
                ops as f64
            }
        },
        ops,
    );
    out.layers
        .set("accel.characterize_ms_p50", median(&char_ms));
    Ok(())
}
