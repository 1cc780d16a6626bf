//! `catalog_cold`: stage 1 at autoAx scale — cold builds of the
//! generative operator catalog (`GenSpace::standard()`) into an empty
//! disk-tier cache, one shard per operation.
//!
//! The composed part of the standard space is split into shards of one
//! `(compression range, LOA width)` pair each, across every truncation,
//! vertical- and horizontal-break value; shards therefore cost about the
//! same, and the seed only chooses which of them a round builds. The
//! pure architecture families are built once per set-up.

use crate::layers::record_program_metrics;
use crate::replay::{self, stride_sample};
use crate::run::{run_rounds, timed_setups, write_f64, Outcome, Plan, JOBS};
use clapped::axops::{
    build_mul_table, gen_cache_in_memory, gen_cache_with_disk, table_digest, GenSpace,
    GenerativeCatalog, MulArch,
};
use clapped::core::{Engine, ExecConfig};
use clapped::exec::{job_seed, Fnv64};
use clapped::netlist::SynthConfig;
use clapped::obs::Stopwatch;
use std::collections::BTreeSet;
use std::path::Path;

/// Shards one round builds.
const ROUND_SHARDS: usize = 6;
/// Behaviourally distinct operators among the pure architecture
/// families (exact multiplier included).
const PURE_DISTINCT: usize = 73;
/// Specs replayed per traced run, and the seed salt choosing them.
const REPLAY_SPECS: usize = 16;
const REPLAY_SALT: u64 = 0x5245_504c;
/// Entries whose behaviour digest is recomputed from the netlist.
const SPOT_CHECKS: usize = 4;

/// The standard space split into equal-cost shards plus the pure-family
/// space, with a check that together they enumerate it exactly.
struct ShardPlan {
    shards: Vec<GenSpace>,
    pure: GenSpace,
}

fn plan_shards() -> Result<ShardPlan, String> {
    let standard = GenSpace::standard();
    let (mut trunc, mut vbl, mut hbl, mut cmp, mut loa) = (
        BTreeSet::new(),
        BTreeSet::new(),
        BTreeSet::new(),
        BTreeSet::new(),
        BTreeSet::new(),
    );
    let mut composed = 0usize;
    for spec in standard.specs() {
        if let MulArch::Composed(c) = spec.arch {
            composed += 1;
            trunc.insert(c.trunc);
            vbl.insert(c.vbl);
            hbl.insert(c.hbl);
            cmp.insert((c.cmp_lo, c.cmp));
            loa.insert(c.loa);
        }
    }
    let axis = |s: &BTreeSet<u8>| s.iter().copied().collect::<Vec<u8>>();
    let (trunc, vbl, hbl) = (axis(&trunc), axis(&vbl), axis(&hbl));
    let shards: Vec<GenSpace> = cmp
        .iter()
        .flat_map(|&c| loa.iter().map(move |&l| (c, l)))
        .map(|(c, l)| GenSpace::with_grids(&trunc, &vbl, &hbl, &[c], &[l], false))
        .collect();
    let pure = GenSpace::with_grids(&[], &[], &[], &[], &[], true);
    // Every space enumerates the exact multiplier first: count it once.
    let sharded: usize = shards.iter().map(|s| s.len() - 1).sum::<usize>() + 1;
    if sharded != composed || composed + pure.len() - 1 != standard.len() {
        return Err(format!(
            "shards enumerate {sharded} composed + {} pure specs, standard space has {composed} composed of {}",
            pure.len() - 1,
            standard.len()
        ));
    }
    Ok(ShardPlan { shards, pure })
}

/// Seeded Fisher-Yates permutation of `0..n`.
fn permutation(seed: u64, n: usize) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for k in (1..n).rev() {
        p.swap(k, (job_seed(seed, k) % (k as u64 + 1)) as usize);
    }
    p
}

fn digest_catalog(h: &mut Fnv64, (shard, cat): &(usize, GenerativeCatalog)) {
    h.write_u64(*shard as u64);
    for e in cat.iter() {
        h.write_str(&e.name);
        h.write_u64(e.behaviour_digest);
        e.features.to_vec().iter().for_each(|&v| write_f64(h, v));
    }
}

/// Cache directory of round `round`: every round starts from an empty
/// one, so every build in the measured phase is cold.
fn round_dir(dir: &Path, round: usize) -> std::path::PathBuf {
    dir.join(format!("cache{round}"))
}

/// Set-up: plan the shards, start the engine and build the pure-family
/// catalog cold (in memory).
fn setup() -> Result<(ShardPlan, Engine, GenerativeCatalog), String> {
    let plan = plan_shards()?;
    let engine = Engine::new(ExecConfig::with_jobs(JOBS));
    let pure = GenerativeCatalog::build(
        &plan.pure,
        &engine,
        &gen_cache_in_memory(plan.pure.len() + 1),
    );
    Ok((plan, engine, pure))
}

/// `catalog_cold`: rounds of [`ROUND_SHARDS`] seeded shards, each round
/// built back to back into a fresh cache over an empty directory.
pub fn run(plan: &Plan) -> Result<Outcome, String> {
    let (setups, (shards, engine, pure)) = timed_setups(plan, |_| setup())?;
    let order = permutation(plan.seed, shards.shards.len());
    let capacity = shards.shards.iter().map(GenSpace::len).max().unwrap_or(0) + 1;
    let m = run_rounds(
        plan,
        ROUND_SHARDS,
        |r| Ok(gen_cache_with_disk(capacity, round_dir(&plan.dir, r))),
        |cache, i| {
            let shard = order[i];
            Ok((
                shard,
                GenerativeCatalog::build(&shards.shards[shard], &engine, cache),
            ))
        },
        digest_catalog,
    )?;
    let built = &m.first;
    let rounds = m.rounds.len();

    let mut out = Outcome::new(setups, &m);
    let stats: Vec<_> = built.iter().map(|(_, c)| *c.stats()).collect();
    let raw: usize = stats.iter().map(|s| s.raw_specs).sum();
    let distinct: usize = stats.iter().map(|s| s.distinct).sum();
    let tables: u64 = stats.iter().map(|s| s.tables_built).sum();
    let rejects: usize = stats.iter().map(|s| s.lint_rejects + s.synth_rejects).sum();
    out.attempted = (raw * rounds) as u64;
    out.failed = (rejects * rounds) as u64;
    out.gate(
        "no_rejects",
        rejects == 0,
        format!("{rejects} lint/synthesis rejects in {raw} specs"),
    );
    // Cold: every spec simulated except, after the first shard of a round,
    // the exact multiplier every shard starts with.
    let bad = built
        .iter()
        .filter(|(_, c)| {
            c.entries().first().is_none_or(|e| e.features.mae != 0.0)
                || c.stats().tables_built + 1 < c.stats().raw_specs as u64
        })
        .count();
    out.gate(
        "shards_cold_and_exact_first",
        bad == 0,
        format!("{bad} shards lack an exact first entry or replayed cached specs"),
    );
    out.gate(
        "pure_family_distinct",
        pure.len() == PURE_DISTINCT && pure.stats().lint_rejects + pure.stats().synth_rejects == 0,
        format!(
            "{} distinct pure-family operators, expected {PURE_DISTINCT}",
            pure.len()
        ),
    );

    // Warm rebuild: a fresh cache instance over round 0's directory must
    // replay every shard without simulating a table.
    let t = Stopwatch::start();
    let mut warm_tables = 0u64;
    let mut diverged = 0usize;
    let cache = gen_cache_with_disk(capacity, round_dir(&plan.dir, 0));
    for (shard, cold) in built {
        let warm = GenerativeCatalog::build(&shards.shards[*shard], &engine, &cache);
        warm_tables += warm.stats().tables_built;
        diverged += usize::from(
            warm.len() != cold.len()
                || warm
                    .iter()
                    .zip(cold.iter())
                    .any(|(a, b)| a.behaviour_digest != b.behaviour_digest),
        );
    }
    let replay_s = t.elapsed().as_secs_f64();
    out.gate(
        "warm_rebuild_replays",
        warm_tables == 0 && diverged == 0,
        format!("{warm_tables} tables simulated, {diverged} shards diverged"),
    );
    let entries: Vec<_> = built.iter().flat_map(|(_, c)| c.iter()).collect();
    let spot = stride_sample(&entries, SPOT_CHECKS);
    let wrong = spot
        .iter()
        .filter(|e| table_digest(&build_mul_table(&e.arch.build_netlist())) != e.behaviour_digest)
        .count();
    out.gate(
        "behaviour_digests_recompute",
        wrong == 0,
        format!("{wrong} of {} spot-checked digests differ", spot.len()),
    );

    out.info(
        "distinct_ratio",
        distinct as f64 / raw.max(1) as f64,
        "ratio",
        format!("{distinct} distinct of {raw} raw specs (per shard) in {ROUND_SHARDS} shards"),
    );
    out.info(
        "warm_rebuild_s",
        replay_s,
        "s",
        format!("{ROUND_SHARDS} shards from the disk tier"),
    );
    out.layers
        .set("axops.tables_built", tables as f64 / ROUND_SHARDS as f64);
    out.layers
        .set("axops.distinct_ratio", distinct as f64 / raw.max(1) as f64);
    out.layers
        .set("exec.disk_replay_s", replay_s / ROUND_SHARDS as f64);

    if plan.trace {
        let ops = m.ops();
        let tables = tables * rounds as u64;
        record_program_metrics(&mut out.layers, &m);
        let archs: Vec<MulArch> = built
            .iter()
            .flat_map(|(s, _)| shards.shards[*s].specs().iter().map(|g| g.arch))
            .collect();
        // Seeded picks: a fixed stride would follow the shards' layout
        // (position in a shard sets the break lines, hence the cost).
        let sample: Vec<MulArch> = (0..REPLAY_SPECS)
            .map(|k| archs[(job_seed(plan.seed ^ REPLAY_SALT, k) % archs.len() as u64) as usize])
            .collect();
        let exact = MulArch::Exact.build_netlist();
        let synth = SynthConfig {
            verify_rounds: 0,
            formal_verify_limit: None,
            ..SynthConfig::default()
        };
        clapped::obs::reset();
        clapped::obs::enable();
        for arch in &sample {
            replay::catalog_spec(arch, &exact, &synth)?;
        }
        let scale = tables as f64 / sample.len().max(1) as f64;
        out.layers.add_replay(|_| scale, ops);
        out.info(
            "replayed_specs",
            sample.len() as f64,
            "count",
            format!("scaled x{scale:.1} to the {tables} tables built"),
        );
    }
    Ok(out)
}
