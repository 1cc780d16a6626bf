//! The generative operator catalog: thousands of multiplier
//! configurations enumerated from the architecture generators, built
//! once, cached forever.
//!
//! [`GenSpace`] crosses the [`crate::MulArch::Composed`] axes
//! (truncation × broken-array lines × approximate 4:2 compression ×
//! LOA final adder) with the pure architecture families (Booth, DRUM,
//! Mitchell, …) into a raw spec list. [`GenerativeCatalog::build`]
//! shards the cold build over an [`Engine`]: per spec it derives the
//! netlist, validates it with the structural lint pass, simulates the
//! exhaustive behavioural table, digests the behaviour, and
//! characterizes cheap per-operator features (error statistics from the
//! table, gate/depth/fanout from the lint stats, LUT/delay/power/PDP
//! from one-shot synthesis). The resulting [`GenRecord`] is published
//! to a [`ResultCache`] keyed by a stable *spec digest* — so a warm
//! rebuild never builds a netlist, never simulates a table and never
//! synthesizes: it replays records straight from the (disk-backed)
//! cache. Entries are deduplicated by behaviour digest: two specs whose
//! exhaustive tables are identical collapse to the first one
//! enumerated.
//!
//! This reproduces the front half of the autoAx methodology (Mrazek et
//! al., arXiv 1902.10807): a large generated library with cheap
//! per-operator features, ready for learned quality/cost pre-filtering
//! (`clapped-core`'s `prefilter` module) before MBO ever sees it.

#![warn(clippy::expect_used)]

use crate::table::build_mul_table;
use crate::{ComposedSpec, MulArch};
use clapped_exec::{
    CacheCodec, Engine, Fnv64, ResultCache, StructDigest, CODE_VERSION_SALT,
};
use clapped_netlist::{
    analyze_error_bounds, lint_netlist, synthesize, ErrBoundConfig, SynthConfig,
};
use serde_json::Value;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache-role salt partitioning generative-catalog records from every
/// other consumer of a shared cache directory.
const GEN_ROLE_SALT: u64 = 0x4745_4e43_4154_0902; // "GENCAT" v02

/// Number of scalar features in a [`GenFeatures`] vector.
pub const GEN_FEATURE_DIM: usize = 15;

/// One named architecture specification of the generative space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GenSpec {
    /// Unique operator name within the space.
    pub name: String,
    /// The architecture to instantiate.
    pub arch: MulArch,
}

/// The enumerated generative configuration space: an ordered list of
/// named architecture specs. Order matters — behaviour-digest
/// deduplication keeps the first spec of each equivalence class, and
/// the space always enumerates the exact multiplier first.
#[derive(Debug, Clone)]
pub struct GenSpace {
    specs: Vec<GenSpec>,
}

impl GenSpace {
    /// The full generative space: the composed Baugh-Wooley grid
    /// (truncation × break lines × ranged compression × LOA) crossed
    /// with the pure architecture families — several thousand raw specs,
    /// well over a thousand distinct behaviours after deduplication.
    ///
    /// The composed grid deliberately overlaps the pure families (a
    /// vertical break at `k` empties the low columns exactly like a
    /// truncation at `k`), so the raw space carries known duplicate mass
    /// that exercises the behaviour-digest dedup at scale.
    pub fn standard() -> GenSpace {
        let mut cmp = vec![(0u8, 0u8)];
        for lo in [0u8, 2, 4, 6, 8, 10] {
            for wid in [2u8, 3, 4, 6] {
                let hi = (lo + wid).min(14);
                if !cmp.contains(&(lo, hi)) {
                    cmp.push((lo, hi));
                }
            }
        }
        GenSpace::with_grids(
            &[0],
            &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10],
            &[0, 1, 2, 3, 4],
            &cmp,
            &[0, 4, 6, 8],
            true,
        )
    }

    /// A CI-sized space (a couple hundred specs): the same structure as
    /// [`GenSpace::standard`] on much coarser grids.
    pub fn quick() -> GenSpace {
        GenSpace::with_grids(
            &[0, 2],
            &[0, 4, 8],
            &[0, 2],
            &[(0, 0), (0, 8), (4, 8)],
            &[0, 6],
            true,
        )
    }

    /// Builds a space from explicit per-axis grids for the composed
    /// family (`cmp` entries are `(cmp_lo, cmp)` column ranges),
    /// optionally appending the pure architecture families. The all-zero
    /// composed spec (the exact multiplier) is always enumerated first,
    /// whether or not the grids contain zero.
    pub fn with_grids(
        trunc: &[u8],
        vbl: &[u8],
        hbl: &[u8],
        cmp: &[(u8, u8)],
        loa: &[u8],
        pure_families: bool,
    ) -> GenSpace {
        let mut specs = Vec::new();
        let exact = ComposedSpec { trunc: 0, vbl: 0, hbl: 0, cmp_lo: 0, cmp: 0, loa: 0 };
        specs.push(GenSpec { name: exact.name(), arch: MulArch::Composed(exact) });
        for &t in trunc {
            for &v in vbl {
                for &h in hbl {
                    for &(c_lo, c) in cmp {
                        for &l in loa {
                            let spec = ComposedSpec {
                                trunc: t,
                                vbl: v,
                                hbl: h,
                                cmp_lo: c_lo,
                                cmp: c,
                                loa: l,
                            };
                            if spec.is_exact() {
                                continue; // already first
                            }
                            specs.push(GenSpec {
                                name: spec.name(),
                                arch: MulArch::Composed(spec),
                            });
                        }
                    }
                }
            }
        }
        if pure_families {
            for k in 1..=8usize {
                specs.push(GenSpec {
                    name: format!("mul8s_gtr{k}"),
                    arch: MulArch::Truncated { k },
                });
            }
            for v in 1..=10usize {
                for h in 0..=4usize {
                    specs.push(GenSpec {
                        name: format!("mul8s_gbam_v{v}_h{h}"),
                        arch: MulArch::BrokenArray { vbl: v, hbl: h },
                    });
                }
            }
            for c in 1..=16usize {
                specs.push(GenSpec {
                    name: format!("mul8s_gcmp{c}"),
                    arch: MulArch::ApproxCompressor { cols: c },
                });
            }
            for k in 1..=12usize {
                specs.push(GenSpec {
                    name: format!("mul8s_gloa{k}"),
                    arch: MulArch::LoaFinal { k },
                });
            }
            specs.push(GenSpec { name: "mul8s_glog".to_string(), arch: MulArch::Mitchell });
            for k in 3..=7usize {
                specs.push(GenSpec { name: format!("mul8s_gdrum{k}"), arch: MulArch::Drum { k } });
            }
            for t in 0..=8usize {
                specs.push(GenSpec {
                    name: format!("mul8s_gbooth{t}"),
                    arch: MulArch::Booth { trunc: t },
                });
            }
        }
        GenSpace { specs }
    }

    /// The raw (pre-deduplication) spec list, in enumeration order.
    pub fn specs(&self) -> &[GenSpec] {
        &self.specs
    }

    /// Number of raw specs.
    pub fn len(&self) -> usize {
        self.specs.len()
    }

    /// True when the space holds no specs.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }
}

/// Cheap per-operator features, the autoAx pre-filter input: error
/// statistics from the exhaustive behavioural table, structure from the
/// netlist lint stats, and cost proxies from one-shot synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct GenFeatures {
    /// Mean absolute error over the full 65 536-pair input space.
    pub mae: f64,
    /// Root-mean-square error.
    pub rms: f64,
    /// Fraction of input pairs with a non-zero error.
    pub error_prob: f64,
    /// Largest absolute error.
    pub max_abs_error: f64,
    /// Signed mean error (bias).
    pub mean_error: f64,
    /// Logic gates (lint stats, pre-optimization).
    pub logic_gates: f64,
    /// Logic depth in gate levels.
    pub depth: f64,
    /// Largest signal fanout.
    pub max_fanout: f64,
    /// Mean fanout over read signals.
    pub mean_fanout: f64,
    /// LUTs after k-LUT technology mapping.
    pub luts: f64,
    /// Critical-path delay in nanoseconds.
    pub delay_ns: f64,
    /// Total estimated power in milliwatts.
    pub power_mw: f64,
    /// Power-delay product proxy in picojoules (`power_mw × delay_ns`).
    pub pdp_pj: f64,
    /// Statically *proved* worst-case error bound from the interval
    /// error-bound analyzer (`clapped-netlist`'s `errbound`) — an upper
    /// bound on `max_abs_error` that costs microseconds, not an
    /// exhaustive table.
    pub proved_wce: f64,
    /// Statically proved error-rate bound: `0` when the analyzer proves
    /// the operator exact, `1` otherwise (interval tier cannot count
    /// mismatches).
    pub proved_error_rate: f64,
}

impl GenFeatures {
    /// The features as a fixed-order vector of [`GEN_FEATURE_DIM`]
    /// scalars (the pre-filter model input encoding).
    pub fn to_vec(&self) -> Vec<f64> {
        vec![
            self.mae,
            self.rms,
            self.error_prob,
            self.max_abs_error,
            self.mean_error,
            self.logic_gates,
            self.depth,
            self.max_fanout,
            self.mean_fanout,
            self.luts,
            self.delay_ns,
            self.power_mw,
            self.pdp_pj,
            self.proved_wce,
            self.proved_error_rate,
        ]
    }

    /// Rebuilds features from a [`GenFeatures::to_vec`] vector; `None`
    /// if the dimension is wrong or any value is non-finite.
    pub(crate) fn from_vec(v: &[f64]) -> Option<GenFeatures> {
        if v.len() != GEN_FEATURE_DIM || v.iter().any(|x| !x.is_finite()) {
            return None;
        }
        Some(GenFeatures {
            mae: v[0],
            rms: v[1],
            error_prob: v[2],
            max_abs_error: v[3],
            mean_error: v[4],
            logic_gates: v[5],
            depth: v[6],
            max_fanout: v[7],
            mean_fanout: v[8],
            luts: v[9],
            delay_ns: v[10],
            power_mw: v[11],
            pdp_pj: v[12],
            proved_wce: v[13],
            proved_error_rate: v[14],
        })
    }
}

/// The cached build product of one spec: its behaviour digest and
/// feature vector. Everything a warm catalog rebuild needs — tables and
/// netlists are only ever derived cold.
#[derive(Debug, Clone, PartialEq)]
pub struct GenRecord {
    /// FNV-1a digest of the exhaustive behavioural table.
    pub behaviour_digest: u64,
    /// The operator's pre-filter features.
    pub features: GenFeatures,
}

impl CacheCodec for GenRecord {
    fn to_cache_json(&self) -> Option<Value> {
        let features: Option<Vec<Value>> = self
            .features
            .to_vec()
            .iter()
            .map(|f| f.to_cache_json())
            .collect();
        let mut obj = serde_json::Map::new();
        obj.insert("bd".to_string(), Value::from(self.behaviour_digest));
        obj.insert("f".to_string(), Value::Array(features?));
        Some(Value::Object(obj))
    }

    fn from_cache_json(value: &Value) -> Option<Self> {
        let behaviour_digest = value.get("bd")?.as_u64()?;
        let raw: Option<Vec<f64>> = value
            .get("f")?
            .as_array()?
            .iter()
            .map(|v| v.as_f64())
            .collect();
        let features = GenFeatures::from_vec(&raw?)?;
        Some(GenRecord { behaviour_digest, features })
    }
}

/// One deduplicated operator of a built [`GenerativeCatalog`].
#[derive(Debug, Clone)]
pub struct GenEntry {
    /// Unique operator name (from the first spec of the behaviour
    /// class).
    pub name: String,
    /// The architecture to instantiate for this entry.
    pub arch: MulArch,
    /// FNV-1a digest of the exhaustive behavioural table.
    pub behaviour_digest: u64,
    /// The operator's pre-filter features.
    pub features: GenFeatures,
}

/// Counters of one [`GenerativeCatalog::build`] run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GenBuildStats {
    /// Raw specs enumerated.
    pub raw_specs: usize,
    /// Specs rejected by the structural netlist lint.
    pub lint_rejects: usize,
    /// Specs rejected because synthesis failed.
    pub synth_rejects: usize,
    /// Exhaustive behavioural tables actually simulated by this build —
    /// zero on a fully warm cache.
    pub tables_built: u64,
    /// Distinct behaviours after deduplication.
    pub distinct: usize,
    /// Specs collapsed into an earlier entry with identical behaviour.
    pub duplicates: usize,
}

/// A built, deduplicated generative catalog: lazily-materializable
/// entries with behaviour digests and pre-filter features.
#[derive(Debug, Clone)]
pub struct GenerativeCatalog {
    entries: Vec<GenEntry>,
    stats: GenBuildStats,
}

impl GenerativeCatalog {
    /// Builds the catalog from a spec space, sharding cold per-spec work
    /// over `engine` and replaying warm specs from `cache` (construct it
    /// with [`gen_cache_with_disk`] / [`gen_cache_in_memory`] so key
    /// salting is consistent).
    ///
    /// Cold path per spec: build netlist → structural lint (unclean
    /// specs are rejected) → exhaustive behavioural table → behaviour
    /// digest → feature extraction → publish the record. Warm path:
    /// one cache probe by spec digest, nothing else — no netlist, no
    /// simulation, no synthesis. The result is deterministic and
    /// thread-count independent: records are pure functions of their
    /// spec, and dedup runs over results in enumeration order.
    pub fn build(
        space: &GenSpace,
        engine: &Engine,
        cache: &ResultCache<GenRecord>,
    ) -> GenerativeCatalog {
        let tables_built = AtomicU64::new(0);
        let lint_rejects = AtomicU64::new(0);
        let synth_rejects = AtomicU64::new(0);
        let synth_cfg = SynthConfig {
            verify_rounds: 0,
            formal_verify_limit: None,
            ..SynthConfig::default()
        };
        // Interval-only static error bounds against one shared exact
        // reference: the BDD exact tier is disabled (`bdd_node_limit: 0`)
        // because it costs hundreds of milliseconds per 8×8 miter, while
        // the interval pass costs microseconds and still proves
        // exact-behaviour specs equal through congruence.
        let exact_ref = MulArch::Exact.build_netlist();
        let errbound_cfg = ErrBoundConfig { bdd_node_limit: 0, signed_outputs: true };
        let records: Vec<Option<GenRecord>> =
            engine.evaluate_many(space.specs(), |_, spec| {
                let key = spec_digest(&spec.arch);
                if let Some(rec) = cache.get(key) {
                    return Some(rec);
                }
                let netlist = spec.arch.build_netlist();
                let report = lint_netlist(&netlist);
                if !report.is_clean() {
                    lint_rejects.fetch_add(1, Ordering::Relaxed);
                    clapped_obs::count("axops.gen.lint_reject", 1);
                    return None;
                }
                let table = build_mul_table(&netlist);
                tables_built.fetch_add(1, Ordering::Relaxed);
                clapped_obs::count("axops.gen.table_built", 1);
                let behaviour_digest = table_digest(&table);
                let Ok(synth) = synthesize(&netlist, &synth_cfg) else {
                    synth_rejects.fetch_add(1, Ordering::Relaxed);
                    clapped_obs::count("axops.gen.synth_reject", 1);
                    return None;
                };
                let bounds = analyze_error_bounds(&netlist, &exact_ref, &errbound_cfg);
                let (proved_wce, proved_error_rate) = match &bounds {
                    Ok(b) => (b.best_wce() as f64, b.proved_error_rate()),
                    // Interface mismatch against the reference cannot
                    // happen for generated 8×8 specs; fall back to the
                    // trivial sound bounds rather than reject the spec.
                    Err(_) => (f64::from(u16::MAX), 1.0),
                };
                let stats = &report.stats;
                let power_mw = synth.power.total_mw();
                let features = GenFeatures {
                    mae: table_mae(&table),
                    rms: table_rms(&table),
                    error_prob: table_error_prob(&table),
                    max_abs_error: table_max_abs(&table),
                    mean_error: table_bias(&table),
                    logic_gates: stats.logic_gates as f64,
                    depth: f64::from(stats.depth),
                    max_fanout: f64::from(stats.max_fanout),
                    mean_fanout: stats.mean_fanout,
                    luts: synth.lut_count as f64,
                    delay_ns: synth.cpd_ns,
                    power_mw,
                    pdp_pj: power_mw * synth.cpd_ns,
                    proved_wce,
                    proved_error_rate,
                };
                let rec = GenRecord { behaviour_digest, features };
                cache.insert(key, rec.clone());
                Some(rec)
            });
        // Deduplicate by behaviour digest, keeping the first spec of
        // each class (enumeration order — the exact multiplier leads).
        let mut seen: std::collections::BTreeSet<u64> = std::collections::BTreeSet::new();
        let mut entries = Vec::new();
        let mut duplicates = 0usize;
        for (spec, rec) in space.specs().iter().zip(&records) {
            let Some(rec) = rec else { continue };
            if seen.insert(rec.behaviour_digest) {
                entries.push(GenEntry {
                    name: spec.name.clone(),
                    arch: spec.arch,
                    behaviour_digest: rec.behaviour_digest,
                    features: rec.features.clone(),
                });
            } else {
                duplicates += 1;
            }
        }
        let stats = GenBuildStats {
            raw_specs: space.len(),
            lint_rejects: lint_rejects.load(Ordering::Relaxed) as usize,
            synth_rejects: synth_rejects.load(Ordering::Relaxed) as usize,
            tables_built: tables_built.load(Ordering::Relaxed),
            distinct: entries.len(),
            duplicates,
        };
        clapped_obs::observe("axops.gen.distinct", stats.distinct as u64);
        GenerativeCatalog { entries, stats }
    }

    /// The deduplicated entries, in enumeration order (entry 0 is the
    /// exact multiplier for a [`GenSpace`]-built catalog).
    pub fn entries(&self) -> &[GenEntry] {
        &self.entries
    }

    /// Build counters of the run that produced this catalog.
    pub fn stats(&self) -> &GenBuildStats {
        &self.stats
    }

    /// Number of distinct entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry survived.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates over the entries.
    pub fn iter(&self) -> impl Iterator<Item = &GenEntry> {
        self.entries.iter()
    }
}

/// A memory-only record cache with the canonical generative-catalog key
/// salting.
pub fn gen_cache_in_memory(capacity: usize) -> ResultCache<GenRecord> {
    ResultCache::in_memory(capacity)
        .salted(CODE_VERSION_SALT)
        .salted(GEN_ROLE_SALT)
}

/// A disk-backed record cache under `dir` with the canonical
/// generative-catalog key salting — warm rebuilds replay from here
/// across processes.
pub fn gen_cache_with_disk(
    capacity: usize,
    dir: impl AsRef<std::path::Path>,
) -> ResultCache<GenRecord> {
    ResultCache::with_disk(capacity, dir)
        .salted(CODE_VERSION_SALT)
        .salted(GEN_ROLE_SALT)
}

/// Stable content digest of an architecture spec — the record cache
/// key. Derived from the spec parameters only (never the netlist), so a
/// warm rebuild computes it without building anything; the
/// [`CODE_VERSION_SALT`] folded into the cache invalidates records
/// whenever generator semantics change.
pub(crate) fn spec_digest(arch: &MulArch) -> u64 {
    StructDigest::new("axops.gen.spec")
        .field("arch", format!("{arch:?}").as_str())
        .finish()
}

/// FNV-1a digest of an exhaustive behavioural table: equal digests are
/// the dedup criterion, and the digest is a pure function of table
/// contents, so equal digests identify behaviourally identical
/// operators (modulo 64-bit collisions, which the dedup soundness tests
/// probe for).
pub fn table_digest(table: &[i16]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(table.len() as u64);
    for &v in table {
        h.write(&v.to_le_bytes());
    }
    h.finish()
}

fn table_err(table: &[i16], idx: usize) -> f64 {
    let a = (idx >> 8) as u8 as i8;
    let b = (idx & 0xff) as u8 as i8;
    f64::from(i32::from(table[idx]) - i32::from(a) * i32::from(b))
}

fn table_mae(table: &[i16]) -> f64 {
    (0..table.len()).map(|i| table_err(table, i).abs()).sum::<f64>() / table.len() as f64
}

fn table_rms(table: &[i16]) -> f64 {
    ((0..table.len()).map(|i| table_err(table, i).powi(2)).sum::<f64>() / table.len() as f64)
        .sqrt()
}

fn table_error_prob(table: &[i16]) -> f64 {
    (0..table.len()).filter(|&i| table_err(table, i) != 0.0).count() as f64 / table.len() as f64
}

fn table_max_abs(table: &[i16]) -> f64 {
    (0..table.len()).map(|i| table_err(table, i).abs()).fold(0.0, f64::max)
}

fn table_bias(table: &[i16]) -> f64 {
    (0..table.len()).map(|i| table_err(table, i)).sum::<f64>() / table.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AxMul, Mul8s};

    #[test]
    fn quick_space_builds_and_dedups() {
        let space = GenSpace::quick();
        assert!(space.len() > 20, "quick space too small: {}", space.len());
        let engine = Engine::serial();
        let cache = gen_cache_in_memory(4096);
        let cat = GenerativeCatalog::build(&space, &engine, &cache);
        let stats = cat.stats();
        assert_eq!(stats.raw_specs, space.len());
        assert_eq!(stats.lint_rejects, 0, "generated netlists must lint clean");
        assert_eq!(stats.synth_rejects, 0, "generated netlists must synthesize");
        assert!(stats.distinct >= 20, "distinct {}", stats.distinct);
        assert!(stats.duplicates > 0, "the grid must contain behavioural duplicates");
        assert_eq!(stats.distinct + stats.duplicates, stats.raw_specs);
        // Entry 0 is the exact multiplier.
        let exact = AxMul::new("exact", cat.entries()[0].arch);
        assert_eq!(exact.mul(-7, 9), -63);
        assert_eq!(cat.entries()[0].features.mae, 0.0);
        // The interval analyzer proves the exact entry equal to the
        // reference, and every entry's proved WCE dominates the observed
        // table maximum (soundness, for free in every build).
        assert_eq!(cat.entries()[0].features.proved_wce, 0.0);
        assert_eq!(cat.entries()[0].features.proved_error_rate, 0.0);
        for e in cat.iter() {
            assert!(
                e.features.proved_wce >= e.features.max_abs_error,
                "{}: proved {} < observed {}",
                e.name,
                e.features.proved_wce,
                e.features.max_abs_error
            );
        }
        // Names are unique.
        let mut names: Vec<&str> = cat.iter().map(|e| e.name.as_str()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn warm_rebuild_recomputes_nothing() {
        let space = GenSpace::quick();
        let engine = Engine::serial();
        let cache = gen_cache_in_memory(4096);
        let cold = GenerativeCatalog::build(&space, &engine, &cache);
        assert!(cold.stats().tables_built > 0, "cold build simulates tables");
        let warm = GenerativeCatalog::build(&space, &engine, &cache);
        assert_eq!(warm.stats().tables_built, 0, "warm build replays the cache");
        assert_eq!(warm.len(), cold.len());
        for (a, b) in cold.iter().zip(warm.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.behaviour_digest, b.behaviour_digest);
            assert_eq!(a.features, b.features);
        }
    }

    #[test]
    fn build_is_thread_count_independent() {
        let space = GenSpace::quick();
        let serial = GenerativeCatalog::build(&space, &Engine::serial(), &gen_cache_in_memory(4096));
        let wide = GenerativeCatalog::build(
            &space,
            &Engine::new(clapped_exec::ExecConfig::with_jobs(8)),
            &gen_cache_in_memory(4096),
        );
        assert_eq!(serial.len(), wide.len());
        for (a, b) in serial.iter().zip(wide.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.behaviour_digest, b.behaviour_digest);
            assert_eq!(a.features, b.features);
        }
    }

    #[test]
    fn record_round_trips_through_cache_json() {
        let rec = GenRecord {
            behaviour_digest: 0x1234_5678_9abc_def0,
            features: GenFeatures::from_vec(&[
                1.5, 2.5, 0.25, 800.0, -0.5, 300.0, 20.0, 9.0, 1.8, 80.0, 5.5, 12.0, 66.0,
                1024.0, 1.0,
            ])
            .expect("15 finite values"),
        };
        let json = rec.to_cache_json().expect("encodable");
        let back = GenRecord::from_cache_json(&json).expect("decodable");
        assert_eq!(back, rec);
        // Large digests survive (u64 beyond f64's 2^53 mantissa).
        let big = GenRecord { behaviour_digest: u64::MAX - 1, ..rec };
        let back = GenRecord::from_cache_json(&big.to_cache_json().expect("encodable"))
            .expect("decodable");
        assert_eq!(back.behaviour_digest, u64::MAX - 1);
        // Malformed JSON decodes to None, never panics.
        assert!(GenRecord::from_cache_json(&Value::from("nope")).is_none());
        assert!(GenRecord::from_cache_json(&Value::Array(vec![])).is_none());
    }

    #[test]
    fn spec_digest_is_stable_and_distinguishes_arches() {
        let a = spec_digest(&MulArch::Truncated { k: 3 });
        let b = spec_digest(&MulArch::Truncated { k: 4 });
        let c = spec_digest(&MulArch::Truncated { k: 3 });
        assert_eq!(a, c);
        assert_ne!(a, b);
        assert_ne!(
            spec_digest(&MulArch::Composed(ComposedSpec {
                trunc: 3,
                vbl: 0,
                hbl: 0,
                cmp_lo: 0,
                cmp: 0,
                loa: 0
            })),
            a,
            "composed and pure specs key separately even when behaviourally equal"
        );
    }

    #[test]
    #[ignore = "minutes-scale: builds the full standard space; bench_catalog pins the floor in CI"]
    fn standard_space_yields_at_least_1000_distinct_operators() {
        let space = GenSpace::standard();
        let engine = Engine::new(clapped_exec::ExecConfig::default());
        let cache = gen_cache_in_memory(space.len() + 1);
        let t0 = clapped_obs::Stopwatch::start();
        let cat = GenerativeCatalog::build(&space, &engine, &cache);
        let stats = *cat.stats();
        println!(
            "standard space: raw={} distinct={} dup={} lint_rej={} synth_rej={} cold={:?}",
            stats.raw_specs,
            stats.distinct,
            stats.duplicates,
            stats.lint_rejects,
            stats.synth_rejects,
            t0.elapsed()
        );
        assert_eq!(stats.lint_rejects, 0);
        assert_eq!(stats.synth_rejects, 0);
        assert!(stats.distinct >= 1000, "distinct {} < 1000", stats.distinct);
    }

    #[test]
    fn table_features_of_the_exact_multiplier_are_zero() {
        let table = build_mul_table(&MulArch::Exact.build_netlist());
        assert_eq!(table_mae(&table), 0.0);
        assert_eq!(table_rms(&table), 0.0);
        assert_eq!(table_error_prob(&table), 0.0);
        assert_eq!(table_max_abs(&table), 0.0);
        assert_eq!(table_bias(&table), 0.0);
        let trunc = build_mul_table(&MulArch::Truncated { k: 4 }.build_netlist());
        assert!(table_mae(&trunc) > 0.0);
        assert!(table_rms(&trunc) >= table_mae(&trunc));
        assert!(table_error_prob(&trunc) > 0.0);
    }
}
