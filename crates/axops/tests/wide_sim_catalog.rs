//! Wide-word equivalence over the whole operator catalog: for every
//! standard multiplier netlist, `simulate_blocks::<W>` must be
//! bit-identical to lane-by-lane `simulate_words` for
//! W ∈ {1, 2, 4, 8, 16} (partial final blocks included), the wide
//! exhaustive table builder must reproduce the 64-lane reference table
//! exactly, with and without injected faults, and the sharded stuck-at
//! campaign must reproduce its serial reference on every multiplier
//! and adder.

use clapped_axops::adders::{standard_adders, Add8s};
use clapped_axops::{
    build_mul_table, build_mul_table_ref64, build_mul_table_with_faults, Catalog, Mul8s,
};
use clapped_exec::{Engine, ExecConfig};
use clapped_netlist::{FaultKind, FaultSet, Netlist, SignalId};

/// Deterministic xorshift stimulus — no RNG crates in test inputs.
struct Stim(u64);

impl Stim {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

fn assert_blocks_match_words<const W: usize>(n: &Netlist, name: &str, stim: &mut Stim) {
    let n_inputs = n.inputs().len();
    // One partial and one full block per width.
    for batches in [1, W] {
        let word_batches: Vec<Vec<u64>> =
            (0..batches).map(|_| (0..n_inputs).map(|_| stim.next()).collect()).collect();
        let blocks: Vec<[u64; W]> = (0..n_inputs)
            .map(|k| {
                let mut block = [0u64; W];
                for (w, batch) in word_batches.iter().enumerate() {
                    block[w] = batch[k];
                }
                block
            })
            .collect();
        let wide = n.simulate_blocks::<W>(&blocks).expect("wide simulates");
        for (w, batch) in word_batches.iter().enumerate() {
            let narrow = n.simulate_words(batch).expect("narrow simulates");
            for (k, out) in wide.iter().enumerate() {
                assert_eq!(out[w], narrow[k], "{name}: W={W} word={w} output={k}");
            }
        }
    }
}

#[test]
fn catalog_wide_blocks_match_words_for_all_widths() {
    let cat = Catalog::standard();
    assert!(cat.len() >= 24, "standard catalog shrank unexpectedly");
    let mut stim = Stim(0x9E3779B97F4A7C15);
    for m in cat.iter() {
        let name = Mul8s::name(&**m).to_string();
        let n = m.netlist();
        assert_blocks_match_words::<1>(n, &name, &mut stim);
        assert_blocks_match_words::<2>(n, &name, &mut stim);
        assert_blocks_match_words::<4>(n, &name, &mut stim);
        // The production widths: campaigns and streamsim run W = 8,
        // table derivation runs W = 16.
        assert_blocks_match_words::<8>(n, &name, &mut stim);
        assert_blocks_match_words::<16>(n, &name, &mut stim);
    }
}

#[test]
fn catalog_wide_tables_match_ref64_tables() {
    let cat = Catalog::standard();
    for m in cat.iter() {
        let name = Mul8s::name(&**m).to_string();
        let n = m.netlist();
        assert_eq!(
            build_mul_table(n),
            build_mul_table_ref64(n, &FaultSet::empty()),
            "{name}: wide table diverges from 64-lane reference"
        );
    }
}

#[test]
fn faulted_wide_tables_match_ref64_tables() {
    let cat = Catalog::standard();
    for name in ["mul8s_exact", "mul8s_tr4"] {
        let op = cat.get(name).expect("catalog operator");
        let n = op.netlist();
        let mid = SignalId::from_index(n.len() / 2);
        let out7 = n.outputs()[7].1;
        for faults in [
            FaultSet::empty().stuck_at(mid, FaultKind::StuckAt1),
            // Lane-specific upsets: the wide sweep must flip the same
            // (a, b) pairs as the 64-lane batches of the reference.
            FaultSet::empty().transient(out7, 0x8000_0000_0000_0101).transient(mid, 0xf0),
        ] {
            let wide = build_mul_table_with_faults(n, &faults).expect("fault sites are in range");
            assert_eq!(wide, build_mul_table_ref64(n, &faults), "{name}: {faults:?}");
            assert_ne!(wide, build_mul_table(n), "{name}: {faults:?} must corrupt the table");
        }
    }
}

#[test]
fn catalog_campaigns_match_reference() {
    let cat = Catalog::standard();
    let adders = standard_adders();
    let netlists = cat
        .iter()
        .map(|m| (Mul8s::name(&**m).to_string(), m.netlist()))
        .chain(adders.iter().map(|a| (Add8s::name(&**a).to_string(), a.netlist())));
    let engines = [Engine::serial(), Engine::new(ExecConfig::with_jobs(3))];
    let mut stim = Stim(0xC2B2AE3D27D4EB4F);
    let mut checked = 0;
    for (name, n) in netlists {
        let sites = n.fault_sites();
        // Ten batches fill one wide block and part of a second; 64
        // lanes and a partial lane count exercise both lane masks.
        let batches: Vec<Vec<u64>> =
            (0..10).map(|_| (0..n.inputs().len()).map(|_| stim.next()).collect()).collect();
        for lanes in [64, 23] {
            let reference = n.stuck_at_campaign_ref(&sites, &batches, lanes).expect("reference");
            for engine in &engines {
                let wide = n.stuck_at_campaign(&sites, &batches, lanes, engine).expect("campaign");
                assert_eq!(wide, reference, "{name}: lanes={lanes} jobs={}", engine.jobs());
            }
        }
        checked += 1;
    }
    assert_eq!(checked, 35, "24 multipliers and 11 adders");
}
