//! Property tests pinning the wide-word block simulator bit-identical
//! to the 64-way reference path on random logic for W ∈ {1, 2, 4, 8}:
//! plain evaluation, fault-mask application (including partial final
//! blocks), and the sharded stuck-at campaign against its serial
//! reference.

use clapped_netlist::{FaultKind, FaultSet, Netlist, SignalId};
use proptest::prelude::*;

/// Builds a random DAG of gates over `n_inputs` inputs from an opcode
/// stream (same construction as `prop_netlist.rs`).
fn random_netlist(n_inputs: usize, ops: &[u8]) -> Netlist {
    let mut n = Netlist::new("rand");
    let mut sigs: Vec<_> = (0..n_inputs).map(|i| n.input(format!("i{i}"))).collect();
    for (k, &op) in ops.iter().enumerate() {
        let a = sigs[(k * 7 + 1) % sigs.len()];
        let b = sigs[(k * 13 + 3) % sigs.len()];
        let c = sigs[(k * 5 + 2) % sigs.len()];
        let s = match op % 9 {
            0 => n.and(a, b),
            1 => n.or(a, b),
            2 => n.xor(a, b),
            3 => n.nand(a, b),
            4 => n.nor(a, b),
            5 => n.xnor(a, b),
            6 => n.not(a),
            7 => n.mux(a, b, c),
            _ => n.maj(a, b, c),
        };
        sigs.push(s);
    }
    for (i, &s) in sigs.iter().rev().take(4).enumerate() {
        n.output(format!("o{i}"), s);
    }
    n
}

/// Packs up to `W` word batches into blocks: lane word `w` of every
/// input block carries batch `w` (missing batches stay zero — a partial
/// final block).
fn to_blocks<const W: usize>(word_batches: &[Vec<u64>], n_inputs: usize) -> Vec<[u64; W]> {
    assert!(word_batches.len() <= W);
    (0..n_inputs)
        .map(|k| {
            let mut block = [0u64; W];
            for (w, batch) in word_batches.iter().enumerate() {
                block[w] = batch[k];
            }
            block
        })
        .collect()
}

/// Asserts `simulate_blocks::<W>` equals lane-by-lane `simulate_words`
/// on the meaningful words, with and without an injected fault set.
fn assert_blocks_match_words<const W: usize>(
    n: &Netlist,
    word_batches: &[Vec<u64>],
    faults: &FaultSet,
) -> std::result::Result<(), String> {
    let blocks = to_blocks::<W>(word_batches, n.inputs().len());
    let wide = n.simulate_blocks_with_faults::<W>(&blocks, faults).expect("wide simulates");
    for (w, batch) in word_batches.iter().enumerate() {
        let narrow = n.simulate_words_with_faults(batch, faults).expect("narrow simulates");
        for (k, out) in wide.iter().enumerate() {
            prop_assert_eq!(out[w], narrow[k], "W={} word={} output={}", W, w, k);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Plain wide evaluation is bit-identical to the 64-way simulator
    /// for W ∈ {1, 2, 4}, full and partial blocks alike.
    #[test]
    fn wide_blocks_match_words(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        lanes in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 4), 1..=4),
    ) {
        let n = random_netlist(4, &ops);
        let empty = FaultSet::empty();
        assert_blocks_match_words::<1>(&n, &lanes[..1], &empty)?;
        assert_blocks_match_words::<2>(&n, &lanes[..lanes.len().min(2)], &empty)?;
        assert_blocks_match_words::<4>(&n, &lanes, &empty)?;
        assert_blocks_match_words::<8>(&n, &lanes, &empty)?;
    }

    /// Fault masks broadcast across every word of a block, including the
    /// padding words of a partial final block — the faulted wide path
    /// matches the faulted 64-way path word for word.
    #[test]
    fn wide_fault_masks_match_words(
        ops in proptest::collection::vec(any::<u8>(), 4..60),
        lanes in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 4), 1..=3),
        target in any::<u8>(),
        polarity in any::<bool>(),
        flip_lanes in any::<u64>(),
    ) {
        let n = random_netlist(4, &ops);
        let sig = SignalId::from_index(target as usize % n.len());
        let kind = if polarity { FaultKind::StuckAt1 } else { FaultKind::StuckAt0 };
        let faults = FaultSet::empty().stuck_at(sig, kind).transient(sig, flip_lanes);
        assert_blocks_match_words::<1>(&n, &lanes[..1], &faults)?;
        assert_blocks_match_words::<2>(&n, &lanes[..lanes.len().min(2)], &faults)?;
        assert_blocks_match_words::<4>(&n, &lanes, &faults)?;
        assert_blocks_match_words::<8>(&n, &lanes, &faults)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The wide sharded stuck-at campaign is bit-identical to the serial
    /// 64-way reference — every rate, every weighted error, at any
    /// thread count, for batch counts that leave partial final blocks
    /// and for partial lane masks.
    #[test]
    fn sharded_campaign_matches_reference(
        ops in proptest::collection::vec(any::<u8>(), 4..50),
        batches in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 4), 1..=10),
        lanes_per_batch in 1usize..=64,
    ) {
        let n = random_netlist(4, &ops);
        let sites = n.fault_sites();
        let reference = n
            .stuck_at_campaign_ref(&sites, &batches, lanes_per_batch)
            .expect("reference campaign runs");
        for jobs in [1, 3] {
            let engine = clapped_exec::Engine::new(clapped_exec::ExecConfig::with_jobs(jobs));
            let wide = n
                .stuck_at_campaign(&sites, &batches, lanes_per_batch, &engine)
                .expect("wide campaign runs");
            prop_assert_eq!(&reference.sites, &wide.sites, "jobs={}", jobs);
            prop_assert_eq!(reference.samples, wide.samples);
            prop_assert_eq!(reference.ranked_sites(), wide.ranked_sites());
        }
    }
}
