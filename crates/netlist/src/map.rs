//! Cut-based LUT-K technology mapping.
//!
//! The mapper enumerates K-feasible cuts for every logic node (priority
//! cuts with dominance pruning), selects a representative cut per node
//! (depth-oriented or area-oriented), and covers the netlist from its
//! outputs. Each selected cut becomes one K-input LUT whose truth table is
//! extracted by simulating the cut's cone. A mapped network is simulated
//! by lowering it back to a gate-level netlist of mux trees.

// lint-allow-file(no-silent-truncation): cut leaves store gate indices
// as u32; every cast round-trips a `SignalId(u32)` index through usize,
// so the value always fits.

use crate::ir::{Gate, Netlist, SignalId};
use crate::sim::eval_gate;
use crate::NetlistError;
use std::collections::{BTreeMap, HashMap, HashSet};

/// Maximum number of cuts kept per node (priority cuts).
const MAX_CUTS: usize = 12;

/// Cut selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MapStrategy {
    /// Minimize mapped depth first, then cut size. Mirrors a
    /// performance-directed FPGA flow.
    #[default]
    Depth,
    /// Minimize LUT count greedily (smallest cuts first), then depth.
    Area,
}

/// A single mapped LUT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MappedLut {
    /// The signal (in the source netlist) this LUT produces.
    pub root: SignalId,
    /// Cut leaves (signals in the source netlist), at most K of them.
    pub inputs: Vec<SignalId>,
    /// Truth table over the inputs: bit `i` gives the output when input
    /// `j` takes bit `j` of the index `i`.
    pub truth: u64,
}

/// Result of technology mapping: a LUT network equivalent to the source
/// netlist.
#[derive(Debug, Clone)]
pub struct MappedNetlist {
    /// LUT size the mapping was performed for.
    pub k: usize,
    /// Mapped LUTs in topological order.
    pub luts: Vec<MappedLut>,
    /// Primary inputs of the source netlist.
    pub inputs: Vec<SignalId>,
    /// Primary outputs (name, signal) of the source netlist.
    pub outputs: Vec<(String, SignalId)>,
    /// Constant signals of the source netlist and their values (outputs
    /// may be tied to them directly). Ordered: [`MappedNetlist::to_netlist`]
    /// iterates this map while creating gates, and the rebuilt netlist's
    /// content digest must not depend on per-process hash seeds.
    pub constants: BTreeMap<SignalId, bool>,
    /// Depth of the LUT network in levels.
    pub depth: u32,
}

impl MappedNetlist {
    /// Number of LUTs.
    pub fn lut_count(&self) -> usize {
        self.luts.len()
    }

    /// Rebuilds the LUT network as a gate-level [`Netlist`] (each LUT
    /// becomes a mux tree over its truth table), e.g. for re-synthesis
    /// or formal equivalence checking against the original.
    pub fn to_netlist(&self, name: &str) -> Netlist {
        self.lower(name).0
    }

    /// [`MappedNetlist::to_netlist`] plus the map from every source
    /// signal the mapping defines (primary inputs, constants and LUT
    /// roots) to its id in the rebuilt netlist. This lowering is how a
    /// LUT network is simulated: each LUT root's lowered signal carries
    /// the LUT's truth table applied to its inputs, lane for lane.
    pub(crate) fn lower(&self, name: &str) -> (Netlist, BTreeMap<SignalId, SignalId>) {
        let mut n = Netlist::new(name);
        let mut map = BTreeMap::new();
        for (i, &orig) in self.inputs.iter().enumerate() {
            let id = n.input(format!("pi{i}"));
            map.insert(orig, id);
        }
        for (&orig, &c) in &self.constants {
            let id = n.constant(c);
            map.insert(orig, id);
        }
        for lut in &self.luts {
            let ins: Vec<SignalId> = lut
                .inputs
                .iter()
                .map(|s| *map.get(s).expect("inputs precede the LUT"))
                .collect();
            // Shannon expansion: recursively mux the truth table.
            let id = build_truth(&mut n, &ins, lut.truth, lut.inputs.len());
            map.insert(lut.root, id);
        }
        for (name, sig) in &self.outputs {
            n.output(name.clone(), *map.get(sig).expect("outputs are mapped"));
        }
        (n, map)
    }
}

/// Maps `netlist` onto K-input LUTs.
///
/// The netlist should be [`crate::optimize`]d first so cones contain no
/// constants or buffers; [`crate::synthesize`] does this automatically.
///
/// # Errors
///
/// Returns [`NetlistError::Unmappable`] if a node has more than K
/// structural fanins that cannot be decomposed (cannot happen for the
/// gate library in this crate as long as `k >= 3`), and propagates
/// simulation errors from truth-table extraction.
///
/// # Panics
///
/// Panics if `k` is not in `2..=6`.
pub fn map_luts(netlist: &Netlist, k: usize, strategy: MapStrategy) -> crate::Result<MappedNetlist> {
    assert!((2..=6).contains(&k), "LUT size must be between 2 and 6");
    let n = netlist.len();

    // Leaves of the cut graph: primary inputs and constants.
    let is_ci = |g: &Gate| matches!(g, Gate::Input { .. } | Gate::Const(_));

    // Cut enumeration in topological order.
    let mut cuts: Vec<Vec<Vec<u32>>> = vec![Vec::new(); n];
    let mut best_depth: Vec<u32> = vec![0; n];
    let mut best_af: Vec<f64> = vec![0.0; n];
    let mut best_cut: Vec<Option<Vec<u32>>> = vec![None; n];
    let fanout: Vec<u32> = netlist.fanout_counts();

    for (idx, gate) in netlist.gates().iter().enumerate() {
        if is_ci(gate) {
            cuts[idx] = vec![vec![idx as u32]];
            best_depth[idx] = 0;
            continue;
        }
        if let Gate::Buf(a) = gate {
            // Buffers are transparent: reuse the fanin's cuts.
            cuts[idx] = cuts[a.index()].clone();
            // Ensure the trivial cut names this node so fanouts can stop here.
            cuts[idx].push(vec![idx as u32]);
            best_depth[idx] = best_depth[a.index()];
            best_cut[idx] = best_cut[a.index()].clone();
            if best_cut[idx].is_none() {
                best_cut[idx] = Some(vec![a.index() as u32]);
            }
            continue;
        }
        let fanins: Vec<usize> = gate.fanins().map(SignalId::index).collect();
        let mut merged: Vec<Vec<u32>> = vec![Vec::new()];
        for &f in &fanins {
            let mut next: Vec<Vec<u32>> = Vec::new();
            for partial in &merged {
                for fcut in &cuts[f] {
                    let mut union = partial.clone();
                    for &leaf in fcut {
                        if let Err(pos) = union.binary_search(&leaf) {
                            union.insert(pos, leaf);
                        }
                    }
                    if union.len() <= k {
                        next.push(union);
                    }
                }
            }
            next.sort();
            next.dedup();
            merged = next;
            if merged.is_empty() {
                break;
            }
        }
        // Dominance pruning: remove cuts that are supersets of another cut.
        merged = prune_dominated(merged);
        // Rank and truncate.
        let depth_of = |cut: &Vec<u32>| -> u32 {
            cut.iter()
                .map(|&l| best_depth[l as usize])
                .max()
                .unwrap_or(0)
                + 1
        };
        // Area flow: estimated LUTs per fanout path through this cut.
        let af_of = |cut: &Vec<u32>| -> f64 {
            1.0 + cut
                .iter()
                .map(|&l| best_af[l as usize] / f64::from(fanout[l as usize].max(1)))
                .sum::<f64>()
        };
        // Total order (f64::total_cmp) so a NaN area flow can never
        // panic or produce an inconsistent sort.
        match strategy {
            MapStrategy::Depth => {
                merged.sort_by(|a, b| {
                    depth_of(a)
                        .cmp(&depth_of(b))
                        .then(af_of(a).total_cmp(&af_of(b)))
                        .then(a.len().cmp(&b.len()))
                });
            }
            MapStrategy::Area => {
                merged.sort_by(|a, b| {
                    af_of(a)
                        .total_cmp(&af_of(b))
                        .then(depth_of(a).cmp(&depth_of(b)))
                        .then(a.len().cmp(&b.len()))
                });
            }
        }
        merged.truncate(MAX_CUTS);
        if merged.is_empty() {
            return Err(NetlistError::Unmappable {
                node: SignalId(idx as u32),
            });
        }
        best_depth[idx] = depth_of(&merged[0]);
        best_af[idx] = af_of(&merged[0]);
        best_cut[idx] = Some(merged[0].clone());
        // Expose the trivial cut to fanouts.
        merged.push(vec![idx as u32]);
        cuts[idx] = merged;
    }

    // Covering: walk back from outputs, instantiating LUTs for required
    // logic nodes.
    let mut required: Vec<u32> = Vec::new();
    // lint-allow(hash-containers): membership test only, never iterated
    let mut seen: HashSet<u32> = HashSet::new();
    for (_, sig) in netlist.outputs() {
        let root = resolve_buf(netlist, *sig);
        if !is_ci(netlist.gate(root)) && seen.insert(root.0) {
            required.push(root.0);
        }
    }
    let mut luts_by_root: BTreeMap<u32, MappedLut> = BTreeMap::new();
    let mut cones = ConeScratch::new(n);
    while let Some(node) = required.pop() {
        let cut = best_cut[node as usize]
            .clone()
            .ok_or(NetlistError::Unmappable {
                node: SignalId(node),
            })?;
        let truth = cones.truth_table(netlist, SignalId(node), &cut)?;
        luts_by_root.insert(
            node,
            MappedLut {
                root: SignalId(node),
                inputs: cut.iter().map(|&l| SignalId(l)).collect(),
                truth,
            },
        );
        for &leaf in &cut {
            if !is_ci(netlist.gate(SignalId(leaf))) && seen.insert(leaf) {
                required.push(leaf);
            }
        }
    }

    // The BTreeMap yields LUTs ordered by root id, which is the source
    // netlist's creation order — already topological.
    let luts: Vec<MappedLut> = luts_by_root.into_values().collect();

    // Collect constants referenced by outputs or LUT inputs.
    let mut constants = BTreeMap::new();
    for (idx, gate) in netlist.gates().iter().enumerate() {
        if let Gate::Const(v) = gate {
            constants.insert(SignalId(idx as u32), *v);
        }
    }

    // Outputs may point at buffers; resolve them to their mapped source.
    let outputs: Vec<(String, SignalId)> = netlist
        .outputs()
        .iter()
        .map(|(name, s)| (name.clone(), resolve_buf(netlist, *s)))
        .collect();

    // LUT-network depth.
    // lint-allow(hash-containers): lookup-only level table, never iterated
    let mut level: HashMap<SignalId, u32> = HashMap::new();
    for lut in &luts {
        let lv = lut
            .inputs
            .iter()
            .map(|i| level.get(i).copied().unwrap_or(0))
            .max()
            .unwrap_or(0)
            + 1;
        level.insert(lut.root, lv);
    }
    let depth = outputs
        .iter()
        .map(|(_, s)| level.get(s).copied().unwrap_or(0))
        .max()
        .unwrap_or(0);

    Ok(MappedNetlist {
        k,
        luts,
        inputs: netlist.inputs().to_vec(),
        outputs,
        constants,
        depth,
    })
}

/// Builds the gate tree of a `k`-input truth table by Shannon expansion
/// on the highest input.
fn build_truth(n: &mut Netlist, ins: &[SignalId], truth: u64, k: usize) -> SignalId {
    if k == 0 {
        return n.constant(truth & 1 == 1);
    }
    let half = 1u64 << (k - 1);
    let mask = if half == 64 { u64::MAX } else { (1u64 << half) - 1 };
    let lo = truth & mask;
    let hi = (truth >> half) & mask;
    if lo == hi {
        return build_truth(n, ins, lo, k - 1);
    }
    let f = build_truth(n, ins, lo, k - 1);
    let t = build_truth(n, ins, hi, k - 1);
    n.mux(ins[k - 1], t, f)
}

fn resolve_buf(netlist: &Netlist, mut sig: SignalId) -> SignalId {
    while let Gate::Buf(a) = netlist.gate(sig) {
        sig = *a;
    }
    sig
}

fn prune_dominated(mut cuts: Vec<Vec<u32>>) -> Vec<Vec<u32>> {
    cuts.sort_by_key(Vec::len);
    let mut kept: Vec<Vec<u32>> = Vec::new();
    'outer: for cut in cuts {
        for k in &kept {
            if k.iter().all(|l| cut.binary_search(l).is_ok()) {
                continue 'outer; // dominated by a smaller kept cut
            }
        }
        kept.push(cut);
    }
    kept
}

/// Reusable buffers for cone truth-table extraction: one value block
/// and one visit stamp per source signal.
struct ConeScratch {
    vals: Vec<[u64; 1]>,
    seen: Vec<usize>,
    stamp: usize,
}

impl ConeScratch {
    fn new(signals: usize) -> ConeScratch {
        ConeScratch { vals: vec![[0]; signals], seen: vec![0; signals], stamp: 0 }
    }

    /// Extracts the truth table of `root`'s cone over the cut leaves:
    /// the leaves are driven with the canonical variable patterns and
    /// the cone's gates are evaluated in topological order by the
    /// simulator's per-gate step.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Unmappable`] if the cone reaches a
    /// primary input that is not a leaf (the cut does not cover it).
    fn truth_table(
        &mut self,
        netlist: &Netlist,
        root: SignalId,
        cut: &[u32],
    ) -> crate::Result<u64> {
        debug_assert!(cut.len() <= 6);
        // Canonical variable patterns: var j toggles with period 2^(j+1).
        const PATTERNS: [u64; 6] = [
            0xAAAA_AAAA_AAAA_AAAA,
            0xCCCC_CCCC_CCCC_CCCC,
            0xF0F0_F0F0_F0F0_F0F0,
            0xFF00_FF00_FF00_FF00,
            0xFFFF_0000_FFFF_0000,
            0xFFFF_FFFF_0000_0000,
        ];
        self.stamp += 1;
        for (j, &leaf) in cut.iter().enumerate() {
            self.vals[leaf as usize] = [PATTERNS[j]];
            self.seen[leaf as usize] = self.stamp;
        }
        // The gates between the leaves and the root; ascending index
        // order is topological.
        let mut cone = Vec::new();
        let mut stack = vec![root.index()];
        while let Some(s) = stack.pop() {
            if self.seen[s] != self.stamp {
                self.seen[s] = self.stamp;
                cone.push(s);
                stack.extend(netlist.gates()[s].fanins().map(SignalId::index));
            }
        }
        cone.sort_unstable();
        for s in cone {
            self.vals[s] = eval_gate(&netlist.gates()[s], &self.vals)
                .ok_or(NetlistError::Unmappable { node: root })?;
        }
        let bits = 1usize << cut.len();
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        Ok(self.vals[root.index()][0] & mask)
    }
}

/// Verifies that a mapping is functionally equivalent to its source
/// netlist on `rounds * 64` random vectors.
///
/// # Errors
///
/// Returns [`NetlistError::MappingMismatch`] when a counterexample is
/// found, or propagates simulation errors.
pub(crate) fn verify_mapping(
    netlist: &Netlist,
    mapped: &MappedNetlist,
    rounds: usize,
    seed: u64,
) -> crate::Result<()> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let lowered = mapped.to_netlist("verify");
    for _ in 0..rounds {
        let words: Vec<u64> = (0..netlist.inputs().len()).map(|_| rng.gen()).collect();
        let want = netlist.simulate_words(&words)?;
        let got = lowered.simulate_words(&words)?;
        if want != got {
            return Err(NetlistError::MappingMismatch);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bus, optimize, Netlist};

    fn map_and_verify(n: &Netlist, k: usize, strategy: MapStrategy) -> MappedNetlist {
        let opt = optimize(n);
        let mapped = map_luts(&opt, k, strategy).expect("mapping succeeds");
        verify_mapping(&opt, &mapped, 16, 42).expect("mapping is equivalent");
        mapped
    }

    #[test]
    fn maps_simple_gate() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        n.output("x", x);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        assert_eq!(mapped.lut_count(), 1);
        assert_eq!(mapped.depth, 1);
    }

    #[test]
    fn maps_adder_and_is_equivalent() {
        let mut n = Netlist::new("add8");
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let (s, c) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("c", c);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        // A LUT6 mapping of an 8-bit RCA needs far fewer LUTs than gates.
        assert!(mapped.lut_count() <= 20, "lut count {}", mapped.lut_count());
        assert!(mapped.depth <= 8);
    }

    #[test]
    fn maps_multiplier_and_is_equivalent() {
        let mut n = Netlist::new("mul6");
        let a = n.input_bus("a", 6);
        let b = n.input_bus("b", 6);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        assert!(mapped.lut_count() > 10);
    }

    #[test]
    fn area_mode_never_uses_more_luts_on_trees() {
        let mut n = Netlist::new("tree");
        let xs = n.input_bus("x", 16);
        let y = n.or_reduce(&xs);
        n.output("y", y);
        let area = map_and_verify(&n, 6, MapStrategy::Area);
        let depth = map_and_verify(&n, 6, MapStrategy::Depth);
        // A 16-input OR fits in ceil(16/6)-ish LUTs either way.
        assert!(area.lut_count() <= 5);
        assert!(depth.lut_count() <= 5);
    }

    #[test]
    fn lut4_mapping_works() {
        let mut n = Netlist::new("add4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (s, _) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        let mapped = map_and_verify(&n, 4, MapStrategy::Depth);
        assert!(mapped.luts.iter().all(|l| l.inputs.len() <= 4));
    }

    #[test]
    fn output_tied_to_input_needs_no_lut() {
        let mut n = Netlist::new("wire");
        let a = n.input("a");
        n.output("y", a);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        assert_eq!(mapped.lut_count(), 0);
        assert_eq!(mapped.depth, 0);
    }

    #[test]
    fn constant_output_is_preserved() {
        let mut n = Netlist::new("konst");
        let _a = n.input("a");
        let c = n.constant(true);
        n.output("y", c);
        let mapped = map_and_verify(&n, 6, MapStrategy::Depth);
        assert_eq!(mapped.lut_count(), 0);
        let out = mapped.to_netlist("k").simulate_words(&[0]).unwrap();
        assert_eq!(out[0], u64::MAX);
    }

    #[test]
    fn to_netlist_gate_order_is_deterministic() {
        // `to_netlist` iterates `constants` while creating gates; with an
        // ordered map the rebuilt netlist (and hence its content digest)
        // is identical however the mapping was produced. A circuit with
        // both constant polarities exercises the multi-entry case.
        let mut n = Netlist::new("k2");
        let a = n.input("a");
        let c0 = n.constant(false);
        let c1 = n.constant(true);
        let x = n.and(a, c1);
        n.output("x", x);
        n.output("z", c0);
        n.output("o", c1);
        let mapped = map_luts(&n, 4, MapStrategy::Depth).unwrap();
        let r1 = mapped.to_netlist("r");
        let r2 = mapped.clone().to_netlist("r");
        assert_eq!(r1, r2);
        assert_eq!(r1.content_digest(), r2.content_digest());
    }

    #[test]
    fn depth_mode_is_no_deeper_than_area_mode() {
        let mut n = Netlist::new("mul");
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let d = map_and_verify(&n, 6, MapStrategy::Depth);
        let ar = map_and_verify(&n, 6, MapStrategy::Area);
        assert!(d.depth <= ar.depth, "depth {} vs area-mode depth {}", d.depth, ar.depth);
    }
}
