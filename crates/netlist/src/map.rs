//! Cut-based LUT-K technology mapping.
//!
//! The mapper enumerates K-feasible cuts for every logic node (priority
//! cuts with dominance pruning), selects a representative cut per node
//! (depth-oriented or area-oriented), and covers the netlist from its
//! outputs. Each selected cut becomes one K-input LUT whose truth table is
//! extracted by simulating the cut's cone. A mapped network is simulated
//! by lowering it back to a gate-level netlist of mux trees.
//!
//! Cuts are fixed-size `Copy` values (`Cut`: up to six sorted leaves
//! plus a signature with bit `leaf % 64` set per leaf) kept in one flat
//! arena, each node owning a contiguous range of it. A node's candidates
//! are the unions of one cut per fanin with at most K leaves, built by a
//! two-list merge that the signature's popcount rejects early; dominated
//! candidates are pruned behind a signature pre-test, and each survivor's
//! depth and area flow are computed once before ranking.

#![expect(clippy::cast_possible_truncation, reason = "u32 gate indices round-trip usize")]

use crate::ir::{Gate, Netlist, SignalId};
use crate::sim::eval_gate;
use crate::NetlistError;
use std::cmp::Ordering;
use std::collections::BTreeMap;

/// Maximum number of cuts kept per node (priority cuts).
const MAX_CUTS: usize = 12;

/// Largest supported LUT size: a cut's leaves and a truth table's 64
/// bits both end at six inputs.
const MAX_K: usize = 6;

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

/// A K-feasible cut: up to [`MAX_K`] strictly ascending leaves (source
/// signal indices) and a signature with bit `leaf % 64` set per leaf.
/// The signature's popcount bounds the leaf count from below, and
/// `a.sig & !b.sig != 0` proves `a` is no subset of `b`.
#[derive(Debug, Clone, Copy)]
struct Cut {
    leaves: [u32; MAX_K],
    len: usize,
    sig: u64,
}

impl Cut {
    /// The cut `{leaf}`.
    fn trivial(leaf: u32) -> Cut {
        let mut leaves = [0; MAX_K];
        leaves[0] = leaf;
        Cut {
            leaves,
            len: 1,
            sig: 1 << (leaf % 64),
        }
    }

    fn leaves(&self) -> &[u32] {
        &self.leaves[..self.len]
    }

    /// The union of two cuts, or `None` if it has more than `k` leaves.
    fn merge(&self, other: &Cut, k: usize) -> Option<Cut> {
        let sig = self.sig | other.sig;
        if sig.count_ones() as usize > k {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut out = Cut {
            leaves: [0; MAX_K],
            len: 0,
            sig,
        };
        let (mut i, mut j) = (0, 0);
        while i < a.len() || j < b.len() {
            let leaf = if j == b.len() || (i < a.len() && a[i] < b[j]) {
                i += 1;
                a[i - 1]
            } else if i == a.len() || b[j] < a[i] {
                j += 1;
                b[j - 1]
            } else {
                i += 1;
                j += 1;
                a[i - 1]
            };
            if out.len == k {
                return None;
            }
            out.leaves[out.len] = leaf;
            out.len += 1;
        }
        Some(out)
    }

    /// Whether every leaf of `self` is a leaf of `other`.
    fn subset_of(&self, other: &Cut) -> bool {
        if self.sig & !other.sig != 0 || self.len > other.len {
            return false;
        }
        let mut rest = other.leaves().iter();
        self.leaves().iter().all(|l| rest.any(|o| o == l))
    }
}

/// A surviving candidate with its ranking keys, computed once.
struct Ranked {
    depth: u32,
    area_flow: f64,
    cut: Cut,
}

impl Ranked {
    /// The priority order: depth then area flow (or area flow then
    /// depth), then fewer leaves, then the lexicographically smaller
    /// leaf list. Area flow compares with `f64::total_cmp`, so a NaN can
    /// never panic or produce an inconsistent sort; the final leaf
    /// comparison makes the order total over distinct cuts.
    fn cmp(&self, other: &Ranked, strategy: MapStrategy) -> Ordering {
        let depth = self.depth.cmp(&other.depth);
        let area_flow = self.area_flow.total_cmp(&other.area_flow);
        match strategy {
            MapStrategy::Depth => depth.then(area_flow),
            MapStrategy::Area => area_flow.then(depth),
        }
        .then(self.cut.len.cmp(&other.cut.len))
        .then_with(|| self.cut.leaves().cmp(other.cut.leaves()))
    }
}

fn is_ci(g: &Gate) -> bool {
    matches!(g, Gate::Input { .. } | Gate::Const(_))
}

/// Maps `netlist` onto K-input LUTs.
///
/// The netlist should be [`crate::optimize`]d first so cones contain no
/// constants or buffers; [`crate::synthesize`] does this automatically.
///
/// # Errors
///
/// Returns [`NetlistError::LutSize`] if `k` is not in `2..=6`,
/// [`NetlistError::Unmappable`] if a node has more than K structural
/// fanins that cannot be decomposed (cannot happen for the gate library
/// in this crate as long as `k >= 3`), and propagates simulation errors
/// from truth-table extraction.
pub fn map_luts(netlist: &Netlist, k: usize, strategy: MapStrategy) -> crate::Result<MappedNetlist> {
    if !(2..=MAX_K).contains(&k) {
        return Err(NetlistError::LutSize { k });
    }
    let n = netlist.len();
    let fanout: Vec<u32> = netlist.fanout_counts();

    // Cut enumeration in topological order. Node `i`'s cuts are
    // `arena[span[i].0..span[i].1]`: its ranked cuts, then its trivial
    // cut, which lets fanouts stop here.
    let mut arena: Vec<Cut> = Vec::with_capacity(n * 4);
    let mut span: Vec<(usize, usize)> = vec![(0, 0); n];
    let mut best_depth: Vec<u32> = vec![0; n];
    let mut best_af: Vec<f64> = vec![0.0; n];
    let mut best_cut: Vec<Option<Cut>> = vec![None; n];
    let mut cur: Vec<Cut> = Vec::new();
    let mut next: Vec<Cut> = Vec::new();
    let mut ranked: Vec<Ranked> = Vec::new();

    for (idx, gate) in netlist.gates().iter().enumerate() {
        let start = arena.len();
        if is_ci(gate) {
            arena.push(Cut::trivial(idx as u32));
            span[idx] = (start, arena.len());
            continue;
        }
        if let Gate::Buf(a) = gate {
            // Buffers are transparent: reuse the fanin's cuts.
            let a = a.index();
            arena.extend_from_within(span[a].0..span[a].1);
            arena.push(Cut::trivial(idx as u32));
            span[idx] = (start, arena.len());
            best_depth[idx] = best_depth[a];
            best_cut[idx] = best_cut[a].or(Some(Cut::trivial(a as u32)));
            continue;
        }
        // Every union of one cut per fanin with at most k leaves. Lists
        // between fanins are deduplicated; duplicates in the last one
        // fall to the dominance pruning below.
        let mut fanins = gate.fanins().map(SignalId::index).peekable();
        cur.clear();
        if let Some(f) = fanins.next() {
            cur.extend_from_slice(&arena[span[f].0..span[f].1]);
        }
        while let Some(f) = fanins.next() {
            next.clear();
            let fcuts = &arena[span[f].0..span[f].1];
            for p in &cur {
                next.extend(fcuts.iter().filter_map(|c| p.merge(c, k)));
            }
            if fanins.peek().is_some() {
                next.sort_unstable_by(|a, b| a.leaves().cmp(b.leaves()));
                next.dedup_by(|a, b| a.leaves() == b.leaves());
            }
            std::mem::swap(&mut cur, &mut next);
        }
        // Dominance pruning: smaller cuts first, so a candidate is kept
        // only if no kept cut is a subset of it, an equal one included.
        // Subsets are transitive, so testing the kept cuts alone keeps
        // exactly the candidates with no proper subset among them all.
        cur.sort_unstable_by_key(|c| c.len);
        ranked.clear();
        for c in &cur {
            if ranked.iter().any(|r| r.cut.subset_of(c)) {
                continue;
            }
            let leaves = c.leaves().iter().map(|&l| l as usize);
            let depth = leaves.clone().map(|l| best_depth[l]).max().unwrap_or(0) + 1;
            // Area flow: estimated LUTs per fanout path through this cut.
            let area_flow = 1.0
                + leaves
                    .map(|l| best_af[l] / f64::from(fanout[l].max(1)))
                    .sum::<f64>();
            ranked.push(Ranked {
                depth,
                area_flow,
                cut: *c,
            });
        }
        ranked.sort_unstable_by(|a, b| a.cmp(b, strategy));
        let Some(best) = ranked.first() else {
            return Err(NetlistError::Unmappable {
                node: SignalId(idx as u32),
            });
        };
        best_depth[idx] = best.depth;
        best_af[idx] = best.area_flow;
        best_cut[idx] = Some(best.cut);
        arena.extend(ranked.iter().take(MAX_CUTS).map(|r| r.cut));
        arena.push(Cut::trivial(idx as u32));
        span[idx] = (start, arena.len());
    }

    // Covering: walk back from outputs, instantiating LUTs for required
    // logic nodes.
    let mut required: Vec<u32> = Vec::new();
    let mut seen = vec![false; n];
    let mut require = |sig: u32, required: &mut Vec<u32>| {
        if !is_ci(netlist.gate(SignalId(sig))) && !seen[sig as usize] {
            seen[sig as usize] = true;
            required.push(sig);
        }
    };
    for (_, sig) in netlist.outputs() {
        require(resolve_buf(netlist, *sig).0, &mut required);
    }
    let mut luts: Vec<MappedLut> = Vec::new();
    let mut cones = ConeScratch::new(n);
    while let Some(node) = required.pop() {
        let cut = best_cut[node as usize].ok_or(NetlistError::Unmappable {
            node: SignalId(node),
        })?;
        let truth = cones.truth_table(netlist, SignalId(node), cut.leaves())?;
        luts.push(MappedLut {
            root: SignalId(node),
            inputs: cut.leaves().iter().map(|&l| SignalId(l)).collect(),
            truth,
        });
        for &leaf in cut.leaves() {
            require(leaf, &mut required);
        }
    }

    // Ordered by root id, which is the source netlist's creation order —
    // already topological.
    luts.sort_unstable_by_key(|l| l.root);

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

    // LUT-network depth: signals no LUT drives sit at level 0.
    let mut level: Vec<u32> = vec![0; n];
    for lut in &luts {
        let lv = lut
            .inputs
            .iter()
            .map(|i| level[i.index()])
            .max()
            .unwrap_or(0)
            + 1;
        level[lut.root.index()] = lv;
    }
    let depth = outputs
        .iter()
        .map(|(_, s)| level[s.index()])
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
        debug_assert!(cut.len() <= MAX_K);
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
    fn out_of_range_lut_sizes_are_errors() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        n.output("x", x);
        for k in [1, 7] {
            for strategy in [MapStrategy::Depth, MapStrategy::Area] {
                assert_eq!(
                    map_luts(&n, k, strategy).unwrap_err(),
                    NetlistError::LutSize { k }
                );
            }
        }
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
