//! Cut-based LUT-K technology mapping.
//!
//! The mapper enumerates K-feasible cuts for every logic node (priority
//! cuts with dominance pruning), selects a representative cut per node
//! (depth-oriented or area-oriented), and covers the netlist from its
//! outputs. Each selected cut becomes one K-input LUT whose truth table is
//! extracted by simulating the cut's cone. A mapped network is simulated
//! from its truth tables ([`MappedNetlist::simulate_blocks`]); it is
//! lowered back to a gate-level netlist of mux trees only for formal
//! checks and export ([`MappedNetlist::to_netlist`]).
//!
//! Cuts are fixed-size `Copy` values (`Cut`: up to six sorted leaves
//! plus a signature with bit `leaf % 64` set per leaf) kept in one flat
//! arena, each node owning a contiguous range of it. A node's candidates
//! are the unions of one cut per fanin with at most K leaves, built by a
//! two-list merge that the signature's popcount rejects early; dominated
//! candidates are pruned behind a signature pre-test, and each survivor's
//! depth and area flow are computed once before the best are selected.
//!
//! Most gates of an accelerator datapath are copies of a few library
//! operators, each recorded by [`Netlist::instantiate_shared`]. The
//! mapper enumerates an operator's cuts once per process, on the
//! optimized operator, into a *template*, with the truth table of every
//! node's best cut, and copies the template onto every instance whose
//! gates pass six checks (see `match_instance`), relabeling each leaf.
//! The checks make the copy exactly what the enumeration would have
//! produced, and a copied root's cone exactly the template node's; the
//! other nodes (adder trees, clamps, instances that fail a check) are
//! enumerated, and their truth tables extracted, as usual.

#![expect(clippy::cast_possible_truncation, reason = "u32 gate indices round-trip usize")]

use crate::ir::{Gate, Instance, Netlist, SignalId};
use crate::opt::optimize;
use crate::sim::eval_gate;
use crate::NetlistError;
use clapped_exec::Memo;
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Maximum number of cuts kept per node (priority cuts).
const MAX_CUTS: usize = 12;

/// Largest supported LUT size: a cut's leaves and a truth table's 64
/// bits both end at six inputs.
pub(crate) const MAX_K: usize = 6;

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
#[derive(Debug, Clone, PartialEq)]
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
    /// becomes a mux tree over its truth table), for formal equivalence
    /// checking against the original and for export. Simulation does
    /// not need it: [`MappedNetlist::simulate_blocks`] evaluates the
    /// truth tables directly.
    ///
    /// # Panics
    ///
    /// If a LUT has more than six inputs, or a LUT input or primary
    /// output names a signal that no primary input, constant or earlier
    /// LUT defines: the errors [`MappedNetlist::simulate_blocks`] and
    /// [`crate::estimate_power`] return.
    pub fn to_netlist(&self, name: &str) -> Netlist {
        let program = self.program().expect("a well-formed LUT network");
        let mut n = Netlist::new(name);
        // The rebuilt signal of each slot of the program.
        let mut ids: Vec<SignalId> =
            (0..program.inputs).map(|i| n.input(format!("pi{i}"))).collect();
        ids.extend(program.constants.iter().map(|&c| n.constant(c)));
        for lut in &program.luts {
            let ins: Vec<SignalId> = lut.inputs().iter().map(|&at| ids[at as usize]).collect();
            // Shannon expansion: recursively mux the truth table.
            ids.push(build_truth(&mut n, &ins, lut.truth, ins.len()));
        }
        for ((name, _), &at) in self.outputs.iter().zip(&program.outputs) {
            n.output(name.clone(), ids[at]);
        }
        n
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
        // Branch-free steps while both lists last: take the smaller
        // head, advancing each list whose head it is.
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if out.len == k {
                return None;
            }
            let (x, y) = (a[i], b[j]);
            out.leaves[out.len] = x.min(y);
            out.len += 1;
            i += usize::from(x <= y);
            j += usize::from(y <= x);
        }
        let rest = if i < a.len() { &a[i..] } else { &b[j..] };
        if out.len + rest.len() > k {
            return None;
        }
        out.leaves[out.len..out.len + rest.len()].copy_from_slice(rest);
        out.len += rest.len();
        Some(out)
    }

    /// This cut with each leaf `l` renamed `to[l]`. `to` increases
    /// strictly over the leaves, so they stay sorted.
    fn relabel(&self, to: &[u32]) -> Cut {
        let mut out = Cut {
            leaves: [0; MAX_K],
            len: self.len,
            sig: 0,
        };
        for (o, &l) in out.leaves.iter_mut().zip(self.leaves()) {
            *o = to[l as usize];
            out.sig |= 1 << (*o % 64);
        }
        out
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

/// A surviving candidate: its ranking keys, computed once, and its
/// index in the node's candidate list.
struct Ranked {
    depth: u32,
    area_flow: f64,
    at: usize,
}

impl Ranked {
    /// The priority order over the candidates `cands`: depth then area
    /// flow (or area flow then depth), then fewer leaves, then the
    /// lexicographically smaller leaf list. Area flow compares with
    /// `f64::total_cmp`, so a NaN can never panic or produce an
    /// inconsistent selection; the final leaf comparison makes the order
    /// total over distinct cuts.
    fn cmp(&self, other: &Ranked, cands: &[Cut], strategy: MapStrategy) -> Ordering {
        let depth = self.depth.cmp(&other.depth);
        let area_flow = self.area_flow.total_cmp(&other.area_flow);
        let (a, b) = (&cands[self.at], &cands[other.at]);
        match strategy {
            MapStrategy::Depth => depth.then(area_flow),
            MapStrategy::Area => area_flow.then(depth),
        }
        .then(a.len.cmp(&b.len))
        .then_with(|| a.leaves().cmp(b.leaves()))
    }
}

fn is_ci(g: &Gate) -> bool {
    matches!(g, Gate::Input { .. } | Gate::Const(_))
}

/// The enumeration's results, indexed by signal. Node `i`'s cuts are
/// `arena[span[i].0..span[i].1]`: its ranked cuts, then its trivial
/// cut, which lets fanouts stop here.
struct Cuts {
    arena: Vec<Cut>,
    span: Vec<(usize, usize)>,
    best_depth: Vec<u32>,
    /// The best cut's area flow; 0 for inputs, constants and buffers.
    best_af: Vec<f64>,
    /// A node's area flow shared among its fanouts,
    /// `best_af / max(fanout, 1)`.
    af_share: Vec<f64>,
    best_cut: Vec<Option<Cut>>,
}

/// A node whose cuts are copied: template node `node` of accepted
/// instance `instance`.
#[derive(Clone, Copy)]
struct Claim {
    instance: u32,
    node: u32,
}

/// An instance that passed every check: its operator's template and the
/// relabeling of the template's signals onto the mapped netlist.
struct Accepted {
    template: Arc<Template>,
    to: Vec<u32>,
}

/// Enumerates the cuts of every node of `netlist` in topological order.
/// A node that `claims` names copies its template node's cuts, depth and
/// area flow, relabeled; every other node runs the enumeration. Templates
/// are built by this loop too, with no claims.
fn enumerate_cuts(
    netlist: &Netlist,
    fanout: &[u32],
    k: usize,
    strategy: MapStrategy,
    claims: &[Option<Claim>],
    accepted: &[Accepted],
) -> crate::Result<Cuts> {
    let n = netlist.len();
    let mut cuts = Cuts {
        arena: Vec::with_capacity(n * 4),
        span: vec![(0, 0); n],
        best_depth: vec![0; n],
        best_af: vec![0.0; n],
        af_share: vec![0.0; n],
        best_cut: vec![None; n],
    };
    let Cuts {
        arena,
        span,
        best_depth,
        best_af,
        af_share,
        best_cut,
    } = &mut cuts;
    let mut cur: Vec<Cut> = Vec::new();
    let mut next: Vec<Cut> = Vec::new();
    let mut ranked: Vec<Ranked> = Vec::new();

    for (idx, gate) in netlist.gates().iter().enumerate() {
        let start = arena.len();
        if let Some(Claim { instance, node }) = claims.get(idx).copied().flatten() {
            let Accepted { template, to } = &accepted[instance as usize];
            let (tpl, g) = (&template.cuts, node as usize);
            let copied = tpl.arena[tpl.span[g].0..tpl.span[g].1].iter();
            arena.extend(copied.map(|c| c.relabel(to)));
            span[idx] = (start, arena.len());
            best_depth[idx] = tpl.best_depth[g];
            best_af[idx] = tpl.best_af[g];
            // This node's own fanout: an operator output may feed more
            // gates here than in the operator.
            af_share[idx] = tpl.best_af[g] / f64::from(fanout[idx].max(1));
            best_cut[idx] = tpl.best_cut[g].map(|c| c.relabel(to));
            continue;
        }
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
        // Dominance pruning: smaller cuts first (one pass per length),
        // so a candidate is kept only if no kept cut is a subset of it, an
        // equal one included. Subsets are transitive, so testing the kept
        // cuts alone keeps exactly the distinct candidates with no proper
        // subset among them all, whatever their order within a length.
        ranked.clear();
        for len in 1..=k {
            for (at, c) in cur.iter().enumerate() {
                if c.len != len || ranked.iter().any(|r| cur[r.at].subset_of(c)) {
                    continue;
                }
                let leaves = c.leaves().iter().map(|&l| l as usize);
                let depth = leaves.clone().map(|l| best_depth[l]).max().unwrap_or(0) + 1;
                // Area flow: estimated LUTs per fanout path through this cut.
                let area_flow = 1.0 + leaves.map(|l| af_share[l]).sum::<f64>();
                ranked.push(Ranked {
                    depth,
                    area_flow,
                    at,
                });
            }
        }
        // The MAX_CUTS best in some order, then the best of those. The
        // order is total, so neither depends on the candidates' order,
        // and the stored order of a node's cuts never reaches a result.
        let by_rank = |a: &Ranked, b: &Ranked| a.cmp(b, &cur, strategy);
        if ranked.len() > MAX_CUTS {
            ranked.select_nth_unstable_by(MAX_CUTS, by_rank);
            ranked.truncate(MAX_CUTS);
        }
        let Some(best) = ranked.iter().min_by(|a, b| by_rank(a, b)) else {
            return Err(NetlistError::Unmappable {
                node: SignalId(idx as u32),
            });
        };
        best_depth[idx] = best.depth;
        best_af[idx] = best.area_flow;
        af_share[idx] = best.area_flow / f64::from(fanout[idx].max(1));
        best_cut[idx] = Some(cur[best.at]);
        arena.extend(ranked.iter().map(|r| cur[r.at]));
        arena.push(Cut::trivial(idx as u32));
        span[idx] = (start, arena.len());
    }
    Ok(cuts)
}

/// An operator's cut enumeration at one `(k, strategy)`, built once per
/// process and copied onto every instance that passes the checks.
struct Template {
    /// `optimize(operator)`, the netlist the enumeration ran on.
    netlist: Netlist,
    /// `netlist`'s fanout counts.
    fanout: Vec<u32>,
    /// Whether a gate of `netlist` reads the node.
    read: Vec<bool>,
    cuts: Cuts,
    /// The truth table of each logic node's best cut (0 for the other
    /// nodes).
    truth: Vec<u64>,
}

/// The templates, keyed by (operator content digest, k, strategy).
/// `None` marks an operator whose instances cannot be reused: a gate of
/// the optimized operator reads a constant, or a node has no K-feasible
/// cut or no truth table over its best cut.
type TemplateMemo = Memo<(u64, usize, MapStrategy), Option<Arc<Template>>>;

fn template_memo() -> &'static TemplateMemo {
    static MEMO: OnceLock<TemplateMemo> = OnceLock::new();
    MEMO.get_or_init(Memo::new)
}

/// Builds the template of `operator` (traced as `netlist.map.template`).
fn build_template(operator: &Netlist, k: usize, strategy: MapStrategy) -> Option<Arc<Template>> {
    let _span = clapped_obs::span("netlist.map.template");
    let netlist = optimize(operator);
    let mut read = vec![false; netlist.len()];
    for gate in netlist.gates() {
        for f in gate.fanins() {
            // Check 1: no gate reads a constant.
            if matches!(netlist.gate(f), Gate::Const(_)) {
                return None;
            }
            read[f.index()] = true;
        }
    }
    let fanout = netlist.fanout_counts();
    let cuts = enumerate_cuts(&netlist, &fanout, k, strategy, &[], &[]).ok()?;
    let mut cones = ConeScratch::new(netlist.len());
    let truth = (0..netlist.len())
        .map(|i| match cuts.best_cut[i] {
            Some(cut) if netlist.gates()[i].is_logic() => {
                cones.truth_table(&netlist, SignalId(i as u32), cut.leaves())
            }
            _ => Ok(0),
        })
        .collect::<crate::Result<_>>()
        .ok()?;
    Some(Arc::new(Template {
        netlist,
        fanout,
        read,
        cuts,
        truth,
    }))
}

/// The relabeling `to` of `template`'s signals onto `netlist` for the
/// recorded instance `instance`, if the checks pass (check 1, no gate of
/// the template reading a constant, passed when it was built):
///
/// 2. each template input maps to the primary input the record names;
/// 3. each template gate matches a gate of `netlist` of the same kind
///    whose fanins are the matches of its fanins;
/// 4. the match strictly increases with signal index, so sorted leaf
///    lists stay sorted and compare in the same order;
/// 5. every template gate that another template gate reads has the same
///    fanout count in `netlist`, so its area-flow share is the same;
/// 6. no matched gate is already claimed by another instance in
///    `claims`.
///
/// Then each matched node's cuts are the template node's, relabeled:
/// by induction in topological order, its fanins' cut lists are, so its
/// candidate unions, pruning and ranking see the same leaf sets in the
/// same order with the same depths and area-flow terms. Its best cut's
/// cone is the template node's cone, matched gate for gate (check 3),
/// with the leaves in the same order (check 4), so its truth table is
/// the template node's too.
fn match_instance(
    netlist: &Netlist,
    fanout: &[u32],
    claims: &[Option<Claim>],
    template: &Template,
    instance: &Instance,
) -> Option<Vec<u32>> {
    let tpl = &template.netlist;
    if instance.inputs.len() != tpl.inputs().len() {
        return None;
    }
    let mut to = vec![u32::MAX; tpl.len()];
    for (s, &at) in tpl.inputs().iter().zip(&instance.inputs) {
        to[s.index()] = netlist.inputs().get(at as usize)?.0;
    }
    let gates = netlist.gates();
    // The next index a match may take.
    let mut from = 0usize;
    for (i, gate) in tpl.gates().iter().enumerate() {
        let found = match gate {
            Gate::Const(_) => continue,
            Gate::Input { .. } => to[i] as usize,
            _ => {
                let same = |d: &Gate| {
                    std::mem::discriminant(d) == std::mem::discriminant(gate)
                        && d.fanins()
                            .map(|f| f.0)
                            .eq(gate.fanins().map(|f| to[f.index()]))
                };
                from + gates.get(from..)?.iter().position(same)?
            }
        };
        if found < from || (gate.is_logic() && claims[found].is_some()) {
            return None;
        }
        if gate.is_logic() && template.read[i] && fanout[found] != template.fanout[i] {
            return None;
        }
        to[i] = found as u32;
        from = found + 1;
    }
    Some(to)
}

/// Maps `netlist` onto K-input LUTs.
///
/// The netlist should be [`crate::optimize`]d first so cones contain no
/// constants or buffers; [`crate::synthesize`] does this automatically.
/// Each instance recorded by [`Netlist::instantiate_shared`] copies its
/// operator's memoized cut enumeration and best-cut truth tables when
/// the module's checks pass; the result is the same either way. The
/// counters `netlist.map.instances_reused` and
/// `netlist.map.instances_enumerated` count the two outcomes, and
/// `netlist.map.truths_copied` and `netlist.map.truths_extracted` the
/// LUTs whose truth table came from a template or from simulating the
/// cut's cone.
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

    let mut claims: Vec<Option<Claim>> = Vec::new();
    let mut accepted: Vec<Accepted> = Vec::new();
    if !netlist.instances().is_empty() {
        claims = vec![None; n];
        for instance in netlist.instances() {
            let template = template_memo()
                .get_or_insert_with((instance.digest, k, strategy), || {
                    build_template(&instance.sub, k, strategy)
                });
            let Some(template) = template else { continue };
            let Some(to) = match_instance(netlist, &fanout, &claims, &template, instance) else {
                continue;
            };
            let claim = |node| Claim {
                instance: accepted.len() as u32,
                node: node as u32,
            };
            for (node, gate) in template.netlist.gates().iter().enumerate() {
                if gate.is_logic() {
                    claims[to[node] as usize] = Some(claim(node));
                }
            }
            accepted.push(Accepted { template, to });
        }
    }
    let reused = accepted.len();
    clapped_obs::count("netlist.map.instances_reused", reused as u64);
    clapped_obs::count(
        "netlist.map.instances_enumerated",
        (netlist.instances().len() - reused) as u64,
    );
    let Cuts { best_cut, .. } = enumerate_cuts(netlist, &fanout, k, strategy, &claims, &accepted)?;

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
    let mut copied = 0u64;
    while let Some(node) = required.pop() {
        let cut = best_cut[node as usize].ok_or(NetlistError::Unmappable {
            node: SignalId(node),
        })?;
        let truth = match claims.get(node as usize).copied().flatten() {
            Some(Claim { instance, node }) => {
                copied += 1;
                accepted[instance as usize].template.truth[node as usize]
            }
            None => cones.truth_table(netlist, SignalId(node), cut.leaves())?,
        };
        luts.push(MappedLut {
            root: SignalId(node),
            inputs: cut.leaves().iter().map(|&l| SignalId(l)).collect(),
            truth,
        });
        for &leaf in cut.leaves() {
            require(leaf, &mut required);
        }
    }

    clapped_obs::count("netlist.map.truths_copied", copied);
    clapped_obs::count("netlist.map.truths_extracted", luts.len() as u64 - copied);

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
/// and one visit stamp per source signal, and the cone and its walk
/// stack.
struct ConeScratch {
    vals: Vec<[u64; 1]>,
    seen: Vec<usize>,
    stamp: usize,
    cone: Vec<usize>,
    stack: Vec<usize>,
}

impl ConeScratch {
    fn new(signals: usize) -> ConeScratch {
        ConeScratch {
            vals: vec![[0]; signals],
            seen: vec![0; signals],
            stamp: 0,
            cone: Vec::new(),
            stack: Vec::new(),
        }
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
        self.cone.clear();
        self.stack.clear();
        self.stack.push(root.index());
        while let Some(s) = self.stack.pop() {
            if self.seen[s] != self.stamp {
                self.seen[s] = self.stamp;
                self.cone.push(s);
                self.stack
                    .extend(netlist.gates()[s].fanins().map(SignalId::index));
            }
        }
        self.cone.sort_unstable();
        for &s in &self.cone {
            self.vals[s] = eval_gate(&netlist.gates()[s], &self.vals)
                .ok_or(NetlistError::Unmappable { node: root })?;
        }
        let bits = 1usize << cut.len();
        let mask = if bits == 64 { u64::MAX } else { (1u64 << bits) - 1 };
        Ok(self.vals[root.index()][0] & mask)
    }
}

/// Rounds of stimulus per verification pass: the flow's default of four
/// rounds ([`crate::SynthConfig::verify_rounds`]) fills one pass.
const VERIFY_BLOCK: usize = 4;

/// Verifies that a mapping is functionally equivalent to its source
/// netlist on `rounds * 64` random vectors, simulating the LUT network
/// from its truth tables. The rounds run [`VERIFY_BLOCK`] at a time, one
/// round per word of a block; the stimulus is drawn round by round, one
/// word per input.
///
/// # Errors
///
/// Returns [`NetlistError::MappingMismatch`] when a counterexample is
/// found, or propagates simulation errors, those of a malformed LUT
/// network included.
pub(crate) fn verify_mapping(
    netlist: &Netlist,
    mapped: &MappedNetlist,
    rounds: usize,
    seed: u64,
) -> crate::Result<()> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let program = mapped.program()?;
    if netlist.outputs().len() != program.outputs.len() {
        return Err(NetlistError::MappingMismatch);
    }
    let mut words: Vec<[u64; VERIFY_BLOCK]> = vec![[0; VERIFY_BLOCK]; netlist.inputs().len()];
    let (mut want, mut got) = (Vec::new(), Vec::new());
    for first in (0..rounds).step_by(VERIFY_BLOCK) {
        // A last, partial block leaves its tail words unread.
        let block = (rounds - first).min(VERIFY_BLOCK);
        for r in 0..block {
            for w in &mut words {
                w[r] = rng.gen();
            }
        }
        netlist.eval_blocks_masked(&words, &[], &mut want)?;
        program.eval_blocks(&words, &mut got)?;
        let mut outputs = netlist.outputs().iter().zip(&program.outputs);
        if outputs.any(|((_, a), &b)| want[a.index()][..block] != got[b][..block]) {
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

    /// `op` reads its output `x` once and the datapath three times more,
    /// which lowers `x`'s area-flow share and so changes the best cut of
    /// `g = x ^ y` at K = 3: the template's cut `{i0, i1, y}` is no
    /// longer the datapath's `{x, i2, i3}`. The fanout check must reject
    /// the instance.
    #[test]
    fn a_gate_read_more_often_than_in_its_operator_is_enumerated() {
        let mut op = Netlist::new("op");
        let i = op.input_bus("i", 5);
        let x = op.and(i[0], i[1]);
        let y = op.or(i[2], i[3]);
        let g = op.xor(x, y);
        let h1 = op.not(y);
        let h2 = op.and(y, i[4]);
        for (name, s) in [("g", g), ("x", x), ("h1", h1), ("h2", h2)] {
            op.output(name, s);
        }
        let op = std::sync::Arc::new(op);
        let mut d = Netlist::new("d");
        let ins = d.input_bus("i", 5);
        let q = d.input("q");
        let o = d.instantiate_shared(&op, op.content_digest(), &ins);
        let z1 = d.and(o[1], q);
        let z2 = d.or(o[1], q);
        let outputs = [("g", o[0]), ("x", o[1]), ("h1", o[2]), ("h2", o[3])];
        for (name, s) in outputs.into_iter().chain([("z1", z1), ("z2", z2)]) {
            d.output(name, s);
        }
        let d = optimize(&d);
        let bare = Netlist::from_parts(
            d.name(),
            d.gates().to_vec(),
            d.inputs().to_vec(),
            d.outputs().to_vec(),
        );
        let mapped = map_luts(&d, 3, MapStrategy::Depth).unwrap();
        assert_eq!(mapped, map_luts(&bare, 3, MapStrategy::Depth).unwrap());
        let (g, x) = (d.outputs()[0].1, d.outputs()[1].1);
        let g_lut = mapped.luts.iter().find(|l| l.root == g).unwrap();
        assert!(g_lut.inputs.contains(&x), "{g_lut:?}");
    }

    #[test]
    fn verification_catches_an_inverted_lut() {
        let mut n = Netlist::new("add4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (s, _) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        let opt = optimize(&n);
        let mut mapped = map_luts(&opt, 4, MapStrategy::Depth).unwrap();
        // Whole and partial blocks of rounds.
        for rounds in [1, 4, 17] {
            assert_eq!(verify_mapping(&opt, &mapped, rounds, 3), Ok(()));
        }
        let out = mapped.outputs[0].1;
        let lut = mapped.luts.iter_mut().find(|l| l.root == out).unwrap();
        lut.truth ^= (1u64 << (1 << lut.inputs.len())) - 1;
        for rounds in [1, 17] {
            assert_eq!(
                verify_mapping(&opt, &mapped, rounds, 3),
                Err(NetlistError::MappingMismatch)
            );
        }
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
