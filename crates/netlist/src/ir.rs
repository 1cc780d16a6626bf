//! Combinational gate-level intermediate representation.

use std::fmt;
use std::sync::Arc;

/// Identifier of a signal (the output of a gate) inside a [`Netlist`].
///
/// Signal ids are dense indices into the netlist's gate array. Because
/// builder methods only accept ids of gates that already exist, every
/// netlist is a DAG by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SignalId(pub(crate) u32);

// The order is written out because a derived `PartialOrd` calls
// `partial_cmp`, which the workspace's `partial_cmp` rule forbids.
impl Ord for SignalId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for SignalId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SignalId {
    /// Returns the raw index of this signal.
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a signal id from a raw index. Needed to address fault
    /// sites by position; operations that consume the id validate it
    /// against the target netlist and report out-of-range indices as
    /// [`crate::NetlistError::InvalidFaultSite`].
    #[expect(clippy::cast_possible_truncation, reason = "consumers validate the index")]
    pub fn from_index(index: usize) -> SignalId {
        SignalId(index as u32)
    }
}

/// A combinational gate. The variants cover the standard cell library the
/// LUT mapper understands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Gate {
    /// Primary input with a diagnostic name.
    Input {
        /// Port name, used in reports only.
        name: String,
    },
    /// Constant driver.
    Const(bool),
    /// Buffer (identity). Produced by optimization placeholders.
    Buf(SignalId),
    /// Inverter.
    Not(SignalId),
    /// 2-input AND.
    And(SignalId, SignalId),
    /// 2-input OR.
    Or(SignalId, SignalId),
    /// 2-input XOR.
    Xor(SignalId, SignalId),
    /// 2-input NAND.
    Nand(SignalId, SignalId),
    /// 2-input NOR.
    Nor(SignalId, SignalId),
    /// 2-input XNOR.
    Xnor(SignalId, SignalId),
    /// 2:1 multiplexer: output = if sel { t } else { f }.
    Mux {
        /// Select line.
        sel: SignalId,
        /// Value when `sel` is 1.
        t: SignalId,
        /// Value when `sel` is 0.
        f: SignalId,
    },
    /// 3-input majority (the carry function).
    Maj(SignalId, SignalId, SignalId),
}

impl Gate {
    /// Iterates over the fanin signals of this gate.
    pub(crate) fn fanins(&self) -> impl Iterator<Item = SignalId> + '_ {
        let (a, b, c): (Option<SignalId>, Option<SignalId>, Option<SignalId>) = match *self {
            Gate::Input { .. } | Gate::Const(_) => (None, None, None),
            Gate::Buf(x) | Gate::Not(x) => (Some(x), None, None),
            Gate::And(a, b)
            | Gate::Or(a, b)
            | Gate::Xor(a, b)
            | Gate::Nand(a, b)
            | Gate::Nor(a, b)
            | Gate::Xnor(a, b) => (Some(a), Some(b), None),
            Gate::Mux { sel, t, f } => (Some(sel), Some(t), Some(f)),
            Gate::Maj(a, b, c) => (Some(a), Some(b), Some(c)),
        };
        [a, b, c].into_iter().flatten()
    }

    /// True for gates that carry logic (not inputs/constants/buffers).
    pub(crate) fn is_logic(&self) -> bool {
        !matches!(self, Gate::Input { .. } | Gate::Const(_) | Gate::Buf(_))
    }
}

/// A shared sub-circuit's instance in a netlist, recorded by
/// [`Netlist::instantiate_shared`] so that [`crate::map_luts`] can copy
/// the sub-circuit's cut enumeration instead of repeating it.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Instance {
    /// The instantiated netlist, shared with its other instances.
    pub(crate) sub: Arc<Netlist>,
    /// `sub`'s content digest.
    pub(crate) digest: u64,
    /// For each primary input of `sub`, in order, the position in the
    /// instantiating netlist's primary input list of the input that
    /// drives it.
    pub(crate) inputs: Vec<u32>,
}

/// A combinational netlist: a DAG of [`Gate`]s with named primary inputs
/// and outputs.
///
/// # Examples
///
/// ```
/// use clapped_netlist::Netlist;
///
/// let mut n = Netlist::new("xor_gate");
/// let a = n.input("a");
/// let b = n.input("b");
/// let y = n.xor(a, b);
/// n.output("y", y);
/// assert_eq!(n.simulate_bool(&[true, false]).unwrap(), vec![true]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Netlist {
    name: String,
    gates: Vec<Gate>,
    inputs: Vec<SignalId>,
    outputs: Vec<(String, SignalId)>,
    const_cache: [Option<SignalId>; 2],
    instances: Vec<Instance>,
}

impl Netlist {
    /// Creates an empty netlist with a diagnostic name.
    pub fn new(name: impl Into<String>) -> Self {
        Netlist {
            name: name.into(),
            gates: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            const_cache: [None, None],
            instances: Vec::new(),
        }
    }

    /// Builds a netlist directly from its raw parts **without checking
    /// any structural invariant** — fanins may dangle, reference later
    /// gates (breaking the DAG property), or the input list may disagree
    /// with the `Gate::Input` gates present.
    ///
    /// This exists for artifact ingestion (deserialized or externally
    /// generated netlists) and for seeding violations in structural-lint
    /// tests. Always validate the result with [`crate::lint::lint_netlist`]
    /// before simulating it; the simulator and analyses assume the
    /// builder invariants hold.
    pub fn from_parts(
        name: impl Into<String>,
        gates: Vec<Gate>,
        inputs: Vec<SignalId>,
        outputs: Vec<(String, SignalId)>,
    ) -> Self {
        Netlist {
            name: name.into(),
            gates,
            inputs,
            outputs,
            const_cache: [None, None],
            instances: Vec::new(),
        }
    }

    /// Diagnostic name of the netlist.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// All gates, in topological (creation) order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Gate that drives `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` does not belong to this netlist.
    pub(crate) fn gate(&self, id: SignalId) -> &Gate {
        &self.gates[id.index()]
    }

    /// Primary inputs in declaration order.
    pub fn inputs(&self) -> &[SignalId] {
        &self.inputs
    }

    /// Named primary outputs in declaration order.
    pub fn outputs(&self) -> &[(String, SignalId)] {
        &self.outputs
    }

    /// Total number of gates (including inputs and constants).
    pub fn len(&self) -> usize {
        self.gates.len()
    }

    /// True when the netlist contains no gates at all.
    pub fn is_empty(&self) -> bool {
        self.gates.is_empty()
    }

    /// Number of logic gates (excluding inputs, constants and buffers).
    pub fn logic_gate_count(&self) -> usize {
        self.gates.iter().filter(|g| g.is_logic()).count()
    }

    fn push(&mut self, gate: Gate) -> SignalId {
        for f in gate.fanins() {
            assert!(
                f.index() < self.gates.len(),
                "fanin {f:?} does not exist yet (netlists are DAGs by construction)"
            );
        }
        let id = SignalId(u32::try_from(self.gates.len()).expect("netlist too large"));
        self.gates.push(gate);
        id
    }

    /// Adds a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> SignalId {
        let id = self.push(Gate::Input { name: name.into() });
        self.inputs.push(id);
        id
    }

    /// Adds `width` primary inputs named `name[0]`, `name[1]`, … (LSB
    /// first) and returns them as a bus.
    pub fn input_bus(&mut self, name: &str, width: usize) -> Vec<SignalId> {
        (0..width).map(|i| self.input(format!("{name}[{i}]"))).collect()
    }

    /// Returns a constant driver, deduplicated per netlist.
    pub fn constant(&mut self, value: bool) -> SignalId {
        let slot = usize::from(value);
        if let Some(id) = self.const_cache[slot] {
            return id;
        }
        let id = self.push(Gate::Const(value));
        self.const_cache[slot] = Some(id);
        id
    }

    /// Adds an inverter.
    pub fn not(&mut self, a: SignalId) -> SignalId {
        self.push(Gate::Not(a))
    }

    /// Adds a buffer.
    pub(crate) fn buf(&mut self, a: SignalId) -> SignalId {
        self.push(Gate::Buf(a))
    }

    /// Adds a 2-input AND gate.
    pub fn and(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(Gate::And(a, b))
    }

    /// Adds a 2-input OR gate.
    pub fn or(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(Gate::Or(a, b))
    }

    /// Adds a 2-input XOR gate.
    pub fn xor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(Gate::Xor(a, b))
    }

    /// Adds a 2-input NAND gate.
    pub fn nand(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(Gate::Nand(a, b))
    }

    /// Adds a 2-input NOR gate.
    pub fn nor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(Gate::Nor(a, b))
    }

    /// Adds a 2-input XNOR gate.
    pub fn xnor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        self.push(Gate::Xnor(a, b))
    }

    /// Adds a 2:1 mux (`sel ? t : f`).
    pub fn mux(&mut self, sel: SignalId, t: SignalId, f: SignalId) -> SignalId {
        self.push(Gate::Mux { sel, t, f })
    }

    /// Adds a 3-input majority gate.
    pub fn maj(&mut self, a: SignalId, b: SignalId, c: SignalId) -> SignalId {
        self.push(Gate::Maj(a, b, c))
    }

    /// Adds a 3-input AND as a tree.
    pub fn and3(&mut self, a: SignalId, b: SignalId, c: SignalId) -> SignalId {
        let ab = self.and(a, b);
        self.and(ab, c)
    }

    /// Adds a 3-input XOR as a tree (the full-adder sum function).
    pub(crate) fn xor3(&mut self, a: SignalId, b: SignalId, c: SignalId) -> SignalId {
        let ab = self.xor(a, b);
        self.xor(ab, c)
    }

    /// Reduces a set of signals with OR; returns constant 0 for an empty set.
    pub fn or_reduce(&mut self, xs: &[SignalId]) -> SignalId {
        match xs {
            [] => self.constant(false),
            [x] => *x,
            _ => {
                let mut acc = xs[0];
                for &x in &xs[1..] {
                    acc = self.or(acc, x);
                }
                acc
            }
        }
    }

    /// Declares a named primary output.
    pub fn output(&mut self, name: impl Into<String>, sig: SignalId) {
        assert!(sig.index() < self.gates.len(), "output signal does not exist");
        self.outputs.push((name.into(), sig));
    }

    /// Declares a named output bus (`name[0]` = LSB).
    pub fn output_bus(&mut self, name: &str, bus: &[SignalId]) {
        for (i, &sig) in bus.iter().enumerate() {
            self.output(format!("{name}[{i}]"), sig);
        }
    }

    /// Instantiates `sub` as a sub-circuit of `self`: the k-th primary
    /// input of `sub` is driven by `inputs[k]`, all of `sub`'s gates are
    /// copied in, and the signals corresponding to `sub`'s primary
    /// outputs are returned (in `sub` output order). `sub`'s output names
    /// are not declared as outputs of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from `sub`'s input count.
    pub(crate) fn instantiate(&mut self, sub: &Netlist, inputs: &[SignalId]) -> Vec<SignalId> {
        assert_eq!(
            inputs.len(),
            sub.inputs.len(),
            "instantiation input arity mismatch"
        );
        let mut map: Vec<Option<SignalId>> = vec![None; sub.gates.len()];
        let mut next_input = 0usize;
        for (idx, gate) in sub.gates.iter().enumerate() {
            let m = |s: SignalId, map: &Vec<Option<SignalId>>| -> SignalId {
                map[s.index()].expect("fanins precede users in topological order")
            };
            let new_id = match gate {
                Gate::Input { .. } => {
                    let sig = inputs[next_input];
                    next_input += 1;
                    sig
                }
                Gate::Const(v) => self.constant(*v),
                Gate::Buf(a) => self.buf(m(*a, &map)),
                Gate::Not(a) => self.not(m(*a, &map)),
                Gate::And(a, b) => {
                    let (a, b) = (m(*a, &map), m(*b, &map));
                    self.and(a, b)
                }
                Gate::Or(a, b) => {
                    let (a, b) = (m(*a, &map), m(*b, &map));
                    self.or(a, b)
                }
                Gate::Xor(a, b) => {
                    let (a, b) = (m(*a, &map), m(*b, &map));
                    self.xor(a, b)
                }
                Gate::Nand(a, b) => {
                    let (a, b) = (m(*a, &map), m(*b, &map));
                    self.nand(a, b)
                }
                Gate::Nor(a, b) => {
                    let (a, b) = (m(*a, &map), m(*b, &map));
                    self.nor(a, b)
                }
                Gate::Xnor(a, b) => {
                    let (a, b) = (m(*a, &map), m(*b, &map));
                    self.xnor(a, b)
                }
                Gate::Mux { sel, t, f } => {
                    let (sel, t, f) = (m(*sel, &map), m(*t, &map), m(*f, &map));
                    self.mux(sel, t, f)
                }
                Gate::Maj(a, b, c) => {
                    let (a, b, c) = (m(*a, &map), m(*b, &map), m(*c, &map));
                    self.maj(a, b, c)
                }
            };
            map[idx] = Some(new_id);
        }
        sub.outputs
            .iter()
            .map(|(_, s)| map[s.index()].expect("outputs reference existing gates"))
            .collect()
    }

    /// `Netlist::instantiate` for a sub-circuit shared between its
    /// instances, such as a library operator; `digest` must be `sub`'s
    /// [`Netlist::content_digest`]. When every signal in `inputs` is a
    /// primary input of `self`, the instance is also recorded: `sub`,
    /// its digest and the positions of those inputs. [`crate::optimize`]
    /// keeps the records, and [`crate::map_luts`] copies `sub`'s cut
    /// enumeration onto each recorded instance it can prove identical.
    /// A record never changes a result, and
    /// [`Netlist::content_digest`] ignores it.
    ///
    /// # Panics
    ///
    /// Panics if `inputs.len()` differs from `sub`'s input count.
    pub fn instantiate_shared(
        &mut self,
        sub: &Arc<Netlist>,
        digest: u64,
        inputs: &[SignalId],
    ) -> Vec<SignalId> {
        debug_assert_eq!(digest, sub.content_digest(), "digest of another netlist");
        let outputs = self.instantiate(sub, inputs);
        // Primary inputs are created in ascending id order; a miss
        // means the signal is no primary input.
        let positions: Option<Vec<u32>> = inputs
            .iter()
            .map(|s| {
                let at = self.inputs.binary_search(s).ok()?;
                u32::try_from(at).ok()
            })
            .collect();
        if let Some(inputs) = positions {
            self.instances.push(Instance {
                sub: Arc::clone(sub),
                digest,
                inputs,
            });
        }
        outputs
    }

    /// The instances recorded by [`Netlist::instantiate_shared`].
    pub(crate) fn instances(&self) -> &[Instance] {
        &self.instances
    }

    /// Takes over `source`'s instance records. Valid when `self` has
    /// `source`'s primary inputs in the same order, as an optimized
    /// copy of it does.
    pub(crate) fn keep_instances_of(&mut self, source: &Netlist) {
        debug_assert_eq!(self.inputs.len(), source.inputs.len());
        self.instances.clone_from(&source.instances);
    }

    /// Computes fanout counts for every signal (output references count
    /// as one fanout each).
    pub(crate) fn fanout_counts(&self) -> Vec<u32> {
        let mut counts = vec![0u32; self.gates.len()];
        for gate in &self.gates {
            for f in gate.fanins() {
                counts[f.index()] += 1;
            }
        }
        for (_, sig) in &self.outputs {
            counts[sig.index()] += 1;
        }
        counts
    }

    /// Depth of each signal in logic levels (inputs/constants are level 0;
    /// buffers are free).
    pub(crate) fn levels(&self) -> Vec<u32> {
        let mut lv = vec![0u32; self.gates.len()];
        for (i, gate) in self.gates.iter().enumerate() {
            lv[i] = match gate {
                Gate::Input { .. } | Gate::Const(_) => 0,
                Gate::Buf(x) => lv[x.index()],
                _ => gate.fanins().map(|f| lv[f.index()]).max().unwrap_or(0) + 1,
            };
        }
        lv
    }

    /// Maximum logic depth over all outputs.
    pub(crate) fn depth(&self) -> u32 {
        let lv = self.levels();
        self.outputs
            .iter()
            .map(|(_, s)| lv[s.index()])
            .max()
            .unwrap_or(0)
    }
}

impl fmt::Display for Netlist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist `{}`: {} inputs, {} outputs, {} gates ({} logic), depth {}",
            self.name,
            self.inputs.len(),
            self.outputs.len(),
            self.len(),
            self.logic_gate_count(),
            self.depth()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_and_counts() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        let y = n.not(x);
        n.output("y", y);
        assert_eq!(n.len(), 4);
        assert_eq!(n.logic_gate_count(), 2);
        assert_eq!(n.inputs().len(), 2);
        assert_eq!(n.outputs().len(), 1);
        assert_eq!(n.depth(), 2);
    }

    #[test]
    fn constants_are_deduplicated() {
        let mut n = Netlist::new("t");
        let c1 = n.constant(true);
        let c2 = n.constant(true);
        let c3 = n.constant(false);
        assert_eq!(c1, c2);
        assert_ne!(c1, c3);
        assert_eq!(n.len(), 2);
    }

    #[test]
    fn fanout_counts_include_outputs() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.not(a);
        let y = n.not(a);
        n.output("x", x);
        n.output("y", y);
        let counts = n.fanout_counts();
        assert_eq!(counts[a.index()], 2);
        assert_eq!(counts[x.index()], 1);
    }

    #[test]
    fn reduce_helpers() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let c = n.input("c");
        let or = n.or_reduce(&[a, b, c]);
        n.output("or", or);
        assert_eq!(n.simulate_bool(&[true, false, false]).unwrap(), vec![true]);
        assert_eq!(n.simulate_bool(&[false, false, false]).unwrap(), vec![false]);
    }

    #[test]
    fn buffers_are_depth_free() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b1 = n.buf(a);
        let b2 = n.buf(b1);
        n.output("y", b2);
        assert_eq!(n.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn output_of_unknown_signal_panics() {
        let mut n = Netlist::new("t");
        n.output("y", SignalId(3));
    }

    #[test]
    fn instantiate_copies_function() {
        // Sub-circuit: full adder.
        let mut fa = Netlist::new("fa");
        let a = fa.input("a");
        let b = fa.input("b");
        let c = fa.input("c");
        let s = fa.xor3(a, b, c);
        let cy = fa.maj(a, b, c);
        fa.output("s", s);
        fa.output("cy", cy);

        // Parent instantiates it twice, chained.
        let mut top = Netlist::new("top");
        let xs = top.input_bus("x", 4);
        let zero = top.constant(false);
        let o1 = top.instantiate(&fa, &[xs[0], xs[1], zero]);
        let o2 = top.instantiate(&fa, &[xs[2], xs[3], o1[1]]);
        top.output("s0", o1[0]);
        top.output("s1", o2[0]);
        top.output("c", o2[1]);
        for v in 0..16i64 {
            let bits: Vec<bool> = (0..4).map(|k| (v >> k) & 1 == 1).collect();
            let out = top.simulate_bool(&bits).unwrap();
            let s0 = (v & 1) ^ ((v >> 1) & 1);
            let c0 = (v & 1) & ((v >> 1) & 1);
            let sum2 = ((v >> 2) & 1) + ((v >> 3) & 1) + c0;
            assert_eq!(out[0], s0 == 1);
            assert_eq!(out[1], sum2 & 1 == 1);
            assert_eq!(out[2], sum2 >> 1 == 1);
        }
    }

    #[test]
    fn shared_instances_on_primary_inputs_are_recorded() {
        let mut fa = Netlist::new("fa");
        let a = fa.input("a");
        let b = fa.input("b");
        let c = fa.input("c");
        let s = fa.xor3(a, b, c);
        let cy = fa.maj(a, b, c);
        fa.output("s", s);
        fa.output("cy", cy);
        let fa = Arc::new(fa);
        let digest = fa.content_digest();

        let mut top = Netlist::new("top");
        let xs = top.input_bus("x", 4);
        let zero = top.constant(false);
        let o1 = top.instantiate_shared(&fa, digest, &[xs[0], xs[1], xs[3]]);
        // Driven by a gate and a constant: instantiated, not recorded.
        let o2 = top.instantiate_shared(&fa, digest, &[xs[2], o1[1], zero]);
        // A plain instantiation records nothing.
        let o3 = top.instantiate(&fa, &[xs[0], xs[2], xs[3]]);
        top.output("s0", o1[0]);
        top.output("s1", o2[0]);
        top.output("s2", o3[0]);
        assert_eq!(top.instances().len(), 1);
        assert_eq!(top.instances()[0].inputs, vec![0, 1, 3]);
        assert!(Arc::ptr_eq(&top.instances()[0].sub, &fa));

        // The digest ignores the records, and optimization keeps them.
        let bare = Netlist::from_parts(
            top.name(),
            top.gates().to_vec(),
            top.inputs().to_vec(),
            top.outputs().to_vec(),
        );
        assert!(bare.instances().is_empty());
        assert_eq!(bare.content_digest(), top.content_digest());
        assert_eq!(crate::optimize(&top).instances(), top.instances());
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn instantiate_wrong_arity_panics() {
        let mut sub = Netlist::new("s");
        let a = sub.input("a");
        sub.output("y", a);
        let mut top = Netlist::new("t");
        top.instantiate(&sub, &[]);
    }
}
