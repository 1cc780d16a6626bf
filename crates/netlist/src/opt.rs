//! Netlist optimization: constant folding, identity simplification,
//! structural hashing (CSE), buffer/alias removal and dead-code
//! elimination.
//!
//! [`optimize`] is run before technology mapping so that the mapper never
//! sees constants or buffers inside logic cones.

#![expect(clippy::disallowed_types, reason = "keyed lookup caches, never iterated")]

use crate::ir::{Gate, Netlist, SignalId};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Optimizes a netlist, returning a functionally equivalent netlist whose
/// primary input interface is preserved exactly (unused inputs stay).
///
/// Performed transformations:
/// - constant folding (a gate whose inputs are constants becomes a constant),
/// - boolean identity simplification (`x & 1 = x`, `x ^ x = 0`, mux with a
///   constant select, majority with a constant input, double negation, …),
/// - buffer/alias elimination,
/// - common-subexpression elimination via structural hashing,
/// - dead-code elimination (only logic reachable from the outputs is kept).
///
/// The instance records of [`Netlist::instantiate_shared`] carry over
/// unchanged, because the primary inputs keep their order.
///
/// # Examples
///
/// ```
/// use clapped_netlist::{optimize, Netlist};
///
/// let mut n = Netlist::new("t");
/// let a = n.input("a");
/// let one = n.constant(true);
/// let x = n.and(a, one); // = a
/// let y = n.xor(x, x);   // = 0
/// n.output("y", y);
/// let opt = optimize(&n);
/// assert_eq!(opt.logic_gate_count(), 0);
/// ```
pub fn optimize(netlist: &Netlist) -> Netlist {
    let folded = fold_and_hash(netlist);
    let mut out = eliminate_dead_code(&folded);
    out.keep_instances_of(netlist);
    out
}

fn fold_and_hash(netlist: &Netlist) -> Netlist {
    let mut f = Folder {
        out: Netlist::new(netlist.name().to_string()),
        hash: HashMap::with_capacity_and_hasher(netlist.len(), BuildHasherDefault::default()),
        not_of: Vec::new(),
    };
    // old id -> new id; fanins precede their users (topological order)
    let mut map: Vec<SignalId> = Vec::with_capacity(netlist.len());
    for gate in netlist.gates() {
        let resolve = |s: SignalId| map[s.index()];
        let new_sig: SignalId = match gate {
            Gate::Input { name } => f.out.input(name.clone()),
            Gate::Const(v) => f.out.constant(*v),
            Gate::Buf(a) => resolve(*a),
            Gate::Not(a) => {
                let a = resolve(*a);
                if let Some(v) = f.const_of(a) {
                    f.out.constant(!v)
                } else if let Some(inner) = f.not_of(a) {
                    inner // double negation
                } else {
                    let id = f.emit(CanonGate::Not(a));
                    f.set_not_of(id, a);
                    id
                }
            }
            Gate::And(a, b) | Gate::Nand(a, b) => {
                let base = f.and(resolve(*a), resolve(*b));
                f.apply_inv(base, matches!(gate, Gate::Nand(..)))
            }
            Gate::Or(a, b) | Gate::Nor(a, b) => {
                let base = f.or(resolve(*a), resolve(*b));
                f.apply_inv(base, matches!(gate, Gate::Nor(..)))
            }
            Gate::Xor(a, b) | Gate::Xnor(a, b) => {
                let base = f.xor(resolve(*a), resolve(*b));
                f.apply_inv(base, matches!(gate, Gate::Xnor(..)))
            }
            Gate::Mux { sel, t, f: e } => {
                let (sel, t, e) = (resolve(*sel), resolve(*t), resolve(*e));
                if let Some(sv) = f.const_of(sel) {
                    if sv {
                        t
                    } else {
                        e
                    }
                } else if t == e {
                    t
                } else {
                    match (f.const_of(t), f.const_of(e)) {
                        (Some(true), Some(false)) => sel,
                        (Some(false), Some(true)) => f.emit_not(sel),
                        (Some(true), None) => f.or(sel, e),
                        (Some(false), None) => {
                            let ns = f.emit_not(sel);
                            f.and(ns, e)
                        }
                        (None, Some(true)) => {
                            let ns = f.emit_not(sel);
                            f.or(ns, t)
                        }
                        (None, Some(false)) => f.and(sel, t),
                        _ => f.emit(CanonGate::Mux(sel, t, e)),
                    }
                }
            }
            Gate::Maj(a, b, c) => {
                let (a, b, c) = (resolve(*a), resolve(*b), resolve(*c));
                let consts = [f.const_of(a), f.const_of(b), f.const_of(c)];
                // Pull out constant operands: Maj(x,y,1) = x|y, Maj(x,y,0) = x&y.
                if let Some(pos) = consts.iter().position(Option::is_some) {
                    let [x, y] = match pos {
                        0 => [b, c],
                        1 => [a, c],
                        _ => [a, b],
                    };
                    if consts[pos] == Some(true) {
                        f.or(x, y)
                    } else {
                        f.and(x, y)
                    }
                } else if a == b || a == c {
                    a // Maj(x,x,y) = x
                } else if b == c {
                    b
                } else {
                    let mut s = [a, b, c];
                    s.sort();
                    f.emit(CanonGate::Maj(s[0], s[1], s[2]))
                }
            }
        };
        map.push(new_sig);
    }

    let mut out = f.out;
    for (name, sig) in netlist.outputs() {
        out.output(name.clone(), map[sig.index()]);
    }
    out
}

/// Canonical gate form used for structural hashing (commutative inputs are
/// sorted).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CanonGate {
    Not(SignalId),
    And(SignalId, SignalId),
    Or(SignalId, SignalId),
    Xor(SignalId, SignalId),
    Mux(SignalId, SignalId, SignalId),
    Maj(SignalId, SignalId, SignalId),
}

/// A multiplicative hasher for [`CanonGate`] keys. The keys are gate
/// kinds and signal ids this module creates, never outside input, so a
/// keyed hash's protection against chosen collisions buys nothing.
#[derive(Default)]
struct GateHasher(u64);

impl GateHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for GateHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_isize(&mut self, n: isize) {
        self.add(n.cast_unsigned() as u64);
    }
}

/// The optimized netlist under construction and what is known about
/// its signals.
struct Folder {
    out: Netlist,
    /// Structural hash: canonical gate in `out` -> its id.
    hash: HashMap<CanonGate, SignalId, BuildHasherDefault<GateHasher>>,
    /// The operand of each Not gate of `out` recorded for double-negation
    /// removal, indexed by signal (`None` past the end).
    not_of: Vec<Option<SignalId>>,
}

impl Folder {
    /// The value of a signal of `out` that is a constant.
    fn const_of(&self, s: SignalId) -> Option<bool> {
        match self.out.gate(s) {
            Gate::Const(v) => Some(*v),
            _ => None,
        }
    }

    fn not_of(&self, s: SignalId) -> Option<SignalId> {
        self.not_of.get(s.index()).copied().flatten()
    }

    fn set_not_of(&mut self, id: SignalId, a: SignalId) {
        if self.not_of.len() <= id.index() {
            self.not_of.resize(self.out.len(), None);
        }
        self.not_of[id.index()] = Some(a);
    }

    fn emit(&mut self, g: CanonGate) -> SignalId {
        let canon = match g {
            CanonGate::And(a, b) if a > b => CanonGate::And(b, a),
            CanonGate::Or(a, b) if a > b => CanonGate::Or(b, a),
            CanonGate::Xor(a, b) if a > b => CanonGate::Xor(b, a),
            other => other,
        };
        if let Some(&id) = self.hash.get(&canon) {
            return id;
        }
        let out = &mut self.out;
        let id = match canon {
            CanonGate::Not(a) => out.not(a),
            CanonGate::And(a, b) => out.and(a, b),
            CanonGate::Or(a, b) => out.or(a, b),
            CanonGate::Xor(a, b) => out.xor(a, b),
            CanonGate::Mux(s, t, f) => out.mux(s, t, f),
            CanonGate::Maj(a, b, c) => out.maj(a, b, c),
        };
        self.hash.insert(canon, id);
        id
    }

    fn emit_not(&mut self, a: SignalId) -> SignalId {
        if let Some(inner) = self.not_of(a) {
            return inner;
        }
        let id = self.emit(CanonGate::Not(a));
        self.set_not_of(id, a);
        id
    }

    fn apply_inv(&mut self, base: SignalId, invert: bool) -> SignalId {
        if !invert {
            return base;
        }
        if let Some(v) = self.const_of(base) {
            return self.out.constant(!v);
        }
        self.emit_not(base)
    }

    fn and(&mut self, a: SignalId, b: SignalId) -> SignalId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(false), _) | (_, Some(false)) => self.out.constant(false),
            (Some(true), _) => b,
            (_, Some(true)) => a,
            _ if a == b => a,
            _ => self.emit(CanonGate::And(a, b)),
        }
    }

    fn or(&mut self, a: SignalId, b: SignalId) -> SignalId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(true), _) | (_, Some(true)) => self.out.constant(true),
            (Some(false), _) => b,
            (_, Some(false)) => a,
            _ if a == b => a,
            _ => self.emit(CanonGate::Or(a, b)),
        }
    }

    fn xor(&mut self, a: SignalId, b: SignalId) -> SignalId {
        match (self.const_of(a), self.const_of(b)) {
            (Some(x), Some(y)) => self.out.constant(x ^ y),
            (Some(false), _) => b,
            (_, Some(false)) => a,
            // x ^ 1 = !x, emitted without recording it for
            // double-negation removal.
            (Some(true), _) => self.emit(CanonGate::Not(b)),
            (_, Some(true)) => self.emit(CanonGate::Not(a)),
            _ if a == b => self.out.constant(false),
            _ => self.emit(CanonGate::Xor(a, b)),
        }
    }
}

fn eliminate_dead_code(netlist: &Netlist) -> Netlist {
    let mut live = vec![false; netlist.len()];
    let mut stack: Vec<SignalId> = netlist.outputs().iter().map(|(_, s)| *s).collect();
    while let Some(s) = stack.pop() {
        if live[s.index()] {
            continue;
        }
        live[s.index()] = true;
        for f in netlist.gate(s).fanins() {
            stack.push(f);
        }
    }
    // Inputs always survive to preserve the interface.
    for &i in netlist.inputs() {
        live[i.index()] = true;
    }
    let mut out = Netlist::new(netlist.name().to_string());
    let mut map: Vec<Option<SignalId>> = vec![None; netlist.len()];
    for (idx, gate) in netlist.gates().iter().enumerate() {
        if !live[idx] {
            continue;
        }
        let m = |s: SignalId, map: &Vec<Option<SignalId>>| -> SignalId {
            map[s.index()].expect("live fanins precede their users")
        };
        let new_id = match gate {
            Gate::Input { name } => out.input(name.clone()),
            Gate::Const(v) => out.constant(*v),
            Gate::Buf(a) => out.buf(m(*a, &map)),
            Gate::Not(a) => out.not(m(*a, &map)),
            Gate::And(a, b) => {
                let (a, b) = (m(*a, &map), m(*b, &map));
                out.and(a, b)
            }
            Gate::Or(a, b) => {
                let (a, b) = (m(*a, &map), m(*b, &map));
                out.or(a, b)
            }
            Gate::Xor(a, b) => {
                let (a, b) = (m(*a, &map), m(*b, &map));
                out.xor(a, b)
            }
            Gate::Nand(a, b) => {
                let (a, b) = (m(*a, &map), m(*b, &map));
                out.nand(a, b)
            }
            Gate::Nor(a, b) => {
                let (a, b) = (m(*a, &map), m(*b, &map));
                out.nor(a, b)
            }
            Gate::Xnor(a, b) => {
                let (a, b) = (m(*a, &map), m(*b, &map));
                out.xnor(a, b)
            }
            Gate::Mux { sel, t, f } => {
                let (sel, t, f) = (m(*sel, &map), m(*t, &map), m(*f, &map));
                out.mux(sel, t, f)
            }
            Gate::Maj(a, b, c) => {
                let (a, b, c) = (m(*a, &map), m(*b, &map), m(*c, &map));
                out.maj(a, b, c)
            }
        };
        map[idx] = Some(new_id);
    }
    for (name, sig) in netlist.outputs() {
        out.output(name.clone(), map[sig.index()].expect("outputs are live"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn random_equivalence_check(orig: &Netlist, opt: &Netlist, seed: u64) {
        assert_eq!(orig.inputs().len(), opt.inputs().len());
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
        for _ in 0..32 {
            let words: Vec<u64> = (0..orig.inputs().len()).map(|_| rng.gen()).collect();
            let a = orig.simulate_words(&words).unwrap();
            let b = opt.simulate_words(&words).unwrap();
            assert_eq!(a, b, "optimization changed function");
        }
    }

    #[test]
    fn folds_constants() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let zero = n.constant(false);
        let one = n.constant(true);
        let x = n.and(a, zero); // 0
        let y = n.or(x, one); // 1
        let z = n.xor(y, a); // !a
        n.output("z", z);
        let opt = optimize(&n);
        assert_eq!(opt.logic_gate_count(), 1); // a single Not
        random_equivalence_check(&n, &opt, 1);
    }

    #[test]
    fn removes_double_negation() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let x = n.not(a);
        let y = n.not(x);
        n.output("y", y);
        let opt = optimize(&n);
        assert_eq!(opt.logic_gate_count(), 0);
        random_equivalence_check(&n, &opt, 2);
    }

    #[test]
    fn cse_merges_duplicate_gates() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let x = n.and(a, b);
        let y = n.and(b, a); // commutative duplicate
        let z = n.xor(x, y); // = 0
        n.output("z", z);
        let opt = optimize(&n);
        assert_eq!(opt.logic_gate_count(), 0);
        random_equivalence_check(&n, &opt, 3);
    }

    #[test]
    fn mux_with_constant_select_folds() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let one = n.constant(true);
        let m = n.mux(one, a, b);
        n.output("m", m);
        let opt = optimize(&n);
        assert_eq!(opt.logic_gate_count(), 0);
        random_equivalence_check(&n, &opt, 4);
    }

    #[test]
    fn maj_with_constant_folds_to_and_or() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let one = n.constant(true);
        let zero = n.constant(false);
        let or = n.maj(a, b, one);
        let and = n.maj(a, zero, b);
        n.output("or", or);
        n.output("and", and);
        let opt = optimize(&n);
        assert_eq!(opt.logic_gate_count(), 2);
        random_equivalence_check(&n, &opt, 5);
    }

    #[test]
    fn dead_code_is_removed_but_inputs_stay() {
        let mut n = Netlist::new("t");
        let a = n.input("a");
        let b = n.input("b");
        let _dead = n.xor(a, b);
        let live = n.and(a, b);
        n.output("y", live);
        let opt = optimize(&n);
        assert_eq!(opt.inputs().len(), 2);
        assert_eq!(opt.logic_gate_count(), 1);
        random_equivalence_check(&n, &opt, 6);
    }

    #[test]
    fn optimizing_adder_preserves_function() {
        let mut n = Netlist::new("add");
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let (s, c) = crate::bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("c", c);
        let opt = optimize(&n);
        assert!(opt.logic_gate_count() <= n.logic_gate_count());
        random_equivalence_check(&n, &opt, 7);
    }

    #[test]
    fn optimizing_multiplier_preserves_function() {
        let mut n = Netlist::new("mul");
        let a = n.input_bus("a", 6);
        let b = n.input_bus("b", 6);
        let p = crate::bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let opt = optimize(&n);
        assert!(opt.logic_gate_count() < n.logic_gate_count());
        random_equivalence_check(&n, &opt, 8);
    }
}
