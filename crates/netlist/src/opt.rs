//! Netlist optimization: constant folding, identity simplification,
//! structural hashing (CSE), buffer/alias removal and dead-code
//! elimination.
//!
//! [`optimize`] is run before technology mapping so that the mapper never
//! sees constants or buffers inside logic cones.

#![expect(clippy::disallowed_types, reason = "keyed lookup caches, never iterated")]

use crate::ir::{Gate, Netlist, SignalId};
use std::collections::HashMap;

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

/// What an old signal resolved to in the new netlist.
#[derive(Clone, Copy)]
enum Resolved {
    Sig(SignalId),
}

fn fold_and_hash(netlist: &Netlist) -> Netlist {
    let mut out = Netlist::new(netlist.name().to_string());
    // old id -> new id
    let mut map: Vec<Option<Resolved>> = vec![None; netlist.len()];
    // constant value of a *new* signal, if known
    let mut const_of: HashMap<SignalId, bool> = HashMap::new();
    // structural hash: canonical gate in the new netlist -> new id
    let mut hash: HashMap<CanonGate, SignalId> = HashMap::new();
    // remember Not gates for double-negation removal: new id -> its operand
    let mut not_of: HashMap<SignalId, SignalId> = HashMap::new();

    let konst = |out: &mut Netlist,
                     const_of: &mut HashMap<SignalId, bool>,
                     v: bool|
     -> SignalId {
        let id = out.constant(v);
        const_of.insert(id, v);
        id
    };

    for (idx, gate) in netlist.gates().iter().enumerate() {
        let resolve = |s: SignalId, map: &Vec<Option<Resolved>>| -> SignalId {
            match map[s.index()] {
                Some(Resolved::Sig(id)) => id,
                None => unreachable!("fanin resolved before use (topological order)"),
            }
        };
        let new_sig: SignalId = match gate {
            Gate::Input { name } => {
                let id = out.input(name.clone());
                map[idx] = Some(Resolved::Sig(id));
                continue;
            }
            Gate::Const(v) => konst(&mut out, &mut const_of, *v),
            Gate::Buf(a) => resolve(*a, &map),
            Gate::Not(a) => {
                let a = resolve(*a, &map);
                if let Some(&v) = const_of.get(&a) {
                    konst(&mut out, &mut const_of, !v)
                } else if let Some(&inner) = not_of.get(&a) {
                    inner // double negation
                } else {
                    let id = emit(&mut out, &mut hash, CanonGate::Not(a));
                    not_of.insert(id, a);
                    id
                }
            }
            Gate::And(a, b) | Gate::Nand(a, b) => {
                let invert = matches!(gate, Gate::Nand(..));
                let (a, b) = (resolve(*a, &map), resolve(*b, &map));
                let base = simplify_and(&mut out, &mut hash, &mut const_of, a, b);
                apply_inv(&mut out, &mut hash, &mut const_of, &mut not_of, base, invert)
            }
            Gate::Or(a, b) | Gate::Nor(a, b) => {
                let invert = matches!(gate, Gate::Nor(..));
                let (a, b) = (resolve(*a, &map), resolve(*b, &map));
                let base = simplify_or(&mut out, &mut hash, &mut const_of, a, b);
                apply_inv(&mut out, &mut hash, &mut const_of, &mut not_of, base, invert)
            }
            Gate::Xor(a, b) | Gate::Xnor(a, b) => {
                let invert = matches!(gate, Gate::Xnor(..));
                let (a, b) = (resolve(*a, &map), resolve(*b, &map));
                let base = simplify_xor(&mut out, &mut hash, &mut const_of, a, b);
                apply_inv(&mut out, &mut hash, &mut const_of, &mut not_of, base, invert)
            }
            Gate::Mux { sel, t, f } => {
                let (sel, t, f) = (resolve(*sel, &map), resolve(*t, &map), resolve(*f, &map));
                if let Some(&sv) = const_of.get(&sel) {
                    if sv {
                        t
                    } else {
                        f
                    }
                } else if t == f {
                    t
                } else {
                    match (const_of.get(&t).copied(), const_of.get(&f).copied()) {
                        (Some(true), Some(false)) => sel,
                        (Some(false), Some(true)) => {
                            emit_not(&mut out, &mut hash, &mut not_of, sel)
                        }
                        (Some(true), None) => simplify_or(&mut out, &mut hash, &mut const_of, sel, f),
                        (Some(false), None) => {
                            let ns = emit_not(&mut out, &mut hash, &mut not_of, sel);
                            simplify_and(&mut out, &mut hash, &mut const_of, ns, f)
                        }
                        (None, Some(true)) => {
                            let ns = emit_not(&mut out, &mut hash, &mut not_of, sel);
                            simplify_or(&mut out, &mut hash, &mut const_of, ns, t)
                        }
                        (None, Some(false)) => {
                            simplify_and(&mut out, &mut hash, &mut const_of, sel, t)
                        }
                        _ => emit(&mut out, &mut hash, CanonGate::Mux(sel, t, f)),
                    }
                }
            }
            Gate::Maj(a, b, c) => {
                let (a, b, c) = (resolve(*a, &map), resolve(*b, &map), resolve(*c, &map));
                let consts = [
                    const_of.get(&a).copied(),
                    const_of.get(&b).copied(),
                    const_of.get(&c).copied(),
                ];
                let sigs = [a, b, c];
                // Pull out constant operands: Maj(x,y,1) = x|y, Maj(x,y,0) = x&y.
                if let Some(pos) = consts.iter().position(Option::is_some) {
                    let cv = consts[pos].expect("position found");
                    let others: Vec<SignalId> = (0..3).filter(|&i| i != pos).map(|i| sigs[i]).collect();
                    if cv {
                        simplify_or(&mut out, &mut hash, &mut const_of, others[0], others[1])
                    } else {
                        simplify_and(&mut out, &mut hash, &mut const_of, others[0], others[1])
                    }
                } else if a == b || a == c {
                    a // Maj(x,x,y) = x
                } else if b == c {
                    b
                } else {
                    let mut s = [a, b, c];
                    s.sort();
                    emit(&mut out, &mut hash, CanonGate::Maj(s[0], s[1], s[2]))
                }
            }
        };
        // Track constants produced by simplification chains.
        map[idx] = Some(Resolved::Sig(new_sig));
    }

    for (name, sig) in netlist.outputs() {
        let new_sig = match map[sig.index()] {
            Some(Resolved::Sig(id)) => id,
            None => unreachable!("outputs reference existing gates"),
        };
        out.output(name.clone(), new_sig);
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

fn emit(out: &mut Netlist, hash: &mut HashMap<CanonGate, SignalId>, g: CanonGate) -> SignalId {
    let canon = match g {
        CanonGate::And(a, b) if a > b => CanonGate::And(b, a),
        CanonGate::Or(a, b) if a > b => CanonGate::Or(b, a),
        CanonGate::Xor(a, b) if a > b => CanonGate::Xor(b, a),
        other => other,
    };
    if let Some(&id) = hash.get(&canon) {
        return id;
    }
    let id = match canon {
        CanonGate::Not(a) => out.not(a),
        CanonGate::And(a, b) => out.and(a, b),
        CanonGate::Or(a, b) => out.or(a, b),
        CanonGate::Xor(a, b) => out.xor(a, b),
        CanonGate::Mux(s, t, f) => out.mux(s, t, f),
        CanonGate::Maj(a, b, c) => out.maj(a, b, c),
    };
    hash.insert(canon, id);
    id
}

fn emit_not(
    out: &mut Netlist,
    hash: &mut HashMap<CanonGate, SignalId>,
    not_of: &mut HashMap<SignalId, SignalId>,
    a: SignalId,
) -> SignalId {
    if let Some(&inner) = not_of.get(&a) {
        return inner;
    }
    let id = emit(out, hash, CanonGate::Not(a));
    not_of.insert(id, a);
    id
}

fn apply_inv(
    out: &mut Netlist,
    hash: &mut HashMap<CanonGate, SignalId>,
    const_of: &mut HashMap<SignalId, bool>,
    not_of: &mut HashMap<SignalId, SignalId>,
    base: SignalId,
    invert: bool,
) -> SignalId {
    if !invert {
        return base;
    }
    if let Some(&v) = const_of.get(&base) {
        let id = out.constant(!v);
        const_of.insert(id, !v);
        return id;
    }
    emit_not(out, hash, not_of, base)
}

fn simplify_and(
    out: &mut Netlist,
    hash: &mut HashMap<CanonGate, SignalId>,
    const_of: &mut HashMap<SignalId, bool>,
    a: SignalId,
    b: SignalId,
) -> SignalId {
    match (const_of.get(&a).copied(), const_of.get(&b).copied()) {
        (Some(false), _) | (_, Some(false)) => {
            let id = out.constant(false);
            const_of.insert(id, false);
            id
        }
        (Some(true), _) => b,
        (_, Some(true)) => a,
        _ if a == b => a,
        _ => emit(out, hash, CanonGate::And(a, b)),
    }
}

fn simplify_or(
    out: &mut Netlist,
    hash: &mut HashMap<CanonGate, SignalId>,
    const_of: &mut HashMap<SignalId, bool>,
    a: SignalId,
    b: SignalId,
) -> SignalId {
    match (const_of.get(&a).copied(), const_of.get(&b).copied()) {
        (Some(true), _) | (_, Some(true)) => {
            let id = out.constant(true);
            const_of.insert(id, true);
            id
        }
        (Some(false), _) => b,
        (_, Some(false)) => a,
        _ if a == b => a,
        _ => emit(out, hash, CanonGate::Or(a, b)),
    }
}

fn simplify_xor(
    out: &mut Netlist,
    hash: &mut HashMap<CanonGate, SignalId>,
    const_of: &mut HashMap<SignalId, bool>,
    a: SignalId,
    b: SignalId,
) -> SignalId {
    match (const_of.get(&a).copied(), const_of.get(&b).copied()) {
        (Some(x), Some(y)) => {
            let id = out.constant(x ^ y);
            const_of.insert(id, x ^ y);
            id
        }
        (Some(false), _) => b,
        (_, Some(false)) => a,
        // x ^ 1 handled by caller via apply_inv when needed; emit Not here.
        (Some(true), _) | (_, Some(true)) => {
            let other = if const_of.contains_key(&a) { b } else { a };
            emit(out, hash, CanonGate::Not(other))
        }
        _ if a == b => {
            let id = out.constant(false);
            const_of.insert(id, false);
            id
        }
        _ => emit(out, hash, CanonGate::Xor(a, b)),
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
