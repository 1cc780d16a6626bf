//! Reduced ordered binary decision diagrams (ROBDDs) and formal
//! equivalence checking.
//!
//! Random-vector simulation (as used by the mapper's self-check) can
//! miss counterexamples; the BDD backend proves or refutes equivalence
//! *formally*. Variables are ordered by primary-input position. BDDs of
//! multiplier-like functions grow exponentially, so every entry point
//! takes a node budget and fails gracefully when it is exhausted.

#![expect(clippy::disallowed_types, reason = "keyed lookups, never iterated")]
#![expect(clippy::cast_possible_truncation, reason = "node and variable ids stay far below 2^32")]

use crate::ir::{Gate, Netlist};
use crate::NetlistError;
use std::collections::HashMap;

/// Terminal node id for constant false.
const FALSE: u32 = 0;
/// Terminal node id for constant true.
const TRUE: u32 = 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Node {
    var: u32,
    lo: u32,
    hi: u32,
}

/// A BDD manager with a fixed variable order.
///
/// # Examples
///
/// ```
/// use clapped_netlist::bdd::BddManager;
///
/// let mut mgr = BddManager::new(2, 1_000);
/// let x = mgr.var(0).unwrap();
/// let y = mgr.var(1).unwrap();
/// let xy = mgr.and(x, y).unwrap();
/// let yx = mgr.and(y, x).unwrap();
/// assert_eq!(xy, yx); // canonical: same function, same node
/// ```
#[derive(Debug)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: HashMap<Node, u32>,
    and_cache: HashMap<(u32, u32), u32>,
    xor_cache: HashMap<(u32, u32), u32>,
    not_cache: HashMap<u32, u32>,
    var_count: u32,
    node_limit: usize,
}

impl BddManager {
    /// Creates a manager for `var_count` variables with a node budget.
    pub fn new(var_count: usize, node_limit: usize) -> BddManager {
        BddManager {
            // Slots 0/1 are terminals; their contents are never read.
            nodes: vec![
                Node { var: u32::MAX, lo: 0, hi: 0 },
                Node { var: u32::MAX, lo: 1, hi: 1 },
            ],
            unique: HashMap::new(),
            and_cache: HashMap::new(),
            xor_cache: HashMap::new(),
            not_cache: HashMap::new(),
            var_count: var_count as u32,
            node_limit,
        }
    }

    /// Clears every node and apply cache while **preserving allocated
    /// capacity**, and re-declares the variable count. After a reset the
    /// manager behaves like a fresh [`BddManager::new`] but reuses its
    /// buffers, so a pass analyzing hundreds of operators does not churn
    /// the allocator.
    pub(crate) fn reset(&mut self, var_count: usize) {
        self.nodes.clear();
        self.nodes.push(Node { var: u32::MAX, lo: 0, hi: 0 });
        self.nodes.push(Node { var: u32::MAX, lo: 1, hi: 1 });
        self.unique.clear();
        self.and_cache.clear();
        self.xor_cache.clear();
        self.not_cache.clear();
        self.var_count = var_count as u32;
    }

    /// The constant-false BDD.
    pub(crate) fn zero(&self) -> u32 {
        FALSE
    }

    /// The constant-true BDD.
    pub(crate) fn one(&self) -> u32 {
        TRUE
    }

    fn mk(&mut self, var: u32, lo: u32, hi: u32) -> crate::Result<u32> {
        if lo == hi {
            return Ok(lo);
        }
        let node = Node { var, lo, hi };
        if let Some(&id) = self.unique.get(&node) {
            return Ok(id);
        }
        if self.nodes.len() >= self.node_limit {
            clapped_obs::count("bdd.budget_exhausted", 1);
            return Err(NetlistError::BddLimit {
                limit: self.node_limit,
            });
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(node);
        self.unique.insert(node, id);
        Ok(id)
    }

    /// The BDD of a single variable.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BddLimit`] when the budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn var(&mut self, index: usize) -> crate::Result<u32> {
        assert!((index as u32) < self.var_count, "variable out of range");
        self.mk(index as u32, FALSE, TRUE)
    }

    fn var_of(&self, f: u32) -> u32 {
        if f <= 1 {
            u32::MAX
        } else {
            self.nodes[f as usize].var
        }
    }

    fn cofactors(&self, f: u32, var: u32) -> (u32, u32) {
        if f <= 1 || self.nodes[f as usize].var != var {
            (f, f)
        } else {
            let n = self.nodes[f as usize];
            (n.lo, n.hi)
        }
    }

    /// Conjunction.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BddLimit`] when the budget is exhausted.
    pub fn and(&mut self, f: u32, g: u32) -> crate::Result<u32> {
        if f == FALSE || g == FALSE {
            return Ok(FALSE);
        }
        if f == TRUE {
            return Ok(g);
        }
        if g == TRUE || f == g {
            return Ok(f);
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = self.and_cache.get(&key) {
            return Ok(r);
        }
        let var = self.var_of(f).min(self.var_of(g));
        let (f0, f1) = self.cofactors(f, var);
        let (g0, g1) = self.cofactors(g, var);
        let lo = self.and(f0, g0)?;
        let hi = self.and(f1, g1)?;
        let r = self.mk(var, lo, hi)?;
        self.and_cache.insert(key, r);
        Ok(r)
    }

    /// Negation.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BddLimit`] when the budget is exhausted.
    pub(crate) fn not(&mut self, f: u32) -> crate::Result<u32> {
        if f == FALSE {
            return Ok(TRUE);
        }
        if f == TRUE {
            return Ok(FALSE);
        }
        if let Some(&r) = self.not_cache.get(&f) {
            return Ok(r);
        }
        let n = self.nodes[f as usize];
        let lo = self.not(n.lo)?;
        let hi = self.not(n.hi)?;
        let r = self.mk(n.var, lo, hi)?;
        self.not_cache.insert(f, r);
        self.not_cache.insert(r, f);
        Ok(r)
    }

    /// Disjunction (via De Morgan).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BddLimit`] when the budget is exhausted.
    pub(crate) fn or(&mut self, f: u32, g: u32) -> crate::Result<u32> {
        let nf = self.not(f)?;
        let ng = self.not(g)?;
        let a = self.and(nf, ng)?;
        self.not(a)
    }

    /// Exclusive or.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BddLimit`] when the budget is exhausted.
    pub(crate) fn xor(&mut self, f: u32, g: u32) -> crate::Result<u32> {
        if f == g {
            return Ok(FALSE);
        }
        if f == FALSE {
            return Ok(g);
        }
        if g == FALSE {
            return Ok(f);
        }
        if f == TRUE {
            return self.not(g);
        }
        if g == TRUE {
            return self.not(f);
        }
        let key = (f.min(g), f.max(g));
        if let Some(&r) = self.xor_cache.get(&key) {
            return Ok(r);
        }
        let var = self.var_of(f).min(self.var_of(g));
        let (f0, f1) = self.cofactors(f, var);
        let (g0, g1) = self.cofactors(g, var);
        let lo = self.xor(f0, g0)?;
        let hi = self.xor(f1, g1)?;
        let r = self.mk(var, lo, hi)?;
        self.xor_cache.insert(key, r);
        Ok(r)
    }

    /// If-then-else `sel ? t : f`.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BddLimit`] when the budget is exhausted.
    pub(crate) fn ite(&mut self, sel: u32, t: u32, f: u32) -> crate::Result<u32> {
        let st = self.and(sel, t)?;
        let ns = self.not(sel)?;
        let sf = self.and(ns, f)?;
        self.or(st, sf)
    }

    /// Builds BDDs for every output of a netlist (inputs are variables
    /// in declaration order).
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::BddLimit`] when the budget is exhausted.
    pub fn build_outputs(&mut self, netlist: &Netlist) -> crate::Result<Vec<u32>> {
        let mut map: Vec<u32> = Vec::with_capacity(netlist.len());
        let mut next_input = 0usize;
        for gate in netlist.gates() {
            let id = match *gate {
                Gate::Input { .. } => {
                    let v = self.var(next_input)?;
                    next_input += 1;
                    v
                }
                Gate::Const(c) => {
                    if c {
                        TRUE
                    } else {
                        FALSE
                    }
                }
                Gate::Buf(a) => map[a.index()],
                Gate::Not(a) => {
                    let x = map[a.index()];
                    self.not(x)?
                }
                Gate::And(a, b) => {
                    let (x, y) = (map[a.index()], map[b.index()]);
                    self.and(x, y)?
                }
                Gate::Or(a, b) => {
                    let (x, y) = (map[a.index()], map[b.index()]);
                    self.or(x, y)?
                }
                Gate::Xor(a, b) => {
                    let (x, y) = (map[a.index()], map[b.index()]);
                    self.xor(x, y)?
                }
                Gate::Nand(a, b) => {
                    let (x, y) = (map[a.index()], map[b.index()]);
                    let r = self.and(x, y)?;
                    self.not(r)?
                }
                Gate::Nor(a, b) => {
                    let (x, y) = (map[a.index()], map[b.index()]);
                    let r = self.or(x, y)?;
                    self.not(r)?
                }
                Gate::Xnor(a, b) => {
                    let (x, y) = (map[a.index()], map[b.index()]);
                    let r = self.xor(x, y)?;
                    self.not(r)?
                }
                Gate::Mux { sel, t, f } => {
                    let (s, x, y) = (map[sel.index()], map[t.index()], map[f.index()]);
                    self.ite(s, x, y)?
                }
                Gate::Maj(a, b, c) => {
                    let (x, y, z) = (map[a.index()], map[b.index()], map[c.index()]);
                    let xy = self.and(x, y)?;
                    let xz = self.and(x, z)?;
                    let yz = self.and(y, z)?;
                    let o1 = self.or(xy, xz)?;
                    self.or(o1, yz)?
                }
            };
            map.push(id);
        }
        Ok(netlist
            .outputs()
            .iter()
            .map(|(_, s)| map[s.index()])
            .collect())
    }

    /// Evaluates a BDD under a complete input assignment.
    ///
    /// # Panics
    ///
    /// Panics if the assignment is shorter than the variable count a
    /// node refers to.
    pub fn eval(&self, f: u32, inputs: &[bool]) -> bool {
        let mut cur = f;
        while cur > 1 {
            let n = self.nodes[cur as usize];
            cur = if inputs[n.var as usize] { n.hi } else { n.lo };
        }
        cur == TRUE
    }

    /// Finds one satisfying assignment of `f` (as input-index/value
    /// pairs), or `None` for the constant-false function.
    pub(crate) fn any_sat(&self, f: u32) -> Option<Vec<(usize, bool)>> {
        if f == FALSE {
            return None;
        }
        let mut assignment = Vec::new();
        let mut cur = f;
        while cur > 1 {
            let n = self.nodes[cur as usize];
            if n.hi != FALSE {
                assignment.push((n.var as usize, true));
                cur = n.hi;
            } else {
                assignment.push((n.var as usize, false));
                cur = n.lo;
            }
        }
        Some(assignment)
    }

    /// Level of a node for model counting: its variable index, or
    /// `var_count` for terminals (one past the last variable).
    fn level(&self, f: u32) -> u32 {
        if f <= 1 {
            self.var_count
        } else {
            self.nodes[f as usize].var
        }
    }

    /// Number of satisfying assignments of `f` over **all**
    /// `var_count` variables (variables the function does not depend on
    /// count as free). Exact in `u128`; panics only if `var_count`
    /// exceeds 127, far beyond any netlist this crate builds.
    pub(crate) fn sat_count(&self, f: u32) -> u128 {
        let mut memo: HashMap<u32, u128> = HashMap::new();
        let suffix = self.count_suffix(f, &mut memo);
        suffix << self.level(f).min(self.var_count)
    }

    /// Satisfying assignments of `f` over the variable suffix
    /// `[level(f), var_count)`.
    fn count_suffix(&self, f: u32, memo: &mut HashMap<u32, u128>) -> u128 {
        if f == FALSE {
            return 0;
        }
        if f == TRUE {
            return 1;
        }
        if let Some(&c) = memo.get(&f) {
            return c;
        }
        let n = self.nodes[f as usize];
        let lo = self.count_suffix(n.lo, memo);
        let hi = self.count_suffix(n.hi, memo);
        // Variables skipped between this node and each child are free.
        let c = (lo << (self.level(n.lo) - n.var - 1)) + (hi << (self.level(n.hi) - n.var - 1));
        memo.insert(f, c);
        c
    }
}

/// Outcome of a formal equivalence check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Equivalence {
    /// The netlists compute identical functions.
    Equal,
    /// A counterexample was found: output index and a distinguishing
    /// input assignment (input-index/value pairs; unlisted inputs are
    /// don't-care, treat as 0).
    Differ {
        /// Output position at which the functions differ.
        output: usize,
        /// Partial input assignment demonstrating the difference.
        counterexample: Vec<(usize, bool)>,
    },
}

/// Formally checks equivalence of two netlists with matching interfaces
/// using ROBDDs.
///
/// # Errors
///
/// - [`NetlistError::InputCountMismatch`] if the interfaces differ,
/// - [`NetlistError::BddLimit`] if the functions exceed `node_limit`
///   (multiplier-like cones blow up; raise the limit or fall back to
///   random simulation).
///
/// # Examples
///
/// ```
/// use clapped_netlist::bdd::{check_equivalence, Equivalence};
/// use clapped_netlist::{optimize, Netlist};
///
/// let mut n = Netlist::new("t");
/// let a = n.input("a");
/// let b = n.input("b");
/// let y = n.xor(a, b);
/// n.output("y", y);
/// let opt = optimize(&n);
/// assert_eq!(check_equivalence(&n, &opt, 10_000).unwrap(), Equivalence::Equal);
/// ```
pub fn check_equivalence(
    a: &Netlist,
    b: &Netlist,
    node_limit: usize,
) -> crate::Result<Equivalence> {
    if a.inputs().len() != b.inputs().len() || a.outputs().len() != b.outputs().len() {
        return Err(NetlistError::InputCountMismatch {
            expected: a.inputs().len(),
            found: b.inputs().len(),
        });
    }
    let mut mgr = BddManager::new(a.inputs().len(), node_limit);
    let outs_a = mgr.build_outputs(a)?;
    let outs_b = mgr.build_outputs(b)?;
    for (idx, (&fa, &fb)) in outs_a.iter().zip(&outs_b).enumerate() {
        if fa != fb {
            let diff = mgr.xor(fa, fb)?;
            let counterexample = mgr
                .any_sat(diff)
                .expect("differing functions have a witness");
            return Ok(Equivalence::Differ {
                output: idx,
                counterexample,
            });
        }
    }
    Ok(Equivalence::Equal)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{bus, map_luts, optimize, MapStrategy, Netlist};

    fn adder(w: usize) -> Netlist {
        let mut n = Netlist::new("add");
        let a = n.input_bus("a", w);
        let b = n.input_bus("b", w);
        let (s, c) = bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("c", c);
        n
    }

    #[test]
    fn canonicity_merges_equal_functions() {
        let mut mgr = BddManager::new(3, 1000);
        let x = mgr.var(0).unwrap();
        let y = mgr.var(1).unwrap();
        let a = mgr.and(x, y).unwrap();
        let na = mgr.not(a).unwrap();
        let nx = mgr.not(x).unwrap();
        let ny = mgr.not(y).unwrap();
        let de_morgan = mgr.or(nx, ny).unwrap();
        assert_eq!(na, de_morgan);
    }

    #[test]
    fn optimizer_output_is_formally_equivalent() {
        let n = adder(8);
        let opt = optimize(&n);
        assert_eq!(
            check_equivalence(&n, &opt, 200_000).unwrap(),
            Equivalence::Equal
        );
    }

    #[test]
    fn mapped_netlist_is_formally_equivalent() {
        let n = adder(6);
        let opt = optimize(&n);
        let mapped = map_luts(&opt, 6, MapStrategy::Depth).unwrap();
        let as_netlist = mapped.to_netlist("mapped");
        assert_eq!(
            check_equivalence(&opt, &as_netlist, 200_000).unwrap(),
            Equivalence::Equal
        );
    }

    #[test]
    fn inequivalence_yields_counterexample() {
        let mut a = Netlist::new("a");
        let x = a.input("x");
        let y = a.input("y");
        let o = a.and(x, y);
        a.output("o", o);
        let mut b = Netlist::new("b");
        let x = b.input("x");
        let y = b.input("y");
        let o = b.or(x, y);
        b.output("o", o);
        let result = check_equivalence(&a, &b, 10_000).unwrap();
        let Equivalence::Differ { output, counterexample } = result else {
            panic!("AND and OR must differ");
        };
        assert_eq!(output, 0);
        // Verify the counterexample actually distinguishes them.
        let mut inputs = vec![false; 2];
        for (idx, val) in counterexample {
            inputs[idx] = val;
        }
        let ra = a.simulate_bool(&inputs).unwrap();
        let rb = b.simulate_bool(&inputs).unwrap();
        assert_ne!(ra, rb);
    }

    #[test]
    fn node_limit_is_enforced() {
        // A 6x6 multiplier's middle bits need far more than 50 nodes.
        let mut n = Netlist::new("mul");
        let a = n.input_bus("a", 6);
        let b = n.input_bus("b", 6);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let err = check_equivalence(&n, &n, 50);
        assert!(matches!(err, Err(NetlistError::BddLimit { .. })));
    }

    #[test]
    fn sat_count_matches_truth_table() {
        let mut mgr = BddManager::new(3, 1000);
        let x = mgr.var(0).unwrap();
        let y = mgr.var(1).unwrap();
        let z = mgr.var(2).unwrap();
        let xy = mgr.and(x, y).unwrap();
        let f = mgr.or(xy, z).unwrap();
        // x&y | z over 3 vars: 8 rows, satisfied by z=1 (4) plus x=y=1,z=0 (1).
        assert_eq!(mgr.sat_count(f), 5);
        assert_eq!(mgr.sat_count(mgr.zero()), 0);
        assert_eq!(mgr.sat_count(mgr.one()), 8);
        // A single variable is satisfied by half the space.
        assert_eq!(mgr.sat_count(x), 4);
    }

    #[test]
    fn sat_count_handles_skipped_levels() {
        // f depends only on var 2 of 5: half the 32 rows satisfy it.
        let mut mgr = BddManager::new(5, 1000);
        let v = mgr.var(2).unwrap();
        assert_eq!(mgr.sat_count(v), 16);
        let nv = mgr.not(v).unwrap();
        assert_eq!(mgr.sat_count(nv), 16);
    }

    #[test]
    fn reset_preserves_capacity_and_reuses_manager() {
        let mut mgr = BddManager::new(2, 10_000);
        let x = mgr.var(0).unwrap();
        let y = mgr.var(1).unwrap();
        let _ = mgr.and(x, y).unwrap();
        assert!(mgr.nodes.len() > 2);
        assert!(!mgr.and_cache.is_empty());
        mgr.reset(3);
        assert_eq!(mgr.nodes.len(), 2);
        assert_eq!(mgr.var_count, 3);
        assert!(mgr.and_cache.is_empty());
        // The reset manager produces canonical results again.
        let a = mgr.var(0).unwrap();
        let b = mgr.var(2).unwrap();
        let ab = mgr.and(a, b).unwrap();
        let ba = mgr.and(b, a).unwrap();
        assert_eq!(ab, ba);
        assert_eq!(mgr.sat_count(ab), 2);
    }

    #[test]
    fn small_multiplier_is_tractable() {
        let mut n = Netlist::new("mul4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let p = bus::baugh_wooley_mul(&mut n, &a, &b);
        n.output_bus("p", &p);
        let opt = optimize(&n);
        assert_eq!(
            check_equivalence(&n, &opt, 500_000).unwrap(),
            Equivalence::Equal
        );
    }
}
