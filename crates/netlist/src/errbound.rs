//! Formal error-bound analysis over approximate netlists.
//!
//! Given an approximate netlist and its exact reference, this pass
//! computes **proved** error metrics without a single simulation
//! vector, in two tiers:
//!
//! 1. an *interval/congruence* abstract interpretation over the
//!    combined miter DAG: ternary constant propagation plus structural
//!    hashing assigns every signal an abstract value (a proved constant
//!    or an equivalence class), so output bits whose approximate and
//!    exact cones land in the same class are proved equal. The
//!    remaining bits form the **error cone**, and the weighted sum of
//!    cone bits is a sound worst-case-error (WCE) bound — for both
//!    unsigned and two's-complement output encodings, since
//!    `|x − y| ≤ Σ_{k∈cone} 2^k` covers the sign bit's magnitude;
//! 2. an *exact* pass on [`BddManager`]: the miter is extended with an
//!    XOR-difference predicate and a gate-level `|exact − approx|`
//!    datapath, and BDDs deliver the exact error rate (satisfying
//!    assignment counting) and exact WCE (MSB-first maximization over
//!    the absolute-difference bits). The pass is budget-limited and
//!    falls back to the interval bound when the node limit trips
//!    (counted on `bdd.budget_exhausted`).

// lint-allow-file(hash-containers): the congruence key table and the
// complement map are keyed lookups, never iterated; class ids are
// allocated in deterministic netlist walk order.

use crate::bdd::BddManager;
use crate::ir::{Gate, Netlist, SignalId};
use crate::{bus, NetlistError};
use std::collections::HashMap;

/// Configuration of [`analyze`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ErrBoundConfig {
    /// Node budget for the exact BDD tier; when exhausted the analysis
    /// gracefully degrades to the interval bound. `0` disables the
    /// exact tier outright (interval-only analysis, microseconds per
    /// operator — the mode the generative catalog uses per spec).
    pub bdd_node_limit: usize,
    /// Whether output buses encode two's-complement values. Affects
    /// only the exact `|e − a|` datapath (interval bounds are encoding
    /// agnostic).
    pub signed_outputs: bool,
}

impl Default for ErrBoundConfig {
    fn default() -> ErrBoundConfig {
        ErrBoundConfig {
            bdd_node_limit: 400_000,
            signed_outputs: true,
        }
    }
}

/// Exact error metrics from the BDD tier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExactError {
    /// Number of input assignments on which the outputs differ.
    pub mismatch_count: u128,
    /// Total input-space size (`2^inputs`).
    pub input_space: u128,
    /// `mismatch_count / input_space`.
    pub error_rate: f64,
    /// Exact worst-case `|exact − approx|` over all inputs.
    pub wce: u64,
}

/// Result of a formal error-bound analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBounds {
    /// Per output bit: `true` when the bit is **not** proved equal to
    /// the reference (it may carry error).
    pub error_cone: Vec<bool>,
    /// Interval-tier WCE bound: `Σ 2^k` over error-cone bits. Always a
    /// sound upper bound on the true worst-case absolute error.
    pub proved_wce: u64,
    /// Exact metrics when the BDD tier fit its node budget.
    pub exact: Option<ExactError>,
}

impl ErrorBounds {
    /// True when every output bit is proved equal to the reference.
    pub fn proved_equal(&self) -> bool {
        !self.error_cone.iter().any(|&b| b)
    }

    /// Number of output bits not proved equal.
    pub fn cone_bits(&self) -> usize {
        self.error_cone.iter().filter(|&&b| b).count()
    }

    /// Tightest proved WCE: the exact value when available, the
    /// interval bound otherwise.
    pub fn best_wce(&self) -> u64 {
        match self.exact {
            Some(e) => e.wce,
            None => self.proved_wce,
        }
    }

    /// Proved error rate: exact when available, else the trivial sound
    /// bound (`0` for proved-equal netlists, `1` otherwise).
    pub fn proved_error_rate(&self) -> f64 {
        match self.exact {
            Some(e) => e.error_rate,
            None => {
                if self.proved_equal() {
                    0.0
                } else {
                    1.0
                }
            }
        }
    }
}

/// Analyzes `approx` against its exact reference with a fresh
/// [`BddManager`].
///
/// # Errors
///
/// - [`NetlistError::InputCountMismatch`] / [`NetlistError::OutputCountMismatch`]
///   when the interfaces differ.
///
/// A BDD budget exhaustion is **not** an error: the result simply
/// carries `exact: None`.
///
/// # Examples
///
/// ```
/// use clapped_netlist::errbound::{analyze, ErrBoundConfig};
/// use clapped_netlist::{bus, Netlist};
///
/// // 4-bit adder vs a copy that drops the LSB (stuck at 0).
/// let build = |drop_lsb: bool| {
///     let mut n = Netlist::new("add");
///     let a = n.input_bus("a", 4);
///     let b = n.input_bus("b", 4);
///     let (mut s, _c) = bus::ripple_carry_add(&mut n, &a, &b, None);
///     if drop_lsb {
///         s[0] = n.constant(false);
///     }
///     n.output_bus("s", &s);
///     n
/// };
/// let bounds = analyze(&build(true), &build(false), &ErrBoundConfig::default())?;
/// assert_eq!(bounds.proved_wce, 1); // only bit 0 is in the error cone
/// let exact = bounds.exact.expect("tiny cone fits any budget");
/// assert_eq!(exact.wce, 1);
/// # Ok::<(), clapped_netlist::NetlistError>(())
/// ```
pub fn analyze(
    approx: &Netlist,
    exact: &Netlist,
    cfg: &ErrBoundConfig,
) -> crate::Result<ErrorBounds> {
    let mut mgr = BddManager::new(exact.inputs().len(), cfg.bdd_node_limit);
    analyze_with(&mut mgr, approx, exact, cfg)
}

/// [`analyze`] reusing a caller-owned manager (reset in place), so a
/// sweep over many operators amortizes the manager's allocations.
///
/// # Errors
///
/// See [`analyze`].
pub fn analyze_with(
    mgr: &mut BddManager,
    approx: &Netlist,
    exact: &Netlist,
    cfg: &ErrBoundConfig,
) -> crate::Result<ErrorBounds> {
    let n_in = exact.inputs().len();
    let out_w = exact.outputs().len();
    if approx.inputs().len() != n_in {
        return Err(NetlistError::InputCountMismatch {
            expected: n_in,
            found: approx.inputs().len(),
        });
    }
    if approx.outputs().len() != out_w {
        return Err(NetlistError::OutputCountMismatch {
            expected: out_w,
            found: approx.outputs().len(),
        });
    }
    if out_w == 0 {
        return Ok(ErrorBounds {
            error_cone: Vec::new(),
            proved_wce: 0,
            exact: Some(ExactError {
                mismatch_count: 0,
                input_space: space_of(n_in),
                error_rate: 0.0,
                wce: 0,
            }),
        });
    }

    // --- Miter: both circuits over shared inputs -------------------
    let mut miter = Netlist::new("errbound_miter");
    let ins: Vec<SignalId> = (0..n_in).map(|k| miter.input(format!("i{k}"))).collect();
    let e_outs = miter.instantiate(exact, &ins);
    let a_outs = miter.instantiate(approx, &ins);

    // --- Tier 1: interval/congruence abstract interpretation -------
    let vals = abstract_values(&miter);
    let error_cone: Vec<bool> = e_outs
        .iter()
        .zip(&a_outs)
        .map(|(&e, &a)| vals[e.index()] != vals[a.index()])
        .collect();
    let proved_wce = cone_weight(&error_cone);

    // A fully proved-equal pair needs no BDD work at all.
    if !error_cone.iter().any(|&b| b) {
        return Ok(ErrorBounds {
            error_cone,
            proved_wce,
            exact: Some(ExactError {
                mismatch_count: 0,
                input_space: space_of(n_in),
                error_rate: 0.0,
                wce: 0,
            }),
        });
    }

    // --- Tier 2: exact BDD pass (budget-limited) -------------------
    if cfg.bdd_node_limit == 0 {
        return Ok(ErrorBounds {
            error_cone,
            proved_wce,
            exact: None,
        });
    }
    // Extend the miter with the mismatch predicate and a gate-level
    // |e − a| datapath, then register them as miter outputs.
    let diffs: Vec<SignalId> = e_outs
        .iter()
        .zip(&a_outs)
        .map(|(&e, &a)| miter.xor(e, a))
        .collect();
    let neq = miter.or_reduce(&diffs);
    let (e_ext, a_ext) = if cfg.signed_outputs {
        (
            bus::sign_extend(&e_outs, out_w + 1),
            bus::sign_extend(&a_outs, out_w + 1),
        )
    } else {
        (
            bus::zero_extend(&mut miter, &e_outs, out_w + 1),
            bus::zero_extend(&mut miter, &a_outs, out_w + 1),
        )
    };
    let (d, _borrow) = bus::ripple_carry_sub(&mut miter, &e_ext, &a_ext);
    let sign = d[out_w];
    // |d| = (d XOR sign) + sign — conditional two's-complement negate.
    let d_flipped: Vec<SignalId> = d.iter().map(|&s| miter.xor(s, sign)).collect();
    let zeros = bus::constant_bus(&mut miter, 0, out_w + 1);
    let (abs, _c) = bus::ripple_carry_add(&mut miter, &d_flipped, &zeros, Some(sign));
    miter.output("errbound_neq", neq);
    miter.output_bus("errbound_abs", &abs);

    mgr.reset(n_in);
    let exact_metrics = match bdd_exact_pass(mgr, &miter, n_in) {
        Ok(m) => Some(m),
        Err(NetlistError::BddLimit { .. }) => None,
        Err(e) => return Err(e),
    };
    Ok(ErrorBounds {
        error_cone,
        proved_wce,
        exact: exact_metrics,
    })
}

/// `2^n_in` with a graceful cap (netlists never approach 128 inputs,
/// but the arithmetic must not overflow regardless).
fn space_of(n_in: usize) -> u128 {
    if n_in >= 128 {
        u128::MAX
    } else {
        1u128 << n_in
    }
}

/// `2^k`, saturating to `u64::MAX` for `k ≥ 64` (buses that wide never
/// occur, but the bound must stay sound if they do).
fn pow2_sat(k: usize) -> u64 {
    u32::try_from(k)
        .ok()
        .and_then(|shift| 1u64.checked_shl(shift))
        .unwrap_or(u64::MAX)
}

/// `Σ 2^k` over set cone bits, saturating for very wide buses.
fn cone_weight(cone: &[bool]) -> u64 {
    let mut w: u64 = 0;
    for (k, &in_cone) in cone.iter().enumerate() {
        if in_cone {
            w = w.saturating_add(pow2_sat(k));
        }
    }
    w
}

fn bdd_exact_pass(
    mgr: &mut BddManager,
    miter: &Netlist,
    n_in: usize,
) -> crate::Result<ExactError> {
    if n_in >= 128 {
        // sat_count cannot represent the space; treat as budget-class
        // fallback rather than returning a wrong rate.
        return Err(NetlistError::BddLimit { limit: 0 });
    }
    let outs = mgr.build_outputs(miter)?;
    let (neq_bdd, abs_bdds) = match outs.split_first() {
        Some((&neq, rest)) => (neq, rest),
        None => return Err(NetlistError::BddLimit { limit: 0 }),
    };
    let mismatch_count = mgr.sat_count(neq_bdd);
    let input_space = space_of(n_in);
    // Exact WCE: greedy MSB-first maximization of |e − a|. At each bit
    // we keep the assignments that can still set it; the accepted bits
    // spell the maximum value the abs bus attains.
    let mut constraint = mgr.one();
    let mut wce: u64 = 0;
    for k in (0..abs_bdds.len()).rev() {
        let t = mgr.and(constraint, abs_bdds[k])?;
        if t != mgr.zero() {
            constraint = t;
            wce = wce.saturating_add(pow2_sat(k));
        }
    }
    Ok(ExactError {
        mismatch_count,
        input_space,
        error_rate: mismatch_count as f64 / input_space as f64,
        wce,
    })
}

// ------------------------------------------------------------------
// Abstract domain: ternary constants + congruence classes
// ------------------------------------------------------------------

/// Abstract value of a signal: a proved constant, or a congruence
/// class id (equal ids ⇒ provably equal functions; distinct ids prove
/// nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AbsVal {
    /// The signal is this constant for every input assignment.
    Const(bool),
    /// Canonical class id from structural hashing.
    Class(u32),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Key {
    Input(u32),
    Not(u32),
    And(u32, u32),
    Or(u32, u32),
    Xor(u32, u32),
    Mux(u32, u32, u32),
    Maj(u32, u32, u32),
}

struct AbsDomain {
    keys: HashMap<Key, u32>,
    complement: HashMap<u32, u32>,
    next: u32,
}

impl AbsDomain {
    fn new() -> AbsDomain {
        AbsDomain {
            keys: HashMap::new(),
            complement: HashMap::new(),
            next: 0,
        }
    }

    fn class(&mut self, key: Key) -> u32 {
        if let Some(&id) = self.keys.get(&key) {
            return id;
        }
        let id = self.next;
        self.next += 1;
        self.keys.insert(key, id);
        id
    }

    fn fresh_input(&mut self, ordinal: u32) -> AbsVal {
        AbsVal::Class(self.class(Key::Input(ordinal)))
    }

    fn not1(&mut self, v: AbsVal) -> AbsVal {
        match v {
            AbsVal::Const(c) => AbsVal::Const(!c),
            AbsVal::Class(c) => {
                if let Some(&n) = self.complement.get(&c) {
                    return AbsVal::Class(n);
                }
                let n = self.class(Key::Not(c));
                self.complement.insert(c, n);
                self.complement.insert(n, c);
                AbsVal::Class(n)
            }
        }
    }

    fn complementary(&self, a: u32, b: u32) -> bool {
        self.complement.get(&a) == Some(&b)
    }

    fn and2(&mut self, a: AbsVal, b: AbsVal) -> AbsVal {
        match (a, b) {
            (AbsVal::Const(false), _) | (_, AbsVal::Const(false)) => AbsVal::Const(false),
            (AbsVal::Const(true), x) | (x, AbsVal::Const(true)) => x,
            (AbsVal::Class(x), AbsVal::Class(y)) => {
                if x == y {
                    AbsVal::Class(x)
                } else if self.complementary(x, y) {
                    AbsVal::Const(false)
                } else {
                    AbsVal::Class(self.class(Key::And(x.min(y), x.max(y))))
                }
            }
        }
    }

    fn or2(&mut self, a: AbsVal, b: AbsVal) -> AbsVal {
        match (a, b) {
            (AbsVal::Const(true), _) | (_, AbsVal::Const(true)) => AbsVal::Const(true),
            (AbsVal::Const(false), x) | (x, AbsVal::Const(false)) => x,
            (AbsVal::Class(x), AbsVal::Class(y)) => {
                if x == y {
                    AbsVal::Class(x)
                } else if self.complementary(x, y) {
                    AbsVal::Const(true)
                } else {
                    AbsVal::Class(self.class(Key::Or(x.min(y), x.max(y))))
                }
            }
        }
    }

    fn xor2(&mut self, a: AbsVal, b: AbsVal) -> AbsVal {
        match (a, b) {
            (AbsVal::Const(ca), AbsVal::Const(cb)) => AbsVal::Const(ca != cb),
            (AbsVal::Const(false), x) | (x, AbsVal::Const(false)) => x,
            (AbsVal::Const(true), x) | (x, AbsVal::Const(true)) => self.not1(x),
            (AbsVal::Class(x), AbsVal::Class(y)) => {
                if x == y {
                    AbsVal::Const(false)
                } else if self.complementary(x, y) {
                    AbsVal::Const(true)
                } else {
                    AbsVal::Class(self.class(Key::Xor(x.min(y), x.max(y))))
                }
            }
        }
    }

    fn mux3(&mut self, sel: AbsVal, t: AbsVal, f: AbsVal) -> AbsVal {
        match sel {
            AbsVal::Const(true) => t,
            AbsVal::Const(false) => f,
            AbsVal::Class(s) => {
                if t == f {
                    return t;
                }
                // Canonical 1/0 branches collapse to the select itself.
                if t == AbsVal::Const(true) && f == AbsVal::Const(false) {
                    return AbsVal::Class(s);
                }
                if t == AbsVal::Const(false) && f == AbsVal::Const(true) {
                    return self.not1(AbsVal::Class(s));
                }
                match (t, f) {
                    (AbsVal::Class(tc), AbsVal::Class(fc)) => {
                        AbsVal::Class(self.class(Key::Mux(s, tc, fc)))
                    }
                    // One constant branch: rewrite through AND/OR so the
                    // congruence sees through equivalent formulations.
                    (AbsVal::Const(true), x) => self.or2(AbsVal::Class(s), x),
                    (AbsVal::Const(false), x) => {
                        let ns = self.not1(AbsVal::Class(s));
                        self.and2(ns, x)
                    }
                    (x, AbsVal::Const(true)) => {
                        let ns = self.not1(AbsVal::Class(s));
                        self.or2(ns, x)
                    }
                    (x, AbsVal::Const(false)) => self.and2(AbsVal::Class(s), x),
                }
            }
        }
    }

    fn maj3(&mut self, a: AbsVal, b: AbsVal, c: AbsVal) -> AbsVal {
        // Any agreeing pair decides the majority outright.
        if a == b || a == c {
            return a;
        }
        if b == c {
            return b;
        }
        match (a, b, c) {
            (AbsVal::Class(x), AbsVal::Class(y), AbsVal::Class(z)) => {
                if self.complementary(x, y) {
                    // Maj(x, !x, z) = z
                    return c;
                }
                if self.complementary(x, z) {
                    return b;
                }
                if self.complementary(y, z) {
                    return a;
                }
                let mut ids = [x, y, z];
                ids.sort_unstable();
                AbsVal::Class(self.class(Key::Maj(ids[0], ids[1], ids[2])))
            }
            _ => {
                // At least one constant: Maj(1, y, z) = y|z, Maj(0, y, z) = y&z.
                let (konst, y, z) = if let AbsVal::Const(v) = a {
                    (v, b, c)
                } else if let AbsVal::Const(v) = b {
                    (v, a, c)
                } else if let AbsVal::Const(v) = c {
                    (v, a, b)
                } else {
                    // Unreachable: the all-class case is handled above.
                    return a;
                };
                if konst {
                    self.or2(y, z)
                } else {
                    self.and2(y, z)
                }
            }
        }
    }
}

/// Computes the abstract value of every signal in one topological walk
/// (netlists are DAGs by construction, so a single forward pass is a
/// fixpoint).
pub fn abstract_values(netlist: &Netlist) -> Vec<AbsVal> {
    let mut dom = AbsDomain::new();
    let mut vals: Vec<AbsVal> = Vec::with_capacity(netlist.len());
    let mut next_input: u32 = 0;
    for gate in netlist.gates() {
        let v = |s: SignalId, vals: &Vec<AbsVal>| vals[s.index()];
        let val = match *gate {
            Gate::Input { .. } => {
                let id = dom.fresh_input(next_input);
                next_input += 1;
                id
            }
            Gate::Const(c) => AbsVal::Const(c),
            Gate::Buf(a) => v(a, &vals),
            Gate::Not(a) => {
                let x = v(a, &vals);
                dom.not1(x)
            }
            Gate::And(a, b) => {
                let (x, y) = (v(a, &vals), v(b, &vals));
                dom.and2(x, y)
            }
            Gate::Or(a, b) => {
                let (x, y) = (v(a, &vals), v(b, &vals));
                dom.or2(x, y)
            }
            Gate::Xor(a, b) => {
                let (x, y) = (v(a, &vals), v(b, &vals));
                dom.xor2(x, y)
            }
            Gate::Nand(a, b) => {
                let (x, y) = (v(a, &vals), v(b, &vals));
                let r = dom.and2(x, y);
                dom.not1(r)
            }
            Gate::Nor(a, b) => {
                let (x, y) = (v(a, &vals), v(b, &vals));
                let r = dom.or2(x, y);
                dom.not1(r)
            }
            Gate::Xnor(a, b) => {
                let (x, y) = (v(a, &vals), v(b, &vals));
                let r = dom.xor2(x, y);
                dom.not1(r)
            }
            Gate::Mux { sel, t, f } => {
                let (s, x, y) = (v(sel, &vals), v(t, &vals), v(f, &vals));
                dom.mux3(s, x, y)
            }
            Gate::Maj(a, b, c) => {
                let (x, y, z) = (v(a, &vals), v(b, &vals), v(c, &vals));
                dom.maj3(x, y, z)
            }
        };
        vals.push(val);
    }
    vals
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bus;

    fn mul4(approx_drop_low: usize) -> Netlist {
        let mut n = Netlist::new("mul4");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let mut p = bus::baugh_wooley_mul(&mut n, &a, &b);
        for bit in p.iter_mut().take(approx_drop_low) {
            *bit = n.constant(false);
        }
        n.output_bus("p", &p);
        n
    }

    #[test]
    fn identical_netlists_prove_equal_without_bdds() {
        let n = mul4(0);
        let bounds = analyze(&n, &n, &ErrBoundConfig::default()).unwrap();
        assert!(bounds.proved_equal());
        assert_eq!(bounds.proved_wce, 0);
        let exact = bounds.exact.unwrap();
        assert_eq!(exact.mismatch_count, 0);
        assert_eq!(exact.wce, 0);
    }

    #[test]
    fn truncated_multiplier_bounds_are_sound_and_exact() {
        let approx = mul4(2);
        let exact_net = mul4(0);
        let bounds = analyze(&approx, &exact_net, &ErrBoundConfig::default()).unwrap();
        // Bits 0 and 1 are zeroed: cone = {0, 1}, interval WCE = 3.
        assert_eq!(bounds.cone_bits(), 2);
        assert_eq!(bounds.proved_wce, 3);
        let got = bounds.exact.unwrap();
        // Exhaustive ground truth over the 8-bit input space.
        let pairs: Vec<Vec<bool>> = (0..256u32)
            .map(|v| (0..8).map(|k| (v >> k) & 1 == 1).collect())
            .collect();
        let mut mismatches = 0u128;
        let mut wce = 0u64;
        for input in &pairs {
            let pe = exact_net.simulate_bool(input).unwrap();
            let pa = approx.simulate_bool(input).unwrap();
            if pe != pa {
                mismatches += 1;
            }
            let word = |bits: &[bool]| -> i64 {
                let mut raw = 0i64;
                for (k, &bit) in bits.iter().enumerate() {
                    if bit {
                        raw |= 1 << k;
                    }
                }
                // sign-extend 8-bit product
                if raw & (1 << (bits.len() - 1)) != 0 {
                    raw -= 1 << bits.len();
                }
                raw
            };
            wce = wce.max(word(&pe).abs_diff(word(&pa)));
        }
        assert_eq!(got.mismatch_count, mismatches);
        assert_eq!(got.wce, wce);
        assert!(bounds.proved_wce >= got.wce, "interval bound must dominate exact");
    }

    #[test]
    fn budget_exhaustion_falls_back_to_interval() {
        let approx = mul4(1);
        let exact_net = mul4(0);
        let cfg = ErrBoundConfig {
            bdd_node_limit: 8,
            ..ErrBoundConfig::default()
        };
        let bounds = analyze(&approx, &exact_net, &cfg).unwrap();
        assert!(bounds.exact.is_none());
        assert_eq!(bounds.proved_wce, 1);
        assert!((bounds.proved_error_rate() - 1.0).abs() < 1e-12);
        assert_eq!(bounds.best_wce(), 1);
    }

    #[test]
    fn interface_mismatch_is_an_error() {
        let a = mul4(0);
        let mut b = Netlist::new("b");
        let x = b.input("x");
        b.output("y", x);
        assert!(matches!(
            analyze(&a, &b, &ErrBoundConfig::default()),
            Err(NetlistError::InputCountMismatch { .. })
        ));
        let mut c = Netlist::new("c");
        let ins: Vec<_> = (0..8).map(|k| c.input(format!("i{k}"))).collect();
        c.output("y", ins[0]);
        assert!(matches!(
            analyze(&a, &c, &ErrBoundConfig::default()),
            Err(NetlistError::OutputCountMismatch { .. })
        ));
    }

    #[test]
    fn unsigned_exact_wce_matches_truth() {
        // 3-bit unsigned adders: approximate one ORs the low bit.
        let build = |approx: bool| {
            let mut n = Netlist::new("add3");
            let a = n.input_bus("a", 3);
            let b = n.input_bus("b", 3);
            let (mut s, c) = bus::ripple_carry_add(&mut n, &a, &b, None);
            if approx {
                s[0] = n.or(a[0], b[0]);
            }
            n.output_bus("s", &s);
            n.output("c", c);
            n
        };
        let cfg = ErrBoundConfig {
            signed_outputs: false,
            ..ErrBoundConfig::default()
        };
        let bounds = analyze(&build(true), &build(false), &cfg).unwrap();
        let got = bounds.exact.unwrap();
        let mut wce = 0u64;
        let mut mismatches = 0u128;
        for v in 0..64u32 {
            let input: Vec<bool> = (0..6).map(|k| (v >> k) & 1 == 1).collect();
            let pe = build(false).simulate_bool(&input).unwrap();
            let pa = build(true).simulate_bool(&input).unwrap();
            let word = |bits: &[bool]| -> u64 {
                bits.iter()
                    .enumerate()
                    .filter(|&(_, &bit)| bit)
                    .map(|(k, _)| 1u64 << k)
                    .sum()
            };
            if pe != pa {
                mismatches += 1;
            }
            wce = wce.max(word(&pe).abs_diff(word(&pa)));
        }
        assert_eq!(got.wce, wce);
        assert_eq!(got.mismatch_count, mismatches);
    }

    #[test]
    fn abstract_values_prove_constants_through_rewrites() {
        let mut n = Netlist::new("t");
        let x = n.input("x");
        let zero = n.constant(false);
        let dead = n.and(x, zero); // proved 0
        let same = n.xor(x, x); // proved 0
        let nx = n.not(x);
        let taut = n.or(x, nx); // proved 1 via complement tracking
        let merged_a = n.and(x, x);
        n.output("dead", dead);
        n.output("same", same);
        n.output("taut", taut);
        n.output("merged", merged_a);
        let vals = abstract_values(&n);
        assert_eq!(vals[dead.index()], AbsVal::Const(false));
        assert_eq!(vals[same.index()], AbsVal::Const(false));
        assert_eq!(vals[taut.index()], AbsVal::Const(true));
        assert_eq!(vals[merged_a.index()], vals[x.index()]);
    }
}
