//! Approximate 8-bit signed adders.
//!
//! The paper's Section II-A reports that polynomial-regression models also
//! beat curve fitting on 8-bit approximate *adders*; this module provides
//! the adder library for that experiment (and for composing approximate
//! accumulation datapaths).

use clapped_netlist::bus::{self, sign_extend};
use clapped_netlist::{FaultSet, Netlist};
use std::fmt;
use std::sync::Arc;

/// An 8-bit signed adder producing a 9-bit signed sum.
pub trait Add8s: Send + Sync + fmt::Debug {
    /// Unique operator name (e.g. `"add8s_loa4"`).
    fn name(&self) -> &str;

    /// Adds two signed 8-bit values, possibly approximately.
    fn add(&self, a: i8, b: i8) -> i16;
}

/// An 8-bit signed adder architecture.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AddArch {
    /// Exact ripple-carry adder.
    Exact,
    /// Lower-part OR adder: low `k` sum bits are ORs, the upper part is
    /// exact with carry-in `a[k-1] & b[k-1]`.
    Loa {
        /// Approximated low width (`0..=8`).
        k: usize,
    },
    /// OR-based lower part without carry compensation.
    OrLower {
        /// Approximated low width (`0..=8`).
        k: usize,
    },
    /// Truncated adder: low `k` sum bits are zero, no carry from them.
    Truncated {
        /// Truncated low width (`0..=8`).
        k: usize,
    },
}

impl AddArch {
    /// Builds the gate-level netlist (inputs `a[8]`, `b[8]`, output
    /// `s[9]`, all two's complement).
    ///
    /// # Panics
    ///
    /// Panics if `k > 8`.
    pub fn build_netlist(&self) -> Netlist {
        let mut n = Netlist::new(format!("{self:?}"));
        let a = n.input_bus("a", 8);
        let b = n.input_bus("b", 8);
        let a9 = sign_extend(&a, 9);
        let b9 = sign_extend(&b, 9);
        let s = match *self {
            AddArch::Exact => bus::ripple_carry_add(&mut n, &a9, &b9, None).0,
            AddArch::Loa { k } => {
                assert!(k <= 8);
                bus::loa_add(&mut n, &a9, &b9, k).0
            }
            AddArch::OrLower { k } => {
                assert!(k <= 8);
                // Low k bits are ORs; upper bits add exactly with no carry
                // compensation from the approximated part.
                let mut s: Vec<_> = a9[..k]
                    .iter()
                    .zip(&b9[..k])
                    .map(|(&x, &y)| n.or(x, y))
                    .collect();
                let (hi, _) = bus::ripple_carry_add(&mut n, &a9[k..], &b9[k..], None);
                s.extend(hi);
                s
            }
            AddArch::Truncated { k } => {
                assert!(k <= 8);
                bus::truncated_add(&mut n, &a9, &b9, k).0
            }
        };
        n.output_bus("s", &s);
        n
    }
}

/// A library adder: architecture plus exhaustively-derived behavioural
/// table.
#[derive(Clone)]
pub struct AxAdd {
    name: String,
    arch: AddArch,
    netlist: Arc<Netlist>,
    table: Arc<[i16]>,
}

impl AxAdd {
    /// Instantiates an adder architecture under a given name.
    pub(crate) fn new(name: impl Into<String>, arch: AddArch) -> AxAdd {
        let netlist = arch.build_netlist();
        let table = build_add_table(&netlist);
        AxAdd {
            name: name.into(),
            arch,
            netlist: Arc::new(netlist),
            table: table.into(),
        }
    }

    /// The adder's gate-level netlist.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }
}

impl Add8s for AxAdd {
    fn name(&self) -> &str {
        &self.name
    }

    fn add(&self, a: i8, b: i8) -> i16 {
        let idx = ((a as u8 as usize) << 8) | (b as u8 as usize);
        self.table[idx]
    }
}

impl fmt::Debug for AxAdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AxAdd")
            .field("name", &self.name)
            .field("arch", &self.arch)
            .finish()
    }
}

/// The standard adder catalog used by the Section II-A experiment.
pub fn standard_adders() -> Vec<Arc<AxAdd>> {
    let mut v = Vec::new();
    v.push(Arc::new(AxAdd::new("add8s_exact", AddArch::Exact)));
    for k in [2usize, 3, 4, 5, 6] {
        v.push(Arc::new(AxAdd::new(format!("add8s_loa{k}"), AddArch::Loa { k })));
    }
    for k in [2usize, 4, 6] {
        v.push(Arc::new(AxAdd::new(
            format!("add8s_or{k}"),
            AddArch::OrLower { k },
        )));
    }
    for k in [2usize, 4] {
        v.push(Arc::new(AxAdd::new(
            format!("add8s_tr{k}"),
            AddArch::Truncated { k },
        )));
    }
    v
}

/// The 9-bit sums of all 65 536 input pairs, sign-extended.
fn build_add_table(netlist: &Netlist) -> Vec<i16> {
    crate::table::exhaustive_table(netlist, &FaultSet::empty(), 9)
        .expect("an empty fault set is always valid")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive_pairs;

    #[test]
    fn exact_adder_is_exact_everywhere() {
        let add = AxAdd::new("exact", AddArch::Exact);
        for (a, b) in exhaustive_pairs() {
            assert_eq!(add.add(a, b), a as i16 + b as i16, "{a}+{b}");
        }
    }

    #[test]
    fn loa_zero_is_exact() {
        let add = AxAdd::new("loa0", AddArch::Loa { k: 0 });
        for (a, b) in exhaustive_pairs().step_by(111) {
            assert_eq!(add.add(a, b), a as i16 + b as i16);
        }
    }

    #[test]
    fn loa_error_bound_holds() {
        let k = 4;
        let add = AxAdd::new("loa4", AddArch::Loa { k });
        for (a, b) in exhaustive_pairs() {
            let err = (i32::from(add.add(a, b)) - (i32::from(a) + i32::from(b))).abs();
            assert!(err < (1 << k), "err {err} for {a}+{b}");
        }
    }

    #[test]
    fn approximate_adders_have_error() {
        for add in standard_adders() {
            if add.name() == "add8s_exact" {
                continue;
            }
            let any_err = exhaustive_pairs()
                .any(|(a, b)| add.add(a, b) != a as i16 + b as i16);
            assert!(any_err, "{} should be approximate", add.name());
        }
    }

    #[test]
    fn catalog_names_are_unique() {
        let adders = standard_adders();
        let mut names: Vec<&str> = adders.iter().map(|a| a.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
