//! Approximate arithmetic operator library.
//!
//! This crate is CLAppED's analogue of the EvoApprox8b / SMApproxlib
//! operator libraries the paper draws its multipliers from. Every operator
//! is defined by a **gate-level netlist** (built with `clapped-netlist`'s
//! structural builders) from which a behavioural lookup table is derived
//! by exhaustive simulation — so the "software model" and the "hardware"
//! are equivalent by construction, and the same artifact can be both
//! executed in application models and pushed through the synthesis flow.
//!
//! Implemented multiplier architectures (all 8-bit signed, 16-bit product):
//!
//! - exact Baugh-Wooley array ([`MulArch::Exact`]),
//! - LSB-column truncation ([`MulArch::Truncated`]),
//! - broken-array multipliers ([`MulArch::BrokenArray`]),
//! - approximate 4:2-compressor reduction ([`MulArch::ApproxCompressor`]),
//! - lower-part-OR final adder ([`MulArch::LoaFinal`]),
//! - Mitchell logarithmic multiplication ([`MulArch::Mitchell`]),
//! - DRUM-style dynamic-range multiplication ([`MulArch::Drum`]),
//! - radix-4 Booth recoding with truncation ([`MulArch::Booth`]),
//! - composed Baugh-Wooley approximation axes ([`MulArch::Composed`]) —
//!   the combinatorial configuration space behind the generative catalog
//!   ([`GenerativeCatalog`]).
//!
//! Approximate adders (8-bit signed) live in [`adders`].
//!
//! # Examples
//!
//! ```
//! use clapped_axops::{Catalog, Mul8s};
//!
//! let catalog = Catalog::standard();
//! let exact = catalog.get("mul8s_exact").unwrap();
//! assert_eq!(exact.mul(-7, 9), -63);
//! let approx = catalog.get("mul8s_tr3").unwrap();
//! // A truncated multiplier drops low-order information.
//! assert_ne!(approx.mul(3, 3), 9);
//! ```

#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]
#![warn(clippy::print_stdout, clippy::print_stderr, clippy::dbg_macro)]
#![expect(clippy::needless_range_loop, reason = "index loops over coupled arrays read clearest")]

pub mod adders;
mod arch;
mod booth;
mod catalog;
mod common;
mod drum;
mod fault;
pub mod gen;
mod logmul;
mod table;

pub use arch::{ComposedSpec, MulArch};
pub use catalog::{Catalog, CatalogError, PAPER_ALIASES};
pub use booth::booth_reference;
pub use drum::drum_reference;
pub use fault::{build_mul_table_with_faults, FaultedMul};
pub use gen::{
    gen_cache_in_memory, gen_cache_with_disk, table_digest, GenBuildStats, GenEntry, GenFeatures,
    GenRecord, GenSpace, GenSpec, GenerativeCatalog, GEN_FEATURE_DIM,
};
pub use logmul::mitchell_reference;
pub use table::{build_mul_table, build_mul_table_ref64, exhaustive_pairs, table_cache_stats};

use clapped_netlist::Netlist;
use std::fmt;
use std::sync::Arc;

/// An 8-bit signed multiplier: the operator abstraction every CLAppED
/// stage consumes.
///
/// Implementors must be deterministic pure functions of their inputs.
/// Besides the library operators ([`AxMul`]), the polynomial-regression
/// estimator in `clapped-errmodel` also implements this trait so that
/// PR-based operator models can be dropped into application code.
pub trait Mul8s: Send + Sync + fmt::Debug {
    /// Unique operator name (e.g. `"mul8s_tr3"`).
    fn name(&self) -> &str;

    /// Multiplies two signed 8-bit values, possibly approximately.
    fn mul(&self, a: i8, b: i8) -> i16;

    /// The operator's behavioural column for a fixed second operand:
    /// entry `a` is `self.mul(a, b)` for `a in 0..=127`.
    ///
    /// This is the lowering hook for compiled convolution plans
    /// (`clapped-imgproc`): quantized pixels only span `0..=127` and a
    /// kernel coefficient is fixed per tap, so one column replaces the
    /// per-pixel virtual `mul` dispatch with a direct 128-entry lookup.
    /// Table-backed operators override this with a slice copy of their
    /// existing 256×256 behavioural table; the default derives the
    /// column through 128 `mul` calls.
    fn column(&self, b: i8) -> Vec<i16> {
        (0..=127i8).map(|a| self.mul(a, b)).collect()
    }

    /// A stable content digest of the operator's behaviour, if one is
    /// available, used to memoize derived artifacts (e.g. compiled
    /// convolution-plan LUTs) across operator instances. `None` opts out
    /// of memoization: derived artifacts are rebuilt per use, which is
    /// the safe default for operators without a cheap stable identity.
    ///
    /// Implementations must return equal digests only for operators with
    /// identical `mul` behaviour.
    fn behaviour_digest(&self) -> Option<u64> {
        None
    }
}

/// A library multiplier: an architecture instantiated into a gate-level
/// netlist plus its exhaustively-derived behavioural table.
///
/// # Examples
///
/// ```
/// use clapped_axops::{AxMul, MulArch, Mul8s};
///
/// let m = AxMul::new("demo", MulArch::Truncated { k: 2 });
/// assert_eq!(m.mul(16, 16), 256); // high bits unaffected
/// assert!(m.netlist().logic_gate_count() > 0);
/// ```
#[derive(Clone)]
pub struct AxMul {
    name: String,
    arch: MulArch,
    netlist: Arc<Netlist>,
    table: Arc<[i16]>,
    digest: u64,
}

impl AxMul {
    /// Instantiates an architecture under a given operator name.
    ///
    /// Builds the gate-level netlist and derives the behavioural table by
    /// exhaustive 64-lane simulation of all 65 536 input pairs.
    ///
    /// # Panics
    ///
    /// Panics if the architecture parameters are out of range (e.g. a
    /// truncation width larger than the product) — operator construction
    /// is a programming-time activity, not a runtime input.
    pub fn new(name: impl Into<String>, arch: MulArch) -> AxMul {
        let netlist = arch.build_netlist();
        // Memoized process-wide: repeated instantiations of the same
        // architecture (e.g. every Catalog::standard() call) share one
        // table allocation and never re-simulate.
        let table = table::build_mul_table_cached(&netlist);
        // The digest walks the whole netlist, so compute it once here:
        // behaviour_digest() sits on the convolution-plan hot path.
        let digest = netlist.content_digest();
        AxMul {
            name: name.into(),
            arch,
            netlist: Arc::new(netlist),
            table,
            digest,
        }
    }

    /// The architecture this operator instantiates.
    pub fn arch(&self) -> &MulArch {
        &self.arch
    }

    /// The operator's gate-level netlist (16 inputs `a[0..8], b[0..8]`,
    /// 16 outputs `p[0..16]`).
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The operator's netlist as the allocation every clone of this
    /// operator shares, with its content digest (computed at
    /// construction): the arguments of [`Netlist::instantiate_shared`].
    pub fn shared_netlist(&self) -> (&Arc<Netlist>, u64) {
        (&self.netlist, self.digest)
    }
}

impl Mul8s for AxMul {
    fn name(&self) -> &str {
        &self.name
    }

    fn mul(&self, a: i8, b: i8) -> i16 {
        let idx = ((a as u8 as usize) << 8) | (b as u8 as usize);
        self.table[idx]
    }

    fn column(&self, b: i8) -> Vec<i16> {
        // Slice the existing behavioural table: row `a`, fixed column
        // `b` — a strided copy, no simulation and no virtual calls.
        let b = b as u8 as usize;
        (0..=127usize).map(|a| self.table[(a << 8) | b]).collect()
    }

    fn behaviour_digest(&self) -> Option<u64> {
        // The behavioural table is derived from the netlist by
        // exhaustive simulation, so the netlist digest identifies the
        // behaviour exactly (cached at construction).
        Some(self.digest)
    }
}

impl fmt::Debug for AxMul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("AxMul")
            .field("name", &self.name)
            .field("arch", &self.arch)
            .field("gates", &self.netlist.logic_gate_count())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_multiplier_is_exact_everywhere() {
        let m = AxMul::new("exact", MulArch::Exact);
        for (a, b) in exhaustive_pairs() {
            assert_eq!(m.mul(a, b), a as i16 * b as i16, "{a}*{b}");
        }
    }

    #[test]
    fn table_lookup_matches_netlist_simulation() {
        // Spot-check a non-trivial arch on a sample of the space.
        let m = AxMul::new("t", MulArch::Truncated { k: 3 });
        let pairs: Vec<(i64, i64)> = [(0i64, 0i64), (1, 1), (-1, -1), (127, 127), (-128, -128), (37, -91)]
            .to_vec();
        let sim = m
            .netlist()
            .simulate_binary_op(8, 8, &pairs, true)
            .unwrap();
        for (s, &(a, b)) in sim.iter().zip(&pairs) {
            assert_eq!(*s as i16, m.mul(a as i8, b as i8));
        }
    }

    #[test]
    fn repeated_instantiation_shares_one_table() {
        let a = AxMul::new("first", MulArch::Truncated { k: 5 });
        let b = AxMul::new("second", MulArch::Truncated { k: 5 });
        let c = AxMul::new("third", MulArch::Truncated { k: 4 });
        assert!(Arc::ptr_eq(&a.table, &b.table), "same netlist → one memoized table");
        assert!(!Arc::ptr_eq(&a.table, &c.table), "different netlist → different table");
    }

    #[test]
    fn column_matches_mul_and_digest_tracks_behaviour() {
        let exact = AxMul::new("exact", MulArch::Exact);
        let trunc = AxMul::new("trunc", MulArch::Truncated { k: 3 });
        for m in [&exact, &trunc] {
            for b in [-128i8, -17, 0, 1, 63, 127] {
                let col = m.column(b);
                assert_eq!(col.len(), 128);
                for (a, &p) in col.iter().enumerate() {
                    assert_eq!(p, m.mul(a as i8, b), "{}[{a}, {b}]", Mul8s::name(m));
                }
            }
        }
        assert_eq!(exact.behaviour_digest(), exact.behaviour_digest());
        assert_ne!(exact.behaviour_digest(), trunc.behaviour_digest());
        assert!(exact.behaviour_digest().is_some());
    }

    #[test]
    fn debug_impl_is_informative() {
        let m = AxMul::new("dbg", MulArch::Exact);
        let s = format!("{m:?}");
        assert!(s.contains("dbg"));
        assert!(s.contains("gates"));
    }
}
