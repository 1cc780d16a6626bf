//! Faulted operator instances: gate-level faults lifted to the
//! [`Mul8s`] abstraction.
//!
//! A [`FaultedMul`] is built by re-simulating an operator's netlist
//! under a [`FaultSet`] over all 65 536 input pairs, yielding a new
//! behavioural table. Because every CLAppED stage consumes operators
//! through [`Mul8s`], the faulted instance can be dropped straight into
//! application models — which is how gate-level fault injection is
//! propagated to application-level quality in `clapped-core`.

#![warn(clippy::disallowed_types)]

use crate::table::{exhaustive_pairs, exhaustive_table};
use crate::{AxMul, Mul8s};
use clapped_exec::{Memo, StructDigest};
use clapped_netlist::{FaultSet, Netlist};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// Builds the 256×256 product table of a multiplier netlist simulated
/// under `faults`, through the same wide exhaustive sweep as
/// [`crate::build_mul_table`]. With an empty fault set the table is
/// bit-identical to [`crate::build_mul_table`]'s.
///
/// # Errors
///
/// Propagates [`clapped_netlist::NetlistError::InvalidFaultSite`] for
/// out-of-range fault sites.
///
/// # Panics
///
/// Panics if the netlist interface does not match the operator
/// convention (16 inputs `a[0..8], b[0..8]`, 16-bit signed product).
pub fn build_mul_table_with_faults(
    netlist: &Netlist,
    faults: &FaultSet,
) -> clapped_netlist::Result<Vec<i16>> {
    exhaustive_table(netlist, faults, 16)
}

/// An operator with injected gate-level faults, usable anywhere a
/// [`Mul8s`] is.
#[derive(Clone)]
pub struct FaultedMul {
    name: String,
    table: Arc<[i16]>,
    digest: u64,
}

impl FaultedMul {
    /// Builds the faulted instance of `base` by exhaustive simulation of
    /// its netlist under `faults`. The operator name gains a `!faulty`
    /// suffix so reports distinguish it from the healthy instance.
    ///
    /// # Errors
    ///
    /// Propagates fault-site validation errors from the simulator.
    pub fn new(base: &AxMul, faults: &FaultSet) -> clapped_netlist::Result<FaultedMul> {
        // Memoized per (netlist, fault set): fault campaigns revisit the
        // same sites across iterations, and each rebuild is a full
        // 65 536-pair simulation. Failures are not cached (they carry no
        // table), so an invalid site still errors on every call.
        type FaultTableMemo = Memo<(u64, u64), Arc<[i16]>>;
        static MEMO: OnceLock<FaultTableMemo> = OnceLock::new();
        let memo = MEMO.get_or_init(Memo::new);
        let key = (base.netlist().content_digest(), faults.content_digest());
        let table = match memo.get(&key) {
            Some(t) => t,
            None => {
                let built: Arc<[i16]> = build_mul_table_with_faults(base.netlist(), faults)?.into();
                memo.get_or_insert_with(key, || built)
            }
        };
        Ok(FaultedMul {
            name: format!("{}!faulty", base.name()),
            table,
            // The faulted behaviour is fully determined by the (netlist,
            // fault set) pair, so its digest is a stable behaviour key.
            digest: StructDigest::new("FaultedMul")
                .field("netlist", &key.0)
                .field("faults", &key.1)
                .finish(),
        })
    }

    /// Number of input pairs whose product differs from `base`'s.
    pub fn corrupted_entries(&self, base: &dyn Mul8s) -> usize {
        exhaustive_pairs()
            .filter(|&(a, b)| self.mul(a, b) != base.mul(a, b))
            .count()
    }
}

impl Mul8s for FaultedMul {
    fn name(&self) -> &str {
        &self.name
    }

    fn mul(&self, a: i8, b: i8) -> i16 {
        let idx = ((a as u8 as usize) << 8) | (b as u8 as usize);
        self.table[idx]
    }

    fn column(&self, b: i8) -> Vec<i16> {
        let b = b as u8 as usize;
        (0..=127usize).map(|a| self.table[(a << 8) | b]).collect()
    }

    fn behaviour_digest(&self) -> Option<u64> {
        Some(self.digest)
    }
}

impl fmt::Debug for FaultedMul {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultedMul").field("name", &self.name).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MulArch;
    use clapped_netlist::{FaultKind, SignalId};

    #[test]
    fn empty_fault_set_reproduces_base_table() {
        let base = AxMul::new("exact", MulArch::Exact);
        let faulted = FaultedMul::new(&base, &FaultSet::empty()).unwrap();
        assert_eq!(faulted.corrupted_entries(&base), 0);
        assert_eq!(faulted.name(), "exact!faulty");
    }

    #[test]
    fn stuck_output_corrupts_products() {
        let base = AxMul::new("exact", MulArch::Exact);
        // Stuck-at-1 on the MSB product output forces huge magnitudes.
        let msb = base.netlist().outputs().last().unwrap().1;
        let faults = FaultSet::empty().stuck_at(msb, FaultKind::StuckAt1);
        let faulted = FaultedMul::new(&base, &faults).unwrap();
        assert!(faulted.corrupted_entries(&base) > 0);
        // Positive×positive products have a 0 sign bit; the fault flips
        // them negative.
        assert!(faulted.mul(10, 10) < 0);
    }

    #[test]
    fn invalid_site_propagates() {
        let base = AxMul::new("exact", MulArch::Exact);
        let bad = FaultSet::empty().stuck_at(SignalId::from_index(1 << 20), FaultKind::StuckAt0);
        assert!(FaultedMul::new(&base, &bad).is_err());
    }
}
