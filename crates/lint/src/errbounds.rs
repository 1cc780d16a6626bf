//! Formal error-bound soundness gate over the approximate-operator
//! catalog.
//!
//! Every multiplier in [`clapped_axops::Catalog::standard`] and every
//! adder in [`clapped_axops::adders::standard_adders`] is analyzed with
//! `clapped_netlist::errbound` against its exact reference netlist, and
//! the *proved* bounds are cross-checked against the operator's
//! exhaustive behavioural table:
//!
//! - **interval soundness** — the interval-tier worst-case error bound
//!   must dominate the observed maximum absolute error. A proved bound
//!   below an observed error is unsound by definition and fails the
//!   gate.
//! - **exact-tier agreement** — when the BDD tier fits its node budget,
//!   its mismatch count must equal the table's mismatch count and its
//!   worst-case error must equal the table's maximum absolute error,
//!   bit-exactly. The exact tier re-derives the table's error profile
//!   from structure alone, so any disagreement is a bug in one of the
//!   two pipelines.
//!
//! A blown BDD budget is *not* a violation — the analyzer falls back to
//! the interval bound, which is still checked for soundness. The pure
//! checker `check_operator_bounds` is a function of its own so the
//! mutation tests can prove the gate actually fails on a tampered
//! (unsound) bound.

#![warn(clippy::expect_used)]

use clapped_axops::adders::{standard_adders, Add8s, AddArch, AxAdd};
use clapped_axops::{build_mul_table, Catalog, Mul8s, MulArch};
use clapped_netlist::{analyze_error_bounds, ErrBoundConfig, ErrorBounds, Netlist};

/// Error-bound gate result for one catalog operator.
#[derive(Debug, Clone)]
pub struct ErrBoundReport {
    /// Operator name (e.g. `mul8s_tr4`).
    pub name: String,
    /// The proved bounds; `None` when the analyzer itself errored
    /// (interface mismatch — always a violation).
    pub bounds: Option<ErrorBounds>,
    /// Largest absolute error observed in the exhaustive table.
    pub observed_max_abs: u64,
    /// Input pairs whose table entry differs from the ideal result.
    pub observed_mismatches: u64,
    /// Whether the exact BDD tier completed within budget.
    pub exact_mode: bool,
    /// Soundness violations; empty for a clean operator.
    pub violations: Vec<String>,
}

impl ErrBoundReport {
    /// Whether this operator passes the gate.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// The exact-mode configuration used by the CI gate (`clapped_lint
/// --deny`): a node budget measured to fit every standard-catalog
/// family's 8×8 miter (~1–2 M nodes), run in release builds only.
pub fn gate_config() -> ErrBoundConfig {
    ErrBoundConfig { bdd_node_limit: 2_000_000, signed_outputs: true }
}

/// Cross-checks proved bounds against exhaustively observed error
/// statistics, returning every violation found. Pure — this is the
/// function the seeded-mutation tests tamper with.
pub(crate) fn check_operator_bounds(
    bounds: &ErrorBounds,
    observed_max_abs: u64,
    observed_mismatches: u64,
) -> Vec<String> {
    let mut violations = Vec::new();
    if bounds.proved_wce < observed_max_abs {
        violations.push(format!(
            "interval WCE {} is below the observed max |error| {} — the proved bound \
             is unsound",
            bounds.proved_wce, observed_max_abs
        ));
    }
    if let Some(e) = &bounds.exact {
        if e.wce != observed_max_abs {
            violations.push(format!(
                "exact-tier WCE {} != observed max |error| {}",
                e.wce, observed_max_abs
            ));
        }
        if e.mismatch_count != u128::from(observed_mismatches) {
            violations.push(format!(
                "exact-tier mismatch count {} != table mismatch count {}",
                e.mismatch_count, observed_mismatches
            ));
        }
        if e.input_space != 0 {
            let recomputed = e.mismatch_count as f64 / e.input_space as f64;
            if e.error_rate != recomputed {
                violations.push(format!(
                    "exact-tier error rate {} inconsistent with {}/{}",
                    e.error_rate, e.mismatch_count, e.input_space
                ));
            }
        }
    }
    violations
}

/// Observed error statistics of an exhaustive 8×8 table against an
/// ideal function: (max |error|, mismatching input pairs).
fn observed_error(table: &[i16], ideal: impl Fn(i8, i8) -> i32) -> (u64, u64) {
    let mut max_abs = 0u64;
    let mut mismatches = 0u64;
    for (idx, &got) in table.iter().enumerate() {
        let a = (idx >> 8) as u8 as i8;
        let b = (idx & 0xff) as u8 as i8;
        let err = i64::from(i32::from(got) - ideal(a, b)).unsigned_abs();
        if err > 0 {
            mismatches += 1;
            max_abs = max_abs.max(err);
        }
    }
    (max_abs, mismatches)
}

/// Analyzes one operator and checks its bounds against the
/// `observed_error` of its table.
fn report_for(
    name: &str,
    netlist: &Netlist,
    reference: &Netlist,
    cfg: &ErrBoundConfig,
    (observed_max_abs, observed_mismatches): (u64, u64),
) -> ErrBoundReport {
    let (bounds, violations) = match analyze_error_bounds(netlist, reference, cfg) {
        Ok(b) => {
            let violations = check_operator_bounds(&b, observed_max_abs, observed_mismatches);
            (Some(b), violations)
        }
        Err(e) => (None, vec![format!("error-bound analysis failed: {e}")]),
    };
    ErrBoundReport {
        name: name.to_string(),
        exact_mode: bounds.as_ref().is_some_and(|b| b.exact.is_some()),
        bounds,
        observed_max_abs,
        observed_mismatches,
        violations,
    }
}

/// The exhaustive sum table of an adder, indexed like
/// [`build_mul_table`]: `a` in the high byte, `b` in the low byte.
fn add_table(adder: &AxAdd) -> Vec<i16> {
    (0..1usize << 16).map(|idx| adder.add((idx >> 8) as u8 as i8, idx as u8 as i8)).collect()
}

/// Runs the error-bound gate over the full standard catalog
/// (multipliers then adders), in catalog order.
///
/// The configuration chooses the tier: `bdd_node_limit: 0` runs the
/// microsecond interval pass only (the `cargo test` default — sound
/// bounds, no exact counts), while [`gate_config`] enables the exact
/// BDD tier CI runs in release builds.
pub fn errbound_catalog(cfg: &ErrBoundConfig) -> Vec<ErrBoundReport> {
    let mul_ref = MulArch::Exact.build_netlist();
    let add_ref = AddArch::Exact.build_netlist();
    let catalog = Catalog::standard();
    let mut reports = Vec::new();
    for m in catalog.iter() {
        let table = build_mul_table(m.netlist());
        let observed = observed_error(&table, |a, b| i32::from(a) * i32::from(b));
        reports.push(report_for(Mul8s::name(&**m), m.netlist(), &mul_ref, cfg, observed));
    }
    for a in standard_adders() {
        let observed = observed_error(&add_table(&a), |x, y| i32::from(x) + i32::from(y));
        reports.push(report_for(Add8s::name(&*a), a.netlist(), &add_ref, cfg, observed));
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;
    use clapped_netlist::ExactError;

    /// Interval tier over the whole standard catalog: every proved
    /// bound dominates its table, in the debug-build default run. This
    /// is the same sweep CI runs in exact mode via `clapped_lint
    /// --deny`.
    #[test]
    fn standard_catalog_interval_bounds_are_sound() {
        let cfg = ErrBoundConfig { bdd_node_limit: 0, signed_outputs: true };
        let reports = errbound_catalog(&cfg);
        assert!(reports.len() >= 24, "expected the full catalog, got {}", reports.len());
        for r in &reports {
            assert!(r.is_clean(), "{}: {:?}", r.name, r.violations);
            // Interval-only runs never build BDDs; proved-equal
            // operators still get exact zeros via the congruence
            // shortcut.
            let proved_equal = r.bounds.as_ref().is_some_and(ErrorBounds::proved_equal);
            assert!(
                !r.exact_mode || proved_equal,
                "{}: interval-only config must not run the BDD tier",
                r.name
            );
        }
        // The exact operators are proved equal outright.
        for exact_name in ["mul8s_exact", "add8s_exact"] {
            let r = reports
                .iter()
                .find(|r| r.name == exact_name)
                .unwrap_or_else(|| panic!("{exact_name} missing from the catalog"));
            let bounds = r.bounds.as_ref().expect("analysis succeeded");
            assert!(bounds.proved_equal(), "{exact_name} must be proved equal");
            assert_eq!(r.observed_mismatches, 0);
        }
    }

    /// The exact BDD tier is cheap on adders (ripple structure): run it
    /// in debug builds and verify it reproduces the tables bit-exactly.
    #[test]
    fn adder_exact_tier_matches_tables() {
        let cfg = ErrBoundConfig { bdd_node_limit: 400_000, signed_outputs: true };
        let add_ref = AddArch::Exact.build_netlist();
        for a in standard_adders() {
            let observed = observed_error(&add_table(&a), |x, y| i32::from(x) + i32::from(y));
            let r = report_for(Add8s::name(&*a), a.netlist(), &add_ref, &cfg, observed);
            assert!(r.is_clean(), "{}: {:?}", r.name, r.violations);
            assert!(r.exact_mode, "{}: adder miters must fit a 400k budget", r.name);
        }
    }

    /// Seeded mutation: the gate must FAIL when handed an unsound
    /// bound. Tampers each proved quantity in turn and checks the
    /// corresponding violation fires.
    #[test]
    fn tampered_bounds_fail_the_gate() {
        let cfg = ErrBoundConfig { bdd_node_limit: 0, signed_outputs: true };
        let tr4 = MulArch::Truncated { k: 4 }.build_netlist();
        let reference = MulArch::Exact.build_netlist();
        let table = build_mul_table(&tr4);
        let (max_abs, mismatches) = observed_error(&table, |a, b| i32::from(a) * i32::from(b));
        assert!(max_abs > 0, "tr4 must actually err");
        let sound = analyze_error_bounds(&tr4, &reference, &cfg).expect("analysis");
        assert!(check_operator_bounds(&sound, max_abs, mismatches).is_empty());

        // Mutation 1: interval bound claimed below the observed error.
        let mut tampered = sound.clone();
        tampered.proved_wce = max_abs - 1;
        let v = check_operator_bounds(&tampered, max_abs, mismatches);
        assert!(v.iter().any(|m| m.contains("unsound")), "{v:?}");

        // Mutation 2: exact tier disagreeing with the table count.
        let mut tampered = sound.clone();
        tampered.exact = Some(ExactError {
            mismatch_count: u128::from(mismatches) + 1,
            input_space: 1 << 16,
            error_rate: (mismatches + 1) as f64 / 65536.0,
            wce: max_abs,
        });
        let v = check_operator_bounds(&tampered, max_abs, mismatches);
        assert!(v.iter().any(|m| m.contains("mismatch count")), "{v:?}");

        // Mutation 3: exact WCE below the observed maximum.
        let mut tampered = sound;
        tampered.exact = Some(ExactError {
            mismatch_count: u128::from(mismatches),
            input_space: 1 << 16,
            error_rate: mismatches as f64 / 65536.0,
            wce: max_abs - 1,
        });
        let v = check_operator_bounds(&tampered, max_abs, mismatches);
        assert!(v.iter().any(|m| m.contains("exact-tier WCE")), "{v:?}");
    }

    /// Full exact-mode gate, as CI runs it (release builds only — the
    /// 8×8 multiplier miters need seconds of BDD work in debug).
    #[test]
    #[ignore = "release-scale: ~10s of BDD work; clapped_lint --deny runs this in CI"]
    fn standard_catalog_exact_gate_is_clean() {
        let reports = errbound_catalog(&gate_config());
        for r in &reports {
            assert!(r.is_clean(), "{}: {:?}", r.name, r.violations);
            assert!(r.exact_mode, "{}: gate budget must fit every catalog miter", r.name);
        }
    }
}
