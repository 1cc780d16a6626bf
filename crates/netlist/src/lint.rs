//! Structural linting of netlist artifacts.
//!
//! The builder API of [`Netlist`] keeps well-formed netlists well-formed,
//! but netlists also enter the system from less-trusted directions —
//! [`Netlist::from_parts`], deserialization, generators under
//! development — and the downstream layers (word-parallel simulation,
//! LUT mapping, timing/power estimation, fault campaigns) all *assume*
//! the structural invariants hold. This module checks them explicitly:
//!
//! - **`dangling-fanin`** — a gate reads a signal that does not exist or
//!   is defined *after* it (the IR encodes the DAG property as "fanins
//!   precede users"; a forward reference is an undriven net at
//!   evaluation time).
//! - **`combinational-cycle`** — the fanin graph has a cycle (checked by
//!   topological sort, independently of the index ordering convention).
//! - **`input-list-mismatch`** — the declared primary-input list
//!   disagrees with the `Gate::Input` gates actually present.
//! - **`duplicate-port-name`** — two primary outputs (or two inputs)
//!   share a name; the Verilog exporter and report formats key ports by
//!   name, so a collision silently drops a port (the port-level analogue
//!   of a multiply-driven signal).
//! - **`dead-gate`** — a logic gate outside every output's
//!   cone-of-influence. Harmless to function, but it burns area in
//!   synthesis and simulation time in fault campaigns; `optimize`
//!   guarantees none survive.
//! - **`unused-input`** — a primary input with zero fanout. Expected for
//!   aggressively truncated approximate operators, hence a warning.
//! - **`const-output`** — a primary output driven directly by a
//!   constant: legal, but almost always a generator bug in an
//!   arithmetic operator.
//! - **`duplicate-const`** — more than one constant driver of the same
//!   polarity (the builder deduplicates; duplicates indicate hand-built
//!   or corrupted IR).
//!
//! [`live_cone`] (the cone-of-influence computation behind `dead-gate`)
//! is shared with the `fault` module, where stuck-at campaigns skip
//! provably-dead sites, and cross-checked against [`crate::optimize`]'s
//! dead-code elimination by the property tests in `clapped-lint`.

use crate::ir::{Gate, Netlist, SignalId};

/// Severity of a structural finding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StructSeverity {
    /// Expected or benign on raw generator output; still worth surfacing.
    Warning,
    /// The netlist violates an invariant downstream layers rely on.
    Error,
}

// Declaration order, `Warning < Error`, written out because a derived
// `PartialOrd` calls `partial_cmp`.
impl Ord for StructSeverity {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (*self as u8).cmp(&(*other as u8))
    }
}

impl PartialOrd for StructSeverity {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// One structural finding.
#[derive(Debug, Clone, PartialEq)]
pub struct StructFinding {
    /// Stable rule identifier (e.g. `dangling-fanin`).
    pub rule: &'static str,
    /// Severity of this finding.
    pub severity: StructSeverity,
    /// The offending signal, when the finding is signal-local.
    pub signal: Option<SignalId>,
    /// Human-readable description.
    pub message: String,
}

/// Size/shape statistics of a linted netlist.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetlistStats {
    /// Total gates, including inputs and constants.
    pub gates: usize,
    /// Logic gates (excluding inputs, constants and buffers).
    pub logic_gates: usize,
    /// Primary inputs.
    pub inputs: usize,
    /// Primary outputs.
    pub outputs: usize,
    /// Maximum logic depth over all outputs (0 if the topology is broken).
    pub depth: u32,
    /// Largest fanout of any signal.
    pub max_fanout: u32,
    /// Mean fanout over signals with at least one reader.
    pub mean_fanout: f64,
    /// Logic gates outside every output cone.
    pub dead_gates: usize,
    /// Primary inputs with zero fanout.
    pub unused_inputs: usize,
}

/// Result of structurally linting one netlist.
#[derive(Debug, Clone, PartialEq)]
pub struct StructReport {
    /// Name of the linted netlist.
    pub name: String,
    /// All findings, in rule-scan order.
    pub findings: Vec<StructFinding>,
    /// Shape statistics.
    pub stats: NetlistStats,
    /// Per-signal liveness: `live[i]` is true iff signal `i` reaches a
    /// primary output (or is a primary input, which always stays to
    /// preserve the interface).
    pub live: Vec<bool>,
}

impl StructReport {
    /// True when no error-severity finding was produced.
    pub fn is_clean(&self) -> bool {
        self.errors().next().is_none()
    }

    /// Error-severity findings.
    pub fn errors(&self) -> impl Iterator<Item = &StructFinding> {
        self.findings
            .iter()
            .filter(|f| f.severity == StructSeverity::Error)
    }

    /// Warning-severity findings.
    pub fn warnings(&self) -> impl Iterator<Item = &StructFinding> {
        self.findings
            .iter()
            .filter(|f| f.severity == StructSeverity::Warning)
    }
}

/// Computes the cone-of-influence of the primary outputs: `live[i]` is
/// true iff signal `i` transitively drives some primary output. Primary
/// inputs are *not* forced live — an input outside every cone really is
/// dead for fault-injection purposes (a stuck-at on it cannot corrupt
/// any output).
///
/// Out-of-range fanin or output references are ignored (they are
/// reported separately by [`lint_netlist`] as `dangling-fanin`), so this
/// function is total over arbitrary [`Netlist::from_parts`] input.
pub fn live_cone(netlist: &Netlist) -> Vec<bool> {
    let n = netlist.len();
    let mut live = vec![false; n];
    let mut stack: Vec<usize> = netlist
        .outputs()
        .iter()
        .map(|(_, s)| s.index())
        .filter(|&i| i < n)
        .collect();
    while let Some(i) = stack.pop() {
        if live[i] {
            continue;
        }
        live[i] = true;
        for f in netlist.gates()[i].fanins() {
            if f.index() < n {
                stack.push(f.index());
            }
        }
    }
    live
}

/// Structurally lints a netlist. Always returns a report; a netlist with
/// broken topology yields `dangling-fanin` / `combinational-cycle`
/// errors rather than a panic, and statistics that depend on a sound
/// topology (depth) are zeroed in that case.
pub fn lint_netlist(netlist: &Netlist) -> StructReport {
    let n = netlist.len();
    let mut findings = Vec::new();

    // dangling-fanin: fanins must exist and precede their user.
    let mut topology_sound = true;
    for (i, gate) in netlist.gates().iter().enumerate() {
        for f in gate.fanins() {
            if f.index() >= n {
                topology_sound = false;
                findings.push(StructFinding {
                    rule: "dangling-fanin",
                    severity: StructSeverity::Error,
                    signal: Some(SignalId::from_index(i)),
                    message: format!(
                        "gate {i} reads signal {} which does not exist ({n} signals)",
                        f.index()
                    ),
                });
            } else if f.index() >= i {
                topology_sound = false;
                findings.push(StructFinding {
                    rule: "dangling-fanin",
                    severity: StructSeverity::Error,
                    signal: Some(SignalId::from_index(i)),
                    message: format!(
                        "gate {i} reads signal {} defined at or after it; \
                         the net is undriven when gate {i} evaluates",
                        f.index()
                    ),
                });
            }
        }
    }
    for (name, s) in netlist.outputs() {
        if s.index() >= n {
            topology_sound = false;
            findings.push(StructFinding {
                rule: "dangling-fanin",
                severity: StructSeverity::Error,
                signal: None,
                message: format!(
                    "output `{name}` references signal {} which does not exist",
                    s.index()
                ),
            });
        }
    }

    // combinational-cycle: Kahn's algorithm over in-range fanin edges.
    // Deliberately independent of the "fanins precede users" index
    // convention: it would still catch cycles if that convention were
    // ever relaxed.
    {
        // indegree[g] = number of in-range fanins of g.
        let mut indegree = vec![0u32; n];
        for (i, gate) in netlist.gates().iter().enumerate() {
            #[expect(clippy::cast_possible_truncation, reason = "a gate has at most 3 fanins")]
            let fanins = gate.fanins().filter(|f| f.index() < n).count() as u32;
            indegree[i] = fanins;
        }
        let mut readers: Vec<Vec<u32>> = vec![Vec::new(); n];
        for (i, gate) in netlist.gates().iter().enumerate() {
            for f in gate.fanins() {
                if f.index() < n {
                    readers[f.index()].push(SignalId::from_index(i).0);
                }
            }
        }
        let mut queue: Vec<usize> =
            (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut visited = 0usize;
        while let Some(i) = queue.pop() {
            visited += 1;
            for &r in &readers[i] {
                indegree[r as usize] -= 1;
                if indegree[r as usize] == 0 {
                    queue.push(r as usize);
                }
            }
        }
        if visited != n {
            let mut on_cycle: Vec<usize> =
                (0..n).filter(|&i| indegree[i] > 0).collect();
            on_cycle.truncate(8);
            findings.push(StructFinding {
                rule: "combinational-cycle",
                severity: StructSeverity::Error,
                signal: on_cycle.first().map(|&i| SignalId::from_index(i)),
                message: format!(
                    "{} signals participate in a combinational cycle (first few: {:?})",
                    n - visited,
                    on_cycle
                ),
            });
        }
    }

    // input-list-mismatch: the declared input list must be exactly the
    // Input gates, in order.
    let actual_inputs: Vec<usize> = netlist
        .gates()
        .iter()
        .enumerate()
        .filter(|(_, g)| matches!(g, Gate::Input { .. }))
        .map(|(i, _)| i)
        .collect();
    let declared: Vec<usize> = netlist.inputs().iter().map(|s| s.index()).collect();
    if declared != actual_inputs {
        findings.push(StructFinding {
            rule: "input-list-mismatch",
            severity: StructSeverity::Error,
            signal: None,
            message: format!(
                "declared primary inputs {declared:?} do not match the Input gates \
                 present {actual_inputs:?}"
            ),
        });
    }

    // duplicate-port-name: output (and input) names must be unique.
    {
        let mut out_names: Vec<&str> =
            netlist.outputs().iter().map(|(n, _)| n.as_str()).collect();
        out_names.sort_unstable();
        for pair in out_names.windows(2) {
            if pair[0] == pair[1] {
                findings.push(StructFinding {
                    rule: "duplicate-port-name",
                    severity: StructSeverity::Error,
                    signal: None,
                    message: format!("two primary outputs are both named `{}`", pair[0]),
                });
            }
        }
        let mut in_names: Vec<&str> = netlist
            .gates()
            .iter()
            .filter_map(|g| match g {
                Gate::Input { name } => Some(name.as_str()),
                _ => None,
            })
            .collect();
        in_names.sort_unstable();
        for pair in in_names.windows(2) {
            if pair[0] == pair[1] {
                findings.push(StructFinding {
                    rule: "duplicate-port-name",
                    severity: StructSeverity::Error,
                    signal: None,
                    message: format!("two primary inputs are both named `{}`", pair[0]),
                });
            }
        }
    }

    // duplicate-const: at most one constant driver per polarity.
    for polarity in [false, true] {
        let count = netlist
            .gates()
            .iter()
            .filter(|g| matches!(g, Gate::Const(v) if *v == polarity))
            .count();
        if count > 1 {
            findings.push(StructFinding {
                rule: "duplicate-const",
                severity: StructSeverity::Warning,
                signal: None,
                message: format!(
                    "{count} constant-{} drivers (the builder deduplicates to one)",
                    u8::from(polarity)
                ),
            });
        }
    }

    // Liveness-derived rules and statistics.
    let live = live_cone(netlist);
    let mut dead_gates = 0usize;
    for (i, gate) in netlist.gates().iter().enumerate() {
        if gate.is_logic() && !live[i] {
            dead_gates += 1;
            findings.push(StructFinding {
                rule: "dead-gate",
                severity: StructSeverity::Warning,
                signal: Some(SignalId::from_index(i)),
                message: format!("logic gate {i} drives no primary output"),
            });
        }
    }
    // Bounds-checked fanout (Netlist::fanout_counts assumes sound fanins).
    let mut fanout = vec![0u32; n];
    for gate in netlist.gates() {
        for f in gate.fanins() {
            if f.index() < n {
                fanout[f.index()] += 1;
            }
        }
    }
    let mut unused_inputs = 0usize;
    for &s in netlist.inputs() {
        if s.index() < n && fanout[s.index()] == 0 {
            unused_inputs += 1;
            findings.push(StructFinding {
                rule: "unused-input",
                severity: StructSeverity::Warning,
                signal: Some(s),
                message: format!(
                    "primary input {} has zero fanout (expected for truncated operators)",
                    s.index()
                ),
            });
        }
    }
    for (name, s) in netlist.outputs() {
        if s.index() < n && matches!(netlist.gates()[s.index()], Gate::Const(_)) {
            findings.push(StructFinding {
                rule: "const-output",
                severity: StructSeverity::Warning,
                signal: Some(*s),
                message: format!("output `{name}` is driven directly by a constant"),
            });
        }
    }

    #[expect(clippy::cast_possible_truncation, reason = "signal counts are bounded far below 2^32")]
    let readers: u32 = fanout.iter().filter(|&&c| c > 0).count() as u32;
    let stats = NetlistStats {
        gates: n,
        logic_gates: netlist.logic_gate_count(),
        inputs: netlist.inputs().len(),
        outputs: netlist.outputs().len(),
        depth: if topology_sound { netlist.depth() } else { 0 },
        max_fanout: fanout.iter().copied().max().unwrap_or(0),
        mean_fanout: if readers == 0 {
            0.0
        } else {
            f64::from(fanout.iter().sum::<u32>()) / f64::from(readers)
        },
        dead_gates,
        unused_inputs,
    };
    StructReport {
        name: netlist.name().to_string(),
        findings,
        stats,
        live,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn clean_adder() -> Netlist {
        let mut n = Netlist::new("add2");
        let a = n.input_bus("a", 2);
        let b = n.input_bus("b", 2);
        let (s, c) = crate::bus::ripple_carry_add(&mut n, &a, &b, None);
        n.output_bus("s", &s);
        n.output("cout", c);
        n
    }

    #[test]
    fn clean_netlist_has_no_findings() {
        let report = lint_netlist(&clean_adder());
        assert!(report.is_clean(), "{:?}", report.findings);
        assert!(report.findings.is_empty());
        assert!(report.stats.depth > 0);
        assert!(report.stats.max_fanout >= 1);
        assert!(report.live.iter().all(|&l| l));
    }

    #[test]
    fn dangling_fanin_out_of_range_fires() {
        let n = Netlist::from_parts(
            "bad",
            vec![
                Gate::Input { name: "a".into() },
                Gate::Not(SignalId::from_index(7)),
            ],
            vec![SignalId::from_index(0)],
            vec![("y".into(), SignalId::from_index(1))],
        );
        let report = lint_netlist(&n);
        assert!(report.errors().any(|f| f.rule == "dangling-fanin"));
        assert!(!report.is_clean());
    }

    #[test]
    fn forward_reference_is_an_undriven_net() {
        let n = Netlist::from_parts(
            "fwd",
            vec![
                Gate::Input { name: "a".into() },
                Gate::Not(SignalId::from_index(2)), // reads a later gate
                Gate::Not(SignalId::from_index(0)),
            ],
            vec![SignalId::from_index(0)],
            vec![("y".into(), SignalId::from_index(1))],
        );
        let report = lint_netlist(&n);
        assert!(report.errors().any(|f| f.rule == "dangling-fanin"));
    }

    #[test]
    fn combinational_cycle_is_detected() {
        // 1 -> 2 -> 1: a 2-cycle through two inverters.
        let n = Netlist::from_parts(
            "cyc",
            vec![
                Gate::Input { name: "a".into() },
                Gate::Not(SignalId::from_index(2)),
                Gate::Not(SignalId::from_index(1)),
            ],
            vec![SignalId::from_index(0)],
            vec![("y".into(), SignalId::from_index(2))],
        );
        let report = lint_netlist(&n);
        assert!(report.errors().any(|f| f.rule == "combinational-cycle"));
    }

    #[test]
    fn input_list_mismatch_fires() {
        let n = Netlist::from_parts(
            "mismatch",
            vec![
                Gate::Input { name: "a".into() },
                Gate::Input { name: "b".into() },
            ],
            vec![SignalId::from_index(0)], // forgets b
            vec![("y".into(), SignalId::from_index(0))],
        );
        let report = lint_netlist(&n);
        assert!(report.errors().any(|f| f.rule == "input-list-mismatch"));
    }

    #[test]
    fn duplicate_output_names_fire() {
        let mut n = Netlist::new("dup");
        let a = n.input("a");
        let x = n.not(a);
        n.output("y", a);
        n.output("y", x);
        let report = lint_netlist(&n);
        assert!(report.errors().any(|f| f.rule == "duplicate-port-name"));
    }

    #[test]
    fn duplicate_input_names_fire() {
        let mut n = Netlist::new("dup_in");
        let a = n.input("a");
        let b = n.input("a");
        let x = n.and(a, b);
        n.output("y", x);
        let report = lint_netlist(&n);
        assert!(report.errors().any(|f| f.rule == "duplicate-port-name"));
    }

    #[test]
    fn dead_gate_and_unused_input_warn_but_stay_clean() {
        let mut n = Netlist::new("dead");
        let a = n.input("a");
        let b = n.input("b");
        let _dead = n.xor(a, b);
        let live = n.not(a); // b now feeds only the dead gate
        n.output("y", live);
        let report = lint_netlist(&n);
        assert!(report.is_clean(), "dead logic is a warning, not an error");
        assert_eq!(report.stats.dead_gates, 1);
        assert!(report.warnings().any(|f| f.rule == "dead-gate"));
        // b is read by the dead xor, so it is NOT unused; its fanout > 0.
        assert_eq!(report.stats.unused_inputs, 0);
        assert!(!report.live[2], "the dead xor is outside the cone");
    }

    #[test]
    fn unused_input_warns() {
        let mut n = Netlist::new("unused");
        let a = n.input("a");
        let _b = n.input("b");
        let x = n.not(a);
        n.output("y", x);
        let report = lint_netlist(&n);
        assert!(report.warnings().any(|f| f.rule == "unused-input"));
        assert_eq!(report.stats.unused_inputs, 1);
    }

    #[test]
    fn const_output_warns() {
        let mut n = Netlist::new("konst");
        let _a = n.input("a");
        let c = n.constant(true);
        n.output("y", c);
        let report = lint_netlist(&n);
        assert!(report.warnings().any(|f| f.rule == "const-output"));
    }

    #[test]
    fn duplicate_const_warns() {
        let n = Netlist::from_parts(
            "dupconst",
            vec![
                Gate::Const(true),
                Gate::Const(true),
                Gate::Input { name: "a".into() },
            ],
            vec![SignalId::from_index(2)],
            vec![("y".into(), SignalId::from_index(0))],
        );
        let report = lint_netlist(&n);
        assert!(report.warnings().any(|f| f.rule == "duplicate-const"));
    }

    #[test]
    fn live_cone_matches_optimize_dce() {
        // Every gate the cone marks dead must be gone after optimize,
        // so: live logic count >= optimized logic count is implied, and
        // dead logic never survives.
        let mut n = Netlist::new("mix");
        let a = n.input_bus("a", 4);
        let b = n.input_bus("b", 4);
        let (s, c) = crate::bus::ripple_carry_add(&mut n, &a, &b, None);
        let _dead1 = n.xor(s[0], s[1]);
        let _dead2 = n.and(c, s[2]);
        n.output_bus("s", &s);
        n.output("c", c);
        let live = live_cone(&n);
        let live_logic = n
            .gates()
            .iter()
            .enumerate()
            .filter(|(i, g)| g.is_logic() && live[*i])
            .count();
        let opt = crate::optimize(&n);
        assert!(opt.logic_gate_count() <= live_logic);
        let report = lint_netlist(&n);
        assert_eq!(report.stats.dead_gates, 2);
        assert!(lint_netlist(&opt).stats.dead_gates == 0);
    }
}
