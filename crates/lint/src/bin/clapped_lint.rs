//! The workspace static-analysis gate.
//!
//! ```text
//! clapped_lint [--root PATH] [--json] [--deny]
//! ```
//!
//! Runs all three analysis targets — the layering and lint-scope checks
//! over the workspace's manifests and lint headers, the structural
//! lints over every catalog operator netlist (raw and optimized), and the
//! error-bound soundness gate (proved bounds cross-checked against
//! every operator's exhaustive table) — then prints a human-readable
//! report, or one JSON document with `--json`. With `--deny`, any
//! layering or scope finding, structural error or bound violation makes
//! the process exit 1; this is a required CI step. The source rules are
//! clippy's: `cargo clippy --workspace --all-targets -- -D warnings`.

use clapped_lint::errbounds::{errbound_catalog, gate_config, ErrBoundReport};
use clapped_lint::netlists::{lint_catalog, OpReport};
use clapped_lint::layering::lint_layering;
use clapped_lint::StructSeverity;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    root: PathBuf,
    json: bool,
    deny: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { root: PathBuf::from("."), json: false, deny: false };
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--json" => args.json = true,
            "--deny" => args.deny = true,
            "--root" => {
                args.root = PathBuf::from(argv.next().ok_or("--root needs a path")?);
            }
            other => {
                if let Some(p) = other.strip_prefix("--root=") {
                    args.root = PathBuf::from(p);
                } else {
                    return Err(format!("unknown argument `{other}` (try --root PATH, --json, --deny)"));
                }
            }
        }
    }
    Ok(args)
}

fn op_json(r: &OpReport) -> serde_json::Value {
    let struct_findings = |rep: &clapped_lint::StructReport| {
        let findings = rep.findings.iter().map(|f| {
            serde_json::json!({
                "rule": f.rule,
                "severity": match f.severity {
                    StructSeverity::Error => "error",
                    StructSeverity::Warning => "warning",
                },
                "signal": f.signal.map(|s| s.index()),
                "message": f.message,
            })
        });
        findings.collect::<Vec<_>>()
    };
    serde_json::json!({
        "name": r.name,
        "clean": r.is_clean(),
        "raw": {
            "gates": r.raw.stats.gates,
            "logic_gates": r.raw.stats.logic_gates,
            "depth": r.raw.stats.depth,
            "max_fanout": r.raw.stats.max_fanout,
            "dead_gates": r.raw.stats.dead_gates,
            "findings": struct_findings(&r.raw),
        },
        "optimized": {
            "logic_gates": r.optimized.stats.logic_gates,
            "depth": r.optimized.stats.depth,
            "dead_gates": r.optimized.stats.dead_gates,
            "findings": struct_findings(&r.optimized),
        },
        "escalations": r.escalations,
    })
}

fn errbound_json(r: &ErrBoundReport) -> serde_json::Value {
    serde_json::json!({
        "name": r.name,
        "clean": r.is_clean(),
        "exact_mode": r.exact_mode,
        "proved_wce": r.bounds.as_ref().map(|b| b.best_wce()),
        "error_cone_bits": r.bounds.as_ref().map(|b| b.cone_bits()),
        "observed_max_abs": r.observed_max_abs,
        "observed_mismatches": r.observed_mismatches,
        "violations": r.violations,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("clapped_lint: {e}");
            return ExitCode::from(2);
        }
    };

    let findings = match lint_layering(&args.root) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("clapped_lint: cannot lint {}: {e}", args.root.display());
            return ExitCode::from(2);
        }
    };
    let ops = lint_catalog();
    let dirty_ops: Vec<&OpReport> = ops.iter().filter(|r| !r.is_clean()).collect();
    let struct_warnings: usize =
        ops.iter().map(|r| r.raw.warnings().count() + r.optimized.warnings().count()).sum();
    let bounds = errbound_catalog(&gate_config());
    let unsound: Vec<&ErrBoundReport> = bounds.iter().filter(|r| !r.is_clean()).collect();

    if args.json {
        let doc = serde_json::json!({
            "layering": {
                "findings": findings.iter().map(|f| serde_json::json!({
                    "rule": f.rule,
                    "path": f.path,
                    "message": f.message,
                })).collect::<Vec<_>>(),
                "count": findings.len(),
            },
            "netlists": {
                "operators": ops.iter().map(op_json).collect::<Vec<_>>(),
                "dirty": dirty_ops.len(),
                "warnings": struct_warnings,
            },
            "errbounds": {
                "operators": bounds.iter().map(errbound_json).collect::<Vec<_>>(),
                "unsound": unsound.len(),
                "exact_mode": bounds.iter().filter(|r| r.exact_mode).count(),
            },
            "deny": args.deny,
            "ok": findings.is_empty() && dirty_ops.is_empty() && unsound.is_empty(),
        });
        println!("{}", serde_json::to_string_pretty(&doc).unwrap_or_default());
    } else {
        println!("== clapped_lint: crate layering and lint scope ==");
        if findings.is_empty() {
            println!("clean");
        } else {
            for f in &findings {
                println!("{f}");
            }
            println!("{} finding(s)", findings.len());
        }
        println!();
        println!("== clapped_lint: catalog netlists ==");
        for r in &ops {
            let status = if r.is_clean() { "ok " } else { "FAIL" };
            println!(
                "{status} {:<16} raw: {:>4} gates depth {:>2} dead {:>2} | opt: {:>4} gates depth {:>2}",
                r.name,
                r.raw.stats.logic_gates,
                r.raw.stats.depth,
                r.raw.stats.dead_gates,
                r.optimized.stats.logic_gates,
                r.optimized.stats.depth,
            );
            for f in r.raw.errors().chain(r.optimized.errors()) {
                println!("     error[{}]: {}", f.rule, f.message);
            }
            for e in &r.escalations {
                println!("     escalation: {e}");
            }
        }
        println!(
            "{} operator(s), {} dirty, {} structural warning(s)",
            ops.len(),
            dirty_ops.len(),
            struct_warnings
        );
        println!();
        println!("== clapped_lint: proved error bounds ==");
        for r in &bounds {
            let status = if r.is_clean() { "ok " } else { "FAIL" };
            let tier = if r.exact_mode { "exact" } else { "interval" };
            let proved = r.bounds.as_ref().map(|b| b.best_wce()).unwrap_or(0);
            println!(
                "{status} {:<16} {tier:<8} proved WCE {:>6} observed {:>6} mismatches {:>6}",
                r.name, proved, r.observed_max_abs, r.observed_mismatches,
            );
            for v in &r.violations {
                println!("     violation: {v}");
            }
        }
        println!(
            "{} operator(s), {} unsound, {} analyzed exactly",
            bounds.len(),
            unsound.len(),
            bounds.iter().filter(|r| r.exact_mode).count()
        );
    }

    if args.deny && (!findings.is_empty() || !dirty_ops.is_empty() || !unsound.is_empty()) {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
