//! The source-rule catalog and the allowlist machinery.
//!
//! Every rule is lexical (word-boundary token matching over the
//! comment/string-blanked code mask from [`crate::source`]) and scoped
//! by workspace-relative path. The catalog encodes this workspace's
//! determinism and robustness contract:
//!
//! | rule | forbids | where |
//! |------|---------|-------|
//! | `hash-containers` | `HashMap`/`HashSet` | digest/serialization-adjacent crates |
//! | `wall-clock` | `Instant`/`SystemTime` | everywhere except `obs` and `bench` |
//! | `entropy-rng` | `thread_rng`, `from_entropy`, `OsRng`, … | everywhere, tests included |
//! | `partial-cmp-sort` | `partial_cmp` inside a sort/ordering call | everywhere |
//! | `no-unwrap` | `.unwrap()` | library code |
//! | `no-expect` | `.expect(` | panic-free layers (exec, obs, runtime, serve, accel, core, checkpoint, gen catalog, errbound analyzer + gate, fault campaigns) |
//! | `no-print` | `println!` & friends | library code except `bench` |
//! | `todo-markers` | `todo!`, `unimplemented!` | everywhere |
//! | `cfg-test-mod` | `mod tests` without `#[cfg(test)]` | library code |
//! | `no-silent-truncation` | `as u8`/`as i16`-style casts to ≤32-bit ints | digest/table-adjacent code (netlist, exec, axops table) |
//!
//! Suppression: `// lint-allow(rule): reason` on the offending line or
//! the line directly above silences exactly that line;
//! `// lint-allow-file(rule): reason` within the first 40 lines
//! silences the whole file. The reason is mandatory, and an allow that
//! suppresses nothing is itself reported (`unused-allow`), so the
//! allowlist can only shrink the finding set it actually explains.

use crate::source::SourceFile;
use crate::Finding;

/// How many leading lines may carry a `lint-allow-file` comment.
const FILE_ALLOW_WINDOW: usize = 40;

/// True if `line[..]` contains `token` delimited by non-identifier
/// characters on both sides.
fn has_word(line: &str, token: &str) -> bool {
    let bytes = line.as_bytes();
    let mut from = 0;
    while let Some(pos) = line[from..].find(token) {
        let start = from + pos;
        let end = start + token.len();
        let pre_ok = start == 0 || !is_ident(bytes[start - 1]);
        let post_ok = end >= bytes.len() || !is_ident(bytes[end]);
        if pre_ok && post_ok {
            return true;
        }
        from = end;
    }
    false
}

fn is_ident(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

fn is_src_lib(path: &str) -> bool {
    path.contains("/src/") && !path.contains("/src/bin/")
}

/// One source rule: an id, a path scope, and a per-line matcher.
struct Rule {
    id: &'static str,
    /// Whether the rule runs on this file at all.
    applies: fn(&str) -> bool,
    /// Whether `#[cfg(test)]` regions are exempt.
    skip_tests: bool,
    /// Returns a message when the (code-mask) line violates the rule.
    check: fn(&str) -> Option<String>,
}

/// Paths whose `HashMap`/`HashSet` iteration could leak per-process
/// hash-seed order into digests, checkpoints or serialized artifacts.
fn hash_scope(path: &str) -> bool {
    (path.starts_with("crates/exec/src/")
        || path.starts_with("crates/netlist/src/")
        || path.starts_with("crates/obs/src/")
        || path == "crates/dse/src/checkpoint.rs"
        || path == "crates/axops/src/table.rs"
        || path == "crates/axops/src/fault.rs")
        && is_src_lib(path)
}

fn rules() -> Vec<Rule> {
    vec![
        Rule {
            id: "hash-containers",
            applies: hash_scope,
            skip_tests: true,
            check: |code| {
                // Importing is not the hazard; every usage site is.
                if code.trim_start().starts_with("use ") {
                    return None;
                }
                for t in ["HashMap", "HashSet"] {
                    if has_word(code, t) {
                        return Some(format!(
                            "`{t}` in digest/serialization-adjacent code: iteration order is \
                             per-process random; use BTreeMap/BTreeSet or sort explicitly"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "wall-clock",
            applies: |p| {
                is_src_lib(p)
                    && !p.starts_with("crates/obs/")
                    && !p.starts_with("crates/bench/")
                    && !p.starts_with("crates/lint/")
            },
            skip_tests: true,
            check: |code| {
                for t in ["Instant", "SystemTime"] {
                    if has_word(code, t) {
                        return Some(format!(
                            "`{t}` outside clapped-obs: wall-clock reads are confined to the \
                             obs crate; use clapped_obs::Stopwatch / Deadline"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "entropy-rng",
            applies: |_| true,
            skip_tests: false,
            check: |code| {
                for t in ["thread_rng", "from_entropy", "OsRng", "getrandom"] {
                    if has_word(code, t) {
                        return Some(format!(
                            "`{t}` draws OS entropy: every RNG must be explicitly seeded \
                             (ChaCha8Rng::seed_from_u64) so runs are reproducible"
                        ));
                    }
                }
                if code.contains("rand::random") {
                    return Some(String::from(
                        "`rand::random` uses the thread-local entropy RNG; seed explicitly",
                    ));
                }
                None
            },
        },
        Rule {
            id: "partial-cmp-sort",
            applies: |_| true,
            skip_tests: false,
            // Matching handled specially in `lint_file` (needs a
            // multi-line window: the closure body often wraps).
            check: |_| None,
        },
        Rule {
            id: "no-unwrap",
            applies: is_src_lib,
            skip_tests: true,
            check: |code| {
                code.contains(".unwrap()").then(|| {
                    String::from(
                        "`.unwrap()` in library code: return a Result, use a total method, \
                         or prove infallibility with a match",
                    )
                })
            },
        },
        Rule {
            id: "no-expect",
            applies: |p| {
                (p.starts_with("crates/exec/src/")
                    || p.starts_with("crates/obs/src/")
                    || p.starts_with("crates/runtime/src/")
                    || p.starts_with("crates/serve/src/")
                    || p.starts_with("crates/accel/src/")
                    || p.starts_with("crates/core/src/")
                    || p == "crates/dse/src/checkpoint.rs"
                    || p == "crates/axops/src/gen.rs"
                    || p == "crates/netlist/src/errbound.rs"
                    || p == "crates/netlist/src/fault.rs"
                    || p == "crates/lint/src/errbounds.rs")
                    && is_src_lib(p)
            },
            skip_tests: true,
            check: |code| {
                code.contains(".expect(").then(|| {
                    String::from(
                        "`.expect(` in a panic-free layer: engine/observability/checkpoint \
                         code must degrade, not abort (poisoned locks recover via \
                         PoisonError::into_inner)",
                    )
                })
            },
        },
        Rule {
            id: "no-print",
            applies: |p| is_src_lib(p) && !p.starts_with("crates/bench/"),
            skip_tests: true,
            check: |code| {
                for t in ["println!", "eprintln!", "print!", "eprint!", "dbg!"] {
                    if code.contains(t) {
                        return Some(format!(
                            "`{t}` in library code: route output through clapped-obs or \
                             return it to the caller"
                        ));
                    }
                }
                None
            },
        },
        Rule {
            id: "todo-markers",
            applies: |_| true,
            skip_tests: false,
            check: |code| {
                for t in ["todo!", "unimplemented!"] {
                    if code.contains(t) {
                        return Some(format!("`{t}` must not land on the main branch"));
                    }
                }
                None
            },
        },
        Rule {
            id: "cfg-test-mod",
            applies: is_src_lib,
            skip_tests: false,
            // Matching handled specially in `lint_file` (needs region info).
            check: |_| None,
        },
        Rule {
            id: "no-silent-truncation",
            applies: |p| {
                (p.starts_with("crates/netlist/src/")
                    || p.starts_with("crates/exec/src/")
                    || p == "crates/axops/src/table.rs")
                    && is_src_lib(p)
            },
            skip_tests: true,
            check: |code| {
                // Lexical approximation: any `as` cast to a ≤32-bit
                // integer can drop bits when the source is wider.
                // Provable widenings still need the annotation — the
                // reason documents why the cast is lossless.
                for t in ["as u8", "as i8", "as u16", "as i16", "as u32", "as i32"] {
                    if has_word(code, t) {
                        return Some(format!(
                            "`{t}` in digest/table-adjacent code may silently truncate: \
                             use `try_from`/`From`, or justify losslessness with a \
                             lint-allow"
                        ));
                    }
                }
                None
            },
        },
    ]
}

/// A parsed allow comment.
struct Allow {
    rule: String,
    line: usize,
    file_level: bool,
    reason_ok: bool,
    used: bool,
}

fn parse_allows(file: &SourceFile) -> Vec<Allow> {
    let mut allows = Vec::new();
    for (i, comment) in file.comment_lines.iter().enumerate() {
        // The marker must *start* the comment text (after the comment
        // sigils): prose that merely mentions `lint-allow(...)` — docs,
        // this file — is not an allow.
        let t = comment
            .trim_start_matches(|c: char| c.is_whitespace() || c == '/' || c == '!' || c == '*');
        let (file_level, rest) = if let Some(r) = t.strip_prefix("lint-allow-file(") {
            (true, r)
        } else if let Some(r) = t.strip_prefix("lint-allow(") {
            (false, r)
        } else {
            continue;
        };
        let Some(close) = rest.find(')') else { continue };
        let rule = rest[..close].trim().to_string();
        let after = rest[close + 1..].trim_start();
        let reason_ok = after.starts_with(':') && !after[1..].trim().is_empty();
        allows.push(Allow { rule, line: i, file_level, reason_ok, used: false });
    }
    allows
}

/// Lints one file: runs every applicable rule, applies allows, reports
/// malformed and unused allows.
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
    let mut raw: Vec<(usize, &'static str, String)> = Vec::new();
    for rule in rules() {
        if !(rule.applies)(&file.path) {
            continue;
        }
        for (i, code) in file.code_lines.iter().enumerate() {
            if rule.skip_tests && file.in_test[i] {
                continue;
            }
            if rule.id == "partial-cmp-sort" {
                let sorting = ["sort_by", "sort_unstable_by", "max_by", "min_by", "binary_search_by"]
                    .iter()
                    .any(|t| has_word(code, t));
                if sorting {
                    let window = file.code_lines[i..file.len().min(i + 4)].join("\n");
                    if window.contains("partial_cmp") {
                        raw.push((
                            i,
                            rule.id,
                            String::from(
                                "`partial_cmp` inside an ordering callback: NaN makes the \
                                 comparator panic or misorder; use `total_cmp` for floats",
                            ),
                        ));
                    }
                }
                continue;
            }
            if rule.id == "cfg-test-mod" {
                let t = code.trim_start();
                if (t.starts_with("mod tests") || t.starts_with("pub mod tests"))
                    && !file.in_test[i]
                {
                    raw.push((
                        i,
                        rule.id,
                        String::from(
                            "inline `mod tests` must be gated with `#[cfg(test)]` so test \
                             code never ships in the library",
                        ),
                    ));
                }
                continue;
            }
            if let Some(msg) = (rule.check)(code) {
                raw.push((i, rule.id, msg));
            }
        }
    }

    let mut allows = parse_allows(file);
    let mut findings = Vec::new();
    for (line, rule_id, msg) in raw {
        let mut suppressed = false;
        for allow in allows.iter_mut() {
            if allow.rule != rule_id || !allow.reason_ok {
                continue;
            }
            let hit = if allow.file_level {
                allow.line < FILE_ALLOW_WINDOW
            } else {
                allow.line == line || allow.line + 1 == line
            };
            if hit {
                allow.used = true;
                suppressed = true;
                break;
            }
        }
        if !suppressed {
            findings.push(Finding {
                rule: rule_id,
                path: file.path.clone(),
                line: line + 1,
                message: msg,
            });
        }
    }
    for allow in &allows {
        if !allow.reason_ok {
            findings.push(Finding {
                rule: "malformed-allow",
                path: file.path.clone(),
                line: allow.line + 1,
                message: format!(
                    "lint-allow for `{}` has no reason; write `lint-allow({}): <why this \
                     is benign>`",
                    allow.rule, allow.rule
                ),
            });
        } else if !allow.used {
            findings.push(Finding {
                rule: "unused-allow",
                path: file.path.clone(),
                line: allow.line + 1,
                message: format!(
                    "lint-allow({}) suppresses nothing — the violation was fixed or the \
                     rule/scope changed; delete the comment",
                    allow.rule
                ),
            });
        }
    }
    findings.sort_by(|a, b| a.line.cmp(&b.line).then(a.rule.cmp(b.rule)));
    findings
}

/// Number of distinct source rules in the catalog (the two allow
/// meta-rules included).
pub fn rule_count() -> usize {
    rules().len() + 2
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(path: &str, src: &str) -> Vec<Finding> {
        lint_file(&SourceFile::scan(path, src))
    }

    fn rules_of(findings: &[Finding]) -> Vec<&str> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hash_containers_fires_in_scope_only() {
        let bad = "fn f() { let m: HashMap<u32, u32> = HashMap::new(); }\n";
        assert_eq!(rules_of(&run("crates/netlist/src/x.rs", bad)), ["hash-containers"]);
        // Out of scope: mlp is not digest-adjacent.
        assert!(run("crates/mlp/src/x.rs", bad).is_empty());
        // `use` lines are exempt; usage is what matters.
        assert!(run("crates/netlist/src/x.rs", "use std::collections::HashMap;\n").is_empty());
    }

    #[test]
    fn hash_containers_quiet_on_btreemap() {
        let good = "fn f() { let m: BTreeMap<u32, u32> = BTreeMap::new(); }\n";
        assert!(run("crates/netlist/src/x.rs", good).is_empty());
    }

    #[test]
    fn wall_clock_fires_outside_obs() {
        let bad = "fn f() { let t = std::time::Instant::now(); }\n";
        assert_eq!(rules_of(&run("crates/dse/src/x.rs", bad)), ["wall-clock"]);
        assert!(run("crates/obs/src/x.rs", bad).is_empty());
        assert!(run("crates/bench/src/x.rs", bad).is_empty());
        // Word boundary: prose-like identifiers do not fire.
        assert!(run("crates/dse/src/x.rs", "fn instantiate_Instantly() {}\n").is_empty());
    }

    #[test]
    fn wall_clock_quiet_on_facade() {
        let good = "fn f() { let w = clapped_obs::Stopwatch::start(); let _ = w.elapsed(); }\n";
        assert!(run("crates/exec/src/x.rs", good).is_empty());
    }

    #[test]
    fn entropy_rng_fires_even_in_tests() {
        let bad = "#[cfg(test)]\nmod tests {\n fn t() { let r = rand::thread_rng(); }\n}\n";
        assert_eq!(rules_of(&run("crates/dse/src/x.rs", bad)), ["entropy-rng"]);
        let good = "fn f() { let r = ChaCha8Rng::seed_from_u64(7); }\n";
        assert!(run("crates/dse/src/x.rs", good).is_empty());
    }

    #[test]
    fn partial_cmp_sort_fires_across_lines() {
        let bad = "fn f(v: &mut Vec<f64>) {\n    v.sort_by(|a, b| {\n        a.partial_cmp(b).unwrap()\n    });\n}\n";
        let found = run("crates/errmodel/src/x.rs", bad);
        assert!(rules_of(&found).contains(&"partial-cmp-sort"), "{found:?}");
        let good = "fn f(v: &mut Vec<f64>) { v.sort_by(|a, b| a.total_cmp(b)); }\n";
        assert!(run("crates/errmodel/src/x.rs", good).is_empty());
    }

    #[test]
    fn partial_cmp_alone_is_fine() {
        // partial_cmp in a plain comparison (no sort) is legitimate.
        let ok = "fn f(a: f64, b: f64) -> bool { a.partial_cmp(&b) == Some(std::cmp::Ordering::Less) }\n";
        assert!(run("crates/errmodel/src/x.rs", ok).is_empty());
    }

    #[test]
    fn no_unwrap_spares_tests_and_doc_comments() {
        let bad = "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert_eq!(rules_of(&run("crates/la/src/x.rs", bad)), ["no-unwrap"]);
        let test_only = "#[cfg(test)]\nmod tests {\n fn t() { Some(1).unwrap(); }\n}\n";
        assert!(run("crates/la/src/x.rs", test_only).is_empty());
        let doc = "/// ```\n/// x.unwrap();\n/// ```\nfn f() {}\n";
        assert!(run("crates/la/src/x.rs", doc).is_empty());
        // Bins may unwrap (CLI top level).
        assert!(run("crates/bench/src/bin/x.rs", bad).is_empty());
    }

    #[test]
    fn no_expect_fires_only_in_panic_free_layers() {
        let bad = "fn f() { LOCK.lock().expect(\"poisoned\"); }\n";
        assert_eq!(rules_of(&run("crates/exec/src/x.rs", bad)), ["no-expect"]);
        assert_eq!(rules_of(&run("crates/dse/src/checkpoint.rs", bad)), ["no-expect"]);
        assert_eq!(rules_of(&run("crates/runtime/src/supervisor.rs", bad)), ["no-expect"]);
        // The daemon must degrade, not abort: a panicking worker shard
        // would strand its tenants' jobs.
        assert_eq!(rules_of(&run("crates/serve/src/server.rs", bad)), ["no-expect"]);
        // The compiled stream pipeline propagates simulation errors; a
        // panic mid-frame would kill a whole DSE sweep.
        assert_eq!(rules_of(&run("crates/accel/src/streamsim.rs", bad)), ["no-expect"]);
        // Catalog generation and pre-filtering run inside sharded exec
        // closures; a panic there aborts a whole cold build.
        assert_eq!(rules_of(&run("crates/axops/src/gen.rs", bad)), ["no-expect"]);
        assert_eq!(rules_of(&run("crates/core/src/prefilter.rs", bad)), ["no-expect"]);
        // The framework facade serves the daemon's worker shards: a
        // panicking accessor would strand a tenant's job.
        assert_eq!(rules_of(&run("crates/core/src/framework.rs", bad)), ["no-expect"]);
        // The error-bound analyzer and its catalog gate feed CI verdicts;
        // a panic there reads as a crash, not a soundness finding.
        assert_eq!(rules_of(&run("crates/netlist/src/errbound.rs", bad)), ["no-expect"]);
        assert_eq!(rules_of(&run("crates/lint/src/errbounds.rs", bad)), ["no-expect"]);
        // Fault campaigns are reachable through the facade with caller
        // stimulus: bad input is a `NetlistError`, never a panic.
        assert_eq!(rules_of(&run("crates/netlist/src/fault.rs", bad)), ["no-expect"]);
        assert!(run("crates/serve/src/bin/clapped_serve.rs", bad).is_empty());
        assert!(run("crates/netlist/src/x.rs", bad).is_empty());
        assert!(run("crates/axops/src/arch.rs", bad).is_empty());
    }

    #[test]
    fn no_print_fires_outside_bench() {
        let bad = "fn f() { println!(\"dbg\"); }\n";
        assert_eq!(rules_of(&run("crates/core/src/x.rs", bad)), ["no-print"]);
        assert!(run("crates/bench/src/lib.rs", bad).is_empty());
    }

    #[test]
    fn todo_markers_fire_everywhere() {
        assert_eq!(rules_of(&run("crates/la/src/x.rs", "fn f() { todo!() }\n")), ["todo-markers"]);
        assert_eq!(
            rules_of(&run("crates/la/tests/t.rs", "fn f() { unimplemented!() }\n")),
            ["todo-markers"]
        );
    }

    #[test]
    fn cfg_test_mod_requires_gate() {
        let bad = "mod tests {\n fn t() {}\n}\n";
        assert_eq!(rules_of(&run("crates/la/src/x.rs", bad)), ["cfg-test-mod"]);
        let good = "#[cfg(test)]\nmod tests {\n fn t() {}\n}\n";
        assert!(run("crates/la/src/x.rs", good).is_empty());
    }

    #[test]
    fn allow_suppresses_exactly_one_finding() {
        // Two identical violations; the allow sits above the first.
        let src = "// lint-allow(no-unwrap): provably Some — length checked above\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let found = run("crates/la/src/x.rs", src);
        assert_eq!(found.len(), 1, "{found:?}");
        assert_eq!(found[0].rule, "no-unwrap");
        assert_eq!(found[0].line, 3, "only the un-allowed line remains");
    }

    #[test]
    fn same_line_allow_works() {
        let src = "fn f(x: Option<u8>) -> u8 { x.unwrap() } // lint-allow(no-unwrap): checked\n";
        assert!(run("crates/la/src/x.rs", src).is_empty());
    }

    #[test]
    fn file_level_allow_suppresses_all() {
        let src = "// lint-allow-file(no-unwrap): generated lookup tables, all keys present\n\
                   fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                   fn g(x: Option<u8>) -> u8 { x.unwrap() }\n";
        assert!(run("crates/la/src/x.rs", src).is_empty());
    }

    #[test]
    fn allow_without_reason_is_rejected() {
        let src = "// lint-allow(no-unwrap)\nfn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
        let found = run("crates/la/src/x.rs", src);
        let rules: Vec<&str> = rules_of(&found);
        assert!(rules.contains(&"no-unwrap"), "violation still reported: {found:?}");
        assert!(rules.contains(&"malformed-allow"), "{found:?}");
    }

    #[test]
    fn unused_allow_is_reported() {
        let src = "// lint-allow(no-unwrap): stale excuse\nfn f() {}\n";
        assert_eq!(rules_of(&run("crates/la/src/x.rs", src)), ["unused-allow"]);
    }

    #[test]
    fn allow_in_string_does_not_count() {
        let src = "fn f(x: Option<u8>) -> u8 {\n    let _s = \"lint-allow(no-unwrap): fake\";\n    x.unwrap()\n}\n";
        assert_eq!(rules_of(&run("crates/la/src/x.rs", src)), ["no-unwrap"]);
    }

    #[test]
    fn no_silent_truncation_fires_in_scope_only() {
        let bad = "fn f(x: u64) -> u16 { x as u16 }\n";
        assert_eq!(rules_of(&run("crates/netlist/src/x.rs", bad)), ["no-silent-truncation"]);
        assert_eq!(rules_of(&run("crates/exec/src/cache.rs", bad)), ["no-silent-truncation"]);
        assert_eq!(rules_of(&run("crates/axops/src/table.rs", bad)), ["no-silent-truncation"]);
        // Out of scope: arch generators are not digest-adjacent.
        assert!(run("crates/axops/src/arch.rs", bad).is_empty());
        assert!(run("crates/dse/src/x.rs", bad).is_empty());
        // Widening targets and usize are not flagged.
        assert!(run("crates/netlist/src/x.rs", "fn f(x: u8) -> u64 { x as u64 }\n").is_empty());
        assert!(run("crates/netlist/src/x.rs", "fn f(x: u8) -> usize { x as usize }\n").is_empty());
        // Tests inside scoped files are exempt.
        let test_only = "#[cfg(test)]\nmod tests {\n fn t(x: u64) -> u8 { x as u8 }\n}\n";
        assert!(run("crates/netlist/src/x.rs", test_only).is_empty());
        // The allow escape hatch documents losslessness.
        let allowed = "fn f(x: u64) -> u16 { x as u16 } // lint-allow(no-silent-truncation): x < 2^16 by construction\n";
        assert!(run("crates/netlist/src/x.rs", allowed).is_empty());
    }

    #[test]
    fn catalog_size_meets_floor() {
        assert!(rule_count() >= 9, "{} source rules", rule_count());
    }
}
