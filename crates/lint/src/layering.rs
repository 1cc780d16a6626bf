//! Crate-layering lint and lint-scope guard.
//!
//! **Layering.** Each workspace crate sits in a numbered layer; a crate
//! may depend only on crates in **strictly lower** layers.
//! `[dev-dependencies]` are exempt (tests may reach sideways), and
//! non-workspace (vendored) dependencies are ignored. The ranking makes
//! inversions — say, `clapped-netlist` growing a dependency on
//! `clapped-dse` — a lint error instead of a slow architectural drift.
//!
//! **Lint scope.** The source rules are clippy lints, which bind only
//! code that opts in. Every manifest, the root package's included, must
//! inherit `[workspace.lints]`, and `LINT_SCOPE` is the one record of
//! the scoped rules: each library root and scoped module with the lints
//! its `#![warn(...)]` headers must name. Without this guard, deleting
//! a header line or adding a crate would narrow a rule silently.

use crate::Finding;
use std::io;
use std::path::Path;

/// Layer rank per workspace crate. Leaves (no workspace deps) at 0,
/// the bench harness at the top. A dependency is legal iff
/// `rank(dep) < rank(crate)`.
const LAYERS: &[(&str, u32)] = &[
    ("clapped-obs", 0),
    ("clapped-la", 0),
    ("clapped-exec", 1),
    ("clapped-netlist", 2),
    ("clapped-mlp", 2),
    ("clapped-axops", 3),
    ("clapped-errmodel", 4),
    ("clapped-imgproc", 4),
    ("clapped-accel", 5),
    ("clapped-dse", 5),
    ("clapped-runtime", 6),
    ("clapped-core", 7),
    ("clapped-lint", 6),
    ("clapped-serve", 8),
    ("clapped-bench", 9),
];

// Lint groups the scoped files' `#![warn(...)]` headers name: the
// library header (every library root), the print lints (every library
// root but bench's, which prints its reports), no `expect` (the
// panic-free layers), and no `HashMap`/`HashSet` or silent truncation
// (next to digests, checkpoints and tables).
const LIBRARY: &[&str] = &["clippy::unwrap_used", "clippy::tests_outside_test_module"];
const PRINT: &[&str] = &["clippy::print_stdout", "clippy::print_stderr", "clippy::dbg_macro"];
const EXPECT: &[&str] = &["clippy::expect_used"];
const HASH: &[&str] = &["clippy::disallowed_types"];
const CASTS: &[&str] = &[
    "clippy::cast_possible_truncation",
    "clippy::cast_possible_wrap",
    "clippy::cast_sign_loss",
    "clippy::cast_lossless",
];

/// Where the scoped source rules apply: each file, workspace-relative,
/// with the lint groups its headers must name. A header on a library
/// root covers its whole crate. Every library root needs an entry, and
/// every entry's file must exist.
const LINT_SCOPE: &[(&str, &[&[&str]])] = &[
    ("src/lib.rs", &[LIBRARY, PRINT]),
    ("crates/accel/src/lib.rs", &[LIBRARY, PRINT, EXPECT]),
    ("crates/axops/src/lib.rs", &[LIBRARY, PRINT]),
    ("crates/axops/src/fault.rs", &[HASH]),
    ("crates/axops/src/gen.rs", &[EXPECT]),
    ("crates/axops/src/table.rs", &[HASH, CASTS]),
    ("crates/bench/src/lib.rs", &[LIBRARY]),
    ("crates/core/src/lib.rs", &[LIBRARY, PRINT, EXPECT]),
    ("crates/dse/src/lib.rs", &[LIBRARY, PRINT]),
    ("crates/dse/src/checkpoint.rs", &[EXPECT, HASH]),
    ("crates/errmodel/src/lib.rs", &[LIBRARY, PRINT]),
    ("crates/exec/src/lib.rs", &[LIBRARY, PRINT, EXPECT, HASH, CASTS]),
    ("crates/imgproc/src/lib.rs", &[LIBRARY, PRINT]),
    ("crates/la/src/lib.rs", &[LIBRARY, PRINT]),
    ("crates/lint/src/lib.rs", &[LIBRARY, PRINT]),
    ("crates/lint/src/errbounds.rs", &[EXPECT]),
    ("crates/mlp/src/lib.rs", &[LIBRARY, PRINT]),
    ("crates/netlist/src/lib.rs", &[LIBRARY, PRINT, HASH, CASTS]),
    ("crates/netlist/src/errbound.rs", &[EXPECT]),
    ("crates/netlist/src/fault.rs", &[EXPECT]),
    ("crates/obs/src/lib.rs", &[LIBRARY, PRINT, EXPECT, HASH]),
    ("crates/runtime/src/lib.rs", &[LIBRARY, PRINT, EXPECT]),
    ("crates/serve/src/lib.rs", &[LIBRARY, PRINT, EXPECT]),
];

fn rank(name: &str) -> Option<u32> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, r)| r)
}

fn finding(rule: &'static str, path: &str, message: String) -> Finding {
    Finding { rule, path: path.to_string(), message }
}

/// The trimmed, non-comment lines of one `[table]` of a manifest.
/// Line-oriented: good enough for this workspace's plain manifests.
fn table<'a>(manifest: &'a str, header: &'a str) -> impl Iterator<Item = &'a str> {
    let mut inside = false;
    manifest.lines().map(str::trim).filter(move |line| {
        if line.starts_with('[') {
            inside = *line == header;
            return false;
        }
        inside && !line.is_empty() && !line.starts_with('#')
    })
}

/// Extracts `[dependencies]` entries (names only) from a manifest.
fn dependencies(manifest: &str) -> Vec<String> {
    let is_name = |c: &char| c.is_ascii_alphanumeric() || *c == '-' || *c == '_';
    table(manifest, "[dependencies]")
        .map(|line| line.chars().take_while(is_name).collect::<String>())
        .filter(|name| !name.is_empty())
        .collect()
}

/// Checks one crate's direct dependency list against the layer table.
/// Exposed (crate-visible) so tests can seed violations without a
/// filesystem fixture.
pub(crate) fn check_crate(name: &str, deps: &[String], manifest_path: &str) -> Vec<Finding> {
    let Some(my_rank) = rank(name) else {
        let message = format!(
            "crate `{name}` is not in the layer table; add it to LAYERS in \
             crates/lint/src/layering.rs with its rank"
        );
        return vec![finding("layering", manifest_path, message)];
    };
    // Vendored / external dependencies have no rank: out of scope.
    deps.iter()
        .filter_map(|dep| Some((dep, rank(dep)?)))
        .filter(|&(_, dep_rank)| dep_rank >= my_rank)
        .map(|(dep, dep_rank)| {
            let message = format!(
                "`{name}` (layer {my_rank}) must not depend on `{dep}` (layer \
                 {dep_rank}): dependencies may only point at strictly lower layers"
            );
            finding("layering", manifest_path, message)
        })
        .collect()
}

/// Checks that a manifest sets `[lints] workspace = true`.
pub(crate) fn check_inherits(name: &str, manifest: &str, manifest_path: &str) -> Option<Finding> {
    let inherits = table(manifest, "[lints]").any(|line| line.replace(' ', "") == "workspace=true");
    let message = format!("`{name}` must set `[lints] workspace = true`");
    (!inherits).then(|| finding("lint-scope", manifest_path, message))
}

/// Checks that a library root has a `LINT_SCOPE` entry.
pub(crate) fn check_listed(lib_path: &str) -> Option<Finding> {
    let message = "library root has no entry in LINT_SCOPE (crates/lint/src/layering.rs)";
    let listed = LINT_SCOPE.iter().any(|&(file, _)| file == lib_path);
    (!listed).then(|| finding("lint-scope", lib_path, message.to_string()))
}

/// Checks that a file's `#![warn(...)]` header lines name every lint of
/// the `required` groups. Comments and other attributes do not count.
pub(crate) fn check_header(path: &str, source: &str, required: &[&[&str]]) -> Option<Finding> {
    let warned: Vec<&str> = source
        .lines()
        .filter_map(|line| line.trim().strip_prefix("#![warn(")?.strip_suffix(")]"))
        .flat_map(|lints| lints.split(',').map(str::trim))
        .collect();
    let missing: Vec<&str> =
        required.concat().into_iter().filter(|lint| !warned.contains(lint)).collect();
    let message = format!("must `#![warn({})]`", missing.join(", "));
    (!missing.is_empty()).then(|| finding("lint-scope", path, message))
}

/// Parses the root and every `crates/*/Cargo.toml`, checks the
/// dependency DAG against the layer table, and checks the lint scope:
/// every manifest inherits the workspace lints, every library root is
/// in `LINT_SCOPE`, and every scoped file carries its headers.
///
/// # Errors
///
/// Propagates filesystem errors reading the manifests and scoped files.
pub fn lint_layering(root: &Path) -> io::Result<Vec<Finding>> {
    let root_manifest = std::fs::read_to_string(root.join("Cargo.toml"))?;
    let mut findings: Vec<Finding> =
        check_inherits("clapped", &root_manifest, "Cargo.toml").into_iter().collect();
    findings.extend(check_listed("src/lib.rs"));
    let mut crate_dirs: Vec<String> = Vec::new();
    for entry in std::fs::read_dir(root.join("crates"))? {
        crate_dirs.push(entry?.file_name().to_string_lossy().into_owned());
    }
    crate_dirs.sort();
    for dir in crate_dirs {
        let rel = format!("crates/{dir}/Cargo.toml");
        if !root.join(&rel).is_file() {
            continue;
        }
        let manifest = std::fs::read_to_string(root.join(&rel))?;
        let name = manifest
            .lines()
            .find_map(|l| l.trim().strip_prefix("name = ").map(|v| v.trim_matches('"').to_string()))
            .unwrap_or_default();
        findings.extend(check_crate(&name, &dependencies(&manifest), &rel));
        findings.extend(check_inherits(&name, &manifest, &rel));
        let lib_rs = format!("crates/{dir}/src/lib.rs");
        if root.join(&lib_rs).is_file() {
            findings.extend(check_listed(&lib_rs));
        }
    }
    for &(file, required) in LINT_SCOPE {
        match std::fs::read_to_string(root.join(file)) {
            Ok(source) => findings.extend(check_header(file, &source, required)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {
                findings.push(finding("lint-scope", file, "is in LINT_SCOPE but missing".into()));
            }
            Err(e) => return Err(e),
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn deps(names: &[&str]) -> Vec<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn inversion_is_reported() {
        let f = check_crate("clapped-netlist", &deps(&["clapped-dse"]), "crates/netlist/Cargo.toml");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, "layering");
        assert!(f[0].message.contains("clapped-dse"), "{}", f[0].message);
    }

    #[test]
    fn same_layer_dependency_is_reported() {
        let f = check_crate("clapped-accel", &deps(&["clapped-dse"]), "x");
        assert_eq!(f.len(), 1, "same-rank deps are cycles waiting to happen");
    }

    #[test]
    fn legal_downward_deps_are_quiet() {
        let f = check_crate(
            "clapped-axops",
            &deps(&["clapped-exec", "clapped-netlist", "serde", "rand"]),
            "x",
        );
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn serve_sits_above_core_and_below_bench() {
        let clean = check_crate("clapped-serve", &deps(&["clapped-core", "clapped-dse"]), "x");
        assert!(clean.is_empty(), "{clean:?}");
        let up = check_crate("clapped-core", &deps(&["clapped-serve"]), "x");
        assert_eq!(up.len(), 1, "core must not reach up into the serving layer");
        let bench = check_crate("clapped-bench", &deps(&["clapped-serve"]), "x");
        assert!(bench.is_empty(), "the load generator drives the daemon: {bench:?}");
    }

    #[test]
    fn unknown_crate_is_reported() {
        let f = check_crate("clapped-new-thing", &deps(&[]), "x");
        assert_eq!(f.len(), 1);
        assert!(f[0].message.contains("layer table"));
    }

    #[test]
    fn dependencies_parser_reads_only_the_deps_section() {
        let manifest = "\
[package]
name = \"clapped-x\"

[dependencies]
clapped-obs.workspace = true
rand = { version = \"0.8\", default-features = false }

[dev-dependencies]
proptest.workspace = true
";
        assert_eq!(dependencies(manifest), vec!["clapped-obs", "rand"]);
    }

    #[test]
    fn scope_guard_reports_missing_inheritance_and_header() {
        let manifest = "[package]\nname = \"clapped-x\"\n\n[dependencies]\nrand = \"0.8\"\n";
        let f = check_inherits("clapped-x", manifest, "crates/x/Cargo.toml").expect("no [lints]");
        assert_eq!((f.rule, f.path.as_str()), ("lint-scope", "crates/x/Cargo.toml"));
        let inherited = format!("{manifest}\n[lints]\nworkspace = true\n");
        assert_eq!(check_inherits("clapped-x", &inherited, "x"), None);
        // A new crate's library root must be entered in the table.
        assert!(check_listed("crates/x/src/lib.rs").is_some());
        assert_eq!(check_listed("crates/exec/src/lib.rs"), None);

        let bench = "#![warn(clippy::unwrap_used, clippy::tests_outside_test_module)]\n";
        let f = check_header("x", bench, &[LIBRARY, PRINT]).expect("no print lints");
        assert!(f.message.contains("clippy::print_stdout"), "{}", f.message);
        assert!(!f.message.contains("clippy::unwrap_used"), "{}", f.message);
        // The bench harness prints its reports: it needs no print lints.
        assert_eq!(check_header("x", bench, &[LIBRARY]), None);
        // A commented-out header line does not count.
        let commented = format!("{bench}// #![warn({})]\n", PRINT.join(", "));
        assert!(check_header("x", &commented, &[LIBRARY, PRINT]).is_some());

        // Deleting one header line of a scoped file narrows a rule: the
        // guard must name the lints it carried.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        for (file, gone) in [
            ("crates/exec/src/lib.rs", "clippy::expect_used"),
            ("crates/axops/src/table.rs", "clippy::cast_possible_truncation"),
            ("crates/dse/src/checkpoint.rs", "clippy::disallowed_types"),
        ] {
            let source = std::fs::read_to_string(root.join(file)).expect("read scoped file");
            let required = LINT_SCOPE.iter().find(|&&(f, _)| f == file).expect("listed").1;
            assert_eq!(check_header(file, &source, required), None, "{file} is in scope");
            let seeded: Vec<&str> = source.lines().filter(|line| !line.contains(gone)).collect();
            let f = check_header(file, &seeded.join("\n"), required).expect("line deleted");
            assert!(f.path == file && f.message.contains(gone), "{f:?}");
        }
    }

    /// The real workspace respects the layering and the lint scope.
    #[test]
    fn workspace_layering_is_clean() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let f = lint_layering(&root).expect("read manifests");
        assert!(f.is_empty(), "{f:?}");
    }
}
