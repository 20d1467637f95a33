//! The deep pass's rules and the path scopes they apply over.
//!
//! The per-line rules (panics in library code, wall-clock reads, hash
//! containers on deterministic paths, narrowing casts, waivers without a
//! reason) are clippy lints declared in the source; DESIGN.md §7 maps them.
//! [`Config::default`] holds the scopes the call-graph analyses need, and
//! a test holds its deterministic paths equal to the files that deny
//! `clippy::disallowed_types`. A deep-pass finding can be waived in-source
//! with an annotation comment:
//!
//! ```text
//! // smn-lint: allow(deep/determinism-taint) -- timing stays in the profile registry
//! ```
//!
//! which covers the next item (through its closing brace) or, as a
//! trailing comment, just its own line; as a `//!` inner comment it covers
//! the whole file. Annotations must carry a `-- reason`; a bare allow is
//! itself a deny-level finding, so waivers stay auditable.

use crate::diag::Level;

/// Every rule of the deep (whole-workspace call-graph) pass, with its
/// charter level.
pub const DEEP_RULES: &[(&str, Level, &str)] = &[
    (
        "deep/determinism-taint",
        Level::Deny,
        "a declared-deterministic function transitively reaches a nondeterminism source",
    ),
    (
        "deep/panic-reachability",
        Level::Warn,
        "a public library API function can transitively reach a panic site",
    ),
    (
        "deep/panic-baseline",
        Level::Deny,
        "a crate's panic-reachable public API count exceeds the committed panic-baseline.txt",
    ),
    (
        "deep/unused-public",
        Level::Deny,
        "a crate's public library functions that no binary, example, CLI command or periodbench \
         function reaches exceed the committed unused-baseline.txt",
    ),
    (
        "deep/lock-order-cycle",
        Level::Deny,
        "two code paths acquire the same locks in opposite orders (potential deadlock)",
    ),
    (
        "deep/scope-order",
        Level::Deny,
        "a lock-guarded collection is mutated from scoped spawns on a deterministic path",
    ),
    (
        "deep/unresolved-call",
        Level::Warn,
        "a call site matched several workspace candidates; the graph cannot pick one",
    ),
    (
        "source/unparsed",
        Level::Deny,
        "a source file could not be read or lexed, so the deep pass did not see it",
    ),
    (
        "annotation/missing-reason",
        Level::Deny,
        "smn-lint allow annotations must carry a `-- reason`",
    ),
    ("annotation/unknown-rule", Level::Deny, "allow annotation names a rule that does not exist"),
];

/// Rule identifiers of the artifact engine (levels are not configurable:
/// a structurally invalid artifact is always a deny).
pub const ARTIFACT_RULES: &[&str] = &[
    "artifact/unreadable",
    "artifact/unknown-kind",
    "artifact/dangling-edge",
    "artifact/dangling-node",
    "artifact/name-index",
    "artifact/layer-order",
    "artifact/missing-team",
    "artifact/team-count",
    "artifact/invalid-attr",
    "artifact/unknown-span",
    "artifact/dangling-link-ref",
    "artifact/orphan-srlg",
    "artifact/srlg-too-small",
    "artifact/taxonomy-gap",
    "artifact/unknown-target",
    "artifact/wrong-team",
    "artifact/invalid-severity",
    "artifact/duplicate-id",
    "artifact/partition-not-total",
    "artifact/empty-supernode",
    "artifact/overlapping-partition",
    "artifact/partition-mismatch",
    "artifact/dangling-stack-ref",
    "artifact/stack-layer-order",
    "artifact/unknown-fault-ref",
    "artifact/unknown-cell",
    "artifact/coverage-mismatch",
    "artifact/callgraph-order",
    "artifact/callgraph-count",
    "artifact/callgraph-ref",
    "artifact/bench-schema",
    "artifact/bench-scale",
    "artifact/negative-timing",
    "artifact/journal-schema",
    "artifact/journal-tick-order",
    "artifact/journal-dangling-pair",
    "artifact/journal-dangling-component",
    "artifact/journal-missing-hash",
    "artifact/coarse-log-order",
    "artifact/coarse-log-shape",
    "artifact/coarse-log-samples",
];

/// The path scopes of the deep pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Config {
    /// Path prefixes (workspace-relative, `/`-separated) whose files are
    /// *deterministic simulation paths*, the endpoints of the determinism
    /// taint analysis. Each denies `clippy::disallowed_types` in source.
    pub deterministic_paths: Vec<String>,
    /// Path prefixes exempt from the panic rules (binaries, benches, the
    /// operator CLI — crashing loudly is their correct failure mode).
    pub panic_exempt: Vec<String>,
    /// Path prefixes never analyzed at all.
    pub skip: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            deterministic_paths: vec![
                "crates/core/src/simulation.rs".into(),
                "crates/core/src/stream.rs".into(),
                "crates/coverage/src/".into(),
                "crates/depgraph/src/delta.rs".into(),
                "crates/heal/src/".into(),
                "crates/incident/src/sim.rs".into(),
                "crates/obs/src/".into(),
                "crates/perf/src/diff.rs".into(),
                "crates/perf/src/gate.rs".into(),
                "crates/perf/src/report.rs".into(),
                "crates/telemetry/src/".into(),
                "crates/topology/src/stack.rs".into(),
            ],
            panic_exempt: vec![
                "crates/bench/".into(),
                "crates/cli/".into(),
                "crates/lint/src/main.rs".into(),
            ],
            skip: vec![
                "vendor/".into(),
                "target/".into(),
                "crates/lint/tests/fixtures/".into(),
                "crates/lint/tests/deep_fixtures/".into(),
            ],
        }
    }
}

/// The charter level of a deep-pass rule; an unknown id is a deny.
#[must_use]
pub fn level(rule: &str) -> Level {
    DEEP_RULES.iter().find(|(id, _, _)| *id == rule).map_or(Level::Deny, |&(_, l, _)| l)
}

/// True when `rule` names a known deep or artifact rule (used to validate
/// allow annotations).
#[must_use]
pub fn known_rule(rule: &str) -> bool {
    DEEP_RULES.iter().any(|(id, _, _)| *id == rule)
        || ARTIFACT_RULES.contains(&rule)
        || rule == "all"
}

impl Config {
    fn matches_any(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Is `path` (workspace-relative) analyzed at all?
    #[must_use]
    pub fn scanned(&self, path: &str) -> bool {
        !Self::matches_any(path, &self.skip)
    }

    /// Is `path` a deterministic simulation path?
    #[must_use]
    pub fn is_deterministic_path(&self, path: &str) -> bool {
        Self::matches_any(path, &self.deterministic_paths)
    }

    /// Do the panic rules apply to `path`? Library code only: binaries
    /// (`src/bin/`, `main.rs`), benches, tests, and exempted crates may
    /// crash loudly.
    #[must_use]
    pub fn panic_rules_apply(&self, path: &str) -> bool {
        if Self::matches_any(path, &self.panic_exempt) {
            return false;
        }
        !(path.contains("/bin/")
            || path.ends_with("main.rs")
            || path.contains("/tests/")
            || path.contains("/benches/")
            || path.starts_with("tests/")
            || path.starts_with("examples/"))
    }
}

#[cfg(test)]
mod tests {
    use std::path::{Path, PathBuf};

    use super::*;

    #[test]
    fn charter_defaults_resolve() {
        assert_eq!(level("deep/unresolved-call"), Level::Warn);
        assert_eq!(level("source/unparsed"), Level::Deny);
        assert_eq!(level("nonsense/rule"), Level::Deny);
        assert!(known_rule("artifact/dangling-edge"));
        assert!(known_rule("annotation/missing-reason"));
        assert!(!known_rule("artifact/bogus"));
        assert!(!known_rule("panic/unwrap"));
    }

    #[test]
    fn path_scoping() {
        let c = Config::default();
        assert!(c.is_deterministic_path("crates/telemetry/src/chaos.rs"));
        assert!(c.is_deterministic_path("crates/obs/src/trace.rs"));
        assert!(!c.is_deterministic_path("crates/te/src/mcf.rs"));
        assert!(c.panic_rules_apply("crates/core/src/bwlogs.rs"));
        assert!(!c.panic_rules_apply("crates/bench/src/bin/table2.rs"));
        assert!(!c.panic_rules_apply("crates/cli/src/commands.rs"));
        assert!(!c.panic_rules_apply("crates/core/src/main.rs"));
        assert!(!c.scanned("vendor/rand/src/lib.rs"));
    }

    fn workspace_root() -> PathBuf {
        Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
    }

    /// Workspace-relative paths of the files under `crates/` whose inner
    /// attributes deny `lint`; a library root stands for its `src/` tree.
    fn files_denying(lint: &str) -> Vec<String> {
        let root = workspace_root();
        let (mut files, mut errors) = (Vec::new(), Vec::new());
        crate::collect_files(&root.join("crates"), "rs", &mut files, &mut errors);
        assert!(errors.is_empty(), "{errors:?}");
        let mut out: Vec<String> = files
            .iter()
            .filter(|path| {
                std::fs::read_to_string(path)
                    .unwrap()
                    .lines()
                    .any(|l| l.starts_with("#![") && l.contains("deny(") && l.contains(lint))
            })
            .map(|path| {
                let rel = path.strip_prefix(&root).unwrap().to_string_lossy().into_owned();
                rel.strip_suffix("lib.rs").map_or(rel.clone(), str::to_string)
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn deterministic_paths_are_the_files_denying_hash_containers() {
        assert_eq!(
            files_denying("clippy::disallowed_types"),
            Config::default().deterministic_paths
        );
    }

    #[test]
    fn panic_scope_is_the_library_roots_denying_the_panic_family() {
        let (c, root) = (Config::default(), workspace_root());
        let mut libs: Vec<String> = std::fs::read_dir(root.join("crates"))
            .unwrap()
            .map(|e| format!("crates/{}/src/lib.rs", e.unwrap().file_name().to_string_lossy()))
            .filter(|lib| root.join(lib).is_file() && c.panic_rules_apply(lib))
            .map(|lib| lib.replace("lib.rs", ""))
            .collect();
        libs.sort();
        for lint in ["clippy::unwrap_used", "clippy::unimplemented"] {
            assert_eq!(files_denying(lint), libs, "{lint}");
        }
    }
}
