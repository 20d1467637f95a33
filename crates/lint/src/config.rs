//! Rule configuration: which rules run at which level over which paths.
//!
//! The compiled-in [`Config::default`] encodes the SMN invariants from the
//! lint charter; a repo can override levels and path scopes by committing
//! an `.smn-lint.json` at the workspace root (the shape is this module's
//! serde model). Every rule can also be waived in-source with an
//! annotation comment:
//!
//! ```text
//! // smn-lint: allow(determinism/wall-clock) -- benches report wall time
//! ```
//!
//! which covers the next item (through its closing brace) or, as a
//! trailing comment, just its own line; as a `//!` inner comment it covers
//! the whole file. Annotations must carry a `-- reason`; a bare allow is
//! itself a deny-level finding, so waivers stay auditable.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::diag::Level;

/// Every rule the source engine knows, with its charter default.
pub const SOURCE_RULES: &[(&str, Level, &str)] = &[
    (
        "determinism/unseeded-rng",
        Level::Deny,
        "entropy-seeded RNGs (thread_rng, from_entropy, OsRng) break replayable campaigns",
    ),
    (
        "determinism/wall-clock",
        Level::Deny,
        "SystemTime / Instant::now make runs time-dependent; derive time from simulation clocks",
    ),
    (
        "determinism/hash-iter",
        Level::Deny,
        "HashMap/HashSet iteration order leaks into outputs on deterministic simulation paths",
    ),
    ("panic/unwrap", Level::Deny, ".unwrap() in library code panics on fallible paths"),
    ("panic/expect", Level::Deny, ".expect() in library code panics on fallible paths"),
    (
        "panic/panic-macro",
        Level::Deny,
        "panic!/unreachable!/todo!/unimplemented! in library code aborts the control plane",
    ),
    (
        "casts/narrowing",
        Level::Deny,
        "unchecked `as` narrowing in telemetry ingest / TE hot paths silently truncates",
    ),
    (
        "annotation/missing-reason",
        Level::Deny,
        "smn-lint allow annotations must carry a `-- reason`",
    ),
    ("annotation/unknown-rule", Level::Deny, "allow annotation names a rule that does not exist"),
    (
        "source/unparsed",
        Level::Deny,
        "a source file could not be read or lexed, so its rules went unchecked",
    ),
];

/// Every rule of the deep (whole-workspace call-graph) pass, with its
/// charter default. These are known for annotation validation even when
/// `--deep` is not running, so waivers never rot into unknown-rule denies.
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

/// The lint configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Config {
    /// Per-rule level overrides (rule id -> level). Rules absent here run
    /// at their charter default.
    pub levels: BTreeMap<String, Level>,
    /// Path prefixes (workspace-relative, `/`-separated) whose files are
    /// *deterministic simulation paths*: `determinism/hash-iter` applies
    /// only here.
    pub deterministic_paths: Vec<String>,
    /// Path prefixes where `casts/narrowing` applies (telemetry ingest and
    /// TE hot paths).
    pub cast_paths: Vec<String>,
    /// Path prefixes exempt from the panic rules (binaries, benches, the
    /// operator CLI — crashing loudly is their correct failure mode).
    pub panic_exempt: Vec<String>,
    /// Path prefixes never scanned at all.
    pub skip: Vec<String>,
}

impl Default for Config {
    fn default() -> Self {
        Self {
            levels: BTreeMap::new(),
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
            cast_paths: vec![
                "crates/telemetry/src/".into(),
                "crates/te/src/".into(),
                "crates/datalake/src/ingest.rs".into(),
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

impl Config {
    /// Load the configuration for a workspace root: `.smn-lint.json` when
    /// present, the compiled-in defaults otherwise. A malformed config
    /// file is an error (silently falling back would un-gate CI).
    pub fn load(root: &std::path::Path) -> Result<Self, String> {
        let path = root.join(".smn-lint.json");
        match std::fs::read_to_string(&path) {
            Ok(text) => serde_json::from_str(&text)
                .map_err(|e| format!("{}: malformed lint config: {e}", path.display())),
            Err(_) => Ok(Self::default()),
        }
    }

    /// The active level for a source rule, `None` when the rule id is
    /// unknown.
    #[must_use]
    pub fn level(&self, rule: &str) -> Option<Level> {
        if let Some(&l) = self.levels.get(rule) {
            return Some(l);
        }
        SOURCE_RULES
            .iter()
            .chain(DEEP_RULES.iter())
            .find(|(id, _, _)| *id == rule)
            .map(|&(_, l, _)| l)
    }

    /// True when `rule` names a known source, deep, or artifact rule
    /// (used to validate allow annotations).
    #[must_use]
    pub fn known_rule(&self, rule: &str) -> bool {
        SOURCE_RULES.iter().any(|(id, _, _)| *id == rule)
            || DEEP_RULES.iter().any(|(id, _, _)| *id == rule)
            || ARTIFACT_RULES.contains(&rule)
            || rule == "all"
    }

    fn matches_any(path: &str, prefixes: &[String]) -> bool {
        prefixes.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Is `path` (workspace-relative) scanned at all?
    #[must_use]
    pub fn scanned(&self, path: &str) -> bool {
        !Self::matches_any(path, &self.skip)
    }

    /// Is `path` a deterministic simulation path?
    #[must_use]
    pub fn is_deterministic_path(&self, path: &str) -> bool {
        Self::matches_any(path, &self.deterministic_paths)
    }

    /// Does `casts/narrowing` apply to `path`?
    #[must_use]
    pub fn is_cast_path(&self, path: &str) -> bool {
        Self::matches_any(path, &self.cast_paths)
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
    use super::*;

    #[test]
    fn charter_defaults_resolve() {
        let c = Config::default();
        assert_eq!(c.level("panic/unwrap"), Some(Level::Deny));
        assert_eq!(c.level("nonsense/rule"), None);
        assert!(c.known_rule("artifact/dangling-edge"));
        assert!(!c.known_rule("artifact/bogus"));
    }

    #[test]
    fn overrides_win() {
        let mut c = Config::default();
        c.levels.insert("panic/expect".into(), Level::Warn);
        assert_eq!(c.level("panic/expect"), Some(Level::Warn));
    }

    #[test]
    fn path_scoping() {
        let c = Config::default();
        assert!(c.is_deterministic_path("crates/telemetry/src/chaos.rs"));
        assert!(c.is_deterministic_path("crates/obs/src/trace.rs"));
        assert!(!c.is_deterministic_path("crates/te/src/mcf.rs"));
        assert!(c.is_cast_path("crates/te/src/mcf.rs"));
        assert!(c.panic_rules_apply("crates/core/src/bwlogs.rs"));
        assert!(!c.panic_rules_apply("crates/bench/src/bin/table2.rs"));
        assert!(!c.panic_rules_apply("crates/cli/src/commands.rs"));
        assert!(!c.panic_rules_apply("crates/core/src/main.rs"));
        assert!(!c.scanned("vendor/rand/src/lib.rs"));
    }

    #[test]
    fn config_json_roundtrips() {
        let c = Config::default();
        let back: Config = serde_json::from_str(&serde_json::to_string(&c).unwrap()).unwrap();
        assert_eq!(back, c);
    }
}
