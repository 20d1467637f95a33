//! Fixture corpus for the deep pass: one known-bad source fixture per
//! interprocedural rule, each asserted down to the exact rule, level,
//! file, line, and column, plus property tests that the whole pass is
//! order-insensitive and byte-identical across runs.
//!
//! Fixture sources live in `tests/deep_fixtures/*.fixture` — the
//! non-`.rs` extension keeps them out of the real workspace scan — and
//! are analyzed under *virtual* workspace paths so path-scoped policy
//! (deterministic paths, library panic rules) applies exactly as it
//! would in the tree.

use std::path::PathBuf;

use proptest::collection::vec;
use proptest::prelude::*;
use smn_lint::cli;
use smn_lint::config::Config;
use smn_lint::deep::{analyze_files, DeepOptions, DeepResult};
use smn_lint::diag::{Diagnostic, Level};

/// `(virtual workspace path, fixture file)` — the corpus, one entry per
/// file; several files may combine into one scenario.
const CORPUS: &[(&str, &str)] = &[
    ("crates/coverage/src/lib.rs", "tainted_chain_coverage.fixture"),
    ("crates/core/src/util.rs", "tainted_chain_core.fixture"),
    ("crates/core/src/lib.rs", "panic_witness.fixture"),
    ("crates/datalake/src/store.rs", "lock_cycle.fixture"),
    ("crates/core/src/dispatch.rs", "unresolved_call.fixture"),
    ("crates/core/src/api.rs", "unused_public.fixture"),
    ("crates/core/src/bin/tool.rs", "unused_public_bin.fixture"),
    ("crates/core/tests/api.rs", "unused_public_test.fixture"),
    ("periodbench/src/main.rs", "unused_public_periodbench.fixture"),
    ("crates/core/src/store.rs", "turbofish_call.fixture"),
    ("crates/core/src/bin/store.rs", "turbofish_call_bin.fixture"),
    ("crates/core/src/derived.rs", "derived_default.fixture"),
];

/// The unused-public scenario: the library file and its callers.
const UNUSED: &[(&str, &str)] = &[CORPUS[5], CORPUS[6], CORPUS[7], CORPUS[8]];

/// The turbofish scenario: a library file and a binary calling into it.
const TURBOFISH: &[(&str, &str)] = &[CORPUS[9], CORPUS[10]];

fn fixture(name: &str) -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/deep_fixtures").join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn deep(entries: &[(&str, &str)]) -> DeepResult {
    deep_with(entries, &DeepOptions::default())
}

fn deep_with(entries: &[(&str, &str)], opts: &DeepOptions) -> DeepResult {
    let files: Vec<(String, String)> =
        entries.iter().map(|(path, name)| (path.to_string(), fixture(name))).collect();
    analyze_files(&files, &Config::default(), opts)
}

/// The bytes `smn-lint --deep` prints for `r`.
fn printed(r: &DeepResult) -> String {
    cli::render(&r.report, Some(&r.summary))
}

/// The bytes `smn-lint --deep --json` prints for `r`.
fn printed_json(r: &DeepResult) -> String {
    cli::render_json(&r.report, Some(&r.summary))
}

fn only_rule<'r>(r: &'r DeepResult, rule: &str) -> &'r Diagnostic {
    let hits: Vec<&Diagnostic> = r.report.findings.iter().filter(|d| d.rule == rule).collect();
    assert_eq!(hits.len(), 1, "want exactly one {rule}, got {:?}", r.report.findings);
    hits[0]
}

#[test]
fn tainted_chain_fixture_yields_exact_span() {
    let r = deep(&[CORPUS[0], CORPUS[1]]);
    let d = only_rule(&r, "deep/determinism-taint");
    assert_eq!(d.level, Level::Deny);
    // The finding sits at the deterministic *endpoint*, where the
    // guarantee is declared (and where a waiver would have to live).
    assert_eq!(d.file, "crates/coverage/src/lib.rs");
    assert_eq!((d.line, d.col), (5, 1), "span moved: {d:?}");
    assert!(d.message.contains("wall-clock"), "{}", d.message);
    assert!(
        d.note.contains("coverage::evaluate_lattice -> core::util::stamp_now"),
        "chain missing: {}",
        d.note
    );
}

#[test]
fn panic_witness_fixture_yields_exact_span() {
    let r = deep(&[CORPUS[2]]);
    let d = only_rule(&r, "deep/panic-reachability");
    assert_eq!(d.level, Level::Warn);
    // The finding sits at the public endpoint; the witness names the
    // concrete site inside the private helper.
    assert_eq!(d.file, "crates/core/src/lib.rs");
    assert_eq!((d.line, d.col), (10, 1), "span moved: {d:?}");
    assert!(d.message.contains("core::Engine::run"), "{}", d.message);
    assert!(d.message.contains("crates/core/src/lib.rs:15"), "{}", d.message);
    assert!(d.message.contains(".unwrap()"), "{}", d.message);
    assert!(
        d.note.contains("core::Engine::run -> core::Engine::force"),
        "witness chain missing: {}",
        d.note
    );
}

#[test]
fn lock_cycle_fixture_yields_exact_span() {
    let r = deep(&[CORPUS[3]]);
    let d = only_rule(&r, "deep/lock-order-cycle");
    assert_eq!(d.level, Level::Deny);
    // The span is the inner acquisition realizing the cycle's first hop
    // (`self.b.lock()` under the live guard for `a`).
    assert_eq!(d.file, "crates/datalake/src/store.rs");
    assert_eq!((d.line, d.col), (13, 1), "span moved: {d:?}");
    assert!(d.message.contains("Store.a -> Store.b -> Store.a"), "{}", d.message);
}

#[test]
fn unresolved_call_fixture_yields_exact_span() {
    let r = deep(&[CORPUS[4]]);
    let d = only_rule(&r, "deep/unresolved-call");
    assert_eq!(d.level, Level::Warn);
    assert_eq!(d.file, "crates/core/src/dispatch.rs");
    assert_eq!((d.line, d.col), (20, 1), "span moved: {d:?}");
    assert!(d.message.contains("2 workspace candidates"), "{}", d.message);
    assert!(d.message.contains("core::dispatch::Alpha::step"), "{}", d.message);
    // The ambiguity is also part of the artifact, not just the report.
    assert_eq!(r.summary.unresolved, 1);
    assert!(r.callgraph_json.contains("\"unresolved\""));
}

#[test]
fn unused_public_fixture_lists_only_the_test_only_function() {
    // Reached from a bin, through an unresolved method name, from a
    // periodbench root and as a value all count; a call from `tests/`
    // does not.
    let r = deep(UNUSED);
    assert_eq!(r.summary.unused_public, vec!["core::api::from_tests_only".to_string()]);
    let d = only_rule(&r, "deep/unused-public");
    assert_eq!(d.level, Level::Warn);
    assert_eq!(d.file, "crates/core/src/api.rs");
    assert_eq!((d.line, d.col), (11, 1), "span moved: {d:?}");

    // Without the periodbench root its function is unused too.
    let r = deep(&UNUSED[..3]);
    let want = ["core::api::from_periodbench", "core::api::from_tests_only"];
    assert_eq!(r.summary.unused_public, want.map(String::from));
}

#[test]
fn a_turbofish_path_call_reaches_the_type_function() {
    // `Store::<Vec<u8>>::open()` is a call of `Store::open`, not of the
    // free `open`, which nothing calls.
    let r = deep(TURBOFISH);
    assert_eq!(r.summary.unused_public, vec!["core::store::open".to_string()]);
    let d = only_rule(&r, "deep/unused-public");
    assert_eq!((d.file.as_str(), d.line), ("crates/core/src/store.rs", 14), "span moved: {d:?}");
}

#[test]
fn a_derived_default_reaches_its_field_types_defaults() {
    // `Access::default()` is derived: it calls `Breaker::default`, whose
    // hand-written body reaches the `assert!` in `Breaker::new`.
    let r = deep(&[CORPUS[11]]);
    let found: Vec<&Diagnostic> = r
        .report
        .findings
        .iter()
        .filter(|d| {
            d.rule == "deep/panic-reachability" && d.message.contains("core::derived::open")
        })
        .collect();
    assert_eq!(found.len(), 1, "{:?}", r.report.findings);
    let d = found[0];
    assert_eq!((d.file.as_str(), d.line, d.col), ("crates/core/src/derived.rs", 27, 1));
    assert!(d.message.contains("crates/core/src/derived.rs:16"), "{}", d.message);
    assert!(
        d.note.contains(
            "core::derived::open -> core::derived::<Access as Default>::default -> \
             core::derived::<Breaker as Default>::default -> core::derived::Breaker::new"
        ),
        "witness chain missing: {}",
        d.note
    );
}

#[test]
fn unused_public_over_baseline_is_a_deny() {
    let mut allowed = std::collections::BTreeMap::new();
    allowed.insert("core".to_string(), 0usize);
    let opts = DeepOptions { unused_baseline: Some(allowed.clone()), ..DeepOptions::default() };
    let r = deep_with(UNUSED, &opts);
    let d = only_rule(&r, "deep/unused-public");
    assert_eq!(d.level, Level::Deny);
    assert_eq!(d.file, "unused-baseline.txt");
    assert!(d.message.contains("core::api::from_tests_only"), "{}", d.message);

    allowed.insert("core".to_string(), 1);
    let opts = DeepOptions { unused_baseline: Some(allowed), ..DeepOptions::default() };
    assert!(deep_with(UNUSED, &opts)
        .report
        .findings
        .iter()
        .all(|d| d.rule != "deep/unused-public"));
}

#[test]
fn root_files_change_no_other_finding() {
    let without: Vec<(&str, &str)> =
        CORPUS.iter().copied().filter(|(path, _)| !path.starts_with("periodbench/")).collect();
    let (a, b) = (deep(CORPUS), deep(&without));
    let others = |r: &DeepResult| {
        r.report
            .findings
            .iter()
            .filter(|d| d.rule != "deep/unused-public")
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(others(&a), others(&b));
    assert_eq!(a.callgraph_json, b.callgraph_json);
}

#[test]
fn full_corpus_produces_all_four_rules() {
    let r = deep(CORPUS);
    for rule in [
        "deep/determinism-taint",
        "deep/panic-reachability",
        "deep/lock-order-cycle",
        "deep/unresolved-call",
    ] {
        assert!(
            r.report.findings.iter().any(|d| d.rule == rule),
            "corpus lost {rule}: {:?}",
            r.report.findings
        );
    }
}

proptest! {
    /// Any subset of the corpus, fed in any order, yields byte-identical
    /// output across repeated runs, findings sorted by
    /// `(file, line, col, rule)`, and a callgraph artifact that does not
    /// depend on input file order.
    #[test]
    fn deep_pass_is_sorted_and_byte_identical(
        keys in vec(0u64..1_000_000, CORPUS.len()),
        mask in vec(0u8..2, CORPUS.len()),
    ) {
        // Subset via mask, order via sort-by-key: together they range
        // over ordered sub-multisets of the corpus.
        let mut picked: Vec<(u64, &(&str, &str))> = CORPUS
            .iter()
            .zip(mask.iter())
            .filter(|(_, &m)| m == 1)
            .map(|(entry, _)| entry)
            .zip(keys.iter())
            .map(|(entry, &k)| (k, entry))
            .collect();
        picked.sort_by_key(|&(k, _)| k);
        let entries: Vec<(&str, &str)> = picked.iter().map(|&(_, e)| *e).collect();

        let a = deep(&entries);
        let b = deep(&entries);
        prop_assert_eq!(printed(&a), printed(&b));
        prop_assert_eq!(printed_json(&a), printed_json(&b));
        prop_assert_eq!(&a.callgraph_json, &b.callgraph_json);

        // Findings come out sorted — the report order is part of the
        // byte-stability contract.
        let order: Vec<(&str, u32, u32, &str)> = a
            .report
            .findings
            .iter()
            .map(|d| (d.file.as_str(), d.line, d.col, d.rule.as_str()))
            .collect();
        prop_assert!(order.windows(2).all(|w| w[0] <= w[1]), "unsorted: {order:?}");

        // Input order must not leak into the artifact: the same file
        // *set* in sorted order gives the same canonical bytes.
        let mut sorted_entries = entries.clone();
        sorted_entries.sort_unstable();
        let c = deep(&sorted_entries);
        prop_assert_eq!(&a.callgraph_json, &c.callgraph_json);
        prop_assert_eq!(printed(&a), printed(&c));
    }
}
