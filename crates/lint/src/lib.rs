//! `smn-lint` — workspace static analysis for the SMN control plane.
//!
//! Two engines share one diagnostic currency ([`diag::Report`]):
//!
//! - the **deep pass** ([`deep`]) lexes every workspace crate with the
//!   spanned token stream from the vendored `syn`, builds one call graph
//!   and runs the interprocedural analyses over it (determinism taint,
//!   panic reachability, lock discipline, unused public API);
//! - the **artifact engine** ([`artifact`]) decodes each serialized
//!   domain artifact (CDGs, topologies, fault campaigns, coarsening
//!   partitions, …) into the workspace type that owns it and reports that
//!   type's `violations()` at `line:col` spans.
//!
//! Both are pure functions over the filesystem: no network, no build, no
//! macro expansion. The per-line rules (panics in library code, wall-clock
//! reads, hash containers on deterministic paths, narrowing casts) are
//! clippy lints declared in the source; see DESIGN.md §7.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod artifact;
pub mod cli;
pub mod config;
pub mod deep;
pub mod diag;
pub mod graph;
pub mod locks;
pub mod reach;
pub mod scan;
pub mod source;
pub mod taint;
pub mod unused;

use std::path::{Path, PathBuf};

use diag::Report;

/// Walk up from `start` to the first directory holding a `Cargo.toml`
/// that declares `[workspace]`.
#[must_use]
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

/// Recursively collect the files under `dir` whose extension is `ext`,
/// the one walk of both engines. A directory that cannot be read is
/// pushed onto `errors` instead of being silently skipped.
pub(crate) fn collect_files(
    dir: &Path,
    ext: &str,
    out: &mut Vec<PathBuf>,
    errors: &mut Vec<(PathBuf, String)>,
) {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) => {
            errors.push((dir.to_path_buf(), e.to_string()));
            return;
        }
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_files(&path, ext, out, errors);
        } else if path.extension().is_some_and(|x| x == ext) {
            out.push(path);
        }
    }
}

/// Run the artifact engine over every `*.json` under `dir`.
#[must_use]
pub fn run_artifacts(root: &Path, dir: &Path) -> Report {
    let (findings, artifacts_checked) = artifact::check_dir(root, dir);
    let mut report = Report::from_findings(findings);
    report.artifacts_checked = artifacts_checked;
    report
}
