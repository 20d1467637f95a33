//! `smn-lint` — workspace static analysis for the SMN control plane.
//!
//! Two engines share one diagnostic currency ([`diag::Report`]):
//!
//! - the **source engine** ([`source`]) lexes every workspace crate with
//!   the spanned token stream from the vendored `syn` and enforces the
//!   determinism / panic-freedom / narrowing-cast rules configured in
//!   [`config::Config`];
//! - the **artifact engine** ([`artifact`]) decodes each serialized
//!   domain artifact (CDGs, topologies, fault campaigns, coarsening
//!   partitions, …) into the workspace type that owns it and reports that
//!   type's `violations()` at `line:col` spans.
//!
//! Both are pure functions over the filesystem: no network, no build, no
//! macro expansion. CI runs `smn-lint --workspace --artifacts artifacts`
//! and gates on deny-level findings; see DESIGN.md §7.

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

use config::Config;
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

/// Run the source engine over the workspace at `root`.
#[must_use]
pub fn run_source(root: &Path, cfg: &Config) -> Report {
    let (findings, files_scanned) = source::scan_workspace(root, cfg);
    let mut report = Report::from_findings(findings);
    report.files_scanned = files_scanned;
    report
}

/// Run the artifact engine over every `*.json` under `dir`.
#[must_use]
pub fn run_artifacts(root: &Path, dir: &Path) -> Report {
    let (findings, artifacts_checked) = artifact::check_dir(root, dir);
    let mut report = Report::from_findings(findings);
    report.artifacts_checked = artifacts_checked;
    report
}
