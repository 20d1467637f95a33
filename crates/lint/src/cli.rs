//! The one command-line front end of the lint engines, shared by the
//! `smn-lint` binary and `smn lint`.
//!
//! ```text
//! [--artifacts DIR]... [--deep] [--root PATH] [--json]
//! [--callgraph-out PATH] [--write-baselines]
//! ```
//!
//! Each `--artifacts DIR` runs the artifact engine over `DIR`; with no
//! engine named, it runs over `artifacts/` when that directory exists.
//! `--deep` adds the whole-workspace call-graph pass (determinism taint,
//! panic reachability vs. `panic-baseline.txt`, lock discipline, unused
//! public API vs. `unused-baseline.txt`) and can emit the canonical
//! call-graph artifact via `--callgraph-out`; `--write-baselines`
//! regenerates both baselines. The per-line source rules are clippy
//! lints (DESIGN.md §7). Exit codes: 0 clean, 1 deny-level findings, 2
//! usage or configuration error.

use std::path::PathBuf;
use std::process::ExitCode;

use serde::{Serialize, Value};

use crate::config::Config;
use crate::deep::{self, DeepOptions, DeepSummary};
use crate::diag::Report;
use crate::{find_workspace_root, reach, run_artifacts, unused};

/// The arguments every front end accepts.
const USAGE: &str = "[--artifacts DIR]... [--deep] [--root PATH] [--json] \
                         [--callgraph-out PATH] [--write-baselines]";

/// Run the engines `args` ask for from `prog` (the name prefixed to
/// messages), print the report (and the deep summary) to stdout, and
/// return the exit code.
pub fn run(prog: &str, args: impl IntoIterator<Item = String>) -> ExitCode {
    let usage_error = |msg: &str| {
        eprintln!("{prog}: {msg}\nusage: {prog} {USAGE}");
        ExitCode::from(2)
    };
    let fail = |msg: String| {
        eprintln!("{prog}: {msg}");
        ExitCode::from(2)
    };
    let mut deep_pass = false;
    let mut artifact_dirs: Vec<PathBuf> = Vec::new();
    let mut root_arg: Option<PathBuf> = None;
    let mut json = false;
    let mut callgraph_out: Option<PathBuf> = None;
    let mut write_baseline = false;

    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deep" => deep_pass = true,
            "--artifacts" => match args.next() {
                Some(dir) => artifact_dirs.push(PathBuf::from(dir)),
                None => return usage_error("--artifacts needs a directory"),
            },
            "--root" => match args.next() {
                Some(dir) => root_arg = Some(PathBuf::from(dir)),
                None => return usage_error("--root needs a path"),
            },
            "--callgraph-out" => match args.next() {
                Some(path) => {
                    deep_pass = true;
                    callgraph_out = Some(PathBuf::from(path));
                }
                None => return usage_error("--callgraph-out needs a path"),
            },
            "--write-baselines" => {
                deep_pass = true;
                write_baseline = true;
            }
            "--json" => json = true,
            "--help" | "-h" => {
                println!("usage: {prog} {USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage_error(&format!("unknown argument `{other}`")),
        }
    }

    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let Some(root) = root_arg.or_else(|| find_workspace_root(&cwd)) else {
        return fail("no workspace root found (run inside the repo or pass --root)".to_string());
    };

    let default_dir = root.join("artifacts");
    if artifact_dirs.is_empty() && !deep_pass && default_dir.is_dir() {
        artifact_dirs.push(default_dir);
    }

    let mut report = Report::default();
    for dir in &artifact_dirs {
        let dir = if dir.is_absolute() { dir.clone() } else { root.join(dir) };
        report.merge(run_artifacts(&root, &dir));
    }

    let mut deep_result = None;
    if deep_pass {
        // Regenerating: the old ratchets (and their findings) are moot.
        let opts = if write_baseline {
            DeepOptions::default()
        } else {
            match DeepOptions::load(&root) {
                Ok(opts) => opts,
                Err(e) => return fail(e),
            }
        };
        let mut result = deep::analyze_workspace(&root, &Config::default(), &opts);

        if write_baseline {
            let s = &result.summary;
            for (name, header, per_crate) in [
                ("panic-baseline.txt", reach::BASELINE_HEADER, &s.panic_per_crate),
                ("unused-baseline.txt", unused::BASELINE_HEADER, &s.unused_per_crate),
            ] {
                let path = root.join(name);
                if let Err(e) = std::fs::write(&path, reach::render_baseline(header, per_crate)) {
                    return fail(format!("cannot write {}: {e}", path.display()));
                }
                eprintln!("{prog}: wrote {}", path.display());
            }
            // The per-function warns exist to show the surface when no
            // ratchet is in force; having just committed the ratchets,
            // they would only be noise.
            let findings = result
                .report
                .findings
                .into_iter()
                .filter(|d| d.rule != reach::RULE && d.rule != unused::RULE)
                .collect();
            result.report = Report::from_findings(findings);
        }
        if let Some(out) = &callgraph_out {
            let out = if out.is_absolute() { out.clone() } else { root.join(out) };
            if let Err(e) = std::fs::write(&out, &result.callgraph_json) {
                return fail(format!("cannot write {}: {e}", out.display()));
            }
            eprintln!("{prog}: wrote {}", out.display());
        }
        report.merge(result.report.clone());
        deep_result = Some(result);
    }

    let summary = deep_result.as_ref().map(|d| &d.summary);
    if json {
        println!("{}", render_json(&report, summary));
    } else {
        print!("{}", render(&report, summary));
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The text the front end prints: the report, then the deep summary
/// line when the deep pass ran.
#[must_use]
pub fn render(report: &Report, deep: Option<&DeepSummary>) -> String {
    let mut out = report.render();
    if let Some(s) = deep {
        out.push_str(&format!(
            "smn-lint --deep: {} function(s), {} edge(s), {} unresolved, {} external; \
             {} det endpoint(s); {} panic-reachable public API(s); {} unused public API(s)\n",
            s.functions,
            s.edges,
            s.unresolved,
            s.external,
            s.det_endpoints,
            s.panic_per_crate.values().sum::<usize>(),
            s.unused_public.len()
        ));
    }
    out
}

/// The JSON the front end prints under `--json`: the report alone, or the
/// report and the deep summary when the deep pass ran.
#[must_use]
pub fn render_json(report: &Report, deep: Option<&DeepSummary>) -> String {
    match deep {
        Some(s) => {
            let root = Value::Map(vec![
                ("report".to_string(), report.to_value()),
                ("deep".to_string(), s.to_value()),
            ]);
            serde_json::to_string_pretty(&root).unwrap_or_else(|e| format!("{{\"error\":\"{e}\"}}"))
        }
        None => report.to_json(),
    }
}
