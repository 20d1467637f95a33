//! The `smn-lint` binary: CI gate and developer tool.
//!
//! ```text
//! smn-lint [--workspace] [--artifacts DIR]... [--deep] [--root PATH] [--json]
//!          [--callgraph-out PATH] [--write-baselines]
//! ```
//!
//! With no engine flag, runs the source engine plus the artifact engine
//! over `artifacts/` when that directory exists. The arguments, the
//! engines and the exit codes are [`smn_lint::cli`]'s.

use std::process::ExitCode;

use smn_lint::cli::{self, Defaults};

fn main() -> ExitCode {
    cli::run("smn-lint", std::env::args().skip(1), Defaults::Unasked)
}
