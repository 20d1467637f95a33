//! The `smn-lint` binary: CI gate and developer tool.
//!
//! ```text
//! smn-lint [--artifacts DIR]... [--deep] [--root PATH] [--json]
//!          [--callgraph-out PATH] [--write-baselines]
//! ```
//!
//! With no engine flag, runs the artifact engine over `artifacts/` when
//! that directory exists. The arguments, the engines and the exit codes
//! are [`smn_lint::cli`]'s.

use std::process::ExitCode;

fn main() -> ExitCode {
    smn_lint::cli::run("smn-lint", std::env::args().skip(1))
}
