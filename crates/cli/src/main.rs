//! `smn` — the operator CLI for the Software Managed Networks reproduction.
//!
//! ```console
//! smn topology [--seed N] [--full]     describe a generated planetary WAN
//! smn coarsen  [--days N]              coarsening size/fidelity summary
//! smn route    <fault-kind> <target>   inject one fault and route it
//! smn plan     [--weeks N]             run the capacity-planning pipeline
//! smn run      [--days N]              continuous operation (all loops)
//! smn cdg                              print the Reddit CDG as DOT
//! smn stream [--ticks N] [--json]      incremental streaming loop with
//!                                      reconciliation-proven byte-identity
//! smn heal [--faults N] [--json]       closed-loop remediation campaign
//! smn coverage [--json] [--seed N]     fault-lattice coverage gate
//! smn lint [--json] [--artifacts DIR]  static analysis (artifacts and the
//!          [--deep] ...                call-graph pass; smn-lint's arguments)
//! smn obs summarize <trace.jsonl>      summarize a deterministic trace
//! smn perf record [--scale S]          record the deterministic count suite
//! smn perf diff <base> <cur>           compare two report sets
//! smn perf gate [--baseline P]         fail on any changed count
//! ```
//!
//! Argument parsing is intentionally dependency-free (two flags per
//! subcommand); anything richer belongs in the example binaries.

use std::process::ExitCode;

mod commands;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let rest = &args[1..];
    let result = match cmd.as_str() {
        "topology" => commands::topology(rest),
        "coarsen" => commands::coarsen(rest),
        "route" => commands::route(rest),
        "plan" => commands::plan(rest),
        "run" => commands::run(rest),
        "cdg" => {
            commands::cdg();
            Ok(())
        }
        "stream" => commands::stream(rest),
        "heal" => commands::heal(rest),
        "coverage" => commands::coverage(rest),
        "lint" => return smn_lint::cli::run("smn lint", rest.iter().cloned()),
        "obs" => commands::obs(rest),
        "perf" => commands::perf(rest),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown subcommand '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
smn — Software Managed Networks via coarsening

USAGE:
  smn topology [--seed N] [--full]    describe a generated planetary WAN
  smn coarsen  [--days N]             coarsening size/fidelity summary
  smn route    <fault-kind> <target>  inject one fault and route it
                                      (kinds: hypervisor, crash, timeout,
                                       firewall, packetloss, disk, leak,
                                       config, cachestorm, backlog, flap,
                                       cert)
  smn plan     [--weeks N]            capacity planning from simulated logs
  smn run      [--days N]             continuous operation (all loops)
  smn cdg                             print the Reddit CDG as Graphviz DOT
  smn stream [--scale S] [--ticks N]  run the incremental streaming loop:
           [--seed N] [--json]         per-tick delta-apply vs full-recompute
           [--reconcile-every N]       wall time plus the reconciliation
           [--journal FILE]            verdict (exit 1 on divergence);
                                       --journal writes the delta-journal
                                       artifact smn-lint checks
  smn heal [--faults N] [--json]      run a closed-loop remediation campaign
           [--campaign FILE]          (plan/execute/verify/rollback per fault;
           [--storm-threshold PCT]     non-zero exit on a rollback storm)
  smn coverage [--seed N] [--json]    replay a campaign and gate on fault-
           [--threshold PCT]           lattice coverage (covered / uncovered /
           [--campaign FILE]           unreachable cells; non-zero exit below
           [--out FILE]                the threshold); writes the coverage-
           [--no-baseline]             report artifact with --out
  smn lint [--json] [--artifacts DIR] run smn-lint (the artifact engine;
           [--deep]                    --deep adds the call-graph pass;
           [--root PATH]               accepts every smn-lint argument)
           [--callgraph-out PATH]
           [--write-baselines]
  smn obs summarize <trace.jsonl>     summarize a deterministic trace
           [--metrics FILE]           (span tree, top-N slowest spans,
           [--top N] [--json]          metric snapshot; fails on parse errors)
  smn perf record [--scale S]         run the deterministic count suite at
           [--seed N] [--out FILE]     scale small|300|1000|3000 and write a
           [--revision R]              bench-report
  smn perf diff <base> <cur>          deterministic per-metric/per-phase diff
                                      of two report files or directories
  smn perf gate [--baseline PATH]     compare current reports against the
           [--current PATH]            committed baselines; exit 1 on any
                                      changed, missing or unbaselined metric";
