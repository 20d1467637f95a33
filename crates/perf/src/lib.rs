//! # smn-perf — performance observability for Software Managed Networks
//!
//! This crate holds the perf-trajectory layer built on top of `smn-obs`:
//!
//! * [`report`] — the unified, versioned [`BenchReport`] schema that every
//!   `BENCH_*.json` snapshot in the workspace serializes to.
//! * [`record`] — the `smn perf record` suite: one deterministic pass over
//!   the pipeline (topology → telemetry → lake → coarsening → CDG → TE →
//!   incremental streaming) at a chosen scale point, recording work counts
//!   as metrics.
//! * [`diff`] — order-independent, byte-stable comparison of report sets.
//! * [`gate`] — the regression gate: exact equality on deterministic
//!   metrics.
//!
//! A CI gate must never flake on hardware variance, yet must catch real
//! regressions the instant they land, so the gate reads only
//! deterministic counts. Wall time is `periodbench`'s job: it times whole
//! control periods with alternating pairs and per-metric bounds, and
//! writes its per-phase profile into the same `BenchReport` schema.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod diff;
pub mod gate;
pub mod record;
pub mod report;

pub use diff::{diff_reports, render_diff, DiffRow};
pub use gate::{gate_reports, render_gate, Violation};
pub use record::{RecordConfig, Scale};
pub use report::{Attr, BenchReport, Metric, Phase};
