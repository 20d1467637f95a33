//! Wall-time self-profiler: hierarchical phase accumulation keyed by
//! span-tree path.
//!
//! [`crate::Obs::phase`] opens a [`PhaseGuard`] — an RAII guard that (a)
//! opens a regular sim-time trace span under the same name, so wall-time
//! profiles and deterministic traces share one tree, and (b) measures the
//! guarded region's wall time, folding it into a per-path accumulator on
//! drop. Paths are the `;`-joined stack of open phase names (the folded-
//! stack convention flamegraph tooling expects), so `te/gk;gk/pack` is
//! the `gk/pack` phase observed inside `te/gk`.
//!
//! **Determinism discipline.** This is the *only* module in `smn-obs`
//! that touches the wall clock, and the wall readings never enter the
//! trace, metrics, or audit exports — those stay byte-identical across
//! runs. Wall totals live in their own registry, exported only through
//! [`crate::Obs::wall_profile`], and the `BenchReport` consumers treat
//! them as trend data, never as gated values. The accumulator itself
//! ([`crate::Obs::record_phase_ns`]) is pure, so tests feed it synthetic
//! durations deterministically.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::{Obs, Span};

/// Separator between nested phase names in an accumulated path.
pub const PATH_SEP: char = ';';

/// Accumulated wall totals for one span-tree path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PhaseTotal {
    /// Number of completed guards on this path.
    pub count: u64,
    /// Total wall nanoseconds across all of them.
    pub total_ns: u64,
    /// Worst single observation in nanoseconds.
    pub max_ns: u64,
}

/// One exported row of the wall profile (milliseconds, ready for a
/// `BenchReport` phase entry).
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseStat {
    /// `;`-joined span-tree path.
    pub path: String,
    /// Completed guard count.
    pub count: u64,
    /// Total wall milliseconds.
    pub total_ms: f64,
    /// Mean wall milliseconds per guard.
    pub mean_ms: f64,
    /// Worst single guard in milliseconds.
    pub worst_ms: f64,
}

/// Profiler state behind the [`Obs`] handle: the open-phase stack plus
/// the per-path totals. `BTreeMap` keeps every export path-sorted.
#[derive(Debug, Default)]
pub struct ProfileState {
    stack: Vec<String>,
    totals: BTreeMap<String, PhaseTotal>,
}

impl ProfileState {
    /// Push `name` onto the open-phase stack and return the joined path.
    pub fn push(&mut self, name: &str) -> String {
        self.stack.push(name.to_string());
        self.stack.join(&PATH_SEP.to_string())
    }

    /// Pop the innermost open phase.
    pub fn pop(&mut self) {
        self.stack.pop();
    }

    /// Fold one observation into the totals.
    pub fn record(&mut self, path: &str, ns: u64) {
        let t = self.totals.entry(path.to_string()).or_default();
        t.count += 1;
        t.total_ns = t.total_ns.saturating_add(ns);
        t.max_ns = t.max_ns.max(ns);
    }

    /// Export the totals as path-sorted [`PhaseStat`] rows.
    #[must_use]
    pub fn stats(&self) -> Vec<PhaseStat> {
        const NS_PER_MS: f64 = 1e6;
        self.totals
            .iter()
            .map(|(path, t)| {
                #[allow(clippy::cast_precision_loss)] // wall totals stay far below 2^52 ns
                let total_ms = t.total_ns as f64 / NS_PER_MS;
                #[allow(clippy::cast_precision_loss)]
                let mean_ms = if t.count == 0 { 0.0 } else { total_ms / t.count as f64 };
                #[allow(clippy::cast_precision_loss)]
                let worst_ms = t.max_ns as f64 / NS_PER_MS;
                PhaseStat { path: path.clone(), count: t.count, total_ms, mean_ms, worst_ms }
            })
            .collect()
    }
}

/// An open profiled phase: a trace span plus a wall-time measurement,
/// both closed on drop. From a disabled [`Obs`] handle the guard is a
/// no-op that never reads the clock.
pub struct PhaseGuard<'a> {
    span: Span<'a>,
    obs: Option<&'a Obs>,
    path: String,
    start: Option<Instant>,
}

/// Open a phase guard on `obs` (the body of [`Obs::phase`]).
pub(crate) fn begin<'a>(obs: &'a Obs, name: &str) -> PhaseGuard<'a> {
    let span = obs.span(name);
    if !obs.is_enabled() {
        return PhaseGuard { span, obs: None, path: String::new(), start: None };
    }
    let path = obs.profile.lock().push(name);
    // smn-lint: allow(determinism/wall-clock) -- the profiler's sole wall read; totals never enter deterministic exports
    let start = Instant::now();
    PhaseGuard { span, obs: Some(obs), path, start: Some(start) }
}

impl PhaseGuard<'_> {
    /// Attach a field to the underlying trace span's exit event.
    pub fn field(&mut self, key: &str, value: impl Into<crate::trace::FieldValue>) {
        self.span.field(key, value);
    }

    /// The wall-profile path this guard accumulates under (empty for
    /// guards from a disabled handle).
    #[must_use]
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let (Some(obs), Some(start)) = (self.obs, self.start.take()) {
            let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let mut p = obs.profile.lock();
            p.pop();
            ProfileState::record(&mut p, &self.path, ns);
        }
        // `self.span` drops afterwards, emitting the trace exit event.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pure_accumulator_aggregates_per_path() {
        let mut st = ProfileState::default();
        st.record("a", 1_000_000);
        st.record("a;b", 250_000);
        st.record("a", 3_000_000);
        let stats = st.stats();
        assert_eq!(stats.len(), 2);
        assert_eq!(stats[0].path, "a");
        assert_eq!(stats[0].count, 2);
        assert!((stats[0].total_ms - 4.0).abs() < 1e-9);
        assert!((stats[0].mean_ms - 2.0).abs() < 1e-9);
        assert!((stats[0].worst_ms - 3.0).abs() < 1e-9);
        assert_eq!(stats[1].path, "a;b");
    }

    #[test]
    fn stack_builds_folded_paths() {
        let mut st = ProfileState::default();
        assert_eq!(st.push("outer"), "outer");
        assert_eq!(st.push("inner"), "outer;inner");
        st.pop();
        assert_eq!(st.push("sibling"), "outer;sibling");
    }

    #[test]
    fn guards_nest_and_share_the_trace_tree() {
        let obs = Obs::enabled(crate::clock::SimClock::new());
        {
            let mut outer = obs.phase("perf/outer");
            assert_eq!(outer.path(), "perf/outer");
            {
                let inner = obs.phase("inner");
                assert_eq!(inner.path(), "perf/outer;inner");
            }
            outer.field("n", 1u64);
        }
        let stats = obs.wall_profile();
        let paths: Vec<&str> = stats.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(paths, ["perf/outer", "perf/outer;inner"]);
        assert!(stats.iter().all(|s| s.count == 1));
        // The same names appear as spans in the deterministic trace.
        let trace = obs.trace_jsonl();
        assert!(trace.contains("perf/outer"));
        assert!(trace.contains("\"inner\""));
    }

    #[test]
    fn disabled_handle_never_records() {
        let obs = Obs::disabled();
        {
            let g = obs.phase("nope");
            assert_eq!(g.path(), "");
        }
        assert!(obs.wall_profile().is_empty());
    }

    #[test]
    fn record_phase_ns_is_the_testable_front_door() {
        let obs = Obs::enabled(crate::clock::SimClock::new());
        obs.record_phase_ns("x;y", 2_000_000);
        obs.record_phase_ns("x;y", 4_000_000);
        let stats = obs.wall_profile();
        assert_eq!(stats.len(), 1);
        assert_eq!(stats[0].count, 2);
        assert!((stats[0].total_ms - 6.0).abs() < 1e-9);
    }
}
