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
//! [`crate::Obs::fork`] runs two independent closures side by side, one
//! on a scoped thread and one on the caller, and records each as a child
//! phase of the open path. No phase opens inside a branch: both child
//! spans are emitted on the caller after the join, in argument order, so
//! the trace's span tree and event order are the same as if the branches
//! had run one after the other. Only the wall rows tell them apart: the
//! branches overlap, so their totals no longer sum to the parent's.
//!
//! **Determinism discipline.** This is the *only* module in `smn-obs`
//! that touches the wall clock, in one place (a private `stopwatch`
//! that both entry points call), and the wall readings never enter the
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

// smn-lint: allow(deep/determinism-taint) -- wall readings stay in the profile registry, never in deterministic exports
impl Obs {
    /// Open a profiled phase: a trace span plus a wall-time measurement
    /// accumulated under the `;`-joined path of open phases. No-op (no
    /// clock read) on a disabled handle.
    pub fn phase(&self, name: &str) -> PhaseGuard<'_> {
        let span = self.span(name);
        let Some(start) = self.stopwatch() else {
            return PhaseGuard { span, obs: None, path: String::new(), start: None };
        };
        let path = self.profile.lock().push(name);
        PhaseGuard { span, obs: Some(self), path, start: Some(start) }
    }

    /// Run `fa` on a scoped thread and `fb` on the caller, and return
    /// both results. A panic in either branch resumes on the caller.
    ///
    /// Each branch is a child phase of the open path: after the join the
    /// caller opens and closes `name_a`'s span, then `name_b`'s, and
    /// records each branch's wall time under `<open path>;<name>`. So a
    /// fork leaves the same trace as two phases run one after the other.
    /// A branch must not record into this handle (no phase, span, event
    /// or audit): the two branches' records would interleave in a
    /// different order on every run. A disabled handle records nothing
    /// and reads no clock.
    pub fn fork<A: Send, B>(
        &self,
        (name_a, fa): (&str, impl FnOnce() -> A + Send),
        (name_b, fb): (&str, impl FnOnce() -> B),
    ) -> (A, B) {
        let start = self.stopwatch();
        let lap = move || start.map(elapsed_ns);
        let ((a, a_ns), (b, b_ns)) = std::thread::scope(|s| {
            let spawned = s.spawn(move || (fa(), lap()));
            let b = (fb(), lap());
            // A join error is a panic in `fa`: resume it on the caller.
            (spawned.join().unwrap_or_else(|p| std::panic::resume_unwind(p)), b)
        });
        for (name, ns) in [(name_a, a_ns), (name_b, b_ns)] {
            let _span = self.span(name);
            if let Some(ns) = ns {
                let mut p = self.profile.lock();
                let path = p.push(name);
                p.pop();
                p.record(&path, ns);
            }
        }
        (a, b)
    }

    /// The profiler's one wall-clock read, skipped on a disabled handle.
    fn stopwatch(&self) -> Option<Instant> {
        // smn-lint: allow(determinism/wall-clock) -- the profiler's sole wall read; totals never enter deterministic exports
        self.is_enabled().then(Instant::now)
    }
}

/// Wall nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
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
            let ns = elapsed_ns(start);
            let mut p = obs.profile.lock();
            p.pop();
            ProfileState::record(&mut p, &self.path, ns);
        }
        // `self.span` drops afterwards, emitting the trace exit event.
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::{EventKind, TraceEvent};

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

    /// A traced run with a fork inside a phase, as `stream_reconcile`
    /// makes one.
    fn forked_run() -> Arc<Obs> {
        let obs = Obs::enabled(crate::clock::SimClock::new());
        {
            let _outer = obs.phase("stream/reconcile");
            let (a, b) = obs.fork(("oracle/a", || 2 + 2), ("oracle/b", || "b"));
            assert_eq!((a, b), (4, "b"));
            let _after = obs.phase("compare");
        }
        obs
    }

    #[test]
    fn fork_records_both_branches_as_children_in_argument_order() {
        let obs = forked_run();
        let stats = obs.wall_profile();
        let paths: Vec<&str> = stats.iter().map(|s| s.path.as_str()).collect();
        assert_eq!(
            paths,
            [
                "stream/reconcile",
                "stream/reconcile;compare",
                "stream/reconcile;oracle/a",
                "stream/reconcile;oracle/b"
            ]
        );
        assert!(stats.iter().all(|s| s.count == 1));
        // Enter and exit of `oracle/a`, then of `oracle/b`, both children
        // of the open phase, before the phase that follows the fork.
        let events: Vec<TraceEvent> =
            obs.trace_jsonl().lines().map(|l| TraceEvent::from_json_line(l).unwrap()).collect();
        let names: Vec<(&str, EventKind)> =
            events.iter().map(|e| (e.name.as_str(), e.kind)).collect();
        assert_eq!(
            names,
            [
                ("stream/reconcile", EventKind::Enter),
                ("oracle/a", EventKind::Enter),
                ("oracle/a", EventKind::Exit),
                ("oracle/b", EventKind::Enter),
                ("oracle/b", EventKind::Exit),
                ("compare", EventKind::Enter),
                ("compare", EventKind::Exit),
                ("stream/reconcile", EventKind::Exit),
            ]
        );
        assert_eq!(events[1].parent, events[0].span);
        assert_eq!(events[3].parent, events[0].span);
    }

    #[test]
    fn forked_runs_export_byte_identical_traces() {
        let (a, b) = (forked_run(), forked_run());
        assert!(!a.trace_jsonl().is_empty());
        assert_eq!(a.trace_jsonl(), b.trace_jsonl());
        assert_eq!(a.metrics_text(), b.metrics_text());
    }

    #[test]
    fn a_disabled_fork_runs_both_branches_and_records_nothing() {
        let obs = Obs::disabled();
        let (a, b) = obs.fork(("a", || vec![1u8]), ("b", || 7u64));
        assert_eq!((a, b), (vec![1u8], 7));
        assert!(obs.wall_profile().is_empty());
        assert!(obs.trace_jsonl().is_empty());
    }

    /// The panic message `f` unwinds with.
    fn panic_message(f: impl FnOnce()) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).unwrap_err();
        payload.downcast_ref::<&str>().map(ToString::to_string).unwrap_or_default()
    }

    #[test]
    fn a_panic_in_either_branch_reaches_the_caller() {
        let obs = Obs::enabled(crate::clock::SimClock::new());
        let spawned = panic_message(|| {
            obs.fork(("a", || -> u8 { panic!("spawned branch") }), ("b", || 1u8));
        });
        assert_eq!(spawned, "spawned branch");
        let caller = panic_message(|| {
            obs.fork(("a", || 1u8), ("b", || -> u8 { panic!("caller branch") }));
        });
        assert_eq!(caller, "caller branch");
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
