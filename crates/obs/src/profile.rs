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
//! on a scoped thread and one on the caller (both on the caller, one after
//! the other, when the system refuses the thread), and records each as a
//! child phase of the open path. A branch may split its time into named
//! [`Laps`], each another child phase. No phase opens inside a branch:
//! every child span is emitted on the caller after the join, the first
//! branch's laps then the second's, so the trace's span tree and event
//! order are the same as if the laps had run one after the other. Only
//! the wall rows tell them apart: the branches overlap, so their totals
//! no longer sum to the parent's.
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

use parking_lot::Mutex;

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
                #[allow(clippy::cast_precision_loss, reason = "wall totals stay far below 2^52 ns")]
                let total_ms = t.total_ns as f64 / NS_PER_MS;
                #[allow(clippy::cast_precision_loss, reason = "counts stay far below 2^52")]
                let mean_ms = if t.count == 0 { 0.0 } else { total_ms / t.count as f64 };
                #[allow(clippy::cast_precision_loss, reason = "wall totals stay far below 2^52 ns")]
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
    /// both results. A panic in either branch resumes on the caller. When
    /// the thread cannot be spawned, `fa` runs on the caller after `fb`,
    /// with the same laps, trace and results, so a fork never fails.
    ///
    /// Each branch runs as one lap under its name until it calls
    /// [`Laps::lap`], which starts the next lap under another name. Every
    /// lap is a child phase of the open path: after the join the caller
    /// opens and closes each of `fa`'s laps' spans, then each of `fb`'s,
    /// and records each lap's wall time under `<open path>;<name>`. So a
    /// fork leaves the same trace as its laps run one after the other.
    /// A branch must not record into this handle (no phase, span, event
    /// or audit): the two branches' records would interleave in a
    /// different order on every run. A disabled handle records nothing
    /// and reads no clock.
    pub fn fork<'n, A: Send, B>(
        &self,
        (name_a, fa): (&'n str, impl FnOnce(&mut Laps<'n>) -> A + Send),
        (name_b, fb): (&'n str, impl FnOnce(&mut Laps<'n>) -> B),
    ) -> (A, B) {
        let start = self.stopwatch();
        // `fa` waits in the slot for the one thread that takes it: the
        // spawned one, or the caller when the spawn is refused.
        let slot = Mutex::new(Some(fa));
        let run_a = |start| {
            let fa = slot.lock().take()?;
            let mut laps = Laps { start, name: name_a, done: Vec::new() };
            Some((fa(&mut laps), laps.finish()))
        };
        let (a, (b, b_laps)) = std::thread::scope(|s| {
            let spawned = spawn_scoped(s, || run_a(start));
            let mut laps = Laps { start, name: name_b, done: Vec::new() };
            let b = (fb(&mut laps), laps.finish());
            // A join error is a panic in `fa`: resume it on the caller.
            let a = spawned.map(|a| a.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            // Refused, `fa` runs here, its laps timed from its own start.
            (a.unwrap_or_else(|_| run_a(self.stopwatch())), b)
        });
        // `run_a` finds the slot empty only once `fa` is taken, and one
        // call takes it: the spawned thread's, or the caller's after a
        // refused spawn. So `a` holds `fa`'s result.
        let Some((a, a_laps)) = a else {
            std::panic::resume_unwind(Box::new("a fork branch was taken and never run"))
        };
        for laps in [a_laps, b_laps] {
            let mut from = 0;
            for (name, end) in laps {
                let _span = self.span(name);
                if let Some(end) = end {
                    let mut p = self.profile.lock();
                    let path = p.push(name);
                    p.pop();
                    p.record(&path, end.saturating_sub(from));
                    from = end;
                }
            }
        }
        (a, b)
    }

    /// The profiler's one wall-clock read, skipped on a disabled handle.
    #[expect(clippy::disallowed_methods, reason = "totals never enter deterministic exports")]
    fn stopwatch(&self) -> Option<Instant> {
        self.is_enabled().then(Instant::now)
    }
}

#[cfg(test)]
thread_local! {
    /// Set by a test to make [`spawn_scoped`] refuse on this thread, so
    /// that a fork takes its caller path.
    static REFUSE_SPAWN: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Spawn `f` on a thread of scope `s`, or say why the system refused.
fn spawn_scoped<'scope, T: Send + 'scope>(
    s: &'scope std::thread::Scope<'scope, '_>,
    f: impl FnOnce() -> T + Send + 'scope,
) -> std::io::Result<std::thread::ScopedJoinHandle<'scope, T>> {
    #[cfg(test)]
    if REFUSE_SPAWN.get() {
        return Err(std::io::Error::other("spawn refused by the test"));
    }
    std::thread::Builder::new().spawn_scoped(s, f)
}

/// Wall nanoseconds since `start`, saturating.
fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The laps of one [`Obs::fork`] branch. The branch runs under its fork
/// name until [`Laps::lap`] starts a lap under another. Lapping reads the
/// clock (on an enabled handle) and records nothing into the handle: the
/// caller records every lap after the join.
pub struct Laps<'n> {
    /// The fork's clock reading; `None` on a disabled handle.
    start: Option<Instant>,
    /// The running lap's name.
    name: &'n str,
    /// The finished laps, each with its end in wall nanoseconds since
    /// `start`.
    done: Vec<(&'n str, Option<u64>)>,
}

impl<'n> Laps<'n> {
    /// End the running lap and start one named `name`.
    pub fn lap(&mut self, name: &'n str) {
        self.done.push((self.name, self.start.map(elapsed_ns)));
        self.name = name;
    }

    /// End the running lap; every lap in order.
    fn finish(mut self) -> Vec<(&'n str, Option<u64>)> {
        let last = self.name;
        self.lap(last);
        self.done
    }
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
    /// makes one: the second branch laps into `compare`.
    fn forked_run() -> Arc<Obs> {
        let obs = Obs::enabled(crate::clock::SimClock::new());
        {
            let _outer = obs.phase("stream/reconcile");
            let (a, b) = obs.fork(
                ("oracle/a", |_| 2 + 2),
                ("oracle/b", |laps| {
                    laps.lap("compare");
                    "b"
                }),
            );
            assert_eq!((a, b), (4, "b"));
            let _after = obs.phase("after");
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
                "stream/reconcile;after",
                "stream/reconcile;compare",
                "stream/reconcile;oracle/a",
                "stream/reconcile;oracle/b"
            ]
        );
        assert!(stats.iter().all(|s| s.count == 1));
        // Enter and exit of `oracle/a`, then of `oracle/b` and of its lap
        // `compare`, all children of the open phase, before the phase
        // that follows the fork.
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
                ("after", EventKind::Enter),
                ("after", EventKind::Exit),
                ("stream/reconcile", EventKind::Exit),
            ]
        );
        for lap in [1, 3, 5] {
            assert_eq!(events[lap].parent, events[0].span);
        }
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
        let (a, b) = obs.fork(
            ("a", |laps| {
                laps.lap("a2");
                vec![1u8]
            }),
            ("b", |_| 7u64),
        );
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
            obs.fork(("a", |_| -> u8 { panic!("spawned branch") }), ("b", |_| 1u8));
        });
        assert_eq!(spawned, "spawned branch");
        let caller = panic_message(|| {
            obs.fork(("a", |_| 1u8), ("b", |_| -> u8 { panic!("caller branch") }));
        });
        assert_eq!(caller, "caller branch");
    }

    /// `f`, run with every spawn on this thread refused.
    fn refused<T>(f: impl FnOnce() -> T) -> T {
        REFUSE_SPAWN.set(true);
        let out = f();
        REFUSE_SPAWN.set(false);
        out
    }

    /// A refused spawn runs the first branch on the caller, after the
    /// second, and the fork leaves the trace, metrics and profile rows of
    /// a spawned run; a panic there still reaches the caller.
    #[test]
    fn a_refused_spawn_runs_the_branch_on_the_caller_with_the_same_trace() {
        let (spawned, caller) = (forked_run(), refused(forked_run));
        assert!(!caller.trace_jsonl().is_empty());
        assert_eq!(spawned.trace_jsonl(), caller.trace_jsonl());
        assert_eq!(spawned.metrics_text(), caller.metrics_text());
        let rows = |obs: &Obs| {
            obs.wall_profile().into_iter().map(|s| (s.path, s.count)).collect::<Vec<_>>()
        };
        assert_eq!(rows(&spawned), rows(&caller));

        let obs = Obs::enabled(crate::clock::SimClock::new());
        let order = Mutex::new(Vec::new());
        let here = std::thread::current().id();
        let ran = |name| {
            order.lock().push(name);
            std::thread::current().id()
        };
        let (a, b) = refused(|| obs.fork(("a", |_| ran("a")), ("b", |_| ran("b"))));
        assert_eq!((a, b), (here, here));
        assert_eq!(*order.lock(), ["b", "a"]);
        let (a, _) = obs.fork(("a", |_| ran("a")), ("b", |_| ran("b")));
        assert_ne!(a, here, "an allowed spawn runs the branch on its own thread");
        let caller = panic_message(|| {
            refused(|| obs.fork(("a", |_| -> u8 { panic!("refused branch") }), ("b", |_| 1u8)));
        });
        assert_eq!(caller, "refused branch");
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
