//! Wall-clock timing for the benchmark binaries.
//!
//! Benchmarks are the one place wall time is legitimate: everything under
//! simulation control runs on tick time. Routing every measurement through
//! this helper keeps the benches down to one audited wall-clock read
//! (`clippy.toml` disallows `Instant::now` everywhere; the obs profiler's
//! stopwatch is the only other read that expects the lint).

use std::time::{Duration, Instant};

/// Run `f`, returning its result and the elapsed wall-clock duration.
#[expect(clippy::disallowed_methods, reason = "bench binaries measure real runtime")]
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Run `f`, returning its result and the elapsed wall-clock milliseconds.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let (out, elapsed) = time(f);
    (out, elapsed.as_secs_f64() * 1000.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_result_and_nonnegative_duration() {
        let (v, d) = time(|| 2 + 2);
        assert_eq!(v, 4);
        assert!(d.as_secs_f64() >= 0.0);
    }

    #[test]
    fn time_ms_matches_time() {
        let ((), ms) = time_ms(|| std::thread::sleep(Duration::from_millis(2)));
        assert!(ms >= 1.0, "slept 2ms but measured {ms}ms");
    }
}
