//! The resilience policy for flaky lake access: [`RetryPolicy`]
//! (exponential backoff against transient [`LakeError::QueryFailed`]s)
//! and [`CircuitBreaker`] (fail fast once the lake looks down), composed
//! by [`ResilientAccess::query`]. Backoff is accounted in simulated
//! seconds rather than slept, so campaigns stay fast and deterministic.

use serde::{Deserialize, Serialize};
use smn_obs::Obs;

use crate::fault::LakeError;

/// Exponential-backoff retry policy for transient lake failures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry, in (simulated) seconds.
    pub base_backoff_secs: f64,
    /// Multiplier applied per subsequent retry.
    pub multiplier: f64,
    /// Cap on a single backoff interval.
    pub max_backoff_secs: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 4,
            base_backoff_secs: 0.5,
            multiplier: 2.0,
            max_backoff_secs: 30.0,
        }
    }
}

impl RetryPolicy {
    /// Backoff interval before retry number `retry` (0-based).
    #[must_use]
    pub fn backoff_secs(&self, retry: u32) -> f64 {
        (self.base_backoff_secs * self.multiplier.powi(retry as i32)).min(self.max_backoff_secs)
    }
}

/// Circuit-breaker state, counted in queries rather than wall-clock (the
/// simulation has no real time; "cooldown" elapses as callers keep asking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
enum BreakerState {
    /// Normal operation.
    Closed,
    /// Failing fast; `remaining` gated calls until half-open.
    Open {
        /// Gated calls left before a trial is allowed.
        remaining: u64,
    },
    /// One trial call in flight: success closes, failure re-opens.
    HalfOpen,
}

/// A consecutive-failure circuit breaker.
///
/// After `failure_threshold` consecutive failures the breaker opens and the
/// next `cooldown` calls fail fast with [`LakeError::CircuitOpen`]; then one
/// trial call is let through (half-open) and its outcome closes or re-opens
/// the circuit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CircuitBreaker {
    /// Consecutive failures that trip the breaker.
    pub failure_threshold: u32,
    /// Fast-failed calls before a half-open trial.
    pub cooldown: u64,
    consecutive_failures: u32,
    state: BreakerState,
    /// Times the breaker has tripped (observability).
    pub trips: u64,
}

impl Default for CircuitBreaker {
    fn default() -> Self {
        Self::new(3, 5)
    }
}

impl CircuitBreaker {
    /// Breaker tripping after `failure_threshold` consecutive failures,
    /// half-opening after `cooldown` fast-failed calls. A threshold of 0
    /// counts as 1: the first failure trips the breaker.
    #[must_use]
    pub fn new(failure_threshold: u32, cooldown: u64) -> Self {
        CircuitBreaker {
            failure_threshold: failure_threshold.max(1),
            cooldown,
            consecutive_failures: 0,
            state: BreakerState::Closed,
            trips: 0,
        }
    }

    /// Whether the circuit is currently open (failing fast).
    #[must_use]
    pub fn is_open(&self) -> bool {
        matches!(self.state, BreakerState::Open { .. })
    }

    /// Gate a call: `Ok` to proceed, `Err(CircuitOpen)` to fail fast.
    pub fn precheck(&mut self) -> Result<(), LakeError> {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => Ok(()),
            BreakerState::Open { remaining } => {
                if remaining == 0 {
                    self.state = BreakerState::HalfOpen;
                    Ok(())
                } else {
                    self.state = BreakerState::Open { remaining: remaining - 1 };
                    Err(LakeError::CircuitOpen { cooldown_remaining: remaining - 1 })
                }
            }
        }
    }

    /// Record a successful call.
    pub fn on_success(&mut self) {
        self.consecutive_failures = 0;
        self.state = BreakerState::Closed;
    }

    /// Record a failed call.
    pub fn on_failure(&mut self) {
        self.consecutive_failures += 1;
        let tripped_half_open = self.state == BreakerState::HalfOpen;
        if tripped_half_open || self.consecutive_failures >= self.failure_threshold {
            self.state = BreakerState::Open { remaining: self.cooldown };
            self.trips += 1;
            self.consecutive_failures = 0;
        }
    }
}

/// Retry + circuit breaker composed: the policy object callers hold per
/// lake dependency.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResilientAccess {
    /// Retry policy for transient failures.
    pub retry: RetryPolicy,
    /// Circuit breaker across operations.
    pub breaker: CircuitBreaker,
    /// Total simulated backoff accumulated, in seconds.
    pub total_backoff_secs: f64,
    /// Total retries performed.
    pub total_retries: u64,
}

impl ResilientAccess {
    /// Run `op` under the breaker and retry policy. `op` is called with the
    /// 0-based attempt number. Transient errors are retried with
    /// exponential backoff (accounted, not slept); persistent errors and
    /// exhausted retries propagate and count against the breaker.
    pub fn query<T>(
        &mut self,
        mut op: impl FnMut(u32) -> Result<T, LakeError>,
    ) -> Result<T, LakeError> {
        self.breaker.precheck()?;
        let mut attempt = 0;
        loop {
            match op(attempt) {
                Ok(v) => {
                    self.breaker.on_success();
                    return Ok(v);
                }
                Err(e) if e.is_transient() && attempt + 1 < self.retry.max_attempts => {
                    self.total_backoff_secs += self.retry.backoff_secs(attempt);
                    self.total_retries += 1;
                    attempt += 1;
                }
                Err(e) => {
                    self.breaker.on_failure();
                    return Err(e);
                }
            }
        }
    }

    /// Snapshot resilience state into observability gauges. The struct
    /// itself stays serializable (it is part of controller checkpoints), so
    /// it cannot hold an [`Obs`] handle — callers publish after querying.
    #[allow(clippy::cast_precision_loss, reason = "retry/trip counts stay far below 2^52")]
    pub fn record(&self, obs: &Obs) {
        if !obs.is_enabled() {
            return;
        }
        obs.gauge("lake_retries_total", self.total_retries as f64);
        obs.gauge("lake_backoff_secs_total", self.total_backoff_secs);
        obs.gauge("lake_breaker_trips_total", self.breaker.trips as f64);
        obs.gauge("lake_breaker_open", if self.breaker.is_open() { 1.0 } else { 0.0 });
    }
}

#[cfg(test)]
mod resilience_tests {
    use super::*;

    fn transient(q: u64) -> LakeError {
        LakeError::QueryFailed { dataset: "d".into(), query: q }
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let mut access = ResilientAccess::default();
        let result =
            access.query(
                |attempt| {
                    if attempt < 2 {
                        Err(transient(attempt as u64))
                    } else {
                        Ok(attempt)
                    }
                },
            );
        assert_eq!(result.unwrap(), 2);
        assert_eq!(access.total_retries, 2);
        // 0.5 + 1.0 simulated seconds of backoff.
        assert!((access.total_backoff_secs - 1.5).abs() < 1e-9);
        assert!(!access.breaker.is_open());
    }

    #[test]
    fn persistent_errors_are_not_retried() {
        let mut access = ResilientAccess::default();
        let mut calls = 0;
        let result: Result<(), _> = access.query(|_| {
            calls += 1;
            Err(LakeError::Unavailable {
                dataset: "d".into(),
                outage_start: smn_telemetry::time::Ts(0),
                outage_end: smn_telemetry::time::Ts(10),
            })
        });
        assert!(result.is_err());
        assert_eq!(calls, 1, "persistent errors must fail immediately");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy::default();
        assert!((p.backoff_secs(0) - 0.5).abs() < 1e-12);
        assert!((p.backoff_secs(1) - 1.0).abs() < 1e-12);
        assert!((p.backoff_secs(2) - 2.0).abs() < 1e-12);
        assert!((p.backoff_secs(20) - p.max_backoff_secs).abs() < 1e-12);
    }

    #[test]
    fn breaker_opens_fails_fast_then_recovers() {
        let mut access = ResilientAccess {
            retry: RetryPolicy { max_attempts: 1, ..Default::default() },
            breaker: CircuitBreaker::new(2, 3),
            ..Default::default()
        };
        // Two failed operations trip the breaker.
        for q in 0..2u64 {
            let _ = access.query::<()>(|_| Err(transient(q)));
        }
        assert!(access.breaker.is_open());
        assert_eq!(access.breaker.trips, 1);
        // Next 3 calls fail fast without invoking the op.
        for _ in 0..3 {
            let mut invoked = false;
            let err = access
                .query::<()>(|_| {
                    invoked = true;
                    Ok(())
                })
                .unwrap_err();
            assert!(matches!(err, LakeError::CircuitOpen { .. }));
            assert!(!invoked, "open breaker must not touch the lake");
        }
        // Cooldown elapsed: half-open trial goes through and closes.
        assert_eq!(access.query(|_| Ok(42)).unwrap(), 42);
        assert!(!access.breaker.is_open());
    }

    #[test]
    fn a_zero_threshold_breaker_trips_on_the_first_failure_as_one_does() {
        let (mut zero, mut one) = (CircuitBreaker::new(0, 2), CircuitBreaker::new(1, 2));
        assert_eq!(zero, one);
        for breaker in [&mut zero, &mut one] {
            assert!(!breaker.is_open());
            breaker.on_failure();
            assert!(breaker.is_open());
            assert_eq!(breaker.trips, 1);
        }
        assert_eq!(zero, one);
    }

    #[test]
    fn record_publishes_resilience_gauges() {
        let mut access = ResilientAccess::default();
        let result =
            access.query(
                |attempt| {
                    if attempt < 2 {
                        Err(transient(attempt as u64))
                    } else {
                        Ok(())
                    }
                },
            );
        assert!(result.is_ok());
        let obs = Obs::enabled(smn_obs::clock::SimClock::new());
        access.record(&obs);
        assert_eq!(obs.gauge_value("lake_retries_total"), Some(2.0));
        assert_eq!(obs.gauge_value("lake_breaker_open"), Some(0.0));
        assert!(obs.gauge_value("lake_backoff_secs_total").unwrap() > 0.0);
    }

    #[test]
    fn half_open_failure_reopens() {
        let mut access = ResilientAccess {
            retry: RetryPolicy { max_attempts: 1, ..Default::default() },
            breaker: CircuitBreaker::new(1, 1),
            ..Default::default()
        };
        let _ = access.query::<()>(|_| Err(transient(0)));
        assert!(access.breaker.is_open());
        // One fast-fail, then the half-open trial fails: re-open.
        let _ = access.query::<()>(|_| Ok(()));
        let _ = access.query::<()>(|_| Err(transient(1)));
        assert!(access.breaker.is_open());
        assert_eq!(access.breaker.trips, 2);
    }
}
