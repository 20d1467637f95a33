//! Simulated time: timestamps, epochs, and calendar helpers.
//!
//! SMN telemetry is collected in five-minute epochs ("each row capturing the
//! demand between a pair of datacenters in a five-minute time window", §4).
//! All simulation time is seconds since an arbitrary epoch-zero; no wall
//! clock is ever consulted, which keeps every experiment deterministic.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

/// Seconds in a minute.
pub const MINUTE: u64 = 60;
/// Seconds in an hour.
pub const HOUR: u64 = 3600;
/// Seconds in a day.
pub const DAY: u64 = 86_400;
/// Seconds in a (7-day) week.
pub const WEEK: u64 = 7 * DAY;
/// Seconds in a simulated (365-day) year.
pub const YEAR: u64 = 365 * DAY;
/// The paper's bandwidth-log epoch: five minutes.
pub const EPOCH_SECS: u64 = 5 * MINUTE;

/// A simulated timestamp: seconds since simulation start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Ts(pub u64);

impl Ts {
    /// Timestamp at `days` whole days.
    #[must_use]
    pub fn from_days(days: u64) -> Ts {
        Ts(days * DAY)
    }

    /// The day number this timestamp falls on.
    #[must_use]
    pub fn day(self) -> u64 {
        self.0 / DAY
    }

    /// Seconds into the current day.
    #[must_use]
    pub fn second_of_day(self) -> u64 {
        self.0 % DAY
    }

    /// Hour-of-day as a fraction in `[0, 24)`.
    #[must_use]
    pub fn hour_of_day(self) -> f64 {
        self.second_of_day() as f64 / HOUR as f64
    }

    /// Day-of-week in `0..7` (day 0 is a Monday by convention).
    #[must_use]
    pub fn day_of_week(self) -> u64 {
        self.day() % 7
    }

    /// Whether this falls on a weekend (days 5 and 6 of the week).
    #[must_use]
    pub fn is_weekend(self) -> bool {
        self.day_of_week() >= 5
    }

    /// Day-of-year in `0..365`.
    #[must_use]
    pub fn day_of_year(self) -> u64 {
        self.day() % 365
    }

    /// The index of the five-minute epoch containing this timestamp.
    #[must_use]
    pub fn epoch(self) -> u64 {
        self.0 / EPOCH_SECS
    }

    /// Start of the epoch containing this timestamp.
    #[must_use]
    pub fn epoch_start(self) -> Ts {
        Ts(self.epoch() * EPOCH_SECS)
    }
}

impl Add<u64> for Ts {
    type Output = Ts;
    fn add(self, secs: u64) -> Ts {
        Ts(self.0 + secs)
    }
}

impl Sub<Ts> for Ts {
    type Output = u64;
    fn sub(self, other: Ts) -> u64 {
        self.0 - other.0
    }
}

impl fmt::Display for Ts {
    /// Renders as `dDDD hh:mm:ss` for readable logs.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.second_of_day();
        write!(f, "d{:03} {:02}:{:02}:{:02}", self.day(), s / HOUR, (s % HOUR) / MINUTE, s % MINUTE)
    }
}

/// Iterator over epoch-start timestamps.
pub fn epochs(start: Ts, count: usize) -> impl Iterator<Item = Ts> {
    let first = start.epoch_start();
    (0..count as u64).map(move |i| Ts(first.0 + i * EPOCH_SECS))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn calendar_decomposition() {
        let t = Ts(3 * DAY + 5 * HOUR + 30 * MINUTE);
        assert_eq!(t.day(), 3);
        assert_eq!(t.hour_of_day(), 5.5);
        assert_eq!(t.day_of_week(), 3);
        assert!(!t.is_weekend());
        assert!(Ts::from_days(6).is_weekend());
        assert_eq!(Ts::from_days(365).day_of_year(), 0);
    }

    #[test]
    fn epoch_indexing() {
        assert_eq!(Ts(0).epoch(), 0);
        assert_eq!(Ts(299).epoch(), 0);
        assert_eq!(Ts(300).epoch(), 1);
        assert_eq!(Ts(301).epoch_start(), Ts(300));
    }

    #[test]
    fn epoch_iterator_spacing() {
        let v: Vec<Ts> = epochs(Ts(450), 3).collect();
        assert_eq!(v, vec![Ts(300), Ts(600), Ts(900)]);
    }

    #[test]
    fn arithmetic_and_display() {
        let t = Ts(2 * HOUR) + 90;
        assert_eq!(t - Ts(2 * HOUR), 90);
        assert_eq!(format!("{}", Ts(DAY + HOUR + MINUTE + 1)), "d001 01:01:01");
    }
}
