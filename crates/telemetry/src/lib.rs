//! # smn-telemetry
//!
//! Telemetry substrate for the SMN reproduction: the record vocabulary of
//! the Cross-Layer Data Store ([`record`]), simulated time and five-minute
//! epochs ([`time`]), a deterministic synthetic WAN traffic model with
//! hot-pair skew, seasonality, spikes, and stability classes ([`traffic`]),
//! time-series summaries for time-based coarsening ([`series`]), honest
//! byte-level log-volume accounting ([`sizing`]), typed per-tick deltas
//! for the streaming ingest path ([`delta`]), and deterministic chaos
//! injection for degraded-mode testing ([`chaos`]).
//!
//! ```
//! use smn_telemetry::time::Ts;
//! use smn_telemetry::traffic::{TrafficConfig, TrafficModel};
//! use smn_topology::gen::reference_wan;
//!
//! let wan = reference_wan();
//! let model = TrafficModel::new(&wan, TrafficConfig::default());
//! let log = model.generate(Ts(0), 12); // one hour of 5-minute epochs
//! assert_eq!(log.len(), 12 * model.pairs().len());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod chaos;
pub mod delta;
pub mod det;
pub mod record;
pub mod series;
pub mod sizing;
pub mod time;
pub mod traffic;

pub use record::{
    Alert, BandwidthRecord, HealthSample, IncidentRecord, LogEvent, ProbeResult, Severity,
};
pub use time::Ts;
