//! # smn-datalake
//!
//! The Cross-Layer Cross-Team Data Store (CLDS) of the SMN (Figure 1):
//! a global catalog with uniform schemas ([`catalog`]), time-ordered
//! typed stores bundled behind locks ([`store`]), incident-aware
//! retention for the Network History store ([`retention`]),
//! retry/circuit-breaker resilience ([`access`]), deterministic fault
//! injection for degraded-mode testing ([`fault`]), and a denoising
//! ingestion pipeline ([`ingest`]).
//!
//! ```
//! use smn_datalake::store::Clds;
//!
//! let clds = Clds::new();
//! let catalog = clds.catalog.read();
//! // Every CLDS starts with the uniform-schema built-in datasets.
//! let bw = catalog.get("wan/bandwidth-logs").expect("built in");
//! assert_eq!(bw.team, "traffic-engineering");
//! assert!(catalog.get("no/such/dataset").is_none());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod access;
pub mod catalog;
pub mod fault;
pub mod ingest;
pub mod retention;
pub mod store;

pub use access::{CircuitBreaker, ResilientAccess, RetryPolicy};
pub use catalog::{Catalog, DataType, DatasetDescriptor};
pub use fault::{
    DatasetOutage, FaultProfile, FaultyStore, LakeError, Outage, DATASET_ALERTS, DATASET_PROBES,
};
pub use retention::{ProtectedWindow, RetentionPolicy};
pub use store::{Clds, SharedRange, TimeStore};
