//! # smn-core
//!
//! Software Managed Networks via coarsening — the paper's contribution,
//! implemented: the coarsening abstraction with measurable action fidelity
//! ([`coarsen`], Figure 2), Coarse Bandwidth Logs in time-based,
//! topology-based, nested, and churn-adaptive variants ([`bwlogs`], §4),
//! Coarse Dependency Graphs framed as a coarsening ([`cdg`], §5), the SMN
//! controller wiring the CLDS + CDG + CLTO with control loops at minutes
//! and months timescales ([`controller`], Figure 1), AIOps primitives for
//! the CLTO ([`aiops`], §6), the four war stories as executable
//! scenarios ([`warstories`], §1), and the incremental streaming loop
//! with reconciliation-proven byte-identity ([`stream`]).
//!
//! ```
//! use smn_core::warstories;
//!
//! for report in warstories::run_all() {
//!     assert!(report.smn_correct, "{}", report.title);
//! }
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod aiops;
pub mod bwlogs;
pub mod cdg;
pub mod coarsen;
pub mod controller;
pub mod healing;
pub mod modelhist;
pub mod simulation;
pub mod stream;
pub mod warstories;

pub use coarsen::{action_fidelity, Coarsening, CoarseningReport};
pub use controller::{
    ControllerCheckpoint, ControllerConfig, Feedback, PlanningRow, PlanningWindow, SmnController,
};
pub use healing::HealingCheckpoint;
