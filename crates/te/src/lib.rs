//! # smn-te
//!
//! Traffic-engineering and capacity-planning substrate for the SMN
//! reproduction: demand matrices derived from (possibly coarsened)
//! bandwidth logs ([`demand`]), exact single-commodity max-flow
//! ([`maxflow`]), approximate path-based multicommodity TE with a
//! Garg–Könemann guarantee plus a fast min-max-utilization greedy
//! ([`mcf`]), and threshold-driven capacity planning with fiber awareness
//! ([`capacity`]).
//!
//! All solvers run unchanged on fine (datacenter) and coarse (supernode)
//! graphs, which is how the §4 coarsening experiments compare optimality
//! and runtime across granularities.
//!
//! ```
//! use smn_te::demand::DemandMatrix;
//! use smn_te::mcf::{greedy_min_max_utilization, TeConfig};
//! use smn_topology::gen::reference_wan;
//!
//! let wan = reference_wan();
//! let src = wan.dc_by_name("us-e1").unwrap();
//! let dst = wan.dc_by_name("us-w2").unwrap();
//! let demand = DemandMatrix::from_triples([(src, dst, 120.0)]);
//! let sol = greedy_min_max_utilization(
//!     &wan.graph,
//!     |_, e| if e.payload.up { e.payload.capacity_gbps } else { 0.0 },
//!     &demand,
//!     &TeConfig::default(),
//! );
//! assert_eq!(sol.routed_gbps, 120.0);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

pub mod capacity;
pub mod demand;
pub mod maxflow;
pub mod mcf;
pub mod restrict;
pub mod srlg;

pub use capacity::{CapacityPlan, CapacityPlanner, UpgradePolicy};
pub use demand::{Commodity, DemandMatrix};
pub use mcf::{
    greedy_min_max_utilization, max_multicommodity_flow, max_multicommodity_flow_with_paths,
    PathSetCountMismatch, TeConfig, TeSolution,
};
pub use restrict::coarse_restricted_paths;
