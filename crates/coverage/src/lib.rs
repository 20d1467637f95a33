//! smn-coverage: fault-lattice coverage measurement and coverage-guided
//! campaign generation.
//!
//! The fixed 560-fault campaign replays the paper's taxonomy round-robin,
//! which stresses the incident router but leaves most of the *scenario
//! space* untouched: no control-plane kinds, no topology loci, one
//! degradation rung. This crate makes that space a typed object — the
//! [`FaultLattice`] over `FaultKind × LayerId × locus bucket × rung` —
//! and measures campaigns against it:
//!
//! * [`FaultLattice::build`] enumerates the cells *reachable* on a given
//!   deployment + bound layer stack (most of the raw product is not).
//! * [`replay::replay_campaign`] replays a campaign through the real
//!   controller and records the cells it *exercised*, read back from the
//!   smn-obs audit trail — specs get no credit for scenarios the run
//!   never produced.
//! * [`generate::generate_covering_campaign`] searches greedily for a
//!   campaign covering every reachable cell, deterministic per seed.
//! * [`CoverageReport`] joins the two into the `coverage-report` artifact
//!   smn-lint validates and CI gates on (≥80% of the reachable lattice).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod generate;
pub mod lattice;
pub mod map;
pub mod replay;

pub use generate::{generate_covering_campaign, GeneratedCampaign, GeneratorConfig};
pub use lattice::{
    kind_index, kind_name, layer_of_target, reachable_rungs, FaultLattice, LatticeCell,
    LocusBucket, Rung, TopologyLoci, LOCUS_KINDS,
};
pub use map::{CellStatus, CoverageMap, CoverageReport, ReportCell};
pub use replay::{
    campaign_lake_profile, exercised_locus, replay_campaign, ReplayConfig, ReplayOutcome,
};
