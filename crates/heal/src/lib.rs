//! # smn-heal
//!
//! Closed-loop self-healing for the SMN reproduction: the remediation
//! engine that turns a *diagnosed* incident (the controller's
//! `Explainability::best_team` routing decision plus the fault's
//! layer-stack coordinates) into a typed [`RemediationAction`], executes
//! it against the incident simulator, verifies recovery through the same
//! noisy probes the controller consumes ([`smn_incident::monitoring`]),
//! and rolls back to the pre-action network checkpoint when the action
//! regressed the incident or missed its deadline.
//!
//! The paper's controller stops at routing incidents to teams; this crate
//! closes the remaining loop (diagnose → remediate → verify), following
//! the self-healing SDN literature. Three remediation families map onto
//! the three stack layers:
//!
//! - **L1** — retune a flapping wavelength one modulation step down
//!   (reach-stressed modulation is the dominant flap cause),
//! - **L3** — drain a lossy WAN link onto coarse-conformant alternate
//!   paths derived from [`smn_te::restrict`],
//! - **L7** — restart the diagnosed replica in the simulated deployment.
//!
//! Every plan / execute / verify / rollback step is recorded in the
//! [`smn_obs`] audit trail and span tree, and the whole engine is
//! deterministic in `(campaign seed, heal seed)` — the MTTR comparison in
//! `bench/bin/self_healing` replays bit-identically.
//!
//! ```
//! use smn_heal::{HealConfig, Healer};
//!
//! let healer = Healer::new(HealConfig::default());
//! assert!(healer.is_enabled());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

pub mod action;
pub mod engine;
pub mod plan;
pub mod verify;

pub use action::{PlannedAction, RemediationAction, RemediationPlan};
pub use engine::{
    HealCheckpoint, HealConfig, HealCounters, HealWorld, Healer, NetworkState, PendingRemediation,
    RemediationPhase, RemediationRecord, RetuneRecord,
};
pub use plan::{plan_action, Diagnosis};
pub use verify::{remediated_fault, route_to_team_mttr, verify_recovery, VerifyOutcome};
