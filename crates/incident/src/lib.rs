//! # smn-incident
//!
//! Revelio-style incident simulation for the SMN reproduction (§5 of the
//! paper): a Reddit-like microservice deployment owned by eight teams
//! ([`app`]), a fault taxonomy and 560-fault injection campaign ([`faults`]),
//! propagation + noisy observation ([`sim`]), telemetry materialization
//! ([`monitoring`]), feature extraction in three views ([`features`]), the
//! centralized CLTO router and distributed Scouts-style baseline
//! ([`routing`]), and the end-to-end evaluation harness ([`eval`]) that
//! regenerates the paper's 22 % / 45 % / 78 % comparison.
//!
//! ```no_run
//! use smn_incident::eval::{evaluate, EvalConfig};
//!
//! let result = evaluate(&EvalConfig::default());
//! assert!(result.explainability_accuracy > result.scouts_accuracy);
//! println!("{}", result.render());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod app;
pub mod eval;
pub mod faults;
pub mod features;
pub mod monitoring;
pub mod routing;
pub mod sim;
pub mod stack;

pub use app::{RedditDeployment, TEAMS};
pub use eval::{evaluate, EvalConfig, EvalResult};
pub use faults::{CampaignConfig, FaultKind, FaultSpec};
pub use sim::{observe, IncidentObservation, SimConfig};
pub use stack::DeploymentStack;
