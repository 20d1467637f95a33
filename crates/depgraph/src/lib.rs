//! # smn-depgraph
//!
//! Dependency-graph substrate for the SMN reproduction: fine-grained
//! component graphs ([`fine`]), Coarse Dependency Graphs at team granularity
//! ([`coarse`]), typed fine-graph churn deltas for the streaming path
//! ([`delta`]), incident syndromes and the paper's *symptom explainability*
//! metric ([`syndrome`]), and Graphviz export ([`dot`], Figure 3).
//!
//! ```
//! use smn_depgraph::coarse::CoarseDepGraph;
//! use smn_depgraph::syndrome::{Explainability, Syndrome};
//!
//! let mut cdg = CoarseDepGraph::new();
//! let app = cdg.add_team("app");
//! let net = cdg.add_team("network");
//! cdg.add_dependency(app, net);
//!
//! let ex = Explainability::new(&cdg);
//! // Both teams symptomatic: a network fault explains it best.
//! let observed = Syndrome(vec![1.0, 1.0]);
//! assert_eq!(ex.best_team(&observed), Some(net));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod coarse;
pub mod delta;
pub mod dot;
pub mod fine;
pub mod refine;
pub mod syndrome;

pub use coarse::CoarseDepGraph;
pub use fine::FineDepGraph;
pub use syndrome::{Explainability, Syndrome};
