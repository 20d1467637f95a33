//! # smn-ml
//!
//! A small, from-scratch ML stack for the SMN reproduction: CART decision
//! trees ([`tree`]), Random Forests with bagging and feature subsampling
//! ([`forest`]), datasets with stratified and group-wise (leave-root-cause-
//! out) splits ([`dataset`]), and classification metrics ([`metrics`]).
//!
//! §5 of the paper trains "a Random Forest Classifier to predict the correct
//! team label for a given incident"; this crate is that classifier plus the
//! evaluation protocol around it.
//!
//! ```
//! use smn_ml::dataset::Dataset;
//! use smn_ml::forest::{ForestConfig, RandomForest};
//!
//! let mut d = Dataset::new(2, vec!["x".into()]);
//! for i in 0..20 {
//!     d.push(vec![i as f64], (i >= 10) as usize);
//! }
//! let forest = RandomForest::fit(&d, &ForestConfig { n_trees: 5, ..Default::default() });
//! assert_eq!(forest.predict(&[0.0]), 0);
//! assert_eq!(forest.predict(&[19.0]), 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod dataset;
pub mod forest;
pub mod importance;
pub mod metrics;
pub mod tree;

pub use dataset::Dataset;
pub use forest::{ForestConfig, RandomForest};
pub use metrics::{accuracy, ConfusionMatrix};
pub use tree::{DecisionTree, TreeConfig};
