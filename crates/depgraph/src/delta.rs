//! Typed fine-graph deltas — component/dependency churn for one tick.
//!
//! A [`GraphDelta`] records what changed in a fine-grained dependency
//! graph during one streaming tick: components that came up and runtime
//! dependencies that appeared. Deltas are *additive only* — the underlying
//! [`DiGraph`](smn_topology::graph::DiGraph) is append-only, and that
//! restriction is what makes incremental CDG maintenance order-identical
//! to a batch [`CoarseDepGraph::from_fine`](crate::coarse::CoarseDepGraph)
//! rebuild: contraction assigns team nodes in first-appearance order over
//! fine nodes and coarse edges in first-occurrence order over fine edges,
//! so appending churn at the end of the fine graph appends the induced
//! coarse churn at the end of the CDG.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use serde::{Deserialize, Serialize};

use crate::fine::{Component, DependencyKind, FineDepGraph};

/// A dependency to add, by component name (names are the stable identity
/// across the fine graph's lifetime; node ids are assigned on insert).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DependencyAdd {
    /// Depending component.
    pub src: String,
    /// Depended-on component.
    pub dst: String,
    /// Kind of runtime dependency.
    pub kind: DependencyKind,
}

/// Fine-graph churn observed during one streaming tick.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct GraphDelta {
    /// Tick index; deltas must be applied in strictly increasing order.
    pub tick: u64,
    /// Components that came up this tick, in arrival order.
    pub add_components: Vec<Component>,
    /// Dependencies that appeared this tick, in arrival order. Endpoints
    /// may be pre-existing components or components added this tick.
    pub add_dependencies: Vec<DependencyAdd>,
}

/// Why a delta could not be applied.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeltaError {
    /// A component in `add_components` already exists.
    DuplicateComponent(String),
    /// A dependency endpoint names a component the graph does not have.
    UnknownComponent(String),
    /// A component's owning team is missing from the coarse graph (the
    /// CDG being patched was not derived from the fine graph it is being
    /// reconciled against).
    UnknownTeam(String),
}

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeltaError::DuplicateComponent(name) => {
                write!(f, "delta re-adds existing component {name:?}")
            }
            DeltaError::UnknownComponent(name) => {
                write!(f, "delta references unknown component {name:?}")
            }
            DeltaError::UnknownTeam(name) => {
                write!(f, "delta references team {name:?} missing from the coarse graph")
            }
        }
    }
}

impl std::error::Error for DeltaError {}

impl GraphDelta {
    /// An empty delta for `tick`.
    #[must_use]
    pub fn new(tick: u64) -> Self {
        Self { tick, ..Self::default() }
    }

    /// True when the delta carries no churn.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.add_components.is_empty() && self.add_dependencies.is_empty()
    }

    /// Queue a component addition (builder-style).
    pub fn push_component(&mut self, c: Component) {
        self.add_components.push(c);
    }

    /// Queue a dependency addition by endpoint names (builder-style).
    pub fn push_dependency(
        &mut self,
        src: impl Into<String>,
        dst: impl Into<String>,
        kind: DependencyKind,
    ) {
        self.add_dependencies.push(DependencyAdd { src: src.into(), dst: dst.into(), kind });
    }

    /// Validate the delta against `fine` without mutating anything:
    /// components must be new, dependency endpoints must resolve (to an
    /// existing component or one added earlier in this delta).
    ///
    /// # Errors
    /// The first [`DeltaError`] found, in delta order.
    pub fn validate(&self, fine: &FineDepGraph) -> Result<(), DeltaError> {
        for c in &self.add_components {
            if fine.by_name(&c.name).is_some() {
                return Err(DeltaError::DuplicateComponent(c.name.clone()));
            }
        }
        let added = |name: &str| self.add_components.iter().any(|c| c.name == name);
        for d in &self.add_dependencies {
            for end in [&d.src, &d.dst] {
                if fine.by_name(end).is_none() && !added(end) {
                    return Err(DeltaError::UnknownComponent(end.clone()));
                }
            }
        }
        Ok(())
    }

    /// Apply the delta to a fine graph: components first (so same-tick
    /// dependencies can reference them), then dependencies, both in
    /// arrival order. Validates up front, so a failed apply leaves `fine`
    /// untouched.
    ///
    /// # Errors
    /// A [`DeltaError`] when validation fails; `fine` is unmodified.
    pub fn apply_to_fine(&self, fine: &mut FineDepGraph) -> Result<(), DeltaError> {
        self.validate(fine)?;
        for c in &self.add_components {
            fine.add_component(c.clone());
        }
        for d in &self.add_dependencies {
            // Validated above; a missing endpoint here would be a bug in
            // `validate`, so fall back to skipping rather than panicking.
            let (Some(src), Some(dst)) = (fine.by_name(&d.src), fine.by_name(&d.dst)) else {
                continue;
            };
            fine.add_dependency(src, dst, d.kind);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fine::Layer;

    fn comp(name: &str, team: &str) -> Component {
        Component {
            name: name.into(),
            service: name.into(),
            team: team.into(),
            layer: Layer::Application,
        }
    }

    fn base() -> FineDepGraph {
        let mut g = FineDepGraph::new();
        let a = g.add_component(comp("web-1", "app"));
        let b = g.add_component(comp("db-1", "storage"));
        g.add_dependency(a, b, DependencyKind::Call);
        g
    }

    #[test]
    fn apply_adds_components_and_dependencies() {
        let mut g = base();
        let mut d = GraphDelta::new(0);
        d.push_component(comp("cache-1", "platform"));
        d.push_dependency("web-1", "cache-1", DependencyKind::Call);
        d.push_dependency("cache-1", "db-1", DependencyKind::Call);
        assert!(!d.is_empty());
        d.apply_to_fine(&mut g).unwrap();
        assert_eq!(g.len(), 3);
        assert_eq!(g.graph.edge_count(), 3);
        assert_eq!(g.teams(), vec!["app", "storage", "platform"]);
    }

    #[test]
    fn duplicate_component_rejected_without_mutation() {
        let mut g = base();
        let mut d = GraphDelta::new(1);
        d.push_component(comp("web-1", "app"));
        let err = d.apply_to_fine(&mut g).unwrap_err();
        assert_eq!(err, DeltaError::DuplicateComponent("web-1".into()));
        assert_eq!(g.len(), 2, "failed apply leaves the graph untouched");
    }

    #[test]
    fn unknown_endpoint_rejected_without_mutation() {
        let mut g = base();
        let mut d = GraphDelta::new(1);
        d.push_component(comp("cache-1", "platform"));
        d.push_dependency("cache-1", "ghost-9", DependencyKind::Call);
        let err = d.apply_to_fine(&mut g).unwrap_err();
        assert_eq!(err, DeltaError::UnknownComponent("ghost-9".into()));
        assert_eq!(g.len(), 2);
        assert!(err.to_string().contains("ghost-9"));
    }
}
