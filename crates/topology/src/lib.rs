//! # smn-topology
//!
//! Multi-layer network topology substrate for the Software Managed Networks
//! (SMN) reproduction: a from-scratch directed-graph library
//! ([`graph::DiGraph`]), a Layer-1 optical model with wavelength/modulation
//! tradeoffs ([`layer1`]), a Layer-3 wide-area topology of datacenters,
//! regions and inter-DC links ([`layer3`]), deterministic generators for
//! planetary-scale topologies ([`gen`]), and the unified [`stack`]: typed
//! cross-layer maps (`WavelengthId ↔ EdgeId ↔ ComponentId`) behind a common
//! [`stack::NetLayer`] trait, with generic downward fault propagation
//! (L1 flap → L3 link down → L7 symptom).
//!
//! The graph contraction primitive ([`graph::DiGraph::contract`]) is the
//! structural half of the paper's *topology-based coarsening* (§4): grouping
//! datacenters into region or continent supernodes.
//!
//! ```
//! use smn_topology::gen::reference_wan;
//!
//! let wan = reference_wan();
//! let regions = wan.contract_by_region();
//! assert!(regions.graph.node_count() < wan.dc_count());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]
#![cfg_attr(not(test), deny(clippy::unreachable, clippy::todo, clippy::unimplemented))]

pub mod artifact;
pub mod failures;
pub mod gen;
pub mod graph;
pub mod layer1;
pub mod layer3;
pub mod stack;

pub use graph::{DiGraph, EdgeId, NodeId, Path};
pub use layer3::Wan;
pub use stack::{
    ComponentId, CrossLayerMap, LayerId, LayerKey, LayerStack, NetLayer, ServiceLayer, StackFault,
    StackImpact,
};
