//! The unified layer stack: one typed substrate for L1 → L3 → L7 coupling.
//!
//! The paper's controllers reason *across* layers — an optical span
//! confounds the L3 links riding it, and a dead L3 link surfaces as L7
//! service symptoms. Before this module the workspace encoded that
//! coupling three different ways (bare `usize` indices in
//! [`OpticalLayer`], a private `Layer` enum in `smn-depgraph`, and
//! hand-derived maps in `smn-te` / `smn-incident`). Here the coupling is
//! one abstraction:
//!
//! * [`LayerId`] names the three stack layers in propagation order.
//! * [`CrossLayerMap`] is a typed, bidirectional mapping between adjacent
//!   layers (`WavelengthId ↔ EdgeId`, `EdgeId ↔ ComponentId`).
//! * [`NetLayer`] is the common trait each registered layer implements,
//!   so generic code can size and name any layer uniformly.
//! * [`LayerStack`] registers the layers plus the maps and walks faults
//!   down ([`LayerStack::propagate_down`]) or dependencies up
//!   ([`LayerStack::propagate_up`]) generically.
//!
//! Everything is deterministic: impact sets come out sorted by id, and
//! the serialized form of a [`CrossLayerMap`] is the plain
//! seq-of-seqs-of-indices its predecessor (`Vec<Vec<usize>>`) used, so
//! existing topology artifacts keep their wire shape.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::fmt;
use std::marker::PhantomData;

use serde::{Deserialize, Error, Serialize, Value};

use crate::artifact::Violation;
use crate::graph::EdgeId;
use crate::layer1::{OpticalLayer, WavelengthId};
use crate::layer3::Wan;
use crate::path;

/// Identifier for an L7 service-graph component (an application component
/// in the incident app's dependency graph, by node index).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ComponentId(pub u32);

impl ComponentId {
    /// The component's position in the service graph's node table.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// The layers of the unified stack, in downward propagation order.
///
/// `L1` (optical wavelengths) confounds `L3` (WAN links) confounds `L7`
/// (application components). [`LayerId::rank`] encodes that order; the
/// artifact checker enforces it on serialized stacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LayerId {
    /// The optical substrate: fiber spans and wavelengths.
    L1,
    /// The logical WAN: datacenters and links.
    L3,
    /// The application service graph: components and dependencies.
    L7,
}

impl LayerId {
    /// All layers, topmost (physical) first — the propagation order.
    pub const ALL: [LayerId; 3] = [LayerId::L1, LayerId::L3, LayerId::L7];

    /// Position in the stack: 0 for L1, 1 for L3, 2 for L7.
    #[must_use]
    pub fn rank(self) -> u8 {
        match self {
            LayerId::L1 => 0,
            LayerId::L3 => 1,
            LayerId::L7 => 2,
        }
    }

    /// Canonical name, e.g. `"L1"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            LayerId::L1 => "L1",
            LayerId::L3 => "L3",
            LayerId::L7 => "L7",
        }
    }

    /// Parse a canonical name back into a layer.
    #[must_use]
    pub fn parse(name: &str) -> Option<LayerId> {
        LayerId::ALL.into_iter().find(|l| l.name() == name)
    }

    /// The next layer downward (toward the application), if any.
    #[must_use]
    pub fn below(self) -> Option<LayerId> {
        match self {
            LayerId::L1 => Some(LayerId::L3),
            LayerId::L3 => Some(LayerId::L7),
            LayerId::L7 => None,
        }
    }

    /// The next layer upward (toward the fiber), if any.
    #[must_use]
    pub fn above(self) -> Option<LayerId> {
        match self {
            LayerId::L1 => None,
            LayerId::L3 => Some(LayerId::L1),
            LayerId::L7 => Some(LayerId::L3),
        }
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl Serialize for LayerId {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for LayerId {
    fn from_value(v: &Value) -> Result<Self, Error> {
        match v {
            Value::Str(s) => {
                LayerId::parse(s).ok_or_else(|| Error::msg(format!("unknown layer {s:?}")))
            }
            other => Err(Error::msg(format!("expected layer name string, got {other:?}"))),
        }
    }
}

/// A typed element id within one stack layer.
///
/// Implemented by [`WavelengthId`] (L1), [`EdgeId`] (L3), and
/// [`ComponentId`] (L7). The trait ties each id type to its layer and to
/// the dense index the layer's tables use, which is what lets
/// [`CrossLayerMap`] stay a flat vector while its API stays typed.
pub trait LayerKey: Copy + Ord + fmt::Debug {
    /// The stack layer this id type belongs to.
    const LAYER: LayerId;

    /// Build the id from a dense table index.
    fn from_layer_index(index: usize) -> Self;

    /// The dense table index of this id.
    fn layer_index(self) -> usize;
}

impl LayerKey for WavelengthId {
    const LAYER: LayerId = LayerId::L1;

    fn from_layer_index(index: usize) -> Self {
        WavelengthId(index as u32)
    }

    fn layer_index(self) -> usize {
        self.0 as usize
    }
}

impl LayerKey for EdgeId {
    const LAYER: LayerId = LayerId::L3;

    fn from_layer_index(index: usize) -> Self {
        EdgeId(index as u32)
    }

    fn layer_index(self) -> usize {
        self.0 as usize
    }
}

impl LayerKey for ComponentId {
    const LAYER: LayerId = LayerId::L7;

    fn from_layer_index(index: usize) -> Self {
        ComponentId(index as u32)
    }

    fn layer_index(self) -> usize {
        self.0 as usize
    }
}

/// A typed, bidirectional mapping between an upper and a lower stack
/// layer: `down[u]` is the (ordered) list of lower-layer elements that
/// upper element `u` confounds.
///
/// The inverse direction ([`CrossLayerMap::up`]) is answered by a scan in
/// ascending upper-id order, so both directions are deterministic. The
/// serialized form is a plain sequence of sequences of indices — exactly
/// the wire shape of the untyped `Vec<Vec<usize>>` it replaces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrossLayerMap<U, D> {
    down: Vec<Vec<D>>,
    _upper: PhantomData<U>,
}

impl<U, D> Default for CrossLayerMap<U, D> {
    fn default() -> Self {
        Self { down: Vec::new(), _upper: PhantomData }
    }
}

impl<U: LayerKey, D: LayerKey> CrossLayerMap<U, D> {
    /// An empty mapping.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of upper-layer entries.
    #[must_use]
    pub fn upper_len(&self) -> usize {
        self.down.len()
    }

    /// Whether the map has no upper-layer entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.down.is_empty()
    }

    /// Append the next upper-layer element with its downward references,
    /// returning the typed id it was registered under.
    pub fn push(&mut self, downs: Vec<D>) -> U {
        let id = U::from_layer_index(self.down.len());
        self.down.push(downs);
        id
    }

    /// Downward lookup: the lower-layer elements confounded by `upper`.
    /// Unknown ids map to the empty set rather than panicking.
    pub fn down(&self, upper: U) -> &[D] {
        self.down.get(upper.layer_index()).map_or(&[], Vec::as_slice)
    }

    /// Upward lookup: every upper-layer element that confounds `lower`,
    /// in ascending id order.
    pub fn up(&self, lower: D) -> Vec<U> {
        self.down
            .iter()
            .enumerate()
            .filter(|(_, downs)| downs.contains(&lower))
            .map(|(i, _)| U::from_layer_index(i))
            .collect()
    }

    /// Whether `upper` maps down to `lower`.
    pub fn maps(&self, upper: U, lower: D) -> bool {
        self.down(upper).contains(&lower)
    }

    /// Iterate `(upper id, downward refs)` in ascending upper-id order.
    pub fn entries(&self) -> impl Iterator<Item = (U, &[D])> + '_ {
        self.down.iter().enumerate().map(|(i, d)| (U::from_layer_index(i), d.as_slice()))
    }
}

impl<U: LayerKey, D: LayerKey> Serialize for CrossLayerMap<U, D> {
    fn to_value(&self) -> Value {
        Value::Seq(
            self.down
                .iter()
                .map(|row| {
                    Value::Seq(row.iter().map(|d| Value::U64(d.layer_index() as u64)).collect())
                })
                .collect(),
        )
    }
}

impl<U: LayerKey, D: LayerKey> Deserialize for CrossLayerMap<U, D> {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Value::Seq(rows) = v else {
            return Err(Error::msg(format!("expected cross-layer seq, got {v:?}")));
        };
        let mut down = Vec::with_capacity(rows.len());
        for row in rows {
            let Value::Seq(items) = row else {
                return Err(Error::msg(format!("expected index seq, got {row:?}")));
            };
            let mut refs = Vec::with_capacity(items.len());
            for item in items {
                let idx = usize::from_value(item)?;
                refs.push(D::from_layer_index(idx));
            }
            down.push(refs);
        }
        Ok(Self { down, _upper: PhantomData })
    }
}

/// The common face of a registered stack layer: generic code can ask any
/// layer which [`LayerId`] it is, how many elements it has, and what an
/// element is called, without knowing the layer's concrete type.
pub trait NetLayer {
    /// Which stack layer this is.
    fn layer_id(&self) -> LayerId;

    /// Number of elements (wavelengths / links / components).
    fn element_count(&self) -> usize;

    /// Human-readable name of the element at `index`.
    fn element_name(&self, index: usize) -> String;
}

impl NetLayer for OpticalLayer {
    fn layer_id(&self) -> LayerId {
        LayerId::L1
    }

    fn element_count(&self) -> usize {
        self.wavelengths().len()
    }

    fn element_name(&self, index: usize) -> String {
        format!("w{index}")
    }
}

impl NetLayer for Wan {
    fn layer_id(&self) -> LayerId {
        LayerId::L3
    }

    fn element_count(&self) -> usize {
        self.graph.edge_count()
    }

    fn element_name(&self, index: usize) -> String {
        let eid = EdgeId(index as u32);
        if index < self.graph.edge_count() {
            let (src, dst) = self.graph.endpoints(eid);
            format!("{}->{}", self.graph.node(src).name, self.graph.node(dst).name)
        } else {
            format!("{eid}")
        }
    }
}

/// The L7 layer as the stack sees it: the ordered component names of the
/// incident app's service graph. The intra-layer dependency structure
/// stays in `smn-depgraph`; the stack only needs identity and naming to
/// resolve cross-layer references.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ServiceLayer {
    names: Vec<String>,
}

impl ServiceLayer {
    /// An empty service layer (a stack with no L7 registered yet).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from component names in service-graph node order.
    #[must_use]
    pub fn from_names(names: Vec<String>) -> Self {
        Self { names }
    }

    /// The component id for a name, if registered.
    #[must_use]
    pub fn id_of(&self, name: &str) -> Option<ComponentId> {
        self.names.iter().position(|n| n == name).map(|i| ComponentId(i as u32))
    }

    /// The name of a component id, if in range.
    pub fn name_of(&self, id: ComponentId) -> Option<&str> {
        self.names.get(id.index()).map(String::as_str)
    }
}

impl NetLayer for ServiceLayer {
    fn layer_id(&self) -> LayerId {
        LayerId::L7
    }

    fn element_count(&self) -> usize {
        self.names.len()
    }

    fn element_name(&self, index: usize) -> String {
        self.names.get(index).cloned().unwrap_or_else(|| format!("{}", ComponentId(index as u32)))
    }
}

/// A fault injected at one layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StackFault {
    /// An optical wavelength flaps (L1).
    WavelengthFlap(WavelengthId),
    /// A WAN link goes down (L3).
    LinkDown(EdgeId),
    /// An application component faults (L7).
    ComponentFault(ComponentId),
}

impl StackFault {
    /// The layer the fault originates at.
    #[must_use]
    pub fn origin(self) -> LayerId {
        match self {
            StackFault::WavelengthFlap(_) => LayerId::L1,
            StackFault::LinkDown(_) => LayerId::L3,
            StackFault::ComponentFault(_) => LayerId::L7,
        }
    }
}

/// The typed cross-layer blast set of a [`StackFault`]: per layer, the
/// elements the fault confounds, each sorted ascending and deduplicated.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StackImpact {
    /// Layer the originating fault was injected at.
    pub origin: Option<LayerId>,
    /// Affected L1 wavelengths.
    pub wavelengths: Vec<WavelengthId>,
    /// Affected L3 links.
    pub links: Vec<EdgeId>,
    /// Affected L7 components.
    pub components: Vec<ComponentId>,
}

impl StackImpact {
    /// Total number of affected elements across all layers.
    #[must_use]
    pub fn blast_size(&self) -> usize {
        self.wavelengths.len() + self.links.len() + self.components.len()
    }
}

/// The registered stack: the three layers plus the typed maps between
/// adjacent layers. The L1 → L3 map lives inside [`OpticalLayer`] (it is
/// the wavelength table's `carries` map); the L3 → L7 map is registered
/// here when an application binds its service graph.
#[derive(Debug, Clone)]
pub struct LayerStack {
    optical: OpticalLayer,
    wan: Wan,
    services: ServiceLayer,
    l3_l7: CrossLayerMap<EdgeId, ComponentId>,
}

impl LayerStack {
    /// Register the two network layers; the service layer starts empty.
    #[must_use]
    pub fn new(optical: OpticalLayer, wan: Wan) -> Self {
        Self { optical, wan, services: ServiceLayer::new(), l3_l7: CrossLayerMap::new() }
    }

    /// Register the L7 service layer and its L3 → L7 map.
    #[must_use]
    pub fn with_services(
        mut self,
        services: ServiceLayer,
        l3_l7: CrossLayerMap<EdgeId, ComponentId>,
    ) -> Self {
        self.services = services;
        self.l3_l7 = l3_l7;
        self
    }

    /// The optical (L1) layer.
    #[must_use]
    pub fn optical(&self) -> &OpticalLayer {
        &self.optical
    }

    /// The WAN (L3) layer.
    #[must_use]
    pub fn wan(&self) -> &Wan {
        &self.wan
    }

    /// The service (L7) layer.
    #[must_use]
    pub fn services(&self) -> &ServiceLayer {
        &self.services
    }

    /// The typed L1 → L3 map (wavelength → links).
    #[must_use]
    pub fn l1_l3(&self) -> &CrossLayerMap<WavelengthId, EdgeId> {
        self.optical.link_map()
    }

    /// The typed L3 → L7 map (link → components).
    #[must_use]
    pub fn l3_l7(&self) -> &CrossLayerMap<EdgeId, ComponentId> {
        &self.l3_l7
    }

    /// The registered layer behind the common [`NetLayer`] face.
    #[must_use]
    pub fn layer(&self, id: LayerId) -> &dyn NetLayer {
        match id {
            LayerId::L1 => &self.optical,
            LayerId::L3 => &self.wan,
            LayerId::L7 => &self.services,
        }
    }

    /// The stack's serialized shape: layer order, per-layer populations
    /// and both cross-layer maps — the `stack` artifact.
    #[must_use]
    pub fn shape(&self) -> StackShape {
        StackShape {
            kind: "stack".to_string(),
            layers: LayerId::ALL.iter().map(|l| l.name().to_string()).collect(),
            wavelength_count: self.optical.element_count(),
            link_count: self.wan.element_count(),
            component_count: self.services.element_count(),
            l1_l3: self.l1_l3().clone(),
            l3_l7: self.l3_l7.clone(),
        }
    }

    /// Walk a fault downward through the stack: L1 flap → L3 links down
    /// → L7 components symptomatic. Each affected set comes out sorted
    /// ascending and deduplicated, so the walk is deterministic.
    #[must_use]
    pub fn propagate_down(&self, fault: StackFault) -> StackImpact {
        let mut impact = StackImpact { origin: Some(fault.origin()), ..StackImpact::default() };
        match fault {
            StackFault::WavelengthFlap(w) => {
                impact.wavelengths.push(w);
                impact.links = sorted_dedup(self.l1_l3().down(w).to_vec());
                impact.components = self.components_for_links(&impact.links);
            }
            StackFault::LinkDown(e) => {
                impact.links.push(e);
                impact.components = self.components_for_links(&impact.links);
            }
            StackFault::ComponentFault(c) => {
                impact.components.push(c);
            }
        }
        impact
    }

    /// Walk upward: which links carry a component, and which wavelengths
    /// back those links. The inverse of [`LayerStack::propagate_down`].
    #[must_use]
    pub fn propagate_up(&self, fault: StackFault) -> StackImpact {
        let mut impact = StackImpact { origin: Some(fault.origin()), ..StackImpact::default() };
        match fault {
            StackFault::ComponentFault(c) => {
                impact.components.push(c);
                impact.links = sorted_dedup(self.l3_l7.up(c));
                impact.wavelengths = self.wavelengths_for_links(&impact.links);
            }
            StackFault::LinkDown(e) => {
                impact.links.push(e);
                impact.wavelengths = self.wavelengths_for_links(&impact.links);
            }
            StackFault::WavelengthFlap(w) => {
                impact.wavelengths.push(w);
            }
        }
        impact
    }

    fn components_for_links(&self, links: &[EdgeId]) -> Vec<ComponentId> {
        sorted_dedup(links.iter().flat_map(|&e| self.l3_l7.down(e).iter().copied()).collect())
    }

    fn wavelengths_for_links(&self, links: &[EdgeId]) -> Vec<WavelengthId> {
        sorted_dedup(links.iter().flat_map(|&e| self.l1_l3().up(e)).collect())
    }
}

/// The serialized shape of a [`LayerStack`]: what cross-layer consistency
/// depends on, without the layers' own payloads. This is the `stack`
/// artifact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StackShape {
    /// Artifact kind tag: always `"stack"`.
    pub kind: String,
    /// Registered layer names, in propagation order.
    pub layers: Vec<String>,
    /// L1 population.
    pub wavelength_count: usize,
    /// L3 population.
    pub link_count: usize,
    /// L7 population.
    pub component_count: usize,
    /// The L1 → L3 map, one row per wavelength.
    pub l1_l3: CrossLayerMap<WavelengthId, EdgeId>,
    /// The L3 → L7 map, one row per link.
    pub l3_l7: CrossLayerMap<EdgeId, ComponentId>,
}

impl StackShape {
    /// Layers appear in strict L1 → L3 → L7 order, and each cross-layer
    /// map has exactly one row per upper-layer element with every
    /// reference inside the lower layer.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        let expected = LayerId::ALL.map(LayerId::name);
        if self.layers != expected {
            out.push(Violation::new(
                "artifact/stack-layer-order",
                path!["layers"],
                format!("stack layers are {:?}, expected {expected:?}", self.layers),
                "the unified stack registers exactly L1, L3, L7 in descending-propagation order",
            ));
        }
        let links = ("link", self.link_count);
        let (wavelengths, components) =
            (("wavelength", self.wavelength_count), ("component", self.component_count));
        out.extend(map_violations("l1_l3", &self.l1_l3, wavelengths, links));
        out.extend(map_violations("l3_l7", &self.l3_l7, links, components));
        out
    }
}

/// One cross-layer map of a [`StackShape`] against its `(noun, count)`
/// upper and lower populations.
fn map_violations<U: LayerKey, D: LayerKey>(
    key: &str,
    map: &CrossLayerMap<U, D>,
    upper: (&str, usize),
    lower: (&str, usize),
) -> Vec<Violation> {
    let mut out = Vec::new();
    if map.upper_len() != upper.1 {
        out.push(Violation::new(
            "artifact/dangling-stack-ref",
            path![key],
            format!(
                "`{key}` has {} row(s) for {} {} element(s)",
                map.upper_len(),
                upper.1,
                upper.0
            ),
            "a cross-layer map carries exactly one row per upper-layer element",
        ));
    }
    for (u, downs) in map.entries() {
        for (j, d) in downs.iter().enumerate() {
            if d.layer_index() >= lower.1 {
                out.push(Violation::new(
                    "artifact/dangling-stack-ref",
                    path![key, u.layer_index(), j],
                    format!(
                        "{} {} maps to {} {}, but only {} exist",
                        upper.0,
                        u.layer_index(),
                        lower.0,
                        d.layer_index(),
                        lower.1
                    ),
                    "cross-layer references must resolve within the lower layer",
                ));
            }
        }
    }
    out
}

fn sorted_dedup<T: Ord>(mut v: Vec<T>) -> Vec<T> {
    v.sort_unstable();
    v.dedup();
    v
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer1::Modulation;
    use crate::layer3::{Continent, Datacenter, LinkAttrs, RegionId};

    fn small_stack() -> LayerStack {
        let mut optical = OpticalLayer::new();
        let s1 = optical.add_span("a-b", 500.0, false, 2);
        let s2 = optical.add_span("b-c", 400.0, true, 0);
        let mut wan = Wan::new();
        let a = wan.add_datacenter(Datacenter {
            name: "a".into(),
            continent: Continent::NorthAmerica,
            region: RegionId(0),
            lat: 0.0,
            lon: 0.0,
        });
        let b = wan.add_datacenter(Datacenter {
            name: "b".into(),
            continent: Continent::Europe,
            region: RegionId(1),
            lat: 0.0,
            lon: 10.0,
        });
        let e0 = wan.add_link(a, b, LinkAttrs::new(100.0, 500.0, false));
        let e1 = wan.add_link(b, a, LinkAttrs::new(100.0, 500.0, false));
        optical.light_wavelength(vec![s1, s2], Modulation::Qam8, vec![e0, e1]);
        optical.light_wavelength(vec![s1], Modulation::Qpsk, vec![e0]);
        let mut l3_l7 = CrossLayerMap::new();
        l3_l7.push(vec![ComponentId(1)]); // e0 -> wan component
        l3_l7.push(vec![ComponentId(1)]); // e1 -> wan component
        let services =
            ServiceLayer::from_names(vec!["frontend-1".to_string(), "wan-1".to_string()]);
        LayerStack::new(optical, wan).with_services(services, l3_l7)
    }

    #[test]
    fn cross_layer_map_round_trips_both_directions() {
        let mut map: CrossLayerMap<WavelengthId, EdgeId> = CrossLayerMap::new();
        let w0 = map.push(vec![EdgeId(7), EdgeId(9)]);
        let w1 = map.push(vec![EdgeId(7)]);
        assert_eq!(map.down(w0), &[EdgeId(7), EdgeId(9)]);
        assert_eq!(map.up(EdgeId(7)), vec![w0, w1]);
        assert_eq!(map.up(EdgeId(9)), vec![w0]);
        assert!(map.up(EdgeId(42)).is_empty());
        assert!(map.down(WavelengthId(99)).is_empty());
        assert!(map.maps(w0, EdgeId(9)));
        assert!(!map.maps(w1, EdgeId(9)));
    }

    #[test]
    fn cross_layer_map_serializes_as_plain_index_rows() {
        let mut map: CrossLayerMap<WavelengthId, EdgeId> = CrossLayerMap::new();
        map.push(vec![EdgeId(3)]);
        map.push(vec![]);
        let v = map.to_value();
        let Value::Seq(rows) = &v else { panic!("expected seq") };
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], Value::Seq(vec![Value::U64(3)]));
        let back = CrossLayerMap::<WavelengthId, EdgeId>::from_value(&v).unwrap();
        assert_eq!(back, map);
    }

    #[test]
    fn layer_ids_order_and_parse() {
        assert!(LayerId::L1.rank() < LayerId::L3.rank());
        assert!(LayerId::L3.rank() < LayerId::L7.rank());
        assert_eq!(LayerId::L1.below(), Some(LayerId::L3));
        assert_eq!(LayerId::L7.below(), None);
        assert_eq!(LayerId::L7.above(), Some(LayerId::L3));
        for l in LayerId::ALL {
            assert_eq!(LayerId::parse(l.name()), Some(l));
        }
        assert_eq!(LayerId::parse("L9"), None);
    }

    #[test]
    fn stack_registers_layers_behind_net_layer() {
        let stack = small_stack();
        assert_eq!(stack.layer(LayerId::L1).element_count(), 2);
        assert_eq!(stack.layer(LayerId::L3).element_count(), 2);
        assert_eq!(stack.layer(LayerId::L7).element_count(), 2);
        assert_eq!(stack.layer(LayerId::L1).element_name(0), "w0");
        assert_eq!(stack.layer(LayerId::L3).element_name(0), "a->b");
        assert_eq!(stack.layer(LayerId::L7).element_name(1), "wan-1");
        for id in LayerId::ALL {
            assert_eq!(stack.layer(id).layer_id(), id);
        }
    }

    #[test]
    fn fault_propagates_down_the_whole_stack() {
        let stack = small_stack();
        let impact = stack.propagate_down(StackFault::WavelengthFlap(WavelengthId(0)));
        assert_eq!(impact.origin, Some(LayerId::L1));
        assert_eq!(impact.wavelengths, vec![WavelengthId(0)]);
        assert_eq!(impact.links, vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(impact.components, vec![ComponentId(1)]);
        assert_eq!(impact.blast_size(), 4);

        let mid = stack.propagate_down(StackFault::LinkDown(EdgeId(0)));
        assert_eq!(mid.origin, Some(LayerId::L3));
        assert!(mid.wavelengths.is_empty());
        assert_eq!(mid.components, vec![ComponentId(1)]);
    }

    #[test]
    fn propagate_up_inverts_the_walk() {
        let stack = small_stack();
        let up = stack.propagate_up(StackFault::ComponentFault(ComponentId(1)));
        assert_eq!(up.links, vec![EdgeId(0), EdgeId(1)]);
        assert_eq!(up.wavelengths, vec![WavelengthId(0), WavelengthId(1)]);
    }

    #[test]
    fn validate_catches_dangling_refs() {
        let stack = small_stack();
        assert_eq!(stack.shape().violations(), vec![]);

        let mut bad = small_stack();
        bad.l3_l7 = {
            let mut m = CrossLayerMap::new();
            m.push(vec![ComponentId(9)]); // only 2 components registered
            m
        };
        let out = bad.shape().violations();
        assert!(
            out.iter()
                .any(|v| v.rule == "artifact/dangling-stack-ref"
                    && v.message.contains("component 9")),
            "{out:?}"
        );
    }

    #[test]
    fn service_layer_name_lookup() {
        let s = ServiceLayer::from_names(vec!["a".into(), "b".into()]);
        assert_eq!(s.id_of("b"), Some(ComponentId(1)));
        assert_eq!(s.id_of("zz"), None);
        assert_eq!(s.name_of(ComponentId(0)), Some("a"));
        assert_eq!(s.name_of(ComponentId(5)), None);
        assert_eq!(s.element_name(5), "c5");
    }
}
