//! Layer-3 (logical) wide-area topology: datacenters, regions, inter-DC links.
//!
//! This is the structure over which bandwidth logs are collected (§4) and
//! over which topology-based coarsening groups datacenters into region or
//! continent supernodes. Each datacenter carries a geographic hierarchy
//! (continent → region → DC) so that the coarsening levels the paper
//! discusses — "US east coast" regions, whole continents — are directly
//! expressible as contractions.

use std::collections::HashMap;

use serde::{Deserialize, Serialize};

use crate::artifact::{name_index_violations, under, Violation};
use crate::graph::{Contraction, DiGraph, EdgeId, NodeId};
use crate::path;

/// A continent, the coarsest geographic unit ("a supernode represents all
/// datacenters in a continent … a small topology of 7 nodes", §4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Continent {
    /// North America.
    NorthAmerica,
    /// South America.
    SouthAmerica,
    /// Europe.
    Europe,
    /// Africa.
    Africa,
    /// Asia.
    Asia,
    /// Oceania.
    Oceania,
    /// Antarctica (kept so the continent count is the paper's 7).
    Antarctica,
}

impl Continent {
    /// All continents.
    pub const ALL: [Continent; 7] = [
        Continent::NorthAmerica,
        Continent::SouthAmerica,
        Continent::Europe,
        Continent::Africa,
        Continent::Asia,
        Continent::Oceania,
        Continent::Antarctica,
    ];

    /// Short code used in names, e.g. `"na"`.
    #[must_use]
    pub fn code(self) -> &'static str {
        match self {
            Continent::NorthAmerica => "na",
            Continent::SouthAmerica => "sa",
            Continent::Europe => "eu",
            Continent::Africa => "af",
            Continent::Asia => "ap",
            Continent::Oceania => "oc",
            Continent::Antarctica => "an",
        }
    }
}

/// Identifier of a geographic region within a continent (e.g. "us-east").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct RegionId(pub u16);

/// A datacenter: the L3 node granularity of uncoarsened bandwidth logs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Datacenter {
    /// Name such as `"us-e1"` (matches the log format in the paper's Listing 1).
    pub name: String,
    /// Continent the DC sits on.
    pub continent: Continent,
    /// Region within the continent.
    pub region: RegionId,
    /// Approximate position (degrees latitude / longitude) for distance and
    /// geographic-clustering computations.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// Attributes of a logical inter-DC link.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LinkAttrs {
    /// Capacity in Gbps.
    pub capacity_gbps: f64,
    /// Great-circle distance between the endpoints in km.
    pub distance_km: f64,
    /// Whether the link crosses an ocean (rides subsea cable spans).
    pub subsea: bool,
    /// Whether the link is currently up.
    pub up: bool,
}

impl LinkAttrs {
    /// A fresh, up link.
    #[must_use]
    pub fn new(capacity_gbps: f64, distance_km: f64, subsea: bool) -> Self {
        Self { capacity_gbps, distance_km, subsea, up: true }
    }
}

/// The L3 wide-area network: a directed graph of datacenters.
///
/// Links are directed (capacity may be asymmetric); generators add both
/// directions. `Wan` wraps [`DiGraph`] with datacenter-aware lookups.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Wan {
    /// The underlying graph. Public so solvers can run directly on it.
    pub graph: DiGraph<Datacenter, LinkAttrs>,
    name_index: HashMap<String, NodeId>,
}

impl Default for Wan {
    fn default() -> Self {
        Self::new()
    }
}

impl Wan {
    /// An empty WAN.
    #[must_use]
    pub fn new() -> Self {
        Self { graph: DiGraph::new(), name_index: HashMap::new() }
    }

    /// Add a datacenter.
    ///
    /// # Panics
    /// Panics if a DC with the same name already exists.
    pub fn add_datacenter(&mut self, dc: Datacenter) -> NodeId {
        assert!(!self.name_index.contains_key(&dc.name), "duplicate datacenter name {}", dc.name);
        let name = dc.name.clone();
        let id = self.graph.add_node(dc);
        self.name_index.insert(name, id);
        id
    }

    /// Add a unidirectional link.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, attrs: LinkAttrs) -> EdgeId {
        self.graph.add_edge(src, dst, attrs)
    }

    /// Add both directions of a link with identical attributes; returns
    /// `(forward, backward)` edge ids.
    pub fn add_bidi_link(&mut self, a: NodeId, b: NodeId, attrs: LinkAttrs) -> (EdgeId, EdgeId) {
        let f = self.graph.add_edge(a, b, attrs.clone());
        let r = self.graph.add_edge(b, a, attrs);
        (f, r)
    }

    /// Look up a datacenter by name.
    #[must_use]
    pub fn dc_by_name(&self, name: &str) -> Option<NodeId> {
        self.name_index.get(name).copied()
    }

    /// Datacenter payload of a node.
    #[must_use]
    pub fn dc(&self, id: NodeId) -> &Datacenter {
        self.graph.node(id)
    }

    /// Number of datacenters.
    #[must_use]
    pub fn dc_count(&self) -> usize {
        self.graph.node_count()
    }

    /// Number of directed links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.graph.edge_count()
    }

    /// Invariants of a deserialized WAN: graph integrity, a name index
    /// that agrees with the datacenters, finite positive link capacities
    /// and finite non-negative distances. Paths are relative to the WAN.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = under(&path!["graph"], DiGraph::violations(&self.graph));
        let names: Vec<&str> = self.graph.nodes().map(|(_, dc)| dc.name.as_str()).collect();
        out.extend(name_index_violations(&names, &self.name_index));
        for (id, e) in self.graph.edges() {
            let (i, capacity, distance) =
                (id.index(), e.payload.capacity_gbps, e.payload.distance_km);
            if !(capacity.is_finite() && capacity > 0.0) {
                out.push(Violation::new(
                    "artifact/invalid-attr",
                    path!["graph", "edges", i, "payload", "capacity_gbps"],
                    format!("link {i} capacity must be finite and positive, got {capacity}"),
                    "",
                ));
            }
            if !(distance.is_finite() && distance >= 0.0) {
                out.push(Violation::new(
                    "artifact/invalid-attr",
                    path!["graph", "edges", i, "payload", "distance_km"],
                    format!("link {i} distance must be finite and non-negative, got {distance}"),
                    "",
                ));
            }
        }
        out
    }

    /// Mark a link up or down (e.g. when its wavelength flaps).
    pub fn set_link_up(&mut self, link: EdgeId, up: bool) {
        self.graph.edge_mut(link).up = up;
    }

    /// Great-circle distance between two DCs in kilometers (haversine).
    #[must_use]
    pub fn distance_km(&self, a: NodeId, b: NodeId) -> f64 {
        haversine_km(self.dc(a).lat, self.dc(a).lon, self.dc(b).lat, self.dc(b).lon)
    }

    /// Distinct regions present, in node order.
    #[must_use]
    pub fn regions(&self) -> Vec<(Continent, RegionId)> {
        let mut seen = Vec::new();
        for (_, dc) in self.graph.nodes() {
            let key = (dc.continent, dc.region);
            if !seen.contains(&key) {
                seen.push(key);
            }
        }
        seen
    }

    /// Contract the WAN so each (continent, region) pair becomes one
    /// supernode. Parallel inter-region links merge by capacity sum — the
    /// region-level coarsening of §4.
    #[must_use]
    pub fn contract_by_region(&self) -> Contraction<SuperNode, SuperLink> {
        self.contract_by_label(|_, dc| format!("{}-r{}", dc.continent.code(), dc.region.0))
    }

    /// Contract the WAN so each continent becomes one supernode — the
    /// degenerate 7-node coarsening the paper warns about.
    #[must_use]
    pub fn contract_by_continent(&self) -> Contraction<SuperNode, SuperLink> {
        self.contract_by_label(|_, dc| dc.continent.code().to_string())
    }

    /// Contract by an arbitrary labeling of datacenters — the one generic
    /// contraction path. Region, continent, and geo-cluster contractions
    /// are all labelings fed through here, so supernode naming, member
    /// ordering, and link folding behave identically across granularities.
    pub fn contract_by_label(
        &self,
        mut label: impl FnMut(NodeId, &Datacenter) -> String,
    ) -> Contraction<SuperNode, SuperLink> {
        self.graph.contract(
            |id, dc| label(id, dc),
            |key, members| SuperNode { name: key, dc_count: members.len() },
            fold_link,
        )
    }

    /// Contract the WAN into `k` geographic clusters via Lloyd's k-means on
    /// (lat, lon), deterministically seeded. This gives a *parametric*
    /// granularity family between "regions" and "continents" for Pareto
    /// sweeps over coarsening levels (§4 RQ1).
    ///
    /// # Panics
    /// Panics when `k` is zero or exceeds the datacenter count.
    #[must_use]
    pub fn contract_by_geo_clusters(
        &self,
        k: usize,
        seed: u64,
    ) -> Contraction<SuperNode, SuperLink> {
        assert!(k > 0 && k <= self.dc_count(), "k must be in 1..=dc_count");
        let points: Vec<(f64, f64)> = self.graph.nodes().map(|(_, dc)| (dc.lat, dc.lon)).collect();
        // Deterministic centroid init: spread over the node list.
        let mut centroids: Vec<(f64, f64)> =
            (0..k).map(|i| points[(i * points.len() / k + seed as usize) % points.len()]).collect();
        let mut assign = vec![0usize; points.len()];
        for _iter in 0..25 {
            let mut changed = false;
            for (i, p) in points.iter().enumerate() {
                let best = centroids
                    .iter()
                    .enumerate()
                    .min_by(|(_, a), (_, b)| {
                        let da = (p.0 - a.0).powi(2) + (p.1 - a.1).powi(2);
                        let db = (p.0 - b.0).powi(2) + (p.1 - b.1).powi(2);
                        da.total_cmp(&db)
                    })
                    .map_or(assign[i], |(j, _)| j);
                if assign[i] != best {
                    assign[i] = best;
                    changed = true;
                }
            }
            // Recompute centroids; empty clusters keep their position.
            let mut sums = vec![(0.0, 0.0, 0usize); k];
            for (i, p) in points.iter().enumerate() {
                let s = &mut sums[assign[i]];
                s.0 += p.0;
                s.1 += p.1;
                s.2 += 1;
            }
            for (j, s) in sums.iter().enumerate() {
                if s.2 > 0 {
                    centroids[j] = (s.0 / s.2 as f64, s.1 / s.2 as f64);
                }
            }
            if !changed {
                break;
            }
        }
        self.contract_by_label(|id, _| format!("geo{}", assign[id.index()]))
    }
}

fn fold_link(acc: Option<SuperLink>, link: &LinkAttrs) -> SuperLink {
    let mut s = acc.unwrap_or(SuperLink {
        capacity_gbps: 0.0,
        member_links: 0,
        min_distance_km: f64::INFINITY,
        any_subsea: false,
    });
    if link.up {
        s.capacity_gbps += link.capacity_gbps;
    }
    s.member_links += 1;
    s.min_distance_km = s.min_distance_km.min(link.distance_km);
    s.any_subsea |= link.subsea;
    s
}

/// A supernode produced by contracting datacenters (region or continent).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuperNode {
    /// Label, e.g. `"na-r3"` or `"eu"`.
    pub name: String,
    /// How many datacenters were merged into this supernode.
    pub dc_count: usize,
}

/// A coarse link between supernodes: the fold of all member links.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuperLink {
    /// Sum of member-link capacities that are currently up.
    pub capacity_gbps: f64,
    /// Number of physical member links folded in.
    pub member_links: usize,
    /// Shortest member distance (proxy for latency of the coarse link).
    pub min_distance_km: f64,
    /// True if any member link is subsea.
    pub any_subsea: bool,
}

/// Haversine great-circle distance in kilometers.
#[must_use]
pub fn haversine_km(lat1: f64, lon1: f64, lat2: f64, lon2: f64) -> f64 {
    const R: f64 = 6371.0;
    let (p1, p2) = (lat1.to_radians(), lat2.to_radians());
    let dp = (lat2 - lat1).to_radians();
    let dl = (lon2 - lon1).to_radians();
    let a = (dp / 2.0).sin().powi(2) + p1.cos() * p2.cos() * (dl / 2.0).sin().powi(2);
    2.0 * R * a.sqrt().atan2((1.0 - a).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dc(name: &str, continent: Continent, region: u16, lat: f64, lon: f64) -> Datacenter {
        Datacenter { name: name.into(), continent, region: RegionId(region), lat, lon }
    }

    /// Four DCs: two in na region 0, one in na region 1, one in eu region 0.
    fn small_wan() -> Wan {
        let mut w = Wan::new();
        let a = w.add_datacenter(dc("us-e1", Continent::NorthAmerica, 0, 39.0, -77.5));
        let b = w.add_datacenter(dc("us-e2", Continent::NorthAmerica, 0, 40.7, -74.0));
        let c = w.add_datacenter(dc("us-w1", Continent::NorthAmerica, 1, 45.6, -121.2));
        let d = w.add_datacenter(dc("eu-w1", Continent::Europe, 0, 53.3, -6.3));
        w.add_bidi_link(a, b, LinkAttrs::new(400.0, 300.0, false));
        w.add_bidi_link(a, c, LinkAttrs::new(800.0, 3700.0, false));
        w.add_bidi_link(b, c, LinkAttrs::new(400.0, 3900.0, false));
        w.add_bidi_link(a, d, LinkAttrs::new(600.0, 5500.0, true));
        w
    }

    #[test]
    fn name_lookup_and_counts() {
        let w = small_wan();
        assert_eq!(w.dc_count(), 4);
        assert_eq!(w.link_count(), 8);
        let id = w.dc_by_name("us-w1").unwrap();
        assert_eq!(w.dc(id).region, RegionId(1));
        assert!(w.dc_by_name("nope").is_none());
    }

    #[test]
    #[should_panic(expected = "duplicate datacenter")]
    fn duplicate_names_rejected() {
        let mut w = small_wan();
        w.add_datacenter(dc("us-e1", Continent::Europe, 9, 0.0, 0.0));
    }

    #[test]
    fn haversine_matches_known_distance() {
        // Washington DC area to Dublin is ~5,400-5,600 km.
        let d = haversine_km(39.0, -77.5, 53.3, -6.3);
        assert!((5200.0..5900.0).contains(&d), "got {d}");
    }

    #[test]
    fn region_contraction_merges_parallel_links() {
        let w = small_wan();
        let c = w.contract_by_region();
        // Regions: na-r0 (us-e1, us-e2), na-r1 (us-w1), eu-r0 (eu-w1).
        assert_eq!(c.graph.node_count(), 3);
        let na0 = c
            .graph
            .nodes()
            .find(|(_, n)| n.name == "na-r0")
            .map(|(id, _)| id)
            .expect("na-r0 exists");
        assert_eq!(c.graph.node(na0).dc_count, 2);
        let na1 = c.graph.nodes().find(|(_, n)| n.name == "na-r1").map(|(id, _)| id).unwrap();
        // us-e1->us-w1 (800) and us-e2->us-w1 (400) merge to 1200.
        let e = c.graph.find_edge(na0, na1).unwrap();
        let link = &c.graph.edge(e).payload;
        assert_eq!(link.capacity_gbps, 1200.0);
        assert_eq!(link.member_links, 2);
        assert!(!link.any_subsea);
    }

    #[test]
    fn continent_contraction_gives_two_nodes_here() {
        let w = small_wan();
        let c = w.contract_by_continent();
        assert_eq!(c.graph.node_count(), 2);
        // Only inter-continent edges survive: us-e1<->eu-w1.
        assert_eq!(c.graph.edge_count(), 2);
        let (_, edge) = c.graph.edges().next().unwrap();
        assert!(edge.payload.any_subsea);
    }

    #[test]
    fn down_links_excluded_from_coarse_capacity() {
        let mut w = small_wan();
        // Take down us-e1 -> us-w1 (800 Gbps).
        let a = w.dc_by_name("us-e1").unwrap();
        let cdc = w.dc_by_name("us-w1").unwrap();
        let e = w.graph.find_edge(a, cdc).unwrap();
        w.set_link_up(e, false);
        let c = w.contract_by_region();
        let na0 = c.graph.nodes().find(|(_, n)| n.name == "na-r0").map(|(id, _)| id).unwrap();
        let na1 = c.graph.nodes().find(|(_, n)| n.name == "na-r1").map(|(id, _)| id).unwrap();
        let link = &c.graph.edge(c.graph.find_edge(na0, na1).unwrap()).payload;
        assert_eq!(link.capacity_gbps, 400.0);
        assert_eq!(link.member_links, 2); // still counted as a member
    }

    #[test]
    fn custom_label_contraction() {
        let w = small_wan();
        let c = w.contract_by_label(|_, dc| {
            if dc.name.starts_with("us") {
                "us".into()
            } else {
                "other".into()
            }
        });
        assert_eq!(c.graph.node_count(), 2);
    }

    #[test]
    fn geo_clustering_is_deterministic_and_spatial() {
        let w = small_wan();
        let a = w.contract_by_geo_clusters(2, 3);
        let b = w.contract_by_geo_clusters(2, 3);
        assert_eq!(a.node_map, b.node_map);
        assert!(a.graph.node_count() <= 2);
        // The two US east-coast DCs (us-e1, us-e2) are ~300 km apart and
        // must share a cluster when Europe is 5000+ km away.
        let e1 = w.dc_by_name("us-e1").unwrap();
        let e2 = w.dc_by_name("us-e2").unwrap();
        assert_eq!(a.node_map[e1.index()], a.node_map[e2.index()]);
    }

    #[test]
    #[should_panic(expected = "k must be")]
    fn geo_clustering_rejects_bad_k() {
        let _ = small_wan().contract_by_geo_clusters(0, 1);
    }

    #[test]
    fn regions_enumerated_in_node_order() {
        let w = small_wan();
        let regions = w.regions();
        assert_eq!(regions.len(), 3);
        assert_eq!(regions[0], (Continent::NorthAmerica, RegionId(0)));
    }
}
