//! Layer-1 (optical) substrate: fiber spans, wavelengths, and modulation.
//!
//! The paper's second war story ("Wavelength Modulation and Resilience")
//! hinges on the L1 → L3 mapping: each optical wavelength carries one or
//! more logical inter-datacenter links, and pushing a wavelength to a more
//! aggressive modulation format raises its data rate *and* its failure
//! susceptibility (RADWAN, SIGCOMM '18). The SMN's cross-layer dependency
//! graph makes this mapping explicit so routing flaps can be traced to
//! optical configuration in minutes rather than weeks.

use serde::{Deserialize, Serialize};

use crate::artifact::Violation;
use crate::graph::EdgeId;
use crate::path;
use crate::stack::CrossLayerMap;

/// Identifier for a fiber span (a physical segment of fiber between two
/// amplifier huts or landing stations).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct FiberSpanId(pub u32);

/// Identifier for a wavelength (an optical channel riding one or more
/// fiber spans).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct WavelengthId(pub u32);

/// Modulation format of a wavelength. Higher-order formats carry more bits
/// per symbol but tolerate less noise, so they fail more often and reach
/// shorter distances — the rate/reach/reliability tradeoff RADWAN measured.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Modulation {
    /// Quadrature phase-shift keying: 100 Gbps, longest reach, most robust.
    Qpsk,
    /// 8-ary QAM: 150 Gbps, medium reach.
    Qam8,
    /// 16-ary QAM: 200 Gbps, shortest reach, most failure-prone.
    Qam16,
}

impl Modulation {
    /// Data rate carried by a wavelength at this modulation, in Gbps.
    #[must_use]
    pub fn rate_gbps(self) -> f64 {
        match self {
            Modulation::Qpsk => 100.0,
            Modulation::Qam8 => 150.0,
            Modulation::Qam16 => 200.0,
        }
    }

    /// Maximum reach in kilometers before the optical signal-to-noise ratio
    /// is insufficient (coarse industry figures; only relative order
    /// matters for the simulations).
    #[must_use]
    pub fn max_reach_km(self) -> f64 {
        match self {
            Modulation::Qpsk => 5_000.0,
            Modulation::Qam8 => 2_500.0,
            Modulation::Qam16 => 800.0,
        }
    }

    /// Baseline failure probability per simulated day for a wavelength at
    /// this modulation operating *within* its reach budget. Operating near
    /// the reach limit multiplies this (see [`Wavelength::flap_probability`]).
    #[must_use]
    pub fn base_daily_failure_rate(self) -> f64 {
        match self {
            Modulation::Qpsk => 0.001,
            Modulation::Qam8 => 0.004,
            Modulation::Qam16 => 0.02,
        }
    }

    /// The next more aggressive format, if any.
    #[must_use]
    pub fn step_up(self) -> Option<Modulation> {
        match self {
            Modulation::Qpsk => Some(Modulation::Qam8),
            Modulation::Qam8 => Some(Modulation::Qam16),
            Modulation::Qam16 => None,
        }
    }

    /// The next more conservative format, if any.
    #[must_use]
    pub fn step_down(self) -> Option<Modulation> {
        match self {
            Modulation::Qpsk => None,
            Modulation::Qam8 => Some(Modulation::Qpsk),
            Modulation::Qam16 => Some(Modulation::Qam8),
        }
    }

    /// All formats, conservative to aggressive.
    pub const ALL: [Modulation; 3] = [Modulation::Qpsk, Modulation::Qam8, Modulation::Qam16];
}

/// A physical fiber span.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FiberSpan {
    /// Stable identifier.
    pub id: FiberSpanId,
    /// Human-readable name, e.g. `"nyc-lon-seg1"`.
    pub name: String,
    /// Span length in kilometers.
    pub length_km: f64,
    /// Whether this is a submarine (subsea cable) span. Submarine spans
    /// cannot be augmented by lighting new fiber on demand — a fiber
    /// constraint capacity planning must respect (war story 1).
    pub submarine: bool,
    /// Number of additional wavelength slots that can still be lit on this
    /// span. Zero models "fiber constraints in the ground".
    pub spare_wavelength_slots: u32,
}

impl FiberSpan {
    /// Whether a new wavelength can be provisioned over this span.
    #[must_use]
    pub fn can_light_new_wavelength(&self) -> bool {
        self.spare_wavelength_slots > 0
    }
}

/// An optical wavelength: a lit channel across a sequence of fiber spans.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Wavelength {
    /// Stable identifier.
    pub id: WavelengthId,
    /// The fiber spans the wavelength traverses, in order.
    pub spans: Vec<FiberSpanId>,
    /// Total optical path length in kilometers (sum of span lengths).
    pub path_km: f64,
    /// Current modulation format.
    pub modulation: Modulation,
}

impl Wavelength {
    /// Fraction of the modulation's reach budget consumed by this path,
    /// in `[0, ∞)`. Above 1.0 the configuration is out of spec.
    #[must_use]
    pub fn reach_utilization(&self) -> f64 {
        self.path_km / self.modulation.max_reach_km()
    }

    /// Whether the current modulation is within its reach budget.
    #[must_use]
    pub fn within_reach(&self) -> bool {
        self.reach_utilization() <= 1.0
    }

    /// Probability that this wavelength flaps (fails and recovers) on a
    /// given simulated day.
    ///
    /// The base rate of the modulation is amplified as the path approaches
    /// the reach limit: at 50 % of reach the base rate applies; the
    /// multiplier grows quadratically to 16× at 100 % of reach and keeps
    /// growing beyond spec. This reproduces the qualitative RADWAN result
    /// that aggressive modulation on long paths flaps frequently.
    #[must_use]
    pub fn flap_probability(&self) -> f64 {
        self.flap_probability_at(self.modulation)
    }

    /// [`Wavelength::flap_probability`] evaluated as if the wavelength ran
    /// `modulation` over its current path — the what-if a remediation
    /// planner asks before retuning: "how much calmer does this path get
    /// one modulation step down?" without mutating the layer.
    #[must_use]
    pub fn flap_probability_at(&self, modulation: Modulation) -> f64 {
        let base = modulation.base_daily_failure_rate();
        let u = self.path_km / modulation.max_reach_km();
        let stress = if u <= 0.5 { 1.0 } else { 1.0 + 15.0 * ((u - 0.5) / 0.5).powi(2) };
        (base * stress).min(1.0)
    }

    /// Capacity delivered to L3 by this wavelength, in Gbps.
    #[must_use]
    pub fn capacity_gbps(&self) -> f64 {
        self.modulation.rate_gbps()
    }
}

/// The optical layer: spans, wavelengths, and the wavelength → L3 link map.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct OpticalLayer {
    spans: Vec<FiberSpan>,
    wavelengths: Vec<Wavelength>,
    /// The typed L1 → L3 map: which [`EdgeId`]s each wavelength carries.
    /// One wavelength may back multiple logical links, and one logical
    /// link may ride multiple wavelengths.
    carries: CrossLayerMap<WavelengthId, EdgeId>,
}

impl OpticalLayer {
    /// Create an empty optical layer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a fiber span and return its id.
    pub fn add_span(
        &mut self,
        name: impl Into<String>,
        length_km: f64,
        submarine: bool,
        spare_wavelength_slots: u32,
    ) -> FiberSpanId {
        let id = FiberSpanId(self.spans.len() as u32);
        self.spans.push(FiberSpan {
            id,
            name: name.into(),
            length_km,
            submarine,
            spare_wavelength_slots,
        });
        id
    }

    /// Light a wavelength over `spans` at `modulation`, carrying the given
    /// L3 links.
    pub fn light_wavelength(
        &mut self,
        spans: Vec<FiberSpanId>,
        modulation: Modulation,
        l3_links: Vec<EdgeId>,
    ) -> WavelengthId {
        // Span ids come from `add_span`; an out-of-range id (caller bug)
        // contributes zero length rather than aborting the build.
        let path_km =
            spans.iter().filter_map(|s| self.spans.get(s.0 as usize)).map(|sp| sp.length_km).sum();
        let id = WavelengthId(self.wavelengths.len() as u32);
        self.wavelengths.push(Wavelength { id, spans, path_km, modulation });
        let mapped = self.carries.push(l3_links);
        debug_assert_eq!(mapped, id, "wavelength table and L1->L3 map out of sync");
        id
    }

    /// All fiber spans.
    #[must_use]
    pub fn spans(&self) -> &[FiberSpan] {
        &self.spans
    }

    /// All wavelengths.
    #[must_use]
    pub fn wavelengths(&self) -> &[Wavelength] {
        &self.wavelengths
    }

    /// Span by id.
    #[must_use]
    pub fn span(&self, id: FiberSpanId) -> &FiberSpan {
        &self.spans[id.0 as usize]
    }

    /// Wavelength by id.
    #[must_use]
    pub fn wavelength(&self, id: WavelengthId) -> &Wavelength {
        &self.wavelengths[id.0 as usize]
    }

    /// Mutable wavelength by id (e.g. to retune modulation).
    pub fn wavelength_mut(&mut self, id: WavelengthId) -> &mut Wavelength {
        &mut self.wavelengths[id.0 as usize]
    }

    /// L3 links carried by a wavelength.
    #[must_use]
    pub fn links_on_wavelength(&self, id: WavelengthId) -> &[EdgeId] {
        self.carries.down(id)
    }

    /// All wavelengths that carry a given L3 link.
    #[must_use]
    pub fn wavelengths_for_link(&self, l3_link: EdgeId) -> Vec<WavelengthId> {
        self.carries.up(l3_link)
    }

    /// The typed L1 → L3 cross-layer map (wavelength → carried links).
    #[must_use]
    pub fn link_map(&self) -> &CrossLayerMap<WavelengthId, EdgeId> {
        &self.carries
    }

    /// Whether an L3 link can be augmented with a new wavelength: every
    /// span under any existing wavelength of that link must have spare
    /// slots. Returns `None` if the link has no wavelength at all.
    #[must_use]
    pub fn link_upgradeable(&self, l3_link: EdgeId) -> Option<bool> {
        let wls = self.wavelengths_for_link(l3_link);
        if wls.is_empty() {
            return None;
        }
        Some(wls.iter().any(|&w| {
            self.wavelength(w).spans.iter().all(|&s| self.span(s).can_light_new_wavelength())
        }))
    }

    /// Retune a wavelength to a new modulation, returning the old one.
    pub fn retune(&mut self, id: WavelengthId, modulation: Modulation) -> Modulation {
        let w = self.wavelength_mut(id);
        std::mem::replace(&mut w.modulation, modulation)
    }

    /// Invariants of a deserialized optical layer under a WAN of
    /// `link_count` links: every wavelength rides existing spans and
    /// carries existing links. Paths are relative to the optical layer.
    #[must_use]
    pub fn violations(&self, link_count: usize) -> Vec<Violation> {
        let spans = self.spans.len();
        let mut out = Vec::new();
        for (i, wl) in self.wavelengths.iter().enumerate() {
            for (j, sid) in wl.spans.iter().enumerate() {
                if sid.0 as usize >= spans {
                    out.push(Violation::new(
                        "artifact/unknown-span",
                        path!["wavelengths", i, "spans", j],
                        format!(
                            "wavelength {i} rides span {}, but only {spans} spans exist",
                            sid.0
                        ),
                        "",
                    ));
                }
            }
        }
        for (w, links) in self.carries.entries() {
            for (j, lid) in links.iter().enumerate() {
                if lid.index() >= link_count {
                    out.push(Violation::new(
                        "artifact/dangling-link-ref",
                        path!["carries", w.0 as usize, j],
                        format!(
                            "wavelength {} carries link {}, but the WAN has only {link_count} links",
                            w.0, lid.0
                        ),
                        "",
                    ));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn modulation_tradeoff_is_monotone() {
        // Rate goes up, reach goes down, failure rate goes up.
        let mut prev: Option<Modulation> = None;
        for m in Modulation::ALL {
            if let Some(p) = prev {
                assert!(m.rate_gbps() > p.rate_gbps());
                assert!(m.max_reach_km() < p.max_reach_km());
                assert!(m.base_daily_failure_rate() > p.base_daily_failure_rate());
            }
            prev = Some(m);
        }
    }

    #[test]
    fn step_up_down_roundtrip() {
        assert_eq!(Modulation::Qpsk.step_up(), Some(Modulation::Qam8));
        assert_eq!(Modulation::Qam16.step_up(), None);
        assert_eq!(Modulation::Qam16.step_down(), Some(Modulation::Qam8));
        assert_eq!(Modulation::Qpsk.step_down(), None);
    }

    fn layer_with_one_wavelength(modulation: Modulation, km: f64) -> (OpticalLayer, WavelengthId) {
        let mut l1 = OpticalLayer::new();
        let s = l1.add_span("test-span", km, false, 4);
        let w = l1.light_wavelength(vec![s], modulation, vec![EdgeId(0)]);
        (l1, w)
    }

    #[test]
    fn flap_probability_grows_with_reach_stress() {
        let (short, ws) = layer_with_one_wavelength(Modulation::Qam16, 100.0);
        let (long, wl) = layer_with_one_wavelength(Modulation::Qam16, 790.0);
        let p_short = short.wavelength(ws).flap_probability();
        let p_long = long.wavelength(wl).flap_probability();
        assert!(
            p_long > 10.0 * p_short,
            "near-reach path should flap much more: {p_short} vs {p_long}"
        );
        assert!(p_long <= 1.0);
    }

    #[test]
    fn aggressive_modulation_on_long_path_is_out_of_spec() {
        let (l1, w) = layer_with_one_wavelength(Modulation::Qam16, 1200.0);
        assert!(!l1.wavelength(w).within_reach());
        let (l1b, wb) = layer_with_one_wavelength(Modulation::Qpsk, 1200.0);
        assert!(l1b.wavelength(wb).within_reach());
    }

    #[test]
    fn wavelength_link_mapping_is_bidirectional() {
        let mut l1 = OpticalLayer::new();
        let s1 = l1.add_span("a-b", 500.0, false, 2);
        let s2 = l1.add_span("b-c", 400.0, false, 0);
        let w1 = l1.light_wavelength(vec![s1, s2], Modulation::Qam8, vec![EdgeId(7), EdgeId(9)]);
        let w2 = l1.light_wavelength(vec![s1], Modulation::Qpsk, vec![EdgeId(7)]);
        assert_eq!(l1.wavelength(w1).path_km, 900.0);
        assert_eq!(l1.links_on_wavelength(w1), &[EdgeId(7), EdgeId(9)]);
        assert_eq!(l1.wavelengths_for_link(EdgeId(7)), vec![w1, w2]);
        assert_eq!(l1.wavelengths_for_link(EdgeId(9)), vec![w1]);
        assert!(l1.wavelengths_for_link(EdgeId(42)).is_empty());
    }

    #[test]
    fn upgradeability_respects_fiber_constraints() {
        let mut l1 = OpticalLayer::new();
        let spare = l1.add_span("land", 500.0, false, 2);
        let full = l1.add_span("subsea", 3000.0, true, 0);
        l1.light_wavelength(vec![spare, full], Modulation::Qpsk, vec![EdgeId(0)]);
        l1.light_wavelength(vec![spare], Modulation::Qpsk, vec![EdgeId(1)]);
        // Link 0 rides a full span — cannot upgrade.
        assert_eq!(l1.link_upgradeable(EdgeId(0)), Some(false));
        // Link 1 rides only the spare span — can upgrade.
        assert_eq!(l1.link_upgradeable(EdgeId(1)), Some(true));
        // Unknown link.
        assert_eq!(l1.link_upgradeable(EdgeId(99)), None);
    }

    #[test]
    fn retune_changes_capacity() {
        let (mut l1, w) = layer_with_one_wavelength(Modulation::Qpsk, 600.0);
        assert_eq!(l1.wavelength(w).capacity_gbps(), 100.0);
        let old = l1.retune(w, Modulation::Qam16);
        assert_eq!(old, Modulation::Qpsk);
        assert_eq!(l1.wavelength(w).capacity_gbps(), 200.0);
    }
}
