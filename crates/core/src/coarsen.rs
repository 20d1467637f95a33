//! The coarsening abstraction (Figure 2).
//!
//! "Given a complex structure S, a coarsening s = C(S) is a succinct mapping
//! of S to a simpler structure s such that |s| < |S| and acting on s is
//! approximately the 'same' as acting on S."
//!
//! [`Coarsening`] captures the mapping and the size relation;
//! [`action_fidelity`] operationalizes "approximately the same": run the
//! *same action* against the fine and the coarse structure and score how
//! close the answers are. The paper leaves "approximately the same effect"
//! deliberately informal (§3); this module makes it measurable per instance
//! without over-claiming a general theory.

/// A coarsening `C : Fine -> Coarse` with size accounting.
pub trait Coarsening {
    /// The complex structure `S`.
    type Fine;
    /// The simpler structure `s = C(S)`.
    type Coarse;

    /// The unified-stack layer this coarsening acts on, aligning
    /// `smn_depgraph`'s `Layer` enum with the stack's
    /// [`smn_topology::LayerId`]: bandwidth-log and topology coarsenings
    /// act on the L3 WAN, the CDG coarsening on the L7 service graph.
    /// `None` for layer-agnostic coarsenings.
    fn layer(&self) -> Option<smn_topology::LayerId> {
        None
    }

    /// Apply the mapping.
    fn coarsen(&self, fine: &Self::Fine) -> Self::Coarse;

    /// Size measure of the fine structure (rows, nodes, bytes — any
    /// consistent unit).
    fn fine_size(&self, fine: &Self::Fine) -> usize;

    /// Size measure of the coarse structure, same unit as [`Self::fine_size`].
    fn coarse_size(&self, coarse: &Self::Coarse) -> usize;

    /// Convenience: coarsen and report sizes in one call.
    fn report(&self, fine: &Self::Fine) -> CoarseningReport<Self::Coarse> {
        let coarse = self.coarsen(fine);
        let fine_size = self.fine_size(fine);
        let coarse_size = self.coarse_size(&coarse);
        CoarseningReport { coarse, fine_size, coarse_size }
    }

    /// [`Coarsening::report`] run inside a profiled `coarsen/<label>` phase
    /// ([`smn_obs::Obs::phase`]): the size relation lands as exit fields and
    /// `coarsen_<label>_reduction` publishes as a gauge. A disabled handle
    /// returns before the label is formatted.
    fn report_profiled(
        &self,
        fine: &Self::Fine,
        obs: &smn_obs::Obs,
        label: &str,
    ) -> CoarseningReport<Self::Coarse> {
        if !obs.is_enabled() {
            return self.report(fine);
        }
        let mut phase = obs.phase(&format!("coarsen/{label}"));
        let report = self.report(fine);
        phase.field("fine_size", report.fine_size);
        phase.field("coarse_size", report.coarse_size);
        phase.field("shrinks", report.shrinks());
        let reduction = report.reduction_factor();
        if reduction.is_finite() {
            obs.gauge(&format!("coarsen_{label}_reduction"), reduction);
        }
        report
    }
}

/// The result of applying a coarsening: the coarse structure plus the size
/// relation `|s| < |S|`.
#[derive(Debug, Clone)]
pub struct CoarseningReport<C> {
    /// The coarse structure.
    pub coarse: C,
    /// Size of the fine input.
    pub fine_size: usize,
    /// Size of the coarse output.
    pub coarse_size: usize,
}

impl<C> CoarseningReport<C> {
    /// Reduction factor `|S| / |s|` (∞ for an empty coarse structure).
    pub fn reduction_factor(&self) -> f64 {
        if self.coarse_size == 0 {
            f64::INFINITY
        } else {
            #[allow(clippy::cast_precision_loss, reason = "structure sizes stay far below 2^52")]
            let ratio = self.fine_size as f64 / self.coarse_size as f64;
            ratio
        }
    }

    /// Whether the defining inequality `|s| < |S|` holds.
    pub fn shrinks(&self) -> bool {
        self.coarse_size < self.fine_size
    }
}

/// Figure 2's commuting square, measured: act on `S`, act on `C(S)`, and
/// score how close the two answers are (1.0 = identical effect).
///
/// `score` must be symmetric and return values in `[0, 1]`; relative-error
/// scores like [`relative_closeness`] fit.
pub fn action_fidelity<F, C, A>(
    fine: &F,
    coarse: &C,
    act_fine: impl FnOnce(&F) -> A,
    act_coarse: impl FnOnce(&C) -> A,
    score: impl FnOnce(&A, &A) -> f64,
) -> Fidelity<A> {
    let fine_answer = act_fine(fine);
    let coarse_answer = act_coarse(coarse);
    let fidelity = score(&fine_answer, &coarse_answer).clamp(0.0, 1.0);
    Fidelity { fine_answer, coarse_answer, fidelity }
}

/// The two answers of the commuting square plus their closeness.
#[derive(Debug, Clone)]
pub struct Fidelity<A> {
    /// `act(S)`.
    pub fine_answer: A,
    /// `act(C(S))`.
    pub coarse_answer: A,
    /// Closeness in `[0, 1]`.
    pub fidelity: f64,
}

/// Closeness score for scalar answers: `1 - |a-b| / max(|a|, |b|)`,
/// 1.0 when both are zero.
#[must_use]
pub fn relative_closeness(a: &f64, b: &f64) -> f64 {
    let denom = a.abs().max(b.abs());
    if denom == 0.0 {
        1.0
    } else {
        (1.0 - (a - b).abs() / denom).max(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy coarsening: vectors of numbers -> their sum buckets of size k.
    struct BucketSum {
        bucket: usize,
    }

    impl Coarsening for BucketSum {
        type Fine = Vec<f64>;
        type Coarse = Vec<f64>;

        fn coarsen(&self, fine: &Vec<f64>) -> Vec<f64> {
            fine.chunks(self.bucket).map(|c| c.iter().sum()).collect()
        }
        fn fine_size(&self, fine: &Vec<f64>) -> usize {
            fine.len()
        }
        fn coarse_size(&self, coarse: &Vec<f64>) -> usize {
            coarse.len()
        }
    }

    #[test]
    fn report_measures_reduction() {
        let c = BucketSum { bucket: 4 };
        let fine: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let report = c.report(&fine);
        assert_eq!(report.coarse_size, 25);
        assert!(report.shrinks());
        assert_eq!(report.reduction_factor(), 4.0);
    }

    #[test]
    fn profiled_report_feeds_trace_and_wall_profile() {
        let c = BucketSum { bucket: 4 };
        let fine: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let obs = smn_obs::Obs::enabled(smn_obs::clock::SimClock::new());
        let report = c.report_profiled(&fine, &obs, "bucket-sum");
        assert_eq!(report.coarse_size, 25);
        assert_eq!(obs.trace_len(), 2); // enter + exit
        assert_eq!(obs.gauge_value("coarsen_bucket-sum_reduction"), Some(4.0));
        let profile = obs.wall_profile();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].path, "coarsen/bucket-sum");
        assert_eq!(profile[0].count, 1);
        // Disabled handle: same result, no events or profile rows.
        let off = smn_obs::Obs::disabled();
        let report = c.report_profiled(&fine, &off, "bucket-sum");
        assert_eq!(report.coarse_size, 25);
        assert_eq!(off.trace_len(), 0);
        assert!(off.wall_profile().is_empty());
    }

    #[test]
    fn layer_entry_point_tags_reports() {
        // The toy coarsening is layer-agnostic: default None.
        assert_eq!(BucketSum { bucket: 4 }.layer(), None);
        // The concrete coarseners declare their stack layer.
        use smn_topology::LayerId;
        assert_eq!(crate::cdg::CdgCoarsening.layer(), Some(LayerId::L7));
        assert_eq!(crate::modelhist::ModelCoarsener.layer(), Some(LayerId::L3));
        assert_eq!(crate::bwlogs::TopologyCoarsener::new(Vec::new()).layer(), Some(LayerId::L3));
    }

    #[test]
    fn sum_preserving_action_has_perfect_fidelity() {
        let c = BucketSum { bucket: 10 };
        let fine: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let coarse = c.coarsen(&fine);
        let f = action_fidelity(
            &fine,
            &coarse,
            |v| v.iter().sum::<f64>(),
            |v| v.iter().sum::<f64>(),
            relative_closeness,
        );
        assert_eq!(f.fidelity, 1.0);
        assert_eq!(f.fine_answer, f.coarse_answer);
    }

    #[test]
    fn max_action_loses_fidelity_under_sum_coarsening() {
        let c = BucketSum { bucket: 10 };
        let fine: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let coarse = c.coarsen(&fine);
        let f = action_fidelity(
            &fine,
            &coarse,
            |v| v.iter().copied().fold(f64::MIN, f64::max),
            |v| v.iter().copied().fold(f64::MIN, f64::max),
            relative_closeness,
        );
        // Max over bucket sums overestimates max over elements.
        assert!(f.fidelity < 1.0);
        assert!(f.coarse_answer > f.fine_answer);
    }

    #[test]
    fn relative_closeness_bounds() {
        assert_eq!(relative_closeness(&0.0, &0.0), 1.0);
        assert_eq!(relative_closeness(&10.0, &10.0), 1.0);
        assert_eq!(relative_closeness(&10.0, &0.0), 0.0);
        let c = relative_closeness(&10.0, &9.0);
        assert!((c - 0.9).abs() < 1e-12);
    }

    #[test]
    fn empty_coarse_is_infinite_reduction() {
        let c = BucketSum { bucket: 4 };
        let report = c.report(&Vec::new());
        assert!(report.reduction_factor().is_infinite());
        assert!(!report.shrinks());
    }
}
