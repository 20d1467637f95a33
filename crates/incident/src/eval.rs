//! End-to-end incident-routing evaluation (the paper's §5 experiment).
//!
//! Pipeline: generate the 560-fault campaign → observe each fault →
//! group-split by injection signature (held-out root causes) → train the
//! three routers → report test accuracy for each:
//!
//! * Scouts-style distributed baseline (paper: ~22 %),
//! * centralized CLTO on internal health metrics only (paper: 45 %),
//! * centralized CLTO with symptom explainability (paper: 78 %).

use serde::{Deserialize, Serialize};
use smn_depgraph::syndrome::{Explainability, Propagation, Similarity};
use smn_ml::forest::ForestConfig;
use smn_ml::metrics::{accuracy, ConfusionMatrix};

use crate::app::{team_index, RedditDeployment, TEAMS};
use crate::faults::{generate_campaign, CampaignConfig};
use crate::features::FeatureView;
use crate::routing::{CltoRouter, ScoutsRouter};
use crate::sim::{observe, IncidentObservation, SimConfig};

/// Full configuration of one evaluation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalConfig {
    /// Fault-campaign parameters.
    pub campaign: CampaignConfig,
    /// Observation-model parameters.
    pub sim: SimConfig,
    /// Random-forest hyperparameters (shared by all routers).
    pub forest: ForestConfig,
    /// Fraction of injection-signature groups held out for testing.
    pub test_frac: f64,
    /// Split seed.
    pub split_seed: u64,
    /// Syndrome propagation semantics (ablation knob).
    pub propagation: Propagation,
    /// Syndrome similarity measure (ablation knob).
    pub similarity: Similarity,
}

impl Default for EvalConfig {
    fn default() -> Self {
        Self {
            campaign: CampaignConfig::default(),
            sim: SimConfig::default(),
            forest: ForestConfig {
                n_trees: 250,
                tree: smn_ml::tree::TreeConfig {
                    max_depth: 9,
                    min_samples_leaf: 6,
                    max_features: Some(20),
                    ..Default::default()
                },
                ..Default::default()
            },
            test_frac: 0.3,
            // Seed chosen so the held-out root causes cover all 8 teams.
            split_seed: 6,
            propagation: Propagation::Closure,
            similarity: Similarity::Cosine,
        }
    }
}

/// Results of one evaluation run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalResult {
    /// Test accuracy of the Scouts-style distributed baseline.
    pub scouts_accuracy: f64,
    /// Test accuracy of the CLTO with internal health metrics only.
    pub internal_accuracy: f64,
    /// Test accuracy of the CLTO with symptom explainability added.
    pub explainability_accuracy: f64,
    /// Confusion matrix of the full (explainability) router on the test set.
    pub confusion: ConfusionMatrix,
    /// Training incidents.
    pub n_train: usize,
    /// Held-out test incidents.
    pub n_test: usize,
}

impl EvalResult {
    /// Render the headline comparison as a text table.
    #[must_use]
    pub fn render(&self) -> String {
        format!(
            "incident routing accuracy over {} test incidents ({} train):\n\
             {:<42} {:>6.1}%\n{:<42} {:>6.1}%\n{:<42} {:>6.1}%\n",
            self.n_test,
            self.n_train,
            "Scouts-style distributed baseline",
            self.scouts_accuracy * 100.0,
            "CLTO, internal health metrics only",
            self.internal_accuracy * 100.0,
            "CLTO, + symptom explainability (CDG)",
            self.explainability_accuracy * 100.0,
        )
    }
}

/// Observe every fault of a campaign.
#[must_use]
pub fn observe_campaign(d: &RedditDeployment, cfg: &EvalConfig) -> Vec<IncidentObservation> {
    let faults = generate_campaign(d, &cfg.campaign);
    // Independent per-fault observation: parallelize across threads.
    let n_threads = std::thread::available_parallelism().map_or(4, std::num::NonZero::get);
    let chunk = faults.len().div_ceil(n_threads);
    std::thread::scope(|scope| {
        let handles: Vec<_> = faults
            .chunks(chunk)
            .map(|fs| {
                scope.spawn(move || fs.iter().map(|f| observe(d, f, &cfg.sim)).collect::<Vec<_>>())
            })
            .collect();
        handles
            .into_iter()
            // A join error means a child observation thread panicked:
            // propagate that panic rather than unwrapping a fresh one.
            .flat_map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    })
}

/// Split observations group-wise by injection signature.
#[must_use]
pub fn split_observations(
    observations: Vec<IncidentObservation>,
    test_frac: f64,
    seed: u64,
) -> (Vec<IncidentObservation>, Vec<IncidentObservation>) {
    use rand::seq::SliceRandom;
    use rand::SeedableRng;
    let mut groups: Vec<u64> = observations.iter().map(|o| o.fault.group_id()).collect();
    groups.sort_unstable();
    groups.dedup();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    groups.shuffle(&mut rng);
    let n_test = ((groups.len() as f64 * test_frac).round() as usize)
        .clamp(1, groups.len().saturating_sub(1));
    let test_groups: std::collections::HashSet<u64> = groups[..n_test].iter().copied().collect();
    observations.into_iter().partition(|o| !test_groups.contains(&o.fault.group_id()))
}

/// Run the full evaluation.
#[must_use]
pub fn evaluate(cfg: &EvalConfig) -> EvalResult {
    let d = RedditDeployment::build();
    let observations = observe_campaign(&d, cfg);
    let (train, test) = split_observations(observations, cfg.test_frac, cfg.split_seed);
    let ex = Explainability::with_options(&d.cdg, cfg.propagation, cfg.similarity);

    // Campaign faults always carry a deployment team; an unknown team
    // (impossible for a generated campaign) scores as a guaranteed miss
    // rather than panicking the evaluation.
    let truth: Vec<usize> =
        test.iter().map(|o| team_index(&o.fault.team).unwrap_or(usize::MAX)).collect();

    let scouts = ScoutsRouter::train(&d, &train, &cfg.forest);
    let scouts_pred = scouts.route(&d, &test);

    let internal = CltoRouter::train(&d, &ex, &train, FeatureView::InternalOnly, &cfg.forest);
    let internal_pred = internal.route(&d, &ex, &test);

    let full = CltoRouter::train(&d, &ex, &train, FeatureView::WithExplainability, &cfg.forest);
    let full_pred = full.route(&d, &ex, &test);

    EvalResult {
        scouts_accuracy: accuracy(&truth, &scouts_pred),
        internal_accuracy: accuracy(&truth, &internal_pred),
        explainability_accuracy: accuracy(&truth, &full_pred),
        confusion: ConfusionMatrix::new(TEAMS.len(), &truth, &full_pred),
        n_train: train.len(),
        n_test: test.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reduced-size smoke evaluation (fast); the full 560-fault run is
    /// exercised by the `incident_routing_eval` bench binary and an
    /// integration test.
    fn small_cfg() -> EvalConfig {
        EvalConfig {
            campaign: CampaignConfig { n_faults: 160, ..Default::default() },
            forest: ForestConfig { n_trees: 30, ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn split_respects_groups_and_sizes() {
        let d = RedditDeployment::build();
        let cfg = small_cfg();
        let obs = observe_campaign(&d, &cfg);
        let (train, test) = split_observations(obs, 0.3, 1);
        assert!(!train.is_empty() && !test.is_empty());
        let train_groups: std::collections::HashSet<u64> =
            train.iter().map(|o| o.fault.group_id()).collect();
        for o in &test {
            assert!(
                !train_groups.contains(&o.fault.group_id()),
                "test incident shares injection signature with training"
            );
        }
    }

    #[test]
    fn evaluation_orders_the_three_approaches() {
        let r = evaluate(&small_cfg());
        // The paper's qualitative result: distributed < internal-only <
        // internal+explainability.
        assert!(
            r.explainability_accuracy > r.internal_accuracy,
            "explainability {} should beat internal {}",
            r.explainability_accuracy,
            r.internal_accuracy
        );
        assert!(
            r.internal_accuracy > r.scouts_accuracy,
            "internal {} should beat scouts {}",
            r.internal_accuracy,
            r.scouts_accuracy
        );
        assert_eq!(r.n_train + r.n_test, 160);
    }

    /// The full 560-fault paper-scale run; slow, so ignored by default.
    /// Run with `cargo test -p smn-incident --release -- --ignored --nocapture`.
    ///
    /// Paper targets (§5): Scouts ≈ 22 %, internal-only ≈ 45 %, and with
    /// symptom explainability ≈ 78 %. Measured values are recorded in
    /// EXPERIMENTS.md; the assertions below check the reproduced *shape*.
    #[test]
    #[ignore = "paper-scale run; see bench binary incident_routing_eval"]
    fn full_paper_scale_run() {
        let r = evaluate(&EvalConfig::default());
        println!("{}", r.render());
        // Ordering: distributed << internal-only < +explainability.
        assert!(r.scouts_accuracy < r.internal_accuracy);
        assert!(r.internal_accuracy + 0.15 < r.explainability_accuracy);
        // Rough bands around the paper's numbers.
        assert!((0.15..0.40).contains(&r.scouts_accuracy), "scouts {}", r.scouts_accuracy);
        assert!((0.30..0.60).contains(&r.internal_accuracy), "internal {}", r.internal_accuracy);
        assert!(
            (0.60..0.90).contains(&r.explainability_accuracy),
            "explainability {}",
            r.explainability_accuracy
        );
    }

    #[test]
    fn render_mentions_all_rows() {
        let r = evaluate(&small_cfg());
        let txt = r.render();
        assert!(txt.contains("Scouts"));
        assert!(txt.contains("internal health"));
        assert!(txt.contains("explainability"));
    }
}
