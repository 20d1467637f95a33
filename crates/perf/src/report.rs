//! The unified `BenchReport` schema (version 1) — every `BENCH_*.json`
//! perf-trajectory snapshot in the workspace serializes to this shape.
//!
//! A report separates what machines may *gate* on from what they may only
//! *watch*:
//!
//! * [`Metric`]s are deterministic outcomes of the benched code — counts,
//!   solver iterations, routed gigabits, coarse sizes. Equal seeds and
//!   equal code produce equal metrics on any machine, so the regression
//!   gate compares them exactly.
//! * [`Phase`]s are wall-clock aggregates keyed by the profiler's
//!   span-tree path (see `smn_obs::profile`). They are machine-dependent
//!   trend data the gate never reads; `periodbench` compares wall time
//!   across alternating runs instead.
//! * [`Attr`]s are free-form string facts (outcome hashes, campaign
//!   seeds) carried for cross-run forensics.
//!
//! Reports carry no wall-clock timestamps; run identity comes from the
//! `seed`, the topology `scale`, and the `revision` string the caller
//! passes (e.g. `git describe` via `smn perf record --revision`).
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use serde::{Deserialize, Serialize};
use smn_topology::artifact::Violation;
use smn_topology::path;

/// The artifact `kind` tag dispatched on by `smn lint`.
pub const BENCH_REPORT_KIND: &str = "bench-report";

/// Current schema version.
pub const BENCH_REPORT_SCHEMA: u64 = 1;

/// The topology scales a report may claim (`PlanetaryConfig::small`,
/// default 300, `scale_1000`, `scale_3000`).
pub const KNOWN_SCALES: [&str; 4] = ["small", "300", "1000", "3000"];

/// Revision recorded when the caller supplies none.
pub const UNVERSIONED: &str = "unversioned";

/// A deterministic, strictly-gated measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Flat name, slash-scoped (`"clean/accuracy"`, `"gk/iterations"`).
    pub name: String,
    /// The value; must be finite.
    pub value: f64,
    /// Unit label (`"count"`, `"gbps"`, `"pct"`, ...).
    pub unit: String,
}

/// A free-form string fact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attr {
    /// Name, same convention as metrics.
    pub name: String,
    /// Value.
    pub value: String,
}

/// Wall-time aggregate of one profiled span-tree path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// `;`-joined span-tree path (the folded-stack convention).
    pub path: String,
    /// Observations folded in.
    pub count: u64,
    /// Total wall milliseconds.
    pub total_ms: f64,
    /// Mean wall milliseconds per observation.
    pub mean_ms: f64,
    /// Worst single observation (max, or p99 for histogram-derived rows).
    pub worst_ms: f64,
}

impl Phase {
    /// Build a phase row from histogram-style wall stats (the shape the
    /// bench binaries record via `smn_bench::wall_stats`): total is
    /// reconstructed as `mean * count`, worst is the p99.
    #[must_use]
    pub fn from_wall_stats(path: &str, count: u64, mean_ms: f64, p99_ms: f64) -> Self {
        #[allow(clippy::cast_precision_loss, reason = "sample counts stay far below 2^52")]
        let total_ms = mean_ms * count as f64;
        Phase { path: path.to_string(), count, total_ms, mean_ms, worst_ms: p99_ms }
    }
}

impl From<&smn_obs::PhaseStat> for Phase {
    fn from(s: &smn_obs::PhaseStat) -> Self {
        Phase {
            path: s.path.clone(),
            count: s.count,
            total_ms: s.total_ms,
            mean_ms: s.mean_ms,
            worst_ms: s.worst_ms,
        }
    }
}

/// One versioned perf-trajectory snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// Artifact kind tag: always [`BENCH_REPORT_KIND`].
    pub kind: String,
    /// Schema version: always [`BENCH_REPORT_SCHEMA`].
    pub schema: u64,
    /// Bench name (`"degraded_mode"`, `"perf_record"`, ...).
    pub bench: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Topology scale, one of [`KNOWN_SCALES`].
    pub scale: String,
    /// Code revision the run was taken at (caller-supplied; never read
    /// from the environment to keep emitters deterministic).
    pub revision: String,
    /// Deterministic measurements (strictly gated).
    pub metrics: Vec<Metric>,
    /// Free-form string facts.
    pub attrs: Vec<Attr>,
    /// Wall-time profile rows (never gated).
    pub phases: Vec<Phase>,
}

impl BenchReport {
    /// Start an empty report at the current schema version.
    #[must_use]
    pub fn new(bench: &str, seed: u64, scale: &str) -> Self {
        BenchReport {
            kind: BENCH_REPORT_KIND.to_string(),
            schema: BENCH_REPORT_SCHEMA,
            bench: bench.to_string(),
            seed,
            scale: scale.to_string(),
            revision: UNVERSIONED.to_string(),
            metrics: Vec::new(),
            attrs: Vec::new(),
            phases: Vec::new(),
        }
    }

    /// Set the revision (builder-style).
    #[must_use]
    pub fn with_revision(mut self, revision: &str) -> Self {
        self.revision = revision.to_string();
        self
    }

    /// Append a deterministic metric.
    pub fn push_metric(&mut self, name: &str, value: f64, unit: &str) {
        self.metrics.push(Metric { name: name.to_string(), value, unit: unit.to_string() });
    }

    /// Append a string attribute.
    pub fn push_attr(&mut self, name: &str, value: impl Into<String>) {
        self.attrs.push(Attr { name: name.to_string(), value: value.into() });
    }

    /// Append one phase row.
    pub fn push_phase(&mut self, phase: Phase) {
        self.phases.push(phase);
    }

    /// Append an entire wall profile (`smn_obs::Obs::wall_profile`).
    pub fn push_profile(&mut self, stats: &[smn_obs::PhaseStat]) {
        self.phases.extend(stats.iter().map(Phase::from));
    }

    /// Look up a metric value by name.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Look up a phase row by path.
    #[must_use]
    pub fn phase(&self, path: &str) -> Option<&Phase> {
        self.phases.iter().find(|p| p.path == path)
    }

    /// Sort metrics/attrs by name and phases by path, making the
    /// serialized form independent of push order.
    pub fn normalize(&mut self) {
        self.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        self.attrs.sort_by(|a, b| a.name.cmp(&b.name));
        self.phases.sort_by(|a, b| a.path.cmp(&b.path));
    }

    /// Serialize, normalized, as pretty-printed JSON (no trailing
    /// newline).
    #[must_use]
    pub fn to_json_pretty(&self) -> String {
        let mut sorted = self.clone();
        sorted.normalize();
        // The schema contains only serializable primitives; failing here
        // would be a vendored-serde bug.
        serde_json::to_string_pretty(&sorted).unwrap_or_default()
    }

    /// Parse and structurally validate a report.
    ///
    /// # Errors
    /// When the JSON does not parse, does not match the schema shape, or
    /// fails [`BenchReport::validate`].
    pub fn from_json(s: &str) -> Result<Self, String> {
        let report: BenchReport = serde_json::from_str(s).map_err(|e| e.to_string())?;
        report.validate()?;
        Ok(report)
    }

    /// The first of [`BenchReport::violations`], rendered.
    ///
    /// # Errors
    /// With a message naming the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        match BenchReport::violations(self).first() {
            Some(v) => Err(v.to_string()),
            None => Ok(()),
        }
    }

    /// Structural validity: right kind and schema version, known scale,
    /// unique metric names, attr names and phase paths, finite metric
    /// values, non-negative finite timings.
    #[must_use]
    pub fn violations(&self) -> Vec<Violation> {
        let mut out = Vec::new();
        if self.kind != BENCH_REPORT_KIND {
            out.push(Violation::new(
                "artifact/unknown-kind",
                path!["kind"],
                format!("kind {:?} is not {BENCH_REPORT_KIND:?}", self.kind),
                "",
            ));
        }
        if self.schema != BENCH_REPORT_SCHEMA {
            out.push(Violation::new(
                "artifact/bench-schema",
                path!["schema"],
                format!(
                    "schema version {} is not the supported version {BENCH_REPORT_SCHEMA}",
                    self.schema
                ),
                "re-record the snapshot with the current emitters; the schema \
                 version only moves when emitters and checker move together",
            ));
        }
        if !KNOWN_SCALES.contains(&self.scale.as_str()) {
            out.push(Violation::new(
                "artifact/bench-scale",
                path!["scale"],
                format!("unknown topology scale `{}`", self.scale),
                "expected one of: small, 300, 1000, 3000",
            ));
        }
        for (i, m) in self.metrics.iter().enumerate() {
            if self.metrics.iter().take(i).any(|p| p.name == m.name) {
                out.push(Violation::new(
                    "artifact/duplicate-id",
                    path!["metrics", i],
                    format!("duplicate metric `{}`", m.name),
                    "metric names are unique per report; the regression gate indexes by name",
                ));
            }
            if !m.value.is_finite() {
                out.push(Violation::new(
                    "artifact/negative-timing",
                    path!["metrics", i],
                    format!("metric `{}` has non-finite value {}", m.name, m.value),
                    "deterministic metrics gate strictly and must be finite",
                ));
            }
        }
        for (i, a) in self.attrs.iter().enumerate() {
            if self.attrs.iter().take(i).any(|p| p.name == a.name) {
                out.push(Violation::new(
                    "artifact/duplicate-id",
                    path!["attrs", i],
                    format!("duplicate attr `{}`", a.name),
                    "attr names are unique per report",
                ));
            }
        }
        for (i, p) in self.phases.iter().enumerate() {
            if self.phases.iter().take(i).any(|q| q.path == p.path) {
                out.push(Violation::new(
                    "artifact/duplicate-id",
                    path!["phases", i],
                    format!("duplicate phase path `{}`", p.path),
                    "each span-tree path aggregates into exactly one phase row",
                ));
            }
            for (field, v) in
                [("total_ms", p.total_ms), ("mean_ms", p.mean_ms), ("worst_ms", p.worst_ms)]
            {
                if !v.is_finite() || v < 0.0 {
                    out.push(Violation::new(
                        "artifact/negative-timing",
                        path!["phases", i, field],
                        format!("phase `{}` has invalid {field}: {v}", p.path),
                        "wall aggregates are non-negative finite milliseconds",
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

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("sample", 7, "small").with_revision("r1");
        r.push_metric("z/second", 2.0, "count");
        r.push_metric("a/first", 1.5, "gbps");
        r.push_attr("hash", "abc123");
        r.push_phase(Phase::from_wall_stats("outer;inner", 4, 2.0, 3.5));
        r.push_phase(Phase {
            path: "outer".into(),
            count: 1,
            total_ms: 10.0,
            mean_ms: 10.0,
            worst_ms: 10.0,
        });
        r
    }

    #[test]
    fn roundtrips_and_normalizes() {
        let r = sample();
        let json = r.to_json_pretty();
        let back = BenchReport::from_json(&json).unwrap();
        assert_eq!(back.bench, "sample");
        assert_eq!(back.metric("a/first"), Some(1.5));
        // Normalized: metric and phase order is name/path-sorted.
        assert_eq!(back.metrics[0].name, "a/first");
        assert_eq!(back.phases[0].path, "outer");
        // Serialization is push-order independent.
        let mut reordered = sample();
        reordered.metrics.reverse();
        reordered.phases.reverse();
        assert_eq!(reordered.to_json_pretty(), json);
    }

    #[test]
    fn wall_stats_phase_reconstructs_total() {
        let p = Phase::from_wall_stats("x", 4, 2.5, 9.0);
        assert!((p.total_ms - 10.0).abs() < 1e-12);
        assert!((p.worst_ms - 9.0).abs() < 1e-12);
    }

    #[test]
    fn validation_rejects_bad_reports() {
        let mut r = sample();
        r.scale = "450".into();
        assert!(r.validate().unwrap_err().contains("unknown topology scale"));

        let mut r = sample();
        r.schema = 2;
        assert!(r.validate().unwrap_err().contains("schema"));

        let mut r = sample();
        r.push_metric("a/first", 3.0, "gbps");
        assert!(r.validate().unwrap_err().contains("duplicate metric"));

        let mut r = sample();
        r.push_metric("bad", f64::NAN, "count");
        assert!(r.validate().unwrap_err().contains("non-finite"));

        let mut r = sample();
        r.phases[0].total_ms = -1.0;
        assert!(r.validate().unwrap_err().contains("total_ms"));
    }

    #[test]
    fn profile_rows_import_from_obs() {
        let obs = smn_obs::Obs::enabled(smn_obs::clock::SimClock::new());
        obs.record_phase_ns("a", 2_000_000);
        obs.record_phase_ns("a;b", 500_000);
        let mut r = BenchReport::new("p", 1, "300");
        r.push_profile(&obs.wall_profile());
        assert_eq!(r.phases.len(), 2);
        assert_eq!(r.phase("a").unwrap().count, 1);
        assert!((r.phase("a;b").unwrap().total_ms - 0.5).abs() < 1e-9);
        r.validate().unwrap();
    }
}
