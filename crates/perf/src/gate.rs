//! The perf regression gate (`smn perf gate`).
//!
//! The gate compares a current report set against committed baselines and
//! reports violations. It reads only metrics: they are deterministic work
//! counts (equal seed + scale + code ⇒ equal values on any machine), so
//! they gate on *exact* equality. A legitimate algorithm change shows up
//! here and is answered by re-recording the baseline in the same PR.
//! Wall time is not gated here; `periodbench` measures it with
//! alternating pairs and per-metric bounds.
//!
//! Coverage may grow by whole benches but never silently: a bench or
//! metric that vanished, and a metric the baseline does not carry yet,
//! are both violations.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::collections::BTreeMap;

use crate::report::BenchReport;

/// One gate violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Bench the violation is in.
    pub bench: String,
    /// Violation class: `"missing-bench"`, `"missing-metric"`,
    /// `"unbaselined-metric"`, `"metric-regression"`, or
    /// `"non-finite-metric"`.
    pub kind: String,
    /// Metric name (the bench name for `missing-bench`).
    pub name: String,
    /// Human-readable detail.
    pub message: String,
}

fn violation(bench: &str, kind: &str, name: &str, message: String) -> Violation {
    Violation { bench: bench.to_string(), kind: kind.to_string(), name: name.to_string(), message }
}

/// Gate `current` against `baseline`. Empty result = pass. Benches present
/// only in `current` are allowed (the trajectory grows); benches present
/// only in `baseline` are violations (coverage must not silently shrink),
/// and so is a current metric the baseline of its bench lacks (it would
/// otherwise never be compared).
#[must_use]
#[allow(clippy::float_cmp, reason = "deterministic counts gate on exact equality by design")]
pub fn gate_reports(baseline: &[BenchReport], current: &[BenchReport]) -> Vec<Violation> {
    let mut c_ix: BTreeMap<&str, &BenchReport> = BTreeMap::new();
    for r in current {
        c_ix.entry(r.bench.as_str()).or_insert(r);
    }
    let mut out = Vec::new();
    for base in baseline {
        let bench = base.bench.as_str();
        let Some(cur) = c_ix.get(bench) else {
            out.push(violation(
                bench,
                "missing-bench",
                bench,
                "bench present in baseline but absent from current run".to_string(),
            ));
            continue;
        };
        for m in &base.metrics {
            let Some(cv) = cur.metric(&m.name) else {
                out.push(violation(
                    bench,
                    "missing-metric",
                    &m.name,
                    format!("metric absent from current run (baseline {})", m.value),
                ));
                continue;
            };
            if !cv.is_finite() {
                out.push(violation(
                    bench,
                    "non-finite-metric",
                    &m.name,
                    format!("current value {cv} is not finite"),
                ));
            } else if cv != m.value {
                out.push(violation(
                    bench,
                    "metric-regression",
                    &m.name,
                    format!("{} -> {cv} differs from the baseline", m.value),
                ));
            }
        }
        for m in &cur.metrics {
            if base.metric(&m.name).is_none() {
                out.push(violation(
                    bench,
                    "unbaselined-metric",
                    &m.name,
                    format!("metric {} absent from the baseline; re-record it", m.value),
                ));
            }
        }
    }
    out.sort_by(|a, b| (&a.bench, &a.kind, &a.name).cmp(&(&b.bench, &b.kind, &b.name)));
    out
}

/// Render violations for the CLI (`"gate: pass\n"` when empty).
#[must_use]
pub fn render_gate(violations: &[Violation]) -> String {
    use std::fmt::Write;
    if violations.is_empty() {
        return "gate: pass\n".to_string();
    }
    let mut out = String::new();
    for v in violations {
        let _ = writeln!(out, "gate: FAIL [{}] {} {}: {}", v.kind, v.bench, v.name, v.message);
    }
    let _ = writeln!(out, "gate: {} violation(s)", violations.len());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Phase;

    fn report(bench: &str) -> BenchReport {
        let mut r = BenchReport::new(bench, 7, "300");
        r.push_metric("iterations", 100.0, "count");
        r.push_phase(Phase::from_wall_stats("perf/te", 1, 2.0, 2.0));
        r
    }

    #[test]
    fn identical_sets_pass() {
        let a = [report("x")];
        assert!(gate_reports(&a, &a).is_empty());
        assert_eq!(render_gate(&[]), "gate: pass\n");
    }

    #[test]
    fn zero_tolerance_requires_exact_equality() {
        let base = [report("x")];
        let mut cur = [report("x")];
        cur[0].metrics[0].value = 100.0 + f64::EPSILON * 128.0;
        assert_eq!(gate_reports(&base, &cur).len(), 1);
        cur[0].metrics[0].value = 100.0;
        assert!(gate_reports(&base, &cur).is_empty());
        // Wall phases are not gated at all.
        cur[0].phases[0].total_ms = 1e9;
        assert!(gate_reports(&base, &cur).is_empty());
    }

    #[test]
    fn missing_coverage_is_a_violation_but_growth_is_not() {
        let base = [report("x")];
        let mut cur = vec![report("x"), report("brand-new")];
        cur[0].metrics.clear();
        let v = gate_reports(&base, &cur);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "missing-metric");
        // A missing bench trips too.
        let v = gate_reports(&base, &[report("other")]);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "missing-bench");
    }

    #[test]
    fn current_metric_without_a_baseline_is_flagged() {
        let base = [report("x")];
        let mut cur = [report("x")];
        cur[0].push_metric("new/count", 3.0, "count");
        let v = gate_reports(&base, &cur);
        assert_eq!(v.len(), 1);
        assert_eq!((v[0].kind.as_str(), v[0].name.as_str()), ("unbaselined-metric", "new/count"));
        assert!(render_gate(&v).contains("[unbaselined-metric] x new/count"));
        // Re-recording the baseline with the new metric clears it.
        assert!(gate_reports(&cur, &cur).is_empty());
    }

    #[test]
    fn non_finite_current_metric_is_flagged() {
        let base = [report("x")];
        let mut cur = [report("x")];
        cur[0].metrics[0].value = f64::NAN;
        let v = gate_reports(&base, &cur);
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].kind, "non-finite-metric");
    }
}
