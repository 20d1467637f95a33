//! Compare two report sets (`smn perf diff`).
//!
//! The diff is a pure function of its inputs: reports are matched by bench
//! name, every section is compared through order-independent indexes, and
//! the rows come out sorted by `(bench, kind, name)` — so the rendered
//! output is byte-identical regardless of the order the input files were
//! listed in, and diffing a report set against itself is empty.
#![cfg_attr(not(test), deny(clippy::disallowed_types))]

use std::collections::{BTreeMap, BTreeSet};

use crate::report::BenchReport;

/// One reported difference.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffRow {
    /// Bench the row belongs to.
    pub bench: String,
    /// Section: `"bench"`, `"meta"`, `"metric"`, `"attr"`, or `"phase"`.
    pub kind: String,
    /// Name within the section.
    pub name: String,
    /// Rendered baseline value (`"absent"` when missing).
    pub baseline: String,
    /// Rendered current value (`"absent"` when missing).
    pub current: String,
    /// Relative change in percent, when both sides are numeric and the
    /// baseline is nonzero.
    pub delta_pct: Option<f64>,
}

fn row(
    bench: &str,
    kind: &str,
    name: &str,
    baseline: String,
    current: String,
    delta_pct: Option<f64>,
) -> DiffRow {
    DiffRow {
        bench: bench.to_string(),
        kind: kind.to_string(),
        name: name.to_string(),
        baseline,
        current,
        delta_pct,
    }
}

fn pct(base: f64, cur: f64) -> Option<f64> {
    if base == 0.0 || !base.is_finite() || !cur.is_finite() {
        None
    } else {
        Some((cur - base) / base.abs() * 100.0)
    }
}

/// Exact f64 equality for diff purposes: total order, so `NaN == NaN` and
/// a report diffs empty against itself even with pathological values.
fn same(a: f64, b: f64) -> bool {
    a.total_cmp(&b) == std::cmp::Ordering::Equal
}

fn diff_pair(base: &BenchReport, cur: &BenchReport, rows: &mut Vec<DiffRow>) {
    let bench = base.bench.as_str();
    for (name, b, c) in [
        ("schema", base.schema.to_string(), cur.schema.to_string()),
        ("seed", base.seed.to_string(), cur.seed.to_string()),
        ("scale", base.scale.clone(), cur.scale.clone()),
        ("revision", base.revision.clone(), cur.revision.clone()),
    ] {
        if b != c {
            rows.push(row(bench, "meta", name, b, c, None));
        }
    }

    let b_metrics: BTreeMap<&str, f64> =
        base.metrics.iter().map(|m| (m.name.as_str(), m.value)).collect();
    let c_metrics: BTreeMap<&str, f64> =
        cur.metrics.iter().map(|m| (m.name.as_str(), m.value)).collect();
    for name in b_metrics.keys().chain(c_metrics.keys()).collect::<BTreeSet<_>>() {
        match (b_metrics.get(name), c_metrics.get(name)) {
            (Some(b), Some(c)) if !same(*b, *c) => {
                rows.push(row(bench, "metric", name, b.to_string(), c.to_string(), pct(*b, *c)));
            }
            (Some(b), None) => {
                rows.push(row(bench, "metric", name, b.to_string(), "absent".into(), None));
            }
            (None, Some(c)) => {
                rows.push(row(bench, "metric", name, "absent".into(), c.to_string(), None));
            }
            _ => {}
        }
    }

    let b_attrs: BTreeMap<&str, &str> =
        base.attrs.iter().map(|a| (a.name.as_str(), a.value.as_str())).collect();
    let c_attrs: BTreeMap<&str, &str> =
        cur.attrs.iter().map(|a| (a.name.as_str(), a.value.as_str())).collect();
    for name in b_attrs.keys().chain(c_attrs.keys()).collect::<BTreeSet<_>>() {
        let b = b_attrs.get(name).copied().unwrap_or("absent");
        let c = c_attrs.get(name).copied().unwrap_or("absent");
        if b != c {
            rows.push(row(bench, "attr", name, b.to_string(), c.to_string(), None));
        }
    }

    let b_phases: BTreeMap<&str, &crate::report::Phase> =
        base.phases.iter().map(|p| (p.path.as_str(), p)).collect();
    let c_phases: BTreeMap<&str, &crate::report::Phase> =
        cur.phases.iter().map(|p| (p.path.as_str(), p)).collect();
    for path in b_phases.keys().chain(c_phases.keys()).collect::<BTreeSet<_>>() {
        match (b_phases.get(path), c_phases.get(path)) {
            (Some(b), Some(c)) if b.count != c.count || !same(b.total_ms, c.total_ms) => {
                rows.push(row(
                    bench,
                    "phase",
                    path,
                    format!("{}x {:.3}ms", b.count, b.total_ms),
                    format!("{}x {:.3}ms", c.count, c.total_ms),
                    pct(b.total_ms, c.total_ms),
                ));
            }
            (Some(b), None) => {
                rows.push(row(
                    bench,
                    "phase",
                    path,
                    format!("{}x {:.3}ms", b.count, b.total_ms),
                    "absent".into(),
                    None,
                ));
            }
            (None, Some(c)) => {
                rows.push(row(
                    bench,
                    "phase",
                    path,
                    "absent".into(),
                    format!("{}x {:.3}ms", c.count, c.total_ms),
                    None,
                ));
            }
            _ => {}
        }
    }
}

/// Diff two report sets. Reports are matched by bench name (first report
/// wins on a duplicate name); unmatched benches produce a `bench` row.
#[must_use]
pub fn diff_reports(baseline: &[BenchReport], current: &[BenchReport]) -> Vec<DiffRow> {
    let mut b_ix: BTreeMap<&str, &BenchReport> = BTreeMap::new();
    for r in baseline {
        b_ix.entry(r.bench.as_str()).or_insert(r);
    }
    let mut c_ix: BTreeMap<&str, &BenchReport> = BTreeMap::new();
    for r in current {
        c_ix.entry(r.bench.as_str()).or_insert(r);
    }
    let mut rows = Vec::new();
    for bench in b_ix.keys().chain(c_ix.keys()).collect::<BTreeSet<_>>() {
        match (b_ix.get(bench), c_ix.get(bench)) {
            (Some(b), Some(c)) => diff_pair(b, c, &mut rows),
            (Some(_), None) => {
                rows.push(row(bench, "bench", bench, "present".into(), "absent".into(), None));
            }
            (None, Some(_)) => {
                rows.push(row(bench, "bench", bench, "absent".into(), "present".into(), None));
            }
            // Unreachable: every key came from one of the two indexes.
            (None, None) => {}
        }
    }
    rows.sort_by(|a, b| (&a.bench, &a.kind, &a.name).cmp(&(&b.bench, &b.kind, &b.name)));
    rows
}

/// Render diff rows as a stable plain-text table (`"no differences\n"`
/// when empty).
#[must_use]
pub fn render_diff(rows: &[DiffRow]) -> String {
    use std::fmt::Write;
    if rows.is_empty() {
        return "no differences\n".to_string();
    }
    let mut out = String::new();
    for r in rows {
        let delta = r.delta_pct.map_or(String::new(), |d| format!("  ({d:+.2}%)"));
        let _ = writeln!(
            out,
            "{} {} {}: {} -> {}{}",
            r.bench, r.kind, r.name, r.baseline, r.current, delta
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::Phase;

    fn report(bench: &str) -> BenchReport {
        let mut r = BenchReport::new(bench, 7, "300");
        r.push_metric("gk/iterations", 120.0, "count");
        r.push_metric("routed", 55.5, "gbps");
        r.push_attr("hash", "aa");
        r.push_phase(Phase::from_wall_stats("perf/te", 3, 2.0, 4.0));
        r
    }

    #[test]
    fn self_diff_is_empty() {
        let a = [report("x"), report("y")];
        assert!(diff_reports(&a, &a).is_empty());
        assert_eq!(render_diff(&diff_reports(&a, &a)), "no differences\n");
    }

    #[test]
    fn input_order_does_not_change_output() {
        let fwd = [report("x"), report("y")];
        let rev = [report("y"), report("x")];
        let mut cur = [report("x"), report("y")];
        cur[0].metrics[0].value = 140.0;
        cur[1].push_metric("extra", 1.0, "count");
        let a = render_diff(&diff_reports(&fwd, &cur));
        let b = render_diff(&diff_reports(&rev, &cur));
        assert_eq!(a, b);
        assert!(a.contains("x metric gk/iterations: 120 -> 140  (+16.67%)"));
        assert!(a.contains("y metric extra: absent -> 1"));
    }

    #[test]
    fn missing_benches_and_meta_changes_surface() {
        let base = [report("x"), report("gone")];
        let mut cur = vec![report("x"), report("new")];
        cur[0].revision = "r2".into();
        let rows = diff_reports(&base, &cur);
        let kinds: Vec<(&str, &str)> =
            rows.iter().map(|r| (r.kind.as_str(), r.name.as_str())).collect();
        assert_eq!(kinds, [("bench", "gone"), ("bench", "new"), ("meta", "revision")]);
        assert_eq!(rows[0].current, "absent");
        assert_eq!(rows[1].baseline, "absent");
    }

    #[test]
    fn phase_changes_report_relative_delta() {
        let base = [report("x")];
        let mut cur = [report("x")];
        cur[0].phases[0].total_ms = 12.0;
        let rows = diff_reports(&base, &cur);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].kind, "phase");
        assert!((rows[0].delta_pct.unwrap() - 100.0).abs() < 1e-9);
    }
}
