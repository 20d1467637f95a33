//! Property tests for `smn perf diff` and `smn perf gate`.
//!
//! The CLI's contract is determinism: diffing a report set against itself
//! is always empty, the rendered diff is byte-identical no matter what
//! order the input files were listed in, and the gate passes a run against
//! its own baseline but trips on any change to a metric. Reports here are generated, not hand-picked, so the
//! contract holds across arbitrary metric/attr/phase contents.

use proptest::collection::vec;
use proptest::prelude::*;

use smn_perf::gate::gate_reports;
use smn_perf::report::Phase;
use smn_perf::{diff_reports, render_diff, BenchReport};

const NAMES: [&str; 8] = [
    "gk/iterations",
    "routed_gbps",
    "clean/accuracy",
    "coarsen/rows",
    "lake/ingested",
    "cdg/suggestions",
    "topology/dcs",
    "telemetry/records",
];

const SCALES: [&str; 4] = ["small", "300", "1000", "3000"];

/// Build a report from generated raw material. Metric names are drawn
/// from a fixed pool and deduplicated (the schema requires uniqueness).
fn build_report(
    bench: &str,
    seed: u64,
    scale_ix: usize,
    metrics: &[(usize, f64)],
    phases: &[(usize, u64, f64)],
) -> BenchReport {
    let mut r = BenchReport::new(bench, seed, SCALES[scale_ix % SCALES.len()]);
    let mut used = std::collections::BTreeSet::new();
    for &(name_ix, value) in metrics {
        let name = NAMES[name_ix % NAMES.len()];
        if used.insert(name) {
            r.push_metric(name, value, "count");
        }
    }
    let mut used_paths = std::collections::BTreeSet::new();
    for &(name_ix, count, mean_ms) in phases {
        let path = format!("perf/{}", NAMES[name_ix % NAMES.len()]);
        if used_paths.insert(path.clone()) {
            r.push_phase(Phase::from_wall_stats(&path, count.max(1), mean_ms, mean_ms * 2.0));
        }
    }
    r
}

proptest! {
    #[test]
    fn diff_of_self_is_empty(
        seed in 0u64..1000,
        scale_ix in 0usize..4,
        metrics in vec((0usize..8, 0.0f64..1e6), 0..8),
        phases in vec((0usize..8, 1u64..50, 0.0f64..100.0), 0..8),
    ) {
        let set = [
            build_report("alpha", seed, scale_ix, &metrics, &phases),
            build_report("beta", seed.wrapping_add(1), scale_ix, &metrics, &phases),
        ];
        prop_assert!(diff_reports(&set, &set).is_empty());
        prop_assert_eq!(render_diff(&diff_reports(&set, &set)), "no differences\n");
    }

    #[test]
    fn diff_output_is_independent_of_input_file_order(
        seed in 0u64..1000,
        metrics in vec((0usize..8, 0.0f64..1e6), 1..8),
        phases in vec((0usize..8, 1u64..50, 0.0f64..100.0), 0..8),
        bump in 1.0f64..100.0,
    ) {
        let a = build_report("alpha", seed, 1, &metrics, &phases);
        let b = build_report("beta", seed, 2, &metrics, &phases);
        let c = build_report("gamma", seed, 3, &metrics, &phases);
        let mut cur_a = a.clone();
        cur_a.metrics[0].value += bump;
        let cur = [cur_a, b.clone(), c.clone()];

        // Every permutation of the baseline file list renders the same bytes.
        let fwd = render_diff(&diff_reports(&[a.clone(), b.clone(), c.clone()], &cur));
        let rev = render_diff(&diff_reports(&[c.clone(), b.clone(), a.clone()], &cur));
        let rot = render_diff(&diff_reports(&[b, c, a], &cur));
        prop_assert_eq!(&fwd, &rev);
        prop_assert_eq!(&fwd, &rot);
        prop_assert!(fwd.contains("alpha metric"));
    }

    #[test]
    fn gate_passes_a_run_against_itself(
        seed in 0u64..1000,
        metrics in vec((0usize..8, 0.0f64..1e6), 0..8),
        phases in vec((0usize..8, 1u64..50, 0.001f64..100.0), 0..8),
    ) {
        let set = [build_report("alpha", seed, 0, &metrics, &phases)];
        prop_assert!(gate_reports(&set, &set).is_empty());
    }

    #[test]
    fn gate_trips_on_any_change_of_one_ulp_or_more(
        base_value in 0.0f64..1e6,
        zero_base in 0u8..8,
        ulps_log2 in 0u32..40,
        up in 0u8..2,
    ) {
        // One case in eight gates a zero baseline; the step size is
        // log-uniform, so changes of a few ulps are drawn as often as large
        // ones.
        let base_value = if zero_base == 0 { 0.0 } else { base_value };
        let ulps = 1u64 << ulps_log2;
        let mut base = BenchReport::new("alpha", 7, "300");
        base.push_metric("m", base_value, "count");
        // Non-negative floats order like their bit patterns, so stepping
        // the bits moves the value by exactly `ulps` representable values.
        let bits = base_value.to_bits();
        let moved = if up == 1 || bits < ulps { bits + ulps } else { bits - ulps };
        let mut cur = base.clone();
        cur.metrics[0].value = f64::from_bits(moved);
        let v = gate_reports(&[base], &[cur]);
        prop_assert_eq!(v.len(), 1);
        prop_assert_eq!(v[0].kind.as_str(), "metric-regression");
    }
}

#[test]
fn serialized_roundtrip_preserves_diff_emptiness() {
    // File-level determinism: write → read → diff is still empty.
    let mut r = BenchReport::new("alpha", 7, "300");
    r.push_metric("gk/iterations", 1234.0, "count");
    r.push_phase(Phase::from_wall_stats("perf/te", 3, 1.5, 2.0));
    let back = BenchReport::from_json(&r.to_json_pretty()).unwrap();
    assert!(diff_reports(&[r], &[back]).is_empty());
}
