//! **E3** — §4 research question 2: "Can we automatically identify which
//! network partitions have more 'stable' traffic demand patterns to
//! coarsen only the stable parts?"
//!
//! Compares three time-coarsening policies at (approximately) matched
//! output size on a log whose pairs mix stable and regime-shifting traffic:
//!
//! * uniform-fine: short windows everywhere (large output, accurate);
//! * uniform-coarse: long windows everywhere (small output, misses
//!   volatile pairs' regime shifts);
//! * adaptive: CV-classified — long windows for stable pairs, short for
//!   volatile ones ("coarsen only the stable parts").
//!
//! Fidelity is measured on the planning-relevant question: the mean
//! relative error of each pair's *daily p95 demand* as recalled from the
//! coarse log, against the true daily p95 computed from the raw log.
//! Regime shifts inside a long window are exactly what this gets wrong.

use smn_core::bwlogs::{AdaptiveCoarsener, CoarseBwRecord, CoveringRows, TimeCoarsener};
use smn_core::coarsen::Coarsening;
use smn_telemetry::record::BandwidthRecord;
use smn_telemetry::series::Statistic;
use smn_telemetry::sizing::BW_RECORD_BYTES;
use smn_telemetry::time::{DAY, HOUR};

/// Mean relative error of daily-p95 recall over all (pair, day) cells.
///
/// A cell's estimate is the first statistic of the pair's row whose
/// window covers midday ([`CoveringRows`], which holds for the adaptive
/// log's mix of window sizes).
fn estimate_error(log: &[BandwidthRecord], coarse: &[CoarseBwRecord], days: u64) -> f64 {
    use std::collections::HashMap;
    let rows = CoveringRows::new(coarse);
    // True daily p95 per (pair, day).
    let mut samples: HashMap<(u32, u32, u64), Vec<f64>> = HashMap::new();
    for r in log {
        samples.entry((r.src, r.dst, r.ts.day())).or_default().push(r.gbps);
    }
    let mut total = 0.0;
    let mut n = 0usize;
    for ((src, dst, day), mut vals) in samples {
        if day >= days {
            continue;
        }
        vals.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let truth = smn_telemetry::series::percentile_sorted(&vals, 95.0);
        let midday = smn_telemetry::time::Ts(day * DAY + DAY / 2);
        if let Some(est) = rows.estimate(src, dst, midday) {
            total += (est - truth).abs() / truth.max(1e-9);
            n += 1;
        }
    }
    total / n.max(1) as f64
}

fn main() {
    let p = smn_bench::planetary_small();
    // High-churn period: volatile pairs shift regimes every 4 days, so
    // long windows straddle shifts ("in a time of high churn, we want to
    // coarsen the logs more often to not miss trends", §4).
    let model = smn_telemetry::traffic::TrafficModel::new(
        &p.wan,
        smn_telemetry::traffic::TrafficConfig { regime_days: 4, ..Default::default() },
    );
    let days: u64 = 30;
    let log = smn_bench::bw_log(&model, 0, days);
    let fine_bytes = log.len() * BW_RECORD_BYTES;
    let volatile_share = model
        .pairs()
        .iter()
        .filter(|pr| pr.class == smn_telemetry::traffic::PairClass::Volatile)
        .count() as f64
        / model.pairs().len() as f64;
    println!(
        "{} pairs ({:.0}% volatile), {days} days, fine log {} rows / {} bytes\n",
        model.pairs().len(),
        volatile_share * 100.0,
        log.len(),
        fine_bytes
    );

    let stats = vec![Statistic::P95];
    let mut rows = Vec::new();
    let measure = |name: &str, coarse: Vec<CoarseBwRecord>, rows: &mut Vec<Vec<String>>| {
        let bytes = smn_core::bwlogs::coarse_log_bytes(&coarse);
        let err = estimate_error(&log, &coarse, days);
        rows.push(vec![
            name.to_string(),
            format!("{}", coarse.len()),
            format!("{:.1}x", fine_bytes as f64 / bytes as f64),
            format!("{:.1}%", err * 100.0),
        ]);
        (bytes, err)
    };

    measure(
        "uniform fine (6h windows)",
        TimeCoarsener::new(6 * HOUR, stats.clone()).coarsen(&log),
        &mut rows,
    );
    measure(
        "uniform coarse (5d windows)",
        TimeCoarsener::new(5 * DAY, stats.clone()).coarsen(&log),
        &mut rows,
    );
    let adaptive = AdaptiveCoarsener {
        cv_threshold: 0.35,
        stable_window: 5 * DAY,
        volatile_window: 6 * HOUR,
        stats: stats.clone(),
    };
    let volatile_detected = adaptive.volatile_pairs(&log).len();
    measure("adaptive (CV-classified)", adaptive.coarsen(&log), &mut rows);

    println!(
        "{}",
        smn_bench::render_table(
            &["policy", "rows", "byte reduction", "daily-p95 recall error"],
            &rows
        )
    );
    println!(
        "adaptive classified {volatile_detected} pairs as volatile; expected shape: adaptive \
         achieves near-uniform-coarse size at near-uniform-fine error."
    );
}
